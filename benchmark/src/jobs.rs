//! The `serve_mix` traffic: a seeded generator of small jobs over eight
//! hot plan keys (90%) and a pool of cold keys (10%) that always miss
//! the server's 16-entry plan cache.
//!
//! The generator owns the seed. The server under test receives specs and
//! grids only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_core::exec::{Method, Shape};
use stencil_core::{AnyGrid, StencilSpec};

use crate::grids::{cells, seeded_grid, shape_of, state_hash};
use crate::workloads::reference_plan;

/// Hot keys: every dimensionality, both element widths, all three
/// boundaries, 30 µs – 3 ms of sweep each.
const HOT: [(&str, [usize; 3], usize); 8] = [
    ("1d3p", [1500, 0, 0], 8),
    ("1d5p", [40_000, 0, 0], 8),
    ("1d3p@f32", [40_000, 0, 0], 8),
    ("2d5p", [256, 256, 0], 8),
    ("2d5p@periodic", [512, 256, 0], 10),
    ("2d9p@reflect@f32", [320, 200, 0], 4),
    ("3d7p", [64, 64, 64], 4),
    ("3d27p", [32, 32, 32], 2),
];

/// Cold keys per client. A client walks its own pool round-robin, so
/// `COLD_PER_CLIENT − 1` other cold plans enter the cache between two
/// uses of one key — with 16 slots, every cold job is a miss and an
/// eviction.
pub const COLD_PER_CLIENT: usize = 32;

/// Share of cold jobs, in percent.
const COLD_PERCENT: u64 = 10;

/// One plan key with its input grid and the hash its output must have.
pub struct KeyData {
    pub spec: StencilSpec,
    pub shape: Shape,
    pub steps: usize,
    pub grid: AnyGrid,
    /// `state_hash` of `grid` after `steps` by the scalar oracle; filled
    /// by [`JobSet::set_oracles`].
    pub oracle: u64,
}

impl KeyData {
    fn new(spec: &str, shape: Shape, steps: usize, seed: u64) -> KeyData {
        let spec: StencilSpec = spec.parse().expect("job specs are valid");
        KeyData {
            grid: seeded_grid(shape, &spec, seed),
            spec,
            shape,
            steps,
            oracle: 0,
        }
    }

    pub fn updates(&self) -> u64 {
        (cells(self.shape) * self.steps) as u64
    }
}

/// Which job a client sends next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobRef {
    Hot(usize),
    /// Index into the cold pool (already client-specific).
    Cold(usize),
}

pub struct JobSet {
    pub hot: Vec<KeyData>,
    /// `clients × COLD_PER_CLIENT` keys; client `c` owns the slice
    /// `c·COLD_PER_CLIENT..`, so two clients never share a cold key.
    pub cold: Vec<KeyData>,
    seed: u64,
}

impl JobSet {
    /// Keys and input grids for `clients` closed-loop clients.
    pub fn generate(seed: u64, clients: usize) -> JobSet {
        let hot = HOT
            .iter()
            .enumerate()
            .map(|(k, &(spec, dims, steps))| {
                KeyData::new(spec, shape_of(dims), steps, seed ^ (0x100 + k as u64))
            })
            .collect();
        let cold = (0..clients * COLD_PER_CLIENT)
            .map(|i| {
                KeyData::new(
                    "2d5p",
                    Shape::d2(256 + 8 * i, 128),
                    2,
                    seed ^ (0x1_0000 + i as u64),
                )
            })
            .collect();
        JobSet { hot, cold, seed }
    }

    pub fn key(&self, j: JobRef) -> &KeyData {
        match j {
            JobRef::Hot(k) => &self.hot[k],
            JobRef::Cold(i) => &self.cold[i],
        }
    }

    /// The first `n` jobs of client `client`: a pure function of the
    /// seed, the client and the position — never of timing.
    pub fn sequence(&self, client: usize, n: usize) -> Vec<JobRef> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (0xC11E_0000 + client as u64));
        let mut next_cold = 0;
        (0..n)
            .map(|_| {
                let r = rng.next_u64();
                if r % 100 < COLD_PERCENT {
                    let i = client * COLD_PER_CLIENT + next_cold % COLD_PER_CLIENT;
                    next_cold += 1;
                    JobRef::Cold(i)
                } else {
                    JobRef::Hot(((r >> 32) % self.hot.len() as u64) as usize)
                }
            })
            .collect()
    }

    /// The output hash of every key (hot, then cold) by an untiled
    /// sequential plan of `method` run directly — no server, no cache,
    /// no queue.
    pub fn oracles(&self, method: Method) -> Vec<u64> {
        self.hot
            .iter()
            .chain(&self.cold)
            .map(|k| {
                let mut g = k.grid.clone();
                reference_plan(k.shape, &k.spec, method).run(&mut g, k.steps);
                state_hash(&g)
            })
            .collect()
    }

    /// Install hashes from [`JobSet::oracles`] of a set with this seed.
    pub fn set_oracles(&mut self, oracles: &[u64]) {
        assert_eq!(oracles.len(), self.hot.len() + self.cold.len());
        for (k, &o) in self.hot.iter_mut().chain(&mut self.cold).zip(oracles) {
            k.oracle = o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_different_seed_different_jobs() {
        let a = JobSet::generate(11, 2);
        let b = JobSet::generate(11, 2);
        let c = JobSet::generate(12, 2);
        for client in 0..2 {
            assert_eq!(a.sequence(client, 500), b.sequence(client, 500));
            assert_ne!(a.sequence(client, 500), c.sequence(client, 500));
        }
        assert_ne!(a.sequence(0, 500), a.sequence(1, 500));
        // A longer run extends a shorter one.
        assert_eq!(a.sequence(0, 500)[..100], a.sequence(0, 100)[..]);
        for (x, y) in a.hot.iter().zip(&b.hot) {
            assert_eq!(state_hash(&x.grid), state_hash(&y.grid));
        }
        assert_ne!(state_hash(&a.hot[0].grid), state_hash(&c.hot[0].grid));
    }

    #[test]
    fn mix_is_ninety_ten_and_cold_keys_never_repeat_within_a_cache_lifetime() {
        let set = JobSet::generate(5, 2);
        let seq = set.sequence(1, 4000);
        let cold: Vec<usize> = seq
            .iter()
            .filter_map(|j| match j {
                JobRef::Cold(i) => Some(*i),
                JobRef::Hot(_) => None,
            })
            .collect();
        let share = cold.len() as f64 / seq.len() as f64;
        assert!((0.08..0.12).contains(&share), "cold share {share}");
        assert!(cold
            .iter()
            .all(|&i| (COLD_PER_CLIENT..2 * COLD_PER_CLIENT).contains(&i)));
        for w in cold.windows(COLD_PER_CLIENT) {
            let mut seen = w.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), COLD_PER_CLIENT, "a cold key came back too soon");
        }
        for k in 0..8 {
            assert!(seq.contains(&JobRef::Hot(k)), "hot key {k} never drawn");
        }
        // Every cold key is its own plan key (distinct shape).
        let mut widths: Vec<usize> = set.cold.iter().map(|k| k.shape.dims()[0]).collect();
        widths.dedup();
        assert_eq!(widths.len(), 2 * COLD_PER_CLIENT);
    }

    #[test]
    fn oracles_agree_between_scalar_and_multiload() {
        let mut set = JobSet::generate(3, 1);
        let scalar = set.oracles(Method::Scalar);
        assert_eq!(scalar, set.oracles(Method::MultiLoad));
        set.set_oracles(&scalar);
        for k in set.hot.iter().chain(&set.cold) {
            assert_ne!(k.oracle, state_hash(&k.grid), "{} {:?}", k.spec, k.shape);
        }
    }
}
