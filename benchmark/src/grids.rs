//! Seeded inputs and bit-exact output checks.
//!
//! The benchmark owns the seed; the program under test only ever sees
//! the grids made from it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_core::exec::Shape;
use stencil_core::{AnyGrid, StencilSpec};

/// A grid for `spec` whose interior is uniform in [0.25, 0.75): the
/// paper stencils are averaging, so values stay in that band (or decay
/// smoothly towards a Dirichlet wall) and no denormals arise however
/// long the integration runs.
pub fn seeded_grid(shape: Shape, spec: &StencilSpec, seed: u64) -> AnyGrid {
    let mut rng = StdRng::seed_from_u64(seed);
    AnyGrid::from_fn_spec(shape, spec, |_, _, _| rng.random_range(0.25..0.75))
        .expect("workload shapes match their specs")
}

/// Overwrite `dst` (halos included) with `src` without reallocating.
/// Both must come from the same key: same shape, spec and element type.
pub fn copy_grid(dst: &mut AnyGrid, src: &AnyGrid) {
    match (dst, src) {
        (AnyGrid::D1(d), AnyGrid::D1(s)) => d.copy_from(s),
        (AnyGrid::D2(d), AnyGrid::D2(s)) => d.copy_from(s),
        (AnyGrid::D3(d), AnyGrid::D3(s)) => d.copy_from(s),
        (AnyGrid::D1F32(d), AnyGrid::D1F32(s)) => d.copy_from(s),
        (AnyGrid::D2F32(d), AnyGrid::D2F32(s)) => d.copy_from(s),
        (AnyGrid::D3F32(d), AnyGrid::D3F32(s)) => d.copy_from(s),
        _ => panic!("copy_grid between grids of different kinds"),
    }
}

/// `[nx, ny, nz]` with trailing zeros for the unused axes, as the
/// workload tables write shapes.
pub fn shape_of(dims: [usize; 3]) -> Shape {
    match dims {
        [n, 0, 0] => Shape::d1(n),
        [nx, ny, 0] => Shape::d2(nx, ny),
        [nx, ny, nz] => Shape::d3(nx, ny, nz),
    }
}

/// Interior cell count of `shape`.
pub fn cells(shape: Shape) -> usize {
    shape.dims()[..shape.ndim()].iter().product()
}

/// FNV-1a-64 taken one 64-bit word at a time.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Visit the IEEE bits of every interior cell in row-major order (f32
/// cells zero-extended), halos excluded: halo contents legitimately
/// differ between methods, interiors may not.
fn for_each_cell_bits(g: &AnyGrid, mut f: impl FnMut(u64)) {
    match g {
        AnyGrid::D1(g) => g.interior().iter().for_each(|v| f(v.to_bits())),
        AnyGrid::D1F32(g) => g.interior().iter().for_each(|v| f(v.to_bits() as u64)),
        AnyGrid::D2(g) => {
            for y in 0..g.ny() {
                g.row(y).iter().for_each(|v| f(v.to_bits()));
            }
        }
        AnyGrid::D2F32(g) => {
            for y in 0..g.ny() {
                g.row(y).iter().for_each(|v| f(v.to_bits() as u64));
            }
        }
        AnyGrid::D3(g) => {
            for z in 0..g.nz() as isize {
                for y in 0..g.ny() as isize {
                    for x in 0..g.nx() as isize {
                        f(g.get(z, y, x).to_bits());
                    }
                }
            }
        }
        AnyGrid::D3F32(g) => {
            for z in 0..g.nz() as isize {
                for y in 0..g.ny() as isize {
                    for x in 0..g.nx() as isize {
                        f(g.get(z, y, x).to_bits() as u64);
                    }
                }
            }
        }
    }
}

/// `state_hash`: FNV-1a-64 over the interior bits, one word per cell.
/// Equal hashes are the benchmark's 0-ULP test; the engine's contract is
/// bit-identity across methods, ISAs and thread counts, so the value for
/// a given seed and op sequence is host-independent.
pub fn state_hash(g: &AnyGrid) -> u64 {
    let mut h = Fnv::new();
    for_each_cell_bits(g, |w| h.word(w));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // One zero word and the empty input, computed by hand from the
        // FNV-1a definition.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.word(0);
        assert_eq!(
            h.finish(),
            0xcbf2_9ce4_8422_2325u64.wrapping_mul(0x100_0000_01b3)
        );
    }

    #[test]
    fn state_hash_sees_every_interior_bit_and_no_halo() {
        let spec = StencilSpec::heat_2d5p();
        let shape = Shape::d2(24, 7);
        let a = seeded_grid(shape, &spec, 7);
        assert_eq!(state_hash(&a), state_hash(&seeded_grid(shape, &spec, 7)));
        assert_ne!(state_hash(&a), state_hash(&seeded_grid(shape, &spec, 8)));

        // Flip the lowest mantissa bit of one cell.
        let mut v = a.to_vec();
        v[24 * 3 + 5] = f64::from_bits(v[24 * 3 + 5].to_bits() ^ 1);
        let b = AnyGrid::from_vec_spec(shape, &spec, v).unwrap();
        assert_ne!(state_hash(&a), state_hash(&b));

        // Same interior, different halo fill: same hash.
        let c = AnyGrid::from_vec(shape, 1, 9.0, a.to_vec()).unwrap();
        assert_eq!(state_hash(&a), state_hash(&c));
    }

    #[test]
    fn seeded_values_stay_in_band_for_both_widths() {
        for name in ["3d7p@periodic", "2d9p@reflect@f32", "1d3p"] {
            let spec: StencilSpec = name.parse().unwrap();
            let shape = match spec.ndim() {
                1 => Shape::d1(100),
                2 => Shape::d2(20, 5),
                _ => Shape::d3(8, 5, 3),
            };
            let g = seeded_grid(shape, &spec, 1);
            assert_eq!(g.dtype(), spec.dtype());
            assert!(g.to_vec().iter().all(|v| (0.25..=0.75).contains(v)));
        }
    }
}
