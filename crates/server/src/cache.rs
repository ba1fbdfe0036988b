//! The plan cache: an LRU over compiled [`DynPlan`]s.
//!
//! Compiling a plan is the expensive part of serving a stencil job: the
//! builder validates the whole configuration, allocates the ping-pong
//! scratch grid (and the fused-pass ring or the tile staging arena where the
//! method needs one), and spawns the persistent worker pool. Running a
//! cached plan skips all of that — the steady-state cost of a job is
//! exactly the sweep itself.
//!
//! The key is **everything that selects a distinct compiled plan**:
//! the runtime stencil description (which carries the boundary condition
//! and element type, compared bitwise — see the `StencilSpec` docs), the
//! grid shape, and the three builder knobs (method, tiling, parallelism).
//! Two jobs that agree on all of these can share one plan; anything else
//! must not.
//!
//! The cache is a *checkout* cache: [`PlanCache::take`] removes the plan
//! so the dispatcher has exclusive use of its scratch buffers while the
//! job runs, and [`PlanCache::put`] returns it afterwards. A plan that
//! panics mid-run is simply never returned, so a poisoned scratch state
//! cannot leak into the next job.

use std::collections::HashMap;

use stencil_core::exec::{DynPlan, Method, Parallelism, Shape, Tiling};
use stencil_core::StencilSpec;

/// Everything that selects a distinct compiled plan.
///
/// The boundary condition and element type ride inside `spec` (with
/// bitwise weight/boundary-value comparison), so e.g. `Dirichlet(0.0)`
/// and `Dirichlet(-0.0)` are distinct keys — matching the bit-exactness
/// contract of the engine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Runtime stencil description (shape family, radius, weights,
    /// boundary, dtype).
    pub spec: StencilSpec,
    /// Problem extent.
    pub shape: Shape,
    /// Vectorization scheme.
    pub method: Method,
    /// Temporal tiling framework.
    pub tiling: Tiling,
    /// Core-level parallelism knob.
    pub parallelism: Parallelism,
}

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a ready plan.
    pub hits: u64,
    /// Lookups that had to compile a plan.
    pub misses: u64,
    /// Plans dropped to make room for a newer one.
    pub evictions: u64,
    /// Plans stored (first insert and every checkout return).
    pub inserts: u64,
    /// Plans currently resident.
    pub len: usize,
    /// Maximum resident plans (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache, in `[0, 1]`; 0 when no
    /// lookups have happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: DynPlan,
    last_used: u64,
}

/// LRU checkout cache, used under the server's cache mutex.
pub(crate) struct PlanCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<PlanKey, Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    inserts: u64,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            clock: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            inserts: 0,
        }
    }

    /// Check the plan for `key` out of the cache for exclusive use.
    /// Counts a hit or a miss either way.
    pub(crate) fn take(&mut self, key: &PlanKey) -> Option<DynPlan> {
        match self.entries.remove(key) {
            Some(e) => {
                self.hits += 1;
                Some(e.plan)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Return a plan after use (or store a freshly compiled one),
    /// evicting the least-recently-used entry if the cache is full.
    /// With `capacity == 0` the plan is simply dropped.
    pub(crate) fn put(&mut self, key: PlanKey, plan: DynPlan) {
        if self.capacity == 0 {
            return;
        }
        // A checkout return for a key that is (unexpectedly) still
        // resident just refreshes the entry; no eviction needed.
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.clock += 1;
        self.inserts += 1;
        self.entries.insert(
            key,
            Entry {
                plan,
                last_used: self.clock,
            },
        );
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            inserts: self.inserts,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::exec::Plan;

    fn key(name: &str, n: usize) -> PlanKey {
        PlanKey {
            spec: name.parse().unwrap(),
            shape: Shape::d1(n),
            method: Method::TransLayout2,
            tiling: Tiling::None,
            parallelism: Parallelism::Off,
        }
    }

    fn build(k: &PlanKey) -> DynPlan {
        Plan::new(k.shape)
            .method(k.method)
            .tiling(k.tiling)
            .parallelism(k.parallelism)
            .stencil(&k.spec)
            .unwrap()
    }

    #[test]
    fn take_put_round_trip_counts_hits_and_misses() {
        let mut c = PlanCache::new(4);
        let k = key("1d3p", 64);
        assert!(c.take(&k).is_none());
        c.put(k.clone(), build(&k));
        let p = c.take(&k).expect("hit after put");
        c.put(k.clone(), p);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len, s.inserts), (1, 1, 1, 2));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_oldest_entry() {
        let mut c = PlanCache::new(2);
        let (a, b, d) = (key("1d3p", 32), key("1d5p", 32), key("1d3p@periodic", 32));
        c.put(a.clone(), build(&a));
        c.put(b.clone(), build(&b));
        // Touch `a` so `b` becomes the LRU victim.
        let p = c.take(&a).unwrap();
        c.put(a.clone(), p);
        c.put(d.clone(), build(&d));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.take(&a).is_some(), "recently used entry survives");
        assert!(c.take(&b).is_none(), "LRU entry was evicted");
        assert!(c.take(&d).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        let k = key("1d3p", 32);
        c.put(k.clone(), build(&k));
        assert!(c.take(&k).is_none());
        assert_eq!(c.stats().len, 0);
    }
}
