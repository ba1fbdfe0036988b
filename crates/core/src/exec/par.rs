//! The parallel untiled driver: spatial domain decomposition over the
//! persistent worker pool.
//!
//! A plan with [`super::Parallelism`] resolved to `k > 1` threads and no
//! temporal tiling partitions its grid into `k` contiguous bands along
//! the **outermost real axis** of its [`Geo`] (`x` of a row, `y` of a
//! plane, `z` of a volume — one driver, the axis is data). Each time
//! step dispatches one work item per band onto the pool; the `for_each`
//! barrier at the end of the step is the halo synchronization point —
//! the ping-pong source buffer is shared and immutable within a step, so
//! a band's boundary reads (its halo rows) see the neighbour's
//! *previous-step* values by construction, and no cells are ever
//! exchanged or copied.
//!
//! Bit-exactness falls out of the same property the tessellate driver
//! relies on: every kernel in this workspace produces identical bits for
//! a cell regardless of the range it was invoked over, so carving the
//! domain into bands (any bands) cannot change the result, and a fixed
//! band layout per plan makes parallel runs deterministic run-to-run.
//!
//! A 1D DLT row is the exception and never reaches this driver: its
//! vector core is indexed by DLT *column*, a different index space rather
//! than a different rank, so the plan runs it as the column split of
//! chunk height 1 (`split::drive_cols`). 2D/3D DLT plans band the
//! outermost axis like every other method, with full DLT rows inside.
//!
//! Non-Dirichlet [`Boundary`] conditions are **fused into the band work
//! items**: each band refreshes exactly the halo cells its own compute
//! reads (see `halo::refresh_band`) immediately before computing, while
//! those cache lines are hot — there is no serial refresh pre-pass and
//! no extra barrier. Bands overlap by the stencil radius, so adjacent
//! bands may write the same halo cell; every writer derives the value
//! from the step's shared *source* interior (immutable within the step),
//! so all writes store bit-identical values and the overlap is a benign
//! race on identical values. These bands are the only workers anywhere
//! in the engine that write a shared halo cell: the tiled drivers give
//! every halo refresh to one edge-group node per chunk.

use rayon::prelude::*;
use stencil_simd::Elem;

use super::halo::{self, Boundary, RowMap};
use super::tess::Stepper;

/// Split `[0, n)` into `k.min(n)` contiguous bands whose sizes differ by
/// at most one. Deterministic in `(n, k)`, which (with a fixed thread
/// count in the plan) makes parallel runs reproducible bit-for-bit.
pub(crate) fn bands(n: usize, k: usize) -> Vec<(usize, usize)> {
    let k = k.max(1).min(n.max(1));
    let (base, rem) = (n / k, n % k);
    let mut out = Vec::with_capacity(k);
    let mut lo = 0;
    for b in 0..k {
        let hi = lo + base + usize::from(b < rem);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Step `t` levels over pre-prepared ping-pong buffers, one band of the
/// outermost real axis per pool thread, barrier per step (DLT plans of
/// rank ≥ 2 step full DLT rows inside each band). The step-`t` result
/// lands in `bufs[t % 2]` — the caller owns the parity swap.
pub(crate) fn drive<T: Elem>(
    st: &Stepper<'_, T>,
    t: usize,
    pool: &rayon::ThreadPool,
    nthreads: usize,
    b: Boundary,
) {
    let (geo, r) = (st.geo, st.k.radius());
    let axis = geo.ndim - 1;
    let bands = bands(geo.n[axis], nthreads);
    let map = RowMap::for_method::<T>(st.method, st.isa, geo.n[0]);
    pool.install(|| {
        for time in 0..t {
            bands.clone().into_par_iter().for_each(|band| {
                // Fused wrap/mirror refresh of the halo cells this band
                // reads (no-op under Dirichlet); overlapping bands write
                // identical bits from the shared immutable source.
                unsafe { halo::refresh_band(st.bufs[time % 2].0, geo, r, b, &map, band) };
                let mut bx = geo.interior();
                bx[axis] = band;
                st.step(bx, time);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::bands;

    #[test]
    fn bands_partition_exactly() {
        for (n, k) in [(10usize, 3usize), (7, 7), (5, 8), (1, 4), (64, 1), (257, 6)] {
            let b = bands(n, k);
            assert_eq!(b.len(), k.min(n));
            assert_eq!(b.first().unwrap().0, 0);
            assert_eq!(b.last().unwrap().1, n);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0, "bands must tile contiguously");
            }
            let sizes: Vec<usize> = b.iter().map(|(lo, hi)| hi - lo).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "n={n} k={k}: uneven bands {sizes:?}");
        }
    }
}
