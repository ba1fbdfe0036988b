//! The parallel untiled driver: spatial domain decomposition over the
//! persistent worker pool.
//!
//! A plan with [`super::Parallelism`] resolved to `k > 1` threads and no
//! temporal tiling partitions its grid into `k` contiguous bands along
//! the **outermost real axis** of its [`Geo`] (`x` of a row, `y` of a
//! plane, `z` of a volume — one driver, the axis is data). Each time
//! step dispatches one work item per band onto the pool; the `for_each`
//! barrier at the end of the step is the synchronization point — the
//! ping-pong source buffer is shared and immutable within a step, so a
//! band's boundary reads see the neighbour's *previous-step* values by
//! construction, and no cells are ever exchanged or copied.
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
//! Non-Dirichlet [`Boundary`] conditions follow the ownership rule of
//! [`super::halo`]: after a band steps its slabs it refreshes, in the
//! step's destination buffer, the halo cells whose fold sources it just
//! computed (`halo::refresh_own`). Each halo cell has one writer, and
//! the end-of-step barrier orders its write before the next step reads
//! it. One band-parallel refresh of the first source precedes the first
//! step.

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
    // SAFETY: both buffers carry ≥ r halo rows/planes and the row pad
    // (asserted at session open) and extents ≥ r were validated at plan
    // build; `band` lies in the outermost axis. Within one dispatch each
    // halo cell has exactly one writer (the owner of its fold source),
    // and no band reads the refreshed buffer before the barrier.
    let refresh_own =
        |buf: usize, band| unsafe { halo::refresh_own(st.bufs[buf].0, geo, r, b, &map, band) };
    pool.install(|| {
        if !b.is_dirichlet() {
            bands
                .clone()
                .into_par_iter()
                .for_each(|band| refresh_own(0, band));
        }
        for time in 0..t {
            bands.clone().into_par_iter().for_each(|band| {
                let mut bx = geo.interior();
                bx[axis] = band;
                st.step(bx, time);
                refresh_own((time + 1) % 2, band);
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
