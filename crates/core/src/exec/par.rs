//! The parallel untiled drivers: spatial domain decomposition over the
//! persistent worker pool.
//!
//! A plan with [`super::Parallelism`] resolved to `k > 1` threads and no
//! temporal tiling partitions its grid into `k` contiguous bands along
//! the **outermost real axis** of its [`Geo`] (`x` of a row, `y` of a
//! plane, `z` of a volume — one driver, the axis is data). Two drivers
//! share the bands:
//!
//! * [`passes`] — a fused 2D/3D `TransLayout2` plan advances the grid
//!   `k` steps **in place** per pass, one work item per band per pass.
//!   A first dispatch fills the **seam strips** of every seam between
//!   bands (and, under a refreshed boundary, the wrap) from the main
//!   buffer, which no task writes then; after its barrier every band
//!   sweeps its own slabs through its own ring, reading past its edges
//!   only through those strips. Two barriers per `k` steps. A
//!   sequential plan runs the same tasks, one band, on its own thread.
//! * [`drive`] — every other untiled plan, and the lone last step of a
//!   fused run: one work item per band per step (a sequential plan, or
//!   a 1D DLT row too narrow for column tiles, is one band run on its
//!   own thread); the `for_each` barrier at
//!   the end of the step is the synchronization point — the ping-pong
//!   source buffer is shared and immutable within a step, so a band's
//!   boundary reads see the neighbour's *previous-step* values by
//!   construction, and no cells are ever exchanged or copied.
//!
//! Bit-exactness falls out of the same property the tessellate driver
//! relies on: every kernel in this workspace produces identical bits for
//! a cell regardless of the range it was invoked over, so carving the
//! domain into bands (any bands) cannot change the result, and a fixed
//! band layout per plan makes parallel runs deterministic run-to-run.
//!
//! A 1D DLT row is the exception and never reaches these drivers: its
//! vector core is indexed by DLT *column*, a different index space rather
//! than a different rank, so the plan runs it as the column split of
//! chunk height 1 (`split::drive_cols`). 2D/3D DLT plans band the
//! outermost axis like every other method, with full DLT rows inside.
//!
//! Non-Dirichlet [`Boundary`] conditions follow the ownership rule of
//! [`super::halo`]: after a band steps its slabs (or sweeps them) it
//! refreshes, in the buffer it wrote, the halo cells whose fold sources
//! it just computed (`halo::refresh_own`). Each halo cell has one
//! writer, and the dispatch's barrier orders its write before the next
//! step or pass reads it. One band-parallel refresh of the first source
//! precedes the first step or pass.

use std::ops::Range;

use rayon::prelude::*;
use stencil_simd::Elem;

use super::halo::{self, BandPass, Boundary, PassTask, RowMap};
use super::tess::{Stepper, SyncPtr};
use crate::kernels::Geo;

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

/// The fused pass of depth `k` over `geo`'s outermost real axis, cut
/// into the bands of `threads` workers (see [`BandPass`]).
pub(crate) fn band_pass(geo: &Geo, r: usize, k: usize, b: Boundary, threads: usize) -> BandPass {
    let n = geo.n[geo.ndim - 1];
    BandPass::new(n, r, k, b, bands(n, threads))
}

/// Advance `st.bufs[0]` in place by fused passes of `min(depth, steps
/// left)` while at least two steps are left, one band of the outermost
/// real axis per work item; returns the steps left (0 or 1). `ring` is
/// the plan's ring buffer, sized for the deepest pass by
/// [`BandPass::layout`] (absent in 1D, whose pass needs none).
///
/// Under a refreshed boundary one band-parallel refresh of the grid's
/// halos comes first. Each pass is then two dispatches: every seam's
/// strips are filled while the main buffer is only read, and after that
/// barrier every band sweeps its own slabs in place, reading its
/// neighbours' through the strips. A slab's own shell (x halos, and in
/// 3D the plane's halo rows) is folded as the pass writes it; after its
/// sweep the band copies the outer halo slabs whose fold sources it
/// owns (`halo::refresh_outer`) — slabs no band reads during the sweep,
/// since under a refreshed boundary every read past a band's edge goes
/// to a strip. The sweep's barrier orders those writes before the next
/// pass's seams read them. Without a pool (a sequential plan) the same
/// tasks run in order on the calling thread.
pub(crate) fn passes<T: Elem>(
    st: &Stepper<'_, T>,
    ring: Option<*mut T>,
    depth: usize,
    t: usize,
    pool: Option<&rayon::ThreadPool>,
    threads: usize,
    b: Boundary,
) -> usize {
    let (geo, r) = (st.geo, st.k.radius());
    let map = RowMap::for_method::<T>(st.method, st.isa, geo.n[0]);
    let n = geo.n[geo.ndim - 1];
    let bands = bands(n, threads);
    let each = |items: Range<usize>, f: &(dyn Fn(usize) + Sync)| match pool {
        Some(pool) => pool.install(|| items.into_par_iter().for_each(f)),
        None => items.for_each(f),
    };
    // SAFETY: the buffer carries ≥ r halo rows/planes and the row pad
    // (asserted at session open), extents ≥ r were validated at plan
    // build, and each band refreshes the halo cells it owns.
    let refresh_own =
        |i: usize| unsafe { halo::refresh_own(st.bufs[0].0, geo, r, b, &map, bands[i]) };
    if !b.is_dirichlet() {
        each(0..bands.len(), &refresh_own);
    }
    // Built once per depth: a small grid's pass takes a few µs.
    let pass_of = |k| BandPass::new(n, r, k, b, bands.clone());
    let full = pass_of(depth);
    let mut rest = t;
    while rest >= 2 {
        let steps = depth.min(rest);
        let last;
        let bp = if steps == depth {
            &full
        } else {
            last = pass_of(steps);
            &last
        };
        let at = |p: *mut T, offset: usize| SyncPtr(p.wrapping_add(offset));
        let bufs = match ring {
            Some(p) => {
                let (_, origin, strips) = bp.layout::<T>(geo);
                [at(p, origin), at(p, strips)]
            }
            None => [SyncPtr(std::ptr::null_mut()); 2],
        };
        // SAFETY: the session sized `ring` for the deepest pass, which
        // `bp` is no deeper than. Seam tasks write only their own strips
        // and read the main buffer; band tasks run after every seam task,
        // write only their own slabs and ring, and read other bands'
        // slabs only through the strips.
        let pass = |task| unsafe {
            let (main, [ring, strips]) = (st.bufs[0].0, bufs.map(|p| p.0));
            st.k.pass(st.isa, main, geo, ring, strips, bp, task, b, &map)
        };
        let seams = usize::from(b.is_dirichlet())..bands.len();
        if !seams.is_empty() {
            each(seams, &|s| pass(PassTask::Seam(s)));
        }
        each(0..bands.len(), &|i| {
            pass(PassTask::Band(i));
            // SAFETY: as `refresh_own`; the pass folded the shells of
            // the band's slabs as it wrote them.
            unsafe { halo::refresh_outer(st.bufs[0].0, geo, r, b, &map, bands[i]) };
        });
        rest -= steps;
    }
    rest
}

/// Step `t` levels over pre-prepared ping-pong buffers, one band of the
/// outermost real axis per pool thread, barrier per step (DLT plans of
/// rank ≥ 2 step full DLT rows inside each band). The step-`t` result
/// lands in `bufs[t % 2]` — the caller owns the parity swap. Without a
/// pool (a sequential plan) the bands run in order on the calling thread.
pub(crate) fn drive<T: Elem>(
    st: &Stepper<'_, T>,
    t: usize,
    pool: Option<&rayon::ThreadPool>,
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
    let each = |f: &(dyn Fn((usize, usize)) + Sync)| match pool {
        Some(pool) => pool.install(|| bands.clone().into_par_iter().for_each(f)),
        None => bands.iter().copied().for_each(f),
    };
    if !b.is_dirichlet() {
        each(&|band| refresh_own(0, band));
    }
    for time in 0..t {
        each(&|band| {
            let mut bx = geo.interior();
            bx[axis] = band;
            st.step(bx, time);
            refresh_own((time + 1) % 2, band);
        });
    }
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
