//! Parallel untiled drivers: spatial domain decomposition over the
//! persistent worker pool.
//!
//! A plan with [`super::Parallelism`] resolved to `k > 1` threads and no
//! temporal tiling partitions its grid into `k` contiguous subdomains
//! along the outermost dimension (`x` in 1D, `y` in 2D, `z` in 3D — DLT
//! plans partition the DLT *column space* instead, see below). Each time
//! step dispatches one work item per subdomain onto the pool; the
//! `for_each` barrier at the end of the step is the halo synchronization
//! point — the ping-pong source buffer is shared and immutable within a
//! step, so a subdomain's boundary reads (its halo rows) see the
//! neighbour's *previous-step* values by construction, and no cells are
//! ever exchanged or copied.
//!
//! Bit-exactness falls out of the same property the tessellate drivers
//! rely on: every kernel in this workspace produces identical bits for a
//! cell regardless of the range it was invoked over, so carving the
//! domain into bands (any bands) cannot change the result, and a fixed
//! band layout per plan makes parallel runs deterministic run-to-run.
//!
//! DLT (1D): the vector core runs over interior DLT columns `[R,
//! cols−R)`, which are seam-free and can be banded arbitrarily; the seam
//! columns (cross-lane reads through the index map) and the natural tail
//! strip form one extra scalar work item. 2D/3D DLT bands the outermost
//! dimension like the other methods, with full DLT rows inside — the same
//! hybrid the split-tiling driver uses.
//!
//! Non-Dirichlet [`Boundary`] conditions are **fused into the band work
//! items**: each band refreshes exactly the halo cells its own compute
//! reads (see `halo::refresh*_band`) immediately before computing, while
//! those cache lines are hot — there is no serial refresh pre-pass and
//! no extra barrier. Bands overlap by the stencil radius, so adjacent
//! bands may write the same halo cell; every writer derives the value
//! from the step's shared *source* interior (immutable within the step),
//! so all writes store bit-identical doubles and the overlap is a benign
//! race on identical values. The 1D DLT driver folds the refresh into
//! its scalar `Edges` item instead — the seam-free `Cols` items never
//! read halo cells.

use rayon::prelude::*;
use stencil_simd::{Elem, Isa};

use super::halo::{self, Boundary, RowMap};
use super::split::dlt_cols_scalar;
use super::tess::{step1, step2, step3, SyncPtr};
use super::Method;
use crate::kernels::{Kernel1, Kernel2, Kernel3};
use crate::layout::DltGeo;

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

/// Step `t` levels of a 1D stencil (any non-DLT method) over pre-prepared
/// ping-pong buffers, one band per pool thread, barrier per step. The
/// step-`t` result lands in `bufs[t % 2]` — the caller owns the parity
/// swap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive1<T: Elem>(
    k: &dyn Kernel1<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    n: usize,
    t: usize,
    pool: &rayon::ThreadPool,
    nthreads: usize,
    b: Boundary,
) {
    let bands = bands(n, nthreads);
    let map = RowMap::for_method::<T>(method, isa, n);
    pool.install(|| {
        for time in 0..t {
            bands.clone().into_par_iter().for_each(|(lo, hi)| {
                // Fused wrap/mirror refresh of the halo cells this band
                // reads (no-op under Dirichlet); overlapping bands write
                // identical bits from the shared immutable source.
                unsafe { halo::refresh1_band(bufs[time % 2].0, n, k.radius(), b, &map, lo, hi) };
                step1(k, method, isa, bufs, n, lo, hi, time);
            });
        }
    });
}

/// One work item of the decomposed 1D DLT step.
#[derive(Copy, Clone)]
enum DltItem {
    /// Seam-free vector columns `[j0, j1)`.
    Cols(usize, usize),
    /// The scalar remainder: seam columns of every lane + the tail strip.
    Edges,
}

/// Step `t` levels of a 1D star stencil over pre-transformed DLT staging
/// buffers, banded in DLT column space. Caller guarantees
/// `geo.cols > 2·R` (the plan falls back to sequential stepping below
/// that). The step-`t` result lands in `bufs[t % 2]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive1_dlt<T: Elem>(
    k: &dyn Kernel1<T>,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    geo: &DltGeo,
    t: usize,
    pool: &rayon::ThreadPool,
    nthreads: usize,
    b: Boundary,
) {
    let r = k.radius();
    let map = RowMap::Dlt(*geo);
    let mut items: Vec<DltItem> = bands(geo.cols - 2 * r, nthreads)
        .into_iter()
        .map(|(lo, hi)| DltItem::Cols(r + lo, r + hi))
        .collect();
    items.push(DltItem::Edges);
    pool.install(|| {
        for time in 0..t {
            items.clone().into_par_iter().for_each(|item| unsafe {
                let src = bufs[time % 2].0.cast_const();
                let dst = bufs[(time + 1) % 2].0;
                match item {
                    DltItem::Cols(j0, j1) => k.dlt_cols(isa, src, dst, j0, j1),
                    DltItem::Edges => {
                        // The interior Cols items are seam-free and never
                        // read halo cells, so the wrap/mirror refresh is
                        // fused into the one item that does.
                        halo::refresh1(bufs[time % 2].0, geo.n, r, b, &map);
                        dlt_cols_scalar(k, src, dst, geo, 0, r);
                        dlt_cols_scalar(k, src, dst, geo, geo.cols - r, geo.cols);
                        k.dlt_scalar(src, dst, geo.region, geo.n, geo);
                    }
                }
            });
        }
    });
}

/// Step `t` levels of a 2D stencil over pre-prepared ping-pong buffers,
/// one `y`-band per pool thread, barrier per step (DLT plans step full
/// DLT rows inside each band). The step-`t` result lands in
/// `bufs[t % 2]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive2<T: Elem>(
    k: &dyn Kernel2<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    rs: usize,
    nx: usize,
    ny: usize,
    t: usize,
    pool: &rayon::ThreadPool,
    nthreads: usize,
    b: Boundary,
) {
    let bands = bands(ny, nthreads);
    let map = RowMap::for_method::<T>(method, isa, nx);
    pool.install(|| {
        for time in 0..t {
            bands.clone().into_par_iter().for_each(|(y0, y1)| {
                // Fused wrap/mirror refresh of the rows this band reads
                // (no-op under Dirichlet); seam overlaps write identical
                // bits from the shared source.
                let src = bufs[time % 2].0;
                unsafe { halo::refresh2_band(src, rs, nx, ny, k.radius(), b, &map, y0, y1) };
                step2(k, method, isa, bufs, rs, nx, (y0, y1), (0, nx), time);
            });
        }
    });
}

/// Step `t` levels of a 3D stencil over pre-prepared ping-pong buffers,
/// one `z`-band per pool thread, barrier per step (DLT plans step full
/// DLT rows inside each band). The step-`t` result lands in
/// `bufs[t % 2]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive3<T: Elem>(
    k: &dyn Kernel3<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    rs: usize,
    ps: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    t: usize,
    pool: &rayon::ThreadPool,
    nthreads: usize,
    b: Boundary,
) {
    let bands = bands(nz, nthreads);
    let map = RowMap::for_method::<T>(method, isa, nx);
    pool.install(|| {
        for time in 0..t {
            bands.clone().into_par_iter().for_each(|(z0, z1)| {
                // Fused wrap/mirror refresh of the planes this band reads
                // (no-op under Dirichlet); seam overlaps write identical
                // bits.
                let (src, r) = (bufs[time % 2].0, k.radius());
                unsafe { halo::refresh3_band(src, rs, ps, nx, ny, nz, r, b, &map, z0, z1) };
                let (zr, yr, xr) = ((z0, z1), (0, ny), (0, nx));
                step3(k, method, isa, bufs, rs, ps, nx, zr, yr, xr, time);
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
