//! Kernels on the **DLT layout** (dimension-lifting transpose, Henretty et
//! al. — the paper's §2.2 baseline and the vectorization scheme inside the
//! SDSL comparison).
//!
//! In DLT space, the x-neighbour of column `j` is column `j±1`, so *every*
//! steady-state input is a contiguous aligned vector load — zero shuffles.
//! The price is paid elsewhere: the `vl` lanes of one vector are `n/vl`
//! cells apart, so a spatial tile touches `vl` distant memory regions
//! (the locality loss the paper's §3.1 pins on DLT), and the 2r *seam*
//! columns at the ends of the column range need cross-lane values, which
//! we process scalar through the index map.

use stencil_simd::{Elem, Vector};

use super::orig::splat_w;
use super::row::{Row2, Row3};
use crate::layout::{dlt_read, DltGeo};
use crate::stencil::{Star1, MAX_R};

/// Scalar update of logical cells `[lo, hi)` of a DLT row (mapped access).
///
/// # Safety
/// Row pointers valid with halos; `lo ≤ hi ≤ n`.
#[inline(always)]
pub unsafe fn star1_dlt_scalar<T: Elem, S: Star1>(
    src: *const T,
    dst: *mut T,
    lo: usize,
    hi: usize,
    geo: &DltGeo,
    s: &S,
) {
    let w = s.w();
    let cv = T::from_f64;
    let r = S::R as isize;
    for i in lo..hi {
        let ii = i as isize;
        let mut acc = cv(w[0]) * dlt_read(src, ii - r, geo);
        for o in 1..=2 * S::R {
            acc = dlt_read(src, ii - r + o as isize, geo).mul_add(cv(w[o]), acc);
        }
        *dst.add(geo.map(i)) = acc;
    }
}

/// Vector core of a 1D star step over DLT columns `[j0, j1)`.
///
/// # Safety
/// Caller must guarantee `R ≤ j0` and `j1 ≤ cols - R` (no seam columns)
/// and the usual pointer/feature contracts.
#[inline(always)]
pub unsafe fn star1_dlt_cols<V: Vector, S: Star1>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    j0: usize,
    j1: usize,
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    let wv: [V; 2 * MAX_R + 1] = splat_w(s.w());
    for j in j0..j1 {
        let base = j * l;
        let mut acc = V::load(src.add(base - r * l)).mul(wv[0]);
        for o in 1..=2 * r {
            let off = base as isize + (o as isize - r as isize) * l as isize;
            acc = V::load(src.offset(off)).mul_add(wv[o], acc);
        }
        acc.store(dst.add(base));
    }
}

/// Scalar update of the seam columns (`[0, R)` and `[cols-R, cols)`) of a
/// DLT row — all `vl` lanes of each seam column, through the index map.
///
/// # Safety
/// Row pointers valid with halos.
#[inline(always)]
pub unsafe fn star1_dlt_seams<T: Elem, S: Star1>(src: *const T, dst: *mut T, geo: &DltGeo, s: &S) {
    let r = S::R;
    let cols = geo.cols;
    for lane in 0..geo.vl {
        let base = lane * cols;
        star1_dlt_scalar(src, dst, base, base + r, geo, s);
        star1_dlt_scalar(src, dst, base + cols - r, base + cols, geo, s);
    }
}

/// One Jacobi step of a 1D star stencil over a full DLT row.
///
/// # Safety
/// Row pointers valid with halos; `src != dst`.
#[inline(always)]
pub unsafe fn star1_dlt<V: Vector, S: Star1>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    n: usize,
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    let geo = DltGeo::new(n, l);
    if geo.cols <= 2 * r {
        star1_dlt_scalar(src, dst, 0, n, &geo, s);
        return;
    }
    star1_dlt_seams(src, dst, &geo, s);
    star1_dlt_cols::<V, S>(src, dst, r, geo.cols - r, s);
    star1_dlt_scalar(src, dst, geo.region, n, &geo, s); // tail
}

/// Scalar seams + tail of one DLT row of `nx` cells: `cell(i)` is the
/// canonical accumulation at logical cell `i` (through the index map).
/// Returns whether a seam-free column range `[r, cols - r)` remains for
/// the caller's vector core (which stays out of this closure-taking
/// helper so it inlines into the caller's ISA feature context).
#[inline(always)]
unsafe fn dlt_row_edges<T: Elem>(
    d: *mut T,
    nx: usize,
    r: usize,
    geo: &DltGeo,
    cell: impl Fn(isize) -> T,
) -> bool {
    let scalar_cells = |lo: usize, hi: usize| {
        for i in lo..hi {
            *d.add(geo.map(i)) = cell(i as isize);
        }
    };
    if geo.cols <= 2 * r {
        scalar_cells(0, nx);
        return false;
    }
    for lane in 0..geo.vl {
        let base = lane * geo.cols;
        scalar_cells(base, base + r);
        scalar_cells(base + geo.cols - r, base + geo.cols);
    }
    scalar_cells(geo.region, nx);
    true
}

/// One Jacobi step of a 2D stencil of family `K` over rows `[y0, y1)`
/// (full x) in DLT layout; y-neighbours are aligned loads at identical
/// offsets, so the steady state is pure aligned loads (DLT's best case).
///
/// # Safety
/// Rows `y0-R..y1+R` addressable; `src != dst`.
#[inline(always)]
pub unsafe fn grid2_dlt<V: Vector, K: Row2>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    rs: usize,
    nx: usize,
    y0: usize,
    y1: usize,
    s: &K::S,
) {
    let geo = DltGeo::new(nx, V::LANES);
    let w = K::splat::<V>(s);
    for y in y0..y1 {
        let c = src.add(y * rs);
        let d = dst.add(y * rs);
        if dlt_row_edges(d, nx, K::R, &geo, |i| K::dlt_cell(c, rs, i, &geo, s)) {
            K::dlt_cols::<V>(c, d, rs, K::R, geo.cols - K::R, &w);
        }
    }
}

/// One Jacobi step of a 3D stencil of family `K` over planes `[z0, z1)`
/// (full x/y) in DLT layout.
///
/// # Safety
/// Planes/rows within radius addressable; `src != dst`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid3_dlt<V: Vector, K: Row3>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    rs: usize,
    ps: usize,
    nx: usize,
    ny: usize,
    z0: usize,
    z1: usize,
    s: &K::S,
) {
    let geo = DltGeo::new(nx, V::LANES);
    let w = K::splat::<V>(s);
    for z in z0..z1 {
        for y in 0..ny {
            let c = src.add(z * ps + y * rs);
            let d = dst.add(z * ps + y * rs);
            if dlt_row_edges(d, nx, K::R, &geo, |i| K::dlt_cell(c, rs, ps, i, &geo, s)) {
                K::dlt_cols::<V>(c, d, rs, ps, K::R, geo.cols - K::R, &w);
            }
        }
    }
}
