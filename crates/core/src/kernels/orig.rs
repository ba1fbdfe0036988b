//! Vectorized kernels on the **natural (original) layout** — the two
//! conventional schemes the paper describes in §2.1 and uses as baselines:
//!
//! * `REORG = false` — **multiple loads**: every x-neighbour is an
//!   unaligned vector load (`2r` of the `2r+1` loads are unaligned). This
//!   "represents a class of auto-vectorization in modern compilers"
//!   (paper §4.2) and maximizes memory traffic.
//! * `REORG = true` — **data reorganization**: only aligned loads
//!   (previous / current / next vector), with every x-neighbour vector
//!   assembled by inter-register `alignr` shuffles — `4r` shuffle ops per
//!   *output vector* (the transpose layout needs that many per *vector
//!   set*, a `vl×` reduction).
//!
//! Both share one code path; the `REORG` const folds at monomorphization.
//! The 2D/3D range loops are written once per dimension over the
//! [`Row2`]/[`Row3`] family strategy, whose `orig_span` is the per-row
//! vector body. Edges of the requested range that do not fill a whole
//! vector fall back to the scalar reference, preserving bit-identical
//! results.

use stencil_simd::Vector;

use super::row::{Row2, Row3};
use super::scalar;
use crate::stencil::{Star1, MAX_R};

/// Splat the first `w.len()` weights into vector registers.
#[inline(always)]
pub(crate) unsafe fn splat_w<V: Vector, const N: usize>(w: &[f64]) -> [V; N] {
    let mut wv = [V::zero(); N];
    for o in 0..w.len() {
        wv[o] = V::splat_f64(w[o]);
    }
    wv
}

/// The x-neighbour vector at offset `d` from aligned position `i`.
///
/// # Safety
/// Aligned loads at `i ± LANES` must be in bounds (grid halo pads
/// guarantee this for `|d| ≤ R ≤ LANES`).
#[inline(always)]
pub(crate) unsafe fn xvec<V: Vector, const REORG: bool>(
    row: *const V::Elem,
    i: usize,
    d: isize,
) -> V {
    if REORG {
        let l = V::LANES as isize;
        if d == 0 {
            V::load(row.add(i))
        } else if d < 0 {
            let prev = V::load(row.offset(i as isize - l));
            let cur = V::load(row.add(i));
            V::alignr(cur, prev, (l + d) as usize)
        } else {
            let cur = V::load(row.add(i));
            let next = V::load(row.offset(i as isize + l));
            V::alignr(next, cur, d as usize)
        }
    } else {
        V::loadu(row.offset(i as isize + d))
    }
}

/// Vector-aligned sub-range of `[lo, hi)`: `(vlo, vhi)` with both multiples
/// of `lanes` and `lo ≤ vlo ≤ vhi ≤ hi`.
#[inline(always)]
fn vrange(lo: usize, hi: usize, lanes: usize) -> (usize, usize) {
    let vlo = lo.div_ceil(lanes) * lanes;
    if vlo >= hi {
        return (vlo, vlo);
    }
    (vlo, vlo + (hi - vlo) / lanes * lanes)
}

/// One Jacobi step of a 1D star stencil over `[lo, hi)`, original layout.
///
/// # Safety
/// Pointers valid over the range plus halo pads; `src != dst`.
#[inline(always)]
pub unsafe fn star1_orig<V: Vector, S: Star1, const REORG: bool>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    lo: usize,
    hi: usize,
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    debug_assert!(r <= l);
    let (vlo, vhi) = vrange(lo, hi, l);
    scalar::star1_range(src, dst, lo, vlo.min(hi), s);
    if vlo >= vhi {
        scalar::star1_range(src, dst, vlo.max(lo).min(hi), hi, s);
        return;
    }
    let wv: [V; 2 * MAX_R + 1] = splat_w(s.w());
    let mut i = vlo;
    while i < vhi {
        let mut acc = xvec::<V, REORG>(src, i, -(r as isize)).mul(wv[0]);
        for o in 1..=2 * r {
            acc = xvec::<V, REORG>(src, i, o as isize - r as isize).mul_add(wv[o], acc);
        }
        acc.store(dst.add(i));
        i += l;
    }
    scalar::star1_range(src, dst, vhi, hi, s);
}

/// One Jacobi step of a 2D stencil of family `K` over
/// `[y0,y1) × [x0,x1)`, original layout: per row, the vector-aligned
/// span runs [`Row2::orig_span`] and the unaligned edges fall back to the
/// scalar reference.
///
/// # Safety
/// Pointers valid over the range plus halo (rows `y ± R` addressable).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid2_orig<V: Vector, K: Row2, const REORG: bool>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    rs: usize,
    y0: usize,
    y1: usize,
    x0: usize,
    x1: usize,
    s: &K::S,
) {
    let (vlo, vhi) = vrange(x0, x1, V::LANES);
    let w = K::splat::<V>(s);
    for y in y0..y1 {
        scalar::grid2_range::<_, K>(src, dst, rs, y, y + 1, x0, vlo.min(x1), s);
        if vlo < vhi {
            K::orig_span::<V, REORG>(src.add(y * rs), dst.add(y * rs), rs, vlo, vhi, &w);
            scalar::grid2_range::<_, K>(src, dst, rs, y, y + 1, vhi, x1, s);
        } else {
            scalar::grid2_range::<_, K>(src, dst, rs, y, y + 1, vlo.max(x0).min(x1), x1, s);
        }
    }
}

/// One Jacobi step of a 3D stencil of family `K` over a box of cells,
/// original layout (see [`grid2_orig`]).
///
/// # Safety
/// Pointers valid over the range plus halo.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid3_orig<V: Vector, K: Row3, const REORG: bool>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    rs: usize,
    ps: usize,
    z0: usize,
    z1: usize,
    y0: usize,
    y1: usize,
    x0: usize,
    x1: usize,
    s: &K::S,
) {
    let (vlo, vhi) = vrange(x0, x1, V::LANES);
    let w = K::splat::<V>(s);
    for z in z0..z1 {
        for y in y0..y1 {
            let edge = |xa: usize, xb: usize| {
                scalar::grid3_range::<_, K>(src, dst, rs, ps, z, z + 1, y, y + 1, xa, xb, s)
            };
            edge(x0, vlo.min(x1));
            if vlo < vhi {
                let o = z * ps + y * rs;
                K::orig_span::<V, REORG>(src.add(o), dst.add(o), rs, ps, vlo, vhi, &w);
                edge(vhi, x1);
            } else {
                edge(vlo.max(x0).min(x1), x1);
            }
        }
    }
}
