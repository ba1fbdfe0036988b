//! Scalar reference kernels — the correctness oracle for every vectorized
//! method.
//!
//! Each kernel accumulates in the family's canonical order (see
//! [`crate::stencil`]) using the element's fused `mul_add`, so a
//! vectorized kernel that follows the same order produces
//! **bit-identical** results. The kernels are generic over the element
//! type ([`Elem`]): weights live in the stencil traits as `f64` and are
//! rounded to the element type exactly once per use via
//! [`Elem::from_f64`] — the identity for `f64`, and the same rounding
//! the SIMD paths apply when they splat weights into `f32` registers,
//! which is what keeps the f32 oracle and the f32 vector kernels
//! bit-identical to each other.
//!
//! The per-cell accumulators (`acc_*`) are the family-specific bodies;
//! the 2D/3D range loops are written once per dimension over the
//! [`Row2`]/[`Row3`] strategy that selects one. All kernels are
//! range-based over raw pointers so the tiling substrate can reuse them
//! on tile sub-ranges.

use stencil_simd::Elem;

use super::row::{Row2, Row3};
use crate::stencil::{Box2, Box3, Star1, Star2, Star3};

/// Canonical 1D star accumulation at cell `i`.
///
/// # Safety
/// `src` must be valid at `i ± R` (halo included).
#[inline(always)]
pub unsafe fn acc_star1<T: Elem, S: Star1>(src: *const T, i: isize, s: &S) -> T {
    let w = s.w();
    let r = S::R as isize;
    let mut acc = T::from_f64(w[0]) * *src.offset(i - r);
    for o in 1..=2 * S::R {
        acc = (*src.offset(i - r + o as isize)).mul_add(T::from_f64(w[o]), acc);
    }
    acc
}

/// Canonical 2D star accumulation at `(y, x)` given the row stride.
///
/// # Safety
/// `src` must be valid at `(y ± R, x ± R)`.
#[inline(always)]
pub unsafe fn acc_star2<T: Elem, S: Star2>(
    src: *const T,
    rs: usize,
    y: isize,
    x: isize,
    s: &S,
) -> T {
    let (wx, wy) = (s.wx(), s.wy());
    let r = S::R as isize;
    let row = src.offset(y * rs as isize);
    let mut acc = T::from_f64(wx[0]) * *row.offset(x - r);
    for o in 1..=2 * S::R {
        acc = (*row.offset(x - r + o as isize)).mul_add(T::from_f64(wx[o]), acc);
    }
    for d in 1..=S::R {
        let di = d as isize;
        acc = (*src.offset((y - di) * rs as isize + x)).mul_add(T::from_f64(wy[S::R - d]), acc);
        acc = (*src.offset((y + di) * rs as isize + x)).mul_add(T::from_f64(wy[S::R + d]), acc);
    }
    acc
}

/// Canonical 2D box accumulation at `(y, x)`.
///
/// # Safety
/// `src` must be valid at `(y ± R, x ± R)`.
#[inline(always)]
pub unsafe fn acc_box2<T: Elem, S: Box2>(src: *const T, rs: usize, y: isize, x: isize, s: &S) -> T {
    let w = s.w();
    let r = S::R as isize;
    let width = 2 * S::R + 1;
    let mut acc = T::from_f64(w[0]) * *src.offset((y - r) * rs as isize + x - r);
    let mut k = 1usize;
    for dy in -r..=r {
        let row = src.offset((y + dy) * rs as isize);
        let dx0 = if dy == -r { -r + 1 } else { -r };
        for dx in dx0..=r {
            acc = (*row.offset(x + dx)).mul_add(T::from_f64(w[k]), acc);
            k += 1;
        }
    }
    debug_assert_eq!(k, width * width);
    acc
}

/// Canonical 3D star accumulation at `(z, y, x)`.
///
/// # Safety
/// `src` must be valid at `(z ± R, y ± R, x ± R)`.
#[inline(always)]
pub unsafe fn acc_star3<T: Elem, S: Star3>(
    src: *const T,
    rs: usize,
    ps: usize,
    z: isize,
    y: isize,
    x: isize,
    s: &S,
) -> T {
    let (wx, wy, wz) = (s.wx(), s.wy(), s.wz());
    let r = S::R as isize;
    let row = src.offset(z * ps as isize + y * rs as isize);
    let mut acc = T::from_f64(wx[0]) * *row.offset(x - r);
    for o in 1..=2 * S::R {
        acc = (*row.offset(x - r + o as isize)).mul_add(T::from_f64(wx[o]), acc);
    }
    for d in 1..=S::R {
        let di = d as isize;
        acc = (*src.offset(z * ps as isize + (y - di) * rs as isize + x))
            .mul_add(T::from_f64(wy[S::R - d]), acc);
        acc = (*src.offset(z * ps as isize + (y + di) * rs as isize + x))
            .mul_add(T::from_f64(wy[S::R + d]), acc);
    }
    for d in 1..=S::R {
        let di = d as isize;
        acc = (*src.offset((z - di) * ps as isize + y * rs as isize + x))
            .mul_add(T::from_f64(wz[S::R - d]), acc);
        acc = (*src.offset((z + di) * ps as isize + y * rs as isize + x))
            .mul_add(T::from_f64(wz[S::R + d]), acc);
    }
    acc
}

/// Canonical 3D box accumulation at `(z, y, x)`.
///
/// # Safety
/// `src` must be valid at `(z ± R, y ± R, x ± R)`.
#[inline(always)]
pub unsafe fn acc_box3<T: Elem, S: Box3>(
    src: *const T,
    rs: usize,
    ps: usize,
    z: isize,
    y: isize,
    x: isize,
    s: &S,
) -> T {
    let w = s.w();
    let r = S::R as isize;
    let mut acc =
        T::from_f64(w[0]) * *src.offset((z - r) * ps as isize + (y - r) * rs as isize + x - r);
    let mut k = 1usize;
    let mut first = true;
    for dz in -r..=r {
        for dy in -r..=r {
            let row = src.offset((z + dz) * ps as isize + (y + dy) * rs as isize);
            for dx in -r..=r {
                if first {
                    first = false;
                    continue; // already in acc
                }
                acc = (*row.offset(x + dx)).mul_add(T::from_f64(w[k]), acc);
                k += 1;
            }
        }
    }
    acc
}

/// One Jacobi step of a 1D star stencil over cells `[lo, hi)`.
///
/// # Safety
/// Pointers valid over the range plus radius-`R` halo; `src != dst`.
pub unsafe fn star1_range<T: Elem, S: Star1>(
    src: *const T,
    dst: *mut T,
    lo: usize,
    hi: usize,
    s: &S,
) {
    for i in lo..hi {
        *dst.add(i) = acc_star1(src, i as isize, s);
    }
}

/// One Jacobi step of a 2D stencil of family `K` over
/// `[y0, y1) × [x0, x1)`.
///
/// # Safety
/// Pointers valid over the range plus halo; `src != dst`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid2_range<T: Elem, K: Row2>(
    src: *const T,
    dst: *mut T,
    rs: usize,
    y0: usize,
    y1: usize,
    x0: usize,
    x1: usize,
    s: &K::S,
) {
    for y in y0..y1 {
        for x in x0..x1 {
            *dst.add(y * rs + x) = K::acc(src, rs, y as isize, x as isize, s);
        }
    }
}

/// One Jacobi step of a 3D stencil of family `K` over the given box of
/// cells.
///
/// # Safety
/// Pointers valid over the range plus halo; `src != dst`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid3_range<T: Elem, K: Row3>(
    src: *const T,
    dst: *mut T,
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
    for z in z0..z1 {
        for y in y0..y1 {
            for x in x0..x1 {
                *dst.add(z * ps + y * rs + x) =
                    K::acc(src, rs, ps, z as isize, y as isize, x as isize, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid1;
    use crate::stencil::{S1d3p, S1d5p};

    #[test]
    fn star1_weighted_sum() {
        let g = Grid1::from_fn(8, 10.0, |i| i as f64);
        let mut out = Grid1::filled(8, 10.0);
        let s = S1d3p { w: [1.0, 2.0, 4.0] };
        unsafe { star1_range(g.ptr(), out.ptr_mut(), 0, 8, &s) };
        // cell 0: 1*halo(10) + 2*0 + 4*1 = 14
        assert_eq!(out.get(0), 14.0);
        // cell 3: 1*2 + 2*3 + 4*4 = 24
        assert_eq!(out.get(3), 24.0);
        // cell 7: 1*6 + 2*7 + 4*halo(10) = 60
        assert_eq!(out.get(7), 60.0);
    }

    #[test]
    fn star1_weighted_sum_f32() {
        let g = Grid1::<f32>::from_fn(8, 10.0, |i| i as f32);
        let mut out = Grid1::<f32>::filled(8, 10.0);
        let s = S1d3p { w: [1.0, 2.0, 4.0] };
        unsafe { star1_range(g.ptr(), out.ptr_mut(), 0, 8, &s) };
        assert_eq!(out.get(0), 14.0);
        assert_eq!(out.get(3), 24.0);
        assert_eq!(out.get(7), 60.0);
    }

    #[test]
    fn star1_r2_reaches_two_cells() {
        let g = Grid1::from_fn(6, 0.0, |i| (i + 1) as f64);
        let mut out = Grid1::filled(6, 0.0);
        let s = S1d5p {
            w: [1.0, 0.0, 0.0, 0.0, 1.0],
        };
        unsafe { star1_range(g.ptr(), out.ptr_mut(), 0, 6, &s) };
        // out[i] = in[i-2] + in[i+2]
        assert_eq!(out.get(2), 1.0 + 5.0);
        assert_eq!(out.get(0), 0.0 + 3.0);
        assert_eq!(out.get(5), 4.0 + 0.0);
    }
}
