//! Explicit `#[target_feature]` entry points for the *large* kernels.
//!
//! The generic [`stencil_simd::dispatch!`] macro funnels the kernel call
//! through a closure passed into a feature-gated entry function. For small
//! kernels LLVM inlines the closure and the intrinsics compile with the
//! vector ISA; for the biggest kernels the inliner can refuse, silently
//! compiling them *without* the ISA — every fused multiply-add then
//! lowers to a libm call (a measured 39× slowdown; see
//! `docs/ARCHITECTURE.md`, "Kernel notes").
//!
//! `#[target_feature]` is legal on generic functions, so each big kernel
//! gets an explicit per-ISA entry here under the kernel's own name,
//! generic over the element type ([`Elem`]) and the stencil (1D) or
//! family strategy (2D/3D): the entry resolves `T`'s native vector for
//! the register width (`T::V256` / `T::V512`). Portable ISAs call the
//! kernel directly (no feature context needed).

use stencil_simd::{Elem, Isa};

use super::row::{Row2, Row3};
use super::tl2::Margins;
use super::{tl, tl2};
use crate::exec::halo::{BandPass, Boundary, PassTask, RowMap};
use crate::stencil::Star1;

macro_rules! isa_entry {
    ($(#[$doc:meta])* $name:ident<$G:ident: $bound:ident>, $km:ident,
     fn($($arg:ident : $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        ///
        /// # Safety
        /// Same contract as the underlying kernel; `isa` must be
        /// available on this CPU (checked).
        #[allow(clippy::too_many_arguments)]
        pub unsafe fn $name<T: Elem, $G: $bound>(isa: Isa, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2<T: Elem, $G: $bound>($($arg: $ty),*) {
                $km::$name::<<T as Elem>::V256, $G>($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512<T: Elem, $G: $bound>($($arg: $ty),*) {
                $km::$name::<<T as Elem>::V512, $G>($($arg),*)
            }
            match isa {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => {
                    assert!(isa.is_available());
                    avx2::<T, $G>($($arg),*)
                }
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => {
                    assert!(isa.is_available());
                    avx512::<T, $G>($($arg),*)
                }
                _ => match isa.width_bytes() {
                    32 => $km::$name::<<T as Elem>::P256, $G>($($arg),*),
                    _ => $km::$name::<<T as Elem>::P512, $G>($($arg),*),
                },
            }
        }
    };
}

isa_entry!(
    /// [`tl::star1_tl`] behind a per-ISA feature entry.
    star1_tl<S: Star1>, tl,
    fn(src: *const T, dst: *mut T, n: usize, x0: usize, x1: usize, s: &S)
);
isa_entry!(
    /// [`tl::grid2_tl`] behind a per-ISA feature entry.
    grid2_tl<K: Row2>, tl,
    fn(src: *const T, dst: *mut T, rs: usize, nx: usize,
       y0: usize, y1: usize, x0: usize, x1: usize, s: &K::S)
);
isa_entry!(
    /// [`tl::grid3_tl`] behind a per-ISA feature entry.
    grid3_tl<K: Row3>, tl,
    fn(src: *const T, dst: *mut T, rs: usize, ps: usize, nx: usize,
       z0: usize, z1: usize, y0: usize, y1: usize, x0: usize, x1: usize, s: &K::S)
);
isa_entry!(
    /// [`tl2::star1_tl2_sets`] behind a per-ISA feature entry.
    star1_tl2_sets<S: Star1>, tl2,
    fn(buf: *mut T, sa: usize, sb: usize, edge: &Margins<T>, t1: [*mut T; 2], s: &S)
);
isa_entry!(
    /// [`tl2::grid2_pass`] behind a per-ISA feature entry.
    grid2_pass<K: Row2>, tl2,
    fn(buf: *mut T, rs: usize, nx: usize, ring: *mut T, strips: *mut T,
       bp: &BandPass, task: PassTask, b: Boundary, map: &RowMap, s: &K::S)
);
isa_entry!(
    /// [`tl2::grid3_pass`] behind a per-ISA feature entry.
    grid3_pass<K: Row3>, tl2,
    fn(buf: *mut T, rs: usize, ps: usize, nx: usize, ny: usize,
       ring: *mut T, strips: *mut T, bp: &BandPass, task: PassTask, b: Boundary, map: &RowMap,
       s: &K::S)
);

/// [`tl2::star1_tl2_row`] under a Dirichlet boundary: Algorithm 1 at
/// k = 2, in place, on a transposed row of `n` cells.
///
/// # Safety
/// As [`tl2::star1_tl2_row`].
pub unsafe fn star1_tl2<T: Elem, S: Star1>(isa: Isa, buf: *mut T, n: usize, s: &S) {
    tl2::star1_tl2_row(isa, buf, n, Boundary::default(), s)
}

/// Sanity: the macro's portable fallback uses lane width to pick the
/// oracle type, so every entry must accept every ISA.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid1;
    use crate::layout::tl_grid1;
    use crate::stencil::S1d3p;

    #[test]
    fn entries_run_on_every_available_isa() {
        let s = S1d3p::heat();
        for isa in Isa::ALL.into_iter().filter(|i| i.is_available()) {
            let n = 4 * isa.lanes() * isa.lanes();
            let mut g = Grid1::from_fn(n, 0.0, |i| i as f64);
            tl_grid1(&mut g, isa);
            let mut d = g.clone();
            let (sp, dp) = (g.ptr(), d.ptr_mut());
            unsafe { star1_tl::<f64, S1d3p>(isa, sp, dp, n, 0, n, &s) };
            let gp = d.ptr_mut();
            unsafe { star1_tl2::<f64, S1d3p>(isa, gp, n, &s) };
        }
    }

    #[test]
    fn entries_run_on_every_available_isa_f32() {
        let s = S1d3p::heat();
        for isa in Isa::ALL.into_iter().filter(|i| i.is_available()) {
            let l = isa.lanes_for::<f32>();
            let n = 4 * l * l;
            let mut g = Grid1::<f32>::from_fn(n, 0.0, |i| i as f32);
            tl_grid1(&mut g, isa);
            let mut d = g.clone();
            let (sp, dp) = (g.ptr(), d.ptr_mut());
            unsafe { star1_tl::<f32, S1d3p>(isa, sp, dp, n, 0, n, &s) };
            let gp = d.ptr_mut();
            unsafe { star1_tl2::<f32, S1d3p>(isa, gp, n, &s) };
        }
    }
}
