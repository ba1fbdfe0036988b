//! Stencil kernels, one module per execution scheme, and the **kernel
//! boundary** the execution engine drives them through.
//!
//! | module | layout | scheme (paper section) |
//! |---|---|---|
//! | [`scalar`] | natural | reference oracle |
//! | [`orig`] | natural | multiple-loads & data-reorganization (§2.1) |
//! | [`dlt`] | DLT | dimension-lifting transpose (§2.2) |
//! | [`tl`] | local transpose | the paper's scheme, k = 1 (§3.2) |
//! | [`tl2`] | local transpose | time unroll-and-jam, k = 2 (§3.3) |
//!
//! Three layers, innermost first:
//!
//! 1. **Row kernels** ([`row`]) — the only family-specific code. A star
//!    and a box differ in which neighbour rows feed a vector set; the
//!    [`Row2`]/[`Row3`] strategies ([`StarK`], [`BoxK`]) name those
//!    per-row bodies. 1D has one family and needs no strategy.
//! 2. **Range kernels** (the scheme modules) — `unsafe fn`,
//!    `#[inline(always)]`, generic over the vector type and the strategy,
//!    range-based so the tiling substrate can drive them on tile
//!    fragments; [`isa_entry`] wraps the largest in explicit
//!    `#[target_feature]` entries. Written once per dimension.
//! 3. **Kernel objects** (this module) — [`Kernel1`]/[`Kernel2`]/
//!    [`Kernel3`], object-safe over the element type only. A compiled
//!    plan holds one boxed object and knows nothing else about the
//!    stencil: family, radius, and weights are erased here, so the whole
//!    executor stack (`exec::{tess, par, split}`, plans, sessions)
//!    compiles once per dimension × element type.
//!
//! The one indirect call sits between layers 3 and 2: a driver calls
//! `kernel.step(..)` / `kernel.pass2(..)` once per **range sweep or tile
//! step** — thousands to millions of cell updates — and everything
//! beneath that call (method and ISA dispatch, the row loop, every vector
//! set) is statically dispatched and monomorphized. It is never per row
//! or per vector set, which is why erasing the stencil costs nothing
//! measurable while the bits stay those of the monomorphized kernels.

pub mod dlt;
pub mod isa_entry;
pub mod orig;
pub mod row;
pub mod scalar;
pub mod tl;
pub mod tl2;

use stencil_simd::{dispatch_elem, Elem, Isa};

pub use row::{BoxK, Row2, Row3, StarK};

use crate::exec::halo::{Boundary, RowMap};
use crate::exec::Method;
use crate::layout::DltGeo;
use crate::spec::SpecError;
use crate::stencil::{Star1, MAX_R};

/// A compiled 1D stencil kernel: every scheme of one stencil, behind one
/// object. All methods inherit the pointer contracts of the range
/// kernels they dispatch to (rows valid with halo pads, `src != dst`).
pub trait Kernel1<T: Elem>: Send + Sync {
    /// Stencil radius.
    fn radius(&self) -> usize;

    /// One k = 1 step over cells `[lo, hi)` of an `n`-cell row in
    /// `method`'s layout. Under [`Method::Dlt`] the range must be the
    /// whole row.
    ///
    /// # Safety
    /// See the trait docs; `isa` must be available.
    #[allow(clippy::too_many_arguments)]
    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        n: usize,
        lo: usize,
        hi: usize,
    );

    /// The fused k = 2 pass over a whole transposed row, in place
    /// ([`tl2::star1_tl2`]); `wide` names the refreshed boundary whose
    /// t+1 halo folds the pass must compute itself.
    ///
    /// # Safety
    /// As [`tl2::star1_tl2`] / [`tl2::star1_tl2_wide`].
    unsafe fn pass2(&self, isa: Isa, buf: *mut T, n: usize, wide: Option<Boundary>);

    /// The fused k = 2 pipeline over the set range `[sa, sb)` of a
    /// double-buffered tile ([`tl2::star1_tl2_range`]).
    ///
    /// # Safety
    /// As [`tl2::star1_tl2_range`].
    unsafe fn pass2_range(
        &self,
        isa: Isa,
        buf_a: *mut T,
        buf_b: *mut T,
        n: usize,
        sa: usize,
        sb: usize,
    );

    /// DLT vector core over seam-free columns `[j0, j1)`.
    ///
    /// # Safety
    /// As [`dlt::star1_dlt_cols`].
    unsafe fn dlt_cols(&self, isa: Isa, src: *const T, dst: *mut T, j0: usize, j1: usize);

    /// DLT scalar update of logical cells `[lo, hi)` through the index
    /// map.
    ///
    /// # Safety
    /// As [`dlt::star1_dlt_scalar`].
    unsafe fn dlt_scalar(&self, src: *const T, dst: *mut T, lo: usize, hi: usize, geo: &DltGeo);
}

/// A compiled 2D stencil kernel; see [`Kernel1`].
pub trait Kernel2<T: Elem>: Send + Sync {
    /// Stencil radius.
    fn radius(&self) -> usize;

    /// One k = 1 step over the box `yr × xr` of a grid with `nx`-cell
    /// rows `rs` apart, in `method`'s layout. Under [`Method::Dlt`] the
    /// x-range must be the whole row.
    ///
    /// # Safety
    /// See the [`Kernel1`] trait docs; `isa` must be available.
    #[allow(clippy::too_many_arguments)]
    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        rs: usize,
        nx: usize,
        yr: (usize, usize),
        xr: (usize, usize),
    );

    /// The fused k = 2 pass over the whole transposed grid, in place,
    /// through the row ring ([`tl2::grid2_tl2`]); `wide` selects the
    /// refreshed-boundary variant on a wide-halo grid
    /// ([`tl2::grid2_tl2_wide`]).
    ///
    /// # Safety
    /// As the kernel selected.
    #[allow(clippy::too_many_arguments)]
    unsafe fn pass2(
        &self,
        isa: Isa,
        buf: *mut T,
        rs: usize,
        nx: usize,
        ny: usize,
        ring: *mut T,
        wide: Option<(Boundary, &RowMap)>,
    );
}

/// A compiled 3D stencil kernel; see [`Kernel1`].
pub trait Kernel3<T: Elem>: Send + Sync {
    /// Stencil radius.
    fn radius(&self) -> usize;

    /// One k = 1 step over the box `zr × yr × xr` (rows `rs` apart,
    /// planes `ps`), in `method`'s layout. Under [`Method::Dlt`] the
    /// x-range must be the whole row and the y-range `[0, ny)`.
    ///
    /// # Safety
    /// See the [`Kernel1`] trait docs; `isa` must be available.
    #[allow(clippy::too_many_arguments)]
    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        rs: usize,
        ps: usize,
        nx: usize,
        zr: (usize, usize),
        yr: (usize, usize),
        xr: (usize, usize),
    );

    /// The fused k = 2 pass through the plane ring ([`tl2::grid3_tl2`] /
    /// [`tl2::grid3_tl2_wide`]).
    ///
    /// # Safety
    /// As the kernel selected.
    #[allow(clippy::too_many_arguments)]
    unsafe fn pass2(
        &self,
        isa: Isa,
        buf: *mut T,
        rs: usize,
        ps: usize,
        nx: usize,
        ny: usize,
        nz: usize,
        ring: *mut T,
        wide: Option<(Boundary, &RowMap)>,
    );
}

/// The kernels' real limits, enforced where a kernel object is made: a
/// radius the row bodies' fixed-size arrays cannot hold is a typed error
/// at plan build, never an out-of-bounds panic mid-run.
fn check_radius(r: usize, max: usize) -> Result<(), SpecError> {
    if r > max {
        return Err(SpecError::RadiusTooLarge { r, max });
    }
    Ok(())
}

struct Kern1<S>(S);
struct Kern2<K: Row2>(K::S);
struct Kern3<K: Row3>(K::S);

/// Box the 1D kernel of stencil `s`.
pub(crate) fn kernel1<T: Elem, S: Star1>(s: S) -> Result<Box<dyn Kernel1<T>>, SpecError> {
    check_radius(S::R, MAX_R)?;
    Ok(Box::new(Kern1(s)))
}

/// Box the 2D kernel of family `K` over stencil `s`.
pub(crate) fn kernel2<T: Elem, K: Row2>(s: K::S) -> Result<Box<dyn Kernel2<T>>, SpecError> {
    check_radius(K::R, K::MAX_R)?;
    Ok(Box::new(Kern2::<K>(s)))
}

/// Box the 3D kernel of family `K` over stencil `s`.
pub(crate) fn kernel3<T: Elem, K: Row3>(s: K::S) -> Result<Box<dyn Kernel3<T>>, SpecError> {
    check_radius(K::R, K::MAX_R)?;
    Ok(Box::new(Kern3::<K>(s)))
}

impl<T: Elem, S: Star1> Kernel1<T> for Kern1<S> {
    fn radius(&self) -> usize {
        S::R
    }

    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        n: usize,
        lo: usize,
        hi: usize,
    ) {
        let s = &self.0;
        match method {
            Method::Scalar => scalar::star1_range(src, dst, lo, hi, s),
            Method::MultiLoad => {
                dispatch_elem!(isa, T, orig::star1_orig::<V, S, false>(src, dst, lo, hi, s))
            }
            Method::Reorg => {
                dispatch_elem!(isa, T, orig::star1_orig::<V, S, true>(src, dst, lo, hi, s))
            }
            Method::TransLayout | Method::TransLayout2 => {
                isa_entry::star1_tl(isa, src, dst, n, lo, hi, s)
            }
            Method::Dlt => {
                debug_assert_eq!((lo, hi), (0, n), "DLT steps whole rows");
                dispatch_elem!(isa, T, dlt::star1_dlt::<V, S>(src, dst, n, s))
            }
        }
    }

    unsafe fn pass2(&self, isa: Isa, buf: *mut T, n: usize, wide: Option<Boundary>) {
        match wide {
            None => isa_entry::star1_tl2(isa, buf, n, &self.0),
            Some(b) => isa_entry::star1_tl2_wide(isa, buf, n, b, &self.0),
        }
    }

    unsafe fn pass2_range(
        &self,
        isa: Isa,
        buf_a: *mut T,
        buf_b: *mut T,
        n: usize,
        sa: usize,
        sb: usize,
    ) {
        isa_entry::star1_tl2_range(isa, buf_a, buf_b, n, sa, sb, &self.0)
    }

    unsafe fn dlt_cols(&self, isa: Isa, src: *const T, dst: *mut T, j0: usize, j1: usize) {
        let s = &self.0;
        dispatch_elem!(isa, T, dlt::star1_dlt_cols::<V, S>(src, dst, j0, j1, s))
    }

    unsafe fn dlt_scalar(&self, src: *const T, dst: *mut T, lo: usize, hi: usize, geo: &DltGeo) {
        dlt::star1_dlt_scalar(src, dst, lo, hi, geo, &self.0)
    }
}

impl<T: Elem, K: Row2> Kernel2<T> for Kern2<K> {
    fn radius(&self) -> usize {
        K::R
    }

    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        rs: usize,
        nx: usize,
        (y0, y1): (usize, usize),
        (x0, x1): (usize, usize),
    ) {
        let s = &self.0;
        match method {
            Method::Scalar => scalar::grid2_range::<T, K>(src, dst, rs, y0, y1, x0, x1, s),
            Method::MultiLoad => dispatch_elem!(
                isa,
                T,
                orig::grid2_orig::<V, K, false>(src, dst, rs, y0, y1, x0, x1, s)
            ),
            Method::Reorg => dispatch_elem!(
                isa,
                T,
                orig::grid2_orig::<V, K, true>(src, dst, rs, y0, y1, x0, x1, s)
            ),
            Method::TransLayout | Method::TransLayout2 => {
                isa_entry::grid2_tl::<T, K>(isa, src, dst, rs, nx, y0, y1, x0, x1, s)
            }
            Method::Dlt => {
                debug_assert_eq!((x0, x1), (0, nx), "DLT steps whole rows");
                dispatch_elem!(isa, T, dlt::grid2_dlt::<V, K>(src, dst, rs, nx, y0, y1, s))
            }
        }
    }

    unsafe fn pass2(
        &self,
        isa: Isa,
        buf: *mut T,
        rs: usize,
        nx: usize,
        ny: usize,
        ring: *mut T,
        wide: Option<(Boundary, &RowMap)>,
    ) {
        let s = &self.0;
        match wide {
            None => isa_entry::grid2_tl2::<T, K>(isa, buf, rs, nx, ny, ring, s),
            Some((b, map)) => {
                isa_entry::grid2_tl2_wide::<T, K>(isa, buf, rs, nx, ny, ring, b, map, s)
            }
        }
    }
}

impl<T: Elem, K: Row3> Kernel3<T> for Kern3<K> {
    fn radius(&self) -> usize {
        K::R
    }

    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        rs: usize,
        ps: usize,
        nx: usize,
        (z0, z1): (usize, usize),
        (y0, y1): (usize, usize),
        (x0, x1): (usize, usize),
    ) {
        let s = &self.0;
        match method {
            Method::Scalar => {
                scalar::grid3_range::<T, K>(src, dst, rs, ps, z0, z1, y0, y1, x0, x1, s)
            }
            Method::MultiLoad => dispatch_elem!(
                isa,
                T,
                orig::grid3_orig::<V, K, false>(src, dst, rs, ps, z0, z1, y0, y1, x0, x1, s)
            ),
            Method::Reorg => dispatch_elem!(
                isa,
                T,
                orig::grid3_orig::<V, K, true>(src, dst, rs, ps, z0, z1, y0, y1, x0, x1, s)
            ),
            Method::TransLayout | Method::TransLayout2 => {
                isa_entry::grid3_tl::<T, K>(isa, src, dst, rs, ps, nx, z0, z1, y0, y1, x0, x1, s)
            }
            Method::Dlt => {
                debug_assert_eq!((y0, x0, x1), (0, 0, nx), "DLT steps whole planes");
                dispatch_elem!(
                    isa,
                    T,
                    dlt::grid3_dlt::<V, K>(src, dst, rs, ps, nx, y1, z0, z1, s)
                )
            }
        }
    }

    unsafe fn pass2(
        &self,
        isa: Isa,
        buf: *mut T,
        rs: usize,
        ps: usize,
        nx: usize,
        ny: usize,
        nz: usize,
        ring: *mut T,
        wide: Option<(Boundary, &RowMap)>,
    ) {
        let s = &self.0;
        match wide {
            None => isa_entry::grid3_tl2::<T, K>(isa, buf, rs, ps, nx, ny, nz, ring, s),
            Some((b, map)) => {
                isa_entry::grid3_tl2_wide::<T, K>(isa, buf, rs, ps, nx, ny, nz, ring, b, map, s)
            }
        }
    }
}
