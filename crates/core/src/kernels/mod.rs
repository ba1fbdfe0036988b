//! Stencil kernels, one module per execution scheme, and the **kernel
//! boundary** the execution engine drives them through.
//!
//! | module | layout | scheme (paper section) |
//! |---|---|---|
//! | [`scalar`] | natural | reference oracle |
//! | [`orig`] | natural | multiple-loads & data-reorganization (§2.1) |
//! | [`dlt`] | DLT | dimension-lifting transpose (§2.2) |
//! | [`tl`] | local transpose | the paper's scheme, k = 1 (§3.2) |
//! | [`tl2`] | local transpose | time unroll-and-jam, k ≥ 2 (§3.3) |
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
//!    `#[target_feature]` entries. Written once per rank, because the
//!    number of neighbour-row loops is what a rank *is* down here.
//! 3. **The kernel object** (this module) — [`Kernel`], object-safe over
//!    the element type only. A compiled plan holds one boxed object and
//!    knows nothing else about the stencil: family, radius, weights *and
//!    rank* are erased here, so the whole executor stack
//!    (`exec::{tess, par, split}`, plans, sessions) is written once and
//!    compiles once per element type.
//!
//! # One geometry for every rank
//!
//! The paper's scheme only ever acts along x; every other axis is an
//! outer loop over rows. So above this boundary the number of spatial
//! dimensions is data, not structure: a [`Geo`] carries extents
//! `[nx, ny, nz]` in which **an absent axis is an axis of extent 1**
//! (with stride 0 and no halo), and an update region is an [`NdBox`] —
//! `[(lo, hi); 3]`, `(0, 1)` along absent axes. A 1D row is a `n × 1 × 1`
//! volume; the drivers never ask which rank they run.
//!
//! The one indirect call sits between layers 3 and 2: a driver calls
//! `kernel.step(..)` / `kernel.pass(..)` once per **range sweep or tile
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

use crate::exec::halo::{BandPass, Boundary, PassTask, RowMap};
use crate::exec::{Method, Shape};
use crate::layout::{tl_read, DltGeo, SetGeo};
use crate::spec::SpecError;
use crate::stencil::{Box2, Box3, Star1, Star2, Star3, MAX_R};

/// Where a buffer's cells are: the rank-free geometry shared by the
/// kernel object, the drivers, the halo refresh and the plans. Plain
/// data; axes are `[x, y, z]` throughout.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Geo {
    /// Real axes (1–3). Axes at or past `ndim` are *absent*: extent 1,
    /// stride 0, never tiled, banded, or refreshed.
    pub ndim: usize,
    /// Interior extents `[nx, ny, nz]`; 1 along absent axes.
    pub n: [usize; 3],
    /// Row stride in elements (0 when `ndim == 1`).
    pub rs: usize,
    /// Plane stride in elements (0 when `ndim < 3`).
    pub ps: usize,
    /// Halo rows/planes per side around the interior along the real y/z
    /// axes (0 when `ndim == 1`; the x halo is always the row pad).
    pub halo: usize,
}

/// A closed-open update region `[(lo, hi); 3]` in a [`Geo`]'s
/// coordinates, `[x, y, z]`; `(0, 1)` along absent axes.
pub type NdBox = [(usize, usize); 3];

impl Geo {
    /// The geometry of a buffer of `T` with interior extents `n` (1 past
    /// `ndim`) and `r` halo rows/planes per side on its real y/z axes —
    /// the x halo is always the row pad.
    pub(crate) fn packed<T: Elem>(ndim: usize, n: [usize; 3], r: usize) -> Geo {
        let mut geo = Geo {
            ndim,
            n,
            rs: 0,
            ps: 0,
            halo: if ndim > 1 { r } else { 0 },
        };
        if ndim > 1 {
            geo.rs = geo.row_len::<T>();
        }
        if ndim > 2 {
            geo.ps = geo.rs * (n[1] + 2 * r);
        }
        geo
    }

    /// The whole interior as a box.
    pub fn interior(&self) -> NdBox {
        self.n.map(|n| (0, n))
    }

    /// The [`Shape`] a plan for this geometry is built with.
    pub fn shape(&self) -> Shape {
        let [nx, ny, nz] = self.n;
        match self.ndim {
            1 => Shape::d1(nx),
            2 => Shape::d2(nx, ny),
            _ => Shape::d3(nx, ny, nz),
        }
    }

    /// Element stride between neighbours along `axis`.
    pub(crate) fn stride(&self, axis: usize) -> usize {
        [1, self.rs, self.ps][axis]
    }

    /// Halo rows/planes per side along `axis`: [`Geo::halo`] on a real
    /// y/z axis, 0 along x (whose halo is the row pad) and absent axes.
    pub(crate) fn halo_on(&self, axis: usize) -> usize {
        if axis > 0 && axis < self.ndim {
            self.halo
        } else {
            0
        }
    }

    /// Elements in one buffer row of `T`: the interior between two pads,
    /// rounded up to whole pads (64-byte lines).
    pub(crate) fn row_len<T: Elem>(&self) -> usize {
        T::PAD + (self.n[0] + T::PAD).div_ceil(T::PAD) * T::PAD
    }

    /// Length in elements of a buffer of `T` laid out as `self`, halos
    /// included.
    pub(crate) fn len<T: Elem>(&self) -> usize {
        let slabs = |a: usize| self.n[a] + 2 * self.halo_on(a);
        self.row_len::<T>() * slabs(1) * slabs(2)
    }

    /// Offset of the interior origin from the start of such a buffer.
    pub(crate) fn origin<T: Elem>(&self) -> usize {
        self.halo * (self.rs + self.ps) + T::PAD
    }

    /// Offsets from the interior origin of the buffer's rows, z-major
    /// then y: the interior rows, plus the halo rows and planes with
    /// `halo`.
    pub(crate) fn rows(self, halo: bool) -> impl Iterator<Item = isize> {
        let span = move |a: usize| {
            let h = if halo { self.halo_on(a) as isize } else { 0 };
            -h..self.n[a] as isize + h
        };
        let (rs, ps) = (self.rs as isize, self.ps as isize);
        span(2).flat_map(move |z| span(1).map(move |y| z * ps + y * rs))
    }

    /// Whether a buffer laid out as `self` carries every halo cell a
    /// stencil of radius `r` reads. A row's x halo is its pad (≥
    /// [`MAX_R`]), so only the y/z halo rows/planes can fall short.
    pub fn holds_radius(&self, r: usize) -> bool {
        self.ndim == 1 || self.halo >= r
    }
}

/// A compiled stencil kernel of any rank: every scheme of one stencil
/// behind one object. All methods inherit the pointer contracts of the
/// range kernels they dispatch to (rows valid with halo pads,
/// `src != dst`).
///
/// Three entries index spaces only a 1D row has — vector *sets* of a
/// double-buffered tile ([`Kernel::pass2_range`]) and DLT *columns*
/// ([`Kernel::dlt_cols`], [`Kernel::dlt_scalar`]). They are not lower-rank
/// versions of [`Kernel::step`], so a 2D/3D kernel does not implement
/// them: calling one there panics.
pub trait Kernel<T: Elem>: Send + Sync {
    /// Number of real axes the stencil reaches along (1–3).
    fn ndim(&self) -> usize;

    /// Stencil radius.
    fn radius(&self) -> usize;

    /// One k = 1 step over the cells of `bx` in `method`'s layout. Under
    /// [`Method::Dlt`] the box must span whole rows (and, in 3D, whole
    /// planes' worth of rows).
    ///
    /// # Safety
    /// See the trait docs; `isa` must be available; `geo.ndim` must be
    /// [`Kernel::ndim`] and `bx` inside `geo`'s interior.
    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        geo: &Geo,
        bx: NdBox,
    );

    /// One task of the fused pass `bp`: advance the transposed buffer
    /// `bp.k` steps in place under boundary `b`, whose halos must hold
    /// the interior's time level on entry. 2D/3D fill one seam's strips
    /// or sweep one band of rows/planes through its `k - 1` ring levels
    /// ([`tl2::grid2_pass`] / [`tl2::grid3_pass`]); a sequential pass is
    /// the one band `[0, n)` after the wrap's seam. `ring` and `strips`
    /// are laid out by `BandPass::layout`; `map` is the row layout's,
    /// through which the pass folds each level's halos. 1D runs the
    /// whole-row caller of Algorithm 1's register pipeline over its one
    /// band ([`tl2::star1_tl2_row`], `k = 2` only: the `t+1` halo folds
    /// and tail first, then [`tl2::star1_tl2_sets`] over every full set),
    /// has no seams, and ignores `ring` and `strips`.
    ///
    /// # Safety
    /// As the kernel selected; `bp.k ≥ 2`; every seam task of a pass
    /// completes before its first band task starts.
    #[allow(clippy::too_many_arguments)]
    unsafe fn pass(
        &self,
        isa: Isa,
        buf: *mut T,
        geo: &Geo,
        ring: *mut T,
        strips: *mut T,
        bp: &BandPass,
        task: PassTask,
        b: Boundary,
        map: &RowMap,
    );

    /// 1D only: the fused k = 2 pipeline ([`tl2::star1_tl2_sets`]) over
    /// the set range `[sa, sb)` of a double-buffered tile of a row of `n`
    /// cells. `buf_a` holds time `t` at the sets and receives `t+2`;
    /// `buf_b` gives the `t+1` margin cells (the tile driver steps them
    /// first) and receives the `t+1` values of the first and last sets,
    /// which the driver's trailing margin step reads.
    ///
    /// # Safety
    /// Both rows transposed with halos addressable; `sb - sa ≥ 2` and
    /// `sb ≤ nsets`; the `R` cells before set `sa` and after set `sb - 1`
    /// hold `t` in `buf_a` and `t+1` in `buf_b`.
    unsafe fn pass2_range(&self, _: Isa, _: *mut T, _: *mut T, _n: usize, _sa: usize, _sb: usize) {
        not_1d(self.ndim(), "pass2_range")
    }

    /// 1D only: DLT vector core over seam-free columns `[j0, j1)`.
    ///
    /// # Safety
    /// As [`dlt::star1_dlt_cols`].
    unsafe fn dlt_cols(&self, _: Isa, _src: *const T, _dst: *mut T, _j0: usize, _j1: usize) {
        not_1d(self.ndim(), "dlt_cols")
    }

    /// 1D only: DLT scalar update of logical cells `[lo, hi)` through the
    /// index map.
    ///
    /// # Safety
    /// As [`dlt::star1_dlt_scalar`].
    unsafe fn dlt_scalar(&self, _src: *const T, _dst: *mut T, _lo: usize, _hi: usize, _: &DltGeo) {
        not_1d(self.ndim(), "dlt_scalar")
    }
}

/// A set- or column-space entry reached on a kernel that has no such
/// index space: a driver bug, reported loudly rather than skipped.
fn not_1d(ndim: usize, entry: &str) -> ! {
    panic!("Kernel::{entry} indexes 1D set/column space; this kernel is {ndim}D")
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

/// The row bodies index a weight slice by the stencil's declared radius;
/// a slice of any other length (zero-padded storage, a truncated table)
/// would be read at the wrong taps or past its end, so it is rejected
/// with the radius.
fn check_len(axis: &'static str, w: &[f64], r: usize, ndim: u32) -> Result<(), SpecError> {
    if w.len() != (2 * r + 1).pow(ndim) {
        return Err(SpecError::WeightLen {
            axis,
            got: w.len(),
            expected: "the length implied by the stencil's declared radius",
        });
    }
    Ok(())
}

struct Kern1<S>(S);
struct Kern2<K: Row2>(K::S);
struct Kern3<K: Row3>(K::S);

/// Box the kernel of 1D star stencil `s`.
pub(crate) fn star1<T: Elem, S: Star1>(s: S) -> Result<Box<dyn Kernel<T>>, SpecError> {
    check_radius(S::R, MAX_R)?;
    check_len("x", s.w(), S::R, 1)?;
    Ok(Box::new(Kern1(s)))
}

/// Box the kernel of 2D star stencil `s`.
pub(crate) fn star2<T: Elem, S: Star2>(s: S) -> Result<Box<dyn Kernel<T>>, SpecError> {
    check_radius(S::R, <StarK<S> as Row2>::MAX_R)?;
    check_len("x", s.wx(), S::R, 1)?;
    check_len("y", s.wy(), S::R, 1)?;
    Ok(Box::new(Kern2::<StarK<S>>(s)))
}

/// Box the kernel of 2D box stencil `s`.
pub(crate) fn box2<T: Elem, S: Box2>(s: S) -> Result<Box<dyn Kernel<T>>, SpecError> {
    check_radius(S::R, <BoxK<S> as Row2>::MAX_R)?;
    check_len("box", s.w(), S::R, 2)?;
    Ok(Box::new(Kern2::<BoxK<S>>(s)))
}

/// Box the kernel of 3D star stencil `s`.
pub(crate) fn star3<T: Elem, S: Star3>(s: S) -> Result<Box<dyn Kernel<T>>, SpecError> {
    check_radius(S::R, <StarK<S> as Row3>::MAX_R)?;
    check_len("x", s.wx(), S::R, 1)?;
    check_len("y", s.wy(), S::R, 1)?;
    check_len("z", s.wz(), S::R, 1)?;
    Ok(Box::new(Kern3::<StarK<S>>(s)))
}

/// Box the kernel of 3D box stencil `s`.
pub(crate) fn box3<T: Elem, S: Box3>(s: S) -> Result<Box<dyn Kernel<T>>, SpecError> {
    check_radius(S::R, <BoxK<S> as Row3>::MAX_R)?;
    check_len("box", s.w(), S::R, 3)?;
    Ok(Box::new(Kern3::<BoxK<S>>(s)))
}

impl<T: Elem, S: Star1> Kernel<T> for Kern1<S> {
    fn ndim(&self) -> usize {
        1
    }

    fn radius(&self) -> usize {
        S::R
    }

    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        geo: &Geo,
        [(lo, hi), ..]: NdBox,
    ) {
        let (s, n) = (&self.0, geo.n[0]);
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

    unsafe fn pass(
        &self,
        isa: Isa,
        buf: *mut T,
        geo: &Geo,
        _ring: *mut T,
        _strips: *mut T,
        bp: &BandPass,
        task: PassTask,
        b: Boundary,
        _map: &RowMap,
    ) {
        debug_assert_eq!(bp.k, 2, "Algorithm 1 fuses step pairs");
        if let PassTask::Seam(_) = task {
            return;
        }
        tl2::star1_tl2_row(isa, buf, geo.n[0], b, &self.0)
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
        let geo = SetGeo::new(n, isa.lanes_for::<T>());
        let (a, b) = (sa * geo.bs, sb * geo.bs);
        let mut edge = [[[T::ZERO; MAX_R]; 2]; 2];
        for q in 0..S::R {
            for (lvl, p) in [buf_a, buf_b].into_iter().enumerate() {
                edge[0][lvl][q] = tl_read(p, (a + q) as isize - S::R as isize, &geo);
                edge[1][lvl][q] = tl_read(p, (b + q) as isize, &geo);
            }
        }
        let t1 = [buf_b.add(a), buf_b.add(b - geo.bs)];
        isa_entry::star1_tl2_sets(isa, buf_a, sa, sb, &edge, t1, &self.0)
    }

    unsafe fn dlt_cols(&self, isa: Isa, src: *const T, dst: *mut T, j0: usize, j1: usize) {
        let s = &self.0;
        dispatch_elem!(isa, T, dlt::star1_dlt_cols::<V, S>(src, dst, j0, j1, s))
    }

    unsafe fn dlt_scalar(&self, src: *const T, dst: *mut T, lo: usize, hi: usize, geo: &DltGeo) {
        dlt::star1_dlt_scalar(src, dst, lo, hi, geo, &self.0)
    }
}

impl<T: Elem, K: Row2> Kernel<T> for Kern2<K> {
    fn ndim(&self) -> usize {
        2
    }

    fn radius(&self) -> usize {
        K::R
    }

    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        geo: &Geo,
        [(x0, x1), (y0, y1), _]: NdBox,
    ) {
        let (s, rs, nx) = (&self.0, geo.rs, geo.n[0]);
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

    unsafe fn pass(
        &self,
        isa: Isa,
        buf: *mut T,
        geo: &Geo,
        ring: *mut T,
        strips: *mut T,
        bp: &BandPass,
        task: PassTask,
        b: Boundary,
        map: &RowMap,
    ) {
        let (s, rs, nx) = (&self.0, geo.rs, geo.n[0]);
        isa_entry::grid2_pass::<T, K>(isa, buf, rs, nx, ring, strips, bp, task, b, map, s)
    }
}

impl<T: Elem, K: Row3> Kernel<T> for Kern3<K> {
    fn ndim(&self) -> usize {
        3
    }

    fn radius(&self) -> usize {
        K::R
    }

    unsafe fn step(
        &self,
        method: Method,
        isa: Isa,
        src: *const T,
        dst: *mut T,
        geo: &Geo,
        [(x0, x1), (y0, y1), (z0, z1)]: NdBox,
    ) {
        let (s, rs, ps, nx) = (&self.0, geo.rs, geo.ps, geo.n[0]);
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

    unsafe fn pass(
        &self,
        isa: Isa,
        buf: *mut T,
        geo: &Geo,
        ring: *mut T,
        strips: *mut T,
        bp: &BandPass,
        task: PassTask,
        b: Boundary,
        map: &RowMap,
    ) {
        let (s, rs, ps, [nx, ny, _]) = (&self.0, geo.rs, geo.ps, geo.n);
        isa_entry::grid3_pass::<T, K>(isa, buf, rs, ps, nx, ny, ring, strips, bp, task, b, map, s)
    }
}

#[cfg(test)]
mod tests {
    use stencil_simd::{AlignedBuf, Elem, Isa};

    use super::*;
    use crate::exec::halo::{refresh, MAX_DEPTH};
    use crate::grid::{Grid, Grid2, Grid3};
    use crate::layout::tl_grid;
    use crate::spec::StencilSpec;
    use crate::verify::max_abs_diff;

    /// One in-place [`Kernel::pass`] of depth `k` on a transposed copy of
    /// `init` under boundary `b` equals `k` scalar-oracle steps with a
    /// halo refresh before each, to 0 ULP.
    fn pass_is_k_steps<T: Elem, const D: usize>(
        spec: &StencilSpec,
        init: &Grid<T, D>,
        k: usize,
        b: Boundary,
    ) {
        let isa = Isa::detect_best();
        let kern = spec.kernel::<T>().unwrap();
        let (geo, r) = (init.geo(), kern.radius());
        let (mut want, mut spare) = (init.clone(), init.clone());
        for _ in 0..k {
            let (src, dst) = (want.ptr_mut(), spare.ptr_mut());
            // SAFETY: two grids of one geometry, halos ≥ the radius,
            // extents ≥ the radius.
            unsafe {
                refresh(src, &geo, r, b, &RowMap::Natural);
                kern.step(Method::Scalar, isa, src, dst, &geo, geo.interior());
            }
            std::mem::swap(&mut want, &mut spare);
        }
        let mut got = init.clone();
        tl_grid(&mut got, isa);
        let map = RowMap::for_method::<T>(Method::TransLayout2, isa, geo.n[0]);
        let n = geo.n[geo.ndim - 1];
        let bp = BandPass::new(n, r, k, b, vec![(0, n)]);
        let (len, origin, strips) = bp.layout::<T>(&geo);
        let mut ring = AlignedBuf::<T>::zeroed(len);
        // SAFETY: a transposed grid, refreshed to its interior's level,
        // and a ring with strips laid out for the pass; the seam is
        // filled before the band is swept.
        unsafe {
            refresh(got.ptr_mut(), &geo, r, b, &map);
            let (ring, strips) = (ring.as_mut_ptr().add(origin), ring.as_mut_ptr().add(strips));
            for task in [PassTask::Seam(0), PassTask::Band(0)] {
                kern.pass(isa, got.ptr_mut(), &geo, ring, strips, &bp, task, b, &map);
            }
        }
        tl_grid(&mut got, isa);
        let n = geo.n;
        assert_eq!(max_abs_diff(&want, &got), 0.0, "{spec} {b} {n:?} k={k}");
    }

    /// A deterministic, sign-mixed cell value: no two neighbours equal,
    /// so a misplaced row or time level cannot cancel out.
    fn cell(i: usize) -> f64 {
        ((i * 7919 % 1009) as f64 - 504.0) / 512.0
    }

    /// Every depth 2..=8, star and box (and a radius-2 star), 2D and 3D,
    /// f64 and f32, under every boundary, on outer extents of 1 (R under
    /// a refreshed boundary, which needs extents ≥ R), 2R+1 and below
    /// (k-1)R, at widths below one full `vl²` set and past two.
    #[test]
    fn pass_matches_k_oracle_steps_at_every_depth() {
        let star_r2 = StencilSpec::star2(&[0.1, 0.2, 0.3, 0.2, 0.1], &[0.05, 0.1, 0.0, 0.1, 0.05]);
        let specs = [
            StencilSpec::heat_2d5p(),
            StencilSpec::blur_2d9p(),
            star_r2.unwrap(),
            StencilSpec::heat_3d7p(),
            StencilSpec::blur_3d27p(),
        ];
        let vl = Isa::detect_best().lanes_for::<f32>();
        for b in [
            Boundary::Dirichlet(-0.75),
            Boundary::Periodic,
            Boundary::Reflect,
        ] {
            for spec in &specs {
                let r = spec.radius();
                let least = if b.is_dirichlet() { 1 } else { r };
                for k in 2..=MAX_DEPTH {
                    for outer in [least, 2 * r + 1, ((k - 1) * r).saturating_sub(1).max(2)] {
                        for nx in [vl - 3, 2 * vl * vl + 5] {
                            let halo = b.halo_fill();
                            if spec.ndim() == 2 {
                                let f = |y: usize, x: usize| cell(y * nx + x);
                                let g = Grid2::from_fn(nx, outer, r, halo, f);
                                pass_is_k_steps(spec, &g, k, b);
                                let g = Grid2::from_fn(nx, outer, r, halo as f32, |y, x| {
                                    f(y, x) as f32
                                });
                                pass_is_k_steps(spec, &g, k, b);
                            } else {
                                let f = |z: usize, y: usize, x: usize| cell((z * 3 + y) * nx + x);
                                let g = Grid3::from_fn(nx, 3, outer, r, halo, f);
                                pass_is_k_steps(spec, &g, k, b);
                                let g = Grid3::from_fn(nx, 3, outer, r, halo as f32, |z, y, x| {
                                    f(z, y, x) as f32
                                });
                                pass_is_k_steps(spec, &g, k, b);
                            }
                        }
                    }
                }
            }
        }
    }
}
