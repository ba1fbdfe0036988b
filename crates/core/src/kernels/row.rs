//! The family boundary: **row kernels**, the only code that knows
//! whether a stencil is a star or a box.
//!
//! The paper's scheme is one algorithm; the stencil family only decides
//! *which neighbour rows feed a vector set* and in what canonical order
//! their taps accumulate. That choice is a static strategy: [`Row2`] /
//! [`Row3`] name the per-row bodies a 2D / 3D stencil contributes to each
//! scheme (scalar accumulate, natural-layout vector span, DLT cell and
//! columns, transpose-layout row), and the zero-sized [`StarK`] / [`BoxK`]
//! select the star or box bodies for a stencil type. Every range-level
//! kernel in [`super`] — the `grid2_*` / `grid3_*` loops, the fused ring
//! pipelines, the per-ISA entries — is written once per dimension over
//! `K: Row2` / `K: Row3` and monomorphizes to the same inner loops a
//! hand-written per-family kernel would have. 1D has a single family
//! ([`Star1`](crate::stencil::Star1)) and needs no strategy.
//!
//! The transpose-layout row bodies ([`tl::star2_row_tl`] …) and the
//! scalar accumulators ([`scalar::acc_star2`] …) live with their scheme;
//! the natural-layout and DLT row bodies are small enough to sit here.

use std::marker::PhantomData;

use stencil_simd::{Elem, Vector};

use super::orig::{splat_w, xvec};
use super::{scalar, tl};
use crate::layout::{dlt_read, DltGeo};
use crate::stencil::{Box2, Box3, Star2, Star3, BOX2_MAX_R, BOX3_MAX_R, MAX_R};

/// One star axis's weights splatted into vector registers.
pub(crate) type AxisW<V> = [V; 2 * MAX_R + 1];

/// Neighbour rows feeding one 2D box row at the largest radius.
pub(crate) const BOX2_ROWS: usize = 2 * BOX2_MAX_R + 1;
/// Taps of a 2D box stencil at the largest radius.
pub(crate) const BOX2_TAPS: usize = BOX2_ROWS * BOX2_ROWS;
/// Neighbour rows feeding one 3D box row at the largest radius.
pub(crate) const BOX3_ROWS: usize = (2 * BOX3_MAX_R + 1) * (2 * BOX3_MAX_R + 1);
/// Taps of a 3D box stencil at the largest radius.
pub(crate) const BOX3_TAPS: usize = BOX3_ROWS * (2 * BOX3_MAX_R + 1);

/// The per-row bodies of a 2D stencil family.
///
/// All functions are `unsafe`, `#[inline(always)]` in the impls, and
/// inherit the pointer contracts of the range kernel that calls them:
/// rows `y ± R` addressable with halo pads, `dst` disjoint from sources.
pub trait Row2: Send + Sync + 'static {
    /// The stencil (weights) the bodies read.
    type S: Copy + Send + Sync + 'static;
    /// The weights splatted into registers of vector type `V`, hoisted
    /// out of the row loops by the range kernels.
    type W<V: Vector>: Copy;
    /// Stencil radius.
    const R: usize;
    /// Largest radius the bodies' fixed-size arrays hold; building a
    /// kernel object rejects anything larger.
    const MAX_R: usize;

    /// Canonical scalar accumulation at `(y, x)` of a natural-layout grid.
    ///
    /// # Safety
    /// Every tap of the stencil around the cell must be addressable.
    unsafe fn acc<T: Elem>(src: *const T, rs: usize, y: isize, x: isize, s: &Self::S) -> T;

    /// Splat the weights for [`Row2::orig_span`] / [`Row2::dlt_cols`].
    ///
    /// # Safety
    /// Feature context for `V`.
    unsafe fn splat<V: Vector>(s: &Self::S) -> Self::W<V>;

    /// Natural layout: update the aligned vectors at `[vlo, vhi)` of the
    /// row at `row` into `drow` (`REORG` picks the x-neighbour scheme,
    /// see [`super::orig`]); y-neighbours sit `rs` elements apart.
    ///
    /// # Safety
    /// Aligned loads one vector either side of `[vlo, vhi)` in every
    /// neighbour row must be in bounds (halo pads guarantee this); feature
    /// context for `V`.
    unsafe fn orig_span<V: Vector, const REORG: bool>(
        row: *const V::Elem,
        drow: *mut V::Elem,
        rs: usize,
        vlo: usize,
        vhi: usize,
        w: &Self::W<V>,
    );

    /// DLT layout: canonical scalar accumulation at logical cell `i` of
    /// the row at `c`, every read through the index map.
    ///
    /// # Safety
    /// Neighbour rows valid with halos; `i` inside the row's interior.
    unsafe fn dlt_cell<T: Elem>(c: *const T, rs: usize, i: isize, geo: &DltGeo, s: &Self::S) -> T;

    /// DLT layout: vector update of the seam-free columns `[j0, j1)` of
    /// the row at `c` into `d`.
    ///
    /// # Safety
    /// `R ≤ j0` and `j1 ≤ cols - R` (no seam columns); neighbour rows
    /// valid; feature context for `V`.
    unsafe fn dlt_cols<V: Vector>(
        c: *const V::Elem,
        d: *mut V::Elem,
        rs: usize,
        j0: usize,
        j1: usize,
        w: &Self::W<V>,
    );

    /// Transpose layout: update logical cells `[x0, x1)` of one `n`-cell
    /// row into `dst`; `at(dy)` is the interior origin of source row
    /// `y + dy` (the caller decides whether that is the grid, a fused
    /// pass's ring row, or a staged halo row).
    ///
    /// # Safety
    /// Every pointer `at` returns is a row valid with halos in the same
    /// layout/geometry; `dst` is disjoint from all of them; feature context
    /// for `V`.
    unsafe fn row_tl<V: Vector>(
        at: impl Fn(isize) -> *const V::Elem,
        dst: *mut V::Elem,
        n: usize,
        x0: usize,
        x1: usize,
        s: &Self::S,
    );
}

/// The per-row bodies of a 3D stencil family; see [`Row2`]. Rows sit
/// `rs` elements apart, planes `ps`.
pub trait Row3: Send + Sync + 'static {
    /// The stencil (weights) the bodies read.
    type S: Copy + Send + Sync + 'static;
    /// The weights splatted into registers of vector type `V`.
    type W<V: Vector>: Copy;
    /// Stencil radius.
    const R: usize;
    /// Largest radius the bodies' fixed-size arrays hold; building a
    /// kernel object rejects anything larger.
    const MAX_R: usize;

    /// Canonical scalar accumulation at `(z, y, x)` of a natural-layout
    /// grid.
    ///
    /// # Safety
    /// Every tap of the stencil around the cell must be addressable.
    #[allow(clippy::too_many_arguments)]
    unsafe fn acc<T: Elem>(
        src: *const T,
        rs: usize,
        ps: usize,
        z: isize,
        y: isize,
        x: isize,
        s: &Self::S,
    ) -> T;

    /// Splat the weights for [`Row3::orig_span`] / [`Row3::dlt_cols`].
    ///
    /// # Safety
    /// Feature context for `V`.
    unsafe fn splat<V: Vector>(s: &Self::S) -> Self::W<V>;

    /// Natural layout: update the aligned vectors at `[vlo, vhi)` of the
    /// row at `row` into `drow`.
    ///
    /// # Safety
    /// Aligned loads one vector either side of `[vlo, vhi)` in every
    /// neighbour row must be in bounds (halo pads guarantee this); feature
    /// context for `V`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn orig_span<V: Vector, const REORG: bool>(
        row: *const V::Elem,
        drow: *mut V::Elem,
        rs: usize,
        ps: usize,
        vlo: usize,
        vhi: usize,
        w: &Self::W<V>,
    );

    /// DLT layout: canonical scalar accumulation at logical cell `i` of
    /// the row at `c`.
    ///
    /// # Safety
    /// Neighbour rows valid with halos; `i` inside the row's interior.
    unsafe fn dlt_cell<T: Elem>(
        c: *const T,
        rs: usize,
        ps: usize,
        i: isize,
        geo: &DltGeo,
        s: &Self::S,
    ) -> T;

    /// DLT layout: vector update of the seam-free columns `[j0, j1)`.
    ///
    /// # Safety
    /// `R ≤ j0` and `j1 ≤ cols - R` (no seam columns); neighbour rows
    /// valid; feature context for `V`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn dlt_cols<V: Vector>(
        c: *const V::Elem,
        d: *mut V::Elem,
        rs: usize,
        ps: usize,
        j0: usize,
        j1: usize,
        w: &Self::W<V>,
    );

    /// Transpose layout: update logical cells `[x0, x1)` of one row into
    /// `dst`; `at(dz, dy)` is the interior origin of source row
    /// `(z + dz, y + dy)`.
    ///
    /// # Safety
    /// Every pointer `at` returns is a row valid with halos in the same
    /// layout/geometry; `dst` is disjoint from all of them; feature context
    /// for `V`.
    unsafe fn row_tl<V: Vector>(
        at: impl Fn(isize, isize) -> *const V::Elem,
        dst: *mut V::Elem,
        n: usize,
        x0: usize,
        x1: usize,
        s: &Self::S,
    );
}

/// Star strategy: the centre row contributes `2R+1` x-taps, each other
/// axis `2R` single aligned loads.
pub struct StarK<S>(PhantomData<S>);

/// Box strategy: every neighbour row contributes `2R+1` x-taps.
pub struct BoxK<S>(PhantomData<S>);

/// x- and y-terms of a star accumulation at aligned position `i` of a
/// natural-layout row (shared by the 2D and 3D star spans).
#[inline(always)]
unsafe fn star_xy_orig<V: Vector, const REORG: bool>(
    row: *const V::Elem,
    i: usize,
    rs: usize,
    r: usize,
    wxv: &AxisW<V>,
    wyv: &AxisW<V>,
) -> V {
    let mut acc = xvec::<V, REORG>(row, i, -(r as isize)).mul(wxv[0]);
    for o in 1..=2 * r {
        acc = xvec::<V, REORG>(row, i, o as isize - r as isize).mul_add(wxv[o], acc);
    }
    for d in 1..=r {
        acc = V::load(row.offset(i as isize - (d * rs) as isize)).mul_add(wyv[r - d], acc);
        acc = V::load(row.add(i + d * rs)).mul_add(wyv[r + d], acc);
    }
    acc
}

/// x- and y-terms of a star accumulation at DLT column base `base`.
#[inline(always)]
unsafe fn star_xy_dlt<V: Vector>(
    c: *const V::Elem,
    base: usize,
    rs: usize,
    r: usize,
    wxv: &AxisW<V>,
    wyv: &AxisW<V>,
) -> V {
    let l = V::LANES;
    let mut acc = V::load(c.add(base - r * l)).mul(wxv[0]);
    for o in 1..=2 * r {
        let off = base as isize + (o as isize - r as isize) * l as isize;
        acc = V::load(c.offset(off)).mul_add(wxv[o], acc);
    }
    for dd in 1..=r {
        acc = V::load(c.offset(base as isize - (dd * rs) as isize)).mul_add(wyv[r - dd], acc);
        acc = V::load(c.add(base + dd * rs)).mul_add(wyv[r + dd], acc);
    }
    acc
}

/// x- and y-terms of a star accumulation at logical cell `i` of a DLT
/// row, through the index map.
#[inline(always)]
unsafe fn star_xy_dlt_cell<T: Elem>(
    c: *const T,
    rs: usize,
    i: isize,
    geo: &DltGeo,
    r: usize,
    wx: &[f64],
    wy: &[f64],
) -> T {
    let cv = T::from_f64;
    let ri = r as isize;
    let mut acc = cv(wx[0]) * dlt_read(c, i - ri, geo);
    for o in 1..=2 * r {
        acc = dlt_read(c, i - ri + o as isize, geo).mul_add(cv(wx[o]), acc);
    }
    for dd in 1..=r {
        acc = dlt_read(c.offset(-((dd * rs) as isize)), i, geo).mul_add(cv(wy[r - dd]), acc);
        acc = dlt_read(c.add(dd * rs), i, geo).mul_add(cv(wy[r + dd]), acc);
    }
    acc
}

impl<S: Star2> Row2 for StarK<S> {
    type S = S;
    type W<V: Vector> = (AxisW<V>, AxisW<V>);
    const R: usize = S::R;
    const MAX_R: usize = MAX_R;

    #[inline(always)]
    unsafe fn acc<T: Elem>(src: *const T, rs: usize, y: isize, x: isize, s: &S) -> T {
        scalar::acc_star2(src, rs, y, x, s)
    }

    #[inline(always)]
    unsafe fn splat<V: Vector>(s: &S) -> Self::W<V> {
        (splat_w(s.wx()), splat_w(s.wy()))
    }

    #[inline(always)]
    unsafe fn orig_span<V: Vector, const REORG: bool>(
        row: *const V::Elem,
        drow: *mut V::Elem,
        rs: usize,
        vlo: usize,
        vhi: usize,
        (wxv, wyv): &Self::W<V>,
    ) {
        let mut i = vlo;
        while i < vhi {
            star_xy_orig::<V, REORG>(row, i, rs, S::R, wxv, wyv).store(drow.add(i));
            i += V::LANES;
        }
    }

    #[inline(always)]
    unsafe fn dlt_cell<T: Elem>(c: *const T, rs: usize, i: isize, geo: &DltGeo, s: &S) -> T {
        star_xy_dlt_cell(c, rs, i, geo, S::R, s.wx(), s.wy())
    }

    #[inline(always)]
    unsafe fn dlt_cols<V: Vector>(
        c: *const V::Elem,
        d: *mut V::Elem,
        rs: usize,
        j0: usize,
        j1: usize,
        (wxv, wyv): &Self::W<V>,
    ) {
        for j in j0..j1 {
            let base = j * V::LANES;
            star_xy_dlt::<V>(c, base, rs, S::R, wxv, wyv).store(d.add(base));
        }
    }

    #[inline(always)]
    unsafe fn row_tl<V: Vector>(
        at: impl Fn(isize) -> *const V::Elem,
        dst: *mut V::Elem,
        n: usize,
        x0: usize,
        x1: usize,
        s: &S,
    ) {
        let c = at(0);
        let (mut ym, mut yp) = ([c; MAX_R], [c; MAX_R]);
        for d in 1..=S::R {
            ym[d - 1] = at(-(d as isize));
            yp[d - 1] = at(d as isize);
        }
        tl::star2_row_tl::<V, S>(c, &ym, &yp, dst, n, x0, x1, s)
    }
}

impl<S: Box2> Row2 for BoxK<S> {
    type S = S;
    type W<V: Vector> = [V; BOX2_TAPS];
    const R: usize = S::R;
    const MAX_R: usize = BOX2_MAX_R;

    #[inline(always)]
    unsafe fn acc<T: Elem>(src: *const T, rs: usize, y: isize, x: isize, s: &S) -> T {
        scalar::acc_box2(src, rs, y, x, s)
    }

    #[inline(always)]
    unsafe fn splat<V: Vector>(s: &S) -> Self::W<V> {
        splat_w(s.w())
    }

    #[inline(always)]
    unsafe fn orig_span<V: Vector, const REORG: bool>(
        row: *const V::Elem,
        drow: *mut V::Elem,
        rs: usize,
        vlo: usize,
        vhi: usize,
        wv: &Self::W<V>,
    ) {
        let r = S::R as isize;
        let mut i = vlo;
        while i < vhi {
            let mut acc = V::zero();
            let mut k = 0usize;
            for dy in -r..=r {
                let nrow = row.offset(dy * rs as isize);
                for dx in -r..=r {
                    let v = xvec::<V, REORG>(nrow, i, dx);
                    if k == 0 {
                        acc = v.mul(wv[0]);
                    } else {
                        acc = v.mul_add(wv[k], acc);
                    }
                    k += 1;
                }
            }
            acc.store(drow.add(i));
            i += V::LANES;
        }
    }

    #[inline(always)]
    unsafe fn dlt_cell<T: Elem>(c: *const T, rs: usize, i: isize, geo: &DltGeo, s: &S) -> T {
        let w = s.w();
        let cv = T::from_f64;
        let r = S::R as isize;
        let mut acc = T::ZERO;
        let mut k = 0usize;
        for dy in -r..=r {
            let row = c.offset(dy * rs as isize);
            for dx in -r..=r {
                let val = dlt_read(row, i + dx, geo);
                if k == 0 {
                    acc = cv(w[0]) * val;
                } else {
                    acc = val.mul_add(cv(w[k]), acc);
                }
                k += 1;
            }
        }
        acc
    }

    #[inline(always)]
    unsafe fn dlt_cols<V: Vector>(
        c: *const V::Elem,
        d: *mut V::Elem,
        rs: usize,
        j0: usize,
        j1: usize,
        wv: &Self::W<V>,
    ) {
        let (l, r) = (V::LANES, S::R as isize);
        for j in j0..j1 {
            let base = j * l;
            let mut acc = V::zero();
            let mut k = 0usize;
            for dy in -r..=r {
                let row = c.offset(dy * rs as isize);
                for dx in -r..=r {
                    let v = V::load(row.offset(base as isize + dx * l as isize));
                    if k == 0 {
                        acc = v.mul(wv[0]);
                    } else {
                        acc = v.mul_add(wv[k], acc);
                    }
                    k += 1;
                }
            }
            acc.store(d.add(base));
        }
    }

    #[inline(always)]
    unsafe fn row_tl<V: Vector>(
        at: impl Fn(isize) -> *const V::Elem,
        dst: *mut V::Elem,
        n: usize,
        x0: usize,
        x1: usize,
        s: &S,
    ) {
        let mut rows = [at(0); BOX2_ROWS];
        for (k, row) in rows.iter_mut().enumerate().take(2 * S::R + 1) {
            *row = at(k as isize - S::R as isize);
        }
        tl::box2_row_tl::<V, S>(&rows, dst, n, x0, x1, s)
    }
}

impl<S: Star3> Row3 for StarK<S> {
    type S = S;
    type W<V: Vector> = (AxisW<V>, AxisW<V>, AxisW<V>);
    const R: usize = S::R;
    const MAX_R: usize = MAX_R;

    #[inline(always)]
    unsafe fn acc<T: Elem>(
        src: *const T,
        rs: usize,
        ps: usize,
        z: isize,
        y: isize,
        x: isize,
        s: &S,
    ) -> T {
        scalar::acc_star3(src, rs, ps, z, y, x, s)
    }

    #[inline(always)]
    unsafe fn splat<V: Vector>(s: &S) -> Self::W<V> {
        (splat_w(s.wx()), splat_w(s.wy()), splat_w(s.wz()))
    }

    #[inline(always)]
    unsafe fn orig_span<V: Vector, const REORG: bool>(
        row: *const V::Elem,
        drow: *mut V::Elem,
        rs: usize,
        ps: usize,
        vlo: usize,
        vhi: usize,
        (wxv, wyv, wzv): &Self::W<V>,
    ) {
        let r = S::R;
        let mut i = vlo;
        while i < vhi {
            let mut acc = star_xy_orig::<V, REORG>(row, i, rs, r, wxv, wyv);
            for d in 1..=r {
                acc = V::load(row.offset(i as isize - (d * ps) as isize)).mul_add(wzv[r - d], acc);
                acc = V::load(row.add(i + d * ps)).mul_add(wzv[r + d], acc);
            }
            acc.store(drow.add(i));
            i += V::LANES;
        }
    }

    #[inline(always)]
    unsafe fn dlt_cell<T: Elem>(
        c: *const T,
        rs: usize,
        ps: usize,
        i: isize,
        geo: &DltGeo,
        s: &S,
    ) -> T {
        let (r, wz) = (S::R, s.wz());
        let mut acc = star_xy_dlt_cell(c, rs, i, geo, r, s.wx(), s.wy());
        for dd in 1..=r {
            acc = dlt_read(c.offset(-((dd * ps) as isize)), i, geo)
                .mul_add(T::from_f64(wz[r - dd]), acc);
            acc = dlt_read(c.add(dd * ps), i, geo).mul_add(T::from_f64(wz[r + dd]), acc);
        }
        acc
    }

    #[inline(always)]
    unsafe fn dlt_cols<V: Vector>(
        c: *const V::Elem,
        d: *mut V::Elem,
        rs: usize,
        ps: usize,
        j0: usize,
        j1: usize,
        (wxv, wyv, wzv): &Self::W<V>,
    ) {
        let r = S::R;
        for j in j0..j1 {
            let base = j * V::LANES;
            let mut acc = star_xy_dlt::<V>(c, base, rs, r, wxv, wyv);
            for dd in 1..=r {
                acc =
                    V::load(c.offset(base as isize - (dd * ps) as isize)).mul_add(wzv[r - dd], acc);
                acc = V::load(c.add(base + dd * ps)).mul_add(wzv[r + dd], acc);
            }
            acc.store(d.add(base));
        }
    }

    #[inline(always)]
    unsafe fn row_tl<V: Vector>(
        at: impl Fn(isize, isize) -> *const V::Elem,
        dst: *mut V::Elem,
        n: usize,
        x0: usize,
        x1: usize,
        s: &S,
    ) {
        let c = at(0, 0);
        let (mut ym, mut yp, mut zm, mut zp) = ([c; MAX_R], [c; MAX_R], [c; MAX_R], [c; MAX_R]);
        for d in 1..=S::R {
            let di = d as isize;
            (ym[d - 1], yp[d - 1]) = (at(0, -di), at(0, di));
            (zm[d - 1], zp[d - 1]) = (at(-di, 0), at(di, 0));
        }
        tl::star3_row_tl::<V, S>(c, &ym, &yp, &zm, &zp, dst, n, x0, x1, s)
    }
}

impl<S: Box3> Row3 for BoxK<S> {
    type S = S;
    type W<V: Vector> = [V; BOX3_TAPS];
    const R: usize = S::R;
    const MAX_R: usize = BOX3_MAX_R;

    #[inline(always)]
    unsafe fn acc<T: Elem>(
        src: *const T,
        rs: usize,
        ps: usize,
        z: isize,
        y: isize,
        x: isize,
        s: &S,
    ) -> T {
        scalar::acc_box3(src, rs, ps, z, y, x, s)
    }

    #[inline(always)]
    unsafe fn splat<V: Vector>(s: &S) -> Self::W<V> {
        splat_w(s.w())
    }

    #[inline(always)]
    unsafe fn orig_span<V: Vector, const REORG: bool>(
        row: *const V::Elem,
        drow: *mut V::Elem,
        rs: usize,
        ps: usize,
        vlo: usize,
        vhi: usize,
        wv: &Self::W<V>,
    ) {
        let r = S::R as isize;
        let mut i = vlo;
        while i < vhi {
            let mut acc = V::zero();
            let mut k = 0usize;
            for dz in -r..=r {
                for dy in -r..=r {
                    let nrow = row.offset(dz * ps as isize + dy * rs as isize);
                    for dx in -r..=r {
                        let v = xvec::<V, REORG>(nrow, i, dx);
                        if k == 0 {
                            acc = v.mul(wv[0]);
                        } else {
                            acc = v.mul_add(wv[k], acc);
                        }
                        k += 1;
                    }
                }
            }
            acc.store(drow.add(i));
            i += V::LANES;
        }
    }

    #[inline(always)]
    unsafe fn dlt_cell<T: Elem>(
        c: *const T,
        rs: usize,
        ps: usize,
        i: isize,
        geo: &DltGeo,
        s: &S,
    ) -> T {
        let w = s.w();
        let cv = T::from_f64;
        let r = S::R as isize;
        let mut acc = T::ZERO;
        let mut k = 0usize;
        for dz in -r..=r {
            for dy in -r..=r {
                let row = c.offset(dz * ps as isize + dy * rs as isize);
                for dx in -r..=r {
                    let val = dlt_read(row, i + dx, geo);
                    if k == 0 {
                        acc = cv(w[0]) * val;
                    } else {
                        acc = val.mul_add(cv(w[k]), acc);
                    }
                    k += 1;
                }
            }
        }
        acc
    }

    #[inline(always)]
    unsafe fn dlt_cols<V: Vector>(
        c: *const V::Elem,
        d: *mut V::Elem,
        rs: usize,
        ps: usize,
        j0: usize,
        j1: usize,
        wv: &Self::W<V>,
    ) {
        let (l, r) = (V::LANES, S::R as isize);
        for j in j0..j1 {
            let base = j * l;
            let mut acc = V::zero();
            let mut k = 0usize;
            for dz in -r..=r {
                for dy in -r..=r {
                    let row = c.offset(dz * ps as isize + dy * rs as isize);
                    for dx in -r..=r {
                        let v = V::load(row.offset(base as isize + dx * l as isize));
                        if k == 0 {
                            acc = v.mul(wv[0]);
                        } else {
                            acc = v.mul_add(wv[k], acc);
                        }
                        k += 1;
                    }
                }
            }
            acc.store(d.add(base));
        }
    }

    #[inline(always)]
    unsafe fn row_tl<V: Vector>(
        at: impl Fn(isize, isize) -> *const V::Elem,
        dst: *mut V::Elem,
        n: usize,
        x0: usize,
        x1: usize,
        s: &S,
    ) {
        let (r, w) = (S::R as isize, 2 * S::R + 1);
        let mut rows = [at(0, 0); BOX3_ROWS];
        for dz in 0..w {
            for dy in 0..w {
                rows[dz * w + dy] = at(dz as isize - r, dy as isize - r);
            }
        }
        tl::box3_row_tl::<V, S>(&rows, dst, n, x0, x1, s)
    }
}
