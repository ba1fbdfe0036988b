//! Data-layout transformations.
//!
//! Two layouts beyond the natural row-major one:
//!
//! * **Local transpose layout** (the paper's contribution, §3.2): each
//!   row's interior is partitioned into blocks of `vl²` contiguous cells;
//!   each block — viewed as a `vl × vl` matrix of `vl` contiguous rows — is
//!   transposed *in registers, in place* ([`tl_transform_row`]). After the
//!   transform, vector `j` of a block (a "vector set") holds the logical
//!   cells `{base + j + i·vl}`, so the stencil's left/right dependences of
//!   vector `j` are simply vectors `j∓1` of the same set. Cells past the
//!   last full block (the *tail*) stay in natural order.
//!
//! * **DLT** (dimension-lifting transpose, Henretty et al., §2.2): the
//!   whole row of `n` cells is viewed as a `vl × (n/vl)` matrix and
//!   globally transposed, out of place ([`dlt_transform_row`]). Lanes of
//!   one vector are `n/vl` cells apart — great for alignment, fatal for
//!   tiling locality, which is exactly the contrast the paper draws.
//!
//! Both transforms come with index maps used by the scalar boundary/tail
//! paths and by tests. Each is applied to a whole grid by one body over
//! the grid's [`Geo`] ([`tl_grid`], [`dlt_grid`]), whatever its rank:
//! every row is transformed, halo rows and planes included, so vertical
//! neighbour loads see the same layout as the row itself.

use stencil_simd::{dispatch_elem, AlignedBuf, Elem, Isa, Vector};

use crate::grid::{Grid, GridMut};
use crate::kernels::Geo;

/// Vector-set geometry of a row of `n` interior cells for vector length `vl`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SetGeo {
    /// Vector length (lanes).
    pub vl: usize,
    /// Block size `vl²`.
    pub bs: usize,
    /// Number of full vector-set blocks.
    pub nsets: usize,
    /// First index past the transposed region (`nsets · vl²`).
    pub tail_start: usize,
    /// Interior length.
    pub n: usize,
    /// `log2(vl)` — the map is division-free (`vl` is a power of two).
    vl_shift: u32,
}

impl SetGeo {
    /// Geometry of a row of `n` cells at vector length `vl`.
    pub fn new(n: usize, vl: usize) -> Self {
        assert!(vl.is_power_of_two(), "vector length must be a power of two");
        let bs = vl * vl;
        let nsets = n / bs;
        SetGeo {
            vl,
            bs,
            nsets,
            tail_start: nsets * bs,
            n,
            vl_shift: vl.trailing_zeros(),
        }
    }

    /// Storage index of logical cell `i` under the local transpose layout.
    ///
    /// The map is an involution (a transpose swaps `(row, col)`), so it
    /// also converts storage indices back to logical ones.
    #[inline(always)]
    pub fn map(&self, i: usize) -> usize {
        if i >= self.tail_start {
            return i;
        }
        let p = i & (self.bs - 1);
        let (row, col) = (p >> self.vl_shift, p & (self.vl - 1));
        (i - p) + (col << self.vl_shift) + row
    }
}

/// Read logical cell `i` (halo allowed: `i < 0` or `i ≥ n`) from a row in
/// the local transpose layout.
///
/// # Safety
/// `ptr` must point at the row's interior origin with the full halo
/// addressable, and `i` must stay within `[-HALO_PAD, n + HALO_PAD)`.
#[inline(always)]
pub unsafe fn tl_read<T: Elem>(ptr: *const T, i: isize, g: &SetGeo) -> T {
    if i < 0 || i as usize >= g.tail_start {
        *ptr.offset(i)
    } else {
        *ptr.add(g.map(i as usize))
    }
}

/// Write logical cell `i ∈ [0, n)` of a row in the local transpose layout.
///
/// # Safety
/// Same addressability contract as [`tl_read`].
#[inline(always)]
pub unsafe fn tl_write<T: Elem>(ptr: *mut T, i: usize, v: T, g: &SetGeo) {
    if i >= g.tail_start {
        *ptr.add(i) = v;
    } else {
        *ptr.add(g.map(i)) = v;
    }
}

/// Transform one row of `n` cells into (or back out of — it is an
/// involution) the local transpose layout, in place, using the in-register
/// `vl × vl` transpose.
///
/// # Safety
/// Caller must be in a context where `V`'s ISA is enabled; `ptr` must be
/// valid for `n` reads/writes and aligned so that each block start is a
/// `vl`-vector boundary (guaranteed by [`crate::grid`] geometry).
#[inline(always)]
pub unsafe fn tl_transform_row<V: Vector>(ptr: *mut V::Elem, n: usize) {
    let l = V::LANES;
    let bs = l * l;
    let zero = V::zero();
    // Sized for the widest register file: 16 lanes (f32 AVX-512).
    let mut m = [zero; 16];
    for b in 0..n / bs {
        let base = b * bs;
        for j in 0..l {
            m[j] = V::load(ptr.add(base + j * l));
        }
        V::transpose(&mut m[..l]);
        for j in 0..l {
            m[j].store(ptr.add(base + j * l));
        }
    }
}

/// DLT geometry of a row of `n` interior cells for vector length `vl`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DltGeo {
    /// Vector length (lanes).
    pub vl: usize,
    /// Matrix columns `M = n / vl` (the paper's `N/vl`).
    pub cols: usize,
    /// First index past the DLT region (`vl · cols`); the rest is tail.
    pub region: usize,
    /// Interior length.
    pub n: usize,
}

impl DltGeo {
    /// Geometry of a row of `n` cells at vector length `vl`.
    pub fn new(n: usize, vl: usize) -> Self {
        let cols = n / vl;
        DltGeo {
            vl,
            cols,
            region: cols * vl,
            n,
        }
    }

    /// Storage index of logical cell `i` in the DLT layout.
    #[inline(always)]
    pub fn map(&self, i: usize) -> usize {
        if i >= self.region {
            return i;
        }
        let lane = i / self.cols;
        let j = i % self.cols;
        j * self.vl + lane
    }

    /// Logical cell stored at position `p` (inverse of [`DltGeo::map`]).
    #[inline(always)]
    pub fn unmap(&self, p: usize) -> usize {
        if p >= self.region {
            return p;
        }
        let j = p / self.vl;
        let lane = p % self.vl;
        lane * self.cols + j
    }
}

/// Read logical cell `i` (halo allowed) from a row in DLT layout.
///
/// # Safety
/// Same addressability contract as [`tl_read`].
#[inline(always)]
pub unsafe fn dlt_read<T: Elem>(ptr: *const T, i: isize, g: &DltGeo) -> T {
    if i < 0 || i as usize >= g.region {
        *ptr.offset(i)
    } else {
        *ptr.add(g.map(i as usize))
    }
}

/// Transform one row into DLT layout (`src` natural → `dst` DLT).
///
/// Uses the in-register transpose on `vl × vl` panels (strided loads from
/// the `vl` lane regions, contiguous aligned stores), with a scalar
/// remainder for `cols % vl` columns; the tail region is copied unchanged.
///
/// # Safety
/// Feature context for `V`; both pointers valid for `n` cells; `src != dst`.
#[inline(always)]
pub unsafe fn dlt_transform_row<V: Vector>(src: *const V::Elem, dst: *mut V::Elem, n: usize) {
    let l = V::LANES;
    let g = DltGeo::new(n, l);
    let cols = g.cols;
    let chunked = cols / l * l;
    let zero = V::zero();
    // Sized for the widest register file: 16 lanes (f32 AVX-512).
    let mut m = [zero; 16];
    for j0 in (0..chunked).step_by(l) {
        for lane in 0..l {
            m[lane] = V::loadu(src.add(lane * cols + j0));
        }
        V::transpose(&mut m[..l]);
        for q in 0..l {
            m[q].store(dst.add((j0 + q) * l));
        }
    }
    for j in chunked..cols {
        for lane in 0..l {
            *dst.add(j * l + lane) = *src.add(lane * cols + j);
        }
    }
    for i in g.region..n {
        *dst.add(i) = *src.add(i);
    }
}

/// Transform one row back from DLT layout (`src` DLT → `dst` natural).
///
/// # Safety
/// Same contract as [`dlt_transform_row`].
#[inline(always)]
pub unsafe fn dlt_inverse_row<V: Vector>(src: *const V::Elem, dst: *mut V::Elem, n: usize) {
    let l = V::LANES;
    let g = DltGeo::new(n, l);
    let cols = g.cols;
    let chunked = cols / l * l;
    let zero = V::zero();
    // Sized for the widest register file: 16 lanes (f32 AVX-512).
    let mut m = [zero; 16];
    for j0 in (0..chunked).step_by(l) {
        for q in 0..l {
            m[q] = V::load(src.add((j0 + q) * l));
        }
        V::transpose(&mut m[..l]);
        for lane in 0..l {
            m[lane].storeu(dst.add(lane * cols + j0));
        }
    }
    for j in chunked..cols {
        for lane in 0..l {
            *dst.add(lane * cols + j) = *src.add(j * l + lane);
        }
    }
    for i in g.region..n {
        *dst.add(i) = *src.add(i);
    }
}

// ---------------------------------------------------------------------------
// Grid-level transforms: one body each over a `Geo`.
//
// `dispatch_elem!` is call-shaped (a single generic call per ISA arm), so
// the row loops live in named generic helpers rather than in the macro
// bodies.
// ---------------------------------------------------------------------------

/// [`tl_transform_row`] over every row of the buffer laid out as `geo`
/// around the interior origin `p`.
///
/// # Safety
/// Same contract as [`tl_transform_row`] for every row of `geo`.
unsafe fn tl_rows<V: Vector>(p: *mut V::Elem, geo: &Geo) {
    for off in geo.rows(true) {
        tl_transform_row::<V>(p.offset(off), geo.n[0]);
    }
}

/// DLT transform (or, with `inverse`, its inverse) of every row of the
/// buffer laid out as `geo` around the interior origin `sp` into the
/// matching row around `dp`.
///
/// # Safety
/// Same contract as [`dlt_transform_row`] for every row of `geo`.
unsafe fn dlt_rows<V: Vector>(sp: *const V::Elem, dp: *mut V::Elem, geo: &Geo, inverse: bool) {
    for off in geo.rows(true) {
        let (s, d) = (sp.offset(off), dp.offset(off));
        if inverse {
            dlt_inverse_row::<V>(s, d, geo.n[0])
        } else {
            dlt_transform_row::<V>(s, d, geo.n[0])
        }
    }
}

/// Toggle every row of a buffer laid out as `geo` between natural and
/// local-transpose layout, in place.
pub(crate) fn tl_buf<T: Elem>(buf: &mut AlignedBuf<T>, geo: &Geo, isa: Isa) {
    assert_eq!(buf.len(), geo.len::<T>());
    // SAFETY: the buffer holds every row of `geo`, and row interiors
    // start on 64-byte boundaries.
    let p = unsafe { buf.as_mut_ptr().add(geo.origin::<T>()) };
    dispatch_elem!(isa, T, tl_rows::<V>(p, geo));
}

/// DLT-transform (or, with `inverse`, restore) every row of `src` into
/// `dst`, both laid out as `geo`.
pub(crate) fn dlt_buf<T: Elem>(
    src: &AlignedBuf<T>,
    dst: &mut AlignedBuf<T>,
    geo: &Geo,
    isa: Isa,
    inverse: bool,
) {
    assert_eq!((src.len(), dst.len()), (geo.len::<T>(), geo.len::<T>()));
    let o = geo.origin::<T>();
    // SAFETY: both buffers hold every row of `geo` and are distinct
    // allocations (`dst` is borrowed mutably).
    let (sp, dp) = unsafe { (src.as_ptr().add(o), dst.as_mut_ptr().add(o)) };
    dispatch_elem!(isa, T, dlt_rows::<V>(sp, dp, geo, inverse));
}

/// Toggle every row of a grid (halo rows/planes included) between
/// natural and local-transpose layout, in place.
pub fn tl_grid<T: Elem, const D: usize>(g: &mut Grid<T, D>, isa: Isa) {
    let (buf, geo) = GridMut::from(g).into_parts();
    tl_buf(buf, &geo, isa);
}

/// DLT-transform (or invert) every row of a grid (halos included) out
/// of place. `dst` must have the same geometry as `src` (clone it first
/// so halos carry over).
pub fn dlt_grid<T: Elem, const D: usize>(
    src: &Grid<T, D>,
    dst: &mut Grid<T, D>,
    isa: Isa,
    inverse: bool,
) {
    let (buf, geo) = GridMut::from(dst).into_parts();
    assert_eq!(src.geo(), geo);
    dlt_buf(src.buf(), buf, &geo, isa, inverse);
}

// The rank-named spellings of the two transforms that callers use.
pub use dlt_grid as dlt_grid2;
pub use tl_grid as tl_grid1;
pub use tl_grid as tl_grid2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid1, Grid2};

    #[test]
    fn setgeo_map_is_involution() {
        for vl in [4usize, 8] {
            for n in [0usize, 5, 16, 64, 100, 257] {
                let g = SetGeo::new(n, vl);
                for i in 0..n {
                    assert_eq!(g.map(g.map(i)), i, "vl={vl} n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn setgeo_matches_paper_figure2() {
        // Fig. 2: 16 cells A..P with vl=4 become A E I M | B F J N | ...
        let g = SetGeo::new(16, 4);
        let logical: Vec<usize> = (0..16).collect();
        let mut stored = vec![0usize; 16];
        for &i in &logical {
            stored[g.map(i)] = i;
        }
        assert_eq!(
            stored,
            vec![0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]
        );
    }

    #[test]
    fn dltgeo_map_unmap_roundtrip() {
        for vl in [4usize, 8] {
            for n in [8usize, 16, 64, 100, 257] {
                let g = DltGeo::new(n, vl);
                for i in 0..n {
                    assert_eq!(g.unmap(g.map(i)), i, "vl={vl} n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn tl_transform_matches_map_all_isas() {
        for isa in Isa::ALL.into_iter().filter(|i| i.is_available()) {
            let n = 3 * isa.lanes() * isa.lanes() + 7; // three sets + tail
            let mut g = Grid1::from_fn(n, -1.0, |i| i as f64);
            tl_grid(&mut g, isa);
            let geo = SetGeo::new(n, isa.lanes());
            for i in 0..n {
                assert_eq!(
                    unsafe { tl_read(g.ptr(), i as isize, &geo) },
                    i as f64,
                    "isa={isa} i={i}"
                );
            }
            // involution: transform back restores natural order
            tl_grid(&mut g, isa);
            for i in 0..n {
                assert_eq!(g.get(i as isize), i as f64, "isa={isa} i={i}");
            }
            // halo untouched
            assert_eq!(g.get(-1), -1.0);
            assert_eq!(g.get(n as isize), -1.0);
        }
    }

    #[test]
    fn dlt_transform_matches_map_all_isas() {
        for isa in Isa::ALL.into_iter().filter(|i| i.is_available()) {
            let n = 10 * isa.lanes() + 3;
            let src = Grid1::from_fn(n, -2.0, |i| (i * i) as f64);
            let mut dst = src.clone();
            dlt_grid(&src, &mut dst, isa, false);
            let geo = DltGeo::new(n, isa.lanes());
            for i in 0..n {
                assert_eq!(
                    unsafe { dlt_read(dst.ptr(), i as isize, &geo) },
                    (i * i) as f64,
                    "isa={isa} i={i}"
                );
            }
            let mut back = src.clone();
            dlt_grid(&dst, &mut back, isa, true);
            assert_eq!(back.interior(), src.interior(), "isa={isa}");
        }
    }

    #[test]
    fn tl_grid2_transposes_halo_rows_too() {
        let isa = Isa::Portable4;
        let nx = 16 + 5;
        let mut g = Grid2::from_fn(nx, 3, 1, 0.0, |y, x| (y * 1000 + x) as f64);
        // put a recognizable pattern into the top halo row
        for x in 0..nx {
            g.set(-1, x as isize, 5000.0 + x as f64);
        }
        tl_grid(&mut g, isa);
        let geo = SetGeo::new(nx, 4);
        // halo row must be transposed with the same map
        assert_eq!(g.get(-1, geo.map(1) as isize), 5001.0);
        tl_grid(&mut g, isa);
        assert_eq!(g.get(-1, 1), 5001.0);
        assert_eq!(g.get(2, 7), 2007.0);
    }
}
