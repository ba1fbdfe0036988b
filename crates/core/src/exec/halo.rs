//! Boundary conditions and the halo-refresh layer.
//!
//! Every grid in this workspace carries halo cells around its interior
//! (see [`crate::grid`]): [`Elem::PAD`] elements on each side of a row, plus
//! whole halo rows/planes in 2D/3D. Kernels read them freely and never
//! write them — which is exactly a **Dirichlet** (fixed-value) boundary
//! when the halos are constant, and becomes any other boundary condition
//! the moment something refreshes the halo cells from the interior
//! between time steps. That something is this module.
//!
//! # The [`Boundary`] policy
//!
//! * [`Boundary::Dirichlet`]`(v)` — the paper's setting and the default:
//!   halo cells are constant, carrying the fixed boundary value the grid
//!   was constructed with. The engine never touches them (so existing
//!   plans are bit-identical to the pre-boundary engine); `v` records the
//!   intended value for constructors such as
//!   [`AnyGrid::from_fn_spec`](crate::grid::AnyGrid::from_fn_spec).
//! * [`Boundary::Periodic`] — wrap-around: logical cell `-k` is cell
//!   `n-k`, cell `n-1+k` is cell `k-1`, per axis. The standard torus
//!   setting used to evaluate stencil frameworks.
//! * [`Boundary::Reflect`] — zero-flux (insulated) Neumann walls via
//!   even mirroring about the cell face: cell `-k` is cell `k-1`, cell
//!   `n-1+k` is cell `n-k`, per axis. Conserves the field total under
//!   normalized diffusion weights.
//!
//! Corners and edges compose per axis (x halos are folded first, then
//!   whole-row y copies, then whole-plane z copies), matching a naive
//! reference that folds each index independently.
//!
//! # When the refresh runs, and who runs it
//!
//! The refresh is O(surface) against the kernels' O(volume): before any
//! kernel reads a halo cell, that cell is rewritten from the interior of
//! the step's **source** buffer at the matching time level. Who does the
//! rewriting depends on the driver:
//!
//! * **Untiled sequential** plans refresh the whole surface between
//!   steps (`refresh1`/`refresh2`/`refresh3`).
//! * **Untiled parallel** plans fuse a band-granular refresh into the
//!   sweep (`refresh1_band`/`refresh2_band`/`refresh3_band`):
//!   each band refreshes exactly the halo rows/planes its own cells
//!   read, while hot. Adjacent bands may both write a shared halo cell,
//!   but always with **bit-identical values** folded from the immutable
//!   source interior — the benign-race contract that makes the refresh
//!   barrier-free (see `exec::par`).
//! * **Temporally tiled** plans (`Tiling::Tessellate` / `Split`)
//!   advance different cells to different time levels inside one chunk,
//!   so there is no global "the" source buffer to refresh. Instead the
//!   wavefront scheduler (see `exec::wave`) gives each time chunk one
//!   **edge group**: a single node owning every tile whose radius-
//!   extended footprint leaves the interior. The group steps its
//!   members level by level, refreshing the halos of the level about to
//!   be read before each sub-step, while interior tiles never read a
//!   halo cell at all (their footprints stay inside the domain, and the
//!   split drivers' per-tile band refreshes only touch rows the tile
//!   itself owns). That is what lets every boundary compose with
//!   temporal tiling and threads at 0 ULP.
//!
//! # Layout awareness
//!
//! The hot kernels run over the method's resident layout (natural, local
//! transpose, or DLT — see [`crate::layout`]), and all three store the
//! x-halo cells at their raw (natural) offsets while permuting only the
//! interior; halo rows/planes are transformed like interior rows, so y/z
//! refreshes are raw row/plane copies in any layout. The only
//! layout-dependent part is *reading* an interior cell by logical index,
//! which [`RowMap`] centralizes. Kernels stay byte-for-byte untouched.

use stencil_simd::{Elem, Isa};

use crate::layout::{DltGeo, SetGeo};
use crate::spec::SpecError;

use super::Method;

/// What the halo cells of a grid mean, and therefore how (whether) the
/// engine refreshes them between time steps.
///
/// Parses from and prints as a compact label that also composes with
/// stencil names (`"2d5p@periodic"` — see
/// [`StencilSpec`](crate::spec::StencilSpec)):
///
/// ```
/// use stencil_core::exec::Boundary;
///
/// assert_eq!("periodic".parse::<Boundary>().unwrap(), Boundary::Periodic);
/// assert_eq!("dirichlet(1.5)".parse::<Boundary>().unwrap(), Boundary::Dirichlet(1.5));
/// let b = Boundary::Reflect;
/// assert_eq!(b.to_string().parse::<Boundary>().unwrap(), b);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Boundary {
    /// Fixed-value halos (the paper's setting, and the default as
    /// `Dirichlet(0.0)`). The engine never writes halo cells; the value
    /// records the condition for grid constructors and documentation.
    Dirichlet(f64),
    /// Wrap-around (torus) boundaries, refreshed once per time step.
    Periodic,
    /// Zero-flux (insulated Neumann) boundaries via even mirroring,
    /// refreshed once per time step.
    Reflect,
}

impl Boundary {
    /// Whether this is a Dirichlet (constant-halo) condition — the only
    /// kind that needs no per-step refresh and composes with temporal
    /// tiling.
    #[inline]
    pub fn is_dirichlet(self) -> bool {
        matches!(self, Boundary::Dirichlet(_))
    }

    /// The constant halo value grid constructors should fill with:
    /// the Dirichlet value, or `0.0` for the refreshed modes (whose
    /// halos are overwritten before every step anyway).
    #[inline]
    pub fn halo_fill(self) -> f64 {
        match self {
            Boundary::Dirichlet(v) => v,
            Boundary::Periodic | Boundary::Reflect => 0.0,
        }
    }

    /// Short label without the Dirichlet value ("dirichlet", "periodic",
    /// "reflect") for report tables.
    pub fn name(self) -> &'static str {
        match self {
            Boundary::Dirichlet(_) => "dirichlet",
            Boundary::Periodic => "periodic",
            Boundary::Reflect => "reflect",
        }
    }
}

impl Default for Boundary {
    /// `Dirichlet(0.0)` — today's constant-zero halos.
    fn default() -> Boundary {
        Boundary::Dirichlet(0.0)
    }
}

impl std::fmt::Display for Boundary {
    /// `"dirichlet(v)"` / `"periodic"` / `"reflect"`; round-trips
    /// through `FromStr` (Rust's `f64` `Display` is shortest-exact).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Boundary::Dirichlet(v) => write!(f, "dirichlet({v})"),
            Boundary::Periodic => f.write_str("periodic"),
            Boundary::Reflect => f.write_str("reflect"),
        }
    }
}

impl std::str::FromStr for Boundary {
    type Err = SpecError;

    /// Parse `"periodic"`, `"reflect"`, `"dirichlet"` (= `Dirichlet(0.0)`)
    /// or `"dirichlet(<value>)"`.
    fn from_str(s: &str) -> Result<Boundary, SpecError> {
        match s {
            "periodic" => return Ok(Boundary::Periodic),
            "reflect" => return Ok(Boundary::Reflect),
            "dirichlet" => return Ok(Boundary::Dirichlet(0.0)),
            _ => {}
        }
        if let Some(v) = s
            .strip_prefix("dirichlet(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            if let Ok(v) = v.parse::<f64>() {
                return Ok(Boundary::Dirichlet(v));
            }
        }
        Err(SpecError::UnknownBoundary(s.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Layout-aware logical reads
// ---------------------------------------------------------------------------

/// How logical cell indices of one row map to storage offsets in the
/// layout a plan's buffers are resident in.
///
/// All three layouts keep x-halo cells at their raw natural offsets and
/// permute only interior cells, so the refresh *writes* raw halo
/// positions and only *reads* through this map.
#[derive(Copy, Clone, Debug)]
pub enum RowMap {
    /// Natural row-major order (scalar / multiload / reorg buffers).
    Natural,
    /// The paper's local transpose layout (translayout / translayout2).
    Transpose(SetGeo),
    /// Dimension-lifting transpose (DLT staging buffers).
    Dlt(DltGeo),
}

impl RowMap {
    /// The map for the layout `method` keeps its buffers in, for rows of
    /// `nx` interior cells of element `T` at `isa`'s vector length.
    pub(crate) fn for_method<T: Elem>(method: Method, isa: Isa, nx: usize) -> RowMap {
        let l = isa.lanes_for::<T>();
        match method {
            Method::Scalar | Method::MultiLoad | Method::Reorg => RowMap::Natural,
            Method::TransLayout | Method::TransLayout2 => RowMap::Transpose(SetGeo::new(nx, l)),
            Method::Dlt => RowMap::Dlt(DltGeo::new(nx, l)),
        }
    }

    /// Read interior logical cell `i ∈ [0, n)` of the row at `row`.
    ///
    /// # Safety
    /// `row` must point at the row's interior origin with `i` inside the
    /// interior the map was built for.
    #[inline]
    unsafe fn read<T: Elem>(&self, row: *const T, i: usize) -> T {
        match self {
            RowMap::Natural => *row.add(i),
            RowMap::Transpose(g) => *row.add(g.map(i)),
            RowMap::Dlt(g) => *row.add(g.map(i)),
        }
    }
}

// ---------------------------------------------------------------------------
// Refresh engine
// ---------------------------------------------------------------------------

/// Refresh the x halos (raw positions `-r..0` and `n..n+r` relative to
/// the interior) of one row from its interior.
///
/// # Safety
/// `row` points at the row's interior origin; positions `[-r, n + r)`
/// must be addressable (`r ≤ T::PAD`, guaranteed by `MAX_R`); the
/// map's geometry must match `n`. Caller guarantees `n ≥ r` for the
/// non-Dirichlet modes (validated at plan build).
pub(crate) unsafe fn refresh_row<T: Elem>(
    row: *mut T,
    n: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
) {
    debug_assert!(r <= T::PAD);
    match b {
        Boundary::Dirichlet(_) => {}
        Boundary::Periodic => {
            for k in 1..=r {
                *row.offset(-(k as isize)) = map.read(row, n - k);
                *row.add(n - 1 + k) = map.read(row, k - 1);
            }
        }
        Boundary::Reflect => {
            for k in 1..=r {
                *row.offset(-(k as isize)) = map.read(row, k - 1);
                *row.add(n - 1 + k) = map.read(row, n - k);
            }
        }
    }
}

/// The source row index (in `[0, n)`) that halo row/plane `-k` (for
/// `lo = true`) or `n-1+k` copies from. Also used by the wide-halo fused
/// kernels (`kernels::tl2`) to stage t+1 halo values.
#[inline]
pub(crate) fn fold_src(n: usize, k: usize, lo: bool, b: Boundary) -> usize {
    match (b, lo) {
        (Boundary::Periodic, true) => n - k,
        (Boundary::Periodic, false) => k - 1,
        (Boundary::Reflect, true) => k - 1,
        (Boundary::Reflect, false) => n - k,
        (Boundary::Dirichlet(_), _) => unreachable!("Dirichlet never copies"),
    }
}

/// Copy one full raw row (`rs` elements starting `T::PAD` before the
/// interior origin) from row index `src_y` to row index `dst_y`.
///
/// # Safety
/// Both rows fully addressable; `src_y != dst_y`.
#[inline]
unsafe fn copy_raw_row<T: Elem>(base: *mut T, rs: usize, src_y: isize, dst_y: isize) {
    let src = base.offset(src_y * rs as isize - T::PAD as isize);
    let dst = base.offset(dst_y * rs as isize - T::PAD as isize);
    std::ptr::copy_nonoverlapping(src, dst, rs);
}

/// Refresh the halos of a 1D buffer from its interior (no-op under
/// Dirichlet).
///
/// # Safety
/// Same contract as [`refresh_row`].
pub(crate) unsafe fn refresh1<T: Elem>(ptr: *mut T, n: usize, r: usize, b: Boundary, map: &RowMap) {
    refresh_row(ptr, n, r, b, map);
}

/// Refresh the halo frame of a 2D buffer from its interior: x halos of
/// every interior row first, then `r` whole raw halo rows above and
/// below (which carries the freshly folded x halos into the corners).
/// No-op under Dirichlet.
///
/// # Safety
/// `ptr` points at interior cell (0, 0) of a buffer with row stride `rs`,
/// at least `r` halo rows on each side, and `T::PAD` row padding; the
/// map's geometry must match `nx`; `nx, ny ≥ r` for non-Dirichlet modes.
pub(crate) unsafe fn refresh2<T: Elem>(
    ptr: *mut T,
    rs: usize,
    nx: usize,
    ny: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
) {
    if b.is_dirichlet() {
        return;
    }
    for y in 0..ny {
        refresh_row(ptr.add(y * rs), nx, r, b, map);
    }
    for k in 1..=r {
        copy_raw_row(ptr, rs, fold_src(ny, k, true, b) as isize, -(k as isize));
        copy_raw_row(
            ptr,
            rs,
            fold_src(ny, k, false, b) as isize,
            (ny - 1 + k) as isize,
        );
    }
}

/// Refresh the halo shell of a 3D buffer from its interior: the 2D halo
/// frame of every interior plane first, then `r` whole halo planes
/// (rows `[-r, ny + r)` of the folded source plane) on each side, which
/// carries the folded y/x halos into the edges and corners. No-op under
/// Dirichlet.
///
/// # Safety
/// `ptr` points at interior cell (0, 0, 0) of a buffer with row stride
/// `rs`, plane stride `ps`, at least `r` halo rows/planes per side;
/// map geometry must match `nx`; `nx, ny, nz ≥ r` for non-Dirichlet.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn refresh3<T: Elem>(
    ptr: *mut T,
    rs: usize,
    ps: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
) {
    if b.is_dirichlet() {
        return;
    }
    for z in 0..nz {
        refresh2(ptr.add(z * ps), rs, nx, ny, r, b, map);
    }
    // Whole-plane copies: rows [-r, ny + r), each rs wide from -T::PAD,
    // are contiguous — one copy per halo plane.
    let row0 = -(r as isize) * rs as isize - T::PAD as isize;
    let len = (ny + 2 * r) * rs;
    for k in 1..=r {
        for (dst_z, lo) in [(-(k as isize), true), ((nz - 1 + k) as isize, false)] {
            let src_z = fold_src(nz, k, lo, b) as isize;
            let src = ptr.offset(src_z * ps as isize + row0);
            let dst = ptr.offset(dst_z * ps as isize + row0);
            std::ptr::copy_nonoverlapping(src, dst, len);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-band refresh — the fused fast path for the parallel drivers
// ---------------------------------------------------------------------------
//
// The whole-grid `refresh1/2/3` sweeps above are what a sequential plan
// runs between steps. The parallel drivers (`exec::par`) instead fold the
// refresh into each band's work item: a band refreshes exactly the halo
// cells its own compute reads, immediately before computing, while those
// cache lines are hot — no serial pre-pass and no extra barrier.
//
// Bands overlap by the stencil radius, so adjacent bands may write the
// same halo cell. Every such write computes the value from the *source*
// buffer's interior, which is immutable for the whole step, so all
// writers store bit-identical values; the overlap is a benign race on
// identical values (aligned element-sized stores). Halo-row construction
// copies the raw fold row first (whose x-halo pad may be mid-refresh by
// its owning band) and then recomputes the copy's x halos locally from
// the copied interior, so every cell a kernel can read is deterministic.

/// Per-band [`refresh1`]: fold only the halo cells a 1D band `[lo, hi)`
/// reads (left halos when `lo < r`, right halos when `hi + r > n`).
///
/// # Safety
/// Same contract as [`refresh_row`]; `lo ≤ hi ≤ n`.
pub(crate) unsafe fn refresh1_band<T: Elem>(
    ptr: *mut T,
    n: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
    lo: usize,
    hi: usize,
) {
    match b {
        Boundary::Dirichlet(_) => {}
        Boundary::Periodic => {
            for k in 1..=r {
                if lo < r {
                    *ptr.offset(-(k as isize)) = map.read(ptr, n - k);
                }
                if hi + r > n {
                    *ptr.add(n - 1 + k) = map.read(ptr, k - 1);
                }
            }
        }
        Boundary::Reflect => {
            for k in 1..=r {
                if lo < r {
                    *ptr.offset(-(k as isize)) = map.read(ptr, k - 1);
                }
                if hi + r > n {
                    *ptr.add(n - 1 + k) = map.read(ptr, n - k);
                }
            }
        }
    }
}

/// Construct halo row `dst_y` (a row index outside `[0, ny)`) from its
/// fold source: copy the raw source row, then recompute the copy's x
/// halos from its own (just copied) interior so the result does not
/// depend on whether the source row's x halos were refreshed yet.
///
/// # Safety
/// Same contract as [`refresh2`] for the rows involved.
#[allow(clippy::too_many_arguments)]
unsafe fn build_halo_row<T: Elem>(
    ptr: *mut T,
    rs: usize,
    nx: usize,
    ny: usize,
    k: usize,
    lo: bool,
    r: usize,
    b: Boundary,
    map: &RowMap,
) {
    let dst_y = if lo {
        -(k as isize)
    } else {
        (ny - 1 + k) as isize
    };
    copy_raw_row(ptr, rs, fold_src(ny, k, lo, b) as isize, dst_y);
    refresh_row(ptr.offset(dst_y * rs as isize), nx, r, b, map);
}

/// Per-band [`refresh2`]: refresh the x halos of the rows a 2D band
/// `[y0, y1)` reads (`[y0 - r, y1 + r) ∩ [0, ny)`) and construct the
/// whole halo rows it touches (below when `y0 < r`, above when
/// `y1 + r > ny`).
///
/// # Safety
/// Same contract as [`refresh2`]; `y0 ≤ y1 ≤ ny`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn refresh2_band<T: Elem>(
    ptr: *mut T,
    rs: usize,
    nx: usize,
    ny: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
    y0: usize,
    y1: usize,
) {
    if b.is_dirichlet() {
        return;
    }
    for y in y0.saturating_sub(r)..(y1 + r).min(ny) {
        refresh_row(ptr.add(y * rs), nx, r, b, map);
    }
    for k in 1..=r {
        if y0 < r {
            build_halo_row(ptr, rs, nx, ny, k, true, r, b, map);
        }
        if y1 + r > ny {
            build_halo_row(ptr, rs, nx, ny, k, false, r, b, map);
        }
    }
}

/// Per-band [`refresh3`]: refresh the 2D halo frame of the planes a 3D
/// band `[z0, z1)` reads (`[z0 - r, z1 + r) ∩ [0, nz)`) and construct
/// the whole halo planes it touches. Halo planes are built as raw copies
/// of their fold-source plane followed by a local 2D frame refresh of
/// the copy, mirroring [`build_halo_row`].
///
/// # Safety
/// Same contract as [`refresh3`]; `z0 ≤ z1 ≤ nz`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn refresh3_band<T: Elem>(
    ptr: *mut T,
    rs: usize,
    ps: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
    z0: usize,
    z1: usize,
) {
    if b.is_dirichlet() {
        return;
    }
    for z in z0.saturating_sub(r)..(z1 + r).min(nz) {
        refresh2(ptr.add(z * ps), rs, nx, ny, r, b, map);
    }
    let row0 = -(T::PAD as isize);
    let len = ny * rs + T::PAD; // rows [0, ny) plus the leading pad
    for k in 1..=r {
        for (dst_z, lo) in [(-(k as isize), true), ((nz - 1 + k) as isize, false)] {
            if (lo && z0 >= r) || (!lo && z1 + r <= nz) {
                continue;
            }
            let src_z = fold_src(nz, k, lo, b) as isize;
            let src = ptr.offset(src_z * ps as isize + row0);
            let dst = ptr.offset(dst_z * ps as isize + row0);
            std::ptr::copy_nonoverlapping(src, dst, len);
            // Rebuild the copied plane's own 2D halo frame locally from
            // its interior so nothing depends on the source plane's
            // refresh having happened.
            refresh2(ptr.offset(dst_z * ps as isize), rs, nx, ny, r, b, map);
        }
    }
}

// ---------------------------------------------------------------------------
// Buffer plumbing shared by the plan types
// ---------------------------------------------------------------------------

/// Grid-like containers whose halo cells can be carried wholesale into a
/// staging partner — the one audited home for the "copy everything so
/// the halos come along" idiom.
pub(crate) trait HaloCarrier: Clone {
    /// Overwrite every cell of `self` (halos included) with `src`'s.
    fn carry_from(&mut self, src: &Self);
}

impl<T: Elem> HaloCarrier for crate::grid::Grid1<T> {
    fn carry_from(&mut self, src: &Self) {
        self.copy_from(src);
    }
}

impl<T: Elem> HaloCarrier for crate::grid::Grid2<T> {
    fn carry_from(&mut self, src: &Self) {
        self.copy_from(src);
    }
}

impl<T: Elem> HaloCarrier for crate::grid::Grid3<T> {
    fn carry_from(&mut self, src: &Self) {
        self.copy_from(src);
    }
}

/// Fill the plan's ping-pong scratch slot from `g`, allocating on first
/// use and refreshing every cell (halos included) after that.
pub(crate) fn ensure_scratch<G: HaloCarrier>(slot: &mut Option<G>, g: &G) {
    match slot {
        Some(sc) => sc.carry_from(g),
        None => *slot = Some(g.clone()),
    }
}

/// Fill the plan's DLT staging pair from `g`: carry `g`'s halos into the
/// first staging grid, apply the forward layout transform (which writes
/// only the interior), and mirror the result into the second grid so
/// both ping-pong partners start with identical halos.
pub(crate) fn ensure_stage<G: HaloCarrier>(
    slot: &mut Option<(G, G)>,
    g: &G,
    forward: impl FnOnce(&G, &mut G),
) {
    if slot.is_none() {
        *slot = Some((g.clone(), g.clone()));
    }
    let (a, b) = slot.as_mut().expect("just ensured");
    a.carry_from(g); // halos ride along; the transform overwrites the interior
    forward(g, a);
    b.carry_from(a);
}

/// Length in elements of the k = 2 ring buffer for 2D fused stepping
/// (`2r + 1` rows plus the left halo pad).
#[inline]
pub(crate) fn ring2_len<T: Elem>(r: usize, rs: usize) -> usize {
    T::PAD + (2 * r + 1) * rs
}

/// Interior origin of the 2D ring buffer (one `T::PAD` in).
///
/// # Safety
/// `ring` must have at least [`ring2_len`] capacity.
#[inline]
pub(crate) unsafe fn ring2_origin<T: Elem>(ring: *mut T) -> *mut T {
    ring.add(T::PAD)
}

/// Length in elements of the k = 2 ring buffer for 3D fused stepping
/// (`2r + 1` planes; element-count, so no type parameter — unlike
/// [`ring2_len`], no pad is element-width dependent here).
#[inline]
pub(crate) fn ring3_len(r: usize, ps: usize) -> usize {
    (2 * r + 1) * ps
}

/// Interior origin of the 3D ring buffer (`r` halo rows plus the pad in).
///
/// # Safety
/// `ring` must have at least [`ring3_len`] capacity.
#[inline]
pub(crate) unsafe fn ring3_origin<T: Elem>(ring: *mut T, r: usize, rs: usize) -> *mut T {
    ring.add(r * rs + T::PAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid1, Grid2, Grid3, HALO_PAD};
    use crate::layout::{dlt_grid1, tl_grid1, tl_read};

    #[test]
    fn boundary_labels_round_trip() {
        for b in [
            Boundary::Dirichlet(0.0),
            Boundary::Dirichlet(-3.25),
            Boundary::Dirichlet(1e-300),
            Boundary::Periodic,
            Boundary::Reflect,
        ] {
            assert_eq!(b.to_string().parse::<Boundary>().unwrap(), b, "{b}");
        }
        assert_eq!(
            "dirichlet".parse::<Boundary>().unwrap(),
            Boundary::Dirichlet(0.0)
        );
        for bad in ["", "torus", "dirichlet(", "dirichlet(x)", "dirichlet()"] {
            assert!(
                matches!(bad.parse::<Boundary>(), Err(SpecError::UnknownBoundary(_))),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn refresh1_natural_folds_both_modes() {
        let n = 11;
        let r = 3;
        let mut g = Grid1::from_fn(n, -9.0, |i| (i + 1) as f64);
        unsafe { refresh1(g.ptr_mut(), n, r, Boundary::Periodic, &RowMap::Natural) };
        for k in 1..=r as isize {
            assert_eq!(g.get(-k), g.get(n as isize - k), "periodic left k={k}");
            assert_eq!(
                g.get(n as isize - 1 + k),
                g.get(k - 1),
                "periodic right k={k}"
            );
        }
        unsafe { refresh1(g.ptr_mut(), n, r, Boundary::Reflect, &RowMap::Natural) };
        for k in 1..=r as isize {
            assert_eq!(g.get(-k), g.get(k - 1), "reflect left k={k}");
            assert_eq!(
                g.get(n as isize - 1 + k),
                g.get(n as isize - k),
                "reflect right k={k}"
            );
        }
        // Dirichlet never writes.
        let before = g.clone();
        unsafe {
            refresh1(
                g.ptr_mut(),
                n,
                r,
                Boundary::Dirichlet(5.0),
                &RowMap::Natural,
            )
        };
        assert_eq!(g, before);
    }

    #[test]
    fn refresh1_reads_through_transpose_and_dlt_maps() {
        for isa in Isa::ALL.into_iter().filter(|i| i.is_available()) {
            let l = isa.lanes();
            let n = 2 * l * l + 5; // two full sets + tail
            let mut g = Grid1::from_fn(n, 0.0, |i| (10 + i) as f64);
            tl_grid1(&mut g, isa);
            let map = RowMap::for_method::<f64>(Method::TransLayout, isa, n);
            unsafe { refresh1(g.ptr_mut(), n, 2, Boundary::Periodic, &map) };
            // Halo cells live at raw offsets and must hold the wrapped
            // *logical* interior values.
            assert_eq!(g.get(-1), (10 + n - 1) as f64, "{isa}");
            assert_eq!(g.get(-2), (10 + n - 2) as f64, "{isa}");
            assert_eq!(g.get(n as isize), 10.0, "{isa}");
            assert_eq!(g.get(n as isize + 1), 11.0, "{isa}");
            // Interior untouched: logical reads still match.
            let geo = SetGeo::new(n, l);
            for i in 0..n {
                assert_eq!(
                    unsafe { tl_read(g.ptr(), i as isize, &geo) },
                    (10 + i) as f64
                );
            }

            let src = Grid1::from_fn(n, 0.0, |i| (10 + i) as f64);
            let mut d = src.clone();
            dlt_grid1(&src, &mut d, isa, false);
            let map = RowMap::for_method::<f64>(Method::Dlt, isa, n);
            unsafe { refresh1(d.ptr_mut(), n, 1, Boundary::Reflect, &map) };
            assert_eq!(d.get(-1), 10.0, "{isa}");
            assert_eq!(d.get(n as isize), (10 + n - 1) as f64, "{isa}");
        }
    }

    #[test]
    fn refresh2_corners_compose_per_axis() {
        let (nx, ny, r) = (7, 5, 2);
        let mut g = Grid2::from_fn(nx, ny, r, 0.0, |y, x| (100 * y + x) as f64);
        unsafe {
            refresh2(
                g.ptr_mut(),
                g.row_stride(),
                nx,
                ny,
                r,
                Boundary::Periodic,
                &RowMap::Natural,
            )
        };
        // Edge halos wrap...
        assert_eq!(g.get(0, -1), (nx - 1) as f64);
        assert_eq!(g.get(-1, 0), (100 * (ny - 1)) as f64);
        // ...and corners are the doubly folded interior cell.
        assert_eq!(g.get(-1, -1), (100 * (ny - 1) + nx - 1) as f64);
        assert_eq!(g.get(-2, -2), (100 * (ny - 2) + nx - 2) as f64);
        assert_eq!(g.get(ny as isize, nx as isize), 0.0);

        let mut g = Grid2::from_fn(nx, ny, r, 0.0, |y, x| (100 * y + x) as f64);
        unsafe {
            refresh2(
                g.ptr_mut(),
                g.row_stride(),
                nx,
                ny,
                r,
                Boundary::Reflect,
                &RowMap::Natural,
            )
        };
        assert_eq!(g.get(-1, -1), 0.0);
        assert_eq!(g.get(-2, 3), 103.0);
        assert_eq!(
            g.get(ny as isize + 1, nx as isize),
            (100 * (ny - 2) + nx - 1) as f64
        );
    }

    #[test]
    fn refresh3_fills_planes_edges_and_corners() {
        let (nx, ny, nz, r) = (5, 4, 3, 1);
        let val = |z: usize, y: usize, x: usize| (10_000 * z + 100 * y + x) as f64;
        let mut g = Grid3::from_fn(nx, ny, nz, r, -1.0, val);
        unsafe {
            refresh3(
                g.ptr_mut(),
                g.row_stride(),
                g.plane_stride(),
                nx,
                ny,
                nz,
                r,
                Boundary::Periodic,
                &RowMap::Natural,
            )
        };
        // Face, edge, corner: all per-axis folds.
        assert_eq!(g.get(-1, 2, 3), val(nz - 1, 2, 3));
        assert_eq!(g.get(-1, -1, 3), val(nz - 1, ny - 1, 3));
        assert_eq!(g.get(-1, -1, -1), val(nz - 1, ny - 1, nx - 1));
        assert_eq!(g.get(nz as isize, 0, 0), val(0, 0, 0));
        assert_eq!(g.get(nz as isize, ny as isize, nx as isize), val(0, 0, 0));
    }

    #[test]
    fn ring_geometry_helpers() {
        assert_eq!(ring2_len::<f64>(1, 40), HALO_PAD + 3 * 40);
        assert_eq!(ring2_len::<f32>(1, 40), 16 + 3 * 40);
        assert_eq!(ring3_len(2, 1000), 5 * 1000);
        let mut buf = vec![0.0f64; ring3_len(1, 64)];
        let p = buf.as_mut_ptr();
        assert_eq!(
            unsafe { ring3_origin(p, 1, 16) } as usize - p as usize,
            (16 + HALO_PAD) * 8
        );
        assert_eq!(
            unsafe { ring2_origin(p) } as usize - p as usize,
            HALO_PAD * 8
        );
    }
}
