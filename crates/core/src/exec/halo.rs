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
//!   steps (`refresh`).
//! * **Untiled parallel** plans fuse a band-granular refresh into the
//!   sweep (`refresh_band`): each band of the outermost axis refreshes
//!   exactly the halo cells/rows/planes its own cells read, while hot.
//!   Adjacent bands may both write a shared halo cell, but always with
//!   **bit-identical values** folded from the immutable source interior
//!   — the benign-race contract that makes the refresh barrier-free
//!   (see `exec::par`). The `par::drive` bands are the one place in the
//!   engine where two workers write the same halo cell.
//! * **Temporally tiled** plans (`Tiling::Tessellate` / `Split`, and the
//!   untiled parallel 1D DLT row, which runs as a height-one column
//!   split) advance different cells to different time levels inside one
//!   chunk, so there is no global "the" source buffer to refresh.
//!   Instead the wavefront scheduler (see `exec::wave`) gives each time
//!   chunk one **edge group**: a single node owning every tile whose
//!   radius-extended footprint leaves the interior. The group steps its
//!   members level by level, refreshing the halos of the level about to
//!   be read before each sub-step, while interior tiles never read or
//!   write a halo cell at all (their footprints stay inside the domain).
//!   One node per chunk writes every halo cell, so no halo write races.
//!   That is what lets every boundary compose with temporal tiling and
//!   threads at 0 ULP.
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
//!
//! # Rank
//!
//! Both refreshes are written once over a [`Geo`]: a halo shell is the x
//! folds of every row, then — per further real axis, innermost first —
//! the shell of every slab followed by whole-slab copies. An absent axis
//! has nothing to fold, so the recursion simply starts lower. A plan's
//! own ping-pong scratch is a plain buffer laid out as the caller's
//! grid's `Geo`, filled at session open by the helpers at the bottom.

use stencil_simd::{AlignedBuf, Elem, Isa};

use crate::kernels::Geo;
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
    /// Dimension-lifting transpose (DLT buffers).
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

/// Fold the left and/or right x halos (raw positions `-r..0` and
/// `n..n+r` relative to the interior) of one row from its interior.
///
/// # Safety
/// `row` points at the row's interior origin; positions `[-r, n + r)`
/// must be addressable (`r ≤ T::PAD`, guaranteed by `MAX_R`); the
/// map's geometry must match `n`. Caller guarantees `n ≥ r` for the
/// non-Dirichlet modes (validated at plan build).
#[inline]
unsafe fn fold_row<T: Elem>(
    row: *mut T,
    n: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
    (left, right): (bool, bool),
) {
    debug_assert!(r <= T::PAD);
    if b.is_dirichlet() {
        return;
    }
    for k in 1..=r {
        if left {
            *row.offset(-(k as isize)) = map.read(row, fold_src(n, k, true, b));
        }
        if right {
            *row.add(n - 1 + k) = map.read(row, fold_src(n, k, false, b));
        }
    }
}

/// Refresh both x halos of one row from its interior (no-op under
/// Dirichlet).
///
/// # Safety
/// As [`fold_row`].
pub(crate) unsafe fn refresh_row<T: Elem>(
    row: *mut T,
    n: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
) {
    fold_row(row, n, r, b, map, (true, true));
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

/// The two halo slabs at distance `k` outside an axis of extent `n`:
/// `(slab index, is the low side)`.
#[inline]
fn halo_slabs(n: usize, k: usize) -> [(isize, bool); 2] {
    [(-(k as isize), true), ((n - 1 + k) as isize, false)]
}

/// Refresh the halo shell of a buffer from its interior (no-op under
/// Dirichlet): the x halos of every row, then per further real axis the
/// `r` whole halo slabs on each side, copied raw from their fold-source
/// slab — which carries the freshly folded lower-axis halos into the
/// edges and corners, so corners compose per axis.
///
/// # Safety
/// `ptr` points at the interior origin of a buffer laid out as `geo`
/// says, with at least `r` halo rows/planes per side on every real y/z
/// axis and `T::PAD` row padding; the map's geometry must match
/// `geo.n[0]`; every real extent is `≥ r` for non-Dirichlet modes.
pub(crate) unsafe fn refresh<T: Elem>(ptr: *mut T, geo: &Geo, r: usize, b: Boundary, map: &RowMap) {
    if !b.is_dirichlet() {
        refresh_axes(ptr, geo, geo.ndim, r, b, map);
    }
}

/// [`refresh`] restricted to the leading `axes` axes of the slab at `ptr`.
unsafe fn refresh_axes<T: Elem>(
    ptr: *mut T,
    geo: &Geo,
    axes: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
) {
    if axes == 1 {
        return refresh_row(ptr, geo.n[0], r, b, map);
    }
    let a = axes - 1;
    let (n, stride) = (geo.n[a], geo.stride(a) as isize);
    for i in 0..n {
        refresh_axes(ptr.add(i * stride as usize), geo, a, r, b, map);
    }
    // One contiguous raw copy per halo slab: a row from its leading pad,
    // or a plane's rows `[-r, ny + r)`.
    let (lead, len) = match a {
        1 => (T::PAD, geo.rs),
        _ => (r * geo.rs + T::PAD, (geo.n[1] + 2 * r) * geo.rs),
    };
    for k in 1..=r {
        for (dst, lo) in halo_slabs(n, k) {
            let src = fold_src(n, k, lo, b) as isize;
            std::ptr::copy_nonoverlapping(
                ptr.offset(src * stride - lead as isize),
                ptr.offset(dst * stride - lead as isize),
                len,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Per-band refresh — the fused fast path for the band-parallel driver
// ---------------------------------------------------------------------------
//
// The whole-grid `refresh` above is what a sequential plan and every
// edge group run between steps. The band-parallel driver (`par::drive`,
// the only caller of `refresh_band`) instead folds the refresh into each
// band's work item: a band refreshes exactly the halo cells its own
// compute reads, immediately before computing, while those cache lines
// are hot — no serial pre-pass and no extra barrier.
//
// Bands overlap by the stencil radius, so adjacent bands may write the
// same halo cell; these are the only concurrent halo writes in the
// engine. Every such write computes the value from the *source* buffer's
// interior, which is immutable for the whole step, so all writers store
// bit-identical values; the overlap is a benign race on identical values
// (aligned element-sized stores). A halo slab is built
// by copying the raw fold-source slab first (whose own lower-axis halos
// may be mid-refresh by its owning band) and then recomputing the copy's
// shell locally from the copied interior, so every cell a kernel can
// read is deterministic.

/// Per-band [`refresh`]: refresh only what the band `[lo, hi)` of the
/// outermost real axis reads. In 1D that is the left x halo when
/// `lo < r` and the right when `hi + r > n`; otherwise the shells of the
/// slabs `[lo - r, hi + r) ∩ [0, n)` plus the whole halo slabs the band
/// touches (below when `lo < r`, above when `hi + r > n`).
///
/// # Safety
/// Same contract as [`refresh`]; `lo ≤ hi ≤ n`.
pub(crate) unsafe fn refresh_band<T: Elem>(
    ptr: *mut T,
    geo: &Geo,
    r: usize,
    b: Boundary,
    map: &RowMap,
    (lo, hi): (usize, usize),
) {
    if b.is_dirichlet() {
        return;
    }
    let a = geo.ndim - 1;
    let (n, stride) = (geo.n[a], geo.stride(a) as isize);
    let touches = (lo < r, hi + r > n);
    if a == 0 {
        return fold_row(ptr, n, r, b, map, touches);
    }
    for i in lo.saturating_sub(r)..(hi + r).min(n) {
        refresh_axes(ptr.add(i * stride as usize), geo, a, r, b, map);
    }
    // The fold source's interior from its leading pad: one raw row, or a
    // plane's rows `[0, ny)`.
    let len = match a {
        1 => geo.rs,
        _ => geo.n[1] * geo.rs + T::PAD,
    };
    for k in 1..=r {
        for (dst, low) in halo_slabs(n, k) {
            if !(if low { touches.0 } else { touches.1 }) {
                continue;
            }
            let src = fold_src(n, k, low, b) as isize;
            std::ptr::copy_nonoverlapping(
                ptr.offset(src * stride - T::PAD as isize),
                ptr.offset(dst * stride - T::PAD as isize),
                len,
            );
            refresh_axes(ptr.offset(dst * stride), geo, a, r, b, map);
        }
    }
}

// ---------------------------------------------------------------------------
// A plan's own buffers
// ---------------------------------------------------------------------------

/// Fill the plan's ping-pong scratch slot from `g`, allocating on first
/// use (or when `g` is laid out differently) and refreshing every cell
/// (halos included) after that.
pub(crate) fn ensure_scratch<T: Elem>(slot: &mut Option<AlignedBuf<T>>, g: &AlignedBuf<T>) {
    match slot {
        Some(sc) if sc.len() == g.len() => sc.copy_from(g),
        _ => *slot = Some(g.clone()),
    }
}

/// The k = 2 ring buffer of a 2D/3D fused pass over `geo`, as `(length,
/// interior origin)` in elements: `2r + 1` rows behind one left halo
/// pad, or `2r + 1` planes entered `r` halo rows plus the pad in.
#[inline]
pub(crate) fn ring_layout<T: Elem>(geo: &Geo, r: usize) -> (usize, usize) {
    match geo.ndim {
        2 => (T::PAD + (2 * r + 1) * geo.rs, T::PAD),
        _ => ((2 * r + 1) * geo.ps, r * geo.rs + T::PAD),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid1, Grid2, Grid3, HALO_PAD};
    use crate::layout::{dlt_grid, tl_grid, tl_read};

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
        unsafe {
            refresh(
                g.ptr_mut(),
                &g.geo(),
                r,
                Boundary::Periodic,
                &RowMap::Natural,
            )
        };
        for k in 1..=r as isize {
            assert_eq!(g.get(-k), g.get(n as isize - k), "periodic left k={k}");
            assert_eq!(
                g.get(n as isize - 1 + k),
                g.get(k - 1),
                "periodic right k={k}"
            );
        }
        unsafe {
            refresh(
                g.ptr_mut(),
                &g.geo(),
                r,
                Boundary::Reflect,
                &RowMap::Natural,
            )
        };
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
        let geo = g.geo();
        unsafe {
            refresh(
                g.ptr_mut(),
                &geo,
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
            tl_grid(&mut g, isa);
            let map = RowMap::for_method::<f64>(Method::TransLayout, isa, n);
            unsafe { refresh(g.ptr_mut(), &g.geo(), 2, Boundary::Periodic, &map) };
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
            dlt_grid(&src, &mut d, isa, false);
            let map = RowMap::for_method::<f64>(Method::Dlt, isa, n);
            unsafe { refresh(d.ptr_mut(), &d.geo(), 1, Boundary::Reflect, &map) };
            assert_eq!(d.get(-1), 10.0, "{isa}");
            assert_eq!(d.get(n as isize), (10 + n - 1) as f64, "{isa}");
        }
    }

    #[test]
    fn refresh2_corners_compose_per_axis() {
        let (nx, ny, r) = (7, 5, 2);
        let mut g = Grid2::from_fn(nx, ny, r, 0.0, |y, x| (100 * y + x) as f64);
        unsafe {
            refresh(
                g.ptr_mut(),
                &g.geo(),
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
            refresh(
                g.ptr_mut(),
                &g.geo(),
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
            refresh(
                g.ptr_mut(),
                &g.geo(),
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
        let g2 = Geo {
            ndim: 2,
            n: [24, 3, 1],
            rs: 40,
            ps: 0,
            halo: 1,
        };
        assert_eq!(ring_layout::<f64>(&g2, 1), (HALO_PAD + 3 * 40, HALO_PAD));
        assert_eq!(ring_layout::<f32>(&g2, 1), (16 + 3 * 40, 16));
        let g3 = Geo {
            ndim: 3,
            n: [8, 2, 2],
            rs: 16,
            ps: 1000,
            halo: 2,
        };
        assert_eq!(ring_layout::<f64>(&g3, 2).0, 5 * 1000);
        assert_eq!(ring_layout::<f64>(&g3, 1).1, 16 + HALO_PAD);
    }
}
