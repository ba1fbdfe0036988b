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
//! The refresh is O(surface) against the kernels' O(volume). Every halo
//! cell is a bit-copy of one interior *fold-source* cell, and one rule
//! decides who writes it: **a halo cell is written by the owner of its
//! source**, after the source holds the level the next step reads.
//!
//! * **Untiled sequential** plans own everything: they refresh the whole
//!   surface before each fused pass, which folds the halos of its own
//!   time levels as it makes them (see `kernels::tl2`), and step k = 1
//!   as the one band of an untiled parallel plan (below).
//! * **Untiled parallel** plans own one band of the outermost axis per
//!   work item: a band steps its slabs, then refreshes, in the step's
//!   *destination* buffer, the halo cells whose sources it just computed
//!   (`refresh_own`). No band reads that buffer until the next step, and
//!   the pool's end-of-step barrier orders the writes before those reads
//!   (see `exec::par`). A band of a fused pass refreshes the same way
//!   after its in-place sweep: during the sweep no band reads a halo
//!   slab or another band's rows, only the seam strips ([`BandPass`]),
//!   which the seam tasks filled from the main buffer before the
//!   sweep's dispatch.
//! * **Temporally tiled** plans (`Tiling::Tessellate` / `Split`, and the
//!   untiled parallel 1D DLT row, which runs as a height-one column
//!   split) advance different cells to different time levels inside one
//!   chunk, so there is no global "the" source buffer to refresh.
//!   Instead the wavefront scheduler (see `exec::wave`) gives each time
//!   chunk one **edge group**: a single node owning every tile whose
//!   radius-extended footprint leaves the interior, and so every fold
//!   source. The group steps its members level by level, refreshing the
//!   halos of the level about to be read before each sub-step, while
//!   interior tiles never read or write a halo cell at all (their
//!   footprints stay inside the domain). That is what lets every
//!   boundary compose with temporal tiling and threads at 0 ULP.
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
//! The refresh is written once over a [`Geo`]: a halo shell is the x
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

/// Refresh both x halos of one row from its interior (no-op under
/// Dirichlet): the 1D whole-row call of [`refresh_own`].
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
    let geo = Geo {
        ndim: 1,
        n: [n, 1, 1],
        rs: 0,
        ps: 0,
        halo: 0,
    };
    refresh(row, &geo, r, b, map);
}

/// The source row index (in `[0, n)`) that halo row/plane `-k` (for
/// `lo = true`) or `n-1+k` copies from. The fused passes
/// (`kernels::tl2`) resolve their halo reads at `t + j` through it too:
/// a ring level's out-of-range rows/planes into the edge strips, and 1D's
/// `t+1` halo cells into the edge cells they fold.
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

/// Refresh the whole halo shell of a buffer from its interior (no-op
/// under Dirichlet): [`refresh_own`] over every slab of the outermost
/// real axis.
///
/// # Safety
/// As [`refresh_own`].
pub(crate) unsafe fn refresh<T: Elem>(ptr: *mut T, geo: &Geo, r: usize, b: Boundary, map: &RowMap) {
    refresh_own(ptr, geo, r, b, map, (0, geo.n[geo.ndim - 1]));
}

/// Refresh the halo cells whose fold sources lie in the slabs
/// `own = (lo, hi)` of the outermost real axis (no-op under Dirichlet):
/// the shells of those slabs — the x halos of every row, then per
/// further real axis, innermost first, the halo slabs of each slab —
/// and then each outer halo slab whose fold source is owned, copied
/// whole with its freshly refreshed shell, so corners compose per axis.
/// In 1D the slabs are cells and an owned halo slab is one x fold.
///
/// Every halo cell is a bit-copy of exactly one interior cell, so the
/// calls over a partition of `[0, n)` write disjoint cells whose union
/// is what [`refresh`] writes.
///
/// # Safety
/// `ptr` points at the interior origin of a buffer laid out as `geo`
/// says, with at least `r` halo rows/planes per side on every real y/z
/// axis and `T::PAD` row padding; the map's geometry must match
/// `geo.n[0]`; every real extent is `≥ r` for non-Dirichlet modes;
/// `lo ≤ hi ≤ n`.
pub(crate) unsafe fn refresh_own<T: Elem>(
    ptr: *mut T,
    geo: &Geo,
    r: usize,
    b: Boundary,
    map: &RowMap,
    own: (usize, usize),
) {
    if !b.is_dirichlet() {
        refresh_axes(ptr, geo, geo.ndim, r, b, map, own);
    }
}

/// [`refresh_own`] restricted to the leading `axes` axes of the slab at
/// `ptr`, owning the slabs `[lo, hi)` of axis `axes - 1`.
unsafe fn refresh_axes<T: Elem>(
    ptr: *mut T,
    geo: &Geo,
    axes: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
    (lo, hi): (usize, usize),
) {
    let a = axes - 1;
    if a > 0 {
        for i in lo..hi {
            let slab = ptr.add(i * geo.stride(a));
            refresh_axes(slab, geo, a, r, b, map, (0, geo.n[a - 1]));
        }
    }
    copy_halo_slabs(ptr, geo, a, r, b, map, (lo, hi));
}

/// The halo slabs of the outermost real axis whose fold sources lie in
/// the slabs `own = (lo, hi)` (no-op under Dirichlet), copied whole with
/// the shells those sources already carry: [`refresh_own`] for a buffer
/// whose owned slabs' shells are fresh — as a fused pass leaves them,
/// folding each slab's shell as it writes the slab (see `exec::par`).
/// In 1D that is the whole refresh.
///
/// # Safety
/// As [`refresh_own`].
pub(crate) unsafe fn refresh_outer<T: Elem>(
    ptr: *mut T,
    geo: &Geo,
    r: usize,
    b: Boundary,
    map: &RowMap,
    own: (usize, usize),
) {
    if !b.is_dirichlet() {
        copy_halo_slabs(ptr, geo, geo.ndim - 1, r, b, map, own);
    }
}

/// One copy per halo slab of axis `a` whose fold source lies in
/// `[lo, hi)`: a cell read through the row map, a raw row from its
/// leading pad, or a plane's raw rows `[-r, ny + r)`.
unsafe fn copy_halo_slabs<T: Elem>(
    ptr: *mut T,
    geo: &Geo,
    a: usize,
    r: usize,
    b: Boundary,
    map: &RowMap,
    (lo, hi): (usize, usize),
) {
    let (n, stride) = (geo.n[a], geo.stride(a));
    let (lead, len) = match a {
        0 => (0, 1),
        1 => (T::PAD, geo.rs),
        _ => (r * geo.rs + T::PAD, (geo.n[1] + 2 * r) * geo.rs),
    };
    for k in 1..=r {
        for (dst, low) in [(-(k as isize), true), ((n - 1 + k) as isize, false)] {
            let src = fold_src(n, k, low, b);
            if !(lo..hi).contains(&src) {
                continue;
            }
            let at = |slab: isize| ptr.offset(slab * stride as isize - lead as isize);
            if a == 0 {
                *at(dst) = map.read(ptr, src);
            } else {
                std::ptr::copy_nonoverlapping(at(src as isize), at(dst), len);
            }
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

/// One seam's strip at one level of a fused pass: the slabs
/// `[lo, lo + len)` of the outer axis, wrapping past `n`, stored from
/// slab `off` of the strip buffer on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Window {
    pub(crate) lo: usize,
    pub(crate) len: usize,
    pub(crate) off: usize,
}

impl Window {
    /// The strip-buffer slab that holds slab `i` (`< n`) of the window.
    #[inline(always)]
    pub(crate) fn slot(&self, i: usize, n: usize) -> usize {
        let s = if i >= self.lo {
            i - self.lo
        } else {
            i + n - self.lo
        };
        debug_assert!(s < self.len, "slab {i} outside {self:?}");
        self.off + s
    }
}

/// The geometry of a fused pass of depth `k` over the `n` slabs of the
/// outer axis, cut into `bands` (see `kernels::tl2`): one ring of `k - 1`
/// levels of `2r + 1` slabs per band, and per **seam** a strip at every
/// level `j < k`. Seam `s ≥ 1` is the low edge of band `s`; seam 0 is the
/// wrap, which only a refreshed boundary has. At level 0 a seam's strip
/// is a copy of the `r` slabs on each side of it; at level `j ≥ 1` it
/// holds the `(k - j)·r` on each side at `t + j`. A window wider than the
/// axis is clamped to it, which only the wrap of a lone band can be
/// (`exec::fused_depth` caps `k` so that no other window reaches past
/// its bands).
#[derive(Clone, Debug)]
pub struct BandPass {
    pub(crate) n: usize,
    pub(crate) r: usize,
    pub(crate) k: usize,
    pub(crate) bands: Vec<(usize, usize)>,
    /// `windows[s * k + j]`: seam `s`'s strip at level `j`.
    windows: Vec<Window>,
    /// Slabs in every strip together.
    strip_slabs: usize,
}

/// One work item of a [`BandPass`]: fill seam `s`'s strips, or sweep
/// band `b` through its ring.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PassTask {
    /// Fill the strips of seam `s` (see [`BandPass`]).
    Seam(usize),
    /// Advance band `b` in place.
    Band(usize),
}

impl BandPass {
    pub(crate) fn new(
        n: usize,
        r: usize,
        k: usize,
        b: Boundary,
        bands: Vec<(usize, usize)>,
    ) -> Self {
        let mut windows = Vec::with_capacity(bands.len() * k);
        let mut off = 0;
        for (s, &(c, _)) in bands.iter().enumerate() {
            for j in 0..k {
                let reach = if j == 0 { r } else { (k - j) * r };
                let len = match s {
                    0 if b.is_dirichlet() => 0,
                    0 => (2 * reach).min(n),
                    _ => {
                        debug_assert!(reach <= c && c + reach <= n, "seam {c} reach {reach}");
                        2 * reach
                    }
                };
                let lo = if len == n || len == 0 {
                    0
                } else {
                    (c + n - reach) % n
                };
                windows.push(Window { lo, len, off });
                off += len;
            }
        }
        BandPass {
            n,
            r,
            k,
            bands,
            windows,
            strip_slabs: off,
        }
    }

    /// Seam `s`'s strip at level `j`.
    #[inline(always)]
    pub(crate) fn window(&self, s: usize, j: usize) -> &Window {
        &self.windows[s * self.k + j]
    }

    /// Slabs in one band's ring.
    pub(crate) fn ring_slabs(&self) -> usize {
        (self.k - 1) * (2 * self.r + 1)
    }

    /// The buffer of this pass over `geo`, as `(length, ring origin,
    /// strips origin)` in elements: the bands' rings one after another,
    /// then the strips, every slab a row behind one left halo pad, or a
    /// plane entered `r` halo rows plus the pad in. Band `b`'s ring starts
    /// `b · ring_slabs()` slabs after the ring origin. The length grows
    /// with `k`, so a buffer sized for `k` serves every shallower pass
    /// over the same bands.
    pub(crate) fn layout<T: Elem>(&self, geo: &Geo) -> (usize, usize, usize) {
        let stride = geo.stride(geo.ndim - 1);
        let rings = self.bands.len() * self.ring_slabs();
        let (lead, origin) = match geo.ndim {
            2 => (T::PAD, T::PAD),
            _ => (0, self.r * geo.rs + T::PAD),
        };
        (
            lead + (rings + self.strip_slabs) * stride,
            origin,
            origin + rings * stride,
        )
    }
}

/// Deepest fused pass a 2D/3D plan runs.
pub(crate) const MAX_DEPTH: usize = 8;

/// The fused pass depth for ring slabs (rows in 2D, planes in 3D) of
/// `slab_bytes` and radius `r` under an L2 of `l2` bytes: the largest
/// `k ≤ MAX_DEPTH` whose `k - 1` ring levels of `2r + 1` slabs fill at
/// most half the L2, and never less than 2 (the ring of the k = 2 pass
/// is paid even when it spills).
pub(crate) fn depth(l2: usize, slab_bytes: usize, r: usize) -> usize {
    let level = ((2 * r + 1) * slab_bytes).max(1);
    (l2 / 2 / level + 1).clamp(2, MAX_DEPTH)
}

/// The L2 size of CPU 0 in bytes, read once from sysfs (see
/// [`l2_from`]).
pub(crate) fn l2_bytes() -> usize {
    static L2: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *L2.get_or_init(|| l2_from(std::path::Path::new("/sys/devices/system/cpu/cpu0/cache")))
}

/// The level-2 cache size listed under a sysfs `cache` directory
/// (`index*/level`, `index*/size` such as `2048K`); 1 MiB when none
/// parses.
fn l2_from(dir: &std::path::Path) -> usize {
    let read = |i: usize, f: &str| std::fs::read_to_string(dir.join(format!("index{i}/{f}")));
    (0..16)
        .map_while(|i| read(i, "level").ok().map(|level| (i, level)))
        .find(|(_, level)| level.trim() == "2")
        .and_then(|(i, _)| {
            let size = read(i, "size").ok()?;
            let size = size.trim();
            let (digits, unit) = match size.char_indices().last()? {
                (at, 'K') => (&size[..at], 1 << 10),
                (at, 'M') => (&size[..at], 1 << 20),
                (at, 'G') => (&size[..at], 1 << 30),
                _ => (size, 1),
            };
            digits.parse::<usize>().ok().map(|n| n * unit)
        })
        .unwrap_or(1 << 20)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::grid::{Grid, Grid1, Grid2, Grid3, HALO_PAD};
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

    /// `g` after [`refresh_own`] of the outermost slabs `own`, or after
    /// the whole-grid [`refresh`] when `own` is `None`.
    fn refreshed<const D: usize>(
        mut g: Grid<f64, D>,
        r: usize,
        b: Boundary,
        map: &RowMap,
        own: Option<(usize, usize)>,
    ) -> Grid<f64, D> {
        let (geo, ptr) = (g.geo(), g.ptr_mut());
        // SAFETY: `g` carries `r` halo rows/planes (or the row pad) and
        // its extents are ≥ r.
        unsafe {
            match own {
                None => refresh(ptr, &geo, r, b, map),
                Some(own) => refresh_own(ptr, &geo, r, b, map, own),
            }
        }
        g
    }

    #[test]
    fn refresh1_natural_folds_both_modes() {
        let (n, r, nat) = (11, 3, &RowMap::Natural);
        let g = Grid1::from_fn(n, -9.0, |i| (i + 1) as f64);
        let g = refreshed(g, r, Boundary::Periodic, nat, None);
        for k in 1..=r as isize {
            assert_eq!(g.get(-k), g.get(n as isize - k), "periodic left k={k}");
            assert_eq!(
                g.get(n as isize - 1 + k),
                g.get(k - 1),
                "periodic right k={k}"
            );
        }
        let g = refreshed(g, r, Boundary::Reflect, nat, None);
        for k in 1..=r as isize {
            assert_eq!(g.get(-k), g.get(k - 1), "reflect left k={k}");
            assert_eq!(
                g.get(n as isize - 1 + k),
                g.get(n as isize - k),
                "reflect right k={k}"
            );
        }
        // Dirichlet never writes.
        assert_eq!(
            refreshed(g.clone(), r, Boundary::Dirichlet(5.0), nat, None),
            g
        );
    }

    #[test]
    fn refresh1_reads_through_transpose_and_dlt_maps() {
        for isa in Isa::ALL.into_iter().filter(|i| i.is_available()) {
            let l = isa.lanes();
            let n = 2 * l * l + 5; // two full sets + tail
            let mut g = Grid1::from_fn(n, 0.0, |i| (10 + i) as f64);
            tl_grid(&mut g, isa);
            let map = RowMap::for_method::<f64>(Method::TransLayout, isa, n);
            let g = refreshed(g, 2, Boundary::Periodic, &map, None);
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
            let d = refreshed(d, 1, Boundary::Reflect, &map, None);
            assert_eq!(d.get(-1), 10.0, "{isa}");
            assert_eq!(d.get(n as isize), (10 + n - 1) as f64, "{isa}");
        }
    }

    #[test]
    fn refresh2_corners_compose_per_axis() {
        let (nx, ny, r) = (7, 5, 2);
        let g = Grid2::from_fn(nx, ny, r, 0.0, |y, x| (100 * y + x) as f64);
        let g = refreshed(g, r, Boundary::Periodic, &RowMap::Natural, None);
        // Edge halos wrap...
        assert_eq!(g.get(0, -1), (nx - 1) as f64);
        assert_eq!(g.get(-1, 0), (100 * (ny - 1)) as f64);
        // ...and corners are the doubly folded interior cell.
        assert_eq!(g.get(-1, -1), (100 * (ny - 1) + nx - 1) as f64);
        assert_eq!(g.get(-2, -2), (100 * (ny - 2) + nx - 2) as f64);
        assert_eq!(g.get(ny as isize, nx as isize), 0.0);

        let g = Grid2::from_fn(nx, ny, r, 0.0, |y, x| (100 * y + x) as f64);
        let g = refreshed(g, r, Boundary::Reflect, &RowMap::Natural, None);
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
        let g = Grid3::from_fn(nx, ny, nz, r, -1.0, val);
        let g = refreshed(g, r, Boundary::Periodic, &RowMap::Natural, None);
        // Face, edge, corner: all per-axis folds.
        assert_eq!(g.get(-1, 2, 3), val(nz - 1, 2, 3));
        assert_eq!(g.get(-1, -1, 3), val(nz - 1, ny - 1, 3));
        assert_eq!(g.get(-1, -1, -1), val(nz - 1, ny - 1, nx - 1));
        assert_eq!(g.get(nz as isize, 0, 0), val(0, 0, 0));
        assert_eq!(g.get(nz as isize, ny as isize, nx as isize), val(0, 0, 0));
    }

    /// The cells (buffer indices, halos included) whose bits differ.
    fn changed<const D: usize>(a: &Grid<f64, D>, b: &Grid<f64, D>) -> BTreeSet<usize> {
        let bits = |g: &Grid<f64, D>| g.buf().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (a, b) = (bits(a), bits(b));
        (0..a.len()).filter(|&i| a[i] != b[i]).collect()
    }

    /// Each band's `refresh_own` of `base` (a sentinel halo) writes its
    /// own cells: pairwise disjoint, their union is what `refresh`
    /// writes, and applied in sequence they are bit-equal to it.
    fn check_ownership<const D: usize>(base: Grid<f64, D>, r: usize) {
        let geo = base.geo();
        let n = geo.n[geo.ndim - 1];
        let maps = [RowMap::Natural, RowMap::Transpose(SetGeo::new(geo.n[0], 4))];
        for b in [Boundary::Periodic, Boundary::Reflect] {
            for map in &maps {
                let whole = refreshed(base.clone(), r, b, map, None);
                let all = changed(&base, &whole);
                assert!(!all.is_empty(), "{b} D={D}: nothing refreshed");
                for k in [1, 2, 3, n] {
                    let (mut seq, mut union) = (base.clone(), BTreeSet::new());
                    for band in super::super::par::bands(n, k) {
                        let cells = changed(&base, &refreshed(base.clone(), r, b, map, Some(band)));
                        assert!(
                            union.is_disjoint(&cells),
                            "{b} {map:?} D={D} k={k} {band:?}"
                        );
                        union.extend(cells);
                        seq = refreshed(seq, r, b, map, Some(band));
                    }
                    assert_eq!(union, all, "{b} {map:?} D={D} k={k}");
                    assert!(changed(&seq, &whole).is_empty(), "{b} {map:?} D={D} k={k}");
                }
            }
        }
    }

    #[test]
    fn every_halo_cell_has_one_owning_band() {
        let (nx, r, sentinel) = (37, 2, -0.5);
        check_ownership(Grid1::from_fn(nx, sentinel, |x| (1 + x) as f64), r);
        check_ownership(
            Grid2::from_fn(nx, 9, r, sentinel, |y, x| (1 + 100 * y + x) as f64),
            r,
        );
        check_ownership(
            Grid3::from_fn(nx, 6, 5, r, sentinel, |z, y, x| {
                (1 + 10_000 * z + 100 * y + x) as f64
            }),
            r,
        );
    }

    #[test]
    fn ring_geometry_helpers() {
        let d = Boundary::default();
        let g2 = Geo {
            ndim: 2,
            n: [24, 3, 1],
            rs: 40,
            ps: 0,
            halo: 1,
        };
        let p = HALO_PAD;
        let one = |n, r, k, b| BandPass::new(n, r, k, b, vec![(0, n)]);
        // A lone band's wrap strips: 2·(k-j)·r slabs per level j ≥ 1 and
        // 2r at level 0, clamped to the 3 rows there are (2 + 3 + 3 + 2
        // at k = 4).
        let b = Boundary::Periodic;
        for (k, b, want) in [
            (2, d, (p + 3 * 40, p, p + 3 * 40)),
            (4, d, (p + 9 * 40, p, p + 9 * 40)),
            (2, b, (p + 7 * 40, p, p + 3 * 40)),
            (4, b, (p + 19 * 40, p, p + 9 * 40)),
        ] {
            assert_eq!(one(3, 1, k, b).layout::<f64>(&g2), want, "{b} k={k}");
        }
        assert_eq!(one(3, 1, 2, d).layout::<f32>(&g2).0, 16 + 3 * 40);
        let lens: Vec<_> = (0..4).map(|j| one(3, 1, 4, b).window(0, j).len).collect();
        assert_eq!(lens, [2, 3, 3, 2]);
        // Two bands: a ring each, and the wrap and the seam at 6 with a
        // strip of 2, 4, 2 slabs at levels 0, 1, 2 (k = 3); the wrap's
        // level-1 window runs 10, 11, 0, 1.
        let two = |b| BandPass::new(12, 1, 3, b, vec![(0, 6), (6, 12)]);
        let g12 = Geo {
            n: [24, 12, 1],
            ..g2
        };
        assert_eq!(two(b).layout::<f64>(&g12), (p + 28 * 40, p, p + 12 * 40));
        assert_eq!(two(d).layout::<f64>(&g12).0, p + 20 * 40);
        let (wrap, seam) = (two(b).windows[1], two(b).windows[4]);
        assert_eq!(
            wrap,
            Window {
                lo: 10,
                len: 4,
                off: 2
            }
        );
        assert_eq!(
            seam,
            Window {
                lo: 4,
                len: 4,
                off: 10
            }
        );
        assert_eq!((wrap.slot(11, 12), wrap.slot(0, 12)), (3, 4));
        assert_eq!(seam.slot(7, 12), 13);
        let g3 = Geo {
            ndim: 3,
            n: [8, 2, 2],
            rs: 16,
            ps: 1000,
            halo: 2,
        };
        assert_eq!(one(2, 2, 2, d).layout::<f64>(&g3).0, 5 * 1000);
        assert_eq!(one(2, 2, 3, d).layout::<f64>(&g3).0, 10 * 1000);
        assert_eq!(one(2, 1, 5, d).layout::<f64>(&g3).1, 16 + HALO_PAD);
        assert_eq!(
            one(2, 2, 2, Boundary::Reflect).layout::<f64>(&g3),
            (9 * 1000, 32 + p, 32 + p + 5000)
        );
    }

    /// The depth rule: `k - 1` ring levels of `2r + 1` slabs in half the
    /// L2, between 2 and [`MAX_DEPTH`].
    #[test]
    fn depth_fills_half_the_l2() {
        let mib = 1 << 20;
        let row = Geo::packed::<f64>(2, [8192, 4096, 1], 1).rs * 8;
        assert_eq!(depth(2 * mib, row, 1), 6);
        // A 512×512 f64 3d7p plane spills the L2.
        let plane = Geo::packed::<f64>(3, [512, 512, 128], 1).ps * 8;
        assert_eq!(depth(2 * mib, plane, 1), 2);
        // A tiny slab is capped; a radius widens every level.
        assert_eq!(depth(2 * mib, 64, 1), MAX_DEPTH);
        assert_eq!(depth(mib, row, 1), 3);
        assert_eq!(depth(mib, row, 2), 2);
        assert_eq!(depth(0, 0, 0), 2);
    }

    /// The sysfs probe: a level-2 entry is found and its size parsed
    /// whatever its index and unit; without a readable one the probe
    /// falls back to 1 MiB.
    #[test]
    fn l2_probe_reads_sysfs_and_falls_back() {
        let dir = std::env::temp_dir().join(format!("stencil-l2-probe-{}", std::process::id()));
        let entry = |i: usize, level: &str, size: &str| {
            let d = dir.join(format!("index{i}"));
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("level"), level).unwrap();
            std::fs::write(d.join("size"), size).unwrap();
        };
        entry(0, "1\n", "48K\n");
        entry(1, "1\n", "32K\n");
        assert_eq!(l2_from(&dir), 1 << 20);
        entry(2, "2\n", "2048K\n");
        entry(3, "3\n", "105M\n");
        assert_eq!(l2_from(&dir), 2 << 20);
        entry(2, "2\n", "512K\n");
        assert_eq!(l2_from(&dir), 512 << 10);
        entry(2, "2\n", "bogus\n");
        assert_eq!(l2_from(&dir), 1 << 20);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(l2_from(&dir), 1 << 20);
        assert!(l2_bytes() > 0);
    }
}
