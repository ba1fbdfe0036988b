//! The tessellate tiling driver (Yuan et al., SC'17 — the framework the
//! paper integrates with in §3.4), scheduled by the wavefront dependency
//! graph in [`super::wave`].
//!
//! A tessellation is a *product of per-axis 1D tilings*, so the driver
//! is written once over `[DimTiling; 3]`: an absent axis carries the
//! degenerate tiling (extent 1, radius 0 — one triangle that never
//! shrinks, no inverted tile, a reach of exactly `(0, 1)`), and drops out
//! of every product, footprint and "exits the domain" test by itself.
//!
//! Each time chunk of height `h` holds `d+1` stages of product tiles:
//! stage `m` is the tiles with exactly `m` inverted dimensions. Tiles
//! within a stage write disjoint cells and read only cells finalized by
//! earlier stages (or their own earlier steps), so the drivers emit one
//! wavefront node per tile (stage = inverted-dimension count) and let the
//! scheduler run any two nodes concurrently unless their radius-extended
//! footprints overlap across a stage or chunk boundary — a fast thread
//! flows into the next stage or time chunk instead of waiting at a
//! barrier. With one thread the node order itself is the sequential
//! tiled schedule.
//!
//! Non-Dirichlet [`Boundary`] conditions compose with the tiling through
//! one **edge group** node per chunk: every tile whose radius-extended
//! footprint leaves the domain (and therefore reads halo cells, or writes
//! the interior cells halo folds copy from) is fused, in stage order,
//! into a single sequential node that interleaves a whole-grid halo
//! refresh with each chunk step. Members advance in lockstep, so the
//! refresh at chunk step `ss` reads fold sources exactly at time level
//! `tau + ss`; interior tiles never touch halo cells and need no
//! refresh. Under `TransLayout2` the 1D group members step singly (the
//! fused step-pair kernel cannot interleave the per-step refresh);
//! interior tiles keep the fused pairs. That fused pair (`pair1`) is the
//! one rank-specific path here: it pipelines vector *sets* of a single
//! row, an index space a 2D/3D tile step does not have. A tile that
//! spans a whole axis always reaches past the domain along it, so under
//! a refreshed boundary such a tiling is one edge group per chunk.
//!
//! Split tiling of a plane or volume (SDSL's hybrid scheme: split tiling
//! of the outermost axis, full DLT rows inside) runs here too, with no
//! staging arena: it is the tessellation whose every axis but the
//! outermost is one spanning, never-shrinking triangle, so the product
//! tiles are exactly the outer-axis triangles and inverted trapezoids,
//! and each step box covers whole rows, as [`Method::Dlt`] requires.
//!
//! Intra-tile vectorization is pluggable ([`Method`]): the paper's
//! *Tessellation* baseline uses `MultiLoad` ("auto-vectorization"), *Our*
//! uses `TransLayout`, and *Our (2 steps)* uses `TransLayout2`, whose 1D
//! tiles fuse step pairs with the register pipeline the whole-row pass
//! runs too ([`crate::kernels::tl2::star1_tl2_sets`], through
//! `Kernel::pass2_range`, its margins read from the two parities) plus
//! k = 1 margins for the shrinking/expanding boundary cells — the
//! Fig. 5d treatment.
//!
//! The driver is **parameterized by the plan**: it steps pre-prepared
//! ping-pong buffers (already in the method's layout, scratch already
//! allocated) on a caller-owned thread pool. Layout round-trips, scratch
//! allocation, and final parity swaps live in [`super`]'s `Plan`/`Session`
//! engine, so none of them recur in a steady-state hot loop.

use std::time::Instant;

use stencil_simd::{Elem, Isa};

use super::halo::{self, Boundary, RowMap};
use super::stage::{self, PhaseCounters, TileArena};
use super::tile::DimTiling;
use super::wave::{FootBox, Wave};
use super::Method;
use crate::kernels::{Geo, Kernel, NdBox};
use crate::layout::SetGeo;

/// Raw pointer that may cross threads; tile disjointness (see module docs)
/// makes the concurrent accesses race-free.
pub(crate) struct SyncPtr<T = f64>(pub *mut T);
impl<T> Copy for SyncPtr<T> {}
impl<T> Clone for SyncPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

/// Build a worker pool for tiled execution (used by `Plan` construction).
pub(crate) fn make_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("rayon pool")
}

/// One per-dimension shape instance.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Shape {
    Tri(usize),
    Inv(usize),
}

impl Shape {
    #[inline]
    pub(crate) fn range(self, d: &DimTiling, s: usize) -> (usize, usize) {
        match self {
            Shape::Tri(k) => d.tri(k, s),
            Shape::Inv(b) => d.inv(b, s),
        }
    }

    pub(crate) fn all(d: &DimTiling, inverted: bool) -> Vec<Shape> {
        if inverted {
            (0..d.ninv()).map(Shape::Inv).collect()
        } else {
            (0..d.ntri()).map(Shape::Tri).collect()
        }
    }
}

/// Radius-extended reach of `shape` over a chunk of `hh` steps: the union
/// of its per-step ranges widened by `r` on each side — everything the
/// tile may read or write, as a signed closed-open interval (negative /
/// past-`n` values mean halo contact).
pub(crate) fn reach1(d: &DimTiling, shape: Shape, hh: usize, r: usize) -> (i64, i64) {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for ss in 0..hh {
        let (a, b) = shape.range(d, ss);
        if a < b {
            lo = lo.min(a as i64);
            hi = hi.max(b as i64);
        }
    }
    if lo > hi {
        // Every step empty (e.g. an inverted tile with hh = 1): anchor a
        // degenerate box at the tile's apex so deps stay local.
        let (a, _) = shape.range(d, 0);
        lo = a as i64;
        hi = a as i64;
    }
    (lo - r as i64, hi + r as i64)
}

/// Grow interval `e` to cover `[lo, hi)`.
#[inline]
fn grow(e: &mut (i64, i64), lo: i64, hi: i64) {
    e.0 = e.0.min(lo);
    e.1 = e.1.max(hi);
}

/// Per-parity staged bounding intervals along one dimension of a tile
/// chunk: for each global time parity `p`, everything the tile *reads*
/// from that parity (`± r` around steps whose source level has parity
/// `p`) or *writes / covers on write-back* (steps whose destination
/// level has parity `p`). Staging exactly these intervals — rather
/// than the full reach box — is what keeps stage-in race-free: the
/// interval is disjoint, per parity, from every same-stage neighbor's
/// write-back span by the same slope argument that makes the unstaged
/// reads safe.
///
/// `step_range(ss)` returns this dimension's range when the tile's full
/// product range at step `ss` is non-empty, `None` otherwise. Both
/// intervals are unions of nested members of one slope chain, so the
/// `(min, max)` accumulation below is exact (no holes).
fn parity_boxes1(
    tau: usize,
    hh: usize,
    r: usize,
    step_range: impl Fn(usize) -> Option<(usize, usize)>,
) -> [(i64, i64); 2] {
    let mut pb = [(i64::MAX, i64::MIN); 2];
    for ss in 0..hh {
        let Some((a, b)) = step_range(ss) else {
            continue;
        };
        let q = (tau + ss) % 2;
        grow(&mut pb[q], a as i64 - r as i64, b as i64 + r as i64);
        grow(&mut pb[1 - q], a as i64, b as i64);
    }
    pb
}

/// Whether the chunk's *destination* parity `(tau + 1) % 2` must be
/// staged in at all. Every odd step sources that parity; if each odd
/// step's read box (`± r` along every axis the stencil reaches) nests
/// inside the previous step's written range — exactly the shrinking,
/// non-inverted tile shapes — then every cell of that parity the chunk
/// reads or writes back is produced by an earlier in-chunk step, and its
/// stage-in (copy + transpose of nearly the full footprint) is pure
/// waste. Inverted shapes grow into neighbor-owned cells of that parity
/// and keep the stage-in. Out-of-contract lanes of partial sets may then
/// see stale arena data, which is fine: they are snapshot-restored and
/// never feed a kept lane.
fn dest_prestage_needed(
    hh: usize,
    dims: &[DimTiling; 3],
    step_box: impl Fn(usize) -> Option<NdBox>,
) -> bool {
    let mut ss = 1;
    while ss < hh {
        if let Some(cur) = step_box(ss) {
            let Some(prev) = step_box(ss - 1) else {
                return true;
            };
            for a in 0..3 {
                if cur[a].0 < prev[a].0 + dims[a].r || cur[a].1 + dims[a].r > prev[a].1 {
                    return true;
                }
            }
        }
        ss += 2;
    }
    false
}

/// What a k = 1 step runs with, whatever cells and time level it is
/// asked for: the kernel object, the method and ISA it dispatches on, the
/// ping-pong buffers, and their geometry. Every driver under `exec/`
/// takes one of these instead of five loose arguments; a staged tile or
/// an edge group derives its own with struct-update syntax.
#[derive(Clone, Copy)]
pub(crate) struct Stepper<'a, T: Elem> {
    pub k: &'a dyn Kernel<T>,
    pub method: Method,
    pub isa: Isa,
    /// `bufs[time % 2]` is the source of the step at `time`.
    pub bufs: [SyncPtr<T>; 2],
    pub geo: &'a Geo,
}

impl<T: Elem> Stepper<'_, T> {
    /// One k = 1 step of the cells of `bx` at absolute `time` between the
    /// ping-pong buffers, on the method's layout (empty boxes skipped).
    pub(crate) fn step(&self, bx: NdBox, time: usize) {
        if bx.iter().any(|&(lo, hi)| lo >= hi) {
            return;
        }
        let (src, dst) = (self.bufs[time % 2].0, self.bufs[(time + 1) % 2].0);
        // SAFETY: the plan prepared both buffers in the method's layout
        // with halo pads, validated the ISA at build time, and `bx` lies
        // inside the buffers' interior.
        unsafe { self.k.step(self.method, self.isa, src, dst, self.geo, bx) }
    }

    /// Fused pair of steps at absolute times (time, time+1) for the 1D
    /// `TransLayout2` tiles: register pipeline over the interior sets,
    /// k=1 margins for the boundary cells of the shrinking/expanding
    /// tile. `r0`/`r1` are the two steps' update ranges in the
    /// coordinates of `bufs` (grid-global, or tile-local when staged).
    fn pair1(&self, r0: (usize, usize), r1: (usize, usize), time: usize) {
        let ((lo0, hi0), (lo1, hi1)) = (r0, r1);
        let n = self.geo.n[0];
        let l = self.isa.lanes_for::<T>();
        let bs = l * l;
        let lo = lo0.max(lo1);
        let hi = hi0.min(hi1).max(lo);
        let sa = lo.div_ceil(bs);
        let sb = (hi / bs).min(SetGeo::new(n, l).nsets);
        let cells = |lo: usize, hi: usize, time: usize| self.step([(lo, hi), (0, 1), (0, 1)], time);
        if sb < sa + 2 {
            // Tile fragment too small for the pipeline — two plain steps.
            cells(lo0, hi0, time);
            cells(lo1, hi1, time + 1);
            return;
        }
        let (a, b) = (sa * bs, sb * bs);
        let buf_a = self.bufs[time % 2].0;
        let buf_b = self.bufs[(time + 1) % 2].0;

        // step ss margins (t → t+1, written to the t+1 parity)
        cells(lo0, a, time);
        cells(b, hi0, time);
        // fused interior (t → t+2 in parity A; boundary-set t+1 exported to B)
        unsafe { self.k.pass2_range(self.isa, buf_a, buf_b, n, sa, sb) };
        // step ss+1 margins (t+1 → t+2)
        cells(lo1, a, time + 1);
        cells(b, hi1, time + 1);
    }

    /// All `hh` chunk steps of one tile from level `tau`, its per-step
    /// update box given by `range_at(ss)` in the coordinates of `bufs`:
    /// fused step pairs for 1D `TransLayout2`, single steps otherwise.
    fn step_chunk(&self, tau: usize, hh: usize, range_at: impl Fn(usize) -> NdBox) {
        let mut ss = 0;
        if self.geo.ndim == 1 && self.method == Method::TransLayout2 {
            while ss + 1 < hh {
                self.pair1(range_at(ss)[0], range_at(ss + 1)[0], tau + ss);
                ss += 2;
            }
        }
        for ss in ss..hh {
            self.step(range_at(ss), tau + ss);
        }
    }
}

/// One product tile: a per-axis shape (the single triangle along absent
/// axes).
type Tile = [Shape; 3];

/// The tile's update box at chunk step `ss` (possibly empty).
#[inline]
fn tile_range(dims: &[DimTiling; 3], tile: &Tile, ss: usize) -> NdBox {
    std::array::from_fn(|a| tile[a].range(&dims[a], ss))
}

/// The tile's radius-extended footprint over a chunk of `hh` steps (see
/// [`reach1`]); exactly `(0, 1)` along absent axes.
fn tile_reach(dims: &[DimTiling; 3], tile: &Tile, hh: usize) -> FootBox {
    std::array::from_fn(|a| reach1(&dims[a], tile[a], hh, dims[a].r))
}

/// Run one interior tile's chunk against a staged, tile-local
/// transposed copy of its footprint: stage in the per-parity bounding
/// boxes, step all `hh` levels with tile-local set geometry (fused
/// pairs under 1D TL2), and write the owned per-row, per-parity spans
/// back to the natural global grid. See [`super::stage`] for the
/// coherence argument.
#[allow(clippy::too_many_arguments)]
fn run_tile_staged<T: Elem>(
    st: &Stepper<'_, T>,
    dims: &[DimTiling; 3],
    tile: &Tile,
    tau: usize,
    hh: usize,
    arena: &TileArena<T>,
    w: usize,
    phases: &PhaseCounters,
) {
    let Stepper { isa, bufs, geo, .. } = *st;
    let nonempty = |ss: usize| {
        let bx = tile_range(dims, tile, ss);
        bx.iter().all(|&(lo, hi)| lo < hi).then_some(bx)
    };
    if !(0..hh).any(|ss| nonempty(ss).is_some()) {
        return;
    }
    let reach = tile_reach(dims, tile, hh);
    let [wx, hy, hz] = reach.map(|(lo, hi)| (hi - lo) as usize);
    let base = (reach[2].0 * geo.ps as i64 + reach[1].0 * geo.rs as i64 + reach[0].0) as isize;
    // Grid-global coordinate / box → tile-local.
    let at = |a: usize, x: i64| (x - reach[a].0) as usize;
    let local = |bx: NdBox| -> NdBox {
        std::array::from_fn(|a| (at(a, bx[a].0 as i64), at(a, bx[a].1 as i64)))
    };
    let pb: [_; 3] = std::array::from_fn(|a| {
        parity_boxes1(tau, hh, dims[a].r, |ss| nonempty(ss).map(|bx| bx[a]))
    });
    let need_dest = dest_prestage_needed(hh, dims, nonempty);

    let t0 = Instant::now();
    let mut slot = arena.slot(w);
    let slot = &mut *slot;
    for p in 0..2 {
        if pb[0][p].0 >= pb[0][p].1 || (p == (tau + 1) % 2 && !need_dest) {
            continue;
        }
        let [cx, cy, cz]: NdBox = std::array::from_fn(|a| (at(a, pb[a][p].0), at(a, pb[a][p].1)));
        unsafe {
            stage::stage_in::<T>(
                isa,
                bufs[p].0.offset(base),
                geo.rs,
                geo.ps,
                slot.origin(p),
                arena.sxs,
                arena.sys,
                wx,
                cx,
                cy,
                cz,
            );
        }
    }
    phases.add_stage_in(t0);

    let staged = Stepper {
        bufs: [SyncPtr(slot.origin(0)), SyncPtr(slot.origin(1))],
        geo: &Geo {
            ndim: geo.ndim,
            n: [wx, hy, hz],
            rs: arena.sxs,
            ps: arena.sys,
            halo: 0,
        },
        ..*st
    };
    let t1 = Instant::now();
    staged.step_chunk(tau, hh, |ss| local(tile_range(dims, tile, ss)));
    phases.add_compute(t1);

    let t2 = Instant::now();
    for p in 0..2 {
        // Owned write-back span of every staged row at parity p: the
        // union (= widest member, the ranges are a nested chain) of the
        // tile's step ranges whose destination level has parity p.
        slot.spans.clear();
        slot.spans.resize(hy * hz, (u32::MAX, 0));
        for ss in 0..hh {
            if (tau + ss + 1) % 2 != p {
                continue;
            }
            let Some(bx) = nonempty(ss).map(local) else {
                continue;
            };
            let (la, lb) = (bx[0].0 as u32, bx[0].1 as u32);
            for z in bx[2].0..bx[2].1 {
                for y in bx[1].0..bx[1].1 {
                    let e = &mut slot.spans[z * hy + y];
                    e.0 = e.0.min(la);
                    e.1 = e.1.max(lb);
                }
            }
        }
        unsafe {
            stage::unstage::<T>(
                isa,
                slot.origin(p),
                arena.sxs,
                arena.sys,
                bufs[p].0.offset(base),
                geo.rs,
                geo.ps,
                wx,
                hy,
                &slot.spans,
            );
        }
    }
    phases.add_stage_out(t2);
}

/// One wavefront node.
enum Node {
    /// An interior tile, all `hh` chunk steps (fused pairs under 1D TL2).
    Tile { tile: Tile, tau: usize, hh: usize },
    /// The chunk's edge group: every halo-touching tile, in stage order,
    /// stepped in lockstep behind a per-step whole-grid halo refresh.
    Edge {
        members: Vec<Tile>,
        tau: usize,
        hh: usize,
    },
}

/// Step `t` levels of a stencil over pre-prepared ping-pong buffers under
/// tessellate tiling (chunk height `h`, per-axis tilings `dims` with the
/// degenerate tiling along absent axes), wavefront-scheduled on `pool`
/// (sequential when the pool has one thread). Product tiles run in
/// stages by inverted-axis count — (tri,tri,tri) first, (inv,inv,inv)
/// last; halo-touching tiles fuse into one edge group per chunk under
/// non-Dirichlet boundaries.
///
/// `bufs[0]` holds the step-0 data; the step-`t` result lands in
/// `bufs[t % 2]` — the caller owns the final parity swap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<T: Elem>(
    st: &Stepper<'_, T>,
    dims: &[DimTiling; 3],
    t: usize,
    h: usize,
    pool: &rayon::ThreadPool,
    b: Boundary,
    arena: Option<&TileArena<T>>,
    phases: &PhaseCounters,
) {
    let (r, geo) = (st.k.radius(), st.geo);
    // With a staging arena the global grid stays natural: interior
    // tiles run transposed inside their arena slots, and the edge
    // group (plus its halo refresh) steps the natural grid directly.
    let edge = Stepper {
        method: if arena.is_some() {
            Method::MultiLoad
        } else {
            st.method
        },
        ..*st
    };
    let map = RowMap::for_method::<T>(edge.method, st.isa, geo.n[0]);
    let mut wave = Wave::new();
    let (mut tau, mut chunk) = (0usize, 0usize);
    while tau < t {
        let hh = h.min(t - tau);
        let mut members = Vec::new();
        let mut group_boxes: Vec<FootBox> = Vec::new();
        let mut interior = Vec::new();
        for stage in 0..=3u8 {
            for mask in 0..8u8 {
                // Axis `a` is inverted iff bit `2 - a` is set, so within a
                // stage x varies slowest, like the tile loops below.
                let inv = [mask & 4 != 0, mask & 2 != 0, mask & 1 != 0];
                if mask.count_ones() != stage as u32 {
                    continue;
                }
                for sx in Shape::all(&dims[0], inv[0]) {
                    for sy in Shape::all(&dims[1], inv[1]) {
                        for sz in Shape::all(&dims[2], inv[2]) {
                            let tile = [sx, sy, sz];
                            let reach = tile_reach(dims, &tile, hh);
                            let exits =
                                (0..3).any(|a| reach[a].0 < 0 || reach[a].1 > dims[a].n as i64);
                            if !b.is_dirichlet() && exits {
                                members.push(tile);
                                group_boxes.push(reach);
                            } else {
                                interior.push((stage, tile, reach));
                            }
                        }
                    }
                }
            }
        }
        if !members.is_empty() {
            wave.push(chunk, 0, group_boxes, Node::Edge { members, tau, hh });
        }
        for (stage, tile, reach) in interior {
            wave.push(chunk, stage, vec![reach], Node::Tile { tile, tau, hh });
        }
        tau += hh;
        chunk += 1;
    }
    wave.run(pool, pool.current_num_threads(), |w, node| match node {
        Node::Tile { tile, tau, hh } => match arena {
            Some(ar) => run_tile_staged(st, dims, tile, *tau, *hh, ar, w, phases),
            None => st.step_chunk(*tau, *hh, |ss| tile_range(dims, tile, ss)),
        },
        Node::Edge { members, tau, hh } => {
            for ss in 0..*hh {
                // Whole-grid refresh: every fold source is an edge-frame
                // cell owned by this group's own members, all at level
                // `tau + ss` in lockstep — exactly the values the
                // members' halo reads need.
                let t0 = Instant::now();
                unsafe { halo::refresh(st.bufs[(tau + ss) % 2].0, geo, r, b, &map) };
                phases.add_halo(t0);
                let t1 = Instant::now();
                for tile in members {
                    // Single-step even under 1D TL2: the fused step-pair
                    // kernel cannot interleave the per-step refresh.
                    edge.step(tile_range(dims, tile, ss), tau + ss);
                }
                phases.add_compute(t1);
            }
        }
    });
}
