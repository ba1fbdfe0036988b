//! Tessellate tiling drivers (Yuan et al., SC'17 — the framework the paper
//! integrates with in §3.4), for 1/2/3 spatial dimensions, scheduled by
//! the wavefront dependency graph in [`super::wave`].
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
//! interior tiles keep the fused pairs.
//!
//! Intra-tile vectorization is pluggable ([`Method`]): the paper's
//! *Tessellation* baseline uses `MultiLoad` ("auto-vectorization"), *Our*
//! uses `TransLayout`, and *Our (2 steps)* uses `TransLayout2`, whose 1D
//! tiles fuse step pairs with the register pipeline
//! ([`crate::kernels::tl2::star1_tl2_range`]) plus scalar margins for the
//! shrinking/expanding boundary cells — the Fig. 5d treatment.
//!
//! These drivers are **parameterized by the plan**: they step pre-prepared
//! ping-pong buffers (already in the method's layout, scratch already
//! allocated) on a caller-owned thread pool. Layout round-trips, scratch
//! allocation, and final parity swaps live in [`super`]'s `Plan`/`Session`
//! engine, so none of them recur in a steady-state hot loop.

use std::time::Instant;

use stencil_simd::{Elem, Isa};

use super::halo::{self, Boundary, RowMap};
use super::stage::{self, PhaseCounters, TileArena};
use super::tile::DimTiling;
use super::wave::{box1, box2, box3, FootBox, Wave};
use super::Method;
use crate::kernels::{Kernel1, Kernel2, Kernel3};
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
/// step's read box (`± r`) nests inside the previous step's written
/// range — exactly the shrinking, non-inverted tile shapes — then every
/// cell of that parity the chunk reads or writes back is produced by an
/// earlier in-chunk step, and its stage-in (copy + transpose of nearly
/// the full footprint) is pure waste. Inverted shapes grow into
/// neighbor-owned cells of that parity and keep the stage-in. Out-of-
/// contract lanes of partial sets may then see stale arena data, which
/// is fine: they are snapshot-restored and never feed a kept lane.
fn dest_prestage_needed<const D: usize>(
    hh: usize,
    r: usize,
    step_box: impl Fn(usize) -> Option<[(usize, usize); D]>,
) -> bool {
    let mut ss = 1;
    while ss < hh {
        if let Some(cur) = step_box(ss) {
            let Some(prev) = step_box(ss - 1) else {
                return true;
            };
            for d in 0..D {
                if cur[d].0 < prev[d].0 + r || cur[d].1 + r > prev[d].1 {
                    return true;
                }
            }
        }
        ss += 2;
    }
    false
}

// ---------------------------------------------------------------------------
// 1D
// ---------------------------------------------------------------------------

/// One k = 1 step of cells `[lo, hi)` at absolute `time` between the
/// ping-pong buffers, on the method's layout (empty ranges skipped).
#[allow(clippy::too_many_arguments)]
pub(crate) fn step1<T: Elem>(
    k: &dyn Kernel1<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    n: usize,
    lo: usize,
    hi: usize,
    time: usize,
) {
    if lo >= hi {
        return;
    }
    let (src, dst) = (bufs[time % 2].0, bufs[(time + 1) % 2].0);
    // SAFETY: the plan prepared both buffers in the method's layout with
    // halo pads, and validated the ISA at build time.
    unsafe { k.step(method, isa, src, dst, n, lo, hi) }
}

/// Fused pair of steps at absolute times (time, time+1) for the 1D
/// `TransLayout2` tiles: register pipeline over the interior sets, k=1
/// margins for the boundary cells of the shrinking/expanding tile.
/// `r0`/`r1` are the two steps' update ranges in the coordinates of
/// `bufs` (grid-global, or tile-local when staged).
#[allow(clippy::too_many_arguments)]
fn pair1<T: Elem>(
    k: &dyn Kernel1<T>,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    n: usize,
    r0: (usize, usize),
    r1: (usize, usize),
    time: usize,
) {
    let ((lo0, hi0), (lo1, hi1)) = (r0, r1);
    let l = isa.lanes_for::<T>();
    let bs = l * l;
    let lo = lo0.max(lo1);
    let hi = hi0.min(hi1).max(lo);
    let sa = lo.div_ceil(bs);
    let sb = (hi / bs).min(SetGeo::new(n, l).nsets);
    if sb < sa + 2 {
        // Tile fragment too small for the pipeline — two plain steps.
        step1(k, Method::TransLayout2, isa, bufs, n, lo0, hi0, time);
        step1(k, Method::TransLayout2, isa, bufs, n, lo1, hi1, time + 1);
        return;
    }
    let (a, b) = (sa * bs, sb * bs);
    let buf_a = bufs[time % 2].0;
    let buf_b = bufs[(time + 1) % 2].0;

    // step ss margins (t → t+1, written to the t+1 parity)
    step1(k, Method::TransLayout2, isa, bufs, n, lo0, a, time);
    step1(k, Method::TransLayout2, isa, bufs, n, b, hi0, time);
    // fused interior (t → t+2 in parity A; boundary-set t+1 exported to B)
    unsafe { k.pass2_range(isa, buf_a, buf_b, n, sa, sb) };
    // step ss+1 margins (t+1 → t+2)
    step1(k, Method::TransLayout2, isa, bufs, n, lo1, a, time + 1);
    step1(k, Method::TransLayout2, isa, bufs, n, b, hi1, time + 1);
}

#[allow(clippy::too_many_arguments)]
fn run_tile1<T: Elem>(
    k: &dyn Kernel1<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    n: usize,
    d: &DimTiling,
    shape: Shape,
    tau: usize,
    hh: usize,
) {
    if method == Method::TransLayout2 {
        let mut ss = 0;
        while ss + 1 < hh {
            let r0 = shape.range(d, ss);
            let r1 = shape.range(d, ss + 1);
            pair1(k, isa, bufs, n, r0, r1, tau + ss);
            ss += 2;
        }
        if ss < hh {
            let (lo, hi) = shape.range(d, ss);
            step1(k, method, isa, bufs, n, lo, hi, tau + ss);
        }
    } else {
        for ss in 0..hh {
            let (lo, hi) = shape.range(d, ss);
            step1(k, method, isa, bufs, n, lo, hi, tau + ss);
        }
    }
}

/// Run one interior tile's chunk against a staged, tile-local
/// transposed copy of its footprint: stage in the per-parity bounding
/// intervals, step all `hh` levels with tile-local set geometry (fused
/// pairs under TL2), and write the owned per-parity spans back to the
/// natural global grid. See [`super::stage`] for the coherence
/// argument.
#[allow(clippy::too_many_arguments)]
fn run_tile1_staged<T: Elem>(
    k: &dyn Kernel1<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    d: &DimTiling,
    shape: Shape,
    tau: usize,
    hh: usize,
    arena: &TileArena<T>,
    w: usize,
    phases: &PhaseCounters,
) {
    let r = k.radius();
    let nonempty = |ss: usize| {
        let (a, b) = shape.range(d, ss);
        (a < b).then_some((a, b))
    };
    if !(0..hh).any(|ss| nonempty(ss).is_some()) {
        return;
    }
    let (rlo, rhi) = reach1(d, shape, hh, r);
    let wx = (rhi - rlo) as usize;
    let loc = |x: usize| (x as i64 - rlo) as usize;
    let pbx = parity_boxes1(tau, hh, r, nonempty);
    let need_dest = dest_prestage_needed(hh, r, |ss| nonempty(ss).map(|x| [x]));

    let t0 = Instant::now();
    let mut slot = arena.slot(w);
    let slot = &mut *slot;
    for (p, pb) in pbx.iter().enumerate() {
        if pb.0 >= pb.1 || (p == (tau + 1) % 2 && !need_dest) {
            continue;
        }
        let cx = ((pb.0 - rlo) as usize, (pb.1 - rlo) as usize);
        unsafe {
            stage::stage_in::<T>(
                isa,
                bufs[p].0.offset(rlo as isize),
                0,
                0,
                slot.origin(p),
                arena.sxs,
                0,
                wx,
                cx,
                (0, 1),
                (0, 1),
            );
        }
    }
    phases.add_stage_in(t0);

    let ab = [SyncPtr(slot.origin(0)), SyncPtr(slot.origin(1))];
    let t1 = Instant::now();
    if method == Method::TransLayout2 {
        let mut ss = 0;
        while ss + 1 < hh {
            let (a0, b0) = shape.range(d, ss);
            let (a1, b1) = shape.range(d, ss + 1);
            pair1(
                k,
                isa,
                ab,
                wx,
                (loc(a0), loc(b0).max(loc(a0))),
                (loc(a1), loc(b1).max(loc(a1))),
                tau + ss,
            );
            ss += 2;
        }
        if ss < hh {
            if let Some((a, b)) = nonempty(ss) {
                step1(k, method, isa, ab, wx, loc(a), loc(b), tau + ss);
            }
        }
    } else {
        for ss in 0..hh {
            if let Some((a, b)) = nonempty(ss) {
                step1(k, method, isa, ab, wx, loc(a), loc(b), tau + ss);
            }
        }
    }
    phases.add_compute(t1);

    let t2 = Instant::now();
    for p in 0..2 {
        // Owned write-back span at parity p: the union (= widest
        // member, the ranges are a nested chain) of the tile's step
        // ranges whose destination level has parity p.
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for ss in 0..hh {
            if (tau + ss + 1) % 2 != p {
                continue;
            }
            if let Some((a, b)) = nonempty(ss) {
                lo = lo.min(a);
                hi = hi.max(b);
            }
        }
        if lo >= hi {
            continue;
        }
        unsafe {
            stage::unstage::<T>(
                isa,
                slot.origin(p),
                arena.sxs,
                0,
                bufs[p].0.offset(rlo as isize),
                0,
                0,
                wx,
                1,
                &[(loc(lo) as u32, loc(hi) as u32)],
            );
        }
    }
    phases.add_stage_out(t2);
}

/// One wavefront node of the 1D driver.
enum Node1 {
    /// An interior tile, all `hh` chunk steps (fused pairs under TL2).
    Tile { shape: Shape, tau: usize, hh: usize },
    /// The chunk's edge group: every halo-touching tile, in stage order,
    /// stepped in lockstep behind a per-step whole-grid halo refresh.
    Edge {
        members: Vec<Shape>,
        tau: usize,
        hh: usize,
    },
}

/// Step `t` levels of a 1D star stencil over pre-prepared ping-pong
/// buffers under tessellate tiling (chunk height `h`), wavefront-scheduled
/// on `pool` (sequential when the pool has one thread).
///
/// `bufs[0]` holds the step-0 data; the step-`t` result lands in
/// `bufs[t % 2]` — the caller owns the final parity swap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive1<T: Elem>(
    k: &dyn Kernel1<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    n: usize,
    d: &DimTiling,
    t: usize,
    h: usize,
    pool: &rayon::ThreadPool,
    b: Boundary,
    arena: Option<&TileArena<T>>,
    phases: &PhaseCounters,
) {
    let r = k.radius();
    // With a staging arena the global grid stays natural: interior
    // tiles run transposed inside their arena slots, and the edge
    // group (plus its halo refresh) steps the natural grid directly.
    let emethod = if arena.is_some() {
        Method::MultiLoad
    } else {
        method
    };
    let map = RowMap::for_method::<T>(emethod, isa, n);
    let mut wave = Wave::new();
    let (mut tau, mut chunk) = (0usize, 0usize);
    while tau < t {
        let hh = h.min(t - tau);
        let mut members = Vec::new();
        let mut group_boxes: Vec<FootBox> = Vec::new();
        let mut interior = Vec::new();
        for (stage, inverted) in [(0u8, false), (1u8, true)] {
            for shape in Shape::all(d, inverted) {
                let (lo, hi) = reach1(d, shape, hh, r);
                if !b.is_dirichlet() && (lo < 0 || hi > n as i64) {
                    members.push(shape);
                    group_boxes.push(box1(lo, hi));
                } else {
                    interior.push((stage, shape, box1(lo, hi)));
                }
            }
        }
        if !members.is_empty() {
            wave.push(chunk, 0, group_boxes, Node1::Edge { members, tau, hh });
        }
        for (stage, shape, fb) in interior {
            wave.push(chunk, stage, vec![fb], Node1::Tile { shape, tau, hh });
        }
        tau += hh;
        chunk += 1;
    }
    wave.run(pool, pool.current_num_threads(), |w, node| match node {
        Node1::Tile { shape, tau, hh } => {
            if let Some(ar) = arena {
                run_tile1_staged(k, method, isa, bufs, d, *shape, *tau, *hh, ar, w, phases);
            } else {
                run_tile1(k, method, isa, bufs, n, d, *shape, *tau, *hh);
            }
        }
        Node1::Edge { members, tau, hh } => {
            for ss in 0..*hh {
                // Fold sources at level `tau + ss` are interior edge
                // cells owned by this group's own members, which step in
                // lockstep — the refresh reads exactly the values the
                // members' halo reads need.
                let t0 = Instant::now();
                unsafe { halo::refresh1(bufs[(tau + ss) % 2].0, n, r, b, &map) };
                phases.add_halo(t0);
                let t1 = Instant::now();
                for &shape in members {
                    let (lo, hi) = shape.range(d, ss);
                    // Single-step even under TL2: the fused step-pair
                    // kernel cannot interleave the per-step refresh.
                    step1(k, emethod, isa, bufs, n, lo, hi, tau + ss);
                }
                phases.add_compute(t1);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// 2D
// ---------------------------------------------------------------------------

/// One k = 1 step of the box `yr × xr` at absolute `time` between the
/// ping-pong buffers (empty boxes skipped).
#[allow(clippy::too_many_arguments)]
pub(crate) fn step2<T: Elem>(
    k: &dyn Kernel2<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    rs: usize,
    nx: usize,
    yr: (usize, usize),
    xr: (usize, usize),
    time: usize,
) {
    if yr.0 >= yr.1 || xr.0 >= xr.1 {
        return;
    }
    let (src, dst) = (bufs[time % 2].0, bufs[(time + 1) % 2].0);
    // SAFETY: as `step1`; the box lies inside the buffers' interior.
    unsafe { k.step(method, isa, src, dst, rs, nx, yr, xr) }
}

/// One wavefront node of the 2D drivers.
enum Node2 {
    Tile {
        sx: Shape,
        sy: Shape,
        tau: usize,
        hh: usize,
    },
    /// The chunk's edge group (see [`drive1`]'s `Node1::Edge`), members
    /// in stage order.
    Edge {
        members: Vec<(Shape, Shape)>,
        tau: usize,
        hh: usize,
    },
}

/// Step `t` levels of a 2D stencil over pre-prepared ping-pong
/// buffers under tessellate tiling, wavefront-scheduled. Product
/// tiles by inverted-dimension count: (tri,tri) → (inv,tri) +
/// (tri,inv) → (inv,inv); halo-touching tiles fuse into one edge
/// group per chunk under non-Dirichlet boundaries. The step-`t`
/// result lands in `bufs[t % 2]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive2<T: Elem>(
    k: &dyn Kernel2<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    rs: usize,
    nx: usize,
    dx: &DimTiling,
    dy: &DimTiling,
    t: usize,
    h: usize,
    pool: &rayon::ThreadPool,
    b: Boundary,
    arena: Option<&TileArena<T>>,
    phases: &PhaseCounters,
) {
    let (r, ny) = (k.radius(), dy.n);
    // See `drive1`: staged tiles keep the global grid natural.
    let emethod = if arena.is_some() {
        Method::MultiLoad
    } else {
        method
    };
    let map = RowMap::for_method::<T>(emethod, isa, nx);
    let mut wave = Wave::new();
    let (mut tau, mut chunk) = (0usize, 0usize);
    while tau < t {
        let hh = h.min(t - tau);
        let mut members = Vec::new();
        let mut group_boxes: Vec<FootBox> = Vec::new();
        let mut interior = Vec::new();
        for stage in 0..3u8 {
            for &ix in &[false, true] {
                for &iy in &[false, true] {
                    if (ix as u8) + (iy as u8) != stage {
                        continue;
                    }
                    for sx in Shape::all(dx, ix) {
                        for sy in Shape::all(dy, iy) {
                            let bx = reach1(dx, sx, hh, r);
                            let by = reach1(dy, sy, hh, r);
                            let exits =
                                bx.0 < 0 || bx.1 > nx as i64 || by.0 < 0 || by.1 > ny as i64;
                            if !b.is_dirichlet() && exits {
                                members.push((sx, sy));
                                group_boxes.push(box2(by, bx));
                            } else {
                                interior.push((stage, sx, sy, box2(by, bx)));
                            }
                        }
                    }
                }
            }
        }
        if !members.is_empty() {
            wave.push(chunk, 0, group_boxes, Node2::Edge { members, tau, hh });
        }
        for (stage, sx, sy, fb) in interior {
            wave.push(chunk, stage, vec![fb], Node2::Tile { sx, sy, tau, hh });
        }
        tau += hh;
        chunk += 1;
    }
    wave.run(pool, pool.current_num_threads(), |w, node| match node {
        Node2::Tile { sx, sy, tau, hh } => {
            let Some(ar) = arena else {
                for ss in 0..*hh {
                    let xr = sx.range(dx, ss);
                    let yr = sy.range(dy, ss);
                    step2(k, method, isa, bufs, rs, nx, yr, xr, tau + ss);
                }
                return;
            };
            // Staged chunk: stage the per-parity footprint in,
            // run every step tile-locally, write owned spans
            // back (see `run_tile1_staged` / `super::stage`).
            let nonempty = |ss: usize| {
                let (xa, xb) = sx.range(dx, ss);
                let (ya, yb) = sy.range(dy, ss);
                (xa < xb && ya < yb).then_some(((xa, xb), (ya, yb)))
            };
            if !(0..*hh).any(|ss| nonempty(ss).is_some()) {
                return;
            }
            let (xlo, xhi) = reach1(dx, *sx, *hh, r);
            let (ylo, yhi) = reach1(dy, *sy, *hh, r);
            let wx = (xhi - xlo) as usize;
            let hy = (yhi - ylo) as usize;
            let base = (ylo * rs as i64 + xlo) as isize;
            let pbx = parity_boxes1(*tau, *hh, r, |ss| nonempty(ss).map(|q| q.0));
            let pby = parity_boxes1(*tau, *hh, r, |ss| nonempty(ss).map(|q| q.1));
            let need_dest = dest_prestage_needed(*hh, r, |ss| nonempty(ss).map(|(x, y)| [x, y]));

            let t0 = Instant::now();
            let mut slot = ar.slot(w);
            let slot = &mut *slot;
            for p in 0..2 {
                if pbx[p].0 >= pbx[p].1 || (p == (tau + 1) % 2 && !need_dest) {
                    continue;
                }
                let cx = ((pbx[p].0 - xlo) as usize, (pbx[p].1 - xlo) as usize);
                let cy = ((pby[p].0 - ylo) as usize, (pby[p].1 - ylo) as usize);
                unsafe {
                    stage::stage_in::<T>(
                        isa,
                        bufs[p].0.offset(base),
                        rs,
                        0,
                        slot.origin(p),
                        ar.sxs,
                        0,
                        wx,
                        cx,
                        cy,
                        (0, 1),
                    );
                }
            }
            phases.add_stage_in(t0);

            let ab = [SyncPtr(slot.origin(0)), SyncPtr(slot.origin(1))];
            let t1 = Instant::now();
            for ss in 0..*hh {
                let Some(((xa, xb), (ya, yb))) = nonempty(ss) else {
                    continue;
                };
                let xr = ((xa as i64 - xlo) as usize, (xb as i64 - xlo) as usize);
                let yr = ((ya as i64 - ylo) as usize, (yb as i64 - ylo) as usize);
                step2(k, method, isa, ab, ar.sxs, wx, yr, xr, tau + ss);
            }
            phases.add_compute(t1);

            let t2 = Instant::now();
            for p in 0..2 {
                slot.spans.clear();
                slot.spans.resize(hy, (u32::MAX, 0));
                for ss in 0..*hh {
                    if (tau + ss + 1) % 2 != p {
                        continue;
                    }
                    let Some(((xa, xb), (ya, yb))) = nonempty(ss) else {
                        continue;
                    };
                    let la = (xa as i64 - xlo) as u32;
                    let lb = (xb as i64 - xlo) as u32;
                    for y in ya..yb {
                        let e = &mut slot.spans[(y as i64 - ylo) as usize];
                        e.0 = e.0.min(la);
                        e.1 = e.1.max(lb);
                    }
                }
                unsafe {
                    stage::unstage::<T>(
                        isa,
                        slot.origin(p),
                        ar.sxs,
                        0,
                        bufs[p].0.offset(base),
                        rs,
                        0,
                        wx,
                        hy,
                        &slot.spans,
                    );
                }
            }
            phases.add_stage_out(t2);
        }
        Node2::Edge { members, tau, hh } => {
            for ss in 0..*hh {
                // Whole-grid refresh: every fold source is an
                // edge-frame cell owned by this group's members,
                // all at level `tau + ss` in lockstep.
                let t0 = Instant::now();
                unsafe { halo::refresh2(bufs[(tau + ss) % 2].0, rs, nx, ny, r, b, &map) };
                phases.add_halo(t0);
                let t1 = Instant::now();
                for &(sx, sy) in members {
                    let xr = sx.range(dx, ss);
                    let yr = sy.range(dy, ss);
                    step2(k, emethod, isa, bufs, rs, nx, yr, xr, tau + ss);
                }
                phases.add_compute(t1);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// 3D
// ---------------------------------------------------------------------------

/// One k = 1 step of the box `zr × yr × xr` at absolute `time` between
/// the ping-pong buffers (empty boxes skipped).
#[allow(clippy::too_many_arguments)]
pub(crate) fn step3<T: Elem>(
    k: &dyn Kernel3<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    rs: usize,
    ps: usize,
    nx: usize,
    zr: (usize, usize),
    yr: (usize, usize),
    xr: (usize, usize),
    time: usize,
) {
    if zr.0 >= zr.1 || yr.0 >= yr.1 || xr.0 >= xr.1 {
        return;
    }
    let (src, dst) = (bufs[time % 2].0, bufs[(time + 1) % 2].0);
    // SAFETY: as `step1`; the box lies inside the buffers' interior.
    unsafe { k.step(method, isa, src, dst, rs, ps, nx, zr, yr, xr) }
}

/// One wavefront node of the 3D drivers.
enum Node3 {
    Tile {
        sx: Shape,
        sy: Shape,
        sz: Shape,
        tau: usize,
        hh: usize,
    },
    /// The chunk's edge group (see [`drive1`]'s `Node1::Edge`), members
    /// in stage order.
    Edge {
        members: Vec<(Shape, Shape, Shape)>,
        tau: usize,
        hh: usize,
    },
}

/// Step `t` levels of a 3D stencil over pre-prepared ping-pong
/// buffers under tessellate tiling, wavefront-scheduled (4 stages
/// by inverted-dimension count; halo-touching tiles fuse into one
/// edge group per chunk under non-Dirichlet boundaries). The
/// step-`t` result lands in `bufs[t % 2]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive3<T: Elem>(
    k: &dyn Kernel3<T>,
    method: Method,
    isa: Isa,
    bufs: [SyncPtr<T>; 2],
    rs: usize,
    ps: usize,
    nx: usize,
    dx: &DimTiling,
    dy: &DimTiling,
    dz: &DimTiling,
    t: usize,
    h: usize,
    pool: &rayon::ThreadPool,
    b: Boundary,
    arena: Option<&TileArena<T>>,
    phases: &PhaseCounters,
) {
    let (r, ny, nz) = (k.radius(), dy.n, dz.n);
    // See `drive1`: staged tiles keep the global grid natural.
    let emethod = if arena.is_some() {
        Method::MultiLoad
    } else {
        method
    };
    let map = RowMap::for_method::<T>(emethod, isa, nx);
    let mut wave = Wave::new();
    let (mut tau, mut chunk) = (0usize, 0usize);
    while tau < t {
        let hh = h.min(t - tau);
        let mut members = Vec::new();
        let mut group_boxes: Vec<FootBox> = Vec::new();
        let mut interior = Vec::new();
        for stage in 0..4u8 {
            for &ix in &[false, true] {
                for &iy in &[false, true] {
                    for &iz in &[false, true] {
                        if (ix as u8) + (iy as u8) + (iz as u8) != stage {
                            continue;
                        }
                        for sx in Shape::all(dx, ix) {
                            for sy in Shape::all(dy, iy) {
                                for sz in Shape::all(dz, iz) {
                                    let bx = reach1(dx, sx, hh, r);
                                    let by = reach1(dy, sy, hh, r);
                                    let bz = reach1(dz, sz, hh, r);
                                    let exits = bx.0 < 0
                                        || bx.1 > nx as i64
                                        || by.0 < 0
                                        || by.1 > ny as i64
                                        || bz.0 < 0
                                        || bz.1 > nz as i64;
                                    if !b.is_dirichlet() && exits {
                                        members.push((sx, sy, sz));
                                        group_boxes.push(box3(bz, by, bx));
                                    } else {
                                        interior.push((stage, sx, sy, sz, box3(bz, by, bx)));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if !members.is_empty() {
            wave.push(chunk, 0, group_boxes, Node3::Edge { members, tau, hh });
        }
        for (stage, sx, sy, sz, fb) in interior {
            wave.push(
                chunk,
                stage,
                vec![fb],
                Node3::Tile {
                    sx,
                    sy,
                    sz,
                    tau,
                    hh,
                },
            );
        }
        tau += hh;
        chunk += 1;
    }
    wave.run(pool, pool.current_num_threads(), |w, node| match node {
        Node3::Tile {
            sx,
            sy,
            sz,
            tau,
            hh,
        } => {
            let Some(ar) = arena else {
                for ss in 0..*hh {
                    let xr = sx.range(dx, ss);
                    let yr = sy.range(dy, ss);
                    let zr = sz.range(dz, ss);
                    step3(k, method, isa, bufs, rs, ps, nx, zr, yr, xr, tau + ss);
                }
                return;
            };
            // Staged chunk; see the 2D driver's `Tile` arm.
            let nonempty = |ss: usize| {
                let (xa, xb) = sx.range(dx, ss);
                let (ya, yb) = sy.range(dy, ss);
                let (za, zb) = sz.range(dz, ss);
                (xa < xb && ya < yb && za < zb).then_some(((xa, xb), (ya, yb), (za, zb)))
            };
            if !(0..*hh).any(|ss| nonempty(ss).is_some()) {
                return;
            }
            let (xlo, xhi) = reach1(dx, *sx, *hh, r);
            let (ylo, yhi) = reach1(dy, *sy, *hh, r);
            let (zlo, zhi) = reach1(dz, *sz, *hh, r);
            let wx = (xhi - xlo) as usize;
            let hy = (yhi - ylo) as usize;
            let hz = (zhi - zlo) as usize;
            let base = (zlo * ps as i64 + ylo * rs as i64 + xlo) as isize;
            let pbx = parity_boxes1(*tau, *hh, r, |ss| nonempty(ss).map(|q| q.0));
            let pby = parity_boxes1(*tau, *hh, r, |ss| nonempty(ss).map(|q| q.1));
            let pbz = parity_boxes1(*tau, *hh, r, |ss| nonempty(ss).map(|q| q.2));
            let need_dest =
                dest_prestage_needed(*hh, r, |ss| nonempty(ss).map(|(x, y, z)| [x, y, z]));

            let t0 = Instant::now();
            let mut slot = ar.slot(w);
            let slot = &mut *slot;
            for p in 0..2 {
                if pbx[p].0 >= pbx[p].1 || (p == (tau + 1) % 2 && !need_dest) {
                    continue;
                }
                let cx = ((pbx[p].0 - xlo) as usize, (pbx[p].1 - xlo) as usize);
                let cy = ((pby[p].0 - ylo) as usize, (pby[p].1 - ylo) as usize);
                let cz = ((pbz[p].0 - zlo) as usize, (pbz[p].1 - zlo) as usize);
                unsafe {
                    stage::stage_in::<T>(
                        isa,
                        bufs[p].0.offset(base),
                        rs,
                        ps,
                        slot.origin(p),
                        ar.sxs,
                        ar.sys,
                        wx,
                        cx,
                        cy,
                        cz,
                    );
                }
            }
            phases.add_stage_in(t0);

            let ab = [SyncPtr(slot.origin(0)), SyncPtr(slot.origin(1))];
            let t1 = Instant::now();
            for ss in 0..*hh {
                let Some(((xa, xb), (ya, yb), (za, zb))) = nonempty(ss) else {
                    continue;
                };
                let xr = ((xa as i64 - xlo) as usize, (xb as i64 - xlo) as usize);
                let yr = ((ya as i64 - ylo) as usize, (yb as i64 - ylo) as usize);
                let zr = ((za as i64 - zlo) as usize, (zb as i64 - zlo) as usize);
                step3(k, method, isa, ab, ar.sxs, ar.sys, wx, zr, yr, xr, tau + ss);
            }
            phases.add_compute(t1);

            let t2 = Instant::now();
            for p in 0..2 {
                slot.spans.clear();
                slot.spans.resize(hy * hz, (u32::MAX, 0));
                for ss in 0..*hh {
                    if (tau + ss + 1) % 2 != p {
                        continue;
                    }
                    let Some(((xa, xb), (ya, yb), (za, zb))) = nonempty(ss) else {
                        continue;
                    };
                    let la = (xa as i64 - xlo) as u32;
                    let lb = (xb as i64 - xlo) as u32;
                    for z in za..zb {
                        let zoff = (z as i64 - zlo) as usize * hy;
                        for y in ya..yb {
                            let e = &mut slot.spans[zoff + (y as i64 - ylo) as usize];
                            e.0 = e.0.min(la);
                            e.1 = e.1.max(lb);
                        }
                    }
                }
                unsafe {
                    stage::unstage::<T>(
                        isa,
                        slot.origin(p),
                        ar.sxs,
                        ar.sys,
                        bufs[p].0.offset(base),
                        rs,
                        ps,
                        wx,
                        hy,
                        &slot.spans,
                    );
                }
            }
            phases.add_stage_out(t2);
        }
        Node3::Edge { members, tau, hh } => {
            for ss in 0..*hh {
                // Whole-grid refresh: every fold source is an
                // edge-frame cell owned by this group's members,
                // all at level `tau + ss` in lockstep.
                let t0 = Instant::now();
                unsafe { halo::refresh3(bufs[(tau + ss) % 2].0, rs, ps, nx, ny, nz, r, b, &map) };
                phases.add_halo(t0);
                let t1 = Instant::now();
                for &(sx, sy, sz) in members {
                    let xr = sx.range(dx, ss);
                    let yr = sy.range(dy, ss);
                    let zr = sz.range(dz, ss);
                    step3(k, emethod, isa, bufs, rs, ps, nx, zr, yr, xr, tau + ss);
                }
                phases.add_compute(t1);
            }
        }
    });
}
