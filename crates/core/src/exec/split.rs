//! Split tiling drivers over the **DLT layout** — the SDSL stand-in
//! (Henretty et al., ICS'13): DLT vectorization plus split (triangle /
//! inverted trapezoid) temporal tiling.
//!
//! There are two drivers because there are two index spaces, not because
//! there are three ranks. [`drive_cols`] tiles a 1D row's DLT *column
//! space*; [`drive_outer`] tiles the outermost real axis of a 2D/3D grid
//! in ordinary cell coordinates and is written once over the [`Geo`].
//!
//! 1D: tiling runs in DLT *column space* (`j ∈ [0, cols)`). A column tile
//! is `vl` distant original-space segments — which is precisely the
//! locality loss the paper attributes to DLT under blocking (§2.2/§3.1):
//! an L1-sized column tile touches `vl` separate memory regions. Column
//! triangles shrink at the `j`-edges too (the edges are cross-lane seams,
//! not halo); the uncovered seam space-time is handled by per-seam scalar
//! tiles in original coordinates, one per lane boundary, plus the natural
//! tail strip.
//!
//! 2D/3D: SDSL's *hybrid* scheme — split tiling on the outermost
//! dimension, full DLT rows inside.
//!
//! Like [`super::tess`], these drivers are **parameterized by the plan**
//! (they step pre-transformed DLT staging buffers on a caller-owned pool;
//! the DLT round-trip and staging allocation live in the `Plan`/`Session`
//! engine) and scheduled by the wavefront graph in [`super::wave`]
//! instead of per-stage barriers.
//!
//! Boundary composition differs by rank. 1D tiles run in column space
//! but depend on each other in *original* space (a column tile is `vl`
//! distant segments), so under a refreshed boundary the halo fold
//! sources and the edge seams' intermediate-level reads chain through
//! interior pieces; each chunk then runs as a single lockstep group
//! that interleaves a whole-buffer halo refresh with each chunk step
//! (a per-level sweep — structurally the untiled schedule, chosen
//! because column space is only `n/vl` wide and the member closure is
//! geometry-dependent). In 2D/3D every tile owns *full DLT rows*,
//! so each tile refreshes the x halos of exactly the rows/planes it reads
//! via the per-band refresh (self-contained: those rows are its own
//! previous-step output), and only the two domain-edge triangles — whose
//! whole halo-row builds read each other's rows under periodic folds —
//! need fusing into an edge group.

use stencil_simd::Elem;

use super::halo::{self, Boundary, RowMap};
use super::tess::{reach1, Shape, Stepper};
use super::tile::DimTiling;
use super::wave::{box1, FootBox, Wave};
use super::Method;
use crate::kernels::Kernel;
use crate::layout::DltGeo;

/// Scalar update of DLT columns `[j0, j1)` across all lanes (mapped).
///
/// # Safety
/// Standard row contracts; used for seam-adjacent column fragments.
pub(crate) unsafe fn dlt_cols_scalar<T: Elem>(
    k: &dyn Kernel<T>,
    src: *const T,
    dst: *mut T,
    geo: &DltGeo,
    j0: usize,
    j1: usize,
) {
    for lane in 0..geo.vl {
        let base = lane * geo.cols;
        k.dlt_scalar(src, dst, base + j0, base + j1, geo);
    }
}

/// One step of a 1D column tile `[j_lo, j_hi)` at absolute `time`:
/// vector core over seam-free columns, scalar mapped access at the seam
/// fringes.
fn col_step<T: Elem>(st: &Stepper<'_, T>, geo: &DltGeo, j_lo: usize, j_hi: usize, time: usize) {
    if j_lo >= j_hi {
        return;
    }
    let Stepper { k, isa, bufs, .. } = *st;
    let src = bufs[time % 2].0.cast_const();
    let dst = bufs[(time + 1) % 2].0;
    let r = k.radius();
    let v_lo = j_lo.max(r);
    let v_hi = j_hi.min(geo.cols - r).max(v_lo);
    unsafe {
        dlt_cols_scalar(k, src, dst, geo, j_lo, v_lo.min(j_hi));
        if v_lo < v_hi {
            k.dlt_cols(isa, src, dst, v_lo, v_hi);
            dlt_cols_scalar(k, src, dst, geo, v_hi, j_hi);
        } else {
            dlt_cols_scalar(k, src, dst, geo, v_lo.max(j_lo).min(j_hi), j_hi);
        }
    }
}

/// One step of the seam tile at lane boundary `lam` (original cells around
/// `lam·cols`, scalar via the index map); the rightmost seam also owns the
/// natural tail strip, which advances every step.
fn seam_step<T: Elem>(st: &Stepper<'_, T>, geo: &DltGeo, lam: usize, ss: usize, time: usize) {
    let Stepper { k, bufs, .. } = *st;
    let (r, n) = (k.radius(), geo.n);
    let c = lam * geo.cols;
    let reach = r * ss;
    let lo = c.saturating_sub(reach);
    let mut hi = (c + reach).min(n);
    if lam == geo.vl {
        hi = n; // tail strip advances every step
    }
    if lo >= hi {
        return;
    }
    let src = bufs[time % 2].0.cast_const();
    let dst = bufs[(time + 1) % 2].0;
    unsafe { k.dlt_scalar(src, dst, lo, hi, geo) };
}

/// One member / interior tile of the 1D split wavefront.
#[derive(Copy, Clone)]
enum Piece {
    /// Column triangle `k` (stage 0).
    Tri(usize),
    /// Interior inverted column tile at boundary `c = bnd·w` (stage 1).
    Inv(usize),
    /// Seam tile at lane boundary `lam` (stage 1; `lam == vl` owns the
    /// natural tail strip).
    Seam(usize),
}

impl Piece {
    /// Run chunk step `ss` of this piece (absolute time `tau + ss`).
    fn step<T: Elem>(
        self,
        st: &Stepper<'_, T>,
        geo: &DltGeo,
        d: &DimTiling,
        ss: usize,
        tau: usize,
    ) {
        match self {
            Piece::Tri(tri) => {
                let (lo, hi) = d.tri(tri, ss);
                col_step(st, geo, lo, hi, tau + ss);
            }
            Piece::Inv(bnd) => {
                let reach = st.k.radius() * ss;
                let lo = (bnd * d.w).saturating_sub(reach);
                let hi = (bnd * d.w + reach).min(geo.cols);
                col_step(st, geo, lo, hi, tau + ss);
            }
            Piece::Seam(lam) => seam_step(st, geo, lam, ss, tau + ss),
        }
    }
}

/// One wavefront node of the 1D split driver.
enum ColNode {
    Tile {
        piece: Piece,
        tau: usize,
        hh: usize,
    },
    /// A whole chunk under a refreshed boundary: every piece in stage
    /// order, stepped in lockstep behind a per-step whole-buffer halo
    /// refresh (a per-level sweep, structurally identical to untiled
    /// stepping — see the placement comment in [`drive_cols`]).
    Edge {
        members: Vec<Piece>,
        tau: usize,
        hh: usize,
    },
}

/// Original-space footprint of DLT columns `[jlo, jhi)`: one
/// radius-extended box per lane segment (a column tile is `vl` distant
/// segments, and the `±r` extension also captures the cross-lane seam
/// reads of the scalar fringes).
fn lane_boxes(geo: &DltGeo, jlo: usize, jhi: usize, r: usize) -> Vec<FootBox> {
    (0..geo.vl)
        .map(|lam| {
            let base = (lam * geo.cols) as i64;
            box1(base + jlo as i64 - r as i64, base + jhi as i64 + r as i64)
        })
        .collect()
}

/// Step `t` levels of a 1D star stencil over pre-transformed DLT staging
/// buffers under split tiling (column triangles of base `w = d.w`, chunk
/// height `h`), wavefront-scheduled on `pool`. The step-`t` result lands
/// in `bufs[t % 2]`.
pub(crate) fn drive_cols<T: Elem>(
    st: &Stepper<'_, T>,
    geo: &DltGeo,
    d: &DimTiling,
    t: usize,
    h: usize,
    pool: &rayon::ThreadPool,
    b: Boundary,
) {
    let (bufs, n, r) = (st.bufs, geo.n, st.k.radius());
    let map = RowMap::Dlt(*geo);
    let mut wave = Wave::new();
    let (mut tau, mut chunk) = (0usize, 0usize);
    while tau < t {
        let hh = h.min(t - tau);
        let mut members: Vec<Piece> = Vec::new();
        let mut group_boxes: Vec<FootBox> = Vec::new();
        let mut interior: Vec<(u8, Piece, Vec<FootBox>)> = Vec::new();
        // Under a refreshed boundary the whole chunk runs as one lockstep
        // group. Column pieces are `vl` distant original-space segments,
        // so the halo fold sources and the edge seams' intermediate-level
        // reads chain through *interior* pieces (e.g. a one-column tail
        // triangle hands the rightmost seam its level-`tau+ss` inputs);
        // the member closure is geometry-dependent and can span the whole
        // chunk. A per-level sweep of every piece behind the refresh is
        // structurally identical to untiled stepping, and the column
        // space is only `n/vl` wide — intra-chunk parallelism here is
        // marginal (tessellation is the parallel temporal path in 1D).
        let mut place = |stage: u8, piece: Piece, boxes: Vec<FootBox>| {
            if !b.is_dirichlet() {
                members.push(piece);
                group_boxes.extend(boxes);
            } else {
                interior.push((stage, piece, boxes));
            }
        };
        // Stage 0: column triangles (shrink at both ends — the ends are
        // cross-lane seams, not halo).
        for tri in 0..d.ntri() {
            let (mut jlo, mut jhi) = (usize::MAX, 0usize);
            for ss in 0..hh {
                let (a, c) = d.tri(tri, ss);
                if a < c {
                    jlo = jlo.min(a);
                    jhi = jhi.max(c);
                }
            }
            place(0, Piece::Tri(tri), lane_boxes(geo, jlo, jhi, r));
        }
        // Stage 1: interior inverted column tiles + per-lane seam tiles
        // (+ tail strip on the rightmost seam).
        for bnd in 1..d.ntri() {
            let jlo = (bnd * d.w).saturating_sub(r * (hh - 1));
            let jhi = (bnd * d.w + r * (hh - 1)).min(geo.cols).max(jlo);
            place(1, Piece::Inv(bnd), lane_boxes(geo, jlo, jhi, r));
        }
        for lam in 0..=geo.vl {
            let c = (lam * geo.cols) as i64;
            let reach = (r * (hh - 1) + r) as i64;
            let hi = if lam == geo.vl {
                n as i64 + r as i64 // tail strip advances every step
            } else {
                (c + reach).min(n as i64)
            };
            place(1, Piece::Seam(lam), vec![box1(c - reach, hi)]);
        }
        if !members.is_empty() {
            wave.push(chunk, 0, group_boxes, ColNode::Edge { members, tau, hh });
        }
        interior.sort_by_key(|&(stage, ..)| stage);
        for (stage, piece, boxes) in interior {
            wave.push(chunk, stage, boxes, ColNode::Tile { piece, tau, hh });
        }
        tau += hh;
        chunk += 1;
    }
    wave.run(pool, pool.current_num_threads(), |_w, node| match node {
        ColNode::Tile { piece, tau, hh } => {
            for ss in 0..*hh {
                piece.step(st, geo, d, ss, *tau);
            }
        }
        ColNode::Edge { members, tau, hh } => {
            for ss in 0..*hh {
                // Fold sources at level `tau + ss` are the outermost
                // original-space cells — owned by this group's own
                // members, which step in lockstep.
                unsafe { halo::refresh_row(bufs[(tau + ss) % 2].0, n, r, b, &map) };
                for &piece in members {
                    piece.step(st, geo, d, ss, *tau);
                }
            }
        }
    });
}

/// One wavefront node of the hybrid driver: an outer-axis tile, or the
/// fused pair of domain-edge triangles (whose halo-slab builds read each
/// other's slabs under periodic folds).
enum HNode {
    Tile {
        shape: Shape,
        tau: usize,
        hh: usize,
    },
    Edge {
        members: Vec<Shape>,
        tau: usize,
        hh: usize,
    },
}

/// Step `t` levels of a 2D/3D stencil over pre-transformed DLT staging
/// buffers under SDSL-style hybrid tiling: split tiling (triangle base
/// `d.w`, chunk height `h`) over the outermost real axis of `st.geo`,
/// full DLT rows inside, wavefront-scheduled. Outer-axis tiles carry
/// radius-extended reach boxes; the domain-edge tiles fuse into one group
/// per chunk when the boundary needs refreshing. Every tile owns whole
/// slabs, so it refreshes the halos of exactly the slabs it reads (its
/// own previous-step output) before each step — the per-band
/// benign-race contract of [`super::par`]. The step-`t` result lands in
/// `bufs[t % 2]`.
pub(crate) fn drive_outer<T: Elem>(
    st: &Stepper<'_, T>,
    d: &DimTiling,
    t: usize,
    h: usize,
    pool: &rayon::ThreadPool,
    b: Boundary,
) {
    let (geo, r) = (st.geo, st.k.radius());
    let axis = geo.ndim - 1;
    let map = RowMap::for_method::<T>(Method::Dlt, st.isa, geo.n[0]);
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
                if !b.is_dirichlet() && (lo < 0 || hi > d.n as i64) {
                    members.push(shape);
                    group_boxes.push(box1(lo, hi));
                } else {
                    interior.push((stage, shape, box1(lo, hi)));
                }
            }
        }
        if !members.is_empty() {
            wave.push(chunk, 0, group_boxes, HNode::Edge { members, tau, hh });
        }
        for (stage, shape, fb) in interior {
            wave.push(chunk, stage, vec![fb], HNode::Tile { shape, tau, hh });
        }
        tau += hh;
        chunk += 1;
    }
    let run_piece = |shape: &Shape, tau: usize, ss: usize| {
        let band = shape.range(d, ss);
        if band.0 < band.1 {
            let src = st.bufs[(tau + ss) % 2].0;
            unsafe { halo::refresh_band(src, geo, r, b, &map, band) };
            let mut bx = geo.interior();
            bx[axis] = band;
            st.step(bx, tau + ss);
        }
    };
    // Interior tiles step their own chunk; the edge group steps its
    // members in lockstep.
    wave.run(pool, pool.current_num_threads(), |_w, node| match node {
        HNode::Tile { shape, tau, hh } => {
            for ss in 0..*hh {
                run_piece(shape, *tau, ss);
            }
        }
        HNode::Edge { members, tau, hh } => {
            for ss in 0..*hh {
                for shape in members {
                    run_piece(shape, *tau, ss);
                }
            }
        }
    });
}
