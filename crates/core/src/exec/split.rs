//! The 1D split tiling driver over the **DLT layout** — the SDSL stand-in
//! (Henretty et al., ICS'13): DLT vectorization plus split (triangle /
//! inverted trapezoid) temporal tiling of a row's DLT *column space*.
//!
//! Tiling runs in column space (`j ∈ [0, cols)`). A column tile is `vl`
//! distant original-space segments — which is precisely the locality
//! loss the paper attributes to DLT under blocking (§2.2/§3.1): an
//! L1-sized column tile touches `vl` separate memory regions. Column
//! triangles shrink at the `j`-edges too (the edges are cross-lane seams,
//! not halo); the uncovered seam space-time is handled by per-seam scalar
//! tiles in original coordinates, one per lane boundary, plus the natural
//! tail strip.
//!
//! Split tiling of a 2D/3D grid needs no driver of its own: it is the
//! tessellation whose tiles span every axis but the outermost, and runs
//! through [`super::tess`]. An untiled *parallel* 1D DLT row runs here
//! as a chunk height of 1: the column triangles are then the per-thread
//! column bands (scalar fringes `[0, r)` and `[cols − r, cols)` in every
//! lane), the inverted tiles and inner seams are empty, and the rightmost
//! seam is the tail strip.
//!
//! Like [`super::tess`], the driver is **parameterized by the plan**: it
//! steps pre-transformed DLT ping-pong buffers on a caller-owned pool
//! (the DLT round-trip lives in the `Plan`/`Session` engine) and is
//! scheduled by the wavefront graph in [`super::wave`].
//!
//! Under a refreshed boundary each chunk runs as a single lockstep group
//! that interleaves a whole-row halo refresh with each chunk step (a
//! per-level sweep — structurally the untiled schedule). Column tiles run
//! in column space but depend on each other in *original* space, so the
//! halo fold sources and the edge seams' intermediate-level reads chain
//! through interior pieces, and the member closure is geometry-dependent;
//! column space is only `n/vl` wide, so little parallelism is lost.

use stencil_simd::Elem;

use super::halo::{self, Boundary, RowMap};
use super::tess::Stepper;
use super::tile::DimTiling;
use super::wave::{box1, FootBox, Wave};
use crate::kernels::Kernel;
use crate::layout::DltGeo;

/// Scalar update of DLT columns `[j0, j1)` across all lanes (mapped).
///
/// # Safety
/// Standard row contracts; used for seam-adjacent column fragments.
unsafe fn dlt_cols_scalar<T: Elem>(
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
    /// The cells this piece updates at chunk step `ss` (possibly empty):
    /// DLT columns for `Tri`/`Inv`, original cells around `lam·cols` for
    /// `Seam` — the rightmost seam also owns the natural tail strip,
    /// which advances every step.
    fn range(self, geo: &DltGeo, d: &DimTiling, ss: usize) -> (usize, usize) {
        let reach = d.r * ss;
        let (c, hi) = match self {
            Piece::Tri(tri) => return d.tri(tri, ss),
            Piece::Inv(bnd) => (bnd * d.w, (bnd * d.w + reach).min(geo.cols)),
            Piece::Seam(lam) if lam == geo.vl => (geo.region, geo.n),
            Piece::Seam(lam) => (lam * geo.cols, (lam * geo.cols + reach).min(geo.n)),
        };
        (c.saturating_sub(reach), hi)
    }

    /// Run chunk step `ss` of this piece (absolute time `tau + ss`).
    fn step<T: Elem>(
        self,
        st: &Stepper<'_, T>,
        geo: &DltGeo,
        d: &DimTiling,
        ss: usize,
        tau: usize,
    ) {
        let (lo, hi) = self.range(geo, d, ss);
        if lo >= hi {
            return;
        }
        let time = tau + ss;
        match self {
            Piece::Tri(_) | Piece::Inv(_) => col_step(st, geo, lo, hi, time),
            Piece::Seam(_) => {
                let Stepper { k, bufs, .. } = *st;
                let (src, dst) = (bufs[time % 2].0.cast_const(), bufs[(time + 1) % 2].0);
                // SAFETY: the plan prepared both buffers with halo pads,
                // and `lo < hi ≤ n` by `range`. Seam cells read across
                // lane boundaries, so they go through the index map.
                unsafe { k.dlt_scalar(src, dst, lo, hi, geo) };
            }
        }
    }

    /// Original-space footprint over a chunk of `hh` steps, or `None`
    /// when the piece updates no cell in the whole chunk. A column piece
    /// is one radius-extended box per lane segment (the `±r` extension
    /// also captures the cross-lane seam reads of the scalar fringes); a
    /// seam is one box.
    fn footprint(self, geo: &DltGeo, d: &DimTiling, hh: usize) -> Option<Vec<FootBox>> {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for ss in 0..hh {
            let (a, b) = self.range(geo, d, ss);
            if a < b {
                lo = lo.min(a);
                hi = hi.max(b);
            }
        }
        if lo >= hi {
            return None;
        }
        let r = d.r as i64;
        let (lo, hi) = (lo as i64 - r, hi as i64 + r);
        Some(match self {
            Piece::Seam(_) => vec![box1(lo, hi)],
            _ => (0..geo.vl)
                .map(|lam| {
                    let base = (lam * geo.cols) as i64;
                    box1(base + lo, base + hi)
                })
                .collect(),
        })
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
    /// order, stepped in lockstep behind a per-step whole-row halo
    /// refresh (a per-level sweep, structurally identical to untiled
    /// stepping — see the module docs).
    Edge {
        members: Vec<Piece>,
        tau: usize,
        hh: usize,
    },
}

/// Step `t` levels of a 1D star stencil over pre-transformed DLT
/// ping-pong buffers under split tiling of the column space (column
/// triangles of base `w`, chunk height `h`), wavefront-scheduled on
/// `pool`. Caller guarantees `geo.cols > 4·r` (the plan steps narrower
/// rows sequentially). The step-`t` result lands in `bufs[t % 2]`.
pub(crate) fn drive_cols<T: Elem>(
    st: &Stepper<'_, T>,
    geo: &DltGeo,
    w: usize,
    t: usize,
    h: usize,
    pool: &rayon::ThreadPool,
    b: Boundary,
) {
    let (bufs, n, r) = (st.bufs, geo.n, st.k.radius());
    let d = DimTiling::new(geo.cols, w.min(geo.cols), r, false);
    let map = RowMap::Dlt(*geo);
    let mut wave = Wave::new();
    let (mut tau, mut chunk) = (0usize, 0usize);
    while tau < t {
        let hh = h.min(t - tau);
        // Stage 0: column triangles (shrink at both ends — the ends are
        // cross-lane seams, not halo). Stage 1: interior inverted column
        // tiles + per-lane seam tiles (+ tail strip on the rightmost).
        let pieces = (0..d.ntri())
            .map(|tri| (0, Piece::Tri(tri)))
            .chain((1..d.ntri()).map(|bnd| (1, Piece::Inv(bnd))))
            .chain((0..=geo.vl).map(|lam| (1, Piece::Seam(lam))))
            .filter_map(|(stage, piece)| Some((stage, piece, piece.footprint(geo, &d, hh)?)));
        if b.is_dirichlet() {
            for (stage, piece, boxes) in pieces {
                wave.push(chunk, stage, boxes, ColNode::Tile { piece, tau, hh });
            }
        } else {
            let (mut members, mut group_boxes) = (Vec::new(), Vec::new());
            for (_, piece, boxes) in pieces {
                members.push(piece);
                group_boxes.extend(boxes);
            }
            wave.push(chunk, 0, group_boxes, ColNode::Edge { members, tau, hh });
        }
        tau += hh;
        chunk += 1;
    }
    wave.run(pool, pool.current_num_threads(), |_w, node| match node {
        ColNode::Tile { piece, tau, hh } => {
            for ss in 0..*hh {
                piece.step(st, geo, &d, ss, *tau);
            }
        }
        ColNode::Edge { members, tau, hh } => {
            for ss in 0..*hh {
                // Fold sources at level `tau + ss` are the outermost
                // original-space cells — owned by this group's own
                // members, which step in lockstep.
                unsafe { halo::refresh_row(bufs[(tau + ss) % 2].0, n, r, b, &map) };
                for &piece in members {
                    piece.step(st, geo, &d, ss, *tau);
                }
            }
        }
    });
}
