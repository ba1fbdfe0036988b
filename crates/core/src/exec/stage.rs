//! Tile-resident transposed staging for the tessellate drivers.
//!
//! Under `TransLayout`/`TransLayout2` the global grid used to live in
//! transposed layout, so every wavefront tile step re-entered the
//! `*_tl` kernels against grid-global vl² sets — tile ranges rarely
//! align with set boundaries, so small tiles paid the scalar
//! `tl_read`/`tl_write` edge path on most of their cells, every step.
//! Staging inverts that: the global grid stays **natural**, and each
//! tile transposes its radius-extended footprint into a per-worker
//! arena slot once per time chunk, runs all `hh` chunk steps against
//! tile-local set geometry (where the `*_tl` interiors are wide again
//! and the 1D TL2 fused pair applies), and transposes back once on
//! chunk exit — O(tiles) transpose traffic per chunk instead of
//! O(tiles × hh).
//!
//! # Arena lifetime and coherence
//!
//! The arena is built once at plan compile time from the tessellation
//! geometry (the widest per-dimension [`reach1`] extent over every tile
//! shape) and reused across chunks and runs like the ring/DLT scratch.
//! Each worker owns one slot holding **both** time parities; a tile
//! stages in both global ping-pong buffers because its reads at chunk
//! step `ss` come from the parity of `tau + ss`, and cells it never
//! rewrites (e.g. the TL2 pipeline's in-register interiors) must write
//! back exactly the values the unstaged schedule would have left there.
//! Write-back copies only the tile's *owned* per-row, per-parity span
//! (the union of the tile's step ranges landing on that parity), so
//! concurrent same-stage tiles never touch the same cells; overlapping
//! spans across stages are ordered by the wavefront's footprint edges,
//! exactly like the unstaged writes they replace.
//!
//! [`reach1`]: super::tess::reach1

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use stencil_simd::{dispatch_elem, AlignedBuf, Elem, Isa, Vector};

use super::tess::Shape;
use super::tile::DimTiling;
use crate::layout::tl_transform_row;

/// Wall-time totals (nanoseconds) accumulated by the tiled staged
/// drivers, split by phase — see `PhaseCounters`. Retrieved via the
/// plans' `phase_totals()` accessors (the repo benchmark reports them
/// as `exec.stage.*_share`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Natural → tile-local transposed layout (chunk entry).
    pub stage_in_ns: u64,
    /// Kernel steps (staged tiles and edge-group members).
    pub compute_ns: u64,
    /// Tile-local transposed → natural write-back (chunk exit).
    pub stage_out_ns: u64,
    /// Whole-grid halo refreshes interleaved by the edge group.
    pub halo_ns: u64,
}

/// Cheap per-plan phase attribution for the tiled drivers: four atomic
/// nanosecond counters bumped once per tile phase / edge chunk-step, so
/// the staging win is measurable rather than inferred. Totals persist
/// across runs until [`PhaseCounters::reset`].
#[derive(Debug, Default)]
pub(crate) struct PhaseCounters {
    stage_in: AtomicU64,
    compute: AtomicU64,
    stage_out: AtomicU64,
    halo: AtomicU64,
}

impl PhaseCounters {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn add_stage_in(&self, since: Instant) {
        self.stage_in
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_compute(&self, since: Instant) {
        self.compute
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_stage_out(&self, since: Instant) {
        self.stage_out
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_halo(&self, since: Instant) {
        self.halo
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn totals(&self) -> PhaseTotals {
        PhaseTotals {
            stage_in_ns: self.stage_in.load(Ordering::Relaxed),
            compute_ns: self.compute.load(Ordering::Relaxed),
            stage_out_ns: self.stage_out.load(Ordering::Relaxed),
            halo_ns: self.halo.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.stage_in.store(0, Ordering::Relaxed);
        self.compute.store(0, Ordering::Relaxed);
        self.stage_out.store(0, Ordering::Relaxed);
        self.halo.store(0, Ordering::Relaxed);
    }
}

/// One worker's staging buffers: both time parities of the largest tile
/// footprint, plus reusable write-back span scratch.
pub(crate) struct ArenaSlot<T: Elem> {
    /// Ping-pong staged buffers, indexed by **global** time parity
    /// (`bufs[p]` mirrors the global buffer of parity `p`). Each buffer
    /// carries `T::PAD` extra elements (one 64-byte line) at both ends:
    /// the `*_tl` kernels' edge-set overhangs read raw cells `±r`
    /// around the transposed region of the first and last staged rows
    /// even when those lanes are discarded, so the pad keeps them
    /// in-allocation. Access goes through [`ArenaSlot::origin`].
    bufs: [AlignedBuf<T>; 2],
    /// Per-row owned write-back spans in local x coordinates, reused
    /// across tiles (`(u32::MAX, 0)` marks an empty row).
    pub(crate) spans: Vec<(u32, u32)>,
}

impl<T: Elem> ArenaSlot<T> {
    /// The staged origin of parity `p`: row 0's first interior element,
    /// one pad line into the allocation (still 64-byte aligned — the
    /// pad is exactly `T::PAD` elements).
    #[inline]
    pub(crate) fn origin(&mut self, p: usize) -> *mut T {
        unsafe { self.bufs[p].as_mut_ptr().add(T::PAD) }
    }
}

/// The per-plan staging arena: one [`ArenaSlot`] per pool worker, sized
/// at plan build time for the widest tile footprint the tessellation
/// can produce. The mutexes are uncontended (each wavefront worker
/// locks only its own slot); they exist to hand out `&mut` access from
/// the `&self` the drivers share across threads.
pub(crate) struct TileArena<T: Elem> {
    /// Staged row stride in elements (64-byte multiple, so every staged
    /// row starts cache-line-aligned for the in-register transpose).
    pub(crate) sxs: usize,
    /// Staged plane stride in elements (`sxs ×` max staged y-extent).
    pub(crate) sys: usize,
    slots: Vec<Mutex<ArenaSlot<T>>>,
}

impl<T: Elem> TileArena<T> {
    /// Size the arena for a tessellation: per dimension, the widest
    /// radius-extended reach over every tile shape (triangles absorb up
    /// to `n mod w` extra cells; inverted triangles grow with `h`).
    pub(crate) fn for_tess(dims: &[DimTiling], h: usize, r: usize, workers: usize) -> Self {
        let wmax: Vec<usize> = dims.iter().map(|d| max_reach_width(d, h, r)).collect();
        let sxs = wmax[0].div_ceil(T::PAD) * T::PAD;
        let hy = wmax.get(1).copied().unwrap_or(1);
        let hz = wmax.get(2).copied().unwrap_or(1);
        let sys = sxs * hy;
        // One pad line at each end for the kernels' raw edge-set reads
        // (see [`ArenaSlot::bufs`]).
        let len = sys * hz + 2 * T::PAD;
        let slots = (0..workers.max(1))
            .map(|_| {
                Mutex::new(ArenaSlot {
                    bufs: [AlignedBuf::zeroed(len), AlignedBuf::zeroed(len)],
                    spans: Vec::new(),
                })
            })
            .collect();
        TileArena { sxs, sys, slots }
    }

    /// Borrow worker `w`'s slot for the duration of one tile chunk.
    pub(crate) fn slot(&self, w: usize) -> MutexGuard<'_, ArenaSlot<T>> {
        self.slots[w % self.slots.len()]
            .lock()
            .expect("tile arena slot")
    }

    /// Bytes held by the staged buffers (for capacity introspection).
    #[allow(dead_code)]
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * 2 * self.sys * std::mem::size_of::<T>()
    }
}

/// Widest radius-extended footprint any tile shape reaches along `d`
/// over a chunk of `h` steps.
fn max_reach_width(d: &DimTiling, h: usize, r: usize) -> usize {
    let mut w = 1i64;
    for inverted in [false, true] {
        for shape in Shape::all(d, inverted) {
            let (lo, hi) = super::tess::reach1(d, shape, h, r);
            w = w.max(hi - lo);
        }
    }
    w as usize
}

#[allow(clippy::too_many_arguments)]
unsafe fn stage_in_impl<V: Vector>(
    src: *const V::Elem,
    rs: usize,
    ps: usize,
    dst: *mut V::Elem,
    sxs: usize,
    sys: usize,
    wx: usize,
    cx: (usize, usize),
    cy: (usize, usize),
    cz: (usize, usize),
) {
    for z in cz.0..cz.1 {
        for y in cy.0..cy.1 {
            let s = src.add(z * ps + y * rs + cx.0);
            let d = dst.add(z * sys + y * sxs);
            std::ptr::copy_nonoverlapping(s, d.add(cx.0), cx.1 - cx.0);
            tl_transform_row::<V>(d, wx);
        }
    }
}

/// Copy the natural-layout sub-box `cz × cy × cx` (local coordinates)
/// of a tile footprint rooted at `src` (global row stride `rs`, plane
/// stride `ps`) into the arena rooted at `dst`, then transform every
/// touched staged row — full `wx` width — into tile-local transposed
/// layout for `isa`'s lane width. The copy box is per-parity tight:
/// cells outside it stay garbage in the arena, which is safe because
/// compute reads and write-back spans are subsets of the copied box
/// (and copying them would race with same-stage neighbors' write-backs
/// at this parity).
///
/// # Safety
/// `src` must be readable over the copy box (halo cells included),
/// `dst` writable over `cz.1 × sys` elements with `sxs ≥ wx ≥ cx.1`,
/// and staged rows 64-byte aligned (the arena guarantees this).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn stage_in<T: Elem>(
    isa: Isa,
    src: *const T,
    rs: usize,
    ps: usize,
    dst: *mut T,
    sxs: usize,
    sys: usize,
    wx: usize,
    cx: (usize, usize),
    cy: (usize, usize),
    cz: (usize, usize),
) {
    dispatch_elem!(
        isa,
        T,
        stage_in_impl::<V>(src, rs, ps, dst, sxs, sys, wx, cx, cy, cz)
    );
}

#[allow(clippy::too_many_arguments)]
unsafe fn unstage_impl<V: Vector>(
    arena: *mut V::Elem,
    sxs: usize,
    sys: usize,
    dst: *mut V::Elem,
    rs: usize,
    ps: usize,
    wx: usize,
    hy: usize,
    spans: &[(u32, u32)],
) {
    for (idx, &(x0, x1)) in spans.iter().enumerate() {
        if x0 >= x1 {
            continue;
        }
        let (z, y) = (idx / hy, idx % hy);
        let row = arena.add(z * sys + y * sxs);
        // The transform is an involution: one pass restores natural
        // order, then the owned span is a straight copy. Rows are only
        // ever listed once per parity, so in-place is safe.
        tl_transform_row::<V>(row, wx);
        std::ptr::copy_nonoverlapping(
            row.add(x0 as usize),
            dst.add(z * ps + y * rs + x0 as usize),
            (x1 - x0) as usize,
        );
    }
}

/// Write one parity of a staged tile back to the natural global grid:
/// rows with a non-empty owned span (indexed `z·hy + y`, local x
/// coordinates) are transformed back to natural order in place, then
/// the span is copied to `dst` (rooted at the tile's local origin).
///
/// # Safety
/// Same bounds contract as [`stage_in`]; spans must lie within
/// `[0, wx)` and rows must still hold the tile-local transposed layout
/// (each row is transformed exactly once per call).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn unstage<T: Elem>(
    isa: Isa,
    arena: *mut T,
    sxs: usize,
    sys: usize,
    dst: *mut T,
    rs: usize,
    ps: usize,
    wx: usize,
    hy: usize,
    spans: &[(u32, u32)],
) {
    dispatch_elem!(
        isa,
        T,
        unstage_impl::<V>(arena, sxs, sys, dst, rs, ps, wx, hy, spans)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SetGeo;

    #[test]
    fn arena_sizing_covers_widest_reach() {
        // n=125, w=24 → last triangle base is 24 + 5 spare; with r=1 and
        // h=6 the widest tri reach is (24 + 5) + 2r and the widest inv
        // reach is 2·r·(h−1) + 2r.
        let d = DimTiling::new(125, 24, 1, true);
        let a = TileArena::<f64>::for_tess(&[d], 6, 1, 2);
        assert!(a.sxs >= 31, "sxs {} too small for widest triangle", a.sxs);
        assert_eq!(a.sxs % f64::PAD, 0);
        assert_eq!(a.sys, a.sxs);
        assert!(a.bytes() >= 2 * 2 * a.sxs * 8);
    }

    #[test]
    fn stage_roundtrip_is_identity_on_owned_span() {
        let isa = Isa::Portable4;
        let n = 53usize;
        let src: Vec<f64> = (0..n).map(|i| i as f64 + 0.25).collect();
        let sxs = n.div_ceil(f64::PAD) * f64::PAD;
        let mut arena = AlignedBuf::<f64>::zeroed(sxs);
        let mut out = vec![0.0f64; n];
        unsafe {
            stage_in::<f64>(
                isa,
                src.as_ptr(),
                0,
                0,
                arena.as_mut_ptr(),
                sxs,
                0,
                n,
                (0, n),
                (0, 1),
                (0, 1),
            );
            // Staged row really is in transposed layout.
            let g = SetGeo::new(n, isa.lanes_for::<f64>());
            for i in 0..n {
                assert_eq!(
                    crate::layout::tl_read(arena.as_ptr(), i as isize, &g),
                    src[i]
                );
            }
            unstage::<f64>(
                isa,
                arena.as_mut_ptr(),
                sxs,
                0,
                out.as_mut_ptr(),
                0,
                0,
                n,
                1,
                &[(3, 47)],
            );
        }
        for i in 0..n {
            let expect = if (3..47).contains(&i) { src[i] } else { 0.0 };
            assert_eq!(out[i], expect, "cell {i}");
        }
    }
}
