//! Time-loop **unroll-and-jam** kernels (paper §3.3, Algorithm 1): advance
//! the grid several time steps per memory round-trip.
//!
//! 1D is the paper's algorithm verbatim: a software pipeline of `k = 2`
//! vector sets held in registers. Each iteration loads one set at time
//! `t`, forwards the in-flight sets one step each (the younger one using
//! the freshly updated right neighbour), and stores one set at `t+2` — so
//! each `vl²` block is read once and written once per *two* steps,
//! doubling the in-CPU flops/byte ratio. The `vrl` vectors preserve each
//! set's left neighbour at the pre-update time level, exactly as in
//! Algorithm 1. Because input and output live at even time levels, the
//! update is legally **in place** (§3.3's space-saving observation).
//!
//! The pipeline is written once, [`star1_tl2_sets`], over a range of
//! vector sets that reads no cell outside them: the `R` cells past each
//! end come in as values at `t` and `t+1`, and the `t+1` values of its
//! first and last sets go back out. Its two callers supply those margins:
//! the in-place whole-row pass ([`star1_tl2_row`]) from the halo and the
//! scalar tail, computed from time-`t` memory before the pipeline runs,
//! and a tessellation tile (`Kernel::pass2_range`, paper §3.4) from the
//! two ping-pong parities.
//!
//! 2D/3D: Algorithm 1 is defined for one dimension; the register file
//! cannot hold the `t+1` values of all neighbouring rows. We pipeline
//! along the outermost dimension instead, keeping `k - 1` ring levels of
//! `2R+1` rows (2D) or planes (3D) each, at `t+1 … t+k-1`, in an
//! L2-resident scratch buffer. Main-array traffic is one read + one write
//! per point per `k` steps — the property that produces the paper's
//! Fig. 7/8 gains — while the ring stays cache-hot. The plan picks `k`
//! from the L2 size under every boundary. This substitution is
//! documented in `docs/ARCHITECTURE.md` ("Kernel notes").
//!
//! A refreshed (periodic / reflect) boundary changes the halo every
//! step, so a fused pass must produce each level's halo itself. A
//! refreshed halo cell at `t + j` is a *bit-copy* (fold) of an interior
//! cell at `t + j` — never a stencil application at the halo position,
//! which under reflect would pair the weights in reversed order. So the
//! pass computes the fold sources in the kernels' canonical order and
//! copies them: x halos row by row as each level's row is made, and the
//! out-of-range rows or planes from **edge strips** — the slabs nearest
//! each edge, advanced level by level before the sweep (see
//! [`grid2_pass`]). 1D computes its two `t+1` edge folds scalar before
//! the pipeline ([`edges_t1`]) and hands them to it as margins.

use stencil_simd::{Elem, Isa, Vector};

use super::isa_entry;
use super::orig::splat_w;
use super::row::{Row2, Row3};
use super::tl::xpart_set;
use crate::exec::halo::{
    fold_src, refresh, refresh_row, BandPass, Boundary, PassTask, RowMap, MAX_DEPTH,
};
use crate::layout::{tl_read, SetGeo};
use crate::stencil::{Star1, MAX_R};

/// Cells in the widest vector set block: 16 f32 lanes give `vl² = 256`.
const SET: usize = 16 * 16;

/// One set block of cells, aligned for the vector stores that fill it.
#[repr(align(64))]
struct SetBlock<T>([T; SET]);

/// The margin cells a pipeline over the cells `[a, b)` reads, as values:
/// `[left, right]`, each `[at t, at t+1]`; `left[_][q]` is cell
/// `a - R + q` and `right[_][q]` is cell `b + q`.
pub type Margins<T> = [[[T; MAX_R]; 2]; 2];

#[inline(always)]
unsafe fn load_set<V: Vector>(row: *const V::Elem, set: usize) -> [V; 16] {
    let l = V::LANES;
    let base = set * l * l;
    let mut v = [V::zero(); 16];
    for j in 0..l {
        v[j] = V::load(row.add(base + j * l));
    }
    v
}

#[inline(always)]
unsafe fn store_set<V: Vector>(row: *mut V::Elem, set: usize, v: &[V; 16]) {
    let l = V::LANES;
    let base = set * l * l;
    for j in 0..l {
        v[j].store(row.add(base + j * l));
    }
}

#[inline(always)]
fn first_r<V: Vector>(v: &[V; 16], r: usize) -> [V; MAX_R] {
    let mut f = [v[0]; MAX_R];
    f[..r].copy_from_slice(&v[..r]);
    f
}

#[inline(always)]
fn last_r<V: Vector>(v: &[V; 16], r: usize) -> [V; MAX_R] {
    let l = V::LANES;
    let mut f = [v[0]; MAX_R];
    for q in 0..r {
        f[q] = v[l - r + q];
    }
    f
}

/// Algorithm 1's `Compute`: update a set in place by one time step.
#[inline(always)]
unsafe fn update_set<V: Vector>(
    v: &mut [V; 16],
    prev_last: &[V; MAX_R],
    next_first: &[V; MAX_R],
    wv: &[V; 2 * MAX_R + 1],
    r: usize,
) {
    let mut out = [V::zero(); 16];
    xpart_set::<V>(v, prev_last, next_first, wv, r, &mut out);
    *v = out;
}

/// One scalar cell update from its `2R + 1` inputs `x(0..=2R)` (offsets
/// `-R..=R`), in the canonical accumulation order — bit-identical to the
/// vector sets' (`mul_add` is correctly rounded in any feature context).
#[inline(always)]
fn apply<T: Elem>(w: &[f64], x: impl Fn(usize) -> T) -> T {
    let mut acc = T::from_f64(w[0]) * x(0);
    for o in 1..w.len() {
        acc = x(o).mul_add(T::from_f64(w[o]), acc);
    }
    acc
}

/// The `t+1` halo values of a whole row, as `[lt1, rt1]` (`lt1[q]` is
/// halo cell `q - R`, `rt1[q]` halo cell `n + q`): the halo itself under
/// Dirichlet, whose constant halo is its own `t+1` level; else the folds
/// of the `2R` edge-interior cells advanced one step, computed scalar.
///
/// # Safety
/// `buf` points at the interior origin of a transposed row of `geo.n`
/// cells whose halo holds time `t`; `geo.n ≥ S::R`.
pub unsafe fn edges_t1<T: Elem, S: Star1>(
    buf: *const T,
    geo: &SetGeo,
    b: Boundary,
    s: &S,
) -> [[T; MAX_R]; 2] {
    let (r, n) = (S::R, geo.n);
    let mut lt1 = [T::ZERO; MAX_R];
    let mut rt1 = [T::ZERO; MAX_R];
    if b.is_dirichlet() {
        for q in 0..r {
            lt1[q] = *buf.offset(q as isize - r as isize);
            rt1[q] = *buf.add(n + q);
        }
        return [lt1, rt1];
    }
    let cell_t1 = |i: usize| apply(s.w(), |o| tl_read(buf, (i + o) as isize - r as isize, geo));
    // Halo cell `q - R` is `lt1[q]`, halo cell `n + q` is `rt1[q]`.
    for m in 1..=r {
        lt1[r - m] = cell_t1(fold_src(n, m, true, b));
        rt1[m - 1] = cell_t1(fold_src(n, m, false, b));
    }
    [lt1, rt1]
}

/// Advance the sets `[sa, sb)` of a transposed row **two** time steps in
/// place: paper Algorithm 1 (k = 2), the one register pipeline of both
/// the whole-row pass ([`star1_tl2_row`]) and the tessellation tiles
/// (`Kernel::pass2_range`, paper §3.4). Each iteration loads one set at
/// `t`, forwards the two sets in flight one step each, and stores one set
/// at `t+2`.
///
/// The pipeline reads no cell of `buf` outside its sets: its margin
/// dependences come in `edge` as values, the `R` cells past each end at
/// `t` and at `t+1` ([`Margins`]). It hands back the `t+1` values of its
/// first and last sets, one set block each, at `t1[0]` and `t1[1]`
/// (first, then last: a caller that wants only the last may pass one
/// block twice).
///
/// # Safety
/// `buf` points at the interior origin of a row in transpose layout whose
/// sets `[sa, sb)` are full sets holding time `t`; `sb - sa ≥ 2`;
/// `S::R ≤ V::LANES`; `t1[0]` and `t1[1]` are each valid for one set
/// block (`V::LANES²` cells), aligned as a set of the row is, and
/// overlap no set of the range.
#[inline(always)]
pub unsafe fn star1_tl2_sets<V: Vector, S: Star1>(
    buf: *mut V::Elem,
    sa: usize,
    sb: usize,
    edge: &Margins<V::Elem>,
    t1: [*mut V::Elem; 2],
    s: &S,
) {
    let r = S::R;
    debug_assert!(sb >= sa + 2 && r <= V::LANES);
    let wv: [V; 2 * MAX_R + 1] = splat_w(s.w());
    let cbuf = buf.cast_const();
    // A margin cell fills every lane of its vector: the set update reads
    // the left one from lane `vl-1`, the right one from lane 0.
    let [[lt, lt1], [rt, rt1]] = edge.map(|side| {
        side.map(|cells| {
            let mut v = [V::zero(); MAX_R];
            for q in 0..r {
                v[q] = V::splat(cells[q]);
            }
            v
        })
    });

    // Booting computation (Algorithm 1 line 30): set sa → t+1, exported.
    let mut vs1 = load_set::<V>(cbuf, sa);
    let mut vs2 = load_set::<V>(cbuf, sa + 1);
    let mut vrl1 = last_r(&vs1, r); // set sa @ t
    update_set(&mut vs1, &lt, &first_r(&vs2, r), &wv, r);
    store_set(t1[0], 0, &vs1);
    let mut vrl0 = lt1; // "set sa-1" @ t+1

    // Steady state (Algorithm 1 lines 15–26): load set m, forward the two
    // in-flight sets, store the set that reached t+2.
    for m in sa + 2..sb {
        let vs3 = load_set::<V>(cbuf, m);
        let vrl2 = last_r(&vs2, r); // set m-1 @ t
        update_set(&mut vs2, &vrl1, &first_r(&vs3, r), &wv, r); // set m-1 → t+1
        let vrl1_new = last_r(&vs1, r); // set m-2 @ t+1
        update_set(&mut vs1, &vrl0, &first_r(&vs2, r), &wv, r); // set m-2 → t+2
        store_set(buf, m - 2, &vs1);
        vs1 = vs2;
        vs2 = vs3;
        vrl0 = vrl1_new;
        vrl1 = vrl2;
    }

    // Epilogue: the last set's right neighbours are the right margin.
    update_set(&mut vs2, &vrl1, &rt, &wv, r); // set sb-1 → t+1
    store_set(t1[1], 0, &vs2);
    let vrl1_new = last_r(&vs1, r);
    update_set(&mut vs1, &vrl0, &first_r(&vs2, r), &wv, r); // set sb-2 → t+2
    store_set(buf, sb - 2, &vs1);
    update_set(&mut vs2, &vrl1_new, &rt1, &wv, r); // set sb-1 → t+2
    store_set(buf, sb - 1, &vs2);
}

/// Advance a 1D star stencil **two** time steps, in place, on a whole
/// transposed row of `n` cells under boundary `b`: [`star1_tl2_sets`]
/// over every full set, with the scalar tail around it.
///
/// 1. From time-`t` memory: the `t+1` halo ([`edges_t1`]) and the tail's
///    `t+1` cells.
/// 2. The pipeline over sets `[0, nsets)`; its margins are the halo on
///    the left and the tail (or the halo) on the right, at `t` and `t+1`.
/// 3. The tail's `t+2` cells, from the last set's exported `t+1` values.
///
/// # Safety
/// `buf` points at the interior origin of a row in transpose layout with
/// halos addressable and holding time `t`; the row holds at least two
/// full sets at `isa`'s lane count, which is at least `S::R`; `isa` is
/// available on this CPU (checked).
pub unsafe fn star1_tl2_row<T: Elem, S: Star1>(
    isa: Isa,
    buf: *mut T,
    n: usize,
    b: Boundary,
    s: &S,
) {
    let geo = SetGeo::new(n, isa.lanes_for::<T>());
    let (r, ts, w) = (S::R, geo.tail_start, s.w());
    let tail = n - ts;
    let [lt1, rt1] = edges_t1(buf, &geo, b, s);
    // Cells `ts ..` at t+1: the tail, then the right halo.
    let mut right = [T::ZERO; SET + MAX_R];
    for i in 0..tail {
        right[i] = apply(w, |o| {
            tl_read(buf, (ts + i + o) as isize - r as isize, &geo)
        });
    }
    right[tail..tail + r].copy_from_slice(&rt1[..r]);
    let mut edge = [[[T::ZERO; MAX_R], lt1], [[T::ZERO; MAX_R]; 2]];
    for q in 0..r {
        edge[0][0][q] = *buf.offset(q as isize - r as isize);
        edge[1][0][q] = *buf.add(ts + q);
        edge[1][1][q] = right[q];
    }
    let mut last = SetBlock([T::ZERO; SET]);
    let t1 = [last.0.as_mut_ptr(); 2];
    isa_entry::star1_tl2_sets(isa, buf, 0, geo.nsets, &edge, t1, s);
    // The last set's block is a transposed row of one set.
    let one = SetGeo::new(geo.bs, geo.vl);
    let at_t1 = |j: usize| match j.checked_sub(r) {
        Some(i) => right[i],
        None => last.0[one.map(geo.bs + j - r)],
    };
    for i in 0..tail {
        *buf.add(ts + i) = apply(w, |o| at_t1(i + o));
    }
}

/// Copy a row's left/right pad regions (halo cells and alignment padding).
#[inline(always)]
unsafe fn copy_pads<T: Elem>(src_row: *const T, dst_row: *mut T, nx: usize) {
    std::ptr::copy_nonoverlapping(
        src_row.offset(-(T::PAD as isize)),
        dst_row.offset(-(T::PAD as isize)),
        T::PAD,
    );
    std::ptr::copy_nonoverlapping(src_row.add(nx), dst_row.add(nx), T::PAD);
}

/// What one task of a ring pass reads and writes (see `ring_pass`): the
/// main buffer, the task's band and ring, and the strips, with the
/// lookups that place a slab of a level in them.
struct Slabs<'a, T> {
    buf: *mut T,
    stride: usize,
    ring: *mut T,
    strips: *mut T,
    bp: &'a BandPass,
    b: Boundary,
    /// The band swept, its index and `[y0, y1)` (a seam task: unused).
    band: usize,
    y0: isize,
    y1: isize,
}

impl<T> Slabs<'_, T> {
    /// Main slab `i`, halo slabs included.
    #[inline(always)]
    unsafe fn at(&self, i: isize) -> *mut T {
        self.buf.offset(i * self.stride as isize)
    }

    /// Slab `i` (`< n`) of seam `s`'s level-`j` strip.
    #[inline(always)]
    unsafe fn strip(&self, s: usize, j: usize, i: usize) -> *mut T {
        let w = self.bp.window(s, j);
        self.strips.add(w.slot(i, self.bp.n) * self.stride)
    }

    /// Slot `q` of the band's level-`j` ring (`1 ≤ j < k`).
    #[inline(always)]
    unsafe fn ring_slot(&self, j: usize, q: usize) -> *mut T {
        let nr = 2 * self.bp.r + 1;
        self.ring.add(((j - 1) * nr + q) * self.stride)
    }

    /// Level-`j` slab `i` as a task finds it beyond what it computes
    /// itself: a halo index is the constant halo under Dirichlet, else
    /// its fold source in the wrap's strip (seam 0) or, for seam `s`'s
    /// own reads, in `s`'s strip; an interior index lies in the strip of
    /// seam `s`, or for a band, of the seam at the edge it is past.
    #[inline(always)]
    unsafe fn beyond(&self, s: Option<usize>, j: usize, i: isize) -> *mut T {
        let n = self.bp.n as isize;
        let (s, i) = match i {
            _ if (0..n).contains(&i) => {
                let s = s.unwrap_or(self.band + usize::from(i >= self.y1));
                (s, i as usize)
            }
            _ if self.b.is_dirichlet() => return self.at(i),
            _ if i < 0 => (
                s.unwrap_or(0),
                fold_src(self.bp.n, i.unsigned_abs(), true, self.b),
            ),
            _ => (
                s.unwrap_or(0),
                fold_src(self.bp.n, (i - n) as usize + 1, false, self.b),
            ),
        };
        self.strip(s, j, i)
    }

    /// The band's level-`j` slab `i`: its own inside the band (the main
    /// buffer at level 0, else ring slot `q`), else [`Slabs::beyond`].
    #[inline(always)]
    unsafe fn band_slab(&self, j: usize, i: isize, q: usize) -> *mut T {
        if i < self.y0 || i >= self.y1 {
            self.beyond(None, j, i)
        } else if j == 0 {
            self.at(i)
        } else {
            self.ring_slot(j, q)
        }
    }
}

/// The schedule both ring passes share, over slabs `stride` elements
/// apart along an outer axis (`lead` elements from a slab's start to its
/// interior origin), for one task of the fused pass `bp` (see
/// [`BandPass`]):
///
/// * `Seam(s)` fills seam `s`'s strips: level 0 as copies of the main
///   slabs, then level `j` of the window from level `j - 1`. It reads the
///   main buffer and writes only its own strips, so every seam of a pass
///   can be filled at once.
/// * `Band(b)` sweeps band `[y0, y1)` in place: iteration `y` advances
///   slab `y - (j-1)R` of every level `j` from level `j - 1`, so main slab
///   `y - (k-1)R` receives `t + k`. Level 0 and level `k` are the main
///   buffer, the levels between the band's ring. A read outside the band
///   goes to a seam's strip (its neighbour's slabs, or under a refreshed
///   boundary the fold source of a halo slab), or under Dirichlet to the
///   constant halo. It writes only the band's own main slabs, so once the
///   pass's seams are filled every band can sweep at once.
///
/// The sweep keeps, per level `j < k`, the sources of the next slab
/// level `j + 1` makes (`src[j]`), and shifts that window by one slab
/// after each use, appending the slab that enters it; ring slots rotate
/// through a per-level counter. So a row costs a pointer shift, not a
/// table rebuilt from divisions. The loop has one body with one call of
/// `slab(from, main, dst)`, which computes one slab into `dst` from the
/// `2R + 1` source slabs `from[..2R + 1]` (offsets `-R..=R`; a
/// fixed-length array, so the row kernel's constant offsets index it
/// unchecked); `dst == main` marks
/// the last level, any other `dst` a ring or strip slab, which must get
/// its own halos at its time level. It is the one call site of the row
/// kernel per rank.
///
/// Main slab `y` at `t` is last read by level 1 at iteration `y + R`, no
/// later than the iteration that overwrites it, and no other task reads
/// it after the seams are filled, so the update is in place for any
/// `k ≥ 2`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn ring_pass<T>(
    buf: *mut T,
    stride: usize,
    lead: usize,
    ring: *mut T,
    strips: *mut T,
    bp: &BandPass,
    task: PassTask,
    b: Boundary,
    mut slab: impl FnMut(&[*mut T; 2 * MAX_R + 1], *mut T, *mut T),
) {
    let (n, r, k) = (bp.n, bp.r, bp.k);
    debug_assert!((2..=MAX_DEPTH).contains(&k) && r <= MAX_R);
    let nr = 2 * r + 1;
    let (band, (y0, y1)) = match task {
        PassTask::Band(i) => (i, bp.bands[i]),
        PassTask::Seam(_) => (0, (0, 0)),
    };
    let io = Slabs {
        buf,
        stride,
        ring: ring.wrapping_add(band * bp.ring_slabs() * stride),
        strips,
        bp,
        b,
        band,
        y0: y0 as isize,
        y1: y1 as isize,
    };
    let mut src = [[buf; 2 * MAX_R + 1]; MAX_DEPTH];
    let mut slot = [0; MAX_DEPTH];
    // A seam's level-`j` window slot `q` next; a band's iteration `q`,
    // level `j` next.
    let (mut j, mut q) = (1, 0);
    match task {
        PassTask::Seam(s) => {
            // Level 0: the seam's slabs at `t`, whole (halo rows and pads
            // included), before any band overwrites them.
            let w = *bp.window(s, 0);
            for q in 0..w.len {
                let i = if w.lo + q < n { w.lo + q } else { w.lo + q - n };
                let dst = strips.add((w.off + q) * stride);
                std::ptr::copy_nonoverlapping(io.at(i as isize).sub(lead), dst.sub(lead), stride);
            }
        }
        PassTask::Band(_) => {
            q = y0;
            for (j, src) in src[..k].iter_mut().enumerate() {
                for (d, p) in src[..nr].iter_mut().enumerate() {
                    let i = (y0 + d) as isize - r as isize;
                    *p = io.band_slab(j, i, d.wrapping_sub(r));
                }
            }
        }
    }
    loop {
        let (from, main, dst);
        if let PassTask::Seam(s) = task {
            // Level `j` of the strip, window slot `q`, from level `j - 1`:
            // the main buffer at `t`, or the strip below.
            if j == k {
                break;
            }
            let w = bp.window(s, j);
            if q == w.len {
                (j, q) = (j + 1, 0);
                continue;
            }
            let i = if w.lo + q < n { w.lo + q } else { w.lo + q - n };
            let mut f = [buf; 2 * MAX_R + 1];
            for (d, f) in f[..nr].iter_mut().enumerate() {
                let i = (i + d) as isize - r as isize;
                *f = match i {
                    _ if j == 1 => io.at(i),
                    _ if (0..n as isize).contains(&i) => io.strip(s, j - 1, i as usize),
                    _ => io.beyond(Some(s), j - 1, i),
                };
            }
            (from, main, dst) = (f, io.at(i as isize), io.strip(s, j, i));
            q += 1;
        } else {
            // Iteration `q` advances slab `q - (j-1)R` of every level `j`;
            // levels run in order, so level `j - 1` has made the slab `R`
            // ahead before level `j` reads it.
            if j > k {
                (j, q) = (1, q + 1);
            }
            if q >= y1 + (k - 1) * r {
                break;
            }
            let y = q as isize - ((j - 1) * r) as isize;
            if y < io.y0 {
                j = k + 1;
                continue;
            }
            j += 1;
            if y >= io.y1 {
                continue;
            }
            let l = j - 2;
            (from, main) = (src[l], io.at(y));
            dst = if l + 1 == k {
                main
            } else {
                let s = slot[l + 1];
                slot[l + 1] = if s + 1 == nr { 0 } else { s + 1 };
                io.ring_slot(l + 1, s)
            };
            // Level `l`'s window moves on by one slab, if there is a next
            // one to make: the one level `l` makes next, into the slot its
            // counter names. A fixed-length shift; entries past `nr` are
            // unused.
            if y + 1 < io.y1 {
                let enter = io.band_slab(l, y + r as isize + 1, slot[l]);
                src[l].copy_within(1.., 0);
                src[l][nr - 1] = enter;
            }
        }
        slab(&from, main, dst);
    }
}

/// Advance a 2D stencil of family `K` **`k` steps** in place (`k ≥ 2`,
/// `bp.k`) via a row ring of `k - 1` levels (`ring_pass`'s schedule), one
/// task of the pass at a time. Ring level `j` (`1 ≤ j < k`) holds the
/// `2R+1` most recent rows of the band at time `t + j`. Every row made —
/// ring, strip, or main at `t + k` — has its x halos folded from its own
/// interior at once (the halo rows/planes of the outer axis are the
/// caller's: `exec::halo::refresh_outer`). Every level is the same
/// `row_tl` call, so the bits are those of `k` single steps with a halo
/// refresh between them.
///
/// `ring` points at the interior origin of row 0 of band 0's ring; level
/// `j` of band `b` starts `b · bp.ring_slabs() + (j-1)(2R+1)` rows after
/// it, every row with the grid's stride and pad structure. `strips`
/// points at the interior origin of the first strip row, laid out the
/// same way (see `BandPass::layout`).
///
/// # Safety
/// `buf` is a transposed 2D grid interior origin (halos addressable,
/// holding time `t`, `bp.n` rows); `ring` and `strips` valid for the rows
/// above; a band task runs after every seam task of the pass, and no two
/// tasks share a ring; under a refreshed boundary `ny ≥ R` and `map`
/// matches the row layout.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid2_pass<V: Vector, K: Row2>(
    buf: *mut V::Elem,
    rs: usize,
    nx: usize,
    ring: *mut V::Elem,
    strips: *mut V::Elem,
    bp: &BandPass,
    task: PassTask,
    b: Boundary,
    map: &RowMap,
    s: &K::S,
) {
    let (r, refreshed) = (K::R, !b.is_dirichlet());
    let lead = <V::Elem as Elem>::PAD;
    ring_pass(
        buf,
        rs,
        lead,
        ring,
        strips,
        bp,
        task,
        b,
        |from, main, dst| {
            K::row_tl::<V>(
                |dy| from[(dy + r as isize) as usize].cast_const(),
                dst,
                nx,
                0,
                nx,
                s,
            );
            // Tested after the row kernel only: a test on both sides of it
            // has the compiler duplicate the kernel per branch. Every row
            // folds its x halos as it is made, main rows too, while in cache.
            if dst != main {
                copy_pads(main, dst, nx);
            }
            if refreshed {
                refresh_row(dst, nx, r, b, map);
            }
        },
    );
}

/// Advance a 3D stencil of family `K` **`k` steps** in place via a plane
/// ring of `k - 1` levels: [`grid2_pass`] with planes for rows, each
/// plane made given its own 2D halo frame at its time level (per-axis
/// composition). `ring` and `strips` point at the
/// `(y=0, x=0)` origin of their first plane, every plane with the grid's
/// plane layout (`R` halo rows per side included).
///
/// # Safety
/// As [`grid2_pass`], with planes of `ps` elements (`bp.n` of them);
/// under a refreshed boundary `ny, nz ≥ R`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid3_pass<V: Vector, K: Row3>(
    buf: *mut V::Elem,
    rs: usize,
    ps: usize,
    nx: usize,
    ny: usize,
    ring: *mut V::Elem,
    strips: *mut V::Elem,
    bp: &BandPass,
    task: PassTask,
    b: Boundary,
    map: &RowMap,
    s: &K::S,
) {
    let (r, refreshed) = (K::R, !b.is_dirichlet());
    let pad = <V::Elem as Elem>::PAD;
    let plane = super::Geo {
        ndim: 2,
        n: [nx, ny, 1],
        rs,
        ps: 0,
        halo: r,
    };
    let lead = r * rs + pad;
    ring_pass(
        buf,
        ps,
        lead,
        ring,
        strips,
        bp,
        task,
        b,
        |from, main, dp| {
            let level = dp != main;
            if level {
                // The plane's constant halo rows (full stride rows).
                for d in 1..=r as isize {
                    for row in [-d, ny as isize + d - 1] {
                        let o = row * rs as isize - pad as isize;
                        std::ptr::copy_nonoverlapping(main.offset(o), dp.offset(o), rs);
                    }
                }
            }
            for y in 0..ny {
                let d = dp.add(y * rs);
                if level {
                    copy_pads(main.add(y * rs), d, nx);
                }
                let at = |dz: isize, dy: isize| {
                    let p = from[(dz + r as isize) as usize];
                    p.offset((y as isize + dy) * rs as isize).cast_const()
                };
                K::row_tl::<V>(at, d, nx, 0, nx, s);
            }
            if refreshed {
                refresh(dp, &plane, r, b, map);
            }
        },
    );
}
