//! Kernels on the paper's **local transpose layout** (§3.2), k = 1.
//!
//! The unit of work is a *vector set*: `vl` vectors holding one transposed
//! `vl²` block. Inside a set, the stencil's x-dependences of vector `j`
//! are vectors `j±o` of the same set — plain aligned register reuse, no
//! shuffles. Only the `2r` dependent vectors that overhang the set's ends
//! are assembled, each with the two-instruction blend+rotate `Assemble`
//! (`4r` data-reorganization ops per set, vs. per vector for the
//! data-reorganization baseline — the `vl×` saving at the heart of the
//! paper).
//!
//! y/z neighbours (2D/3D) live at the *same transposed offset* in
//! neighbouring rows, so they are single aligned loads — the layout only
//! affects the unit-stride dimension (§3.4).
//!
//! Cells past the transposed region (the row tail) are updated by a
//! scalar path through the [`crate::layout::SetGeo`] index map, the
//! "simple data reorganization method" the paper prescribes for boundary
//! sets (Fig. 5d). Sets only *partially* covered by the requested range
//! — the common case for staged tiles, whose update range shifts by `r`
//! every chunk step — still ride the full vector pipeline in the 2D/3D
//! row helpers: the set's output block is snapshotted, all `vl` vectors
//! are stored, and the out-of-range cells get their snapshot back.
//! Lane-wise vector math never mixes lanes, so the kept cells consume
//! only in-contract reads and stay bit-identical to the scalar path;
//! the 1D kernel keeps the scalar edges because parallel 1D runs split
//! the one row along x, where a store-all/restore would race. Both set
//! ends of every covered row need `±r` raw halo cells addressable (grid
//! halos, or the staging arena's pad) since the edge-set overhangs are
//! always fetched.

use stencil_simd::{Elem, Vector};

use super::orig::splat_w;
use super::row::{Row2, Row3, BOX2_ROWS, BOX2_TAPS, BOX3_ROWS, BOX3_TAPS};
use crate::layout::{tl_read, tl_write, SetGeo};
use crate::stencil::{Box2, Box3, Star1, Star2, Star3, MAX_R};

/// x-part of a set update: given the set's vectors plus the neighbouring
/// sets' overhanging vectors, produce the `vl` output vectors of a 1D star
/// accumulation in canonical order.
///
/// `prev_last[q]` must be the previous set's vector `vl-r+q` (or, at the
/// domain edge, a vector whose last lane is the halo cell `A[-(r-q)]`);
/// `next_first[q]` the next set's vector `q` (or a vector whose first lane
/// is the cell just past the set block).
///
/// # Safety
/// Feature context for `V`; `r = S::R ≤ V::LANES`.
#[inline(always)]
pub(crate) unsafe fn xpart_set<V: Vector>(
    v: &[V; 16],
    prev_last: &[V; MAX_R],
    next_first: &[V; MAX_R],
    wv: &[V; 2 * MAX_R + 1],
    r: usize,
    out: &mut [V; 16],
) {
    let l = V::LANES;
    // Extended window: [left_r .. left_1 | v_0 .. v_{l-1} | right_1 .. right_r]
    // so position p of the stencil maps to ext[r + p] with no lane-select
    // branches — the whole window stays in registers after unrolling.
    // Sized for the widest register file: 16 lanes (f32 AVX-512).
    let mut ext = [V::zero(); 16 + 2 * MAX_R];
    for o in 1..=r {
        ext[r - o] = V::assemble_left(prev_last[r - o], v[l - o]);
        ext[r + l + o - 1] = V::assemble_right(v[o - 1], next_first[o - 1]);
    }
    for (j, e) in ext.iter_mut().skip(r).take(l).enumerate() {
        *e = v[j];
    }
    for j in 0..l {
        let mut acc = ext[j].mul(wv[0]);
        for o in 1..=2 * r {
            acc = ext[j + o].mul_add(wv[o], acc);
        }
        out[j] = acc;
    }
}

/// Load the `vl` vectors of set `set` from a transposed row.
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

/// The previous set's last `r` vectors for `set` (register-free variant:
/// loaded from memory; at the domain edge, splats of halo cells).
#[inline(always)]
pub(crate) unsafe fn prev_last_of<V: Vector>(
    row: *const V::Elem,
    set: usize,
    r: usize,
) -> [V; MAX_R] {
    let l = V::LANES;
    let bs = l * l;
    let mut p = [V::zero(); MAX_R];
    if set == 0 {
        for q in 0..r {
            // lane l-1 must be the halo cell A[-(r-q)]; a splat suffices.
            p[q] = V::splat(*row.offset(q as isize - r as isize));
        }
    } else {
        for q in 0..r {
            p[q] = V::load(row.add((set - 1) * bs + (l - r + q) * l));
        }
    }
    p
}

/// The next set's first `r` vectors for `set` (at the last set, splats of
/// the natural-layout cells just past the transposed region).
#[inline(always)]
pub(crate) unsafe fn next_first_of<V: Vector>(
    row: *const V::Elem,
    set: usize,
    nsets: usize,
    r: usize,
) -> [V; MAX_R] {
    let l = V::LANES;
    let bs = l * l;
    let base = set * bs;
    let mut nf = [V::zero(); MAX_R];
    for q in 0..r {
        nf[q] = if set + 1 < nsets {
            V::load(row.add(base + bs + q * l))
        } else {
            // lane 0 must be the cell at logical base+bs+q (tail or halo,
            // both stored naturally).
            V::splat(*row.add(base + bs + q))
        };
    }
    nf
}

/// Split `[x0, x1)` into (scalar-left, full sets, scalar-right) pieces.
#[inline(always)]
fn set_split(geo: &SetGeo, x0: usize, x1: usize) -> (usize, usize) {
    let s0 = x0.div_ceil(geo.bs);
    let s1 = (x1 / geo.bs).min(geo.nsets);
    (s0, s1)
}

/// Split `[x0, x1)` into the covered-set range `[sa, sb)` (every set
/// overlapping the transposed portion, partially or fully) and the
/// natural-tail start `ve`: the 2D/3D row helpers run *every* covered
/// set through the full vector pipeline — saving and restoring the
/// out-of-range cells of partial edge sets — so only the natural tail
/// stays scalar. (The staged tiled path shifts its range by `r` each
/// chunk step, so nearly every row-step ends in two partial sets; the
/// scalar `tl_read` path there used to dominate the whole kernel.)
#[inline(always)]
fn set_cover(geo: &SetGeo, x0: usize, x1: usize) -> (usize, usize, usize) {
    let ve = x1.min(geo.tail_start);
    if x0 >= ve {
        return (0, 0, ve);
    }
    (x0 / geo.bs, ve.div_ceil(geo.bs), ve)
}

/// Largest `vl²` block any register class produces (16 lanes, f32
/// AVX-512) — sizes the partial-set save buffer. The buffer stays
/// uninitialized (a zeroed 2 KiB stack array per row call would cost
/// more than the partial sets it serves): `save_outside` writes
/// exactly the slots `restore_outside` reads.
const MAX_BS: usize = 256;

/// Snapshot the cells of the set block at `base` whose *logical* index
/// falls outside `[lo, hi)` — only those get restored after the
/// partial-set store, so only those are saved (typically ~`r` per
/// range end per step, far cheaper than copying the whole `vl²`
/// block).
///
/// # Safety
/// `dst[base .. base + geo.bs)` addressable; `geo.bs ≤ MAX_BS`.
#[inline(always)]
unsafe fn save_outside<T: Elem>(
    dst: *const T,
    geo: &SetGeo,
    base: usize,
    lo: usize,
    hi: usize,
    saved: &mut [std::mem::MaybeUninit<T>; MAX_BS],
) {
    for i in (base..lo).chain(hi..base + geo.bs) {
        let p = geo.map(i);
        saved[p - base].write(*dst.add(p));
    }
}

/// Undo a partial set's out-of-range stores: every cell of the block at
/// `base` whose *logical* index falls outside `[lo, hi)` gets its saved
/// value back. The kept lanes are untouched — they were computed from
/// in-contract reads only (lane-wise vector math never mixes lanes), so
/// the net effect of store-all + restore is exactly the scalar path's
/// masked update, at vector speed.
///
/// # Safety
/// Same block addressability as [`save_outside`], which must have run
/// with the same `(base, lo, hi)` before the stores (that is what
/// initializes every slot read here).
#[inline(always)]
unsafe fn restore_outside<T: Elem>(
    dst: *mut T,
    geo: &SetGeo,
    base: usize,
    lo: usize,
    hi: usize,
    saved: &[std::mem::MaybeUninit<T>; MAX_BS],
) {
    for i in (base..lo).chain(hi..base + geo.bs) {
        let p = geo.map(i);
        *dst.add(p) = saved[p - base].assume_init();
    }
}

// ---------------------------------------------------------------------------
// 1D star
// ---------------------------------------------------------------------------

/// Scalar fallback over the transpose layout (mapped reads/writes).
///
/// # Safety
/// Row pointers valid with halo; `lo ≤ hi ≤ n`.
#[inline(always)]
unsafe fn star1_tl_scalar<T: Elem, S: Star1>(
    src: *const T,
    dst: *mut T,
    lo: usize,
    hi: usize,
    geo: &SetGeo,
    s: &S,
) {
    let w = s.w();
    let cv = T::from_f64;
    let r = S::R as isize;
    for i in lo..hi {
        let ii = i as isize;
        let mut acc = cv(w[0]) * tl_read(src, ii - r, geo);
        for o in 1..=2 * S::R {
            acc = tl_read(src, ii - r + o as isize, geo).mul_add(cv(w[o]), acc);
        }
        tl_write(dst, i, acc, geo);
    }
}

/// One Jacobi step of a 1D star stencil over logical cells `[x0, x1)` of a
/// row of `n` cells in transpose layout.
///
/// # Safety
/// `src`/`dst` point at interior origins of rows in transpose layout with
/// halos addressable; `src != dst`; `S::R ≤ V::LANES`.
#[inline(always)]
pub unsafe fn star1_tl<V: Vector, S: Star1>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    n: usize,
    x0: usize,
    x1: usize,
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    debug_assert!(r <= l);
    let geo = SetGeo::new(n, l);
    let (s0, s1) = set_split(&geo, x0, x1);
    if s0 >= s1 {
        star1_tl_scalar(src, dst, x0, x1, &geo, s);
        return;
    }
    star1_tl_scalar(src, dst, x0, s0 * geo.bs, &geo, s);
    star1_tl_scalar(src, dst, s1 * geo.bs, x1, &geo, s);

    let wv: [V; 2 * MAX_R + 1] = splat_w(s.w());
    // Carry the previous set's last r vectors in registers across the
    // sweep (the vrl of Algorithm 1) instead of reloading them.
    let mut carry = prev_last_of::<V>(src, s0, r);
    let mut out = [V::zero(); 16];
    for set in s0..s1 {
        let v = load_set::<V>(src, set);
        let nf = next_first_of::<V>(src, set, geo.nsets, r);
        xpart_set::<V>(&v, &carry, &nf, &wv, r, &mut out);
        let base = set * geo.bs;
        for j in 0..l {
            out[j].store(dst.add(base + j * l));
        }
        for q in 0..r {
            carry[q] = v[l - r + q];
        }
    }
}

// ---------------------------------------------------------------------------
// 2D star — row helper shared by k=1 and the fused ring pipelines
// ---------------------------------------------------------------------------

/// One row of a 2D star stencil in transpose layout: the x-part runs on
/// the vector-set machinery; the y-part adds aligned loads from the
/// `2r` neighbour-row pointers at identical transposed offsets.
///
/// `ym[d-1]` / `yp[d-1]` must point at the interior origin of row `y∓d`
/// (halo rows included), all in the same layout/geometry.
///
/// # Safety
/// All row pointers valid with halos; `dst` disjoint from every source row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn star2_row_tl<V: Vector, S: Star2>(
    c: *const V::Elem,
    ym: &[*const V::Elem; MAX_R],
    yp: &[*const V::Elem; MAX_R],
    dst: *mut V::Elem,
    n: usize,
    x0: usize,
    x1: usize,
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    let geo = SetGeo::new(n, l);

    // scalar partials through the index map (natural tail only)
    let scalar_part = |lo: usize, hi: usize| {
        let wx = s.wx();
        let wy = s.wy();
        let cv = <V::Elem as Elem>::from_f64;
        let ri = r as isize;
        for i in lo..hi {
            let ii = i as isize;
            let mut acc = cv(wx[0]) * tl_read(c, ii - ri, &geo);
            for o in 1..=2 * r {
                acc = tl_read(c, ii - ri + o as isize, &geo).mul_add(cv(wx[o]), acc);
            }
            for d in 1..=r {
                acc = tl_read(ym[d - 1], ii, &geo).mul_add(cv(wy[r - d]), acc);
                acc = tl_read(yp[d - 1], ii, &geo).mul_add(cv(wy[r + d]), acc);
            }
            tl_write(dst, i, acc, &geo);
        }
    };
    let (sa, sb, ve) = set_cover(&geo, x0, x1);
    if sa >= sb {
        scalar_part(x0, x1);
        return;
    }
    scalar_part(ve, x1);

    let wxv: [V; 2 * MAX_R + 1] = splat_w(s.wx());
    let wyv: [V; 2 * MAX_R + 1] = splat_w(s.wy());
    let mut carry = prev_last_of::<V>(c, sa, r);
    let mut out = [V::zero(); 16];
    let mut saved = [std::mem::MaybeUninit::<V::Elem>::uninit(); MAX_BS];
    for set in sa..sb {
        let base = set * geo.bs;
        let (lo, hi) = (x0.max(base), ve.min(base + geo.bs));
        let partial = (lo, hi) != (base, base + geo.bs);
        if partial {
            save_outside(dst, &geo, base, lo, hi, &mut saved);
        }
        let v = load_set::<V>(c, set);
        let nf = next_first_of::<V>(c, set, geo.nsets, r);
        xpart_set::<V>(&v, &carry, &nf, &wxv, r, &mut out);
        for j in 0..l {
            let mut acc = out[j];
            for d in 1..=r {
                acc = V::load(ym[d - 1].add(base + j * l)).mul_add(wyv[r - d], acc);
                acc = V::load(yp[d - 1].add(base + j * l)).mul_add(wyv[r + d], acc);
            }
            acc.store(dst.add(base + j * l));
        }
        for q in 0..r {
            carry[q] = v[l - r + q];
        }
        if partial {
            restore_outside(dst, &geo, base, lo, hi, &saved);
        }
    }
}

// ---------------------------------------------------------------------------
// 2D box — row helper
// ---------------------------------------------------------------------------

/// One row of a 2D box stencil in transpose layout. `rows[R+dy]` points at
/// the interior origin of row `y+dy`; every row contributes x-offsets
/// `-R..=R`, with its own assembled overhang vectors at set boundaries.
///
/// # Safety
/// All row pointers valid with halos; `dst` disjoint from sources.
#[inline(always)]
pub unsafe fn box2_row_tl<V: Vector, S: Box2>(
    rows: &[*const V::Elem; BOX2_ROWS],
    dst: *mut V::Elem,
    n: usize,
    x0: usize,
    x1: usize,
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    let geo = SetGeo::new(n, l);
    let nrows = 2 * r + 1;

    let scalar_part = |lo: usize, hi: usize| {
        let w = s.w();
        let cv = <V::Elem as Elem>::from_f64;
        let ri = r as isize;
        for i in lo..hi {
            let ii = i as isize;
            let mut acc = <V::Elem as Elem>::ZERO;
            let mut k = 0usize;
            for row in rows.iter().take(nrows) {
                for dx in -ri..=ri {
                    let val = tl_read(*row, ii + dx, &geo);
                    if k == 0 {
                        acc = cv(w[0]) * val;
                    } else {
                        acc = val.mul_add(cv(w[k]), acc);
                    }
                    k += 1;
                }
            }
            tl_write(dst, i, acc, &geo);
        }
    };
    let (sa, sb, ve) = set_cover(&geo, x0, x1);
    if sa >= sb {
        scalar_part(x0, x1);
        return;
    }
    scalar_part(ve, x1);

    let wv: [V; BOX2_TAPS] = splat_w(s.w());
    let mut saved = [std::mem::MaybeUninit::<V::Elem>::uninit(); MAX_BS];
    for set in sa..sb {
        let base = set * geo.bs;
        let (lo, hi) = (x0.max(base), ve.min(base + geo.bs));
        let partial = (lo, hi) != (base, base + geo.bs);
        if partial {
            save_outside(dst, &geo, base, lo, hi, &mut saved);
        }
        // Per neighbour row: assembled overhangs (2r assembles per row per
        // set — still vl× cheaper than per-vector reorganization).
        let mut left = [[V::zero(); MAX_R]; BOX2_ROWS];
        let mut right = [[V::zero(); MAX_R]; BOX2_ROWS];
        for (k, row) in rows.iter().enumerate().take(nrows) {
            let pl = prev_last_of::<V>(*row, set, r);
            let nf = next_first_of::<V>(*row, set, geo.nsets, r);
            for o in 1..=r {
                left[k][o - 1] = V::assemble_left(pl[r - o], V::load(row.add(base + (l - o) * l)));
                right[k][o - 1] =
                    V::assemble_right(V::load(row.add(base + (o - 1) * l)), nf[o - 1]);
            }
        }
        for j in 0..l {
            let mut acc = V::zero();
            let mut k = 0usize;
            for (rowk, row) in rows.iter().enumerate().take(nrows) {
                for dx in -(r as isize)..=r as isize {
                    let p = j as isize + dx;
                    let v = if p < 0 {
                        left[rowk][(-p - 1) as usize]
                    } else if (p as usize) < l {
                        V::load(row.add(base + p as usize * l))
                    } else {
                        right[rowk][p as usize - l]
                    };
                    if k == 0 {
                        acc = v.mul(wv[0]);
                    } else {
                        acc = v.mul_add(wv[k], acc);
                    }
                    k += 1;
                }
            }
            acc.store(dst.add(base + j * l));
        }
        if partial {
            restore_outside(dst, &geo, base, lo, hi, &saved);
        }
    }
}

// ---------------------------------------------------------------------------
// 3D star — row helper
// ---------------------------------------------------------------------------

/// One row of a 3D star stencil in transpose layout: x-part on the set
/// machinery, y- and z-parts as aligned neighbour-row loads.
///
/// # Safety
/// All row pointers valid with halos; `dst` disjoint from sources.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn star3_row_tl<V: Vector, S: Star3>(
    c: *const V::Elem,
    ym: &[*const V::Elem; MAX_R],
    yp: &[*const V::Elem; MAX_R],
    zm: &[*const V::Elem; MAX_R],
    zp: &[*const V::Elem; MAX_R],
    dst: *mut V::Elem,
    n: usize,
    x0: usize,
    x1: usize,
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    let geo = SetGeo::new(n, l);

    let scalar_part = |lo: usize, hi: usize| {
        let wx = s.wx();
        let wy = s.wy();
        let wz = s.wz();
        let cv = <V::Elem as Elem>::from_f64;
        let ri = r as isize;
        for i in lo..hi {
            let ii = i as isize;
            let mut acc = cv(wx[0]) * tl_read(c, ii - ri, &geo);
            for o in 1..=2 * r {
                acc = tl_read(c, ii - ri + o as isize, &geo).mul_add(cv(wx[o]), acc);
            }
            for d in 1..=r {
                acc = tl_read(ym[d - 1], ii, &geo).mul_add(cv(wy[r - d]), acc);
                acc = tl_read(yp[d - 1], ii, &geo).mul_add(cv(wy[r + d]), acc);
            }
            for d in 1..=r {
                acc = tl_read(zm[d - 1], ii, &geo).mul_add(cv(wz[r - d]), acc);
                acc = tl_read(zp[d - 1], ii, &geo).mul_add(cv(wz[r + d]), acc);
            }
            tl_write(dst, i, acc, &geo);
        }
    };
    let (sa, sb, ve) = set_cover(&geo, x0, x1);
    if sa >= sb {
        scalar_part(x0, x1);
        return;
    }
    scalar_part(ve, x1);

    let wxv: [V; 2 * MAX_R + 1] = splat_w(s.wx());
    let wyv: [V; 2 * MAX_R + 1] = splat_w(s.wy());
    let wzv: [V; 2 * MAX_R + 1] = splat_w(s.wz());
    let mut carry = prev_last_of::<V>(c, sa, r);
    let mut out = [V::zero(); 16];
    let mut saved = [std::mem::MaybeUninit::<V::Elem>::uninit(); MAX_BS];
    for set in sa..sb {
        let base = set * geo.bs;
        let (lo, hi) = (x0.max(base), ve.min(base + geo.bs));
        let partial = (lo, hi) != (base, base + geo.bs);
        if partial {
            save_outside(dst, &geo, base, lo, hi, &mut saved);
        }
        let v = load_set::<V>(c, set);
        let nf = next_first_of::<V>(c, set, geo.nsets, r);
        xpart_set::<V>(&v, &carry, &nf, &wxv, r, &mut out);
        for j in 0..l {
            let mut acc = out[j];
            for d in 1..=r {
                acc = V::load(ym[d - 1].add(base + j * l)).mul_add(wyv[r - d], acc);
                acc = V::load(yp[d - 1].add(base + j * l)).mul_add(wyv[r + d], acc);
            }
            for d in 1..=r {
                acc = V::load(zm[d - 1].add(base + j * l)).mul_add(wzv[r - d], acc);
                acc = V::load(zp[d - 1].add(base + j * l)).mul_add(wzv[r + d], acc);
            }
            acc.store(dst.add(base + j * l));
        }
        for q in 0..r {
            carry[q] = v[l - r + q];
        }
        if partial {
            restore_outside(dst, &geo, base, lo, hi, &saved);
        }
    }
}

// ---------------------------------------------------------------------------
// 3D box — row helper
// ---------------------------------------------------------------------------

/// One row of a 3D box stencil in transpose layout. `rows[k]` for
/// `k = (R+dz)·(2R+1) + (R+dy)` points at the interior origin of row
/// `(z+dz, y+dy)`.
///
/// # Safety
/// All row pointers valid with halos; `dst` disjoint from sources.
#[inline(always)]
pub unsafe fn box3_row_tl<V: Vector, S: Box3>(
    rows: &[*const V::Elem; BOX3_ROWS],
    dst: *mut V::Elem,
    n: usize,
    x0: usize,
    x1: usize,
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    let geo = SetGeo::new(n, l);
    let nrows = (2 * r + 1) * (2 * r + 1);

    let scalar_part = |lo: usize, hi: usize| {
        let w = s.w();
        let cv = <V::Elem as Elem>::from_f64;
        let ri = r as isize;
        for i in lo..hi {
            let ii = i as isize;
            let mut acc = <V::Elem as Elem>::ZERO;
            let mut k = 0usize;
            for row in rows.iter().take(nrows) {
                for dx in -ri..=ri {
                    let val = tl_read(*row, ii + dx, &geo);
                    if k == 0 {
                        acc = cv(w[0]) * val;
                    } else {
                        acc = val.mul_add(cv(w[k]), acc);
                    }
                    k += 1;
                }
            }
            tl_write(dst, i, acc, &geo);
        }
    };
    let (sa, sb, ve) = set_cover(&geo, x0, x1);
    if sa >= sb {
        scalar_part(x0, x1);
        return;
    }
    scalar_part(ve, x1);

    let wv: [V; BOX3_TAPS] = splat_w(s.w());
    let mut saved = [std::mem::MaybeUninit::<V::Elem>::uninit(); MAX_BS];
    for set in sa..sb {
        let base = set * geo.bs;
        let (lo, hi) = (x0.max(base), ve.min(base + geo.bs));
        let partial = (lo, hi) != (base, base + geo.bs);
        if partial {
            save_outside(dst, &geo, base, lo, hi, &mut saved);
        }
        let mut left = [[V::zero(); MAX_R]; BOX3_ROWS];
        let mut right = [[V::zero(); MAX_R]; BOX3_ROWS];
        for (k, row) in rows.iter().enumerate().take(nrows) {
            let pl = prev_last_of::<V>(*row, set, r);
            let nf = next_first_of::<V>(*row, set, geo.nsets, r);
            for o in 1..=r {
                left[k][o - 1] = V::assemble_left(pl[r - o], V::load(row.add(base + (l - o) * l)));
                right[k][o - 1] =
                    V::assemble_right(V::load(row.add(base + (o - 1) * l)), nf[o - 1]);
            }
        }
        for j in 0..l {
            let mut acc = V::zero();
            let mut k = 0usize;
            for (rowk, row) in rows.iter().enumerate().take(nrows) {
                for dx in -(r as isize)..=r as isize {
                    let p = j as isize + dx;
                    let v = if p < 0 {
                        left[rowk][(-p - 1) as usize]
                    } else if (p as usize) < l {
                        V::load(row.add(base + p as usize * l))
                    } else {
                        right[rowk][p as usize - l]
                    };
                    if k == 0 {
                        acc = v.mul(wv[0]);
                    } else {
                        acc = v.mul_add(wv[k], acc);
                    }
                    k += 1;
                }
            }
            acc.store(dst.add(base + j * l));
        }
        if partial {
            restore_outside(dst, &geo, base, lo, hi, &saved);
        }
    }
}

// ---------------------------------------------------------------------------
// 2D / 3D range loops, once per dimension over the family strategy
// ---------------------------------------------------------------------------

/// One Jacobi step of a 2D stencil of family `K` over
/// `[y0,y1) × [x0,x1)`, transpose layout.
///
/// # Safety
/// As the family's row helper ([`star2_row_tl`] / [`box2_row_tl`]), with
/// rows `y0-R .. y1+R` addressable in `src`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid2_tl<V: Vector, K: Row2>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    rs: usize,
    nx: usize,
    y0: usize,
    y1: usize,
    x0: usize,
    x1: usize,
    s: &K::S,
) {
    for y in y0..y1 {
        let c = src.add(y * rs);
        let at = |dy: isize| c.offset(dy * rs as isize);
        K::row_tl::<V>(at, dst.add(y * rs), nx, x0, x1, s);
    }
}

/// One Jacobi step of a 3D stencil of family `K` over a box of cells,
/// transpose layout.
///
/// # Safety
/// Rows/planes within radius addressable; `src != dst`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid3_tl<V: Vector, K: Row3>(
    src: *const V::Elem,
    dst: *mut V::Elem,
    rs: usize,
    ps: usize,
    nx: usize,
    z0: usize,
    z1: usize,
    y0: usize,
    y1: usize,
    x0: usize,
    x1: usize,
    s: &K::S,
) {
    for z in z0..z1 {
        for y in y0..y1 {
            let c = src.add(z * ps + y * rs);
            let at = |dz: isize, dy: isize| c.offset(dz * ps as isize + dy * rs as isize);
            K::row_tl::<V>(at, dst.add(z * ps + y * rs), nx, x0, x1, s);
        }
    }
}
