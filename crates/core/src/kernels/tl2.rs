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
//! 2D/3D: Algorithm 1 is defined for one dimension; the register file
//! cannot hold the `t+1` values of all neighbouring rows. We pipeline
//! along the outermost dimension instead, keeping `k - 1` ring levels of
//! `2R+1` rows (2D) or planes (3D) each, at `t+1 … t+k-1`, in an
//! L2-resident scratch buffer. Main-array traffic is one read + one write
//! per point per `k` steps — the property that produces the paper's
//! Fig. 7/8 gains — while the ring stays cache-hot. Under a Dirichlet
//! boundary the plan picks `k` from the L2 size; the refreshed-boundary
//! (`_wide`) kernels stay at `k = 2`. This substitution is documented in
//! `docs/ARCHITECTURE.md` ("Kernel notes").

use stencil_simd::{Elem, Vector};

use super::orig::splat_w;
use super::row::{Row2, Row3};
use super::tl::xpart_set;
use crate::exec::halo::{fold_src, refresh, refresh_row, Boundary, RowMap};
use crate::layout::{tl_read, SetGeo};
use crate::stencil::{Star1, MAX_R};

/// Scalar tail scratch, sized for the widest vector set: 16 f32 lanes give
/// a `vl² = 256`-cell set block, plus an `R`-cell margin on both sides.
const TAIL_BUF: usize = 16 * 16 + 2 * MAX_R;

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

/// Advance a 1D star stencil **two** time steps, in place, on a transposed
/// row of `n` cells with constant halos (paper Algorithm 1, k = 2).
///
/// # Safety
/// `buf` points at the interior origin of a row in transpose layout with
/// halos addressable; `SetGeo::new(n, V::LANES).nsets >= 2` (callers fall
/// back to two k=1 steps below that); `S::R ≤ V::LANES`.
#[inline(always)]
pub unsafe fn star1_tl2<V: Vector, S: Star1>(buf: *mut V::Elem, n: usize, s: &S) {
    // Dirichlet halos are time-invariant: the halo cells' values in
    // memory serve as their own t+1 level.
    let r = S::R;
    let cbuf = buf.cast_const();
    let mut lt1 = [<V::Elem as Elem>::ZERO; MAX_R];
    let mut rt1 = [<V::Elem as Elem>::ZERO; MAX_R];
    for q in 0..r {
        lt1[q] = *cbuf.offset(q as isize - r as isize);
        rt1[q] = *cbuf.add(n + q);
    }
    star1_tl2_edges::<V, S>(buf, n, &lt1, &rt1, s)
}

/// [`star1_tl2`] with explicit **t+1 halo values**: `lt1[q]` is halo cell
/// `q - R` and `rt1[q]` halo cell `n + q`, both at time `t+1`. The first
/// (t → t+1) step still reads the halo cells from memory at time `t`; the
/// second step's halo dependences come from these arrays — which is what
/// lets a refreshed (periodic/reflect) boundary run the fused pass: the
/// caller refreshes memory to time `t` and precomputes the folds of the
/// edge-interior cells at `t+1` (see [`star1_tl2_wide`]).
///
/// # Safety
/// As [`star1_tl2`].
#[inline(always)]
pub unsafe fn star1_tl2_edges<V: Vector, S: Star1>(
    buf: *mut V::Elem,
    n: usize,
    lt1: &[V::Elem; MAX_R],
    rt1: &[V::Elem; MAX_R],
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    let geo = SetGeo::new(n, l);
    let (nsets, bs) = (geo.nsets, geo.bs);
    debug_assert!(nsets >= 2);
    debug_assert!(r <= l);
    let wv: [V; 2 * MAX_R + 1] = splat_w(s.w());
    let cbuf = buf.cast_const();
    let w = s.w();
    let cv = <V::Elem as Elem>::from_f64;

    // Virtual "set -1 last vectors" @ t: lane l-1 = halo cell A[-(r-q)].
    let mut halo_virt = [V::zero(); MAX_R];
    for q in 0..r {
        halo_virt[q] = V::splat(*cbuf.offset(q as isize - r as isize));
    }

    // Booting computation (Algorithm 1 line 30).
    let mut vs1 = load_set::<V>(cbuf, 0);
    let mut vs2 = load_set::<V>(cbuf, 1);
    let mut vrl1 = last_r(&vs1, r); // set 0 @ t
    update_set(&mut vs1, &halo_virt, &first_r(&vs2, r), &wv, r); // set 0 → t+1
    let mut vrl0 = [V::zero(); MAX_R]; // "set -1" @ t+1
    for q in 0..r {
        vrl0[q] = V::splat(lt1[q]);
    }

    // Steady state (Algorithm 1 lines 15–26): load set m, forward the two
    // in-flight sets, store the set that reached t+2.
    for m in 2..nsets {
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

    // Epilogue: vs1 = set nsets-2 @ t+1, vs2 = set nsets-1 @ t; the memory
    // of both sets and of the tail still holds time-t values.
    let ts = geo.tail_start;
    let tail_len = n - ts;
    debug_assert!(tail_len + 2 * r < TAIL_BUF);

    // Right-dependent cells of the last set @ t (tail or halo, natural).
    let mut rt_t = [V::zero(); MAX_R];
    for q in 0..r {
        rt_t[q] = V::splat(*cbuf.add(ts + q));
    }
    // Extended tail window @ t: [left r | tail | right halo r].
    let mut ext_t = [<V::Elem as Elem>::ZERO; TAIL_BUF];
    for q in 0..r {
        ext_t[q] = tl_read(cbuf, (ts + q) as isize - r as isize, &geo);
    }
    for i in 0..tail_len {
        ext_t[r + i] = *cbuf.add(ts + i);
    }
    for q in 0..r {
        ext_t[r + tail_len + q] = *cbuf.add(n + q);
    }

    // Last set → t+1.
    update_set(&mut vs2, &vrl1, &rt_t, &wv, r);

    // Tail's left neighbours @ t+1, extracted from the updated registers.
    let mut left_t1 = [<V::Elem as Elem>::ZERO; MAX_R];
    for q in 1..=r {
        let p = bs - q; // block position of logical cell ts - q
        left_t1[r - q] = vs2[p % l].lane(p / l);
    }

    // Tail @ t+1 into scratch.
    let mut tail_t1 = [<V::Elem as Elem>::ZERO; TAIL_BUF];
    for i in 0..tail_len {
        let mut acc = cv(w[0]) * ext_t[i];
        for o in 1..=2 * r {
            acc = ext_t[i + o].mul_add(cv(w[o]), acc);
        }
        tail_t1[i] = acc;
    }

    // Set nsets-2 → t+2 and store.
    let vrl1_new = last_r(&vs1, r);
    update_set(&mut vs1, &vrl0, &first_r(&vs2, r), &wv, r);
    store_set(buf, nsets - 2, &vs1);

    // Set nsets-1 → t+2 (right deps @ t+1 from the tail scratch / halo).
    let mut rt_t1 = [V::zero(); MAX_R];
    for q in 0..r {
        rt_t1[q] = V::splat(if q < tail_len {
            tail_t1[q]
        } else {
            rt1[q - tail_len]
        });
    }
    update_set(&mut vs2, &vrl1_new, &rt_t1, &wv, r);
    store_set(buf, nsets - 1, &vs2);

    // Tail → t+2 written back.
    if tail_len > 0 {
        let mut ext_t1 = [<V::Elem as Elem>::ZERO; TAIL_BUF];
        ext_t1[..r].copy_from_slice(&left_t1[..r]);
        ext_t1[r..r + tail_len].copy_from_slice(&tail_t1[..tail_len]);
        for q in 0..r {
            ext_t1[r + tail_len + q] = rt1[q];
        }
        for i in 0..tail_len {
            let mut acc = cv(w[0]) * ext_t1[i];
            for o in 1..=2 * r {
                acc = ext_t1[i + o].mul_add(cv(w[o]), acc);
            }
            *buf.add(ts + i) = acc;
        }
    }
}

/// Fused two-step pipeline over the set-aligned sub-range `[sa, sb)` of a
/// transposed row — the tiled variant of [`star1_tl2`] used inside
/// tessellation tiles (paper §3.4: "multiple time steps computation in
/// registers over the tiles").
///
/// Double-buffered tiling semantics instead of in-place halo semantics:
///
/// * `buf_a` holds time `t` at the covered cells and receives `t+2`;
/// * `buf_b` provides the `t+1` values of the margin cells just outside
///   `[sa·vl², sb·vl²)` (the tile driver computes those margins first) and
///   receives the `t+1` values of the **first and last** pipeline sets,
///   which the driver's trailing step-`s+1` margin pass needs.
///
/// # Safety
/// Both rows transposed with halos addressable; `sb - sa ≥ 2`; margin
/// cells `[a-r, a)` and `[b, b+r)` hold valid `t` / `t+1` values in
/// `buf_a` / `buf_b` respectively.
#[inline(always)]
pub unsafe fn star1_tl2_range<V: Vector, S: Star1>(
    buf_a: *mut V::Elem,
    buf_b: *mut V::Elem,
    n: usize,
    sa: usize,
    sb: usize,
    s: &S,
) {
    let l = V::LANES;
    let r = S::R;
    let geo = SetGeo::new(n, l);
    debug_assert!(sb - sa >= 2 && sb <= geo.nsets);
    let bs = geo.bs;
    let (a, b) = (sa * bs, sb * bs);
    let wv: [V; 2 * MAX_R + 1] = splat_w(s.w());
    let ca = buf_a.cast_const();
    let cb = buf_b.cast_const();

    // Left margin dependence vectors at both time levels (lane l-1 = cell
    // a - (r-q); scalar reads through the index map).
    let mut virt_t = [V::zero(); MAX_R];
    let mut virt_t1 = [V::zero(); MAX_R];
    for q in 0..r {
        let i = a as isize + q as isize - r as isize;
        virt_t[q] = V::splat(tl_read(ca, i, &geo));
        virt_t1[q] = V::splat(tl_read(cb, i, &geo));
    }

    // Boot: first set to t+1 (exporting its t+1 values to buf_b).
    let mut vs1 = load_set::<V>(ca, sa);
    let mut vs2 = load_set::<V>(ca, sa + 1);
    let mut vrl1 = last_r(&vs1, r); // set sa @ t
    update_set(&mut vs1, &virt_t, &first_r(&vs2, r), &wv, r); // set sa → t+1
    store_set(buf_b, sa, &vs1);
    let mut vrl0 = virt_t1;

    for m in sa + 2..sb {
        let vs3 = load_set::<V>(ca, m);
        let vrl2 = last_r(&vs2, r);
        update_set(&mut vs2, &vrl1, &first_r(&vs3, r), &wv, r); // set m-1 → t+1
        let vrl1_new = last_r(&vs1, r);
        update_set(&mut vs1, &vrl0, &first_r(&vs2, r), &wv, r); // set m-2 → t+2
        store_set(buf_a, m - 2, &vs1);
        vs1 = vs2;
        vs2 = vs3;
        vrl0 = vrl1_new;
        vrl1 = vrl2;
    }

    // Epilogue: right margin dependences from the two parities.
    let mut rt_t = [V::zero(); MAX_R];
    let mut rt_t1 = [V::zero(); MAX_R];
    for q in 0..r {
        rt_t[q] = V::splat(tl_read(ca, (b + q) as isize, &geo));
        rt_t1[q] = V::splat(tl_read(cb, (b + q) as isize, &geo));
    }
    update_set(&mut vs2, &vrl1, &rt_t, &wv, r); // set sb-1 → t+1
    store_set(buf_b, sb - 1, &vs2); // export last set's t+1
    let vrl1_new = last_r(&vs1, r);
    update_set(&mut vs1, &vrl0, &first_r(&vs2, r), &wv, r); // set sb-2 → t+2
    store_set(buf_a, sb - 2, &vs1);
    update_set(&mut vs2, &vrl1_new, &rt_t1, &wv, r); // set sb-1 → t+2
    store_set(buf_a, sb - 1, &vs2);
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

/// The `t+1` source of plane/row index `i` of an `n`-long axis for the
/// second pipeline step: a ring slot when `i` is interior, else the halo
/// slot `i` shifted outward by `shift` (0: the constant Dirichlet halo in
/// place; `R`: the outer half of a wide halo, where the refreshed
/// kernels stage the `t+1` halo level).
#[inline(always)]
unsafe fn t1_slot<T>(
    buf: *mut T,
    ring: *mut T,
    stride: usize,
    nr: usize,
    n: usize,
    i: isize,
    shift: usize,
) -> *const T {
    if i < 0 {
        buf.offset((i - shift as isize) * stride as isize)
    } else if i >= n as isize {
        buf.offset((i + shift as isize) * stride as isize)
    } else {
        ring.add((i as usize % nr) * stride)
    }
}

/// Advance a 2D stencil of family `K` **`k` steps** in place (`k ≥ 2`)
/// via a row ring of `k - 1` levels.
///
/// Ring level `j` (`1 ≤ j < k`) holds the `2R+1` most recent rows at
/// time `t + j`; levels 0 and `k` are the main buffer itself. Iteration
/// `y` advances row `y - (j-1)R` of every level `j` from level `j - 1`,
/// so main row `y - (k-1)R` receives `t + k`. A read outside `[0, ny)`
/// lands on the constant halo (`t1_slot`, shift 0). Main row `y` at
/// `t` is last read by level 1 at iteration `y + R` — no later than the
/// iteration that overwrites it — so the update is in place for any
/// `k ≥ 2`. Every level is the same `row_tl` call, one call site, so the
/// bits are those of `k` single steps.
///
/// `ring` points at the interior origin of row 0 of level 1; level `j`
/// starts `(j-1)(2R+1)` rows after it, every row with the grid's stride
/// and pad structure.
///
/// # Safety
/// `buf` is a transposed 2D grid interior origin (halos addressable);
/// `ring` valid for `(k-1)(2R+1)` rows of `rs` elements with pads;
/// `k ≥ 2`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid2_pass<V: Vector, K: Row2>(
    buf: *mut V::Elem,
    rs: usize,
    nx: usize,
    ny: usize,
    ring: *mut V::Elem,
    k: usize,
    s: &K::S,
) {
    debug_assert!(k >= 2);
    let r = K::R;
    let nr = 2 * r + 1;
    for y in 0..ny + (k - 1) * r {
        for j in 1..=k {
            // Level j's row at this iteration; later levels lag further.
            let Some(yj) = y.checked_sub((j - 1) * r) else {
                break;
            };
            if yj >= ny {
                continue;
            }
            let src = |i: isize| match j {
                1 => buf.offset(i * rs as isize).cast_const(),
                _ => t1_slot(buf, ring.add((j - 2) * nr * rs), rs, nr, ny, i, 0),
            };
            let main = buf.add(yj * rs);
            let dst = if j == k {
                main
            } else {
                let d = ring.add(((j - 1) * nr + yj % nr) * rs);
                copy_pads(main, d, nx);
                d
            };
            K::row_tl::<V>(|dy| src(yj as isize + dy), dst, nx, 0, nx, s);
        }
    }
}

/// Advance a 3D stencil of family `K` **`k` steps** in place via a plane
/// ring of `k - 1` levels: [`grid2_pass`] with planes for rows. `ring`
/// points at the `(y=0, x=0)` origin of plane 0 of level 1; level `j`
/// starts `(j-1)(2R+1)` planes after it, every plane with the grid's
/// plane layout (`R` halo rows per side included).
///
/// # Safety
/// `buf` is a transposed 3D grid interior origin; `ring` valid for
/// `(k-1)(2R+1)` planes of `ps` elements; `k ≥ 2`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid3_pass<V: Vector, K: Row3>(
    buf: *mut V::Elem,
    rs: usize,
    ps: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    ring: *mut V::Elem,
    k: usize,
    s: &K::S,
) {
    debug_assert!(k >= 2);
    let r = K::R;
    let nr = 2 * r + 1;
    let pad = <V::Elem as Elem>::PAD as isize;
    for z in 0..nz + (k - 1) * r {
        for j in 1..=k {
            let Some(zj) = z.checked_sub((j - 1) * r) else {
                break;
            };
            if zj >= nz {
                continue;
            }
            let src = |i: isize| match j {
                1 => buf.offset(i * ps as isize).cast_const(),
                _ => t1_slot(buf, ring.add((j - 2) * nr * ps), ps, nr, nz, i, 0),
            };
            let main = buf.add(zj * ps);
            let ring_level = j < k;
            let dp = if ring_level {
                let dp = ring.add(((j - 1) * nr + zj % nr) * ps);
                // the plane's constant halo rows (full stride rows)
                for d in 1..=r as isize {
                    for row in [-d, ny as isize + d - 1] {
                        let o = row * rs as isize - pad;
                        std::ptr::copy_nonoverlapping(main.offset(o), dp.offset(o), rs);
                    }
                }
                dp
            } else {
                main
            };
            for y in 0..ny {
                let d = dp.add(y * rs);
                if ring_level {
                    copy_pads(main.add(y * rs), d, nx);
                }
                let at = |dz: isize, dy: isize| {
                    src(zj as isize + dz).offset((y as isize + dy) * rs as isize)
                };
                K::row_tl::<V>(at, d, nx, 0, nx, s);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wide-halo fused kernels: k = 2 under refreshed (periodic / reflect)
// boundaries
// ---------------------------------------------------------------------------
//
// The Dirichlet kernels above read halo cells at every time level and
// rely on them being constant. A refreshed boundary's halo cells change
// every step, so the fused pass needs the t+1 halo level from somewhere.
// The key identity: a refreshed halo cell at t+1 is a *bit-copy* (fold)
// of an interior cell at t+1 — never a stencil application at the halo
// position (reflect would pair the weights in reversed order and lose
// bit-equality with two k = 1 steps). So the wide kernels compute the
// fold-source interior cells at t+1 first, in the kernels' canonical
// accumulation order, and stage the folds where the second step reads
// them:
//
// * 1D keeps them in scalars/registers (`star1_tl2_edges`) — the memory
//   halo layout is untouched.
// * 2D/3D stage whole t+1 halo rows/planes in the **outer half of a
//   2R-wide halo**: halo row `-k` at t+1 lives at raw row `-(R+k)`, row
//   `ny-1+k` at `ny-1+R+k` (same for z planes). The t-level pass reads
//   ghost distance ≤ R only, so the staging never aliases it. Grids for
//   refreshed boundaries are allocated with the wide halo (see
//   `AnyGrid::from_fn_spec`).
//
// Callers refresh the (inner) halo to time t before invoking, exactly as
// for a k = 1 step.

/// [`star1_tl2`] under a refreshed boundary: precompute the t+1 values of
/// the fold-source edge cells and feed their folds to the second step via
/// [`star1_tl2_edges`]. No wide memory halo is needed in 1D.
///
/// # Safety
/// As [`star1_tl2`]; additionally the halo cells hold time-`t` values
/// (caller refreshed them) and `b` is not Dirichlet.
#[inline(always)]
pub unsafe fn star1_tl2_wide<V: Vector, S: Star1>(buf: *mut V::Elem, n: usize, b: Boundary, s: &S) {
    let r = S::R;
    let geo = SetGeo::new(n, V::LANES);
    let cbuf = buf.cast_const();
    let w = s.w();
    let cv = <V::Elem as Elem>::from_f64;
    // Edge-interior cells at t+1, scalar in the canonical accumulation
    // order — bit-identical to the value the vector pipeline stores.
    let cell_t1 = |i: usize| -> V::Elem {
        let base = i as isize - r as isize;
        let mut acc = cv(w[0]) * tl_read(cbuf, base, &geo);
        for o in 1..=2 * r {
            acc = tl_read(cbuf, base + o as isize, &geo).mul_add(cv(w[o]), acc);
        }
        acc
    };
    let mut lo_t1 = [<V::Elem as Elem>::ZERO; MAX_R]; // cells 0..r @ t+1
    let mut hi_t1 = [<V::Elem as Elem>::ZERO; MAX_R]; // cells n-r..n @ t+1
    for m in 0..r {
        lo_t1[m] = cell_t1(m);
        hi_t1[m] = cell_t1(n - r + m);
    }
    // Fold into the t+1 halo values star1_tl2_edges consumes: halo cell
    // q - R is lt1[q], halo cell n + q is rt1[q].
    let edge = |src: usize| {
        if src < r {
            lo_t1[src]
        } else {
            hi_t1[src - (n - r)]
        }
    };
    let mut lt1 = [<V::Elem as Elem>::ZERO; MAX_R];
    let mut rt1 = [<V::Elem as Elem>::ZERO; MAX_R];
    for k in 1..=r {
        lt1[r - k] = edge(fold_src(n, k, true, b));
        rt1[k - 1] = edge(fold_src(n, k, false, b));
    }
    star1_tl2_edges::<V, S>(buf, n, &lt1, &rt1, s)
}

/// Row `sy` of `buf` advanced to t+1 into `dst`, with the x halos of
/// `dst` folded from its own just-computed interior (not copied from the
/// t-level pads). An `#[inline(always)]` `fn`, not a closure: it has two
/// call sites, and vector code must inline into the caller's ISA feature
/// context.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn advance_row<V: Vector, K: Row2>(
    buf: *mut V::Elem,
    rs: usize,
    nx: usize,
    sy: isize,
    dst: *mut V::Elem,
    b: Boundary,
    map: &RowMap,
    s: &K::S,
) {
    let c = buf.offset(sy * rs as isize).cast_const();
    K::row_tl::<V>(|dy| c.offset(dy * rs as isize), dst, nx, 0, nx, s);
    refresh_row(dst, nx, K::R, b, map);
}

/// A k = 2 [`grid2_pass`] under a refreshed boundary on a **wide-halo** grid
/// (`ry ≥ 2R`): advance the fold-source rows to t+1 into the outer halo
/// ring first, then run the usual row-ring pipeline with the second
/// step's out-of-range row reads redirected to the staged rows.
///
/// # Safety
/// As [`grid2_pass`] at `k = 2`, plus: the grid has at least `2R` halo
/// rows per side; the inner halo frame holds time-`t` values (caller ran
/// `halo::refresh`); `b` is not Dirichlet; `map` matches the row layout.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid2_tl2_wide<V: Vector, K: Row2>(
    buf: *mut V::Elem,
    rs: usize,
    nx: usize,
    ny: usize,
    ring: *mut V::Elem,
    b: Boundary,
    map: &RowMap,
    s: &K::S,
) {
    let r = K::R;
    let nr = 2 * r + 1;
    // Boot: halo row -k @ t+1 staged at raw row -(R+k), row ny-1+k @ t+1
    // at raw row ny-1+R+k — the fold-source row advanced one step. The
    // t-level pass below reads ghost distance ≤ R only, so the staging
    // rows are invisible to it.
    for k in 1..=r {
        for lo in [true, false] {
            let sy = fold_src(ny, k, lo, b) as isize;
            let dy = if lo {
                -((r + k) as isize)
            } else {
                (ny - 1 + r + k) as isize
            };
            advance_row::<V, K>(buf, rs, nx, sy, buf.offset(dy * rs as isize), b, map, s);
        }
    }
    for y in 0..ny + r {
        if y < ny {
            // ring[y] = row y @ t+1
            advance_row::<V, K>(buf, rs, nx, y as isize, ring.add((y % nr) * rs), b, map, s);
        }
        if y >= r {
            // main[ty] = row ty @ t+2 from t+1 rows (ring or staged halo)
            let ty = y - r;
            let at = |dy: isize| t1_slot(buf, ring, rs, nr, ny, ty as isize + dy, r);
            K::row_tl::<V>(at, buf.add(ty * rs), nx, 0, nx, s);
        }
    }
}

/// Plane `sz` of `buf` advanced to t+1 into the plane at `dp`, plus that
/// plane's own 2D halo frame at t+1, folded from its just-computed
/// interior (per-axis composition). See [`advance_row`] on why this is
/// not a closure.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn advance_plane<V: Vector, K: Row3>(
    buf: *mut V::Elem,
    rs: usize,
    ps: usize,
    nx: usize,
    ny: usize,
    sz: isize,
    dp: *mut V::Elem,
    b: Boundary,
    map: &RowMap,
    s: &K::S,
) {
    let cp = buf.offset(sz * ps as isize).cast_const();
    for y in 0..ny {
        let c = cp.add(y * rs);
        let at = |dz: isize, dy: isize| c.offset(dz * ps as isize + dy * rs as isize);
        K::row_tl::<V>(at, dp.add(y * rs), nx, 0, nx, s);
    }
    let plane = super::Geo {
        ndim: 2,
        n: [nx, ny, 1],
        rs,
        ps: 0,
        halo: K::R,
    };
    refresh(dp, &plane, K::R, b, map);
}

/// A k = 2 [`grid3_pass`] under a refreshed boundary on a wide-halo grid
/// (`r ≥ 2R` halo rows *and* planes): fold-source planes advance to t+1
/// into the outer halo planes, each given its own 2D halo frame; the
/// plane-ring pipeline then redirects out-of-range plane reads there.
///
/// # Safety
/// As [`grid3_pass`] at `k = 2`, plus: the grid has at least `2R` halo
/// rows and planes per side; the inner halo shell holds time-`t` values
/// (caller ran `halo::refresh`); `b` is not Dirichlet; `map` matches the
/// row layout.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn grid3_tl2_wide<V: Vector, K: Row3>(
    buf: *mut V::Elem,
    rs: usize,
    ps: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    ring: *mut V::Elem,
    b: Boundary,
    map: &RowMap,
    s: &K::S,
) {
    let r = K::R;
    let nr = 2 * r + 1;
    for k in 1..=r {
        for lo in [true, false] {
            let sz = fold_src(nz, k, lo, b) as isize;
            let dz = if lo {
                -((r + k) as isize)
            } else {
                (nz - 1 + r + k) as isize
            };
            let dp = buf.offset(dz * ps as isize);
            advance_plane::<V, K>(buf, rs, ps, nx, ny, sz, dp, b, map, s);
        }
    }
    for z in 0..nz + r {
        if z < nz {
            let rp = ring.add((z % nr) * ps);
            advance_plane::<V, K>(buf, rs, ps, nx, ny, z as isize, rp, b, map, s);
        }
        if z >= r {
            let tz = z - r;
            for y in 0..ny {
                let at = |dz: isize, dy: isize| {
                    t1_slot(buf, ring, ps, nr, nz, tz as isize + dz, r)
                        .offset((y as isize + dy) * rs as isize)
                };
                K::row_tl::<V>(at, buf.add(tz * ps + y * rs), nx, 0, nx, s);
            }
        }
    }
}
