//! Host probe: the denominators every roofline-relative number needs —
//! sustainable bandwidth (triad), peak FMA rate per element type, cache
//! sizes — measured in the same run as the numbers they divide, plus the
//! process facts (peak RSS, load) the result files record.

use std::hint::black_box;
use std::time::Instant;

use stencil_simd::{dispatch_elem, AlignedBuf, Elem, Isa, Vector};

use crate::stats::median;

/// Size in bytes of the largest cache of `level` that cpu0 sees, from
/// sysfs; `None` where sysfs has no cache directory (non-Linux).
fn cache_bytes(level: u32) -> Option<u64> {
    let mut best = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(lvl), Some(ty), Some(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if lvl.trim().parse() != Ok(level) || ty.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = match size.as_bytes().last() {
            Some(b'K') => size[..size.len() - 1].parse::<u64>().ok().map(|k| k << 10),
            Some(b'M') => size[..size.len() - 1].parse::<u64>().ok().map(|m| m << 20),
            _ => size.parse().ok(),
        };
        best = best.max(bytes);
    }
    best
}

/// Last-level cache size (the highest level sysfs lists); 32 MiB when
/// unknown, so the triad arrays still dwarf any plausible LLC.
pub fn llc_bytes() -> u64 {
    (1..=4).rev().find_map(cache_bytes).unwrap_or(32 << 20)
}

pub fn l2_bytes() -> u64 {
    cache_bytes(2).unwrap_or(1 << 20)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn mem_available_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<u64>().ok()? << 10)
}

pub fn loadavg_1min() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// `a[i] = b[i] + s·c[i]` over `n` f64 (a multiple of the lane count).
///
/// # Safety
/// All three pointers must be valid for `n` elements and 64-byte aligned.
#[inline(always)]
unsafe fn triad_pass<V: Vector<Elem = f64>>(a: *mut f64, b: *const f64, c: *const f64, n: usize) {
    let s = V::splat(3.0);
    let mut i = 0;
    while i < n {
        s.mul_add(V::load(c.add(i)), V::load(b.add(i)))
            .store(a.add(i));
        i += V::LANES;
    }
}

/// Three arrays for STREAM triad, first-touched once and reused for
/// every thread count.
pub struct TriadArrays {
    a: AlignedBuf<f64>,
    b: AlignedBuf<f64>,
    c: AlignedBuf<f64>,
}

impl TriadArrays {
    /// Arrays of (about) `array_bytes` each: a whole number of cache
    /// lines per worker for up to two workers.
    pub fn new(array_bytes: u64) -> TriadArrays {
        let n = (array_bytes as usize / 128).max(1) * 16;
        let mut arrays = TriadArrays {
            a: AlignedBuf::zeroed(n),
            b: AlignedBuf::zeroed(n),
            c: AlignedBuf::zeroed(n),
        };
        arrays.a.fill(0.0);
        arrays.b.fill(1.0);
        arrays.c.fill(2.0);
        arrays
    }

    pub fn array_bytes(&self) -> u64 {
        8 * self.a.len() as u64
    }

    /// Triad bandwidth in GB/s with `threads` ∈ {1, 2} workers, counting
    /// the three streams the code names (two reads, one write;
    /// write-allocate traffic is not counted). Best ISA; best of `reps`
    /// passes — a roof is a maximum. The calling thread is one of the
    /// workers, as in the workspace's own pool.
    pub fn gb_s(&mut self, threads: usize, reps: usize) -> f64 {
        let isa = Isa::detect_best();
        let n = self.a.len();
        let chunk = n / threads;
        let pass = |pa: &mut [f64], pb: &[f64], pc: &[f64]| {
            let (pa, pb, pc, len) = (pa.as_mut_ptr(), pb.as_ptr(), pc.as_ptr(), pa.len());
            // SAFETY: the three chunks are `len` long, start on
            // cache-line boundaries of 64-byte-aligned buffers, and
            // `len` is a multiple of 8, which every lane count divides.
            dispatch_elem!(isa, f64, triad_pass::<V>(pa, pb, pc, len));
        };
        let mut best = f64::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            std::thread::scope(|sc| {
                let mut parts = self.a.as_mut_slice().chunks_mut(chunk).zip(
                    self.b
                        .as_slice()
                        .chunks(chunk)
                        .zip(self.c.as_slice().chunks(chunk)),
                );
                let (mine_a, (mine_b, mine_c)) = parts.next().expect("at least one chunk");
                for (pa, (pb, pc)) in parts {
                    sc.spawn(move || pass(pa, pb, pc));
                }
                pass(mine_a, mine_b, mine_c);
            });
            best = best.min(t.elapsed().as_secs_f64());
        }
        black_box(self.a.as_slice()[n / 2]);
        3.0 * 8.0 * n as f64 / best / 1e9
    }
}

/// Array size for the DRAM triad: 4× the LLC per array, unless three of
/// them would exceed a quarter of `MemAvailable`. Returns (bytes, capped).
pub fn dram_triad_bytes() -> (u64, bool) {
    let want = 4 * llc_bytes();
    match mem_available_bytes() {
        Some(avail) if 3 * want > avail / 4 => (avail / 12, true),
        _ => (want, false),
    }
}

/// Ten independent FMA chains: enough to cover a 4–5 cycle latency at
/// two FMAs per cycle, so the loop runs at the issue rate.
///
/// # Safety
/// Must run inside the target-feature context of `V` (the dispatch
/// macros guarantee it).
#[inline(always)]
unsafe fn fma_chains<V: Vector>(iters: usize) -> V::Elem {
    let a = V::splat_f64(black_box(0.999_999));
    let b = V::splat_f64(black_box(1e-6));
    let mut acc = [V::splat_f64(1.0); 10];
    for _ in 0..iters {
        for x in &mut acc {
            *x = x.mul_add(a, b);
        }
    }
    let mut sum = acc[0];
    for x in &acc[1..] {
        sum = sum.add(*x);
    }
    sum.lane(0)
}

/// Peak FMA rate of one core in GF/s for element type `T` on the best
/// ISA (2 flops × lanes × 10 chains per iteration), best of `reps`.
pub fn fma_peak_gflops<T: Elem>(reps: usize) -> f64 {
    let isa = Isa::detect_best();
    let iters = 2_000_000usize;
    let flops = 2.0 * isa.lanes_for::<T>() as f64 * 10.0 * iters as f64;
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        // SAFETY: dispatch_elem! enters the matching feature context.
        black_box(dispatch_elem!(isa, T, fma_chains::<V>(iters)));
        best = best.min(t.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// Load `LANES` vectors from `p`, transpose, store back.
///
/// # Safety
/// `p` must hold `LANES²` elements, 64-byte aligned; feature context as
/// for [`fma_chains`].
#[inline(always)]
unsafe fn transpose_sets<V: Vector>(p: *mut V::Elem, iters: usize, baseline: bool) {
    let mut m = [V::zero(); 16];
    let m = &mut m[..V::LANES];
    for _ in 0..iters {
        for (i, v) in m.iter_mut().enumerate() {
            *v = V::load(p.add(i * V::LANES));
        }
        if baseline {
            V::transpose_baseline(m);
        } else {
            V::transpose(m);
        }
        for (i, v) in m.iter().enumerate() {
            v.store(p.add(i * V::LANES));
        }
    }
}

/// In-register `vl × vl` transposes per second on one L1-resident set,
/// with the paper's §3.5 schedule or the in-lane-first baseline.
pub fn transpose_sets_per_s<T: Elem>(baseline: bool) -> f64 {
    let isa = Isa::detect_best();
    let lanes = isa.lanes_for::<T>();
    let mut buf = AlignedBuf::<T>::zeroed(lanes * lanes);
    for (i, x) in buf.as_mut_slice().iter_mut().enumerate() {
        *x = T::from_f64(i as f64);
    }
    let iters = 400_000usize;
    let p = buf.as_mut_ptr();
    let mut secs = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        // SAFETY: buf holds lanes² elements at 64-byte alignment.
        dispatch_elem!(isa, T, transpose_sets::<V>(p, iters, baseline));
        secs.push(t.elapsed().as_secs_f64());
    }
    black_box(buf.as_slice()[1]);
    iters as f64 / median(&secs)
}
