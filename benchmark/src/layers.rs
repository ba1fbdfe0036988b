//! The per-layer suite of a traced run: sibling configurations of the
//! workloads, timed from outside through the same public functions, one
//! family per module of the workspace (`simd`, `layout`, `kernels`,
//! `exec`, the `rayon` shim, `server`). Each family says which
//! end-to-end metric it is expected to move; see `README.md`.
//!
//! Siblings run a handful of ops each — they explain the end-to-end
//! numbers, they are not gated.

use std::hint::black_box;
use std::time::Instant;

use rayon::prelude::*;
use stencil_core::exec::{Method, Parallelism, PhaseTotals, Plan, Shape, Tiling};
use stencil_core::kernels::isa_entry;
use stencil_core::layout::{dlt_grid2, tl_grid1, tl_grid2};
use stencil_core::{AnyGrid, Grid1, Grid2, S1d3p, Star1, StencilSpec};
use stencil_server::{JobSpec, Server};
use stencil_simd::{Elem, Isa};

use crate::grids::{cells, seeded_grid};
use crate::host;
use crate::jobs::JobSet;
use crate::report::{Metric, METHODS, STENCILS};
use crate::serve::{self, JobRecord};
use crate::stats::median;
use crate::workloads::{Live, OpMode, Outcome, PlanWorkload};

/// Median wall time of `f` over `reps` calls, after one untimed call.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// The host denominators, measured in this run.
pub struct HostProbe {
    pub triad_gb_s: f64,
    pub triad_t2_gb_s: f64,
    pub triad_l2_gb_s: f64,
    pub fma_f64: f64,
    pub fma_f32: f64,
    pub metrics: Vec<Metric>,
    /// Sizes behind the bandwidth figures, for the result file.
    pub note: String,
}

pub fn host_probe() -> HostProbe {
    let (bytes, capped) = host::dram_triad_bytes();
    let mut dram = host::TriadArrays::new(bytes);
    let (triad_gb_s, triad_t2_gb_s) = (dram.gb_s(1, 3), dram.gb_s(2, 3));
    // Three arrays in half the L2.
    let mut l2 = host::TriadArrays::new(host::l2_bytes() / 6);
    let triad_l2_gb_s = l2.gb_s(1, 200);
    let fma_f64 = host::fma_peak_gflops::<f64>(3);
    let fma_f32 = host::fma_peak_gflops::<f32>(3);
    let llc = host::llc_bytes();
    HostProbe {
        triad_gb_s,
        triad_t2_gb_s,
        triad_l2_gb_s,
        fma_f64,
        fma_f32,
        metrics: vec![
            Metric::new("host.triad_gb_s", triad_gb_s, "GB/s"),
            Metric::new("host.triad_t2_gb_s", triad_t2_gb_s, "GB/s"),
            Metric::new("host.triad_l2_gb_s", triad_l2_gb_s, "GB/s"),
            Metric::new("host.triad_capped", f64::from(u8::from(capped)), "bool"),
            Metric::new("host.fma_peak_gflops.f64", fma_f64, "GF/s"),
            Metric::new("host.fma_peak_gflops.f32", fma_f32, "GF/s"),
            Metric::new("host.llc_bytes", llc as f64, "B"),
            Metric::new("host.nproc", host::nproc() as f64, "count"),
        ],
        note: format!(
            "triad: 3 arrays of {} B each (LLC {} B{}); L2 triad: 3 arrays of {} B",
            dram.array_bytes(),
            llc,
            if capped {
                ", capped at 1/4 MemAvailable"
            } else {
                ""
            },
            l2.array_bytes()
        ),
    }
}

/// `kernels.achieved_gflops`, `kernels.ai` (computed: one read and one
/// write stream per step) and `kernels.pct_roofline` = achieved ÷
/// min(FMA peak, ai × triad), the triad being the L2 one when grid and
/// scratch fit the L2 and the DRAM one (of as many threads as the
/// workload uses) otherwise. Above 100% of the nominal bandwidth roof
/// means temporal reuse (k = 2, tiling) — which is the point.
pub fn roofline(o: &Outcome, h: &HostProbe) -> Vec<Metric> {
    let peak = if o.f32_data { h.fma_f32 } else { h.fma_f64 } * o.threads as f64;
    let bw = if o.working_set_bytes <= host::l2_bytes() {
        h.triad_l2_gb_s
    } else if o.threads >= 2 {
        h.triad_t2_gb_s
    } else {
        h.triad_gb_s
    };
    vec![
        Metric::new("kernels.achieved_gflops", o.gflops, "GF/s"),
        Metric::new("kernels.ai", o.ai, "flop/B"),
        Metric::new(
            "kernels.pct_roofline",
            100.0 * o.gflops / peak.min(o.ai * bw),
            "%",
        ),
    ]
}

/// `simd`: in-register transposes → `layout.*` → `oneshot_img_2d9p`.
fn simd_metrics() -> Vec<Metric> {
    let paper = host::transpose_sets_per_s::<f64>(false);
    let baseline = host::transpose_sets_per_s::<f64>(true);
    vec![
        Metric::new("simd.transpose_sets_per_s.f64", paper, "1/s"),
        Metric::new(
            "simd.transpose_sets_per_s.f32",
            host::transpose_sets_per_s::<f32>(false),
            "1/s",
        ),
        Metric::new("simd.transpose_vs_baseline", paper / baseline, "ratio"),
    ]
}

/// Median seconds of the natural→transposed and the transposed→natural
/// toggle of `g` (the transform is an involution, so the two alternate).
fn tl_toggle_times<T: Elem>(g: &mut Grid2<T>, pairs: usize) -> (f64, f64) {
    let isa = Isa::detect_best();
    let (mut t_in, mut t_out) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let t = Instant::now();
        tl_grid2(g, isa);
        t_in.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        tl_grid2(g, isa);
        t_out.push(t.elapsed().as_secs_f64());
    }
    (median(&t_in), median(&t_out))
}

/// `layout`: transform bandwidth (bytes = one read + one write of the
/// interior) and the share of a one-shot op that is layout round-trip →
/// `oneshot_img_2d9p.op_s_p50`, and `setup_s` of the session workloads;
/// no effect expected on `seq_*` / `par_*` op times.
fn layout_metrics(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let gb = |shape: Shape, elem: usize, s: f64| 2.0 * (cells(shape) * elem) as f64 / s / 1e9;

    let one = PlanWorkload::by_name("oneshot_img_2d9p").expect("workload");
    let mut grid = seeded_grid(one.shape(), &one.parsed_spec(), seed);
    if let AnyGrid::D2F32(g) = &mut grid {
        let (t_in, t_out) = tl_toggle_times(g, 9);
        out.push(Metric::new(
            "layout.tl_in_gb_s.oneshot",
            gb(one.shape(), 4, t_in),
            "GB/s",
        ));
        out.push(Metric::new(
            "layout.tl_out_gb_s.oneshot",
            gb(one.shape(), 4, t_out),
            "GB/s",
        ));
    }
    let mut plan = one.build();
    let run_s = median_time(9, || plan.run(&mut grid, one.steps));
    let sess_s = {
        let mut sess = plan.session(&mut grid);
        median_time(9, || sess.run(one.steps))
    };
    out.push(Metric::new(
        "layout.roundtrip_share.oneshot",
        1.0 - sess_s / run_s,
        "ratio",
    ));
    drop((plan, grid));

    let mem = PlanWorkload::by_name("seq_mem_2d5p").expect("workload");
    let mut grid = seeded_grid(mem.shape(), &mem.parsed_spec(), seed);
    if let AnyGrid::D2(g) = &mut grid {
        let (t_in, t_out) = tl_toggle_times(g, 2);
        out.push(Metric::new(
            "layout.tl_in_gb_s.seq_mem",
            gb(mem.shape(), 8, t_in),
            "GB/s",
        ));
        out.push(Metric::new(
            "layout.tl_out_gb_s.seq_mem",
            gb(mem.shape(), 8, t_out),
            "GB/s",
        ));
        let mut dst = g.clone();
        let isa = Isa::detect_best();
        let t_dlt = median_time(2, || dlt_grid2(g, &mut dst, isa, false));
        out.push(Metric::new(
            "layout.dlt_in_gb_s",
            gb(mem.shape(), 8, t_dlt),
            "GB/s",
        ));
    }
    out
}

/// L2-resident shape and even step count for a kernel-matrix cell.
fn l2_case(spec: &StencilSpec) -> (Shape, usize) {
    match spec.ndim() {
        1 => (Shape::d1(40_000), 96),
        2 => (Shape::d2(512, 128), 64),
        _ => (Shape::d3(128, 32, 16), 32),
    }
}

/// `kernels`: the six paper stencils × five methods at L2-resident
/// shapes through `DynSession::run`, and the paper's Table 2 ordering
/// (TL2 ÷ MultiLoad) → `seq_l2_1d3p.updates_per_s` (the
/// `1d3p.translayout2` cell *is* that workload's kernel) and the
/// `serve_mix` hot keys.
fn kernel_matrix(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut ratios = Vec::new();
    for name in STENCILS {
        let spec: StencilSpec = name.parse().expect("paper stencil");
        let (shape, steps) = l2_case(&spec);
        let mut grid = seeded_grid(shape, &spec, seed);
        let flops = (spec.flops_per_point() * cells(shape) * steps) as f64;
        let mut gflops = Vec::new();
        for m in METHODS {
            let mut plan = Plan::new(shape)
                .method(m.parse::<Method>().expect("method name"))
                .parallelism(Parallelism::Off)
                .stencil(&spec)
                .expect("matrix plans compile");
            let mut sess = plan.session(&mut grid);
            let s = median_time(7, || sess.run(steps));
            gflops.push(flops / s / 1e9);
            out.push(Metric::new(
                format!("kernels.{name}.{m}.gflops"),
                flops / s / 1e9,
                "GF/s",
            ));
        }
        // METHODS[0] is multiload, METHODS[4] translayout2.
        ratios.push(Metric::new(
            format!("kernels.{name}.tl2_vs_multiload"),
            gflops[4] / gflops[0],
            "ratio",
        ));
    }
    out.extend(ratios);
    out
}

/// The ladder's operand: 1d3p, n = 40 000, t = 8.
const LADDER_N: usize = 40_000;
const LADDER_T: usize = 8;

fn ladder_grid(seed: u64) -> Grid1 {
    match seeded_grid(Shape::d1(LADDER_N), &StencilSpec::heat_1d3p(), seed) {
        AnyGrid::D1(g) => g,
        _ => unreachable!("a 1D f64 spec makes a 1D f64 grid"),
    }
}

/// Direct `isa_entry` calls on a `tl_grid1`-transformed buffer — the
/// bottom rung. Returns median seconds of `steps` steps by the k = 2
/// kernel and by the k = 1 kernel.
fn raw_kernel_times(seed: u64, steps: usize) -> (f64, f64) {
    let isa = Isa::detect_best();
    let s = S1d3p::heat();
    let mut g = ladder_grid(seed);
    tl_grid1(&mut g, isa);
    let mut d = g.clone();
    let tl2 = median_time(201, || {
        for _ in 0..steps / 2 {
            // SAFETY: `g` is a transposed Grid1 (interior plus halo pad
            // on both sides) holding 625 ≥ 2 vector sets; `isa` is the
            // detected best, so it is available.
            unsafe { isa_entry::star1_tl2::<f64, S1d3p>(isa, g.ptr_mut(), LADDER_N, &s) };
        }
    });
    let tl = median_time(201, || {
        for _ in 0..steps / 2 {
            // SAFETY: `g` and `d` are distinct transposed Grid1s of
            // LADDER_N cells; the range covers the whole interior.
            unsafe {
                isa_entry::star1_tl::<f64, S1d3p>(
                    isa,
                    g.ptr(),
                    d.ptr_mut(),
                    LADDER_N,
                    0,
                    LADDER_N,
                    &s,
                );
                isa_entry::star1_tl::<f64, S1d3p>(
                    isa,
                    d.ptr(),
                    g.ptr_mut(),
                    LADDER_N,
                    0,
                    LADDER_N,
                    &s,
                );
            }
        }
    });
    black_box(g.get(0));
    (tl2, tl)
}

/// `exec` ladder: the same (1d3p, n = 40 000, t = 8) timed at six
/// boundaries, and each layer's delta → `serve_mix.op_s_p50` and
/// `oneshot_img_2d9p`. Non-monotone rungs are returned as findings.
fn ladder(seed: u64) -> (Vec<Metric>, Vec<String>) {
    let reps = 201;
    let (kernel, _) = raw_kernel_times(seed, LADDER_T);

    let mut g = ladder_grid(seed);
    let mut plan = Plan::new(Shape::d1(LADDER_N))
        .parallelism(Parallelism::Off)
        .star1(S1d3p::heat())
        .expect("ladder plan compiles");
    let session = {
        let mut sess = plan.session(&mut g);
        median_time(reps, || sess.run(LADDER_T))
    };
    let plan_run = median_time(reps, || plan.run(&mut g, LADDER_T));

    let spec = StencilSpec::heat_1d3p();
    let mut dynp = Plan::new(Shape::d1(LADDER_N))
        .parallelism(Parallelism::Off)
        .stencil(&spec)
        .expect("ladder plan compiles");
    let dyn_session = {
        let mut sess = dynp.session(&mut g);
        median_time(reps, || sess.run(LADDER_T))
    };
    let dyn_run = median_time(reps, || dynp.run(&mut g, LADDER_T));

    let server = Server::with_defaults();
    let any = AnyGrid::from(g);
    let mut secs = Vec::with_capacity(reps);
    for i in 0..=reps {
        let job = JobSpec::new("ladder", spec.clone(), any.clone(), LADDER_T);
        let t = Instant::now();
        let out = server.submit(job).expect("ladder job accepted").wait();
        if i > 0 {
            secs.push(t.elapsed().as_secs_f64());
        }
        black_box(out.expect("ladder job ran"));
    }
    let server_s = median(&secs);

    let rungs = [
        ("kernel", kernel),
        ("session", session),
        ("plan_run", plan_run),
        ("dyn_session", dyn_session),
        ("dyn_run", dyn_run),
        ("server", server_s),
    ];
    let mut out: Vec<Metric> = rungs
        .iter()
        .map(|(n, s)| Metric::new(format!("exec.ladder.{n}_s"), *s, "s"))
        .collect();
    out.extend([
        Metric::new("exec.session.self_s", session - kernel, "s"),
        Metric::new("exec.plan_run.self_s", plan_run - session, "s"),
        Metric::new("exec.erased.self_s", dyn_session - session, "s"),
        Metric::new("server.self_s", server_s - dyn_run, "s"),
    ]);
    let order = [
        ("kernel", kernel, "session", session),
        ("session", session, "plan_run", plan_run),
        ("session", session, "dyn_session", dyn_session),
        ("dyn_session", dyn_session, "dyn_run", dyn_run),
        ("dyn_run", dyn_run, "server", server_s),
    ];
    let findings = order
        .iter()
        .filter(|(_, lo, _, hi)| lo > hi)
        .map(|(a, lo, b, hi)| format!("ladder not monotone: {a} {lo:.3e} s > {b} {hi:.3e} s"))
        .collect();
    (out, findings)
}

/// `kernels`: raw kernel rates and the cost of partial vector sets.
fn kernel_extras(seed: u64) -> Vec<Metric> {
    let steps = 96;
    let (tl2, tl) = raw_kernel_times(seed, steps);
    let flops = (S1d3p::flops_per_point() * LADDER_N * steps) as f64;

    // 2048-wide ÷ 1920-wide session rate of the oneshot stencil: 8 full
    // f32 AVX-512 sets per row against 7.5 → `oneshot_img_2d9p`.
    let one = PlanWorkload::by_name("oneshot_img_2d9p").expect("workload");
    let rate = |nx: usize| {
        let w = PlanWorkload {
            dims: [nx, one.dims[1], 0],
            ..one
        };
        let mut grid = seeded_grid(w.shape(), &w.parsed_spec(), seed);
        let mut plan = w.build();
        let mut sess = plan.session(&mut grid);
        w.updates_per_op() as f64 / median_time(9, || sess.run(w.steps))
    };
    vec![
        Metric::new("kernels.star1_tl2.raw_gflops", flops / tl2 / 1e9, "GF/s"),
        Metric::new("kernels.star1_tl.raw_gflops", flops / tl / 1e9, "GF/s"),
        Metric::new(
            "kernels.partial_set_penalty.f32",
            rate(2048) / rate(1920),
            "ratio",
        ),
    ]
}

/// Updates per second of `w`'s shape and spec under another
/// method / tiling / parallelism: one warm-up op, then the mean of two.
fn sibling_rate(
    w: &PlanWorkload,
    grid: &mut AnyGrid,
    method: Method,
    tiling: Tiling,
    par: Parallelism,
) -> (f64, PhaseTotals) {
    let mut plan = Plan::new(w.shape())
        .method(method)
        .tiling(tiling)
        .parallelism(par)
        .stencil(&w.parsed_spec())
        .expect("sibling plans compile");
    // Tessellated plans keep the grid natural, so `run` is their
    // resident form too — and leaves the plan free to hand out its phase
    // totals. Everything else steps a session, layout paid once.
    let mode = if matches!(tiling, Tiling::Tessellate { .. }) {
        OpMode::PlanRun
    } else {
        OpMode::Session
    };
    let secs = {
        let mut live = Live::open(mode, &mut plan, grid);
        live.op(w.steps);
        if let Live::Run(p, _) = &live {
            p.reset_phase_totals();
        }
        let t = Instant::now();
        live.op(w.steps);
        live.op(w.steps);
        t.elapsed().as_secs_f64() / 2.0
    };
    (w.updates_per_op() as f64 / secs, plan.phase_totals())
}

/// `exec`: tiling, threads and halo siblings of the out-of-cache
/// workloads → `tess_mem_2d5p.updates_per_s` only (tess.*, stage.*),
/// `par_mem_3d7p.updates_per_s` (par.*, halo.*).
fn exec_siblings(seed: u64) -> Vec<Metric> {
    use Method::{Dlt, MultiLoad, TransLayout2 as Tl2};
    use Parallelism::{Off, Threads};
    let mem = PlanWorkload::by_name("seq_mem_2d5p").expect("workload");
    let tess = |threads| match PlanWorkload::by_name("tess_mem_2d5p")
        .expect("workload")
        .tiling
    {
        Tiling::Tessellate { w, h, .. } => Tiling::Tessellate { w, h, threads },
        other => other,
    };
    let mut grid = seeded_grid(mem.shape(), &mem.parsed_spec(), seed);
    let (untiled, _) = sibling_rate(&mem, &mut grid, Tl2, Tiling::None, Off);
    let (untiled_t2, _) = sibling_rate(&mem, &mut grid, Tl2, Tiling::None, Threads(2));
    let (tess_tl2, phases) = sibling_rate(&mem, &mut grid, Tl2, tess(1), Off);
    let (tess_ml, _) = sibling_rate(&mem, &mut grid, MultiLoad, tess(1), Off);
    let (tess_t2, _) = sibling_rate(&mem, &mut grid, Tl2, tess(2), Threads(2));
    // The SDSL row of the paper's Table 3.
    let split = Tiling::Split {
        w: 128,
        h: 16,
        threads: 1,
    };
    let (split_dlt, _) = sibling_rate(&mem, &mut grid, Dlt, split, Off);
    drop(grid);

    let par = PlanWorkload::by_name("par_mem_3d7p").expect("workload");
    let mut grid = seeded_grid(par.shape(), &par.parsed_spec(), seed);
    let (par_off, _) = sibling_rate(&par, &mut grid, Tl2, Tiling::None, Off);
    let (par_t2, _) = sibling_rate(&par, &mut grid, Tl2, Tiling::None, Threads(2));
    drop(grid);
    let dirichlet = PlanWorkload {
        spec: "3d7p",
        ..par
    };
    let mut grid = seeded_grid(dirichlet.shape(), &dirichlet.parsed_spec(), seed);
    let (dir_off, _) = sibling_rate(&dirichlet, &mut grid, Tl2, Tiling::None, Off);

    let total = (phases.stage_in_ns + phases.compute_ns + phases.stage_out_ns + phases.halo_ns)
        .max(1) as f64;
    let share = |ns: u64| ns as f64 / total;
    vec![
        // Ideal is the two-thread ÷ one-thread triad ratio.
        Metric::new("exec.par.speedup.par_mem_3d7p", par_t2 / par_off, "ratio"),
        Metric::new(
            "exec.par.speedup.seq_mem_2d5p",
            untiled_t2 / untiled,
            "ratio",
        ),
        // Op time under periodic ÷ under Dirichlet, both `Off`.
        Metric::new(
            "exec.halo.periodic_vs_dirichlet",
            dir_off / par_off,
            "ratio",
        ),
        // The bar tiling must clear is 1.0.
        Metric::new("exec.tess.tiled_vs_untiled", tess_tl2 / untiled, "ratio"),
        Metric::new(
            "exec.tess.multiload_updates_per_s",
            tess_ml,
            "cell-updates/s",
        ),
        Metric::new("exec.tess.tl2_vs_multiload", tess_tl2 / tess_ml, "ratio"),
        Metric::new("exec.tess.speedup_threads2", tess_t2 / tess_tl2, "ratio"),
        // The staging shares bound what a staging fix can give back.
        Metric::new(
            "exec.stage.stage_in_share",
            share(phases.stage_in_ns),
            "ratio",
        ),
        Metric::new(
            "exec.stage.compute_share",
            share(phases.compute_ns),
            "ratio",
        ),
        Metric::new(
            "exec.stage.stage_out_share",
            share(phases.stage_out_ns),
            "ratio",
        ),
        Metric::new("exec.stage.halo_share", share(phases.halo_ns), "ratio"),
        Metric::new("exec.split.updates_per_s", split_dlt, "cell-updates/s"),
    ]
}

/// `rayon` shim: one empty dispatch on a 2-thread pool — the barrier
/// `par_mem_3d7p` pays 8 times per op (invisible against 34 ms steps,
/// dominant only at in-cache sizes).
fn rayon_barrier() -> Metric {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("2-thread pool");
    let s = pool.install(|| median_time(2001, || (0..2usize).into_par_iter().for_each(|_| {})));
    Metric::new("rayon.barrier_s", s, "s")
}

fn median_of(recs: &[&JobRecord], f: impl Fn(&JobRecord) -> f64) -> f64 {
    if recs.is_empty() {
        return 0.0;
    }
    median(&recs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// `server`: client clocks + the server's own sweep seconds + cache
/// counters, from a one-client run (no queueing, so latency − sweep is
/// pure overhead → `serve_mix.op_s_p50`) and a two-client run (the wait
/// behind the other client's job → `serve_mix.op_s_tail`).
fn server_siblings(seed: u64) -> Vec<Metric> {
    let mut set = JobSet::generate(seed, 2);
    let oracles = set.oracles(Method::Scalar);
    set.set_oracles(&oracles);
    let epoch = Instant::now();
    let run = |clients: usize| {
        let server = serve::start_server();
        serve::warm_up(&server, &set, &mut crate::trace::Tracer::new(false, epoch));
        serve::drive(&server, &set, clients, 1200, false, epoch)
    };
    let one = run(1);
    let two = run(2);

    let overhead = |r: &JobRecord| r.latency_s - r.sweep_s;
    let done = |run: &'_ serve::ServeRun| -> Vec<JobRecord> {
        run.records
            .iter()
            .flatten()
            .copied()
            .filter(|r| r.ok)
            .collect()
    };
    let (one_ok, two_ok) = (done(&one), done(&two));
    let hot_hits: Vec<&JobRecord> = one_ok.iter().filter(|r| !r.cold && r.hit).collect();
    let cold: Vec<&JobRecord> = one_ok.iter().filter(|r| r.cold).collect();
    let all_one: Vec<&JobRecord> = one_ok.iter().collect();
    let all_two: Vec<&JobRecord> = two_ok.iter().collect();
    let overhead_p50 = median_of(&hot_hits, overhead);
    let lookups = |a: u64, b: u64| (a - b) as f64;
    let hits = lookups(two.cache_after.hits, two.cache_before.hits);
    let misses = lookups(two.cache_after.misses, two.cache_before.misses);
    let every = || one.records.iter().chain(&two.records).flatten();
    vec![
        Metric::new("server.overhead_s_p50", overhead_p50, "s"),
        Metric::new(
            "server.queue_wait_s_p50",
            median_of(&all_two, overhead) - overhead_p50,
            "s",
        ),
        Metric::new(
            "server.submit_s_p50",
            median_of(&all_one, |r| r.submit_s),
            "s",
        ),
        Metric::new(
            "server.miss_penalty_s_p50",
            median_of(&cold, overhead) - overhead_p50,
            "s",
        ),
        Metric::new(
            "server.cache.hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        Metric::new(
            "server.cache.evictions",
            lookups(two.cache_after.evictions, two.cache_before.evictions),
            "count",
        ),
        // Near 1 means the dispatcher is saturated with sweeps and the
        // server's own overhead cannot matter.
        Metric::new(
            "server.dispatcher_busy_share",
            two_ok.iter().map(|r| r.sweep_s).sum::<f64>() / two.wall_s,
            "ratio",
        ),
        Metric::new(
            "server.refused",
            every().filter(|r| r.refused).count() as f64,
            "count",
        ),
        Metric::new(
            "server.failed",
            every().filter(|r| !r.ok && !r.refused).count() as f64,
            "count",
        ),
    ]
}

/// Every suite metric except the host probe, in `BENCHMARK.json` order,
/// plus findings worth a line in the report.
pub fn suite(seed: u64) -> (Vec<Metric>, Vec<String>) {
    let mut out = kernel_matrix(seed);
    out.extend(simd_metrics());
    out.extend(layout_metrics(seed));
    out.extend(kernel_extras(seed));
    let (rungs, findings) = ladder(seed);
    out.extend(rungs);
    out.extend(exec_siblings(seed));
    out.push(rayon_barrier());
    out.extend(server_siblings(seed));
    (out, findings)
}
