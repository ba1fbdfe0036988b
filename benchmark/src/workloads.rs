//! The six workloads, from an L2-resident 1D kernel to the job server,
//! and the code that times one of them: set-up (several times, median),
//! bit-exact verification against an independent reference (timed apart,
//! excluded), then a fixed number of ops.

use std::time::Instant;

use stencil_core::exec::{DynPlan, DynSession, Method, Parallelism, Plan, Shape, Tiling};
use stencil_core::{AnyGrid, StencilSpec};

use crate::grids::{cells, seeded_grid, shape_of, state_hash, Fnv};
use crate::host::peak_rss_mb;
use crate::jobs::JobSet;
use crate::report::Metric;
use crate::serve;
use crate::stats::{median, OpTimes};
use crate::trace::Tracer;

pub const DEFAULT_SEED: u64 = 20_220_530;

/// The `--seconds` the op counts below are sized for on the 2-core
/// reference host (`run_seconds` in `BENCHMARK.json`).
pub const NOMINAL_SECONDS: f64 = 10.0;

pub const NAMES: [&str; 6] = [
    "seq_l2_1d3p",
    "seq_mem_2d5p",
    "tess_mem_2d5p",
    "par_mem_3d7p",
    "oneshot_img_2d9p",
    "serve_mix",
];

/// How an op reaches the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpMode {
    /// `DynSession::run(steps)` on a session kept open across ops: the
    /// embedder who keeps a grid resident.
    Session,
    /// `DynPlan::run(grid, steps)`: the one-shot caller, layout
    /// round-trip paid on every op.
    PlanRun,
}

/// A workload that steps one grid through a plan.
#[derive(Clone, Copy, Debug)]
pub struct PlanWorkload {
    pub name: &'static str,
    pub spec: &'static str,
    pub dims: [usize; 3],
    pub tiling: Tiling,
    pub par: Parallelism,
    /// Time steps per op.
    pub steps: usize,
    pub mode: OpMode,
    /// Ops at [`NOMINAL_SECONDS`]; see [`op_count`].
    pub base_ops: usize,
}

/// Jobs `serve_mix` sends at [`NOMINAL_SECONDS`] (both clients together).
pub const SERVE_BASE_OPS: usize = 10_000;
pub const SERVE_CLIENTS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Ops for a run of `seconds`: the nominal count scaled, never below the
/// 40 that the lowest tail percentile (p75) needs. A count, not a
/// duration, so both sides of a comparison do identical work.
pub fn op_count(base_ops: usize, seconds: f64) -> usize {
    ((base_ops as f64 * seconds / NOMINAL_SECONDS).round() as usize).max(40)
}

/// Ops of one run. A traced run reports no tail, so it does half — its
/// first half untraced, its second traced, ten ops each at least.
fn run_ops(base_ops: usize, opts: &RunOpts) -> usize {
    let ops = op_count(base_ops, opts.seconds);
    if opts.trace {
        (ops / 2).max(20)
    } else {
        ops
    }
}

const TESS_MEM: Tiling = Tiling::Tessellate {
    w: [512, 128, 0],
    h: 16,
    threads: 1,
};

/// The five plan workloads at full size.
pub const PLAN_WORKLOADS: [PlanWorkload; 5] = [
    PlanWorkload {
        name: "seq_l2_1d3p",
        spec: "1d3p",
        dims: [40_000, 0, 0],
        tiling: Tiling::None,
        par: Parallelism::Off,
        steps: 40_000,
        mode: OpMode::Session,
        base_ops: 48,
    },
    PlanWorkload {
        name: "seq_mem_2d5p",
        spec: "2d5p",
        dims: [8192, 4096, 0],
        tiling: Tiling::None,
        par: Parallelism::Off,
        steps: 16,
        mode: OpMode::Session,
        base_ops: 40,
    },
    PlanWorkload {
        name: "tess_mem_2d5p",
        spec: "2d5p",
        dims: [8192, 4096, 0],
        tiling: TESS_MEM,
        par: Parallelism::Off,
        steps: 16,
        mode: OpMode::PlanRun,
        base_ops: 40,
    },
    PlanWorkload {
        name: "par_mem_3d7p",
        spec: "3d7p@periodic",
        dims: [512, 512, 128],
        tiling: Tiling::None,
        // Fixed at 2, not nproc, so hosts compare.
        par: Parallelism::Threads(2),
        steps: 8,
        mode: OpMode::Session,
        base_ops: 40,
    },
    PlanWorkload {
        name: "oneshot_img_2d9p",
        spec: "2d9p@reflect@f32",
        // A real image width: 7.5 f32 AVX-512 sets per row.
        dims: [1920, 1080, 0],
        tiling: Tiling::None,
        par: Parallelism::Off,
        steps: 4,
        mode: OpMode::PlanRun,
        base_ops: 400,
    },
];

impl PlanWorkload {
    pub fn by_name(name: &str) -> Option<PlanWorkload> {
        PLAN_WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The same configuration at a shape small enough to shadow every op
    /// with the scalar oracle (`--check`).
    pub fn tiny(self) -> PlanWorkload {
        let (dims, steps, tiling) = match self.name {
            "seq_l2_1d3p" => ([2000, 0, 0], 50, self.tiling),
            "par_mem_3d7p" => ([72, 24, 16], 8, self.tiling),
            "oneshot_img_2d9p" => ([200, 60, 0], 4, self.tiling),
            "tess_mem_2d5p" => (
                [264, 96, 0],
                16,
                Tiling::Tessellate {
                    w: [128, 48, 0],
                    h: 8,
                    threads: 1,
                },
            ),
            _ => ([264, 96, 0], 16, self.tiling),
        };
        PlanWorkload {
            dims,
            steps,
            tiling,
            base_ops: 6,
            ..self
        }
    }

    pub fn shape(&self) -> Shape {
        shape_of(self.dims)
    }

    pub fn parsed_spec(&self) -> StencilSpec {
        self.spec.parse().expect("workload specs are valid")
    }

    pub fn threads(&self) -> usize {
        match self.par {
            Parallelism::Threads(n) => n,
            _ => 1,
        }
    }

    /// The plan under test: the paper's scheme through the erased API.
    pub fn build(&self) -> DynPlan {
        Plan::new(self.shape())
            .method(Method::TransLayout2)
            .tiling(self.tiling)
            .parallelism(self.par)
            .stencil(&self.parsed_spec())
            .expect("workload plans compile")
    }

    pub fn updates_per_op(&self) -> u64 {
        (cells(self.shape()) * self.steps) as u64
    }

    /// Span name of the public call an op makes.
    pub fn call_span(&self) -> &'static str {
        match self.mode {
            OpMode::Session => "exec.dyn_session_run",
            OpMode::PlanRun => "exec.dyn_plan_run",
        }
    }
}

/// An untiled, sequential plan of `method` in natural layout: it shares
/// no transposes, tiling, pool or server code with what is measured.
pub fn reference_plan(shape: Shape, spec: &StencilSpec, method: Method) -> DynPlan {
    Plan::new(shape)
        .method(method)
        .parallelism(Parallelism::Off)
        .stencil(spec)
        .expect("reference plans compile")
}

/// A plan and grid ready to take ops, in either mode.
pub enum Live<'p> {
    Session(DynSession<'p>),
    Run(&'p mut DynPlan, &'p mut AnyGrid),
}

impl<'p> Live<'p> {
    pub fn open(mode: OpMode, plan: &'p mut DynPlan, grid: &'p mut AnyGrid) -> Live<'p> {
        match mode {
            OpMode::Session => Live::Session(plan.session(grid)),
            OpMode::PlanRun => Live::Run(plan, grid),
        }
    }

    pub fn op(&mut self, steps: usize) {
        match self {
            Live::Session(s) => s.run(steps),
            Live::Run(plan, grid) => plan.run(&mut **grid, steps),
        }
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics and the op-time summary behind them;
    /// `None` for a traced run — end-to-end numbers are measured with
    /// tracing off.
    pub e2e: Option<(Vec<Metric>, OpTimes)>,
    /// Workload-scoped per-layer metrics; empty for an untraced run.
    pub layers: Vec<Metric>,
    pub state_hash: u64,
    pub verify_s: f64,
    /// Achieved GF/s in the timed phase and the roofline inputs.
    pub gflops: f64,
    pub ai: f64,
    /// Grid plus scratch, the bytes a sweep streams through.
    pub working_set_bytes: u64,
    pub threads: usize,
    pub f32_data: bool,
    pub tracer: Tracer,
}

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Timings of the timed phase, whatever the workload.
struct Timed {
    setup: Vec<f64>,
    /// Wall time of each attempted op, in order (per client for
    /// `serve_mix`: the first half of each is untraced).
    op_secs: Vec<Vec<f64>>,
    wall: f64,
    updates: u64,
    ok_ops: usize,
}

impl Timed {
    fn e2e(&self, trace: bool) -> Option<(Vec<Metric>, OpTimes)> {
        if trace {
            return None;
        }
        let t = OpTimes::of(&self.op_secs.concat());
        let metrics = vec![
            Metric::new("setup_s", median(&self.setup), "s"),
            Metric::new(
                "updates_per_s",
                self.updates as f64 / self.wall,
                "cell-updates/s",
            ),
            Metric::new("ops_per_s", self.ok_ops as f64 / self.wall, "1/s"),
            Metric::new("op_s_p50", t.p50, "s"),
            Metric::new("op_s_tail", t.tail, "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        Some((metrics, t))
    }

    /// The workload-scoped per-layer metrics of a traced run.
    /// `trace.overhead_ratio` is traced ÷ untraced median op time, the
    /// untraced ops being the first half of the same run.
    fn layers(&self, trace: bool, tr: &Tracer) -> Vec<Metric> {
        if !trace {
            return Vec::new();
        }
        let ratios: Vec<f64> = self
            .op_secs
            .iter()
            .map(|secs| {
                let (plain, traced) = secs.split_at(secs.len() / 2);
                median(traced) / median(plain)
            })
            .collect();
        let span_median = |name: &str| {
            let d = tr.durations(name);
            // A layer the workload never enters reads 0.
            if d.is_empty() {
                0.0
            } else {
                median(&d)
            }
        };
        vec![
            Metric::new("trace.overhead_ratio", median(&ratios), "ratio"),
            Metric::new("trace.spans", tr.spans().len() as f64, "count"),
            Metric::new("exec.plan_build_s", span_median("exec.plan_build"), "s"),
            Metric::new("exec.session_open_s", span_median("exec.session_open"), "s"),
            Metric::new(
                "exec.session_close_s",
                span_median("exec.session_close"),
                "s",
            ),
        ]
    }
}

/// One set-up of a plan workload: seeded fill, plan build, session open
/// and a warm-up op (the first op of the integration). Returns the
/// set-up time and the state hash after that op; the session is closed
/// again (outside the clock) so the grid can be read.
fn set_up_plan(w: &PlanWorkload, seed: u64, tr: &mut Tracer) -> (DynPlan, AnyGrid, f64, u64) {
    let t0 = Instant::now();
    let mut grid = tr.span("setup.fill", None, |_| {
        seeded_grid(w.shape(), &w.parsed_spec(), seed)
    });
    let mut plan = tr.span("exec.plan_build", None, |_| w.build());
    let (p, g) = (&mut plan, &mut grid);
    let mut live = tr.span("exec.session_open", None, move |_| Live::open(w.mode, p, g));
    tr.span("setup.warmup", None, |_| live.op(w.steps));
    let setup_s = t0.elapsed().as_secs_f64();
    tr.span("exec.session_close", None, |_| drop(live));
    let hash = state_hash(&grid);
    (plan, grid, setup_s, hash)
}

/// Run a plan workload end to end.
pub fn run_plan(w: &PlanWorkload, opts: &RunOpts) -> Outcome {
    let mut tr = Tracer::new(opts.trace, Instant::now());
    let spec = w.parsed_spec();
    let ops = run_ops(w.base_ops, opts);

    // (a) Reference: the first op from the same seeded state, by an
    // untiled sequential MultiLoad plan in natural layout.
    let t_verify = Instant::now();
    let ref_hash = {
        let mut g = seeded_grid(w.shape(), &spec, opts.seed);
        reference_plan(w.shape(), &spec, Method::MultiLoad).run(&mut g, w.steps);
        state_hash(&g)
    };

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut first_op_wrong = false;
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take()); // free one set-up before allocating the next
        let (plan, grid, setup_s, hash) = set_up_plan(w, opts.seed, &mut tr);
        setup.push(setup_s);
        if hash != ref_hash {
            eprintln!("{}: first op differs from the MultiLoad reference", w.name);
            first_op_wrong = true;
        }
        ready = Some((plan, grid));
    }
    let (mut plan, mut grid) = ready.expect("at least one set-up");
    // Everything so far that is not set-up: the reference run, the
    // hashes, closing sessions to read the grid.
    let verify_s = t_verify.elapsed().as_secs_f64() - setup.iter().sum::<f64>();

    // Timed phase: a long integration, each op continues from the last.
    let (p, g) = (&mut plan, &mut grid);
    let mut live = tr.span("exec.session_open", None, move |_| Live::open(w.mode, p, g));
    tr.set_enabled(false);
    let call = w.call_span();
    let mut secs = Vec::with_capacity(ops);
    let t_phase = Instant::now();
    for i in 0..ops {
        if opts.trace && i == ops / 2 {
            tr.set_enabled(true);
        }
        let t = Instant::now();
        tr.span("op", Some(i as u64), |tr| {
            tr.span(call, Some(i as u64), |_| live.op(w.steps))
        });
        secs.push(t.elapsed().as_secs_f64());
    }
    let wall = t_phase.elapsed().as_secs_f64();
    tr.set_enabled(opts.trace);
    tr.span("exec.session_close", None, |_| drop(live));

    let timed = Timed {
        setup,
        op_secs: vec![secs],
        wall,
        updates: w.updates_per_op() * ops as u64,
        ok_ops: ops,
    };
    let flops = spec.flops_per_point() as f64;
    Outcome {
        workload: w.name,
        attempted: ops as u64,
        // A wrong first op poisons every op after it.
        failed: if first_op_wrong { ops as u64 } else { 0 },
        e2e: timed.e2e(opts.trace),
        layers: timed.layers(opts.trace, &tr),
        state_hash: state_hash(&grid),
        verify_s,
        gflops: flops * timed.updates as f64 / wall / 1e9,
        // Computed, not measured: one read and one write stream per step.
        ai: flops / (2.0 * spec.dtype().size() as f64),
        working_set_bytes: (2 * cells(w.shape()) * spec.dtype().size()) as u64,
        threads: w.threads(),
        f32_data: spec.dtype().size() == 4,
        tracer: tr,
    }
}

/// Run `serve_mix` end to end.
pub fn run_serve(opts: &RunOpts) -> Outcome {
    let epoch = Instant::now();
    let mut tr = Tracer::new(opts.trace, epoch);
    let per_client = run_ops(SERVE_BASE_OPS, opts) / SERVE_CLIENTS;
    let mut wrong_warmups = 0;

    // (a)/(c) Oracles: every key by the scalar plan, run directly. They
    // depend on the seed only, so one computation serves every set-up.
    let t_verify = Instant::now();
    let oracles = JobSet::generate(opts.seed, SERVE_CLIENTS).oracles(Method::Scalar);
    let verify_s = t_verify.elapsed().as_secs_f64();

    // Set-up: generate keys and grids, start the server, send every hot
    // key once so the timed phase starts with a warm cache.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take()); // joins the previous dispatcher
        let t0 = Instant::now();
        let mut set = tr.span("setup.fill", None, |_| {
            JobSet::generate(opts.seed, SERVE_CLIENTS)
        });
        set.set_oracles(&oracles);
        let server = tr.span("server.new", None, |_| serve::start_server());
        wrong_warmups += tr.span("setup.warmup", None, |tr| serve::warm_up(&server, &set, tr));
        setup.push(t0.elapsed().as_secs_f64());
        ready = Some((server, set));
    }
    let (server, set) = ready.expect("at least one set-up");

    let run = serve::drive(&server, &set, SERVE_CLIENTS, per_client, opts.trace, epoch);
    drop(server);
    if opts.trace {
        trace_hot_plan_builds(&set, &mut tr);
    }

    let mut hash = Fnv::new();
    let (mut updates, mut flops, mut bytes, mut sweep_s) = (0u64, 0.0, 0.0, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (c, recs) in run.records.iter().enumerate() {
        for (r, job) in recs.iter().zip(set.sequence(c, per_client)) {
            attempted += 1;
            hash.word(r.out_hash);
            if r.ok {
                let k = set.key(job);
                updates += r.updates;
                flops += k.spec.flops_per_point() as f64 * r.updates as f64;
                bytes += 2.0 * k.spec.dtype().size() as f64 * r.updates as f64;
                sweep_s += r.sweep_s;
            } else {
                failed += 1;
            }
        }
    }
    let timed = Timed {
        setup,
        op_secs: run
            .records
            .iter()
            .map(|recs| recs.iter().map(|r| r.latency_s).collect())
            .collect(),
        wall: run.wall_s,
        updates,
        ok_ops: (attempted - failed) as usize,
    };
    if wrong_warmups > 0 {
        eprintln!("serve_mix: {wrong_warmups} warm-up outputs differ from the oracle");
        failed = attempted;
    }
    for t in run.tracers {
        tr.absorb(t);
    }
    Outcome {
        workload: "serve_mix",
        attempted,
        failed,
        e2e: timed.e2e(opts.trace),
        // The server keeps no sessions (every job is a `plan.run`), so
        // the session metrics read 0 here.
        layers: timed.layers(opts.trace, &tr),
        state_hash: hash.finish(),
        verify_s,
        // Over the dispatcher's sweep time, not the wall: the kernels'
        // rate with the server's share taken out. Computed ai as above.
        gflops: flops / sweep_s / 1e9,
        ai: flops / bytes,
        // The largest hot key decides: 3d7p at 64³ does not fit the L2.
        working_set_bytes: set
            .hot
            .iter()
            .map(|k| (2 * cells(k.shape) * k.spec.dtype().size()) as u64)
            .max()
            .unwrap_or(0),
        threads: 1,
        f32_data: false,
        tracer: tr,
    }
}

/// Compile every hot key's plan directly, in a span each — what a cache
/// miss on that key costs the dispatcher (`exec.plan_build_s`).
fn trace_hot_plan_builds(set: &JobSet, tr: &mut Tracer) {
    for k in &set.hot {
        tr.span("exec.plan_build", None, |_| {
            reference_plan(k.shape, &k.spec, Method::TransLayout2)
        });
    }
}

/// `--check` for a plan workload: tiny shape, **every** op shadowed by
/// `Method::Scalar`, and the MultiLoad reference held to the same
/// standard. Returns (attempted, failed).
pub fn check_plan(w: &PlanWorkload, seed: u64) -> (u64, u64) {
    let w = w.tiny();
    let (spec, shape) = (w.parsed_spec(), w.shape());
    let mut grid = seeded_grid(shape, &spec, seed);
    let mut scalar_grid = grid.clone();
    let mut multi_grid = grid.clone();
    let mut plan = w.build();
    let mut scalar = reference_plan(shape, &spec, Method::Scalar);
    let mut multi = reference_plan(shape, &spec, Method::MultiLoad);
    let mut failed = 0;
    for op in 0..w.base_ops {
        // Close the session each op so the grid is readable in natural
        // layout; the next op reopens it (state carries over).
        Live::open(w.mode, &mut plan, &mut grid).op(w.steps);
        scalar.run(&mut scalar_grid, w.steps);
        multi.run(&mut multi_grid, w.steps);
        let want = state_hash(&scalar_grid);
        if state_hash(&multi_grid) != want {
            eprintln!(
                "{}: op {op}: MultiLoad reference differs from Scalar",
                w.name
            );
            failed += 1;
        } else if state_hash(&grid) != want {
            eprintln!(
                "{}: op {op}: differs from Scalar by up to {:e}",
                w.name,
                stencil_core::verify::max_abs_diff_any(&grid, &scalar_grid)
            );
            failed += 1;
        }
    }
    (w.base_ops as u64, failed)
}

/// `--check` for `serve_mix`: every key's Scalar oracle must equal its
/// MultiLoad oracle, and a short two-client run must match it job by
/// job.
pub fn check_serve(seed: u64) -> (u64, u64) {
    let mut set = JobSet::generate(seed, SERVE_CLIENTS);
    let scalar = set.oracles(Method::Scalar);
    let multi = set.oracles(Method::MultiLoad);
    let mut failed = scalar.iter().zip(&multi).filter(|(s, m)| s != m).count() as u64;
    set.set_oracles(&scalar);
    let server = serve::start_server();
    let run = serve::drive(&server, &set, SERVE_CLIENTS, 150, false, Instant::now());
    let recs = run.records.iter().flatten();
    failed += recs.clone().filter(|r| !r.ok).count() as u64;
    (recs.count() as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_scale_with_seconds_and_keep_a_tail() {
        assert_eq!(op_count(48, 10.0), 48);
        assert_eq!(op_count(400, 5.0), 200);
        assert_eq!(op_count(40, 1.0), 40);
        assert_eq!(op_count(10_000, 20.0), 20_000);
        for w in PLAN_WORKLOADS {
            assert!(crate::stats::tail_percentile(op_count(w.base_ops, NOMINAL_SECONDS)).is_some());
        }
    }

    #[test]
    fn every_workload_passes_its_check_at_tiny_shapes() {
        for w in PLAN_WORKLOADS {
            assert_eq!(check_plan(&w, 99), (6, 0), "{}", w.name);
        }
    }

    #[test]
    fn names_cover_the_plan_workloads_and_the_server() {
        let mut names: Vec<&str> = PLAN_WORKLOADS.iter().map(|w| w.name).collect();
        names.push("serve_mix");
        assert_eq!(names, NAMES);
    }
}
