//! Plan-reuse microbenchmark — the measurement behind the plan refactor
//! and the erased-API acceptance gate: repeated stepping through (a) the
//! legacy free function (clone + layout round-trip every call), (b) a
//! reused typed [`Plan`] (scratch allocated once, layout round-trip per
//! call), (c) a layout-resident typed session (no per-call clone, no
//! per-call transform — the steady-state hot loop is kernels only), and
//! (d) the same session through the type-erased `DynPlan` — whose
//! `run` must stay within ~2% of the typed session, since the only
//! added cost is one virtual call per invocation — and (e) the same
//! workload submitted as jobs through the `stencil-server` service
//! layer with its plan cache off (`cold_plan`: every job pays builder
//! validation + scratch allocation) vs on (`cached_plan`: the compile
//! is paid once and every later job checks a ready plan out of the
//! LRU). The cold/cached ratio is the service layer's reason to exist;
//! at L1 sizes the cached path should be several times faster.
//!
//! ```sh
//! cargo run --release --bin plan_reuse [-- --save-json] [--smoke] [--threads=N]
//! ```
//!
//! `--smoke` shrinks the sweep to CI size; `--threads=N` applies
//! `Parallelism::Threads(N)` to the plan/session variants (the free
//! function is the paper's sequential accounting and stays at 1).

use std::time::Instant;

use stencil_bench::save::{Row, Value};
use stencil_bench::{gflops, grid1, storage_level, Cli, Scale};
use stencil_core::exec::{Boundary, Parallelism, Plan, Shape};
use stencil_core::{run_spec, AnyGrid, Grid1, Method, S1d3p, Star1, StencilSpec};
use stencil_server::{JobSpec, Server, ServerConfig};
use stencil_simd::Isa;

/// Best-of-3 wall time for `calls` invocations of `f`.
fn time_calls<F: FnMut()>(calls: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` wall time for each closure, with the closures
/// interleaved *per call* inside every rep (A B C A B C …) and each
/// call timed individually into its closure's accumulator. The
/// boundary-parity gate compares these rows as *ratios*, and on a busy
/// host two back-to-back measurements see different background load —
/// call-level interleaving makes all variants sample essentially the
/// same noise within a rep, so the ratios stay stable even when the
/// absolute times are inflated. The per-call timer overhead (~tens of
/// ns) is paid equally by every variant and cancels out of the ratio.
fn time_calls_interleaved(calls: usize, reps: usize, fs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; fs.len()];
    let mut acc = vec![0.0f64; fs.len()];
    for _ in 0..reps {
        acc.fill(0.0);
        for _ in 0..calls {
            for (f, a) in fs.iter_mut().zip(acc.iter_mut()) {
                let t0 = Instant::now();
                f();
                *a += t0.elapsed().as_secs_f64();
            }
        }
        for (b, a) in best.iter_mut().zip(acc.iter()) {
            *b = b.min(*a);
        }
    }
    best
}

/// The per-call path every row is measured against: lift the weights
/// into a spec, build a throwaway sequential plan, run it once.
fn free_fn(method: Method, isa: Isa, g: &mut Grid1, s: &S1d3p, t: usize) {
    let spec = StencilSpec::star1(s.w()).expect("valid weights");
    run_spec(method, isa, g, &spec, t).expect("valid run");
}

fn main() {
    stencil_bench::banner(
        "plan_reuse: repeated stepping, free fn vs Plan vs Session vs DynSession (1D3P)",
    );
    let cli = Cli::parse();
    let isa = Isa::detect_best();
    let s = S1d3p::heat();
    let spec = StencilSpec::heat_1d3p();
    let par = match cli.threads() {
        Some(n) => Parallelism::Threads(n),
        None => Parallelism::Off,
    };
    let threads = cli.threads().unwrap_or(1);
    let mut rows: Vec<Row> = Vec::new();

    // Service-layer servers for the cold_plan / cached_plan rows: one
    // with caching disabled (every job compiles), one with the default
    // LRU (each size's plan compiles once, then every job hits). Both
    // live across the whole sweep; the queue bound just needs to admit
    // one rep's pipelined submissions.
    let cold_server = Server::new(
        ServerConfig::default()
            .cache_capacity(0)
            .queue_capacity(256),
    );
    let warm_server = Server::new(ServerConfig::default().queue_capacity(256));

    println!(
        "\n{:<10} {:<6} {:>7} {:>6} {:>12} {:>12} {:>12} {:>12}  {:>9} {:>9}",
        "n",
        "level",
        "chunk",
        "calls",
        "free_fn",
        "plan.run",
        "session",
        "dyn_sess",
        "sess/free",
        "dyn/sess"
    );
    let sweep: &[(usize, usize, usize)] = if cli.scale() == Scale::Smoke {
        // L1 and L3 get the full-size call counts: at 100/6 calls their
        // measured intervals (~0.1 ms / ~2.5 ms) are small enough that
        // timer granularity and scheduler noise flap the boundary-parity
        // check; 400/20 calls keep the ratios stable.
        &[(1_500, 8, 400), (40_000, 8, 30), (500_000, 4, 20)]
    } else {
        &[
            (1_500, 8, 400),
            (40_000, 8, 100),
            (500_000, 4, 20),
            (4_000_000, 2, 6),
        ]
    };
    for &(n, chunk, calls) in sweep {
        let init = grid1(n, 21);
        let method = Method::TransLayout2;

        // (a) per-call free function: clone + transform round-trip per
        // call, through the erased path.
        let mut g = init.clone();
        let free_s = time_calls(calls, || {
            free_fn(method, isa, &mut g, &s, chunk);
        });

        // (b) reused typed plan: scratch held across calls, transforms
        // per call.
        let mut plan = Plan::new(Shape::d1(n))
            .method(method)
            .isa(isa)
            .parallelism(par)
            .star1(s)
            .expect("valid plan");
        let mut g = init.clone();
        let plan_s = time_calls(calls, || {
            plan.run(&mut g, chunk);
        });

        // (c) typed layout-resident session: transforms paid once, zero
        // allocation/transform in the timed loop body — timed interleaved
        // with the boundary sessions below so the parity ratios compare
        // like noise windows. The three sessions hold three live grids,
        // and which *allocation slot* a grid lands in measurably shifts
        // its wall time at cache-edge sizes (page/THP luck), so the whole
        // trio is measured repeatedly with the allocation order rotated.
        // Each variant keeps its minimum for the absolute row; the parity
        // ratio is computed *within* each rotation (both members of a
        // pair saw the same noise there) and the median over the
        // rotations is kept — a rotation where either member sits in
        // the penalized slot lands at an extreme, and the median picks
        // one where neither does.
        const BOUNDARIES: [Boundary; 2] = [Boundary::Periodic, Boundary::Reflect];
        let variants: [Option<Boundary>; 3] = [None, Some(BOUNDARIES[0]), Some(BOUNDARIES[1])];
        let mut trio_best = [f64::INFINITY; 3];
        let mut rot_ratios: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        // Full slot cycles: each variant samples every allocation slot
        // `cycles` times, so the median has enough clean rotations to
        // reject a noise burst spanning one cycle. Small grids measure in
        // microseconds — give them more cycles (they're nearly free) so a
        // burst has to span most of the window to move the median.
        let cycles = if n <= 40_000 { 4 } else { 2 };
        for rot in 0..cycles * variants.len() {
            // Build plan+grid pairs in rotated order so each variant's
            // grid samples every allocation slot across the rotations.
            let order: Vec<usize> = (0..variants.len())
                .map(|i| (i + rot) % variants.len())
                .collect();
            let mut plans = Vec::new();
            let mut grids = Vec::new();
            for &v in order.iter().map(|&i| &variants[i]) {
                let mut b = Plan::new(Shape::d1(n))
                    .method(method)
                    .isa(isa)
                    .parallelism(par);
                if let Some(boundary) = v {
                    b = b.boundary(boundary);
                }
                plans.push(b.star1(s).expect("valid plan"));
                grids.push(init.clone());
            }
            let mut sessions: Vec<_> = plans
                .iter_mut()
                .zip(grids.iter_mut())
                .map(|(p, g)| p.session(g))
                .collect();
            let mut fs: Vec<&mut dyn FnMut()> = Vec::new();
            let mut closures: Vec<_> = sessions
                .iter_mut()
                .map(|sess| move || sess.run(chunk))
                .collect();
            for c in closures.iter_mut() {
                fs.push(c);
            }
            let timed = time_calls_interleaved(calls, 3, &mut fs);
            let mut by_variant = [0.0f64; 3];
            for (slot, secs) in timed.into_iter().enumerate() {
                let v = order[slot];
                by_variant[v] = secs;
                trio_best[v] = trio_best[v].min(secs);
            }
            rot_ratios[0].push(by_variant[1] / by_variant[0]);
            rot_ratios[1].push(by_variant[2] / by_variant[0]);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let m = v.len() / 2;
            if v.len().is_multiple_of(2) {
                (v[m - 1] + v[m]) / 2.0
            } else {
                v[m]
            }
        };
        let sess_s = trio_best[0];
        // Boundary rows store `Dirichlet best × median paired ratio`, so
        // the gate's recomputed ratio is exactly the noise-paired median.
        let boundary_s = [
            sess_s * median(&mut rot_ratios[0]),
            sess_s * median(&mut rot_ratios[1]),
        ];

        // (d) the same layout-resident session through the type-erased
        // DynPlan: one virtual call per `run` on top of (c).
        let mut dyn_plan = Plan::new(Shape::d1(n))
            .method(method)
            .isa(isa)
            .parallelism(par)
            .stencil(&spec)
            .expect("valid plan");
        let mut g = init.clone();
        let mut dyn_sess = dyn_plan.session(&mut g);
        let dyn_s = time_calls(calls, || {
            dyn_sess.run(chunk);
        });
        drop(dyn_sess);

        // (e) the f32 dtype family: the same workload at half the
        // element width — typed `star1_elem::<f32>` session and the
        // erased `@f32` session. The typed row is the dtype-speedup
        // numerator bench_gate pairs against (c) (twice the lane width
        // owes ≥1.3x geomean on SIMD hosts); the erased row rides the
        // same ≤2% erasure bar as (d). The two f32 variants are timed
        // interleaved so their overhead ratio samples one noise window.
        let spec32 = spec.clone().with_dtype(stencil_simd::Dtype::F32);
        let init32 = stencil_bench::grid1_f32(n, 21);
        let mut plan32 = Plan::new(Shape::d1(n))
            .method(method)
            .isa(isa)
            .parallelism(par)
            .star1_elem::<f32, _>(s)
            .expect("valid plan");
        let mut g32 = init32.clone();
        let mut dyn_plan32 = Plan::new(Shape::d1(n))
            .method(method)
            .isa(isa)
            .parallelism(par)
            .stencil(&spec32)
            .expect("valid plan");
        let mut ge32 =
            AnyGrid::from_vec_spec_f32(Shape::d1(n), &spec32, init32.interior().to_vec())
                .expect("valid f32 grid");
        let (sess32_s, dyn32_s) = {
            let mut sess32 = plan32.session(&mut g32);
            let mut dyn_sess32 = dyn_plan32.session(&mut ge32);
            let mut a = move || sess32.run(chunk);
            let mut b = move || dyn_sess32.run(chunk);
            let mut fs: Vec<&mut dyn FnMut()> = vec![&mut a, &mut b];
            let timed = time_calls_interleaved(calls, 3, &mut fs);
            (timed[0], timed[1])
        };

        let level = storage_level(2 * 8 * n);
        println!(
            "{:<10} {:<6} {:>7} {:>6} {:>9.2} ms {:>9.2} ms {:>9.2} ms {:>9.2} ms  {:>8.2}x {:>8.3}x",
            n,
            level,
            chunk,
            calls,
            free_s * 1e3,
            plan_s * 1e3,
            sess_s * 1e3,
            dyn_s * 1e3,
            free_s / sess_s,
            dyn_s / sess_s,
        );
        for (variant, secs) in [
            ("free_fn", free_s),
            ("plan_run", plan_s),
            ("session", sess_s),
            ("dyn_session", dyn_s),
        ] {
            rows.push(vec![
                ("n", Value::from(n)),
                ("level", Value::from(level)),
                ("threads", Value::from(threads)),
                ("chunk", Value::from(chunk)),
                ("calls", Value::from(calls)),
                ("variant", Value::from(variant)),
                ("seconds", Value::from(secs)),
                (
                    "gflops",
                    Value::from(gflops(n, chunk * calls, spec.flops_per_point(), secs)),
                ),
            ]);
        }

        println!(
            "{:<10} {:<6} {:>7} {:>6} {:>9} dtype=f32        {:>9.2} ms {:>9.2} ms  {:>8.2}x f64/f32 {:>8.3}x dyn/sess",
            n,
            level,
            chunk,
            calls,
            "",
            sess32_s * 1e3,
            dyn32_s * 1e3,
            sess_s / sess32_s,
            dyn32_s / sess32_s,
        );
        // The f32 rows carry the f64 sibling's identity fields plus a
        // `dtype` marker — bench_gate's dtype-speedup check pairs each
        // with the row sharing the rest of its identity (`level` stays
        // the sibling's 8-byte classification for exactly that reason).
        for (variant, secs) in [("session", sess32_s), ("dyn_session", dyn32_s)] {
            rows.push(vec![
                ("n", Value::from(n)),
                ("level", Value::from(level)),
                ("threads", Value::from(threads)),
                ("chunk", Value::from(chunk)),
                ("calls", Value::from(calls)),
                ("variant", Value::from(variant)),
                ("dtype", Value::from("f32")),
                ("seconds", Value::from(secs)),
                (
                    "gflops",
                    Value::from(gflops(n, chunk * calls, spec.flops_per_point(), secs)),
                ),
            ]);
        }

        // Boundary row family: the same layout-resident session under the
        // refreshed boundaries, timed interleaved with (c) above. The
        // fused halo fast path stages the t+1 edge values in registers so
        // the TL2 session keeps its k = 2 pass; these rows should sit
        // within ~10% of the Dirichlet session (bench_gate's
        // boundary-parity check enforces the ratio).
        for (boundary, secs) in BOUNDARIES.into_iter().zip(boundary_s) {
            println!(
                "{:<10} {:<6} {:>7} {:>6} {:>9} boundary={:<8} {:>9.2} ms  {:>8.3}x vs session",
                n,
                level,
                chunk,
                calls,
                "",
                boundary.name(),
                secs * 1e3,
                secs / sess_s,
            );
            rows.push(vec![
                ("n", Value::from(n)),
                ("level", Value::from(level)),
                ("threads", Value::from(threads)),
                ("chunk", Value::from(chunk)),
                ("calls", Value::from(calls)),
                ("variant", Value::from("session")),
                ("boundary", Value::from(boundary.name())),
                ("seconds", Value::from(secs)),
                (
                    "gflops",
                    Value::from(gflops(n, chunk * calls, spec.flops_per_point(), secs)),
                ),
            ]);
        }

        // (f) the service layer: the same stencil submitted as jobs.
        // The jobs request a 4-thread plan (or `--threads=N` if given):
        // that is the configuration a multi-tenant service actually
        // runs, and it is where plan compilation has real weight — a
        // parallel plan's builder spawns its persistent worker pool, so
        // a cold job pays thread spawn + join on top of validation and
        // scratch allocation, all of which the cache elides. Small
        // per-job step counts keep the sweep cheap relative to that
        // setup; the JobSpecs (grids included) are built outside the
        // timed region and the whole batch is submitted pipelined
        // before the first wait, so the measured interval is dispatcher
        // work, not submit/wake round-trips.
        let chunk_srv = 2;
        let calls_srv = calls.min(200);
        let threads_srv = cli.threads().unwrap_or(4).max(2);
        let mk_jobs = || -> Vec<JobSpec> {
            (0..calls_srv)
                .map(|_| {
                    let grid =
                        AnyGrid::from_vec_spec(Shape::d1(n), &spec, init.interior().to_vec())
                            .expect("valid grid");
                    JobSpec::new("bench", spec.clone(), grid, chunk_srv)
                        .method(method)
                        .parallelism(Parallelism::Threads(threads_srv))
                })
                .collect()
        };
        let time_server = |server: &Server| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let jobs = mk_jobs();
                let t0 = Instant::now();
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|j| server.submit(j).expect("queue has room"))
                    .collect();
                for h in handles {
                    h.wait().expect("job ran");
                }
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        };
        let cold_s = time_server(&cold_server);
        // Warm the cache (one untimed compile), then measure all-hits.
        for j in mk_jobs().into_iter().take(1) {
            warm_server
                .submit(j)
                .expect("queue has room")
                .wait()
                .expect("job ran");
        }
        let cached_s = time_server(&warm_server);
        println!(
            "{:<10} {:<6} {:>7} {:>6} {:>9} server           {:>9.2} ms {:>9.2} ms  {:>8.2}x cold/cached",
            n,
            level,
            chunk_srv,
            calls_srv,
            "",
            cold_s * 1e3,
            cached_s * 1e3,
            cold_s / cached_s,
        );
        for (variant, secs) in [("cold_plan", cold_s), ("cached_plan", cached_s)] {
            rows.push(vec![
                ("n", Value::from(n)),
                ("level", Value::from(level)),
                ("threads", Value::from(threads_srv)),
                ("chunk", Value::from(chunk_srv)),
                ("calls", Value::from(calls_srv)),
                ("variant", Value::from(variant)),
                ("seconds", Value::from(secs)),
                (
                    "gflops",
                    Value::from(gflops(
                        n,
                        chunk_srv * calls_srv,
                        spec.flops_per_point(),
                        secs,
                    )),
                ),
            ]);
        }
    }
    println!(
        "\n(free_fn clones + transforms every call; plan.run reuses buffers; session \
         additionally stays layout-resident; dyn_session is the erased API over the \
         same session — dyn/sess is the erasure overhead; cold_plan/cached_plan run \
         the workload as stencil-server jobs with the plan cache off/on)"
    );
    let warm_stats = warm_server.cache_stats();
    println!(
        "(server plan cache: {} hits / {} misses, {:.0}% hit rate across the sweep)",
        warm_stats.hits,
        warm_stats.misses,
        100.0 * warm_stats.hit_rate(),
    );
    stencil_bench::save::maybe_save("plan_reuse", &rows);
}
