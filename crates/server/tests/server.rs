//! End-to-end tests of the service layer: concurrency, bit-identity
//! against the engine driven directly, cache effectiveness, weighted
//! round-robin fairness, timeout/cancel, backpressure, and shutdown.

use std::sync::Arc;
use std::time::Duration;

use stencil_core::exec::{Plan, Shape};
use stencil_core::{AnyGrid, StencilSpec};
use stencil_server::{
    CacheOutcome, JobError, JobHandle, JobSpec, Server, ServerConfig, SubmitError,
};

/// Deterministic, spec-appropriate test grid (same recipe everywhere so
/// server results can be compared bit-for-bit against direct runs).
fn grid_for(spec: &StencilSpec, shape: Shape) -> AnyGrid {
    AnyGrid::from_fn_spec(shape, spec, |z, y, x| {
        (x as f64) + 0.25 * (y as f64) - 0.125 * (z as f64)
    })
    .unwrap()
}

/// Step an identical grid by driving the engine directly (no server),
/// with the same plan knobs `JobSpec` defaults to.
fn direct(spec: &StencilSpec, shape: Shape, steps: usize) -> Vec<f64> {
    let mut plan = Plan::new(shape).stencil(spec).unwrap();
    let mut g = grid_for(spec, shape);
    plan.run(&mut g, steps);
    g.to_vec()
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Park the dispatcher on a long-running job so queue contents can be
/// arranged deterministically behind it. Returns once the dispatcher
/// has actually picked the job up (the queue is drained), so everything
/// submitted afterwards sits behind ~5×10⁷ cell-updates of work.
fn stall(server: &Server, tenant: &str) -> JobHandle {
    let spec: StencilSpec = "1d3p".parse().unwrap();
    let shape = Shape::d1(1_000_000);
    let h = server
        .submit(JobSpec::new(
            tenant,
            spec.clone(),
            grid_for(&spec, shape),
            50,
        ))
        .unwrap();
    while server.queued_jobs() > 0 {
        std::thread::sleep(Duration::from_micros(100));
    }
    h
}

#[test]
fn server_and_handles_are_send() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Server>();
    assert_sync::<Server>();
    assert_send::<JobHandle>();
    assert_send::<JobSpec>();
}

#[test]
fn submit_validates_grid_against_spec() {
    let server = Server::with_defaults();
    let s1: StencilSpec = "1d3p".parse().unwrap();
    let s2: StencilSpec = "2d5p".parse().unwrap();
    let s2f32: StencilSpec = "2d5p@f32".parse().unwrap();
    let g2 = grid_for(&s2, Shape::d2(16, 16));

    let err = server
        .submit(JobSpec::new("t", s1, grid_for(&s2, Shape::d2(16, 16)), 1))
        .unwrap_err();
    assert!(matches!(
        err,
        SubmitError::NdimMismatch { spec: 1, grid: 2 }
    ));

    let err = server.submit(JobSpec::new("t", s2f32, g2, 1)).unwrap_err();
    assert!(matches!(err, SubmitError::DtypeMismatch { .. }));
}

/// A grid whose halo is narrower than the stencil is refused at submit,
/// and the hot plan for the same key stays cached.
#[test]
fn narrow_halo_grid_is_refused_and_the_plan_stays_cached() {
    let server = Server::with_defaults();
    let spec: StencilSpec = "2d5p".parse().unwrap();
    let shape = Shape::d2(16, 16);
    let good = || JobSpec::new("t", spec.clone(), grid_for(&spec, shape), 2);
    let first = server.submit(good()).unwrap().wait().unwrap();
    assert_eq!(first.trace.cache, CacheOutcome::Miss);
    assert_eq!(server.cache_stats().len, 1);

    let narrow = AnyGrid::from_fn(shape, 0, 0.0, |_, y, x| (x + y) as f64);
    let err = server
        .submit(JobSpec::new("t", spec.clone(), narrow, 2))
        .unwrap_err();
    assert_eq!(err, SubmitError::HaloTooNarrow { radius: 1, halo: 0 });
    assert!(err.to_string().contains("radius 1"), "{err}");

    assert_eq!(server.cache_stats().len, 1);
    let next = server.submit(good()).unwrap().wait().unwrap();
    assert_eq!(next.trace.cache, CacheOutcome::Hit);
}

/// The headline contract: two tenants hammering the server from eight
/// threads with a mix of dimensionalities, dtypes, and boundaries get
/// results bit-identical to driving the engine directly — and after the
/// first sight of each configuration, (well over) 90 % of jobs are
/// served from the plan cache.
#[test]
fn concurrent_tenants_bit_identical_and_cache_effective() {
    let cases: Vec<(StencilSpec, Shape, usize)> = [
        ("1d3p", Shape::d1(96)),
        ("1d5p@periodic", Shape::d1(80)),
        ("2d5p@reflect", Shape::d2(24, 17)),
        ("2d9p@f32", Shape::d2(20, 15)),
        ("3d7p@periodic@f32", Shape::d3(12, 9, 7)),
        ("3d27p", Shape::d3(10, 8, 6)),
    ]
    .into_iter()
    .map(|(name, shape)| (name.parse().unwrap(), shape, 3))
    .collect();

    let expected: Vec<Vec<f64>> = cases
        .iter()
        .map(|(spec, shape, steps)| direct(spec, *shape, *steps))
        .collect();

    let server = Arc::new(Server::with_defaults());

    // Warmup: one cold compile per distinct configuration.
    for (spec, shape, steps) in &cases {
        let h = server
            .submit(JobSpec::new(
                "warmup",
                spec.clone(),
                grid_for(spec, *shape),
                *steps,
            ))
            .unwrap();
        let out = h.wait().unwrap();
        assert_eq!(out.trace.cache, CacheOutcome::Miss);
    }

    // Steady state: 8 threads × 15 jobs, two tenants, every job a hit.
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let server = Arc::clone(&server);
            let cases = cases.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let tenant = if t % 2 == 0 { "alice" } else { "bob" };
                for j in 0..15 {
                    let (spec, shape, steps) = &cases[(t + j) % cases.len()];
                    let h = server
                        .submit(JobSpec::new(
                            tenant,
                            spec.clone(),
                            grid_for(spec, *shape),
                            *steps,
                        ))
                        .unwrap();
                    let out = h.wait().unwrap();
                    assert_eq!(out.trace.tenant, tenant);
                    assert!(
                        bits_equal(&out.grid.to_vec(), &expected[(t + j) % cases.len()]),
                        "server result diverged from direct run for {spec}"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let stats = server.cache_stats();
    assert_eq!(stats.misses, cases.len() as u64, "only warmup misses");
    assert_eq!(stats.hits, 8 * 15, "every steady-state job hit the cache");
    assert_eq!(stats.evictions, 0);
    assert!(
        stats.hit_rate() >= 0.9,
        "hit rate {:.3} below the 90 % bar",
        stats.hit_rate()
    );
    assert_eq!(server.jobs_completed(), (cases.len() + 8 * 15) as u64);

    // Every completed job left a trace, in dispatch order.
    let traces = server.traces();
    assert_eq!(traces.len(), cases.len() + 8 * 15);
    assert!(traces.windows(2).all(|w| w[0].seq < w[1].seq));
}

/// Weights shape contended throughput: with the dispatcher parked and
/// queues pre-filled, a weight-3 tenant gets three jobs per rotation to
/// a weight-1 tenant's one.
#[test]
fn weighted_round_robin_order_under_contention() {
    let server = Server::with_defaults();
    let stall_h = stall(&server, "warmup");

    server.set_weight("alice", 3);
    server.set_weight("bob", 1);
    let spec: StencilSpec = "1d3p".parse().unwrap();
    let shape = Shape::d1(64);
    let mut handles = Vec::new();
    // Interleave submissions so arrival order alone cannot explain the
    // dispatch order the scheduler produces.
    for _ in 0..2 {
        for tenant in ["bob", "alice", "alice", "bob", "alice"] {
            handles.push(
                server
                    .submit(JobSpec::new(
                        tenant,
                        spec.clone(),
                        grid_for(&spec, shape),
                        1,
                    ))
                    .unwrap(),
            );
        }
    }
    stall_h.wait().unwrap();
    for h in handles {
        h.wait().unwrap();
    }

    let order: Vec<String> = server
        .traces()
        .into_iter()
        .filter(|t| t.tenant != "warmup")
        .map(|t| t.tenant)
        .collect();
    // 6 alice + 4 bob at weights 3:1 → three alice, one bob per
    // rotation, then the bob backlog drains alone.
    let expect = [
        "alice", "alice", "alice", "bob", "alice", "alice", "alice", "bob", "bob", "bob",
    ];
    assert_eq!(order, expect, "dispatch order violates weighted RR");
}

#[test]
fn cancel_and_timeout_fail_queued_jobs() {
    let server = Server::with_defaults();
    let stall_h = stall(&server, "warmup");

    let spec: StencilSpec = "1d3p".parse().unwrap();
    let shape = Shape::d1(64);
    let cancelled = server
        .submit(JobSpec::new("t", spec.clone(), grid_for(&spec, shape), 1))
        .unwrap();
    cancelled.cancel();
    let timed_out = server
        .submit(JobSpec::new("t", spec.clone(), grid_for(&spec, shape), 1).timeout(Duration::ZERO))
        .unwrap();
    let survivor = server
        .submit(
            JobSpec::new("t", spec.clone(), grid_for(&spec, shape), 1)
                .timeout(Duration::from_secs(3600)),
        )
        .unwrap();

    stall_h.wait().unwrap();
    assert_eq!(cancelled.wait().unwrap_err(), JobError::Cancelled);
    assert_eq!(timed_out.wait().unwrap_err(), JobError::TimedOut);
    assert!(survivor.wait().is_ok(), "generous deadline must not fire");
}

#[test]
fn bounded_queue_pushes_back_per_tenant() {
    let server = Server::new(ServerConfig::default().queue_capacity(2));
    let stall_h = stall(&server, "warmup");

    let spec: StencilSpec = "1d3p".parse().unwrap();
    let shape = Shape::d1(64);
    let mk = |tenant: &str| JobSpec::new(tenant, spec.clone(), grid_for(&spec, shape), 1);

    let a1 = server.submit(mk("greedy")).unwrap();
    let a2 = server.submit(mk("greedy")).unwrap();
    let err = server.submit(mk("greedy")).unwrap_err();
    assert_eq!(
        err,
        SubmitError::QueueFull {
            tenant: "greedy".to_string(),
            capacity: 2
        }
    );
    // Backpressure is per tenant: another tenant still gets in.
    let b1 = server.submit(mk("patient")).unwrap();

    stall_h.wait().unwrap();
    for h in [a1, a2, b1] {
        h.wait().unwrap();
    }
    // With the queue drained the tenant may submit again.
    server.submit(mk("greedy")).unwrap().wait().unwrap();
}

#[test]
fn plan_errors_surface_through_the_handle() {
    // A periodic boundary needs every extent ≥ the radius; 1d5p (r = 2)
    // on a 3-cell row passes grid construction (from_fn, not
    // from_fn_spec) but fails plan compilation on the dispatcher.
    let server = Server::with_defaults();
    let spec: StencilSpec = "1d5p@periodic".parse().unwrap();
    let shape = Shape::d1(1);
    let grid = AnyGrid::from_fn(shape, spec.radius(), 0.0, |_, _, x| x as f64);
    let h = server.submit(JobSpec::new("t", spec, grid, 1)).unwrap();
    match h.wait() {
        Err(JobError::Plan(_)) => {}
        other => panic!("expected a plan error, got {other:?}"),
    }
}

#[test]
fn dropping_the_server_fails_queued_jobs_cleanly() {
    let server = Server::with_defaults();
    let stall_h = stall(&server, "warmup");
    let spec: StencilSpec = "1d3p".parse().unwrap();
    let shape = Shape::d1(64);
    let queued: Vec<JobHandle> = (0..3)
        .map(|_| {
            server
                .submit(JobSpec::new("t", spec.clone(), grid_for(&spec, shape), 1))
                .unwrap()
        })
        .collect();
    drop(server);
    // The in-flight job ran to completion; the queued ones were failed.
    stall_h.wait().unwrap();
    for h in queued {
        assert_eq!(h.wait().unwrap_err(), JobError::Shutdown);
    }
}
