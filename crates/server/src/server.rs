//! The server: a dispatcher thread draining per-tenant queues through
//! the plan cache.
//!
//! # Scheduling model
//!
//! One dispatcher thread runs jobs one at a time; *intra*-job
//! parallelism comes from the job's own plan (its persistent worker
//! pool), so the machine is never oversubscribed by two jobs' pools
//! fighting each other. Across tenants the dispatcher is a classic
//! **weighted round-robin**: each tenant has a weight (default 1), and
//! a full rotation serves up to `weight` jobs from each tenant before
//! moving on. A tenant with an empty queue forfeits the rest of its
//! quantum — weights shape *contended* throughput and never leave the
//! machine idle while any queue is non-empty.
//!
//! # Backpressure and lifecycle
//!
//! Each tenant's queue is bounded ([`ServerConfig::queue_capacity`]);
//! [`Server::submit`] fails fast with `SubmitError::QueueFull` instead
//! of buffering without limit. Cancellation and per-job timeouts are
//! checked when the dispatcher picks a job up — a job that has started
//! runs to completion. Dropping the server stops intake, finishes the
//! in-flight job, fails every still-queued job with
//! `JobError::Shutdown`, and joins the dispatcher.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use stencil_core::exec::Plan;

use crate::cache::{CacheStats, PlanCache, PlanKey};
use crate::job::{JobError, JobHandle, JobOutput, JobShared, JobSpec, SubmitError};
use crate::trace::{CacheOutcome, RunTrace};

/// Capacity knobs for a [`Server`]; start from `ServerConfig::default()`.
#[derive(Copy, Clone, Debug)]
pub struct ServerConfig {
    /// Maximum resident plans in the cache (default 32; 0 disables
    /// caching, every job compiles its own plan).
    pub cache_capacity: usize,
    /// Maximum queued jobs per tenant before `submit` returns
    /// `SubmitError::QueueFull` (default 1024; must be ≥ 1).
    pub queue_capacity: usize,
    /// Completed-trace ring size; older traces are dropped once the
    /// ring is full (default 1024).
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            cache_capacity: 32,
            queue_capacity: 1024,
            trace_capacity: 1024,
        }
    }
}

impl ServerConfig {
    /// Set the plan-cache capacity (0 disables caching).
    pub fn cache_capacity(mut self, n: usize) -> ServerConfig {
        self.cache_capacity = n;
        self
    }

    /// Set the per-tenant queue bound (clamped to ≥ 1).
    pub fn queue_capacity(mut self, n: usize) -> ServerConfig {
        self.queue_capacity = n.max(1);
        self
    }

    /// Set the completed-trace ring size.
    pub fn trace_capacity(mut self, n: usize) -> ServerConfig {
        self.trace_capacity = n;
        self
    }
}

/// A job as it sits in a tenant queue.
struct QueuedJob {
    id: u64,
    spec: JobSpec,
    shared: Arc<JobShared>,
    deadline: Option<Instant>,
}

struct Tenant {
    weight: u32,
    queue: VecDeque<QueuedJob>,
}

/// Scheduler state, under one mutex with the intake path.
struct Sched {
    tenants: Vec<Tenant>,
    index: HashMap<String, usize>,
    /// Tenant currently holding the quantum.
    cursor: usize,
    /// Jobs the cursor tenant may still take this rotation.
    credit: u64,
    /// Total queued jobs across tenants (wake predicate).
    queued: usize,
    shutdown: bool,
}

impl Sched {
    /// Index of `name`'s queue, registering the tenant (weight 1) on
    /// first sight. Registration order fixes round-robin order.
    fn tenant_index(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        self.tenants.push(Tenant {
            weight: 1,
            queue: VecDeque::new(),
        });
        let i = self.tenants.len() - 1;
        self.index.insert(name.to_string(), i);
        i
    }

    /// Weighted round-robin: pop the next job, advancing the cursor and
    /// refreshing credit as quanta are used up or forfeited. Returns
    /// `None` only when every queue is empty.
    fn next_job(&mut self) -> Option<QueuedJob> {
        if self.queued == 0 || self.tenants.is_empty() {
            return None;
        }
        // At most one full rotation plus the current remainder finds a
        // non-empty queue, because `queued > 0`.
        for _ in 0..=self.tenants.len() {
            if self.credit > 0 {
                if let Some(job) = self.tenants[self.cursor].queue.pop_front() {
                    self.credit -= 1;
                    self.queued -= 1;
                    return Some(job);
                }
                // Empty queue forfeits the rest of its quantum.
                self.credit = 0;
            }
            self.cursor = (self.cursor + 1) % self.tenants.len();
            self.credit = u64::from(self.tenants[self.cursor].weight.max(1));
        }
        None
    }

    /// Shutdown path: drain every queue, failing each job.
    fn fail_all(&mut self, err: JobError) {
        for t in &mut self.tenants {
            while let Some(job) = t.queue.pop_front() {
                job.shared.finish(Err(err.clone()));
            }
        }
        self.queued = 0;
    }
}

struct Inner {
    cfg: ServerConfig,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    cache: Mutex<PlanCache>,
    traces: Mutex<VecDeque<RunTrace>>,
    next_id: AtomicU64,
    seq: AtomicU64,
    jobs_done: AtomicU64,
}

/// A multi-tenant stencil service: submit jobs, wait on handles.
///
/// One dispatcher thread drains bounded per-tenant queues under
/// weighted round-robin (see the crate docs for the scheduling and
/// lifecycle model, and `tests/server.rs` for end-to-end usage).
/// `Server` is `Send` and `Sync`; share it behind an `Arc` to submit
/// from many threads.
pub struct Server {
    inner: Arc<Inner>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start a server (and its dispatcher thread) with `cfg`.
    pub fn new(cfg: ServerConfig) -> Server {
        let inner = Arc::new(Inner {
            cfg,
            sched: Mutex::new(Sched {
                tenants: Vec::new(),
                index: HashMap::new(),
                cursor: 0,
                credit: 0,
                queued: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            cache: Mutex::new(PlanCache::new(cfg.cache_capacity)),
            traces: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
        });
        let worker = Arc::clone(&inner);
        let dispatcher = std::thread::Builder::new()
            .name("stencil-server".to_string())
            .spawn(move || dispatcher_loop(&worker))
            .expect("spawn dispatcher thread");
        Server {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// Start a server with [`ServerConfig::default`].
    pub fn with_defaults() -> Server {
        Server::new(ServerConfig::default())
    }

    /// Set a tenant's round-robin weight (clamped to ≥ 1), registering
    /// the tenant if it has not submitted yet. A tenant with weight `w`
    /// gets up to `w` jobs per rotation while its queue is non-empty.
    pub fn set_weight(&self, tenant: &str, weight: u32) {
        let mut s = self.inner.sched.lock().unwrap();
        let i = s.tenant_index(tenant);
        s.tenants[i].weight = weight.max(1);
    }

    /// Queue a job; returns immediately with a handle.
    ///
    /// Validates the grid against the spec up front — dimensionality,
    /// element type, and a halo that holds the stencil's radius
    /// (mismatches are a [`SubmitError`], not a dispatcher panic, and the
    /// cached plan for the key stays cached) — enforces the per-tenant
    /// queue bound, and refuses work during shutdown.
    pub fn submit(&self, job: JobSpec) -> Result<JobHandle, SubmitError> {
        if job.spec.ndim() != job.grid.ndim() {
            return Err(SubmitError::NdimMismatch {
                spec: job.spec.ndim(),
                grid: job.grid.ndim(),
            });
        }
        if job.spec.dtype() != job.grid.dtype() {
            return Err(SubmitError::DtypeMismatch {
                spec: job.spec.dtype(),
                grid: job.grid.dtype(),
            });
        }
        let (geo, radius) = (job.grid.geo(), job.spec.radius());
        if !geo.holds_radius(radius) {
            return Err(SubmitError::HaloTooNarrow {
                radius,
                halo: geo.halo,
            });
        }
        let deadline = job.timeout.map(|d| Instant::now() + d);
        let mut s = self.inner.sched.lock().unwrap();
        if s.shutdown {
            return Err(SubmitError::Shutdown);
        }
        let i = s.tenant_index(&job.tenant);
        if s.tenants[i].queue.len() >= self.inner.cfg.queue_capacity {
            return Err(SubmitError::QueueFull {
                tenant: job.tenant.clone(),
                capacity: self.inner.cfg.queue_capacity,
            });
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = JobShared::new();
        let handle = JobHandle {
            shared: Arc::clone(&shared),
            id,
        };
        s.tenants[i].queue.push_back(QueuedJob {
            id,
            spec: job,
            shared,
            deadline,
        });
        s.queued += 1;
        drop(s);
        self.inner.work_cv.notify_all();
        Ok(handle)
    }

    /// Snapshot of the plan cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.lock().unwrap().stats()
    }

    /// Completed-job traces, oldest first (bounded by
    /// [`ServerConfig::trace_capacity`]).
    pub fn traces(&self) -> Vec<RunTrace> {
        self.inner.traces.lock().unwrap().iter().cloned().collect()
    }

    /// Number of jobs that ran to completion (successes only).
    pub fn jobs_completed(&self) -> u64 {
        self.inner.jobs_done.load(Ordering::Relaxed)
    }

    /// Jobs currently queued across all tenants (excludes the job in
    /// flight on the dispatcher).
    pub fn queued_jobs(&self) -> usize {
        self.inner.sched.lock().unwrap().queued
    }
}

impl Drop for Server {
    /// Stop intake, fail queued jobs with `JobError::Shutdown` once the
    /// in-flight job (if any) finishes, and join the dispatcher. Wait on
    /// outstanding handles *before* dropping the server if you need
    /// their results.
    fn drop(&mut self) {
        {
            let mut s = self.inner.sched.lock().unwrap();
            s.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

fn dispatcher_loop(inner: &Inner) {
    loop {
        let job = {
            let mut s = inner.sched.lock().unwrap();
            loop {
                if s.shutdown {
                    s.fail_all(JobError::Shutdown);
                    return;
                }
                if let Some(job) = s.next_job() {
                    break job;
                }
                s = inner.work_cv.wait(s).unwrap();
            }
        };
        execute(inner, job);
    }
}

/// Run one job end to end: cancellation/deadline gate, cache checkout
/// (or compile), the sweep under `catch_unwind`, trace recording, cache
/// return, and the handle wake-up.
fn execute(inner: &Inner, q: QueuedJob) {
    let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
    if q.shared.cancel.load(Ordering::Acquire) {
        q.shared.finish(Err(JobError::Cancelled));
        return;
    }
    if let Some(deadline) = q.deadline {
        if Instant::now() >= deadline {
            q.shared.finish(Err(JobError::TimedOut));
            return;
        }
    }
    let JobSpec {
        tenant,
        spec,
        mut grid,
        steps,
        method,
        tiling,
        parallelism,
        ..
    } = q.spec;
    let key = PlanKey {
        spec,
        shape: grid.shape(),
        method,
        tiling,
        parallelism,
    };
    let (cached, outcome) = {
        let mut c = inner.cache.lock().unwrap();
        match c.take(&key) {
            Some(p) => (Some(p), CacheOutcome::Hit),
            None => (None, CacheOutcome::Miss),
        }
    };
    let mut plan = match cached {
        Some(p) => p,
        None => {
            let built = Plan::new(key.shape)
                .method(method)
                .tiling(tiling)
                .parallelism(parallelism)
                .stencil(&key.spec);
            match built {
                Ok(p) => p,
                Err(e) => {
                    q.shared.finish(Err(JobError::Plan(e)));
                    return;
                }
            }
        }
    };
    q.shared.start();
    let t0 = Instant::now();
    let swept = panic::catch_unwind(AssertUnwindSafe(|| plan.run(&mut grid, steps)));
    let seconds = t0.elapsed().as_secs_f64();
    if let Err(payload) = swept {
        // The plan's scratch state is suspect — drop it, don't re-cache.
        q.shared
            .finish(Err(JobError::Panicked(panic_message(payload))));
        return;
    }
    let trace = make_trace(&tenant, &key, &plan, q.id, seq, steps, seconds, outcome);
    inner.cache.lock().unwrap().put(key, plan);
    {
        let mut traces = inner.traces.lock().unwrap();
        if inner.cfg.trace_capacity > 0 {
            if traces.len() >= inner.cfg.trace_capacity {
                traces.pop_front();
            }
            traces.push_back(trace.clone());
        }
    }
    inner.jobs_done.fetch_add(1, Ordering::Relaxed);
    q.shared.finish(Ok(JobOutput { grid, trace }));
}

#[allow(clippy::too_many_arguments)]
fn make_trace(
    tenant: &str,
    key: &PlanKey,
    plan: &stencil_core::exec::DynPlan,
    job: u64,
    seq: u64,
    steps: usize,
    seconds: f64,
    cache: CacheOutcome,
) -> RunTrace {
    let dims = key.shape.dims();
    let cells: usize = dims[..key.shape.ndim()].iter().product();
    let shape = dims[..key.shape.ndim()]
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x");
    let flops = key.spec.flops_per_point() as f64 * cells as f64 * steps as f64;
    let gflops = if seconds > 0.0 {
        flops / seconds / 1e9
    } else {
        0.0
    };
    let bytes = (steps * cells * key.spec.dtype().size() * 2) as u64;
    RunTrace {
        job,
        seq,
        tenant: tenant.to_string(),
        spec: key.spec.to_string(),
        shape,
        method: plan.method().name(),
        isa: plan.isa().name(),
        tiling: tiling_name(plan.tiling()),
        threads: plan.threads(),
        steps,
        cells,
        bytes,
        seconds,
        gflops,
        cache,
    }
}

fn tiling_name(t: stencil_core::exec::Tiling) -> &'static str {
    match t {
        stencil_core::exec::Tiling::None => "none",
        stencil_core::exec::Tiling::Tessellate { .. } => "tessellate",
        stencil_core::exec::Tiling::Split { .. } => "split",
    }
}

/// The message of a caught panic. Takes the box by value: a `&Box<dyn
/// Any>` would unsize to a `&dyn Any` of the box itself, and neither
/// downcast would match.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::panic_message;

    #[test]
    fn panic_message_reads_both_string_payloads() {
        let literal = std::panic::catch_unwind(|| panic!("a literal")).unwrap_err();
        assert_eq!(panic_message(literal), "a literal");
        let n = 7;
        let formatted = std::panic::catch_unwind(|| panic!("formatted {n}")).unwrap_err();
        assert_eq!(panic_message(formatted), "formatted 7");
        assert_eq!(panic_message(Box::new(5u8)), "non-string panic payload");
    }
}
