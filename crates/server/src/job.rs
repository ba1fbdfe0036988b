//! Job descriptions, handles, and the error surface of the service layer.
//!
//! A [`JobSpec`] is the unit of submission: a tenant name, a runtime
//! stencil description, the grid to step, and a step count, plus the
//! plan knobs the engine exposes. Submission returns a [`JobHandle`];
//! [`JobHandle::wait`] blocks until the dispatcher has run (or rejected)
//! the job and yields the stepped grid together with its [`RunTrace`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use stencil_core::exec::{Method, Parallelism, PlanError, Tiling};
use stencil_core::{AnyGrid, StencilSpec};
use stencil_simd::Dtype;

use crate::trace::RunTrace;

/// One unit of work: step `grid` by `steps` applications of `spec`.
///
/// Built with [`JobSpec::new`] and refined with the builder methods.
/// The plan knobs default to the engine's defaults with one exception:
/// **parallelism defaults to [`Parallelism::Off`]**, because a service
/// runs many tenants' jobs concurrently with each other and per-job
/// `Auto` would oversubscribe the machine; opt individual jobs into
/// threads explicitly with [`JobSpec::parallelism`].
pub struct JobSpec {
    pub(crate) tenant: String,
    pub(crate) spec: StencilSpec,
    pub(crate) grid: AnyGrid,
    pub(crate) steps: usize,
    pub(crate) method: Method,
    pub(crate) tiling: Tiling,
    pub(crate) parallelism: Parallelism,
    pub(crate) timeout: Option<Duration>,
}

impl JobSpec {
    /// A job for `tenant` stepping `grid` by `steps` sweeps of `spec`.
    ///
    /// The grid must match the spec's dimensionality and element type
    /// and carry a halo as wide as the stencil's radius; `Server::submit`
    /// rejects mismatches with a [`SubmitError`] instead of letting the
    /// engine panic on the dispatcher thread.
    pub fn new(
        tenant: impl Into<String>,
        spec: StencilSpec,
        grid: AnyGrid,
        steps: usize,
    ) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            spec,
            grid,
            steps,
            method: Method::TransLayout2,
            tiling: Tiling::None,
            parallelism: Parallelism::Off,
            timeout: None,
        }
    }

    /// Select the vectorization scheme (default: the engine's
    /// [`Method::TransLayout2`]).
    pub fn method(mut self, m: Method) -> JobSpec {
        self.method = m;
        self
    }

    /// Select a temporal tiling framework (default: none).
    pub fn tiling(mut self, t: Tiling) -> JobSpec {
        self.tiling = t;
        self
    }

    /// Select core-level parallelism for this job (default: `Off`; see
    /// the type-level docs for why the service default differs from the
    /// engine's).
    pub fn parallelism(mut self, p: Parallelism) -> JobSpec {
        self.parallelism = p;
        self
    }

    /// Fail the job with [`JobError::TimedOut`] if it is still queued
    /// when the deadline passes. The deadline is checked when the
    /// dispatcher picks the job up; a job that has already started runs
    /// to completion.
    pub fn timeout(mut self, d: Duration) -> JobSpec {
        self.timeout = Some(d);
        self
    }
}

/// Why `Server::submit` refused a job (the job was never queued).
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// The tenant's queue is at capacity — backpressure. Retry after
    /// draining some handles.
    QueueFull {
        /// Tenant whose queue is full.
        tenant: String,
        /// The per-tenant queue capacity in effect.
        capacity: usize,
    },
    /// The server is shutting down and accepts no new work.
    Shutdown,
    /// The grid's element type does not match the spec's.
    DtypeMismatch {
        /// Element type the spec declares.
        spec: Dtype,
        /// Element type the grid holds.
        grid: Dtype,
    },
    /// The grid's dimensionality does not match the spec's.
    NdimMismatch {
        /// Dimensions the spec operates on.
        spec: usize,
        /// Dimensions the grid has.
        grid: usize,
    },
    /// The grid carries fewer halo rows/planes than the stencil reaches
    /// (see [`Geo::holds_radius`](stencil_core::kernels::Geo::holds_radius)).
    HaloTooNarrow {
        /// The stencil radius.
        radius: usize,
        /// Halo rows/planes per side the grid has.
        halo: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { tenant, capacity } => {
                write!(f, "queue for tenant '{tenant}' is full ({capacity} jobs)")
            }
            SubmitError::Shutdown => write!(f, "server is shutting down"),
            SubmitError::DtypeMismatch { spec, grid } => write!(
                f,
                "spec element type {} does not match grid element type {}",
                spec.name(),
                grid.name()
            ),
            SubmitError::NdimMismatch { spec, grid } => {
                write!(f, "spec is {spec}D but grid is {grid}D")
            }
            SubmitError::HaloTooNarrow { radius, halo } => write!(
                f,
                "grid halo of {halo} rows/planes is narrower than the stencil radius {radius}"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a queued job did not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The engine rejected the plan configuration.
    Plan(PlanError),
    /// [`JobHandle::cancel`] was called before the job started.
    Cancelled,
    /// The job's [`JobSpec::timeout`] deadline passed while it was
    /// still queued.
    TimedOut,
    /// The server was dropped while the job was still queued.
    Shutdown,
    /// The sweep panicked on the dispatcher thread; the payload is the
    /// panic message. The plan involved is discarded, not re-cached.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Plan(e) => write!(f, "plan rejected: {e}"),
            JobError::Cancelled => write!(f, "job cancelled before it started"),
            JobError::TimedOut => write!(f, "job timed out while queued"),
            JobError::Shutdown => write!(f, "server shut down before the job ran"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

/// A finished job: the stepped grid and the trace of how it ran.
#[derive(Debug)]
pub struct JobOutput {
    /// The submitted grid after `steps` sweeps, back in natural layout.
    pub grid: AnyGrid,
    /// What ran, where, and how fast.
    pub trace: RunTrace,
}

/// Lifecycle of a job, shared between handle and dispatcher.
pub(crate) enum JobState {
    /// Queued, not yet picked up.
    Pending,
    /// The dispatcher is running the sweep.
    Running,
    /// Finished; the payload is `Some` until `wait` collects it
    /// (boxed: the outcome is ~an order of magnitude larger than the
    /// other variants, and exactly one lives per job).
    Done(Option<Box<Result<JobOutput, JobError>>>),
}

pub(crate) struct JobShared {
    pub(crate) state: Mutex<JobState>,
    pub(crate) cv: Condvar,
    pub(crate) cancel: AtomicBool,
}

impl JobShared {
    pub(crate) fn new() -> Arc<JobShared> {
        Arc::new(JobShared {
            state: Mutex::new(JobState::Pending),
            cv: Condvar::new(),
            cancel: AtomicBool::new(false),
        })
    }

    /// Dispatcher side: publish the outcome and wake the waiter.
    pub(crate) fn finish(&self, result: Result<JobOutput, JobError>) {
        let mut st = self.state.lock().unwrap();
        *st = JobState::Done(Some(Box::new(result)));
        self.cv.notify_all();
    }

    /// Dispatcher side: mark the job as running.
    pub(crate) fn start(&self) {
        let mut st = self.state.lock().unwrap();
        *st = JobState::Running;
    }
}

/// Your claim on a submitted job. Obtained from `Server::submit`.
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
    pub(crate) id: u64,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl JobHandle {
    /// Server-assigned job id (monotonic per server, also recorded in
    /// the job's [`RunTrace`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ask the server to drop this job. Best-effort: a job that is
    /// still queued when the dispatcher reaches it fails with
    /// [`JobError::Cancelled`]; a job already running (or finished)
    /// completes normally.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// Whether the outcome is ready (i.e. [`JobHandle::wait`] would
    /// return without blocking).
    pub fn is_finished(&self) -> bool {
        matches!(*self.shared.state.lock().unwrap(), JobState::Done(_))
    }

    /// Block until the job finishes and return its outcome.
    pub fn wait(self) -> Result<JobOutput, JobError> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if let JobState::Done(payload) = &mut *st {
                return *payload.take().expect("outcome collected exactly once");
            }
            st = self.shared.cv.wait(st).unwrap();
        }
    }
}
