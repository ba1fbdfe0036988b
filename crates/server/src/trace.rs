//! Structured run traces: one record per completed job.
//!
//! A [`RunTrace`] captures what actually ran — the resolved method/ISA/
//! tiling (not just what was asked for), the cache outcome, and the
//! measured wall time with derived GF/s — so a service operator can
//! answer "what did tenant X run, how fast, and did the cache help?"
//! without re-deriving anything from logs.

/// Whether the job's plan came from the cache or was compiled.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum CacheOutcome {
    /// A ready plan was checked out of the cache.
    Hit,
    /// No cached plan matched; one was compiled for this job.
    Miss,
}

impl CacheOutcome {
    /// Short name for reports ("hit" / "miss").
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// One completed job, as observed by the dispatcher.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// Job id (as returned by `JobHandle::id`).
    pub job: u64,
    /// Dispatch sequence number: the order the dispatcher started jobs
    /// in, across all tenants. Consecutive traces sort by this.
    pub seq: u64,
    /// Tenant the job was submitted under.
    pub tenant: String,
    /// Stencil spec display name, e.g. `2d5p@periodic@f32`.
    pub spec: String,
    /// Problem extent, e.g. `40000` or `320x200`.
    pub shape: String,
    /// Resolved vectorization scheme.
    pub method: &'static str,
    /// Resolved instruction set the kernels ran on.
    pub isa: &'static str,
    /// Temporal tiling framework name (`none`/`tessellate`/`split`).
    pub tiling: &'static str,
    /// Worker threads the plan resolved to.
    pub threads: usize,
    /// Time steps swept.
    pub steps: usize,
    /// Interior cells per step.
    pub cells: usize,
    /// Nominal bytes moved: `steps × cells × elem_size × 2` (one read
    /// stream + one write stream; halos and layout staging not counted).
    pub bytes: u64,
    /// Wall time of the sweep (excludes plan compilation).
    pub seconds: f64,
    /// Throughput derived from the spec's flops-per-point.
    pub gflops: f64,
    /// Whether the plan came from the cache.
    pub cache: CacheOutcome,
}
