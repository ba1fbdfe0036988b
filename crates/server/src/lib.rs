//! `stencil-server` — a multi-tenant service layer over the stencil
//! engine.
//!
//! The core library answers "how do I step this stencil fast on one
//! call stack". This crate answers the next question a production
//! system asks: how do *many* callers share one machine without
//! recompiling plans per request, starving each other, or losing track
//! of what ran. It adds three pieces:
//!
//! * a **plan cache** ([`CacheStats`], [`PlanKey`]) — an LRU of ready
//!   [`DynPlan`](stencil_core::exec::DynPlan)s keyed by everything that
//!   selects a distinct compiled plan, so repeat jobs skip validation,
//!   allocation, and pool spawning;
//! * a **submission queue** ([`Server::submit`] → [`JobHandle`]) — a
//!   dispatcher thread drains bounded per-tenant queues with weighted
//!   round-robin fairness, per-job timeout/cancel, and `QueueFull`
//!   backpressure;
//! * **structured run traces** ([`RunTrace`]) — one record per
//!   completed job (resolved method/ISA/tiling, cache outcome, wall
//!   time, GF/s), read back with [`Server::traces`].
//!
//! Results are bit-identical to driving the engine directly: the server
//! adds scheduling around [`DynPlan::run`](stencil_core::exec::DynPlan),
//! never arithmetic.
//!
//! ```
//! use stencil_core::{AnyGrid, StencilSpec};
//! use stencil_server::{JobSpec, Server};
//!
//! let server = Server::with_defaults();
//! let spec: StencilSpec = "1d3p".parse().unwrap();
//! let grid = AnyGrid::from_fn_spec(
//!     stencil_core::exec::Shape::d1(128), &spec, |_, _, x| x as f64,
//! ).unwrap();
//!
//! let handle = server.submit(JobSpec::new("demo", spec, grid, 4)).unwrap();
//! let out = handle.wait().unwrap();
//! println!("{} ran at {:.2} GF/s ({})",
//!     out.trace.spec, out.trace.gflops, out.trace.cache.name());
//! ```

#![warn(missing_docs)]

mod cache;
mod job;
mod server;
mod trace;

pub use cache::{CacheStats, PlanKey};
pub use job::{JobError, JobHandle, JobOutput, JobSpec, SubmitError};
pub use server::{Server, ServerConfig};
pub use trace::{CacheOutcome, RunTrace};
