//! The one-shot entry point: pick a [`Method`] and an [`Isa`], hand over
//! a grid and a [`StencilSpec`], get `t` Jacobi steps.
//!
//! [`run_spec`] reproduces the paper's per-invocation accounting — layout
//! transformations (into/out of the transpose or DLT layout) happen
//! inside the call, exactly as the sequential experiments (Fig. 7)
//! measure them. It is a **thin wrapper** over the execution engine: one
//! plan is built through [`Plan::stencil`], used for one run, and dropped
//! — pinned to [`Parallelism::Off`], because the paper's sequential
//! experiments are exactly single-threaded.
//!
//! It **pins the paper's constant-halo (Dirichlet) semantics**: the
//! sequential experiments assume halos that never change, with the
//! boundary value carried by the grid's own halo cells (conventionally
//! 0.0 in the paper's runs). A [`StencilSpec`] that requests a refreshed
//! boundary (`Periodic` / `Reflect`) is rejected with
//! [`PlanError::Boundary`] — route such workloads through
//! [`Plan::stencil`] instead, where the boundary subsystem (see
//! [`crate::exec::halo`]) runs it.
//!
//! Code that steps a grid repeatedly (or wants the parallel executor)
//! should hold a plan (and a session) instead — see [`crate::exec`].

use stencil_simd::Isa;

pub use crate::exec::Method;
use crate::exec::{AnyGridMut, Parallelism, Plan, PlanError};
use crate::spec::StencilSpec;

/// Run `t` Jacobi steps of a runtime-described stencil on any grid with
/// per-call accounting (build a plan, run once, drop it, sequentially).
///
/// Pins the paper's constant-halo semantics: the grid's halo cells carry
/// the (Dirichlet) boundary value and are never refreshed.
///
/// # Errors
/// [`PlanError::Boundary`] if `spec` requests a refreshed boundary
/// (`Periodic` / `Reflect`) — this surface is paper-fidelity only;
/// otherwise any error [`Plan::stencil`] reports ([`PlanError::Spec`], [`PlanError::IsaUnavailable`],
/// [`PlanError::EmptyShape`], [`PlanError::DimMismatch`]).
pub fn run_spec<'a>(
    method: Method,
    isa: Isa,
    g: impl Into<AnyGridMut<'a>>,
    spec: &StencilSpec,
    t: usize,
) -> Result<(), PlanError> {
    let g = g.into();
    let boundary = spec.boundary();
    if !boundary.is_dirichlet() {
        return Err(PlanError::Boundary {
            boundary,
            reason: crate::exec::BoundaryReason::LegacySurface,
        });
    }
    if t == 0 {
        return Ok(());
    }
    Plan::new(g.shape())
        .method(method)
        .isa(isa)
        .parallelism(Parallelism::Off)
        .stencil(spec)?
        .run(g, t);
    Ok(())
}
