//! Legacy grid-level entry points: pick a [`Method`] and an [`Isa`], hand
//! over a grid, get `t` Jacobi steps.
//!
//! These free functions reproduce the paper's per-invocation accounting —
//! layout transformations (into/out of the transpose or DLT layout)
//! happen inside each call, exactly as the sequential experiments
//! (Fig. 7) measure them. They are **thin wrappers** over the execution
//! engine: one plan is built, used for one run, and dropped — pinned to
//! [`Parallelism::Off`], because the paper's sequential experiments are
//! exactly single-threaded. They route through
//! [`Plan::stencil`]/[`DynPlan`](crate::exec::DynPlan) — the stencil's
//! weights are lifted into a [`StencilSpec`] and validated there, which
//! is why they return `Result<(), PlanError>` rather than panicking on a
//! bad configuration (e.g. a stencil whose weight slice implies a radius
//! past [`MAX_R`](crate::stencil::MAX_R)).
//!
//! These entry points **pin the paper's constant-halo (Dirichlet)
//! semantics**: the sequential experiments assume halos that never
//! change, with the boundary value carried by the grid's own halo cells
//! (conventionally 0.0 in the paper's runs). A [`StencilSpec`] that
//! requests a refreshed boundary (`Periodic` / `Reflect`) is rejected
//! with [`PlanError::Boundary`] — route such workloads through
//! [`Plan::stencil`](crate::exec::Plan::stencil) instead, where the
//! boundary subsystem (see [`crate::exec::halo`]) runs it.
//!
//! Code that steps a grid repeatedly (or wants the parallel executor)
//! should hold a plan (and a session) instead — see [`crate::exec`].

use stencil_simd::Isa;

pub use crate::exec::Method;
use crate::exec::{AnyGridMut, Parallelism, Plan, PlanError};
use crate::grid::{Grid1, Grid2, Grid3};
use crate::spec::{SpecError, StencilSpec};
use crate::stencil::{Box2, Box3, Star1, Star2, Star3};

/// The spec constructors infer the radius from a slice length; a typed
/// stencil whose `w()` length disagrees with its declared `R` (e.g.
/// zero-padded storage) would otherwise be silently reinterpreted at a
/// different radius. Reject the contract violation instead.
fn expect_len(axis: &'static str, got: usize, expected: usize) -> Result<(), PlanError> {
    if got != expected {
        return Err(PlanError::Spec(SpecError::WeightLen {
            axis,
            got,
            expected: "the length implied by the stencil's declared radius",
        }));
    }
    Ok(())
}

/// Run `t` Jacobi steps of a runtime-described stencil on any grid with
/// the legacy per-call accounting (build a plan, run once, drop it,
/// sequentially) — the entry the typed `run*` wrappers route through.
///
/// Pins the paper's constant-halo semantics: the grid's halo cells carry
/// the (Dirichlet) boundary value and are never refreshed.
///
/// # Errors
/// [`PlanError::Boundary`] if `spec` requests a refreshed boundary
/// (`Periodic` / `Reflect`) — the legacy surface is paper-fidelity only;
/// otherwise any error [`Plan::stencil`](crate::exec::Plan::stencil)
/// reports ([`PlanError::Spec`], [`PlanError::IsaUnavailable`],
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

/// Run `t` Jacobi steps of a 1D star stencil on `g` with the given method
/// and ISA. The result (including any layout round-trips) lands back in
/// `g` in natural order.
///
/// # Errors
/// [`PlanError::Spec`] if the stencil's weights are invalid (radius >
/// `MAX_R`, wrong slice length), [`PlanError::IsaUnavailable`] if `isa`
/// is not supported on this CPU, [`PlanError::EmptyShape`] for an empty
/// grid.
pub fn run1_star1<S: Star1>(
    method: Method,
    isa: Isa,
    g: &mut Grid1,
    s: &S,
    t: usize,
) -> Result<(), PlanError> {
    if t == 0 {
        return Ok(());
    }
    expect_len("x", s.w().len(), 2 * S::R + 1)?;
    let spec = StencilSpec::star1(s.w())?;
    run_spec(method, isa, g, &spec, t)
}

/// Run `t` Jacobi steps of a 2D star stencil (see [`run1_star1`]).
///
/// # Errors
/// See [`run1_star1`].
pub fn run2_star<S: Star2>(
    method: Method,
    isa: Isa,
    g: &mut Grid2,
    s: &S,
    t: usize,
) -> Result<(), PlanError> {
    if t == 0 {
        return Ok(());
    }
    expect_len("x", s.wx().len(), 2 * S::R + 1)?;
    expect_len("y", s.wy().len(), 2 * S::R + 1)?;
    let spec = StencilSpec::star2(s.wx(), s.wy())?;
    run_spec(method, isa, g, &spec, t)
}

/// Run `t` Jacobi steps of a 2D box stencil (see [`run1_star1`]).
///
/// # Errors
/// See [`run1_star1`].
pub fn run2_box<S: Box2>(
    method: Method,
    isa: Isa,
    g: &mut Grid2,
    s: &S,
    t: usize,
) -> Result<(), PlanError> {
    if t == 0 {
        return Ok(());
    }
    expect_len("box", s.w().len(), (2 * S::R + 1) * (2 * S::R + 1))?;
    let spec = StencilSpec::box2(s.w())?;
    run_spec(method, isa, g, &spec, t)
}

/// Run `t` Jacobi steps of a 3D star stencil (see [`run1_star1`]).
///
/// # Errors
/// See [`run1_star1`].
pub fn run3_star<S: Star3>(
    method: Method,
    isa: Isa,
    g: &mut Grid3,
    s: &S,
    t: usize,
) -> Result<(), PlanError> {
    if t == 0 {
        return Ok(());
    }
    expect_len("x", s.wx().len(), 2 * S::R + 1)?;
    expect_len("y", s.wy().len(), 2 * S::R + 1)?;
    expect_len("z", s.wz().len(), 2 * S::R + 1)?;
    let spec = StencilSpec::star3(s.wx(), s.wy(), s.wz())?;
    run_spec(method, isa, g, &spec, t)
}

/// Run `t` Jacobi steps of a 3D box stencil (see [`run1_star1`]).
///
/// # Errors
/// See [`run1_star1`].
pub fn run3_box<S: Box3>(
    method: Method,
    isa: Isa,
    g: &mut Grid3,
    s: &S,
    t: usize,
) -> Result<(), PlanError> {
    if t == 0 {
        return Ok(());
    }
    expect_len(
        "box",
        s.w().len(),
        (2 * S::R + 1) * (2 * S::R + 1) * (2 * S::R + 1),
    )?;
    let spec = StencilSpec::box3(s.w())?;
    run_spec(method, isa, g, &spec, t)
}
