//! The runtime-spec plan surface: [`DynPlan`] / [`DynSession`] over a
//! [`StencilSpec`].
//!
//! The typed terminals ([`Plan::star1`] … [`Plan::box3`]) return a
//! [`CompiledPlan<T>`] bound to one element type — so a caller that
//! learns the stencil at runtime would still have to name the dtype
//! wherever a plan flows. [`Plan::stencil`] folds that one type parameter
//! into an `f64 | f32` enum. That is all it erases: the stencil itself
//! (family, radius, weights, rank) is already gone from the plan type,
//! compiled into the boxed kernel object every plan holds (see
//! [`crate::kernels`]), and the grid's rank is data in its [`Geo`];
//! `Plan::stencil` builds the kernel object from the spec and hands it to
//! the very constructor the typed terminals use.
//!
//! Dispatch accounting: one enum match per `run`/`session` call here,
//! then the plan's one indirect kernel call per range sweep or tile
//! step — the same call a typed plan makes. Every loop beneath it is the
//! monomorphized kernel, so results are bit-identical to the typed
//! terminals and the steady-state cost is unmeasurable (the repo
//! benchmark's `exec.erased.self_s` watches it).
//!
//! ```
//! use stencil_core::exec::{Plan, Shape};
//! use stencil_core::grid::AnyGrid;
//! use stencil_core::spec::StencilSpec;
//!
//! // Strings + numbers at runtime → a running plan, no generics named.
//! let spec: StencilSpec = "2d5p".parse().unwrap();
//! let shape = Shape::d2(320, 200);
//! let mut plan = Plan::new(shape).stencil(&spec).unwrap();
//! let mut grid = AnyGrid::from_fn(shape, spec.radius(), 0.0, |_, y, x| {
//!     (x + y) as f64
//! });
//! plan.run(&mut grid, 4); // one-shot
//!
//! let mut sess = plan.session(&mut grid); // layout-resident
//! sess.run(2);
//! sess.run(2);
//! drop(sess);
//! # assert_eq!(grid.ndim(), 2);
//! ```

use stencil_simd::Dtype;

use super::{CompiledPlan, Plan, PlanCore, PlanError, Session, Shape};
use crate::grid::{AnyGrid, Grid, GridMut};
use crate::kernels::Geo;
use crate::spec::StencilSpec;

/// A mutable borrow of a grid of any dimensionality and either element
/// type — what the erased entry points ([`DynPlan::run`],
/// [`DynPlan::session`]) accept. The rank is data in the [`GridMut`];
/// only the element type is a variant.
///
/// Both worlds convert in via `From`: `&mut AnyGrid` for fully dynamic
/// callers, and `&mut Grid1`/`Grid2`/`Grid3` so typed containers can be
/// driven by an erased plan without re-wrapping.
pub enum AnyGridMut<'a> {
    /// A borrowed `f64` grid.
    F64(GridMut<'a, f64>),
    /// A borrowed `f32` grid.
    F32(GridMut<'a, f32>),
}

impl AnyGridMut<'_> {
    /// The borrowed grid's geometry.
    pub fn geo(&self) -> Geo {
        match self {
            AnyGridMut::F64(g) => g.geo(),
            AnyGridMut::F32(g) => g.geo(),
        }
    }

    /// Number of spatial dimensions (1–3).
    pub fn ndim(&self) -> usize {
        self.geo().ndim
    }

    /// The element type the borrowed grid carries.
    pub fn dtype(&self) -> Dtype {
        match self {
            AnyGridMut::F64(_) => Dtype::F64,
            AnyGridMut::F32(_) => Dtype::F32,
        }
    }

    /// The borrowed grid's interior extents as a [`Shape`].
    pub fn shape(&self) -> Shape {
        self.geo().shape()
    }
}

impl<'a, const D: usize> From<&'a mut Grid<f64, D>> for AnyGridMut<'a> {
    fn from(g: &'a mut Grid<f64, D>) -> Self {
        AnyGridMut::F64(g.into())
    }
}

impl<'a, const D: usize> From<&'a mut Grid<f32, D>> for AnyGridMut<'a> {
    fn from(g: &'a mut Grid<f32, D>) -> Self {
        AnyGridMut::F32(g.into())
    }
}

impl<'a> From<&'a mut AnyGrid> for AnyGridMut<'a> {
    fn from(g: &'a mut AnyGrid) -> Self {
        match g {
            AnyGrid::D1(g) => g.into(),
            AnyGrid::D2(g) => g.into(),
            AnyGrid::D3(g) => g.into(),
            AnyGrid::D1F32(g) => g.into(),
            AnyGrid::D2F32(g) => g.into(),
            AnyGrid::D3F32(g) => g.into(),
        }
    }
}

/// The plan behind a [`DynPlan`]: one variant per element type — all
/// that is left to erase once the stencil lives in the plan's boxed
/// kernel and the rank in the grid's [`Geo`].
enum AnyPlan {
    F64(CompiledPlan<f64>),
    F32(CompiledPlan<f32>),
}

/// A compiled execution plan whose stencil was described at runtime by
/// a [`StencilSpec`].
///
/// Built by [`Plan::stencil`]. It *is* a [`CompiledPlan`] — the very
/// object the typed terminals build — with the element type folded into
/// an enum, so buffers, pool, validation, and kernels are shared with the
/// typed surface; the configuration accessors come from [`PlanCore`] by
/// deref. See the [module docs](self) for the dispatch accounting.
pub struct DynPlan {
    inner: AnyPlan,
    spec: StencilSpec,
}

impl std::ops::Deref for DynPlan {
    type Target = PlanCore;
    fn deref(&self) -> &PlanCore {
        match &self.inner {
            AnyPlan::F64(p) => p,
            AnyPlan::F32(p) => p,
        }
    }
}

impl std::fmt::Debug for DynPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynPlan")
            .field("spec", &self.spec.to_string())
            .field("plan", &**self)
            .finish()
    }
}

impl DynPlan {
    /// Run `t` Jacobi steps on `g` (natural layout in, natural layout
    /// out), like the typed `run`. Accepts `&mut AnyGrid` or a typed
    /// `&mut Grid1`/`Grid2`/`Grid3`.
    ///
    /// # Panics
    /// If the grid's dimensionality, element type, or extents do not
    /// match what the plan was compiled for (same contract as the typed
    /// plans).
    pub fn run<'a>(&mut self, g: impl Into<AnyGridMut<'a>>, t: usize) {
        if t > 0 {
            self.session(g.into()).run(t);
        }
    }

    /// Open a layout-resident stepping session on `g`; see
    /// [`CompiledPlan::session`]. Dropping the [`DynSession`] restores natural
    /// order.
    ///
    /// # Panics
    /// If the grid does not match the plan (see [`DynPlan::run`]).
    pub fn session<'p>(&'p mut self, g: impl Into<AnyGridMut<'p>>) -> DynSession<'p> {
        let g = g.into();
        let spec = &self.spec;
        assert!(
            (g.ndim(), g.dtype()) == (spec.ndim(), spec.dtype()),
            "plan was compiled for a {}D {} stencil but the grid is {}D {}",
            spec.ndim(),
            spec.dtype(),
            g.ndim(),
            g.dtype()
        );
        let inner = match (&mut self.inner, g) {
            (AnyPlan::F64(p), AnyGridMut::F64(g)) => AnySession::F64(p.session(g)),
            (AnyPlan::F32(p), AnyGridMut::F32(g)) => AnySession::F32(p.session(g)),
            _ => unreachable!("element types checked above"),
        };
        DynSession { inner }
    }

    /// The stencil description this plan was compiled from.
    pub fn spec(&self) -> &StencilSpec {
        &self.spec
    }

    /// The element type the plan's grids carry (from the spec's
    /// [`StencilSpec::dtype`]).
    pub fn dtype(&self) -> Dtype {
        self.spec.dtype()
    }
}

/// The session behind a [`DynSession`] (see [`AnyPlan`]).
enum AnySession<'p> {
    F64(Session<'p, f64>),
    F32(Session<'p, f32>),
}

/// Layout-resident stepping session opened by [`DynPlan::session`].
/// Dropping it restores the grid to natural order.
pub struct DynSession<'p> {
    inner: AnySession<'p>,
}

impl DynSession<'_> {
    /// Advance the grid `t` Jacobi steps (no allocation, no layout
    /// transform — see [`Session::run`]).
    pub fn run(&mut self, t: usize) {
        match &mut self.inner {
            AnySession::F64(s) => s.run(t),
            AnySession::F32(s) => s.run(t),
        }
    }
}

impl Plan {
    /// Compile the plan against a runtime stencil description,
    /// producing a [`DynPlan`].
    ///
    /// The spec compiles to a boxed kernel object
    /// (family and radius are picked there — see
    /// [`crate::kernels`]) and the plan is built around it by the same
    /// body the typed terminals use, so validation, errors, and results
    /// are those of the matching typed terminal, bit for bit.
    ///
    /// The spec's [`StencilSpec::boundary`] becomes the plan's
    /// [`Boundary`](super::Boundary) unless an explicit
    /// [`Plan::boundary`] call already chose one (the builder knob wins).
    pub fn stencil(self, spec: &StencilSpec) -> Result<DynPlan, PlanError> {
        let plan = Plan {
            boundary: Some(self.boundary.unwrap_or_else(|| spec.boundary())),
            ..self
        };
        let inner = match spec.dtype() {
            Dtype::F64 => AnyPlan::F64(plan.compile(spec.kernel()?)?),
            Dtype::F32 => AnyPlan::F32(plan.compile(spec.kernel()?)?),
        };
        Ok(DynPlan {
            inner,
            spec: spec.clone(),
        })
    }
}
