//! The runtime-spec plan surface: [`DynPlan`] / [`DynSession`] over a
//! [`StencilSpec`].
//!
//! The typed terminals ([`Plan::star1`] … [`Plan::box3`]) return a
//! [`CompiledPlan`] bound to one typed grid container — so a caller that
//! learns the stencil at runtime would still have to match on container
//! rank and dtype wherever a plan flows. [`Plan::stencil`] folds that one
//! type parameter into an enum. That is all it erases: the stencil itself
//! (family, radius, weights, rank) is already gone from the plan type,
//! compiled into the boxed kernel object every plan holds (see
//! [`crate::kernels`]), and `Plan::stencil` builds that object from the
//! spec and hands it to the very constructor the typed terminals use.
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
use crate::grid::{AnyGrid, Grid1, Grid2, Grid3};
use crate::spec::StencilSpec;

/// A mutable borrow of a grid of any dimensionality — what the erased
/// entry points ([`DynPlan::run`], [`DynPlan::session`]) accept.
///
/// Both worlds convert in via `From`: `&mut AnyGrid` for fully dynamic
/// callers, and `&mut Grid1`/`Grid2`/`Grid3` so typed containers can be
/// driven by an erased plan without re-wrapping.
pub enum AnyGridMut<'a> {
    /// A borrowed 1D `f64` grid.
    D1(&'a mut Grid1),
    /// A borrowed 2D `f64` grid.
    D2(&'a mut Grid2),
    /// A borrowed 3D `f64` grid.
    D3(&'a mut Grid3),
    /// A borrowed 1D `f32` grid.
    D1F32(&'a mut Grid1<f32>),
    /// A borrowed 2D `f32` grid.
    D2F32(&'a mut Grid2<f32>),
    /// A borrowed 3D `f32` grid.
    D3F32(&'a mut Grid3<f32>),
}

impl AnyGridMut<'_> {
    /// Number of spatial dimensions (1–3).
    pub fn ndim(&self) -> usize {
        match self {
            AnyGridMut::D1(_) | AnyGridMut::D1F32(_) => 1,
            AnyGridMut::D2(_) | AnyGridMut::D2F32(_) => 2,
            AnyGridMut::D3(_) | AnyGridMut::D3F32(_) => 3,
        }
    }

    /// The element type the borrowed grid carries.
    pub fn dtype(&self) -> Dtype {
        match self {
            AnyGridMut::D1(_) | AnyGridMut::D2(_) | AnyGridMut::D3(_) => Dtype::F64,
            AnyGridMut::D1F32(_) | AnyGridMut::D2F32(_) | AnyGridMut::D3F32(_) => Dtype::F32,
        }
    }

    /// The borrowed grid's interior extents as a [`Shape`].
    pub fn shape(&self) -> Shape {
        match self {
            AnyGridMut::D1(g) => Shape::d1(g.n()),
            AnyGridMut::D2(g) => Shape::d2(g.nx(), g.ny()),
            AnyGridMut::D3(g) => Shape::d3(g.nx(), g.ny(), g.nz()),
            AnyGridMut::D1F32(g) => Shape::d1(g.n()),
            AnyGridMut::D2F32(g) => Shape::d2(g.nx(), g.ny()),
            AnyGridMut::D3F32(g) => Shape::d3(g.nx(), g.ny(), g.nz()),
        }
    }
}

impl<'a> From<&'a mut Grid1> for AnyGridMut<'a> {
    fn from(g: &'a mut Grid1) -> Self {
        AnyGridMut::D1(g)
    }
}

impl<'a> From<&'a mut Grid2> for AnyGridMut<'a> {
    fn from(g: &'a mut Grid2) -> Self {
        AnyGridMut::D2(g)
    }
}

impl<'a> From<&'a mut Grid3> for AnyGridMut<'a> {
    fn from(g: &'a mut Grid3) -> Self {
        AnyGridMut::D3(g)
    }
}

impl<'a> From<&'a mut Grid1<f32>> for AnyGridMut<'a> {
    fn from(g: &'a mut Grid1<f32>) -> Self {
        AnyGridMut::D1F32(g)
    }
}

impl<'a> From<&'a mut Grid2<f32>> for AnyGridMut<'a> {
    fn from(g: &'a mut Grid2<f32>) -> Self {
        AnyGridMut::D2F32(g)
    }
}

impl<'a> From<&'a mut Grid3<f32>> for AnyGridMut<'a> {
    fn from(g: &'a mut Grid3<f32>) -> Self {
        AnyGridMut::D3F32(g)
    }
}

impl<'a> From<&'a mut AnyGrid> for AnyGridMut<'a> {
    fn from(g: &'a mut AnyGrid) -> Self {
        match g {
            AnyGrid::D1(g) => AnyGridMut::D1(g),
            AnyGrid::D2(g) => AnyGridMut::D2(g),
            AnyGrid::D3(g) => AnyGridMut::D3(g),
            AnyGrid::D1F32(g) => AnyGridMut::D1F32(g),
            AnyGrid::D2F32(g) => AnyGridMut::D2F32(g),
            AnyGrid::D3F32(g) => AnyGridMut::D3F32(g),
        }
    }
}

/// The plan behind a [`DynPlan`]: one variant per grid container — all
/// that is left to erase once the stencil lives in the plan's boxed
/// kernel.
enum AnyPlan {
    D1(CompiledPlan<Grid1>),
    D2(CompiledPlan<Grid2>),
    D3(CompiledPlan<Grid3>),
    D1F32(CompiledPlan<Grid1<f32>>),
    D2F32(CompiledPlan<Grid2<f32>>),
    D3F32(CompiledPlan<Grid3<f32>>),
}

/// A compiled execution plan whose stencil was described at runtime by
/// a [`StencilSpec`].
///
/// Built by [`Plan::stencil`]. It *is* a [`CompiledPlan`] — the very
/// object the typed terminals build — with the grid container's rank and
/// element type folded into an enum, so buffers, pool, validation, and
/// kernels are shared with the typed surface; the configuration
/// accessors come from [`PlanCore`] by deref. See the
/// [module docs](self) for the dispatch accounting.
pub struct DynPlan {
    inner: AnyPlan,
    spec: StencilSpec,
}

impl std::ops::Deref for DynPlan {
    type Target = PlanCore;
    fn deref(&self) -> &PlanCore {
        match &self.inner {
            AnyPlan::D1(p) => p,
            AnyPlan::D2(p) => p,
            AnyPlan::D3(p) => p,
            AnyPlan::D1F32(p) => p,
            AnyPlan::D2F32(p) => p,
            AnyPlan::D3F32(p) => p,
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
        let inner = match (&mut self.inner, g.into()) {
            (AnyPlan::D1(p), AnyGridMut::D1(g)) => AnySession::D1(p.session(g)),
            (AnyPlan::D2(p), AnyGridMut::D2(g)) => AnySession::D2(p.session(g)),
            (AnyPlan::D3(p), AnyGridMut::D3(g)) => AnySession::D3(p.session(g)),
            (AnyPlan::D1F32(p), AnyGridMut::D1F32(g)) => AnySession::D1F32(p.session(g)),
            (AnyPlan::D2F32(p), AnyGridMut::D2F32(g)) => AnySession::D2F32(p.session(g)),
            (AnyPlan::D3F32(p), AnyGridMut::D3F32(g)) => AnySession::D3F32(p.session(g)),
            (_, g) => panic!(
                "plan was compiled for a {}D {} stencil but the grid is {}D {}",
                self.spec.ndim(),
                self.spec.dtype(),
                g.ndim(),
                g.dtype()
            ),
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
    D1(Session<'p, Grid1>),
    D2(Session<'p, Grid2>),
    D3(Session<'p, Grid3>),
    D1F32(Session<'p, Grid1<f32>>),
    D2F32(Session<'p, Grid2<f32>>),
    D3F32(Session<'p, Grid3<f32>>),
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
            AnySession::D1(s) => s.run(t),
            AnySession::D2(s) => s.run(t),
            AnySession::D3(s) => s.run(t),
            AnySession::D1F32(s) => s.run(t),
            AnySession::D2F32(s) => s.run(t),
            AnySession::D3F32(s) => s.run(t),
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
        // StencilSpec construction bounds ndim to 1–3; each arm differs
        // only in the container type inferred from its variant.
        let inner = match (spec.ndim(), spec.dtype()) {
            (1, Dtype::F64) => AnyPlan::D1(plan.compile(spec.kernel()?)?),
            (2, Dtype::F64) => AnyPlan::D2(plan.compile(spec.kernel()?)?),
            (_, Dtype::F64) => AnyPlan::D3(plan.compile(spec.kernel()?)?),
            (1, Dtype::F32) => AnyPlan::D1F32(plan.compile(spec.kernel()?)?),
            (2, Dtype::F32) => AnyPlan::D2F32(plan.compile(spec.kernel()?)?),
            (_, Dtype::F32) => AnyPlan::D3F32(plan.compile(spec.kernel()?)?),
        };
        Ok(DynPlan {
            inner,
            spec: spec.clone(),
        })
    }
}
