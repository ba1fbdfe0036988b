//! # stencil-lab
//!
//! Umbrella crate for the reproduction of *An Efficient Vectorization
//! Scheme for Stencil Computation* (Li, Yuan, Zhang, Yue, Cao, Lu —
//! IPDPS 2022).
//!
//! Re-exports the three layers:
//!
//! * [`simd`] — vector ISA abstraction, in-register transposes, assembles;
//! * [`core`] — grids, stencils, the transpose-layout scheme, all
//!   baseline vectorization methods, and the [`Plan`](core::exec::Plan)
//!   execution engine (including both temporal-tiling frameworks);
//! * [`server`] — the multi-tenant service layer: plan cache, fair
//!   job queue, and structured run traces over the erased plan API.
//!
//! ```
//! use stencil_lab::prelude::*;
//!
//! let mut plan = Plan::new(Shape::d1(1 << 14))
//!     .method(Method::TransLayout2)
//!     .isa(Isa::detect_best())
//!     .star1(S1d3p::heat())
//!     .unwrap();
//! let mut g = Grid1::from_fn(1 << 14, 0.0, |i| (i as f64 * 0.001).sin());
//! plan.run(&mut g, 64);
//! ```

pub use stencil_core as core;
pub use stencil_server as server;
pub use stencil_simd as simd;

/// Everything a typical user needs in scope — both the typed plan API
/// and the erased [`StencilSpec`](stencil_core::spec::StencilSpec) /
/// [`DynPlan`](stencil_core::exec::DynPlan) API.
pub mod prelude {
    pub use stencil_core::exec::{
        AnyGridMut, Boundary, DynPlan, DynSession, Parallelism, Plan, PlanError, Shape, Tiling,
    };
    pub use stencil_core::{
        AnyGrid, Box2, Box3, Grid1, Grid2, Grid3, Method, S1d3p, S1d5p, S2d5p, S2d9p, S3d27p,
        S3d7p, SpecError, Star1, Star2, Star3, StencilShape, StencilSpec,
    };
    pub use stencil_simd::Isa;
}
