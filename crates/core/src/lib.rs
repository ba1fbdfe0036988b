//! # stencil-core
//!
//! A faithful reproduction of *An Efficient Vectorization Scheme for
//! Stencil Computation* (Li, Yuan, Zhang, Yue, Cao, Lu — IPDPS 2022):
//! the local transpose layout, its vector-set stencil kernels, the time
//! unroll-and-jam (k = 2 in 1D, deeper in 2D/3D), and every baseline the paper compares against
//! (multiple-loads, data-reorganization, DLT), for the paper's six
//! stencils (1D3P, 1D5P, 2D5P, 2D9P, 3D7P, 3D27P).
//!
//! ## Quick start
//!
//! Build a [`Plan`] once, run it many times — buffers and layout
//! transforms are amortized across calls. The stencil can be named two
//! ways, and both build the *same* plan object around the same boxed
//! kernel:
//!
//! **Typed** — the stencil is a concrete type handed to a terminal
//! (`star1` … `box3`); the result is a
//! [`CompiledPlan`](exec::CompiledPlan) over the element type, which
//! steps any [`Grid`] of that element and the stencil's rank:
//!
//! ```
//! use stencil_core::exec::{Plan, Shape};
//! use stencil_core::{Grid1, Method, S1d3p};
//! use stencil_simd::Isa;
//!
//! let n = 4096;
//! let mut plan = Plan::new(Shape::d1(n))
//!     .method(Method::TransLayout2)
//!     .isa(Isa::detect_best())
//!     .star1(S1d3p::heat())
//!     .unwrap();
//! let mut grid = Grid1::from_fn(n, 0.0, |i| if i == 2048 { 1.0 } else { 0.0 });
//! plan.run(&mut grid, 100);
//! assert!(grid.get(2048) > 0.0);
//! ```
//!
//! **Runtime** — the stencil is a value ([`StencilSpec`]), the plan is a
//! [`DynPlan`] (the same plan with the element type folded into an
//! enum), and the results are bit-identical:
//!
//! ```
//! use stencil_core::exec::{Plan, Shape};
//! use stencil_core::{AnyGrid, StencilSpec};
//!
//! let spec: StencilSpec = "1d3p".parse().unwrap();
//! let shape = Shape::d1(4096);
//! let mut plan = Plan::new(shape).stencil(&spec).unwrap();
//! let mut grid =
//!     AnyGrid::from_fn(shape, spec.radius(), 0.0, |_, _, x| if x == 2048 { 1.0 } else { 0.0 });
//! plan.run(&mut grid, 100);
//! assert!(grid.to_vec()[2048] > 0.0);
//! ```
//!
//! Either way the stencil's family, radius, weights and rank end at the
//! **kernel boundary** ([`kernels`]): a plan holds one boxed
//! [`Kernel`](kernels::Kernel) object and calls it once per range sweep
//! or tile step; everything under that call is monomorphized, everything
//! above it is generic over the element type only and describes the grid
//! by one [`Geo`](kernels::Geo) in which a missing axis is an axis of
//! extent 1 — the geometry every [`Grid`] carries with its buffer.
//!
//! See [`exec`] for the plan engine (including layout-resident sessions
//! and temporal tiling, which runs on all cores via a wavefront tile
//! scheduler under any boundary), [`spec`] for runtime stencil
//! descriptions, [`layout`] for the data layouts, and [`kernels`] for
//! the per-scheme implementations.

#![warn(missing_docs)]
// Index-based loops in the kernels are deliberate: the index arithmetic
// (lane positions, set offsets) is the algorithm; iterator adapters would
// obscure it and complicate the unroll-friendly shape LLVM needs.
#![allow(clippy::needless_range_loop)]

pub mod exec;
pub mod grid;
pub mod kernels;
pub mod layout;
pub mod spec;
pub mod stencil;
pub mod verify;

pub use exec::{
    AnyGridMut, Boundary, BoundaryReason, DynPlan, DynSession, Method, Parallelism, Plan,
    PlanError, Shape, Tiling,
};
pub use grid::{AnyGrid, Grid, Grid1, Grid2, Grid3, GridMut, HALO_PAD};
pub use layout::{DltGeo, SetGeo};
pub use spec::{SpecError, StencilShape, StencilSpec};
pub use stencil::{
    Box2, Box3, S1d3p, S1d5p, S2d5p, S2d9p, S3d27p, S3d7p, Star1, Star2, Star3, BOX2_MAX_R,
    BOX3_MAX_R, MAX_R,
};
