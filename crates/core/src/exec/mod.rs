//! The execution-plan engine: validate once, allocate once, run many.
//!
//! A one-shot call would re-derive everything each time: clone the grid
//! for the ping-pong partner, transform layouts in and out, re-check the
//! (dimension × stencil × method × tiling) combination. That is faithful
//! to how the paper *accounts* for layout costs (Fig. 7 amortizes the
//! transform over one time loop — a throwaway plan run once keeps that
//! accounting), but it is the wrong shape for a system that steps many
//! scenarios repeatedly.
//!
//! A [`Plan`] factors the work:
//!
//! * **validate once** — the builder rejects invalid combinations (e.g.
//!   DLT under tessellate tiling, split tiling without DLT, a chunk
//!   height the tile width cannot support, a radius or weight table the
//!   kernels cannot hold) with a [`PlanError`] instead of a mid-run
//!   panic;
//! * **allocate once** — the ping-pong scratch grid, the fused-pass
//!   ring buffer, the tile staging arena, and the **persistent worker pool**
//!   live in the plan and are reused by every [`CompiledPlan::run`] (no
//!   buffer allocation and no thread spawning in the steady state — pool
//!   workers are spawned at plan compile time and a stage dispatch is a
//!   condvar wake);
//! * **stay resident** — a [`Session`] keeps the grid in the method's
//!   layout between runs, so repeated stepping pays the transpose/DLT
//!   round-trip once instead of per call;
//! * **scale out** — core-level parallelism is a validated knob
//!   ([`Parallelism`]): untiled plans decompose into per-thread bands,
//!   each the one writer of the halo cells its own cells feed (see
//!   `exec::par`), tiled plans size the pool their stages run on,
//!   and every parallel result is bit-identical to sequential.
//!
//! # Where the stencil — and the rank — end
//!
//! Nothing in this module tree is generic over a stencil, and nothing is
//! written per rank. A [`CompiledPlan<T>`] is generic over the element
//! type only: it holds the stencil as one boxed [`Kernel`] object (see
//! [`crate::kernels`] for the boundary) and meets the caller's grid as a
//! [`GridMut`] — the grid's buffer plus its [`Geo`], extents
//! `[nx, ny, nz]` where **an absent axis is an axis of extent 1**. Its
//! ping-pong scratch is a plain buffer laid out the same way — the one
//! partner of every layout, DLT included. From there one runner body
//! picks one driver (`tess::drive`, `par::passes` for fused passes,
//! `par::drive`, `split::drive_cols`, or the sequential loop), each
//! generic over the element type only,
//! and the kernel is called once per range sweep or tile step. The typed terminals ([`Plan::star1`] …
//! [`Plan::box3`]) and the runtime-spec terminal ([`Plan::stencil`])
//! differ only in how the kernel object is made; both hand it to the
//! same constructor, so they cannot drift apart. A plan of one rank
//! stepping a grid of another is caught by the shape check at session
//! open.
//!
//! Two paths stay 1D-specific, because they index something a plane or a
//! volume does not have rather than "one axis fewer": the DLT
//! *column space* (`split::drive_cols` — a row's DLT columns are `vl`
//! distant segments, tiled in that space; split tiling and untiled
//! parallel stepping of a 1D DLT row both run there) and the fused
//! `TransLayout2` tile pair (`tess`'s `pair1`, a register pipeline over
//! the vector sets of one row). Split tiling of a plane or volume is no
//! such path: it is the tessellation whose tiles span every axis but the
//! outermost, and runs through `tess::drive`.
//!
//! ```
//! use stencil_core::exec::{Plan, Shape, Tiling};
//! use stencil_core::{Method, S1d3p};
//! use stencil_simd::Isa;
//!
//! let n = 4096;
//! let mut plan = Plan::new(Shape::d1(n))
//!     .method(Method::TransLayout2)
//!     .isa(Isa::detect_best())
//!     .star1(S1d3p::heat())
//!     .unwrap();
//!
//! let mut grid = stencil_core::Grid1::from_fn(n, 0.0, |i| i as f64);
//! plan.run(&mut grid, 4); // one-shot: natural layout in, natural out
//!
//! let mut sess = plan.session(&mut grid); // layout-resident
//! sess.run(2);
//! sess.run(2); // no transform, no allocation between these
//! drop(sess); // grid back in natural order
//! ```

pub mod erased;
pub mod halo;
pub(crate) mod par;
pub(crate) mod split;
pub(crate) mod stage;
pub(crate) mod tess;
pub mod tile;
pub(crate) mod wave;

pub use erased::{AnyGridMut, DynPlan, DynSession};
pub use halo::Boundary;
pub use stage::PhaseTotals;

use stencil_simd::{AlignedBuf, Elem, Isa};

use crate::grid::GridMut;
use crate::kernels::{self, Geo, Kernel};
use crate::layout::{self, DltGeo, SetGeo};
use crate::stencil::{Box2, Box3, Star1, Star2, Star3};
use tess::{Stepper, SyncPtr};
use tile::DimTiling;

/// A stencil execution scheme (paper §2–§3).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Scalar reference (correctness oracle).
    Scalar,
    /// Vectorized with unaligned neighbour loads (§2.1, "multiple load").
    MultiLoad,
    /// Vectorized with aligned loads + per-vector shuffles (§2.1,
    /// "data reorganization").
    Reorg,
    /// Dimension-lifting transpose (Henretty et al., §2.2).
    Dlt,
    /// The paper's local transpose layout, one step per pass (§3.2).
    TransLayout,
    /// Transpose layout + time unroll-and-jam, two steps per pass (§3.3).
    TransLayout2,
}

impl Method {
    /// All methods, cheap to iterate in tests and benches.
    pub const ALL: [Method; 6] = [
        Method::Scalar,
        Method::MultiLoad,
        Method::Reorg,
        Method::Dlt,
        Method::TransLayout,
        Method::TransLayout2,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Method::Scalar => "scalar",
            Method::MultiLoad => "multiload",
            Method::Reorg => "reorg",
            Method::Dlt => "dlt",
            Method::TransLayout => "translayout",
            Method::TransLayout2 => "translayout2",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Method {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Method::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown method '{s}'"))
    }
}

// ---------------------------------------------------------------------------
// Plan configuration
// ---------------------------------------------------------------------------

/// Problem extent, 1–3 spatial dimensions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; 3],
    ndim: usize,
}

impl Shape {
    /// 1D row of `n` cells.
    pub fn d1(n: usize) -> Shape {
        Shape {
            dims: [n, 0, 0],
            ndim: 1,
        }
    }

    /// 2D plane of `nx × ny` cells (x fastest).
    pub fn d2(nx: usize, ny: usize) -> Shape {
        Shape {
            dims: [nx, ny, 0],
            ndim: 2,
        }
    }

    /// 3D volume of `nx × ny × nz` cells (x fastest).
    pub fn d3(nx: usize, ny: usize, nz: usize) -> Shape {
        Shape {
            dims: [nx, ny, nz],
            ndim: 3,
        }
    }

    /// Number of spatial dimensions (1–3).
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Extents; entries past [`Shape::ndim`] are zero.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }
}

/// Temporal tiling applied around the intra-tile vectorization method.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Tiling {
    /// No tiling: plain Jacobi sweeps over the whole grid.
    None,
    /// Tessellate tiling (Yuan et al., SC'17) — the framework the paper
    /// integrates with (§3.4). Valid with every method except
    /// [`Method::Dlt`].
    Tessellate {
        /// Triangle base width per dimension; entries past the shape's
        /// `ndim` are ignored.
        w: [usize; 3],
        /// Time-chunk height in steps (bounded by `w` and the radius).
        h: usize,
        /// Worker threads.
        threads: usize,
    },
    /// Split tiling over the DLT layout — the SDSL stand-in (Henretty et
    /// al., ICS'13). Requires [`Method::Dlt`]; tiles the DLT column space
    /// in 1D and the outermost dimension in 2D/3D.
    ///
    /// In 2D/3D this is the [`Tiling::Tessellate`] schedule with widths
    /// `[nx, ny, w]`: one tile spans every axis but the outermost (so
    /// every kernel call covers whole DLT rows), and the outermost axis
    /// is tiled with base `w`. Under a refreshed [`Boundary`] every such
    /// tile reads the x halos, so each chunk runs as one edge group — a
    /// lockstep per-level sweep on one worker, still bit-identical. The
    /// same holds for a 1D column split, whose tiles are `vl` distant
    /// segments of the row. Split tiling therefore runs in parallel only
    /// under a Dirichlet boundary — the one every workload and paper
    /// driver gives it.
    Split {
        /// Tile base width (DLT columns in 1D, `y`/`z` cells in 2D/3D).
        w: usize,
        /// Time-chunk height in steps.
        h: usize,
        /// Worker threads.
        threads: usize,
    },
}

impl Tiling {
    fn name(&self) -> &'static str {
        match self {
            Tiling::None => "none",
            Tiling::Tessellate { .. } => "tessellate",
            Tiling::Split { .. } => "split",
        }
    }
}

/// Core-level parallelism applied by a plan (validated at build time like
/// every other knob).
///
/// Untiled plans decompose their grid into per-thread subdomains along
/// the outermost dimension and synchronize on the plan's persistent
/// pool — once per fused pass of `fused_steps` steps, plus once to fill
/// the seam strips, for 2D/3D `TransLayout2`, else at every time step
/// (see the `exec::par` module docs); tiled plans size the pool their
/// tile stages run on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Single-threaded stepping — the paper's sequential accounting. For
    /// tiled plans this overrides the tiling's `threads` field to 1.
    Off,
    /// Exactly `n` worker threads (the submitting thread counts as one),
    /// `1 ≤ n ≤ 4096`. Overrides a tiling's `threads` field.
    Threads(usize),
    /// Untiled plans use every available core; tiled plans defer to the
    /// tiling's `threads` field (back-compat with pre-knob callers),
    /// which is held to the same `≤ 4096` bound.
    Auto,
}

/// Largest worker count a plan accepts, from any knob.
const MAX_THREADS: usize = 4096;

/// Worker count `Parallelism::Auto` resolves to for untiled plans.
fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Why a plan could not be built.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// The shape's dimensionality does not match the stencil family's.
    DimMismatch {
        /// Dimensions of the shape handed to [`Plan::new`].
        shape: usize,
        /// Dimensions the stencil family operates on.
        stencil: usize,
    },
    /// A shape extent is zero.
    EmptyShape,
    /// The requested ISA is not available on this CPU.
    IsaUnavailable(Isa),
    /// The method cannot run under the requested tiling framework.
    MethodTilingConflict {
        /// Requested method.
        method: Method,
        /// Requested tiling framework name.
        tiling: &'static str,
        /// Human-readable explanation.
        reason: &'static str,
    },
    /// Tiling parameters are inconsistent with the shape or radius.
    BadTiling(String),
    /// The parallelism knob is out of range.
    BadParallelism(String),
    /// A runtime stencil description was invalid (see
    /// [`SpecError`](crate::spec::SpecError)).
    Spec(crate::spec::SpecError),
    /// The requested [`Boundary`] cannot run in this configuration; the
    /// [`BoundaryReason`] says which restriction fired.
    Boundary {
        /// The boundary condition that was requested.
        boundary: Boundary,
        /// Which restriction rejected it.
        reason: BoundaryReason,
    },
}

/// Which restriction rejected a non-Dirichlet [`Boundary`] (the payload
/// of [`PlanError::Boundary`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundaryReason {
    /// A wrap/mirror fold would reach past the far wall: every interior
    /// extent must be ≥ the stencil radius.
    ExtentBelowRadius {
        /// Which axis (0 = x) is too small.
        axis: usize,
        /// That axis's interior extent.
        extent: usize,
        /// The stencil radius.
        radius: usize,
    },
}

impl std::fmt::Display for BoundaryReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundaryReason::ExtentBelowRadius {
                axis,
                extent,
                radius,
            } => write!(
                f,
                "axis {axis} extent {extent} is smaller than the stencil radius {radius}; \
                 the wrap/mirror halo folds need every extent ≥ the radius"
            ),
        }
    }
}

impl From<crate::spec::SpecError> for PlanError {
    fn from(e: crate::spec::SpecError) -> PlanError {
        PlanError::Spec(e)
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::DimMismatch { shape, stencil } => {
                write!(f, "shape is {shape}D but the stencil family is {stencil}D")
            }
            PlanError::EmptyShape => write!(f, "shape has an empty dimension"),
            PlanError::IsaUnavailable(isa) => {
                write!(f, "ISA {isa} is not available on this CPU")
            }
            PlanError::MethodTilingConflict {
                method,
                tiling,
                reason,
            } => {
                write!(
                    f,
                    "method {method} cannot run under {tiling} tiling: {reason}"
                )
            }
            PlanError::BadTiling(msg) => write!(f, "invalid tiling parameters: {msg}"),
            PlanError::BadParallelism(msg) => {
                write!(f, "invalid parallelism parameters: {msg}")
            }
            PlanError::Spec(e) => write!(f, "invalid stencil description: {e}"),
            PlanError::Boundary { boundary, reason } => {
                write!(f, "boundary {boundary} cannot run here: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Validated, immutable plan configuration.
#[derive(Copy, Clone, Debug)]
struct Cfg {
    method: Method,
    isa: Isa,
    tiling: Tiling,
    par: Parallelism,
    /// Worker count the parallelism knob resolved to at build time (≥ 1).
    threads: usize,
    /// Boundary condition resolved at build time (see [`Boundary`]).
    boundary: Boundary,
    /// Steps one fused pass advances (1: the plan runs no fused pass);
    /// see [`PlanCore::fused_steps`].
    depth: usize,
}

/// Which layout the grid is resident in during a session.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Layout {
    Natural,
    Transpose,
    Dlt,
}

impl Cfg {
    /// The k = 1 steps a run of `t` takes between the ping-pong pair: all
    /// of them, unless the plan fuses — then only a last lone step left
    /// over by passes of `depth` (see `run_steps`).
    fn pingpongs(&self, t: usize) -> usize {
        match self.depth {
            1 => t,
            k => usize::from(t % k == 1),
        }
    }

    fn layout(&self) -> Layout {
        match self.method {
            Method::Scalar | Method::MultiLoad | Method::Reorg => Layout::Natural,
            // Under tessellate tiling the transpose methods keep the
            // global grid natural: each wavefront tile transposes its
            // footprint into the plan's staging arena for the chunk and
            // writes natural layout back (see [`stage`]), so no global
            // round-trip happens at session open/close.
            Method::TransLayout | Method::TransLayout2 => match self.tiling {
                Tiling::Tessellate { .. } => Layout::Natural,
                _ => Layout::Transpose,
            },
            Method::Dlt => Layout::Dlt,
        }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Execution-plan builder: pick a [`Shape`], a [`Method`], an [`Isa`] and
/// a [`Tiling`], then compile it against a stencil with one of the
/// typed terminal methods ([`Plan::star1`], [`Plan::star2`],
/// [`Plan::box2`], [`Plan::star3`], [`Plan::box3`]) or against a
/// runtime [`StencilSpec`](crate::spec::StencilSpec) with
/// [`Plan::stencil`], which yields a [`DynPlan`] — the same plan with
/// its dimension and element type folded into an enum.
///
/// Defaults: `Method::TransLayout2` (the paper's best scheme),
/// `Isa::detect_best()`, `Tiling::None`.
#[derive(Copy, Clone, Debug)]
pub struct Plan {
    shape: Shape,
    method: Method,
    isa: Isa,
    tiling: Tiling,
    par: Parallelism,
    /// `None` until [`Plan::boundary`] is called; the typed terminals
    /// then default to `Dirichlet(0.0)` and [`Plan::stencil`] defers to
    /// the spec's own boundary.
    boundary: Option<Boundary>,
}

impl Plan {
    /// Start a plan for a problem of the given shape.
    pub fn new(shape: Shape) -> Plan {
        Plan {
            shape,
            method: Method::TransLayout2,
            isa: Isa::detect_best(),
            tiling: Tiling::None,
            par: Parallelism::Auto,
            boundary: None,
        }
    }

    /// Choose the vectorization method (default: `TransLayout2`).
    pub fn method(mut self, method: Method) -> Plan {
        self.method = method;
        self
    }

    /// Choose the instruction set (default: `Isa::detect_best()`).
    ///
    /// This is a ceiling, not a pin: a `TransLayout`/`TransLayout2`
    /// plan whose innermost extent cannot hold one full `vl²` vector
    /// set compiles for the next-narrower register class instead
    /// (see [`Isa::narrower`]) — the compiled choice is reported by
    /// the plan's `isa()` accessor. Results are bit-identical either
    /// way; only the set geometry changes.
    pub fn isa(mut self, isa: Isa) -> Plan {
        self.isa = isa;
        self
    }

    /// Choose the temporal tiling framework (default: none).
    pub fn tiling(mut self, tiling: Tiling) -> Plan {
        self.tiling = tiling;
        self
    }

    /// Choose the core-level parallelism (default: [`Parallelism::Auto`]).
    pub fn parallelism(mut self, par: Parallelism) -> Plan {
        self.par = par;
        self
    }

    /// Choose the [`Boundary`] condition (default: `Dirichlet(0.0)` —
    /// the paper's constant halos; [`Plan::stencil`] instead defers to
    /// the spec's own boundary when this knob was never set).
    ///
    /// Every boundary composes with every tiling framework and
    /// parallelism level: untiled runs refresh the halos once per step,
    /// and the temporally tiled frameworks ([`Tiling::Tessellate`] /
    /// [`Tiling::Split`]) refresh them per tile step inside the
    /// wavefront schedule (see the `exec::wave` module docs). Tiles that
    /// read halos fuse into one lockstep edge group per chunk; under
    /// split tiling, and for an untiled parallel 1D [`Method::Dlt`] row
    /// (a column split of height 1), that is every tile, so those
    /// configurations step one worker per chunk under a refreshed
    /// boundary. The one genuine restriction is shape-level, validated
    /// at build time: wrap/mirror folds need every interior extent ≥ the
    /// stencil radius, else [`PlanError::Boundary`] with
    /// [`BoundaryReason::ExtentBelowRadius`].
    pub fn boundary(mut self, boundary: Boundary) -> Plan {
        self.boundary = Some(boundary);
        self
    }

    fn expect_ndim(&self, ndim: usize) -> Result<(), PlanError> {
        if self.shape.ndim != ndim {
            return Err(PlanError::DimMismatch {
                shape: self.shape.ndim,
                stencil: ndim,
            });
        }
        if self.shape.dims[..ndim].contains(&0) {
            return Err(PlanError::EmptyShape);
        }
        Ok(())
    }

    /// Resolve the parallelism knob to a concrete worker count (≥ 1).
    /// One bound covers every source of the count — the knob itself, a
    /// tiling's `threads` field under [`Parallelism::Auto`], the host —
    /// because whichever it is, that many OS threads are spawned at build.
    fn resolve_threads(&self) -> Result<usize, PlanError> {
        let n = match (self.par, self.tiling) {
            (Parallelism::Off, _) => 1,
            (Parallelism::Threads(0), _) => {
                return Err(PlanError::BadParallelism(
                    "thread count must be ≥ 1 (use Parallelism::Off for sequential)".into(),
                ))
            }
            (Parallelism::Threads(n), _) => n,
            (Parallelism::Auto, Tiling::None) => auto_threads().min(MAX_THREADS),
            (
                Parallelism::Auto,
                Tiling::Tessellate { threads, .. } | Tiling::Split { threads, .. },
            ) => threads.max(1),
        };
        if n > MAX_THREADS {
            return Err(PlanError::BadParallelism(format!(
                "thread count {n} exceeds the {MAX_THREADS} sanity cap"
            )));
        }
        Ok(n)
    }

    /// Validate the boundary against the shape (see [`Plan::boundary`]):
    /// wrap/mirror folds need every interior extent ≥ the stencil
    /// radius `r`. Tiling and parallelism impose no boundary
    /// restrictions — the wavefront drivers refresh halos per tile step.
    fn validate_boundary(
        &self,
        ndim: usize,
        r: usize,
        boundary: Boundary,
    ) -> Result<(), PlanError> {
        if boundary.is_dirichlet() {
            return Ok(());
        }
        for (axis, &n) in self.shape.dims[..ndim].iter().enumerate() {
            if n < r {
                return Err(PlanError::Boundary {
                    boundary,
                    reason: BoundaryReason::ExtentBelowRadius {
                        axis,
                        extent: n,
                        radius: r,
                    },
                });
            }
        }
        Ok(())
    }

    /// Validate method × tiling × shape × parallelism × boundary and
    /// build the worker pool. `r` is the stencil radius. Returns the
    /// resolved thread count and the plan's pool (present whenever any
    /// stage can use more than one thread).
    fn validate(
        &self,
        ndim: usize,
        r: usize,
        boundary: Boundary,
        lanes: usize,
    ) -> Result<(usize, Option<rayon::ThreadPool>), PlanError> {
        self.expect_ndim(ndim)?;
        // The scalar oracle never executes ISA-specific code (no layout
        // transform, no dispatch), so it stays valid with any Isa value.
        if self.method != Method::Scalar && !self.isa.is_available() {
            return Err(PlanError::IsaUnavailable(self.isa));
        }
        self.validate_boundary(ndim, r, boundary)?;
        let threads = self.resolve_threads()?;
        let conflict = match self.tiling {
            // Untiled sequential plans skip the pool entirely; tiled
            // plans always own one (a 1-thread pool runs stages inline).
            Tiling::None => return Ok((threads, (threads > 1).then(|| tess::make_pool(threads)))),
            Tiling::Tessellate { .. } if self.method == Method::Dlt => {
                Some("DLT runs under split tiling (its own layout/tile geometry)")
            }
            Tiling::Split { .. } if self.method != Method::Dlt => {
                Some("split tiling tiles the DLT layout; use Method::Dlt")
            }
            _ => None,
        };
        if let Some(reason) = conflict {
            return Err(PlanError::MethodTilingConflict {
                method: self.method,
                tiling: self.tiling.name(),
                reason,
            });
        }
        if let Some((w, h)) = tess_widths(&self.shape, self.tiling) {
            if h == 0 {
                return Err(PlanError::BadTiling("chunk height h must be ≥ 1".into()));
            }
            if let Some(axis) = w[..ndim].iter().position(|&wi| wi == 0) {
                return Err(PlanError::BadTiling(format!(
                    "tile width w[{axis}] must be ≥ 1"
                )));
            }
            for (axis, d) in tess_dims(&self.shape, w, r)[..ndim].iter().enumerate() {
                if h > d.max_height() {
                    return Err(PlanError::BadTiling(format!(
                        "chunk height {h} exceeds max {} for axis {axis} (n={}, w={}, r={r})",
                        d.max_height(),
                        d.n,
                        d.w,
                    )));
                }
            }
        } else if let Tiling::Split { w, h, .. } = self.tiling {
            // 1D split tiles the DLT column space; degenerate widths
            // fall back to plain stepping at run time.
            if w == 0 || h == 0 {
                return Err(PlanError::BadTiling("w and h must be ≥ 1".into()));
            }
            let cols = self.shape.dims[0] / lanes;
            if cols > 4 * r {
                let d = DimTiling::new(cols, w.min(cols), r, false);
                if h > d.max_height() {
                    return Err(PlanError::BadTiling(format!(
                        "chunk height {h} exceeds max {} in DLT column space \
                         (cols={cols}, w={}, r={r})",
                        d.max_height(),
                        w.min(cols),
                    )));
                }
            }
        }
        Ok((threads, Some(tess::make_pool(threads))))
    }

    /// The ISA the plan actually compiles for. The transpose-layout
    /// methods vectorize whole `vl²`-cell sets along x, so a row
    /// shorter than one set would fall entirely to the scalar tail —
    /// at f32's 16 lanes a set spans 256 cells, and a 64-wide 3D grid
    /// that is >2× faster than f64 under AVX2 runs 16× *slower* under
    /// AVX-512. Step down the register-class ladder
    /// ([`Isa::narrower`]) until a full set fits or the 256-bit class
    /// is reached; other methods (per-vector geometry, no `vl²` sets)
    /// keep the configured ISA, and f64 plans only narrow below 64
    /// cells where the tail dominated anyway.
    ///
    /// Under tessellate tiling the extent that matters is the **tile**
    /// x-footprint, not the grid: staged tiles step `vl²` sets of the
    /// staged width `w + 2r`, and that width must hold **two** full
    /// sets. One set is the floor for having a transposed region at
    /// all, but a row that holds only a single set is all edge — every
    /// step pays the partial-set snapshot/restore and the prev/next
    /// overhang assembly on its one set — so the class is kept only
    /// when at least one *interior* set can exist. Partial edge sets
    /// ride the vector pipeline either way — see `kernels::tl`.
    fn narrowed_isa<T: Elem>(&self, r: usize) -> Isa {
        if !matches!(self.method, Method::TransLayout | Method::TransLayout2) {
            return self.isa;
        }
        let nx = self.shape.dims[0];
        let (extent, sets) = match self.tiling {
            // Typical staged triangle width: the tile base plus the
            // radius-extended reach on both sides.
            Tiling::Tessellate { w, .. } => (w[0].max(1).min(nx) + 2 * r, 2),
            _ => (nx, 1),
        };
        let mut isa = self.isa;
        loop {
            let vl = isa.lanes_for::<T>();
            if extent >= sets * vl * vl {
                return isa;
            }
            match isa.narrower().filter(|i| i.is_available()) {
                Some(n) => isa = n,
                None => return isa,
            }
        }
    }

    /// Build the per-worker staging arena for tessellate + transpose
    /// plans (see [`stage::TileArena`]); `None` for every other
    /// configuration.
    fn tess_arena<T: Elem>(
        &self,
        r: usize,
        pool: Option<&rayon::ThreadPool>,
    ) -> Option<stage::TileArena<T>> {
        let Tiling::Tessellate { w, h, .. } = self.tiling else {
            return None;
        };
        if !matches!(self.method, Method::TransLayout | Method::TransLayout2) {
            return None;
        }
        let dims = tess_dims(&self.shape, w, r);
        let workers = pool.map(|p| p.current_num_threads()).unwrap_or(1);
        let real = &dims[..self.shape.ndim];
        Some(stage::TileArena::for_tess(real, h, r, workers))
    }

    /// Compile the plan around a boxed kernel — the single body every
    /// typed terminal and [`Plan::stencil`] end in. Validates the
    /// configuration against the kernel's rank and radius over the
    /// element type, and allocates what every run shares: the worker pool
    /// and (tessellate + transpose methods) the per-worker staging arena.
    fn compile<T: Elem>(
        mut self,
        kernel: Box<dyn Kernel<T>>,
    ) -> Result<CompiledPlan<T>, PlanError> {
        let r = kernel.radius();
        self.isa = self.narrowed_isa::<T>(r);
        let boundary = self.boundary.unwrap_or_default();
        let lanes = self.isa.lanes_for::<T>();
        let (threads, pool) = self.validate(kernel.ndim(), r, boundary, lanes)?;
        let arena = self.tess_arena(r, pool.as_ref());
        let mut cfg = Cfg {
            method: self.method,
            isa: self.isa,
            tiling: self.tiling,
            par: self.par,
            threads,
            boundary,
            depth: 1,
        };
        cfg.depth = fused_depth::<T>(&cfg, &self.shape, r);
        let core = PlanCore {
            cfg,
            shape: self.shape,
            phases: stage::PhaseCounters::new(),
            pool,
        };
        Ok(CompiledPlan {
            core,
            kernel,
            scratch: None,
            ring: None,
            arena,
        })
    }

    /// Compile the plan for a 1D star stencil (over `f64`).
    pub fn star1<S: Star1>(self, stencil: S) -> Result<CompiledPlan, PlanError> {
        self.star1_elem(stencil)
    }

    /// Compile the plan for a 1D star stencil over element type `T`.
    pub fn star1_elem<T: Elem, S: Star1>(self, stencil: S) -> Result<CompiledPlan<T>, PlanError> {
        self.compile(kernels::star1(stencil)?)
    }

    /// Compile the plan for a 2D star stencil (over `f64`).
    pub fn star2<S: Star2>(self, stencil: S) -> Result<CompiledPlan, PlanError> {
        self.star2_elem(stencil)
    }

    /// Compile the plan for a 2D star stencil over element type `T`.
    pub fn star2_elem<T: Elem, S: Star2>(self, stencil: S) -> Result<CompiledPlan<T>, PlanError> {
        self.compile(kernels::star2(stencil)?)
    }

    /// Compile the plan for a 2D box stencil (over `f64`).
    pub fn box2<S: Box2>(self, stencil: S) -> Result<CompiledPlan, PlanError> {
        self.box2_elem(stencil)
    }

    /// Compile the plan for a 2D box stencil over element type `T`.
    pub fn box2_elem<T: Elem, S: Box2>(self, stencil: S) -> Result<CompiledPlan<T>, PlanError> {
        self.compile(kernels::box2(stencil)?)
    }

    /// Compile the plan for a 3D star stencil (over `f64`).
    pub fn star3<S: Star3>(self, stencil: S) -> Result<CompiledPlan, PlanError> {
        self.star3_elem(stencil)
    }

    /// Compile the plan for a 3D star stencil over element type `T`.
    pub fn star3_elem<T: Elem, S: Star3>(self, stencil: S) -> Result<CompiledPlan<T>, PlanError> {
        self.compile(kernels::star3(stencil)?)
    }

    /// Compile the plan for a 3D box stencil (over `f64`).
    pub fn box3<S: Box3>(self, stencil: S) -> Result<CompiledPlan, PlanError> {
        self.box3_elem(stencil)
    }

    /// Compile the plan for a 3D box stencil over element type `T`.
    pub fn box3_elem<T: Elem, S: Box3>(self, stencil: S) -> Result<CompiledPlan<T>, PlanError> {
        self.compile(kernels::box3(stencil)?)
    }
}

/// The per-axis tessellate tilings of `shape` for triangle bases `w` and
/// radius `r`. An absent axis gets the degenerate tiling — extent 1,
/// radius 0: one triangle that never shrinks, no inverted tile, a reach
/// of exactly `(0, 1)` — so it multiplies every tile product by one and
/// never touches a halo.
fn tess_dims(shape: &Shape, w: [usize; 3], r: usize) -> [DimTiling; 3] {
    std::array::from_fn(|a| {
        let n = shape.dims[a];
        if a < shape.ndim {
            DimTiling::new(n, w[a].min(n), r, true)
        } else {
            DimTiling::new(1, 1, 0, true)
        }
    })
}

/// The tessellation `tiling` runs as over `shape`, as per-axis triangle
/// bases and the chunk height: [`Tiling::Tessellate`] by its own widths,
/// and 2D/3D [`Tiling::Split`] by widths `[nx, ny, w]` — every axis but
/// the outermost is one tile spanning the whole axis, the outermost gets
/// base `w`. A spanning axis is a triangle that never shrinks and has no
/// inverted tile, so the tiles are split tiling's outer-axis triangles
/// and inverted trapezoids, in the same order, and every kernel call
/// covers whole DLT rows. `None` for untiled plans and for 1D split,
/// which tiles the DLT column space instead.
fn tess_widths(shape: &Shape, tiling: Tiling) -> Option<([usize; 3], usize)> {
    match tiling {
        Tiling::Tessellate { w, h, .. } => Some((w, h)),
        Tiling::Split { w, h, .. } if shape.ndim > 1 => {
            let mut widths = shape.dims;
            widths[shape.ndim - 1] = w;
            Some((widths, h))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Compiled plans
// ---------------------------------------------------------------------------

/// The part of a compiled plan that does not name its element type:
/// the validated configuration, the worker pool, and
/// the phase counters. [`CompiledPlan`] and [`DynPlan`] deref to it, so
/// these accessors are available on both.
pub struct PlanCore {
    cfg: Cfg,
    shape: Shape,
    phases: stage::PhaseCounters,
    pool: Option<rayon::ThreadPool>,
}

impl std::fmt::Debug for PlanCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCore")
            .field("method", &self.cfg.method)
            .field("isa", &self.cfg.isa)
            .field("tiling", &self.cfg.tiling)
            .field("shape", &self.shape)
            .field("fused_steps", &self.cfg.depth)
            .finish_non_exhaustive()
    }
}

impl PlanCore {
    /// The plan's vectorization method.
    pub fn method(&self) -> Method {
        self.cfg.method
    }

    /// The plan's instruction set.
    pub fn isa(&self) -> Isa {
        self.cfg.isa
    }

    /// The plan's tiling framework.
    pub fn tiling(&self) -> Tiling {
        self.cfg.tiling
    }

    /// The plan's parallelism knob.
    pub fn parallelism(&self) -> Parallelism {
        self.cfg.par
    }

    /// Worker count the parallelism knob resolved to at build time (≥ 1).
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// The plan's boundary condition.
    pub fn boundary(&self) -> Boundary {
        self.cfg.boundary
    }

    /// The shape the plan was compiled for.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Time steps one fused pass of a session advances — the depth `k`
    /// of the time loop's unroll-and-jam, resolved at build time; 1 when
    /// the plan runs no fused pass. Untiled `TransLayout2` plans fuse
    /// under every boundary, on any grid whose halo holds the radius: a
    /// 2D/3D grid larger than the probed L2 as deep as its ring fits
    /// half of it (2 ≤ k ≤ 8); L2-resident plans and a sequential 1D row
    /// in step pairs. With threads, each band of the outer axis runs the
    /// pass, and `k` is capped so that `2(k - 1)·r` fits the shortest
    /// band (1 if even `k = 2` does not; parallel 1D rows report 1). A
    /// run of `t` steps passes at most `t` deep; tiled 1D `TransLayout2`
    /// fuses pairs inside each tile.
    pub fn fused_steps(&self) -> usize {
        self.cfg.depth
    }

    /// Cumulative wall-time phase totals recorded by the tessellation
    /// driver; see [`PhaseTotals`]. Staged tiles (tessellate +
    /// `TransLayout`/`TransLayout2`) record stage-in, compute and
    /// stage-out; edge groups under a refreshed boundary record halo and
    /// compute, which includes every 2D/3D [`Tiling::Split`] plan there.
    /// Untiled plans, 1D split plans and unstaged interior tiles record
    /// nothing.
    pub fn phase_totals(&self) -> PhaseTotals {
        self.phases.totals()
    }

    /// Reset the phase totals to zero.
    pub fn reset_phase_totals(&self) {
        self.phases.reset()
    }

    /// The plan's pool; present whenever a driver that needs one can run.
    fn pool(&self) -> &rayon::ThreadPool {
        self.pool.as_ref().expect("pool")
    }
}

/// Compiled execution plan over grids of element `T` (any rank, star or
/// box — the boxed kernel knows which).
///
/// Owns the kernel and every buffer the method needs (ping-pong scratch,
/// fused-pass ring, staging arena, worker pool);
/// [`CompiledPlan::run`] and [`CompiledPlan::session`] reuse them across
/// calls.
pub struct CompiledPlan<T: Elem = f64> {
    core: PlanCore,
    kernel: Box<dyn Kernel<T>>,
    scratch: Option<AlignedBuf<T>>,
    ring: Option<AlignedBuf<T>>,
    arena: Option<stage::TileArena<T>>,
}

impl<T: Elem> std::ops::Deref for CompiledPlan<T> {
    type Target = PlanCore;
    fn deref(&self) -> &PlanCore {
        &self.core
    }
}

impl<T: Elem> std::fmt::Debug for CompiledPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CompiledPlan").field(&self.core).finish()
    }
}

impl<T: Elem> CompiledPlan<T> {
    /// Run `t` Jacobi steps on `g` (natural layout in, natural layout
    /// out). Buffers are reused across calls; for repeated stepping
    /// without the per-call layout round-trip, use
    /// [`CompiledPlan::session`].
    ///
    /// # Panics
    /// As [`CompiledPlan::session`].
    pub fn run<'g>(&mut self, g: impl Into<GridMut<'g, T>>, t: usize) {
        if t == 0 {
            return;
        }
        self.session(g.into()).run(t);
    }

    /// Open a layout-resident stepping session on `g` (a `&mut Grid1`,
    /// `Grid2` or `Grid3`): the grid is transformed into the method's
    /// layout once, every [`Session::run`] steps it in place, and
    /// dropping the session restores natural order.
    ///
    /// # Panics
    /// If the grid's rank or extents differ from the plan's shape, or its
    /// halo is narrower than the stencil radius
    /// ([`Geo::holds_radius`]).
    pub fn session<'p>(&'p mut self, g: impl Into<GridMut<'p, T>>) -> Session<'p, T> {
        let (buf, geo) = g.into().into_parts();
        assert_eq!(
            geo.shape(),
            self.core.shape,
            "grid does not match the plan's shape"
        );
        let r = self.kernel.radius();
        assert!(
            geo.holds_radius(r),
            "grid halo narrower than stencil radius"
        );
        let cfg = &self.core.cfg;
        // The ping-pong partner is filled on the first step that needs
        // one (see `Session::run`); only DLT needs it to open.
        let partner = cfg.layout() == Layout::Dlt;
        match cfg.layout() {
            Layout::Natural => {}
            Layout::Transpose => layout::tl_buf(buf, &geo, cfg.isa),
            Layout::Dlt => {
                // Transform into the scratch (which carries `buf`'s
                // halos), then copy back: both partners start identical.
                halo::ensure_scratch(&mut self.scratch, buf);
                let scratch = self.scratch.as_mut().expect("scratch");
                layout::dlt_buf(buf, scratch, &geo, cfg.isa, false);
                buf.copy_from(scratch);
            }
        }
        Session {
            plan: self,
            buf,
            geo,
            partner,
        }
    }
}

/// Layout-resident stepping session (see [`CompiledPlan::session`]).
pub struct Session<'p, T: Elem = f64> {
    plan: &'p mut CompiledPlan<T>,
    /// The caller's grid buffer, laid out as `geo`.
    buf: &'p mut AlignedBuf<T>,
    geo: Geo,
    /// Whether the plan's scratch holds this grid's halos and pads, as
    /// the ping-pong partner of its k = 1 steps.
    partner: bool,
}

impl<T: Elem> Session<'_, T> {
    /// Advance the grid `t` Jacobi steps. No layout transform happens
    /// here — only kernel stepping (tiled runs copy small precomputed
    /// tile lists per chunk), plus the O(surface) per-step halo refresh
    /// under a non-Dirichlet [`Boundary`]. Two allocations can happen,
    /// each once: a 2D/3D fused plan's ring (one per band) and strips,
    /// sized for the deepest pass a run has asked for (`min(fused_steps,
    /// t)`) and grown only when a later run goes deeper; and the
    /// ping-pong partner of k = 1 steps, copied from the grid on the
    /// session's first such step — a fused run whose steps all fall in
    /// passes never takes one.
    pub fn run(&mut self, t: usize) {
        if t == 0 {
            return;
        }
        let plan = &mut *self.plan;
        let geo = self.geo;
        let cfg = plan.core.cfg;
        let depth = cfg.depth.min(t);
        if geo.ndim > 1 && depth > 1 {
            let r = plan.kernel.radius();
            let bp = par::band_pass(&geo, r, depth, cfg.boundary, cfg.threads);
            let (len, ..) = bp.layout::<T>(&geo);
            if plan.ring.as_ref().is_none_or(|ring| ring.len() < len) {
                plan.ring = Some(AlignedBuf::zeroed(len));
            }
        }
        if cfg.pingpongs(t) > 0 && !self.partner {
            halo::ensure_scratch(&mut plan.scratch, self.buf);
            self.partner = true;
        }
        // The ping-pong pair the method steps: the caller's grid and, once
        // filled, the plan's scratch — both `geo.len()` long, so the
        // interior origin lies inside each.
        let o = geo.origin::<T>();
        let partner = match plan.scratch.as_mut() {
            Some(b) if self.partner => b.as_mut_ptr().wrapping_add(o),
            _ => std::ptr::null_mut(),
        };
        let bufs = [
            SyncPtr(self.buf.as_mut_ptr().wrapping_add(o)),
            SyncPtr(partner),
        ];
        let ring = plan.ring.as_mut().map(|ring| ring.as_mut_ptr());
        let arena = plan.arena.as_ref();
        let pingpongs = run_steps(&plan.core, &*plan.kernel, &geo, bufs, ring, arena, t);
        if pingpongs % 2 == 1 {
            std::mem::swap(self.buf, plan.scratch.as_mut().expect("scratch"));
        }
    }
}

impl<T: Elem> Drop for Session<'_, T> {
    fn drop(&mut self) {
        let isa = self.plan.core.cfg.isa;
        match self.plan.core.cfg.layout() {
            Layout::Natural => {}
            Layout::Transpose => layout::tl_buf(self.buf, &self.geo, isa),
            Layout::Dlt => {
                let scratch = self.plan.scratch.as_mut().expect("scratch");
                layout::dlt_buf(self.buf, scratch, &self.geo, isa, true);
                std::mem::swap(self.buf, scratch);
            }
        }
    }
}

/// The fused pass depth of a plan (see [`PlanCore::fused_steps`]): only
/// untiled `TransLayout2` fuses. A row needs two full vector sets for
/// the register pipeline, which fuses step pairs on one thread (parallel
/// rows step k = 1). A plane or volume pipelines through a ring as deep
/// as [`halo::depth`] allows for its ring slab — a row in 2D, a plane in
/// 3D — in a buffer laid out with an `r`-wide halo, under every
/// boundary. A buffer that fits the L2 stays at `k = 2`: it has no
/// memory traffic for a deeper pass to save, and the deeper ring only
/// pushes the rows a level reads out of L1 (on an AVX-512 core with a
/// 2 MiB L2, a 256² f64 2d5p session ran 1.6–1.9× slower at k = 8 than
/// at k = 2).
///
/// With several threads each band of the outer axis sweeps its own
/// ring, and every seam between bands costs strips `(k - 1)·r` slabs
/// deep on each side. `k` is capped so that the strips of a band's two
/// seams do not overlap — `2(k - 1)·r` no taller than the shortest
/// band — and a plan whose bands are too short for `k = 2` steps k = 1.
fn fused_depth<T: Elem>(cfg: &Cfg, shape: &Shape, r: usize) -> usize {
    if cfg.method != Method::TransLayout2 || cfg.tiling != Tiling::None {
        return 1;
    }
    let ndim = shape.ndim;
    let n = std::array::from_fn(|a| if a < ndim { shape.dims[a] } else { 1 });
    let geo = Geo::packed::<T>(ndim, n, r);
    let bytes = |elems: usize| elems * std::mem::size_of::<T>();
    let l2 = halo::l2_bytes();
    let k = match ndim {
        1 if cfg.threads == 1 && SetGeo::new(n[0], cfg.isa.lanes_for::<T>()).nsets >= 2 => 2,
        1 => 1,
        _ if bytes(geo.len::<T>()) <= l2 => 2,
        2 => halo::depth(l2, bytes(geo.rs), r),
        _ => halo::depth(l2, bytes(geo.ps), r),
    };
    k.min(band_cap(n[ndim - 1], cfg.threads, r))
}

/// The deepest fused pass the bands of `threads` workers over an outer
/// axis of `n` slabs run at radius `r`: unbounded for one band, else the
/// largest `k` with `2(k - 1)·r` no taller than the shortest band (1 if
/// even `k = 2` is not).
fn band_cap(n: usize, threads: usize, r: usize) -> usize {
    match par::bands(n, threads).len() {
        1 => usize::MAX,
        m => (n / m) / (2 * r) + 1,
    }
}

/// The one runner body: step the ping-pong pair `bufs` (laid out as
/// `geo`, already in the method's layout) `t` levels with the executor
/// the plan's configuration selects. Returns the number of ping-pong
/// steps taken — its parity says which buffer holds the result.
fn run_steps<T: Elem>(
    core: &PlanCore,
    k: &dyn Kernel<T>,
    geo: &Geo,
    bufs: [SyncPtr<T>; 2],
    ring: Option<*mut T>,
    arena: Option<&stage::TileArena<T>>,
    t: usize,
) -> usize {
    let Cfg {
        method,
        isa,
        tiling,
        threads,
        boundary,
        ..
    } = core.cfg;
    let r = k.radius();
    let st = Stepper {
        k,
        method,
        isa,
        bufs,
        geo,
    };
    if let Some((w, h)) = tess_widths(&core.shape, tiling) {
        let dims = tess_dims(&core.shape, w, r);
        tess::drive(&st, &dims, t, h, core.pool(), boundary, arena, &core.phases);
        return t;
    }
    // A 1D DLT row is tiled in its column space, and an untiled parallel
    // one runs there as a column split of height 1, one column band per
    // thread. A row too narrow for column tiles steps sequentially — the
    // only sensible schedule at that width.
    let dlt_row = geo.ndim == 1 && method == Method::Dlt;
    let cols = DltGeo::new(geo.n[0], isa.lanes_for::<T>());
    let narrow = dlt_row && cols.cols <= 4 * r;
    match tiling {
        Tiling::Split { w, h, .. } if !narrow => {
            split::drive_cols(&st, &cols, w, t, h, core.pool(), boundary);
            t
        }
        Tiling::None if threads > 1 && dlt_row && !narrow => {
            let w = cols.cols.div_ceil(threads);
            split::drive_cols(&st, &cols, w, t, 1, core.pool(), boundary);
            t
        }
        _ => {
            // In-place passes of `min(depth, steps left)` on buffer 0
            // while at least two steps are left, then the last step (if
            // any) alone, ping-ponging, each band-parallel on a plan with
            // threads. A 1D DLT row here is too narrow for column bands:
            // one band.
            let (depth, pool) = (core.cfg.depth, core.pool.as_ref());
            let rest = match depth {
                1 => t,
                _ => par::passes(&st, ring, depth, t, pool, threads, boundary),
            };
            if rest > 0 {
                let bands = if dlt_row { 1 } else { threads };
                par::drive(&st, rest, pool, bands, boundary);
            }
            debug_assert_eq!(rest, core.cfg.pingpongs(t));
            rest
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid, Grid2, Grid3};
    use crate::stencil::{S1d3p, S2d5p, S2d9p, S3d27p, S3d7p};
    use crate::verify::max_abs_diff;

    /// A grid too large for any L2 fuses as deep as its ring slab
    /// allows: a row in 2D, a plane in 3D.
    #[test]
    fn memory_sized_plans_take_the_l2_depth() {
        let k = |shape: Shape, spec: &str| {
            let spec: crate::StencilSpec = spec.parse().unwrap();
            let plan = Plan::new(shape).method(Method::TransLayout2);
            plan.parallelism(Parallelism::Off)
                .stencil(&spec)
                .unwrap()
                .fused_steps()
        };
        let l2 = halo::l2_bytes();
        let row = Geo::packed::<f64>(2, [8192, 4096, 1], 1).rs * 8;
        assert_eq!(k(Shape::d2(8192, 4096), "2d5p"), halo::depth(l2, row, 1));
        let plane = Geo::packed::<f32>(3, [1024, 1024, 64], 1).ps * 4;
        assert_eq!(
            k(Shape::d3(1024, 1024, 64), "3d7p@f32"),
            halo::depth(l2, plane, 1)
        );
    }

    /// Run `fused` (a `TransLayout2` plan, its depth forced to `depth`
    /// within its band cap) and `oracle` from `init` for each step count
    /// in `ts`, 0 ULP apart, and check the buffers the fused plan holds
    /// after each run: its ring and strips, sized by the deepest pass a
    /// run has asked for, and the ping-pong scratch, present only once a
    /// run took a k = 1 step.
    fn check_fused<T: Elem, const D: usize>(
        init: &Grid<T, D>,
        oracle: &mut CompiledPlan<T>,
        fused: &mut CompiledPlan<T>,
        depth: usize,
        ts: &[usize],
    ) {
        let (geo, b, threads) = (init.geo(), fused.boundary(), fused.threads());
        let outer = geo.n[geo.ndim - 1];
        let depth = depth.min(band_cap(outer, threads, 1));
        fused.core.cfg.depth = depth;
        let (mut deepest, mut stepped) = (0, false);
        for &t in ts {
            let (mut want, mut got) = (init.clone(), init.clone());
            oracle.run(&mut want, t);
            fused.run(&mut got, t);
            let n = geo.n;
            let diff = max_abs_diff(&want, &got);
            assert_eq!(diff, 0.0, "{b} {n:?} threads={threads} k={depth} t={t}");
            deepest = deepest.max(depth.min(t) * usize::from(t > 1 && depth > 1));
            stepped |= fused.core.cfg.pingpongs(t) > 0;
            let len = fused.ring.as_ref().map(|r| r.len());
            let want = |k| par::band_pass(&geo, 1, k, b, threads).layout::<T>(&geo).0;
            assert_eq!(
                len,
                (deepest > 1).then(|| want(deepest)),
                "{b} k={depth} t={t}"
            );
            let scratch = fused.scratch.is_some();
            assert_eq!(scratch, stepped, "{b} threads={threads} k={depth} t={t}");
        }
    }

    fn plan_for<T: Elem, const D: usize>(init: &Grid<T, D>, b: Boundary, par: Parallelism) -> Plan {
        Plan::new(init.geo().shape()).parallelism(par).boundary(b)
    }

    const BOUNDARIES: [Boundary; 3] = [
        Boundary::Dirichlet(0.5),
        Boundary::Periodic,
        Boundary::Reflect,
    ];

    /// A deterministic, sign-mixed cell value.
    fn v(i: usize) -> f64 {
        ((i * 613 % 211) as f64 - 105.0) / 128.0
    }

    /// A pass as deep as a large grid's would be, forced onto tiny ones:
    /// step counts that are not a multiple of the depth end in a shorter
    /// pass and a lone k = 1 step, bit-exact against the oracle under
    /// every boundary, on grids whose halo is the radius, sequential and
    /// in bands (whose cap brings these outer extents down to k = 2).
    /// The ring is allocated by the first run that fuses, for the deepest
    /// pass a run has asked for, and grows with it; the scratch by the
    /// first lone step.
    #[test]
    fn deep_pass_remainders_match_the_oracle() {
        fn check<T: Elem, const D: usize>(
            init: &Grid<T, D>,
            compile: impl Fn(Plan) -> Result<CompiledPlan<T>, PlanError>,
        ) {
            for b in BOUNDARIES {
                for par in [
                    Parallelism::Off,
                    Parallelism::Threads(2),
                    Parallelism::Threads(3),
                ] {
                    let plan = |m| plan_for(init, b, par).method(m);
                    let mut oracle = compile(plan(Method::Scalar)).unwrap();
                    for depth in [3, 8] {
                        let mut fused = compile(plan(Method::TransLayout2)).unwrap();
                        let ts = [1, 2, 7, 9, 13, 17, 2];
                        check_fused(init, &mut oracle, &mut fused, depth, &ts);
                    }
                }
            }
        }
        let g2 = Grid2::from_fn(37, 5, 1, 0.5, |y, x| v(y * 37 + x));
        check(&g2, |p| p.star2(S2d5p::heat()));
        let g2 = Grid2::<f32>::from_fn(37, 5, 1, 0.5, |y, x| v(y * 37 + x) as f32);
        check(&g2, |p| p.box2_elem(S2d9p::blur()));
        let g3 = Grid3::from_fn(19, 3, 4, 1, -0.5, |z, y, x| v((z * 3 + y) * 19 + x));
        check(&g3, |p| p.box3(S3d27p::blur()));
        let g3 = Grid3::<f32>::from_fn(19, 3, 4, 1, -0.5, |z, y, x| v((z * 3 + y) * 19 + x) as f32);
        check(&g3, |p| p.star3_elem(S3d7p::heat()));
    }

    /// The band form against the oracle, 0 ULP: 2D and 3D, f64 and f32,
    /// every boundary, 2, 3 and 5 bands, forced depths 2, 3 and 8. Each
    /// depth runs on an outer extent the band count does not divide whose
    /// shortest band sits exactly at the cap (`2(k-1)·r` slabs), and on
    /// one a slab short of it, where the cap lowers the depth (to k = 1,
    /// the k = 1 band driver, for depth 2).
    #[test]
    fn band_passes_match_the_oracle() {
        fn check<T: Elem, const D: usize>(
            grid: impl Fn(usize) -> Grid<T, D>,
            compile: impl Fn(Plan) -> Result<CompiledPlan<T>, PlanError>,
        ) {
            for threads in [2, 3, 5] {
                for depth in [2, 3, 8] {
                    let at_cap = threads * 2 * (depth - 1) + threads - 1;
                    for outer in [at_cap, threads * 2 * (depth - 1) - 1] {
                        let init = grid(outer);
                        assert_eq!(band_cap(at_cap, threads, 1), depth);
                        assert!(band_cap(outer, threads, 1) <= depth);
                        for b in BOUNDARIES {
                            let plan =
                                |m| plan_for(&init, b, Parallelism::Threads(threads)).method(m);
                            let mut oracle = compile(plan(Method::Scalar)).unwrap();
                            let mut fused = compile(plan(Method::TransLayout2)).unwrap();
                            let ts = [1, 2, 7, 9, 13];
                            check_fused(&init, &mut oracle, &mut fused, depth, &ts);
                        }
                    }
                }
            }
        }
        check(
            |ny| Grid2::from_fn(37, ny, 1, 0.5, |y, x| v(y * 37 + x)),
            |p| p.star2(S2d5p::heat()),
        );
        check(
            |ny| Grid2::<f32>::from_fn(37, ny, 1, 0.5, |y, x| v(y * 37 + x) as f32),
            |p| p.box2_elem(S2d9p::blur()),
        );
        check(
            |nz| Grid3::from_fn(11, 3, nz, 1, -0.5, |z, y, x| v((z * 3 + y) * 11 + x)),
            |p| p.star3(S3d7p::heat()),
        );
        check(
            |nz| {
                Grid3::<f32>::from_fn(11, 3, nz, 1, -0.5, |z, y, x| v((z * 3 + y) * 11 + x) as f32)
            },
            |p| p.box3_elem(S3d27p::blur()),
        );
    }

    #[test]
    fn builder_rejects_dim_mismatch() {
        let err = Plan::new(Shape::d2(8, 8)).star1(S1d3p::heat()).unwrap_err();
        assert_eq!(
            err,
            PlanError::DimMismatch {
                shape: 2,
                stencil: 1
            }
        );
        let err = Plan::new(Shape::d1(8)).star2(S2d5p::heat()).unwrap_err();
        assert_eq!(
            err,
            PlanError::DimMismatch {
                shape: 1,
                stencil: 2
            }
        );
    }

    #[test]
    fn builder_rejects_empty_shape() {
        let err = Plan::new(Shape::d1(0)).star1(S1d3p::heat()).unwrap_err();
        assert_eq!(err, PlanError::EmptyShape);
    }

    #[test]
    fn builder_rejects_dlt_under_tessellate() {
        let err = Plan::new(Shape::d1(1024))
            .method(Method::Dlt)
            .tiling(Tiling::Tessellate {
                w: [128, 0, 0],
                h: 8,
                threads: 2,
            })
            .star1(S1d3p::heat())
            .unwrap_err();
        assert!(
            matches!(err, PlanError::MethodTilingConflict { .. }),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_non_dlt_under_split() {
        let err = Plan::new(Shape::d1(1024))
            .method(Method::TransLayout2)
            .tiling(Tiling::Split {
                w: 64,
                h: 8,
                threads: 2,
            })
            .star1(S1d3p::heat())
            .unwrap_err();
        assert!(
            matches!(err, PlanError::MethodTilingConflict { .. }),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_oversized_chunk_height() {
        let err = Plan::new(Shape::d1(1024))
            .method(Method::TransLayout)
            .tiling(Tiling::Tessellate {
                w: [16, 0, 0],
                h: 1000,
                threads: 2,
            })
            .star1(S1d3p::heat())
            .unwrap_err();
        assert!(matches!(err, PlanError::BadTiling(_)), "{err}");
    }

    #[test]
    fn errors_display_something_useful() {
        let e = PlanError::BadTiling("w too small".into());
        assert!(e.to_string().contains("w too small"));
        assert!(PlanError::EmptyShape.to_string().contains("empty"));
    }
}
