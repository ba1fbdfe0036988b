//! Runtime stencil descriptions: [`StencilSpec`].
//!
//! The typed stencil traits ([`Star1`] … [`Box3`]) bake the radius
//! into the type so
//! kernels monomorphize their inner loops — the right call for the hot
//! path, but it forces every caller that picks a stencil *at runtime*
//! (a CLI flag, a config file, a service request) to write a match over
//! concrete types. A `StencilSpec` is the same information as a plain
//! value: dimensionality, [`Star`](StencilShape::Star) or
//! [`Box`](StencilShape::Box) shape, radius (up to
//! [`StencilShape::max_radius`] — the limits the kernels really have),
//! and weights.
//!
//! Compile one against a shape with
//! [`Plan::stencil`](crate::exec::Plan::stencil) to get a
//! [`DynPlan`](crate::exec::DynPlan). The spec is re-attached to a
//! const-radius carrier type and boxed as a kernel object (the match at
//! the bottom of this file is the only place a family × radius pair
//! picks an instantiation), so the kernels that run are the same
//! monomorphized kernels a typed stencil gets and the results are
//! bit-identical.
//!
//! ```
//! use stencil_core::spec::StencilSpec;
//!
//! // The six paper stencils have named constructors and parse from
//! // their table-1 names:
//! let heat: StencilSpec = "2d5p".parse().unwrap();
//! assert_eq!(heat, StencilSpec::heat_2d5p());
//! assert_eq!((heat.ndim(), heat.radius(), heat.points()), (2, 1, 5));
//!
//! // Arbitrary weights work too; the radius is inferred and validated.
//! let custom = StencilSpec::star1(&[0.1, 0.2, 0.4, 0.2, 0.1]).unwrap();
//! assert_eq!(custom.radius(), 2);
//! assert_eq!(custom.to_string(), "1d5p");
//! ```

use stencil_simd::{Dtype, Elem};

use crate::exec::Boundary;
use crate::kernels::row::{BOX2_TAPS, BOX3_TAPS};
use crate::kernels::{self, Kernel};
use crate::stencil::{Box2, Box3, Star1, Star2, Star3, BOX2_MAX_R, BOX3_MAX_R, MAX_R};

/// Weight slots per axis in a packed spec carrier (`2·MAX_R + 1`).
const WSLOTS: usize = 2 * MAX_R + 1;

/// Whether a stencil reads only along the axes (star) or the full
/// `(2r+1)^ndim` neighbourhood (box).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum StencilShape {
    /// Axis-aligned neighbourhood: `2r` points per dimension plus the
    /// center.
    Star,
    /// Dense neighbourhood: every point with `|offset| ≤ r` in each
    /// dimension.
    Box,
}

impl StencilShape {
    /// Short lower-case label ("star" / "box").
    pub fn name(self) -> &'static str {
        match self {
            StencilShape::Star => "star",
            StencilShape::Box => "box",
        }
    }

    /// Largest radius the kernels of this family run in `ndim`
    /// dimensions: [`MAX_R`] for stars; box row kernels hold one splatted
    /// weight per tap, so they stop at [`BOX2_MAX_R`] / [`BOX3_MAX_R`].
    pub fn max_radius(self, ndim: usize) -> usize {
        match (self, ndim) {
            (StencilShape::Box, 2) => BOX2_MAX_R,
            (StencilShape::Box, 3) => BOX3_MAX_R,
            _ => MAX_R,
        }
    }
}

/// Why a [`StencilSpec`] could not be built (or parsed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The radius implied by the weights exceeds what the kernels run:
    /// [`MAX_R`] for any stencil, and the family's own
    /// [`StencilShape::max_radius`] below that.
    RadiusTooLarge {
        /// Implied radius.
        r: usize,
        /// The bound that was exceeded.
        max: usize,
    },
    /// A weight slice has a length no radius can explain.
    WeightLen {
        /// Which weight slice ("x", "y", "z", or "box").
        axis: &'static str,
        /// The length that was handed in.
        got: usize,
        /// What a valid length looks like.
        expected: &'static str,
    },
    /// Star axes disagree on the radius (e.g. `wx` says r = 1, `wy`
    /// says r = 2).
    AxisRadiusMismatch {
        /// Radius implied by the x-axis weights.
        x: usize,
        /// Radius implied by the offending other axis.
        other: usize,
    },
    /// A name passed to `FromStr` is not one of the six paper stencils.
    UnknownName(String),
    /// A boundary label (standalone or after `@` in a stencil name) is
    /// not one of `dirichlet[(v)]` / `periodic` / `reflect`.
    UnknownBoundary(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::RadiusTooLarge { r, max } => {
                write!(f, "stencil radius {r} exceeds the supported maximum {max}")
            }
            SpecError::WeightLen {
                axis,
                got,
                expected,
            } => write!(
                f,
                "{axis} weight slice has length {got}, expected {expected}"
            ),
            SpecError::AxisRadiusMismatch { x, other } => write!(
                f,
                "star axes disagree on the radius: x implies {x}, another axis implies {other}"
            ),
            SpecError::UnknownName(name) => write!(
                f,
                "unknown stencil '{name}' (expected one of {}, optionally \
                 with an '@<boundary>' suffix)",
                StencilSpec::NAMES.join(", ")
            ),
            SpecError::UnknownBoundary(label) => write!(
                f,
                "unknown boundary '{label}' (expected dirichlet, \
                 dirichlet(<value>), periodic, or reflect)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// A stencil described as data: dimensionality, shape, radius, weights.
///
/// Build one with the per-family constructors ([`StencilSpec::star1`] …
/// [`StencilSpec::box3`]), the named paper-stencil constructors
/// ([`StencilSpec::heat_1d3p`] …), or by parsing a paper name
/// (`"3d27p".parse()`). Hand it to
/// [`Plan::stencil`](crate::exec::Plan::stencil) to compile a
/// [`DynPlan`](crate::exec::DynPlan).
///
/// Weight conventions match the typed traits exactly: star specs carry
/// one `2r+1` slice per axis (index `r+o` for offset `o`; the y/z center
/// entries are ignored), box specs carry one row-major
/// `(2r+1)^ndim` slice (x fastest).
///
/// # Equality and hashing
///
/// `StencilSpec` is `Eq + Hash` so it can key a plan cache (see the
/// `stencil-server` crate). Weights — and the Dirichlet boundary value —
/// compare **bitwise** (`f64::to_bits`), not by float semantics: two
/// specs are equal exactly when they would compile byte-identical plans.
/// The differences from IEEE `==` are deliberate:
///
/// * a NaN weight equals itself, so a pathological spec still makes a
///   retrievable cache key instead of missing forever and poisoning the
///   cache with one dead entry per lookup;
/// * `-0.0` and `+0.0` weights are *different* keys (they are different
///   bit patterns splatted into the kernels), so they cannot silently
///   alias to one cached plan.
#[derive(Clone, Debug)]
pub struct StencilSpec {
    ndim: usize,
    shape: StencilShape,
    r: usize,
    /// Star: per-axis slices concatenated (x, then y, then z), each
    /// `2r+1` long. Box: the full row-major neighbourhood.
    w: Vec<f64>,
    /// The boundary condition the workload asks for (default
    /// `Dirichlet(0.0)`); see [`Boundary`] and [`StencilSpec::with_boundary`].
    boundary: Boundary,
    /// The element type the grid carries (default [`Dtype::F64`]); see
    /// [`StencilSpec::with_dtype`]. Weights always stay `f64` in the
    /// spec — they are rounded to the element type exactly once, when a
    /// kernel splats them into vector registers.
    dtype: Dtype,
}

/// Infer the radius from a per-axis weight slice of length `2r+1`.
fn star_radius(axis: &'static str, w: &[f64]) -> Result<usize, SpecError> {
    if w.len() < 3 || w.len().is_multiple_of(2) {
        return Err(SpecError::WeightLen {
            axis,
            got: w.len(),
            expected: "an odd length ≥ 3 (2r+1)",
        });
    }
    let r = (w.len() - 1) / 2;
    if r > MAX_R {
        return Err(SpecError::RadiusTooLarge { r, max: MAX_R });
    }
    Ok(r)
}

/// Infer the radius from a box weight slice of length `(2r+1)^ndim`:
/// a length no radius explains is a [`SpecError::WeightLen`], a radius
/// past [`MAX_R`] or past the box kernels' own limit a
/// [`SpecError::RadiusTooLarge`] naming the bound it broke.
fn box_radius(w: &[f64], ndim: usize) -> Result<usize, SpecError> {
    let r = (1..)
        .find(|r| (2 * r + 1usize).pow(ndim as u32) >= w.len())
        .expect("unbounded search");
    if (2 * r + 1).pow(ndim as u32) != w.len() {
        return Err(SpecError::WeightLen {
            axis: "box",
            got: w.len(),
            expected: if ndim == 2 {
                "(2r+1)² for some r ≥ 1"
            } else {
                "(2r+1)³ for some r ≥ 1"
            },
        });
    }
    for max in [MAX_R, StencilShape::Box.max_radius(ndim)] {
        if r > max {
            return Err(SpecError::RadiusTooLarge { r, max });
        }
    }
    Ok(r)
}

impl StencilSpec {
    /// The six paper stencils (Table 1), parseable via `FromStr`.
    pub const NAMES: [&'static str; 6] = ["1d3p", "1d5p", "2d5p", "2d9p", "3d7p", "3d27p"];

    /// 1D star stencil from weights of length `2r+1`.
    pub fn star1(w: &[f64]) -> Result<StencilSpec, SpecError> {
        let r = star_radius("x", w)?;
        Ok(StencilSpec {
            ndim: 1,
            shape: StencilShape::Star,
            r,
            w: w.to_vec(),
            boundary: Boundary::default(),
            dtype: Dtype::default(),
        })
    }

    /// 2D star stencil from per-axis weights (each `2r+1` long; the
    /// center entry of `wy` is ignored).
    pub fn star2(wx: &[f64], wy: &[f64]) -> Result<StencilSpec, SpecError> {
        let r = star_radius("x", wx)?;
        let ry = star_radius("y", wy)?;
        if ry != r {
            return Err(SpecError::AxisRadiusMismatch { x: r, other: ry });
        }
        let mut w = wx.to_vec();
        w.extend_from_slice(wy);
        Ok(StencilSpec {
            ndim: 2,
            shape: StencilShape::Star,
            r,
            w,
            boundary: Boundary::default(),
            dtype: Dtype::default(),
        })
    }

    /// 3D star stencil from per-axis weights (each `2r+1` long; the
    /// center entries of `wy`/`wz` are ignored).
    pub fn star3(wx: &[f64], wy: &[f64], wz: &[f64]) -> Result<StencilSpec, SpecError> {
        let r = star_radius("x", wx)?;
        for other in [star_radius("y", wy)?, star_radius("z", wz)?] {
            if other != r {
                return Err(SpecError::AxisRadiusMismatch { x: r, other });
            }
        }
        let mut w = wx.to_vec();
        w.extend_from_slice(wy);
        w.extend_from_slice(wz);
        Ok(StencilSpec {
            ndim: 3,
            shape: StencilShape::Star,
            r,
            w,
            boundary: Boundary::default(),
            dtype: Dtype::default(),
        })
    }

    /// 2D box stencil from row-major weights of length `(2r+1)²`.
    pub fn box2(w: &[f64]) -> Result<StencilSpec, SpecError> {
        let r = box_radius(w, 2)?;
        Ok(StencilSpec {
            ndim: 2,
            shape: StencilShape::Box,
            r,
            w: w.to_vec(),
            boundary: Boundary::default(),
            dtype: Dtype::default(),
        })
    }

    /// 3D box stencil from row-major weights of length `(2r+1)³`
    /// (`dz` outer, `dy` middle, `dx` inner).
    pub fn box3(w: &[f64]) -> Result<StencilSpec, SpecError> {
        let r = box_radius(w, 3)?;
        Ok(StencilSpec {
            ndim: 3,
            shape: StencilShape::Box,
            r,
            w: w.to_vec(),
            boundary: Boundary::default(),
            dtype: Dtype::default(),
        })
    }

    /// The paper's 1D 3-point heat stencil
    /// ([`S1d3p::heat`](crate::stencil::S1d3p::heat)).
    pub fn heat_1d3p() -> StencilSpec {
        Self::star1(crate::stencil::S1d3p::heat().w()).expect("paper stencil is valid")
    }

    /// The paper's 1D 5-point smoothing stencil
    /// ([`S1d5p::heat`](crate::stencil::S1d5p::heat)).
    pub fn heat_1d5p() -> StencilSpec {
        Self::star1(crate::stencil::S1d5p::heat().w()).expect("paper stencil is valid")
    }

    /// The paper's 2D 5-point heat stencil
    /// ([`S2d5p::heat`](crate::stencil::S2d5p::heat)).
    pub fn heat_2d5p() -> StencilSpec {
        let s = crate::stencil::S2d5p::heat();
        Self::star2(s.wx(), s.wy()).expect("paper stencil is valid")
    }

    /// The paper's 2D 9-point box blur
    /// ([`S2d9p::blur`](crate::stencil::S2d9p::blur)).
    pub fn blur_2d9p() -> StencilSpec {
        Self::box2(crate::stencil::S2d9p::blur().w()).expect("paper stencil is valid")
    }

    /// The paper's 3D 7-point heat stencil
    /// ([`S3d7p::heat`](crate::stencil::S3d7p::heat)).
    pub fn heat_3d7p() -> StencilSpec {
        let s = crate::stencil::S3d7p::heat();
        Self::star3(s.wx(), s.wy(), s.wz()).expect("paper stencil is valid")
    }

    /// The paper's 3D 27-point box blur
    /// ([`S3d27p::blur`](crate::stencil::S3d27p::blur)).
    pub fn blur_3d27p() -> StencilSpec {
        Self::box3(crate::stencil::S3d27p::blur().w()).expect("paper stencil is valid")
    }

    /// The same stencil under a different [`Boundary`] condition.
    ///
    /// The boundary rides along into
    /// [`Plan::stencil`](crate::exec::Plan::stencil) (an explicit
    /// [`Plan::boundary`](crate::exec::Plan::boundary) knob overrides
    /// it) and is part of the printed name:
    ///
    /// ```
    /// use stencil_core::exec::Boundary;
    /// use stencil_core::spec::StencilSpec;
    ///
    /// let spec = StencilSpec::heat_2d5p().with_boundary(Boundary::Periodic);
    /// assert_eq!(spec.to_string(), "2d5p@periodic");
    /// assert_eq!("2d5p@periodic".parse::<StencilSpec>().unwrap(), spec);
    /// ```
    pub fn with_boundary(mut self, boundary: Boundary) -> StencilSpec {
        self.boundary = boundary;
        self
    }

    /// The boundary condition this spec asks for (default
    /// `Dirichlet(0.0)`).
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// The same stencil over a different element type.
    ///
    /// The dtype rides along into
    /// [`Plan::stencil`](crate::exec::Plan::stencil) — an f32 spec
    /// compiles to a plan whose grids, layouts, and kernels all carry
    /// `f32` at twice the SIMD lane width — and is part of the printed
    /// name, composing with the boundary suffix:
    ///
    /// ```
    /// use stencil_core::spec::StencilSpec;
    /// use stencil_simd::Dtype;
    ///
    /// let spec = StencilSpec::heat_2d5p().with_dtype(Dtype::F32);
    /// assert_eq!(spec.to_string(), "2d5p@f32");
    /// assert_eq!("2d5p@f32".parse::<StencilSpec>().unwrap(), spec);
    /// // Suffixes compose in either order.
    /// let both: StencilSpec = "2d5p@periodic@f32".parse().unwrap();
    /// assert_eq!("2d5p@f32@periodic".parse::<StencilSpec>().unwrap(), both);
    /// ```
    pub fn with_dtype(mut self, dtype: Dtype) -> StencilSpec {
        self.dtype = dtype;
        self
    }

    /// The element type this spec asks for (default [`Dtype::F64`]).
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Number of spatial dimensions (1–3).
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Star or box neighbourhood.
    pub fn shape(&self) -> StencilShape {
        self.shape
    }

    /// Stencil radius (1 ≤ r ≤ [`MAX_R`]).
    pub fn radius(&self) -> usize {
        self.r
    }

    /// Points read per updated cell (`2r·ndim + 1` for star,
    /// `(2r+1)^ndim` for box) — the "P" in the paper's names.
    pub fn points(&self) -> usize {
        match self.shape {
            StencilShape::Star => 2 * self.r * self.ndim + 1,
            StencilShape::Box => (2 * self.r + 1).pow(self.ndim as u32),
        }
    }

    /// Floating-point operations per updated point (fma = 2 flops),
    /// matching the typed traits' accounting.
    pub fn flops_per_point(&self) -> usize {
        2 * self.points() - 1
    }

    /// Per-axis weight slice (`axis` 0 = x, 1 = y, 2 = z) for star
    /// specs; `None` for box specs or axes past `ndim`.
    pub fn axis_weights(&self, axis: usize) -> Option<&[f64]> {
        if self.shape != StencilShape::Star || axis >= self.ndim {
            return None;
        }
        let n = 2 * self.r + 1;
        Some(&self.w[axis * n..(axis + 1) * n])
    }

    /// Row-major neighbourhood weights for box specs; `None` for star
    /// specs.
    pub fn box_weights(&self) -> Option<&[f64]> {
        (self.shape == StencilShape::Box).then_some(&self.w[..])
    }

    /// Pack axis `axis`'s weights into a fixed `2·MAX_R+1` carrier
    /// array (entries past `2r+1` stay zero).
    pub(crate) fn packed_axis(&self, axis: usize) -> [f64; WSLOTS] {
        let mut out = [0.0; WSLOTS];
        let w = self.axis_weights(axis).expect("star spec with this axis");
        out[..w.len()].copy_from_slice(w);
        out
    }
}

impl std::fmt::Display for StencilSpec {
    /// The paper-style name `<ndim>d<points>p` (e.g. "2d9p"), with an
    /// `@<boundary>` suffix when the boundary is not the default
    /// `Dirichlet(0.0)` (e.g. "2d9p@reflect") and an `@f32` suffix when
    /// the element type is not `f64` (e.g. "2d9p@reflect@f32"). For the
    /// six paper stencils this round-trips through `FromStr`; other
    /// geometries print the same scheme ("1d9p", "3d125p", …).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}d{}p", self.ndim, self.points())?;
        if self.boundary != Boundary::default() {
            write!(f, "@{}", self.boundary)?;
        }
        if self.dtype != Dtype::default() {
            write!(f, "@{}", self.dtype)?;
        }
        Ok(())
    }
}

/// The [`Boundary`] reduced to a hash/equality key: discriminant plus the
/// Dirichlet value's bit pattern (`0` for the refreshed modes). Bitwise so
/// `Dirichlet(-0.0)` and `Dirichlet(0.0)` stay distinct cache keys and
/// `Dirichlet(NaN)` equals itself (see the [`StencilSpec`] docs).
fn boundary_bits(b: Boundary) -> (u8, u64) {
    match b {
        Boundary::Dirichlet(v) => (0, v.to_bits()),
        Boundary::Periodic => (1, 0),
        Boundary::Reflect => (2, 0),
    }
}

impl PartialEq for StencilSpec {
    fn eq(&self, other: &StencilSpec) -> bool {
        self.ndim == other.ndim
            && self.shape == other.shape
            && self.r == other.r
            && self.dtype == other.dtype
            && boundary_bits(self.boundary) == boundary_bits(other.boundary)
            && self.w.len() == other.w.len()
            && self
                .w
                .iter()
                .zip(&other.w)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

// Lawful because the bitwise comparison above is reflexive even for NaN
// weights (same bits ⇒ equal), unlike IEEE `==`.
impl Eq for StencilSpec {}

impl std::hash::Hash for StencilSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ndim.hash(state);
        self.shape.hash(state);
        self.r.hash(state);
        self.dtype.hash(state);
        boundary_bits(self.boundary).hash(state);
        self.w.len().hash(state);
        for w in &self.w {
            w.to_bits().hash(state);
        }
    }
}

impl std::str::FromStr for StencilSpec {
    type Err = SpecError;

    /// Parse one of the six paper-stencil names (see
    /// [`StencilSpec::NAMES`]), yielding that stencil with the paper's
    /// weights, optionally suffixed with `@<boundary>` (e.g.
    /// `"3d7p@periodic"` — see [`Boundary`]) and/or `@<dtype>` (e.g.
    /// `"3d7p@f32"`, `"3d7p@periodic@f32"`), in either order.
    fn from_str(s: &str) -> Result<StencilSpec, SpecError> {
        let mut parts = s.split('@');
        let name = parts.next().unwrap_or("");
        let mut boundary = Boundary::default();
        let mut dtype = Dtype::default();
        for label in parts {
            if let Ok(d) = label.parse::<Dtype>() {
                dtype = d;
            } else {
                boundary = label.parse::<Boundary>()?;
            }
        }
        let spec = match name {
            "1d3p" => Self::heat_1d3p(),
            "1d5p" => Self::heat_1d5p(),
            "2d5p" => Self::heat_2d5p(),
            "2d9p" => Self::blur_2d9p(),
            "3d7p" => Self::heat_3d7p(),
            "3d27p" => Self::blur_3d27p(),
            other => return Err(SpecError::UnknownName(other.to_string())),
        };
        Ok(spec.with_boundary(boundary).with_dtype(dtype))
    }
}

// ---------------------------------------------------------------------------
// Const-radius carriers: a validated spec re-attached to the typed traits
// so it runs the exact same monomorphized kernels as a typed stencil.
// ---------------------------------------------------------------------------

/// Runtime star-1D weights behind a const radius.
#[derive(Copy, Clone, Debug)]
pub(crate) struct DynStar1<const R: usize> {
    w: [f64; WSLOTS],
}

impl<const R: usize> DynStar1<R> {
    pub(crate) fn new(spec: &StencilSpec) -> Self {
        debug_assert_eq!(spec.radius(), R);
        DynStar1 {
            w: spec.packed_axis(0),
        }
    }
}

impl<const R: usize> Star1 for DynStar1<R> {
    const R: usize = R;
    const NAME: &'static str = "dyn-star1";
    #[inline(always)]
    fn w(&self) -> &[f64] {
        &self.w[..2 * R + 1]
    }
}

/// Runtime star-2D weights behind a const radius.
#[derive(Copy, Clone, Debug)]
pub(crate) struct DynStar2<const R: usize> {
    wx: [f64; WSLOTS],
    wy: [f64; WSLOTS],
}

impl<const R: usize> DynStar2<R> {
    pub(crate) fn new(spec: &StencilSpec) -> Self {
        debug_assert_eq!(spec.radius(), R);
        DynStar2 {
            wx: spec.packed_axis(0),
            wy: spec.packed_axis(1),
        }
    }
}

impl<const R: usize> Star2 for DynStar2<R> {
    const R: usize = R;
    const NAME: &'static str = "dyn-star2";
    #[inline(always)]
    fn wx(&self) -> &[f64] {
        &self.wx[..2 * R + 1]
    }
    #[inline(always)]
    fn wy(&self) -> &[f64] {
        &self.wy[..2 * R + 1]
    }
}

/// Runtime star-3D weights behind a const radius.
#[derive(Copy, Clone, Debug)]
pub(crate) struct DynStar3<const R: usize> {
    wx: [f64; WSLOTS],
    wy: [f64; WSLOTS],
    wz: [f64; WSLOTS],
}

impl<const R: usize> DynStar3<R> {
    pub(crate) fn new(spec: &StencilSpec) -> Self {
        debug_assert_eq!(spec.radius(), R);
        DynStar3 {
            wx: spec.packed_axis(0),
            wy: spec.packed_axis(1),
            wz: spec.packed_axis(2),
        }
    }
}

impl<const R: usize> Star3 for DynStar3<R> {
    const R: usize = R;
    const NAME: &'static str = "dyn-star3";
    #[inline(always)]
    fn wx(&self) -> &[f64] {
        &self.wx[..2 * R + 1]
    }
    #[inline(always)]
    fn wy(&self) -> &[f64] {
        &self.wy[..2 * R + 1]
    }
    #[inline(always)]
    fn wz(&self) -> &[f64] {
        &self.wz[..2 * R + 1]
    }
}

/// Runtime box-2D weights behind a const radius.
#[derive(Copy, Clone, Debug)]
pub(crate) struct DynBox2<const R: usize> {
    w: [f64; BOX2_TAPS],
}

impl<const R: usize> DynBox2<R> {
    pub(crate) fn new(spec: &StencilSpec) -> Self {
        debug_assert_eq!(spec.radius(), R);
        let src = spec.box_weights().expect("box spec");
        let mut w = [0.0; BOX2_TAPS];
        w[..src.len()].copy_from_slice(src);
        DynBox2 { w }
    }
}

impl<const R: usize> Box2 for DynBox2<R> {
    const R: usize = R;
    const NAME: &'static str = "dyn-box2";
    #[inline(always)]
    fn w(&self) -> &[f64] {
        &self.w[..(2 * R + 1) * (2 * R + 1)]
    }
}

/// Runtime box-3D weights behind a const radius.
#[derive(Copy, Clone, Debug)]
pub(crate) struct DynBox3<const R: usize> {
    w: [f64; BOX3_TAPS],
}

impl<const R: usize> DynBox3<R> {
    pub(crate) fn new(spec: &StencilSpec) -> Self {
        debug_assert_eq!(spec.radius(), R);
        let src = spec.box_weights().expect("box spec");
        let mut w = [0.0; BOX3_TAPS];
        w[..src.len()].copy_from_slice(src);
        DynBox3 { w }
    }
}

impl<const R: usize> Box3 for DynBox3<R> {
    const R: usize = R;
    const NAME: &'static str = "dyn-box3";
    #[inline(always)]
    fn w(&self) -> &[f64] {
        &self.w[..(2 * R + 1) * (2 * R + 1) * (2 * R + 1)]
    }
}

// ---------------------------------------------------------------------------
// Spec → kernel object: the one place a (family, radius) pair picks a
// monomorphized row kernel. Everything above the returned object is
// generic over the element type only.
// ---------------------------------------------------------------------------

impl StencilSpec {
    /// The radius no arm below covers, as the typed error the
    /// constructors would have raised.
    fn unsupported(&self) -> SpecError {
        SpecError::RadiusTooLarge {
            r: self.r,
            max: self.shape.max_radius(self.ndim),
        }
    }

    /// Compile this spec's kernel object over element type `T`.
    pub(crate) fn kernel<T: Elem>(&self) -> Result<Box<dyn Kernel<T>>, SpecError> {
        use StencilShape::{Box as BoxS, Star};
        match (self.ndim, self.shape, self.r) {
            (1, _, 1) => kernels::star1(DynStar1::<1>::new(self)),
            (1, _, 2) => kernels::star1(DynStar1::<2>::new(self)),
            (1, _, 3) => kernels::star1(DynStar1::<3>::new(self)),
            (1, _, 4) => kernels::star1(DynStar1::<4>::new(self)),
            (2, Star, 1) => kernels::star2(DynStar2::<1>::new(self)),
            (2, Star, 2) => kernels::star2(DynStar2::<2>::new(self)),
            (2, Star, 3) => kernels::star2(DynStar2::<3>::new(self)),
            (2, Star, 4) => kernels::star2(DynStar2::<4>::new(self)),
            (2, BoxS, 1) => kernels::box2(DynBox2::<1>::new(self)),
            (2, BoxS, 2) => kernels::box2(DynBox2::<2>::new(self)),
            (3, Star, 1) => kernels::star3(DynStar3::<1>::new(self)),
            (3, Star, 2) => kernels::star3(DynStar3::<2>::new(self)),
            (3, Star, 3) => kernels::star3(DynStar3::<3>::new(self)),
            (3, Star, 4) => kernels::star3(DynStar3::<4>::new(self)),
            (3, BoxS, 1) => kernels::box3(DynBox3::<1>::new(self)),
            _ => Err(self.unsupported()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names_round_trip() {
        for name in StencilSpec::NAMES {
            let spec: StencilSpec = name.parse().unwrap();
            assert_eq!(spec.to_string(), name, "{name}");
        }
        assert!(matches!(
            "4d3p".parse::<StencilSpec>(),
            Err(SpecError::UnknownName(_))
        ));
    }

    #[test]
    fn boundary_suffix_round_trips() {
        let spec: StencilSpec = "3d7p@periodic".parse().unwrap();
        assert_eq!(spec.boundary(), Boundary::Periodic);
        assert_eq!(spec.to_string(), "3d7p@periodic");
        let spec: StencilSpec = "2d9p@dirichlet(2.5)".parse().unwrap();
        assert_eq!(spec.boundary(), Boundary::Dirichlet(2.5));
        assert_eq!(spec.to_string(), "2d9p@dirichlet(2.5)");
        // An explicit default boundary parses but prints without the
        // suffix — the bare paper names keep their exact round-trip.
        let spec: StencilSpec = "1d3p@dirichlet".parse().unwrap();
        assert_eq!(spec, StencilSpec::heat_1d3p());
        assert_eq!(spec.to_string(), "1d3p");
        assert!(matches!(
            "2d5p@torus".parse::<StencilSpec>(),
            Err(SpecError::UnknownBoundary(_))
        ));
        assert!(matches!(
            "4d4p@periodic".parse::<StencilSpec>(),
            Err(SpecError::UnknownName(_))
        ));
        let e = "2d5p@torus".parse::<StencilSpec>().unwrap_err();
        assert!(e.to_string().contains("torus"), "{e}");
    }

    #[test]
    fn dtype_suffix_round_trips() {
        let spec: StencilSpec = "2d5p@f32".parse().unwrap();
        assert_eq!(spec.dtype(), Dtype::F32);
        assert_eq!(spec.boundary(), Boundary::default());
        assert_eq!(spec.to_string(), "2d5p@f32");
        // Composes with the boundary suffix, in either order; printing
        // normalizes to boundary-then-dtype.
        for name in ["3d7p@periodic@f32", "3d7p@f32@periodic"] {
            let spec: StencilSpec = name.parse().unwrap();
            assert_eq!(spec.dtype(), Dtype::F32);
            assert_eq!(spec.boundary(), Boundary::Periodic);
            assert_eq!(spec.to_string(), "3d7p@periodic@f32", "{name}");
        }
        // An explicit default dtype parses but prints without the suffix.
        let spec: StencilSpec = "1d3p@f64".parse().unwrap();
        assert_eq!(spec, StencilSpec::heat_1d3p());
        assert_eq!(spec.to_string(), "1d3p");
        assert!(matches!(
            "2d5p@f16".parse::<StencilSpec>(),
            Err(SpecError::UnknownBoundary(_))
        ));
    }

    #[test]
    fn paper_geometry() {
        let cases = [
            ("1d3p", 1, 1, StencilShape::Star, 3),
            ("1d5p", 1, 2, StencilShape::Star, 5),
            ("2d5p", 2, 1, StencilShape::Star, 5),
            ("2d9p", 2, 1, StencilShape::Box, 9),
            ("3d7p", 3, 1, StencilShape::Star, 7),
            ("3d27p", 3, 1, StencilShape::Box, 27),
        ];
        for (name, ndim, r, shape, points) in cases {
            let s: StencilSpec = name.parse().unwrap();
            assert_eq!(
                (s.ndim(), s.radius(), s.shape(), s.points()),
                (ndim, r, shape, points),
                "{name}"
            );
        }
    }

    #[test]
    fn flops_match_typed_traits() {
        use crate::stencil::*;
        assert_eq!(
            StencilSpec::heat_1d3p().flops_per_point(),
            S1d3p::flops_per_point()
        );
        assert_eq!(
            StencilSpec::heat_1d5p().flops_per_point(),
            S1d5p::flops_per_point()
        );
        assert_eq!(
            StencilSpec::heat_2d5p().flops_per_point(),
            S2d5p::flops_per_point()
        );
        assert_eq!(
            StencilSpec::blur_2d9p().flops_per_point(),
            S2d9p::flops_per_point()
        );
        assert_eq!(
            StencilSpec::heat_3d7p().flops_per_point(),
            S3d7p::flops_per_point()
        );
        assert_eq!(
            StencilSpec::blur_3d27p().flops_per_point(),
            S3d27p::flops_per_point()
        );
    }

    #[test]
    fn validation_rejects_bad_weights() {
        assert!(matches!(
            StencilSpec::star1(&[0.5, 0.5]),
            Err(SpecError::WeightLen { axis: "x", .. })
        ));
        assert!(matches!(
            StencilSpec::star1(&[0.1; 11]),
            Err(SpecError::RadiusTooLarge { r: 5, max: MAX_R })
        ));
        assert!(matches!(
            StencilSpec::star2(&[0.1; 3], &[0.1; 5]),
            Err(SpecError::AxisRadiusMismatch { x: 1, other: 2 })
        ));
        assert!(matches!(
            StencilSpec::box2(&[0.1; 10]),
            Err(SpecError::WeightLen { axis: "box", .. })
        ));
        assert!(matches!(
            StencilSpec::box2(&[0.1; 121]), // (2·5+1)²
            Err(SpecError::RadiusTooLarge { r: 5, max: MAX_R })
        ));
        assert!(matches!(
            StencilSpec::box3(&[0.1; 28]),
            Err(SpecError::WeightLen { axis: "box", .. })
        ));
        // Errors display something useful.
        let e = StencilSpec::star1(&[0.1; 11]).unwrap_err();
        assert!(e.to_string().contains("radius 5"));
    }

    #[test]
    fn hash_eq_round_trips_through_a_map() {
        use std::collections::HashMap;
        // Every paper name (plus boundary/dtype variants) must land on
        // and retrieve from the same map slot — the plan-cache contract.
        let mut map: HashMap<StencilSpec, usize> = HashMap::new();
        let variants: Vec<StencilSpec> = StencilSpec::NAMES
            .iter()
            .flat_map(|name| {
                ["", "@periodic", "@reflect", "@f32", "@periodic@f32"]
                    .into_iter()
                    .map(move |suffix| format!("{name}{suffix}").parse().unwrap())
            })
            .collect();
        for (i, spec) in variants.iter().enumerate() {
            assert_eq!(map.insert(spec.clone(), i), None, "{spec} collided");
        }
        assert_eq!(map.len(), variants.len());
        for (i, spec) in variants.iter().enumerate() {
            // Re-parse so the lookup key is a fresh value, not the clone.
            let reparsed: StencilSpec = spec.to_string().parse().unwrap();
            assert_eq!(map.get(&reparsed), Some(&i), "{spec}");
        }
    }

    #[test]
    fn weight_equality_is_bitwise() {
        // NaN weights: IEEE == would make the spec unequal to itself and
        // unfindable in a cache; bitwise equality keeps it retrievable.
        let nan = StencilSpec::star1(&[0.25, f64::NAN, 0.25]).unwrap();
        assert_eq!(nan, nan.clone());
        let mut set = std::collections::HashSet::new();
        set.insert(nan.clone());
        assert!(set.contains(&nan));

        // -0.0 vs 0.0: same under IEEE ==, different bit patterns — and
        // therefore different cache keys (kernels splat the raw bits).
        let pos = StencilSpec::star1(&[0.25, 0.5, 0.0]).unwrap();
        let neg = StencilSpec::star1(&[0.25, 0.5, -0.0]).unwrap();
        assert_ne!(pos, neg);
        set.insert(pos.clone());
        assert!(!set.contains(&neg));

        // Same rule for the Dirichlet boundary value.
        let d0 = StencilSpec::heat_1d3p().with_boundary(Boundary::Dirichlet(0.0));
        let dneg0 = StencilSpec::heat_1d3p().with_boundary(Boundary::Dirichlet(-0.0));
        assert_ne!(d0, dneg0);
        assert_eq!(d0, StencilSpec::heat_1d3p());

        // Hash must agree with Eq on equal values.
        fn hash_of(s: &StencilSpec) -> u64 {
            use std::hash::{BuildHasher, RandomState};
            use std::sync::OnceLock;
            static STATE: OnceLock<RandomState> = OnceLock::new();
            STATE.get_or_init(RandomState::new).hash_one(s)
        }
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
        assert_eq!(hash_of(&d0), hash_of(&StencilSpec::heat_1d3p()));
    }

    #[test]
    fn weights_survive_the_round_trip() {
        let spec = StencilSpec::star2(&[1.0, 2.0, 3.0], &[4.0, 0.0, 5.0]).unwrap();
        assert_eq!(spec.axis_weights(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(spec.axis_weights(1).unwrap(), &[4.0, 0.0, 5.0]);
        assert_eq!(spec.axis_weights(2), None);
        assert_eq!(spec.box_weights(), None);

        let w: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let spec = StencilSpec::box2(&w).unwrap();
        assert_eq!(spec.box_weights().unwrap(), &w[..]);
        assert_eq!(spec.axis_weights(0), None);
    }
}
