//! Aligned grid containers with constant (Dirichlet) halos.
//!
//! Geometry conventions shared by every kernel in this workspace:
//!
//! * the **interior** of each row starts `T::PAD` elements into the
//!   row — 8 doubles or 16 floats, i.e. 64 bytes either way, so it sits
//!   on a 64-byte boundary — and row strides are multiples of `T::PAD`,
//!   so every vector-set load/store is aligned for both AVX2 and
//!   AVX-512 at both element widths;
//! * halo cells of width `r` sit immediately left/right of the interior
//!   (and as whole rows/planes above/below in 2D/3D); they are *never
//!   updated* — they carry the boundary condition, which is what makes
//!   temporal tiling and the k=2 in-register pipeline well defined;
//! * kernels receive raw pointers to the interior origin and may index
//!   negatively into the halo.
//!
//! # One grid type
//!
//! There is one container, [`Grid<T, D>`]: an aligned buffer plus the
//! [`Geo`] it implies — extents `[nx, ny, nz]` in which **an absent axis
//! is an axis of extent 1**, row/plane strides, and the halo width. All
//! that does not depend on the rank (extents, strides, halo, pointers,
//! copies, interior rows, `to_vec`) is written once over that `Geo`; the
//! const parameter `D` only picks the constructor argument lists and the
//! arity of `get`/`set`. [`Grid1`], [`Grid2`] and [`Grid3`] name the
//! three ranks. A plan never sees the rank: it steps a [`GridMut`] — the
//! buffer and its `Geo` — which every `&mut Grid<T, D>` converts into.
//!
//! The containers are generic over the element ([`Elem`]) with `f64` as
//! the default parameter of the rank aliases; `Grid2<f32>` etc. carry
//! single precision at twice the SIMD lane width.

use stencil_simd::{AlignedBuf, Dtype, Elem};

use crate::exec::{Boundary, Shape};
use crate::kernels::Geo;
use crate::spec::StencilSpec;

/// Doubles of padding on each side of a row interior **in the f64
/// grids** (64 bytes). Element-generic code must use [`Elem::PAD`],
/// which is this constant's per-element generalization (8 f64 / 16 f32
/// — always one full 64-byte line, and ≥ [`crate::stencil::MAX_R`]).
pub const HALO_PAD: usize = 8;

/// A grid of rank `D` (1–3): an interior of `nz × ny × nx` cells,
/// row-major with x fastest, inside constant halos. Its buffer is
/// exactly as long as its [`Geo`] implies.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid<T: Elem, const D: usize> {
    buf: AlignedBuf<T>,
    geo: Geo,
}

/// 1D grid: `n` interior points plus constant halos.
pub type Grid1<T = f64> = Grid<T, 1>;
/// 2D grid: `ny × nx` interior, row-major, with halo rows and columns.
pub type Grid2<T = f64> = Grid<T, 2>;
/// 3D grid: `nz × ny × nx` interior with halo planes/rows/columns.
pub type Grid3<T = f64> = Grid<T, 3>;

impl<T: Elem, const D: usize> Grid<T, D> {
    /// A grid of interior extents `n` (1 past rank `D`) with `r` halo
    /// rows/planes per side on its real y/z axes — the x halo is always
    /// the row pad — and every cell set to `fill`.
    fn shaped(n: [usize; 3], r: usize, fill: T) -> Self {
        assert!(!n.contains(&0), "empty interior");
        let geo = Geo::packed::<T>(D, n, r);
        let mut buf = AlignedBuf::zeroed(geo.len::<T>());
        buf.fill(fill);
        Grid { buf, geo }
    }

    /// [`Grid::shaped`] with halo value `halo` and interior cell
    /// `(z, y, x)` set to `f(z, y, x)`, visited in row-major order.
    fn from_cells(
        n: [usize; 3],
        r: usize,
        halo: T,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut g = Self::shaped(n, r, halo);
        let (geo, o) = (g.geo, g.geo.origin::<T>() as isize);
        for (i, off) in geo.rows(false).enumerate() {
            let (z, y) = (i / n[1], i % n[1]);
            let row = &mut g.buf[(o + off) as usize..][..n[0]];
            for (x, c) in row.iter_mut().enumerate() {
                *c = f(z, y, x);
            }
        }
        g
    }

    /// The grid's geometry: extents, strides and halo width.
    pub fn geo(&self) -> Geo {
        self.geo
    }

    /// Interior width.
    pub fn nx(&self) -> usize {
        self.geo.n[0]
    }

    /// Interior height (1 in 1D).
    pub fn ny(&self) -> usize {
        self.geo.n[1]
    }

    /// Interior depth (1 below 3D).
    pub fn nz(&self) -> usize {
        self.geo.n[2]
    }

    /// Row stride in elements (a multiple of `T::PAD`; 0 in 1D, which
    /// has a single row).
    pub fn row_stride(&self) -> usize {
        self.geo.rs
    }

    /// Plane stride in elements (0 below 3D).
    pub fn plane_stride(&self) -> usize {
        self.geo.ps
    }

    /// Halo rows/planes per side along y and z (0 in 1D, whose only halo
    /// is the row pad).
    pub fn halo(&self) -> usize {
        self.geo.halo
    }

    /// Pointer to the interior origin (cell 0 along every axis); the row
    /// halo is readable at negative offsets down to `-T::PAD`.
    #[inline]
    pub fn ptr(&self) -> *const T {
        // SAFETY: the origin lies inside a buffer of `geo.len()` cells.
        unsafe { self.buf.as_ptr().add(self.geo.origin::<T>()) }
    }

    /// Mutable pointer to the interior origin.
    #[inline]
    pub fn ptr_mut(&mut self) -> *mut T {
        // SAFETY: as `ptr`.
        unsafe { self.buf.as_mut_ptr().add(self.geo.origin::<T>()) }
    }

    /// Overwrite every cell (halos included) with `src`'s, without
    /// reallocating. Panics if the geometries differ.
    pub fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.geo, src.geo, "Grid::copy_from geometry mismatch");
        self.buf.copy_from(&src.buf);
    }

    /// The whole buffer, halos included, laid out as [`Grid::geo`] says.
    pub(crate) fn buf(&self) -> &AlignedBuf<T> {
        &self.buf
    }

    /// The interior rows, z-major then y: one slice of `nx` cells each.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        let (o, nx) = (self.geo.origin::<T>() as isize, self.nx());
        self.geo
            .rows(false)
            .map(move |off| &self.buf[(o + off) as usize..][..nx])
    }

    /// The interior in row-major order (x fastest).
    pub fn to_vec(&self) -> Vec<T> {
        self.rows().flatten().copied().collect()
    }

    /// Buffer index of cell `[x, y, z]` (halo included; 0 along absent
    /// axes), bounds-checked per axis.
    fn idx(&self, at: [isize; 3]) -> usize {
        let g = &self.geo;
        let lead = [T::PAD, g.halo_on(1), g.halo_on(2)];
        let span = [g.row_len::<T>(), g.n[1] + 2 * lead[1], g.n[2] + 2 * lead[2]];
        // A coordinate below the halo wraps to a huge index and fails too.
        let c: [usize; 3] = std::array::from_fn(|a| (at[a] + lead[a] as isize) as usize);
        assert!((0..3).all(|a| c[a] < span[a]), "cell {at:?} out of range");
        c[0] + c[1] * g.rs + c[2] * g.ps
    }

    /// The same grid under the rank type `E` its geometry has.
    fn rank<const E: usize>(self) -> Grid<T, E> {
        debug_assert_eq!(self.geo.ndim, E);
        Grid {
            buf: self.buf,
            geo: self.geo,
        }
    }
}

impl<T: Elem> Grid<T, 1> {
    /// Create a grid with every cell (halo included) set to `fill`.
    ///
    /// # Panics
    /// If `n` is 0.
    pub fn filled(n: usize, fill: T) -> Self {
        Self::shaped([n, 1, 1], 0, fill)
    }

    /// Create a grid whose interior is `f(i)` and whose halo is `halo`.
    ///
    /// # Panics
    /// If `n` is 0.
    pub fn from_fn(n: usize, halo: T, mut f: impl FnMut(usize) -> T) -> Self {
        Self::from_cells([n, 1, 1], 0, halo, |_, _, x| f(x))
    }

    /// Interior length.
    pub fn n(&self) -> usize {
        self.nx()
    }

    /// Read cell `i`; `i` may range over `[-T::PAD, n + T::PAD)`.
    #[inline]
    pub fn get(&self, i: isize) -> T {
        self.buf[self.idx([i, 0, 0])]
    }

    /// Write cell `i` (same range as `get`).
    #[inline]
    pub fn set(&mut self, i: isize, v: T) {
        let k = self.idx([i, 0, 0]);
        self.buf[k] = v;
    }

    /// Interior as a slice.
    #[inline]
    pub fn interior(&self) -> &[T] {
        let o = self.geo.origin::<T>();
        &self.buf[o..o + self.n()]
    }
}

impl<T: Elem> Grid<T, 2> {
    /// Create with all cells (halos included) set to `fill`. `ry` is the
    /// number of halo rows kept above and below (pass the stencil radius).
    ///
    /// # Panics
    /// If an extent is 0.
    pub fn filled(nx: usize, ny: usize, ry: usize, fill: T) -> Self {
        Self::shaped([nx, ny, 1], ry, fill)
    }

    /// Create with interior `f(y, x)` and halo value `halo`.
    ///
    /// # Panics
    /// If an extent is 0.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        ry: usize,
        halo: T,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Self {
        Self::from_cells([nx, ny, 1], ry, halo, |_, y, x| f(y, x))
    }

    /// Read cell `(y, x)`; halo addressable with negative / overshooting
    /// indices.
    #[inline]
    pub fn get(&self, y: isize, x: isize) -> T {
        self.buf[self.idx([x, y, 0])]
    }

    /// Write cell `(y, x)`.
    #[inline]
    pub fn set(&mut self, y: isize, x: isize, v: T) {
        let k = self.idx([x, y, 0]);
        self.buf[k] = v;
    }

    /// Interior row `y` as a slice.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        let start = self.idx([0, y as isize, 0]);
        &self.buf[start..start + self.nx()]
    }
}

impl<T: Elem> Grid<T, 3> {
    /// Create with all cells (halos included) set to `fill`; `r` halo
    /// rows and planes per side.
    ///
    /// # Panics
    /// If an extent is 0.
    pub fn filled(nx: usize, ny: usize, nz: usize, r: usize, fill: T) -> Self {
        Self::shaped([nx, ny, nz], r, fill)
    }

    /// Create with interior `f(z, y, x)` and halo value `halo`.
    ///
    /// # Panics
    /// If an extent is 0.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        r: usize,
        halo: T,
        f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        Self::from_cells([nx, ny, nz], r, halo, f)
    }

    /// Read cell `(z, y, x)`; halo addressable.
    #[inline]
    pub fn get(&self, z: isize, y: isize, x: isize) -> T {
        self.buf[self.idx([x, y, z])]
    }

    /// Write cell `(z, y, x)`.
    #[inline]
    pub fn set(&mut self, z: isize, y: isize, x: isize, v: T) {
        let k = self.idx([x, y, z]);
        self.buf[k] = v;
    }
}

/// A mutable borrow of a grid of any rank: its cells and the [`Geo`]
/// that says where they are. This is all a compiled plan sees of a grid;
/// every `&mut Grid<T, D>` converts into one.
#[derive(Debug)]
pub struct GridMut<'a, T: Elem> {
    buf: &'a mut AlignedBuf<T>,
    geo: Geo,
}

impl<'a, T: Elem> GridMut<'a, T> {
    /// The borrowed grid's geometry.
    pub fn geo(&self) -> Geo {
        self.geo
    }

    /// The buffer and its geometry; the buffer is exactly `geo.len()`
    /// cells long.
    pub(crate) fn into_parts(self) -> (&'a mut AlignedBuf<T>, Geo) {
        (self.buf, self.geo)
    }
}

impl<'a, T: Elem, const D: usize> From<&'a mut Grid<T, D>> for GridMut<'a, T> {
    fn from(g: &'a mut Grid<T, D>) -> Self {
        GridMut {
            buf: &mut g.buf,
            geo: g.geo,
        }
    }
}

// ---------------------------------------------------------------------------
// AnyGrid: dimensionality (and element width) as data
// ---------------------------------------------------------------------------

/// Why an [`AnyGrid`] could not be constructed from runtime data.
#[derive(Clone, Debug, PartialEq)]
pub enum GridDataError {
    /// The data handed to [`AnyGrid::from_vec`] does not cover the
    /// shape's interior exactly.
    Len {
        /// Cells the shape's interior holds.
        expected: usize,
        /// Elements the vector actually carried.
        got: usize,
    },
    /// A shape extent is zero: there is no interior to hold.
    EmptyShape,
    /// The shape's dimensionality does not match the spec handed to
    /// [`AnyGrid::from_fn_spec`] / [`AnyGrid::from_vec_spec`].
    Ndim {
        /// Dimensions of the shape.
        shape: usize,
        /// Dimensions of the stencil spec.
        spec: usize,
    },
    /// The element type of the data does not match the spec's
    /// [`StencilSpec::dtype`] (e.g. `Vec<f64>` handed to
    /// [`AnyGrid::from_vec_spec`] for a `2d5p@f32` spec).
    Dtype {
        /// The element type the spec asks for.
        spec: Dtype,
        /// The element type the data carries.
        data: Dtype,
    },
    /// The shape is incompatible with the spec's boundary condition:
    /// the wrap/mirror halo folds of a non-Dirichlet [`Boundary`] need
    /// every interior extent ≥ the stencil radius.
    BoundaryExtent {
        /// The offending axis (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// That axis's interior extent.
        extent: usize,
        /// The stencil radius the boundary folds over.
        radius: usize,
        /// The requested boundary condition.
        boundary: Boundary,
    },
}

impl std::fmt::Display for GridDataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridDataError::Len { expected, got } => write!(
                f,
                "grid data length {got} does not match the shape's {expected} interior cells"
            ),
            GridDataError::EmptyShape => write!(f, "shape has an empty dimension"),
            GridDataError::Ndim { shape, spec } => {
                write!(f, "shape is {shape}D but the stencil spec is {spec}D")
            }
            GridDataError::Dtype { spec, data } => write!(
                f,
                "grid data is {data} but the stencil spec asks for {spec}"
            ),
            GridDataError::BoundaryExtent {
                axis,
                extent,
                radius,
                boundary,
            } => write!(
                f,
                "axis {axis} extent {extent} is smaller than the stencil radius {radius}, \
                 which the {boundary} boundary's halo folds require"
            ),
        }
    }
}

impl std::error::Error for GridDataError {}

/// A grid whose dimensionality **and element width** are runtime values
/// — the container side of the erased API (see
/// [`crate::exec::DynPlan`]).
///
/// Construction is shape-checked: [`AnyGrid::from_vec`] rejects data
/// that doesn't cover the interior, and the dimensionality always comes
/// from the [`Shape`], so a caller can go from "numbers at runtime" to a
/// running plan without naming `Grid1`/`Grid2`/`Grid3`:
///
/// ```
/// use stencil_core::exec::Shape;
/// use stencil_core::grid::AnyGrid;
///
/// let shape = Shape::d2(64, 32);
/// let g = AnyGrid::from_vec(shape, 1, 0.0, vec![1.0; 64 * 32]).unwrap();
/// assert_eq!(g.ndim(), 2);
/// assert_eq!(g.to_vec().len(), 64 * 32);
/// assert!(AnyGrid::from_vec(shape, 1, 0.0, vec![0.0; 7]).is_err());
/// ```
///
/// The spec-aware constructors honour the spec's
/// [`dtype`](StencilSpec::dtype): a `"2d5p@f32"` spec yields the
/// `*F32` variants, which [`crate::exec::DynPlan`] runs through the f32
/// kernels at twice the SIMD lane width. [`AnyGrid::to_vec`] widens f32
/// interiors to `f64` losslessly; [`AnyGrid::to_vec_f32`] hands back
/// the native single-precision data.
///
/// The typed grids convert in via `From`, and [`AnyGrid::as_grid2`]-style
/// accessors hand the typed view back for rendering or verification.
#[derive(Clone, Debug, PartialEq)]
pub enum AnyGrid {
    /// A 1D f64 grid.
    D1(Grid1),
    /// A 2D f64 grid.
    D2(Grid2),
    /// A 3D f64 grid.
    D3(Grid3),
    /// A 1D f32 grid.
    D1F32(Grid1<f32>),
    /// A 2D f32 grid.
    D2F32(Grid2<f32>),
    /// A 3D f32 grid.
    D3F32(Grid3<f32>),
}

impl AnyGrid {
    /// Create a grid of the given shape with every cell (halo included)
    /// set to `fill`. `halo_r` is the halo width in rows/planes kept for
    /// 2D/3D grids (pass the stencil radius; ignored for 1D, whose halo
    /// is always [`Elem::PAD`] wide).
    ///
    /// # Panics
    /// If an extent of `shape` is 0.
    pub fn filled(shape: Shape, halo_r: usize, fill: f64) -> AnyGrid {
        Self::from_fn(shape, halo_r, fill, |_, _, _| fill)
    }

    /// Create a grid with interior `f(z, y, x)` (unused coordinates are
    /// passed as 0) and halo value `halo`. See [`AnyGrid::filled`] for
    /// `halo_r`.
    ///
    /// # Panics
    /// If an extent of `shape` is 0.
    pub fn from_fn(
        shape: Shape,
        halo_r: usize,
        halo: f64,
        f: impl FnMut(usize, usize, usize) -> f64,
    ) -> AnyGrid {
        Self::build(shape, halo_r, halo, f).expect("AnyGrid::from_fn needs a non-empty shape")
    }

    /// f32 twin of [`AnyGrid::from_fn`]: same geometry rules, `*F32`
    /// variants out.
    ///
    /// # Panics
    /// If an extent of `shape` is 0.
    pub fn from_fn_f32(
        shape: Shape,
        halo_r: usize,
        halo: f32,
        f: impl FnMut(usize, usize, usize) -> f32,
    ) -> AnyGrid {
        Self::build(shape, halo_r, halo, f).expect("AnyGrid::from_fn_f32 needs a non-empty shape")
    }

    /// The one constructor path: a grid of `shape` with halo value `halo`
    /// and interior `f(z, y, x)`, or [`GridDataError::EmptyShape`] when
    /// an extent is 0.
    fn build<T: Elem>(
        shape: Shape,
        halo_r: usize,
        halo: T,
        f: impl FnMut(usize, usize, usize) -> T,
    ) -> Result<AnyGrid, GridDataError>
    where
        AnyGrid: From<Grid1<T>> + From<Grid2<T>> + From<Grid3<T>>,
    {
        let mut n = shape.dims();
        if n[..shape.ndim()].contains(&0) {
            return Err(GridDataError::EmptyShape);
        }
        n[shape.ndim()..].fill(1);
        Ok(match shape.ndim() {
            1 => Grid1::from_cells(n, halo_r, halo, f).into(),
            2 => Grid2::from_cells(n, halo_r, halo, f).into(),
            _ => Grid3::from_cells(n, halo_r, halo, f).into(),
        })
    }

    /// [`AnyGrid::build`] with the interior taken from `data` in
    /// row-major order, which must cover it exactly.
    fn from_data<T: Elem>(
        shape: Shape,
        halo_r: usize,
        halo: T,
        data: Vec<T>,
    ) -> Result<AnyGrid, GridDataError>
    where
        AnyGrid: From<Grid1<T>> + From<Grid2<T>> + From<Grid3<T>>,
    {
        let expected = shape.dims()[..shape.ndim()].iter().product();
        if data.len() != expected {
            return Err(GridDataError::Len {
                expected,
                got: data.len(),
            });
        }
        // `build` visits the interior in row-major order.
        let mut cells = data.into_iter();
        Self::build(shape, halo_r, halo, |_, _, _| {
            cells.next().expect("length checked above")
        })
    }

    /// Create a grid whose interior is `data` in row-major order (x
    /// fastest), rejecting data that does not cover the interior
    /// exactly and shapes with a zero extent. See [`AnyGrid::filled`]
    /// for `halo_r`.
    pub fn from_vec(
        shape: Shape,
        halo_r: usize,
        halo: f64,
        data: Vec<f64>,
    ) -> Result<AnyGrid, GridDataError> {
        Self::from_data(shape, halo_r, halo, data)
    }

    /// f32 twin of [`AnyGrid::from_vec`].
    pub fn from_vec_f32(
        shape: Shape,
        halo_r: usize,
        halo: f32,
        data: Vec<f32>,
    ) -> Result<AnyGrid, GridDataError> {
        Self::from_data(shape, halo_r, halo, data)
    }

    /// Check that `shape` can host `spec`: matching dimensionality, and
    /// extents compatible with the spec's boundary folds.
    fn check_spec(shape: Shape, spec: &StencilSpec) -> Result<(), GridDataError> {
        if shape.ndim() != spec.ndim() {
            return Err(GridDataError::Ndim {
                shape: shape.ndim(),
                spec: spec.ndim(),
            });
        }
        if !spec.boundary().is_dirichlet() {
            for (axis, &n) in shape.dims()[..shape.ndim()].iter().enumerate() {
                if n < spec.radius() {
                    return Err(GridDataError::BoundaryExtent {
                        axis,
                        extent: n,
                        radius: spec.radius(),
                        boundary: spec.boundary(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Check that the element width of runtime data matches the spec's.
    fn check_dtype(spec: &StencilSpec, data: Dtype) -> Result<(), GridDataError> {
        if spec.dtype() != data {
            return Err(GridDataError::Dtype {
                spec: spec.dtype(),
                data,
            });
        }
        Ok(())
    }

    /// Halo-aware [`AnyGrid::from_fn`]: derive the halo geometry, fill,
    /// **and element type** from a [`StencilSpec`] instead of
    /// hand-passing them — the halo is `spec.radius()` rows/planes wide
    /// under every boundary (the fused `TransLayout2` pass makes each
    /// level's halo itself, so it needs no wider one), filled
    /// with the boundary's constant ([`Boundary::halo_fill`]), and the
    /// shape is checked against the spec (dimensionality, non-zero
    /// extents, and extents ≥ radius for the folded boundary modes). For
    /// an `@f32` spec, `f`'s values are rounded to `f32` once, on the way
    /// in.
    ///
    /// ```
    /// use stencil_core::exec::{Boundary, Shape};
    /// use stencil_core::grid::{AnyGrid, GridDataError};
    /// use stencil_core::spec::StencilSpec;
    ///
    /// let spec: StencilSpec = "2d5p@periodic".parse().unwrap();
    /// let g = AnyGrid::from_fn_spec(Shape::d2(64, 32), &spec, |_, y, x| {
    ///     (x + y) as f64
    /// })
    /// .unwrap();
    /// assert_eq!(g.ndim(), 2);
    /// // A 3D shape cannot host a 2D spec…
    /// assert!(matches!(
    ///     AnyGrid::from_fn_spec(Shape::d3(8, 8, 8), &spec, |_, _, _| 0.0),
    ///     Err(GridDataError::Ndim { .. })
    /// ));
    /// ```
    pub fn from_fn_spec(
        shape: Shape,
        spec: &StencilSpec,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Result<AnyGrid, GridDataError> {
        Self::check_spec(shape, spec)?;
        let (halo_r, fill) = (spec.radius(), spec.boundary().halo_fill());
        match spec.dtype() {
            Dtype::F64 => Self::build(shape, halo_r, fill, f),
            Dtype::F32 => Self::build(shape, halo_r, fill as f32, |z, y, x| f(z, y, x) as f32),
        }
    }

    /// Halo-aware [`AnyGrid::from_vec`] (see [`AnyGrid::from_fn_spec`]):
    /// row-major interior data plus a [`StencilSpec`] that supplies the
    /// halo geometry, fill value, and shape checks. The data's element
    /// type must match the spec's [`dtype`](StencilSpec::dtype) — a
    /// `Vec<f64>` handed to an `@f32` spec is a
    /// [`GridDataError::Dtype`] error (use
    /// [`AnyGrid::from_vec_spec_f32`]), never a silent conversion.
    pub fn from_vec_spec(
        shape: Shape,
        spec: &StencilSpec,
        data: Vec<f64>,
    ) -> Result<AnyGrid, GridDataError> {
        Self::check_dtype(spec, Dtype::F64)?;
        Self::check_spec(shape, spec)?;
        Self::from_vec(shape, spec.radius(), spec.boundary().halo_fill(), data)
    }

    /// f32 twin of [`AnyGrid::from_vec_spec`]: native single-precision
    /// interior data for an `@f32` spec. Handing it to an f64 spec is a
    /// [`GridDataError::Dtype`] error.
    pub fn from_vec_spec_f32(
        shape: Shape,
        spec: &StencilSpec,
        data: Vec<f32>,
    ) -> Result<AnyGrid, GridDataError> {
        Self::check_dtype(spec, Dtype::F32)?;
        Self::check_spec(shape, spec)?;
        Self::from_vec_f32(
            shape,
            spec.radius(),
            spec.boundary().halo_fill() as f32,
            data,
        )
    }

    /// The grid's geometry (see [`Grid::geo`]).
    pub fn geo(&self) -> Geo {
        match self {
            AnyGrid::D1(g) => g.geo(),
            AnyGrid::D2(g) => g.geo(),
            AnyGrid::D3(g) => g.geo(),
            AnyGrid::D1F32(g) => g.geo(),
            AnyGrid::D2F32(g) => g.geo(),
            AnyGrid::D3F32(g) => g.geo(),
        }
    }

    /// Number of spatial dimensions (1–3).
    pub fn ndim(&self) -> usize {
        self.geo().ndim
    }

    /// The element type the grid carries.
    pub fn dtype(&self) -> Dtype {
        match self {
            AnyGrid::D1(_) | AnyGrid::D2(_) | AnyGrid::D3(_) => Dtype::F64,
            AnyGrid::D1F32(_) | AnyGrid::D2F32(_) | AnyGrid::D3F32(_) => Dtype::F32,
        }
    }

    /// The interior extents as a [`Shape`].
    pub fn shape(&self) -> Shape {
        self.geo().shape()
    }

    /// The interior in row-major order (x fastest) — the inverse of
    /// [`AnyGrid::from_vec`]. f32 interiors widen to `f64` losslessly;
    /// use [`AnyGrid::to_vec_f32`] for the native data.
    pub fn to_vec(&self) -> Vec<f64> {
        match self {
            AnyGrid::D1(g) => g.to_vec(),
            AnyGrid::D2(g) => g.to_vec(),
            AnyGrid::D3(g) => g.to_vec(),
            _ => {
                let narrow = self
                    .to_vec_f32()
                    .expect("the f64 variants are matched above");
                narrow.into_iter().map(f64::from).collect()
            }
        }
    }

    /// The interior of an f32 grid in row-major order; `None` for f64
    /// grids (narrowing f64 data would silently round — widen with
    /// [`AnyGrid::to_vec`] instead).
    pub fn to_vec_f32(&self) -> Option<Vec<f32>> {
        match self {
            AnyGrid::D1F32(g) => Some(g.to_vec()),
            AnyGrid::D2F32(g) => Some(g.to_vec()),
            AnyGrid::D3F32(g) => Some(g.to_vec()),
            _ => None,
        }
    }

    /// The typed 1D view, if this is a 1D f64 grid.
    pub fn as_grid1(&self) -> Option<&Grid1> {
        match self {
            AnyGrid::D1(g) => Some(g),
            _ => None,
        }
    }

    /// The typed 2D view, if this is a 2D f64 grid.
    pub fn as_grid2(&self) -> Option<&Grid2> {
        match self {
            AnyGrid::D2(g) => Some(g),
            _ => None,
        }
    }

    /// The typed 3D view, if this is a 3D f64 grid.
    pub fn as_grid3(&self) -> Option<&Grid3> {
        match self {
            AnyGrid::D3(g) => Some(g),
            _ => None,
        }
    }

    /// The typed 1D view, if this is a 1D f32 grid.
    pub fn as_grid1_f32(&self) -> Option<&Grid1<f32>> {
        match self {
            AnyGrid::D1F32(g) => Some(g),
            _ => None,
        }
    }

    /// The typed 2D view, if this is a 2D f32 grid.
    pub fn as_grid2_f32(&self) -> Option<&Grid2<f32>> {
        match self {
            AnyGrid::D2F32(g) => Some(g),
            _ => None,
        }
    }

    /// The typed 3D view, if this is a 3D f32 grid.
    pub fn as_grid3_f32(&self) -> Option<&Grid3<f32>> {
        match self {
            AnyGrid::D3F32(g) => Some(g),
            _ => None,
        }
    }
}

impl<const D: usize> From<Grid<f64, D>> for AnyGrid {
    fn from(g: Grid<f64, D>) -> AnyGrid {
        match D {
            1 => AnyGrid::D1(g.rank()),
            2 => AnyGrid::D2(g.rank()),
            _ => AnyGrid::D3(g.rank()),
        }
    }
}

impl<const D: usize> From<Grid<f32, D>> for AnyGrid {
    fn from(g: Grid<f32, D>) -> AnyGrid {
        match D {
            1 => AnyGrid::D1F32(g.rank()),
            2 => AnyGrid::D2F32(g.rank()),
            _ => AnyGrid::D3F32(g.rank()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid1_geometry() {
        let g = Grid1::from_fn(37, -1.0, |i| i as f64);
        assert_eq!(g.n(), 37);
        assert_eq!(g.get(0), 0.0);
        assert_eq!(g.get(36), 36.0);
        assert_eq!(g.get(-1), -1.0);
        assert_eq!(g.get(37), -1.0);
        assert_eq!(g.ptr() as usize % 64, 0);
        assert_eq!(g.interior().len(), 37);
    }

    #[test]
    fn grid2_geometry() {
        let g = Grid2::from_fn(13, 5, 2, -3.0, |y, x| (y * 100 + x) as f64);
        assert_eq!(g.get(0, 0), 0.0);
        assert_eq!(g.get(4, 12), 412.0);
        assert_eq!(g.get(-1, 0), -3.0);
        assert_eq!(g.get(5, 3), -3.0);
        assert_eq!(g.get(2, -2), -3.0);
        assert_eq!(g.ptr() as usize % 64, 0);
        assert_eq!(g.row_stride() % 8, 0);
        assert_eq!(g.row(3)[7], 307.0);
        // second row interior start also 64B-aligned
        let p = unsafe { g.ptr().add(g.row_stride()) };
        assert_eq!(p as usize % 64, 0);
    }

    #[test]
    fn grid2_geometry_f32() {
        // The f32 pad is 16 elements = 64 bytes: interior origins and
        // row starts keep the same byte alignment as f64 grids, with
        // twice the elements per line.
        let g = Grid2::<f32>::from_fn(13, 5, 2, -3.0, |y, x| (y * 100 + x) as f32);
        assert_eq!(g.get(0, 0), 0.0);
        assert_eq!(g.get(4, 12), 412.0);
        assert_eq!(g.get(-1, 0), -3.0);
        assert_eq!(g.get(2, -2), -3.0);
        assert_eq!(g.ptr() as usize % 64, 0);
        assert_eq!(g.row_stride() % 16, 0);
        let p = unsafe { g.ptr().add(g.row_stride()) };
        assert_eq!(p as usize % 64, 0);
        // Halo readable out to the full f32 pad width.
        assert_eq!(g.get(0, -(f32::PAD as isize)), -3.0);
    }

    #[test]
    fn grid3_geometry() {
        let g = Grid3::from_fn(9, 4, 3, 1, 9.5, |z, y, x| (z * 10000 + y * 100 + x) as f64);
        assert_eq!(g.get(0, 0, 0), 0.0);
        assert_eq!(g.get(2, 3, 8), 20308.0);
        assert_eq!(g.get(-1, 0, 0), 9.5);
        assert_eq!(g.get(3, 0, 0), 9.5);
        assert_eq!(g.get(1, -1, 2), 9.5);
        assert_eq!(g.get(1, 1, 9), 9.5);
        assert_eq!(g.ptr() as usize % 64, 0);
    }

    #[test]
    fn any_grid_round_trips_row_major() {
        let shape = Shape::d3(3, 2, 2);
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let g = AnyGrid::from_vec(shape, 1, -1.0, data.clone()).unwrap();
        assert_eq!(g.ndim(), 3);
        assert_eq!(g.shape(), shape);
        assert_eq!(g.to_vec(), data);
        // x fastest: element (z=1, y=0, x=2) is index (1·2 + 0)·3 + 2 = 8
        assert_eq!(g.as_grid3().unwrap().get(1, 0, 2), 8.0);
        assert_eq!(g.as_grid1(), None);

        let err = AnyGrid::from_vec(shape, 1, 0.0, vec![0.0; 5]).unwrap_err();
        assert_eq!(
            err,
            GridDataError::Len {
                expected: 12,
                got: 5
            }
        );
        assert!(err.to_string().contains("12"));

        // A zero extent is an error, not a panic, for either dtype.
        let err = AnyGrid::from_vec(Shape::d2(0, 5), 1, 0.0, vec![]).unwrap_err();
        assert_eq!(err, GridDataError::EmptyShape);
        assert!(err.to_string().contains("empty"), "{err}");
        let err = AnyGrid::from_vec_f32(Shape::d3(2, 2, 0), 1, 0.0, vec![]).unwrap_err();
        assert_eq!(err, GridDataError::EmptyShape);
    }

    #[test]
    fn any_grid_round_trips_f32() {
        let shape = Shape::d2(5, 3);
        let data: Vec<f32> = (0..15).map(|i| i as f32 * 0.5).collect();
        let g = AnyGrid::from_vec_f32(shape, 1, 0.0, data.clone()).unwrap();
        assert_eq!(g.ndim(), 2);
        assert_eq!(g.dtype(), Dtype::F32);
        assert_eq!(g.shape(), shape);
        assert_eq!(g.to_vec_f32().unwrap(), data);
        // to_vec widens losslessly.
        let wide = g.to_vec();
        assert!(wide.iter().zip(&data).all(|(&a, &b)| a == b as f64));
        // Typed accessors pick the right width.
        assert!(g.as_grid2().is_none());
        assert_eq!(g.as_grid2_f32().unwrap().get(1, 2), 3.5);
        // f64 grids have no f32 view.
        let g64 = AnyGrid::filled(shape, 1, 0.0);
        assert_eq!(g64.dtype(), Dtype::F64);
        assert!(g64.to_vec_f32().is_none());
        assert!(g64.as_grid2_f32().is_none());

        assert!(matches!(
            AnyGrid::from_vec_f32(shape, 1, 0.0, vec![0.0; 2]),
            Err(GridDataError::Len {
                expected: 15,
                got: 2
            })
        ));
    }

    #[test]
    fn spec_aware_constructors_check_shape_and_boundary() {
        let spec: StencilSpec = "2d5p@periodic".parse().unwrap();

        // Happy path: every boundary gets the radius-wide halo; fill =
        // the boundary constant.
        let g =
            AnyGrid::from_fn_spec(Shape::d2(12, 7), &spec, |_, y, x| (y * 100 + x) as f64).unwrap();
        let g2 = g.as_grid2().unwrap();
        assert_eq!(g2.halo(), spec.radius());
        assert_eq!(g2.get(-1, 0), 0.0, "halo filled with the boundary constant");
        let tight: StencilSpec = "2d5p".parse().unwrap();
        let g = AnyGrid::from_fn_spec(Shape::d2(12, 7), &tight, |_, _, _| 0.0).unwrap();
        assert_eq!(g.as_grid2().unwrap().halo(), tight.radius());

        // Dirichlet fill value flows from the spec's boundary.
        let d: StencilSpec = "2d5p@dirichlet(2.5)".parse().unwrap();
        let g = AnyGrid::from_vec_spec(Shape::d2(3, 2), &d, vec![0.0; 6]).unwrap();
        assert_eq!(g.as_grid2().unwrap().get(-1, 0), 2.5);

        // Dimensionality mismatch.
        let err = AnyGrid::from_fn_spec(Shape::d1(64), &spec, |_, _, _| 0.0).unwrap_err();
        assert_eq!(err, GridDataError::Ndim { shape: 1, spec: 2 });
        assert!(err.to_string().contains("1D"), "{err}");

        // Shape/boundary mismatch: a folded boundary needs extents ≥ r.
        let wide: StencilSpec = "1d5p@reflect".parse().unwrap(); // r = 2
        let err = AnyGrid::from_fn_spec(Shape::d1(1), &wide, |_, _, _| 0.0).unwrap_err();
        assert_eq!(
            err,
            GridDataError::BoundaryExtent {
                axis: 0,
                extent: 1,
                radius: 2,
                boundary: crate::exec::Boundary::Reflect,
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("axis 0") && msg.contains("radius 2") && msg.contains("reflect"),
            "{msg}"
        );

        // Dirichlet never triggers the extent check (today's behavior).
        assert!(AnyGrid::from_vec_spec(Shape::d1(1), &"1d5p".parse().unwrap(), vec![1.0]).is_ok());
        // Bad data length still reports Len through the spec path.
        assert!(matches!(
            AnyGrid::from_vec_spec(Shape::d2(4, 4), &d, vec![0.0; 3]),
            Err(GridDataError::Len {
                expected: 16,
                got: 3
            })
        ));

        // A zero extent is an error through every spec-aware constructor.
        let tight32: StencilSpec = "2d5p@f32".parse().unwrap();
        for made in [
            AnyGrid::from_vec_spec(Shape::d2(4, 0), &tight, vec![]),
            AnyGrid::from_fn_spec(Shape::d2(0, 3), &tight, |_, _, _| 0.0),
            AnyGrid::from_vec_spec_f32(Shape::d2(4, 0), &tight32, vec![]),
        ] {
            assert_eq!(made, Err(GridDataError::EmptyShape));
        }
    }

    #[test]
    fn spec_aware_constructors_check_dtype() {
        let f32_spec: StencilSpec = "2d5p@f32".parse().unwrap();
        let f64_spec: StencilSpec = "2d5p".parse().unwrap();
        let shape = Shape::d2(4, 4);

        // from_fn_spec follows the spec's dtype.
        let g = AnyGrid::from_fn_spec(shape, &f32_spec, |_, y, x| (y + x) as f64).unwrap();
        assert_eq!(g.dtype(), Dtype::F32);
        assert_eq!(g.as_grid2_f32().unwrap().get(1, 2), 3.0);

        // from_vec_spec demands matching data width, both ways.
        assert_eq!(
            AnyGrid::from_vec_spec(shape, &f32_spec, vec![0.0; 16]).unwrap_err(),
            GridDataError::Dtype {
                spec: Dtype::F32,
                data: Dtype::F64
            }
        );
        assert_eq!(
            AnyGrid::from_vec_spec_f32(shape, &f64_spec, vec![0.0f32; 16]).unwrap_err(),
            GridDataError::Dtype {
                spec: Dtype::F64,
                data: Dtype::F32
            }
        );
        let err = AnyGrid::from_vec_spec(shape, &f32_spec, vec![0.0; 16]).unwrap_err();
        assert!(err.to_string().contains("f32"), "{err}");

        // Happy path: f32 data for an f32 spec, shape checks intact.
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let g = AnyGrid::from_vec_spec_f32(shape, &f32_spec, data.clone()).unwrap();
        assert_eq!(g.to_vec_f32().unwrap(), data);
        assert!(matches!(
            AnyGrid::from_vec_spec_f32(shape, &f32_spec, vec![0.0f32; 3]),
            Err(GridDataError::Len { .. })
        ));
        // Boundary-extent checks still run for f32 specs.
        let folded: StencilSpec = "1d5p@reflect@f32".parse().unwrap();
        assert!(matches!(
            AnyGrid::from_vec_spec_f32(Shape::d1(1), &folded, vec![0.0f32; 1]),
            Err(GridDataError::BoundaryExtent { .. })
        ));
    }

    #[test]
    fn clone_is_deep() {
        let mut g = Grid1::filled(16, 0.0);
        let h = g.clone();
        g.set(3, 42.0);
        assert_eq!(h.get(3), 0.0);
        assert_eq!(g.get(3), 42.0);
    }
}
