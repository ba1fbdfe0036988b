//! Stencil specifications.
//!
//! The paper evaluates six stencils (Table 1): four star stencils
//! (1D3P, 1D5P, 2D5P, 3D7P) and two box stencils (2D9P, 3D27P). Each
//! family below is generic in its weights; the radius is a compile-time
//! constant of the concrete type so kernels monomorphize their inner loops.
//!
//! All kernels in this workspace accumulate the weighted sum in one
//! **canonical order** (documented per family) using fused multiply-adds,
//! so every method — scalar reference included — produces bit-identical
//! results for the same stencil.

/// Maximum supported stencil radius (bounded by the vector length: the
/// assembled dependent vectors reach at most one neighbouring vector set).
pub const MAX_R: usize = 4;

/// Maximum radius of a 2D box stencil: the box row kernels keep one
/// splatted weight per tap and one pointer per neighbour row in
/// fixed-size arrays (`(2r+1)²` weights, `2r+1` rows), sized for this.
pub const BOX2_MAX_R: usize = 2;

/// Maximum radius of a 3D box stencil (`(2r+1)³` splatted weights and
/// `(2r+1)²` neighbour-row pointers per set; see [`BOX2_MAX_R`]).
pub const BOX3_MAX_R: usize = 1;

/// 1D star stencil of radius `R`:
/// `out[i] = Σ_{o=-R..=R} w[R+o] · in[i+o]`.
///
/// Canonical accumulation: `acc = w[0]·in[i-R]`, then fma terms in
/// ascending `o`.
pub trait Star1: Copy + Send + Sync + 'static {
    /// Stencil radius (the paper's order `r`).
    const R: usize;
    /// Display name ("1d3p", ...).
    const NAME: &'static str;
    /// Weights, length `2R+1`, index `R+o` for offset `o`.
    fn w(&self) -> &[f64];
    /// Floating-point operations per updated point (fma = 2 flops).
    fn flops_per_point() -> usize {
        2 * (2 * Self::R + 1) - 1
    }
}

/// 2D star stencil of radius `R`:
/// `out[y][x] = Σ_o wx[R+o]·in[y][x+o] + Σ_{o≠0} wy[R+o]·in[y+o][x]`.
///
/// Canonical accumulation: x-terms ascending (as [`Star1`]), then y-terms
/// `o = -1..-R` interleaved as: for `d` in `1..=R`: term `y-d`, then term
/// `y+d`.
pub trait Star2: Copy + Send + Sync + 'static {
    /// Stencil radius.
    const R: usize;
    /// Display name.
    const NAME: &'static str;
    /// x-axis weights, length `2R+1` (center included).
    fn wx(&self) -> &[f64];
    /// y-axis weights, length `2R+1`; the center entry is ignored.
    fn wy(&self) -> &[f64];
    /// Floating-point operations per updated point.
    fn flops_per_point() -> usize {
        let terms = (2 * Self::R + 1) + 2 * Self::R;
        2 * terms - 1
    }
}

/// 2D box stencil of radius `R`:
/// `out[y][x] = Σ_{dy,dx ∈ -R..=R} w[(R+dy)·(2R+1) + R+dx] · in[y+dy][x+dx]`.
///
/// Canonical accumulation: row-major (`dy` outer ascending, `dx` inner
/// ascending).
pub trait Box2: Copy + Send + Sync + 'static {
    /// Stencil radius.
    const R: usize;
    /// Display name.
    const NAME: &'static str;
    /// Weights, row-major `(2R+1)²`.
    fn w(&self) -> &[f64];
    /// Floating-point operations per updated point.
    fn flops_per_point() -> usize {
        let terms = (2 * Self::R + 1) * (2 * Self::R + 1);
        2 * terms - 1
    }
}

/// 3D star stencil of radius `R` (x fastest, then y, then z).
///
/// Canonical accumulation: x-terms ascending, y pairs (−d then +d), z pairs
/// (−d then +d).
pub trait Star3: Copy + Send + Sync + 'static {
    /// Stencil radius.
    const R: usize;
    /// Display name.
    const NAME: &'static str;
    /// x-axis weights, length `2R+1` (center included).
    fn wx(&self) -> &[f64];
    /// y-axis weights, length `2R+1`; center ignored.
    fn wy(&self) -> &[f64];
    /// z-axis weights, length `2R+1`; center ignored.
    fn wz(&self) -> &[f64];
    /// Floating-point operations per updated point.
    fn flops_per_point() -> usize {
        let terms = (2 * Self::R + 1) + 4 * Self::R;
        2 * terms - 1
    }
}

/// 3D box stencil of radius `R`:
/// weights indexed `((R+dz)·(2R+1) + R+dy)·(2R+1) + R+dx`.
///
/// Canonical accumulation: `dz` outer, `dy` middle, `dx` inner, all
/// ascending.
pub trait Box3: Copy + Send + Sync + 'static {
    /// Stencil radius.
    const R: usize;
    /// Display name.
    const NAME: &'static str;
    /// Weights, length `(2R+1)³`.
    fn w(&self) -> &[f64];
    /// Floating-point operations per updated point.
    fn flops_per_point() -> usize {
        let s = 2 * Self::R + 1;
        2 * s * s * s - 1
    }
}

macro_rules! star1_type {
    ($(#[$doc:meta])* $name:ident, $r:expr, $pts:expr, $disp:expr) => {
        $(#[$doc])*
        #[derive(Copy, Clone, Debug, PartialEq)]
        pub struct $name {
            /// Weights, index `R+o` for offset `o`.
            pub w: [f64; $pts],
        }
        impl Star1 for $name {
            const R: usize = $r;
            const NAME: &'static str = $disp;
            #[inline(always)]
            fn w(&self) -> &[f64] {
                &self.w
            }
        }
    };
}

star1_type!(
    /// 1D 3-point star stencil (the paper's running example, "1D-Heat").
    S1d3p, 1, 3, "1d3p"
);
star1_type!(
    /// 1D 5-point star stencil (order 2).
    S1d5p, 2, 5, "1d5p"
);

impl S1d3p {
    /// Classic explicit heat-equation weights `a·(A[i-1]+A[i]+A[i+1])`
    /// with `a = 1/3` (stable, mass-preserving).
    pub fn heat() -> Self {
        S1d3p { w: [1.0 / 3.0; 3] }
    }
}

impl S1d5p {
    /// Fourth-order-flavoured smoothing weights (normalized).
    pub fn heat() -> Self {
        S1d5p {
            w: [-1.0 / 12.0, 4.0 / 12.0, 6.0 / 12.0, 4.0 / 12.0, -1.0 / 12.0],
        }
    }
}

/// 2D 5-point star stencil ("2D-Heat").
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct S2d5p {
    /// x-axis weights (center included at index 1).
    pub wx: [f64; 3],
    /// y-axis weights (center entry ignored).
    pub wy: [f64; 3],
}

impl Star2 for S2d5p {
    const R: usize = 1;
    const NAME: &'static str = "2d5p";
    #[inline(always)]
    fn wx(&self) -> &[f64] {
        &self.wx
    }
    #[inline(always)]
    fn wy(&self) -> &[f64] {
        &self.wy
    }
}

impl S2d5p {
    /// Jacobi weights for the 2D heat equation (each of 5 points = 1/5).
    pub fn heat() -> Self {
        S2d5p {
            wx: [0.2, 0.2, 0.2],
            wy: [0.2, 0.0, 0.2],
        }
    }
}

/// 2D 9-point box stencil.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct S2d9p {
    /// Row-major 3×3 weights.
    pub w: [f64; 9],
}

impl Box2 for S2d9p {
    const R: usize = 1;
    const NAME: &'static str = "2d9p";
    #[inline(always)]
    fn w(&self) -> &[f64] {
        &self.w
    }
}

impl S2d9p {
    /// Uniform 3×3 box blur.
    pub fn blur() -> Self {
        S2d9p { w: [1.0 / 9.0; 9] }
    }
}

/// 3D 7-point star stencil ("3D-Heat").
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct S3d7p {
    /// x-axis weights (center at index 1).
    pub wx: [f64; 3],
    /// y-axis weights (center ignored).
    pub wy: [f64; 3],
    /// z-axis weights (center ignored).
    pub wz: [f64; 3],
}

impl Star3 for S3d7p {
    const R: usize = 1;
    const NAME: &'static str = "3d7p";
    #[inline(always)]
    fn wx(&self) -> &[f64] {
        &self.wx
    }
    #[inline(always)]
    fn wy(&self) -> &[f64] {
        &self.wy
    }
    #[inline(always)]
    fn wz(&self) -> &[f64] {
        &self.wz
    }
}

impl S3d7p {
    /// Jacobi weights for the 3D heat equation (each of 7 points = 1/7).
    pub fn heat() -> Self {
        let w = 1.0 / 7.0;
        S3d7p {
            wx: [w, w, w],
            wy: [w, 0.0, w],
            wz: [w, 0.0, w],
        }
    }
}

/// 3D 27-point box stencil.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct S3d27p {
    /// Weights, `dz` outer / `dy` middle / `dx` inner, length 27.
    pub w: [f64; 27],
}

impl Box3 for S3d27p {
    const R: usize = 1;
    const NAME: &'static str = "3d27p";
    #[inline(always)]
    fn w(&self) -> &[f64] {
        &self.w
    }
}

impl S3d27p {
    /// Uniform 3×3×3 box blur.
    pub fn blur() -> Self {
        S3d27p {
            w: [1.0 / 27.0; 27],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_counts_match_paper_points() {
        assert_eq!(S1d3p::flops_per_point(), 5); // 3 terms
        assert_eq!(S1d5p::flops_per_point(), 9); // 5 terms
        assert_eq!(S2d5p::flops_per_point(), 9); // 5 terms
        assert_eq!(S2d9p::flops_per_point(), 17); // 9 terms
        assert_eq!(S3d7p::flops_per_point(), 13); // 7 terms
        assert_eq!(S3d27p::flops_per_point(), 53); // 27 terms
    }

    #[test]
    fn heat_weights_are_normalized() {
        assert!((S1d3p::heat().w.iter().sum::<f64>() - 1.0).abs() < 1e-15);
        assert!((S1d5p::heat().w.iter().sum::<f64>() - 1.0).abs() < 1e-15);
        let s = S2d5p::heat();
        let total: f64 = s.wx.iter().sum::<f64>() + s.wy[0] + s.wy[2];
        assert!((total - 1.0).abs() < 1e-15);
        assert!((S2d9p::blur().w.iter().sum::<f64>() - 1.0).abs() < 1e-15);
        let s = S3d7p::heat();
        let total: f64 = s.wx.iter().sum::<f64>() + s.wy[0] + s.wy[2] + s.wz[0] + s.wz[2];
        assert!((total - 1.0).abs() < 1e-12);
        assert!((S3d27p::blur().w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn radii() {
        assert_eq!(S1d3p::R, 1);
        assert_eq!(S1d5p::R, 2);
        assert_eq!(S2d5p::R, 1);
        assert_eq!(S2d9p::R, 1);
        assert_eq!(S3d7p::R, 1);
        assert_eq!(S3d27p::R, 1);
    }
}
