//! Grid comparison utilities used by tests, examples, and the benchmark
//! harness's self-checks.

use stencil_simd::Elem;

use crate::grid::{AnyGrid, Grid};

/// Maximum absolute difference over the interiors of two grids of the
/// same extents (any rank and element type; differences are accumulated
/// in `f64`).
pub fn max_abs_diff<T: Elem, const D: usize>(a: &Grid<T, D>, b: &Grid<T, D>) -> f64 {
    assert_eq!(a.geo().n, b.geo().n, "grids differ in extents");
    a.rows()
        .flatten()
        .zip(b.rows().flatten())
        .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
        .fold(0.0, f64::max)
}

/// Maximum absolute difference over the interiors of two [`AnyGrid`]s
/// (erased API). Panics if the dimensionalities, element types or
/// extents differ.
pub fn max_abs_diff_any(a: &AnyGrid, b: &AnyGrid) -> f64 {
    let (ka, kb) = ((a.shape(), a.dtype()), (b.shape(), b.dtype()));
    assert_eq!(ka, kb, "grids differ in shape or element type");
    // f32 interiors widen to f64 exactly, so this is the typed difference.
    max_abs_diff_ref(a, &b.to_vec())
}

/// Maximum absolute difference between an [`AnyGrid`]'s interior and a
/// flat row-major (x fastest) reference slice — the natural comparison
/// for naive reference implementations that live in plain vectors (e.g.
/// the boundary-condition oracles). Panics if the lengths differ.
pub fn max_abs_diff_ref(a: &AnyGrid, reference: &[f64]) -> f64 {
    let v = a.to_vec();
    assert_eq!(
        v.len(),
        reference.len(),
        "reference slice does not cover the grid interior"
    );
    v.iter()
        .zip(reference)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Panic with a helpful message unless two grids agree within `tol`
/// (absolute, relative to the scale of the larger of the two grids, so
/// the verdict does not depend on argument order).
pub fn assert_close<T: Elem, const D: usize>(a: &Grid<T, D>, b: &Grid<T, D>, tol: f64, ctx: &str) {
    let max_abs = |g: &Grid<T, D>| {
        g.rows()
            .flatten()
            .fold(0.0f64, |m, x| m.max(x.to_f64().abs()))
    };
    let scale = max_abs(a).max(max_abs(b)).max(1.0);
    let d = max_abs_diff(a, b);
    assert!(
        d <= tol * scale,
        "{ctx}: grids differ by {d:.3e} (scale {scale:.3e}, tol {tol:.1e})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2;

    #[test]
    fn assert_close_is_symmetric() {
        // |a| tops out at 10 and |b| at 11; they differ by 1. Scaled by
        // `a` alone the tolerance would be 0.95 and the pair would fail
        // in one order only; scaled by the larger grid it is 1.045 both
        // ways.
        let a = Grid2::from_fn(5, 3, 1, 0.0, |_, _| 10.0);
        let b = Grid2::from_fn(5, 3, 1, 0.0, |_, _| 11.0);
        assert_close(&a, &b, 0.095, "a, b");
        assert_close(&b, &a, 0.095, "b, a");
        // A tolerance below 1/11 fails in both orders.
        for (x, y) in [(&a, &b), (&b, &a)] {
            let r = std::panic::catch_unwind(|| assert_close(x, y, 0.09, "tight"));
            assert!(r.is_err());
        }
    }
}
