//! Grid comparison utilities used by tests, examples, and the benchmark
//! harness's self-checks.

use stencil_simd::Elem;

use crate::grid::{AnyGrid, Grid};

/// `|x - y|`, except that a NaN on exactly one side differs by infinity;
/// two NaNs agree, and so do two equal infinities.
fn cell_diff(x: f64, y: f64) -> f64 {
    match (x.is_nan(), y.is_nan()) {
        (false, false) if x == y => 0.0,
        (false, false) => (x - y).abs(),
        (true, true) => 0.0,
        _ => f64::INFINITY,
    }
}

/// Maximum absolute difference over the interiors of two grids of the
/// same extents (any rank and element type; differences are accumulated
/// in `f64`; a NaN on one side only differs by infinity).
pub fn max_abs_diff<T: Elem, const D: usize>(a: &Grid<T, D>, b: &Grid<T, D>) -> f64 {
    assert_eq!(a.geo().n, b.geo().n, "grids differ in extents");
    a.rows()
        .flatten()
        .zip(b.rows().flatten())
        .map(|(x, y)| cell_diff(x.to_f64(), y.to_f64()))
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
/// the boundary-condition oracles), NaNs counted as in [`max_abs_diff`].
/// Panics if the lengths differ.
pub fn max_abs_diff_ref(a: &AnyGrid, reference: &[f64]) -> f64 {
    let v = a.to_vec();
    assert_eq!(
        v.len(),
        reference.len(),
        "reference slice does not cover the grid interior"
    );
    v.iter()
        .zip(reference)
        .map(|(&x, &y)| cell_diff(x, y))
        .fold(0.0, f64::max)
}

/// Panic with a helpful message unless two grids agree within `tol`
/// (absolute, relative to the scale of the larger of the two grids'
/// finite cells, so the verdict does not depend on argument order and
/// an infinity cannot widen the tolerance).
pub fn assert_close<T: Elem, const D: usize>(a: &Grid<T, D>, b: &Grid<T, D>, tol: f64, ctx: &str) {
    let max_abs = |g: &Grid<T, D>| {
        g.rows()
            .flatten()
            .map(|x| x.to_f64().abs())
            .filter(|x| x.is_finite())
            .fold(0.0f64, f64::max)
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
    use crate::grid::{Grid1, Grid2};

    #[test]
    fn nan_and_infinity_differences() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for (x, y, want) in [
            (nan, 1.0, inf),
            (nan, nan, 0.0),
            (inf, inf, 0.0),
            (inf, 1.0, inf),
            (2.0, 0.5, 1.5),
        ] {
            for (a, b) in [(x, y), (y, x)] {
                let ga = Grid1::from_fn(3, 0.0, |i| if i == 1 { a } else { 0.0 });
                let gb = Grid1::from_fn(3, 0.0, |i| if i == 1 { b } else { 0.0 });
                assert_eq!(max_abs_diff(&ga, &gb), want, "{a} vs {b}");
                let any = AnyGrid::from(ga.clone());
                assert_eq!(max_abs_diff_ref(&any, &[0.0, b, 0.0]), want, "{a} vs {b}");
                assert_eq!(max_abs_diff_any(&any, &gb.into()), want, "{a} vs {b}");
            }
        }
        // assert_close cannot pass a one-sided NaN or infinity.
        let one = Grid1::from_fn(3, 0.0, |_| 1.0);
        for bad in [nan, inf] {
            let g = Grid1::from_fn(3, 0.0, |i| if i == 0 { bad } else { 1.0 });
            let r = std::panic::catch_unwind(|| assert_close(&g, &one, 1e-6, "bad"));
            assert!(r.is_err(), "{bad} passed assert_close");
        }
    }

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
