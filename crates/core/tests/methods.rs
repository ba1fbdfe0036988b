//! Cross-method equivalence through the **one-shot surface**: every
//! vectorized scheme must reproduce the scalar oracle for every stencil
//! family, ISA, grid size (full sets, tails, tiny grids), and step count
//! (even/odd, so the k=2 pipeline's trailing k=1 step is exercised).
//!
//! This suite drives the erased surface — a throwaway sequential plan
//! per call, built by [`Plan::stencil`] from the stencil's weights lifted
//! into a [`StencilSpec`]. The same matrix driven through typed `Plan`
//! terminals lives in `tests/exec_plan.rs`.
//!
//! Because every kernel follows the canonical accumulation order with
//! fused multiply-adds, agreement is expected to be *bit-exact*; we assert
//! a 1e-13 relative bound to stay robust and additionally pin a few cases
//! to exact equality.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_core::exec::{AnyGridMut, Parallelism, Plan};
use stencil_core::verify::{assert_close, max_abs_diff};
use stencil_core::{Grid1, Grid2, Grid3, Method, StencilSpec};
use stencil_simd::Isa;

const TOL: f64 = 1e-13;

/// `t` sequential steps of `s` on `g` with a throwaway plan.
fn run<'a>(m: Method, isa: Isa, g: impl Into<AnyGridMut<'a>>, s: &StencilSpec, t: usize) {
    let g = g.into();
    Plan::new(g.shape())
        .method(m)
        .isa(isa)
        .parallelism(Parallelism::Off)
        .stencil(s)
        .unwrap()
        .run(g, t)
}

fn isas() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|i| i.is_available()).collect()
}

fn vec_methods() -> [Method; 5] {
    [
        Method::MultiLoad,
        Method::Reorg,
        Method::Dlt,
        Method::TransLayout,
        Method::TransLayout2,
    ]
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn grid1(n: usize, seed: u64) -> Grid1 {
    let mut r = rng(seed);
    let halo = r.random_range(-1.0..1.0);
    Grid1::from_fn(n, halo, |_| r.random_range(-1.0..1.0))
}

#[test]
fn star1_1d3p_matches_scalar() {
    let s = StencilSpec::star1(&[0.31, 0.52, 0.17]).unwrap();
    for isa in isas() {
        for n in [5usize, 16, 63, 64, 65, 129, 200, 513] {
            for t in [1usize, 2, 3, 4, 7] {
                let init = grid1(n, 42 + n as u64);
                let mut reference = init.clone();
                run(Method::Scalar, isa, &mut reference, &s, t);
                for m in vec_methods() {
                    let mut g = init.clone();
                    run(m, isa, &mut g, &s, t);
                    assert_close(&g, &reference, TOL, &format!("{m}/{isa}/n={n}/t={t}"));
                }
            }
        }
    }
}

#[test]
fn star1_1d5p_matches_scalar() {
    let s = StencilSpec::star1(&[-0.05, 0.25, 0.55, 0.28, -0.03]).unwrap();
    for isa in isas() {
        for n in [7usize, 64, 130, 257] {
            for t in [1usize, 2, 5] {
                let init = grid1(n, 7 + n as u64);
                let mut reference = init.clone();
                run(Method::Scalar, isa, &mut reference, &s, t);
                for m in vec_methods() {
                    let mut g = init.clone();
                    run(m, isa, &mut g, &s, t);
                    assert_close(&g, &reference, TOL, &format!("{m}/{isa}/n={n}/t={t}"));
                }
            }
        }
    }
}

#[test]
fn star1_methods_are_bitwise_equal_to_scalar() {
    // Same canonical fma order everywhere ⇒ exactly zero difference.
    let s = StencilSpec::heat_1d3p();
    for isa in isas() {
        let init = grid1(257, 99);
        let mut reference = init.clone();
        run(Method::Scalar, isa, &mut reference, &s, 6);
        for m in vec_methods() {
            let mut g = init.clone();
            run(m, isa, &mut g, &s, 6);
            assert_eq!(
                max_abs_diff(&g, &reference),
                0.0,
                "{m}/{isa} not bitwise-identical"
            );
        }
    }
}

fn grid2(nx: usize, ny: usize, ry: usize, seed: u64) -> Grid2 {
    let mut r = rng(seed);
    let halo = r.random_range(-1.0..1.0);
    Grid2::from_fn(nx, ny, ry, halo, |_, _| r.random_range(-1.0..1.0))
}

#[test]
fn star2_2d5p_matches_scalar() {
    let s = StencilSpec::star2(&[0.22, 0.3, 0.18], &[0.12, 0.0, 0.15]).unwrap();
    for isa in isas() {
        for (nx, ny) in [(9usize, 3usize), (64, 1), (70, 5), (150, 8)] {
            for t in [1usize, 2, 3, 4] {
                let init = grid2(nx, ny, 1, 5 + nx as u64);
                let mut reference = init.clone();
                run(Method::Scalar, isa, &mut reference, &s, t);
                for m in vec_methods() {
                    let mut g = init.clone();
                    run(m, isa, &mut g, &s, t);
                    assert_close(
                        &g,
                        &reference,
                        TOL,
                        &format!("{m}/{isa}/nx={nx}/ny={ny}/t={t}"),
                    );
                }
            }
        }
    }
}

#[test]
fn box2_2d9p_matches_scalar() {
    let mut r = rng(11);
    let mut w = [0.0f64; 9];
    for x in w.iter_mut() {
        *x = r.random_range(0.0..0.12);
    }
    let s = StencilSpec::box2(&w).unwrap();
    for isa in isas() {
        for (nx, ny) in [(10usize, 2usize), (66, 4), (140, 6)] {
            for t in [1usize, 2, 3] {
                let init = grid2(nx, ny, 1, 77 + nx as u64);
                let mut reference = init.clone();
                run(Method::Scalar, isa, &mut reference, &s, t);
                for m in vec_methods() {
                    let mut g = init.clone();
                    run(m, isa, &mut g, &s, t);
                    assert_close(
                        &g,
                        &reference,
                        TOL,
                        &format!("{m}/{isa}/nx={nx}/ny={ny}/t={t}"),
                    );
                }
            }
        }
    }
}

fn grid3(nx: usize, ny: usize, nz: usize, seed: u64) -> Grid3 {
    let mut r = rng(seed);
    let halo = r.random_range(-1.0..1.0);
    Grid3::from_fn(nx, ny, nz, 1, halo, |_, _, _| r.random_range(-1.0..1.0))
}

#[test]
fn star3_3d7p_matches_scalar() {
    let s = StencilSpec::star3(&[0.11, 0.3, 0.13], &[0.1, 0.0, 0.12], &[0.09, 0.0, 0.08]).unwrap();
    for isa in isas() {
        for (nx, ny, nz) in [(9usize, 2usize, 2usize), (70, 4, 3), (130, 3, 4)] {
            for t in [1usize, 2, 3] {
                let init = grid3(nx, ny, nz, 3 + nx as u64);
                let mut reference = init.clone();
                run(Method::Scalar, isa, &mut reference, &s, t);
                for m in vec_methods() {
                    let mut g = init.clone();
                    run(m, isa, &mut g, &s, t);
                    assert_close(
                        &g,
                        &reference,
                        TOL,
                        &format!("{m}/{isa}/nx={nx}/ny={ny}/nz={nz}/t={t}"),
                    );
                }
            }
        }
    }
}

#[test]
fn box3_3d27p_matches_scalar() {
    let mut r = rng(23);
    let mut w = [0.0f64; 27];
    for x in w.iter_mut() {
        *x = r.random_range(0.0..0.04);
    }
    let s = StencilSpec::box3(&w).unwrap();
    for isa in isas() {
        for (nx, ny, nz) in [(9usize, 2usize, 2usize), (66, 3, 3), (129, 4, 2)] {
            for t in [1usize, 2, 3] {
                let init = grid3(nx, ny, nz, 17 + nx as u64);
                let mut reference = init.clone();
                run(Method::Scalar, isa, &mut reference, &s, t);
                for m in vec_methods() {
                    let mut g = init.clone();
                    run(m, isa, &mut g, &s, t);
                    assert_close(
                        &g,
                        &reference,
                        TOL,
                        &format!("{m}/{isa}/nx={nx}/ny={ny}/nz={nz}/t={t}"),
                    );
                }
            }
        }
    }
}

#[test]
fn k2_equals_two_k1_steps_exactly() {
    // §3.3: the pipelined double step must equal two single steps — same
    // summation order by construction, hence bitwise.
    let s = StencilSpec::star1(&[0.2, 0.6, 0.2]).unwrap();
    for isa in isas() {
        for n in [64usize, 200, 513] {
            let init = grid1(n, 1000 + n as u64);
            let mut a = init.clone();
            run(Method::TransLayout, isa, &mut a, &s, 2);
            let mut b = init.clone();
            run(Method::TransLayout2, isa, &mut b, &s, 2);
            assert_eq!(max_abs_diff(&a, &b), 0.0, "{isa}/n={n}");
        }
    }
}

#[test]
fn zero_steps_is_identity() {
    let s = StencilSpec::heat_1d3p();
    let init = grid1(100, 5);
    for m in Method::ALL {
        let mut g = init.clone();
        run(m, Isa::detect_best(), &mut g, &s, 0);
        assert_eq!(max_abs_diff(&g, &init), 0.0, "{m}");
    }
}

#[test]
fn halo_cells_never_updated() {
    let s = StencilSpec::heat_1d3p();
    for isa in isas() {
        for m in Method::ALL {
            let mut g = Grid1::from_fn(130, 7.25, |i| i as f64 * 0.01);
            run(m, isa, &mut g, &s, 5);
            assert_eq!(g.get(-1), 7.25, "{m}/{isa} left halo");
            assert_eq!(g.get(130), 7.25, "{m}/{isa} right halo");
        }
    }
}

mod randomized {
    use super::*;

    /// Randomized sizes/steps/weights (deterministic seed; formerly a
    /// proptest, rewritten as an explicit loop so the workspace builds
    /// offline).
    #[test]
    fn star1_any_size_any_steps() {
        let mut r = rng(0x51A);
        let isa = Isa::detect_best();
        for case in 0..24 {
            let n = 3 + (r.next_u64() % 297) as usize;
            let t = 1 + (r.next_u64() % 5) as usize;
            let seed = r.next_u64() % 1000;
            let s = StencilSpec::star1(&[
                r.random_range(-0.4..0.4),
                r.random_range(-0.4..0.4),
                r.random_range(-0.4..0.4),
            ])
            .unwrap();
            let init = grid1(n, seed);
            let mut reference = init.clone();
            run(Method::Scalar, isa, &mut reference, &s, t);
            for m in vec_methods() {
                let mut g = init.clone();
                run(m, isa, &mut g, &s, t);
                let d = max_abs_diff(&g, &reference);
                assert!(
                    d == 0.0,
                    "case={case}: {m} differs by {d:.3e} (n={n}, t={t})"
                );
            }
        }
    }
}
