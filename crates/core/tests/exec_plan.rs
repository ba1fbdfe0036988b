//! Plan-engine coverage: every (method × stencil family) combination
//! routed through [`Plan`] must be bit-identical to the `Method::Scalar`
//! oracle, and buffer reuse across consecutive `run`/`session` calls must
//! not change results — two `t`-step runs equal one `2t`-step run exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_core::exec::{Plan, Shape, Tiling};
use stencil_core::verify::max_abs_diff;
use stencil_core::{Grid1, Grid2, Grid3, Method, S1d3p, S1d5p, S2d5p, S2d9p, S3d27p, S3d7p};
use stencil_simd::Isa;

fn isas() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|i| i.is_available()).collect()
}

fn grid1(n: usize, seed: u64) -> Grid1 {
    let mut r = StdRng::seed_from_u64(seed);
    let halo = r.random_range(-1.0..1.0);
    Grid1::from_fn(n, halo, |_| r.random_range(-1.0..1.0))
}

fn grid2(nx: usize, ny: usize, seed: u64) -> Grid2 {
    let mut r = StdRng::seed_from_u64(seed);
    let halo = r.random_range(-1.0..1.0);
    Grid2::from_fn(nx, ny, 1, halo, |_, _| r.random_range(-1.0..1.0))
}

fn grid3(nx: usize, ny: usize, nz: usize, seed: u64) -> Grid3 {
    let mut r = StdRng::seed_from_u64(seed);
    let halo = r.random_range(-1.0..1.0);
    Grid3::from_fn(nx, ny, nz, 1, halo, |_, _, _| r.random_range(-1.0..1.0))
}

// ---------------------------------------------------------------------------
// Method × stencil oracle matrix, all through Plan
// ---------------------------------------------------------------------------

#[test]
fn plan_star1_every_method_matches_scalar_oracle() {
    for isa in isas() {
        for n in [65usize, 257, 600] {
            for t in [1usize, 2, 5] {
                let init = grid1(n, 11 + n as u64);

                // 1d3p
                let s = S1d3p {
                    w: [0.3, 0.45, 0.2],
                };
                let mut oracle = init.clone();
                Plan::new(Shape::d1(n))
                    .method(Method::Scalar)
                    .isa(isa)
                    .star1(s)
                    .unwrap()
                    .run(&mut oracle, t);
                for m in Method::ALL {
                    let mut g = init.clone();
                    Plan::new(Shape::d1(n))
                        .method(m)
                        .isa(isa)
                        .star1(s)
                        .unwrap()
                        .run(&mut g, t);
                    assert_eq!(max_abs_diff(&g, &oracle), 0.0, "1d3p/{m}/{isa}/n={n}/t={t}");
                }

                // 1d5p
                let s = S1d5p {
                    w: [-0.04, 0.22, 0.5, 0.28, -0.02],
                };
                let mut oracle = init.clone();
                Plan::new(Shape::d1(n))
                    .method(Method::Scalar)
                    .isa(isa)
                    .star1(s)
                    .unwrap()
                    .run(&mut oracle, t);
                for m in Method::ALL {
                    let mut g = init.clone();
                    Plan::new(Shape::d1(n))
                        .method(m)
                        .isa(isa)
                        .star1(s)
                        .unwrap()
                        .run(&mut g, t);
                    assert_eq!(max_abs_diff(&g, &oracle), 0.0, "1d5p/{m}/{isa}/n={n}/t={t}");
                }
            }
        }
    }
}

#[test]
fn plan_2d_every_method_matches_scalar_oracle() {
    let isa = Isa::detect_best();
    let (nx, ny) = (130usize, 7usize);
    for t in [1usize, 2, 3] {
        let init = grid2(nx, ny, 5);

        let s = S2d5p {
            wx: [0.2, 0.31, 0.18],
            wy: [0.11, 0.0, 0.14],
        };
        let mut oracle = init.clone();
        Plan::new(Shape::d2(nx, ny))
            .method(Method::Scalar)
            .isa(isa)
            .star2(s)
            .unwrap()
            .run(&mut oracle, t);
        for m in Method::ALL {
            let mut g = init.clone();
            Plan::new(Shape::d2(nx, ny))
                .method(m)
                .isa(isa)
                .star2(s)
                .unwrap()
                .run(&mut g, t);
            assert_eq!(max_abs_diff(&g, &oracle), 0.0, "2d5p/{m}/t={t}");
        }

        let s = S2d9p {
            w: [0.1, 0.12, 0.09, 0.13, 0.07, 0.11, 0.1, 0.08, 0.1],
        };
        let mut oracle = init.clone();
        Plan::new(Shape::d2(nx, ny))
            .method(Method::Scalar)
            .isa(isa)
            .box2(s)
            .unwrap()
            .run(&mut oracle, t);
        for m in Method::ALL {
            let mut g = init.clone();
            Plan::new(Shape::d2(nx, ny))
                .method(m)
                .isa(isa)
                .box2(s)
                .unwrap()
                .run(&mut g, t);
            assert_eq!(max_abs_diff(&g, &oracle), 0.0, "2d9p/{m}/t={t}");
        }
    }
}

#[test]
fn plan_3d_every_method_matches_scalar_oracle() {
    let isa = Isa::detect_best();
    let (nx, ny, nz) = (70usize, 4usize, 3usize);
    for t in [1usize, 2, 3] {
        let init = grid3(nx, ny, nz, 9);

        let s = S3d7p {
            wx: [0.1, 0.3, 0.12],
            wy: [0.09, 0.0, 0.11],
            wz: [0.08, 0.0, 0.07],
        };
        let mut oracle = init.clone();
        Plan::new(Shape::d3(nx, ny, nz))
            .method(Method::Scalar)
            .isa(isa)
            .star3(s)
            .unwrap()
            .run(&mut oracle, t);
        for m in Method::ALL {
            let mut g = init.clone();
            Plan::new(Shape::d3(nx, ny, nz))
                .method(m)
                .isa(isa)
                .star3(s)
                .unwrap()
                .run(&mut g, t);
            assert_eq!(max_abs_diff(&g, &oracle), 0.0, "3d7p/{m}/t={t}");
        }

        let mut w = [0.0f64; 27];
        let mut r = StdRng::seed_from_u64(33);
        for x in w.iter_mut() {
            *x = r.random_range(0.0..0.037);
        }
        let s = S3d27p { w };
        let mut oracle = init.clone();
        Plan::new(Shape::d3(nx, ny, nz))
            .method(Method::Scalar)
            .isa(isa)
            .box3(s)
            .unwrap()
            .run(&mut oracle, t);
        for m in Method::ALL {
            let mut g = init.clone();
            Plan::new(Shape::d3(nx, ny, nz))
                .method(m)
                .isa(isa)
                .box3(s)
                .unwrap()
                .run(&mut g, t);
            assert_eq!(max_abs_diff(&g, &oracle), 0.0, "3d27p/{m}/t={t}");
        }
    }
}

// ---------------------------------------------------------------------------
// Scratch-reuse correctness: two t-step runs == one 2t-step run, exactly
// ---------------------------------------------------------------------------

#[test]
fn two_consecutive_runs_equal_one_double_run_every_method() {
    for isa in isas() {
        for m in Method::ALL {
            for (n, t) in [(257usize, 3usize), (600, 4)] {
                let init = grid1(n, 77 + n as u64);
                let s = S1d3p {
                    w: [0.28, 0.5, 0.21],
                };

                let mut plan = Plan::new(Shape::d1(n)).method(m).isa(isa).star1(s).unwrap();
                let mut twice = init.clone();
                plan.run(&mut twice, t);
                plan.run(&mut twice, t); // reuses scratch from the first call

                let mut once = init.clone();
                Plan::new(Shape::d1(n))
                    .method(m)
                    .isa(isa)
                    .star1(s)
                    .unwrap()
                    .run(&mut once, 2 * t);

                assert_eq!(
                    max_abs_diff(&twice, &once),
                    0.0,
                    "{m}/{isa}/n={n}/t={t}: scratch reuse changed the result"
                );
            }
        }
    }
}

#[test]
fn two_consecutive_runs_equal_one_double_run_2d_3d() {
    let isa = Isa::detect_best();
    for m in Method::ALL {
        let (nx, ny, t) = (96usize, 6usize, 2usize);
        let init = grid2(nx, ny, 3);
        let s = S2d5p {
            wx: [0.2, 0.3, 0.19],
            wy: [0.12, 0.0, 0.14],
        };
        let mut plan = Plan::new(Shape::d2(nx, ny))
            .method(m)
            .isa(isa)
            .star2(s)
            .unwrap();
        let mut twice = init.clone();
        plan.run(&mut twice, t);
        plan.run(&mut twice, t);
        let mut once = init.clone();
        Plan::new(Shape::d2(nx, ny))
            .method(m)
            .isa(isa)
            .star2(s)
            .unwrap()
            .run(&mut once, 2 * t);
        assert_eq!(max_abs_diff(&twice, &once), 0.0, "2d/{m}");

        let (nx, ny, nz) = (66usize, 4usize, 3usize);
        let init = grid3(nx, ny, nz, 8);
        let s = S3d7p {
            wx: [0.1, 0.29, 0.12],
            wy: [0.1, 0.0, 0.11],
            wz: [0.07, 0.0, 0.06],
        };
        let mut plan = Plan::new(Shape::d3(nx, ny, nz))
            .method(m)
            .isa(isa)
            .star3(s)
            .unwrap();
        let mut twice = init.clone();
        plan.run(&mut twice, t);
        plan.run(&mut twice, t);
        let mut once = init.clone();
        Plan::new(Shape::d3(nx, ny, nz))
            .method(m)
            .isa(isa)
            .star3(s)
            .unwrap()
            .run(&mut once, 2 * t);
        assert_eq!(max_abs_diff(&twice, &once), 0.0, "3d/{m}");
    }
}

#[test]
fn session_runs_compose_exactly() {
    for isa in isas() {
        for m in Method::ALL {
            let n = 513usize;
            let t = 3usize;
            let init = grid1(n, 101);
            let s = S1d3p {
                w: [0.33, 0.34, 0.32],
            };

            // Layout-resident: two runs inside one session (one transform
            // round-trip total).
            let mut plan = Plan::new(Shape::d1(n)).method(m).isa(isa).star1(s).unwrap();
            let mut resident = init.clone();
            {
                let mut sess = plan.session(&mut resident);
                sess.run(t);
                sess.run(t);
            }

            let mut once = init.clone();
            Plan::new(Shape::d1(n))
                .method(m)
                .isa(isa)
                .star1(s)
                .unwrap()
                .run(&mut once, 2 * t);

            assert_eq!(
                max_abs_diff(&resident, &once),
                0.0,
                "{m}/{isa}: session composition changed the result"
            );
        }
    }
}

#[test]
fn empty_session_restores_natural_layout() {
    let isa = Isa::detect_best();
    for m in Method::ALL {
        let n = 300usize;
        let init = grid1(n, 55);
        let mut plan = Plan::new(Shape::d1(n))
            .method(m)
            .isa(isa)
            .star1(S1d3p::heat())
            .unwrap();
        let mut g = init.clone();
        drop(plan.session(&mut g)); // enter + exit, no stepping
        assert_eq!(
            max_abs_diff(&g, &init),
            0.0,
            "{m}: empty session not identity"
        );
    }
}

#[test]
fn plan_is_reusable_across_grids_of_the_same_shape() {
    let isa = Isa::detect_best();
    let n = 400usize;
    let s = S1d3p::heat();
    let mut plan = Plan::new(Shape::d1(n))
        .method(Method::TransLayout2)
        .isa(isa)
        .star1(s)
        .unwrap();
    for seed in [1u64, 2, 3] {
        let init = grid1(n, seed);
        let mut via_plan = init.clone();
        plan.run(&mut via_plan, 5);
        let mut fresh = init.clone();
        Plan::new(Shape::d1(n))
            .method(Method::TransLayout2)
            .isa(isa)
            .star1(s)
            .unwrap()
            .run(&mut fresh, 5);
        assert_eq!(max_abs_diff(&via_plan, &fresh), 0.0, "seed={seed}");
    }
}

// ---------------------------------------------------------------------------
// Tiled plans through the Plan API directly
// ---------------------------------------------------------------------------

#[test]
fn tiled_plans_match_scalar_oracle() {
    let isa = Isa::detect_best();
    let n = 1000usize;
    let t = 13usize;
    let s = S1d3p {
        w: [0.21, 0.55, 0.2],
    };
    let init = grid1(n, 4);
    let mut oracle = init.clone();
    Plan::new(Shape::d1(n))
        .method(Method::Scalar)
        .isa(isa)
        .star1(s)
        .unwrap()
        .run(&mut oracle, t);

    for m in [
        Method::MultiLoad,
        Method::Reorg,
        Method::TransLayout,
        Method::TransLayout2,
    ] {
        let mut plan = Plan::new(Shape::d1(n))
            .method(m)
            .isa(isa)
            .tiling(Tiling::Tessellate {
                w: [128, 0, 0],
                h: 16,
                threads: 4,
            })
            .star1(s)
            .unwrap();
        let mut g = init.clone();
        plan.run(&mut g, t);
        assert_eq!(max_abs_diff(&g, &oracle), 0.0, "tessellate/{m}");
    }

    let mut plan = Plan::new(Shape::d1(n))
        .method(Method::Dlt)
        .isa(isa)
        .tiling(Tiling::Split {
            w: 24,
            h: 6,
            threads: 4,
        })
        .star1(s)
        .unwrap();
    let mut g = init.clone();
    plan.run(&mut g, t);
    assert_eq!(max_abs_diff(&g, &oracle), 0.0, "split/dlt");
}

#[test]
fn tiled_plan_reuse_matches_fresh_plans() {
    // A tessellate plan (pool + scratch held) run twice equals one 2t run.
    let isa = Isa::detect_best();
    let (n, t) = (800usize, 8usize);
    let s = S1d3p::heat();
    let init = grid1(n, 6);

    let mut plan = Plan::new(Shape::d1(n))
        .method(Method::TransLayout2)
        .isa(isa)
        .tiling(Tiling::Tessellate {
            w: [100, 0, 0],
            h: 10,
            threads: 2,
        })
        .star1(s)
        .unwrap();
    let mut twice = init.clone();
    plan.run(&mut twice, t);
    plan.run(&mut twice, t);

    let mut once = init.clone();
    Plan::new(Shape::d1(n))
        .method(Method::TransLayout2)
        .isa(isa)
        .tiling(Tiling::Tessellate {
            w: [100, 0, 0],
            h: 10,
            threads: 2,
        })
        .star1(s)
        .unwrap()
        .run(&mut once, 2 * t);

    assert_eq!(max_abs_diff(&twice, &once), 0.0);
}

#[test]
fn tiled_2d_3d_plans_match_scalar_oracle() {
    let isa = Isa::detect_best();

    let (nx, ny, t) = (150usize, 40usize, 11usize);
    let s = S2d5p {
        wx: [0.2, 0.3, 0.19],
        wy: [0.12, 0.0, 0.14],
    };
    let init = grid2(nx, ny, 4);
    let mut oracle = init.clone();
    Plan::new(Shape::d2(nx, ny))
        .method(Method::Scalar)
        .isa(isa)
        .star2(s)
        .unwrap()
        .run(&mut oracle, t);
    let mut plan = Plan::new(Shape::d2(nx, ny))
        .method(Method::TransLayout2)
        .isa(isa)
        .tiling(Tiling::Tessellate {
            w: [48, 16, 0],
            h: 6,
            threads: 4,
        })
        .star2(s)
        .unwrap();
    let mut g = init.clone();
    plan.run(&mut g, t);
    assert_eq!(max_abs_diff(&g, &oracle), 0.0, "tessellate2");
    let mut plan = Plan::new(Shape::d2(nx, ny))
        .method(Method::Dlt)
        .isa(isa)
        .tiling(Tiling::Split {
            w: 12,
            h: 5,
            threads: 4,
        })
        .star2(s)
        .unwrap();
    let mut g = init.clone();
    plan.run(&mut g, t);
    assert_eq!(max_abs_diff(&g, &oracle), 0.0, "split2");

    let (nx, ny, nz, t) = (80usize, 20usize, 16usize, 7usize);
    let s = S3d7p {
        wx: [0.1, 0.28, 0.12],
        wy: [0.09, 0.0, 0.11],
        wz: [0.08, 0.0, 0.07],
    };
    let init = grid3(nx, ny, nz, 12);
    let mut oracle = init.clone();
    Plan::new(Shape::d3(nx, ny, nz))
        .method(Method::Scalar)
        .isa(isa)
        .star3(s)
        .unwrap()
        .run(&mut oracle, t);
    let mut plan = Plan::new(Shape::d3(nx, ny, nz))
        .method(Method::TransLayout2)
        .isa(isa)
        .tiling(Tiling::Tessellate {
            w: [40, 10, 8],
            h: 4,
            threads: 4,
        })
        .star3(s)
        .unwrap();
    let mut g = init.clone();
    plan.run(&mut g, t);
    assert_eq!(max_abs_diff(&g, &oracle), 0.0, "tessellate3");
    let mut plan = Plan::new(Shape::d3(nx, ny, nz))
        .method(Method::Dlt)
        .isa(isa)
        .tiling(Tiling::Split {
            w: 6,
            h: 3,
            threads: 4,
        })
        .star3(s)
        .unwrap();
    let mut g = init.clone();
    plan.run(&mut g, t);
    assert_eq!(max_abs_diff(&g, &oracle), 0.0, "split3");
}

#[test]
fn zero_steps_is_identity_through_plan() {
    let isa = Isa::detect_best();
    let init = grid1(128, 2);
    for m in Method::ALL {
        let mut plan = Plan::new(Shape::d1(128))
            .method(m)
            .isa(isa)
            .star1(S1d3p::heat())
            .unwrap();
        let mut g = init.clone();
        plan.run(&mut g, 0);
        assert_eq!(max_abs_diff(&g, &init), 0.0, "{m}");
    }
}

#[test]
#[should_panic(expected = "does not match the plan's shape")]
fn mismatched_grid_panics() {
    let mut plan = Plan::new(Shape::d1(128)).star1(S1d3p::heat()).unwrap();
    let mut g = Grid1::filled(64, 0.0);
    plan.run(&mut g, 1);
}
