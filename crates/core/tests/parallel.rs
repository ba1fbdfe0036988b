//! Parallelism-knob coverage: domain-decomposed runs must be bit-exact
//! against the scalar oracle for every Method × stencil family at several
//! thread counts (including counts that do not divide the grid), identical
//! run-to-run, and identical to sequential execution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_core::exec::{Parallelism, Plan, PlanError, Shape, Tiling};
use stencil_core::verify::max_abs_diff;
use stencil_core::{Grid1, Grid2, Grid3, Method, S1d3p, S1d5p, S2d5p, S2d9p, S3d27p, S3d7p};
use stencil_simd::Isa;

/// Thread counts exercised everywhere: sequential, even, and a prime that
/// does not divide any of the grid extents below (uneven bands).
const THREADS: [usize; 3] = [1, 2, 7];

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
// Oracle bit-exactness, every method × stencil × thread count
// ---------------------------------------------------------------------------

#[test]
fn parallel_1d_every_method_matches_scalar_oracle() {
    let isa = Isa::detect_best();
    let vl = isa.lanes();
    // 257 and 601 are prime-ish and never divisible by 2 or 7 bands. The
    // rest sit at the edge of the parallel DLT column split (cols = n/vl
    // columns of width cols.div_ceil(threads), split only when cols > 4r):
    // 4·vl is the 1d3p sequential fallback, 5·vl + 3 the smallest 1d3p
    // split (width 1 at 7 threads), 9·vl + 1 the smallest 1d5p split.
    for n in [257usize, 601, 4 * vl, 5 * vl + 3, 9 * vl + 1] {
        for t in [1usize, 2, 5] {
            let init = grid1(n, 13 + n as u64);

            let s3 = S1d3p {
                w: [0.3, 0.45, 0.2],
            };
            let mut oracle = init.clone();
            Plan::new(Shape::d1(n))
                .method(Method::Scalar)
                .isa(isa)
                .parallelism(Parallelism::Off)
                .star1(s3)
                .unwrap()
                .run(&mut oracle, t);
            for m in Method::ALL {
                for k in THREADS {
                    let mut g = init.clone();
                    Plan::new(Shape::d1(n))
                        .method(m)
                        .isa(isa)
                        .parallelism(Parallelism::Threads(k))
                        .star1(s3)
                        .unwrap()
                        .run(&mut g, t);
                    assert_eq!(
                        max_abs_diff(&g, &oracle),
                        0.0,
                        "1d3p/{m}/threads={k}/n={n}/t={t}"
                    );
                }
            }

            let s5 = S1d5p {
                w: [-0.04, 0.22, 0.5, 0.28, -0.02],
            };
            let mut oracle = init.clone();
            Plan::new(Shape::d1(n))
                .method(Method::Scalar)
                .isa(isa)
                .parallelism(Parallelism::Off)
                .star1(s5)
                .unwrap()
                .run(&mut oracle, t);
            for m in Method::ALL {
                for k in THREADS {
                    let mut g = init.clone();
                    Plan::new(Shape::d1(n))
                        .method(m)
                        .isa(isa)
                        .parallelism(Parallelism::Threads(k))
                        .star1(s5)
                        .unwrap()
                        .run(&mut g, t);
                    assert_eq!(
                        max_abs_diff(&g, &oracle),
                        0.0,
                        "1d5p/{m}/threads={k}/n={n}/t={t}"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_2d_every_method_matches_scalar_oracle() {
    let isa = Isa::detect_best();
    // ny = 13: 7 bands of uneven height; ny = 5 < 7 threads (band clamp).
    for (nx, ny) in [(130usize, 13usize), (97, 5)] {
        for t in [1usize, 3] {
            let init = grid2(nx, ny, 21);

            let s = S2d5p {
                wx: [0.2, 0.31, 0.18],
                wy: [0.11, 0.0, 0.14],
            };
            let mut oracle = init.clone();
            Plan::new(Shape::d2(nx, ny))
                .method(Method::Scalar)
                .isa(isa)
                .parallelism(Parallelism::Off)
                .star2(s)
                .unwrap()
                .run(&mut oracle, t);
            for m in Method::ALL {
                for k in THREADS {
                    let mut g = init.clone();
                    Plan::new(Shape::d2(nx, ny))
                        .method(m)
                        .isa(isa)
                        .parallelism(Parallelism::Threads(k))
                        .star2(s)
                        .unwrap()
                        .run(&mut g, t);
                    assert_eq!(
                        max_abs_diff(&g, &oracle),
                        0.0,
                        "2d5p/{m}/threads={k}/ny={ny}/t={t}"
                    );
                }
            }

            let s = S2d9p {
                w: [0.1, 0.12, 0.09, 0.13, 0.07, 0.11, 0.1, 0.08, 0.1],
            };
            let mut oracle = init.clone();
            Plan::new(Shape::d2(nx, ny))
                .method(Method::Scalar)
                .isa(isa)
                .parallelism(Parallelism::Off)
                .box2(s)
                .unwrap()
                .run(&mut oracle, t);
            for m in Method::ALL {
                for k in THREADS {
                    let mut g = init.clone();
                    Plan::new(Shape::d2(nx, ny))
                        .method(m)
                        .isa(isa)
                        .parallelism(Parallelism::Threads(k))
                        .box2(s)
                        .unwrap()
                        .run(&mut g, t);
                    assert_eq!(
                        max_abs_diff(&g, &oracle),
                        0.0,
                        "2d9p/{m}/threads={k}/ny={ny}/t={t}"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_3d_every_method_matches_scalar_oracle() {
    let isa = Isa::detect_best();
    // nz = 5 and 3: fewer planes than the 7-thread band request.
    for (nx, ny, nz) in [(70usize, 6usize, 5usize), (66, 4, 3)] {
        for t in [1usize, 2] {
            let init = grid3(nx, ny, nz, 31);

            let s = S3d7p {
                wx: [0.1, 0.3, 0.12],
                wy: [0.09, 0.0, 0.11],
                wz: [0.08, 0.0, 0.07],
            };
            let mut oracle = init.clone();
            Plan::new(Shape::d3(nx, ny, nz))
                .method(Method::Scalar)
                .isa(isa)
                .parallelism(Parallelism::Off)
                .star3(s)
                .unwrap()
                .run(&mut oracle, t);
            for m in Method::ALL {
                for k in THREADS {
                    let mut g = init.clone();
                    Plan::new(Shape::d3(nx, ny, nz))
                        .method(m)
                        .isa(isa)
                        .parallelism(Parallelism::Threads(k))
                        .star3(s)
                        .unwrap()
                        .run(&mut g, t);
                    assert_eq!(
                        max_abs_diff(&g, &oracle),
                        0.0,
                        "3d7p/{m}/threads={k}/nz={nz}/t={t}"
                    );
                }
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
                .parallelism(Parallelism::Off)
                .box3(s)
                .unwrap()
                .run(&mut oracle, t);
            for m in Method::ALL {
                for k in THREADS {
                    let mut g = init.clone();
                    Plan::new(Shape::d3(nx, ny, nz))
                        .method(m)
                        .isa(isa)
                        .parallelism(Parallelism::Threads(k))
                        .box3(s)
                        .unwrap()
                        .run(&mut g, t);
                    assert_eq!(
                        max_abs_diff(&g, &oracle),
                        0.0,
                        "3d27p/{m}/threads={k}/nz={nz}/t={t}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism and sequential equivalence
// ---------------------------------------------------------------------------

#[test]
fn two_identical_parallel_runs_produce_identical_bits() {
    let isa = Isa::detect_best();
    for m in Method::ALL {
        let n = 1001usize;
        let init = grid1(n, 99);
        let s = S1d3p {
            w: [0.28, 0.5, 0.21],
        };
        let run = || {
            let mut g = init.clone();
            Plan::new(Shape::d1(n))
                .method(m)
                .isa(isa)
                .parallelism(Parallelism::Threads(7))
                .star1(s)
                .unwrap()
                .run(&mut g, 9);
            g
        };
        let (a, b) = (run(), run());
        assert_eq!(
            max_abs_diff(&a, &b),
            0.0,
            "{m}: parallel run not deterministic"
        );
    }

    let (nx, ny) = (150usize, 41usize);
    let init = grid2(nx, ny, 17);
    let s = S2d5p::heat();
    let run = || {
        let mut g = init.clone();
        Plan::new(Shape::d2(nx, ny))
            .method(Method::TransLayout2)
            .isa(isa)
            .parallelism(Parallelism::Threads(7))
            .star2(s)
            .unwrap()
            .run(&mut g, 6);
        g
    };
    let (a, b) = (run(), run());
    assert_eq!(
        max_abs_diff(&a, &b),
        0.0,
        "2d parallel run not deterministic"
    );
}

#[test]
fn off_equals_threads_one_equals_threads_many() {
    let isa = Isa::detect_best();
    let n = 517usize;
    let init = grid1(n, 5);
    let s = S1d3p::heat();
    for m in Method::ALL {
        let mut results = Vec::new();
        for par in [
            Parallelism::Off,
            Parallelism::Threads(1),
            Parallelism::Threads(4),
            Parallelism::Auto,
        ] {
            let mut g = init.clone();
            Plan::new(Shape::d1(n))
                .method(m)
                .isa(isa)
                .parallelism(par)
                .star1(s)
                .unwrap()
                .run(&mut g, 7);
            results.push(g);
        }
        for g in &results[1..] {
            assert_eq!(
                max_abs_diff(g, &results[0]),
                0.0,
                "{m}: parallelism changed the result"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Sessions and reuse under parallelism
// ---------------------------------------------------------------------------

#[test]
fn parallel_session_runs_compose_exactly() {
    let isa = Isa::detect_best();
    for m in Method::ALL {
        let (n, t) = (513usize, 3usize);
        let init = grid1(n, 101);
        let s = S1d3p {
            w: [0.33, 0.34, 0.32],
        };

        let mut plan = Plan::new(Shape::d1(n))
            .method(m)
            .isa(isa)
            .parallelism(Parallelism::Threads(3))
            .star1(s)
            .unwrap();
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
            .parallelism(Parallelism::Off)
            .star1(s)
            .unwrap()
            .run(&mut once, 2 * t);

        assert_eq!(
            max_abs_diff(&resident, &once),
            0.0,
            "{m}: parallel session composition changed the result"
        );
    }
}

#[test]
fn pool_is_reused_across_plan_runs() {
    // Repeated runs on one plan must keep working (the persistent pool is
    // built once at plan compile time and survives across dispatches).
    let isa = Isa::detect_best();
    let (nx, ny) = (96usize, 24usize);
    let init = grid2(nx, ny, 3);
    let s = S2d5p::heat();
    let mut plan = Plan::new(Shape::d2(nx, ny))
        .method(Method::TransLayout)
        .isa(isa)
        .parallelism(Parallelism::Threads(4))
        .star2(s)
        .unwrap();
    let mut twice = init.clone();
    plan.run(&mut twice, 2);
    plan.run(&mut twice, 2);
    let mut once = init.clone();
    Plan::new(Shape::d2(nx, ny))
        .method(Method::TransLayout)
        .isa(isa)
        .parallelism(Parallelism::Off)
        .star2(s)
        .unwrap()
        .run(&mut once, 4);
    assert_eq!(max_abs_diff(&twice, &once), 0.0);
}

// ---------------------------------------------------------------------------
// Knob interaction with tiling
// ---------------------------------------------------------------------------

#[test]
fn parallelism_overrides_tiled_thread_count() {
    let isa = Isa::detect_best();
    let (n, t) = (1000usize, 13usize);
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

    for par in [Parallelism::Off, Parallelism::Threads(2), Parallelism::Auto] {
        let mut plan = Plan::new(Shape::d1(n))
            .method(Method::TransLayout2)
            .isa(isa)
            .tiling(Tiling::Tessellate {
                w: [128, 0, 0],
                h: 16,
                threads: 4,
            })
            .parallelism(par)
            .star1(s)
            .unwrap();
        let expected = match par {
            Parallelism::Off => 1,
            Parallelism::Threads(k) => k,
            Parallelism::Auto => 4, // defers to the tiling's field
        };
        assert_eq!(plan.threads(), expected, "{par:?}");
        let mut g = init.clone();
        plan.run(&mut g, t);
        assert_eq!(max_abs_diff(&g, &oracle), 0.0, "{par:?}");
    }
}

// ---------------------------------------------------------------------------
// Build-time validation
// ---------------------------------------------------------------------------

#[test]
fn builder_rejects_zero_threads() {
    let err = Plan::new(Shape::d1(128))
        .parallelism(Parallelism::Threads(0))
        .star1(S1d3p::heat())
        .unwrap_err();
    assert!(matches!(err, PlanError::BadParallelism(_)), "{err}");
}

#[test]
fn builder_rejects_absurd_thread_counts() {
    let err = Plan::new(Shape::d1(128))
        .parallelism(Parallelism::Threads(1_000_000))
        .star1(S1d3p::heat())
        .unwrap_err();
    assert!(matches!(err, PlanError::BadParallelism(_)), "{err}");
    // The bound holds whichever knob the count came from: under
    // `Parallelism::Auto` a tiling's `threads` field sizes the pool.
    let tess = Tiling::Tessellate {
        w: [256, 0, 0],
        h: 4,
        threads: 5000,
    };
    let split = Tiling::Split {
        w: 64,
        h: 4,
        threads: 5000,
    };
    for (method, tiling) in [(Method::MultiLoad, tess), (Method::Dlt, split)] {
        let err = Plan::new(Shape::d1(4096))
            .method(method)
            .tiling(tiling)
            .star1(S1d3p::heat())
            .unwrap_err();
        assert!(matches!(err, PlanError::BadParallelism(_)), "{err}");
    }
}

#[test]
fn parallel_session_drop_restores_natural_layout() {
    let isa = Isa::detect_best();
    for m in Method::ALL {
        let n = 300usize;
        let init = grid1(n, 55);
        let mut plan = Plan::new(Shape::d1(n))
            .method(m)
            .isa(isa)
            .parallelism(Parallelism::Threads(5))
            .star1(S1d3p::heat())
            .unwrap();
        let mut g = init.clone();
        drop(plan.session(&mut g));
        assert_eq!(
            max_abs_diff(&g, &init),
            0.0,
            "{m}: empty parallel session not identity"
        );
    }
}
