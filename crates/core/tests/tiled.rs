//! Tiled-vs-untiled equivalence: every tiled plan must produce results
//! bit-identical to the untiled scalar reference — tiling reorders
//! space-time traversal but never changes a cell's accumulation.
//!
//! The matrix drives [`Plan`] directly (the single entry point).

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

fn tess_methods() -> [Method; 4] {
    [
        Method::MultiLoad,
        Method::Reorg,
        Method::TransLayout,
        Method::TransLayout2,
    ]
}

fn scalar1(init: &Grid1, s: S1d3p, t: usize, isa: Isa) -> Grid1 {
    let mut g = init.clone();
    Plan::new(Shape::d1(g.n()))
        .method(Method::Scalar)
        .isa(isa)
        .star1(s)
        .unwrap()
        .run(&mut g, t);
    g
}

#[test]
fn tessellate1_matches_untiled_bitwise() {
    let s = S1d3p {
        w: [0.21, 0.55, 0.2],
    };
    for isa in isas() {
        for (n, w, h, t) in [
            (400usize, 80usize, 8usize, 16usize),
            (400, 80, 8, 13), // partial final chunk + odd t
            (1000, 128, 16, 32),
            (257, 64, 4, 9),
        ] {
            let init = grid1(n, n as u64);
            let reference = scalar1(&init, s, t, isa);
            for m in tess_methods() {
                for threads in [1usize, 4] {
                    let mut g = init.clone();
                    Plan::new(Shape::d1(n))
                        .method(m)
                        .isa(isa)
                        .tiling(Tiling::Tessellate {
                            w: [w, 0, 0],
                            h,
                            threads,
                        })
                        .star1(s)
                        .unwrap()
                        .run(&mut g, t);
                    let d = max_abs_diff(&g, &reference);
                    assert_eq!(d, 0.0, "{m}/{isa}/n={n}/w={w}/h={h}/t={t}/thr={threads}");
                }
            }
        }
    }
}

#[test]
fn tessellate1_r2_matches_untiled() {
    let s = S1d5p {
        w: [-0.04, 0.2, 0.5, 0.3, -0.02],
    };
    for isa in isas() {
        let (n, w, h, t) = (600usize, 120usize, 8usize, 17usize);
        let init = grid1(n, 9);
        let mut reference = init.clone();
        Plan::new(Shape::d1(n))
            .method(Method::Scalar)
            .isa(isa)
            .star1(s)
            .unwrap()
            .run(&mut reference, t);
        for m in tess_methods() {
            let mut g = init.clone();
            Plan::new(Shape::d1(n))
                .method(m)
                .isa(isa)
                .tiling(Tiling::Tessellate {
                    w: [w, 0, 0],
                    h,
                    threads: 4,
                })
                .star1(s)
                .unwrap()
                .run(&mut g, t);
            assert_eq!(max_abs_diff(&g, &reference), 0.0, "{m}/{isa}");
        }
    }
}

#[test]
fn split1_matches_untiled_bitwise() {
    let s = S1d3p {
        w: [0.3, 0.45, 0.22],
    };
    for isa in isas() {
        for (n, w, h, t) in [
            (1024usize, 32usize, 8usize, 16usize),
            (1000, 24, 6, 13),
            (520, 16, 4, 8),
        ] {
            let init = grid1(n, 31 + n as u64);
            let reference = scalar1(&init, s, t, isa);
            for threads in [1usize, 4] {
                let mut g = init.clone();
                Plan::new(Shape::d1(n))
                    .method(Method::Dlt)
                    .isa(isa)
                    .tiling(Tiling::Split { w, h, threads })
                    .star1(s)
                    .unwrap()
                    .run(&mut g, t);
                let d = max_abs_diff(&g, &reference);
                assert_eq!(d, 0.0, "split/{isa}/n={n}/w={w}/h={h}/t={t}/thr={threads}");
            }
        }
    }
}

fn grid2(nx: usize, ny: usize, seed: u64) -> Grid2 {
    let mut r = StdRng::seed_from_u64(seed);
    let halo = r.random_range(-1.0..1.0);
    Grid2::from_fn(nx, ny, 1, halo, |_, _| r.random_range(-1.0..1.0))
}

#[test]
fn tessellate2_matches_untiled() {
    let s = S2d5p {
        wx: [0.2, 0.3, 0.19],
        wy: [0.12, 0.0, 0.14],
    };
    let isa = Isa::detect_best();
    let (nx, ny, t) = (150usize, 40usize, 11usize);
    let init = grid2(nx, ny, 4);
    let mut reference = init.clone();
    Plan::new(Shape::d2(nx, ny))
        .method(Method::Scalar)
        .isa(isa)
        .star2(s)
        .unwrap()
        .run(&mut reference, t);
    for m in tess_methods() {
        for threads in [1usize, 4] {
            let mut g = init.clone();
            Plan::new(Shape::d2(nx, ny))
                .method(m)
                .isa(isa)
                .tiling(Tiling::Tessellate {
                    w: [48, 16, 0],
                    h: 6,
                    threads,
                })
                .star2(s)
                .unwrap()
                .run(&mut g, t);
            let d = max_abs_diff(&g, &reference);
            assert_eq!(d, 0.0, "{m}/{isa}/thr={threads}");
        }
    }
}

#[test]
fn tessellate2_box_matches_untiled() {
    let mut r = StdRng::seed_from_u64(2);
    let mut w = [0.0f64; 9];
    for x in w.iter_mut() {
        *x = r.random_range(0.0..0.11);
    }
    let s = S2d9p { w };
    let isa = Isa::detect_best();
    let (nx, ny, t) = (120usize, 30usize, 7usize);
    let init = grid2(nx, ny, 6);
    let mut reference = init.clone();
    Plan::new(Shape::d2(nx, ny))
        .method(Method::Scalar)
        .isa(isa)
        .box2(s)
        .unwrap()
        .run(&mut reference, t);
    for m in tess_methods() {
        let mut g = init.clone();
        Plan::new(Shape::d2(nx, ny))
            .method(m)
            .isa(isa)
            .tiling(Tiling::Tessellate {
                w: [40, 12, 0],
                h: 5,
                threads: 4,
            })
            .box2(s)
            .unwrap()
            .run(&mut g, t);
        assert_eq!(max_abs_diff(&g, &reference), 0.0, "{m}/{isa}");
    }
}

#[test]
fn split2_matches_untiled() {
    let s = S2d5p {
        wx: [0.21, 0.33, 0.2],
        wy: [0.1, 0.0, 0.11],
    };
    let isa = Isa::detect_best();
    let (nx, ny, t) = (130usize, 36usize, 9usize);
    let init = grid2(nx, ny, 8);
    let mut reference = init.clone();
    Plan::new(Shape::d2(nx, ny))
        .method(Method::Scalar)
        .isa(isa)
        .star2(s)
        .unwrap()
        .run(&mut reference, t);
    let mut g = init.clone();
    Plan::new(Shape::d2(nx, ny))
        .method(Method::Dlt)
        .isa(isa)
        .tiling(Tiling::Split {
            w: 12,
            h: 5,
            threads: 4,
        })
        .star2(s)
        .unwrap()
        .run(&mut g, t);
    assert_eq!(max_abs_diff(&g, &reference), 0.0);

    let mut rr = StdRng::seed_from_u64(3);
    let mut w = [0.0f64; 9];
    for x in w.iter_mut() {
        *x = rr.random_range(0.0..0.1);
    }
    let sb = S2d9p { w };
    let mut reference = init.clone();
    Plan::new(Shape::d2(nx, ny))
        .method(Method::Scalar)
        .isa(isa)
        .box2(sb)
        .unwrap()
        .run(&mut reference, t);
    let mut g = init.clone();
    Plan::new(Shape::d2(nx, ny))
        .method(Method::Dlt)
        .isa(isa)
        .tiling(Tiling::Split {
            w: 12,
            h: 5,
            threads: 4,
        })
        .box2(sb)
        .unwrap()
        .run(&mut g, t);
    assert_eq!(max_abs_diff(&g, &reference), 0.0);
}

fn grid3(nx: usize, ny: usize, nz: usize, seed: u64) -> Grid3 {
    let mut r = StdRng::seed_from_u64(seed);
    let halo = r.random_range(-1.0..1.0);
    Grid3::from_fn(nx, ny, nz, 1, halo, |_, _, _| r.random_range(-1.0..1.0))
}

#[test]
fn tessellate3_matches_untiled() {
    let s = S3d7p {
        wx: [0.1, 0.28, 0.12],
        wy: [0.09, 0.0, 0.11],
        wz: [0.08, 0.0, 0.07],
    };
    let isa = Isa::detect_best();
    let (nx, ny, nz, t) = (80usize, 20usize, 16usize, 7usize);
    let init = grid3(nx, ny, nz, 12);
    let mut reference = init.clone();
    Plan::new(Shape::d3(nx, ny, nz))
        .method(Method::Scalar)
        .isa(isa)
        .star3(s)
        .unwrap()
        .run(&mut reference, t);
    for m in tess_methods() {
        let mut g = init.clone();
        Plan::new(Shape::d3(nx, ny, nz))
            .method(m)
            .isa(isa)
            .tiling(Tiling::Tessellate {
                w: [40, 10, 8],
                h: 4,
                threads: 4,
            })
            .star3(s)
            .unwrap()
            .run(&mut g, t);
        assert_eq!(max_abs_diff(&g, &reference), 0.0, "{m}/{isa}");
    }
}

#[test]
fn tessellate3_box_matches_untiled() {
    let mut r = StdRng::seed_from_u64(5);
    let mut w = [0.0f64; 27];
    for x in w.iter_mut() {
        *x = r.random_range(0.0..0.037);
    }
    let s = S3d27p { w };
    let isa = Isa::detect_best();
    let (nx, ny, nz, t) = (72usize, 18usize, 12usize, 5usize);
    let init = grid3(nx, ny, nz, 14);
    let mut reference = init.clone();
    Plan::new(Shape::d3(nx, ny, nz))
        .method(Method::Scalar)
        .isa(isa)
        .box3(s)
        .unwrap()
        .run(&mut reference, t);
    for m in tess_methods() {
        let mut g = init.clone();
        Plan::new(Shape::d3(nx, ny, nz))
            .method(m)
            .isa(isa)
            .tiling(Tiling::Tessellate {
                w: [36, 8, 6],
                h: 3,
                threads: 4,
            })
            .box3(s)
            .unwrap()
            .run(&mut g, t);
        assert_eq!(max_abs_diff(&g, &reference), 0.0, "{m}/{isa}");
    }
}

#[test]
fn split3_matches_untiled() {
    let s = S3d7p {
        wx: [0.11, 0.3, 0.1],
        wy: [0.1, 0.0, 0.09],
        wz: [0.07, 0.0, 0.06],
    };
    let isa = Isa::detect_best();
    let (nx, ny, nz, t) = (70usize, 16usize, 14usize, 6usize);
    let init = grid3(nx, ny, nz, 21);
    let mut reference = init.clone();
    Plan::new(Shape::d3(nx, ny, nz))
        .method(Method::Scalar)
        .isa(isa)
        .star3(s)
        .unwrap()
        .run(&mut reference, t);
    let mut g = init.clone();
    Plan::new(Shape::d3(nx, ny, nz))
        .method(Method::Dlt)
        .isa(isa)
        .tiling(Tiling::Split {
            w: 6,
            h: 3,
            threads: 4,
        })
        .star3(s)
        .unwrap()
        .run(&mut g, t);
    assert_eq!(max_abs_diff(&g, &reference), 0.0);
}

#[test]
fn parallel_equals_serial_bitwise() {
    let s = S1d3p::heat();
    let isa = Isa::detect_best();
    let init = grid1(2000, 77);
    let tiled = |threads: usize| {
        let mut g = init.clone();
        Plan::new(Shape::d1(2000))
            .method(Method::TransLayout2)
            .isa(isa)
            .tiling(Tiling::Tessellate {
                w: [256, 0, 0],
                h: 16,
                threads,
            })
            .star1(s)
            .unwrap()
            .run(&mut g, 24);
        g
    };
    let serial = tiled(1);
    for threads in [2usize, 8, 16] {
        let par = tiled(threads);
        assert_eq!(max_abs_diff(&par, &serial), 0.0, "threads={threads}");
    }
}

#[test]
fn sessions_amortize_tiled_stepping_exactly() {
    // One tiled session stepping 4 × 8 steps equals a single 32-step run.
    let s = S1d3p::heat();
    let isa = Isa::detect_best();
    let init = grid1(1500, 31);
    let mut plan = Plan::new(Shape::d1(1500))
        .method(Method::TransLayout2)
        .isa(isa)
        .tiling(Tiling::Tessellate {
            w: [200, 0, 0],
            h: 8,
            threads: 4,
        })
        .star1(s)
        .unwrap();
    let mut g = init.clone();
    {
        let mut sess = plan.session(&mut g);
        for _ in 0..4 {
            sess.run(8);
        }
    }
    let mut once = init.clone();
    Plan::new(Shape::d1(1500))
        .method(Method::TransLayout2)
        .isa(isa)
        .tiling(Tiling::Tessellate {
            w: [200, 0, 0],
            h: 8,
            threads: 4,
        })
        .star1(s)
        .unwrap()
        .run(&mut once, 32);
    assert_eq!(max_abs_diff(&g, &once), 0.0);
}
