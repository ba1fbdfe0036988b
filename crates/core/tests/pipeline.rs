//! Focused tests for the unroll-and-jam machinery: the in-place k = 2
//! full-row pipeline (Algorithm 1), the tiled range pipeline, and the
//! k-deep 2D/3D ring pipelines — exercised on adversarial geometries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_core::exec::{CompiledPlan, Parallelism, Plan, PlanError, Shape};
use stencil_core::kernels::{scalar, tl, tl2};
use stencil_core::layout::{tl_grid1, SetGeo};
use stencil_core::verify::max_abs_diff;
use stencil_core::{Grid, Grid1, Grid2, Grid3, Method, S1d3p, S1d5p, S2d9p, S3d7p, StencilSpec};
use stencil_simd::{dispatch, Isa};

/// `t` steps on `g` through a throwaway sequential plan built by the
/// typed terminal `compile` names.
fn run<const D: usize>(
    method: Method,
    isa: Isa,
    g: &mut Grid<f64, D>,
    compile: impl FnOnce(Plan) -> Result<CompiledPlan, PlanError>,
    t: usize,
) {
    let plan = Plan::new(g.geo().shape())
        .method(method)
        .isa(isa)
        .parallelism(Parallelism::Off);
    compile(plan).unwrap().run(g, t);
}

fn isas() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|i| i.is_available()).collect()
}

fn grid1(n: usize, seed: u64) -> Grid1 {
    let mut r = StdRng::seed_from_u64(seed);
    let halo = r.random_range(-1.0..1.0);
    Grid1::from_fn(n, halo, |_| r.random_range(-1.0..1.0))
}

/// The full-row pipeline at the minimum supported set count (2), with and
/// without tails, for both radii.
#[test]
fn pipeline_minimum_geometries() {
    for isa in isas() {
        let bs = isa.lanes() * isa.lanes();
        for n in [2 * bs, 2 * bs + 1, 2 * bs + isa.lanes(), 3 * bs - 1] {
            let s1 = S1d3p {
                w: [0.3, 0.4, 0.29],
            };
            let init = grid1(n, n as u64);
            let mut a = init.clone();
            run(Method::Scalar, isa, &mut a, |p| p.star1(s1), 2);
            let mut b = init.clone();
            run(Method::TransLayout2, isa, &mut b, |p| p.star1(s1), 2);
            assert_eq!(max_abs_diff(&a, &b), 0.0, "{isa}/n={n}/r1");

            let s2 = S1d5p {
                w: [0.05, 0.2, 0.45, 0.22, 0.06],
            };
            let mut a = init.clone();
            run(Method::Scalar, isa, &mut a, |p| p.star1(s2), 2);
            let mut b = init.clone();
            run(Method::TransLayout2, isa, &mut b, |p| p.star1(s2), 2);
            assert_eq!(max_abs_diff(&a, &b), 0.0, "{isa}/n={n}/r2");
        }
    }
}

/// Below two sets the API must fall back to k=1 stepping and stay exact.
#[test]
fn pipeline_fallback_below_two_sets() {
    for isa in isas() {
        let bs = isa.lanes() * isa.lanes();
        for n in [3, bs - 1, bs, bs + 3, 2 * bs - 1] {
            let s = S1d3p::heat();
            let init = grid1(n, 5);
            let mut a = init.clone();
            run(Method::Scalar, isa, &mut a, |p| p.star1(s), 4);
            let mut b = init.clone();
            run(Method::TransLayout2, isa, &mut b, |p| p.star1(s), 4);
            assert_eq!(max_abs_diff(&a, &b), 0.0, "{isa}/n={n}");
        }
    }
}

/// The range pipeline over an interior window must equal two k=1 steps
/// over the same window, including the t+1 exports of its first/last sets.
#[test]
fn range_pipeline_matches_two_k1_steps() {
    let s = S1d3p {
        w: [0.25, 0.5, 0.24],
    };
    for isa in isas() {
        let l = isa.lanes();
        let bs = l * l;
        let nsets = 8usize;
        let n = nsets * bs + 7;
        let mut base = grid1(n, 99);
        tl_grid1(&mut base, isa);

        for (sa, sb) in [(0usize, 2usize), (1, 4), (3, 8), (0, 8)] {
            // Reference: two k=1 steps of the whole row.
            let mut ra = base.clone();
            let mut rb = base.clone();
            let n_ = n;
            let (pa, pb) = (ra.ptr_mut(), rb.ptr_mut());
            dispatch!(isa, V => {
                tl::star1_tl::<V, S1d3p>(pa as *const f64, pb, n_, 0, n_, &s);
                tl::star1_tl::<V, S1d3p>(pb as *const f64, pa, n_, 0, n_, &s);
            });

            // Range pipeline with margins prepared exactly like the tiled
            // driver: step-1 margins into parity B first.
            let mut ga = base.clone();
            let mut gb = base.clone();
            let (qa, qb) = (ga.ptr_mut(), gb.ptr_mut());
            let (a, b) = (sa * bs, sb * bs);
            dispatch!(isa, V => {
                tl::star1_tl::<V, S1d3p>(qa as *const f64, qb, n_, 0, a, &s);
                tl::star1_tl::<V, S1d3p>(qa as *const f64, qb, n_, b, n_, &s);
                tl2::star1_tl2_range::<V, S1d3p>(qa, qb, n_, sa, sb, &s);
                tl::star1_tl::<V, S1d3p>(qb as *const f64, qa, n_, 0, a, &s);
                tl::star1_tl::<V, S1d3p>(qb as *const f64, qa, n_, b, n_, &s);
            });
            // parity A holds t+2 everywhere
            assert_eq!(
                max_abs_diff(&ga, &ra),
                0.0,
                "{isa}/sa={sa}/sb={sb} (t+2 values)"
            );
        }
    }
}

/// Ring pipelines: single-row and single-plane grids (every y/z neighbour
/// is a halo) and ny == 2R corner cases.
#[test]
fn ring_pipelines_thin_grids() {
    let isa = Isa::detect_best();
    let s = S2d9p {
        w: [0.1, 0.11, 0.09, 0.12, 0.08, 0.1, 0.11, 0.09, 0.1],
    };
    for ny in [1usize, 2, 3] {
        let mut r = StdRng::seed_from_u64(ny as u64);
        let init = Grid2::from_fn(70, ny, 1, 0.3, |_, _| r.random_range(-1.0..1.0));
        let mut a = init.clone();
        run(Method::Scalar, isa, &mut a, |p| p.box2(s), 4);
        let mut b = init.clone();
        run(Method::TransLayout2, isa, &mut b, |p| p.box2(s), 4);
        assert_eq!(stencil_core::verify::max_abs_diff(&a, &b), 0.0, "ny={ny}");
    }
    let s3 = S3d7p::heat();
    for nz in [1usize, 2] {
        let mut r = StdRng::seed_from_u64(40 + nz as u64);
        let init = Grid3::from_fn(66, 2, nz, 1, -0.2, |_, _, _| r.random_range(-1.0..1.0));
        let mut a = init.clone();
        run(Method::Scalar, isa, &mut a, |p| p.star3(s3), 4);
        let mut b = init.clone();
        run(Method::TransLayout2, isa, &mut b, |p| p.star3(s3), 4);
        assert_eq!(stencil_core::verify::max_abs_diff(&a, &b), 0.0, "nz={nz}");
    }
}

/// Long odd step counts: pairs of pipelined steps plus one trailing k=1.
#[test]
fn odd_step_counts_long_run() {
    let s = S1d3p::heat();
    for isa in isas() {
        let init = grid1(777, 1);
        for t in [1usize, 3, 9, 25] {
            let mut a = init.clone();
            run(Method::Scalar, isa, &mut a, |p| p.star1(s), t);
            let mut b = init.clone();
            run(Method::TransLayout2, isa, &mut b, |p| p.star1(s), t);
            assert_eq!(max_abs_diff(&a, &b), 0.0, "{isa}/t={t}");
        }
    }
}

/// Pipeline correctness is not weight-dependent: stress with extreme and
/// signed weights (no stability requirement at t ≤ 2).
#[test]
fn pipeline_weight_stress() {
    for isa in isas() {
        for (i, w) in [
            [1e8, -2e8, 1e8],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0],
        ]
        .into_iter()
        .enumerate()
        {
            let s = S1d3p { w };
            let init = grid1(300, 7 + i as u64);
            let mut a = init.clone();
            run(Method::Scalar, isa, &mut a, |p| p.star1(s), 2);
            let mut b = init.clone();
            run(Method::TransLayout2, isa, &mut b, |p| p.star1(s), 2);
            assert_eq!(max_abs_diff(&a, &b), 0.0, "{isa}/w={w:?}");
        }
    }
}

/// The tl k=1 kernel on arbitrary sub-ranges must agree with the scalar
/// kernel restricted to the same cells (everything else untouched).
#[test]
fn tl_subrange_updates_exactly_the_requested_cells() {
    let s = S1d3p {
        w: [0.2, 0.5, 0.28],
    };
    for isa in isas() {
        let n = 5 * isa.lanes() * isa.lanes() + 11;
        let mut src = grid1(n, 3);
        tl_grid1(&mut src, isa);
        let geo = SetGeo::new(n, isa.lanes());
        for (lo, hi) in [
            (0usize, n),
            (7, n - 3),
            (geo.bs, 3 * geo.bs),
            (1, geo.bs - 1),
        ] {
            let mut dst = Grid1::filled(n, -9.0);
            let (sp, dp) = (src.ptr(), dst.ptr_mut());
            dispatch!(isa, V => tl::star1_tl::<V, S1d3p>(sp, dp, n, lo, hi, &s));
            // compare against scalar on a natural-order copy
            let mut nat = src.clone();
            tl_grid1(&mut nat, isa);
            let mut want = Grid1::filled(n, -9.0);
            unsafe { scalar::star1_range(nat.ptr(), want.ptr_mut(), lo, hi, &s) };
            for i in 0..n {
                let got = unsafe { stencil_core::layout::tl_read(dst.ptr(), i as isize, &geo) };
                let expect = if (lo..hi).contains(&i) {
                    want.get(i as isize)
                } else {
                    -9.0
                };
                assert_eq!(got, expect, "{isa}/[{lo},{hi})/i={i}");
            }
        }
    }
}

/// The resolved depth is part of the plan: 1D and L2-resident plans
/// fuse step pairs, a memory-sized plan fuses as deep under a refreshed
/// boundary as under Dirichlet and in bands as on one thread, a band
/// too short for the strips of its two seams caps the depth (down to 1,
/// no fused pass), plans that run no fused pass report 1, and the plan's
/// `Debug` output names it.
#[test]
fn fused_steps_reports_the_resolved_depth() {
    let depth = |shape: Shape, spec: &str, method: Method, par: Parallelism| {
        let spec: StencilSpec = spec.parse().unwrap();
        let plan = Plan::new(shape)
            .method(method)
            .parallelism(par)
            .stencil(&spec)
            .unwrap();
        assert!(format!("{plan:?}").contains(&format!("fused_steps: {}", plan.fused_steps())));
        plan.fused_steps()
    };
    let (tl2, off, sq) = (Method::TransLayout2, Parallelism::Off, Shape::d2(64, 64));
    let t2 = Parallelism::Threads(2);
    assert_eq!(depth(Shape::d1(4096), "1d3p", tl2, off), 2);
    assert_eq!(depth(Shape::d1(4096), "1d3p", tl2, t2), 1);
    assert_eq!(depth(sq, "2d5p@periodic", tl2, off), 2);
    assert_eq!(depth(Shape::d3(32, 32, 32), "3d7p@reflect", tl2, off), 2);
    assert_eq!(depth(sq, "2d5p", tl2, off), 2);
    assert_eq!(depth(sq, "2d5p", Method::TransLayout, off), 1);
    assert_eq!(depth(sq, "2d5p", tl2, t2), 2);
    // Bands of 2 and 1 rows hold no strips of a k = 2 pass.
    assert_eq!(depth(Shape::d2(64, 3), "2d5p", tl2, t2), 1);
    // Eight bands of 12 or 13 rows of 32 KiB: the cap, 12 / 2 + 1, is
    // below the L2 rule's depth on a 2 MiB L2 (8).
    let short = Shape::d2(4096, 100);
    let capped = depth(short, "2d5p", tl2, Parallelism::Threads(8));
    assert_eq!(capped, depth(short, "2d5p", tl2, off).min(7));
    // `par_mem_3d7p`'s grid: two bands of 64 planes of 2 MiB.
    let par_mem = Shape::d3(512, 512, 128);
    assert_eq!(depth(par_mem, "3d7p@periodic", tl2, t2), 2);
    let big = Shape::d2(8192, 4096);
    assert_eq!(
        depth(big, "2d5p@periodic", tl2, off),
        depth(big, "2d5p", tl2, off)
    );
    assert_eq!(depth(big, "2d5p", tl2, t2), depth(big, "2d5p", tl2, off));
}
