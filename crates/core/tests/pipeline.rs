//! Focused tests for the unroll-and-jam machinery: the in-place k = 2
//! full-row pipeline (Algorithm 1), the tiled range pipeline, and the
//! k-deep 2D/3D ring pipelines — exercised on adversarial geometries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_core::exec::{Boundary, CompiledPlan, Parallelism, Plan, PlanError, Shape};
use stencil_core::kernels::{isa_entry, scalar, tl};
use stencil_core::layout::{tl_grid1, tl_read, SetGeo};
use stencil_core::verify::{max_abs_diff, max_abs_diff_any};
use stencil_core::{AnyGrid, Grid, Grid1, Grid2, Grid3, Method, S1d3p, S2d9p, S3d7p};
use stencil_core::{Star1, StencilSpec};
use stencil_simd::{dispatch, Dtype, Elem, Isa};

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
/// without tails, for radii 1–4, f64 and f32, under every boundary (the
/// refreshed ones through the `t+1` halo folds of `edges_t1`), over two
/// consecutive passes.
#[test]
fn pipeline_minimum_geometries() {
    let stars: [&[f64]; 4] = [
        &[0.3, 0.4, 0.29],
        &[0.05, 0.2, 0.45, 0.22, 0.06],
        &[0.02, -0.05, 0.21, 0.44, 0.23, -0.04, 0.03],
        &[0.01, 0.03, -0.06, 0.2, 0.41, 0.22, -0.05, 0.02, 0.015],
    ];
    let boundaries = [
        Boundary::Dirichlet(-0.375),
        Boundary::Periodic,
        Boundary::Reflect,
    ];
    for isa in isas() {
        for dtype in [Dtype::F64, Dtype::F32] {
            let l = match dtype {
                Dtype::F64 => isa.lanes_for::<f64>(),
                Dtype::F32 => isa.lanes_for::<f32>(),
            };
            let bs = l * l;
            for n in [2 * bs, 2 * bs + 1, 2 * bs + l, 3 * bs - 1] {
                let shape = Shape::d1(n);
                let mut rng = StdRng::seed_from_u64(n as u64);
                let init: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
                for (w, b) in stars.iter().flat_map(|w| boundaries.map(|b| (w, b))) {
                    let spec = StencilSpec::star1(w).unwrap().with_boundary(b);
                    let spec = spec.with_dtype(dtype);
                    let run = |method| {
                        let mut g = AnyGrid::from_fn_spec(shape, &spec, |_, _, x| init[x]).unwrap();
                        let plan = Plan::new(shape)
                            .method(method)
                            .isa(isa)
                            .parallelism(Parallelism::Off);
                        plan.stencil(&spec).unwrap().run(&mut g, 4);
                        g
                    };
                    let (want, got) = (run(Method::Scalar), run(Method::TransLayout2));
                    assert_eq!(max_abs_diff_any(&want, &got), 0.0, "{isa}/{spec}/n={n}");
                }
            }
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

/// A 1D star of radius `R` with fixed test weights: the typed kernels
/// take radii 1–4, and only 1 and 2 have named types.
#[derive(Clone, Copy)]
struct StarR<const R: usize>([f64; 9]);

impl<const R: usize> Star1 for StarR<R> {
    const R: usize = R;
    const NAME: &'static str = "star-r";
    fn w(&self) -> &[f64] {
        &self.0[..2 * R + 1]
    }
}

/// The range pipeline over the sets `[sa, sb)` of a row, given its
/// margins the way the tile driver gives them (the t+1 margins first, by
/// k = 1 steps into the other parity), leaves t+2 in its sets and exports
/// the t+1 values of its first and last sets, each equal to one or two
/// k = 1 steps of the whole row.
fn range_pipeline_case<T: Elem, S: Star1>(isa: Isa, s: S) {
    let l = isa.lanes_for::<T>();
    let (bs, r) = (l * l, S::R);
    let n = 8 * bs + 7;
    let geo = SetGeo::new(n, l);
    let mut rng = StdRng::seed_from_u64(99);
    let halo = T::from_f64(rng.random_range(-1.0..1.0));
    let mut base = Grid1::<T>::from_fn(n, halo, |_| T::from_f64(rng.random_range(-1.0..1.0)));
    tl_grid1(&mut base, isa);
    let step = |src: &Grid1<T>, dst: &mut Grid1<T>, lo: usize, hi: usize| {
        // SAFETY: two transposed rows of `n` cells with halo pads.
        unsafe { isa_entry::star1_tl::<T, S>(isa, src.ptr(), dst.ptr_mut(), n, lo, hi, &s) }
    };
    // SAFETY: `i` is an interior or halo cell of the row.
    let cell = |g: &Grid1<T>, i: isize| unsafe { tl_read(g.ptr(), i, &geo) };
    // Reference: one and two k = 1 steps of the whole row.
    let (mut want1, mut want2) = (base.clone(), base.clone());
    step(&base, &mut want1, 0, n);
    step(&want1, &mut want2, 0, n);

    for (sa, sb) in [(0usize, 2usize), (1, 4), (3, 8), (0, 8)] {
        let (a, b) = (sa * bs, sb * bs);
        let (mut ga, mut gb) = (base.clone(), base.clone());
        step(&ga, &mut gb, 0, a);
        step(&ga, &mut gb, b, n);
        // The `MAX_R` cells from `first` on; the pipeline reads `R`.
        let cells =
            |g: &Grid1<T>, first: isize| std::array::from_fn(|q| cell(g, first + q as isize));
        let (left, right) = (a as isize - r as isize, b as isize);
        let edge = [
            [cells(&ga, left), cells(&gb, left)],
            [cells(&ga, right), cells(&gb, right)],
        ];
        let qb = gb.ptr_mut();
        // SAFETY: the sets lie in the row; the exports go to the sets'
        // own blocks in the other parity.
        unsafe {
            let t1 = [qb.add(a), qb.add(b - bs)];
            isa_entry::star1_tl2_sets::<T, S>(isa, ga.ptr_mut(), sa, sb, &edge, t1, &s);
        }
        let at = |i: isize| {
            format!(
                "{isa}/{}/R={r}/sets [{sa}, {sb})/cell {i}",
                std::any::type_name::<T>()
            )
        };
        for i in (a..b).map(|i| i as isize) {
            assert_eq!(cell(&ga, i), cell(&want2, i), "{} (t+2)", at(i));
        }
        for i in (a..a + bs).chain(b - bs..b).map(|i| i as isize) {
            assert_eq!(cell(&gb, i), cell(&want1, i), "{} (t+1 export)", at(i));
        }
        // The tile driver's trailing margins read the exports.
        step(&gb, &mut ga, 0, a);
        step(&gb, &mut ga, b, n);
        for i in 0..n as isize {
            assert_eq!(cell(&ga, i), cell(&want2, i), "{} (t+2 row)", at(i));
        }
    }
}

/// [`range_pipeline_case`] for radii 1–4, f64 and f32, on every ISA.
#[test]
fn range_pipeline_matches_two_k1_steps() {
    let w = [0.02, -0.05, 0.21, 0.25, 0.24, 0.23, -0.04, 0.03, 0.015];
    for isa in isas() {
        range_pipeline_case::<f64, _>(isa, StarR::<1>(w));
        range_pipeline_case::<f64, _>(isa, StarR::<2>(w));
        range_pipeline_case::<f64, _>(isa, StarR::<3>(w));
        range_pipeline_case::<f64, _>(isa, StarR::<4>(w));
        range_pipeline_case::<f32, _>(isa, StarR::<1>(w));
        range_pipeline_case::<f32, _>(isa, StarR::<2>(w));
        range_pipeline_case::<f32, _>(isa, StarR::<3>(w));
        range_pipeline_case::<f32, _>(isa, StarR::<4>(w));
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
