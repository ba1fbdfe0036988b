//! Erased-API coverage: [`DynPlan`] must be **bit-identical** to the
//! typed plans across the full Method × stencil × threads matrix, specs
//! must validate exactly the documented failure modes, and the
//! string-facing surface (`FromStr`/`Display`) must round-trip.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_core::exec::{Parallelism, Plan, Shape};
use stencil_core::spec::{SpecError, StencilSpec};
use stencil_core::verify::{max_abs_diff, max_abs_diff_any};
use stencil_core::{
    AnyGrid, Grid1, Grid2, Grid3, Method, PlanError, S1d3p, S1d5p, S2d5p, S2d9p, S3d27p, S3d7p,
    Star1, MAX_R,
};
use stencil_simd::Isa;

fn grid1(n: usize, seed: u64) -> Grid1 {
    let mut r = StdRng::seed_from_u64(seed);
    Grid1::from_fn(n, 0.2, |_| r.random_range(-1.0..1.0))
}

fn grid2(nx: usize, ny: usize, ry: usize, seed: u64) -> Grid2 {
    let mut r = StdRng::seed_from_u64(seed);
    Grid2::from_fn(nx, ny, ry, 0.2, |_, _| r.random_range(-1.0..1.0))
}

fn grid3(nx: usize, ny: usize, nz: usize, rr: usize, seed: u64) -> Grid3 {
    let mut r = StdRng::seed_from_u64(seed);
    Grid3::from_fn(nx, ny, nz, rr, 0.2, |_, _, _| r.random_range(-1.0..1.0))
}

/// Thread counts for the oracle matrix: sequential, an even split, and
/// a deliberately non-dividing worker count.
const THREADS: [usize; 3] = [1, 2, 7];

// ---------------------------------------------------------------------------
// DynPlan ≡ typed plan, full Method × stencil × threads matrix
// ---------------------------------------------------------------------------

/// Drive the same (method, parallelism, steps) through a typed terminal
/// and through `Plan::stencil`, returning both grids' difference.
macro_rules! typed_vs_erased {
    ($shape:expr, $terminal:ident, $stencil:expr, $spec:expr, $grid:expr,
     $m:expr, $k:expr, $t:expr, $diff:ident) => {{
        let init = $grid;
        let mut typed_g = init.clone();
        Plan::new($shape)
            .method($m)
            .isa(Isa::detect_best())
            .parallelism(Parallelism::Threads($k))
            .$terminal($stencil)
            .unwrap()
            .run(&mut typed_g, $t);
        let mut erased_g = init.clone();
        Plan::new($shape)
            .method($m)
            .isa(Isa::detect_best())
            .parallelism(Parallelism::Threads($k))
            .stencil(&$spec)
            .unwrap()
            .run(&mut erased_g, $t);
        $diff(&typed_g, &erased_g)
    }};
}

#[test]
fn erased_matches_typed_1d() {
    for (spec, s) in [
        (StencilSpec::heat_1d3p(), S1d3p::heat().w.to_vec()),
        (StencilSpec::heat_1d5p(), S1d5p::heat().w.to_vec()),
    ] {
        let name = spec.to_string();
        for m in Method::ALL {
            for k in THREADS {
                for t in [1usize, 4] {
                    let d = if s.len() == 3 {
                        typed_vs_erased!(
                            Shape::d1(601),
                            star1,
                            S1d3p::heat(),
                            spec,
                            grid1(601, 5),
                            m,
                            k,
                            t,
                            max_abs_diff
                        )
                    } else {
                        typed_vs_erased!(
                            Shape::d1(601),
                            star1,
                            S1d5p::heat(),
                            spec,
                            grid1(601, 5),
                            m,
                            k,
                            t,
                            max_abs_diff
                        )
                    };
                    assert_eq!(d, 0.0, "{name}/{m}/threads={k}/t={t}");
                }
            }
        }
    }
}

#[test]
fn erased_matches_typed_2d() {
    for m in Method::ALL {
        for k in THREADS {
            for t in [1usize, 3] {
                let d = typed_vs_erased!(
                    Shape::d2(130, 11),
                    star2,
                    S2d5p::heat(),
                    StencilSpec::heat_2d5p(),
                    grid2(130, 11, 1, 6),
                    m,
                    k,
                    t,
                    max_abs_diff
                );
                assert_eq!(d, 0.0, "2d5p/{m}/threads={k}/t={t}");
                let d = typed_vs_erased!(
                    Shape::d2(130, 11),
                    box2,
                    S2d9p::blur(),
                    StencilSpec::blur_2d9p(),
                    grid2(130, 11, 1, 7),
                    m,
                    k,
                    t,
                    max_abs_diff
                );
                assert_eq!(d, 0.0, "2d9p/{m}/threads={k}/t={t}");
            }
        }
    }
}

#[test]
fn erased_matches_typed_3d() {
    for m in Method::ALL {
        for k in THREADS {
            for t in [1usize, 3] {
                let d = typed_vs_erased!(
                    Shape::d3(72, 10, 9),
                    star3,
                    S3d7p::heat(),
                    StencilSpec::heat_3d7p(),
                    grid3(72, 10, 9, 1, 8),
                    m,
                    k,
                    t,
                    max_abs_diff
                );
                assert_eq!(d, 0.0, "3d7p/{m}/threads={k}/t={t}");
                let d = typed_vs_erased!(
                    Shape::d3(72, 10, 9),
                    box3,
                    S3d27p::blur(),
                    StencilSpec::blur_3d27p(),
                    grid3(72, 10, 9, 1, 9),
                    m,
                    k,
                    t,
                    max_abs_diff
                );
                assert_eq!(d, 0.0, "3d27p/{m}/threads={k}/t={t}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Custom weights and radii the typed surface has no concrete type for
// ---------------------------------------------------------------------------

#[test]
fn custom_radii_agree_with_scalar_oracle() {
    // Radii 3 and 4 exist only through the erased path; every vectorized
    // method must still match the scalar oracle bit-for-bit.
    let isa = Isa::detect_best();
    for r in [3usize, 4] {
        let mut rng = StdRng::seed_from_u64(r as u64);
        let w: Vec<f64> = (0..2 * r + 1)
            .map(|_| rng.random_range(-0.2..0.4))
            .collect();
        let spec = StencilSpec::star1(&w).unwrap();
        assert_eq!(spec.radius(), r);
        let init = grid1(700, 40 + r as u64);
        let mut oracle = init.clone();
        Plan::new(Shape::d1(700))
            .method(Method::Scalar)
            .isa(isa)
            .stencil(&spec)
            .unwrap()
            .run(&mut oracle, 3);
        for m in Method::ALL {
            let mut g = init.clone();
            Plan::new(Shape::d1(700))
                .method(m)
                .isa(isa)
                .stencil(&spec)
                .unwrap()
                .run(&mut g, 3);
            assert_eq!(max_abs_diff(&g, &oracle), 0.0, "star1 r={r}/{m}");
        }
    }

    // A radius-2 2D star — no typed S-type exists for it either.
    let spec =
        StencilSpec::star2(&[0.01, 0.2, 0.3, 0.2, 0.01], &[0.02, 0.1, 0.0, 0.1, 0.02]).unwrap();
    let init = grid2(90, 9, 2, 11);
    let mut oracle = init.clone();
    Plan::new(Shape::d2(90, 9))
        .method(Method::Scalar)
        .isa(isa)
        .stencil(&spec)
        .unwrap()
        .run(&mut oracle, 2);
    for m in Method::ALL {
        let mut g = init.clone();
        Plan::new(Shape::d2(90, 9))
            .method(m)
            .isa(isa)
            .stencil(&spec)
            .unwrap()
            .run(&mut g, 2);
        assert_eq!(max_abs_diff(&g, &oracle), 0.0, "star2 r=2/{m}");
    }
}

// ---------------------------------------------------------------------------
// Acceptance is total: whatever the constructors accept, every method runs
// ---------------------------------------------------------------------------

/// Seeded weights for one (ndim, family, radius) cell of the acceptance
/// matrix, through the public constructors.
fn seeded_spec(
    ndim: usize,
    boxy: bool,
    r: usize,
    rng: &mut StdRng,
) -> Result<StencilSpec, SpecError> {
    let mut w = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|_| rng.random_range(-0.5..1.0) / len as f64)
            .collect()
    };
    let side = 2 * r + 1;
    match (ndim, boxy) {
        (1, _) => StencilSpec::star1(&w(side)),
        (2, false) => StencilSpec::star2(&w(side), &w(side)),
        (2, true) => StencilSpec::box2(&w(side * side)),
        (_, false) => StencilSpec::star3(&w(side), &w(side), &w(side)),
        (_, true) => StencilSpec::box3(&w(side * side * side)),
    }
}

#[test]
fn every_accepted_spec_runs_every_method_and_the_rest_are_typed_errors() {
    use stencil_core::exec::{Boundary, Tiling};
    use stencil_core::spec::StencilShape;
    use stencil_simd::Dtype;

    let isa = Isa::detect_best();
    let mut rng = StdRng::seed_from_u64(0xACCE97);
    let tess = Tiling::Tessellate {
        w: [32, 16, 12],
        h: 2,
        threads: 2,
    };
    let split = Tiling::Split {
        w: 16,
        h: 2,
        threads: 2,
    };
    for ndim in 1..=3usize {
        let shape = match ndim {
            1 => Shape::d1(700),
            2 => Shape::d2(96, 40),
            _ => Shape::d3(96, 20, 12),
        };
        for boxy in [false, true]
            .into_iter()
            .take(if ndim == 1 { 1 } else { 2 })
        {
            for r in 1..=MAX_R {
                let family = if boxy {
                    StencilShape::Box
                } else {
                    StencilShape::Star
                };
                let base = match seeded_spec(ndim, boxy, r, &mut rng) {
                    Ok(spec) => spec,
                    Err(e) => {
                        // Rejected at spec build, with the family's real limit.
                        let max = family.max_radius(ndim);
                        assert!(r > max, "{ndim}d {family:?} r={r} rejected: {e}");
                        assert_eq!(e, SpecError::RadiusTooLarge { r, max });
                        continue;
                    }
                };
                for dtype in [Dtype::F64, Dtype::F32] {
                    for boundary in [Boundary::default(), Boundary::Periodic, Boundary::Reflect] {
                        let spec = base.clone().with_dtype(dtype).with_boundary(boundary);
                        let init = AnyGrid::from_fn_spec(shape, &spec, |z, y, x| {
                            ((7 * x + 11 * y + 13 * z) % 17) as f64 * 0.0625 - 0.4
                        })
                        .unwrap();
                        let run = |m: Method, tiling: Tiling| {
                            // Untiled runs stay sequential so the fused
                            // k = 2 passes are what gets compared; tiled
                            // runs take the tiling's two workers.
                            let par = if tiling == Tiling::None {
                                Parallelism::Off
                            } else {
                                Parallelism::Auto
                            };
                            let mut g = init.clone();
                            Plan::new(shape)
                                .method(m)
                                .isa(isa)
                                .tiling(tiling)
                                .parallelism(par)
                                .stencil(&spec)
                                .unwrap_or_else(|e| panic!("{spec}/{m}/{tiling:?}: {e}"))
                                .run(&mut g, 3);
                            g
                        };
                        let oracle = run(Method::Scalar, Tiling::None);
                        for m in Method::ALL {
                            let mut tilings = vec![Tiling::None];
                            // Temporal tiling once per cell is enough: the
                            // tiled drivers are boundary-covered elsewhere.
                            if boundary.is_dirichlet() {
                                tilings.push(if m == Method::Dlt { split } else { tess });
                            }
                            for tiling in tilings {
                                let g = run(m, tiling);
                                assert_eq!(
                                    max_abs_diff_any(&g, &oracle),
                                    0.0,
                                    "{spec} r={r} {family:?}/{m}/{tiling:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // The typed terminals enforce the same limits at plan build.
    #[derive(Copy, Clone)]
    struct WideBox2;
    impl stencil_core::Box2 for WideBox2 {
        const R: usize = stencil_core::BOX2_MAX_R + 1;
        const NAME: &'static str = "widebox2";
        fn w(&self) -> &[f64] {
            &[0.02; 49]
        }
    }
    let err = Plan::new(Shape::d2(96, 40)).box2(WideBox2).unwrap_err();
    assert_eq!(
        err,
        PlanError::Spec(SpecError::RadiusTooLarge {
            r: 3,
            max: stencil_core::BOX2_MAX_R
        })
    );
}

/// An extent-1 axis is the neighbour of the engine's "absent axis is an
/// axis of extent 1" encoding: a `300×1` plane must behave like the plane
/// it is (halo rows above and below, folds along y), not like a row. Every
/// executor × boundary × dtype over thin, single-row, single-plane and
/// single-cell shapes is 0 ULP against the scalar oracle or a typed build
/// error.
#[test]
fn degenerate_extents_run_every_executor_or_are_typed_errors() {
    use stencil_core::exec::{Boundary, Tiling};
    use stencil_simd::Dtype;

    let isa = Isa::detect_best();
    let shapes = [
        Shape::d2(300, 1),
        Shape::d2(300, 2),
        Shape::d3(300, 1, 1),
        Shape::d3(300, 5, 1),
        Shape::d3(300, 1, 3),
        Shape::d2(1, 1),
        Shape::d3(1, 1, 1),
        Shape::d1(1),
    ];
    let tess = Tiling::Tessellate {
        w: [64, 2, 2],
        h: 2,
        threads: 2,
    };
    let split = Tiling::Split {
        w: 2,
        h: 2,
        threads: 2,
    };
    let mut ran = 0usize;
    for shape in shapes {
        let names = StencilSpec::NAMES
            .iter()
            .filter(|n| n.starts_with(&format!("{}d", shape.ndim())));
        for name in names {
            for dtype in [Dtype::F64, Dtype::F32] {
                for boundary in [Boundary::default(), Boundary::Periodic, Boundary::Reflect] {
                    let spec = name
                        .parse::<StencilSpec>()
                        .unwrap()
                        .with_dtype(dtype)
                        .with_boundary(boundary);
                    let Ok(init) = AnyGrid::from_fn_spec(shape, &spec, |z, y, x| {
                        ((5 * x + 3 * y + 7 * z) % 13) as f64 * 0.125 - 0.6
                    }) else {
                        // A fold cannot reach past the far wall: the grid
                        // constructor and the plan builder both say so.
                        let err = Plan::new(shape).stencil(&spec).unwrap_err();
                        assert!(matches!(err, PlanError::Boundary { .. }), "{spec}: {err}");
                        continue;
                    };
                    let run = |m: Method, tiling: Tiling, par: Parallelism| {
                        let mut g = init.clone();
                        Plan::new(shape)
                            .method(m)
                            .isa(isa)
                            .tiling(tiling)
                            .parallelism(par)
                            .stencil(&spec)
                            .map(|mut plan| {
                                plan.run(&mut g, 3);
                                g
                            })
                    };
                    let oracle = run(Method::Scalar, Tiling::None, Parallelism::Off).unwrap();
                    for m in Method::ALL {
                        let tiled = if m == Method::Dlt { split } else { tess };
                        for (tiling, par) in [
                            (Tiling::None, Parallelism::Off),
                            (Tiling::None, Parallelism::Threads(2)),
                            (Tiling::None, Parallelism::Threads(7)),
                            (tiled, Parallelism::Auto),
                        ] {
                            match run(m, tiling, par) {
                                Ok(g) => {
                                    assert_eq!(
                                        max_abs_diff_any(&g, &oracle),
                                        0.0,
                                        "{spec} {shape:?} {m}/{tiling:?}/{par:?}"
                                    );
                                    ran += 1;
                                }
                                // A chunk taller than an extent-1 axis can
                                // carry is the one legitimate refusal.
                                Err(e) => assert!(
                                    matches!(e, PlanError::BadTiling(_)),
                                    "{spec} {shape:?} {m}/{tiling:?}/{par:?}: {e}"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(ran > 1500, "only {ran} configurations ran");
}

// ---------------------------------------------------------------------------
// Sessions: reuse and layout residency through the erased surface
// ---------------------------------------------------------------------------

#[test]
fn dyn_session_two_halves_equal_one_run() {
    let isa = Isa::detect_best();
    for name in StencilSpec::NAMES {
        let spec: StencilSpec = name.parse().unwrap();
        let shape = match spec.ndim() {
            1 => Shape::d1(400),
            2 => Shape::d2(70, 9),
            _ => Shape::d3(40, 8, 6),
        };
        let init = AnyGrid::from_fn(shape, spec.radius(), 0.1, |z, y, x| {
            ((3 * x + 5 * y + 7 * z) % 11) as f64 * 0.125
        });

        let mut whole = init.clone();
        Plan::new(shape)
            .method(Method::TransLayout2)
            .isa(isa)
            .stencil(&spec)
            .unwrap()
            .run(&mut whole, 6);

        let mut halves = init.clone();
        let mut plan = Plan::new(shape)
            .method(Method::TransLayout2)
            .isa(isa)
            .stencil(&spec)
            .unwrap();
        {
            let mut sess = plan.session(&mut halves);
            sess.run(3);
            sess.run(3);
        }
        assert_eq!(max_abs_diff_any(&whole, &halves), 0.0, "{name}");
    }
}

// ---------------------------------------------------------------------------
// Validation: SpecError / PlanError surfaces
// ---------------------------------------------------------------------------

#[test]
fn spec_validation_errors() {
    // Radius past MAX_R.
    assert!(matches!(
        StencilSpec::star1(&[0.1; 2 * MAX_R + 3]),
        Err(SpecError::RadiusTooLarge { max: MAX_R, .. })
    ));
    // Even / undersized weight slices.
    assert!(matches!(
        StencilSpec::star1(&[1.0]),
        Err(SpecError::WeightLen { .. })
    ));
    assert!(matches!(
        StencilSpec::star3(&[0.1; 3], &[0.1; 3], &[0.1; 4]),
        Err(SpecError::WeightLen { axis: "z", .. })
    ));
    // Box lengths that are no (2r+1)^ndim.
    assert!(matches!(
        StencilSpec::box3(&[0.1; 26]),
        Err(SpecError::WeightLen { .. })
    ));
    // Star axes disagreeing on the radius.
    assert!(matches!(
        StencilSpec::star2(&[0.1; 5], &[0.1; 3]),
        Err(SpecError::AxisRadiusMismatch { x: 2, other: 1 })
    ));
}

#[test]
fn plan_rejects_spec_shape_mismatch() {
    // Shape ndim ≠ spec ndim → the same DimMismatch the typed path gives.
    let spec = StencilSpec::heat_1d3p();
    let err = Plan::new(Shape::d2(32, 32)).stencil(&spec).unwrap_err();
    assert_eq!(
        err,
        PlanError::DimMismatch {
            shape: 2,
            stencil: 1
        }
    );
    let spec = StencilSpec::heat_3d7p();
    let err = Plan::new(Shape::d1(128)).stencil(&spec).unwrap_err();
    assert_eq!(
        err,
        PlanError::DimMismatch {
            shape: 1,
            stencil: 3
        }
    );
    // Empty shapes are still rejected.
    let err = Plan::new(Shape::d1(0))
        .stencil(&StencilSpec::heat_1d3p())
        .unwrap_err();
    assert_eq!(err, PlanError::EmptyShape);
}

#[test]
fn legacy_free_fns_report_spec_errors() {
    // A stencil type whose weights imply a radius past MAX_R: the typed
    // terminal surfaces it as PlanError::Spec at build instead of
    // panicking mid-run.
    #[derive(Copy, Clone)]
    struct TooWide;
    impl Star1 for TooWide {
        const R: usize = MAX_R + 1;
        const NAME: &'static str = "toowide";
        fn w(&self) -> &[f64] {
            &[0.1; 2 * (MAX_R + 1) + 1]
        }
    }
    let scalar = || Plan::new(Shape::d1(64)).method(Method::Scalar);
    let mut g = Grid1::filled(64, 0.0);
    let err = scalar().star1(TooWide).unwrap_err();
    assert!(matches!(
        err,
        PlanError::Spec(SpecError::RadiusTooLarge { .. })
    ));
    assert!(err.to_string().contains("radius"));

    // A stencil whose w() length disagrees with its declared R (e.g.
    // zero-padded storage) must error, not silently run at the radius
    // the slice length implies.
    #[derive(Copy, Clone)]
    struct PaddedR1;
    impl Star1 for PaddedR1 {
        const R: usize = 1;
        const NAME: &'static str = "padded";
        fn w(&self) -> &[f64] {
            &[0.0, 0.3, 0.4, 0.3, 0.0] // length says r = 2, R says 1
        }
    }
    let err = scalar().star1(PaddedR1).unwrap_err();
    assert!(matches!(err, PlanError::Spec(SpecError::WeightLen { .. })));

    // And a valid call still succeeds (t = 0 early-out included).
    scalar().star1(S1d3p::heat()).unwrap().run(&mut g, 0);
    scalar().star1(S1d3p::heat()).unwrap().run(&mut g, 2);
}

#[test]
#[should_panic(expected = "1D f64 stencil but the grid is 2D f64")]
fn dyn_plan_panics_on_grid_dim_mismatch() {
    let spec = StencilSpec::heat_1d3p();
    let mut plan = Plan::new(Shape::d1(64)).stencil(&spec).unwrap();
    let mut g = AnyGrid::filled(Shape::d2(8, 8), 1, 0.0);
    plan.run(&mut g, 1);
}

// ---------------------------------------------------------------------------
// AnyGrid and the string-facing surface
// ---------------------------------------------------------------------------

#[test]
fn any_grid_from_vec_runs_like_typed() {
    let isa = Isa::detect_best();
    let spec = StencilSpec::heat_2d5p();
    let (nx, ny) = (65usize, 7usize);
    let data: Vec<f64> = (0..nx * ny).map(|i| ((i * 13) % 29) as f64 * 0.1).collect();

    let mut typed = Grid2::from_fn(nx, ny, 1, 0.0, |y, x| data[y * nx + x]);
    Plan::new(Shape::d2(nx, ny))
        .method(Method::TransLayout2)
        .isa(isa)
        .star2(S2d5p::heat())
        .unwrap()
        .run(&mut typed, 4);

    let mut any = AnyGrid::from_vec(Shape::d2(nx, ny), 1, 0.0, data).unwrap();
    Plan::new(Shape::d2(nx, ny))
        .method(Method::TransLayout2)
        .isa(isa)
        .stencil(&spec)
        .unwrap()
        .run(&mut any, 4);

    assert_eq!(max_abs_diff(any.as_grid2().unwrap(), &typed), 0.0);
    // And the row-major export matches the typed interior.
    let exported = any.to_vec();
    for y in 0..ny {
        for x in 0..nx {
            assert_eq!(exported[y * nx + x], typed.get(y as isize, x as isize));
        }
    }
}

#[test]
fn names_round_trip_across_the_string_surface() {
    // StencilSpec names.
    for name in StencilSpec::NAMES {
        let spec: StencilSpec = name.parse().unwrap();
        assert_eq!(spec.to_string(), name);
    }
    assert!("2d7p".parse::<StencilSpec>().is_err());
    // Method names.
    for m in Method::ALL {
        assert_eq!(m.to_string().parse::<Method>().unwrap(), m);
    }
    assert!("sse42".parse::<Method>().is_err());
    // Isa names.
    for isa in Isa::ALL {
        assert_eq!(isa.to_string().parse::<Isa>().unwrap(), isa);
    }
    assert!("mmx".parse::<Isa>().is_err());
}

#[test]
fn dyn_plan_reports_its_configuration() {
    let spec = StencilSpec::blur_3d27p();
    let mut plan = Plan::new(Shape::d3(24, 8, 6))
        .method(Method::MultiLoad)
        .isa(Isa::detect_best())
        .parallelism(Parallelism::Threads(2))
        .stencil(&spec)
        .unwrap();
    assert_eq!(plan.method(), Method::MultiLoad);
    assert_eq!(plan.threads(), 2);
    assert_eq!(plan.shape(), Shape::d3(24, 8, 6));
    assert_eq!(plan.spec(), &spec);
    let dbg = format!("{plan:?}");
    assert!(dbg.contains("3d27p"), "{dbg}");
    // And it runs.
    let mut g = AnyGrid::filled(Shape::d3(24, 8, 6), 1, 1.0);
    plan.run(&mut g, 2);
}
