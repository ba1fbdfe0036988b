//! Wavefront-scheduler determinism suite.
//!
//! The tessellate/split drivers hand their tiles to the dependency-
//! counted wavefront scheduler (`core::exec::wave`), whose contract is
//! that **every admitted schedule is bit-identical to the sequential
//! tiled order**. This suite pins that contract end to end:
//!
//! * tiled-parallel ≡ tiled-sequential ≡ untiled oracle, to 0 ULP,
//! * across the six paper stencils × {dirichlet, periodic, reflect}
//!   × threads {1, 2, 7} × {Tessellate, Split},
//! * on non-divisible tile grids (every extent is chosen so the tile
//!   width does not divide it), and
//! * with a run-to-run determinism repeat (same plan, same input, many
//!   runs, exactly one output).
//!
//! The untiled oracle uses the *same* method as the tiled run, so a
//! failure here isolates the scheduler/tiling layer; cross-method and
//! vs-naive agreement is owned by `tests/boundary.rs`.

use stencil_core::exec::{Boundary, Parallelism, Plan, Shape, Tiling};
use stencil_core::grid::AnyGrid;
use stencil_core::spec::StencilSpec;
use stencil_core::Method;
use stencil_simd::Isa;

/// Deterministic pseudo-random interior (same seeded-`StdRng` idiom as
/// the sibling suites).
fn seeded(shape: Shape, seed: u64) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let [nx, ny, nz] = shape.dims();
    let cells = nx * ny.max(1) * nz.max(1);
    let mut r = StdRng::seed_from_u64(seed);
    (0..cells).map(|_| r.random_range(0.0..1.0)).collect()
}

/// Extents chosen so no tile width below divides them: non-divisible
/// tile grids exercise the shrunken last triangle and the uneven
/// stage-1 tiles.
fn shape_for(ndim: usize) -> Shape {
    match ndim {
        1 => Shape::d1(137),
        2 => Shape::d2(81, 13),
        _ => Shape::d3(70, 10, 7),
    }
}

/// The tiled configurations under test for one dimensionality:
/// tessellation over a natural-layout method and both transpose-layout
/// methods (which run the tile-resident staging arena — every tile
/// transposes its footprint in, computes the chunk, and writes natural
/// layout back), split over DLT (its required layout).
fn tilings(ndim: usize) -> Vec<(Method, Tiling)> {
    let tess = match ndim {
        1 => Tiling::Tessellate {
            w: [48, 0, 0],
            h: 2,
            threads: 1,
        },
        2 => Tiling::Tessellate {
            w: [32, 6, 0],
            h: 2,
            threads: 1,
        },
        _ => Tiling::Tessellate {
            w: [24, 6, 4],
            h: 2,
            threads: 1,
        },
    };
    let split = Tiling::Split {
        w: if ndim == 1 { 8 } else { 6 },
        h: 2,
        threads: 1,
    };
    vec![
        (Method::MultiLoad, tess),
        (Method::TransLayout, tess),
        (Method::TransLayout2, tess),
        (Method::Dlt, split),
    ]
}

const ALL_BOUNDARIES: [Boundary; 3] = [
    Boundary::Dirichlet(0.25),
    Boundary::Periodic,
    Boundary::Reflect,
];

/// One stencil through the full boundary × tiling × threads matrix:
/// the untiled sequential run of the same method is the oracle (itself
/// pinned to the scalar oracle below), the tiled sequential schedule
/// must match it exactly, and every parallel wavefront schedule must
/// match the tiled sequential one exactly.
fn check(name: &str) {
    let isa = Isa::detect_best();
    let t = 5; // odd (covers the final parity swap), > h (crosses chunks)
    for b in ALL_BOUNDARIES {
        let spec = name.parse::<StencilSpec>().unwrap().with_boundary(b);
        let shape = shape_for(spec.ndim());
        let init = seeded(shape, 0x57A7E ^ spec.points() as u64);
        let run_with = |method: Method, tiling: Option<Tiling>, par: Parallelism| -> Vec<f64> {
            let mut plan = Plan::new(shape).method(method).isa(isa);
            if let Some(tl) = tiling {
                plan = plan.tiling(tl);
            }
            let mut plan = plan
                .parallelism(par)
                .stencil(&spec)
                .unwrap_or_else(|e| panic!("{spec} {method} {par:?}: {e}"));
            let mut g = AnyGrid::from_vec_spec(shape, &spec, init.clone()).unwrap();
            plan.run(&mut g, t);
            g.to_vec()
        };
        let scalar = run_with(Method::Scalar, None, Parallelism::Off);
        for (method, tiling) in tilings(spec.ndim()) {
            let run = |tiling: Option<Tiling>, par: Parallelism| -> Vec<f64> {
                run_with(method, tiling, par)
            };
            let untiled = run(None, Parallelism::Off);
            assert_eq!(untiled, scalar, "untiled vs scalar oracle: {spec} {method}");
            let seq = run(Some(tiling), Parallelism::Off);
            assert_eq!(
                seq, untiled,
                "tiled-sequential vs untiled: {spec} {method} {tiling:?}"
            );
            for threads in [1, 2, 7] {
                let par = run(Some(tiling), Parallelism::Threads(threads));
                assert_eq!(
                    par, seq,
                    "wavefront vs tiled-sequential: {spec} {method} {tiling:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn wavefront_1d_paper_stencils() {
    check("1d3p");
    check("1d5p");
}

#[test]
fn wavefront_2d_paper_stencils() {
    check("2d5p");
    check("2d9p");
}

#[test]
fn wavefront_3d_paper_stencils() {
    check("3d7p");
    check("3d27p");
}

/// The parallel smoke table at production tile widths: untiled
/// TransLayout rows plus tessellated / split rows whose 2D tiles are
/// 128–256 wide, so staged TL2 runs interior sets at the host's widest
/// ISA in f64 and f32 (the matrix above uses 24–48-wide tiles, which
/// ISA narrowing steps down). Every row, at `Off` and `Threads(2|7)`,
/// is 0 ULP against `Method::Scalar` — the oracle is the scalar kernel,
/// not the row's own method, hence a table beside `check` rather than
/// rows in it.
fn check_smoke_table(ndim: usize) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let isa = Isa::detect_best();
    let tess = |w, h| Some(Tiling::Tessellate { w, h, threads: 1 });
    let split = |w, h| Some(Tiling::Split { w, h, threads: 1 });
    let (ml, tl, tl2) = (Method::MultiLoad, Method::TransLayout, Method::TransLayout2);
    let rows = [
        ("1d3p", 41, tl, None),
        ("2d5p", 42, tl, None),
        ("3d7p", 43, tl, None),
        ("2d5p@periodic", 44, tl, None),
        ("3d7p@reflect", 45, tl, None),
        ("1d3p@f32", 41, tl, None),
        ("2d5p@f32", 42, tl, None),
        ("3d7p@f32", 43, tl, None),
        ("2d5p", 46, ml, tess([256, 64, 0], 10)),
        ("2d5p@periodic", 47, ml, tess([128, 64, 0], 10)),
        ("2d9p@reflect", 48, Method::Dlt, split(64, 10)),
        ("2d5p", 46, tl2, tess([256, 64, 0], 10)),
        ("2d5p@f32", 46, tl2, tess([256, 64, 0], 10)),
        ("3d7p", 49, ml, tess([32, 16, 16], 4)),
        ("3d7p", 49, tl2, tess([32, 16, 16], 4)),
    ];
    let (shape, t) = match ndim {
        1 => (Shape::d1(500_000), 12),
        2 => (Shape::d2(512, 256), 10),
        _ => (Shape::d3(64, 64, 64), 6),
    };
    for (name, seed, method, tiling) in rows {
        let spec: StencilSpec = name.parse().unwrap();
        if spec.ndim() != ndim {
            continue;
        }
        let mut r = StdRng::seed_from_u64(seed);
        let init = AnyGrid::from_fn_spec(shape, &spec, |_, _, _| r.random_range(0.0..1.0)).unwrap();
        let run = |method: Method, tiling: Option<Tiling>, par: Parallelism| {
            let mut plan = Plan::new(shape).method(method).isa(isa).parallelism(par);
            if let Some(tl) = tiling {
                plan = plan.tiling(tl);
            }
            let mut g = init.clone();
            plan.stencil(&spec).unwrap().run(&mut g, t);
            g.to_vec()
        };
        let oracle = run(Method::Scalar, None, Parallelism::Off);
        for par in [
            Parallelism::Off,
            Parallelism::Threads(2),
            Parallelism::Threads(7),
        ] {
            let got = run(method, tiling, par);
            assert!(
                got == oracle,
                "{spec} {method} {tiling:?} {par:?} vs scalar"
            );
        }
    }
}

#[test]
fn smoke_table_1d() {
    check_smoke_table(1);
}

#[test]
fn smoke_table_2d() {
    check_smoke_table(2);
}

#[test]
fn smoke_table_3d() {
    check_smoke_table(3);
}

#[test]
fn tess_narrowing_keys_off_tile_extent() {
    // Under tessellation the transpose methods stage tile footprints,
    // so the extent that picks the register class is the staged tile
    // width (w + 2r), not the grid's. Portable8's vl²-cell sets span
    // 64 cells: a 30-wide tile stages 32-cell rows that cannot hold
    // even one set (let alone the two the rule asks for, so an
    // interior set exists), so the plan steps down to Portable4 —
    // while the untiled plan over the same 4096-cell grid and a
    // wide-tiled plan both keep the configured class.
    let shape = Shape::d1(4096);
    let spec: StencilSpec = "1d3p".parse().unwrap();
    let plan = |tiling: Option<Tiling>| {
        let mut p = Plan::new(shape)
            .method(Method::TransLayout)
            .isa(Isa::Portable8);
        if let Some(tl) = tiling {
            p = p.tiling(tl);
        }
        p.stencil(&spec).unwrap()
    };
    let tess = |w: usize| Tiling::Tessellate {
        w: [w, 0, 0],
        h: 2,
        threads: 1,
    };
    assert_eq!(plan(Some(tess(30))).isa(), Isa::Portable4);
    assert_eq!(plan(None).isa(), Isa::Portable8);
    assert_eq!(plan(Some(tess(2048))).isa(), Isa::Portable8);
}

#[test]
fn wavefront_runs_are_deterministic() {
    // Same plan object, same input, eight runs with a 7-thread pool on a
    // non-divisible tile grid: exactly one output. Scheduling jitter must
    // never reach the numbers.
    let isa = Isa::detect_best();
    for (name, method, tiling) in [
        (
            "2d5p@periodic",
            Method::TransLayout2,
            Tiling::Tessellate {
                w: [32, 6, 0],
                h: 2,
                threads: 1,
            },
        ),
        (
            "2d9p@reflect",
            Method::Dlt,
            Tiling::Split {
                w: 6,
                h: 2,
                threads: 1,
            },
        ),
    ] {
        let spec: StencilSpec = name.parse().unwrap();
        let shape = shape_for(2);
        let init = seeded(shape, 0xD1CE ^ spec.points() as u64);
        let mut plan = Plan::new(shape)
            .method(method)
            .isa(isa)
            .tiling(tiling)
            .parallelism(Parallelism::Threads(7))
            .stencil(&spec)
            .unwrap();
        let mut first: Option<Vec<f64>> = None;
        for rep in 0..8 {
            let mut g = AnyGrid::from_vec_spec(shape, &spec, init.clone()).unwrap();
            plan.run(&mut g, 5);
            let out = g.to_vec();
            match &first {
                None => first = Some(out),
                Some(want) => assert_eq!(&out, want, "{spec} {method} rep {rep}"),
            }
        }
    }
}
