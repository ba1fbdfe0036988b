//! Boundary-condition oracle suite.
//!
//! A naive scalar reference implements each [`Boundary`] **directly** —
//! per-axis index folding into a flat vector, no halo cells, no layout,
//! no engine code — and every `Boundary × Method × stencil × threads`
//! combination of the real engine must match it to 0 ULP: the engine's
//! layout-aware halo refresh must feed the kernels exactly the neighbor
//! values the direct folds produce, and the kernels accumulate in the
//! family's canonical order, so any deviation is a bug, not rounding.
//!
//! Plus the build-time contracts: every boundary composes with every
//! tiling framework (the wavefront drivers refresh halos per tile
//! step), folds reject extents below the radius, sessions stay
//! consistent across reuse (2 × t ≡ 2t).

use stencil_core::exec::{Boundary, BoundaryReason, Parallelism, Plan, PlanError, Shape, Tiling};
use stencil_core::grid::AnyGrid;
use stencil_core::spec::{StencilShape, StencilSpec};
use stencil_core::verify::{max_abs_diff, max_abs_diff_ref};
use stencil_core::{Grid2, Method, S1d3p, S2d5p};
use stencil_simd::Isa;

// ---------------------------------------------------------------------------
// The naive reference
// ---------------------------------------------------------------------------

/// Fold one axis index into `[0, n)` per the boundary, or `None` for a
/// Dirichlet read outside the interior.
fn fold(i: isize, n: usize, b: Boundary) -> Option<usize> {
    let n_i = n as isize;
    if (0..n_i).contains(&i) {
        return Some(i as usize);
    }
    match b {
        Boundary::Dirichlet(_) => None,
        Boundary::Periodic => Some((i.rem_euclid(n_i)) as usize),
        Boundary::Reflect => Some(if i < 0 {
            (-i - 1) as usize
        } else {
            (2 * n_i - 1 - i) as usize
        }),
    }
}

/// Flat-vector state with direct boundary folding — the reference the
/// engine is measured against.
struct Naive {
    spec: StencilSpec,
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Naive {
    fn new(spec: &StencilSpec, shape: Shape) -> Naive {
        let [nx, ny, nz] = shape.dims();
        Naive {
            spec: spec.clone(),
            nx,
            ny: ny.max(1),
            nz: nz.max(1),
        }
    }

    /// Read cell `(z, y, x)` with per-axis folding; Dirichlet reads
    /// outside the interior yield the boundary constant.
    fn at(&self, src: &[f64], z: isize, y: isize, x: isize) -> f64 {
        let b = self.spec.boundary();
        match (
            fold(x, self.nx, b),
            fold(y, self.ny, b),
            fold(z, self.nz, b),
        ) {
            (Some(x), Some(y), Some(z)) => src[(z * self.ny + y) * self.nx + x],
            _ => b.halo_fill(),
        }
    }

    /// One Jacobi step in the stencil family's canonical accumulation
    /// order (see `kernels::scalar`): x axis ascending, then y pairs,
    /// then z pairs for stars; row-major for boxes. `mul_add`
    /// throughout, so agreement with the engine is exact or not at all.
    // Index loops mirror the canonical kernel order — same stance as the
    // crate-level allow in stencil-core.
    #[allow(clippy::needless_range_loop)]
    fn step(&self, src: &[f64]) -> Vec<f64> {
        let r = self.spec.radius() as isize;
        let mut dst = vec![0.0; src.len()];
        for z in 0..self.nz as isize {
            for y in 0..self.ny as isize {
                for x in 0..self.nx as isize {
                    let acc = match (self.spec.shape(), self.spec.ndim()) {
                        (StencilShape::Star, nd) => {
                            let wx = self.spec.axis_weights(0).unwrap();
                            let mut acc = wx[0] * self.at(src, z, y, x - r);
                            for o in 1..wx.len() {
                                acc = self.at(src, z, y, x - r + o as isize).mul_add(wx[o], acc);
                            }
                            if nd >= 2 {
                                let wy = self.spec.axis_weights(1).unwrap();
                                for d in 1..=r {
                                    let du = d as usize;
                                    acc =
                                        self.at(src, z, y - d, x).mul_add(wy[r as usize - du], acc);
                                    acc =
                                        self.at(src, z, y + d, x).mul_add(wy[r as usize + du], acc);
                                }
                            }
                            if nd == 3 {
                                let wz = self.spec.axis_weights(2).unwrap();
                                for d in 1..=r {
                                    let du = d as usize;
                                    acc =
                                        self.at(src, z - d, y, x).mul_add(wz[r as usize - du], acc);
                                    acc =
                                        self.at(src, z + d, y, x).mul_add(wz[r as usize + du], acc);
                                }
                            }
                            acc
                        }
                        (StencilShape::Box, 2) => {
                            let w = self.spec.box_weights().unwrap();
                            let mut acc = w[0] * self.at(src, z, y - r, x - r);
                            let mut k = 1;
                            for dy in -r..=r {
                                let dx0 = if dy == -r { -r + 1 } else { -r };
                                for dx in dx0..=r {
                                    acc = self.at(src, z, y + dy, x + dx).mul_add(w[k], acc);
                                    k += 1;
                                }
                            }
                            acc
                        }
                        (StencilShape::Box, _) => {
                            let w = self.spec.box_weights().unwrap();
                            let mut acc = w[0] * self.at(src, z - r, y - r, x - r);
                            let mut k = 1;
                            let mut first = true;
                            for dz in -r..=r {
                                for dy in -r..=r {
                                    for dx in -r..=r {
                                        if first {
                                            first = false;
                                            continue;
                                        }
                                        acc =
                                            self.at(src, z + dz, y + dy, x + dx).mul_add(w[k], acc);
                                        k += 1;
                                    }
                                }
                            }
                            acc
                        }
                    };
                    dst[((z * self.ny as isize + y) * self.nx as isize + x) as usize] = acc;
                }
            }
        }
        dst
    }

    fn run(&self, mut state: Vec<f64>, t: usize) -> Vec<f64> {
        for _ in 0..t {
            state = self.step(&state);
        }
        state
    }
}

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

fn shape_for(spec: &StencilSpec) -> Shape {
    // x extents cover whole vector sets plus a tail for every ISA
    // (lanes ≤ 8 → block size ≤ 64), plus non-divisible thread splits.
    match spec.ndim() {
        1 => Shape::d1(137),
        2 => Shape::d2(81, 13),
        _ => Shape::d3(72, 10, 7),
    }
}

/// The full engine matrix against the naive reference, exact equality.
fn check_matrix(base: &StencilSpec, boundaries: &[Boundary], methods: &[Method], isa: Isa) {
    let t = 5; // odd: covers the final parity swap
    for &b in boundaries {
        let spec = base.clone().with_boundary(b);
        let shape = shape_for(&spec);
        let init = seeded(shape, 0xC0FFEE ^ spec.points() as u64);
        let naive = Naive::new(&spec, shape);
        let want = naive.run(init.clone(), t);
        for &method in methods {
            for par in [
                Parallelism::Off,
                Parallelism::Threads(2),
                Parallelism::Threads(7),
            ] {
                let mut plan = Plan::new(shape)
                    .method(method)
                    .isa(isa)
                    .parallelism(par)
                    .stencil(&spec)
                    .unwrap_or_else(|e| panic!("{spec} {method} {par:?}: {e}"));
                let mut g = AnyGrid::from_vec_spec(shape, &spec, init.clone()).unwrap();
                plan.run(&mut g, t);
                assert_eq!(
                    max_abs_diff_ref(&g, &want),
                    0.0,
                    "{spec} {method} {isa} {par:?}"
                );
            }
        }
    }
}

const ALL_BOUNDARIES: [Boundary; 3] = [
    Boundary::Dirichlet(0.25),
    Boundary::Periodic,
    Boundary::Reflect,
];

#[test]
fn oracle_1d_paper_stencils() {
    let isa = Isa::detect_best();
    for name in ["1d3p", "1d5p"] {
        check_matrix(&name.parse().unwrap(), &ALL_BOUNDARIES, &Method::ALL, isa);
    }
}

#[test]
fn oracle_2d_paper_stencils() {
    let isa = Isa::detect_best();
    for name in ["2d5p", "2d9p"] {
        check_matrix(&name.parse().unwrap(), &ALL_BOUNDARIES, &Method::ALL, isa);
    }
}

#[test]
fn oracle_3d_paper_stencils() {
    let isa = Isa::detect_best();
    for name in ["3d7p", "3d27p"] {
        check_matrix(&name.parse().unwrap(), &ALL_BOUNDARIES, &Method::ALL, isa);
    }
}

#[test]
fn oracle_custom_radii() {
    // Wider-than-paper radii exercise the packed carrier arms and the
    // r > 1 halo folds (multiple wrapped cells per side).
    let isa = Isa::detect_best();
    let star1_r3 = StencilSpec::star1(&[0.05, 0.1, 0.15, 0.4, 0.15, 0.1, 0.05]).unwrap();
    let star2_r2 =
        StencilSpec::star2(&[0.1, 0.2, 0.4, 0.15, 0.15], &[0.12, 0.18, 0.0, 0.22, 0.08]).unwrap();
    let w25: Vec<f64> = (0..25).map(|i| 1.0 / (25.0 + i as f64)).collect();
    let box2_r2 = StencilSpec::box2(&w25).unwrap();
    // On 72×10×7 at Threads(7) every z band is one plane thick, so the
    // halo planes at -1 and -2 fold from planes of two different bands.
    let star3_r2 = StencilSpec::star3(
        &[0.05, 0.1, 0.3, 0.1, 0.05],
        &[0.04, 0.08, 0.0, 0.09, 0.03],
        &[0.02, 0.06, 0.0, 0.05, 0.03],
    )
    .unwrap();
    let boundaries = [Boundary::Periodic, Boundary::Reflect];
    let methods = [
        Method::Scalar,
        Method::MultiLoad,
        Method::Dlt,
        Method::TransLayout2,
    ];
    for spec in [star1_r3, star2_r2, box2_r2, star3_r2] {
        check_matrix(&spec, &boundaries, &methods, isa);
    }
}

#[test]
fn oracle_across_isas() {
    // Every available ISA must agree with the naive reference under the
    // refreshed boundaries (the refresh reads through per-ISA layout
    // maps, so lane width is load-bearing here).
    let methods = [Method::Reorg, Method::Dlt, Method::TransLayout2];
    for isa in Isa::ALL.into_iter().filter(|i| i.is_available()) {
        check_matrix(
            &"2d5p".parse().unwrap(),
            &[Boundary::Periodic],
            &methods,
            isa,
        );
        check_matrix(
            &"1d5p".parse().unwrap(),
            &[Boundary::Reflect],
            &methods,
            isa,
        );
    }
}

#[test]
fn halo_wider_than_radius_is_inert() {
    // Grids carry radius-wide halos, and the fused TL2 pass makes each
    // level's halo itself, so a halo twice as wide must change nothing:
    // running the same plan over a 2r-halo and an r-halo allocation must
    // agree to 0 ULP. Every method rides along, over non-divisible
    // thread splits (137 = 7·19 + 4; ny = 13 over 7 bands) and both time
    // parities (t = 4 exercises only fused passes, t = 5 the trailing
    // single step).
    let isa = Isa::detect_best();
    for name in ["1d3p", "1d5p", "2d5p", "2d9p", "3d7p", "3d27p"] {
        for b in [Boundary::Periodic, Boundary::Reflect] {
            let spec = name.parse::<StencilSpec>().unwrap().with_boundary(b);
            let shape = shape_for(&spec);
            let init = seeded(shape, 0xFACADE ^ spec.points() as u64);
            for &method in &Method::ALL {
                for par in [
                    Parallelism::Off,
                    Parallelism::Threads(2),
                    Parallelism::Threads(7),
                ] {
                    for t in [4, 5] {
                        let run = |g: &mut AnyGrid| {
                            Plan::new(shape)
                                .method(method)
                                .isa(isa)
                                .parallelism(par)
                                .stencil(&spec)
                                .unwrap()
                                .run(g, t)
                        };
                        let fill = b.halo_fill();
                        let mut wide =
                            AnyGrid::from_vec(shape, 2 * spec.radius(), fill, init.clone())
                                .unwrap();
                        let mut narrow =
                            AnyGrid::from_vec_spec(shape, &spec, init.clone()).unwrap();
                        run(&mut wide);
                        run(&mut narrow);
                        assert_eq!(
                            max_abs_diff_ref(&wide, &narrow.to_vec()),
                            0.0,
                            "{spec} {method} {par:?} t={t}"
                        );
                    }
                }
            }
        }
    }
    // A typed grid with the radius-wide halo takes the fused pass too:
    // its plan reports a fused depth, which every session runs.
    let (nx, ny) = (81, 13);
    let plan = |method| {
        Plan::new(Shape::d2(nx, ny))
            .method(method)
            .parallelism(Parallelism::Off)
            .boundary(Boundary::Periodic)
            .star2(S2d5p::heat())
            .unwrap()
    };
    let mut fused = plan(Method::TransLayout2);
    assert!(
        fused.fused_steps() > 1,
        "a typed r-halo periodic plan fuses"
    );
    let f = |y: usize, x: usize| ((y * nx + x) % 17) as f64 / 16.0;
    let (mut got, mut want) = (
        Grid2::from_fn(nx, ny, 1, 0.0, f),
        Grid2::from_fn(nx, ny, 1, 0.0, f),
    );
    fused.run(&mut got, 5);
    plan(Method::Scalar).run(&mut want, 5);
    assert_eq!(max_abs_diff(&want, &got), 0.0);
}

// ---------------------------------------------------------------------------
// Build-time contracts
// ---------------------------------------------------------------------------

#[test]
fn temporal_tiling_accepts_every_boundary() {
    // PR 7 lifted the Tiling × Boundary rejection: the wavefront drivers
    // refresh halos per tile step, so every boundary now builds (and
    // runs — see tests/wavefront.rs for the bit-identity matrix).
    let tess = Tiling::Tessellate {
        w: [128, 0, 0],
        h: 8,
        threads: 2,
    };
    assert!(Plan::new(Shape::d1(1024))
        .method(Method::TransLayout2)
        .tiling(tess)
        .boundary(Boundary::Periodic)
        .star1(S1d3p::heat())
        .is_ok());

    assert!(Plan::new(Shape::d1(1024))
        .method(Method::Dlt)
        .tiling(Tiling::Split {
            w: 64,
            h: 8,
            threads: 2,
        })
        .boundary(Boundary::Reflect)
        .star1(S1d3p::heat())
        .is_ok());

    // The erased path with the spec's own boundary builds too (no
    // builder knob involved).
    let spec: StencilSpec = "1d3p@periodic".parse().unwrap();
    assert!(Plan::new(Shape::d1(1024))
        .tiling(tess)
        .stencil(&spec)
        .is_ok());

    // Dirichlet (any value) composes as before.
    assert!(Plan::new(Shape::d1(1024))
        .tiling(tess)
        .boundary(Boundary::Dirichlet(3.5))
        .star1(S1d3p::heat())
        .is_ok());

    // The shape-level fold restriction still fires under tiling: a
    // 1-cell interior cannot wrap, tiled or not.
    let narrow: StencilSpec = "1d5p@periodic".parse().unwrap();
    let err = Plan::new(Shape::d1(1))
        .tiling(tess)
        .stencil(&narrow)
        .unwrap_err();
    assert!(matches!(err, PlanError::Boundary { .. }), "{err}");
}

#[test]
fn folds_reject_extents_below_the_radius() {
    // 1d5p has r = 2; a 1-cell interior cannot wrap or mirror.
    let spec: StencilSpec = "1d5p@periodic".parse().unwrap();
    let err = Plan::new(Shape::d1(1)).stencil(&spec).unwrap_err();
    assert!(matches!(err, PlanError::Boundary { .. }), "{err}");
    // ...but is fine under Dirichlet (today's behavior).
    assert!(Plan::new(Shape::d1(1))
        .stencil(&"1d5p".parse().unwrap())
        .is_ok());
    // And exactly-radius extents are accepted.
    assert!(Plan::new(Shape::d1(2)).stencil(&spec).is_ok());
}

#[test]
fn boundary_rejections_name_the_restriction() {
    // Each PlanError::Boundary carries a structured BoundaryReason whose
    // message says exactly which restriction fired — not a generic
    // "cannot run here".
    //
    // The fold restriction names the axis, its extent, and the radius.
    let r2 = StencilSpec::star2(&[0.1, 0.2, 0.4, 0.15, 0.15], &[0.12, 0.18, 0.0, 0.22, 0.08])
        .unwrap()
        .with_boundary(Boundary::Periodic);
    let err = Plan::new(Shape::d2(64, 1)).stencil(&r2).unwrap_err();
    assert!(
        matches!(
            err,
            PlanError::Boundary {
                boundary: Boundary::Periodic,
                reason: BoundaryReason::ExtentBelowRadius {
                    axis: 1,
                    extent: 1,
                    radius: 2
                },
            }
        ),
        "{err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("axis 1 extent 1 is smaller than the stencil radius 2"),
        "{msg}"
    );
}

#[test]
fn builder_knob_overrides_spec_boundary() {
    let spec: StencilSpec = "2d5p@periodic".parse().unwrap();
    let plan = Plan::new(Shape::d2(32, 16))
        .boundary(Boundary::Dirichlet(0.0))
        .stencil(&spec)
        .unwrap();
    assert!(plan.boundary().is_dirichlet());
    let plan = Plan::new(Shape::d2(32, 16)).stencil(&spec).unwrap();
    assert_eq!(plan.boundary(), Boundary::Periodic);
    // Typed terminals default to constant-zero halos.
    let plan = Plan::new(Shape::d1(64)).star1(S1d3p::heat()).unwrap();
    assert_eq!(plan.boundary(), Boundary::Dirichlet(0.0));
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

#[test]
fn session_reuse_is_consistent_under_periodic() {
    // Two 3-step session calls ≡ one 6-step run: the refresh state is
    // fully derived from the grid, so chunked stepping changes nothing.
    let spec: StencilSpec = "2d5p@periodic".parse().unwrap();
    let shape = Shape::d2(81, 13);
    let init = seeded(shape, 7);
    for method in [Method::TransLayout2, Method::Dlt, Method::MultiLoad] {
        let mut plan = Plan::new(shape)
            .method(method)
            .parallelism(Parallelism::Off)
            .stencil(&spec)
            .unwrap();
        let mut chunked = AnyGrid::from_vec_spec(shape, &spec, init.clone()).unwrap();
        {
            let mut sess = plan.session(&mut chunked);
            sess.run(3);
            sess.run(3);
        }
        let mut whole = AnyGrid::from_vec_spec(shape, &spec, init.clone()).unwrap();
        let mut plan2 = Plan::new(shape)
            .method(method)
            .parallelism(Parallelism::Off)
            .stencil(&spec)
            .unwrap();
        plan2.run(&mut whole, 6);
        assert_eq!(max_abs_diff_ref(&chunked, &whole.to_vec()), 0.0, "{method}");
        // And both equal the naive reference.
        let want = Naive::new(&spec, shape).run(init.clone(), 6);
        assert_eq!(max_abs_diff_ref(&whole, &want), 0.0, "{method} vs naive");
    }
}

#[test]
fn periodic_diffusion_conserves_the_field_total() {
    // Physics smoke: with normalized weights and no open boundary, the
    // total field is conserved (up to rounding) — the scenario Dirichlet
    // halos could never express.
    let spec: StencilSpec = "2d5p@periodic".parse().unwrap();
    let shape = Shape::d2(64, 32);
    let mut g = AnyGrid::from_fn_spec(
        shape,
        &spec,
        |_, y, x| {
            if (x, y) == (13, 9) {
                1000.0
            } else {
                0.0
            }
        },
    )
    .unwrap();
    let mut plan = Plan::new(shape).stencil(&spec).unwrap();
    plan.run(&mut g, 50);
    let total: f64 = g.to_vec().iter().sum();
    assert!((total - 1000.0).abs() < 1e-9, "total drifted: {total}");
}
