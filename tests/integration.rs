//! Workspace-level integration tests: the three crates working together
//! through the umbrella prelude and the [`Plan`] engine, plus
//! physics-level sanity checks that don't depend on any reference
//! implementation.

use stencil_lab::prelude::*;
use stencil_simd::AlignedBuf;

#[test]
fn prelude_end_to_end_pipeline() {
    let isa = Isa::detect_best();
    let n = 4096;
    let s = S1d3p::heat();
    let init = Grid1::from_fn(n, 0.0, |i| if i % 97 == 0 { 1.0 } else { 0.0 });

    // untiled transpose-layout, tiled tessellate, tiled split: all equal
    let mut a = init.clone();
    Plan::new(Shape::d1(n))
        .method(Method::TransLayout2)
        .isa(isa)
        .star1(s)
        .unwrap()
        .run(&mut a, 40);
    let mut b = init.clone();
    Plan::new(Shape::d1(n))
        .method(Method::TransLayout2)
        .isa(isa)
        .tiling(Tiling::Tessellate {
            w: [512, 0, 0],
            h: 64,
            threads: 8,
        })
        .star1(s)
        .unwrap()
        .run(&mut b, 40);
    let mut c = init.clone();
    Plan::new(Shape::d1(n))
        .method(Method::Dlt)
        .isa(isa)
        .tiling(Tiling::Split {
            w: 64,
            h: 32,
            threads: 8,
        })
        .star1(s)
        .unwrap()
        .run(&mut c, 40);
    assert_eq!(stencil_lab::core::verify::max_abs_diff(&a, &b), 0.0);
    assert_eq!(stencil_lab::core::verify::max_abs_diff(&a, &c), 0.0);
}

#[test]
fn heat_decays_monotonically_toward_boundary_value() {
    // With zero boundaries and normalized positive weights, the max
    // principle holds: max decreases, min increases toward 0. Stepping
    // happens inside one layout-resident session — ten runs, one
    // transpose round-trip... per observation, since reading the interior
    // requires leaving the session.
    let isa = Isa::detect_best();
    let s = S1d3p::heat();
    let mut plan = Plan::new(Shape::d1(2048))
        .method(Method::TransLayout2)
        .isa(isa)
        .star1(s)
        .unwrap();
    let mut g = Grid1::from_fn(2048, 0.0, |i| if i == 1024 { 100.0 } else { 0.0 });
    let mut prev_max = 100.0f64;
    for _ in 0..10 {
        plan.run(&mut g, 4);
        let mx = g.interior().iter().fold(f64::MIN, |m, &x| m.max(x));
        let mn = g.interior().iter().fold(f64::MAX, |m, &x| m.min(x));
        assert!(mx <= prev_max + 1e-12, "max principle violated");
        assert!(mn >= -1e-12, "positivity violated");
        prev_max = mx;
    }
}

#[test]
fn blur_converges_to_constant() {
    // Repeated normalized box blur of a bounded image converges toward a
    // flat field (here bounded by halo = interior mean scale).
    let isa = Isa::detect_best();
    let s = S2d9p::blur();
    let mut g = Grid2::from_fn(96, 64, 1, 0.5, |y, x| ((x + y) % 2) as f64);
    Plan::new(Shape::d2(96, 64))
        .method(Method::TransLayout)
        .isa(isa)
        .box2(s)
        .unwrap()
        .run(&mut g, 200);
    for y in 0..64 {
        for &v in g.row(y) {
            assert!((v - 0.5).abs() < 0.05, "not converged: {v}");
        }
    }
}

#[test]
fn cross_isa_agreement_end_to_end() {
    // AVX2 and AVX-512 paths (when present) must agree bitwise with the
    // portable oracle after a full tiled run.
    let s = S2d5p::heat();
    let init = Grid2::from_fn(130, 40, 1, 0.0, |y, x| ((x * 31 + y * 17) % 101) as f64);
    let mut reference = init.clone();
    Plan::new(Shape::d2(130, 40))
        .method(Method::Scalar)
        .isa(Isa::Portable4)
        .star2(s)
        .unwrap()
        .run(&mut reference, 12);
    for isa in Isa::ALL.into_iter().filter(|i| i.is_available()) {
        let mut g = init.clone();
        Plan::new(Shape::d2(130, 40))
            .method(Method::TransLayout2)
            .isa(isa)
            .tiling(Tiling::Tessellate {
                w: [48, 16, 0],
                h: 6,
                threads: 4,
            })
            .star2(s)
            .unwrap()
            .run(&mut g, 12);
        assert_eq!(
            stencil_lab::core::verify::max_abs_diff(&g, &reference),
            0.0,
            "{isa}"
        );
    }
}

#[test]
fn three_d_tiled_matches_untiled_through_prelude() {
    let isa = Isa::detect_best();
    let s = S3d7p::heat();
    let init = Grid3::from_fn(72, 20, 12, 1, 0.0, |z, y, x| {
        ((x + 2 * y + 3 * z) % 7) as f64
    });
    let mut a = init.clone();
    Plan::new(Shape::d3(72, 20, 12))
        .method(Method::MultiLoad)
        .isa(isa)
        .star3(s)
        .unwrap()
        .run(&mut a, 6);
    let mut b = init.clone();
    Plan::new(Shape::d3(72, 20, 12))
        .method(Method::TransLayout2)
        .isa(isa)
        .tiling(Tiling::Tessellate {
            w: [36, 8, 6],
            h: 3,
            threads: 6,
        })
        .star3(s)
        .unwrap()
        .run(&mut b, 6);
    let mut c = init.clone();
    Plan::new(Shape::d3(72, 20, 12))
        .method(Method::Dlt)
        .isa(isa)
        .tiling(Tiling::Split {
            w: 6,
            h: 3,
            threads: 6,
        })
        .star3(s)
        .unwrap()
        .run(&mut c, 6);
    assert_eq!(stencil_lab::core::verify::max_abs_diff(&a, &b), 0.0);
    assert_eq!(stencil_lab::core::verify::max_abs_diff(&a, &c), 0.0);
}

#[test]
fn simd_substrate_is_reexported_and_usable() {
    let b = AlignedBuf::from_slice(&[1.0, 2.0, 3.0]);
    assert_eq!(b.as_ptr() as usize % stencil_simd::ALIGN, 0);
    assert_eq!(Isa::detect_best().lanes() % 4, 0);
}
