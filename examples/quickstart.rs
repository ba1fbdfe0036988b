//! Quickstart: diffuse a heat spike with every vectorization scheme and
//! check they agree, then time the paper's scheme against the baselines —
//! all through the **erased** engine: the stencil comes from a string
//! (as it would from a CLI flag or a service request), compiles through
//! [`Plan::stencil`] into a [`DynPlan`], and still runs the same
//! monomorphized kernels as the typed API.
//!
//! ```sh
//! cargo run --release --example quickstart [-- --smoke]
//! ```

use std::time::Instant;

use stencil_lab::prelude::*;

/// CI smoke mode: shrink the run to seconds (`--smoke` anywhere in args).
fn smoke() -> bool {
    std::env::args().skip(1).any(|a| a == "--smoke")
}

fn main() {
    let isa = Isa::detect_best();
    println!("ISA: {isa} ({} f64 lanes)\n", isa.lanes());

    // A 1D rod with a hot spike in the middle; ends held at 0. The
    // stencil is picked "at runtime" — parse a paper name into a spec.
    let (n, steps) = if smoke() {
        (1 << 16, 40)
    } else {
        (1 << 20, 200)
    };
    let spec: StencilSpec = "1d3p".parse().expect("paper stencil name");
    let init = Grid1::from_fn(n, 0.0, |i| if i == n / 2 { 1000.0 } else { 0.0 });

    let mut reference = init.clone();
    Plan::new(Shape::d1(n))
        .method(Method::Scalar)
        .isa(isa)
        .stencil(&spec)
        .expect("valid plan")
        .run(&mut reference, steps);

    println!("{:<14} {:>10} {:>14}", "method", "time", "max|Δ| vs scalar");
    for method in Method::ALL {
        let mut plan = Plan::new(Shape::d1(n))
            .method(method)
            .isa(isa)
            .stencil(&spec)
            .expect("valid plan");
        let mut g = init.clone();
        let t0 = Instant::now();
        plan.run(&mut g, steps);
        let dt = t0.elapsed();
        let diff = stencil_lab::core::verify::max_abs_diff(&g, &reference);
        println!("{:<14} {:>8.2?} {:>14.1e}", method.name(), dt, diff);
        assert_eq!(diff, 0.0, "all schemes are bit-identical");
    }

    // The same physics, temporally tiled across all cores.
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut plan = Plan::new(Shape::d1(n))
        .method(Method::TransLayout2)
        .isa(isa)
        .tiling(Tiling::Tessellate {
            w: [2000, 0, 0],
            h: 100,
            threads,
        })
        .stencil(&spec)
        .expect("valid tiled plan");
    let mut g = init.clone();
    let t0 = Instant::now();
    plan.run(&mut g, steps);
    println!(
        "\ntessellate + translayout2 on {threads} threads: {:.2?} (still exact: {:e})",
        t0.elapsed(),
        stencil_lab::core::verify::max_abs_diff(&g, &reference)
    );

    // Repeated stepping through a layout-resident session: the transpose
    // round-trip and scratch allocation are paid once, not per call.
    let mut plan = Plan::new(Shape::d1(n))
        .method(Method::TransLayout2)
        .isa(isa)
        .stencil(&spec)
        .expect("valid plan");
    let mut g = init.clone();
    let t0 = Instant::now();
    {
        let mut sess = plan.session(&mut g);
        for _ in 0..steps / 20 {
            sess.run(20);
        }
    }
    println!(
        "session ({} × 20-step calls): {:.2?} (still exact: {:e})",
        steps / 20,
        t0.elapsed(),
        stencil_lab::core::verify::max_abs_diff(&g, &reference)
    );

    // The fully dynamic container: shape + numbers in, no generic grid
    // type named, same bits out.
    let shape = Shape::d1(n);
    let mut any = AnyGrid::from_vec(shape, spec.radius(), 0.0, init.interior().to_vec())
        .expect("data covers the shape");
    Plan::new(shape)
        .method(Method::TransLayout2)
        .isa(isa)
        .stencil(&spec)
        .expect("valid plan")
        .run(&mut any, steps);
    let diff =
        stencil_lab::core::verify::max_abs_diff(any.as_grid1().expect("1D shape"), &reference);
    println!("AnyGrid::from_vec path: still exact: {diff:e}");
    assert_eq!(diff, 0.0);

    // Physics sanity: total heat is conserved away from the boundaries.
    let total: f64 = g.interior().iter().sum();
    println!("total heat after {steps} steps: {total:.3} (injected 1000)");

    // The same rod bent into a ring: a periodic boundary (spec name
    // "1d3p@periodic") turns the open rod into a closed loop — heat
    // wraps instead of draining into the fixed-value halos, and every
    // scheme still agrees bit-for-bit with the scalar reference.
    let ring: StencilSpec = "1d3p@periodic".parse().expect("stencil@boundary name");
    let mut reference = init.clone();
    Plan::new(Shape::d1(n))
        .method(Method::Scalar)
        .isa(isa)
        .stencil(&ring)
        .expect("valid plan")
        .run(&mut reference, steps);
    for method in Method::ALL {
        let mut plan = Plan::new(Shape::d1(n))
            .method(method)
            .isa(isa)
            .stencil(&ring)
            .expect("valid plan");
        let mut g = init.clone();
        plan.run(&mut g, steps);
        let diff = stencil_lab::core::verify::max_abs_diff(&g, &reference);
        assert_eq!(diff, 0.0, "{method} under periodic");
    }
    let ring_total: f64 = reference.interior().iter().sum();
    println!(
        "periodic ring, {steps} steps: every scheme exact; total heat {ring_total:.3} \
         (conserved — nothing drains through a wrapped boundary)"
    );
}
