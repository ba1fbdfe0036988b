//! Compile-time auto-trait assertions for the execution engine.
//!
//! The service layer (`stencil-server`) moves plans, sessions, and grids
//! onto dispatcher threads, so `Send` is part of the public contract of
//! these types — not an accident of their current fields. If a future
//! change smuggles an `Rc`, a non-`Send` raw pointer, or a thread-bound
//! handle into any of them, this file stops compiling in CI instead of
//! breaking a downstream user at link- or run-time.

use stencil_core::exec::{CompiledPlan, DynPlan, DynSession, Plan, Session, Shape};
use stencil_core::kernels::Kernel;
use stencil_core::{AnyGrid, Grid1, Grid2, Grid3, StencilSpec};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn engine_types_are_send() {
    // The plan builder, the compiled plans, and the runtime-spec plan.
    assert_send::<Plan>();
    assert_send::<CompiledPlan<f64>>();
    assert_send::<CompiledPlan<f32>>();
    assert_send::<DynPlan>();
    // The boxed kernel object every plan holds: pool workers call it
    // concurrently through a shared reference, so it is Sync as well.
    assert_send::<Box<dyn Kernel<f64>>>();
    assert_sync::<Box<dyn Kernel<f64>>>();
    assert_send::<Box<dyn Kernel<f32>>>();
    assert_sync::<Box<dyn Kernel<f32>>>();
    // Sessions borrow the plan and the grid mutably; they are Send iff
    // both are, which is exactly what a dispatcher thread needs.
    assert_send::<Session<'static, f64>>();
    assert_send::<DynSession<'static>>();
    // Grids (the job payload the service layer ships between threads).
    assert_send::<Grid1>();
    assert_send::<Grid2<f32>>();
    assert_send::<Grid3>();
    assert_send::<AnyGrid>();
    // The cache key.
    assert_send::<StencilSpec>();
    assert_sync::<StencilSpec>();
}

#[test]
fn a_dyn_plan_actually_crosses_a_thread() {
    // The static assertion above plus one dynamic smoke test: build a
    // plan on this thread, run it on another, hand the grid back.
    let spec: StencilSpec = "1d3p".parse().unwrap();
    let n = 64;
    let mut plan = Plan::new(Shape::d1(n)).stencil(&spec).unwrap();
    let mut grid = AnyGrid::from_fn(Shape::d1(n), spec.radius(), 0.0, |_, _, x| x as f64);
    let mut expect = AnyGrid::from_fn(Shape::d1(n), spec.radius(), 0.0, |_, _, x| x as f64);
    let grid = std::thread::spawn(move || {
        plan.run(&mut grid, 3);
        grid
    })
    .join()
    .unwrap();
    Plan::new(Shape::d1(n))
        .stencil(&spec)
        .unwrap()
        .run(&mut expect, 3);
    let (a, b) = (grid.to_vec(), expect.to_vec());
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
}
