//! Plan-reuse microbenchmark (criterion flavour of `src/bin/plan_reuse.rs`):
//! the per-call legacy free function (clone + layout round-trip every call)
//! vs a reused `Plan` (persistent scratch) vs a layout-resident `Session`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use stencil_bench::grid1;
use stencil_core::exec::{Parallelism, Plan, Shape};
use stencil_core::{run_spec, Method, S1d3p, StencilSpec};
use stencil_simd::Isa;

fn bench(c: &mut Criterion) {
    let isa = Isa::detect_best();
    let s = S1d3p::heat();
    let (n, chunk) = (40_000usize, 8usize);
    let init = grid1(n, 21);

    let mut group = c.benchmark_group("plan_reuse_1d3p_L2");
    group.throughput(Throughput::Elements((n * chunk) as u64));
    group.sample_size(10);

    group.bench_function("free_fn_per_call", |b| {
        let mut g = init.clone();
        b.iter(|| {
            let spec = StencilSpec::heat_1d3p();
            run_spec(Method::TransLayout2, isa, &mut g, &spec, chunk)
        })
    });

    group.bench_function("plan_run_per_call", |b| {
        let mut plan = Plan::new(Shape::d1(n))
            .method(Method::TransLayout2)
            .isa(isa)
            .parallelism(Parallelism::Off)
            .star1(s)
            .expect("valid plan");
        let mut g = init.clone();
        b.iter(|| plan.run(&mut g, chunk))
    });

    group.bench_function("session_steady_state", |b| {
        let mut plan = Plan::new(Shape::d1(n))
            .method(Method::TransLayout2)
            .isa(isa)
            .parallelism(Parallelism::Off)
            .star1(s)
            .expect("valid plan");
        let mut g = init.clone();
        let mut sess = plan.session(&mut g);
        b.iter(|| sess.run(chunk))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench
}
criterion_main!(benches);
