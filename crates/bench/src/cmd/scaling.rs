//! Scaling microbenchmark for the parallel executors: plans at
//! `Parallelism::Off` vs `Parallelism::Threads(k)` across a thread axis,
//! for a 1D, a 2D-star and a 3D-star untiled workload plus a temporally
//! tiled family (tessellation over multiple-loads vectorization, hybrid
//! split over DLT) whose `off` baseline is the *tiled-sequential*
//! schedule — so its speedup column isolates the wavefront scheduler.
//! All workloads compile through the erased API ([`Plan::stencil`]), so
//! the families are one loop over [`StencilSpec`]s instead of copies of
//! the driver.
//!
//! Every parallel result is verified **bit-identical** to the scalar
//! oracle before its time is reported — a speedup that changes bits is a
//! bug, not a result (the process exits non-zero on any mismatch).
//!
//! ```sh
//! cargo run --release --bin stencil-bench -- scaling [--smoke] [--threads=4] [--save-json] [--phases]
//! ```
//!
//! `--threads=N` restricts the axis to `{1, N}`; the default axis is
//! 1, 2, 4, ... up to every available core. `--phases` prints the
//! staged tiled drivers' phase breakdown (stage-in / compute /
//! stage-out / halo) for each tiled cell — all zeros for untiled and
//! natural-layout tiled rows, which never enter the staging arena.
//! Cells whose thread count exceeds the host's available parallelism
//! (the boundary family's fixed {2, 7} axis on a small host) carry a
//! `"saturated": true` field in the saved rows, so trajectory tooling
//! can discount oversubscribed measurements.

use stencil_bench::save::{Row, Value};
use stencil_bench::{any_grid_dtype, best_of, gflops, Cli, Scale};
use stencil_core::exec::{Parallelism, Plan, Shape, Tiling};
use stencil_core::verify::max_abs_diff_any;
use stencil_core::{Method, StencilSpec};
use stencil_simd::Isa;

/// Thread counts to sweep: powers of two up to the host core count (the
/// host count itself always included), or `{1, N}` under `--threads=N`.
fn thread_axis(cli: &Cli) -> Vec<usize> {
    if let Some(n) = cli.threads() {
        let mut v = vec![1];
        if n > 1 {
            v.push(n);
        }
        return v;
    }
    let m = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut v: Vec<usize> = (0..).map(|p| 1usize << p).take_while(|&t| t <= m).collect();
    if v.last() != Some(&m) {
        v.push(m);
    }
    v
}

/// One workload: name (boundary and tiling encoded in it), shape, step
/// count, seed, method, and the temporal tiling (`None` = untiled).
type Workload = (&'static str, Shape, usize, u64, Method, Option<Tiling>);

struct Cell {
    workload: String,
    /// `Some("f32")` for the narrow-element rows: the saved row then
    /// carries the *base* workload name plus a `dtype` field, so
    /// bench_gate's dtype-speedup check pairs it with the f64 sibling
    /// sharing the rest of its identity.
    dtype: Option<&'static str>,
    threads: usize, // 0 encodes Parallelism::Off
    /// Thread count exceeds the host's available parallelism — the
    /// measurement is oversubscribed and saved with `"saturated": true`.
    saturated: bool,
    secs: f64,
    gf: f64,
}

fn report(cells: &[Cell], rows: &mut Vec<Row>) {
    let off = cells
        .iter()
        .find(|c| c.threads == 0)
        .expect("Off baseline measured first");
    for c in cells {
        let label = if c.threads == 0 {
            "off".to_string()
        } else {
            c.threads.to_string()
        };
        let speedup = off.secs / c.secs;
        let shown = match c.dtype {
            Some(d) => format!("{}@{d}", c.workload),
            None => c.workload.clone(),
        };
        println!(
            "{:<10} {:>7} {:>11.2} ms {:>9.2} GF/s {:>8.2}x",
            shown,
            label,
            c.secs * 1e3,
            c.gf,
            speedup,
        );
        let mut row = vec![
            ("workload", Value::Str(c.workload.clone())),
            ("threads", Value::Str(label)),
        ];
        if let Some(d) = c.dtype {
            row.push(("dtype", Value::from(d)));
        }
        if c.saturated {
            row.push(("saturated", Value::from(true)));
        }
        row.extend([
            ("seconds", Value::from(c.secs)),
            ("gflops", Value::from(c.gf)),
            ("speedup_vs_off", Value::from(speedup)),
        ]);
        rows.push(row);
    }
}

pub fn main(cli: &Cli) {
    stencil_bench::banner("scaling: untiled domain decomposition, Off vs Threads(k)");
    let isa = Isa::detect_best();
    let smoke = cli.scale() == Scale::Smoke;
    let axis = thread_axis(cli);
    let phases = cli.flag("--phases");
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let reps = if smoke { 2 } else { 3 };
    let mut rows: Vec<Row> = Vec::new();
    let mut bit_failures = 0usize;
    println!(
        "\n{:<10} {:>7} {:>14} {:>14} {:>9}",
        "workload", "threads", "time", "rate", "vs off"
    );

    // One TransLayout workload per dimensionality: identical per-step
    // kernel under Off and Threads(k) — pure decomposition scaling. The
    // 2D cell is the acceptance workload: a ≥4-core host should show
    // ≥2.5x at 4 threads over Off.
    // The `@f32` workloads are the dtype row family: the same shapes
    // and step counts at half the element width (the initial grids are
    // the f32 roundings of the f64 siblings' cells — same seeds). Their
    // rows carry the base workload name plus a `dtype` field, so
    // bench_gate pairs each with its f64 sibling for the dtype-speedup
    // check; they sweep the full thread axis like the siblings.
    // The `@boundary` workloads are the boundary row family: identical
    // decomposition plus the wrap/mirror halo refresh, fused into each
    // band's sweep (no extra barrier), still verified bit-identical
    // against the scalar oracle running the same boundary. They run a
    // fixed {2, 7} thread axis — an even divisor plus a non-divisible
    // split — so the per-band seam refresh cost is tracked regardless
    // of the host's core count.
    let workloads: &[(&str, Shape, usize, u64)] = if smoke {
        &[
            ("1d3p", Shape::d1(500_000), 12, 41),
            ("2d5p", Shape::d2(512, 256), 10, 42),
            ("3d7p", Shape::d3(64, 64, 64), 6, 43),
            ("2d5p@periodic", Shape::d2(512, 256), 10, 44),
            ("3d7p@reflect", Shape::d3(64, 64, 64), 6, 45),
            ("1d3p@f32", Shape::d1(500_000), 12, 41),
            ("2d5p@f32", Shape::d2(512, 256), 10, 42),
            ("3d7p@f32", Shape::d3(64, 64, 64), 6, 43),
        ]
    } else {
        &[
            ("1d3p", Shape::d1(4_000_000), 40, 41),
            ("2d5p", Shape::d2(2_000, 1_000), 40, 42),
            ("3d7p", Shape::d3(192, 192, 192), 10, 43),
            ("2d5p@periodic", Shape::d2(2_000, 1_000), 40, 44),
            ("3d7p@reflect", Shape::d3(192, 192, 192), 10, 45),
            ("1d3p@f32", Shape::d1(4_000_000), 40, 41),
            ("2d5p@f32", Shape::d2(2_000, 1_000), 40, 42),
            ("3d7p@f32", Shape::d3(192, 192, 192), 10, 43),
        ]
    };

    // The tiled family: temporal tiling under the wavefront scheduler,
    // tiled-sequential (`off`) vs Threads(k) — the speedup column is the
    // scheduler's contribution alone, since both sides run the identical
    // tile decomposition. Like the untiled boundary rows, the boundary
    // lives in the workload *name* (not a `boundary` field): a tiled
    // schedule has no untiled Dirichlet sibling of matching identity, so
    // the gate's parity pairing must not see these rows. The 2D shapes
    // are the L2/L3-resident acceptance rows (~2 MB working set in
    // smoke): tiled-parallel must beat tiled-sequential at 2 threads.
    // Tile geometry follows fig9's tuning direction: wide tiles and a
    // tall time chunk, so the per-tile scheduling cost amortizes over
    // real temporal reuse while still leaving a tile grid for the
    // wavefront to distribute. The tess-paired `2d5p` rows use
    // 256-wide tiles: the staged transpose layout partitions each row
    // into vl^2-cell sets, and a 128-wide tile holds exactly two f64
    // AVX-512 sets — every set an edge set, the worst case for the
    // `(tl2)` side of the pair — while 256 leaves interior sets the
    // way a production tile size would. The `2d5p+tess(tl2)` row
    // tracks the TL-under-tessellation gap through the tile-resident
    // staging arena; the tess-parity gate check pins it within 2.5x of
    // the MultiLoad row sharing the same tile geometry.
    // The `3d7p+tess(tl2)` / `+tess` pair extends the same tracking to
    // 3D, and `2d5p+tess(tl2)@f32` to the narrow element type; the gate
    // pairs each `(tl2)` row with the MultiLoad row of identical tile
    // geometry (see `gate::tess_parity`).
    let tess = |wx: usize, wy: usize, h: usize| Tiling::Tessellate {
        w: [wx, wy, 0],
        h,
        threads: 1,
    };
    let tess3 = |wx: usize, wy: usize, wz: usize, h: usize| Tiling::Tessellate {
        w: [wx, wy, wz],
        h,
        threads: 1,
    };
    let split = |w: usize, h: usize| Tiling::Split { w, h, threads: 1 };
    let tiled: &[(&str, Shape, usize, u64, Method, Tiling)] = if smoke {
        &[
            (
                "2d5p+tess",
                Shape::d2(512, 256),
                10,
                46,
                Method::MultiLoad,
                tess(256, 64, 10),
            ),
            (
                "2d5p@periodic+tess",
                Shape::d2(512, 256),
                10,
                47,
                Method::MultiLoad,
                tess(128, 64, 10),
            ),
            (
                "2d9p@reflect+split",
                Shape::d2(512, 256),
                10,
                48,
                Method::Dlt,
                split(64, 10),
            ),
            (
                "2d5p+tess(tl2)",
                Shape::d2(512, 256),
                10,
                46,
                Method::TransLayout2,
                tess(256, 64, 10),
            ),
            (
                "2d5p@f32+tess(tl2)",
                Shape::d2(512, 256),
                10,
                46,
                Method::TransLayout2,
                tess(256, 64, 10),
            ),
            (
                "3d7p+tess",
                Shape::d3(64, 64, 64),
                6,
                49,
                Method::MultiLoad,
                tess3(32, 16, 16, 4),
            ),
            (
                "3d7p+tess(tl2)",
                Shape::d3(64, 64, 64),
                6,
                49,
                Method::TransLayout2,
                tess3(32, 16, 16, 4),
            ),
        ]
    } else {
        &[
            (
                "2d5p+tess",
                Shape::d2(2_000, 1_000),
                40,
                46,
                Method::MultiLoad,
                tess(200, 200, 40),
            ),
            (
                "2d5p@periodic+tess",
                Shape::d2(2_000, 1_000),
                40,
                47,
                Method::MultiLoad,
                tess(200, 200, 40),
            ),
            (
                "2d9p@reflect+split",
                Shape::d2(2_000, 1_000),
                40,
                48,
                Method::Dlt,
                split(200, 40),
            ),
            (
                "2d5p+tess(tl2)",
                Shape::d2(2_000, 1_000),
                40,
                46,
                Method::TransLayout2,
                tess(200, 200, 40),
            ),
            (
                "2d5p@f32+tess(tl2)",
                Shape::d2(2_000, 1_000),
                40,
                46,
                Method::TransLayout2,
                tess(200, 200, 40),
            ),
            (
                "3d7p+tess",
                Shape::d3(192, 192, 192),
                10,
                49,
                Method::MultiLoad,
                tess3(64, 48, 48, 10),
            ),
            (
                "3d7p+tess(tl2)",
                Shape::d3(192, 192, 192),
                10,
                49,
                Method::TransLayout2,
                tess3(64, 48, 48, 10),
            ),
        ]
    };

    let all: Vec<Workload> = workloads
        .iter()
        .map(|&(n, s, t, sd)| (n, s, t, sd, Method::TransLayout, None))
        .chain(
            tiled
                .iter()
                .map(|&(n, s, t, sd, m, tl)| (n, s, t, sd, m, Some(tl))),
        )
        .collect();

    for (name, shape, t, seed, method, tiling) in all {
        let base = name.split('+').next().unwrap_or(name);
        let spec: StencilSpec = base.parse().expect("paper stencil name");
        let waxis: &[usize] = if name.contains("@periodic") || name.contains("@reflect") {
            &[2, 7]
        } else {
            &axis
        };
        let init = any_grid_dtype(shape, spec.radius(), seed, spec.dtype());
        let mut oracle = init.clone();
        Plan::new(shape)
            .method(Method::Scalar)
            .isa(isa)
            .parallelism(Parallelism::Off)
            .stencil(&spec)
            .unwrap()
            .run(&mut oracle, t);
        let [nx, ny, nz] = shape.dims();
        let cells_n = nx * ny.max(1) * nz.max(1);
        let mut cells = Vec::new();
        for (i, &k) in [0usize].iter().chain(waxis).enumerate() {
            let par = if i == 0 {
                Parallelism::Off
            } else {
                Parallelism::Threads(k)
            };
            let mut plan = Plan::new(shape).method(method).isa(isa);
            if let Some(tl) = tiling {
                plan = plan.tiling(tl);
            }
            let mut plan = plan.parallelism(par).stencil(&spec).unwrap();
            let mut g = init.clone();
            let secs = best_of(reps, || {
                let mut g = init.clone();
                plan.run(&mut g, t);
                std::hint::black_box(&g);
            });
            plan.reset_phase_totals();
            plan.run(&mut g, t);
            if max_abs_diff_any(&g, &oracle) != 0.0 {
                eprintln!("BIT MISMATCH: {name} {par:?}");
                bit_failures += 1;
            }
            if phases {
                // Totals from the verification run just above: CPU time
                // summed across workers, so shares are meaningful even
                // when the wall time is divided over a pool.
                let p = plan.phase_totals();
                let tot = p.stage_in_ns + p.compute_ns + p.stage_out_ns + p.halo_ns;
                if tot > 0 {
                    let pct = |ns: u64| ns as f64 / tot as f64 * 100.0;
                    println!(
                        "  phases {name} {par:?}: stage-in {:.1}% compute {:.1}% \
                         stage-out {:.1}% halo {:.1}% ({:.2} ms cpu)",
                        pct(p.stage_in_ns),
                        pct(p.compute_ns),
                        pct(p.stage_out_ns),
                        pct(p.halo_ns),
                        tot as f64 / 1e6,
                    );
                }
            }
            cells.push(Cell {
                workload: name.replace("@f32", ""),
                dtype: (spec.dtype() == stencil_simd::Dtype::F32).then_some("f32"),
                threads: if i == 0 { 0 } else { k },
                saturated: i > 0 && k > host,
                secs,
                gf: gflops(cells_n, t, spec.flops_per_point(), secs),
            });
        }
        report(&cells, &mut rows);
    }

    println!(
        "\n(all results verified bit-identical to the scalar oracle: {})",
        if bit_failures == 0 { "yes" } else { "NO" }
    );
    stencil_bench::save::maybe_save("scaling", &rows);
    if bit_failures > 0 {
        std::process::exit(1);
    }
}
