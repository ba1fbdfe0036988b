//! Fig. 8: multicore cache-blocking experiments — SDSL / Tessellation /
//! Our / Our (2 steps) with L1 and L2 blocking, sizes from L3 to memory.

use stencil_bench::fig8::{json_rows, sweep, TILED_METHODS};
use stencil_bench::Cli;
use stencil_simd::Isa;

pub fn main(cli: &Cli) {
    stencil_bench::banner(
        "Fig. 8: multicore cache-blocking performance (1D3P, GFLOP/s, all cores)",
    );
    let scale = cli.scale();
    let isa = Isa::detect_best();
    let panels: &[(&str, usize)] = if scale == stencil_bench::Scale::Smoke {
        &[("a", 64)]
    } else {
        &[("a", 400), ("b", 4000)]
    };
    let mut all_rows = Vec::new();
    for &(panel, base) in panels {
        println!("\n## Fig 8({panel}): base steps T={base}");
        println!(
            "{:<10} {:<5} {:<6} {:<7} {:>10} {:>13} {:>9} {:>9}",
            "n", "level", "block", "steps", "SDSL", "Tessellation", "Our", "Our2"
        );
        let rows = sweep(isa, base, scale);
        all_rows.extend(rows.iter().cloned());
        for n in rows
            .iter()
            .map(|r| r.n)
            .collect::<std::collections::BTreeSet<_>>()
        {
            for blocking in ["L1", "L2"] {
                let cells: Vec<_> = rows
                    .iter()
                    .filter(|r| r.n == n && r.blocking == blocking)
                    .collect();
                if cells.is_empty() {
                    continue;
                }
                let get = |m: &str| {
                    cells
                        .iter()
                        .find(|r| r.method == m)
                        .map(|r| r.gflops)
                        .unwrap_or(0.0)
                };
                println!(
                    "{:<10} {:<5} {:<6} {:<7} {:>10.2} {:>13.2} {:>9.2} {:>9.2}",
                    n,
                    cells[0].level,
                    blocking,
                    cells[0].steps,
                    get(TILED_METHODS[0]),
                    get(TILED_METHODS[1]),
                    get(TILED_METHODS[2]),
                    get(TILED_METHODS[3])
                );
            }
        }
    }

    stencil_bench::save::maybe_save("fig8", &json_rows(&all_rows));
}
