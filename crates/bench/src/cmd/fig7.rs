//! Fig. 7: absolute performance, single-thread block-free experiments,
//! problem sizes from L1 to memory, two total-time-step scales
//! ((a) base and (b) 10× — the paper's T=1000 / T=10000 pair, scaled).

use stencil_bench::fig7::{json_rows, sweep};
use stencil_bench::Cli;
use stencil_simd::Isa;

pub fn main(cli: &Cli) {
    stencil_bench::banner("Fig. 7: sequential block-free performance (1D3P, GFLOP/s)");
    let isa = Isa::detect_best();
    let scale = cli.scale();
    let panels: &[(&str, usize)] = if scale == stencil_bench::Scale::Smoke {
        &[("a", 40)]
    } else {
        &[("a", 200), ("b", 2000)]
    };
    let mut all_rows = Vec::new();
    for &(panel, base) in panels {
        println!(
            "\n## Fig 7({panel}): base steps T={base} (scaled from paper's {})",
            base * 5
        );
        println!(
            "{:<10} {:<5} {:<7} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "n", "level", "steps", "MultiLoad", "Reorg", "DLT", "Our", "Our2"
        );
        let rows = sweep(isa, base, scale);
        all_rows.extend(rows.iter().cloned());
        let mut by_n: Vec<usize> = rows.iter().map(|r| r.n).collect();
        by_n.dedup();
        for n in by_n {
            let cells: Vec<_> = rows.iter().filter(|r| r.n == n).collect();
            let get = |m: &str| {
                cells
                    .iter()
                    .find(|r| r.method == m)
                    .map(|r| r.gflops)
                    .unwrap_or(0.0)
            };
            println!(
                "{:<10} {:<5} {:<7} {:>12.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                n,
                cells[0].level,
                cells[0].steps,
                get("MultiLoad"),
                get("Reorg"),
                get("DLT"),
                get("Our"),
                get("Our2")
            );
        }
    }

    stencil_bench::save::maybe_save("fig7", &json_rows(&all_rows));
}
