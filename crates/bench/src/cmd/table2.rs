//! Table 2: performance improvement over the multiple-loads method per
//! storage level, single-thread block-free (derived from the Fig. 7
//! sweep).

use stencil_bench::fig7::{sweep, table2};
use stencil_bench::Cli;
use stencil_simd::Isa;

pub fn main(cli: &Cli) {
    stencil_bench::banner(
        "Table 2: speedup over MultiLoad per storage level (1D3P, single thread)",
    );
    let scale = cli.scale();
    let base = if scale == stencil_bench::Scale::Smoke {
        40
    } else {
        200
    };
    let rows = sweep(Isa::detect_best(), base, scale);
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "Level", "Reorg", "DLT", "Our", "Our2"
    );
    let view = table2(&rows);
    for (level, cols) in &view {
        print!("{:<8}", level);
        for m in ["Reorg", "DLT", "Our", "Our2"] {
            let v = cols
                .iter()
                .find(|(mm, _)| mm == m)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN);
            print!(" {:>7.2}x", v);
        }
        println!();
    }
    println!("\n(paper, Xeon 6140: Reorg 1.11x / DLT 1.35x / Our 1.98x / Our2 2.81x mean)");

    let json: Vec<stencil_bench::save::Row> = view
        .into_iter()
        .flat_map(|(level, cols)| {
            cols.into_iter().map(move |(method, speedup)| {
                vec![
                    ("level", stencil_bench::save::Value::Str(level.clone())),
                    ("method", stencil_bench::save::Value::Str(method)),
                    (
                        "speedup_vs_multiload",
                        stencil_bench::save::Value::Num(speedup),
                    ),
                ]
            })
        })
        .collect();
    stencil_bench::save::maybe_save("table2", &json);
}
