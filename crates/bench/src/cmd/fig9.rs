//! Fig. 9: scalability of the four tiled schemes for all six stencils,
//! AVX2 and AVX-512, across core counts.
//!
//! Pass stencil names as arguments to restrict the sweep
//! (e.g. `fig9 1d3p 2d5p`); default is all six.

use stencil_bench::fig9::{json_rows, sweep, thread_axis, METHODS};
use stencil_bench::Cli;

pub fn main(cli: &Cli) {
    stencil_bench::banner("Fig. 9: scalability (GFLOP/s vs cores, AVX2 & AVX-512)");
    let stencils = cli.stencils();
    let rows = sweep(cli.scale(), &stencils);
    for spec in &stencils {
        let stencil = spec.to_string();
        for isa in ["avx2", "avx512"] {
            let cells: Vec<_> = rows
                .iter()
                .filter(|r| r.stencil == stencil && r.isa.name() == isa)
                .collect();
            if cells.is_empty() {
                continue;
            }
            println!("\n## {stencil} ({isa})");
            print!("{:<14}", "threads");
            for t in thread_axis() {
                print!(" {:>8}", t);
            }
            println!();
            for method in METHODS {
                print!("{:<14}", method);
                for t in thread_axis() {
                    let v = cells
                        .iter()
                        .find(|r| r.method == method && r.threads == t)
                        .map(|r| r.gflops)
                        .unwrap_or(f64::NAN);
                    print!(" {:>8.2}", v);
                }
                println!();
            }
        }
    }

    stencil_bench::save::maybe_save("fig9", &json_rows(&rows));
}
