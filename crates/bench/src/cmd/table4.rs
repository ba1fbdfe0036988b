//! Table 4: average performance improvement per stencil/ISA (speedup over
//! SDSL on AVX2, over Tessellation on AVX-512 — the paper's comparison
//! bases) and strong-scaling speedup over a single core at full core
//! count. Derived from the Fig. 9 sweep.
//!
//! Pass stencil names as arguments to restrict the sweep.

use stencil_bench::fig9::{sweep, table4};
use stencil_bench::Cli;

pub fn main(cli: &Cli) {
    stencil_bench::banner("Table 4: average improvement and strong scaling (full cores)");
    let rows = sweep(cli.scale(), &cli.stencils());
    println!(
        "{:<16} {:<14} {:>14} {:>16}",
        "Stencil(ISA)", "Method", "Speedup/base", "Scaling vs 1core"
    );
    let mut json: Vec<stencil_bench::save::Row> = Vec::new();
    for (label, cols) in table4(&rows) {
        for (method, speedup, scaling) in cols {
            println!(
                "{:<16} {:<14} {:>13.2}x {:>15.1}x",
                label, method, speedup, scaling
            );
            json.push(vec![
                (
                    "stencil_isa",
                    stencil_bench::save::Value::Str(label.clone()),
                ),
                ("method", stencil_bench::save::Value::Str(method)),
                ("speedup_vs_base", stencil_bench::save::Value::Num(speedup)),
                ("scaling_vs_1core", stencil_bench::save::Value::Num(scaling)),
            ]);
        }
    }
    stencil_bench::save::maybe_save("table4", &json);
}
