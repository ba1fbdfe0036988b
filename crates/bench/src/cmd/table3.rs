//! Table 3: speedup over SDSL per storage level × blocking level,
//! multicore cache-blocking (derived from the Fig. 8 sweep).

use stencil_bench::fig8::{sweep, table3};
use stencil_bench::Cli;
use stencil_simd::Isa;

pub fn main(cli: &Cli) {
    stencil_bench::banner("Table 3: speedup over SDSL, multicore cache-blocking (1D3P)");
    let scale = cli.scale();
    let base = if scale == stencil_bench::Scale::Smoke {
        64
    } else {
        400
    };
    let rows = sweep(Isa::detect_best(), base, scale);
    println!(
        "{:<8} {:<6} {:>14} {:>8} {:>8}",
        "Level", "Block", "Tessellation", "Our", "Our2"
    );
    let mut acc: Vec<(String, Vec<f64>)> = vec![("L1".into(), vec![]), ("L2".into(), vec![])];
    let view = table3(&rows);
    for (level, blocking, cols) in &view {
        print!("{:<8} {:<6}", level, blocking);
        for m in ["Tessellation", "Our", "Our2"] {
            let v = cols
                .iter()
                .find(|(mm, _)| mm == m)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN);
            print!(" {:>7.2}x", v);
            if m == "Our2" {
                let slot = if blocking == "L1" { 0 } else { 1 };
                acc[slot].1.push(v);
            }
        }
        println!();
    }
    for (b, vals) in acc {
        if !vals.is_empty() {
            let gm = vals.iter().product::<f64>().powf(1.0 / vals.len() as f64);
            println!("Mean Our2 speedup with {b} blocking: {gm:.2}x (paper: 3.29x L1 / 3.48x L2)");
        }
    }

    let json: Vec<stencil_bench::save::Row> = view
        .into_iter()
        .flat_map(|(level, blocking, cols)| {
            cols.into_iter().map(move |(method, speedup)| {
                vec![
                    ("level", stencil_bench::save::Value::Str(level.clone())),
                    (
                        "blocking",
                        stencil_bench::save::Value::Str(blocking.clone()),
                    ),
                    ("method", stencil_bench::save::Value::Str(method)),
                    ("speedup_vs_sdsl", stencil_bench::save::Value::Num(speedup)),
                ]
            })
        })
        .collect();
    stencil_bench::save::maybe_save("table3", &json);
}
