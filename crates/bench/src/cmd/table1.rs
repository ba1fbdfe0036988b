//! Table 1: stencil parameters — the paper's configuration next to the
//! scaled configuration this harness runs (`STENCIL_BENCH_FULL=1` doubles
//! the leading dimension).

pub fn main(_cli: &stencil_bench::Cli) {
    stencil_bench::banner("Table 1: parameter description for stencils used in experiments");
    println!(
        "{:<6} {:<4} {:<28} {:<20} {:<26} {:<18}",
        "Dim", "Pts", "Paper problem size", "Paper blocking", "Our problem size", "Our blocking"
    );
    let rows = [
        (
            "1D",
            "3",
            "10240000 x1000",
            "2000x1000",
            "2560000 x240",
            "2000x1000",
        ),
        (
            "1D",
            "5",
            "10240000 x1000",
            "2000x500",
            "2560000 x240",
            "2000x500",
        ),
        (
            "2D",
            "5",
            "3000x3000 x1000",
            "200x200x50",
            "1504x1500 x50",
            "200x200x50",
        ),
        (
            "2D",
            "9",
            "3000x3000 x1000",
            "120x128x60",
            "1504x1500 x40",
            "128x120x59",
        ),
        (
            "3D",
            "7",
            "128x128x128 x1000",
            "23x23x10",
            "128x128x128 x20",
            "64x24x24x10",
        ),
        (
            "3D",
            "27",
            "128x128x128 x1000",
            "23x23x10",
            "128x128x128 x16",
            "64x24x24x10",
        ),
    ];
    for (d, p, ps, pb, os, ob) in rows {
        println!(
            "{:<6} {:<4} {:<28} {:<20} {:<26} {:<18}",
            d, p, ps, pb, os, ob
        );
    }

    let json: Vec<stencil_bench::save::Row> = rows
        .iter()
        .map(|(d, p, ps, pb, os, ob)| {
            vec![
                ("dim", stencil_bench::save::Value::from(*d)),
                ("points", stencil_bench::save::Value::from(*p)),
                ("paper_problem_size", stencil_bench::save::Value::from(*ps)),
                ("paper_blocking", stencil_bench::save::Value::from(*pb)),
                ("our_problem_size", stencil_bench::save::Value::from(*os)),
                ("our_blocking", stencil_bench::save::Value::from(*ob)),
            ]
        })
        .collect();
    stencil_bench::save::maybe_save("table1", &json);
}
