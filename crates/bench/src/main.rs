//! `stencil-bench <command> [flags]`: the paper's figure/table drivers
//! behind one binary, so the kernel matrix in `stencil-core` is optimized
//! and linked once instead of once per driver.
//!
//! ```sh
//! cargo run --release --bin stencil-bench -- fig7 --smoke --save-json
//! cargo run --release --bin stencil-bench -- fig9 1d3p 2d5p
//! ```
//!
//! Every command takes the shared [`Cli`] grammar (`--smoke`,
//! `--threads=N`, `--save-json[=DIR]`, positional stencil names) and
//! writes the same `BENCH_<command>.json` artifact it always has.

use stencil_bench::Cli;

mod cmd {
    pub mod fig7;
    pub mod fig8;
    pub mod fig9;
    pub mod table1;
    pub mod table2;
    pub mod table3;
    pub mod table4;
}

fn main() {
    let mut args = std::env::args().skip(1);
    let run: fn(&Cli) = match args.next().as_deref() {
        Some("fig7") => cmd::fig7::main,
        Some("fig8") => cmd::fig8::main,
        Some("fig9") => cmd::fig9::main,
        Some("table1") => cmd::table1::main,
        Some("table2") => cmd::table2::main,
        Some("table3") => cmd::table3::main,
        Some("table4") => cmd::table4::main,
        _ => {
            eprintln!("usage: stencil-bench <fig7|fig8|fig9|table1|table2|table3|table4> [flags]");
            std::process::exit(2);
        }
    };
    run(&Cli::from_args(args));
}
