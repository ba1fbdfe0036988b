//! Shared infrastructure for the benchmark harness: timing, GFLOP/s
//! accounting, workload construction, storage-level classification, and
//! the sweep drivers behind each table/figure binary.
//!
//! Scaling note: the paper's runs use up to 10⁷ cells × 10⁴ steps on a
//! 36-core Xeon 6140; we keep the *same sweep structure* (cache levels,
//! method sets, thread counts, AVX2-vs-AVX-512) with step counts sized
//! for minutes, not hours. Set `STENCIL_BENCH_FULL=1` for longer runs.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_core::exec::Shape;
use stencil_core::{AnyGrid, Grid1, Method, StencilSpec};
use stencil_simd::Isa;

pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod save;

/// Workload scale the sweep drivers size themselves for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: every driver finishes in seconds (`--smoke` or
    /// `STENCIL_BENCH_SMOKE=1`). Exists so the figure/table binaries run
    /// on every commit and cannot silently rot.
    Smoke,
    /// Default: minutes, preserving the paper's sweep structure.
    Quick,
    /// Paper-closer sizes (`STENCIL_BENCH_FULL=1`).
    Full,
}

/// The parsed command line every bench command shares — one
/// implementation of the `--flag` / `--key=value` / positional grammar
/// instead of a hand-rolled `env::args()` loop per command.
///
/// Flags every command understands: `--smoke` (CI-sized runs),
/// `--threads=N` (worker override), `--save-json[=DIR]` (handled by
/// [`save::maybe_save`]). Positional arguments name paper stencils where
/// a binary sweeps them (see [`Cli::stencils`]); binary-specific flags
/// go through [`Cli::flag`] / [`Cli::value`].
#[derive(Clone, Debug)]
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// Parse the process arguments.
    pub fn parse() -> Cli {
        Cli {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// A `Cli` over explicit arguments (the `stencil-bench` binary hands
    /// each command what follows its name; tests).
    pub fn from_args<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Cli {
        Cli {
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// Is the bare flag present (e.g. `flag("--smoke")`)?
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value of a `--key=value` argument (e.g. `value("--threads")`).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .find_map(|a| a.strip_prefix(name)?.strip_prefix('='))
    }

    /// Positional (non-`--`) arguments in order.
    pub fn positional(&self) -> impl Iterator<Item = &str> {
        self.args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
    }

    /// The workload scale: `--smoke` / `STENCIL_BENCH_SMOKE=1` wins,
    /// then `STENCIL_BENCH_FULL=1`, else quick.
    pub fn scale(&self) -> Scale {
        if self.flag("--smoke") || env_is_1("STENCIL_BENCH_SMOKE") {
            Scale::Smoke
        } else if full_mode() {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Worker-thread override from `--threads=N`, if any. Exits with
    /// status 2 on a bare `--threads` (the value must be `=`-attached,
    /// or it would be silently ignored as a stray positional) and on a
    /// value that is not a number (a typo must not silently run the
    /// default sweep).
    pub fn threads(&self) -> Option<usize> {
        if self.bare_value_flag(&["--threads"]).is_some() {
            eprintln!("--threads requires a value: --threads=N");
            std::process::exit(2);
        }
        self.value("--threads").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--threads takes a number, got --threads={v}");
                std::process::exit(2);
            })
        })
    }

    /// The stencils selected by the positional arguments, parsed
    /// through [`StencilSpec`]'s `FromStr` (so `fig9 2d5p 3d27p`
    /// restricts a sweep); all six paper stencils when none are named.
    /// Duplicated names are collapsed — repeating a name must not
    /// repeat the sweep. Errors on an unknown name — a typo should not
    /// silently run the full sweep.
    pub fn try_stencils(&self) -> Result<Vec<StencilSpec>, stencil_core::SpecError> {
        let mut named: Vec<&str> = self.positional().collect();
        let mut seen = std::collections::HashSet::new();
        named.retain(|n| seen.insert(*n));
        let names: Vec<&str> = if named.is_empty() {
            StencilSpec::NAMES.to_vec()
        } else {
            named
        };
        names.into_iter().map(str::parse).collect()
    }

    /// [`Cli::try_stencils`] for binaries: exits with status 2 on an
    /// unknown name, and on an `@boundary` suffix — the figure/table
    /// drivers pin the paper's Dirichlet setting, and their workload
    /// tables are keyed by the bare paper names.
    pub fn stencils(&self) -> Vec<StencilSpec> {
        let specs = self.try_stencils().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        for s in &specs {
            if s.boundary() != stencil_core::Boundary::default() {
                eprintln!(
                    "stencil '{s}' requests a non-default boundary; the figure/table \
                     drivers reproduce the paper's constant-halo setting — drop the \
                     '@{}' suffix (the repo benchmark measures boundary cost: \
                     benchmark/README.md, exec.halo.periodic_vs_dirichlet)",
                    s.boundary()
                );
                std::process::exit(2);
            }
        }
        specs
    }

    /// The first of `names` that appears as a bare flag (no `=value`),
    /// for flags that require a value: `--threads 4` would otherwise
    /// silently parse as no override plus a stray positional `4`.
    pub fn bare_value_flag<'a>(&self, names: &[&'a str]) -> Option<&'a str> {
        names.iter().copied().find(|n| self.flag(n))
    }
}

fn env_is_1(key: &str) -> bool {
    std::env::var(key).map(|v| v == "1").unwrap_or(false)
}

/// True when the harness should run the longer (paper-closer) variants.
pub fn full_mode() -> bool {
    env_is_1("STENCIL_BENCH_FULL")
}

/// The scale selected on the command line / environment (smoke wins).
pub fn scale() -> Scale {
    Cli::parse().scale()
}

/// Worker-thread override from `--threads=N`, if any.
pub fn threads_arg() -> Option<usize> {
    Cli::parse().threads()
}

/// Number of worker threads to use for multicore experiments
/// (`--threads=N` override, else [`host_threads`]).
pub fn max_threads() -> usize {
    threads_arg().unwrap_or_else(host_threads)
}

/// The host's available parallelism, whatever the command line says.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Wall-time the closure, best of `reps` runs.
pub fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// GFLOP/s for `points · steps` stencil updates of `flops` each.
pub fn gflops(points: usize, steps: usize, flops: usize, secs: f64) -> f64 {
    (points as f64) * (steps as f64) * (flops as f64) / secs / 1e9
}

/// Cache-level label for a working set of `bytes` (two grids), using this
/// host's typical hierarchy (32 KiB L1d / 1 MiB L2 / shared L3).
pub fn storage_level(bytes: usize) -> &'static str {
    if bytes <= 28 * 1024 {
        "L1"
    } else if bytes <= 768 * 1024 {
        "L2"
    } else if bytes <= 16 * 1024 * 1024 {
        "L3"
    } else {
        "Mem"
    }
}

/// Deterministic random 1D grid.
pub fn grid1(n: usize, seed: u64) -> Grid1 {
    let mut r = StdRng::seed_from_u64(seed);
    Grid1::from_fn(n, 0.0, |_| r.random_range(0.0..1.0))
}

/// Deterministic random grid of any shape (erased API). `halo_r` is the
/// 2D/3D halo width — pass the stencil radius.
pub fn any_grid(shape: Shape, halo_r: usize, seed: u64) -> AnyGrid {
    let mut r = StdRng::seed_from_u64(seed);
    AnyGrid::from_fn(shape, halo_r, 0.0, |_, _, _| r.random_range(0.0..1.0))
}

/// The paper's method labels for the sequential experiments (Fig. 7 /
/// Table 2).
pub const SEQ_METHODS: [(Method, &str); 5] = [
    (Method::MultiLoad, "MultiLoad"),
    (Method::Reorg, "Reorg"),
    (Method::Dlt, "DLT"),
    (Method::TransLayout, "Our"),
    (Method::TransLayout2, "Our2"),
];

/// Print the host/ISA banner every binary emits first.
pub fn banner(what: &str) {
    println!("# {what}");
    println!(
        "# host: {} threads, best ISA: {}",
        max_threads(),
        Isa::detect_best()
    );
    println!(
        "# available ISAs: {}",
        Isa::ALL
            .into_iter()
            .filter(|i| i.is_available())
            .map(|i| i.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "# mode: {}",
        match scale() {
            Scale::Smoke => "SMOKE (CI-sized)",
            Scale::Full => "FULL",
            Scale::Quick => "quick (STENCIL_BENCH_FULL=1 for longer runs, --smoke for CI)",
        }
    );
}
