//! CI perf-regression gate: diff fresh `BENCH_*.json` snapshots against
//! the committed `BENCH_baseline/` and fail on a geomean regression past
//! the threshold. See `stencil_bench::gate` for the matching rules.
//!
//! ```sh
//! stencil-bench bench_gate [NAME...] [--baseline=DIR] [--current=DIR] \
//!                          [--threshold=PCT] [--rebaseline] [--strict]
//! ```
//!
//! Defaults: names `plan_reuse scaling`, baseline `<root>/BENCH_baseline`,
//! current `<root>` (where bare `--save-json` writes), threshold 15%.
//! When the baseline's host fingerprint (ISA × cores) differs from the
//! current host's, the diff is advisory and exits 0 unless `--strict`.
//! Rows absent from the baseline (a freshly added bench family) are
//! reported as informational and never gate — run `--rebaseline` to arm
//! them.
//!
//! Besides the baseline diff, the gate runs a **boundary-parity check**
//! within the current snapshots: every non-Dirichlet session row (one
//! carrying a `boundary` field) is paired with the Dirichlet row sharing
//! its remaining identity, and the run fails when any pair's wall-time
//! ratio exceeds 1.10× — the fused halo fast path's contract. Same
//! advisory rule across host classes.
//!
//! A **tess-parity check** pairs every `…+tess(tl2)` scaling row with
//! the `…+tess` MultiLoad row sharing its tile geometry and remaining
//! identity: the tile-resident staging path owes the natural-layout
//! schedule a wall-time ratio within 2.5× (the pre-staging gap was
//! ~18×). Same advisory rule across host classes.
//!
//! A **dtype-speedup check** runs the same way: every f32 row (one
//! carrying a `dtype` field) is paired with the f64 row sharing its
//! remaining identity, and when the current host has a SIMD ISA the
//! geomean f64/f32 speedup must reach 1.3× — twice the lane width owes
//! a real win, not just parity. On a portable-only host (no SIMD to
//! widen) the check is informational, and across host classes it is
//! advisory like everything else (`--strict` enforces).

use std::path::PathBuf;

use stencil_bench::gate;
use stencil_bench::save::workspace_root;
use stencil_bench::Cli;

pub fn main(cli: &Cli) {
    let baseline: PathBuf = cli
        .value("--baseline")
        .map(Into::into)
        .unwrap_or_else(|| workspace_root().join("BENCH_baseline"));
    let current: PathBuf = cli
        .value("--current")
        .map(Into::into)
        .unwrap_or_else(workspace_root);
    let threshold: f64 = cli
        .value("--threshold")
        .map(|v| v.parse().expect("--threshold=PCT takes a number"))
        .unwrap_or(15.0);
    let do_rebaseline = cli.flag("--rebaseline");
    let strict = cli.flag("--strict");
    if let Some(unknown) = cli.unknown_flags(&[
        "--baseline",
        "--current",
        "--threshold",
        "--rebaseline",
        "--strict",
    ]) {
        eprintln!("unknown flag {unknown}");
        std::process::exit(2);
    }
    // `--threshold 20` (space-separated) would otherwise silently fall
    // back to the default and treat `20` as a bench name.
    if let Some(needs_value) = cli.bare_value_flag(&["--baseline", "--current", "--threshold"]) {
        eprintln!("{needs_value} requires a value: {needs_value}=...");
        std::process::exit(2);
    }
    let mut names: Vec<String> = cli.positional().map(str::to_string).collect();
    if names.is_empty() {
        names = vec!["plan_reuse".into(), "scaling".into()];
    }
    let names: Vec<&str> = names.iter().map(String::as_str).collect();

    if do_rebaseline {
        match gate::rebaseline(&names, &baseline, &current) {
            Ok(paths) => {
                for p in paths {
                    println!("rebaselined {}", p.display());
                }
                return;
            }
            Err(e) => {
                eprintln!("rebaseline failed: {e}");
                std::process::exit(2);
            }
        }
    }

    println!(
        "# bench_gate: {} vs {} (fail above {threshold:.0}% geomean regression)",
        current.display(),
        baseline.display()
    );
    let mut all_ratios = Vec::new();
    let mut errors = 0usize;
    let mut new_total = 0usize;
    let mut missing_total = 0usize;
    let mut mismatch: Option<String> = None;
    for name in &names {
        match gate::diff_file(name, &baseline, &current) {
            Ok(diff) => {
                println!(
                    "  {name:<12} {:>4} rows matched, {:>2} new (informational), \
                     {:>2} missing, geomean {:+.1}%",
                    diff.ratios.len(),
                    diff.new_rows,
                    diff.missing_rows,
                    (diff.geomean() - 1.0) * 100.0
                );
                if let Some(m) = diff.host_mismatch {
                    mismatch.get_or_insert(m);
                }
                new_total += diff.new_rows;
                missing_total += diff.missing_rows;
                all_ratios.extend(diff.ratios);
            }
            Err(e) => {
                eprintln!("  {name}: {e}");
                errors += 1;
            }
        }
    }
    if errors > 0 {
        eprintln!("bench_gate: {errors} snapshot(s) missing or unreadable");
        std::process::exit(2);
    }

    // Boundary parity: within the *current* snapshots (one host, one
    // build), every non-Dirichlet row must stay within the allowance of
    // its Dirichlet sibling. Independent of the baseline, so it gates
    // even while new rows are still unarmed.
    const PARITY_PCT: f64 = 10.0;
    let mut parity_pairs = 0usize;
    let mut parity_over: Vec<String> = Vec::new();
    for name in &names {
        if let Ok(pairs) = gate::boundary_parity(name, &current) {
            for p in pairs {
                parity_pairs += 1;
                if p.ratio > 1.0 + PARITY_PCT / 100.0 {
                    parity_over.push(format!(
                        "{name}: boundary={} {:.2}x vs [{}]",
                        p.boundary, p.ratio, p.key
                    ));
                }
            }
        }
    }
    if parity_pairs > 0 {
        println!(
            "boundary parity: {parity_pairs} pair(s) checked, {} over the {PARITY_PCT:.0}% \
             allowance",
            parity_over.len()
        );
        for line in &parity_over {
            println!("    {line}");
        }
    }
    let parity_failed = |advisory: bool| {
        if parity_over.is_empty() || advisory {
            return false;
        }
        eprintln!(
            "bench_gate: FAIL — {} boundary row(s) exceed the {PARITY_PCT:.0}% Dirichlet \
             parity allowance",
            parity_over.len()
        );
        true
    };

    // Tess parity: within the current snapshots, every staged
    // transpose-layout tessellation row must stay within the allowance
    // of the MultiLoad row running the identical tile geometry.
    const TESS_PARITY: f64 = 2.5;
    let mut tess_pairs = 0usize;
    let mut tess_over: Vec<String> = Vec::new();
    for name in &names {
        if let Ok(pairs) = gate::tess_parity(name, &current) {
            for p in pairs {
                tess_pairs += 1;
                if p.ratio > TESS_PARITY {
                    tess_over.push(format!("{name}: {:.2}x vs [{}]", p.ratio, p.key));
                }
            }
        }
    }
    if tess_pairs > 0 {
        println!(
            "tess parity: {tess_pairs} tl2/MultiLoad pair(s) checked, {} over the \
             {TESS_PARITY}x allowance",
            tess_over.len()
        );
        for line in &tess_over {
            println!("    {line}");
        }
    }
    let tess_failed = |advisory: bool| {
        if tess_over.is_empty() || advisory {
            return false;
        }
        eprintln!(
            "bench_gate: FAIL — {} tessellated tl2 row(s) exceed the {TESS_PARITY}x \
             MultiLoad parity allowance",
            tess_over.len()
        );
        true
    };

    // Dtype speedup: within the current snapshots, f32 rows owe a
    // geomean ≥ DTYPE_SPEEDUP× over their f64 siblings when the host
    // has a SIMD ISA (portable-only hosts get an informational line —
    // scalar f32 owes nothing). Like boundary parity, independent of
    // the baseline.
    const DTYPE_SPEEDUP: f64 = 1.3;
    let mut dtype_speedups: Vec<f64> = Vec::new();
    let mut dtype_isa = String::new();
    for name in &names {
        if let Ok((pairs, isa)) = gate::dtype_speedups(name, &current) {
            dtype_isa = isa;
            dtype_speedups.extend(pairs.iter().map(|p| p.speedup));
        }
    }
    let dtype_gm = gate::geomean(&dtype_speedups);
    let simd_host = !dtype_isa.is_empty() && dtype_isa != "portable";
    if !dtype_speedups.is_empty() {
        println!(
            "dtype speedup: {} f32/f64 pair(s), geomean {dtype_gm:.2}x (bar {DTYPE_SPEEDUP}x, \
             {})",
            dtype_speedups.len(),
            if simd_host {
                "gated"
            } else {
                "informational on a portable-only host"
            }
        );
    }
    let dtype_failed = |advisory: bool| {
        if dtype_speedups.is_empty() || !simd_host || dtype_gm >= DTYPE_SPEEDUP || advisory {
            return false;
        }
        eprintln!(
            "bench_gate: FAIL — f32 geomean speedup {dtype_gm:.2}x is under the \
             {DTYPE_SPEEDUP}x bar on a SIMD host ({dtype_isa})"
        );
        true
    };

    let advisory = mismatch.is_some() && !strict;
    if all_ratios.is_empty() {
        // New rows with nothing gated yet is the normal state right
        // after a bench family lands: informational, not a failure —
        // but only when no baseline rows went *missing*. A wholesale
        // row-identity change makes every baseline row missing and
        // every current row new, and silently passing that would turn
        // the gate off; keep it a hard failure.
        if new_total > 0 && missing_total == 0 {
            if parity_failed(advisory) || dtype_failed(advisory) || tess_failed(advisory) {
                std::process::exit(1);
            }
            println!(
                "bench_gate: OK — no gated rows yet; {new_total} new informational row(s). \
                 Run `scripts/bench_gate --rebaseline` to arm them."
            );
            return;
        }
        eprintln!(
            "bench_gate: no rows matched ({missing_total} baseline row(s) missing from the \
             current run) — row identities changed? Re-arm with --rebaseline."
        );
        std::process::exit(2);
    }
    let gm = gate::geomean(&all_ratios);
    let pct = (gm - 1.0) * 100.0;
    println!(
        "overall: {} rows, geomean {pct:+.1}% vs baseline",
        all_ratios.len()
    );
    if let Some(m) = mismatch {
        if !strict {
            println!(
                "bench_gate: ADVISORY — {m}; absolute wall times don't gate across host \
                 classes. Run `scripts/bench_gate --rebaseline` on this runner class to arm \
                 the gate (or pass --strict to enforce anyway)."
            );
            return;
        }
        println!("note: {m} (comparing anyway: --strict)");
    }
    if gm > 1.0 + threshold / 100.0 {
        eprintln!("bench_gate: FAIL — geomean regression {pct:+.1}% exceeds {threshold:.0}%");
        std::process::exit(1);
    }
    if parity_failed(advisory) || dtype_failed(advisory) || tess_failed(advisory) {
        std::process::exit(1);
    }
    if new_total > 0 {
        println!(
            "bench_gate: OK ({new_total} new informational row(s) not gated — \
             run --rebaseline to arm them)"
        );
        return;
    }
    println!("bench_gate: OK");
}
