//! The repo benchmark. See `README.md` next to this package; `run.sh`
//! builds and starts this binary.
//!
//! Modes:
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last stdout line is the result JSON.
//! * no `--trace` — run the set: one child process per workload, one
//!   after another (`--traced`, `--repeat N`, `--workload W` narrow it).
//! * `--check` — every workload at tiny shapes, every op against the
//!   scalar oracle.
//! * `--regen-golden` — rewrite `golden.json` for the default seed.

mod grids;
mod host;
mod jobs;
mod json;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use stencil_core::exec::Method;

use json::Json;
use report::{print_line, Metric, END_TO_END};
use workloads::{op_count, Outcome, PlanWorkload, RunOpts, DEFAULT_SEED, NAMES, NOMINAL_SECONDS};

/// The pseudo-workload of `--traced` sets: the suite without a workload.
const LAYERS: &str = "layers";

/// Which part of the per-layer suite a traced run measures. A run on
/// its own (`full`) does all of it; a `--traced` set measures the host
/// with every workload (a roofline needs its roof from the same run)
/// and the rest once.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Suite {
    Full,
    Host,
    Rest,
}

struct Args {
    bench_dir: PathBuf,
    commit: String,
    rustc: String,
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`: present exactly in single-run mode.
    trace: Option<bool>,
    suite: Suite,
    traced: bool,
    repeat: usize,
    check: bool,
    regen_golden: bool,
}

fn usage() -> String {
    format!(
        "usage: run.sh [--seed N] [--workload W]... [--traced] [--repeat N] [--check] [--regen-golden]\n\
         \x20      run.sh --workload W --seed N --seconds S --trace 0|1   (one run, JSON result line)\n\
         workloads: {}",
        NAMES.join(" ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        bench_dir: PathBuf::from("benchmark"),
        commit: "unknown".into(),
        rustc: "unknown".into(),
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: NOMINAL_SECONDS,
        trace: None,
        suite: Suite::Full,
        traced: false,
        repeat: 1,
        check: false,
        regen_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--bench-dir" => a.bench_dir = PathBuf::from(value()?),
            "--commit" => a.commit = value()?,
            "--rustc" => a.rustc = value()?,
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) && w != LAYERS {
                    return Err(format!("unknown workload '{w}'\n{}", usage()));
                }
                a.workloads.push(w);
            }
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            "--suite" => {
                a.suite = match value()?.as_str() {
                    "full" => Suite::Full,
                    "host" => Suite::Host,
                    "rest" => Suite::Rest,
                    v => return Err(bad(v)),
                }
            }
            "--traced" => a.traced = true,
            "--repeat" => {
                a.repeat = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--check" => a.check = true,
            "--regen-golden" => a.regen_golden = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if a.trace.is_some() && a.workloads.len() != 1 {
        return Err("--trace takes exactly one --workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.check {
        check(&args)
    } else if args.regen_golden {
        regen_golden(&args)
    } else if let Some(trace) = args.trace {
        single(&args, trace)
    } else {
        set(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// golden.json
// ---------------------------------------------------------------------------

fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

/// The recorded (ops, state_hash) of `workload` for the default seed.
fn golden_entry(dir: &Path, workload: &str) -> Option<(u64, String)> {
    let doc = json::parse(&std::fs::read_to_string(dir.join("golden.json")).ok()?).ok()?;
    if doc.get("seed")?.as_u64()? != DEFAULT_SEED {
        return None;
    }
    let e = doc.get("workloads")?.get(workload)?;
    Some((
        e.get("ops")?.as_u64()?,
        e.get("state_hash")?.as_str()?.to_string(),
    ))
}

/// (b) The final state of the default-seed integration is a constant of
/// the engine — bit-identity across methods, ISAs and thread counts is
/// its contract — so it is checked against a committed value.
fn golden_verdict(args: &Args, o: &Outcome) -> (&'static str, bool) {
    if args.seed != DEFAULT_SEED {
        return ("other-seed", true);
    }
    match golden_entry(&args.bench_dir, o.workload) {
        Some((ops, want)) if ops == o.attempted => {
            if want == hex(o.state_hash) {
                ("match", true)
            } else {
                eprintln!(
                    "{}: state_hash {} but golden.json has {want}",
                    o.workload,
                    hex(o.state_hash)
                );
                ("MISMATCH", false)
            }
        }
        _ => ("no-entry-for-this-op-count", true),
    }
}

/// Final state of `w`'s whole default-seed op sequence: by the
/// configuration under test, or by the MultiLoad reference.
fn sequence_hash(w: &PlanWorkload, ops: usize, reference: bool) -> u64 {
    let (spec, shape) = (w.parsed_spec(), w.shape());
    let mut grid = grids::seeded_grid(shape, &spec, DEFAULT_SEED);
    // One warm-up op, then the timed ops: the same integration `single`
    // runs.
    if reference {
        let mut plan = workloads::reference_plan(shape, &spec, Method::MultiLoad);
        let mut sess = plan.session(&mut grid);
        (0..=ops).for_each(|_| sess.run(w.steps));
    } else {
        let mut plan = w.build();
        let mut live = workloads::Live::open(w.mode, &mut plan, &mut grid);
        (0..=ops).for_each(|_| live.op(w.steps));
    }
    grids::state_hash(&grid)
}

fn regen_golden(args: &Args) -> bool {
    let mut entries = Vec::new();
    for name in NAMES {
        let (ops, hash) = match PlanWorkload::by_name(name) {
            Some(w) => {
                let ops = op_count(w.base_ops, NOMINAL_SECONDS);
                let (test, reference) =
                    (sequence_hash(&w, ops, false), sequence_hash(&w, ops, true));
                if test != reference {
                    eprintln!(
                        "{name}: under test {} but MultiLoad reference {}; golden not written",
                        hex(test),
                        hex(reference)
                    );
                    return false;
                }
                (ops as u64, test)
            }
            None => {
                // serve_mix: the run itself holds every output to its
                // scalar oracle, so a clean run's hash is the oracle's.
                let o = workloads::run_serve(&RunOpts {
                    seed: DEFAULT_SEED,
                    seconds: NOMINAL_SECONDS,
                    trace: false,
                });
                if o.failed > 0 {
                    eprintln!(
                        "{name}: {} of {} jobs failed; golden not written",
                        o.failed, o.attempted
                    );
                    return false;
                }
                (o.attempted, o.state_hash)
            }
        };
        println!("{name} ops {ops} state_hash {}", hex(hash));
        entries.push((
            name,
            Json::obj([
                ("ops", Json::Int(ops)),
                ("state_hash", Json::str(hex(hash))),
            ]),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Int(DEFAULT_SEED)),
        ("seconds", Json::Num(NOMINAL_SECONDS)),
        ("workloads", Json::obj(entries)),
    ]);
    std::fs::write(args.bench_dir.join("golden.json"), doc.pretty()).is_ok()
}

// ---------------------------------------------------------------------------
// One run of one workload
// ---------------------------------------------------------------------------

fn provenance(args: &Args) -> Vec<(&'static str, Json)> {
    vec![
        ("commit", Json::str(args.commit.as_str())),
        ("rustc", Json::str(args.rustc.as_str())),
        ("isa", Json::str(stencil_simd::Isa::detect_best().name())),
        ("nproc", Json::Int(host::nproc() as u64)),
        ("l2_bytes", Json::Int(host::l2_bytes())),
        ("llc_bytes", Json::Int(host::llc_bytes())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        (
            "loadavg_1min",
            host::loadavg_1min().map_or(Json::Null, Json::Num),
        ),
    ]
}

/// Put `got` in `BENCHMARK.json` order and insist it is complete: a
/// traced run on its own must emit every per-layer metric, no more.
fn in_definition_order(got: Vec<Metric>, complete: bool) -> Result<Vec<Metric>, String> {
    let mut by_name: BTreeMap<String, Metric> =
        got.into_iter().map(|m| (m.name.clone(), m)).collect();
    let mut out = Vec::new();
    for (name, unit, _) in report::per_layer() {
        match by_name.remove(&name) {
            Some(m) if m.unit == unit => out.push(m),
            Some(m) => return Err(format!("{name}: unit {} but defined as {unit}", m.unit)),
            None if complete => return Err(format!("per-layer metric {name} was not measured")),
            None => {}
        }
    }
    match by_name.keys().next() {
        Some(extra) => Err(format!("metric {extra} is not defined in report.rs")),
        None => Ok(out),
    }
}

fn single(args: &Args, trace: bool) -> bool {
    let name = args.workloads[0].as_str();
    let out_dir = args.bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return false;
    }
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace,
    };
    // The roof is measured before the workload it will be held against.
    let probe = (trace && args.suite != Suite::Rest).then(layers::host_probe);
    let outcome = match name {
        LAYERS => None,
        "serve_mix" => Some(workloads::run_serve(&opts)),
        _ => Some(workloads::run_plan(
            &PlanWorkload::by_name(name).expect("validated"),
            &opts,
        )),
    };

    let mut file = provenance(args);
    let (mut attempted, mut failed) = (1, 0);
    let mut e2e = Vec::new();
    let mut layer_metrics = Vec::new();
    if let Some(o) = &outcome {
        let (verdict, golden_ok) = golden_verdict(args, o);
        attempted = o.attempted;
        failed = if golden_ok { o.failed } else { o.attempted };
        if let Some((metrics, times)) = &o.e2e {
            for (m, def) in metrics.iter().zip(&END_TO_END) {
                let note = match m.name.as_str() {
                    "op_s_p50" => format!("{} samples", times.samples),
                    "op_s_tail" => format!("p{} of {} samples", times.tail_p, times.samples),
                    _ => String::new(),
                };
                let bound = def.bound.expect("end-to-end metrics are bounded");
                print_line(
                    name,
                    m,
                    &format!("{} bound={bound} {note}", def.better.name()),
                );
            }
            e2e = metrics.clone();
            file.extend([
                ("samples", Json::Int(times.samples as u64)),
                ("tail_percentile", Json::Int(times.tail_p as u64)),
            ]);
        }
        print_line(
            name,
            &Metric::new("fail_ratio", failed as f64 / attempted as f64, "ratio"),
            "lower any-rise",
        );
        println!(
            "{name} state_hash {} hash golden={verdict}",
            hex(o.state_hash)
        );
        print_line(
            name,
            &Metric::new("verify_s", o.verify_s, "s"),
            "excluded-from-setup",
        );
        file.extend([
            ("ops", Json::Int(o.attempted)),
            ("state_hash", Json::str(hex(o.state_hash))),
            ("golden", Json::str(verdict)),
            ("verify_s", Json::Num(o.verify_s)),
            ("fail_ratio", Json::Num(failed as f64 / attempted as f64)),
        ]);
        layer_metrics.extend(o.layers.iter().cloned());
        if let Some(h) = &probe {
            layer_metrics.extend(layers::roofline(o, h));
        }
    }
    if let Some(h) = &probe {
        layer_metrics.extend(h.metrics.iter().cloned());
        file.push(("host_note", Json::str(h.note.as_str())));
    }
    if trace && args.suite != Suite::Host {
        let (ms, findings) = layers::suite(args.seed);
        layer_metrics.extend(ms);
        for f in &findings {
            println!("{name} finding: {f}");
        }
        file.push((
            "findings",
            Json::Arr(findings.into_iter().map(Json::Str).collect()),
        ));
    }
    let complete = args.suite == Suite::Full && outcome.is_some();
    let layer_metrics = match in_definition_order(layer_metrics, trace && complete) {
        Ok(ms) => ms,
        Err(e) => {
            eprintln!("{name}: {e}");
            return false;
        }
    };
    for m in &layer_metrics {
        print_line(name, m, "");
    }

    let reported = if trace { &layer_metrics } else { &e2e };
    file.push(("end_to_end", report::metrics_json(&e2e)));
    file.push(("per_layer", report::metrics_json(&layer_metrics)));
    let suffix = if trace { "_traced" } else { "" };
    let mut wrote = std::fs::write(
        out_dir.join(format!("result_{name}{suffix}.json")),
        Json::obj(file).pretty(),
    );
    if let (true, Some(o)) = (trace, &outcome) {
        wrote = wrote.and(std::fs::write(
            out_dir.join(format!("trace_{name}.json")),
            o.tracer.to_json().pretty(),
        ));
    }
    if let Err(e) = wrote {
        eprintln!("cannot write result files under {}: {e}", out_dir.display());
        return false;
    }
    println!("{}", report::result_line(attempted, failed, reported));
    failed == 0
}

// ---------------------------------------------------------------------------
// --check
// ---------------------------------------------------------------------------

fn check(args: &Args) -> bool {
    let t = std::time::Instant::now();
    let mut ok = true;
    for name in NAMES {
        if !args.workloads.is_empty() && !args.workloads.iter().any(|w| w == name) {
            continue;
        }
        let (attempted, failed) = match PlanWorkload::by_name(name) {
            Some(w) => workloads::check_plan(&w, args.seed),
            None => workloads::check_serve(args.seed),
        };
        println!("check {name} attempted {attempted} failed {failed}");
        ok &= failed == 0;
    }
    println!(
        "check {} in {:.2} s",
        if ok { "passed" } else { "FAILED" },
        t.elapsed().as_secs_f64()
    );
    ok
}

// ---------------------------------------------------------------------------
// The set: one child process per workload, one after another
// ---------------------------------------------------------------------------

struct ChildRun {
    correct: bool,
    metrics: Vec<(String, f64)>,
    state_hash: Option<String>,
}

/// Run one workload in a child process (its peak RSS is its own), echo
/// what it prints, and read its result line back.
fn child(args: &Args, workload: &str, trace: bool, suite: &str) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--bench-dir")
        .arg(&args.bench_dir)
        .args(["--commit", &args.commit, "--rustc", &args.rustc])
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--suite", suite])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: child printed nothing"))?;
    let mut state_hash = None;
    for l in &lines {
        println!("{l}");
        let mut words = l.split_whitespace().skip(1);
        if words.next() == Some("state_hash") {
            state_hash = words.next().map(str::to_string);
        }
    }
    let doc = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .map(Json::entries)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        correct: out.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
        state_hash,
    })
}

fn set(args: &Args) -> bool {
    let chosen: Vec<&str> = NAMES
        .into_iter()
        .filter(|n| args.workloads.is_empty() || args.workloads.iter().any(|w| w == n))
        .collect();
    // Checked once, before the set's own children load the machine (each
    // result file records the load its run started under).
    if let Some(load) = host::loadavg_1min() {
        if load > host::nproc() as f64 / 2.0 {
            eprintln!("warning: 1-min loadavg {load} > nproc/2; timings will be noisy");
        }
    }
    let mut ok = true;
    // (workload, metric) → one value per repetition.
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut hashes: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for rep in 0..args.repeat {
        if args.repeat > 1 {
            println!("# set {} of {}", rep + 1, args.repeat);
        }
        let mut runs = Vec::new();
        for &w in &chosen {
            runs.push((w, false, "full"));
            if args.traced {
                runs.push((w, true, "host"));
            }
        }
        if args.traced {
            runs.push((LAYERS, true, "rest"));
        }
        for (w, trace, suite) in runs {
            match child(args, w, trace, suite) {
                Ok(run) => {
                    ok &= run.correct;
                    for (metric, v) in run.metrics {
                        values.entry((w.to_string(), metric)).or_default().push(v);
                    }
                    if let (false, Some(h)) = (trace, run.state_hash) {
                        hashes.entry(w).or_default().push(h);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    if args.repeat > 1 {
        ok &= summarize(args, &values, &hashes);
    }
    println!(
        "# {}",
        if ok {
            "all runs correct"
        } else {
            "FAILED: see messages above"
        }
    );
    ok
}

/// `--repeat`: per (workload, metric) min / median / max and relative
/// spread, flagging end-to-end metrics whose spread exceeds their bound
/// and state hashes that differ between sets.
fn summarize(
    args: &Args,
    values: &BTreeMap<(String, String), Vec<f64>>,
    hashes: &BTreeMap<&str, Vec<String>>,
) -> bool {
    let mut ok = true;
    let mut rows = Vec::new();
    println!("# workload metric min median max spread [bound]");
    for ((w, metric), xs) in values {
        let s = stats::Spread::of(xs);
        let def = END_TO_END.iter().find(|d| d.name == metric);
        let bound = def.and_then(|d| d.bound);
        let over = bound.is_some_and(|b| s.rel > b);
        println!(
            "{w} {metric} {} {} {} {:.4}{}{}",
            s.min,
            s.median,
            s.max,
            s.rel,
            bound.map_or(String::new(), |b| format!(" bound={b}")),
            if over { " SPREAD-EXCEEDS-BOUND" } else { "" }
        );
        ok &= !over;
        rows.push(Json::obj([
            ("workload", Json::str(w.as_str())),
            ("metric", Json::str(metric.as_str())),
            (
                "better",
                def.map_or(Json::Null, |d| Json::str(d.better.name())),
            ),
            ("min", Json::Num(s.min)),
            ("median", Json::Num(s.median)),
            ("max", Json::Num(s.max)),
            ("spread", Json::Num(s.rel)),
            ("bound", bound.map_or(Json::Null, Json::Num)),
            (
                "values",
                Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()),
            ),
        ]));
    }
    for (w, hs) in hashes {
        let same = hs.windows(2).all(|p| p[0] == p[1]);
        println!(
            "{w} state_hash {} {}",
            hs[0],
            if same {
                "identical-in-every-set"
            } else {
                "DIFFERS-BETWEEN-SETS"
            }
        );
        ok &= same;
    }
    let mut doc = provenance(args);
    doc.push(("repeat", Json::Int(args.repeat as u64)));
    doc.push(("rows", Json::Arr(rows)));
    if let Err(e) = std::fs::write(
        args.bench_dir.join("out/summary.json"),
        Json::obj(doc).pretty(),
    ) {
        eprintln!("cannot write summary.json: {e}");
        ok = false;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_serve_count_supports_p99() {
        let jobs = op_count(workloads::SERVE_BASE_OPS, NOMINAL_SECONDS);
        assert_eq!(stats::tail_percentile(jobs), Some(99));
    }

    #[test]
    fn definition_order_rejects_gaps_and_strangers() {
        let one = vec![Metric::new("host.nproc", 2.0, "count")];
        assert_eq!(in_definition_order(one.clone(), false).unwrap().len(), 1);
        assert!(in_definition_order(one, true).is_err());
        assert!(in_definition_order(vec![Metric::new("nope", 1.0, "s")], false).is_err());
        assert!(in_definition_order(vec![Metric::new("host.nproc", 2.0, "s")], false).is_err());
    }
}
