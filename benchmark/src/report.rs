//! Metric names, units and bounds — the code-side copy of
//! `BENCHMARK.json` (a test keeps the two equal) — and the line/JSON
//! formats every mode prints.

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for per-layer
    /// metrics, which explain and are not gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// What a user of the system sees, under the same names on every
/// workload. One bound serves all six workloads, so the noisiest sets
/// it: on the 2-core reference VM anything that leaves the L2 drifts
/// with the host's memory traffic by 10–25% over an hour (`serve_mix`
/// most), which only the widest bound the contract allows covers. `fail_ratio` is reported too, but through the result
/// line's `attempted` / `failed` (a gated metric may never read 0, and
/// a passing run's fail ratio always does).
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("updates_per_s", "cell-updates/s", Better::Higher, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_s_p50", "s", Better::Lower, 0.25),
    e2e("op_s_tail", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher as H, Lower as L};

/// Per-layer metrics that describe the workload being run (they carry
/// no workload suffix: the workload is the run).
pub const LAYER_WORKLOAD: &[MetricDef] = &[
    layer("trace.overhead_ratio", "ratio", L),
    layer("trace.spans", "count", L),
    layer("exec.plan_build_s", "s", L),
    layer("exec.session_open_s", "s", L),
    layer("exec.session_close_s", "s", L),
    layer("kernels.achieved_gflops", "GF/s", H),
    layer("kernels.ai", "flop/B", H),
    layer("kernels.pct_roofline", "%", H),
];

/// Host denominators; they move nothing.
pub const LAYER_HOST: &[MetricDef] = &[
    layer("host.triad_gb_s", "GB/s", H),
    layer("host.triad_t2_gb_s", "GB/s", H),
    layer("host.triad_l2_gb_s", "GB/s", H),
    layer("host.triad_capped", "bool", L),
    layer("host.fma_peak_gflops.f64", "GF/s", H),
    layer("host.fma_peak_gflops.f32", "GF/s", H),
    layer("host.llc_bytes", "B", H),
    layer("host.nproc", "count", H),
];

pub const STENCILS: [&str; 6] = ["1d3p", "1d5p", "2d5p", "2d9p", "3d7p", "3d27p"];
pub const METHODS: [&str; 5] = ["multiload", "reorg", "dlt", "translayout", "translayout2"];

/// Sibling-configuration metrics, the same whatever workload is run.
pub const LAYER_SUITE: &[MetricDef] = &[
    layer("simd.transpose_sets_per_s.f64", "1/s", H),
    layer("simd.transpose_sets_per_s.f32", "1/s", H),
    layer("simd.transpose_vs_baseline", "ratio", H),
    layer("layout.tl_in_gb_s.oneshot", "GB/s", H),
    layer("layout.tl_out_gb_s.oneshot", "GB/s", H),
    layer("layout.tl_in_gb_s.seq_mem", "GB/s", H),
    layer("layout.tl_out_gb_s.seq_mem", "GB/s", H),
    layer("layout.dlt_in_gb_s", "GB/s", H),
    layer("layout.roundtrip_share.oneshot", "ratio", L),
    layer("kernels.star1_tl2.raw_gflops", "GF/s", H),
    layer("kernels.star1_tl.raw_gflops", "GF/s", H),
    layer("kernels.partial_set_penalty.f32", "ratio", L),
    layer("exec.ladder.kernel_s", "s", L),
    layer("exec.ladder.session_s", "s", L),
    layer("exec.ladder.plan_run_s", "s", L),
    layer("exec.ladder.dyn_session_s", "s", L),
    layer("exec.ladder.dyn_run_s", "s", L),
    layer("exec.ladder.server_s", "s", L),
    layer("exec.session.self_s", "s", L),
    layer("exec.plan_run.self_s", "s", L),
    layer("exec.erased.self_s", "s", L),
    layer("server.self_s", "s", L),
    layer("exec.par.speedup.par_mem_3d7p", "ratio", H),
    layer("exec.par.speedup.seq_mem_2d5p", "ratio", H),
    layer("exec.halo.periodic_vs_dirichlet", "ratio", L),
    layer("exec.tess.tiled_vs_untiled", "ratio", H),
    layer("exec.tess.multiload_updates_per_s", "cell-updates/s", H),
    layer("exec.tess.tl2_vs_multiload", "ratio", H),
    layer("exec.tess.speedup_threads2", "ratio", H),
    layer("exec.stage.stage_in_share", "ratio", L),
    layer("exec.stage.compute_share", "ratio", H),
    layer("exec.stage.stage_out_share", "ratio", L),
    layer("exec.stage.halo_share", "ratio", L),
    layer("exec.split.updates_per_s", "cell-updates/s", H),
    layer("rayon.barrier_s", "s", L),
    layer("server.overhead_s_p50", "s", L),
    layer("server.queue_wait_s_p50", "s", L),
    layer("server.submit_s_p50", "s", L),
    layer("server.miss_penalty_s_p50", "s", L),
    layer("server.cache.hit_ratio", "ratio", H),
    layer("server.cache.evictions", "count", L),
    layer("server.dispatcher_busy_share", "ratio", H),
    layer("server.refused", "count", L),
    layer("server.failed", "count", L),
];

/// Every per-layer metric name with its unit and direction, in the
/// order `BENCHMARK.json` lists them: workload-scoped, host, the
/// kernel matrix (6 stencils × 5 methods, then the 6 TL2÷MultiLoad
/// ratios), then the rest of the suite.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> = Vec::new();
    let fixed = |defs: &[MetricDef], out: &mut Vec<_>| {
        out.extend(defs.iter().map(|d| (d.name.to_string(), d.unit, d.better)));
    };
    fixed(LAYER_WORKLOAD, &mut out);
    fixed(LAYER_HOST, &mut out);
    for s in STENCILS {
        for m in METHODS {
            out.push((format!("kernels.{s}.{m}.gflops"), "GF/s", H));
        }
    }
    for s in STENCILS {
        out.push((format!("kernels.{s}.tl2_vs_multiload"), "ratio", H));
    }
    fixed(LAYER_SUITE, &mut out);
    out
}

/// One human-readable line: `workload metric value unit [note]`.
pub fn print_line(workload: &str, m: &Metric, note: &str) {
    println!("{workload} {} {} {} {note}", m.name, m.value, m.unit);
}

/// The `metrics` object of the result line.
pub fn metrics_json(ms: &[Metric]) -> Json {
    Json::obj(ms.iter().map(|m| {
        (
            m.name.as_str(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, ms: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metrics_json(ms)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let names: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
        let mut uniq = names.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
        let e2e = END_TO_END.iter().map(|d| d.name.to_string());
        for n in names.into_iter().chain(e2e) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
    }

    /// `BENCHMARK.json` at the repo root must list exactly the metrics
    /// and workloads the code emits.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            panic!("end_to_end")
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, d) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), d.name);
            assert_eq!(field(j, "unit"), d.unit);
            assert_eq!(field(j, "better"), d.better.name());
            assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound);
        }
        let Some(Json::Arr(layers)) = doc.get("per_layer") else {
            panic!("per_layer")
        };
        let want = per_layer();
        assert_eq!(layers.len(), want.len());
        for (j, (name, unit, better)) in layers.iter().zip(&want) {
            assert_eq!(&field(j, "name"), name);
            assert_eq!(field(j, "unit"), *unit);
            assert_eq!(field(j, "better"), better.name());
        }
        let Some(Json::Arr(ws)) = doc.get("workloads") else {
            panic!("workloads")
        };
        let names: Vec<String> = ws.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::workloads::NOMINAL_SECONDS as u64)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(40, 0, &[Metric::new("setup_s", 0.5, "s")]);
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(
            json::parse(&result_line(3, 1, &[]))
                .unwrap()
                .get("correct")
                .unwrap()
                .as_bool(),
            Some(false)
        );
    }
}
