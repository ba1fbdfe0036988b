//! Outside-in span tracing: the benchmark wraps each call into a public
//! function of the workspace in a span (name, start, end, parent, op
//! id), keeps the spans in memory, and writes them out at exit. Nothing
//! inside the program under test is instrumented; a layer's *self* time
//! is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The op the span belongs to; spans of one op share it.
    pub op: Option<u64>,
}

/// One thread's span recorder. Disabled, it takes no timestamps at all,
/// so an untraced run measures the bare calls.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// All tracers of a run share `epoch`, so their spans line up.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans only");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` gets the tracer back for child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Record a span the program itself reported (e.g. a job's sweep
    /// seconds) as the last `dur_s` of the innermost open span.
    pub fn reported_child(&mut self, name: &'static str, op: Option<u64>, dur_s: f64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub((dur_s * 1e9) as u64),
            end_ns,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Append another thread's spans (parents re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total seconds, self seconds).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_insert((0u64, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(kids) as f64 * 1e-9;
        }
        out
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Int(id as u64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    ),
                    ("op", s.op.map_or(Json::Null, Json::Int)),
                ])
            })
            .collect();
        let layers = self
            .totals()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name,
                    Json::obj([
                        ("count", Json::Int(count)),
                        ("total_s", Json::Num(total)),
                        ("self_s", Json::Num(own)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([("layers", Json::obj(layers)), ("spans", Json::Arr(rows))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true, Instant::now());
        let nap = || std::thread::sleep(std::time::Duration::from_millis(3));
        t.span("op", Some(3), |t| {
            t.span("call", Some(3), |_| nap());
            nap();
            // The last millisecond of the second nap.
            t.reported_child("sweep", Some(3), 0.001);
        });
        let tot = t.totals();
        let (n, total, own) = tot["op"];
        assert_eq!(n, 1);
        assert!(total >= 0.006 && own >= 0.002);
        assert!((own - (total - tot["call"].1 - tot["sweep"].1)).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[1].op, Some(3));
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_rebases() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("x", None, |_| 7), 7);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(true, epoch);
        a.span("a", None, |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("outer", None, |t| t.span("inner", None, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let j = a.to_json();
        assert_eq!(
            j.get("spans")
                .map(|s| matches!(s, Json::Arr(v) if v.len() == 3)),
            Some(true)
        );
    }
}
