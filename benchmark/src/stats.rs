//! Order statistics for op timings: median, the tail percentile the
//! sample count can support, and the run-to-run spread used by
//! `--repeat`.

/// Percentile `p` (0–100) of `sorted` by linear interpolation between
/// closest ranks — the same rule as Python's
/// `statistics.quantiles(..., method="inclusive")`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A copy of `xs` in ascending order.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// The highest of p75 / p90 / p99 that has at least ten samples beyond
/// it in a sample of `n` — a tail read off fewer than ten points is one
/// slow op, not a percentile. Returns `None` below 40 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
}

/// Median and tail of a set of op times.
#[derive(Clone, Copy, Debug)]
pub struct OpTimes {
    pub samples: usize,
    pub p50: f64,
    /// Which percentile `tail` is (75, 90 or 99); fixed by `samples`.
    pub tail_p: u32,
    pub tail: f64,
}

impl OpTimes {
    /// Summarize `secs`; needs the 40 samples p75 asks for.
    pub fn of(secs: &[f64]) -> OpTimes {
        let tail_p = tail_percentile(secs.len())
            .unwrap_or_else(|| panic!("{} op samples cannot support a tail", secs.len()));
        let s = sorted(secs);
        OpTimes {
            samples: s.len(),
            p50: percentile(&s, 50.0),
            tail_p,
            tail: percentile(&s, tail_p as f64),
        }
    }
}

/// Min / median / max and the inter-quartile spread relative to the
/// median, over the same metric from several runs.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    /// (Q3 − Q1) ÷ median with the *exclusive* quartile rule, i.e.
    /// Python's default `statistics.quantiles(values, n=4)`; with fewer
    /// than four runs it falls back to (max − min) ÷ median.
    pub rel: f64,
}

/// Exclusive-method quantile (`p` in 0–1) as `statistics.quantiles`
/// computes it: rank `p·(n+1)`, clamped to the sample.
fn quantile_exclusive(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = p * (n + 1) as f64;
    let j = (rank.floor() as usize).clamp(1, n - 1);
    let frac = rank - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
}

impl Spread {
    pub fn of(xs: &[f64]) -> Spread {
        let s = sorted(xs);
        let median = percentile(&s, 50.0);
        let width = if s.len() >= 4 {
            quantile_exclusive(&s, 0.75) - quantile_exclusive(&s, 0.25)
        } else {
            s[s.len() - 1] - s[0]
        };
        Spread {
            min: s[0],
            median,
            max: s[s.len() - 1],
            rel: if median != 0.0 {
                width / median.abs()
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(8000), Some(99));
    }

    #[test]
    fn percentiles_interpolate() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 75.0), 4.0);
        assert_eq!(percentile(&s, 90.0), 4.6);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn op_times_pick_the_supported_tail() {
        let secs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t = OpTimes::of(&secs);
        assert_eq!((t.samples, t.tail_p), (100, 90));
        assert_eq!(t.p50, 49.5);
        assert!((t.tail - 89.1).abs() < 1e-9);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&xs);
        assert_eq!((s.min, s.median, s.max), (1.0, 5.5, 10.0));
        assert!((s.rel - 5.5 / 5.5).abs() < 1e-12);
        let two = Spread::of(&[10.0, 11.0]);
        assert!((two.rel - 1.0 / 10.5).abs() < 1e-12);
    }
}
