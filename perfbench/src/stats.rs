//! Order statistics used by every reported timing.
//!
//! Percentiles use the nearest-rank definition: the `q`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(q/100 * n)`.
//! A percentile is only reported when at least ten samples lie beyond
//! it ([`samples_beyond`]); below that the tail is a handful of outliers
//! and not a stable statistic.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Candidate tail percentiles, lowest first.
const TAIL_LADDER: [f64; 6] = [90.0, 95.0, 99.0, 99.9, 99.99, 99.999];

/// 0-based index of the nearest-rank `q`-th percentile among `n` samples.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // The tolerance keeps binary rounding of q/100 (99.9 is not exact)
    // from pushing an exact rank up by one.
    let rank = ((q / 100.0) * n as f64 - 1e-6).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank `q`-th percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank_index(sorted.len(), q)]
}

/// How many of `n` samples lie strictly beyond the `q`-th percentile's
/// rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank_index(n, q) - 1
}

/// Highest percentile of the ladder with at least [`MIN_TAIL`] samples
/// beyond it, or `None` when even p90 is unsupported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= MIN_TAIL)
}

/// Sort a copy ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median by nearest rank; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    percentile(&sorted(values), 50.0)
}

/// Summary of one latency sample set, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest value.
    pub max: f64,
    /// Highest percentile with ≥ [`MIN_TAIL`] samples beyond it.
    pub tail_q: Option<f64>,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarize nanosecond samples as milliseconds.
    pub fn from_nanos(nanos: &[u64]) -> Self {
        let ms: Vec<f64> = nanos.iter().map(|&n| n as f64 / 1e6).collect();
        Self::of(&ms)
    }

    /// Summarize raw values (unit preserved).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                n: 0,
                p50: f64::NAN,
                p99: f64::NAN,
                max: f64::NAN,
                tail_q: None,
                tail: f64::NAN,
            };
        }
        let s = sorted(values);
        let tail_q = highest_supported_percentile(s.len());
        Self {
            n: s.len(),
            p50: percentile(&s, 50.0),
            p99: percentile(&s, 99.0),
            max: s[s.len() - 1],
            tail_q,
            tail: tail_q.map_or(f64::NAN, |q| percentile(&s, q)),
        }
    }
}

/// Tail percentile over time windows: split `(t_ns, latency_ns)`
/// samples, in time order, into `k` equal-count windows of at least
/// `1000` samples (so each window's p99 has ≥ [`MIN_TAIL`] beyond it)
/// and at least `min_window_ns` long on average, then report the median
/// of the windows' p99s in milliseconds with the window count. A short
/// burst of interference from outside the program moves one window, not
/// the median. `None` when fewer than three windows fit.
pub fn windowed_p99(samples: &[(u64, u64)], min_window_ns: u64) -> Option<(f64, usize)> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut by_time = samples.to_vec();
    by_time.sort_unstable();
    let span = by_time[n - 1].0.saturating_sub(by_time[0].0).max(1);
    let k = (n / 1000).min((span / min_window_ns.max(1)) as usize);
    if k < 3 {
        return None;
    }
    let p99s: Vec<f64> = (0..k)
        .map(|w| {
            let chunk = &by_time[w * n / k..(w + 1) * n / k];
            let ms: Vec<f64> = chunk.iter().map(|&(_, l)| l as f64 / 1e6).collect();
            percentile(&sorted(&ms), 99.0)
        })
        .collect();
    Some((median(&p99s), k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_p99_ignores_one_bad_window() {
        // 10 s of 1 ms answers, 1000 per second; one second of 50 ms stalls.
        let samples: Vec<(u64, u64)> = (0..10_000u64)
            .map(|i| {
                let lat = if (3000..4000).contains(&i) {
                    50_000_000
                } else {
                    1_000_000
                };
                (i * 1_000_000, lat)
            })
            .collect();
        let (p99, k) = windowed_p99(&samples, 1_000_000_000).unwrap();
        assert_eq!(k, 9);
        assert_eq!(p99, 1.0);
        // The whole-run p99 sees the stall.
        assert_eq!(
            Summary::from_nanos(&samples.iter().map(|s| s.1).collect::<Vec<_>>()).p99,
            50.0
        );
        // Too few samples or too short a run: no windowed figure.
        assert!(windowed_p99(&samples[..2999], 1).is_none());
        assert!(windowed_p99(&samples, 5_000_000_000).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn summary_reports_supported_tail() {
        let nanos: Vec<u64> = (1..=2000).map(|i| i * 1_000_000).collect();
        let s = Summary::from_nanos(&nanos);
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.p99, 1980.0);
        assert_eq!(s.max, 2000.0);
        assert_eq!(s.tail_q, Some(99.0));
        assert_eq!(Summary::of(&[1.0; 50]).tail_q, None);
    }
}
