//! Order statistics for latency samples: nearest-rank percentiles, and the
//! rule for which tail percentile a sample count supports.

/// Minimum number of samples that must lie strictly above a percentile for
/// it to be reported as a tail figure.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `(0, 1]`: the
/// smallest sample with at least `q · n` samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly above the nearest-rank percentile
/// `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of the conventional tail percentiles (p99.9 … p50) that has
/// at least [`MIN_BEYOND`] samples beyond it, or `None` when `n` is too small
/// for any of them.
pub fn highest_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Median of unsorted values (the mean of the two middle values for an even
/// count), or `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A latency distribution as reported: sample count, median, p90, and the
/// highest tail percentile the count supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Samples strictly above `p90`.
    pub beyond_p90: usize,
    /// The highest percentile with at least [`MIN_BEYOND`] samples beyond it.
    pub tail_q: Option<f64>,
    /// The value at `tail_q`.
    pub tail: Option<f64>,
}

impl Latency {
    /// Summarises `samples` (any order). An empty set reads as zeros.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (p50, p90) = if n == 0 {
            (0.0, 0.0)
        } else {
            (percentile(&sorted, 0.5), percentile(&sorted, 0.9))
        };
        Latency {
            n,
            p50,
            p90,
            beyond_p90: samples_beyond(n, 0.9),
            tail_q: highest_tail(n),
            tail: highest_tail(n).map(|q| percentile(&sorted, q)),
        }
    }

    /// One line for the run summary, naming the sample count.
    pub fn describe(&self) -> String {
        let tail = match (self.tail_q, self.tail) {
            (Some(q), Some(v)) => format!("p{} = {v:.6}s", q * 100.0),
            _ => "none".to_owned(),
        };
        format!(
            "n={} p50={:.6}s p90={:.6}s ({} samples beyond p90; highest supported tail {})",
            self.n, self.p50, self.p90, self.beyond_p90, tail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn sample_counts_decide_the_supported_tail() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(0, 0.9), 0);
        assert_eq!(highest_tail(100), Some(0.9));
        assert_eq!(highest_tail(99), Some(0.75));
        assert_eq!(highest_tail(1000), Some(0.99));
        assert_eq!(highest_tail(400), Some(0.95));
        assert_eq!(highest_tail(5), None);
    }

    #[test]
    fn latency_summary_states_its_sample_count() {
        let samples: Vec<f64> = (0..100).rev().map(|i| f64::from(i) / 100.0).collect();
        let lat = Latency::of(&samples);
        assert_eq!(lat.n, 100);
        assert_eq!(lat.p50, 0.49);
        assert_eq!(lat.p90, 0.89);
        assert_eq!(lat.beyond_p90, 10);
        assert!(lat.describe().starts_with("n=100 "));
        assert!(lat.describe().contains("10 samples beyond p90"));
        let single = Latency::of(&[2.5]);
        assert_eq!((single.n, single.p50, single.p90), (1, 2.5, 2.5));
        assert_eq!((single.tail_q, single.tail), (None, None));
        assert_eq!(lat.tail, Some(0.89));
        assert_eq!(Latency::of(&[]).n, 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
