//! Order statistics for the benchmark's timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the driver computes over its
//! own runs; medians and percentiles are nearest-rank.

/// The reported value of one metric with the median, quartiles and count
/// of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What is reported and compared.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// The percentile [`Summary::undisturbed`] reports.
const UNDISTURBED_PERCENTILE: f64 = 10.0;

impl Summary {
    /// Summarize `samples` (at least one) by their median.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles_sorted(&v);
        let median = median_sorted(&v);
        Summary { value: median, median, q1, q3, n: v.len() }
    }

    /// Summarize repeated timings of the *same work* by their fastest
    /// decile. The sandbox is a small virtual machine on a shared host:
    /// for seconds at a time everything in it runs up to half again as
    /// slow, and over ten runs the median pass then moved by 11–43 % where
    /// the fastest decile moved by 4–18 %. Other tenants only ever add
    /// time, so the fast end of the distribution is the program's own
    /// speed; the decile, unlike the minimum, still has to be reproduced
    /// by a tenth of the samples. Median and quartiles stay in the record.
    pub fn undisturbed(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary { value: percentile_sorted(&v, UNDISTURBED_PERCENTILE), ..Summary::of(&v) }
    }

    /// A value that was computed, not sampled (counts, costs).
    pub fn exact(value: f64) -> Summary {
        Summary { value, median: value, q1: value, q3: value, n: 1 }
    }
}

/// Median of an ascending slice: the middle sample, or the mean of the
/// two middle samples.
pub fn median_sorted(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q3)` of an ascending slice, Python `quantiles(n=4)` exclusive
/// method: position `i * (len + 1) / 4`, interpolated, clamped to the
/// ends. One sample is its own quartiles.
pub fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A percentile is reportable only with at least ten samples beyond it;
/// otherwise it is one slow sample, not a tail.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_middle_or_mean_of_middles() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_sorted(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_sorted(&[1.0, 2.0]), (0.75, 2.25));
        let s = Summary::of(&v);
        assert_eq!((s.value, s.median, s.q1, s.q3, s.n), (5.5, 5.5, 2.75, 8.25, 10));
        // the fastest decile, nearest rank: the fastest of up to ten
        // samples, the second fastest of eleven to twenty
        let u = Summary::undisturbed(&v);
        assert_eq!((u.value, u.median, u.n), (1.0, 5.5, 10));
        assert_eq!(Summary::undisturbed(&[3.0, 9.0, 4.0]).value, 3.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(Summary::undisturbed(&eleven).value, 2.0);
        let seven = Summary { value: 7.0, median: 7.0, q1: 7.0, q3: 7.0, n: 1 };
        assert_eq!(Summary::exact(7.0), seven);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500.0);
        assert_eq!(percentile_sorted(&v, 99.0), 990.0);
        assert_eq!(percentile_sorted(&v, 100.0), 1000.0);
        assert_eq!(percentile_sorted(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly ten beyond it; of 999, nine
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(percentile_supported(1000, 99.0));
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert!(!percentile_supported(0, 50.0));
    }
}
