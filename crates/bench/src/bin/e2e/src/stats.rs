//! Order statistics for the harness, kept separate from
//! `serve::report::percentile_ms` and the bench bins' hand-rolled
//! versions so the yardstick does not move when those do.

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p / 100 × n)`, clamped to `1..=n`. (`p × n` comes first: the
/// product of a percentile of the ladder and a count is exact in `f64`
/// where `p / 100` is not.)
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it. `p` is in
/// `(0, 100]`; an empty slice yields 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of an ascending slice (mean of the two middle elements for an
/// even count); 0 for an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Sorts a copy of `values` ascending (NaN-free inputs only).
pub fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values.
pub fn median_of(values: &[f64]) -> f64 {
    median(&ascending(values))
}

/// First and third quartile of an ascending slice, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method).
/// Needs at least two values; fewer yield `(0, 0)`.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        return (0.0, 0.0);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile of the ladder 50 / 90 / 95 / 99 / 99.9 that
/// still has at least ten samples beyond it, or `None` below 20
/// samples. Tail percentiles past this are too noisy to report.
pub fn highest_resolvable_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples >= 10 + nearest_rank(samples, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_of(&[9.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), (15.0, 45.0));
        assert_eq!(quartiles(&[3.0]), (0.0, 0.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_resolvable_percentile(19), None);
        assert_eq!(highest_resolvable_percentile(20), Some(50.0));
        assert_eq!(highest_resolvable_percentile(99), Some(50.0));
        assert_eq!(highest_resolvable_percentile(100), Some(90.0));
        assert_eq!(highest_resolvable_percentile(300), Some(95.0));
        assert_eq!(highest_resolvable_percentile(1000), Some(99.0));
        assert_eq!(highest_resolvable_percentile(10_000), Some(99.9));
    }
}
