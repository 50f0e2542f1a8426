//! Percentiles, and the rule for which tail percentile may be reported.

/// Percentiles tried, highest first, when choosing the tail to report.
const TAIL_LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile `p` of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// `true` when percentile `p` of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it, so it may be reported.
fn reportable(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The tail percentile to report for `n` samples: p99 when at least
/// [`MIN_BEYOND`] samples lie beyond it, otherwise the highest percentile
/// of a fixed ladder that has. `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| reportable(n, p))
}

/// The median of `values` (averaging the middle pair), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!reportable(999, 99.0), "999 samples leave 9 beyond p99");
        assert!(reportable(1000, 99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(5000), Some(99.0), "never above p99");
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
