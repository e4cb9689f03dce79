//! Order statistics: medians, percentiles, the percentile rule, and the
//! quartile spread `compare` judges repeats by.

/// Percentiles a timing may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts in place and returns the slice (NaN never occurs: every sample
/// is a measured duration or count).
pub fn sorted(v: &mut [f64]) -> &[f64] {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest rank of the `p`th percentile among `n` samples, 1-based.
/// Percentiles have at most one decimal, so the rank is computed in
/// whole per-mille: `99.9 / 100.0 * 1000.0` is not 999 in floating point.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(usize::from(n > 0), n)
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, p) - 1],
    }
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let s = sorted(&mut v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The percentile rule: the highest ladder percentile that still has at
/// least [`MIN_BEYOND`] samples beyond it; the median when none has.
pub fn highest_supported_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| samples_beyond(n, *p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method). Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    let s = sorted(&mut v);
    let n = s.len();
    let quantile = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let med = median(s);
    (med != 0.0).then(|| (quantile(3) - quantile(1)).abs() / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly ten beyond it, p99.9 one.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 99.9), 1);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        // One sample fewer and p99 no longer qualifies.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(999), 95.0);
        // 100 samples support p90 exactly; 99 only the median.
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(0), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let spread = quartile_spread(&[4.0, 1.0, 2.0]).unwrap();
        assert!((spread - 1.5).abs() < 1e-12, "{spread}");
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
