//! Order statistics and means used by every workload.

/// Percentiles the benchmark knows how to report, ascending.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted` samples, linearly
/// interpolated between the two closest ranks (the "inclusive" method of
/// Python's `statistics.quantiles`). `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts a copy of `samples` ascending (NaN-free input).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&sorted(samples), 0.5)
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    quantile(&sorted(samples), p / 100.0)
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    (n as f64 * (1.0 - p / 100.0) + 1e-9).floor() as usize
}

/// The highest of [`PERCENTILES`] that has at least [`MIN_BEYOND`] of `n`
/// samples beyond it; `None` when not even the median qualifies.
pub fn highest_reportable(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// a value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(quantile(&s, 0.25), Some(1.75));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn percentile_matches_a_hand_computed_p90() {
        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        // Position 0.9 * 10 = 9 → the tenth-smallest value.
        assert_eq!(percentile(&samples, 90.0), Some(10.0));
    }

    #[test]
    fn reportable_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(99), Some(50.0));
        assert_eq!(highest_reportable(100), Some(90.0));
        assert_eq!(highest_reportable(200), Some(95.0));
        assert_eq!(highest_reportable(1_000), Some(99.0));
        assert_eq!(highest_reportable(10_000), Some(99.9));
    }

    #[test]
    fn geomean_weighs_each_value_equally() {
        let g = geomean(&[1_000_000.0, 1_000.0]).unwrap();
        assert!((g - 31_622.776_601_683_792).abs() < 1e-6, "{g}");
        assert_eq!(geomean(&[4.0]), Some(4.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[3.0, 0.0]), None);
    }
}
