//! Order statistics and ratio helpers used by every workload.

/// Percentile `p` (0–100) of `values` by linear interpolation between
/// closest ranks (the "type 7" estimator of R and NumPy's default).
/// Returns `None` for an empty input.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of `whole` that the listed `parts` leave unexplained.
pub fn residual_share(whole: f64, parts: &[f64]) -> f64 {
    ratio(whole - parts.iter().sum::<f64>(), whole)
}

/// Busy share of a pool: Σ job busy time / (wall time × workers).
pub fn busy_ratio(busy_s: f64, wall_s: f64, workers: usize) -> f64 {
    ratio(busy_s, wall_s * workers as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(4.6));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        let even = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(median(&even), Some(25.0));
        assert_eq!(percentile(&even, 90.0), Some(37.0));
        assert_eq!(percentile(&[7.5], 90.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ratios_on_known_inputs() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(residual_share(10.0, &[6.0, 3.0]), 0.1);
        assert_eq!(residual_share(0.0, &[1.0]), 0.0);
        assert_eq!(busy_ratio(3.0, 2.0, 2), 0.75);
        assert_eq!(busy_ratio(1.0, 0.0, 2), 0.0);
    }
}
