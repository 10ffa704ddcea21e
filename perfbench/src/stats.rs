//! Order statistics over host-time samples.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `q` quantile in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] above the `q`
/// quantile.
pub fn enough_beyond(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND
}

/// Nearest-rank `q` quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if !enough_beyond(samples.len(), q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// Median of `samples` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest rank 90 leaves samples 91..=100 beyond it.
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert!(!enough_beyond(0, 0.5));
        assert!(enough_beyond(20, 0.5));
        assert!(!enough_beyond(19, 0.5));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&samples, 0.9);
        samples.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&samples, 0.9));
        assert_eq!(p, Some(179.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
