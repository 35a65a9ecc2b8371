//! Summary statistics over raw samples.
//!
//! Percentiles are exact nearest-rank values over every recorded sample,
//! never histogram bucket bounds. A percentile with fewer than
//! [`MIN_BEYOND`] samples above its rank is refused: the value would be
//! decided by a handful of outliers.

/// Fewest samples that must lie beyond a percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// An exact percentile together with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`: the smallest
/// sample with at least `q·n` samples at or below it. Returns `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile { value: sorted[rank - 1], samples: n })
}

/// Geometric mean of strictly positive samples (`None` when empty or
/// when a sample is not positive).
pub fn geomean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    let log_sum: f64 = samples.iter().map(|x| x.ln()).sum();
    Some((log_sum / samples.len() as f64).exp())
}

/// Median of a small set of repeated measurements (used for set-up
/// times, where the refusal rule of [`percentile`] does not apply: the
/// repetitions are few by design). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_an_actual_sample() {
        let p = percentile(&ramp(100), 0.5).expect("50 samples beyond");
        assert_eq!(p, Percentile { value: 50.0, samples: 100 });
        let p = percentile(&ramp(1000), 0.99).expect("10 samples beyond");
        assert_eq!(p.value, 990.0);
        // Order of the input does not matter.
        let mut shuffled = ramp(1000);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.99), Some(p));
    }

    #[test]
    fn refuses_with_fewer_than_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(999), 0.99), None, "only 9 beyond rank 990");
        assert!(percentile(&ramp(1000), 0.99).is_some());
        assert_eq!(percentile(&ramp(19), 0.5), None, "rank 10 leaves 9 beyond");
        assert!(percentile(&ramp(20), 0.5).is_some());
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_reports_its_sample_count() {
        let p = percentile(&ramp(1234), 0.5).expect("enough samples");
        assert_eq!(p.samples, 1234);
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
