//! Order statistics over timing samples.

/// Median of `samples` (midpoint of the two middle values for an even
/// count). Sorts `samples` in place; `0.0` when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile as reported: which quantile it is and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The quantile actually reported, in `(0, 1]`.
    pub quantile: f64,
    /// The nearest-rank sample at that quantile.
    pub value: f64,
}

/// The `want` quantile of `samples` by nearest rank, lowered to the
/// highest quantile that still has [`TAIL_BEYOND`] samples beyond it
/// when the sample is too small for `want`. With fewer than
/// `2 * TAIL_BEYOND + 1` samples no quantile above the median qualifies,
/// and the median sample is reported. Sorts `samples` in place.
pub fn tail(samples: &mut [f64], want: f64) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            quantile: want,
            value: 0.0,
        };
    }
    samples.sort_by(f64::total_cmp);
    let wanted = ((want * n as f64).ceil() as usize).clamp(1, n) - 1;
    let mid = (n - 1) / 2;
    let highest = (n - 1).saturating_sub(TAIL_BEYOND).max(mid);
    let index = wanted.min(highest);
    Tail {
        quantile: (index + 1) as f64 / n as f64,
        value: samples[index],
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond_it() {
        let t = tail(&mut ramp(1000), 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.quantile, 0.99);
    }

    #[test]
    fn small_samples_fall_back_to_the_highest_supported_percentile() {
        // 100 samples: p99 would leave one sample beyond it; p90 leaves ten.
        let t = tail(&mut ramp(100), 0.99);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.quantile, 0.90);
        let beyond = ramp(100).iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        // One more sample lifts the supported percentile by one rank.
        assert_eq!(tail(&mut ramp(101), 0.99).value, 91.0);
    }

    #[test]
    fn tiny_samples_report_the_median() {
        let t = tail(&mut ramp(12), 0.99);
        assert_eq!(t.value, 6.0);
        assert_eq!(tail(&mut ramp(1), 0.9).value, 1.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&mut ramp(5)), 3.0);
        assert_eq!(median(&mut ramp(4)), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
