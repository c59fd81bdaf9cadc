//! Summary statistics for experiment sweeps.

/// Summary of a sample: mean, min, max.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarizes a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn summarize(sample: &[f64]) -> Summary {
    assert!(!sample.is_empty(), "cannot summarize an empty sample");
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &x in sample {
        min = min.min(x);
        max = max.max(x);
        sum += x;
    }
    Summary {
        mean: sum / sample.len() as f64,
        min,
        max,
    }
}

/// Pearson correlation of two equal-length samples.
///
/// # Panics
///
/// Panics unless both slices have the same length ≥ 2.
pub fn correlation(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    assert!(x.len() >= 2);
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum();
    let vy: f64 = y.iter().map(|b| (b - my).powi(2)).sum();
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = summarize(&[]);
    }

    #[test]
    fn correlation_of_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        assert!((correlation(&x, &y) - 1.0).abs() < 1e-12);
    }
}
