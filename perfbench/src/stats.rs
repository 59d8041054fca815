//! Order statistics over per-pass samples.

/// Cut points dividing `xs` into `n` equal-probability groups, by the
/// same rule as Python's `statistics.quantiles(xs, n=n)` (the default
/// "exclusive" method), so the spreads this benchmark prints match the
/// ones computed over its JSON output.
///
/// # Panics
///
/// Panics when `xs` has fewer than two samples or `n` is below 1.
pub fn quantiles(xs: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 1, "quantiles need n >= 1");
    assert!(xs.len() >= 2, "quantiles need at least two samples");
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len() + 1;
    (1..n)
        .map(|i| {
            // Clamp as Python does: j in 1..=len-1.
            let j = (i * m / n).clamp(1, data.len() - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// The median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// Interquartile range as a share of the median — the run-to-run
/// spread the benchmark's bounds are judged against.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let q = quantiles(xs, 4);
    (q[2] - q[0]) / q[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quantiles(&[5.0, 4.0, 3.0, 2.0, 1.0], 4), vec![1.5, 3.0, 4.5]);
    }

    #[test]
    fn quartile_median_agrees_with_median() {
        let xs = [0.3, 9.1, 4.4, 2.0, 7.7, 5.5, 1.2];
        assert_eq!(quantiles(&xs, 4)[1], median(&xs));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0; 6]), 0.0);
    }
}
