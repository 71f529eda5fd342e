//! Order statistics used for every reported number.
//!
//! Quantiles use the same "exclusive" method as Python's
//! `statistics.quantiles(values, n=4)`, so a run's quartiles agree with
//! the ones computed over its results afterwards.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles of `xs` by the exclusive method
/// (`statistics.quantiles(xs, n=4)`): the `k/4` cut sits at position
/// `k * (n + 1) / 4` (1-based) and is interpolated linearly between the
/// neighbouring samples, the pair index clamped to the sample (so tiny
/// samples extrapolate, as Python does). Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |k: usize| {
        let m = (n + 1) as f64 * k as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (the spread the
/// benchmark's bounds are checked against).
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Number of samples strictly beyond the `p`-th percentile of `n`
/// samples (nearest-rank): the rank is `ceil(p/100 * n)`, and every
/// sample after it lies beyond.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Minimum number of samples beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// [`MIN_SAMPLES_BEYOND`] samples must lie beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Nearest-rank `p`-th percentile of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median of the last quarter of `xs` over the median of its first
/// quarter, in sample order: 1.0 for a stationary series, above 1.0
/// when later samples cost more. Needs at least four samples.
pub fn quarter_growth(xs: &[f64]) -> Option<f64> {
    let q = xs.len() / 4;
    if q == 0 {
        return None;
    }
    let first = median(&xs[..q])?;
    let last = median(&xs[xs.len() - q..])?;
    (first > 0.0).then(|| last / first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // Order of input does not matter.
        assert_eq!(median(&[10.0, -1.0, 5.0, 0.0, 2.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: with
        // two samples the outer cuts extrapolate.
        assert_eq!(quartiles(&[9.0, 5.0]), Some((4.0, 10.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&xs).unwrap();
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 199 samples: rank 190, 9 beyond -> not reported.
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert!(!percentile_supported(199, 95.0));
        // p95 of 200 samples: rank 190, 10 beyond -> reported.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(percentile_supported(200, 95.0));
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert!(!percentile_supported(0, 50.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(10.0));
        assert_eq!(percentile(&xs, 95.0), Some(19.0));
        assert_eq!(percentile(&xs, 100.0), Some(20.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quarter_growth_compares_first_and_last_quarters() {
        let flat = [2.0; 16];
        assert_eq!(quarter_growth(&flat), Some(1.0));
        let rising: Vec<f64> = (1..=8).map(f64::from).collect();
        // First quarter [1, 2] -> 1.5; last quarter [7, 8] -> 7.5.
        assert_eq!(quarter_growth(&rising), Some(5.0));
        assert_eq!(quarter_growth(&[1.0, 2.0, 3.0]), None);
    }
}
