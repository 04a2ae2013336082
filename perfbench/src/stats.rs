//! Medians and nearest-rank percentiles that carry their sample count.

/// One percentile of a sample: its value, the sample size and how many
/// samples lie strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The statistic's value (`NaN` for an empty sample).
    pub value: f64,
    /// Sample size.
    pub n: usize,
    /// Samples ranked after the percentile's own rank.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest
/// sample with at least `p`% of the sample at or below it.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    let n = samples.len();
    if n == 0 {
        return Percentile { value: f64::NAN, n, beyond: 0 };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Percentile { value: sorted[rank - 1], n, beyond: n - rank }
}

/// The median: the middle sample, or the mean of the two middle samples
/// when the sample size is even (a run of two long passes reports their
/// mean rather than the faster one).
#[must_use]
pub fn median(samples: &[f64]) -> Percentile {
    let n = samples.len();
    if n == 0 {
        return Percentile { value: f64::NAN, n, beyond: 0 };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
    Percentile { value, n, beyond: n / 2 }
}

/// Consecutive windows a run's operations are cut into for the reported
/// p95: the median of the windows' p95s, so one transient (a start-up
/// burst, a host stall) moves one window rather than the result.
pub const WINDOWS: usize = 3;

/// The window operation `i` of `n` falls in.
#[must_use]
pub fn window_of(i: usize, n: usize) -> usize {
    i * WINDOWS / n
}

/// The median over the [`WINDOWS`] consecutive windows of `samples`
/// (in the order the operations ran) of each window's nearest-rank p95;
/// empty windows (fewer samples than windows) are skipped. `beyond` is
/// the fewest samples any window has beyond its p95.
#[must_use]
pub fn windowed_p95(samples: &[f64]) -> Percentile {
    let n = samples.len();
    let per: Vec<Percentile> = (0..WINDOWS)
        .map(|w| {
            let part: Vec<f64> =
                (0..n).filter(|&i| window_of(i, n) == w).map(|i| samples[i]).collect();
            percentile(&part, 95.0)
        })
        .filter(|p| p.n > 0)
        .collect();
    let values: Vec<f64> = per.iter().map(|p| p.value).collect();
    let beyond = per.iter().map(|p| p.beyond).min().unwrap_or(0);
    Percentile { value: median(&values).value, n, beyond }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reports_n_and_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 95.0);
        assert_eq!((p95.value, p95.n, p95.beyond), (190.0, 200, 10));
        let p50 = percentile(&v, 50.0);
        assert_eq!((p50.value, p50.n, p50.beyond), (100.0, 200, 100));
        let mid = median(&v);
        assert_eq!((mid.value, mid.n, mid.beyond), (100.5, 200, 100));
        let one = percentile(&[7.0], 95.0);
        assert_eq!((one.value, one.n, one.beyond), (7.0, 1, 0));
        assert!(percentile(&[], 50.0).value.is_nan());
        assert_eq!(percentile(&[], 50.0).n, 0);
    }

    #[test]
    fn windowed_p95_ignores_one_bad_window() {
        let mut v: Vec<f64> = (0..600).map(|i| f64::from(i % 100)).collect();
        v[..200].iter_mut().for_each(|x| *x += 1_000.0);
        let p = windowed_p95(&v);
        assert_eq!((p.value, p.n, p.beyond), (94.0, 600, 10));
        // Two samples: two one-sample windows, whose median is their mean.
        assert_eq!(windowed_p95(&[1.0, 3.0]).value, 2.0);
        assert!(windowed_p95(&[]).value.is_nan());
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).value, 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).value, 2.5);
        assert!(median(&[]).value.is_nan());
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0).value, 2.0);
    }
}
