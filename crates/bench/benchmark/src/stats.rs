//! Medians, quartiles and percentiles. Every timed loop reports a
//! median with its quartiles and sample count, never a best-of-N.

/// Samples beyond a percentile's rank below which the percentile is
/// not reported: a p95 of 40 samples would be its second-largest value.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), which is what the benchmark's driver computes spreads
/// with. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against a metric's bound. `None` with fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank percentile (`p` in `(0, 100]`) that refuses to answer
/// with fewer than [`MIN_TAIL_SAMPLES`] samples beyond its rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let rank = rank.max(1);
    (rank + MIN_TAIL_SAMPLES <= v.len()).then(|| v[rank - 1])
}

/// What one metric reports: the median of its timed repetitions with
/// the quartiles and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of a timed loop's samples. Panics on an empty slice:
    /// every loop in this harness runs at least its minimum count.
    pub fn of(samples: &[f64]) -> Self {
        let med = median(samples).expect("a timed loop produced no samples");
        let (q1, _, q3) = quartiles(samples).unwrap_or((med, med, med));
        Self {
            median: med,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A single reading (a count, a byte size, a one-shot time).
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank 190 of 200 leaves exactly ten beyond.
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v[..199], 95.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(100.0));
    }

    #[test]
    fn summary_carries_quartiles_and_count() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 4.0, 12.0, 5));
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    }
}
