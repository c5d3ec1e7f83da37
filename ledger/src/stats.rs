//! Order statistics for timing samples.
//!
//! The ledger reports a timing as a median with quartiles and the sample
//! count, and a tail only at a percentile the sample count supports: the
//! nearest-rank percentile is refused when fewer than [`MIN_BEYOND`] samples
//! lie beyond it, because such a value is set by one or two outliers.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median, quartiles and sample count of one timed figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the spread
    /// the benchmark contract bounds.
    pub fn relative_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The value at fraction `position / (count + 1)` of the sorted samples,
/// interpolated linearly — the "exclusive" method, which is what Python's
/// `statistics.quantiles(values, n=4)` computes, so spreads printed here
/// match the ones the benchmark driver derives.
fn exclusive_quantile(sorted: &[f64], numerator: usize, denominator: usize) -> f64 {
    let count = sorted.len();
    let scaled = numerator * (count + 1);
    let index = (scaled / denominator).clamp(1, count - 1);
    // Like Python, extrapolate when the clamped index leaves the fraction
    // outside 0..1 (only with two or three samples).
    let fraction = scaled as f64 / denominator as f64 - index as f64;
    sorted[index - 1] + (sorted[index] - sorted[index - 1]) * fraction
}

/// Summarises `samples`; `None` when there are none.  With a single sample
/// all three quantiles are that sample.
pub fn summary(samples: &[f64]) -> Option<Summary> {
    let sorted = sorted(samples);
    let count = sorted.len();
    match count {
        0 => None,
        1 => Some(Summary {
            count,
            q1: sorted[0],
            median: sorted[0],
            q3: sorted[0],
        }),
        _ => Some(Summary {
            count,
            q1: exclusive_quantile(&sorted, 1, 4),
            median: exclusive_quantile(&sorted, 2, 4),
            q3: exclusive_quantile(&sorted, 3, 4),
        }),
    }
}

/// Median of `samples` (0 for an empty slice, which no caller passes for a
/// reported metric).
pub fn median(samples: &[f64]) -> f64 {
    summary(samples).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile, refused (`None`) when fewer than [`MIN_BEYOND`]
/// samples lie beyond the returned one.
pub fn percentile(samples: &[f64], percent: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = ((percent / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len().max(1));
    (sorted.len() >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest of p99/p95/p90/p75 the sample count supports, falling back to
/// the median: `(percent, value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|percent| percentile(samples, percent).map(|value| (percent, value)))
        .unwrap_or((50.0, median(samples)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(count: usize) -> Vec<f64> {
        (1..=count).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summary(&ramp(10)).unwrap();
        assert_eq!((s.count, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summary(&ramp(5)).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summary(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn summary_of_nothing_and_of_one_sample() {
        assert_eq!(summary(&[]), None);
        let s = summary(&[7.0]).unwrap();
        assert_eq!((s.count, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0));
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn relative_spread_is_the_interquartile_distance_over_the_median() {
        let s = summary(&ramp(10)).unwrap();
        assert!((s.relative_spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 samples is rank 190: exactly ten beyond.
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        assert_eq!(percentile(&ramp(199), 95.0), None);
        // The median of 19 samples is rank 10 with nine beyond: refused.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(200)), (95.0, 190.0));
        assert_eq!(tail(&ramp(160)), (90.0, 144.0));
        assert_eq!(tail(&ramp(96)), (75.0, 72.0));
        assert_eq!(tail(&ramp(8)), (50.0, 4.5));
    }
}
