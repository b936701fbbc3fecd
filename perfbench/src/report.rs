//! Operation accounting, order statistics and the result line.

use std::fmt::Write as _;

use crate::yardstick::Sample;

/// Counts operations (sweeps, simulation batches, daemon jobs, probes)
/// and the ones that failed: an error, a panic, a timeout or a failed
/// output check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl AsRef<str>) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: FAILED: {}", what.as_ref());
    }

    /// Records a failed check of an operation already counted.
    pub fn fail_check(&mut self, what: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("perfbench: FAILED CHECK: {}", what.as_ref());
    }
}

/// The median; 0 for no samples (the caller has counted a failure then).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest order statistic with at least ten samples above it, and its
/// percentile; with fewer than eleven samples, the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let rank = if n >= 11 { n - 11 } else { n - 1 };
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// Sum over items of each item's fastest sample, in wall seconds.
pub fn sum_of_minima(samples: &[Vec<Sample>]) -> f64 {
    samples
        .iter()
        .map(|s| s.iter().map(|s| s.secs).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Sum over items of each item's median sample.
pub fn sum_of_medians(samples: &[Vec<f64>]) -> f64 {
    samples.iter().map(|s| median(s)).sum()
}

/// The metrics of one run, in the order they were added.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    /// The last line of the run's output.  A non-finite value is printed
    /// as 0 and makes the run incorrect.
    pub fn result_line(&self, tally: &Tally) -> String {
        let finite = self.entries.iter().all(|(_, v, _)| v.is_finite());
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            tally.failed == 0 && tally.attempted > 0 && finite,
            tally.attempted.max(1),
            tally.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct) = tail(&values);
        assert_eq!(value, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).0, 3.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
