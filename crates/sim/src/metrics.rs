//! Metric recorders used by the experiment harnesses.
//!
//! Three shapes cover everything Sperke measures:
//! * [`Counter`] — monotone totals (bytes fetched, stalls, frames drawn),
//! * [`TimeSeries`] — `(SimTime, value)` samples (buffer level, bitrate),
//! * [`Histogram`] — distribution summaries (latency, prediction error).

use crate::stats;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment by one. Saturates at `u64::MAX` instead of wrapping —
    /// a pegged counter is a visible anomaly, a wrapped one is a lie.
    pub fn incr(&mut self) {
        self.value = self.value.saturating_add(1);
    }

    /// Increment by `n`, saturating at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A time-stamped series of scalar samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Record `value` at `time`. Samples must be pushed in nondecreasing
    /// time order; out-of-order pushes panic (they indicate a sim bug).
    pub fn record(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(time >= last, "TimeSeries samples must be time-ordered");
        }
        self.samples.push((time, value));
    }

    /// All samples in order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Just the values.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the sample values (unweighted).
    pub fn mean(&self) -> f64 {
        stats::mean(&self.values())
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.samples.last().map(|&(_, v)| v)
    }
}

/// A distribution summary that stores all samples (experiments are small
/// enough that exact percentiles are affordable and more trustworthy than
/// sketches).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.samples)
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        stats::stddev(&self.samples)
    }

    /// Interpolated percentile, `p` in `[0,100]`. Defined on empty input:
    /// returns `0.0`, matching [`Histogram::min`]/[`Histogram::max`].
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        stats::percentile(&self.samples, p)
    }

    /// Minimum sample; `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum sample; `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn timeseries_means() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(0), 1.0);
        ts.record(SimTime::from_secs(1), 3.0);
        assert_eq!(ts.mean(), 2.0);
    }

    #[test]
    #[should_panic]
    fn timeseries_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(2), 1.0);
        ts.record(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 2.5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
        assert_eq!(h.percentile(50.0), 2.5);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_empty_percentile_is_defined() {
        let h = Histogram::new();
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 0.0, "empty percentile({p}) must be 0.0");
        }
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
        c.incr();
        c.add(100);
        assert_eq!(c.get(), u64::MAX, "pegged, not wrapped");
    }
}
