//! Client-side bandwidth estimation from observed chunk downloads.
//!
//! Both baselines used by rate-adaptation literature are provided: an
//! EWMA (sensitive, fast) and the harmonic mean of recent samples
//! (FESTIVE-style, robust to outliers). The player feeds each completed
//! transfer's goodput in; VRA reads the estimate out.

use serde::{Deserialize, Serialize};
use sperke_sim::stats::harmonic_mean;
use sperke_sim::trace::{TraceEvent, TraceSink};
use sperke_sim::SimTime;

/// Estimation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EstimatorKind {
    /// Exponentially weighted moving average with the given alpha.
    Ewma {
        /// Weight of the newest sample, in `(0, 1]`.
        alpha: f64,
    },
    /// Harmonic mean of the last `window` samples (FESTIVE \[29\]).
    Harmonic {
        /// Number of samples to retain.
        window: usize,
    },
}

/// A throughput estimator fed by completed downloads.
#[derive(Debug, Clone)]
pub struct BandwidthEstimator {
    kind: EstimatorKind,
    samples: Vec<f64>,
    ewma: Option<f64>,
    trace: TraceSink,
}

impl BandwidthEstimator {
    /// Create an estimator of the given kind.
    pub fn new(kind: EstimatorKind) -> BandwidthEstimator {
        if let EstimatorKind::Ewma { alpha } = kind {
            assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        }
        if let EstimatorKind::Harmonic { window } = kind {
            assert!(window > 0, "window must be positive");
        }
        BandwidthEstimator {
            kind,
            samples: Vec::new(),
            ewma: None,
            trace: TraceSink::disabled(),
        }
    }

    /// Record estimator updates into `sink` (used by
    /// [`BandwidthEstimator::record_at`]).
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The FESTIVE default: harmonic mean of the last 5 chunks.
    pub fn festive() -> BandwidthEstimator {
        BandwidthEstimator::new(EstimatorKind::Harmonic { window: 5 })
    }

    /// Like [`BandwidthEstimator::record`], additionally stamping the
    /// sample with its virtual time and emitting a
    /// [`TraceEvent::BandwidthUpdated`] into the attached trace sink.
    /// Rejected samples (non-positive or non-finite) emit nothing: an
    /// update that never happened must not fabricate a trace event, and
    /// a NaN sample would poison the `net.goodput_bps` percentiles.
    pub fn record_at(&mut self, goodput_bps: f64, now: SimTime) {
        if !self.record(goodput_bps) {
            return;
        }
        if self.trace.is_enabled() {
            self.trace.emit(TraceEvent::BandwidthUpdated {
                at: now,
                goodput_bps,
                estimate_bps: self.estimate().unwrap_or(0.0),
            });
            self.trace
                .metrics(|m| m.histogram("net.goodput_bps").record(goodput_bps));
        }
    }

    /// Record an observed goodput sample (bits/second). Non-positive or
    /// non-finite samples (e.g. dropped best-effort chunks) are ignored;
    /// returns whether the sample was accepted.
    pub fn record(&mut self, goodput_bps: f64) -> bool {
        if goodput_bps <= 0.0 || !goodput_bps.is_finite() {
            return false;
        }
        match self.kind {
            EstimatorKind::Ewma { alpha } => {
                self.ewma = Some(match self.ewma {
                    None => goodput_bps,
                    Some(prev) => alpha * goodput_bps + (1.0 - alpha) * prev,
                });
            }
            EstimatorKind::Harmonic { window } => {
                self.samples.push(goodput_bps);
                if self.samples.len() > window {
                    let excess = self.samples.len() - window;
                    self.samples.drain(..excess);
                }
            }
        }
        true
    }

    /// Current estimate (bits/second), or `None` before any sample.
    fn estimate(&self) -> Option<f64> {
        match self.kind {
            EstimatorKind::Ewma { .. } => self.ewma,
            EstimatorKind::Harmonic { .. } => {
                if self.samples.is_empty() {
                    None
                } else {
                    Some(harmonic_mean(&self.samples))
                }
            }
        }
    }

    /// Conservative estimate: the raw estimate scaled by a safety factor
    /// (standard practice to absorb estimation error).
    ///
    /// # Contract
    ///
    /// `safety` must lie in `(0, 1]` — a factor above 1 (or NaN) would
    /// silently *inflate* the "conservative" estimate. Panics otherwise.
    pub fn conservative(&self, safety: f64) -> Option<f64> {
        assert!(
            safety > 0.0 && safety <= 1.0,
            "safety factor must be in (0, 1], got {safety}"
        );
        self.estimate().map(|e| e * safety)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_is_robust_to_spikes() {
        let mut e = BandwidthEstimator::new(EstimatorKind::Harmonic { window: 5 });
        for _ in 0..4 {
            e.record(2e6);
        }
        e.record(100e6); // spike
        let est = e.estimate().unwrap();
        assert!(est < 3e6, "harmonic mean resists the spike: {est}");
    }

    #[test]
    fn ewma_tracks_changes() {
        let mut e = BandwidthEstimator::new(EstimatorKind::Ewma { alpha: 0.5 });
        e.record(1e6);
        e.record(3e6);
        assert!((e.estimate().unwrap() - 2e6).abs() < 1.0);
    }

    #[test]
    fn window_slides() {
        let mut e = BandwidthEstimator::new(EstimatorKind::Harmonic { window: 2 });
        e.record(1e6);
        e.record(1e6);
        e.record(4e6);
        e.record(4e6);
        assert!(
            (e.estimate().unwrap() - 4e6).abs() < 1.0,
            "old samples evicted"
        );
    }

    #[test]
    fn empty_estimator_returns_none() {
        assert_eq!(BandwidthEstimator::festive().estimate(), None);
    }

    #[test]
    fn invalid_samples_ignored() {
        let mut e = BandwidthEstimator::festive();
        e.record(0.0);
        e.record(-5.0);
        e.record(f64::NAN);
        assert_eq!(e.estimate(), None);
        e.record(1e6);
        assert!(e.estimate().is_some());
    }

    #[test]
    fn conservative_scales() {
        let mut e = BandwidthEstimator::festive();
        e.record(10e6);
        assert!((e.conservative(0.8).unwrap() - 8e6).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        BandwidthEstimator::new(EstimatorKind::Harmonic { window: 0 });
    }

    #[test]
    fn record_reports_acceptance() {
        let mut e = BandwidthEstimator::festive();
        assert!(!e.record(0.0));
        assert!(!e.record(-1.0));
        assert!(!e.record(f64::NAN));
        assert!(!e.record(f64::INFINITY));
        assert!(e.record(1e6));
    }

    #[test]
    fn rejected_samples_emit_nothing() {
        // Regression: record_at used to emit BandwidthUpdated and record
        // into net.goodput_bps even when record() rejected the sample —
        // fabricating an update that never happened and letting NaN
        // poison the histogram percentiles.
        use sperke_sim::trace::{TraceLevel, TraceSink};
        let sink = TraceSink::with_level(TraceLevel::Verbose);
        let mut e = BandwidthEstimator::festive();
        e.set_trace(sink.clone());
        e.record_at(f64::NAN, SimTime::from_secs(1));
        e.record_at(0.0, SimTime::from_secs(2));
        e.record_at(-3e6, SimTime::from_secs(3));
        let trace = sink.snapshot();
        assert!(trace.is_empty(), "rejected samples must not emit events");
        assert!(
            trace.metrics().get_histogram("net.goodput_bps").is_none(),
            "rejected samples must not reach the histogram"
        );
        // An accepted sample still emits exactly one event + one record.
        e.record_at(5e6, SimTime::from_secs(4));
        let trace = sink.snapshot();
        assert_eq!(trace.len(), 1);
        assert_eq!(
            trace
                .metrics()
                .get_histogram("net.goodput_bps")
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    #[should_panic]
    fn inflating_safety_factor_rejected() {
        let mut e = BandwidthEstimator::festive();
        e.record(1e6);
        let _ = e.conservative(1.5);
    }

    #[test]
    #[should_panic]
    fn nan_safety_factor_rejected() {
        let _ = BandwidthEstimator::festive().conservative(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn zero_safety_factor_rejected() {
        let _ = BandwidthEstimator::festive().conservative(0.0);
    }
}
