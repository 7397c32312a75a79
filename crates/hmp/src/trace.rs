//! Head-movement traces: timestamped orientation logs.
//!
//! The §3.2 study collects "users' head movement during 360° video
//! playback ... uncompressed head movement data at 50 Hz". A
//! [`HeadTrace`] is that log: orientation samples at a fixed rate, with
//! interpolation, velocity estimation and a JSON on-disk format.

use crate::context::ViewingContext;
use serde::{Deserialize, Serialize};
use sperke_geo::Orientation;
use sperke_sim::{SimDuration, SimTime};

/// The paper's logging rate.
pub const DEFAULT_SAMPLE_HZ: f64 = 50.0;

/// A recorded head-movement trace for one viewing session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadTrace {
    /// Sampling rate in Hz.
    sample_hz: f64,
    /// Orientation samples; sample `i` is at time `i / sample_hz`.
    samples: Vec<Orientation>,
    /// The session's contextual metadata.
    pub context: ViewingContext,
    /// Identifier of the (anonymous) user, for cross-video mining.
    pub user_id: u64,
    /// Identifier of the video watched.
    pub video_id: u64,
}

impl HeadTrace {
    /// Build from samples at `sample_hz`.
    pub fn new(sample_hz: f64, samples: Vec<Orientation>) -> HeadTrace {
        assert!(sample_hz > 0.0, "sample rate must be positive");
        assert!(!samples.is_empty(), "trace must have samples");
        HeadTrace {
            sample_hz,
            samples,
            context: ViewingContext::default(),
            user_id: 0,
            video_id: 0,
        }
    }

    /// Build by sampling a function of time at the default 50 Hz.
    pub fn from_fn(duration: SimDuration, f: impl Fn(SimTime) -> Orientation) -> HeadTrace {
        let hz = DEFAULT_SAMPLE_HZ;
        let n = (duration.as_secs_f64() * hz).ceil() as usize + 1;
        let samples = (0..n)
            .map(|i| f(SimTime::from_secs_f64(i as f64 / hz)))
            .collect();
        HeadTrace::new(hz, samples)
    }

    /// Sampling rate.
    pub fn sample_hz(&self) -> f64 {
        self.sample_hz
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Never true (construction requires samples); here for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration covered by the trace.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs_f64((self.samples.len() - 1) as f64 / self.sample_hz)
    }

    /// Raw samples.
    pub fn samples(&self) -> &[Orientation] {
        &self.samples
    }

    /// The orientation at `time`, slerping between samples and clamping
    /// beyond either end.
    pub fn at(&self, time: SimTime) -> Orientation {
        let pos = time.as_secs_f64() * self.sample_hz;
        if pos <= 0.0 {
            return self.samples[0];
        }
        let idx = pos.floor() as usize;
        if idx + 1 >= self.samples.len() {
            return *self.samples.last().expect("non-empty");
        }
        let frac = pos - idx as f64;
        self.samples[idx].slerp(&self.samples[idx + 1], frac)
    }

    /// The `p`-th percentile of angular speed over the whole trace
    /// (rad/s). Used for the per-user speed bound of §3.2 ("a user's
    /// head movement speed can be learned to bound the latency
    /// requirement for fetching a distant tile").
    pub fn speed_percentile(&self, p: f64) -> f64 {
        let speeds: Vec<f64> = (0..self.samples.len().saturating_sub(1))
            .map(|i| self.samples[i].angular_distance(&self.samples[i + 1]) * self.sample_hz)
            .collect();
        sperke_sim::stats::percentile(&speeds, p)
    }

    /// The trailing window of samples ending at `time`, at most
    /// `max_len` entries (newest last). Used as predictor input.
    pub fn history(&self, time: SimTime, max_len: usize) -> Vec<(SimTime, Orientation)> {
        let mut out = Vec::new();
        self.history_into(time, max_len, &mut out);
        out
    }

    /// Allocation-free form of [`HeadTrace::history`]: the window
    /// replaces the contents of `out`. Same entries, same order.
    pub fn history_into(
        &self,
        time: SimTime,
        max_len: usize,
        out: &mut Vec<(SimTime, Orientation)>,
    ) {
        let end_idx =
            ((time.as_secs_f64() * self.sample_hz).floor() as usize).min(self.samples.len() - 1);
        let start = end_idx.saturating_sub(max_len.saturating_sub(1));
        out.clear();
        out.extend((start..=end_idx).map(|i| {
            (
                SimTime::from_secs_f64(i as f64 / self.sample_hz),
                self.samples[i],
            )
        }));
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<HeadTrace, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_trace() -> HeadTrace {
        // Yaw sweeps 0 -> 1 rad over 2 seconds.
        HeadTrace::from_fn(SimDuration::from_secs(2), |t| {
            Orientation::new(t.as_secs_f64() * 0.5, 0.0, 0.0)
        })
    }

    #[test]
    fn from_fn_samples_at_50hz() {
        let tr = linear_trace();
        assert_eq!(tr.sample_hz(), 50.0);
        assert_eq!(tr.len(), 101);
        assert!((tr.duration().as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn at_interpolates_between_samples() {
        let tr = linear_trace();
        let o = tr.at(SimTime::from_millis(1010)); // between samples 50 and 51
        assert!((o.yaw - 0.505).abs() < 1e-9, "yaw {}", o.yaw);
    }

    #[test]
    fn at_clamps_past_ends() {
        let tr = linear_trace();
        assert_eq!(
            tr.at(SimTime::from_secs(99)).yaw,
            tr.samples().last().unwrap().yaw
        );
        assert_eq!(tr.at(SimTime::ZERO), tr.samples()[0]);
    }

    #[test]
    fn speed_percentile_of_constant_motion() {
        let tr = linear_trace();
        assert!((tr.speed_percentile(50.0) - 0.5).abs() < 0.02);
        assert!((tr.speed_percentile(95.0) - 0.5).abs() < 0.02);
    }

    #[test]
    fn history_window() {
        let tr = linear_trace();
        let h = tr.history(SimTime::from_secs(1), 10);
        assert_eq!(h.len(), 10);
        assert!(
            h.windows(2).all(|w| w[0].0 < w[1].0),
            "ordered oldest-first"
        );
        assert!((h.last().unwrap().0.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn history_at_start_is_short() {
        let tr = linear_trace();
        let h = tr.history(SimTime::ZERO, 10);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn json_roundtrip() {
        let mut tr = linear_trace();
        tr.user_id = 9;
        tr.video_id = 4;
        let back = HeadTrace::from_json(&tr.to_json()).expect("parses");
        // JSON prints decimal floats, so compare within tolerance.
        assert_eq!(back.user_id, 9);
        assert_eq!(back.video_id, 4);
        assert_eq!(back.context, tr.context);
        assert_eq!(back.len(), tr.len());
        for (a, b) in tr.samples().iter().zip(back.samples()) {
            assert!((a.yaw - b.yaw).abs() < 1e-9 && (a.pitch - b.pitch).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn empty_trace_rejected() {
        HeadTrace::new(50.0, vec![]);
    }
}
