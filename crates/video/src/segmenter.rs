//! Temporal segmentation trade-offs.
//!
//! "All chunks have the same duration (e.g., one or two seconds)" (§3).
//! The duration is a real design choice: every chunk must start with a
//! keyframe (IDR), and keyframes cost far more bits than predicted
//! frames — so short chunks inflate the bitrate, while long chunks
//! reduce adaptiveness (coarser HMP corrections, longer live latency).
//! This module prices that trade-off so experiments can sweep it.

use serde::{Deserialize, Serialize};
use sperke_sim::SimDuration;

/// Encoding-efficiency model for chunked video.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmenterModel {
    /// Source frame rate.
    pub fps: f64,
    /// Bits of a keyframe relative to an average predicted frame
    /// (typical H.264 content: 8–12×).
    pub keyframe_cost_ratio: f64,
    /// Keyframe cadence the encoder would use *without* chunking
    /// (seconds); chunking can only make keyframes more frequent.
    pub natural_gop: f64,
}

impl Default for SegmenterModel {
    fn default() -> Self {
        SegmenterModel {
            fps: 30.0,
            keyframe_cost_ratio: 10.0,
            natural_gop: 4.0,
        }
    }
}

impl SegmenterModel {
    /// The bitrate inflation factor of forcing a keyframe at every chunk
    /// boundary, relative to the natural GoP structure. Always ≥ 1;
    /// approaches 1 as chunks grow past the natural GoP.
    pub fn bitrate_factor(&self, chunk_duration: SimDuration) -> f64 {
        let d = chunk_duration.as_secs_f64();
        assert!(d > 0.0, "chunk duration must be positive");
        let frames_per_chunk = (self.fps * d).max(1.0);
        let frames_per_gop = (self.fps * self.natural_gop).max(1.0);
        // Bits per frame-slot with one keyframe per `n` frames, in units
        // of a predicted frame: (ratio + (n-1)) / n.
        let cost = |n: f64| (self.keyframe_cost_ratio + (n - 1.0)) / n;
        let forced = cost(frames_per_chunk.min(frames_per_gop));
        let natural = cost(frames_per_gop);
        forced / natural
    }

    /// The number of chunk boundaries per second (each one an HMP
    /// correction opportunity for the player).
    pub fn corrections_per_second(&self, chunk_duration: SimDuration) -> f64 {
        1.0 / chunk_duration.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_one_at_natural_gop_and_beyond() {
        let m = SegmenterModel::default();
        let at = m.bitrate_factor(SimDuration::from_secs(4));
        assert!((at - 1.0).abs() < 1e-12);
        let beyond = m.bitrate_factor(SimDuration::from_secs(8));
        assert!(
            (beyond - 1.0).abs() < 1e-12,
            "chunking can't beat the natural GoP"
        );
    }

    #[test]
    fn shorter_chunks_inflate_bitrate() {
        let m = SegmenterModel::default();
        let half_s = m.bitrate_factor(SimDuration::from_millis(500));
        let one_s = m.bitrate_factor(SimDuration::from_secs(1));
        let two_s = m.bitrate_factor(SimDuration::from_secs(2));
        assert!(half_s > one_s && one_s > two_s && two_s > 1.0);
        // 1 s chunks with a 10x keyframe at 30 fps: (10+29)/30 / ((10+119)/120) ≈ 1.21.
        assert!((one_s - 1.209).abs() < 0.01, "got {one_s}");
    }

    #[test]
    fn sub_second_chunks_pay_a_steep_bitrate_cost() {
        let m = SegmenterModel::default();
        let cost_ratio = m.bitrate_factor(SimDuration::from_millis(250))
            / m.bitrate_factor(SimDuration::from_secs(1));
        assert!(
            cost_ratio > 1.5,
            "sub-second chunks pay >50% extra: {cost_ratio}"
        );
    }

    #[test]
    fn corrections_per_second() {
        let m = SegmenterModel::default();
        assert_eq!(m.corrections_per_second(SimDuration::from_secs(2)), 0.5);
        assert_eq!(m.corrections_per_second(SimDuration::from_millis(500)), 2.0);
    }

    #[test]
    #[should_panic]
    fn zero_duration_rejected() {
        SegmenterModel::default().bitrate_factor(SimDuration::ZERO);
    }
}
