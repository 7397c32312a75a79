//! The decoding scheduler (§3.5): "a decoding scheduler that assigns
//! encoded chunks to decoders based on their playback time and HMP".
//!
//! Decoders are modelled as N parallel servers; jobs run on the
//! earliest-free decoder. The render loop submits jobs in priority
//! order (needed-now first, HMP-prefetch second), so earliest-free
//! assignment realizes the intended schedule.

use crate::cache::FrameKey;
use serde::{Deserialize, Serialize};
use sperke_sim::{SimDuration, SimTime};

/// A decode job's completion record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeCompletion {
    /// What was decoded.
    pub key: FrameKey,
    /// Which decoder ran it.
    pub decoder: usize,
    /// When it finished.
    pub finished: SimTime,
}

/// N parallel hardware decoders.
#[derive(Debug, Clone)]
pub struct DecoderPool {
    busy_until: Vec<SimTime>,
    /// Total busy time per decoder (utilization accounting).
    busy_time: Vec<SimDuration>,
}

impl DecoderPool {
    /// A pool of `n` idle decoders.
    pub fn new(n: usize) -> DecoderPool {
        assert!(n > 0, "need at least one decoder");
        DecoderPool {
            busy_until: vec![SimTime::ZERO; n],
            busy_time: vec![SimDuration::ZERO; n],
        }
    }

    /// Number of decoders.
    pub fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// Never true; pools are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.busy_until.is_empty()
    }

    /// Submit a decode job at `now`; it runs on the earliest-free
    /// decoder for `duration`.
    pub fn submit(
        &mut self,
        key: FrameKey,
        now: SimTime,
        duration: SimDuration,
    ) -> DecodeCompletion {
        let decoder = (0..self.busy_until.len())
            .min_by_key(|&i| (self.busy_until[i].max(now), i))
            .expect("non-empty pool");
        let start = self.busy_until[decoder].max(now);
        let finished = start + duration;
        self.busy_until[decoder] = finished;
        self.busy_time[decoder] += duration;
        DecodeCompletion {
            key,
            decoder,
            finished,
        }
    }

    /// Mean decoder utilization over `elapsed` wall time. Work queued
    /// beyond `elapsed` (prefetch backlog) extends the accounting
    /// horizon so the figure stays in `[0, 1]`.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        let backlog_end = self
            .busy_until
            .iter()
            .max()
            .copied()
            .unwrap_or(SimTime::ZERO)
            .saturating_since(SimTime::ZERO);
        let horizon = elapsed.max(backlog_end);
        if horizon.is_zero() {
            return 0.0;
        }
        let total: f64 = self.busy_time.iter().map(|d| d.as_secs_f64()).sum();
        total / (horizon.as_secs_f64() * self.busy_until.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::TileId;

    fn key(frame: u64, tile: u16) -> FrameKey {
        FrameKey {
            frame,
            tile: TileId(tile),
        }
    }

    const MS10: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn parallel_jobs_spread_across_decoders() {
        let mut pool = DecoderPool::new(4);
        let completions: Vec<_> = (0..4)
            .map(|i| pool.submit(key(0, i), SimTime::ZERO, MS10))
            .collect();
        // All four finish at 10 ms on distinct decoders.
        for c in &completions {
            assert_eq!(c.finished, SimTime::from_millis(10));
        }
        let decoders: std::collections::HashSet<_> =
            completions.iter().map(|c| c.decoder).collect();
        assert_eq!(decoders.len(), 4);
    }

    #[test]
    fn overload_queues_on_earliest_free() {
        let mut pool = DecoderPool::new(2);
        for i in 0..4 {
            pool.submit(key(0, i), SimTime::ZERO, MS10);
        }
        let fifth = pool.submit(key(0, 4), SimTime::ZERO, MS10);
        assert_eq!(fifth.finished, SimTime::from_millis(30));
    }

    #[test]
    fn utilization_accounting() {
        let mut pool = DecoderPool::new(2);
        pool.submit(key(0, 0), SimTime::ZERO, MS10);
        // One of two decoders busy 10 ms over 20 ms elapsed = 25 %.
        assert!((pool.utilization(SimDuration::from_millis(20)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn more_decoders_finish_batches_sooner() {
        let batch = |n: usize| {
            let mut pool = DecoderPool::new(n);
            (0..8)
                .map(|i| pool.submit(key(0, i), SimTime::ZERO, MS10).finished)
                .max()
                .unwrap()
        };
        assert_eq!(batch(1), SimTime::from_millis(80));
        assert_eq!(batch(4), SimTime::from_millis(20));
        assert_eq!(batch(8), SimTime::from_millis(10));
    }

    #[test]
    #[should_panic]
    fn zero_pool_rejected() {
        DecoderPool::new(0);
    }
}
