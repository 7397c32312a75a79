//! A multiplexed link with weighted fair sharing (HTTP/2-style
//! prioritized streams over one connection).
//!
//! [`PathQueue`](crate::transfer::PathQueue) serializes transfers
//! (HTTP/1.1 semantics); real players increasingly run HTTP/2, where
//! concurrent streams share the connection according to priorities. §1
//! explicitly calls out cross-layer interaction "with TCP and web
//! protocols such as HTTP/2" as under-explored — this module lets the
//! Table-1 priorities map onto transport weights so an urgent FoV
//! correction can overtake an in-flight OOS bulk transfer *without*
//! waiting for the queue to drain.
//!
//! The model is generalized processor sharing (GPS) over a
//! constant-rate link: at any instant, each active stream receives
//! `weight / Σ weights` of the capacity. Completions are computed
//! exactly by event-stepping between stream arrivals/finishes.

use crate::priority::ChunkPriority;
use serde::{Deserialize, Serialize};
use sperke_sim::{SimDuration, SimTime};

/// Identifier of a stream on the multiplexed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamId(pub u64);

#[derive(Debug, Clone)]
struct Flow {
    id: StreamId,
    remaining_bits: f64,
    weight: f64,
    submitted: SimTime,
}

/// A completed stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamCompletion {
    /// The stream.
    pub id: StreamId,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Bytes carried.
    pub bytes: u64,
}

/// The weight assigned to a Table-1 priority class.
fn weight_of(priority: ChunkPriority) -> f64 {
    // Urgent chunks dominate; FoV beats OOS 4:1.
    match priority.rank() {
        3 => 16.0, // FoV + urgent
        2 => 8.0,  // OOS + urgent
        1 => 4.0,  // FoV + regular
        _ => 1.0,  // OOS + regular
    }
}

/// A constant-rate link multiplexing weighted streams.
///
/// ```
/// use sperke_net::{MuxLink, ChunkPriority};
/// use sperke_sim::SimTime;
///
/// let mut link = MuxLink::new(8e6);
/// let bulk = link.submit(1_000_000, SimTime::ZERO, ChunkPriority::OOS);
/// let urgent = link.submit(50_000, SimTime::from_millis(100), ChunkPriority::CRITICAL);
/// let done = link.drain();
/// let u = done.iter().find(|c| c.id == urgent).unwrap();
/// let b = done.iter().find(|c| c.id == bulk).unwrap();
/// assert!(u.finished < b.finished, "the urgent stream overtakes the bulk");
/// ```
#[derive(Debug, Clone)]
pub struct MuxLink {
    rate_bps: f64,
    /// Virtual time of the last state update.
    now: SimTime,
    active: Vec<Flow>,
    next_id: u64,
    completions: Vec<StreamCompletion>,
    bytes_of: std::collections::HashMap<u64, u64>,
}

impl MuxLink {
    /// A link of the given constant capacity.
    pub fn new(rate_bps: f64) -> MuxLink {
        assert!(rate_bps > 0.0);
        MuxLink {
            rate_bps,
            now: SimTime::ZERO,
            active: Vec::new(),
            next_id: 0,
            completions: Vec::new(),
            bytes_of: std::collections::HashMap::new(),
        }
    }

    /// Advance the GPS state to `to`, retiring streams that finish.
    fn advance(&mut self, to: SimTime) {
        while self.now < to && !self.active.is_empty() {
            let total_w: f64 = self.active.iter().map(|f| f.weight).sum();
            // Next internal completion under current sharing.
            let (idx, dt) = self
                .active
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let rate = self.rate_bps * f.weight / total_w;
                    (i, f.remaining_bits / rate)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("non-empty");
            let window = (to - self.now).as_secs_f64();
            if dt <= window {
                // The flow at `idx` completes inside the window.
                let finish = self.now + SimDuration::from_secs_f64(dt);
                for (i, f) in self.active.iter_mut().enumerate() {
                    let rate = self.rate_bps * f.weight / total_w;
                    f.remaining_bits -= rate * dt;
                    if i == idx {
                        f.remaining_bits = 0.0;
                    }
                }
                let done = self.active.remove(idx);
                self.completions.push(StreamCompletion {
                    id: done.id,
                    submitted: done.submitted,
                    finished: finish,
                    bytes: self.bytes_of.remove(&done.id.0).unwrap_or(0),
                });
                self.now = finish;
            } else {
                for f in self.active.iter_mut() {
                    let rate = self.rate_bps * f.weight / total_w;
                    f.remaining_bits -= rate * window;
                }
                self.now = to;
            }
        }
        self.now = self.now.max(to);
    }

    /// Open a stream of `bytes` at `now` with a priority-derived weight.
    pub fn submit(&mut self, bytes: u64, now: SimTime, priority: ChunkPriority) -> StreamId {
        self.submit_weighted(bytes, now, weight_of(priority))
    }

    /// Open a stream with an explicit weight.
    pub(crate) fn submit_weighted(&mut self, bytes: u64, now: SimTime, weight: f64) -> StreamId {
        assert!(weight > 0.0, "weight must be positive");
        assert!(now >= self.now, "submissions must be time-ordered");
        self.advance(now);
        let id = StreamId(self.next_id);
        self.next_id += 1;
        self.active.push(Flow {
            id,
            remaining_bits: bytes as f64 * 8.0,
            weight,
            submitted: now,
        });
        self.bytes_of.insert(id.0, bytes);
        id
    }

    /// Drive the link until `to`, then drain and return completions so
    /// far (ordered by finish time).
    pub fn run_until(&mut self, to: SimTime) -> Vec<StreamCompletion> {
        self.advance(to);
        let mut out = std::mem::take(&mut self.completions);
        out.sort_by_key(|c| c.finished);
        out
    }

    /// Run until every active stream completes; returns all outstanding
    /// completions.
    pub fn drain(&mut self) -> Vec<StreamCompletion> {
        while !self.active.is_empty() {
            let t = self.now + SimDuration::from_secs(3600);
            self.advance(t);
        }
        self.run_until(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::ChunkPriority;

    const MBIT: u64 = 125_000; // bytes in a megabit

    #[test]
    fn single_stream_uses_full_rate() {
        let mut link = MuxLink::new(8e6);
        link.submit_weighted(MBIT, SimTime::ZERO, 1.0); // 1 Mbit at 8 Mbps
        let done = link.drain();
        assert_eq!(done.len(), 1);
        assert!((done[0].finished.as_secs_f64() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn equal_weights_share_equally() {
        let mut link = MuxLink::new(8e6);
        link.submit_weighted(MBIT, SimTime::ZERO, 1.0);
        link.submit_weighted(MBIT, SimTime::ZERO, 1.0);
        let done = link.drain();
        // Both finish together at 0.25 s (each got 4 Mbps).
        for c in &done {
            assert!((c.finished.as_secs_f64() - 0.25).abs() < 1e-9, "{c:?}");
        }
    }

    #[test]
    fn heavier_stream_finishes_first_then_other_speeds_up() {
        let mut link = MuxLink::new(8e6);
        let heavy = link.submit_weighted(MBIT, SimTime::ZERO, 3.0);
        let light = link.submit_weighted(MBIT, SimTime::ZERO, 1.0);
        let done = link.drain();
        let h = done.iter().find(|c| c.id == heavy).unwrap();
        let l = done.iter().find(|c| c.id == light).unwrap();
        // Heavy: 6 Mbps until done at 1/6 s. Light: 2 Mbps for 1/6 s
        // (1/3 Mbit) then full 8 Mbps for the remaining 2/3 Mbit.
        assert!((h.finished.as_secs_f64() - 1.0 / 6.0).abs() < 1e-9);
        let expect_l = 1.0 / 6.0 + (2.0 / 3.0) / 8.0;
        assert!((l.finished.as_secs_f64() - expect_l).abs() < 1e-9, "{l:?}");
    }

    #[test]
    fn urgent_chunk_overtakes_bulk() {
        // The §3.3 motivation: an urgent FoV correction submitted while
        // an OOS bulk transfer is in flight must not wait for it.
        let mut link = MuxLink::new(8e6);
        let bulk = link.submit(8 * MBIT, SimTime::ZERO, ChunkPriority::OOS); // 8 Mbit
        let urgent = link.submit(MBIT, SimTime::from_millis(100), ChunkPriority::CRITICAL);
        let done = link.drain();
        let u = done.iter().find(|c| c.id == urgent).unwrap();
        let b = done.iter().find(|c| c.id == bulk).unwrap();
        assert!(u.finished < b.finished, "urgent must beat bulk");
        // Urgent got 16/17 of the link: ~0.133 s of service.
        let service = u.finished.saturating_since(u.submitted).as_secs_f64();
        assert!(service < 0.2, "urgent service {service}");
        // Contrast: on a FIFO queue it would have waited ~1 s for bulk.
    }

    #[test]
    fn run_until_reports_partial_progress() {
        let mut link = MuxLink::new(8e6);
        link.submit_weighted(MBIT, SimTime::ZERO, 1.0); // done at 0.125
        link.submit_weighted(100 * MBIT, SimTime::ZERO, 1.0);
        let early = link.run_until(SimTime::from_millis(300));
        assert_eq!(early.len(), 1, "only the small stream is done by 0.3 s");
        assert_eq!(link.active.len(), 1, "the bulk stream is still in flight");
    }

    #[test]
    fn work_is_conserved() {
        // Total bits delivered by any schedule over a busy period equals
        // rate × time: the last completion of equal total work is
        // invariant to weights.
        let total_work = |weights: &[f64]| {
            let mut link = MuxLink::new(10e6);
            for &w in weights {
                link.submit_weighted(MBIT, SimTime::ZERO, w);
            }
            link.drain().into_iter().map(|c| c.finished).max().unwrap()
        };
        let fair = total_work(&[1.0, 1.0, 1.0, 1.0]);
        let skewed = total_work(&[8.0, 1.0, 2.0, 0.5]);
        assert!(
            (fair.as_secs_f64() - skewed.as_secs_f64()).abs() < 1e-9,
            "makespan must be schedule-invariant: {fair} vs {skewed}"
        );
        // 4 Mbit at 10 Mbps = 0.4 s.
        assert!((fair.as_secs_f64() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn weight_of_orders_priorities() {
        assert!(weight_of(ChunkPriority::CRITICAL) > weight_of(ChunkPriority::FOV));
        assert!(weight_of(ChunkPriority::FOV) > weight_of(ChunkPriority::OOS));
    }

    #[test]
    #[should_panic]
    fn out_of_order_submission_rejected() {
        let mut link = MuxLink::new(1e6);
        link.submit_weighted(1000, SimTime::from_secs(5), 1.0);
        link.submit_weighted(1000, SimTime::from_secs(1), 1.0);
    }
}
