//! A per-path FIFO transfer engine.
//!
//! Chunk requests queue on a path and complete in order; each transfer's
//! duration comes from the [`PathModel`] at its actual start time. This
//! captures head-of-line blocking — the phenomenon the content-aware
//! scheduler exploits by keeping OOS bulk off the path that urgent FoV
//! chunks need.

use crate::bbr::{BbrState, BbrUpdate, GeChain, LossChannel};
use crate::fault::PathFaults;
use crate::path::PathModel;
use crate::priority::Reliability;
use serde::{Deserialize, Serialize};
use sperke_sim::{SimDuration, SimRng, SimTime};

/// The RNG stream label a [`PathQueue`] splits off for its
/// Gilbert–Elliott chain. Splitting does not consume main-stream state,
/// so a queue built with [`LossChannel::Declared`] draws exactly the
/// same best-effort rolls as one built before the channel existed.
const GE_RNG_STREAM: u64 = 0x4745_4C4F_5353; // "GELOSS"

/// Identifier for a transfer accepted by a [`PathQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransferId(pub u64);

/// The outcome of a completed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferOutcome {
    /// All bytes delivered.
    Delivered,
    /// Best-effort transfer lost too many packets and was discarded.
    Dropped,
    /// The transfer was interrupted — the path went down mid-flight (or
    /// was already down at start), or the client aborted it on timeout.
    Failed,
}

/// A completed transfer record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The transfer.
    pub id: TransferId,
    /// When the request was submitted.
    pub submitted: SimTime,
    /// When bytes actually started moving (after any FIFO queue wait).
    pub start: SimTime,
    /// When the last byte arrived (or the drop/failure was detected).
    pub finished: SimTime,
    /// Bytes requested.
    pub bytes: u64,
    /// Outcome.
    pub outcome: TransferOutcome,
}

impl Completion {
    /// Achieved goodput in bits/second (0 unless delivered), measured
    /// over the transfer's *active* interval `finished − start`. FIFO
    /// queue wait before `start` is head-of-line blocking, not link
    /// speed — including it would deflate the sample fed to the
    /// bandwidth estimator and drag VRA decisions down.
    pub fn goodput_bps(&self) -> f64 {
        if self.outcome != TransferOutcome::Delivered {
            return 0.0;
        }
        let secs = self.finished.saturating_since(self.start).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / secs
        }
    }
}

/// One transfer still in flight (its `finished` stamp lies in the
/// future), kept so `flush`/`abort` can reverse its accounting.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: TransferId,
    bytes: u64,
    finished: SimTime,
    outcome: TransferOutcome,
}

/// FIFO transfer queue over one path.
#[derive(Debug, Clone)]
pub struct PathQueue {
    path: PathModel,
    /// When the path frees up.
    busy_until: SimTime,
    next_id: u64,
    rng: SimRng,
    /// Fault timeline the engine honours (empty by default).
    faults: PathFaults,
    /// Bursty-loss chain (None = the declared i.i.d. model).
    loss_channel: Option<GeChain>,
    /// Measured-capacity estimator (None = schedule off declared rate).
    bbr: Option<BbrState>,
    /// BBR updates since the last [`PathQueue::take_bbr_updates`] call.
    bbr_updates: Vec<BbrUpdate>,
    /// Transfers whose resolved `finished` stamp we have not yet passed,
    /// oldest first — the work `flush`/`abort` can still cancel.
    inflight: Vec<InFlight>,
    /// Bytes delivered so far (for accounting).
    pub bytes_delivered: u64,
    /// Bytes submitted that were dropped (best-effort losses).
    pub bytes_dropped: u64,
    /// Bytes submitted that failed (outage interruptions and client
    /// aborts).
    pub bytes_failed: u64,
}

impl PathQueue {
    /// Wrap a path model; `rng` drives best-effort loss outcomes.
    pub fn new(path: PathModel, rng: SimRng) -> PathQueue {
        PathQueue {
            path,
            busy_until: SimTime::ZERO,
            next_id: 0,
            rng,
            faults: PathFaults::none(),
            loss_channel: None,
            bbr: None,
            bbr_updates: Vec::new(),
            inflight: Vec::new(),
            bytes_delivered: 0,
            bytes_dropped: 0,
            bytes_failed: 0,
        }
    }

    /// Attach a fault timeline (builder style). An empty timeline is
    /// exactly equivalent to never calling this: no fault check consumes
    /// RNG, so seed-determinism is unaffected.
    pub fn with_faults(mut self, faults: PathFaults) -> PathQueue {
        self.faults = faults;
        self
    }

    /// The attached fault timeline (empty by default).
    pub fn faults(&self) -> &PathFaults {
        &self.faults
    }

    /// Choose the best-effort loss model (builder style). The default
    /// [`LossChannel::Declared`] keeps the legacy i.i.d. roll and is
    /// byte-identical to never calling this — the Gilbert–Elliott chain
    /// draws from a *split* RNG stream, so the main stream's draws are
    /// untouched either way.
    pub fn with_loss_channel(mut self, channel: LossChannel) -> PathQueue {
        self.loss_channel = match channel {
            LossChannel::Declared => None,
            ge @ LossChannel::GilbertElliott { .. } => {
                Some(GeChain::new(ge, self.rng.split(GE_RNG_STREAM)))
            }
        };
        self
    }

    /// Attach a BBR-style capacity estimator (builder style). Once the
    /// estimator has a delivery-rate sample,
    /// [`PathQueue::estimate_completion`] answers from the *measured*
    /// bottleneck instead of the declared path model — which is how
    /// every scheduler comparing completion estimates (content-aware
    /// included) reads the measurement. Consumes no RNG; a queue
    /// without BBR behaves byte-identically to one built before this
    /// option existed.
    pub fn with_bbr(mut self) -> PathQueue {
        self.bbr = Some(BbrState::new());
        self
    }

    /// The path's BBR state, when [`PathQueue::with_bbr`] enabled it.
    pub fn bbr(&self) -> Option<&BbrState> {
        self.bbr.as_ref()
    }

    /// Drain the BBR updates recorded since the last call (one per
    /// delivered transfer). The multipath session defers these into
    /// trace events under its ordering discipline.
    pub fn take_bbr_updates(&mut self) -> Vec<BbrUpdate> {
        std::mem::take(&mut self.bbr_updates)
    }

    /// Advance the loss channel's chain to `to` without submitting
    /// anything. A no-op for [`LossChannel::Declared`]. Because the
    /// chain is time-driven and idempotent, advancing eagerly here and
    /// lazily at the next submission roll the *same* tick sequence —
    /// the multipath session uses this to discover state flips as its
    /// clock passes them instead of retroactively at the next submit.
    pub fn advance_loss_channel(&mut self, to: SimTime) {
        if let Some(chain) = &mut self.loss_channel {
            chain.advance_to(to);
        }
    }

    /// Whether the loss channel currently sits in its bursty (Bad)
    /// state — `false` for [`LossChannel::Declared`]. Non-advancing
    /// peek; reflects the chain state as of the last submission.
    pub fn loss_burst_active(&self) -> bool {
        self.loss_channel.as_ref().is_some_and(GeChain::bursty)
    }

    /// Drain the loss-channel state flips recorded since the last call,
    /// `(when, now bursty)` in time order. Empty for
    /// [`LossChannel::Declared`].
    pub fn take_loss_transitions(&mut self) -> Vec<(SimTime, bool)> {
        match &mut self.loss_channel {
            Some(chain) => chain.take_transitions(),
            None => Vec::new(),
        }
    }

    /// The wrapped path.
    pub fn path(&self) -> &PathModel {
        &self.path
    }

    /// When the queue drains (never before `now`).
    pub fn available_at(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now)
    }

    /// Estimated completion time if `bytes` were enqueued now — the
    /// quantity schedulers compare across paths.
    ///
    /// With BBR attached and at least one delivery-rate sample in its
    /// window, the answer comes from the measured bottleneck (plus one
    /// RTT of request latency from idle); otherwise from the declared
    /// path model. The estimate never changes what a transfer actually
    /// costs — [`PathQueue::submit`] always runs the physical model —
    /// only how schedulers rank the paths.
    pub fn estimate_completion(&self, bytes: u64, now: SimTime) -> SimTime {
        let start = self.available_at(now);
        if let Some(bw) = self.bbr.as_ref().and_then(BbrState::btl_bw) {
            let bulk = SimDuration::from_secs_f64(bytes as f64 * 8.0 / bw);
            return if start > now {
                start + bulk
            } else {
                start + self.path.rtt + bulk
            };
        }
        if start > now {
            start + self.path.transfer_time_warm(bytes, start, 1.0)
        } else {
            start + self.path.transfer_time(bytes, start, 1.0)
        }
    }

    /// Enqueue a transfer; returns its completion record.
    ///
    /// When the queue is busy the new transfer pipelines over the warm
    /// persistent connection (no per-request RTT); from idle it pays the
    /// full request latency and slow-start ramp.
    ///
    /// Fault handling (all checks precede the best-effort RNG roll, so a
    /// run with an empty timeline consumes exactly the same RNG stream as
    /// a run built without faults):
    /// - path down at start → `Failed` one RTT after start (the client
    ///   learns of the dead link from its unanswered request);
    /// - an outage opening mid-flight → `Failed` one RTT after the outage
    ///   starts (the stalled connection times out);
    /// - active degradations scale bandwidth share and add packet loss.
    pub fn submit(&mut self, bytes: u64, now: SimTime, reliability: Reliability) -> Completion {
        self.prune(now);
        let start = self.available_at(now);
        let id = TransferId(self.next_id);
        self.next_id += 1;

        if self.faults.is_down(start) {
            return self.fail(id, bytes, now, start, start + self.path.rtt);
        }

        let share = self.faults.bandwidth_factor_at(start);
        let warm = start > now;
        let duration = if warm {
            self.path.transfer_time_warm(bytes, start, share)
        } else {
            self.path.transfer_time(bytes, start, share)
        };
        let finished = start + duration;
        if let Some(outage_start) = self.faults.first_outage_start_within(start, finished) {
            return self.fail(id, bytes, now, start, outage_start + self.path.rtt);
        }

        let outcome = match reliability {
            Reliability::Reliable => TransferOutcome::Delivered,
            Reliability::BestEffort => {
                // Declared channel: the path's flat loss rate (legacy
                // behaviour, bit-for-bit). GE channel: the chain's
                // state-dependent loss at the start instant, advanced on
                // its own split RNG stream.
                let base_loss = match &mut self.loss_channel {
                    Some(chain) => chain.loss_at(start),
                    None => self.path.loss,
                };
                let loss = (base_loss + self.faults.extra_loss_at(start)).min(0.99);
                if self
                    .path
                    .best_effort_survives_with_loss(bytes, loss, &mut self.rng)
                {
                    TransferOutcome::Delivered
                } else {
                    TransferOutcome::Dropped
                }
            }
        };
        self.busy_until = finished;
        // Feed the capacity estimator from completed-transfer ACK
        // accounting: the delivered bytes over the transfer's *bulk*
        // interval, stamped at completion. Cold transfers pay a
        // request-RTT + slow-start ramp before data flows; sampling
        // across it would systematically undershoot the wire rate, so
        // the startup latency is excluded from the interval.
        if let Some(bbr) = &mut self.bbr {
            if outcome == TransferOutcome::Delivered {
                let interval = if warm {
                    duration
                } else {
                    duration - self.path.startup_latency(bytes)
                };
                if let Some(update) = bbr.on_ack(bytes, interval, finished) {
                    self.bbr_updates.push(update);
                }
            }
        }
        match outcome {
            TransferOutcome::Delivered => self.bytes_delivered += bytes,
            TransferOutcome::Dropped => self.bytes_dropped += bytes,
            TransferOutcome::Failed => unreachable!("fault checks handle Failed"),
        }
        self.inflight.push(InFlight {
            id,
            bytes,
            finished,
            outcome,
        });
        Completion {
            id,
            submitted: now,
            start,
            finished,
            bytes,
            outcome,
        }
    }

    /// Record an outage-interrupted transfer: the path is occupied (and
    /// useless) until the failure is detected at `finished`.
    fn fail(
        &mut self,
        id: TransferId,
        bytes: u64,
        submitted: SimTime,
        start: SimTime,
        finished: SimTime,
    ) -> Completion {
        let outcome = TransferOutcome::Failed;
        self.busy_until = self.busy_until.max(finished);
        self.bytes_failed += bytes;
        self.inflight.push(InFlight {
            id,
            bytes,
            finished,
            outcome,
        });
        Completion {
            id,
            submitted,
            start,
            finished,
            bytes,
            outcome,
        }
    }

    /// Forget in-flight records whose resolution time has passed — their
    /// accounting is final.
    fn prune(&mut self, now: SimTime) {
        self.inflight.retain(|t| t.finished > now);
    }

    /// Cancel a single in-flight transfer (e.g. on a client-side timeout):
    /// its accounting is reversed, the bytes are charged to
    /// [`bytes_failed`](Self::bytes_failed), and the path frees up at
    /// `at` unless other queued work extends past it. Returns `false` if
    /// the transfer already resolved (its completion stands).
    pub fn abort(&mut self, id: TransferId, at: SimTime) -> bool {
        self.prune(at);
        let Some(pos) = self.inflight.iter().position(|t| t.id == id) else {
            return false;
        };
        let t = self.inflight.remove(pos);
        match t.outcome {
            TransferOutcome::Delivered => self.bytes_delivered -= t.bytes,
            TransferOutcome::Dropped => self.bytes_dropped -= t.bytes,
            TransferOutcome::Failed => self.bytes_failed -= t.bytes,
        }
        self.bytes_failed += t.bytes;
        let tail = self
            .inflight
            .iter()
            .map(|r| r.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        self.busy_until = self.busy_until.min(at.max(tail));
        true
    }

    /// Drop all queued work (e.g. on a VRA rescheduling decision): the
    /// path frees immediately at `now`. The accounting of every cancelled
    /// in-flight transfer is reversed — bytes that never finished arriving
    /// are not goodput — and the cancelled byte count is returned.
    pub fn flush(&mut self, now: SimTime) -> u64 {
        self.prune(now);
        let mut cancelled = 0;
        for t in self.inflight.drain(..) {
            cancelled += t.bytes;
            match t.outcome {
                TransferOutcome::Delivered => self.bytes_delivered -= t.bytes,
                TransferOutcome::Dropped => self.bytes_dropped -= t.bytes,
                TransferOutcome::Failed => self.bytes_failed -= t.bytes,
            }
        }
        self.busy_until = self.busy_until.min(now);
        cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::BandwidthTrace;
    use sperke_sim::SimDuration;

    fn queue(bps: f64) -> PathQueue {
        PathQueue::new(
            PathModel::new(
                "t",
                BandwidthTrace::constant(bps),
                SimDuration::from_millis(10),
                0.0,
            ),
            SimRng::new(1),
        )
    }

    #[test]
    fn sequential_transfers_queue_up() {
        let mut q = queue(8e6); // 1 MB/s
        let a = q.submit(1_000_000, SimTime::ZERO, Reliability::Reliable);
        let b = q.submit(1_000_000, SimTime::ZERO, Reliability::Reliable);
        assert!(b.finished > a.finished, "FIFO ordering");
        // Second starts when the first ends.
        let gap = b.finished - a.finished;
        assert!(
            gap.as_secs_f64() > 0.9,
            "second transfer takes ~1s, gap {gap}"
        );
    }

    #[test]
    fn estimate_matches_submit() {
        let mut q = queue(8e6);
        let est = q.estimate_completion(500_000, SimTime::ZERO);
        let got = q.submit(500_000, SimTime::ZERO, Reliability::Reliable);
        assert_eq!(est, got.finished);
    }

    #[test]
    fn idle_queue_starts_immediately() {
        let mut q = queue(8e6);
        let c = q.submit(1_000_000, SimTime::from_secs(5), Reliability::Reliable);
        assert!(c.finished.as_secs_f64() > 5.9 && c.finished.as_secs_f64() < 6.2);
    }

    #[test]
    fn flush_frees_the_path() {
        let mut q = queue(8e6);
        q.submit(10_000_000, SimTime::ZERO, Reliability::Reliable); // ~10s
        q.flush(SimTime::from_secs(1));
        let c = q.submit(8_000, SimTime::from_secs(1), Reliability::Reliable);
        assert!(c.finished.as_secs_f64() < 1.1, "path freed at flush time");
    }

    #[test]
    fn goodput_accounting() {
        let mut q = queue(8e6);
        let c = q.submit(1_000_000, SimTime::ZERO, Reliability::Reliable);
        let g = c.goodput_bps();
        assert!(g > 6e6 && g < 8.1e6, "goodput {g}");
        assert_eq!(q.bytes_delivered, 1_000_000);
        assert_eq!(q.bytes_dropped, 0);
    }

    #[test]
    fn best_effort_on_lossy_path_drops() {
        let mut q = PathQueue::new(
            PathModel::new(
                "lossy",
                BandwidthTrace::constant(8e6),
                SimDuration::from_millis(10),
                0.08,
            ),
            SimRng::new(2),
        );
        let mut dropped = 0;
        for _ in 0..50 {
            let c = q.submit(500_000, SimTime::ZERO, Reliability::BestEffort);
            if c.outcome == TransferOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 40, "8% loss should kill most best-effort chunks");
        assert!(q.bytes_dropped > 0);
    }

    #[test]
    fn transfer_ids_unique() {
        let mut q = queue(8e6);
        let a = q.submit(1, SimTime::ZERO, Reliability::Reliable);
        let b = q.submit(1, SimTime::ZERO, Reliability::Reliable);
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn goodput_excludes_queue_wait() {
        // Two back-to-back 1 MB submissions on a 1 MB/s path: the second
        // waits ~1 s in the FIFO before its bytes move. Its goodput must
        // reflect the link (~8 Mb/s), not the wait-inflated ~4 Mb/s the
        // old submitted-based divisor produced.
        let mut q = queue(8e6);
        let a = q.submit(1_000_000, SimTime::ZERO, Reliability::Reliable);
        let b = q.submit(1_000_000, SimTime::ZERO, Reliability::Reliable);
        assert_eq!(b.submitted, SimTime::ZERO);
        assert_eq!(b.start, a.finished, "second starts when the first ends");
        let ga = a.goodput_bps();
        let gb = b.goodput_bps();
        assert!(gb > 6e6, "queue wait must not deflate goodput, got {gb}");
        // The warm second transfer skips the request RTT, so it is at
        // least as fast as the cold first one.
        assert!(gb >= ga, "warm {gb} vs cold {ga}");
    }

    #[test]
    fn flush_reverses_inflight_accounting() {
        let mut q = queue(8e6);
        q.submit(10_000_000, SimTime::ZERO, Reliability::Reliable); // ~10s
        assert_eq!(q.bytes_delivered, 10_000_000);
        let cancelled = q.flush(SimTime::from_secs(1));
        assert_eq!(cancelled, 10_000_000, "in-flight bytes were cancelled");
        assert_eq!(q.bytes_delivered, 0, "cancelled bytes are not goodput");
    }

    #[test]
    fn flush_spares_finished_transfers() {
        let mut q = queue(8e6);
        let c = q.submit(1_000_000, SimTime::ZERO, Reliability::Reliable); // ~1s
        let cancelled = q.flush(c.finished + SimDuration::from_millis(1));
        assert_eq!(cancelled, 0, "nothing in flight to cancel");
        assert_eq!(q.bytes_delivered, 1_000_000, "finished transfer stands");
    }

    #[test]
    fn down_path_fails_fast() {
        let faults = crate::fault::FaultScript::none()
            .link_down(0, SimTime::from_secs(2), SimTime::from_secs(7))
            .compile_for(0);
        let mut q = queue(8e6).with_faults(faults);
        let c = q.submit(1_000_000, SimTime::from_secs(3), Reliability::Reliable);
        assert_eq!(c.outcome, TransferOutcome::Failed);
        let rtt = SimDuration::from_millis(10);
        assert_eq!(
            c.finished,
            SimTime::from_secs(3) + rtt,
            "detected one RTT in"
        );
        assert_eq!(q.bytes_failed, 1_000_000);
        assert_eq!(q.bytes_delivered, 0);
    }

    #[test]
    fn outage_interrupts_inflight_transfer() {
        // ~10s transfer from t=0; the link dies at t=4 — the transfer must
        // fail shortly after the outage starts, not silently deliver at
        // t=10 as if nothing happened.
        let faults = crate::fault::FaultScript::none()
            .link_down(0, SimTime::from_secs(4), SimTime::from_secs(6))
            .compile_for(0);
        let mut q = queue(8e6).with_faults(faults);
        let c = q.submit(10_000_000, SimTime::ZERO, Reliability::Reliable);
        assert_eq!(c.outcome, TransferOutcome::Failed);
        let rtt = SimDuration::from_millis(10);
        assert_eq!(c.finished, SimTime::from_secs(4) + rtt);
        assert_eq!(q.bytes_failed, 10_000_000);
        // The path is tied up until the failure is detected, then free —
        // but still inside the outage, so a resubmit fails fast again.
        let again = q.submit(8_000, SimTime::from_secs(5), Reliability::Reliable);
        assert_eq!(again.outcome, TransferOutcome::Failed);
        // After the outage clears, transfers go through.
        let after = q.submit(8_000, SimTime::from_secs(6), Reliability::Reliable);
        assert_eq!(after.outcome, TransferOutcome::Delivered);
    }

    #[test]
    fn degradation_slows_transfers() {
        let faults = crate::fault::FaultScript::none()
            .degrade(0, SimTime::ZERO, SimTime::from_secs(60), 0.25, 0.0)
            .compile_for(0);
        let mut clean = queue(8e6);
        let mut degraded = queue(8e6).with_faults(faults);
        let a = clean.submit(2_000_000, SimTime::ZERO, Reliability::Reliable);
        let b = degraded.submit(2_000_000, SimTime::ZERO, Reliability::Reliable);
        let ratio = b.finished.saturating_since(b.start).as_secs_f64()
            / a.finished.saturating_since(a.start).as_secs_f64();
        assert!(
            ratio > 2.0,
            "quarter bandwidth should take much longer, ratio {ratio}"
        );
        assert_eq!(b.outcome, TransferOutcome::Delivered);
    }

    #[test]
    fn abort_cancels_and_frees_the_path() {
        let mut q = queue(8e6);
        let c = q.submit(10_000_000, SimTime::ZERO, Reliability::Reliable); // ~10s
        assert!(q.abort(c.id, SimTime::from_secs(1)));
        assert_eq!(q.bytes_delivered, 0, "aborted bytes are not goodput");
        assert_eq!(
            q.bytes_failed, 10_000_000,
            "aborted bytes charged as failed"
        );
        let next = q.submit(8_000, SimTime::from_secs(1), Reliability::Reliable);
        assert!(next.finished.as_secs_f64() < 1.1, "path freed by the abort");
        // Aborting a transfer that already resolved is a no-op.
        assert!(!q.abort(next.id, SimTime::from_secs(30)));
    }

    #[test]
    fn declared_channel_preserves_rng_stream() {
        // `.with_loss_channel(Declared)` must be byte-identical to never
        // calling it: same submissions, same RNG draws, same outcomes.
        // This is the disabled-channel half of the GE determinism
        // contract (the seed-77 golden run pins the full stack).
        let lossy = || {
            PathModel::new(
                "lossy",
                BandwidthTrace::constant(8e6),
                SimDuration::from_millis(10),
                0.03,
            )
        };
        let mut bare = PathQueue::new(lossy(), SimRng::new(9));
        let mut declared = PathQueue::new(lossy(), SimRng::new(9))
            .with_loss_channel(crate::bbr::LossChannel::Declared);
        for i in 0..40 {
            let t = SimTime::from_secs(i);
            let a = bare.submit(200_000, t, Reliability::BestEffort);
            let b = declared.submit(200_000, t, Reliability::BestEffort);
            assert_eq!(a, b, "submission {i} diverged");
        }
        assert!(!declared.loss_burst_active());
        assert!(declared.take_loss_transitions().is_empty());
    }

    #[test]
    fn ge_channel_drops_burst_windows() {
        // A chain pinned in a heavy-loss Bad state (p_bg = 0) kills
        // best-effort chunks that the Good state would deliver.
        let clean_path = || {
            PathModel::new(
                "ge",
                BandwidthTrace::constant(8e6),
                SimDuration::from_millis(10),
                0.001,
            )
        };
        let sticky_bad = crate::bbr::LossChannel::GilbertElliott {
            p_gb: 1.0,
            p_bg: 0.0,
            loss_good: 0.0,
            loss_bad: 0.12,
        };
        let mut q = PathQueue::new(clean_path(), SimRng::new(4)).with_loss_channel(sticky_bad);
        // First submission at t=0: chain has not ticked, still Good with
        // zero loss → guaranteed delivery.
        let first = q.submit(200_000, SimTime::ZERO, Reliability::BestEffort);
        assert_eq!(first.outcome, TransferOutcome::Delivered);
        assert!(!q.loss_burst_active());
        // After the first tick the chain is Bad forever; 12 % loss kills
        // essentially every best-effort chunk.
        let mut dropped = 0;
        for i in 1..40u64 {
            let c = q.submit(200_000, SimTime::from_secs(i), Reliability::BestEffort);
            if c.outcome == TransferOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!(q.loss_burst_active(), "chain pinned Bad");
        assert!(dropped > 35, "burst loss must drop chunks: {dropped}/39");
        let transitions = q.take_loss_transitions();
        assert_eq!(transitions.len(), 1, "exactly one Good→Bad flip");
        assert!(transitions[0].1, "flip entered the bursty state");
    }

    #[test]
    fn bbr_estimate_tracks_measured_rate() {
        // Declared 25 Mbps, but BBR has only measured what transfers
        // actually achieved — the estimate must come from the samples.
        let mut q = queue(25e6).with_bbr();
        // Before any sample: declared-model estimate (unchanged).
        let declared_est = q.estimate_completion(1_000_000, SimTime::ZERO);
        let plain = queue(25e6);
        assert_eq!(
            declared_est,
            plain.estimate_completion(1_000_000, SimTime::ZERO)
        );
        // One delivered transfer seeds the estimator.
        let c = q.submit(1_000_000, SimTime::ZERO, Reliability::Reliable);
        assert_eq!(c.outcome, TransferOutcome::Delivered);
        let updates = q.take_bbr_updates();
        assert_eq!(updates.len(), 1);
        let measured = q.bbr().unwrap().btl_bw().unwrap();
        assert!((updates[0].btl_bw_bps - measured).abs() < 1e-6);
        // The measured estimate now answers scheduling queries: bytes at
        // btl_bw plus one RTT from idle.
        let now = SimTime::from_secs(10);
        let est = q.estimate_completion(1_000_000, now);
        let expect = now + q.path().rtt + SimDuration::from_secs_f64(1_000_000.0 * 8.0 / measured);
        assert_eq!(est, expect);
    }

    #[test]
    fn empty_fault_timeline_preserves_rng_stream() {
        // A queue with an explicit empty timeline must make exactly the
        // same best-effort calls (and thus RNG draws) as one without.
        let lossy = || {
            PathModel::new(
                "lossy",
                BandwidthTrace::constant(8e6),
                SimDuration::from_millis(10),
                0.03,
            )
        };
        let mut bare = PathQueue::new(lossy(), SimRng::new(9));
        let mut scripted =
            PathQueue::new(lossy(), SimRng::new(9)).with_faults(crate::fault::PathFaults::none());
        for i in 0..40 {
            let t = SimTime::from_secs(i);
            let a = bare.submit(200_000, t, Reliability::BestEffort);
            let b = scripted.submit(200_000, t, Reliability::BestEffort);
            assert_eq!(a, b, "submission {i} diverged");
        }
    }
}
