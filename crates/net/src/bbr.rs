//! BBR-style capacity probing and a Gilbert–Elliott bursty loss channel.
//!
//! The paper's rate adaptation stands or falls on the client's capacity
//! estimate. This module replaces "schedule off the declared path
//! bandwidth" with *measured* delivery-rate probing in the BBR mold:
//!
//! * [`BbrState`] keeps a windowed **max-filter** over delivery-rate
//!   samples (BtlBw), advancing through fixed-length probe epochs whose
//!   pacing gain periodically exceeds 1 so the estimate can climb after
//!   the bottleneck widens. Pacing reads BtlBw alone.
//! * [`LossChannel`] / [`GeChain`] model bursty loss as a seeded
//!   two-state Gilbert–Elliott Markov chain — a Good state with light
//!   loss and a Bad state with heavy loss — replacing the i.i.d. roll
//!   that systematically understates burst damage on cellular links.
//!
//! Everything here is pure state: no trace sink, no global clock.
//! [`BbrState::on_ack`] returns a [`BbrUpdate`] describing what changed
//! and [`GeChain::take_transitions`] hands back state flips, so the
//! *caller* (the multipath session, the edge world) decides how to emit
//! trace events in its own ordering discipline.
//!
//! Determinism: the GE chain draws from its own split RNG stream
//! ([`sperke_sim::SimRng::split`] does not consume main-stream state),
//! so a run with [`LossChannel::Declared`] — the default — consumes
//! exactly the RNG draws of a build that predates this module. This is
//! the same discipline PR 2 established for fault scripts.

use serde::{Deserialize, Serialize};
use sperke_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// How long a delivery-rate sample stays in the BtlBw max-filter.
pub(crate) const BTLBW_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Virtual-time length of one probe epoch.
const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Pacing gain applied during a probe epoch (> 1 probes for more).
const PROBE_GAIN: f64 = 1.25;
/// Pacing gain outside probe epochs (cruise).
const CRUISE_GAIN: f64 = 1.0;
/// Probe every `CYCLE_LEN`-th epoch (the rest cruise).
const CYCLE_LEN: u64 = 4;

/// What one [`BbrState::on_ack`] call changed — returned to the caller
/// so it can emit trace events / metrics under its own ordering rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BbrUpdate {
    /// When the ACK landed.
    pub at: SimTime,
    /// The delivery-rate sample absorbed, bits/second.
    pub sample_bps: f64,
    /// The max-filtered bottleneck estimate after the sample.
    pub btl_bw_bps: f64,
    /// `Some(epoch)` when this ACK rolled the machine into a new probe
    /// epoch (possibly skipping idle epochs — the last roll is reported).
    pub new_epoch: Option<u64>,
    /// The pacing gain in effect for the current epoch.
    pub gain: f64,
}

/// A per-path BBR-like capacity estimator.
///
/// Fed by completed-transfer ACK accounting: each delivered transfer
/// contributes one delivery-rate sample (`bytes · 8 / interval`) to the
/// windowed max-filter. The max-filter makes the estimate robust to
/// samples deflated by application-limited periods; the rolling window
/// lets it decay when the bottleneck genuinely shrinks.
#[derive(Debug, Clone, Default)]
pub struct BbrState {
    /// `(sample time, rate)` — max over this window is BtlBw.
    samples: VecDeque<(SimTime, f64)>,
    /// Completed probe-epoch counter (0 before the first ACK).
    epoch: u64,
    /// Start of the current epoch (valid once `started`).
    epoch_started: SimTime,
    started: bool,
}

impl BbrState {
    /// A fresh machine; no samples, no epochs.
    pub fn new() -> BbrState {
        BbrState::default()
    }

    /// Absorb a completed transfer: `bytes` delivered over `interval`
    /// ending at `now`. Returns `None` (no sample) when the interval is
    /// empty — an instantaneous "transfer" carries no rate information.
    pub fn on_ack(&mut self, bytes: u64, interval: SimDuration, now: SimTime) -> Option<BbrUpdate> {
        let secs = interval.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        let sample_bps = bytes as f64 * 8.0 / secs;
        if !sample_bps.is_finite() {
            return None;
        }
        // Roll probe epochs forward to `now` (first ACK starts epoch 0).
        let mut new_epoch = None;
        if !self.started {
            self.started = true;
            self.epoch_started = now;
        } else {
            while now >= self.epoch_started + PROBE_INTERVAL {
                self.epoch += 1;
                self.epoch_started += PROBE_INTERVAL;
                new_epoch = Some(self.epoch);
            }
        }
        // Slide the max-filter window and absorb the sample.
        while let Some(&(t, _)) = self.samples.front() {
            if now.saturating_since(t) > BTLBW_WINDOW {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        self.samples.push_back((now, sample_bps));
        Some(BbrUpdate {
            at: now,
            sample_bps,
            btl_bw_bps: self.btl_bw().expect("just pushed a sample"),
            new_epoch,
            gain: self.pacing_gain(),
        })
    }

    /// The bottleneck-bandwidth estimate: max delivery-rate sample in
    /// the window, or `None` before any sample.
    pub fn btl_bw(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, r)| r)
            .fold(None, |acc: Option<f64>, r| {
                Some(acc.map_or(r, |a| a.max(r)))
            })
    }

    /// Completed probe epochs so far (0 until the first epoch rolls).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the current epoch is a probing epoch (gain > cruise).
    fn probing(&self) -> bool {
        self.epoch.is_multiple_of(CYCLE_LEN)
    }

    /// The pacing gain in effect for the current epoch.
    fn pacing_gain(&self) -> f64 {
        if self.probing() {
            PROBE_GAIN
        } else {
            CRUISE_GAIN
        }
    }

    /// The pacing rate: BtlBw scaled by the epoch's gain. `None` before
    /// any delivery-rate sample.
    pub fn pacing_rate(&self) -> Option<f64> {
        self.btl_bw().map(|bw| bw * self.pacing_gain())
    }
}

/// How a path rolls best-effort packet loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LossChannel {
    /// The legacy i.i.d. model: every packet is lost independently with
    /// the path's declared `loss` probability. The default — pinned
    /// golden traces were captured under it.
    #[default]
    Declared,
    /// Two-state Gilbert–Elliott bursty loss: a Good state with
    /// `loss_good` and a Bad state with `loss_bad`, flipping with
    /// per-step probabilities `p_gb` (Good→Bad) and `p_bg` (Bad→Good).
    GilbertElliott {
        /// Per-step probability of the Good→Bad transition.
        p_gb: f64,
        /// Per-step probability of the Bad→Good transition.
        p_bg: f64,
        /// Packet-loss probability while Good.
        loss_good: f64,
        /// Packet-loss probability while Bad.
        loss_bad: f64,
    },
}

impl LossChannel {
    /// A mildly bursty cellular-style channel: ~7 % of the time in a
    /// Bad state losing 8 % of packets, against a clean background.
    pub fn bursty_default() -> LossChannel {
        LossChannel::GilbertElliott {
            p_gb: 0.015,
            p_bg: 0.2,
            loss_good: 0.001,
            loss_bad: 0.08,
        }
    }

    /// The stationary fraction of time spent in the Bad state
    /// (`p_gb / (p_gb + p_bg)`); 0 for [`LossChannel::Declared`]. The
    /// reference the GE chain's convergence tests compare against.
    #[cfg(test)]
    pub(crate) fn stationary_bad_fraction(&self) -> f64 {
        match *self {
            LossChannel::Declared => 0.0,
            LossChannel::GilbertElliott { p_gb, p_bg, .. } => p_gb / (p_gb + p_bg),
        }
    }

    /// The long-run mean loss rate: the `stationary_bad_fraction`-
    /// weighted mix of the two states' loss probabilities. For
    /// [`LossChannel::Declared`] this is 0 (the declared rate lives on
    /// the [`crate::PathModel`], not the channel). The reference the GE
    /// chain's convergence tests compare against.
    #[cfg(test)]
    pub(crate) fn stationary_loss(&self) -> f64 {
        match *self {
            LossChannel::Declared => 0.0,
            LossChannel::GilbertElliott {
                loss_good,
                loss_bad,
                ..
            } => {
                let bad = self.stationary_bad_fraction();
                (1.0 - bad) * loss_good + bad * loss_bad
            }
        }
    }
}

/// Virtual-time step at which a [`GeChain`] rolls its state transition.
const GE_STEP: SimDuration = SimDuration::from_millis(100);

/// A running Gilbert–Elliott chain: the stateful instantiation of
/// [`LossChannel::GilbertElliott`] on one path.
///
/// The chain is *time-driven*: it advances in fixed 100 ms (`GE_STEP`) ticks
/// up to the queried instant, each tick rolling one transition on the
/// chain's **own** RNG stream. Deterministic in `(params, rng seed)`
/// and independent of how often it is queried.
#[derive(Debug, Clone)]
pub struct GeChain {
    p_gb: f64,
    p_bg: f64,
    loss_good: f64,
    loss_bad: f64,
    rng: SimRng,
    bad: bool,
    last_step: SimTime,
    /// State flips since the last [`GeChain::take_transitions`] call,
    /// `(when, now bursty)` in time order.
    transitions: Vec<(SimTime, bool)>,
}

impl GeChain {
    /// Build a chain from a [`LossChannel::GilbertElliott`] variant.
    /// Panics on [`LossChannel::Declared`] (no chain to run) or
    /// out-of-range parameters. Starts in the Good state at time zero.
    pub fn new(channel: LossChannel, rng: SimRng) -> GeChain {
        let LossChannel::GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
        } = channel
        else {
            panic!("GeChain::new needs a GilbertElliott channel");
        };
        assert!((0.0..=1.0).contains(&p_gb), "p_gb in [0,1]");
        assert!((0.0..=1.0).contains(&p_bg), "p_bg in [0,1]");
        assert!((0.0..1.0).contains(&loss_good), "loss_good in [0,1)");
        assert!((0.0..1.0).contains(&loss_bad), "loss_bad in [0,1)");
        assert!(p_gb + p_bg > 0.0, "a chain that never moves is Declared");
        GeChain {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            rng,
            bad: false,
            last_step: SimTime::ZERO,
            transitions: Vec::new(),
        }
    }

    /// Advance the chain's ticks up to `now` (idempotent; never rolls a
    /// tick twice).
    pub fn advance_to(&mut self, now: SimTime) {
        while self.last_step + GE_STEP <= now {
            self.last_step += GE_STEP;
            let p = if self.bad { self.p_bg } else { self.p_gb };
            if self.rng.chance(p) {
                self.bad = !self.bad;
                self.transitions.push((self.last_step, self.bad));
            }
        }
    }

    /// The channel's loss probability at `now` (advances the chain).
    pub fn loss_at(&mut self, now: SimTime) -> f64 {
        self.advance_to(now);
        if self.bad {
            self.loss_bad
        } else {
            self.loss_good
        }
    }

    /// Whether the chain currently sits in the Bad (bursty) state.
    /// Non-advancing peek — reflects the last instant the chain was
    /// advanced to.
    pub fn bursty(&self) -> bool {
        self.bad
    }

    /// Roll one failure decision at the current state's loss
    /// probability, on the chain's own RNG stream. Used for
    /// reliable-fetch attempts (e.g. the edge's origin backhaul), where
    /// a Bad-state burst shows up as a failed attempt rather than
    /// dropped best-effort packets.
    pub fn roll_failure(&mut self, now: SimTime) -> bool {
        let p = self.loss_at(now);
        self.rng.chance(p)
    }

    /// Drain the state flips recorded since the last call, `(when, now
    /// bursty)` in time order.
    pub fn take_transitions(&mut self) -> Vec<(SimTime, bool)> {
        std::mem::take(&mut self.transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(seed: u64) -> GeChain {
        GeChain::new(LossChannel::bursty_default(), SimRng::new(seed))
    }

    #[test]
    fn btl_bw_is_window_max() {
        let mut b = BbrState::new();
        assert_eq!(b.btl_bw(), None);
        b.on_ack(125_000, SimDuration::from_secs(1), SimTime::from_secs(1));
        b.on_ack(250_000, SimDuration::from_secs(1), SimTime::from_secs(2));
        b.on_ack(125_000, SimDuration::from_secs(1), SimTime::from_secs(3));
        assert_eq!(b.btl_bw(), Some(2e6), "max of 1/2/1 Mbps samples");
    }

    #[test]
    fn window_slide_evicts_stale_maximum() {
        let mut b = BbrState::new();
        b.on_ack(250_000, SimDuration::from_secs(1), SimTime::from_secs(1));
        for s in 2..14u64 {
            b.on_ack(125_000, SimDuration::from_secs(1), SimTime::from_secs(s));
        }
        assert_eq!(
            b.btl_bw(),
            Some(1e6),
            "the 2 Mbps spike at t=1 left the window"
        );
    }

    #[test]
    fn epochs_roll_and_cycle_gains() {
        let mut b = BbrState::new();
        let u = b
            .on_ack(125_000, SimDuration::from_secs(1), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(u.new_epoch, None, "first ACK starts epoch 0");
        assert!(b.probing(), "epoch 0 probes");
        assert_eq!(b.pacing_gain(), 1.25);
        let u = b
            .on_ack(125_000, SimDuration::from_secs(1), SimTime::from_secs(2))
            .unwrap();
        assert_eq!(u.new_epoch, Some(1));
        assert!(!b.probing(), "epoch 1 cruises");
        assert_eq!(b.pacing_gain(), 1.0);
        // A long idle gap rolls several epochs at once; only the final
        // epoch number is reported.
        let u = b
            .on_ack(125_000, SimDuration::from_secs(1), SimTime::from_secs(9))
            .unwrap();
        assert_eq!(u.new_epoch, Some(8));
        assert!(b.probing(), "epoch 8 probes again (cycle of 4)");
        assert_eq!(b.pacing_rate(), Some(1e6 * 1.25));
    }

    #[test]
    fn empty_interval_yields_no_sample() {
        let mut b = BbrState::new();
        assert_eq!(b.on_ack(1_000, SimDuration::ZERO, SimTime::ZERO), None);
        assert_eq!(b.btl_bw(), None);
    }

    #[test]
    fn converges_on_constant_bottleneck_within_ten_epochs() {
        // Acceptance criterion: within 10 probe epochs the estimate is
        // within 10 % of the true bottleneck on a constant-rate path.
        let truth = 25e6;
        let mut b = BbrState::new();
        let mut now = SimTime::ZERO;
        let chunk = 250_000u64; // bytes
        while b.epoch() < 10 {
            let interval = SimDuration::from_secs_f64(chunk as f64 * 8.0 / truth);
            now += interval;
            b.on_ack(chunk, interval, now);
            let err = (b.btl_bw().unwrap() - truth).abs() / truth;
            assert!(err <= 0.10, "epoch {}: error {err}", b.epoch());
        }
    }

    #[test]
    fn ge_chain_is_deterministic_in_seed() {
        let mut a = chain(5);
        let mut b = chain(5);
        for s in 1..200u64 {
            assert_eq!(
                a.loss_at(SimTime::from_millis(s * 100)),
                b.loss_at(SimTime::from_millis(s * 100))
            );
        }
        assert_eq!(a.take_transitions(), b.take_transitions());
    }

    #[test]
    fn ge_advance_is_query_rate_independent() {
        // Querying every tick or once at the horizon lands the chain in
        // the same state with the same transition log.
        let mut fine = chain(9);
        for s in 0..5000u64 {
            fine.advance_to(SimTime::from_millis(s * 10));
        }
        let mut coarse = chain(9);
        coarse.advance_to(SimTime::from_millis(49_990));
        assert_eq!(fine.bursty(), coarse.bursty());
        assert_eq!(fine.take_transitions(), coarse.take_transitions());
    }

    #[test]
    fn ge_transitions_report_flips_in_order() {
        let mut c = chain(2);
        c.advance_to(SimTime::from_secs(300));
        let ts = c.take_transitions();
        assert!(!ts.is_empty(), "5 minutes of bursty_default must flip");
        for w in ts.windows(2) {
            assert!(w[0].0 < w[1].0, "time-ordered");
            assert_ne!(w[0].1, w[1].1, "alternating states");
        }
        assert!(c.take_transitions().is_empty(), "drained");
    }

    #[test]
    fn stationary_math() {
        let ch = LossChannel::bursty_default();
        let bad = ch.stationary_bad_fraction();
        assert!((bad - 0.015 / 0.215).abs() < 1e-12);
        let loss = ch.stationary_loss();
        assert!((loss - ((1.0 - bad) * 0.001 + bad * 0.08)).abs() < 1e-12);
        assert_eq!(LossChannel::Declared.stationary_loss(), 0.0);
    }

    #[test]
    #[should_panic]
    fn declared_channel_has_no_chain() {
        GeChain::new(LossChannel::Declared, SimRng::new(1));
    }
}
