//! A network path: bandwidth profile + latency + loss, with a TCP-like
//! transfer-time model.
//!
//! The model is flow-level, not packet-level: a transfer of `B` bytes
//! starting at `t` costs one RTT of request latency, a slow-start ramp
//! penalty, and then `B` bytes at the path's loss-capped rate. This is
//! the right granularity for studying chunk scheduling (the paper's
//! §3.3) — decisions depend on per-chunk completion times, not on
//! per-packet dynamics.

use crate::bandwidth::BandwidthTrace;
use serde::{Deserialize, Serialize};
use sperke_sim::{SimDuration, SimRng, SimTime};

/// TCP maximum segment size used by the loss-throughput cap.
const MSS_BITS: f64 = 1460.0 * 8.0;

/// A single network path (e.g. WiFi or LTE).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathModel {
    /// Display name ("wifi", "lte").
    pub name: String,
    /// Link capacity over time.
    pub bandwidth: BandwidthTrace,
    /// Base round-trip time.
    pub rtt: SimDuration,
    /// Packet loss probability in `[0, 1)`.
    pub loss: f64,
}

impl PathModel {
    /// Construct a path.
    pub fn new(
        name: impl Into<String>,
        bandwidth: BandwidthTrace,
        rtt: SimDuration,
        loss: f64,
    ) -> PathModel {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1)");
        assert!(!rtt.is_zero(), "rtt must be positive");
        PathModel {
            name: name.into(),
            bandwidth,
            rtt,
            loss,
        }
    }

    /// A typical home WiFi path: 25 Mbps, 15 ms RTT, 0.1 % loss.
    pub fn wifi() -> PathModel {
        PathModel::new(
            "wifi",
            BandwidthTrace::constant(25e6),
            SimDuration::from_millis(15),
            0.001,
        )
    }

    /// A typical LTE path: 12 Mbps, 60 ms RTT, 0.5 % loss.
    pub fn lte() -> PathModel {
        PathModel::new(
            "lte",
            BandwidthTrace::constant(12e6),
            SimDuration::from_millis(60),
            0.005,
        )
    }

    /// The TCP throughput ceiling imposed by loss (Mathis:
    /// `MSS / (RTT * sqrt(p)) * C`), bits/second; infinite at zero loss.
    fn loss_cap_bps(&self) -> f64 {
        if self.loss <= 0.0 {
            return f64::INFINITY;
        }
        let c = 1.22; // sqrt(3/2)
        c * MSS_BITS / (self.rtt.as_secs_f64() * self.loss.sqrt())
    }

    /// Time to complete a reliable transfer of `bytes` starting at
    /// `start`, holding `share` of the link: one RTT request latency +
    /// slow-start ramp + bulk at the loss-capped rate.
    pub fn transfer_time(&self, bytes: u64, start: SimTime, share: f64) -> SimDuration {
        assert!(share > 0.0 && share <= 1.0);
        let bits = bytes as f64 * 8.0;
        let latency = self.startup_latency(bytes);
        // Bulk transfer at the (possibly time-varying) capped rate,
        // integrating min(bandwidth(t)·share, cap) over the transfer —
        // the cap decision is re-evaluated per trace segment, not frozen
        // at the start instant (a trace that dips under the cap
        // mid-transfer slows the tail accordingly).
        let cap = self.loss_cap_bps();
        let data_start = start + latency;
        let bulk = if cap.is_infinite() {
            self.bandwidth.time_to_transfer(bits, data_start, share)
        } else {
            self.bandwidth
                .time_to_transfer_capped(bits, data_start, share, cap)
        };
        latency + bulk
    }

    /// The request-RTT plus slow-start ramp a *cold* transfer of `bytes`
    /// pays before its bulk phase streams at the path rate: roughly
    /// doubling cwnd each RTT from 10 MSS, folded into an extra latency
    /// of log2(ceil(bits / ss_threshold)) RTTs, capped, which matches
    /// flow-completion-time models. Delivery-rate sampling subtracts
    /// this so measured capacity reflects the wire, not the handshake.
    pub fn startup_latency(&self, bytes: u64) -> SimDuration {
        let bits = bytes as f64 * 8.0;
        let initial_window_bits = 10.0 * MSS_BITS;
        let ramp_rtts = if bits <= initial_window_bits {
            0.0
        } else {
            ((bits / initial_window_bits).log2().ceil()).min(6.0)
        };
        self.rtt + self.rtt.mul_f64(ramp_rtts * 0.5)
    }

    /// Transfer time on a *warm* connection (back-to-back pipelined
    /// requests over a persistent connection): no request RTT and no
    /// slow-start ramp, just bytes at the capped rate.
    pub fn transfer_time_warm(&self, bytes: u64, start: SimTime, share: f64) -> SimDuration {
        assert!(share > 0.0 && share <= 1.0);
        let bits = bytes as f64 * 8.0;
        let cap = self.loss_cap_bps();
        if cap.is_infinite() {
            self.bandwidth.time_to_transfer(bits, start, share)
        } else {
            self.bandwidth
                .time_to_transfer_capped(bits, start, share, cap)
        }
    }

    /// Whether a best-effort (unreliable) transfer of `bytes` survives
    /// a per-packet `loss` probability (the path's own `loss`, or a value
    /// the fault layer inflates during a loss burst): each MSS-sized
    /// packet independently survives with probability `1 - loss`, and
    /// the transfer is useless if more than 2 % of packets are lost (no
    /// retransmission). Deterministic in `rng`.
    pub fn best_effort_survives_with_loss(&self, bytes: u64, loss: f64, rng: &mut SimRng) -> bool {
        if loss <= 0.0 {
            return true;
        }
        let packets = (bytes as f64 / 1460.0).ceil().max(1.0);
        // Normal approximation to the binomial count of lost packets.
        let mean = packets * loss;
        let sd = (packets * loss * (1.0 - loss)).sqrt();
        let lost = (mean + sd * rng.gaussian()).max(0.0);
        lost / packets <= BEST_EFFORT_LOSS_BUDGET
    }

    /// The probability that a best-effort transfer of `bytes` survives
    /// the ≤ 2 %-packets-lost budget, under the same normal
    /// approximation [`PathModel::best_effort_survives_with_loss`] samples
    /// from.
    /// Size-dependent: the per-packet loss concentrates as the chunk
    /// grows, so a large chunk on a sub-budget-loss path almost always
    /// survives while a small one is a coin flip — schedulers gate
    /// best-effort delivery on this, not on the raw loss rate.
    pub fn best_effort_survival_prob(&self, bytes: u64) -> f64 {
        if self.loss <= 0.0 {
            return 1.0;
        }
        let packets = (bytes as f64 / 1460.0).ceil().max(1.0);
        let mean = packets * self.loss;
        let sd = (packets * self.loss * (1.0 - self.loss)).sqrt();
        let budget = BEST_EFFORT_LOSS_BUDGET * packets;
        if sd <= 0.0 {
            return if mean <= budget { 1.0 } else { 0.0 };
        }
        sperke_sim::stats::normal_cdf((budget - mean) / sd)
    }
}

/// A best-effort transfer is useless when more than this fraction of its
/// packets is lost (no retransmission).
const BEST_EFFORT_LOSS_BUDGET: f64 = 0.02;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_cap_formula() {
        let p = PathModel::new(
            "x",
            BandwidthTrace::constant(100e6),
            SimDuration::from_millis(100),
            0.01,
        );
        // 1.22 * 11680 / (0.1 * 0.1) = ~1.42 Mbps
        let cap = p.loss_cap_bps();
        assert!((cap - 1.22 * MSS_BITS / 0.01).abs() / cap < 1e-9);
        assert!(PathModel::new(
            "y",
            BandwidthTrace::constant(1e6),
            SimDuration::from_millis(10),
            0.0
        )
        .loss_cap_bps()
        .is_infinite());
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let p = PathModel::wifi();
        let small = p.transfer_time(100_000, SimTime::ZERO, 1.0);
        let large = p.transfer_time(1_000_000, SimTime::ZERO, 1.0);
        assert!(large > small);
        // 1 MB at 25 Mbps ≈ 0.32 s plus latencies.
        assert!(
            large.as_secs_f64() > 0.32 && large.as_secs_f64() < 0.5,
            "{large}"
        );
    }

    #[test]
    fn small_transfer_dominated_by_rtt() {
        let p = PathModel::lte();
        let t = p.transfer_time(1000, SimTime::ZERO, 1.0);
        assert!(t >= p.rtt);
        assert!(t.as_secs_f64() < 0.1);
    }

    #[test]
    fn lossy_path_is_slower() {
        let clean = PathModel::new(
            "clean",
            BandwidthTrace::constant(50e6),
            SimDuration::from_millis(50),
            0.0,
        );
        let lossy = PathModel::new(
            "lossy",
            BandwidthTrace::constant(50e6),
            SimDuration::from_millis(50),
            0.02,
        );
        let bytes = 2_000_000;
        assert!(
            lossy.transfer_time(bytes, SimTime::ZERO, 1.0)
                > clean.transfer_time(bytes, SimTime::ZERO, 1.0)
        );
    }

    #[test]
    fn best_effort_survival_depends_on_loss() {
        let mut rng = SimRng::new(3);
        let clean = PathModel::new(
            "c",
            BandwidthTrace::constant(1e6),
            SimDuration::from_millis(10),
            0.001,
        );
        let dirty = PathModel::new(
            "d",
            BandwidthTrace::constant(1e6),
            SimDuration::from_millis(10),
            0.08,
        );
        let n = 500;
        let clean_ok = (0..n)
            .filter(|_| clean.best_effort_survives_with_loss(500_000, clean.loss, &mut rng))
            .count();
        let dirty_ok = (0..n)
            .filter(|_| dirty.best_effort_survives_with_loss(500_000, dirty.loss, &mut rng))
            .count();
        assert!(clean_ok > n * 9 / 10, "clean {clean_ok}/{n}");
        assert!(dirty_ok < n / 10, "dirty {dirty_ok}/{n}");
    }

    #[test]
    fn zero_loss_always_survives() {
        let mut rng = SimRng::new(1);
        let p = PathModel::new(
            "p",
            BandwidthTrace::constant(1e6),
            SimDuration::from_millis(10),
            0.0,
        );
        assert!(p.best_effort_survives_with_loss(u64::MAX / 2, p.loss, &mut rng));
    }

    #[test]
    #[should_panic]
    fn full_loss_rejected() {
        PathModel::new(
            "bad",
            BandwidthTrace::constant(1e6),
            SimDuration::from_millis(1),
            1.0,
        );
    }

    #[test]
    fn survival_prob_tracks_empirical_survival() {
        // The analytic gate must agree with what best_effort_survives_with_loss
        // actually rolls, across sizes and loss rates.
        for (loss, bytes) in [(0.005, 30_000u64), (0.005, 2_000_000), (0.015, 2_000_000)] {
            let p = PathModel::new(
                "x",
                BandwidthTrace::constant(10e6),
                SimDuration::from_millis(20),
                loss,
            );
            let mut rng = SimRng::new(42);
            let n = 2000;
            let ok = (0..n)
                .filter(|_| p.best_effort_survives_with_loss(bytes, p.loss, &mut rng))
                .count();
            let empirical = ok as f64 / n as f64;
            let analytic = p.best_effort_survival_prob(bytes);
            assert!(
                (empirical - analytic).abs() < 0.05,
                "loss {loss} bytes {bytes}: empirical {empirical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn survival_prob_is_size_dependent() {
        // At loss below the 2 % budget, bigger chunks concentrate below
        // the budget and survive more often — the opposite of a flat
        // per-path gate's implicit assumption.
        let p = PathModel::new(
            "borderline",
            BandwidthTrace::constant(10e6),
            SimDuration::from_millis(20),
            0.015,
        );
        let small = p.best_effort_survival_prob(20_000);
        let large = p.best_effort_survival_prob(2_000_000);
        assert!(small < 0.8, "small chunk near the budget is risky: {small}");
        assert!(
            large > 0.9,
            "large chunk concentrates under the budget: {large}"
        );
        // Above the budget, everything dies regardless of size.
        let dead = PathModel::new(
            "dead",
            BandwidthTrace::constant(10e6),
            SimDuration::from_millis(20),
            0.05,
        );
        assert!(dead.best_effort_survival_prob(2_000_000) < 0.01);
        // Zero loss always survives.
        let clean = PathModel::new(
            "clean",
            BandwidthTrace::constant(10e6),
            SimDuration::from_millis(20),
            0.0,
        );
        assert_eq!(clean.best_effort_survival_prob(1_000_000), 1.0);
    }

    #[test]
    fn loss_cap_integrates_over_step_traces() {
        // Regression for the frozen cap decision: transfer_time used to
        // decide "capped or not" once, at data_start, and ignore the
        // trace afterwards. Both divergence directions are pinned here.
        //
        // loss 1 %, rtt 100 ms → Mathis cap ≈ 1.42 Mbps.
        let rtt = SimDuration::from_millis(100);
        let loss = 0.01;
        let cap = 1.22 * MSS_BITS / (0.1 * 0.1);
        let bytes = 2_000_000u64; // 16 Mbit ≫ one segment's worth
        let bits = bytes as f64 * 8.0;

        // (a) Link starts above the cap, dips far below it at t=2: the
        // frozen decision charged the whole transfer at the cap; the
        // integrated model must be slower than that.
        let dip = PathModel::new(
            "dip",
            BandwidthTrace::steps(vec![(SimTime::ZERO, 100e6), (SimTime::from_secs(2), 0.2e6)]),
            rtt,
            loss,
        );
        let got = dip.transfer_time(bytes, SimTime::ZERO, 1.0);
        let frozen = SimDuration::from_secs_f64(bits / cap); // old bulk
        assert!(
            got.as_secs_f64() > frozen.as_secs_f64() + 1.0,
            "dip under the cap must slow the tail: got {got}, frozen bulk {frozen}"
        );

        // (b) Link starts below the cap, rises far above it at t=2: the
        // frozen decision let the tail run uncapped; the integrated
        // model clamps the tail at the cap and must be slower.
        let rise = PathModel::new(
            "rise",
            BandwidthTrace::steps(vec![(SimTime::ZERO, 1e6), (SimTime::from_secs(2), 100e6)]),
            rtt,
            loss,
        );
        let got = rise.transfer_time(bytes, SimTime::ZERO, 1.0);
        let uncapped = rise.bandwidth.time_to_transfer(
            bits,
            SimTime::ZERO + rise.rtt.mul_f64(4.0), // ≥ data_start; same segments
            1.0,
        );
        assert!(
            got.as_secs_f64() > uncapped.as_secs_f64() + 1.0,
            "rise above the cap must clamp the tail: got {got}, uncapped {uncapped}"
        );

        // (c) On constant traces the integrated model is identical to
        // the frozen decision (both above and below the cap) — which is
        // why the pinned goldens, whose paths are all constant-rate, do
        // not move.
        for bw in [0.5e6, 100e6] {
            let p = PathModel::new("const", BandwidthTrace::constant(bw), rtt, loss);
            let expect = if bw <= cap {
                p.bandwidth
                    .time_to_transfer(bits, SimTime::ZERO, 1.0)
                    .as_secs_f64()
            } else {
                bits / cap
            };
            let warm = p
                .transfer_time_warm(bytes, SimTime::ZERO, 1.0)
                .as_secs_f64();
            assert!(
                (warm - expect).abs() < 1e-9,
                "constant {bw}: warm {warm} vs frozen {expect}"
            );
        }
    }
}
