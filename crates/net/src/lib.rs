//! # sperke-net — network path models and multipath chunk scheduling
//!
//! The §3.3 subsystem: flow-level models of WiFi/LTE paths
//! ([`PathModel`] over a time-varying [`BandwidthTrace`]), a FIFO
//! transfer engine with reliable/best-effort delivery ([`PathQueue`]),
//! client bandwidth estimation ([`BandwidthEstimator`]), and the
//! multipath schedulers compared in experiment E6 — MPTCP-style
//! content-agnostic baselines ([`MinRtt`], [`EarliestCompletion`])
//! versus the paper's priority-driven [`ContentAware`] scheduler.
//!
//! ```
//! use sperke_net::{MultipathSession, ContentAware, ChunkRequest, ChunkPriority, PathQueue, PathModel};
//! use sperke_sim::{SimRng, SimTime};
//!
//! let paths = vec![
//!     PathQueue::new(PathModel::wifi(), SimRng::new(1)),
//!     PathQueue::new(PathModel::lte(), SimRng::new(2)),
//! ];
//! let mut session = MultipathSession::new(paths, ContentAware);
//! let req = ChunkRequest { bytes: 250_000, priority: ChunkPriority::FOV, deadline: SimTime::from_secs(2) };
//! let (completion, path) = session.submit(req, SimTime::ZERO);
//! assert_eq!(path, 0, "FoV chunk rides the premium path");
//! assert!(completion.finished > SimTime::ZERO);
//! ```

#![warn(missing_docs)]

pub mod bandwidth;
pub mod bbr;
pub mod estimator;
pub mod fault;
pub mod multipath;
pub mod mux;
pub mod path;
pub mod pipe;
pub mod priority;
pub mod shaper;
pub mod transfer;
pub mod wrr;

pub use bandwidth::BandwidthTrace;
pub use bbr::{BbrConfig, BbrState, BbrUpdate, GeChain, LossChannel};
pub use estimator::{BandwidthEstimator, EstimatorKind};
pub use fault::{FaultScript, FaultSpec, PathFaults};
pub use multipath::{
    failover_assignment, Assignment, ChunkRequest, ContentAware, EarliestCompletion, MinRtt,
    MultipathScheduler, MultipathSession, RecoveryOutcome, RecoveryPolicy, SinglePath,
};
pub use mux::{weight_of, MuxLink, StreamCompletion, StreamId};
pub use path::PathModel;
pub use pipe::SerialLink;
pub use priority::{ChunkPriority, Reliability, SpatialPriority, TemporalPriority};
pub use shaper::TokenBucket;
pub use transfer::{Completion, PathQueue, TransferId, TransferOutcome};
pub use wrr::{WrrCompletion, WrrLink};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sperke_sim::{SimDuration, SimRng, SimTime};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Transfer time is monotone in bytes for any constant-rate path.
        #[test]
        fn transfer_time_monotone(bps in 1e5f64..1e9, a in 1u64..10_000_000, b in 1u64..10_000_000) {
            let p = PathModel::new("x", BandwidthTrace::constant(bps),
                SimDuration::from_millis(20), 0.0);
            let (small, large) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                p.transfer_time(small, SimTime::ZERO, 1.0) <= p.transfer_time(large, SimTime::ZERO, 1.0)
            );
        }

        /// bits_between is additive over adjacent intervals.
        #[test]
        fn bits_between_additive(
            cut_ms in 1u64..10_000,
            end_extra_ms in 1u64..10_000,
            rates in proptest::collection::vec(1e5f64..1e8, 1..6),
        ) {
            let segments: Vec<(SimTime, f64)> = rates.iter().enumerate()
                .map(|(i, &r)| (SimTime::from_secs(i as u64 * 2), r))
                .collect();
            let tr = BandwidthTrace::steps(segments);
            let t0 = SimTime::ZERO;
            let t1 = SimTime::from_millis(cut_ms);
            let t2 = SimTime::from_millis(cut_ms + end_extra_ms);
            let whole = tr.bits_between(t0, t2);
            let parts = tr.bits_between(t0, t1) + tr.bits_between(t1, t2);
            prop_assert!((whole - parts).abs() < 1.0);
        }

        /// time_to_transfer inverts bits_between.
        #[test]
        fn transfer_inverts_integral(
            start_ms in 0u64..5000,
            bits in 1e3f64..1e8,
            rates in proptest::collection::vec(1e5f64..1e8, 1..6),
        ) {
            let segments: Vec<(SimTime, f64)> = rates.iter().enumerate()
                .map(|(i, &r)| (SimTime::from_secs(i as u64), r))
                .collect();
            let tr = BandwidthTrace::steps(segments);
            let from = SimTime::from_millis(start_ms);
            let d = tr.time_to_transfer(bits, from, 1.0);
            let back = tr.bits_between(from, from + d);
            prop_assert!((back - bits).abs() / bits < 1e-6, "bits {bits} back {back}");
        }

        /// The mux link conserves work: the makespan of a batch equals
        /// total bits / rate regardless of weights, and every stream's
        /// completion is after its submission.
        #[test]
        fn mux_conserves_work(
            sizes in proptest::collection::vec(1_000u64..2_000_000, 1..12),
            weights in proptest::collection::vec(0.1f64..16.0, 12),
        ) {
            let rate = 10e6;
            let mut link = MuxLink::new(rate);
            let total_bits: f64 = sizes.iter().map(|&b| b as f64 * 8.0).sum();
            for (i, &bytes) in sizes.iter().enumerate() {
                link.submit_weighted(bytes, SimTime::ZERO, weights[i % weights.len()]);
            }
            let done = link.drain();
            prop_assert_eq!(done.len(), sizes.len());
            let makespan = done.iter().map(|c| c.finished).max().expect("non-empty");
            let expect = total_bits / rate;
            prop_assert!((makespan.as_secs_f64() - expect).abs() < 1e-6,
                "makespan {} vs {}", makespan.as_secs_f64(), expect);
            for c in &done {
                prop_assert!(c.finished >= c.submitted);
            }
        }

        /// Token buckets never hand out more than depth + rate*time.
        #[test]
        fn token_bucket_bounded(
            rate in 1e5f64..1e8,
            burst in 1e3f64..1e6,
            steps in proptest::collection::vec((1u64..2000, 100u64..1_000_000), 1..20),
        ) {
            let mut tb = TokenBucket::new(rate, burst);
            let mut now = SimTime::ZERO;
            let mut last_done = SimTime::ZERO;
            for (gap_ms, bytes) in steps {
                now = now.max(last_done) + SimDuration::from_millis(gap_ms);
                let done = tb.transmit(bytes, now);
                prop_assert!(done >= now);
                // Completion never beats the sustained rate by more than
                // the burst allowance.
                let min_time = (bytes as f64 - burst).max(0.0) * 8.0 / rate;
                prop_assert!(done.saturating_since(now).as_secs_f64() >= min_time - 1e-9);
                last_done = done;
            }
        }

        /// The GE chain's long-run occupancy converges to the stationary
        /// distribution: time in Bad ≈ p_gb / (p_gb + p_bg), and the
        /// observed mean loss ≈ the stationary-weighted mix of the two
        /// states' loss rates.
        #[test]
        fn ge_chain_converges_to_stationary_mix(
            seed: u64,
            p_gb in 0.05f64..0.5,
            p_bg in 0.05f64..0.5,
            loss_bad in 0.02f64..0.3,
        ) {
            let channel = LossChannel::GilbertElliott {
                p_gb, p_bg, loss_good: 0.001, loss_bad,
            };
            let mut chain = GeChain::new(channel, SimRng::new(seed));
            let ticks = 60_000u64; // 100 ms per tick → ~100 virtual minutes
            let mut bad_ticks = 0u64;
            let mut loss_acc = 0.0;
            for i in 1..=ticks {
                loss_acc += chain.loss_at(SimTime::from_millis(i * 100));
                if chain.bursty() {
                    bad_ticks += 1;
                }
            }
            let bad_frac = bad_ticks as f64 / ticks as f64;
            prop_assert!(
                (bad_frac - channel.stationary_bad_fraction()).abs() < 0.05,
                "bad fraction {bad_frac} vs stationary {}",
                channel.stationary_bad_fraction()
            );
            let mean_loss = loss_acc / ticks as f64;
            prop_assert!(
                (mean_loss - channel.stationary_loss()).abs() < 0.02,
                "mean loss {mean_loss} vs stationary {}",
                channel.stationary_loss()
            );
        }

        /// A queue built with the (default) Declared channel is
        /// byte-identical to one that never heard of loss channels, for
        /// any seed and workload — the generalization of the pinned
        /// seed-77 golden config.
        #[test]
        fn declared_channel_is_bit_identical_to_legacy(
            seed: u64,
            sizes in proptest::collection::vec(1_000u64..2_000_000, 1..30),
        ) {
            let mut bare = PathQueue::new(PathModel::lte(), SimRng::new(seed));
            let mut declared = PathQueue::new(PathModel::lte(), SimRng::new(seed))
                .with_loss_channel(LossChannel::Declared);
            for (i, &bytes) in sizes.iter().enumerate() {
                let t = SimTime::from_millis(i as u64 * 250);
                prop_assert_eq!(
                    bare.submit(bytes, t, Reliability::BestEffort),
                    declared.submit(bytes, t, Reliability::BestEffort),
                    "submission {} diverged", i
                );
            }
        }

        /// BtlBw is exactly the max over in-window samples as the
        /// max-filter window slides — evicting a stale maximum can only
        /// lower the estimate, never raise it.
        #[test]
        fn bbr_btl_bw_is_sliding_window_max(
            rates in proptest::collection::vec(1e5f64..1e8, 1..40),
            gaps_ms in proptest::collection::vec(50u64..3000, 40),
        ) {
            let cfg = BbrConfig::default();
            let window = cfg.btlbw_window;
            let mut b = BbrState::new(cfg);
            let mut now = SimTime::ZERO;
            let mut samples: Vec<(SimTime, f64)> = Vec::new();
            for (i, &rate) in rates.iter().enumerate() {
                now += SimDuration::from_millis(gaps_ms[i % gaps_ms.len()]);
                // One second at `rate` delivers rate/8 bytes.
                let update = b.on_ack((rate / 8.0) as u64, SimDuration::from_secs(1), now);
                let sample = update.expect("positive interval").sample_bps;
                samples.push((now, sample));
                let expect = samples
                    .iter()
                    .filter(|&&(t, _)| now.saturating_since(t) <= window)
                    .map(|&(_, r)| r)
                    .fold(f64::NEG_INFINITY, f64::max);
                let got = b.btl_bw().expect("sample absorbed");
                prop_assert!(
                    (got - expect).abs() <= expect * 1e-12,
                    "btl_bw {} vs window max {}", got, expect
                );
            }
        }

        /// Every scheduler returns a valid path index and completions
        /// never finish before submission.
        #[test]
        fn schedulers_produce_valid_assignments(
            seed: u64,
            sizes in proptest::collection::vec(1_000u64..5_000_000, 1..20),
            prio in 0usize..3,
        ) {
            let priorities = [ChunkPriority::CRITICAL, ChunkPriority::FOV, ChunkPriority::OOS];
            let mk_paths = |s: u64| vec![
                PathQueue::new(PathModel::wifi(), SimRng::new(s)),
                PathQueue::new(PathModel::lte(), SimRng::new(s ^ 1)),
            ];
            let schedulers: Vec<Box<dyn MultipathScheduler>> = vec![
                Box::new(SinglePath(0)), Box::new(MinRtt),
                Box::new(EarliestCompletion), Box::new(ContentAware),
            ];
            for sched in schedulers {
                let mut session = MultipathSession::new(mk_paths(seed), sched);
                for (i, &bytes) in sizes.iter().enumerate() {
                    let now = SimTime::from_millis(i as u64 * 100);
                    let req = ChunkRequest {
                        bytes,
                        priority: priorities[prio],
                        deadline: now + SimDuration::from_secs(2),
                    };
                    let (c, path) = session.submit(req, now);
                    prop_assert!(path < 2);
                    prop_assert!(c.finished > now);
                }
            }
        }
    }
}
