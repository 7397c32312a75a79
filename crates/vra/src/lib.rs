//! # sperke-vra — video rate adaptation for tiled 360° streaming
//!
//! The §3.1 subsystem, decomposed exactly as the paper does:
//!
//! 1. **Super chunks** ([`SuperChunk`]) reduce FoV-guided VRA to regular
//!    VRA when the HMP is perfect; the inner [`abr`] algorithms
//!    (rate-based / buffer-based / MPC, the §3.1.2 survey) choose their
//!    quality.
//! 2. **OOS selection** ([`oos::select_oos`]) spends the leftover budget
//!    on out-of-sight tiles, quality decaying with distance/probability.
//! 3. **Incremental upgrades** ([`upgrade::decide_upgrade`]) exploit SVC
//!    deltas when the HMP correction reveals buffered cells will be
//!    displayed — including the *upgrade-or-not* and *when-to-upgrade*
//!    decisions, and the hybrid SVC/AVC [`EncodingPolicy`].
//!
//! [`SperkeVra`] composes all three into a per-chunk [`FetchPlan`];
//! [`plan_fov_agnostic`] is the §2 baseline that fetches everything.
//! [`SperkeConfig::policy`] picks the planner's viewport policy: the
//! three-part decomposition ([`AbrPolicyKind::Sperke`]) or one of the
//! window decides of the [`policy`] suite.

#![warn(missing_docs)]

pub mod abr;
pub mod knapsack;
pub mod oos;
pub mod policy;
pub mod sperke;
pub mod superchunk;
pub mod upgrade;

pub use abr::{Abr, AbrContext, BufferBased, FixedQuality, Mpc, RateBased};
pub use knapsack::{expected_utility, select_stochastic, StochasticChoice};
pub use oos::{select_oos, OosChoice, OosConfig};
pub use policy::{AbrPolicyKind, PolicyInput, PolicyPlan, TileAssignment, DEFAULT_MIN_PROBABILITY};
pub use sperke::{
    plan_fov_agnostic, upgrade_candidates, EncodingPolicy, FetchPlan, PlanInput, PlannedFetch,
    SperkeConfig, SperkeVra,
};
pub use superchunk::SuperChunk;
pub use upgrade::{decide_upgrade, UpgradeCandidate, UpgradeDecision};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sperke_geo::Orientation;
    use sperke_hmp::{FusedForecaster, TileForecast};
    use sperke_sim::{SimDuration, SimTime};
    use sperke_video::{ChunkTime, Quality, VideoModelBuilder};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Plans never exceed the bandwidth budget (with 5% slack for
        /// rounding), for any gaze/bandwidth combination.
        #[test]
        fn plans_respect_budget(
            seed: u64,
            yaw_deg in -180.0f64..180.0,
            bw_mbps in 2.0f64..80.0,
            last_q in 0u8..4,
        ) {
            let video = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(10))
                .build();
            let history = vec![(SimTime::ZERO, Orientation::from_degrees(yaw_deg, 0.0, 0.0))];
            let fc = FusedForecaster::motion_only().forecast(
                video.grid(), &history, SimTime::ZERO,
                SimTime::from_secs(1), ChunkTime(1));
            let mut vra = SperkeVra::new(Box::new(RateBased::default()), SperkeConfig::default());
            let plan = vra.plan(&PlanInput {
                video: &video,
                forecast: &fc,
                time: ChunkTime(1),
                now: SimTime::ZERO,
                buffer: SimDuration::from_secs(2),
                bandwidth_bps: Some(bw_mbps * 1e6),
                measured_bps: None,
                last_quality: Quality(last_q.min(3)),
            });
            let plan_bps = plan.total_bytes() as f64 * 8.0
                / video.chunk_duration().as_secs_f64();
            prop_assert!(plan_bps <= bw_mbps * 1e6 * 1.05,
                "plan {plan_bps:.0} vs budget {:.0}", bw_mbps * 1e6);
            // No duplicate cells in a plan.
            let mut cells: Vec<_> = plan.fetches.iter().map(|f| (f.chunk.tile, f.chunk.time)).collect();
            cells.sort();
            let before = cells.len();
            cells.dedup();
            prop_assert_eq!(before, cells.len(), "duplicate cell in plan");
        }

        /// OOS selection cost is monotone in the budget.
        #[test]
        fn oos_monotone_in_budget(seed: u64, budget_a in 0u64..4_000_000, budget_b in 0u64..4_000_000) {
            let video = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(10))
                .build();
            let fc = TileForecast::uniform(video.grid(), 0.4);
            let cost = |budget: u64| -> u64 {
                select_oos(&video, &fc, ChunkTime(0), &[], Quality(2),
                    sperke_video::Scheme::Avc, budget, &OosConfig::default())
                    .iter()
                    .map(|c| video.chunk_bytes(
                        sperke_video::ChunkId::new(c.quality, c.tile, ChunkTime(0)),
                        sperke_video::Scheme::Avc))
                    .sum()
            };
            let (lo, hi) = if budget_a <= budget_b { (budget_a, budget_b) } else { (budget_b, budget_a) };
            let c_lo = cost(lo);
            let c_hi = cost(hi);
            prop_assert!(c_lo <= lo, "cost exceeds budget");
            prop_assert!(c_hi <= hi, "cost exceeds budget");
            prop_assert!(c_lo <= c_hi, "more budget bought less");
        }

        /// The stochastic knapsack respects any budget and only selects
        /// tiles above the probability floor.
        #[test]
        fn knapsack_budget_and_floor(
            seed: u64,
            budget in 0u64..6_000_000,
            floor in 0.0f64..0.6,
            probs in proptest::collection::vec(0.0f64..1.0, 24),
        ) {
            let video = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(4))
                .build();
            let fc = TileForecast::new(probs);
            let choices = select_stochastic(
                &video, &fc, ChunkTime(0), budget, sperke_video::Scheme::Avc, floor);
            let cost: u64 = choices.iter()
                .map(|c| video.chunk_bytes(
                    sperke_video::ChunkId::new(c.quality, c.tile, ChunkTime(0)),
                    sperke_video::Scheme::Avc))
                .sum();
            prop_assert!(cost <= budget);
            for c in &choices {
                prop_assert!(fc.prob(c.tile) >= floor);
            }
            // No tile appears twice.
            let mut tiles: Vec<_> = choices.iter().map(|c| c.tile).collect();
            tiles.sort();
            let n = tiles.len();
            tiles.dedup();
            prop_assert_eq!(n, tiles.len());
        }

        /// decide_upgrade never proposes a delta that misses the deadline
        /// at the assumed bandwidth.
        #[test]
        fn upgrades_meet_deadlines(
            have in 0u8..3,
            want in 1u8..4,
            prob in 0.5f64..1.0,
            deadline_ms in 10u64..5000,
            bw_mbps in 1.0f64..50.0,
        ) {
            prop_assume!(want > have);
            let sizes = sperke_video::CellSizes::new(
                &[100_000, 250_000, 600_000, 1_400_000], 0.1);
            let cand = UpgradeCandidate {
                cell: sperke_video::CellId::new(sperke_geo::TileId(0), ChunkTime(0)),
                have: Quality(have),
                want: Quality(want),
                probability: prob,
                deadline: SimTime::from_millis(deadline_ms),
            };
            let bw = bw_mbps * 1e6;
            let d = decide_upgrade(&cand, &sizes, sperke_video::Scheme::svc_default(),
                SimTime::ZERO, bw);
            if let UpgradeDecision::UpgradeNow { delta_bytes } = d {
                let fetch_secs = delta_bytes as f64 * 8.0 / bw;
                prop_assert!(fetch_secs <= deadline_ms as f64 / 1000.0 + 1e-9,
                    "proposed fetch {fetch_secs}s misses {deadline_ms}ms deadline");
            }
        }

        /// No policy in the suite ever exceeds the capacity budget
        /// (QER is exempt when even the cheapest indivisible precoded
        /// variant is over budget — a modelling necessity, asserted to
        /// be the only excuse).
        #[test]
        fn policies_respect_capacity_budget(
            seed: u64,
            budget in 50_000u64..20_000_000,
            probs in proptest::collection::vec(0.0f64..1.0, 24),
            conf in 0.0f64..1.0,
        ) {
            let video = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(4))
                .build();
            let fc = TileForecast::new(probs);
            let input = policy::PolicyInput {
                video: &video,
                forecast: &fc,
                confidence: conf,
                time: ChunkTime(0),
                buffer: SimDuration::from_secs(2),
                budget_bytes: budget,
                capacity_bps: Some(budget as f64 * 8.0),
                scheme: sperke_video::Scheme::Avc,
                min_probability: DEFAULT_MIN_PROBABILITY,
                prev: None,
            };
            for kind in AbrPolicyKind::all() {
                let plan = kind.decide(&input);
                let cost = plan.cost_bytes(&video, ChunkTime(0), sperke_video::Scheme::Avc);
                if matches!(kind, AbrPolicyKind::Qer { .. }) && cost > budget {
                    // Indivisible precoded stream: only the floor
                    // variant (all tiles at the base pair) may overrun.
                    let min_q: u8 = plan.assignments.iter().map(|a| a.quality.0).max().unwrap_or(0);
                    prop_assert_eq!(min_q, 0, "over-budget QER above the floor variant");
                    continue;
                }
                prop_assert!(cost <= budget,
                    "{} spent {cost} of {budget}", kind.name());
            }
        }

        /// Mechanism transitioning is monotone in confidence: a higher
        /// confidence never widens the delivered tile set.
        #[test]
        fn transition_monotone_in_confidence(
            seed: u64,
            budget in 50_000u64..20_000_000,
            probs in proptest::collection::vec(0.0f64..1.0, 24),
            conf_a in 0.0f64..1.0,
            conf_b in 0.0f64..1.0,
        ) {
            let video = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(4))
                .build();
            let fc = TileForecast::new(probs);
            let policy = AbrPolicyKind::transition_default();
            let (lo, hi) = if conf_a <= conf_b { (conf_a, conf_b) } else { (conf_b, conf_a) };
            let plan_at = |conf: f64| {
                policy.decide(&policy::PolicyInput {
                    video: &video,
                    forecast: &fc,
                    confidence: conf,
                    time: ChunkTime(0),
                    buffer: SimDuration::from_secs(2),
                    budget_bytes: budget,
                    capacity_bps: None,
                    scheme: sperke_video::Scheme::Avc,
                    min_probability: DEFAULT_MIN_PROBABILITY,
                    prev: None,
                })
            };
            let wide = plan_at(lo);
            let narrow = plan_at(hi);
            let wide_tiles: std::collections::BTreeSet<_> =
                wide.assignments.iter().map(|a| a.tile).collect();
            for a in &narrow.assignments {
                prop_assert!(wide_tiles.contains(&a.tile),
                    "tile {:?} delivered at confidence {hi} but not {lo}", a.tile);
            }
        }

        /// Consistency-aware selection never oscillates more than the
        /// plain knapsack on the same forecast trace.
        #[test]
        fn consistency_oscillates_no_more_than_knapsack(
            seed: u64,
            budgets in proptest::collection::vec(50_000u64..6_000_000, 4..8),
            probs in proptest::collection::vec(
                proptest::collection::vec(0.0f64..1.0, 24), 4..8),
        ) {
            let video = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(10))
                .build();
            let steps = budgets.len().min(probs.len());
            let tiles = 24usize;
            let policy = AbrPolicyKind::Consistency { max_up_step: 1 };
            let mut prev_k: Option<Vec<i8>> = None;
            let mut prev_c: Option<Vec<i8>> = None;
            let mut osc_k = 0i64;
            let mut osc_c = 0i64;
            for step in 0..steps {
                let fc = TileForecast::new(probs[step].clone());
                let mut input = policy::PolicyInput {
                    video: &video,
                    forecast: &fc,
                    confidence: fc.confidence(),
                    time: ChunkTime(step as u32),
                    buffer: SimDuration::from_secs(2),
                    budget_bytes: budgets[step],
                    capacity_bps: None,
                    scheme: sperke_video::Scheme::Avc,
                    min_probability: DEFAULT_MIN_PROBABILITY,
                    prev: None,
                };
                let k = AbrPolicyKind::Knapsack.decide(&input).levels(tiles);
                input.prev = prev_c.as_deref();
                let c = policy.decide(&input).levels(tiles);
                for t in 0..tiles {
                    if let Some(pk) = &prev_k {
                        osc_k += (k[t] as i64 - pk[t] as i64).abs();
                    }
                    if let Some(pc) = &prev_c {
                        osc_c += (c[t] as i64 - pc[t] as i64).abs();
                    }
                }
                prev_k = Some(k);
                prev_c = Some(c);
            }
            prop_assert!(osc_c <= osc_k,
                "consistency oscillated {osc_c} > knapsack {osc_k}");
        }

        /// The FoV-agnostic baseline ships every tile once, all at the
        /// highest quality whose whole panorama fits the budget, or at
        /// the lowest quality when none fits, under either scheme.
        #[test]
        fn panorama_ships_the_best_affordable_panorama(
            seed: u64,
            budget in 50_000u64..40_000_000,
            probs in proptest::collection::vec(0.0f64..1.0, 24),
            chunk in 0u32..4,
        ) {
            let video = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(4))
                .build();
            let fc = TileForecast::new(probs);
            let t = ChunkTime(chunk);
            for scheme in [sperke_video::Scheme::Avc, sperke_video::Scheme::svc_default()] {
                let plan = AbrPolicyKind::panorama().decide(&policy::PolicyInput {
                    video: &video,
                    forecast: &fc,
                    confidence: fc.confidence(),
                    time: t,
                    buffer: SimDuration::from_secs(2),
                    budget_bytes: budget,
                    capacity_bps: Some(budget as f64 * 8.0),
                    scheme,
                    min_probability: DEFAULT_MIN_PROBABILITY,
                    prev: None,
                });
                let expect = video
                    .ladder()
                    .qualities()
                    .filter(|&q| video.panorama_bytes(q, t, scheme) <= budget)
                    .max()
                    .unwrap_or(Quality::LOWEST);
                let mut tiles: Vec<_> = plan.assignments.iter().map(|a| a.tile).collect();
                tiles.sort();
                tiles.dedup();
                prop_assert_eq!(tiles.len(), video.grid().tile_count(), "every tile, once");
                prop_assert_eq!(plan.assignments.len(), video.grid().tile_count());
                for a in &plan.assignments {
                    prop_assert_eq!(a.quality, expect, "{:?} under {:?}", a.tile, scheme);
                }
            }
        }

        /// With its distinguishing knob disabled, every rival collapses
        /// to the knapsack core — i.e. Sperke's stochastic selector —
        /// byte for byte.
        #[test]
        fn degenerate_policies_collapse_to_sperke_bytes(
            seed: u64,
            budget in 50_000u64..20_000_000,
            probs in proptest::collection::vec(0.0f64..1.0, 24),
            conf in 0.0f64..1.0,
        ) {
            let video = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(4))
                .build();
            let fc = TileForecast::new(probs);
            let prev = vec![-1i8; 24];
            let input = policy::PolicyInput {
                video: &video,
                forecast: &fc,
                confidence: conf,
                time: ChunkTime(0),
                buffer: SimDuration::from_secs(2),
                budget_bytes: budget,
                capacity_bps: Some(budget as f64 * 8.0),
                scheme: sperke_video::Scheme::Avc,
                min_probability: DEFAULT_MIN_PROBABILITY,
                prev: Some(&prev),
            };
            let baseline = AbrPolicyKind::Sperke.decide(&input);
            let degenerate = [
                AbrPolicyKind::Knapsack,
                AbrPolicyKind::Transition {
                    full_below: 0.0,
                    fov_only_above: 1.1,
                    fov_floor: 0.5,
                },
                AbrPolicyKind::Qer { variants: 0, emphasis_drop: 2 },
                AbrPolicyKind::Consistency { max_up_step: 0 },
            ];
            for kind in degenerate {
                prop_assert_eq!(&kind.decide(&input), &baseline,
                    "{} with knob off diverged from Sperke", kind.name());
            }
        }
    }
}
