//! # sperke-hmp — head-movement traces, behaviour models, and prediction
//!
//! The §3.2 subsystem of Sperke: "big data analytics for HMP and VRA".
//!
//! * [`HeadTrace`] — 50 Hz orientation logs with context metadata, the
//!   unit of the paper's crowd-sourced study.
//! * [`generate`] — synthetic viewer behaviour (the substitution for the
//!   paper's in-the-wild dataset): per-video attention hotspots shared
//!   across users, per-user behaviour classes.
//! * [`predictor`] — short-horizon motion predictors (persistence,
//!   linear regression, dead reckoning, damped regression).
//! * [`Heatmap`] — cross-user tile view probabilities ("popular chunks").
//! * [`FusedForecaster`] — the paper's data-fusion output: per-tile
//!   on-screen probabilities combining motion, popularity, the per-user
//!   speed bound, and context pruning.
//! * [`accuracy`] — the E5 evaluation harness.

#![warn(missing_docs)]

pub mod accuracy;
pub mod context;
pub mod dataset;
pub mod engagement;
pub mod fusion;
pub mod generate;
pub mod oracle;
pub mod popularity;
pub mod predictor;
pub mod trace;

pub use accuracy::{evaluate_forecaster, evaluate_predictor, ForecastReport, HmpReport};
pub use context::{Mobility, Pose, ViewingContext, WatchMode};
pub use dataset::{SessionRecord, StudyDataset, UserProfile};
pub use engagement::{estimate_engagement, Engagement};
pub use fusion::{ForecastScratch, Forecaster, FusedForecaster, TileForecast};
pub use generate::{
    generate_ensemble, generate_ensemble_member, AttentionModel, Behavior, Hotspot, HotspotTrack,
    TraceGenerator,
};
pub use oracle::OracleForecaster;
pub use popularity::Heatmap;
pub use predictor::{
    AlphaBeta, DampedRegression, DeadReckoning, Ensemble, LinearRegression, Persistence, Predictor,
};
pub use trace::{HeadTrace, DEFAULT_SAMPLE_HZ};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sperke_sim::{SimDuration, SimTime};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Generated traces always respect the pitch clamp and produce
        /// finite angles.
        #[test]
        fn traces_stay_finite(seed: u64, b in 0usize..4) {
            let g = TraceGenerator::new(
                AttentionModel::generic(seed ^ 0xF00D),
                Behavior::ALL[b],
                ViewingContext::default(),
            );
            let tr = g.generate(SimDuration::from_secs(5), seed);
            for o in tr.samples() {
                prop_assert!(o.yaw.is_finite() && o.pitch.is_finite());
                prop_assert!(o.pitch.abs() <= std::f64::consts::FRAC_PI_2 + 1e-9);
            }
        }

        /// Forecast probabilities are always within [0,1].
        #[test]
        fn forecasts_are_probabilities(seed: u64, horizon_ms in 50u64..4000) {
            let g = TraceGenerator::new(
                AttentionModel::generic(seed),
                Behavior::Explorer,
                ViewingContext::default(),
            );
            let tr = g.generate(SimDuration::from_secs(6), seed);
            let grid = sperke_geo::TileGrid::new(4, 6);
            let f = FusedForecaster::motion_only();
            let now = SimTime::from_secs(3);
            let history = tr.history(now, 50);
            let fc = f.forecast(&grid, &history, now,
                now + SimDuration::from_millis(horizon_ms), sperke_video::ChunkTime(3));
            for tile in grid.tiles() {
                let p = fc.prob(tile);
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        /// Heatmap probabilities are valid and bounded by viewer count.
        #[test]
        fn heatmap_probabilities_valid(n_users in 1usize..6, seed: u64) {
            let att = AttentionModel::generic(seed);
            let traces = generate_ensemble(&att, n_users, SimDuration::from_secs(3), seed);
            let grid = sperke_geo::TileGrid::new(2, 4);
            let map = Heatmap::build(grid, SimDuration::from_secs(1), 3, &traces);
            for t in 0..3u32 {
                prop_assert_eq!(map.viewer_count(sperke_video::ChunkTime(t)), n_users as u32);
                for tile in grid.tiles() {
                    let p = map.tile_probability(sperke_video::ChunkTime(t), tile);
                    prop_assert!((0.0..=1.0).contains(&p));
                }
            }
        }

        /// `Heatmap::top_k`'s order is explicitly total — raw count
        /// descending, ties by ascending tile index — so it matches the
        /// independently-computed specification exactly and never
        /// depends on the order observations were recorded in. Pinned
        /// because cross-edge heatmap sharing folds reports from many
        /// nodes and relies on the cut being permutation-invariant.
        #[test]
        fn top_k_tie_break_is_total_and_record_order_invariant(
            views in proptest::collection::vec(0u16..8, 1..24),
            rot in 0usize..24,
            k in 1usize..9,
        ) {
            let grid = sperke_geo::TileGrid::new(2, 4);
            let chunk = sperke_video::ChunkTime(0);
            let record_all = |order: &[u16]| {
                let mut map = Heatmap::empty(grid, SimDuration::from_secs(1), 1);
                for &t in order {
                    map.record(chunk, &[sperke_geo::TileId(t)]);
                }
                map
            };
            let map = record_all(&views);
            // Reference order computed independently of the Heatmap:
            // count descending, then tile index ascending.
            let mut counts = [0u32; 8];
            for &t in &views {
                counts[t as usize] += 1;
            }
            let mut spec: Vec<u16> = (0..8).collect();
            spec.sort_by(|&a, &b| {
                counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b))
            });
            let expect: Vec<sperke_geo::TileId> =
                spec.into_iter().take(k).map(sperke_geo::TileId).collect();
            prop_assert_eq!(map.top_k(chunk, k), expect);
            // Recording order never perturbs the cut.
            let mut rotated = views.clone();
            rotated.rotate_left(rot % views.len());
            prop_assert_eq!(map.top_k(chunk, k), record_all(&rotated).top_k(chunk, k));
        }

        /// trace.at() is continuous: nearby times yield nearby orientations.
        #[test]
        fn trace_interpolation_continuous(seed: u64, t_ms in 0u64..4900) {
            let g = TraceGenerator::new(
                AttentionModel::generic(seed),
                Behavior::Focused,
                ViewingContext::default(),
            );
            let tr = g.generate(SimDuration::from_secs(5), seed);
            let a = tr.at(SimTime::from_millis(t_ms));
            let b = tr.at(SimTime::from_millis(t_ms + 5));
            // 5 ms at a bounded speed (~3.5 rad/s incl. noise) is < 0.1 rad.
            prop_assert!(a.angular_distance(&b) < 0.1);
        }
    }
}
