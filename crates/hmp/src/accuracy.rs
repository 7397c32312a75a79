//! HMP evaluation harness: prediction error and tile-hit metrics.
//!
//! Backs experiment E5 ("HMP accuracy vs horizon"). The operative metric
//! for FoV-guided streaming is not raw angular error but whether the
//! tiles the predictor would have fetched include the tiles the user
//! actually looked at.

use crate::fusion::FusedForecaster;
use crate::predictor::Predictor;
use crate::trace::HeadTrace;
use serde::{Deserialize, Serialize};
use sperke_geo::{TileGrid, Viewport, VisibilityScratch};
use sperke_sim::stats;
use sperke_sim::{SimDuration, SimTime};
use sperke_video::ChunkTime;

/// Evaluation summary for one predictor at one horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HmpReport {
    /// Mean great-circle error, degrees.
    pub mean_error_deg: f64,
    /// 95th-percentile error, degrees.
    pub p95_error_deg: f64,
    /// Fraction of evaluations where the user's actual gaze-centre tile
    /// was inside the *predicted* viewport's tile set.
    pub tile_hit_rate: f64,
    /// Number of evaluation points.
    pub evaluations: usize,
}

/// History window handed to predictors, in samples (1 s at 50 Hz).
const HISTORY_SAMPLES: usize = 50;
/// Evaluation stride along the trace.
const EVAL_STEP: SimDuration = SimDuration::from_millis(100);

/// Evaluate a point predictor over a trace at a fixed horizon.
pub fn evaluate_predictor(
    predictor: &dyn Predictor,
    trace: &HeadTrace,
    horizon: SimDuration,
    grid: &TileGrid,
) -> HmpReport {
    let mut errors = Vec::new();
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut vis_scratch = VisibilityScratch::new();
    let mut predicted_tiles = Vec::new();

    let start = SimTime::from_secs(1); // warm-up for history
    let end_f = trace.duration().as_secs_f64() - horizon.as_secs_f64();
    let mut t = start;
    while t.as_secs_f64() <= end_f {
        let history = trace.history(t, HISTORY_SAMPLES);
        let predicted = predictor.predict(&history, horizon);
        let actual = trace.at(t + horizon);
        errors.push(predicted.angular_distance(&actual).to_degrees());

        Viewport::headset(predicted).visible_tile_set_into(
            grid,
            &mut vis_scratch,
            &mut predicted_tiles,
        );
        let actual_tile = grid.tile_of_direction(actual.direction());
        if predicted_tiles.contains(&actual_tile) {
            hits += 1;
        }
        total += 1;
        t += EVAL_STEP;
    }

    HmpReport {
        mean_error_deg: stats::mean(&errors),
        p95_error_deg: stats::percentile(&errors, 95.0),
        tile_hit_rate: if total > 0 {
            hits as f64 / total as f64
        } else {
            0.0
        },
        evaluations: total,
    }
}

/// Evaluation of a [`FusedForecaster`]'s tile forecasts: with a fetch
/// budget of `k` tiles, how often do the top-k forecast tiles include
/// the user's actual gaze tile?
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForecastReport {
    /// Fraction of evaluations whose actual gaze tile is in the top-k.
    pub topk_hit_rate: f64,
    /// Mean probability the forecast assigned to the actual gaze tile.
    pub mean_prob_on_target: f64,
    /// Number of evaluation points.
    pub evaluations: usize,
}

/// Evaluate a fused forecaster over a trace at a fixed horizon and
/// fetch budget.
pub fn evaluate_forecaster(
    forecaster: &FusedForecaster,
    trace: &HeadTrace,
    horizon: SimDuration,
    grid: &TileGrid,
    chunk_duration: SimDuration,
    k: usize,
) -> ForecastReport {
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut probs = Vec::new();

    let start = SimTime::from_secs(1);
    let end_f = trace.duration().as_secs_f64() - horizon.as_secs_f64();
    let mut t = start;
    while t.as_secs_f64() <= end_f {
        let history = trace.history(t, HISTORY_SAMPLES);
        let target_time = t + horizon;
        let chunk = ChunkTime((target_time.as_nanos() / chunk_duration.as_nanos()) as u32);
        let fc = forecaster.forecast(grid, &history, t, target_time, chunk);
        let actual = trace.at(target_time);
        let actual_tile = grid.tile_of_direction(actual.direction());
        if fc.top_k(k).contains(&actual_tile) {
            hits += 1;
        }
        probs.push(fc.prob(actual_tile));
        total += 1;
        t += EVAL_STEP;
    }

    ForecastReport {
        topk_hit_rate: if total > 0 {
            hits as f64 / total as f64
        } else {
            0.0
        },
        mean_prob_on_target: stats::mean(&probs),
        evaluations: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{AttentionModel, Behavior, TraceGenerator};
    use crate::predictor::{LinearRegression, Persistence};
    use crate::ViewingContext;
    use sperke_geo::Orientation;

    fn realistic_trace(seed: u64) -> HeadTrace {
        TraceGenerator::new(
            AttentionModel::generic(3),
            Behavior::Focused,
            ViewingContext::default(),
        )
        .generate(SimDuration::from_secs(30), seed)
    }

    #[test]
    fn perfect_prediction_on_still_trace() {
        let trace = HeadTrace::from_fn(SimDuration::from_secs(10), |_| {
            Orientation::from_degrees(10.0, 0.0, 0.0)
        });
        let grid = TileGrid::new(4, 6);
        let r = evaluate_predictor(&Persistence, &trace, SimDuration::from_secs(1), &grid);
        assert!(r.mean_error_deg < 1e-9);
        assert_eq!(r.tile_hit_rate, 1.0);
        assert!(r.evaluations > 50);
    }

    #[test]
    fn regression_beats_persistence_on_smooth_motion() {
        let trace = HeadTrace::from_fn(SimDuration::from_secs(20), |t| {
            Orientation::new(0.4 * t.as_secs_f64(), 0.0, 0.0)
        });
        let grid = TileGrid::new(4, 6);
        let h = SimDuration::from_secs(1);
        let lr = evaluate_predictor(&LinearRegression::default(), &trace, h, &grid);
        let pe = evaluate_predictor(&Persistence, &trace, h, &grid);
        assert!(lr.mean_error_deg < pe.mean_error_deg);
        assert!(lr.mean_error_deg < 1.0, "LR should nail constant motion");
        // Persistence is off by horizon * rate ≈ 23°.
        assert!(pe.mean_error_deg > 15.0);
    }

    #[test]
    fn error_grows_with_horizon_on_realistic_trace() {
        let trace = realistic_trace(8);
        let grid = TileGrid::new(4, 6);
        let short = evaluate_predictor(&Persistence, &trace, SimDuration::from_millis(200), &grid);
        let long = evaluate_predictor(&Persistence, &trace, SimDuration::from_secs(2), &grid);
        assert!(long.mean_error_deg >= short.mean_error_deg);
    }

    #[test]
    fn short_horizon_accuracy_is_reasonable() {
        // The §3.2 premise: short-horizon HMP is accurate.
        let trace = realistic_trace(9);
        let grid = TileGrid::new(4, 6);
        let r = evaluate_predictor(
            &LinearRegression::default(),
            &trace,
            SimDuration::from_millis(200),
            &grid,
        );
        assert!(r.tile_hit_rate > 0.9, "hit rate {}", r.tile_hit_rate);
    }

    #[test]
    fn forecaster_topk_hit_improves_with_budget() {
        let trace = realistic_trace(10);
        let grid = TileGrid::new(4, 6);
        let f = FusedForecaster::motion_only();
        let h = SimDuration::from_secs(1);
        let cd = SimDuration::from_secs(1);
        let r4 = evaluate_forecaster(&f, &trace, h, &grid, cd, 4);
        let r12 = evaluate_forecaster(&f, &trace, h, &grid, cd, 12);
        assert!(r12.topk_hit_rate >= r4.topk_hit_rate);
        assert!(r12.topk_hit_rate > 0.8, "12/24 tiles should usually cover");
    }
}
