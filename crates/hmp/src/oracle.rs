//! Perfect head-movement prediction, by cheating.
//!
//! §3.1.2 part one: "let us assume that the HMP is perfect. Then the
//! FoV-guided 360° VRA essentially falls back to regular (non-360°)
//! VRA." The [`OracleForecaster`] peeks at the viewer's actual future
//! gaze, so experiments can separate *prediction* error from
//! *adaptation* error and report the perfect-HMP upper bound.

use crate::fusion::{Forecaster, TileForecast};
use crate::trace::HeadTrace;
use sperke_geo::{Orientation, TileGrid, TileId, Viewport, VisibilityScratch};
use sperke_sim::{SimDuration, SimTime};
use sperke_video::ChunkTime;

/// A forecaster with oracle access to the viewer's trace.
#[derive(Debug, Clone)]
pub struct OracleForecaster {
    /// The trace it peeks into (indexed by the same playback timeline
    /// the history timestamps use).
    pub trace: HeadTrace,
    /// How much of the chunk after `target_time` the oracle covers
    /// (the tile set is the union of viewports over the window, since a
    /// chunk is displayed for its whole duration, not an instant).
    pub window: SimDuration,
}

impl OracleForecaster {
    /// A pure oracle: true viewport tiles (over a 1 s chunk window) at
    /// probability 1, everything else at 0.
    pub fn new(trace: HeadTrace) -> OracleForecaster {
        OracleForecaster {
            trace,
            window: SimDuration::from_secs(1),
        }
    }
}

impl Forecaster for OracleForecaster {
    fn forecast(
        &self,
        grid: &TileGrid,
        _history: &[(SimTime, Orientation)],
        _now: SimTime,
        target_time: SimTime,
        _chunk_time: ChunkTime,
    ) -> TileForecast {
        let mut scratch = VisibilityScratch::new();
        let mut at_instant = Vec::new();
        let mut visible: Vec<TileId> = Vec::new();
        for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let gaze = self.trace.at(target_time + self.window.mul_f64(frac));
            Viewport::headset(gaze).visible_tile_set_into(grid, &mut scratch, &mut at_instant);
            for &t in &at_instant {
                if !visible.contains(&t) {
                    visible.push(t);
                }
            }
        }
        let probs = grid
            .tiles()
            .map(|t| if visible.contains(&t) { 1.0 } else { 0.0 })
            .collect();
        TileForecast::new(probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{AttentionModel, Behavior, TraceGenerator};
    use crate::ViewingContext;
    use sperke_sim::SimDuration;

    fn trace() -> HeadTrace {
        TraceGenerator::new(
            AttentionModel::generic(2),
            Behavior::Explorer,
            ViewingContext::default(),
        )
        .generate(SimDuration::from_secs(20), 5)
    }

    #[test]
    fn oracle_always_covers_the_true_gaze() {
        let tr = trace();
        let oracle = OracleForecaster::new(tr.clone());
        let grid = TileGrid::new(4, 6);
        for s in 1..18 {
            let target = SimTime::from_secs(s);
            let history = tr.history(SimTime::from_secs(s.saturating_sub(2)), 50);
            let fc = oracle.forecast(&grid, &history, SimTime::ZERO, target, ChunkTime(s as u32));
            let actual_tile = grid.tile_of_direction(tr.at(target).direction());
            assert_eq!(fc.prob(actual_tile), 1.0, "t={s}");
        }
    }

    #[test]
    fn pure_oracle_assigns_zero_outside() {
        let tr = HeadTrace::from_fn(SimDuration::from_secs(5), |_| Orientation::FRONT);
        let oracle = OracleForecaster::new(tr);
        let grid = TileGrid::new(4, 6);
        let history = vec![(SimTime::ZERO, Orientation::FRONT)];
        let fc = oracle.forecast(
            &grid,
            &history,
            SimTime::ZERO,
            SimTime::from_secs(2),
            ChunkTime(2),
        );
        let behind = grid.tile_of_direction(-sperke_geo::Vec3::X);
        assert_eq!(fc.prob(behind), 0.0);
        // And only a minority of tiles carry probability.
        let covered = grid.tiles().filter(|&t| fc.prob(t) > 0.0).count();
        assert!(covered < grid.tile_count() / 2);
    }
}
