//! The "data fusion" forecaster (§3.2): motion extrapolation blended
//! with the cross-user popularity prior, pruned by the per-user speed
//! bound and the viewing context.
//!
//! Downstream consumers (rate adaptation, multipath, prefetching) don't
//! want a single predicted orientation — they want, per tile, the
//! probability that the tile will be on screen at a future chunk time.
//! That is a [`TileForecast`].

use crate::context::ViewingContext;
use crate::popularity::Heatmap;
use crate::predictor::{DampedRegression, Predictor};
use serde::{Deserialize, Serialize};
use sperke_geo::{Orientation, TileCenters, TileGrid, TileId, Viewport};
use sperke_sim::{SimDuration, SimTime};
use sperke_video::ChunkTime;

/// Per-tile on-screen probabilities for one future chunk time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileForecast {
    probs: Vec<f64>,
}

impl TileForecast {
    /// Build from raw per-tile probabilities (clamped to `[0,1]`).
    pub fn new(probs: Vec<f64>) -> TileForecast {
        TileForecast {
            probs: probs.into_iter().map(|p| p.clamp(0.0, 1.0)).collect(),
        }
    }

    /// A uniform forecast (no information).
    pub fn uniform(grid: &TileGrid, p: f64) -> TileForecast {
        TileForecast::new(vec![p; grid.tile_count()])
    }

    /// Probability that `tile` is on screen.
    pub fn prob(&self, tile: TileId) -> f64 {
        self.probs[tile.index()]
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when empty (never for grid-built forecasts).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Tiles ranked by descending probability (ties by id).
    pub fn ranked(&self) -> Vec<(TileId, f64)> {
        let mut v: Vec<(TileId, f64)> = self
            .probs
            .iter()
            .enumerate()
            .map(|(i, &p)| (TileId(i as u16), p))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
        v
    }

    /// The `k` most probable tiles.
    pub fn top_k(&self, k: usize) -> Vec<TileId> {
        self.ranked().into_iter().take(k).map(|(t, _)| t).collect()
    }

    /// Tiles with probability at least `threshold`.
    pub fn above(&self, threshold: f64) -> Vec<TileId> {
        self.ranked()
            .into_iter()
            .filter(|&(_, p)| p >= threshold)
            .map(|(t, _)| t)
            .collect()
    }

    /// How concentrated the forecast is, in `[0, 1]`: the probability
    /// mass held by the top eighth of tiles (at least one) over the
    /// total mass. A confident prediction piles its mass on the few
    /// tiles of one viewport (→ 1); a diffuse one spreads it across the
    /// panorama (→ the mass fraction those tiles would hold anyway).
    /// Returns 0 for an empty or all-zero forecast. Drives
    /// confidence-transitioning delivery policies.
    pub fn confidence(&self) -> f64 {
        if self.probs.is_empty() {
            return 0.0;
        }
        let total: f64 = self.probs.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let k = self.probs.len().div_ceil(8);
        let top: f64 = self.ranked().iter().take(k).map(|&(_, p)| p).sum();
        (top / total).clamp(0.0, 1.0)
    }
}

/// Below this horizon, trust motion extrapolation alone.
const SHORT_HORIZON: SimDuration = SimDuration::from_millis(500);
/// At/beyond this horizon the popularity prior reaches its maximum
/// blend weight.
const LONG_HORIZON: SimDuration = SimDuration::from_secs(2);
/// Maximum weight the popularity prior can take (< 1 keeps motion in
/// the mix even at long horizons).
const MAX_PRIOR_WEIGHT: f64 = 0.7;
/// Gaussian growth of motion uncertainty with horizon, rad/s.
const UNCERTAINTY_RATE: f64 = 0.35;
/// Ceiling on the motion uncertainty (head-prediction error saturates —
/// viewers revert to content, they don't random-walk).
const UNCERTAINTY_CAP: f64 = 0.85;
/// Floor probability applied instead of zero when pruning (robustness
/// against hard errors).
const PRUNE_FLOOR: f64 = 0.05;

/// Anything that can forecast per-tile on-screen probabilities.
///
/// [`FusedForecaster`] is the production implementation;
/// [`OracleForecaster`](crate::oracle::OracleForecaster) peeks at the
/// future for perfect-HMP upper bounds (§3.1.2 part one: "let us assume
/// that the HMP is perfect").
pub trait Forecaster {
    /// Forecast on-screen probabilities for the chunk starting at
    /// `target_time`, given gaze history up to `now`.
    fn forecast(
        &self,
        grid: &TileGrid,
        history: &[(SimTime, Orientation)],
        now: SimTime,
        target_time: SimTime,
        chunk_time: ChunkTime,
    ) -> TileForecast;
}

/// The fused §3.2 forecaster.
#[derive(Debug, Clone)]
pub struct FusedForecaster {
    /// Motion predictor (damped regression by default).
    pub motion: DampedRegression,
    /// Cross-user popularity prior, when available.
    pub heatmap: Option<Heatmap>,
    /// Learned per-user speed bound (rad/s), e.g. the user's historical
    /// 95th-percentile head speed.
    pub speed_bound: Option<f64>,
    /// Session context for reachability pruning.
    pub context: ViewingContext,
    /// The session's "front" yaw (radians) against which context limits
    /// apply; normally the initial gaze direction.
    pub front_yaw: f64,
}

impl FusedForecaster {
    /// A purely motion-driven forecaster (no prior, no pruning).
    pub fn motion_only() -> FusedForecaster {
        FusedForecaster {
            motion: DampedRegression::default(),
            heatmap: None,
            speed_bound: None,
            context: ViewingContext {
                pose: crate::context::Pose::Standing,
                ..Default::default()
            },
            front_yaw: 0.0,
        }
    }

    /// Attach a popularity heatmap.
    pub fn with_heatmap(mut self, heatmap: Heatmap) -> Self {
        self.heatmap = Some(heatmap);
        self
    }

    /// Attach a learned speed bound (rad/s).
    pub fn with_speed_bound(mut self, bound: f64) -> Self {
        assert!(bound > 0.0);
        self.speed_bound = Some(bound);
        self
    }

    /// Attach a viewing context and session front.
    pub fn with_context(mut self, context: ViewingContext, front_yaw: f64) -> Self {
        self.context = context;
        self.front_yaw = front_yaw;
        self
    }

    /// Forecast on-screen probabilities for the chunk starting at
    /// `target_time`, given gaze history up to `now`.
    pub fn forecast(
        &self,
        grid: &TileGrid,
        history: &[(SimTime, Orientation)],
        now: SimTime,
        target_time: SimTime,
        chunk_time: ChunkTime,
    ) -> TileForecast {
        Forecaster::forecast(self, grid, history, now, target_time, chunk_time)
    }
}

impl Forecaster for FusedForecaster {
    fn forecast(
        &self,
        grid: &TileGrid,
        history: &[(SimTime, Orientation)],
        now: SimTime,
        target_time: SimTime,
        chunk_time: ChunkTime,
    ) -> TileForecast {
        let mut scratch = ForecastScratch::new();
        self.forecast_with(grid, history, now, target_time, chunk_time, &mut scratch)
    }
}

/// Reusable state for [`FusedForecaster::forecast_with`]: the
/// tile-centre table (the trig-heavy part of tile scoring) and the
/// motion-probability buffer. One scratch serves any grid — the table is
/// rebuilt when the grid changes — so a batch engine keeps one per
/// worker and amortizes the trig across every (client, chunk) query.
#[derive(Debug, Clone, Default)]
pub struct ForecastScratch {
    centers: Option<TileCenters>,
    motion: Vec<f64>,
}

impl ForecastScratch {
    /// An empty scratch; the centre table builds on first use.
    pub fn new() -> ForecastScratch {
        ForecastScratch::default()
    }

    fn ensure(&mut self, grid: &TileGrid) {
        if self.centers.as_ref().map(|c| c.grid()) != Some(*grid) {
            self.centers = Some(TileCenters::new(*grid));
        }
    }
}

impl FusedForecaster {
    /// [`FusedForecaster::forecast`] with reusable buffers: the output
    /// bits do not depend on what `scratch` held before.
    ///
    /// * Tile centres come from the scratch's [`TileCenters`] table
    ///   instead of four trig calls per query, and the predicted/current
    ///   gaze directions are derived once instead of once per tile.
    /// * The context-prune pass is skipped entirely when the pose's yaw
    ///   range plus the FoV half-width reaches π: a wrapped yaw offset
    ///   never exceeds π, so the prune condition `offset > limit` is
    ///   unsatisfiable and the pass is a no-op.
    pub fn forecast_with(
        &self,
        grid: &TileGrid,
        history: &[(SimTime, Orientation)],
        now: SimTime,
        target_time: SimTime,
        chunk_time: ChunkTime,
        scratch: &mut ForecastScratch,
    ) -> TileForecast {
        assert!(!history.is_empty(), "history must be non-empty");
        scratch.ensure(grid);
        let ForecastScratch { centers, motion } = scratch;
        let centers = centers.as_ref().expect("ensured above");
        let horizon = target_time.saturating_since(now);
        let current = history.last().expect("non-empty").1;
        let predicted = self.motion.predict(history, horizon);

        // --- Motion component: FoV membership blurred by horizon noise.
        let vp = Viewport::headset(predicted);
        let fov_radius = (vp.hfov.min(vp.vfov)) / 2.0;
        let sigma =
            (0.12 + UNCERTAINTY_RATE * horizon.as_secs_f64()).min(UNCERTAINTY_CAP.max(0.12));
        let predicted_dir = predicted.direction();
        motion.clear();
        motion.extend(grid.tiles().map(|tile| {
            let d = centers.distance_to_tile(predicted_dir, tile);
            let outside = (d - fov_radius).max(0.0);
            (-0.5 * (outside / sigma).powi(2)).exp()
        }));

        // --- Popularity component, combined as a noisy-OR: the tile is
        // on screen if motion predicts it OR the crowd watches it. This
        // lifts popular tiles at long horizons without ever *displacing*
        // the viewer's own motion evidence (a convex blend would dilute
        // a certain motion prediction down to the crowd average).
        let w = self.prior_weight(horizon);
        let mut probs: Vec<f64> = if let (Some(map), true) = (&self.heatmap, w > 0.0) {
            grid.tiles()
                .map(|tile| {
                    let pop = map.tile_probability(chunk_time, tile);
                    let m = motion[tile.index()];
                    1.0 - (1.0 - m) * (1.0 - w * pop)
                })
                .collect()
        } else {
            motion.clone()
        };

        // --- Speed-bound pruning: tiles unreachable within the horizon.
        if let Some(bound) = self.speed_bound {
            let reach = bound * horizon.as_secs_f64() + fov_radius;
            let current_dir = current.direction();
            for tile in grid.tiles() {
                let d = centers.distance_to_tile(current_dir, tile);
                if d > reach {
                    probs[tile.index()] = probs[tile.index()].min(PRUNE_FLOOR);
                }
            }
        }

        // --- Context pruning: tiles no reachable gaze could *see*. The
        // pose limits where the gaze can point; the viewport extends a
        // further FoV half-width beyond the gaze, so the visibility
        // limit is the pose range plus that margin (a viewer pinned at
        // the limit still sees past it).
        let limit = self.context.yaw_half_range() + fov_radius;
        if limit < std::f64::consts::PI {
            for tile in grid.tiles() {
                let center = centers.center(tile);
                let yaw = center.y.atan2(center.x);
                let offset = sperke_geo::angles::wrap_pi(yaw - self.front_yaw).abs();
                if offset > limit {
                    probs[tile.index()] = probs[tile.index()].min(PRUNE_FLOOR);
                }
            }
        }

        TileForecast::new(probs)
    }

    /// The popularity prior's blend weight at a horizon.
    fn prior_weight(&self, horizon: SimDuration) -> f64 {
        if self.heatmap.is_none() {
            return 0.0;
        }
        let short = SHORT_HORIZON.as_secs_f64();
        let long = LONG_HORIZON.as_secs_f64();
        let h = horizon.as_secs_f64();
        if h <= short {
            0.0
        } else if h >= long {
            MAX_PRIOR_WEIGHT
        } else {
            MAX_PRIOR_WEIGHT * (h - short) / (long - short)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Pose;
    use crate::generate::{generate_ensemble, AttentionModel};
    use crate::popularity::Heatmap;
    use crate::trace::HeadTrace;
    use sperke_geo::Vec3;

    fn still_history(yaw_deg: f64) -> Vec<(SimTime, Orientation)> {
        (0..25)
            .map(|i| {
                (
                    SimTime::from_secs_f64(i as f64 * 0.02),
                    Orientation::from_degrees(yaw_deg, 0.0, 0.0),
                )
            })
            .collect()
    }

    #[test]
    fn forecast_peaks_at_gaze_for_still_viewer() {
        let grid = TileGrid::new(4, 6);
        let f = FusedForecaster::motion_only();
        let h = still_history(0.0);
        let now = h.last().unwrap().0;
        let fc = f.forecast(
            &grid,
            &h,
            now,
            now + SimDuration::from_millis(500),
            ChunkTime(0),
        );
        let front = grid.tile_of_direction(Vec3::X);
        let behind = grid.tile_of_direction(-Vec3::X);
        assert!(fc.prob(front) > 0.95);
        assert!(fc.prob(behind) < 0.3, "behind={}", fc.prob(behind));
    }

    #[test]
    fn uncertainty_spreads_with_horizon() {
        let grid = TileGrid::new(4, 6);
        let f = FusedForecaster::motion_only();
        let h = still_history(0.0);
        let now = h.last().unwrap().0;
        let behind = grid.tile_of_direction(-Vec3::X);
        let near = f.forecast(
            &grid,
            &h,
            now,
            now + SimDuration::from_millis(200),
            ChunkTime(0),
        );
        let far = f.forecast(
            &grid,
            &h,
            now,
            now + SimDuration::from_secs(3),
            ChunkTime(0),
        );
        assert!(far.prob(behind) > near.prob(behind));
    }

    #[test]
    fn prior_weight_ramps() {
        let grid = TileGrid::new(2, 4);
        let map = Heatmap::empty(grid, SimDuration::from_secs(1), 1);
        let f = FusedForecaster::motion_only().with_heatmap(map);
        assert_eq!(f.prior_weight(SimDuration::from_millis(100)), 0.0);
        let mid = f.prior_weight(SimDuration::from_millis(1250));
        assert!(mid > 0.0 && mid < 0.7);
        assert_eq!(f.prior_weight(SimDuration::from_secs(5)), 0.7);
    }

    #[test]
    fn no_heatmap_means_zero_prior_weight() {
        let f = FusedForecaster::motion_only();
        assert_eq!(f.prior_weight(SimDuration::from_secs(10)), 0.0);
    }

    #[test]
    fn heatmap_lifts_popular_tiles_at_long_horizon() {
        let grid = TileGrid::new(4, 6);
        // Everyone else looks behind (yaw 180) — the popularity prior
        // should raise that tile at long horizons even though our user
        // currently looks front.
        let traces: Vec<HeadTrace> = (0..6)
            .map(|_| {
                HeadTrace::from_fn(SimDuration::from_secs(4), |_| {
                    Orientation::from_degrees(180.0, 0.0, 0.0)
                })
            })
            .collect();
        let map = Heatmap::build(grid, SimDuration::from_secs(1), 4, &traces);
        let with = FusedForecaster::motion_only().with_heatmap(map);
        let without = FusedForecaster::motion_only();
        let h = still_history(0.0);
        let now = h.last().unwrap().0;
        let target = now + SimDuration::from_secs(3);
        let behind = grid.tile_of_direction(-Vec3::X);
        let pw = with
            .forecast(&grid, &h, now, target, ChunkTime(3))
            .prob(behind);
        let po = without
            .forecast(&grid, &h, now, target, ChunkTime(3))
            .prob(behind);
        assert!(pw > po, "prior must lift the popular tile: {pw} vs {po}");
        assert!(pw > 0.5);
    }

    #[test]
    fn speed_bound_prunes_distant_tiles() {
        let grid = TileGrid::new(4, 6);
        let f = FusedForecaster::motion_only().with_speed_bound(0.2); // slow user
        let h = still_history(0.0);
        let now = h.last().unwrap().0;
        // Long horizon would otherwise blur probability everywhere.
        let fc = f.forecast(
            &grid,
            &h,
            now,
            now + SimDuration::from_secs(4),
            ChunkTime(0),
        );
        let behind = grid.tile_of_direction(-Vec3::X);
        assert!(fc.prob(behind) <= 0.05 + 1e-12);
    }

    #[test]
    fn lying_context_prunes_rear_tiles() {
        let grid = TileGrid::new(4, 6);
        let ctx = ViewingContext {
            pose: Pose::Lying,
            ..Default::default()
        };
        let f = FusedForecaster::motion_only().with_context(ctx, 0.0);
        let h = still_history(0.0);
        let now = h.last().unwrap().0;
        let fc = f.forecast(
            &grid,
            &h,
            now,
            now + SimDuration::from_secs(3),
            ChunkTime(0),
        );
        let behind = grid.tile_of_direction(-Vec3::X);
        let front = grid.tile_of_direction(Vec3::X);
        assert!(fc.prob(behind) <= 0.05 + 1e-12);
        assert!(fc.prob(front) > 0.9);
    }

    #[test]
    fn moving_viewer_shifts_forecast_ahead() {
        let grid = TileGrid::new(1, 12); // fine yaw resolution
        let f = FusedForecaster::motion_only();
        // Turning left at 1 rad/s.
        let h: Vec<(SimTime, Orientation)> = (0..50)
            .map(|i| {
                let t = i as f64 * 0.02;
                (SimTime::from_secs_f64(t), Orientation::new(t, 0.0, 0.0))
            })
            .collect();
        let now = h.last().unwrap().0;
        let fc = f.forecast(
            &grid,
            &h,
            now,
            now + SimDuration::from_secs(1),
            ChunkTime(1),
        );
        let current_tile = grid.tile_of_direction(h.last().unwrap().1.direction());
        // Expected gaze after damped 1s of 1 rad/s ≈ +0.7 rad ahead.
        let ahead_tile = grid.tile_of_angles(h.last().unwrap().1.yaw + 0.7, 0.0);
        assert!(fc.prob(ahead_tile) >= fc.prob(current_tile) * 0.9);
        // The tile 180° away must be far less likely than the path ahead.
        let opposite = grid.tile_of_angles(h.last().unwrap().1.yaw + std::f64::consts::PI, 0.0);
        assert!(fc.prob(opposite) < fc.prob(ahead_tile));
    }

    #[test]
    fn forecast_ranked_and_topk_consistent() {
        let grid = TileGrid::new(4, 6);
        let f = FusedForecaster::motion_only();
        let h = still_history(40.0);
        let now = h.last().unwrap().0;
        let fc = f.forecast(
            &grid,
            &h,
            now,
            now + SimDuration::from_millis(300),
            ChunkTime(0),
        );
        let ranked = fc.ranked();
        assert_eq!(ranked.len(), grid.tile_count());
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(
            fc.top_k(3),
            ranked[..3].iter().map(|&(t, _)| t).collect::<Vec<_>>()
        );
        let above = fc.above(0.5);
        assert!(above.iter().all(|&t| fc.prob(t) >= 0.5));
    }

    /// Five forecaster shapes on `grid`: motion only, with a heatmap,
    /// a speed bound, a lying context, and all three together.
    fn forecasters_on(grid: TileGrid) -> Vec<FusedForecaster> {
        let traces: Vec<HeadTrace> = (0..4)
            .map(|i| {
                HeadTrace::from_fn(SimDuration::from_secs(4), move |t| {
                    Orientation::from_degrees(40.0 * i as f64 + 10.0 * t.as_secs_f64(), 5.0, 0.0)
                })
            })
            .collect();
        let map = Heatmap::build(grid, SimDuration::from_secs(1), 4, &traces);
        let lying = ViewingContext {
            pose: Pose::Lying,
            ..Default::default()
        };
        vec![
            FusedForecaster::motion_only(),
            FusedForecaster::motion_only().with_heatmap(map.clone()),
            FusedForecaster::motion_only().with_speed_bound(0.4),
            FusedForecaster::motion_only().with_context(lying, 0.3),
            FusedForecaster::motion_only()
                .with_heatmap(map)
                .with_speed_bound(1.1)
                .with_context(lying, -0.8),
        ]
    }

    #[test]
    fn one_scratch_reused_across_forecasters_and_grids_matches_a_fresh_one() {
        // One scratch serves every forecaster and two grid shapes in
        // turn (its centre table is rebuilt on each shape change); the
        // plain `forecast` builds a fresh scratch per call.
        let cases = [TileGrid::new(4, 6), TileGrid::new(3, 5)].map(|g| (g, forecasters_on(g)));
        let mut scratch = ForecastScratch::new();
        for fi in 0..5 {
            for yaw in [0.0, 75.0, -160.0] {
                for horizon_ms in [150, 900, 3000] {
                    for (grid, forecasters) in &cases {
                        let f = &forecasters[fi];
                        let h = still_history(yaw);
                        let now = h.last().unwrap().0;
                        let target = now + SimDuration::from_millis(horizon_ms);
                        let fresh = f.forecast(grid, &h, now, target, ChunkTime(2));
                        let reused =
                            f.forecast_with(grid, &h, now, target, ChunkTime(2), &mut scratch);
                        for tile in grid.tiles() {
                            assert_eq!(
                                reused.prob(tile).to_bits(),
                                fresh.prob(tile).to_bits(),
                                "forecaster {fi}, grid {grid:?}, yaw {yaw}, \
                                 horizon {horizon_ms} ms, tile {tile}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ensemble_prior_boosts_hit_rate_for_slow_viewer() {
        // A viewer about to saccade to the stage: popularity knows where
        // the stage is even though motion extrapolation doesn't.
        let att = AttentionModel::stage(21);
        let traces = generate_ensemble(&att, 10, SimDuration::from_secs(10), 7);
        let grid = TileGrid::new(4, 6);
        let map = Heatmap::build(grid, SimDuration::from_secs(1), 10, &traces);
        let stage_tile = grid.tile_of_direction(att.hotspots()[0].position(5.0).direction());
        // User currently looks 140° away from the stage.
        let stage_yaw = att.hotspots()[0].yaw0;
        let h = still_history(stage_yaw.to_degrees() + 140.0);
        let now = h.last().unwrap().0;
        let target = now + SimDuration::from_secs(3);
        let with = FusedForecaster::motion_only().with_heatmap(map).forecast(
            &grid,
            &h,
            now,
            target,
            ChunkTime(5),
        );
        let without = FusedForecaster::motion_only().forecast(&grid, &h, now, target, ChunkTime(5));
        assert!(with.prob(stage_tile) > without.prob(stage_tile));
    }
}
