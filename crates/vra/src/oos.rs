//! Out-of-sight (OOS) chunk selection (§3.1.2, part two).
//!
//! "The player needs to fetch more tiles surrounding the predicted FoV
//! area X. Such tiles are called out-of-sight tiles ... To save
//! bandwidth, OOS tiles are downloaded in lower qualities; the further
//! away they are from X, the lower their qualities." Selection depends
//! on (1) the bandwidth budget, (2) the HMP accuracy — the lower the
//! accuracy, the more OOS chunks at higher qualities — and (3)
//! data-driven probabilities from §3.2, which arrive here already fused
//! into the [`TileForecast`].

use serde::{Deserialize, Serialize};
use sperke_geo::TileId;
use sperke_hmp::TileForecast;
use sperke_video::{ChunkId, ChunkTime, Quality, Scheme, VideoModel};

/// Tuning for OOS selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OosConfig {
    /// Ignore tiles whose on-screen probability is below this.
    pub min_probability: f64,
    /// The highest quality an OOS tile may take, as levels below the FoV
    /// quality (1 = at most one level below).
    pub max_levels_below_fov: u8,
    /// When the HMP is known to be less accurate, scale probabilities up
    /// so more tiles qualify (1.0 = trust the forecast as-is).
    pub accuracy_compensation: f64,
}

impl Default for OosConfig {
    fn default() -> Self {
        OosConfig {
            min_probability: 0.05,
            max_levels_below_fov: 1,
            accuracy_compensation: 1.0,
        }
    }
}

/// One selected OOS fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OosChoice {
    /// The tile to fetch.
    pub tile: TileId,
    /// The quality to fetch it at (below the FoV quality).
    pub quality: Quality,
}

/// Select OOS tiles and qualities for chunk `time`.
///
/// * `fov_tiles` — the super chunk's tiles (already being fetched at
///   `fov_quality`); never selected again here.
/// * `budget_bytes` — bytes available for OOS after the FoV fetch.
///
/// Returns choices ordered by descending probability; the total cost
/// never exceeds the budget (tiles are demoted, then dropped, lowest
/// probability first).
#[allow(clippy::too_many_arguments)]
pub fn select_oos(
    video: &VideoModel,
    forecast: &TileForecast,
    time: ChunkTime,
    fov_tiles: &[TileId],
    fov_quality: Quality,
    scheme: Scheme,
    budget_bytes: u64,
    config: &OosConfig,
) -> Vec<OosChoice> {
    if fov_quality == Quality::LOWEST {
        // No quality below the FoV level exists; OOS fetching at the
        // same level would double-spend a budget that rate adaptation
        // already judged tight.
        return Vec::new();
    }
    // OOS qualities live in the band [floor, ceiling], strictly below
    // the FoV quality.
    let ceiling = Quality(fov_quality.0 - 1);
    let floor = Quality(
        fov_quality
            .0
            .saturating_sub(config.max_levels_below_fov.max(1)),
    );

    // Candidate tiles: not in FoV, probability above threshold.
    let mut candidates: Vec<(TileId, f64)> = forecast
        .ranked()
        .into_iter()
        .filter(|(tile, _)| !fov_tiles.contains(tile))
        .map(|(tile, p)| (tile, (p * config.accuracy_compensation).min(1.0)))
        .filter(|&(_, p)| p >= config.min_probability)
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));

    // Map probability onto the [floor, ceiling] quality band: the more
    // likely the tile, the closer to the FoV quality.
    let mut choices: Vec<OosChoice> = candidates
        .iter()
        .map(|&(tile, p)| {
            let span = (ceiling.0 - floor.0) as f64;
            let q = floor.0 + (p * (span + 0.999)).floor() as u8;
            OosChoice {
                tile,
                quality: Quality(q.min(ceiling.0)),
            }
        })
        .collect();

    // Enforce the budget: demote the least probable first, then drop.
    loop {
        let cost: u64 = choices
            .iter()
            .map(|c| video.chunk_bytes(ChunkId::new(c.quality, c.tile, time), scheme))
            .sum();
        if cost <= budget_bytes {
            break;
        }
        // Find the last (least probable) choice that can still demote.
        if let Some(c) = choices.iter_mut().rev().find(|c| c.quality > floor) {
            c.quality = c.quality.down();
        } else if choices.pop().is_none() {
            break;
        }
    }
    choices
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::{Orientation, Viewport};
    use sperke_hmp::FusedForecaster;
    use sperke_sim::{SimDuration, SimTime};
    use sperke_video::VideoModelBuilder;

    fn setup() -> (VideoModel, TileForecast, Vec<TileId>) {
        let video = VideoModelBuilder::new(5)
            .duration(SimDuration::from_secs(10))
            .build();
        let grid = *video.grid();
        let history = vec![(SimTime::ZERO, Orientation::FRONT)];
        let forecast = FusedForecaster::motion_only().forecast(
            &grid,
            &history,
            SimTime::ZERO,
            SimTime::from_secs(1),
            ChunkTime(0),
        );
        let fov = Viewport::headset(Orientation::FRONT).visible_tile_set(&grid);
        (video, forecast, fov)
    }

    #[test]
    fn oos_excludes_fov_tiles() {
        let (video, forecast, fov) = setup();
        let choices = select_oos(
            &video,
            &forecast,
            ChunkTime(0),
            &fov,
            Quality(2),
            Scheme::Avc,
            u64::MAX,
            &OosConfig::default(),
        );
        assert!(!choices.is_empty());
        for c in &choices {
            assert!(!fov.contains(&c.tile));
            assert!(c.quality < Quality(2), "OOS strictly below FoV quality");
        }
    }

    #[test]
    fn closer_tiles_get_higher_quality() {
        let (video, forecast, fov) = setup();
        let config = OosConfig {
            max_levels_below_fov: 2,
            ..Default::default()
        };
        let choices = select_oos(
            &video,
            &forecast,
            ChunkTime(0),
            &fov,
            Quality(3),
            Scheme::Avc,
            u64::MAX,
            &config,
        );
        // Choices come out ordered by probability; qualities must be
        // non-increasing along that order.
        for w in choices.windows(2) {
            assert!(w[0].quality >= w[1].quality);
        }
        let has_high = choices.iter().any(|c| c.quality == Quality(2));
        let has_low = choices.iter().any(|c| c.quality < Quality(2));
        assert!(
            has_high && has_low,
            "probability should spread the band: {choices:?}"
        );
    }

    #[test]
    fn budget_enforced() {
        let (video, forecast, fov) = setup();
        let unlimited = select_oos(
            &video,
            &forecast,
            ChunkTime(0),
            &fov,
            Quality(2),
            Scheme::Avc,
            u64::MAX,
            &OosConfig::default(),
        );
        let full_cost: u64 = unlimited
            .iter()
            .map(|c| video.chunk_bytes(ChunkId::new(c.quality, c.tile, ChunkTime(0)), Scheme::Avc))
            .sum();
        let budget = full_cost / 3;
        let constrained = select_oos(
            &video,
            &forecast,
            ChunkTime(0),
            &fov,
            Quality(2),
            Scheme::Avc,
            budget,
            &OosConfig::default(),
        );
        let cost: u64 = constrained
            .iter()
            .map(|c| video.chunk_bytes(ChunkId::new(c.quality, c.tile, ChunkTime(0)), Scheme::Avc))
            .sum();
        assert!(cost <= budget, "cost {cost} exceeds budget {budget}");
    }

    #[test]
    fn zero_budget_yields_nothing() {
        let (video, forecast, fov) = setup();
        let choices = select_oos(
            &video,
            &forecast,
            ChunkTime(0),
            &fov,
            Quality(2),
            Scheme::Avc,
            0,
            &OosConfig::default(),
        );
        assert!(choices.is_empty());
    }

    #[test]
    fn base_fov_quality_disables_oos() {
        let (video, forecast, fov) = setup();
        let choices = select_oos(
            &video,
            &forecast,
            ChunkTime(0),
            &fov,
            Quality::LOWEST,
            Scheme::Avc,
            u64::MAX,
            &OosConfig::default(),
        );
        assert!(choices.is_empty());
    }

    #[test]
    fn accuracy_compensation_widens_selection() {
        let (video, forecast, fov) = setup();
        let strict = OosConfig {
            min_probability: 0.3,
            ..Default::default()
        };
        let compensated = OosConfig {
            min_probability: 0.3,
            accuracy_compensation: 3.0,
            ..Default::default()
        };
        let a = select_oos(
            &video,
            &forecast,
            ChunkTime(0),
            &fov,
            Quality(2),
            Scheme::Avc,
            u64::MAX,
            &strict,
        );
        let b = select_oos(
            &video,
            &forecast,
            ChunkTime(0),
            &fov,
            Quality(2),
            Scheme::Avc,
            u64::MAX,
            &compensated,
        );
        assert!(
            b.len() >= a.len(),
            "lower HMP accuracy should admit more OOS tiles ({} vs {})",
            b.len(),
            a.len()
        );
    }

    #[test]
    fn worst_case_random_head_spreads_everywhere() {
        // "In the worst case when the head movement is completely random,
        // OOS chunks may spread to the entire panoramic scene."
        let video = VideoModelBuilder::new(5)
            .duration(SimDuration::from_secs(10))
            .build();
        let grid = *video.grid();
        let forecast = TileForecast::uniform(&grid, 0.5);
        let choices = select_oos(
            &video,
            &forecast,
            ChunkTime(0),
            &[],
            Quality(2),
            Scheme::Avc,
            u64::MAX,
            &OosConfig::default(),
        );
        assert_eq!(choices.len(), grid.tile_count());
    }
}
