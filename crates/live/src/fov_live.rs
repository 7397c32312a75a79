//! FoV-guided delivery for *live* viewers: the paper's end-state.
//!
//! §3.4.1 found that no commercial platform does FoV-guided live
//! delivery — "the broadcaster has always to upload full panoramic
//! views, which are then entirely delivered to the viewers". §3.4.2
//! proposes fixing the viewer side with crowd-sourced HMP: high-latency
//! viewers "experience challenging network conditions and thus can
//! benefit from FoV-guided streaming".
//!
//! [`run_fov_live`] plays one high-latency viewer through a live tiled
//! stream: at each chunk's fetch point it forecasts tiles (own motion +
//! the causally available crowd heatmap), selects chunks under the
//! downlink budget with the §3.2 stochastic optimizer, and scores what
//! the viewer actually saw against the FoV-agnostic baseline.

use crate::crowd::{CrowdAggregator, LiveViewer};
use serde::{Deserialize, Serialize};
use sperke_hmp::FusedForecaster;
use sperke_sim::{SimDuration, SimTime};
use sperke_video::{CellId, ChunkId, ChunkTime, Quality, Scheme, VideoModel};
use sperke_vra::{select_stochastic, DEFAULT_MIN_PROBABILITY};

/// Fraction of the downlink budget spent per chunk (headroom for
/// retries).
const BUDGET_SHARE: f64 = 0.9;

/// Parameters of the live FoV-guided session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FovLiveConfig {
    /// How long before a chunk's display the fetch decision is made
    /// (the viewer's buffer depth drives this — deep buffers mean long
    /// HMP horizons, the crowd's opportunity).
    pub fetch_lead: SimDuration,
    /// Downlink budget, bits/second.
    pub downlink_bps: f64,
}

impl Default for FovLiveConfig {
    fn default() -> Self {
        FovLiveConfig {
            fetch_lead: SimDuration::from_secs(4),
            downlink_bps: 8e6,
        }
    }
}

/// Result of one live FoV-guided session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FovLiveReport {
    /// Chunks played.
    pub chunks: u32,
    /// Bytes fetched by the FoV-guided viewer.
    pub bytes_fetched: u64,
    /// Bytes a FoV-agnostic delivery would need to give the whole
    /// panorama the viewport quality the guided viewer actually saw
    /// (the §2 savings accounting: same perceived quality, fewer bytes).
    pub bytes_agnostic: u64,
    /// 1 − guided/agnostic at matched viewport quality.
    pub savings: f64,
    /// Mean fraction of the viewport with no fetched tile.
    pub blank_fraction: f64,
    /// Mean utility over the displayed viewport.
    pub mean_viewport_utility: f64,
}

/// Play `viewer` through a live tiled stream of `video`.
///
/// `crowd` supplies the §3.4.2 realtime prior (pass an empty aggregator
/// for the motion-only ablation).
pub fn run_fov_live(
    video: &VideoModel,
    viewer: &LiveViewer,
    crowd: &CrowdAggregator,
    config: &FovLiveConfig,
) -> FovLiveReport {
    let cd = video.chunk_duration();
    let chunks = video.chunk_count();
    let budget = (config.downlink_bps * BUDGET_SHARE * cd.as_secs_f64() / 8.0) as u64;

    let mut bytes_fetched = 0u64;
    let mut blank_acc = 0.0;
    let mut util_acc = 0.0;
    let mut evaluated = 0u32;
    // Display visibility: one scratch and one list, reused every chunk.
    let mut vis_scratch = sperke_geo::VisibilityScratch::new();
    let mut visible = Vec::new();

    for c in 1..chunks {
        let t = ChunkTime(c);
        let video_time = SimTime::ZERO + cd * c as u64;
        let display_wall = video_time + viewer.latency;
        let decide_wall = SimTime::from_nanos(
            display_wall
                .as_nanos()
                .saturating_sub(config.fetch_lead.as_nanos()),
        );
        // The viewer's own gaze history stops at what they are watching
        // at decide time.
        let own_video_now = SimTime::from_nanos(
            decide_wall
                .as_nanos()
                .saturating_sub(viewer.latency.as_nanos()),
        );
        let history = viewer.trace.history(own_video_now, 50);
        let heatmap = crowd.heatmap_at(decide_wall, chunks);
        let forecaster = FusedForecaster::motion_only().with_heatmap(heatmap);
        let forecast = forecaster.forecast(video.grid(), &history, own_video_now, video_time, t);

        let choices = select_stochastic(
            video,
            &forecast,
            t,
            budget,
            Scheme::Avc,
            DEFAULT_MIN_PROBABILITY,
        );
        let mut buffered: std::collections::HashMap<CellId, Quality> =
            std::collections::HashMap::new();
        for ch in &choices {
            let id = ChunkId::new(ch.quality, ch.tile, t);
            bytes_fetched += video.chunk_bytes(id, Scheme::Avc);
            buffered.insert(CellId::new(ch.tile, t), ch.quality);
        }
        // Display: viewport at the chunk's midpoint.
        let gaze = viewer.trace.at(video_time + cd / 2);
        sperke_geo::Viewport::headset(gaze).visible_tiles_into(
            video.grid(),
            16,
            &mut vis_scratch,
            &mut visible,
        );
        let mut blank = 0.0;
        let mut util = 0.0;
        for &(tile, coverage) in visible.iter() {
            match buffered.get(&CellId::new(tile, t)) {
                Some(&q) => util += coverage * video.ladder().utility(q),
                None => blank += coverage,
            }
        }
        blank_acc += blank;
        util_acc += util;
        evaluated += 1;
    }

    let n = evaluated.max(1) as f64;
    let mean_utility = util_acc / n;
    // Matched-quality baseline: the cheapest ladder level whose utility
    // covers what the guided viewer saw, delivered panorama-wide.
    let matched_q = video
        .ladder()
        .qualities()
        .find(|&q| video.ladder().utility(q) >= mean_utility)
        .unwrap_or_else(|| video.ladder().top());
    let bytes_agnostic: u64 = (1..chunks)
        .map(|c| video.panorama_bytes(matched_q, ChunkTime(c), Scheme::Avc))
        .sum();
    FovLiveReport {
        chunks: evaluated,
        bytes_fetched,
        bytes_agnostic,
        savings: if bytes_agnostic > 0 {
            1.0 - bytes_fetched as f64 / bytes_agnostic as f64
        } else {
            0.0
        },
        blank_fraction: blank_acc / n,
        mean_viewport_utility: mean_utility,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::TileGrid;
    use sperke_hmp::{generate_ensemble, AttentionModel};
    use sperke_video::VideoModelBuilder;

    fn setup(seed: u64) -> (VideoModel, Vec<LiveViewer>, LiveViewer) {
        let video = VideoModelBuilder::new(seed)
            .duration(SimDuration::from_secs(30))
            .grid(TileGrid::new(4, 6))
            .build();
        let att = AttentionModel::sports(seed);
        let traces = generate_ensemble(&att, 9, SimDuration::from_secs(35), seed);
        let mut it = traces.into_iter();
        let lows: Vec<LiveViewer> = (0..8)
            .map(|i| LiveViewer {
                trace: it.next().expect("traces"),
                latency: SimDuration::from_secs(8 + i % 3),
            })
            .collect();
        let high = LiveViewer {
            trace: it.next().expect("one more"),
            latency: SimDuration::from_secs(30),
        };
        (video, lows, high)
    }

    fn crowd_for(video: &VideoModel, lows: &[LiveViewer]) -> CrowdAggregator {
        let mut agg = CrowdAggregator::new(*video.grid(), video.chunk_duration());
        for v in lows {
            agg.ingest(v, video.chunk_count());
        }
        agg
    }

    #[test]
    fn guided_live_saves_bandwidth() {
        let (video, lows, high) = setup(5);
        let crowd = crowd_for(&video, &lows);
        let r = run_fov_live(&video, &high, &crowd, &FovLiveConfig::default());
        assert!(
            r.savings > 0.2,
            "FoV-guided live should save vs full panorama, got {:.0}%",
            r.savings * 100.0
        );
        assert!(r.blank_fraction < 0.35, "blank {:.2}", r.blank_fraction);
    }

    #[test]
    fn crowd_prior_reduces_blanks_at_long_leads() {
        // Averaged over seeds: the crowd prior must help the deep-buffer
        // viewer somewhere, and never catastrophically hurt.
        let mut with_acc = 0.0;
        let mut without_acc = 0.0;
        for seed in [5u64, 11, 23] {
            let (video, lows, high) = setup(seed);
            let crowd = crowd_for(&video, &lows);
            let empty = CrowdAggregator::new(*video.grid(), video.chunk_duration());
            let cfg = FovLiveConfig::default();
            with_acc += run_fov_live(&video, &high, &crowd, &cfg).blank_fraction;
            without_acc += run_fov_live(&video, &high, &empty, &cfg).blank_fraction;
        }
        assert!(
            with_acc <= without_acc + 0.03,
            "crowd prior must not raise blanks: {with_acc:.3} vs {without_acc:.3}"
        );
    }

    #[test]
    fn bigger_budget_improves_quality() {
        let (video, lows, high) = setup(7);
        let crowd = crowd_for(&video, &lows);
        let lean = run_fov_live(
            &video,
            &high,
            &crowd,
            &FovLiveConfig {
                downlink_bps: 4e6,
                ..Default::default()
            },
        );
        let rich = run_fov_live(
            &video,
            &high,
            &crowd,
            &FovLiveConfig {
                downlink_bps: 20e6,
                ..Default::default()
            },
        );
        assert!(rich.mean_viewport_utility > lean.mean_viewport_utility);
        assert!(rich.bytes_fetched > lean.bytes_fetched);
    }

    #[test]
    fn report_is_deterministic() {
        let (video, lows, high) = setup(9);
        let crowd = crowd_for(&video, &lows);
        let cfg = FovLiveConfig::default();
        assert_eq!(
            run_fov_live(&video, &high, &crowd, &cfg),
            run_fov_live(&video, &high, &crowd, &cfg)
        );
    }
}
