//! The render loop: reproduces Figure 5.
//!
//! Three configurations, exactly the paper's bars:
//!
//! 1. *Render all tiles w/o optimization* — one decoder, no decoded-frame
//!    cache: every rendered frame synchronously re-decodes every tile.
//! 2. *Render all tiles with optimization* — N parallel decoders filling
//!    the decoded-frame cache; the render loop only draws.
//! 3. *Render only FoV tiles with optimization* — additionally draws (and
//!    decodes) only the tiles the viewer can see, steered by the HMP.

use crate::cache::{DecodedFrameCache, FrameKey};
use crate::device::{DeviceProfile, SourceVideo};
use crate::scheduler::DecoderPool;
use serde::{Deserialize, Serialize};
use sperke_geo::{TileGrid, TileId, Viewport, VisibilityScratch};
use sperke_hmp::HeadTrace;
use sperke_sim::{SimDuration, SimTime};

/// The three Figure-5 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RenderMode {
    /// Bar 1: all tiles, single synchronous decoder, no cache.
    UnoptimizedAll,
    /// Bar 2: all tiles, parallel decoders + decoded-frame cache.
    OptimizedAll,
    /// Bar 3: FoV tiles only, parallel decoders + cache.
    OptimizedFov,
}

impl RenderMode {
    /// All modes, in Figure 5 order.
    pub const ALL: [RenderMode; 3] = [
        RenderMode::UnoptimizedAll,
        RenderMode::OptimizedAll,
        RenderMode::OptimizedFov,
    ];

    /// The paper's bar label.
    pub fn label(self) -> &'static str {
        match self {
            RenderMode::UnoptimizedAll => "render all tiles w/o optimization",
            RenderMode::OptimizedAll => "render all tiles with optimization",
            RenderMode::OptimizedFov => "render only FoV tiles with optimization",
        }
    }
}

/// How many source frames ahead the scheduler prefetches.
const PREFETCH_FRAMES: u64 = 2;

/// Pipeline configuration beyond the mode (for ablations, E12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Decoded-frame cache capacity in tile frames (0 disables).
    pub cache_capacity: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { cache_capacity: 64 }
    }
}

/// Render-loop measurement result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RenderStats {
    /// Frames rendered.
    pub frames: u64,
    /// Wall time simulated.
    pub elapsed: SimDuration,
    /// Achieved frames per second.
    pub fps: f64,
    /// Decoded-frame cache hit rate.
    pub cache_hit_rate: f64,
    /// Mean decoder utilization.
    pub decoder_utilization: f64,
    /// Total time the render loop stalled waiting for decoders.
    pub decode_stall: SimDuration,
}

/// Simulate the render loop for `duration` of wall time.
pub fn simulate_render(
    device: &DeviceProfile,
    video: SourceVideo,
    grid: &TileGrid,
    trace: &HeadTrace,
    mode: RenderMode,
    config: &PipelineConfig,
    duration: SimDuration,
) -> RenderStats {
    let (decoders, cache_capacity) = match mode {
        RenderMode::UnoptimizedAll => (1, 0),
        RenderMode::OptimizedAll | RenderMode::OptimizedFov => {
            (device.hw_decoders, config.cache_capacity)
        }
    };
    let mut pool = DecoderPool::new(decoders);
    let mut cache = DecodedFrameCache::new(cache_capacity);
    let mut vis_scratch = VisibilityScratch::new();
    let decode_time = device.decode_time(video.tile_mp(grid.tile_count()));
    let frame_period = SimDuration::from_secs_f64(1.0 / video.fps);

    let mut now = SimTime::ZERO;
    let mut frames = 0u64;
    let mut decode_stall = SimDuration::ZERO;
    let mut prefetched_through: i64 = -1;
    // When each submitted decode actually lands: cache residency alone
    // is not enough — a prefetched frame is unusable until its decoder
    // finishes.
    let mut decoded_at: std::collections::HashMap<FrameKey, SimTime> =
        std::collections::HashMap::new();
    // The tiles this frame draws: the whole grid, or in FoV mode the
    // current viewport's set, cast once per frame.
    let mut needed: Vec<TileId> = grid.tiles().collect();

    let end = SimTime::ZERO + duration;
    while now < end {
        let source_frame = now.as_nanos() / frame_period.as_nanos();
        if mode == RenderMode::OptimizedFov {
            Viewport::headset(trace.at(now)).visible_tile_set_into(
                grid,
                &mut vis_scratch,
                &mut needed,
            );
        }

        // Decode whatever the current frame still misses; even cached
        // (prefetched) tiles gate on their decode completion time.
        let mut ready_at = now;
        for &tile in &needed {
            let key = FrameKey {
                frame: source_frame,
                tile,
            };
            if !cache.lookup(key) {
                let completion = pool.submit(key, now, decode_time);
                cache.insert(key);
                decoded_at.insert(key, completion.finished);
                ready_at = ready_at.max(completion.finished);
            } else if let Some(&done) = decoded_at.get(&key) {
                ready_at = ready_at.max(done);
            }
        }
        if ready_at > now {
            decode_stall += ready_at - now;
        }

        // Prefetch upcoming source frames so decoders stay warm
        // (the decoding scheduler's "playback time and HMP" policy).
        if cache_capacity > 0 {
            let horizon = source_frame + PREFETCH_FRAMES;
            while prefetched_through < horizon as i64 {
                let f = (prefetched_through + 1) as u64;
                // HMP steer: in FoV mode, prefetch only tiles plausibly
                // visible soon (this frame's visible set; the margin
                // comes from re-checks every rendered frame).
                for &tile in &needed {
                    let key = FrameKey { frame: f, tile };
                    if !cache.contains(key) {
                        let completion = pool.submit(key, now, decode_time);
                        cache.insert(key);
                        decoded_at.insert(key, completion.finished);
                    }
                }
                prefetched_through += 1;
            }
        }

        // Draw.
        let draw_done = ready_at + device.render_time(needed.len());
        let mut next = draw_done;
        if let Some(cap) = device.vsync_cap {
            next = next.max(now + SimDuration::from_secs_f64(1.0 / cap));
        }
        now = next;
        frames += 1;
        cache.evict_before(source_frame.saturating_sub(1));
        decoded_at.retain(|k, _| k.frame + 1 >= source_frame);
    }

    let elapsed = now.saturating_since(SimTime::ZERO);
    RenderStats {
        frames,
        elapsed,
        fps: frames as f64 / elapsed.as_secs_f64(),
        cache_hit_rate: cache.stats().hit_rate(),
        decoder_utilization: pool.utilization(elapsed),
        decode_stall,
    }
}

/// Run all three Figure-5 configurations.
pub fn figure5(
    device: &DeviceProfile,
    video: SourceVideo,
    grid: &TileGrid,
    trace: &HeadTrace,
    duration: SimDuration,
) -> [(RenderMode, RenderStats); 3] {
    let config = PipelineConfig::default();
    RenderMode::ALL.map(|mode| {
        (
            mode,
            simulate_render(device, video, grid, trace, mode, &config, duration),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::Orientation;

    fn still_trace() -> HeadTrace {
        HeadTrace::from_fn(SimDuration::from_secs(20), |_| Orientation::FRONT)
    }

    fn slow_pan_trace() -> HeadTrace {
        HeadTrace::from_fn(SimDuration::from_secs(20), |t| {
            Orientation::new(0.3 * t.as_secs_f64(), 0.0, 0.0)
        })
    }

    fn fig5_setup() -> (DeviceProfile, SourceVideo, TileGrid) {
        (
            DeviceProfile::galaxy_s7(),
            SourceVideo::two_k(),
            TileGrid::sperke_prototype(),
        )
    }

    #[test]
    fn figure5_shape_holds() {
        let (device, video, grid) = fig5_setup();
        let trace = slow_pan_trace();
        let results = figure5(&device, video, &grid, &trace, SimDuration::from_secs(10));
        let fps: Vec<f64> = results.iter().map(|(_, s)| s.fps).collect();
        // Paper: 11 → 53 → 120. Require the shape and the ballpark.
        assert!(
            (8.0..16.0).contains(&fps[0]),
            "unoptimized ≈ 11 FPS, got {:.1}",
            fps[0]
        );
        assert!(
            (40.0..70.0).contains(&fps[1]),
            "optimized-all ≈ 53 FPS, got {:.1}",
            fps[1]
        );
        assert!(
            (85.0..180.0).contains(&fps[2]),
            "FoV-only ≈ 120 FPS, got {:.1}",
            fps[2]
        );
        assert!(fps[0] * 3.0 < fps[1], "optimization must be a big jump");
        assert!(fps[1] * 1.5 < fps[2], "FoV-only must be another big jump");
    }

    #[test]
    fn cache_hit_rate_high_when_optimized() {
        let (device, video, grid) = fig5_setup();
        let trace = still_trace();
        let s = simulate_render(
            &device,
            video,
            &grid,
            &trace,
            RenderMode::OptimizedAll,
            &PipelineConfig::default(),
            SimDuration::from_secs(5),
        );
        // Rendering at ~54 fps over 30 fps source: most lookups hit.
        assert!(s.cache_hit_rate > 0.5, "hit rate {}", s.cache_hit_rate);
        assert!(s.decode_stall.as_secs_f64() < 0.5);
    }

    #[test]
    fn unoptimized_mode_never_hits_cache() {
        let (device, video, grid) = fig5_setup();
        let trace = still_trace();
        let s = simulate_render(
            &device,
            video,
            &grid,
            &trace,
            RenderMode::UnoptimizedAll,
            &PipelineConfig::default(),
            SimDuration::from_secs(3),
        );
        assert_eq!(s.cache_hit_rate, 0.0);
    }

    #[test]
    fn more_decoders_help_until_render_bound() {
        let (device, video, grid) = fig5_setup();
        let trace = still_trace();
        let fps_with = |n: usize| {
            simulate_render(
                &device.clone().with_decoders(n),
                video,
                &grid,
                &trace,
                RenderMode::OptimizedAll,
                &PipelineConfig::default(),
                SimDuration::from_secs(5),
            )
            .fps
        };
        let one = fps_with(1);
        let four = fps_with(4);
        let eight = fps_with(8);
        let sixteen = fps_with(16);
        assert!(
            four > one,
            "decoder parallelism helps: {one:.1} -> {four:.1}"
        );
        assert!(eight >= four * 0.99);
        // Past saturation, extra decoders don't help much.
        assert!(sixteen < eight * 1.2, "{eight:.1} -> {sixteen:.1}");
    }

    #[test]
    fn vsync_caps_fps() {
        let (mut device, video, grid) = fig5_setup();
        device.vsync_cap = Some(60.0);
        let trace = still_trace();
        let s = simulate_render(
            &device,
            video,
            &grid,
            &trace,
            RenderMode::OptimizedFov,
            &PipelineConfig::default(),
            SimDuration::from_secs(5),
        );
        assert!(s.fps <= 60.5, "capped at 60, got {:.1}", s.fps);
    }

    #[test]
    fn four_k_is_slower_than_two_k() {
        let (device, _, grid) = fig5_setup();
        let trace = still_trace();
        let run = |v: SourceVideo| {
            simulate_render(
                &device,
                v,
                &grid,
                &trace,
                RenderMode::UnoptimizedAll,
                &PipelineConfig::default(),
                SimDuration::from_secs(3),
            )
            .fps
        };
        let four_k = SourceVideo {
            megapixels: 3840.0 * 2160.0 / 1e6,
            fps: 30.0,
        };
        assert!(run(four_k) < run(SourceVideo::two_k()));
    }

    #[test]
    fn fov_shift_reuses_cached_tiles() {
        // The §3.5 claim: with the decoded-frame cache, an HMP miss only
        // costs the "delta" tiles. A panning viewer in FoV mode should
        // still see a high cache hit rate.
        let (device, video, grid) = fig5_setup();
        let trace = slow_pan_trace();
        let s = simulate_render(
            &device,
            video,
            &grid,
            &trace,
            RenderMode::OptimizedFov,
            &PipelineConfig::default(),
            SimDuration::from_secs(10),
        );
        assert!(s.cache_hit_rate > 0.6, "hit rate {}", s.cache_hit_rate);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (device, video, grid) = fig5_setup();
        let trace = still_trace();
        let s = simulate_render(
            &device,
            video,
            &grid,
            &trace,
            RenderMode::OptimizedAll,
            &PipelineConfig::default(),
            SimDuration::from_secs(4),
        );
        assert!(s.frames > 0);
        assert!(s.elapsed >= SimDuration::from_secs(4));
        assert!((s.fps - s.frames as f64 / s.elapsed.as_secs_f64()).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&s.decoder_utilization));
    }
}
