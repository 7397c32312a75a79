//! Client energy model.
//!
//! §2 cites power evaluations of 360° VR streaming on head-mounted
//! displays \[30\]; §3.5 names "limited computation and energy resources
//! on the client side" as the critical constraint. This model prices a
//! render configuration in joules so the Figure-5 optimizations can be
//! judged on battery life as well as FPS.

use crate::render::RenderStats;
use serde::{Deserialize, Serialize};

/// Per-operation energy costs of a device (millijoules).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyProfile {
    /// Decode energy per tile-frame, mJ.
    pub decode_mj_per_tile: f64,
    /// GPU draw energy per tile per rendered frame, mJ.
    pub draw_mj_per_tile: f64,
    /// Baseline platform power (display, sensors, OS), watts.
    pub base_watts: f64,
    /// Radio energy per megabyte downloaded, joules.
    pub radio_j_per_mb: f64,
    /// Battery capacity, joules (SGS7: 3000 mAh @ 3.85 V ≈ 41.6 kJ).
    pub battery_joules: f64,
}

impl EnergyProfile {
    /// Galaxy-S7-class constants.
    pub fn galaxy_s7() -> EnergyProfile {
        EnergyProfile {
            decode_mj_per_tile: 22.0,
            draw_mj_per_tile: 6.0,
            base_watts: 1.6,
            radio_j_per_mb: 0.9,
            battery_joules: 41_600.0,
        }
    }
}

/// Energy breakdown of a playback period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Decode energy, joules.
    pub decode_j: f64,
    /// Render energy, joules.
    pub render_j: f64,
    /// Baseline platform energy, joules.
    pub base_j: f64,
    /// Radio energy, joules.
    pub radio_j: f64,
    /// Total, joules.
    pub total_j: f64,
    /// Mean power, watts.
    pub mean_watts: f64,
    /// Projected playback hours on a full battery at this power.
    pub battery_hours: f64,
}

/// Price a render run plus its network traffic.
///
/// `tiles_rendered_per_frame` and `tiles_decoded_per_second` come from
/// the pipeline's configuration (all tiles vs FoV-only);
/// `bytes_downloaded` from the streaming session.
fn energy_of(
    profile: &EnergyProfile,
    stats: &RenderStats,
    tiles_rendered_per_frame: f64,
    tiles_decoded_per_second: f64,
    bytes_downloaded: u64,
) -> EnergyReport {
    let secs = stats.elapsed.as_secs_f64().max(1e-9);
    let decode_j = tiles_decoded_per_second * secs * profile.decode_mj_per_tile / 1000.0;
    let render_j =
        stats.frames as f64 * tiles_rendered_per_frame * profile.draw_mj_per_tile / 1000.0;
    let base_j = profile.base_watts * secs;
    let radio_j = bytes_downloaded as f64 / 1e6 * profile.radio_j_per_mb;
    let total_j = decode_j + render_j + base_j + radio_j;
    let mean_watts = total_j / secs;
    EnergyReport {
        decode_j,
        render_j,
        base_j,
        radio_j,
        total_j,
        mean_watts,
        battery_hours: profile.battery_joules / mean_watts / 3600.0,
    }
}

/// Convenience: energy of one Figure-5 configuration, assuming the
/// source-rate decode load implied by the mode.
pub fn energy_of_mode(
    profile: &EnergyProfile,
    stats: &RenderStats,
    mode: crate::render::RenderMode,
    grid_tiles: usize,
    visible_tiles: usize,
    source_fps: f64,
    bytes_downloaded: u64,
) -> EnergyReport {
    use crate::render::RenderMode;
    let (rendered, decoded_per_sec) = match mode {
        // Unoptimized: re-decodes every tile for every rendered frame.
        RenderMode::UnoptimizedAll => (grid_tiles as f64, grid_tiles as f64 * stats.fps),
        // Optimized: decodes at the source rate only.
        RenderMode::OptimizedAll => (grid_tiles as f64, grid_tiles as f64 * source_fps),
        RenderMode::OptimizedFov => (visible_tiles as f64, visible_tiles as f64 * source_fps),
    };
    energy_of(profile, stats, rendered, decoded_per_sec, bytes_downloaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{simulate_render, PipelineConfig, RenderMode};
    use crate::{DeviceProfile, SourceVideo};
    use sperke_geo::TileGrid;
    use sperke_hmp::HeadTrace;
    use sperke_sim::SimDuration;

    fn stats(mode: RenderMode) -> RenderStats {
        let trace = HeadTrace::from_fn(SimDuration::from_secs(10), |_| {
            sperke_geo::Orientation::FRONT
        });
        simulate_render(
            &DeviceProfile::galaxy_s7(),
            SourceVideo::two_k(),
            &TileGrid::sperke_prototype(),
            &trace,
            mode,
            &PipelineConfig::default(),
            SimDuration::from_secs(5),
        )
    }

    #[test]
    fn totals_add_up() {
        let profile = EnergyProfile::galaxy_s7();
        let s = stats(RenderMode::OptimizedAll);
        let e = energy_of(&profile, &s, 8.0, 240.0, 10_000_000);
        let sum = e.decode_j + e.render_j + e.base_j + e.radio_j;
        assert!((sum - e.total_j).abs() < 1e-9);
        assert!(e.mean_watts > profile.base_watts);
        assert!(
            e.battery_hours > 0.5 && e.battery_hours < 12.0,
            "{}",
            e.battery_hours
        );
    }

    #[test]
    fn fov_only_mode_saves_energy() {
        let profile = EnergyProfile::galaxy_s7();
        let grid = TileGrid::sperke_prototype();
        let all = stats(RenderMode::OptimizedAll);
        let fov = stats(RenderMode::OptimizedFov);
        let e_all = energy_of_mode(
            &profile,
            &all,
            RenderMode::OptimizedAll,
            grid.tile_count(),
            4,
            30.0,
            0,
        );
        let e_fov = energy_of_mode(
            &profile,
            &fov,
            RenderMode::OptimizedFov,
            grid.tile_count(),
            4,
            30.0,
            0,
        );
        // FoV-only renders faster (more frames) but decodes/draws fewer
        // tiles; per unit time it must still be cheaper on decode.
        assert!(e_fov.decode_j < e_all.decode_j);
        assert!(e_fov.battery_hours > e_all.battery_hours * 0.9);
    }

    #[test]
    fn unoptimized_mode_burns_decode_energy_per_rendered_frame() {
        let profile = EnergyProfile::galaxy_s7();
        let un = stats(RenderMode::UnoptimizedAll);
        let opt = stats(RenderMode::OptimizedAll);
        let grid = TileGrid::sperke_prototype();
        let e_un = energy_of_mode(
            &profile,
            &un,
            RenderMode::UnoptimizedAll,
            grid.tile_count(),
            4,
            30.0,
            0,
        );
        let e_opt = energy_of_mode(
            &profile,
            &opt,
            RenderMode::OptimizedAll,
            grid.tile_count(),
            4,
            30.0,
            0,
        );
        // Optimized decodes at the source rate (30 fps x 8 tiles =
        // 240/s); unoptimized re-decodes per rendered frame (11 fps x 8
        // = 88/s), so its decode power is actually lower — but it
        // delivers 5x fewer frames, so energy *per rendered frame* is
        // what suffers.
        let per_frame_un = e_un.total_j / un.frames as f64;
        let per_frame_opt = e_opt.total_j / opt.frames as f64;
        assert!(
            per_frame_un > per_frame_opt * 2.0,
            "unoptimized J/frame {per_frame_un:.4} vs optimized {per_frame_opt:.4}"
        );
    }

    #[test]
    fn radio_energy_scales_with_bytes() {
        let profile = EnergyProfile::galaxy_s7();
        let s = stats(RenderMode::OptimizedAll);
        let small = energy_of(&profile, &s, 8.0, 240.0, 1_000_000);
        let large = energy_of(&profile, &s, 8.0, 240.0, 100_000_000);
        assert!(large.radio_j > small.radio_j * 50.0);
    }
}
