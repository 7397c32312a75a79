//! Device cost profiles for the client pipeline (§3.5).
//!
//! The paper's prototype runs on Samsung Galaxy phones: "8 H.264
//! decoders for Samsung Galaxy S5 and 16 for Samsung Galaxy S7" (the
//! measured Figure 5 numbers use 8 parallel decoders on an SGS7).
//! Costs below are calibrated so the simulated pipeline reproduces
//! Figure 5's 11 / 53 / 120 FPS shape on a 2K, 2×4-tile video.

use serde::{Deserialize, Serialize};
use sperke_sim::SimDuration;

/// Hardware cost model of a playback device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Display name.
    pub name: String,
    /// Number of hardware decoder instances usable in parallel.
    pub hw_decoders: usize,
    /// Per-tile-frame decode cost: fixed part.
    pub decode_base_ms: f64,
    /// Per-tile-frame decode cost: per megapixel of the tile.
    pub decode_ms_per_mp: f64,
    /// GPU draw cost per tile per rendered frame (bind + draw + sample).
    pub draw_ms_per_tile: f64,
    /// Fixed per-frame projection/display overhead.
    pub projection_ms: f64,
    /// Display refresh cap in frames/second, if the compositor enforces
    /// one (`None` = uncapped measurement, as in the paper's Figure 5).
    pub vsync_cap: Option<f64>,
}

impl DeviceProfile {
    /// Samsung Galaxy S7 (the Figure 5 device), 8 decoders engaged.
    pub fn galaxy_s7() -> DeviceProfile {
        DeviceProfile {
            name: "galaxy-s7".into(),
            hw_decoders: 8,
            decode_base_ms: 1.2,
            decode_ms_per_mp: 17.0,
            draw_ms_per_tile: 2.2,
            projection_ms: 1.0,
            vsync_cap: None,
        }
    }

    /// Samsung Galaxy S5: fewer decoders, slower GPU.
    pub fn galaxy_s5() -> DeviceProfile {
        DeviceProfile {
            name: "galaxy-s5".into(),
            hw_decoders: 8,
            decode_base_ms: 2.0,
            decode_ms_per_mp: 26.0,
            draw_ms_per_tile: 3.4,
            projection_ms: 1.6,
            vsync_cap: None,
        }
    }

    /// Decode time of one tile frame of `tile_mp` megapixels.
    pub fn decode_time(&self, tile_mp: f64) -> SimDuration {
        SimDuration::from_secs_f64((self.decode_base_ms + self.decode_ms_per_mp * tile_mp) / 1000.0)
    }

    /// Draw time for `tiles` tiles plus projection.
    pub fn render_time(&self, tiles: usize) -> SimDuration {
        SimDuration::from_secs_f64(
            (self.draw_ms_per_tile * tiles as f64 + self.projection_ms) / 1000.0,
        )
    }

    /// Restrict to `n` decoders (ablation E12).
    pub fn with_decoders(mut self, n: usize) -> DeviceProfile {
        assert!(n > 0, "need at least one decoder");
        self.hw_decoders = n;
        self
    }
}

/// The source video the pipeline decodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceVideo {
    /// Total panorama pixels, megapixels (2K ≈ 2560×1440 ≈ 3.7 MP).
    pub megapixels: f64,
    /// Source frame rate.
    pub fps: f64,
}

impl SourceVideo {
    /// The paper's 2K test clip at 30 fps.
    pub fn two_k() -> SourceVideo {
        SourceVideo {
            megapixels: 2560.0 * 1440.0 / 1e6,
            fps: 30.0,
        }
    }

    /// Megapixels of one tile under an `n`-tile grid.
    pub fn tile_mp(&self, tiles: usize) -> f64 {
        assert!(tiles > 0);
        self.megapixels / tiles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_time_scales_with_resolution() {
        let d = DeviceProfile::galaxy_s7();
        let small = d.decode_time(0.1);
        let big = d.decode_time(1.0);
        assert!(big > small);
        // 2K/8 tiles ≈ 0.46 MP → ~9 ms.
        let t = d.decode_time(SourceVideo::two_k().tile_mp(8));
        assert!((t.as_secs_f64() * 1000.0 - 9.0).abs() < 1.0, "{t}");
    }

    #[test]
    fn render_time_scales_with_tiles() {
        let d = DeviceProfile::galaxy_s7();
        assert!(d.render_time(8) > d.render_time(3));
        // 8 tiles: 8*2.2 + 1.0 = 18.6 ms → ~54 fps.
        assert!((d.render_time(8).as_secs_f64() * 1000.0 - 18.6).abs() < 1e-9);
    }

    #[test]
    fn s5_slower_than_s7() {
        let mp = SourceVideo::two_k().tile_mp(8);
        assert!(
            DeviceProfile::galaxy_s5().decode_time(mp) > DeviceProfile::galaxy_s7().decode_time(mp)
        );
    }

    #[test]
    fn with_decoders_overrides() {
        let d = DeviceProfile::galaxy_s7().with_decoders(2);
        assert_eq!(d.hw_decoders, 2);
    }

    #[test]
    #[should_panic]
    fn zero_decoders_rejected() {
        DeviceProfile::galaxy_s7().with_decoders(0);
    }

    #[test]
    fn two_k_is_about_3_7_mp() {
        let v = SourceVideo::two_k();
        assert!((v.megapixels - 3.686).abs() < 0.01);
        assert!((v.tile_mp(8) - 0.4608).abs() < 0.001);
    }
}
