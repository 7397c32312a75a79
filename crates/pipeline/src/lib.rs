//! # sperke-pipeline — the client decode/render pipeline (§3.5)
//!
//! A cost-model simulation of the Sperke prototype's playback path:
//! parallel hardware decoders ([`DecoderPool`]), the OpenGL-FBO
//! decoded-frame cache ([`DecodedFrameCache`]), and the render loop
//! ([`simulate_render`]) measured under the three configurations of the
//! paper's Figure 5 ([`figure5`]): 11 FPS without optimization, ~53 FPS
//! with parallel decoding + caching, ~120 FPS rendering only FoV tiles.
//!
//! ```
//! use sperke_pipeline::{figure5, DeviceProfile, SourceVideo};
//! use sperke_geo::{Orientation, TileGrid};
//! use sperke_hmp::HeadTrace;
//! use sperke_sim::SimDuration;
//!
//! let trace = HeadTrace::from_fn(SimDuration::from_secs(5), |_| Orientation::FRONT);
//! let results = figure5(
//!     &DeviceProfile::galaxy_s7(),
//!     SourceVideo::two_k(),
//!     &TileGrid::sperke_prototype(),
//!     &trace,
//!     SimDuration::from_secs(3),
//! );
//! assert!(results[0].1.fps < results[1].1.fps);
//! assert!(results[1].1.fps < results[2].1.fps);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod device;
pub mod energy;
pub mod render;
pub mod scheduler;

pub use cache::{CacheStats, DecodedFrameCache, FrameKey};
pub use device::{DeviceProfile, SourceVideo};
pub use energy::{energy_of_mode, EnergyProfile, EnergyReport};
pub use render::{figure5, simulate_render, PipelineConfig, RenderMode, RenderStats};
pub use scheduler::{DecodeCompletion, DecoderPool};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sperke_geo::{Orientation, TileGrid};
    use sperke_hmp::HeadTrace;
    use sperke_sim::{SimDuration, SimTime};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// FPS is always positive and consistent with frames/elapsed,
        /// for any device scaling and mode.
        #[test]
        fn render_stats_sane(
            decoders in 1usize..16,
            mode_idx in 0usize..3,
            rows in 1u16..4,
            cols in 2u16..8,
        ) {
            let device = DeviceProfile::galaxy_s7().with_decoders(decoders);
            let grid = TileGrid::new(rows, cols);
            let trace = HeadTrace::from_fn(SimDuration::from_secs(5), |t| {
                Orientation::new(0.2 * t.as_secs_f64(), 0.0, 0.0)
            });
            let stats = simulate_render(
                &device,
                SourceVideo::two_k(),
                &grid,
                &trace,
                RenderMode::ALL[mode_idx],
                &PipelineConfig::default(),
                SimDuration::from_secs(2),
            );
            prop_assert!(stats.fps > 0.0);
            prop_assert!(stats.frames > 0);
            prop_assert!((0.0..=1.0).contains(&stats.cache_hit_rate));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&stats.decoder_utilization));
        }

        /// The decoder pool conserves work: batch makespan equals
        /// ceil(jobs / decoders) * job duration for uniform jobs.
        #[test]
        fn pool_makespan_formula(n in 1usize..12, jobs in 1usize..40) {
            let mut pool = DecoderPool::new(n);
            let d = SimDuration::from_millis(7);
            let makespan = (0..jobs)
                .map(|i| pool.submit(
                    FrameKey { frame: 0, tile: sperke_geo::TileId(i as u16) },
                    SimTime::ZERO, d).finished)
                .max()
                .unwrap();
            let expect = d * jobs.div_ceil(n) as u64;
            prop_assert_eq!(makespan, SimTime::ZERO + expect);
        }
    }
}
