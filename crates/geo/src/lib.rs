//! # sperke-geo — spherical geometry for panoramic video
//!
//! Everything spatial in Sperke: view [`Orientation`]s (the paper's
//! Figure 1 yaw/pitch/roll), sphere→plane [`projection`]s
//! (equirectangular and cube map, §2), the [`TileGrid`] spatial
//! segmentation used by tiling-based FoV-guided streaming, and the
//! [`Viewport`] frustum that decides which tiles a user actually sees.
//!
//! ```
//! use sperke_geo::{Orientation, TileGrid, Viewport};
//!
//! let grid = TileGrid::new(4, 6);
//! let vp = Viewport::headset(Orientation::from_degrees(30.0, 10.0, 0.0));
//! let visible = vp.visible_tiles(&grid, 16);
//! assert!(!visible.is_empty());
//! let screen_share: f64 = visible.iter().map(|&(_, f)| f).sum();
//! assert!((screen_share - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod angles;
pub mod classifier;
pub mod orientation;
pub mod projection;
pub mod sampling;
pub mod tiling;
pub mod vector;
pub mod viewport;
pub mod viscache;

pub use classifier::TileClassifier;
pub use orientation::Orientation;
pub use projection::{CubeFace, CubeMap, Equirect, OffsetCubeMap, PixelBudget, Uv};
pub use sampling::UnitDirections;
pub use tiling::{TileCenters, TileGrid, TileId, TileRect};
pub use vector::Vec3;
pub use viewport::{Viewport, VisibilityScratch};
pub use viscache::{VisCacheStats, VisibilityCache};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    proptest! {
        /// Equirect project/unproject round-trips for any direction.
        #[test]
        fn equirect_roundtrip(yaw in -PI..PI, pitch in -FRAC_PI_2 * 0.999..FRAC_PI_2 * 0.999) {
            let d = Orientation::new(yaw, pitch, 0.0).direction();
            let back = Equirect::unproject(Equirect::project(d));
            prop_assert!((d - back).norm() < 1e-9);
        }

        /// Cube map project/unproject round-trips for any direction.
        #[test]
        fn cubemap_roundtrip(yaw in -PI..PI, pitch in -FRAC_PI_2 * 0.999..FRAC_PI_2 * 0.999) {
            let d = Orientation::new(yaw, pitch, 0.0).direction();
            let (face, uv) = CubeMap::project(d);
            prop_assert!((d - CubeMap::unproject(face, uv)).norm() < 1e-9);
        }

        /// Every direction lands in exactly one tile whose rect contains it.
        #[test]
        fn tiling_partitions_sphere(
            yaw in -PI..PI,
            pitch in -FRAC_PI_2 * 0.999..FRAC_PI_2 * 0.999,
            rows in 1u16..8,
            cols in 1u16..12,
        ) {
            let g = TileGrid::new(rows, cols);
            let d = Orientation::new(yaw, pitch, 0.0).direction();
            let t = g.tile_of_direction(d);
            let r = g.rect(t);
            prop_assert!(yaw >= r.yaw_min - 1e-9 && yaw <= r.yaw_max + 1e-9);
            prop_assert!(pitch >= r.pitch_min - 1e-9 && pitch <= r.pitch_max + 1e-9);
        }

        /// The viewport always contains its own centre ray, and visible
        /// coverage fractions sum to 1.
        #[test]
        fn viewport_center_visible(
            yaw in -PI..PI,
            pitch in -1.2f64..1.2,
            roll in -0.5f64..0.5,
        ) {
            let o = Orientation::new(yaw, pitch, roll);
            let vp = Viewport::headset(o);
            prop_assert!(vp.contains(o.direction()));
            let grid = TileGrid::new(4, 6);
            let vis = vp.visible_tiles(&grid, 12);
            let sum: f64 = vis.iter().map(|&(_, f)| f).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            // The tile under the gaze centre must be in the visible set.
            let center_tile = grid.tile_of_direction(o.direction());
            prop_assert!(vis.iter().any(|&(t, _)| t == center_tile));
        }

        /// Angular distance is symmetric and zero on self.
        #[test]
        fn angular_distance_symmetry(
            y1 in -PI..PI, p1 in -1.5f64..1.5,
            y2 in -PI..PI, p2 in -1.5f64..1.5,
        ) {
            let a = Orientation::new(y1, p1, 0.0);
            let b = Orientation::new(y2, p2, 0.0);
            // acos loses precision near antipodal pairs; 1e-7 rad is
            // far below any angular quantity the system cares about.
            prop_assert!((a.angular_distance(&b) - b.angular_distance(&a)).abs() < 1e-7);
            prop_assert!(a.angular_distance(&a) < 1e-7);
        }
    }
}
