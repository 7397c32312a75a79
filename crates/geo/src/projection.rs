//! Sphere-to-plane projections used by 360° platforms.
//!
//! The paper (§2) names two deployed schemes: **equirectangular**
//! (YouTube) and **cube map** (Facebook). Both are implemented as exact
//! direction ↔ texture-coordinate mappings, plus the pixel-efficiency
//! model used by experiment E9 (the "360° videos are ~5× larger" claim).

use crate::vector::Vec3;
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// Normalized texture coordinates in `[0,1) × [0,1]`.
///
/// `u` increases with yaw (longitude), `v` from top (v=0, pitch +90°) to
/// bottom (v=1, pitch −90°).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uv {
    /// Horizontal coordinate, `[0,1)`.
    pub u: f64,
    /// Vertical coordinate, `[0,1]`.
    pub v: f64,
}

/// Equirectangular projection: longitude/latitude mapped linearly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Equirect;

impl Equirect {
    /// Project a unit direction to texture coordinates.
    pub fn project(dir: Vec3) -> Uv {
        let d = dir.normalized();
        let yaw = d.y.atan2(d.x); // [-π, π]
        let pitch = d.z.clamp(-1.0, 1.0).asin(); // [-π/2, π/2]
        let mut u = (yaw + PI) / TAU;
        if u >= 1.0 {
            u -= 1.0;
        }
        let v = (FRAC_PI_2 - pitch) / PI;
        Uv { u, v }
    }

    /// Inverse projection: texture coordinates to a unit direction (the
    /// round-trip tests' reference).
    #[cfg(test)]
    pub(crate) fn unproject(uv: Uv) -> Vec3 {
        let yaw = uv.u * TAU - PI;
        let pitch = FRAC_PI_2 - uv.v * PI;
        let cp = pitch.cos();
        Vec3::new(cp * yaw.cos(), cp * yaw.sin(), pitch.sin())
    }
}

/// The six cube-map faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CubeFace {
    /// +X (front).
    Front,
    /// −X (back).
    Back,
    /// +Y (left).
    Left,
    /// −Y (right).
    Right,
    /// +Z (top).
    Top,
    /// −Z (bottom).
    Bottom,
}

impl CubeFace {
    /// All faces in a fixed order.
    pub const ALL: [CubeFace; 6] = [
        CubeFace::Front,
        CubeFace::Back,
        CubeFace::Left,
        CubeFace::Right,
        CubeFace::Top,
        CubeFace::Bottom,
    ];
}

/// Cube-map projection (Facebook's layout, §2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CubeMap;

impl CubeMap {
    /// Project a unit direction to `(face, uv)` with `uv` in `[0,1]²`.
    pub fn project(dir: Vec3) -> (CubeFace, Uv) {
        let d = dir.normalized();
        let (ax, ay, az) = (d.x.abs(), d.y.abs(), d.z.abs());
        // Select dominant axis; map the other two onto the face plane.
        let (face, a, b, m) = if ax >= ay && ax >= az {
            if d.x > 0.0 {
                (CubeFace::Front, d.y, d.z, ax)
            } else {
                (CubeFace::Back, -d.y, d.z, ax)
            }
        } else if ay >= ax && ay >= az {
            if d.y > 0.0 {
                (CubeFace::Left, -d.x, d.z, ay)
            } else {
                (CubeFace::Right, d.x, d.z, ay)
            }
        } else if d.z > 0.0 {
            (CubeFace::Top, d.y, -d.x, az)
        } else {
            (CubeFace::Bottom, d.y, d.x, az)
        };
        let u = (a / m + 1.0) / 2.0;
        let v = (1.0 - b / m) / 2.0;
        (face, Uv { u, v })
    }

    /// Inverse projection: `(face, uv)` back to a unit direction (the
    /// round-trip tests' reference).
    #[cfg(test)]
    pub(crate) fn unproject(face: CubeFace, uv: Uv) -> Vec3 {
        let a = uv.u * 2.0 - 1.0;
        let b = 1.0 - uv.v * 2.0;
        let v = match face {
            CubeFace::Front => Vec3::new(1.0, a, b),
            CubeFace::Back => Vec3::new(-1.0, -a, b),
            CubeFace::Left => Vec3::new(-a, 1.0, b),
            CubeFace::Right => Vec3::new(a, -1.0, b),
            CubeFace::Top => Vec3::new(-b, a, 1.0),
            CubeFace::Bottom => Vec3::new(b, a, -1.0),
        };
        v.normalized()
    }
}

/// Offset cube map: Oculus's projection (the one requiring up to 88
/// versions, §2). The sphere is warped toward a preferred direction
/// before cube-mapping, so pixels concentrate where the version expects
/// the viewer to look. The warp moves a direction `d` to
/// `normalize(d - k·f)` where `f` is the focus direction and
/// `k ∈ [0, 1)` the offset strength; the inverse solves the quadratic
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffsetCubeMap {
    /// The direction pixel density is biased toward.
    pub focus: Vec3,
    /// Offset strength in `[0, 1)`; 0 degenerates to a plain cube map.
    pub offset: f64,
}

impl OffsetCubeMap {
    /// Construct; panics outside the valid offset range.
    pub fn new(focus: Vec3, offset: f64) -> OffsetCubeMap {
        assert!((0.0..1.0).contains(&offset), "offset must be in [0,1)");
        OffsetCubeMap {
            focus: focus.normalized(),
            offset,
        }
    }

    /// Oculus's published configuration (~0.7 toward the focus).
    pub fn oculus(focus: Vec3) -> OffsetCubeMap {
        OffsetCubeMap::new(focus, 0.7)
    }

    /// Warp a world direction into the offset space.
    fn warp(&self, dir: Vec3) -> Vec3 {
        (dir.normalized() - self.focus * self.offset).normalized()
    }

    /// Invert the warp: recover the world direction whose warp is `w`.
    #[cfg(test)]
    fn unwarp(&self, w: Vec3) -> Vec3 {
        // Solve |w·t + k·f| = 1 for t > 0: the original direction is
        // d = w·t + k·f with t chosen so d is unit length.
        let w = w.normalized();
        let k = self.offset;
        let b = w.dot(self.focus) * k;
        // t² + 2bt + (k² − 1) = 0 → t = −b + sqrt(b² + 1 − k²).
        let t = -b + (b * b + 1.0 - k * k).sqrt();
        (w * t + self.focus * k).normalized()
    }

    /// Project a world direction to `(face, uv)` in the offset space.
    pub fn project(&self, dir: Vec3) -> (CubeFace, Uv) {
        CubeMap::project(self.warp(dir))
    }

    /// Inverse projection back to a world direction (the round-trip
    /// tests' reference).
    #[cfg(test)]
    fn unproject(&self, face: CubeFace, uv: Uv) -> Vec3 {
        self.unwarp(CubeMap::unproject(face, uv))
    }

    /// Relative pixel density at a world direction (solid-angle
    /// compression of the warp), normalized so a plain cube map is 1.
    /// Directions near the focus exceed 1; the antipode falls below.
    pub fn density(&self, dir: Vec3) -> f64 {
        // d(warped)/d(dir) scale: for the radial warp the angular
        // magnification near direction d is |d − k f|⁻¹ in the limit —
        // use the derivative of the warped angle numerically.
        let d = dir.normalized();
        let eps = 1e-4;
        // Perturb along a tangent.
        let tangent = if d.cross(Vec3::Z).norm() > 1e-6 {
            d.cross(Vec3::Z).normalized()
        } else {
            d.cross(Vec3::X).normalized()
        };
        let d2 = (d + tangent * eps).normalized();
        let warped_angle = self.warp(d).angle_to(self.warp(d2));
        let raw_angle = d.angle_to(d2);
        // Pixels are laid out uniformly in warped space, so the pixel
        // density seen by a world direction is the square (two angular
        // dimensions) of the warped-angle-per-world-angle magnification.
        (warped_angle / raw_angle).powi(2)
    }
}

/// Pixel-budget model comparing a full panorama against a conventional
/// perspective video at matched angular resolution (pixels per degree in
/// the viewport centre). This backs experiment E9: the paper's claim that
/// 360° videos are ~4–5× larger than conventional videos at the same
/// perceived quality (§1, §3.4.1).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PixelBudget {
    /// Horizontal field of view of the comparison viewport, radians.
    pub viewport_hfov: f64,
    /// Vertical field of view of the comparison viewport, radians.
    pub viewport_vfov: f64,
}

impl PixelBudget {
    /// A typical VR headset viewport (100° × 90°), the paper's premise.
    pub fn headset() -> PixelBudget {
        PixelBudget {
            viewport_hfov: 100f64.to_radians(),
            viewport_vfov: 90f64.to_radians(),
        }
    }

    /// Pixels required by an equirectangular panorama whose equatorial
    /// angular resolution matches a perspective video of
    /// `width × height` pixels spanning the comparison viewport.
    fn equirect_pixels(&self, width: u32, height: u32) -> f64 {
        // Perspective pixels per radian at the image centre.
        let ppr_h = width as f64 / (2.0 * (self.viewport_hfov / 2.0).tan());
        let ppr_v = height as f64 / (2.0 * (self.viewport_vfov / 2.0).tan());
        // Equirect spans 2π × π at uniform (u,v) density.
        (ppr_h * TAU) * (ppr_v * PI)
    }

    /// Pixels of the perspective (conventional) video itself.
    fn perspective_pixels(&self, width: u32, height: u32) -> f64 {
        width as f64 * height as f64
    }

    /// Size ratio panorama / conventional under a bitrate model where
    /// bytes scale linearly with pixel count (H.264/H.265 at fixed
    /// quality is approximately linear in pixels).
    pub fn size_ratio(&self, width: u32, height: u32) -> f64 {
        self.equirect_pixels(width, height) / self.perspective_pixels(width, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::Orientation;

    #[test]
    fn equirect_known_points() {
        let front = Equirect::project(Vec3::X);
        assert!((front.u - 0.5).abs() < 1e-12);
        assert!((front.v - 0.5).abs() < 1e-12);
        let up = Equirect::project(Vec3::Z);
        assert!(up.v.abs() < 1e-9);
        let down = Equirect::project(-Vec3::Z);
        assert!((down.v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equirect_roundtrip() {
        for yaw_deg in (-170..180).step_by(37) {
            for pitch_deg in (-80..=80).step_by(20) {
                let o = Orientation::from_degrees(yaw_deg as f64, pitch_deg as f64, 0.0);
                let d = o.direction();
                let back = Equirect::unproject(Equirect::project(d));
                assert!((d - back).norm() < 1e-9, "at {yaw_deg},{pitch_deg}");
            }
        }
    }

    #[test]
    fn equirect_u_wraps_into_unit_interval() {
        // Direction just shy of yaw = +π should give u close to 1 but < 1.
        let d = Orientation::from_degrees(179.999, 0.0, 0.0).direction();
        let uv = Equirect::project(d);
        assert!(uv.u < 1.0 && uv.u > 0.99);
    }

    #[test]
    fn cubemap_face_selection() {
        assert_eq!(CubeMap::project(Vec3::X).0, CubeFace::Front);
        assert_eq!(CubeMap::project(-Vec3::X).0, CubeFace::Back);
        assert_eq!(CubeMap::project(Vec3::Y).0, CubeFace::Left);
        assert_eq!(CubeMap::project(-Vec3::Y).0, CubeFace::Right);
        assert_eq!(CubeMap::project(Vec3::Z).0, CubeFace::Top);
        assert_eq!(CubeMap::project(-Vec3::Z).0, CubeFace::Bottom);
    }

    #[test]
    fn cubemap_centers_are_half_half() {
        for face in CubeFace::ALL {
            let center = CubeMap::unproject(face, Uv { u: 0.5, v: 0.5 });
            let (f2, uv) = CubeMap::project(center);
            assert_eq!(face, f2);
            assert!((uv.u - 0.5).abs() < 1e-9 && (uv.v - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn cubemap_roundtrip_dense() {
        for i in 0..200 {
            let yaw = (i as f64 * 0.7).sin() * PI * 0.999;
            let pitch = (i as f64 * 0.3).cos() * FRAC_PI_2 * 0.99;
            let d = Orientation::new(yaw, pitch, 0.0).direction();
            let (face, uv) = CubeMap::project(d);
            let back = CubeMap::unproject(face, uv);
            assert!((d - back).norm() < 1e-9, "i={i}");
        }
    }

    #[test]
    fn offset_cubemap_roundtrips() {
        let ocm = OffsetCubeMap::oculus(Vec3::X);
        for i in 0..100 {
            let yaw = (i as f64 * 0.61).sin() * PI * 0.99;
            let pitch = (i as f64 * 0.37).cos() * FRAC_PI_2 * 0.95;
            let d = Orientation::new(yaw, pitch, 0.0).direction();
            let (face, uv) = ocm.project(d);
            let back = ocm.unproject(face, uv);
            assert!((d - back).norm() < 1e-9, "i={i}: {d:?} vs {back:?}");
        }
    }

    #[test]
    fn zero_offset_degenerates_to_cubemap() {
        let ocm = OffsetCubeMap::new(Vec3::X, 0.0);
        let d = Orientation::from_degrees(40.0, 20.0, 0.0).direction();
        assert_eq!(ocm.project(d), CubeMap::project(d));
    }

    #[test]
    fn density_peaks_at_focus() {
        let ocm = OffsetCubeMap::oculus(Vec3::X);
        let at_focus = ocm.density(Vec3::X);
        let behind = ocm.density(-Vec3::X);
        let side = ocm.density(Vec3::Y);
        assert!(at_focus > 2.0, "focus density {at_focus}");
        assert!(behind < 0.7, "antipodal density {behind}");
        assert!(at_focus > side && side > behind);
    }

    #[test]
    fn warp_preserves_focus_axis() {
        let ocm = OffsetCubeMap::oculus(Vec3::X);
        assert!((ocm.warp(Vec3::X) - Vec3::X).norm() < 1e-12);
        assert!((ocm.warp(-Vec3::X) - -Vec3::X).norm() < 1e-12);
    }

    #[test]
    fn size_ratio_matches_paper_claim() {
        // The paper: "360° videos have around 5x larger sizes than
        // conventional videos" under the same perceived quality.
        let ratio = PixelBudget::headset().size_ratio(1920, 1080);
        assert!(
            (3.5..7.0).contains(&ratio),
            "expected a ~4-5x blowup, got {ratio:.2}"
        );
    }
}
