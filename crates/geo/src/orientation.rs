//! Head orientation: Euler angles (yaw/pitch/roll, Figure 1 of the
//! paper), unit quaternions, and interpolation.

use crate::angles::wrap_pi;
use crate::vector::Vec3;
use serde::{Deserialize, Serialize};
use std::f64::consts::FRAC_PI_2;

/// A viewing orientation as intrinsic Euler angles, in radians.
///
/// * `yaw` — rotation about the vertical (+Z) axis; 0 faces +X, positive
///   turns left (towards +Y). Wrapped to `[-π, π)`.
/// * `pitch` — elevation; positive looks up. Clamped to `[-π/2, π/2]`.
/// * `roll` — rotation about the view axis; affects the viewport's edges
///   but not its centre direction.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Orientation {
    /// Yaw about +Z in radians, `[-π, π)`.
    pub yaw: f64,
    /// Pitch (elevation) in radians, `[-π/2, π/2]`.
    pub pitch: f64,
    /// Roll about the view axis in radians.
    pub roll: f64,
}

impl Orientation {
    /// Facing the panorama front (+X), level, no roll.
    pub const FRONT: Orientation = Orientation {
        yaw: 0.0,
        pitch: 0.0,
        roll: 0.0,
    };

    /// Construct, normalizing yaw to `[-π, π)` and clamping pitch.
    pub fn new(yaw: f64, pitch: f64, roll: f64) -> Orientation {
        Orientation {
            yaw: wrap_pi(yaw),
            pitch: pitch.clamp(-FRAC_PI_2, FRAC_PI_2),
            roll: wrap_pi(roll),
        }
    }

    /// Construct from degrees.
    pub fn from_degrees(yaw: f64, pitch: f64, roll: f64) -> Orientation {
        Orientation::new(yaw.to_radians(), pitch.to_radians(), roll.to_radians())
    }

    /// The unit view direction.
    pub fn direction(&self) -> Vec3 {
        let cp = self.pitch.cos();
        Vec3::new(cp * self.yaw.cos(), cp * self.yaw.sin(), self.pitch.sin())
    }

    /// Great-circle angle between the view directions of two
    /// orientations, in radians `[0, π]`. Ignores roll.
    pub fn angular_distance(&self, other: &Orientation) -> f64 {
        self.direction().angle_to(other.direction())
    }

    /// The camera basis `(forward, left, up)` including roll.
    pub fn basis(&self) -> (Vec3, Vec3, Vec3) {
        let f = self.direction();
        // Un-rolled left/up.
        let left0 = Vec3::new(-self.yaw.sin(), self.yaw.cos(), 0.0);
        let up0 = f.cross(left0).normalized(); // forward × left = up (X × Y = Z)
                                               // Apply roll: rotate left/up around the forward axis.
        let (s, c) = self.roll.sin_cos();
        let left = left0 * c + up0 * s;
        let up = up0 * c - left0 * s;
        (f, left, up)
    }

    /// Spherical interpolation between two orientations (component-wise
    /// on the shortest yaw arc; adequate for head-movement traces where
    /// successive samples are close).
    pub fn slerp(&self, other: &Orientation, t: f64) -> Orientation {
        let t = t.clamp(0.0, 1.0);
        let dyaw = wrap_pi(other.yaw - self.yaw);
        let dpitch = other.pitch - self.pitch;
        let droll = wrap_pi(other.roll - self.roll);
        Orientation::new(
            self.yaw + dyaw * t,
            self.pitch + dpitch * t,
            self.roll + droll * t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::deg;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn direction_of_cardinal_orientations() {
        let front = Orientation::FRONT.direction();
        assert!(close(front.x, 1.0) && close(front.y, 0.0) && close(front.z, 0.0));
        let left = Orientation::new(deg(90.0), 0.0, 0.0).direction();
        assert!(close(left.y, 1.0));
        let up = Orientation::new(0.0, deg(90.0), 0.0).direction();
        assert!(close(up.z, 1.0));
    }

    #[test]
    fn angular_distance_symmetric_and_sane() {
        let a = Orientation::from_degrees(0.0, 0.0, 0.0);
        let b = Orientation::from_degrees(90.0, 0.0, 0.0);
        assert!(close(a.angular_distance(&b), deg(90.0)));
        assert!(close(b.angular_distance(&a), deg(90.0)));
        assert!(close(a.angular_distance(&a), 0.0));
    }

    #[test]
    fn pitch_is_clamped_yaw_is_wrapped() {
        let o = Orientation::new(deg(370.0), deg(120.0), 0.0);
        assert!(close(o.yaw, deg(10.0)));
        assert!(close(o.pitch, deg(90.0)));
    }

    #[test]
    fn slerp_midpoint_across_wraparound() {
        let a = Orientation::from_degrees(170.0, 0.0, 0.0);
        let b = Orientation::from_degrees(-170.0, 0.0, 0.0);
        let mid = a.slerp(&b, 0.5);
        // midpoint should be at 180°, i.e. -180 after wrap
        assert!(close(mid.yaw.abs(), deg(180.0)), "mid.yaw = {}", mid.yaw);
    }

    #[test]
    fn slerp_endpoints() {
        let a = Orientation::from_degrees(10.0, 20.0, 0.0);
        let b = Orientation::from_degrees(50.0, -10.0, 0.0);
        assert_eq!(a.slerp(&b, 0.0), a);
        let e = a.slerp(&b, 1.0);
        assert!(close(e.yaw, b.yaw) && close(e.pitch, b.pitch));
    }

    #[test]
    fn basis_is_orthonormal() {
        for roll in [0.0, 0.5, -1.0] {
            let o = Orientation::new(0.7, 0.4, roll);
            let (f, l, u) = o.basis();
            assert!(close(f.norm(), 1.0));
            assert!(close(l.norm(), 1.0));
            assert!(close(u.norm(), 1.0));
            assert!(f.dot(l).abs() < 1e-9);
            assert!(f.dot(u).abs() < 1e-9);
            assert!(l.dot(u).abs() < 1e-9);
        }
    }

    #[test]
    fn basis_up_points_up_when_level() {
        let (_, _, u) = Orientation::FRONT.basis();
        assert!(close(u.z, 1.0), "up = {u:?}");
    }
}
