//! Minimal 3-vector math for spherical geometry.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Neg, Sub};

/// A 3-component vector (right-handed coordinate system).
///
/// Convention throughout Sperke (matching the paper's Figure 1): `+X`
/// points at the panorama's yaw-0 "front", `+Y` to the viewer's left
/// (yaw +90°), `+Z` up.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// Forward component.
    pub x: f64,
    /// Left component.
    pub y: f64,
    /// Up component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit X ("front").
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit Y ("left"); the geometry tests' axis.
    #[cfg(test)]
    pub(crate) const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit Z ("up").
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Construct from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product (right-handed).
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in the same direction; `Vec3::X` for (near-)zero input.
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n < 1e-12 {
            Vec3::X
        } else {
            self * (1.0 / n)
        }
    }

    /// Angle between two vectors in radians, in `[0, π]`.
    pub fn angle_to(self, other: Vec3) -> f64 {
        let d = self.normalized().dot(other.normalized()).clamp(-1.0, 1.0);
        d.acos()
    }

    /// Linear interpolation (not spherical); a test helper.
    #[cfg(test)]
    pub(crate) fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self * (1.0 - t) + other * t
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_cross_of_axes() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn norm_and_normalize() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm(), 5.0);
        let u = v.normalized();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::X);
    }

    #[test]
    fn angle_between_axes_is_right() {
        assert!((Vec3::X.angle_to(Vec3::Y) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((Vec3::X.angle_to(-Vec3::X) - std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(Vec3::X.angle_to(Vec3::X), 0.0);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(0.5, 0.5, 0.0));
    }
}
