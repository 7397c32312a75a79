//! Sphere sampling utilities.
//!
//! Used by the §2 *versioning* model (a server keeps many versions of a
//! video, each with a high-quality region centred on one of a set of
//! well-spread directions — Oculus 360 maintains up to 88) and by
//! Monte-Carlo coverage computations.

use crate::orientation::Orientation;
use crate::vector::Vec3;
use std::f64::consts::{PI, TAU};

/// `n` approximately uniformly distributed unit directions (Fibonacci
/// spiral lattice). Deterministic.
pub fn fibonacci_sphere(n: usize) -> Vec<Vec3> {
    assert!(n > 0, "need at least one point");
    let golden = PI * (3.0 - 5.0f64.sqrt());
    (0..n)
        .map(|i| {
            // z descends uniformly; yaw advances by the golden angle.
            let z = 1.0 - (2.0 * i as f64 + 1.0) / n as f64;
            let r = (1.0 - z * z).max(0.0).sqrt();
            let theta = golden * i as f64;
            Vec3::new(r * theta.cos(), r * theta.sin(), z)
        })
        .collect()
}

/// The nearest direction in `candidates` to `dir` (index), by
/// great-circle distance. Panics on empty candidates.
///
/// For repeated queries against the same candidate set, build a
/// [`UnitDirections`] once instead — this one-shot form normalizes every
/// candidate per call.
pub fn nearest(candidates: &[Vec3], dir: Vec3) -> usize {
    assert!(!candidates.is_empty());
    let d = dir.normalized();
    let mut best = (f64::NEG_INFINITY, 0usize);
    for (i, &c) in candidates.iter().enumerate() {
        let dot = c.normalized().dot(d);
        if dot > best.0 {
            best = (dot, i);
        }
    }
    best.1
}

/// A candidate set pre-normalized for repeated nearest-direction
/// queries: the per-candidate `normalized()` that [`nearest`] performs
/// on every call is hoisted to construction, done exactly once.
///
/// Candidates from [`fibonacci_sphere`] are already unit-length (within
/// 1e-12, asserted here), so construction is effectively a copy; the
/// stored values are the same bits `nearest` would compute per query,
/// which keeps query results bit-identical to the one-shot form.
#[derive(Debug, Clone)]
pub struct UnitDirections {
    units: Vec<Vec3>,
}

impl UnitDirections {
    /// Normalize `candidates` once up front. Panics on an empty set.
    pub fn new(candidates: &[Vec3]) -> UnitDirections {
        assert!(!candidates.is_empty());
        debug_assert!(
            candidates.iter().all(|c| (c.norm() - 1.0).abs() < 1e-6),
            "candidate sets are expected to be (near-)unit directions"
        );
        UnitDirections {
            units: candidates.iter().map(|c| c.normalized()).collect(),
        }
    }

    /// The pre-normalized directions, in candidate order.
    pub fn as_slice(&self) -> &[Vec3] {
        &self.units
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Never true (construction rejects empty sets).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The index of the candidate nearest to `dir` by great-circle
    /// distance. Identical to [`nearest`] on the original set.
    pub fn nearest(&self, dir: Vec3) -> usize {
        let d = dir.normalized();
        let mut best = (f64::NEG_INFINITY, 0usize);
        for (i, &u) in self.units.iter().enumerate() {
            let dot = u.dot(d);
            if dot > best.0 {
                best = (dot, i);
            }
        }
        best.1
    }
}

/// The maximum over the sphere of the distance to the nearest candidate
/// (covering radius), estimated on a `steps × 2·steps` lat/long grid.
///
/// The candidates are normalized once up front ([`UnitDirections`])
/// instead of once per grid point per candidate; results are
/// bit-identical to the naive formulation.
pub fn covering_radius(candidates: &[Vec3], steps: usize) -> f64 {
    assert!(!candidates.is_empty() && steps >= 4);
    let units = UnitDirections::new(candidates);
    let mut worst = 0.0f64;
    for iy in 0..steps {
        let pitch = -PI / 2.0 + (iy as f64 + 0.5) / steps as f64 * PI;
        for ix in 0..(2 * steps) {
            let yaw = -PI + (ix as f64 + 0.5) / (2 * steps) as f64 * TAU;
            let dir = Orientation::new(yaw, pitch, 0.0).direction();
            let i = units.nearest(dir);
            worst = worst.max(units.as_slice()[i].angle_to(dir));
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_points_are_unit_and_distinct() {
        let pts = fibonacci_sphere(88);
        assert_eq!(pts.len(), 88);
        for p in &pts {
            assert!((p.norm() - 1.0).abs() < 1e-12);
        }
        for (i, a) in pts.iter().enumerate() {
            for b in pts.iter().skip(i + 1) {
                assert!(a.angle_to(*b) > 0.05, "points collide");
            }
        }
    }

    #[test]
    fn fibonacci_centroid_near_origin() {
        let pts = fibonacci_sphere(200);
        let sum = pts.iter().fold(Vec3::ZERO, |acc, &p| acc + p);
        assert!(sum.norm() / 200.0 < 0.05, "distribution should balance");
    }

    #[test]
    fn nearest_finds_the_obvious_candidate() {
        let candidates = vec![Vec3::X, Vec3::Y, Vec3::Z];
        assert_eq!(nearest(&candidates, Vec3::new(0.9, 0.1, 0.0)), 0);
        assert_eq!(
            nearest(&candidates, Vec3::new(0.0, 0.0, -1.0).lerp(Vec3::Z, 0.9)),
            2
        );
    }

    #[test]
    fn covering_radius_shrinks_with_more_points() {
        let r8 = covering_radius(&fibonacci_sphere(8), 24);
        let r88 = covering_radius(&fibonacci_sphere(88), 24);
        assert!(r88 < r8, "88 versions cover tighter than 8: {r88} vs {r8}");
        // 88 well-spread points cover the sphere within ~25°.
        assert!(r88 < 30f64.to_radians(), "r88 = {}°", r88.to_degrees());
    }

    #[test]
    #[should_panic]
    fn empty_candidates_rejected() {
        nearest(&[], Vec3::X);
    }

    #[test]
    fn unit_directions_match_one_shot_nearest() {
        let candidates = fibonacci_sphere(88);
        let units = UnitDirections::new(&candidates);
        assert_eq!(units.len(), 88);
        for i in 0..40 {
            let dir = Orientation::new(
                -PI + TAU * (i as f64 + 0.3) / 40.0,
                -1.3 + 2.6 * ((i * 7 % 40) as f64) / 40.0,
                0.0,
            )
            .direction();
            assert_eq!(units.nearest(dir), nearest(&candidates, dir), "query {i}");
        }
    }

    #[test]
    #[should_panic]
    fn unit_directions_reject_empty() {
        UnitDirections::new(&[]);
    }
}
