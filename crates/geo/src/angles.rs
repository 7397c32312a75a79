//! Angle utilities: wrapping, conversion, angular differences.

use std::f64::consts::{PI, TAU};

/// Convert degrees to radians (the geometry tests' shorthand).
#[cfg(test)]
pub(crate) fn deg(degrees: f64) -> f64 {
    degrees * PI / 180.0
}

/// Convert radians to degrees.
pub fn to_degrees(radians: f64) -> f64 {
    radians * 180.0 / PI
}

/// Wrap an angle to `[-π, π)`.
pub fn wrap_pi(a: f64) -> f64 {
    let x = a + PI;
    // `x % TAU` is exactly `x` on `[0, τ)`, so most angles skip the
    // fmod call and return the same bits.
    if (0.0..TAU).contains(&x) {
        return x - PI;
    }
    let mut x = x % TAU;
    if x < 0.0 {
        x += TAU;
    }
    x - PI
}

/// Wrap an angle to `[0, 2π)`.
pub fn wrap_tau(a: f64) -> f64 {
    let mut x = a % TAU;
    if x < 0.0 {
        x += TAU;
    }
    x
}

/// Smallest signed difference `a - b`, wrapped to `[-π, π)`.
fn angle_diff(a: f64, b: f64) -> f64 {
    wrap_pi(a - b)
}

/// Absolute angular distance between two angles, in `[0, π]`.
pub fn angle_dist(a: f64, b: f64) -> f64 {
    angle_diff(a, b).abs()
}

/// Unwrap a sequence of angles so consecutive samples never jump by more
/// than π (useful before fitting a line to yaw history).
pub fn unwrap_angles(angles: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(angles.len());
    let mut offset = 0.0;
    for (i, &a) in angles.iter().enumerate() {
        if i > 0 {
            let prev = out[i - 1] - offset; // previous raw-ish value
            let d = a - prev;
            if d > PI {
                offset -= TAU;
            } else if d < -PI {
                offset += TAU;
            }
        }
        out.push(a + offset);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert!((deg(180.0) - PI).abs() < 1e-12);
        assert!((to_degrees(PI / 2.0) - 90.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_pi_range() {
        assert!((wrap_pi(3.0 * PI) - (-PI)).abs() < 1e-9);
        assert!((wrap_pi(-3.0 * PI) - (-PI)).abs() < 1e-9);
        assert_eq!(wrap_pi(0.0), 0.0);
        for k in -5..=5 {
            let a = 0.3 + k as f64 * TAU;
            assert!((wrap_pi(a) - 0.3).abs() < 1e-9);
        }
    }

    /// `wrap_pi` without its fast path: every angle goes through `%`.
    fn wrap_pi_by_fmod(a: f64) -> f64 {
        let mut x = (a + PI) % TAU;
        if x < 0.0 {
            x += TAU;
        }
        x - PI
    }

    /// Angles at the edges of the fast path's range test and of `%`: the
    /// signed zeros, ±π, multiples of τ, subnormals, huge values, the
    /// infinities and NaN.
    const EDGES: [f64; 20] = [
        0.0,
        -0.0,
        PI,
        -PI,
        TAU,
        -TAU,
        3.0 * PI,
        -3.0 * PI,
        7.0 * TAU,
        -7.0 * TAU,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        -2.5e-310,
        1e300,
        -1e300,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// `x` moved `steps` representable values up (down when negative).
    fn nudge(mut x: f64, steps: i64) -> f64 {
        for _ in 0..steps.unsigned_abs() {
            x = if steps > 0 {
                x.next_up()
            } else {
                x.next_down()
            };
        }
        x
    }

    proptest::proptest! {
        /// The fast path returns the fmod formula's exact bits: near every
        /// edge angle, near multiples of τ, over `[-4π, 4π)` and for
        /// arbitrary bit patterns.
        #[test]
        fn wrap_pi_matches_the_fmod_formula(
            edge in 0usize..EDGES.len(),
            steps in -3i64..4,
            k in -1000i64..1000,
            frac in -1.0f64..1.0,
            bits: u64,
        ) {
            let multiple = k as f64 * TAU;
            for a in [
                nudge(EDGES[edge], steps),
                nudge(multiple, steps),
                nudge(multiple - PI, steps),
                frac * 4.0 * PI,
                f64::from_bits(bits),
            ] {
                proptest::prop_assert_eq!(
                    wrap_pi(a).to_bits(),
                    wrap_pi_by_fmod(a).to_bits(),
                    "wrap_pi({:e}) [bits {:#x}]",
                    a,
                    a.to_bits()
                );
            }
        }
    }

    #[test]
    fn wrap_tau_range() {
        assert!((wrap_tau(-0.5) - (TAU - 0.5)).abs() < 1e-12);
        assert!((wrap_tau(TAU + 0.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn diff_takes_short_way_round() {
        // 350° vs 10°: short way is -20°, not +340°.
        let a = deg(350.0);
        let b = deg(10.0);
        assert!((angle_diff(a, b) - deg(-20.0)).abs() < 1e-9);
        assert!((angle_dist(a, b) - deg(20.0)).abs() < 1e-9);
    }

    #[test]
    fn unwrap_removes_jumps() {
        let seq = vec![deg(170.0), deg(-170.0), deg(-150.0)];
        let un = unwrap_angles(&seq);
        assert!((un[1] - deg(190.0)).abs() < 1e-9);
        assert!((un[2] - deg(210.0)).abs() < 1e-9);
        // consecutive diffs all small
        for w in un.windows(2) {
            assert!((w[1] - w[0]).abs() < PI);
        }
    }

    #[test]
    fn unwrap_identity_for_smooth() {
        let seq: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        assert_eq!(unwrap_angles(&seq), seq);
    }
}
