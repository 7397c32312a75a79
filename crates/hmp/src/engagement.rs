//! Engagement estimation (§3.2): "we can leverage eye gaze tracking to
//! analyze the user's engagement level, which possibly indicates the
//! likelihood of sharp head movement".
//!
//! Without eye trackers the observable proxy is *gaze stability*: an
//! engaged viewer locks onto content (low jitter, few saccades); a
//! disengaged viewer scans. The estimator turns recent head motion into
//! an engagement score; the `hmp_accuracy` bench checks that scanning
//! viewers score below every other behaviour class.

use serde::{Deserialize, Serialize};
use sperke_geo::Orientation;
use sperke_sim::SimTime;

/// Engagement level in `[0, 1]`: 1 = locked onto content.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Engagement(pub f64);

/// Head speed (rad/s) considered fully "locked".
const CALM_SPEED: f64 = 0.1;
/// Head speed at/above which the viewer counts as scanning.
const SCAN_SPEED: f64 = 1.2;

/// Estimate engagement from a gaze history window (oldest first).
///
/// The score combines mean speed (scanning) and direction reversals
/// (restlessness); the speed is normalized between `CALM_SPEED` and
/// `SCAN_SPEED`.
pub fn estimate_engagement(history: &[(SimTime, Orientation)]) -> Engagement {
    if history.len() < 3 {
        return Engagement(0.5); // no evidence either way
    }
    // Mean angular speed over the window.
    let mut speeds = Vec::with_capacity(history.len() - 1);
    let mut yaw_rates = Vec::with_capacity(history.len() - 1);
    for w in history.windows(2) {
        let dt = (w[1].0 - w[0].0).as_secs_f64();
        if dt <= 0.0 {
            continue;
        }
        speeds.push(w[0].1.angular_distance(&w[1].1) / dt);
        yaw_rates.push(sperke_geo::angles::wrap_pi(w[1].1.yaw - w[0].1.yaw) / dt);
    }
    if speeds.is_empty() {
        return Engagement(0.5);
    }
    let mean_speed = speeds.iter().sum::<f64>() / speeds.len() as f64;
    // Reversal fraction: sign changes of the yaw rate among decisive samples.
    let decisive: Vec<f64> = yaw_rates
        .iter()
        .copied()
        .filter(|r| r.abs() > 0.05)
        .collect();
    let reversals = decisive
        .windows(2)
        .filter(|w| w[0].signum() != w[1].signum())
        .count();
    let reversal_frac = if decisive.len() > 1 {
        reversals as f64 / (decisive.len() - 1) as f64
    } else {
        0.0
    };

    let speed_score = 1.0 - ((mean_speed - CALM_SPEED) / (SCAN_SPEED - CALM_SPEED)).clamp(0.0, 1.0);
    let steadiness = 1.0 - reversal_frac.clamp(0.0, 1.0);
    Engagement((0.7 * speed_score + 0.3 * steadiness).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ViewingContext;
    use crate::generate::{AttentionModel, Behavior, TraceGenerator};
    use sperke_sim::SimDuration;

    fn history_of(behavior: Behavior, seed: u64) -> Vec<(SimTime, Orientation)> {
        let trace = TraceGenerator::new(
            AttentionModel::generic(2),
            behavior,
            ViewingContext::default(),
        )
        .generate(SimDuration::from_secs(20), seed);
        trace.history(SimTime::from_secs(15), 100)
    }

    #[test]
    fn still_viewer_scores_engaged() {
        let e = estimate_engagement(&history_of(Behavior::Still, 3));
        assert!(e.0 > 0.6, "still viewer engagement {}", e.0);
    }

    #[test]
    fn explorer_scores_less_engaged_than_still() {
        let still = estimate_engagement(&history_of(Behavior::Still, 3));
        let explorer = estimate_engagement(&history_of(Behavior::Explorer, 3));
        assert!(
            explorer.0 < still.0,
            "explorer {} should be below still {}",
            explorer.0,
            still.0
        );
    }

    #[test]
    fn short_history_is_neutral() {
        let h = vec![(SimTime::ZERO, Orientation::FRONT)];
        assert_eq!(estimate_engagement(&h).0, 0.5);
    }
}
