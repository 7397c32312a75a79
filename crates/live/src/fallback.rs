//! Spatial fall-back for live 360° upload (§3.4.2).
//!
//! "When the network quality at the broadcaster side degrades, instead
//! of stalling/skipping frames or decreasing the quality of the
//! panoramic view, the broadcaster can have an additional option of
//! what we call *spatial fall-back* that adaptively reduces the overall
//! 'horizon' being uploaded (e.g., from 360° to 180°) ... for many live
//! broadcasting events such as sports, performance, ceremony, etc., the
//! 'horizon of interest' is oftentimes narrower than full 360°."
//!
//! The open problem the paper names — "determining the (reduced)
//! horizon's centre and the lower bound of its span" — is solved here by
//! combining the broadcaster's manual hint with crowd-sourced interest
//! (a yaw histogram from viewers' gaze reports).

use serde::{Deserialize, Serialize};
use sperke_geo::angles::{angle_dist, wrap_pi};
use sperke_hmp::HeadTrace;
use sperke_sim::{SimDuration, SimTime};
use std::f64::consts::TAU;

/// The horizon actually uploaded: a yaw arc.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Horizon {
    /// Centre yaw, radians.
    pub center: f64,
    /// Total span, radians (`TAU` = full panorama).
    pub span: f64,
}

impl Horizon {
    /// The full 360° panorama.
    pub fn full() -> Horizon {
        Horizon {
            center: 0.0,
            span: TAU,
        }
    }

    /// Whether a yaw falls inside the horizon.
    pub fn contains(&self, yaw: f64) -> bool {
        if self.span >= TAU - 1e-12 {
            return true;
        }
        angle_dist(yaw, self.center) <= self.span / 2.0 + 1e-12
    }

    /// Fraction of the panorama covered.
    pub fn coverage(&self) -> f64 {
        (self.span / TAU).min(1.0)
    }
}

/// A yaw-interest histogram built from viewer gaze reports (the
/// realtime crowd data).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterestProfile {
    /// Histogram over yaw bins spanning `[-π, π)`.
    bins: Vec<f64>,
}

impl InterestProfile {
    /// Number of yaw bins used.
    const BINS: usize = 36; // 10° resolution

    /// An empty (uniform) profile.
    pub fn new() -> InterestProfile {
        InterestProfile {
            bins: vec![0.0; Self::BINS],
        }
    }

    /// Record one gaze yaw observation.
    pub fn record(&mut self, yaw: f64) {
        let idx = Self::bin_of(yaw);
        self.bins[idx] += 1.0;
    }

    /// Build from viewer traces sampled around time `at`.
    pub fn from_traces(traces: &[HeadTrace], at: SimTime) -> InterestProfile {
        let mut p = InterestProfile::new();
        for tr in traces {
            p.record(tr.at(at).yaw);
        }
        p
    }

    fn bin_of(yaw: f64) -> usize {
        let w = wrap_pi(yaw);
        let frac = (w + std::f64::consts::PI) / TAU;
        ((frac * Self::BINS as f64) as usize).min(Self::BINS - 1)
    }

    fn bin_center(idx: usize) -> f64 {
        -std::f64::consts::PI + (idx as f64 + 0.5) * TAU / Self::BINS as f64
    }

    /// Total observation mass.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// The narrowest horizon centred on the interest mass that captures
    /// at least `mass_fraction` of observations, never narrower than
    /// `min_span` (the paper: "ideally it should be wider than the
    /// concert's stage").
    fn horizon_for(&self, mass_fraction: f64, min_span: f64) -> Horizon {
        let total = self.total();
        if total <= 0.0 {
            return Horizon::full();
        }
        let target = total * mass_fraction.clamp(0.0, 1.0);
        // Try every bin as centre; grow symmetric windows; keep the
        // narrowest window reaching the target mass.
        let mut best = Horizon::full();
        for c in 0..Self::BINS {
            let mut mass = self.bins[c];
            let mut radius = 0usize;
            while mass < target && radius < Self::BINS / 2 {
                radius += 1;
                let left = (c + Self::BINS - radius) % Self::BINS;
                let right = (c + radius) % Self::BINS;
                mass += self.bins[left];
                if left != right {
                    mass += self.bins[right];
                }
            }
            if mass >= target {
                let span = ((2 * radius + 1) as f64 * TAU / Self::BINS as f64).min(TAU);
                if span < best.span {
                    best = Horizon {
                        center: Self::bin_center(c),
                        span,
                    };
                }
            }
        }
        if best.span < min_span {
            best.span = min_span;
        }
        best
    }
}

impl Default for InterestProfile {
    fn default() -> Self {
        Self::new()
    }
}

/// The broadcaster's adaptation strategy under uplink pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UploadStrategy {
    /// Classic: reduce the encoding quality of the full panorama.
    QualityOnly,
    /// §3.4.2: keep quality, shrink the uploaded horizon toward the
    /// interest region (down to a minimum span).
    SpatialFallback,
}

/// Outcome of one adaptation decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UploadPlan {
    /// The uploaded horizon.
    pub horizon: Horizon,
    /// The encoded quality as a fraction of the full-quality bitrate
    /// (1.0 = original quality).
    pub quality_scale: f64,
    /// Resulting upload bitrate, bits/second.
    pub bitrate_bps: f64,
}

/// Decide what to upload given the available uplink rate.
///
/// Both strategies must fit `available_bps`; they differ in *what they
/// sacrifice*: `QualityOnly` scales the bitrate of the whole panorama,
/// `SpatialFallback` first narrows the horizon (keeping per-degree
/// quality) and only then, if the minimum span still does not fit,
/// scales quality too.
pub fn plan_upload(
    strategy: UploadStrategy,
    full_bitrate_bps: f64,
    available_bps: f64,
    interest: &InterestProfile,
    min_span: f64,
) -> UploadPlan {
    assert!(full_bitrate_bps > 0.0);
    let available = available_bps.max(1.0);
    if available >= full_bitrate_bps {
        return UploadPlan {
            horizon: Horizon::full(),
            quality_scale: 1.0,
            bitrate_bps: full_bitrate_bps,
        };
    }
    match strategy {
        UploadStrategy::QualityOnly => UploadPlan {
            horizon: Horizon::full(),
            quality_scale: available / full_bitrate_bps,
            bitrate_bps: available,
        },
        UploadStrategy::SpatialFallback => {
            // Narrow the horizon to the interest region; bitrate scales
            // with angular coverage.
            let needed_coverage = available / full_bitrate_bps;
            let span_limit = (needed_coverage * TAU).max(min_span);
            // Centre on interest; ask for 85% of the viewing mass, then
            // clamp the span to what the uplink affords.
            let mut horizon = interest.horizon_for(0.85, min_span);
            if horizon.span > span_limit {
                horizon.span = span_limit;
            }
            let bitrate = full_bitrate_bps * horizon.coverage();
            if bitrate <= available {
                UploadPlan {
                    horizon,
                    quality_scale: 1.0,
                    bitrate_bps: bitrate,
                }
            } else {
                // Even the minimum span doesn't fit: shave quality too.
                UploadPlan {
                    horizon,
                    quality_scale: available / bitrate,
                    bitrate_bps: available,
                }
            }
        }
    }
}

/// Viewer-experience score for an upload plan: over the viewer traces,
/// the mean of `quality_scale` when the gaze is inside the uploaded
/// horizon and `0` when outside (the region simply isn't there).
pub fn viewer_experience(
    plan: &UploadPlan,
    traces: &[HeadTrace],
    duration: SimDuration,
) -> ExperienceReport {
    let mut in_region = 0usize;
    let mut total = 0usize;
    let step = SimDuration::from_millis(200);
    for tr in traces {
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + duration;
        while t < end {
            total += 1;
            if plan.horizon.contains(tr.at(t).yaw) {
                in_region += 1;
            }
            t += step;
        }
    }
    let coverage_hit = if total == 0 {
        0.0
    } else {
        in_region as f64 / total as f64
    };
    ExperienceReport {
        mean_quality: plan.quality_scale * coverage_hit,
        gaze_coverage: coverage_hit,
        quality_scale: plan.quality_scale,
    }
}

/// Viewer experience summary under an upload plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperienceReport {
    /// Mean delivered quality across gaze samples (0..1).
    pub mean_quality: f64,
    /// Fraction of gaze samples inside the uploaded horizon.
    pub gaze_coverage: f64,
    /// Encoded quality scale of the plan.
    pub quality_scale: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::Orientation;
    use sperke_hmp::{generate_ensemble, AttentionModel};

    fn stage_traces() -> Vec<HeadTrace> {
        let att = AttentionModel::stage(3);
        generate_ensemble(&att, 8, SimDuration::from_secs(20), 11)
    }

    #[test]
    fn horizon_contains_wraps() {
        let h = Horizon {
            center: 3.0,
            span: 1.0,
        };
        assert!(h.contains(3.3));
        assert!(h.contains(-2.9), "arc wraps past π");
        assert!(!h.contains(0.0));
        assert!(Horizon::full().contains(2.0));
    }

    #[test]
    fn interest_profile_finds_stage() {
        let traces = stage_traces();
        let profile = InterestProfile::from_traces(&traces, SimTime::from_secs(10));
        let h = profile.horizon_for(0.85, 60f64.to_radians());
        assert!(
            h.span < TAU * 0.7,
            "stage interest is concentrated, span {}",
            h.span
        );
        // The stage is near yaw 0 for this attention seed.
        assert!(angle_dist(h.center, 0.0) < 1.0, "center {}", h.center);
    }

    #[test]
    fn empty_profile_returns_full_horizon() {
        let p = InterestProfile::new();
        assert_eq!(p.horizon_for(0.9, 1.0), Horizon::full());
    }

    #[test]
    fn min_span_enforced() {
        let mut p = InterestProfile::new();
        for _ in 0..100 {
            p.record(0.0); // everything in one bin
        }
        let h = p.horizon_for(0.9, 120f64.to_radians());
        assert!(h.span >= 120f64.to_radians() - 1e-9);
    }

    #[test]
    fn ample_uplink_uploads_everything() {
        let p = InterestProfile::new();
        let plan = plan_upload(UploadStrategy::SpatialFallback, 4e6, 10e6, &p, 1.0);
        assert_eq!(plan.horizon, Horizon::full());
        assert_eq!(plan.quality_scale, 1.0);
    }

    #[test]
    fn quality_only_keeps_full_horizon() {
        let p = InterestProfile::new();
        let plan = plan_upload(UploadStrategy::QualityOnly, 4e6, 1e6, &p, 1.0);
        assert_eq!(plan.horizon, Horizon::full());
        assert!((plan.quality_scale - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fallback_keeps_quality_by_narrowing() {
        let traces = stage_traces();
        let profile = InterestProfile::from_traces(&traces, SimTime::from_secs(10));
        let plan = plan_upload(
            UploadStrategy::SpatialFallback,
            4e6,
            2e6,
            &profile,
            60f64.to_radians(),
        );
        assert!(plan.horizon.span < TAU);
        assert_eq!(plan.quality_scale, 1.0, "fallback trades span, not quality");
        assert!(plan.bitrate_bps <= 2e6 + 1.0);
    }

    #[test]
    fn fallback_beats_quality_only_for_stage_content() {
        // The paper's claim: "reducing the uploaded horizon may bring
        // better user experience compared to blindly reducing the
        // quality" — when interest is concentrated.
        let traces = stage_traces();
        let profile = InterestProfile::from_traces(&traces, SimTime::from_secs(10));
        let available = 1.6e6; // 40 % of the 4 Mbps full rate
        let q_plan = plan_upload(UploadStrategy::QualityOnly, 4e6, available, &profile, 1.0);
        let s_plan = plan_upload(
            UploadStrategy::SpatialFallback,
            4e6,
            available,
            &profile,
            1.0,
        );
        let dur = SimDuration::from_secs(20);
        let q = viewer_experience(&q_plan, &traces, dur);
        let s = viewer_experience(&s_plan, &traces, dur);
        assert!(
            s.mean_quality > q.mean_quality,
            "fallback {:.3} should beat quality-only {:.3}",
            s.mean_quality,
            q.mean_quality
        );
    }

    #[test]
    fn quality_only_wins_for_scattered_interest() {
        // When viewers look everywhere, narrowing the horizon hides
        // content; quality-only degrades more gracefully.
        let traces: Vec<HeadTrace> = (0..8)
            .map(|i| {
                let yaw = i as f64 * 45.0 - 180.0;
                HeadTrace::from_fn(SimDuration::from_secs(20), move |_| {
                    Orientation::from_degrees(yaw, 0.0, 0.0)
                })
            })
            .collect();
        let profile = InterestProfile::from_traces(&traces, SimTime::from_secs(10));
        let available = 1.6e6;
        let q_plan = plan_upload(UploadStrategy::QualityOnly, 4e6, available, &profile, 1.0);
        let s_plan = plan_upload(
            UploadStrategy::SpatialFallback,
            4e6,
            available,
            &profile,
            1.0,
        );
        let dur = SimDuration::from_secs(20);
        let q = viewer_experience(&q_plan, &traces, dur);
        let s = viewer_experience(&s_plan, &traces, dur);
        assert!(
            q.mean_quality >= s.mean_quality,
            "scattered interest: quality-only {:.3} vs fallback {:.3}",
            q.mean_quality,
            s.mean_quality
        );
    }

    #[test]
    fn severe_shortfall_scales_quality_too() {
        let mut p = InterestProfile::new();
        for _ in 0..10 {
            p.record(0.0);
        }
        let plan = plan_upload(
            UploadStrategy::SpatialFallback,
            4e6,
            0.1e6,
            &p,
            120f64.to_radians(),
        );
        assert!(
            plan.quality_scale < 1.0,
            "min span can't fit 0.1 Mbps at full quality"
        );
        assert!(plan.bitrate_bps <= 0.1e6 + 1.0);
    }
}
