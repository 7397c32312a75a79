//! Synthetic viewer behaviour: the stand-in for the paper's
//! crowd-sourced "in the wild" head-movement dataset (§3.2).
//!
//! The model has two halves:
//!
//! * a per-video [`AttentionModel`] — a small set of [`Hotspot`]s (the
//!   interesting content), possibly moving over time, **shared by all
//!   viewers of that video**. This is what makes cross-user statistics
//!   informative, exactly the structure the paper's "popular chunks"
//!   idea exploits.
//! * a per-user [`Behavior`] — how an individual reacts to those
//!   hotspots (focused, exploring, following, still), modulated by the
//!   session's [`ViewingContext`].
//!
//! Head dynamics are a first-order pursuit of the current target with
//! Ornstein–Uhlenbeck noise and Poisson target switches, sampled at the
//! study's 50 Hz.

use crate::context::{Pose, ViewingContext};
use crate::trace::{HeadTrace, DEFAULT_SAMPLE_HZ};
use serde::{Deserialize, Serialize};
use sperke_geo::angles::wrap_pi;
use sperke_geo::Orientation;
use sperke_sim::{SimDuration, SimRng};

/// A region of interest in the video, possibly moving.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hotspot {
    /// Initial yaw, radians.
    pub yaw0: f64,
    /// Mean pitch, radians.
    pub pitch0: f64,
    /// Yaw drift rate, radians/second (a moving subject).
    pub yaw_rate: f64,
    /// Pitch oscillation amplitude, radians.
    pub pitch_amp: f64,
    /// Relative attractiveness (sampling weight).
    pub weight: f64,
}

impl Hotspot {
    /// Where the hotspot is at time `t` seconds.
    pub fn position(&self, t: f64) -> Orientation {
        Orientation::new(
            self.yaw0 + self.yaw_rate * t,
            self.pitch0 + self.pitch_amp * (0.31 * t).sin(),
            0.0,
        )
    }
}

/// The per-video attention structure shared across viewers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttentionModel {
    hotspots: Vec<Hotspot>,
}

impl AttentionModel {
    /// Build from explicit hotspots.
    pub fn new(hotspots: Vec<Hotspot>) -> AttentionModel {
        assert!(!hotspots.is_empty(), "need at least one hotspot");
        assert!(
            hotspots.iter().all(|h| h.weight > 0.0),
            "weights must be positive"
        );
        AttentionModel { hotspots }
    }

    /// A generic video: 2–4 hotspots near the equator, mostly static,
    /// dominated by the front.
    pub fn generic(seed: u64) -> AttentionModel {
        let mut rng = SimRng::new(seed).split(0xA77E_0711);
        let k = 2 + rng.below(3) as usize;
        let mut hotspots = vec![Hotspot {
            yaw0: rng.normal(0.0, 0.3),
            pitch0: rng.normal(0.0, 0.1),
            yaw_rate: 0.0,
            pitch_amp: 0.05,
            weight: 3.0,
        }];
        for _ in 1..k {
            hotspots.push(Hotspot {
                yaw0: rng.uniform_in(-std::f64::consts::PI, std::f64::consts::PI),
                pitch0: rng.normal(0.0, 0.2),
                yaw_rate: rng.normal(0.0, 0.02),
                pitch_amp: 0.05,
                weight: 1.0,
            });
        }
        AttentionModel::new(hotspots)
    }

    /// A sports-style video: one dominant hotspot sweeping in yaw (the
    /// action), plus a weak static one (the crowd).
    pub fn sports(seed: u64) -> AttentionModel {
        let mut rng = SimRng::new(seed).split(0x5B0A_7211);
        AttentionModel::new(vec![
            Hotspot {
                yaw0: 0.0,
                pitch0: -0.05,
                yaw_rate: rng.uniform_in(0.15, 0.35) * if rng.chance(0.5) { 1.0 } else { -1.0 },
                pitch_amp: 0.05,
                weight: 5.0,
            },
            Hotspot {
                yaw0: rng.uniform_in(1.5, 2.5),
                pitch0: 0.1,
                yaw_rate: 0.0,
                pitch_amp: 0.02,
                weight: 1.0,
            },
        ])
    }

    /// A concert/stage video: a single strong, nearly static hotspot —
    /// the premise of §3.4.2's spatial fall-back ("the horizon of
    /// interest is oftentimes narrower than full 360°").
    pub fn stage(seed: u64) -> AttentionModel {
        let mut rng = SimRng::new(seed).split(0x57A6_E001);
        AttentionModel::new(vec![
            Hotspot {
                yaw0: rng.normal(0.0, 0.1),
                pitch0: 0.05,
                yaw_rate: 0.0,
                pitch_amp: 0.03,
                weight: 8.0,
            },
            Hotspot {
                yaw0: 2.8,
                pitch0: 0.0,
                yaw_rate: 0.0,
                pitch_amp: 0.02,
                weight: 0.5,
            },
        ])
    }

    /// The hotspots.
    pub(crate) fn hotspots(&self) -> &[Hotspot] {
        &self.hotspots
    }

    /// Sample a hotspot index by weight.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let weights: Vec<f64> = self.hotspots.iter().map(|h| h.weight).collect();
        rng.weighted_index(&weights)
    }
}

/// How an individual viewer behaves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Behavior {
    /// Locks onto hotspots, rarely switching.
    Focused,
    /// Scans the scene with frequent saccades, including away from
    /// hotspots.
    Explorer,
    /// Tracks the dominant (index 0) hotspot closely as it moves.
    Follower,
    /// Barely moves from the initial orientation.
    Still,
}

impl Behavior {
    /// All behaviour classes.
    pub const ALL: [Behavior; 4] = [
        Behavior::Focused,
        Behavior::Explorer,
        Behavior::Follower,
        Behavior::Still,
    ];

    /// Poisson rate of target switches, per second.
    fn switch_rate(self) -> f64 {
        match self {
            Behavior::Focused => 0.10,
            Behavior::Explorer => 0.60,
            Behavior::Follower => 0.02,
            Behavior::Still => 0.01,
        }
    }

    /// Pursuit gain (1/seconds): how quickly the gaze closes on the target.
    fn pursuit_gain(self) -> f64 {
        match self {
            Behavior::Focused => 2.0,
            Behavior::Explorer => 3.0,
            Behavior::Follower => 4.0,
            Behavior::Still => 0.5,
        }
    }

    /// OU noise amplitude, radians.
    fn noise(self) -> f64 {
        match self {
            Behavior::Focused => 0.02,
            Behavior::Explorer => 0.05,
            Behavior::Follower => 0.02,
            Behavior::Still => 0.01,
        }
    }

    /// Maximum angular speed, radians/second (before context scaling).
    fn max_speed(self) -> f64 {
        match self {
            Behavior::Focused => 2.0,
            Behavior::Explorer => 3.0,
            Behavior::Follower => 2.5,
            Behavior::Still => 0.5,
        }
    }

    /// Probability that a saccade targets a random direction rather than
    /// a hotspot.
    fn wander_prob(self) -> f64 {
        match self {
            Behavior::Explorer => 0.5,
            Behavior::Focused => 0.1,
            Behavior::Follower => 0.0,
            Behavior::Still => 0.2,
        }
    }
}

/// Generates head traces for one (video, user) pair.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    /// The video's attention structure.
    pub attention: AttentionModel,
    /// The user's behaviour class.
    pub behavior: Behavior,
    /// The session context.
    pub context: ViewingContext,
}

impl TraceGenerator {
    /// Construct a generator.
    pub fn new(attention: AttentionModel, behavior: Behavior, context: ViewingContext) -> Self {
        TraceGenerator {
            attention,
            behavior,
            context,
        }
    }

    /// Generate a trace of `duration`, deterministic in `seed`. Each
    /// sample evaluates only the hotspot the viewer pursues then.
    pub fn generate(&self, duration: SimDuration, seed: u64) -> HeadTrace {
        let hotspots = self.attention.hotspots();
        pursue(
            &self.attention,
            self.behavior,
            self.context,
            sample_count(duration),
            seed,
            |h, i| hotspots[h].position(sample_time(i)),
        )
    }
}

/// Samples in a trace of `duration` at the study's rate, both ends
/// included.
fn sample_count(duration: SimDuration) -> usize {
    (duration.as_secs_f64() * DEFAULT_SAMPLE_HZ).ceil() as usize + 1
}

/// The instant of sample `i`, in seconds.
fn sample_time(i: usize) -> f64 {
    i as f64 * (1.0 / DEFAULT_SAMPLE_HZ)
}

/// The one sample loop: `n` samples of a viewer of `attention` pursuing
/// its current target, where `position(h, i)` is hotspot `h`'s position
/// at sample `i`. Where positions come from never changes a bit: a
/// [`HotspotTrack`] holds exactly what `Hotspot::position` returns.
fn pursue(
    attention: &AttentionModel,
    b: Behavior,
    context: ViewingContext,
    n: usize,
    seed: u64,
    position: impl Fn(usize, usize) -> Orientation,
) -> HeadTrace {
    let hz = DEFAULT_SAMPLE_HZ;
    let dt = 1.0 / hz;
    let mut rng = SimRng::new(seed).split(0x6E6E_7A7E);

    let yaw_limit = context.yaw_half_range();
    let max_speed = b.max_speed() * context.speed_factor();

    // Start looking at a weighted hotspot.
    let mut target_idx = attention.sample(&mut rng);
    let mut wander_target: Option<Orientation> = None;
    let start = position(target_idx, 0);
    let mut yaw = start.yaw.clamp(-yaw_limit, yaw_limit);
    let mut pitch = start.pitch;
    let mut noise_yaw = 0.0f64;
    let mut noise_pitch = 0.0f64;

    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        // Poisson saccades: retarget.
        if rng.chance(b.switch_rate() * dt) {
            if rng.chance(b.wander_prob()) {
                wander_target = Some(Orientation::new(
                    rng.uniform_in(-yaw_limit, yaw_limit),
                    rng.normal(0.0, 0.25),
                    0.0,
                ));
            } else {
                wander_target = None;
                target_idx = attention.sample(&mut rng);
            }
        }

        let target = match (b, wander_target) {
            (Behavior::Follower, _) => position(0, i),
            (_, Some(w)) => w,
            (_, None) => position(target_idx, i),
        };

        // Pursue the target (shortest yaw arc), rate-limited.
        let gain = b.pursuit_gain();
        let mut dyaw = wrap_pi(target.yaw - yaw) * gain * dt;
        let mut dpitch = (target.pitch - pitch) * gain * dt;
        let step = (dyaw * dyaw + dpitch * dpitch).sqrt();
        let max_step = max_speed * dt;
        if step > max_step {
            let s = max_step / step;
            dyaw *= s;
            dpitch *= s;
        }
        yaw += dyaw;
        pitch += dpitch;

        // OU noise (mean-reverting jitter).
        let theta = 5.0;
        noise_yaw +=
            -theta * noise_yaw * dt + b.noise() * rng.gaussian() * dt.sqrt() * theta.sqrt();
        noise_pitch +=
            -theta * noise_pitch * dt + b.noise() * rng.gaussian() * dt.sqrt() * theta.sqrt();

        // Context: soft-limit yaw around the session front (yaw 0).
        if context.pose != Pose::Standing {
            yaw = yaw.clamp(-yaw_limit, yaw_limit);
        }
        pitch = pitch.clamp(-1.4, 1.4);

        samples.push(Orientation::new(yaw + noise_yaw, pitch + noise_pitch, 0.0));
    }
    let mut trace = HeadTrace::new(hz, samples);
    trace.context = context;
    trace
}

/// Every hotspot's position at every sample of a trace of one length.
/// All viewers of a video pursue the same hotspots (§3.2), so a caller
/// synthesizing many of them evaluates each position once here, not
/// once per viewer; [`HotspotTrack::member`] then reads them.
#[derive(Debug)]
pub struct HotspotTrack {
    attention: AttentionModel,
    /// Sample-major: hotspot `h` at sample `i` is entry
    /// `i * hotspots + h`.
    positions: Vec<Orientation>,
}

impl HotspotTrack {
    /// The track of `attention`'s hotspots over a trace of `duration`.
    pub fn new(attention: &AttentionModel, duration: SimDuration) -> HotspotTrack {
        let hotspots = attention.hotspots();
        let positions = (0..sample_count(duration))
            .flat_map(|i| hotspots.iter().map(move |h| h.position(sample_time(i))))
            .collect();
        HotspotTrack {
            attention: attention.clone(),
            positions,
        }
    }

    /// Member `u` of the ensemble over this track: bit-identical to
    /// [`generate_ensemble_member`] with the track's attention model and
    /// duration.
    pub fn member(&self, u: usize, seed: u64) -> HeadTrace {
        let k = self.attention.hotspots().len();
        let (behavior, seed) = ensemble_member(u, seed);
        let mut tr = pursue(
            &self.attention,
            behavior,
            ViewingContext::default(),
            self.positions.len() / k,
            seed,
            |h, i| self.positions[i * k + h],
        );
        tr.user_id = u as u64;
        tr
    }
}

/// Generate an ensemble of traces for `users` viewers of the same video,
/// cycling through behaviour classes; deterministic in `seed`. The
/// members share one [`HotspotTrack`].
pub fn generate_ensemble(
    attention: &AttentionModel,
    users: usize,
    duration: SimDuration,
    seed: u64,
) -> Vec<HeadTrace> {
    let track = HotspotTrack::new(attention, duration);
    (0..users).map(|u| track.member(u, seed)).collect()
}

/// Generate just member `u` of the ensemble [`generate_ensemble`] would
/// produce — bit-identical to `generate_ensemble(attention, n, duration,
/// seed)[u]` for any `n > u`, at the cost of one trace instead of `n`.
/// Each member draws from its own seed-split RNG, so skipping the
/// earlier members consumes nothing they would have consumed.
pub fn generate_ensemble_member(
    attention: &AttentionModel,
    u: usize,
    duration: SimDuration,
    seed: u64,
) -> HeadTrace {
    let (behavior, seed) = ensemble_member(u, seed);
    let gen = TraceGenerator::new(attention.clone(), behavior, ViewingContext::default());
    let mut tr = gen.generate(duration, seed);
    tr.user_id = u as u64;
    tr
}

/// Ensemble member `u`'s behaviour class and trace seed.
fn ensemble_member(u: usize, seed: u64) -> (Behavior, u64) {
    (
        Behavior::ALL[u % Behavior::ALL.len()],
        seed.wrapping_add(u as u64 * 0x9E37),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_sim::SimTime;

    fn gen(behavior: Behavior) -> HeadTrace {
        let att = AttentionModel::generic(1);
        TraceGenerator::new(att, behavior, ViewingContext::default())
            .generate(SimDuration::from_secs(30), 99)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen(Behavior::Focused);
        let b = gen(Behavior::Focused);
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn different_seeds_differ() {
        let att = AttentionModel::generic(1);
        let g = TraceGenerator::new(att, Behavior::Focused, ViewingContext::default());
        let a = g.generate(SimDuration::from_secs(10), 1);
        let b = g.generate(SimDuration::from_secs(10), 2);
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn still_viewer_moves_less_than_explorer() {
        let still = gen(Behavior::Still);
        let explorer = gen(Behavior::Explorer);
        assert!(
            still.speed_percentile(90.0) < explorer.speed_percentile(90.0),
            "still {} vs explorer {}",
            still.speed_percentile(90.0),
            explorer.speed_percentile(90.0)
        );
    }

    #[test]
    fn speeds_respect_rate_limit() {
        for b in Behavior::ALL {
            let tr = gen(b);
            // The pursuit component is hard-limited at max_speed; the OU
            // jitter rides on top, so allow generous slack at the peak
            // but verify the bulk (p90) respects the class ordering.
            let vmax = tr.speed_percentile(100.0);
            assert!(vmax < 2.0 * b.max_speed() + 2.0, "{b:?} peaked at {vmax}");
            assert!(
                tr.speed_percentile(50.0) < b.max_speed() + 0.5,
                "{b:?} median too fast"
            );
        }
    }

    #[test]
    fn follower_tracks_moving_hotspot() {
        let att = AttentionModel::sports(3);
        let tr = TraceGenerator::new(
            att.clone(),
            Behavior::Follower,
            ViewingContext {
                pose: Pose::Standing,
                ..Default::default()
            },
        )
        .generate(SimDuration::from_secs(20), 5);
        // At t=15 the dominant hotspot has swept far from yaw 0; the
        // follower should be near it.
        let t = 15.0;
        let hotspot = att.hotspots()[0].position(t);
        let gaze = tr.at(SimTime::from_secs_f64(t));
        assert!(
            gaze.angular_distance(&hotspot) < 0.6,
            "follower {:.2} rad away from target",
            gaze.angular_distance(&hotspot)
        );
    }

    #[test]
    fn lying_viewer_never_looks_behind() {
        let att = AttentionModel::generic(7);
        let ctx = ViewingContext {
            pose: Pose::Lying,
            ..Default::default()
        };
        let tr = TraceGenerator::new(att, Behavior::Explorer, ctx)
            .generate(SimDuration::from_secs(60), 11);
        for o in tr.samples() {
            assert!(
                o.yaw.abs() < 100f64.to_radians(),
                "lying viewer reached yaw {}",
                o.yaw.to_degrees()
            );
        }
    }

    #[test]
    fn ensemble_shares_hotspots() {
        // Focused/follower viewers of a stage video should cluster around
        // the stage hotspot: cross-user yaw spread is bounded.
        let att = AttentionModel::stage(13);
        let traces = generate_ensemble(&att, 8, SimDuration::from_secs(20), 42);
        assert_eq!(traces.len(), 8);
        let stage_yaw = att.hotspots()[0].yaw0;
        let mut near = 0;
        for tr in &traces {
            let gaze = tr.at(SimTime::from_secs(10));
            if wrap_pi(gaze.yaw - stage_yaw).abs() < 1.0 {
                near += 1;
            }
        }
        assert!(near >= 5, "only {near}/8 viewers near the stage");
    }

    #[test]
    fn ensemble_user_ids_assigned() {
        let att = AttentionModel::generic(1);
        let traces = generate_ensemble(&att, 3, SimDuration::from_secs(2), 1);
        assert_eq!(
            traces.iter().map(|t| t.user_id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn ensemble_member_matches_full_ensemble() {
        // The ensemble reads one shared track; a lone member evaluates
        // its own targets. Members 0..5 cover every behaviour, over a
        // duration that is not a whole second.
        let duration = SimDuration::from_millis(8_370);
        for (att, seed) in [
            (AttentionModel::sports(21), 917),
            (AttentionModel::generic(4), 3),
            (AttentionModel::stage(9), 40_000),
        ] {
            let full = generate_ensemble(&att, 5, duration, seed);
            for (u, expect) in full.iter().enumerate() {
                let solo = generate_ensemble_member(&att, u, duration, seed);
                assert_eq!(&solo, expect, "member {u} of seed {seed} diverged");
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_attention_rejected() {
        AttentionModel::new(vec![]);
    }
}
