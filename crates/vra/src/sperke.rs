//! The holistic Sperke 360° VRA (§3.1.2): super-chunk rate adaptation +
//! OOS selection + incremental upgrades, with the hybrid SVC/AVC policy.
//!
//! Given a tile forecast and network state, [`SperkeVra::plan`] produces
//! a [`FetchPlan`]: which chunks to fetch, at which qualities, in which
//! encoding form, with which Table-1 priorities. The player executes
//! plans and calls back with buffer state for upgrade passes.
//! [`SperkeConfig::policy`] picks how tiles and qualities are chosen:
//! the three-part banded planner, or a window decide of the
//! [`policy`](crate::policy) suite.

use crate::abr::{Abr, AbrContext};
use crate::oos::{select_oos, OosConfig};
use crate::policy::{AbrPolicyKind, PolicyInput, DEFAULT_MIN_PROBABILITY};
use crate::superchunk::SuperChunk;
use serde::{Deserialize, Serialize};
use sperke_hmp::TileForecast;
use sperke_net::{ChunkPriority, SpatialPriority, TemporalPriority};
use sperke_sim::trace::{CandidateQuality, TraceEvent, TraceLevel, TraceSink};
use sperke_sim::{SimDuration, SimTime};
use sperke_video::{CellId, ChunkForm, ChunkId, ChunkTime, Quality, Scheme, VideoModel};

/// Which encodings the server offers / the client uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EncodingPolicy {
    /// AVC only: upgrades re-download (the mismatch of §3.1.1).
    AvcOnly,
    /// SVC only: every fetch is layered, paying the overhead everywhere.
    SvcOnly,
    /// Hybrid (§3.1.2): chunks likely to upgrade fetch SVC; chunks
    /// unlikely to upgrade fetch plain AVC to avoid the overhead.
    Hybrid {
        /// Fetch SVC when the upgrade probability estimate is at least
        /// this (we use "the forecast is uncertain" as the proxy: cells
        /// with mid-range probability are the ones that get corrected).
        svc_when_uncertain_below: f64,
    },
}

impl EncodingPolicy {
    /// The scheme used to *price* a fetch under this policy.
    fn scheme_for(&self, video: &VideoModel, probability: f64) -> Scheme {
        match *self {
            EncodingPolicy::AvcOnly => Scheme::Avc,
            EncodingPolicy::SvcOnly => Scheme::Svc {
                overhead: video.svc_overhead(),
            },
            EncodingPolicy::Hybrid {
                svc_when_uncertain_below,
            } => {
                if probability < svc_when_uncertain_below {
                    Scheme::Svc {
                        overhead: video.svc_overhead(),
                    }
                } else {
                    Scheme::Avc
                }
            }
        }
    }

    /// The wire form corresponding to [`EncodingPolicy::scheme_for`].
    fn form_for(&self, video: &VideoModel, probability: f64) -> ChunkForm {
        match self.scheme_for(video, probability) {
            Scheme::Avc => ChunkForm::Avc,
            // Cumulative fetch of all layers through the chunk's quality;
            // the transfer engine only needs sizes, so a single request
            // suffices (individual layers appear during upgrades).
            Scheme::Svc { .. } => ChunkForm::SvcCumulative,
        }
    }
}

/// One planned fetch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedFetch {
    /// The chunk to request.
    pub chunk: ChunkId,
    /// The wire form (AVC / SVC cumulative / SVC layer).
    pub form: ChunkForm,
    /// Bytes this fetch will cost.
    pub bytes: u64,
    /// Delivery priority (Table 1).
    pub priority: ChunkPriority,
    /// The forecast probability that motivated this fetch.
    pub probability: f64,
}

/// The plan for one chunk time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FetchPlan {
    /// The chunk time planned.
    pub time: ChunkTime,
    /// The quality chosen for the FoV super chunk.
    pub fov_quality: Quality,
    /// All fetches: FoV tiles first (by id), then OOS by probability.
    pub fetches: Vec<PlannedFetch>,
}

impl FetchPlan {
    /// Total planned bytes.
    pub fn total_bytes(&self) -> u64 {
        self.fetches.iter().map(|f| f.bytes).sum()
    }
}

/// Network/playback state the planner needs.
#[derive(Debug, Clone)]
pub struct PlanInput<'a> {
    /// The video being streamed.
    pub video: &'a VideoModel,
    /// Tile forecast for the target chunk time.
    pub forecast: &'a TileForecast,
    /// The chunk time to plan.
    pub time: ChunkTime,
    /// Current virtual time.
    pub now: SimTime,
    /// Playback buffer level (time until the target chunk's deadline).
    pub buffer: SimDuration,
    /// Conservative bandwidth estimate, bits/second.
    pub bandwidth_bps: Option<f64>,
    /// Measured bottleneck bandwidth from the transport's BBR probe,
    /// bits/second; `None` when capacity probing is off. Forwarded to
    /// the inner ABR, where the control-theoretic policies prefer it
    /// over the declared estimate; a window policy prices its budget
    /// from it in the same way.
    pub measured_bps: Option<f64>,
    /// Quality of the previous super chunk.
    pub last_quality: Quality,
}

/// Probability above which a tile counts as FoV.
const FOV_THRESHOLD: f64 = 0.75;
/// Fraction of the bandwidth-estimate budget the FoV super chunk may
/// consume; the rest funds OOS tiles.
const FOV_BUDGET_SHARE: f64 = 0.8;
/// OOS spending cap as a fraction of the FoV super chunk's bytes — keeps
/// ample bandwidth from degenerating into fetching the whole panorama
/// "just in case".
const OOS_BUDGET_VS_FOV: f64 = 0.6;
/// A chunk is "urgent" (Table 1) when its deadline is within this.
const URGENT_WINDOW: SimDuration = SimDuration::from_millis(700);

/// Tuning for the holistic planner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SperkeConfig {
    /// The viewport policy that selects tiles and qualities per chunk
    /// time. [`AbrPolicyKind::Sperke`] (the default) is the paper's
    /// three-part decomposition: super chunk at one quality (inner
    /// ABR), then banded OOS selection (§3.1.2). Every other kind plans
    /// with its [`AbrPolicyKind::decide`] over all (tile, quality)
    /// pairs; [`AbrPolicyKind::Knapsack`] is the §3.2 stochastic
    /// optimization.
    pub policy: AbrPolicyKind,
    /// OOS selection settings.
    pub oos: OosConfig,
    /// Encoding policy.
    pub encoding: EncodingPolicy,
}

impl Default for SperkeConfig {
    fn default() -> Self {
        SperkeConfig {
            policy: AbrPolicyKind::Sperke,
            oos: OosConfig::default(),
            encoding: EncodingPolicy::Hybrid {
                svc_when_uncertain_below: 0.85,
            },
        }
    }
}

/// The holistic Sperke rate-adaptation planner.
pub struct SperkeVra {
    /// The inner ABR driving the super-chunk quality (part one).
    pub abr: Box<dyn Abr>,
    /// Tuning.
    pub config: SperkeConfig,
    trace: TraceSink,
    /// The previous window's per-tile levels, the temporal state of a
    /// window policy (empty until its first plan).
    prev: Vec<i8>,
}

impl SperkeVra {
    /// Construct with an inner ABR.
    pub fn new(abr: Box<dyn Abr>, config: SperkeConfig) -> Self {
        SperkeVra {
            abr,
            config,
            trace: TraceSink::disabled(),
            prev: Vec::new(),
        }
    }

    /// Record ABR decisions (with their candidate qualities) into `sink`.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Emit the per-plan [`TraceEvent::AbrDecision`], with the candidate
    /// ladder only when the sink actually records VRA decisions.
    fn emit_decision(&self, input: &PlanInput<'_>, chosen: Quality, unit_bitrate: &[f64]) {
        if !self.trace.enabled(TraceLevel::Decisions) {
            return;
        }
        let ladder = input.video.ladder();
        let candidates = ladder
            .qualities()
            .zip(unit_bitrate.iter())
            .map(|(q, &bps)| CandidateQuality {
                quality: q.0,
                bitrate_bps: bps,
                utility: ladder.utility(q),
            })
            .collect();
        self.trace.emit(TraceEvent::AbrDecision {
            at: input.now,
            chunk: input.time.0,
            chosen: chosen.0,
            buffer_ms: input.buffer.as_nanos() / 1_000_000,
            bandwidth_bps: input.bandwidth_bps.unwrap_or(0.0),
            candidates,
        });
    }

    /// Produce the fetch plan for one chunk time.
    pub fn plan(&mut self, input: &PlanInput<'_>) -> FetchPlan {
        if self.config.policy != AbrPolicyKind::Sperke {
            return self.plan_policy(input);
        }
        let video = input.video;

        // Part one: the super chunk and its quality via the inner ABR.
        let sc = SuperChunk::from_forecast(input.forecast, input.time, FOV_THRESHOLD);
        let pricing_scheme = self.config.encoding.scheme_for(video, 1.0);
        let unit_bitrate: Vec<f64> = video
            .ladder()
            .qualities()
            .map(|q| sc.bitrate_at(video, q, pricing_scheme))
            .collect();
        // Scale the ABR's budget to the FoV share so OOS always has room.
        let ctx = AbrContext {
            ladder: video.ladder(),
            unit_bitrate,
            buffer: input.buffer,
            bandwidth_bps: input.bandwidth_bps.map(|b| b * FOV_BUDGET_SHARE),
            measured_bps: input.measured_bps.map(|b| b * FOV_BUDGET_SHARE),
            bandwidth_forecast: vec![],
            last_quality: input.last_quality,
            chunk_duration: video.chunk_duration(),
        };
        let fov_quality = self.abr.choose(&ctx);
        self.emit_decision(input, fov_quality, &ctx.unit_bitrate);

        // Temporal priority: near-deadline chunks are urgent (the
        // buffer level is the time to this chunk's deadline).
        let temporal = if input.buffer <= URGENT_WINDOW {
            TemporalPriority::Urgent
        } else {
            TemporalPriority::Regular
        };

        let mut fetches = Vec::new();
        for &tile in &sc.tiles {
            let p = input.forecast.prob(tile);
            let scheme = self.config.encoding.scheme_for(video, p);
            let id = ChunkId::new(fov_quality, tile, input.time);
            fetches.push(PlannedFetch {
                chunk: id,
                form: self.config.encoding.form_for(video, p),
                bytes: video.chunk_bytes(id, scheme),
                priority: ChunkPriority {
                    spatial: SpatialPriority::Fov,
                    temporal,
                },
                probability: p,
            });
        }

        // Part two: OOS tiles from their bounded budget share. The OOS
        // pool is (1 - FOV_BUDGET_SHARE) of the estimate, topped up by
        // whatever the FoV fetch left unused of its own share — but it
        // never grows past that split, so ample bandwidth
        // doesn't degenerate into fetching the whole panorama.
        let fov_bytes: u64 = fetches.iter().map(|f| f.bytes).sum();
        let budget_bytes = input
            .bandwidth_bps
            .map(|bw| {
                let chunk_secs = video.chunk_duration().as_secs_f64();
                let total = (bw * chunk_secs / 8.0) as u64;
                let oos_share = ((1.0 - FOV_BUDGET_SHARE).max(0.0) * bw * chunk_secs / 8.0) as u64;
                let vs_fov = (OOS_BUDGET_VS_FOV.max(0.0) * fov_bytes as f64) as u64;
                oos_share.min(vs_fov).min(total.saturating_sub(fov_bytes))
            })
            .unwrap_or(0);
        let oos_scheme = self.config.encoding.scheme_for(video, 0.3); // OOS cells are uncertain
        let oos = select_oos(
            video,
            input.forecast,
            input.time,
            &sc.tiles,
            fov_quality,
            oos_scheme,
            budget_bytes,
            &self.config.oos,
        );
        for choice in oos {
            let p = input.forecast.prob(choice.tile);
            let id = ChunkId::new(choice.quality, choice.tile, input.time);
            fetches.push(PlannedFetch {
                chunk: id,
                form: self.config.encoding.form_for(video, p.min(0.3)),
                bytes: video.chunk_bytes(id, oos_scheme),
                priority: ChunkPriority {
                    spatial: SpatialPriority::Oos,
                    temporal: TemporalPriority::Regular,
                },
                probability: p,
            });
        }

        FetchPlan {
            time: input.time,
            fov_quality,
            fetches,
        }
    }
}

impl SperkeVra {
    /// The window-policy plan (every kind but [`AbrPolicyKind::Sperke`]):
    /// one [`AbrPolicyKind::decide`] over all (tile, quality) pairs
    /// instead of the banded FoV/OOS split, with this planner's
    /// previous levels as the policy's temporal state.
    fn plan_policy(&mut self, input: &PlanInput<'_>) -> FetchPlan {
        let video = input.video;
        // Measured capacity (BBR) over the declared estimate, mirroring
        // the AbrContext preference.
        let capacity_bps = input.measured_bps.or(input.bandwidth_bps);
        let budget_bytes = capacity_bps
            .map(|bw| (bw * video.chunk_duration().as_secs_f64() / 8.0) as u64)
            .unwrap_or_else(|| {
                // No estimate yet: a conservative base-layer FoV budget.
                SuperChunk::from_forecast(input.forecast, input.time, FOV_THRESHOLD).bytes_at(
                    video,
                    Quality::LOWEST,
                    Scheme::Avc,
                )
            });
        let tile_count = video.grid().tile_count();
        let plan = self.config.policy.decide(&PolicyInput {
            video,
            forecast: input.forecast,
            confidence: input.forecast.confidence(),
            time: input.time,
            buffer: input.buffer,
            budget_bytes,
            capacity_bps,
            scheme: self.config.encoding.scheme_for(video, 0.5),
            min_probability: DEFAULT_MIN_PROBABILITY,
            prev: (self.prev.len() == tile_count).then_some(self.prev.as_slice()),
        });
        self.prev = plan.levels(tile_count);

        let deadline_close = input.buffer <= URGENT_WINDOW;
        let mut fetches = Vec::with_capacity(plan.assignments.len());
        let mut fov_quality = Quality::LOWEST;
        let mut best_p = -1.0;
        for a in &plan.assignments {
            let p = a.probability;
            if p > best_p {
                best_p = p;
                fov_quality = a.quality;
            }
            let spatial = if p >= FOV_THRESHOLD {
                SpatialPriority::Fov
            } else {
                SpatialPriority::Oos
            };
            let temporal = if deadline_close && spatial == SpatialPriority::Fov {
                TemporalPriority::Urgent
            } else {
                TemporalPriority::Regular
            };
            let scheme = self.config.encoding.scheme_for(video, p);
            let id = ChunkId::new(a.quality, a.tile, input.time);
            fetches.push(PlannedFetch {
                chunk: id,
                form: self.config.encoding.form_for(video, p),
                bytes: video.chunk_bytes(id, scheme),
                priority: ChunkPriority { spatial, temporal },
                probability: p,
            });
        }
        self.emit_decision(input, fov_quality, &[]);
        FetchPlan {
            time: input.time,
            fov_quality,
            fetches,
        }
    }
}

/// A FoV-agnostic plan (the YouTube/Facebook baseline of §2): every tile
/// of the panorama at one quality, chosen by the inner ABR against the
/// full-panorama bitrate.
#[allow(clippy::too_many_arguments)]
pub fn plan_fov_agnostic(
    abr: &mut dyn Abr,
    video: &VideoModel,
    time: ChunkTime,
    buffer: SimDuration,
    bandwidth_bps: Option<f64>,
    measured_bps: Option<f64>,
    last_quality: Quality,
) -> FetchPlan {
    let unit_bitrate: Vec<f64> = video
        .ladder()
        .qualities()
        .map(|q| {
            video.panorama_bytes(q, time, Scheme::Avc) as f64 * 8.0
                / video.chunk_duration().as_secs_f64()
        })
        .collect();
    let ctx = AbrContext {
        ladder: video.ladder(),
        unit_bitrate,
        buffer,
        bandwidth_bps,
        measured_bps,
        bandwidth_forecast: vec![],
        last_quality,
        chunk_duration: video.chunk_duration(),
    };
    let q = abr.choose(&ctx);
    let fetches = video
        .grid()
        .tiles()
        .map(|tile| {
            let id = ChunkId::new(q, tile, time);
            PlannedFetch {
                chunk: id,
                form: ChunkForm::Avc,
                bytes: video.chunk_bytes(id, Scheme::Avc),
                priority: ChunkPriority::FOV,
                probability: 1.0,
            }
        })
        .collect();
    FetchPlan {
        time,
        fov_quality: q,
        fetches,
    }
}

/// Build upgrade candidates for buffered cells against a fresh forecast
/// (§3.1.2 part three); pair with
/// [`decide_upgrade`](crate::upgrade::decide_upgrade).
pub fn upgrade_candidates(
    video: &VideoModel,
    buffered: &[(CellId, Quality)],
    forecast: &TileForecast,
    wanted_quality: Quality,
) -> Vec<crate::upgrade::UpgradeCandidate> {
    buffered
        .iter()
        .filter(|&&(_, have)| have < wanted_quality)
        .map(|&(cell, have)| crate::upgrade::UpgradeCandidate {
            cell,
            have,
            want: wanted_quality,
            probability: forecast.prob(cell.tile),
            deadline: video.chunk_deadline(cell.time),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr::RateBased;
    use sperke_geo::Orientation;
    use sperke_hmp::FusedForecaster;
    use sperke_video::VideoModelBuilder;

    /// The plan's fetches of one spatial class (FoV or OOS).
    fn fetches_of(plan: &FetchPlan, class: SpatialPriority) -> impl Iterator<Item = &PlannedFetch> {
        plan.fetches
            .iter()
            .filter(move |f| f.priority.spatial == class)
    }

    fn video() -> VideoModel {
        VideoModelBuilder::new(9)
            .duration(SimDuration::from_secs(20))
            .build()
    }

    fn forecast(video: &VideoModel) -> TileForecast {
        let history = vec![(SimTime::ZERO, Orientation::FRONT)];
        FusedForecaster::motion_only().forecast(
            video.grid(),
            &history,
            SimTime::ZERO,
            SimTime::from_secs(1),
            ChunkTime(1),
        )
    }

    fn input<'a>(video: &'a VideoModel, fc: &'a TileForecast, bw: Option<f64>) -> PlanInput<'a> {
        PlanInput {
            video,
            forecast: fc,
            time: ChunkTime(1),
            now: SimTime::ZERO,
            buffer: SimDuration::from_secs(2),
            bandwidth_bps: bw,
            measured_bps: None,
            last_quality: Quality(1),
        }
    }

    #[test]
    fn plan_contains_fov_and_oos() {
        let v = video();
        let fc = forecast(&v);
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), SperkeConfig::default());
        let plan = vra.plan(&input(&v, &fc, Some(30e6)));
        assert!(fetches_of(&plan, SpatialPriority::Fov).count() > 0);
        assert!(fetches_of(&plan, SpatialPriority::Oos).count() > 0);
        // FoV tiles share one quality.
        for f in fetches_of(&plan, SpatialPriority::Fov) {
            assert_eq!(f.chunk.quality, plan.fov_quality);
        }
        // OOS strictly below.
        for f in fetches_of(&plan, SpatialPriority::Oos) {
            assert!(f.chunk.quality < plan.fov_quality);
        }
    }

    #[test]
    fn plan_respects_bandwidth_budget() {
        let v = video();
        let fc = forecast(&v);
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), SperkeConfig::default());
        let bw = 20e6;
        let plan = vra.plan(&input(&v, &fc, Some(bw)));
        let plan_bps = plan.total_bytes() as f64 * 8.0 / v.chunk_duration().as_secs_f64();
        assert!(
            plan_bps <= bw * 1.05,
            "plan rate {plan_bps:.0} exceeds budget {bw:.0}"
        );
    }

    #[test]
    fn no_estimate_means_conservative_plan() {
        let v = video();
        let fc = forecast(&v);
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), SperkeConfig::default());
        let plan = vra.plan(&input(&v, &fc, None));
        assert_eq!(plan.fov_quality, Quality::LOWEST);
        assert_eq!(
            fetches_of(&plan, SpatialPriority::Oos).count(),
            0,
            "no budget, no OOS"
        );
    }

    #[test]
    fn thin_buffer_marks_fetches_urgent() {
        let v = video();
        let fc = forecast(&v);
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), SperkeConfig::default());
        let mut inp = input(&v, &fc, Some(30e6));
        inp.buffer = SimDuration::from_millis(300);
        let plan = vra.plan(&inp);
        for f in fetches_of(&plan, SpatialPriority::Fov) {
            assert_eq!(f.priority.temporal, TemporalPriority::Urgent);
        }
    }

    #[test]
    fn hybrid_policy_mixes_forms() {
        let v = video();
        let fc = forecast(&v);
        let config = SperkeConfig {
            encoding: EncodingPolicy::Hybrid {
                svc_when_uncertain_below: 0.85,
            },
            ..Default::default()
        };
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), config);
        let plan = vra.plan(&input(&v, &fc, Some(40e6)));
        let has_avc = plan.fetches.iter().any(|f| f.form == ChunkForm::Avc);
        let has_svc = plan
            .fetches
            .iter()
            .any(|f| f.form == ChunkForm::SvcCumulative);
        assert!(
            has_avc && has_svc,
            "hybrid should fetch certain cells as AVC and uncertain ones as SVC"
        );
        // High-probability FoV centre tiles must be AVC (no overhead).
        for f in plan.fetches.iter().filter(|f| f.probability > 0.9) {
            assert_eq!(f.form, ChunkForm::Avc);
        }
    }

    #[test]
    fn svc_only_plan_is_bigger_than_avc_only() {
        let v = video();
        let fc = forecast(&v);
        let mk = |enc| {
            let mut vra = SperkeVra::new(
                Box::new(RateBased::default()),
                SperkeConfig {
                    encoding: enc,
                    ..Default::default()
                },
            );
            // Fix quality via generous bandwidth and same last_quality.
            vra.plan(&input(&v, &fc, Some(25e6)))
        };
        let avc = mk(EncodingPolicy::AvcOnly);
        let svc = mk(EncodingPolicy::SvcOnly);
        assert_eq!(
            avc.fov_quality, svc.fov_quality,
            "same ABR decision expected"
        );
        assert!(
            svc.total_bytes() > avc.total_bytes(),
            "SVC pays its overhead"
        );
    }

    #[test]
    fn fov_agnostic_fetches_every_tile() {
        let v = video();
        let mut abr = RateBased::default();
        let plan = plan_fov_agnostic(
            &mut abr,
            &v,
            ChunkTime(0),
            SimDuration::from_secs(5),
            Some(100e6),
            None,
            Quality(0),
        );
        assert_eq!(plan.fetches.len(), v.grid().tile_count());
    }

    #[test]
    fn fov_guided_plan_is_cheaper_than_agnostic_at_same_quality() {
        let v = video();
        let fc = forecast(&v);
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), SperkeConfig::default());
        let guided = vra.plan(&input(&v, &fc, Some(30e6)));
        // Compare against the whole panorama at the same FoV quality.
        let pano = v.panorama_bytes(guided.fov_quality, ChunkTime(1), Scheme::Avc);
        assert!(
            (guided.total_bytes() as f64) < 0.8 * pano as f64,
            "guided {} vs panorama {}",
            guided.total_bytes(),
            pano
        );
    }

    #[test]
    fn stochastic_policy_plans_within_budget() {
        let v = video();
        let fc = forecast(&v);
        let config = SperkeConfig {
            policy: AbrPolicyKind::Knapsack,
            ..Default::default()
        };
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), config);
        let bw = 25e6;
        let plan = vra.plan(&input(&v, &fc, Some(bw)));
        assert!(!plan.fetches.is_empty());
        let plan_bps = plan.total_bytes() as f64 * 8.0 / v.chunk_duration().as_secs_f64();
        assert!(
            plan_bps <= bw * 1.15,
            "plan {plan_bps:.0} vs budget {bw:.0}"
        );
        // Both priorities present: certain tiles FoV, uncertain tiles OOS.
        assert!(fetches_of(&plan, SpatialPriority::Fov).count() > 0);
        assert!(fetches_of(&plan, SpatialPriority::Oos).count() > 0);
    }

    #[test]
    fn stochastic_policy_handles_missing_estimate() {
        let v = video();
        let fc = forecast(&v);
        let config = SperkeConfig {
            policy: AbrPolicyKind::Knapsack,
            ..Default::default()
        };
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), config);
        let plan = vra.plan(&input(&v, &fc, None));
        assert!(
            !plan.fetches.is_empty(),
            "must still fetch a base-layer FoV"
        );
        // The conservative budget keeps the plan near the base layer
        // (the knapsack may upgrade a tile or two within the budget).
        assert!(plan.fov_quality <= Quality(1));
    }

    #[test]
    fn knapsack_policy_plans_exactly_the_stochastic_selection() {
        let v = video();
        let fc = forecast(&v);
        let config = SperkeConfig {
            policy: AbrPolicyKind::Knapsack,
            ..Default::default()
        };
        let pricing = config.encoding.scheme_for(&v, 0.5);
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), config.clone());
        for bw in [None, Some(8e6), Some(25e6), Some(80e6)] {
            let budget = match bw {
                Some(bw) => (bw * v.chunk_duration().as_secs_f64() / 8.0) as u64,
                None => SuperChunk::from_forecast(&fc, ChunkTime(1), FOV_THRESHOLD).bytes_at(
                    &v,
                    Quality::LOWEST,
                    Scheme::Avc,
                ),
            };
            let plan = vra.plan(&input(&v, &fc, bw));
            let oracle = crate::knapsack::select_stochastic(
                &v,
                &fc,
                ChunkTime(1),
                budget,
                pricing,
                DEFAULT_MIN_PROBABILITY,
            );
            let planned: Vec<_> = plan
                .fetches
                .iter()
                .map(|f| (f.chunk.tile, f.chunk.quality))
                .collect();
            let selected: Vec<_> = oracle.iter().map(|c| (c.tile, c.quality)).collect();
            assert_eq!(planned, selected, "diverged at bw {bw:?}");
            for f in &plan.fetches {
                assert_eq!(f.probability, fc.prob(f.chunk.tile));
                let scheme = config.encoding.scheme_for(&v, f.probability);
                assert_eq!(f.bytes, v.chunk_bytes(f.chunk, scheme));
            }
        }
    }

    #[test]
    fn knapsack_policy_prefers_measured_capacity() {
        let v = video();
        let fc = forecast(&v);
        let config = SperkeConfig {
            policy: AbrPolicyKind::Knapsack,
            ..Default::default()
        };
        let mut vra = SperkeVra::new(Box::new(RateBased::default()), config);
        let mk = |measured| PlanInput {
            measured_bps: measured,
            ..input(&v, &fc, Some(60e6))
        };
        let declared = vra.plan(&mk(None));
        let probed = vra.plan(&mk(Some(6e6)));
        assert!(
            probed.total_bytes() < declared.total_bytes(),
            "measured 6 Mbps must shrink the plan: {} vs {}",
            probed.total_bytes(),
            declared.total_bytes()
        );
    }

    #[test]
    fn upgrade_candidates_filter_by_have() {
        let v = video();
        let fc = forecast(&v);
        let buffered = vec![
            (CellId::new(sperke_geo::TileId(0), ChunkTime(2)), Quality(0)),
            (CellId::new(sperke_geo::TileId(1), ChunkTime(2)), Quality(3)),
        ];
        let cands = upgrade_candidates(&v, &buffered, &fc, Quality(2));
        assert_eq!(cands.len(), 1, "only the Q0 cell wants an upgrade to Q2");
        assert_eq!(cands[0].have, Quality(0));
        assert_eq!(cands[0].want, Quality(2));
    }
}
