//! Multi-viewer fleet simulation: the server side of FoV-guided
//! streaming at scale.
//!
//! §2's bandwidth-saving numbers are per-viewer; what a CDN operator
//! cares about is aggregate egress when *hundreds* of viewers share an
//! origin. This module runs N viewers concurrently against one server
//! whose egress is a shared, priority-multiplexed link (`MuxLink`),
//! interleaving every viewer's decide and display points in exact time
//! order.
//!
//! [`run_fleet`] is the one engine: a pure per-viewer sense phase
//! sharded across worker threads, then one serial replay of the shared
//! egress. The per-event engine in [`oracle`](crate::oracle) runs the
//! same world handlers one event at a time and must land on the same
//! bytes.

use serde::{Deserialize, Serialize};
use sperke_geo::{visible_tiles_batch, Orientation, TileId, Viewport, VisibilityScratch};
use sperke_hmp::{
    generate_ensemble_member, AttentionModel, ForecastScratch, FusedForecaster, HeadTrace,
};
use sperke_net::{ChunkPriority, MuxLink, SpatialPriority, StreamId, TemporalPriority};
use sperke_sim::{parallel_indexed, ReplayQueue, SimDuration, SimTime};
use sperke_video::{CellId, ChunkId, ChunkTime, Quality, Scheme, VideoModel};
use sperke_vra::{AbrPolicyKind, PolicyInput, DEFAULT_MIN_PROBABILITY};
use std::cell::RefCell;
use std::collections::HashMap;

/// Fleet experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of concurrent viewers.
    pub viewers: usize,
    /// Server egress capacity, bits/second (the shared bottleneck).
    pub egress_bps: f64,
    /// Per-viewer fetch lead before a chunk's display.
    pub fetch_lead: SimDuration,
    /// Per-viewer downlink budget used by the planner, bits/second.
    pub per_viewer_budget_bps: f64,
    /// FoV-guided (`true`) or full-panorama delivery (`false`).
    pub fov_guided: bool,
    /// Seed for viewer behaviour.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            viewers: 20,
            egress_bps: 200e6,
            fetch_lead: SimDuration::from_secs(2),
            per_viewer_budget_bps: 10e6,
            fov_guided: true,
            seed: 7,
        }
    }
}

/// Aggregate outcome of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Viewers served.
    pub viewers: usize,
    /// Total bytes leaving the server.
    pub egress_bytes: u64,
    /// Mean egress rate over the session, bits/second.
    pub egress_bps: f64,
    /// Mean viewport utility across viewers and chunks.
    pub mean_viewport_utility: f64,
    /// Mean blank fraction across viewers and chunks.
    pub mean_blank_fraction: f64,
    /// Fraction of planned tile-streams that missed their display time
    /// (egress congestion).
    pub late_stream_fraction: f64,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum FleetEvent {
    /// Viewer `v` plans and submits chunk `c`'s fetches.
    Decide { viewer: usize, chunk: u32 },
    /// Viewer `v` displays chunk `c`.
    Display { viewer: usize, chunk: u32 },
}

/// One planned tile fetch: the tile, its quality, the forecast
/// probability driving its egress priority, and its AVC byte size.
/// Everything here is a pure function of `(config, trace, chunk)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FleetSelection {
    tile: TileId,
    quality: Quality,
    prob: f64,
    bytes: u64,
}

/// The world-independent slice of a decide: a plan from `policy` (or
/// the FoV-agnostic budget fit) plus stream sizing. The engine
/// precomputes it per (viewer, chunk) on sense workers; the oracle calls
/// it inline at the decide event. `now` is the decide's wall time.
/// `prev` is the viewer's previous-window level vector, updated in
/// place: decides run in chunk order per viewer in both engines, so
/// temporal policies see identical state either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fleet_selections(
    video: &VideoModel,
    config: &FleetConfig,
    trace: &HeadTrace,
    start_offset: SimDuration,
    chunk: u32,
    now: SimTime,
    scratch: &mut ForecastScratch,
    history: &mut Vec<(SimTime, Orientation)>,
    policy: AbrPolicyKind,
    prev: &mut Vec<i8>,
) -> Vec<FleetSelection> {
    let t = ChunkTime(chunk);
    let budget = (config.per_viewer_budget_bps * video.chunk_duration().as_secs_f64() / 8.0) as u64;
    let picks: Vec<(TileId, Quality, f64)> = if config.fov_guided {
        let video_time = SimTime::ZERO + video.chunk_duration() * chunk as u64;
        // The viewer's own playback position at decide time.
        let own_now = SimTime::from_nanos(now.as_nanos().saturating_sub(start_offset.as_nanos()));
        trace.history_into(own_now, 50, history);
        let forecast = FusedForecaster::motion_only().forecast_with(
            video.grid(),
            history,
            own_now,
            video_time,
            t,
            scratch,
        );
        let tile_count = video.grid().tile_count();
        let plan = policy.decide(&PolicyInput {
            video,
            forecast: &forecast,
            confidence: forecast.confidence(),
            time: t,
            buffer: config.fetch_lead,
            budget_bytes: budget,
            capacity_bps: Some(config.per_viewer_budget_bps),
            scheme: Scheme::Avc,
            min_probability: DEFAULT_MIN_PROBABILITY,
            prev: (prev.len() == tile_count).then_some(prev.as_slice()),
        });
        *prev = plan.levels(tile_count);
        plan.assignments
            .into_iter()
            .map(|a| (a.tile, a.quality, a.probability))
            .collect()
    } else {
        // FoV-agnostic: the whole panorama at the best quality the
        // budget affords. Nothing here for a tile policy to decide.
        let mut q = Quality::LOWEST;
        for cand in video.ladder().qualities() {
            if video.panorama_bytes(cand, t, Scheme::Avc) <= budget {
                q = cand;
            }
        }
        video.grid().tiles().map(|tile| (tile, q, 1.0)).collect()
    };
    picks
        .into_iter()
        .map(|(tile, quality, prob)| FleetSelection {
            tile,
            quality,
            prob,
            bytes: video.chunk_bytes(ChunkId::new(quality, tile, t), Scheme::Avc),
        })
        .collect()
}

/// The gaze a fleet display samples: mid-chunk orientation.
pub(crate) fn fleet_gaze(video: &VideoModel, trace: &HeadTrace, chunk: u32) -> Orientation {
    let video_time =
        SimTime::ZERO + video.chunk_duration() * chunk as u64 + video.chunk_duration() / 2;
    trace.at(video_time)
}

pub(crate) struct FleetWorld<'a> {
    pub(crate) video: &'a VideoModel,
    pub(crate) config: FleetConfig,
    egress: MuxLink,
    /// In-flight streams → (viewer, cell, quality).
    pending: HashMap<StreamId, (usize, CellId, Quality)>,
    /// Delivered cells per viewer.
    buffers: Vec<HashMap<CellId, Quality>>,
    /// Viewer playback offsets (staggered joins).
    pub(crate) start_offset: Vec<SimDuration>,
    // Accounting.
    egress_bytes: u64,
    utility_acc: f64,
    blank_acc: f64,
    displays: u32,
    streams_total: u32,
    streams_late: u32,
}

impl FleetWorld<'_> {
    /// Pull completed streams out of the egress link into buffers.
    pub(crate) fn drain_egress(&mut self, now: SimTime) {
        for done in self.egress.run_until(now) {
            if let Some((viewer, cell, q)) = self.pending.remove(&done.id) {
                self.buffers[viewer].insert(cell, q);
                self.egress_bytes += done.bytes;
            }
        }
    }

    fn display_wall(&self, viewer: usize, chunk: u32) -> SimTime {
        SimTime::ZERO + self.start_offset[viewer] + self.video.chunk_duration() * (chunk + 1) as u64
    }

    /// Feed the static schedule to `push` in push order: per viewer and
    /// chunk, its decide then its display. Push order fixes
    /// same-instant tie-breaks, so the engine and the oracle both
    /// schedule through this one method.
    pub(crate) fn schedule(&self, mut push: impl FnMut(SimTime, FleetEvent)) {
        for viewer in 0..self.config.viewers {
            for chunk in 0..self.video.chunk_count() {
                let display = self.display_wall(viewer, chunk);
                let decide = SimTime::from_nanos(
                    display
                        .as_nanos()
                        .saturating_sub(self.config.fetch_lead.as_nanos()),
                );
                push(decide, FleetEvent::Decide { viewer, chunk });
                push(display, FleetEvent::Display { viewer, chunk });
            }
        }
    }

    /// A fresh world: staggered joins, empty buffers.
    pub(crate) fn new(video: &VideoModel, config: FleetConfig) -> FleetWorld<'_> {
        FleetWorld {
            video,
            config,
            egress: MuxLink::new(config.egress_bps),
            pending: HashMap::new(),
            buffers: vec![HashMap::new(); config.viewers],
            start_offset: (0..config.viewers)
                .map(|v| SimDuration::from_millis(137 * v as u64))
                .collect(),
            egress_bytes: 0,
            utility_acc: 0.0,
            blank_acc: 0.0,
            displays: 0,
            streams_total: 0,
            streams_late: 0,
        }
    }

    /// The stateful half of a decide: submit the planned streams over
    /// the shared egress. Shared verbatim between engines.
    pub(crate) fn apply_decide(
        &mut self,
        viewer: usize,
        chunk: u32,
        selections: &[FleetSelection],
        now: SimTime,
    ) {
        let t = ChunkTime(chunk);
        for sel in selections {
            let priority = ChunkPriority {
                spatial: if sel.prob >= 0.75 {
                    SpatialPriority::Fov
                } else {
                    SpatialPriority::Oos
                },
                temporal: TemporalPriority::Regular,
            };
            let id = self.egress.submit(sel.bytes, now, priority);
            self.pending
                .insert(id, (viewer, CellId::new(sel.tile, t), sel.quality));
            self.streams_total += 1;
        }
    }

    /// The stateful half of a display: count late streams and score the
    /// visible tiles against the delivery buffer.
    pub(crate) fn apply_display(&mut self, viewer: usize, chunk: u32, visible: &[(TileId, f64)]) {
        let t = ChunkTime(chunk);
        // Streams for this chunk still pending are late.
        let late = self
            .pending
            .values()
            .filter(|&&(v, cell, _)| v == viewer && cell.time == t)
            .count();
        self.streams_late += late as u32;

        let mut util = 0.0;
        let mut blank = 0.0;
        for &(tile, coverage) in visible {
            match self.buffers[viewer].get(&CellId::new(tile, t)) {
                Some(&q) => util += coverage * self.video.ladder().utility(q),
                None => blank += coverage,
            }
        }
        self.utility_acc += util;
        self.blank_acc += blank;
        self.displays += 1;
    }
}

/// The run horizon both engines stop at: session end plus drain slack.
pub(crate) fn fleet_horizon(video: &VideoModel, config: &FleetConfig) -> SimTime {
    SimTime::ZERO
        + video.duration()
        + SimDuration::from_secs(30)
        + SimDuration::from_millis(137 * config.viewers as u64)
}

/// Fold the world's counters into the report — shared engine tail.
pub(crate) fn finish_fleet_report(
    world: &FleetWorld<'_>,
    video: &VideoModel,
    config: &FleetConfig,
) -> FleetReport {
    let session_secs =
        (video.duration() + SimDuration::from_millis(137 * config.viewers as u64)).as_secs_f64();
    let n = world.displays.max(1) as f64;
    FleetReport {
        viewers: config.viewers,
        egress_bytes: world.egress_bytes,
        egress_bps: world.egress_bytes as f64 * 8.0 / session_secs,
        mean_viewport_utility: world.utility_acc / n,
        mean_blank_fraction: world.blank_acc / n,
        late_stream_fraction: if world.streams_total == 0 {
            0.0
        } else {
            world.streams_late as f64 / world.streams_total as f64
        },
    }
}

/// Everything the sense phase computes for one viewer, independent of
/// the shared egress state.
struct ViewerBatch {
    /// Per-chunk planned fetches, evaluated at each chunk's decide time.
    selections: Vec<Vec<FleetSelection>>,
    /// Per-chunk display coverage lists.
    displays: Vec<Vec<(TileId, f64)>>,
}

/// Per-worker sense-phase scratch: forecast tables, visibility counts,
/// gaze-history window.
type SenseScratch = (
    ForecastScratch,
    VisibilityScratch,
    Vec<(SimTime, Orientation)>,
);

thread_local! {
    /// Per-worker scratch for the sense phase. Contents never leak
    /// between calls, so reuse cannot change output bits.
    static SCRATCH: RefCell<SenseScratch> =
        RefCell::new((ForecastScratch::new(), VisibilityScratch::new(), Vec::new()));
}

/// Run the fleet experiment with `policy` planning every FoV-guided
/// decide on `workers` sense threads (0 = machine default).
///
/// The per-viewer sense phase (head trace, forecasts, selections,
/// display visibility) is a pure function of the config and shards
/// across worker threads by viewer index; the stateful remainder
/// replays the event order through a [`ReplayQueue`] running the shared
/// `apply_*` code. The fleet world schedules no dynamic events, so the
/// replay is a pure cursor walk over the pre-sorted schedule. The
/// report is byte-identical for any worker count.
pub fn run_fleet(
    video: &VideoModel,
    config: &FleetConfig,
    policy: AbrPolicyKind,
    workers: usize,
) -> FleetReport {
    assert!(config.viewers > 0);
    let cfg = *config;
    let chunks = video.chunk_count();
    let session = video.duration() + SimDuration::from_secs(5);
    let attention = AttentionModel::generic(cfg.seed);

    // --- Sense: per-viewer pure work, sharded by viewer index. Results
    // merge by index, so the output is worker-count blind.
    let batches = parallel_indexed(cfg.viewers, workers, |v| {
        let trace = generate_ensemble_member(&attention, v, session, cfg.seed);
        let offset = SimDuration::from_millis(137 * v as u64);
        SCRATCH.with(|s| {
            let (fscratch, vscratch, hist) = &mut *s.borrow_mut();
            let mut selections = Vec::with_capacity(chunks as usize);
            let mut prev: Vec<i8> = Vec::new();
            for c in 0..chunks {
                let display = SimTime::ZERO + offset + video.chunk_duration() * (c + 1) as u64;
                let decide = SimTime::from_nanos(
                    display.as_nanos().saturating_sub(cfg.fetch_lead.as_nanos()),
                );
                selections.push(fleet_selections(
                    video, &cfg, &trace, offset, c, decide, fscratch, hist, policy, &mut prev,
                ));
            }
            let gazes: Vec<Orientation> =
                (0..chunks).map(|c| fleet_gaze(video, &trace, c)).collect();
            let mut displays: Vec<Vec<(TileId, f64)>> = vec![Vec::new(); chunks as usize];
            if !gazes.is_empty() {
                let proto = Viewport::headset(gazes[0]);
                visible_tiles_batch(
                    video.grid(),
                    proto.hfov,
                    proto.vfov,
                    &gazes,
                    12,
                    vscratch,
                    |pose, list| displays[pose] = list.to_vec(),
                );
            }
            ViewerBatch {
                selections,
                displays,
            }
        })
    });

    let mut world = FleetWorld::new(video, cfg);

    // --- Static schedule, pushed in the oracle's order so same-instant
    // ties resolve by identical sequence numbers.
    let mut queue: ReplayQueue<FleetEvent> = ReplayQueue::new();
    world.schedule(|at, event| queue.push_static(at, event));
    queue.seal();

    // --- Replay: the same pop-until-horizon loop as `Simulation::run`,
    // executing the shared stateful apply methods.
    let horizon = fleet_horizon(video, &cfg);
    while let Some(t) = queue.peek_time() {
        if t > horizon {
            break;
        }
        let (now, event) = queue.pop().expect("peeked non-empty");
        world.drain_egress(now);
        match event {
            FleetEvent::Decide { viewer, chunk } => {
                world.apply_decide(
                    viewer,
                    chunk,
                    &batches[viewer].selections[chunk as usize],
                    now,
                );
            }
            FleetEvent::Display { viewer, chunk } => {
                world.apply_display(viewer, chunk, &batches[viewer].displays[chunk as usize]);
            }
        }
    }

    finish_fleet_report(&world, video, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::run_fleet_inner;
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(15))
            .build()
    }

    /// The default policy on one sense worker.
    fn run(video: &VideoModel, config: &FleetConfig) -> FleetReport {
        run_fleet(video, config, AbrPolicyKind::default(), 1)
    }

    #[test]
    fn fov_guided_fleet_cuts_egress_at_matched_quality() {
        let v = video();
        // The agnostic fleet gets a budget that affords the full
        // panorama at Q2 (16 Mbps); the guided fleet delivers at least
        // that viewport quality from a 10 Mbps budget.
        let guided = run(
            &v,
            &FleetConfig {
                viewers: 10,
                egress_bps: 500e6,
                per_viewer_budget_bps: 10e6,
                fov_guided: true,
                ..Default::default()
            },
        );
        let agnostic = run(
            &v,
            &FleetConfig {
                viewers: 10,
                egress_bps: 500e6,
                per_viewer_budget_bps: 18e6,
                fov_guided: false,
                ..Default::default()
            },
        );
        assert!(
            guided.mean_viewport_utility >= agnostic.mean_viewport_utility - 0.15,
            "guided {:.2} must match agnostic {:.2}",
            guided.mean_viewport_utility,
            agnostic.mean_viewport_utility
        );
        assert!(
            (guided.egress_bytes as f64) < 0.75 * agnostic.egress_bytes as f64,
            "guided {} vs agnostic {}",
            guided.egress_bytes,
            agnostic.egress_bytes
        );
    }

    #[test]
    fn constrained_egress_makes_streams_late() {
        let v = video();
        let ample = run(
            &v,
            &FleetConfig {
                viewers: 12,
                egress_bps: 500e6,
                ..Default::default()
            },
        );
        let tight = run(
            &v,
            &FleetConfig {
                viewers: 12,
                egress_bps: 25e6,
                ..Default::default()
            },
        );
        assert!(tight.late_stream_fraction > ample.late_stream_fraction);
        assert!(tight.mean_blank_fraction > ample.mean_blank_fraction);
    }

    #[test]
    fn guided_fleet_survives_congestion_better() {
        // At an egress that chokes full-panorama delivery, FoV-guided
        // viewers still see most of their viewport.
        let v = video();
        let cfg = FleetConfig {
            viewers: 15,
            egress_bps: 60e6,
            ..Default::default()
        };
        let guided = run(
            &v,
            &FleetConfig {
                fov_guided: true,
                ..cfg
            },
        );
        let agnostic = run(
            &v,
            &FleetConfig {
                fov_guided: false,
                ..cfg
            },
        );
        assert!(
            guided.mean_blank_fraction < agnostic.mean_blank_fraction + 0.05,
            "guided {:.3} vs agnostic {:.3}",
            guided.mean_blank_fraction,
            agnostic.mean_blank_fraction
        );
        assert!(guided.mean_viewport_utility > agnostic.mean_viewport_utility);
    }

    #[test]
    fn deterministic() {
        let v = video();
        let cfg = FleetConfig {
            viewers: 6,
            ..Default::default()
        };
        assert_eq!(run(&v, &cfg), run(&v, &cfg));
    }

    #[test]
    fn batched_engine_matches_legacy_bit_for_bit() {
        let v = video();
        for cfg in [
            FleetConfig {
                viewers: 9,
                egress_bps: 80e6,
                ..Default::default()
            },
            FleetConfig {
                viewers: 7,
                fov_guided: false,
                seed: 41,
                ..Default::default()
            },
            FleetConfig {
                viewers: 12,
                egress_bps: 25e6,
                ..Default::default()
            },
        ] {
            let legacy = run_fleet_inner(&v, &cfg, AbrPolicyKind::default());
            for workers in [1usize, 2, 8] {
                assert_eq!(
                    legacy,
                    run_fleet(&v, &cfg, AbrPolicyKind::default(), workers),
                    "diverged at {workers} workers: {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn knapsack_policy_reproduces_legacy_fleet_bytes() {
        let v = video();
        let cfg = FleetConfig {
            viewers: 8,
            egress_bps: 80e6,
            ..Default::default()
        };
        let legacy = run_fleet_inner(&v, &cfg, AbrPolicyKind::default());
        // The fleet planner has always been Sperke's stochastic
        // selector, so both degenerate kinds must reproduce it exactly.
        for kind in [AbrPolicyKind::Knapsack, AbrPolicyKind::Sperke] {
            assert_eq!(
                legacy,
                run_fleet(&v, &cfg, kind, 1),
                "{} diverged from legacy",
                kind.name()
            );
        }
    }

    #[test]
    fn policy_batched_engine_matches_legacy_for_every_kind() {
        let v = video();
        let cfg = FleetConfig {
            viewers: 7,
            egress_bps: 80e6,
            ..Default::default()
        };
        for kind in AbrPolicyKind::all() {
            let legacy = run_fleet_inner(&v, &cfg, kind);
            for workers in [1usize, 2, 8] {
                assert_eq!(
                    legacy,
                    run_fleet(&v, &cfg, kind, workers),
                    "{} diverged at {workers} workers",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn rival_policies_change_fleet_outcomes() {
        let v = video();
        let cfg = FleetConfig {
            viewers: 8,
            egress_bps: 80e6,
            ..Default::default()
        };
        let knapsack = run_fleet(&v, &cfg, AbrPolicyKind::Knapsack, 1);
        let qer = run_fleet(&v, &cfg, AbrPolicyKind::qer_default(), 1);
        let transition = run_fleet(&v, &cfg, AbrPolicyKind::transition_default(), 1);
        // Active rivals genuinely plan differently from the knapsack.
        assert_ne!(qer, knapsack, "QER indistinguishable from knapsack");
        assert_ne!(
            transition, knapsack,
            "transitioning indistinguishable from knapsack"
        );
    }

    #[test]
    fn scales_with_viewer_count() {
        let v = video();
        let small = run(
            &v,
            &FleetConfig {
                viewers: 4,
                ..Default::default()
            },
        );
        let large = run(
            &v,
            &FleetConfig {
                viewers: 16,
                ..Default::default()
            },
        );
        assert!(large.egress_bytes > small.egress_bytes * 3);
        assert_eq!(small.viewers, 4);
        assert_eq!(large.viewers, 16);
    }
}
