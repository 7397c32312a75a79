//! The end-to-end streaming session: Figure 4's client loop.
//!
//! Ties together head-movement prediction (`sperke-hmp`), rate
//! adaptation (`sperke-vra`) and the network (`sperke-net`) over a
//! virtual clock, and scores the result (`qoe`). The download pipeline
//! is chunk-sequential: plan → fetch (FoV blocks, OOS rides along) →
//! optional incremental-upgrade pass near the deadline → display → next
//! chunk. Stalls push the playback timeline exactly as a real player's
//! rebuffering does, while the head keeps moving on the wall clock.

use crate::buffer::CellBuffer;
use crate::qoe::{ChunkRecord, QoeReport, QoeWeights};
use sperke_geo::{TileId, Viewport, VisibilityScratch};
use sperke_hmp::{Forecaster, HeadTrace};
use sperke_net::{
    BandwidthEstimator, ChunkPriority, ChunkRequest, Completion, EstimatorKind, MultipathScheduler,
    MultipathSession, PathQueue, SpatialPriority, TransferOutcome,
};
use sperke_sim::trace::{TraceEvent, TraceLevel, TraceSink};
use sperke_sim::{SimDuration, SimTime};
use sperke_video::{CellId, ChunkForm, ChunkTime, Quality, Scheme, VideoModel};
use sperke_vra::{
    decide_upgrade, plan_fov_agnostic, upgrade_candidates, Abr, FetchPlan, PlanInput, SperkeConfig,
    SperkeVra, UpgradeDecision,
};

/// Samples of gaze history handed to the forecaster.
const HISTORY_SAMPLES: usize = 50;

/// How close to the deadline the upgrade pass re-checks the HMP.
const UPGRADE_LEAD: SimDuration = SimDuration::from_millis(600);

/// Which planner drives fetching: FoV-guided or not. The FoV-guided
/// planner's viewport policy is [`SperkeConfig::policy`], an
/// [`AbrPolicyKind`](sperke_vra::AbrPolicyKind) like the edge engine
/// takes.
#[derive(Debug, Clone)]
pub enum PlannerKind {
    /// The FoV-guided Sperke planner (§3.1), running the viewport
    /// policy its tuning names: the full three-part planner by default,
    /// or a rival from the viewport-adaptation suite
    /// ([`sperke_vra::policy`]).
    Sperke(SperkeConfig),
    /// The §2 baseline: fetch the entire panorama every chunk.
    FovAgnostic,
}

/// Player configuration.
#[derive(Debug, Clone)]
pub struct PlayerConfig {
    /// Planner choice.
    pub planner: PlannerKind,
    /// Whether the incremental-upgrade pass runs (§3.1.1).
    pub upgrades_enabled: bool,
    /// Prefetch depth cap: fetching chunk `t` waits until its deadline
    /// is at most this far away. FoV-guided players must keep this short
    /// — "the HMP prediction window is usually short and may thus limit
    /// the video buffer occupancy" (§3.1.2).
    pub max_buffer: SimDuration,
    /// Realtime (live) mode: "for realtime (live) streaming, chunks not
    /// received by their deadlines are skipped" (§3.1.2, footnote) —
    /// the playback timeline never stalls; late chunks display blank.
    pub realtime: bool,
    /// Transfer recovery: when set, every fetch uses deadline-based
    /// timeouts with bounded retry and cross-path failover
    /// ([`MultipathSession::submit_resilient`]). When unset the client
    /// is naive — a failed transfer (outage, dead path) simply never
    /// arrives.
    pub resilient: bool,
    /// Spatial fall-back rendering: when a viewport cell is missing at
    /// display time but the previous chunk's tile is still buffered,
    /// show that stale content instead of blank. The rescued area is
    /// scored as `degraded_fraction` (cheaper than blank in QoE).
    pub fallback_enabled: bool,
    /// Trace sink shared with every subsystem the session drives (the
    /// network layer, the bandwidth estimator and the VRA planner all
    /// emit into it). Disabled by default; emission is then a no-op.
    pub trace: TraceSink,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig {
            planner: PlannerKind::Sperke(SperkeConfig::default()),
            upgrades_enabled: true,
            max_buffer: SimDuration::from_secs(2),
            realtime: false,
            resilient: false,
            fallback_enabled: false,
            trace: TraceSink::disabled(),
        }
    }
}

/// The session outcome.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Aggregated QoE.
    pub qoe: QoeReport,
    /// Per-chunk details.
    pub records: Vec<ChunkRecord>,
    /// Bytes delivered per path index.
    pub path_bytes: Vec<u64>,
    /// Scheduler used.
    pub scheduler: &'static str,
    /// Number of successful incremental upgrades applied.
    pub upgrades_applied: u32,
}

enum PlannerState {
    Sperke(SperkeVra),
    Agnostic(Box<dyn Abr>),
}

/// Run a streaming session of `video` for the viewer in `trace`.
///
/// * `paths` + `scheduler` — the network (§3.3); pass one path and
///   [`sperke_net::SinglePath`] for single-path experiments.
/// * `abr` — the inner rate-adaptation algorithm (§3.1.2).
/// * `forecaster` — the HMP stack (§3.2).
///
/// This is the one session entry point. What happened is recorded in
/// `config.trace`: each chunk's [`TraceEvent::AbrDecision`], every
/// transfer, stalls ([`TraceEvent::StallStarted`] /
/// [`TraceEvent::StallEnded`]), blank and fall-back frames and upgrade
/// verdicts. [`SessionResult::records`] carries each displayed chunk's
/// utility, blank and degraded fractions.
pub fn run_session(
    video: &VideoModel,
    trace: &HeadTrace,
    paths: Vec<PathQueue>,
    scheduler: Box<dyn MultipathScheduler>,
    abr: Box<dyn Abr>,
    forecaster: &dyn Forecaster,
    config: &PlayerConfig,
) -> SessionResult {
    let cd = video.chunk_duration();
    let sink = config.trace.clone();
    // Display visibility: one scratch and one list, reused every chunk.
    let mut vis_scratch = VisibilityScratch::new();
    let mut visible: Vec<(TileId, f64)> = Vec::new();
    let mut net = MultipathSession::new(paths, scheduler);
    net.set_trace(sink.clone());
    let mut estimator = BandwidthEstimator::new(EstimatorKind::Harmonic { window: 5 });
    estimator.set_trace(sink.clone());
    let mut buffer = CellBuffer::new();
    let mut records = Vec::new();
    let mut upgrades_applied = 0u32;

    let mut planner = match &config.planner {
        PlannerKind::Sperke(cfg) => {
            let mut vra = SperkeVra::new(abr, cfg.clone());
            vra.set_trace(sink.clone());
            PlannerState::Sperke(vra)
        }
        PlannerKind::FovAgnostic => PlannerState::Agnostic(abr),
    };

    let mut now = SimTime::ZERO;
    let mut stall_total = SimDuration::ZERO;
    let mut playback_start: Option<SimTime> = None;
    let mut last_quality = Quality::LOWEST;
    let mut startup_delay = SimDuration::ZERO;

    for t in video.chunk_times() {
        // --- Timeline bookkeeping.
        let est_deadline = match playback_start {
            Some(ps) => ps + cd * t.0 as u64 + stall_total,
            None => now + cd, // optimistic guess before playback starts
        };
        // Prefetch throttle: idle until the chunk enters the window.
        let mut buffer_level = est_deadline.saturating_since(now);
        if buffer_level > config.max_buffer {
            now = SimTime::from_nanos(est_deadline.as_nanos() - config.max_buffer.as_nanos());
            buffer_level = config.max_buffer;
        }

        if sink.is_enabled() {
            sink.emit(TraceEvent::BufferLevel {
                at: now,
                chunk: t.0,
                level_ms: buffer_level.as_nanos() / 1_000_000,
            });
            sink.metrics(|m| {
                m.series("player.buffer_level_s")
                    .record(now, buffer_level.as_secs_f64());
            });
        }

        // --- HMP: gaze history lives on the wall clock since playback
        // start (the head keeps moving during stalls).
        let trace_now = playback_start
            .map(|ps| now.saturating_since(ps))
            .unwrap_or(SimDuration::ZERO);
        let trace_target = playback_start
            .map(|ps| est_deadline.saturating_since(ps))
            .unwrap_or(SimDuration::ZERO);
        let history = trace.history(SimTime::ZERO + trace_now, HISTORY_SAMPLES);
        let forecast = forecaster.forecast(
            video.grid(),
            &history,
            SimTime::ZERO + trace_now,
            SimTime::ZERO + trace_target,
            t,
        );

        // --- Plan.
        let bw = estimator.conservative(0.9);
        // Measured bottleneck capacity: the sum of per-path BBR
        // estimates, when capacity probing is on and has sampled.
        let measured = measured_capacity(net.paths());
        let plan_input = PlanInput {
            video,
            forecast: &forecast,
            time: t,
            now,
            buffer: buffer_level,
            bandwidth_bps: bw,
            measured_bps: measured,
            last_quality,
        };
        let plan: FetchPlan = match &mut planner {
            PlannerState::Sperke(vra) => vra.plan(&plan_input),
            PlannerState::Agnostic(a) => {
                let plan = plan_fov_agnostic(
                    a.as_mut(),
                    video,
                    t,
                    buffer_level,
                    bw,
                    measured,
                    last_quality,
                );
                // The agnostic planner has no sink of its own; log its
                // ABR choice here so both planners leave the same shape
                // of decision record.
                if sink.enabled(TraceLevel::Decisions) {
                    sink.emit(TraceEvent::AbrDecision {
                        at: now,
                        chunk: t.0,
                        chosen: plan.fov_quality.0,
                        buffer_ms: buffer_level.as_nanos() / 1_000_000,
                        bandwidth_bps: bw.unwrap_or(0.0),
                        candidates: vec![],
                    });
                }
                plan
            }
        };

        // --- Fetch. FoV first (plans order them first), track completion.
        let mut chunk_bytes = 0u64;
        let mut batch_delivered = 0u64;
        let mut batch_end = now;
        let mut fov_done = now;
        for fetch in &plan.fetches {
            let req = ChunkRequest {
                bytes: fetch.bytes,
                priority: fetch.priority,
                deadline: est_deadline,
            };
            let (completion, _path) = submit_chunk(&mut net, req, now, config.resilient);
            chunk_bytes += fetch.bytes;
            match completion.outcome {
                TransferOutcome::Delivered => {
                    batch_delivered += fetch.bytes;
                    batch_end = batch_end.max(completion.finished);
                    buffer.insert(
                        CellId::new(fetch.chunk.tile, fetch.chunk.time),
                        fetch.chunk.quality,
                        fetch.form,
                        fetch.bytes,
                    );
                    if fetch.priority.spatial == SpatialPriority::Fov {
                        fov_done = fov_done.max(completion.finished);
                    }
                }
                TransferOutcome::Dropped => {
                    if fetch.priority.spatial == SpatialPriority::Fov {
                        // A dropped FoV chunk must be refetched reliably.
                        let retry = ChunkRequest {
                            bytes: fetch.bytes,
                            priority: ChunkPriority::CRITICAL,
                            deadline: est_deadline,
                        };
                        let (retry_done, _) = submit_chunk(&mut net, retry, now, config.resilient);
                        chunk_bytes += fetch.bytes;
                        // Even a reliable refetch can fail under an
                        // outage; only delivered bytes reach the buffer.
                        if retry_done.outcome == TransferOutcome::Delivered {
                            batch_delivered += fetch.bytes;
                            batch_end = batch_end.max(retry_done.finished);
                            buffer.insert(
                                CellId::new(fetch.chunk.tile, fetch.chunk.time),
                                fetch.chunk.quality,
                                fetch.form,
                                fetch.bytes,
                            );
                            fov_done = fov_done.max(retry_done.finished);
                        }
                    }
                    // Dropped OOS chunks are simply absent; their cost
                    // stays in chunk_bytes and becomes waste.
                }
                TransferOutcome::Failed => {
                    // The path died under the transfer (and, in resilient
                    // mode, every permitted retry failed too). The tile
                    // is simply missing; display-time fall-back decides
                    // what the viewer sees.
                }
            }
        }

        // One goodput sample per chunk batch: the whole batch pipelines
        // over a warm connection, so aggregate bytes / elapsed time is
        // the honest throughput figure (per-tile samples would be
        // RTT-bound and badly underestimate the link).
        let elapsed = batch_end.saturating_since(now).as_secs_f64();
        if elapsed > 0.0 && batch_delivered > 0 {
            estimator.record_at(batch_delivered as f64 * 8.0 / elapsed, batch_end);
        }

        // --- Startup & stall/skip accounting.
        let mut stall = SimDuration::ZERO;
        let mut skipped = false;
        let display_time = match playback_start {
            None => {
                playback_start = Some(fov_done);
                startup_delay = fov_done.saturating_since(SimTime::ZERO);
                fov_done
            }
            Some(ps) => {
                let deadline = ps + cd * t.0 as u64 + stall_total;
                if fov_done > deadline {
                    if config.realtime {
                        // Live: the deadline is hard; the chunk is
                        // skipped and the timeline marches on.
                        skipped = true;
                    } else {
                        stall = fov_done - deadline;
                        stall_total += stall;
                        if sink.is_enabled() {
                            sink.emit(TraceEvent::StallStarted {
                                at: deadline,
                                chunk: t.0,
                            });
                            sink.emit(TraceEvent::StallEnded {
                                at: fov_done,
                                chunk: t.0,
                                duration_ms: stall.as_nanos() / 1_000_000,
                            });
                            sink.metrics(|m| {
                                m.counter("player.stalls").incr();
                                m.histogram("player.stall_s").record(stall.as_secs_f64());
                            });
                        }
                    }
                }
                ps + cd * t.0 as u64 + stall_total
            }
        };
        let ps = playback_start.expect("set above");
        now = if config.realtime {
            now.max(display_time)
        } else {
            fov_done
        };

        // --- Incremental-upgrade pass (§3.1.1 / §3.1.2 part three):
        // re-check the HMP close to the deadline and fetch deltas for
        // buffered cells that turned out to matter.
        let mut upgrade_bytes = 0u64;
        if config.upgrades_enabled {
            let lead_target = SimTime::from_nanos(
                display_time
                    .as_nanos()
                    .saturating_sub(UPGRADE_LEAD.as_nanos()),
            );
            let check_at = now.max(lead_target);
            let check_trace = check_at.saturating_since(ps);
            let fresh_history = trace.history(SimTime::ZERO + check_trace, HISTORY_SAMPLES);
            let fresh = forecaster.forecast(
                video.grid(),
                &fresh_history,
                SimTime::ZERO + check_trace,
                SimTime::ZERO + display_time.saturating_since(ps),
                t,
            );
            let buffered = buffer.cells_at(t);
            let candidates = upgrade_candidates(video, &buffered, &fresh, plan.fov_quality);
            for mut cand in candidates {
                let form = buffer.get(cand.cell).map(|c| c.form);
                let scheme = match form {
                    Some(ChunkForm::SvcCumulative) | Some(ChunkForm::SvcLayer(_)) => Scheme::Svc {
                        overhead: video.svc_overhead(),
                    },
                    _ => Scheme::Avc,
                };
                cand.deadline = display_time;
                let sizes = video.cell_sizes(cand.cell.tile, cand.cell.time);
                let bw_now = estimator.conservative(0.9).unwrap_or(0.0);
                // A Defer verdict names the time to look again ("when to
                // upgrade", §3.1.2); follow it for up to a few rounds.
                let mut at = check_at;
                for _ in 0..4 {
                    match decide_upgrade(&cand, &sizes, scheme, at, bw_now) {
                        UpgradeDecision::UpgradeNow { delta_bytes } => {
                            let req = ChunkRequest {
                                bytes: delta_bytes,
                                priority: ChunkPriority::CRITICAL,
                                deadline: display_time,
                            };
                            let (completion, _) = submit_chunk(&mut net, req, at, config.resilient);
                            upgrade_bytes += delta_bytes;
                            if !(completion.outcome == TransferOutcome::Delivered
                                && completion.finished <= display_time)
                            {
                                sink.emit(TraceEvent::UpgradeRejected {
                                    at: completion.finished,
                                    tile: cand.cell.tile.0,
                                    chunk: t.0,
                                    want: cand.want.0,
                                });
                            }
                            if completion.outcome == TransferOutcome::Delivered
                                && completion.finished <= display_time
                            {
                                match scheme {
                                    Scheme::Svc { .. } => {
                                        buffer.upgrade(cand.cell, cand.want, delta_bytes)
                                    }
                                    Scheme::Avc => buffer.insert(
                                        cand.cell,
                                        cand.want,
                                        ChunkForm::Avc,
                                        delta_bytes,
                                    ),
                                }
                                upgrades_applied += 1;
                                sink.emit(TraceEvent::UpgradeGranted {
                                    at: completion.finished,
                                    tile: cand.cell.tile.0,
                                    chunk: t.0,
                                    to: cand.want.0,
                                    delta_bytes,
                                });
                            }
                            break;
                        }
                        UpgradeDecision::Defer { revisit_at } => {
                            if revisit_at <= at {
                                break;
                            }
                            at = revisit_at;
                        }
                        UpgradeDecision::Skip => {
                            sink.emit(TraceEvent::UpgradeRejected {
                                at,
                                tile: cand.cell.tile.0,
                                chunk: t.0,
                                want: cand.want.0,
                            });
                            break;
                        }
                    }
                }
            }
        }

        // A skipped realtime chunk displays nothing at all.
        if skipped {
            if sink.is_enabled() {
                sink.emit(TraceEvent::BlankFrame {
                    at: display_time,
                    chunk: t.0,
                    fraction: 1.0,
                });
                sink.metrics(|m| {
                    m.counter("player.skips").incr();
                    m.counter("player.bytes_fetched")
                        .add(chunk_bytes + upgrade_bytes);
                    m.histogram("player.blank_fraction").record(1.0);
                });
            }
            records.push(ChunkRecord {
                index: t.0,
                viewport_utility: 0.0,
                blank_fraction: 1.0,
                degraded_fraction: 0.0,
                fov_quality: plan.fov_quality.0,
                stall: SimDuration::ZERO,
                bytes_fetched: chunk_bytes + upgrade_bytes,
                bytes_wasted: chunk_bytes + upgrade_bytes,
            });
            last_quality = plan.fov_quality;
            buffer.evict_before(t);
            continue;
        }

        // --- Display evaluation at the mid-chunk gaze.
        let gaze_trace_time = display_time.saturating_since(ps) + cd / 2;
        let gaze = trace.at(SimTime::ZERO + gaze_trace_time);
        Viewport::headset(gaze).visible_tiles_into(
            video.grid(),
            16,
            &mut vis_scratch,
            &mut visible,
        );
        let mut utility = 0.0;
        let mut blank = 0.0;
        let mut degraded = 0.0;
        let mut useful_bytes = 0u64;
        for &(tile, coverage) in visible.iter() {
            let cell = CellId::new(tile, t);
            match buffer.get(cell) {
                Some(bc) => {
                    utility += coverage * video.ladder().utility(bc.quality);
                    let scheme = match bc.form {
                        ChunkForm::Avc => Scheme::Avc,
                        _ => Scheme::Svc {
                            overhead: video.svc_overhead(),
                        },
                    };
                    useful_bytes += video.cell_sizes(tile, t).initial_cost(scheme, bc.quality);
                }
                None => {
                    // Spatial fall-back: the previous chunk's tile is
                    // still buffered (eviction lags one chunk behind for
                    // exactly this reason), so the renderer can hold its
                    // last frame instead of going black. Stale pixels
                    // earn no utility, but cost far less QoE than a hole.
                    let rescued = config.fallback_enabled
                        && t.0 > 0
                        && buffer.get(CellId::new(tile, ChunkTime(t.0 - 1))).is_some();
                    if rescued {
                        degraded += coverage;
                    } else {
                        blank += coverage;
                    }
                }
            }
        }
        if sink.is_enabled() {
            if blank > 0.0 {
                sink.emit(TraceEvent::BlankFrame {
                    at: display_time,
                    chunk: t.0,
                    fraction: blank,
                });
            }
            if degraded > 0.0 {
                sink.emit(TraceEvent::FallbackFrame {
                    at: display_time,
                    chunk: t.0,
                    fraction: degraded,
                });
            }
            sink.metrics(|m| {
                m.counter("player.bytes_fetched")
                    .add(chunk_bytes + upgrade_bytes);
                m.histogram("player.blank_fraction").record(blank);
                m.histogram("player.degraded_fraction").record(degraded);
                m.histogram("player.viewport_utility").record(utility);
            });
        }
        let total_bytes = chunk_bytes + upgrade_bytes;
        let wasted = total_bytes.saturating_sub(useful_bytes);
        records.push(ChunkRecord {
            index: t.0,
            viewport_utility: utility,
            blank_fraction: blank,
            degraded_fraction: degraded,
            fov_quality: plan.fov_quality.0,
            stall,
            bytes_fetched: total_bytes,
            bytes_wasted: wasted,
        });
        last_quality = plan.fov_quality;
        buffer.evict_before(t);
    }

    // Release the network layer's still-deferred trace events (transfers
    // resolving after the last submission).
    net.finish_trace();

    let qoe = QoeReport::from_records(&records, startup_delay, &QoeWeights::default());
    let path_bytes = net.paths().iter().map(|p| p.bytes_delivered).collect();
    SessionResult {
        qoe,
        records,
        path_bytes,
        scheduler: net.scheduler_name(),
        upgrades_applied,
    }
}

/// Aggregate measured bottleneck bandwidth across paths: the sum of
/// every path's BBR `btl_bw` estimate, or `None` until at least one
/// path has probed a sample (or when probing is off everywhere).
fn measured_capacity(paths: &[PathQueue]) -> Option<f64> {
    let mut total = 0.0;
    let mut any = false;
    for p in paths {
        if let Some(bw) = p.bbr().and_then(|b| b.btl_bw()) {
            total += bw;
            any = true;
        }
    }
    any.then_some(total)
}

/// Submit one chunk through the session, resiliently when `resilient`
/// is set, naively otherwise.
fn submit_chunk(
    net: &mut MultipathSession<Box<dyn MultipathScheduler>>,
    req: ChunkRequest,
    now: SimTime,
    resilient: bool,
) -> (Completion, usize) {
    if resilient {
        let r = net.submit_resilient(req, now);
        (r.completion, r.path)
    } else {
        net.submit(req, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_hmp::{AttentionModel, Behavior, FusedForecaster, TraceGenerator, ViewingContext};
    use sperke_net::{BandwidthTrace, ContentAware, FaultScript, PathModel, SinglePath};
    use sperke_sim::SimRng;
    use sperke_video::VideoModelBuilder;
    use sperke_vra::RateBased;

    fn video(secs: u64) -> VideoModel {
        VideoModelBuilder::new(11)
            .duration(SimDuration::from_secs(secs))
            .build()
    }

    fn trace(secs: u64, seed: u64) -> HeadTrace {
        TraceGenerator::new(
            AttentionModel::generic(2),
            Behavior::Focused,
            ViewingContext::default(),
        )
        .generate(SimDuration::from_secs(secs + 5), seed)
    }

    fn single_path(bps: f64) -> Vec<PathQueue> {
        vec![PathQueue::new(
            PathModel::new(
                "lab",
                BandwidthTrace::constant(bps),
                SimDuration::from_millis(20),
                0.0,
            ),
            SimRng::new(7),
        )]
    }

    fn run(video: &VideoModel, tr: &HeadTrace, bps: f64, config: PlayerConfig) -> SessionResult {
        run_session(
            video,
            tr,
            single_path(bps),
            Box::new(SinglePath(0)),
            Box::new(RateBased::default()),
            &FusedForecaster::motion_only(),
            &config,
        )
    }

    #[test]
    fn ample_bandwidth_plays_cleanly() {
        let v = video(15);
        let tr = trace(15, 3);
        let r = run(&v, &tr, 100e6, PlayerConfig::default());
        assert_eq!(r.qoe.chunks, 15);
        assert_eq!(r.qoe.stall_count, 0, "no stalls at 100 Mbps");
        assert!(
            r.qoe.mean_blank_fraction < 0.12,
            "blank {}",
            r.qoe.mean_blank_fraction
        );
        assert!(r.qoe.mean_viewport_utility > 0.5);
    }

    #[test]
    fn starved_bandwidth_stalls_or_degrades() {
        let v = video(15);
        let tr = trace(15, 3);
        let rich = run(&v, &tr, 60e6, PlayerConfig::default());
        let poor = run(&v, &tr, 1.5e6, PlayerConfig::default());
        assert!(
            poor.qoe.mean_viewport_utility < rich.qoe.mean_viewport_utility,
            "poor {} vs rich {}",
            poor.qoe.mean_viewport_utility,
            rich.qoe.mean_viewport_utility
        );
        assert!(poor.qoe.score < rich.qoe.score);
    }

    #[test]
    fn fov_guided_uses_less_bandwidth_than_agnostic() {
        // The §2 savings claim is at *matched quality*: pin both players
        // to Q2 and compare bytes on the wire.
        use sperke_vra::FixedQuality;
        let v = video(15);
        let tr = trace(15, 5);
        let run_fixed = |planner: PlannerKind| {
            run_session(
                &v,
                &tr,
                single_path(60e6),
                Box::new(SinglePath(0)),
                Box::new(FixedQuality(sperke_video::Quality(2))),
                &FusedForecaster::motion_only(),
                &PlayerConfig {
                    planner,
                    ..Default::default()
                },
            )
        };
        let guided = run_fixed(PlannerKind::Sperke(SperkeConfig::default()));
        let agnostic = run_fixed(PlannerKind::FovAgnostic);
        assert!(
            (guided.qoe.bytes_fetched as f64) < 0.7 * agnostic.qoe.bytes_fetched as f64,
            "guided {} vs agnostic {}",
            guided.qoe.bytes_fetched,
            agnostic.qoe.bytes_fetched
        );
        // And the agnostic player never shows blank tiles.
        assert_eq!(agnostic.qoe.mean_blank_fraction, 0.0);
    }

    #[test]
    fn upgrades_happen_for_wandering_viewer() {
        let v = video(20);
        let tr = TraceGenerator::new(
            AttentionModel::generic(4),
            Behavior::Explorer,
            ViewingContext::default(),
        )
        .generate(SimDuration::from_secs(25), 9);
        let config = PlayerConfig {
            planner: PlannerKind::Sperke(SperkeConfig {
                encoding: sperke_vra::EncodingPolicy::SvcOnly,
                ..Default::default()
            }),
            ..Default::default()
        };
        // Ample headroom so urgent deltas aren't stuck behind OOS bulk
        // on the single path (the §3.3 head-of-line problem).
        let r = run(&v, &tr, 80e6, config);
        assert!(
            r.upgrades_applied > 0,
            "an explorer should trigger incremental upgrades"
        );
    }

    #[test]
    fn disabled_upgrades_apply_none() {
        let v = video(10);
        let tr = trace(10, 5);
        let r = run(
            &v,
            &tr,
            30e6,
            PlayerConfig {
                upgrades_enabled: false,
                ..Default::default()
            },
        );
        assert_eq!(r.upgrades_applied, 0);
    }

    #[test]
    fn realtime_mode_skips_instead_of_stalling() {
        let v = video(15);
        let tr = trace(15, 3);
        // A link too slow for even the base layer forces lateness.
        let vod = run(&v, &tr, 1.0e6, PlayerConfig::default());
        let live = run(
            &v,
            &tr,
            1.0e6,
            PlayerConfig {
                realtime: true,
                ..Default::default()
            },
        );
        assert_eq!(live.qoe.stall_count, 0, "live never stalls");
        assert!(vod.qoe.stall_count > 0, "VoD stalls on the same link");
        assert!(
            live.qoe.mean_blank_fraction > vod.qoe.mean_blank_fraction,
            "live pays in skipped (blank) chunks instead"
        );
        assert_eq!(live.qoe.chunks, 15);
    }

    #[test]
    fn realtime_with_ample_bandwidth_skips_nothing() {
        let v = video(10);
        let tr = trace(10, 3);
        let live = run(
            &v,
            &tr,
            60e6,
            PlayerConfig {
                realtime: true,
                ..Default::default()
            },
        );
        assert_eq!(live.qoe.stall_count, 0);
        assert!(live.qoe.mean_blank_fraction < 0.15);
    }

    #[test]
    fn session_is_deterministic() {
        let v = video(10);
        let tr = trace(10, 5);
        let a = run(&v, &tr, 20e6, PlayerConfig::default());
        let b = run(&v, &tr, 20e6, PlayerConfig::default());
        assert_eq!(a.qoe, b.qoe);
    }

    #[test]
    fn startup_delay_is_first_fov_fetch() {
        let v = video(10);
        let tr = trace(10, 5);
        let r = run(&v, &tr, 20e6, PlayerConfig::default());
        assert!(!r.qoe.startup_delay.is_zero());
        assert!(r.qoe.startup_delay.as_secs_f64() < 2.0);
    }

    #[test]
    fn spatial_fallback_turns_blank_into_degraded() {
        let v = video(15);
        let tr = trace(15, 3);
        let run_with = |fallback: bool| {
            let paths = vec![PathQueue::new(
                PathModel::new(
                    "lab",
                    BandwidthTrace::constant(25e6),
                    SimDuration::from_millis(20),
                    0.0,
                ),
                SimRng::new(7),
            )
            .with_faults(
                FaultScript::none()
                    .link_down(0, SimTime::from_secs(4), SimTime::from_secs(8))
                    .compile_for(0),
            )];
            run_session(
                &v,
                &tr,
                paths,
                Box::new(SinglePath(0)),
                Box::new(RateBased::default()),
                &FusedForecaster::motion_only(),
                &PlayerConfig {
                    fallback_enabled: fallback,
                    ..Default::default()
                },
            )
        };
        let hard = run_with(false);
        let soft = run_with(true);
        assert!(hard.qoe.mean_blank_fraction > 0.0, "the outage must bite");
        assert_eq!(hard.qoe.mean_degraded_fraction, 0.0);
        assert!(
            soft.qoe.mean_degraded_fraction > 0.0,
            "fall-back rescues some screen area"
        );
        assert!(
            soft.qoe.mean_blank_fraction < hard.qoe.mean_blank_fraction,
            "soft {} vs hard {}",
            soft.qoe.mean_blank_fraction,
            hard.qoe.mean_blank_fraction
        );
        assert!(
            soft.qoe.score > hard.qoe.score,
            "degraded is cheaper than blank"
        );
    }

    #[test]
    fn resilient_recovery_fails_over_during_an_outage() {
        let v = video(15);
        let tr = trace(15, 3);
        let run_with = |resilient: bool| {
            let faults =
                FaultScript::none().link_down(0, SimTime::from_secs(4), SimTime::from_secs(9));
            let paths = vec![
                PathQueue::new(
                    PathModel::new(
                        "wifi",
                        BandwidthTrace::constant(40e6),
                        SimDuration::from_millis(15),
                        0.0,
                    ),
                    SimRng::new(7),
                )
                .with_faults(faults.compile_for(0)),
                PathQueue::new(
                    PathModel::new(
                        "lte",
                        BandwidthTrace::constant(10e6),
                        SimDuration::from_millis(60),
                        0.0,
                    ),
                    SimRng::new(8),
                ),
            ];
            run_session(
                &v,
                &tr,
                paths,
                Box::new(ContentAware),
                Box::new(RateBased::default()),
                &FusedForecaster::motion_only(),
                &PlayerConfig {
                    resilient,
                    ..Default::default()
                },
            )
        };
        let naive = run_with(false);
        let resilient = run_with(true);
        assert!(
            naive.qoe.mean_blank_fraction > 0.05,
            "naive mode blanks during the outage: {}",
            naive.qoe.mean_blank_fraction
        );
        assert!(
            resilient.qoe.mean_blank_fraction < naive.qoe.mean_blank_fraction,
            "failover recovers tiles: resilient {} vs naive {}",
            resilient.qoe.mean_blank_fraction,
            naive.qoe.mean_blank_fraction
        );
        assert!(resilient.qoe.score > naive.qoe.score);
        // The surviving path carried the failover traffic.
        assert!(resilient.path_bytes[1] > naive.path_bytes[1]);
    }

    #[test]
    fn every_policy_kind_streams_a_session() {
        let v = video(10);
        let tr = trace(10, 5);
        for kind in sperke_vra::AbrPolicyKind::all() {
            let r = run(
                &v,
                &tr,
                25e6,
                PlayerConfig {
                    planner: PlannerKind::Sperke(SperkeConfig {
                        policy: kind,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            );
            assert_eq!(r.qoe.chunks, 10, "{} died mid-session", kind.name());
            assert!(
                r.qoe.mean_viewport_utility > 0.0,
                "{} showed nothing",
                kind.name()
            );
        }
    }

    #[test]
    fn path_bytes_accounted() {
        let v = video(8);
        let tr = trace(8, 6);
        let r = run(&v, &tr, 30e6, PlayerConfig::default());
        assert_eq!(r.path_bytes.len(), 1);
        assert!(r.path_bytes[0] > 0);
        assert_eq!(r.scheduler, "single-path");
    }
}
