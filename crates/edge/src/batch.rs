//! The data-oriented batched edge engine.
//!
//! [`run_edge_batched`] produces the same report and the same trace
//! bytes as [`run_edge_full`](crate::server::run_edge_full) for any
//! `(config, clients, harness)` and any worker count, but restructures
//! the run into lockstep phases over contiguous per-client arrays:
//!
//! 1. **sense** — every client's head trace, gaze reports, per-chunk
//!    decide selections and display visibility lists are *pure*
//!    functions of `(config, spec, video)`, so they are computed up
//!    front, sharded across worker threads by client index (the same
//!    deterministic-merge discipline as the sweep harness: results are
//!    merged by index, making the output worker-count blind);
//! 2. **decide / fetch / render** — the stateful remainder (egress
//!    queues, cache, origin backhaul, degradation) replays the exact
//!    legacy event sequence through a [`ReplayQueue`] — static schedule
//!    in a sorted array, dynamic origin completions in a heap, popping
//!    by `(time, seq)` exactly like the legacy `EventQueue` — and
//!    executes the *same* `apply_*` methods the legacy engine runs.
//!
//! Bit-exactness is therefore by construction: the pure kernels are
//! individually proven bit-identical to their inline forms (see the
//! `forecast_with` / `visible_tiles_batch` / `viewer_reports` tests),
//! and everything stateful is shared code. The differential harness in
//! `tests/engine_equivalence.rs` pins the end-to-end claim.

use crate::server::{
    client_head, crowd_slot, decide_choices, decide_choices_policy, display_gaze, edge_horizon,
    finish_edge_run, ClientState, EdgeClientSpec, EdgeConfig, EdgeEvent, EdgeHarness, EdgeReport,
    EdgeSched, EdgeWorld,
};
use sperke_geo::{visible_tiles_batch, Orientation, TileId, Viewport, VisibilityScratch};
use sperke_hmp::{AttentionModel, ForecastScratch};
use sperke_live::{viewer_reports, CrowdAggregator, LiveViewer};
use sperke_net::WrrLink;
use sperke_sim::{parallel_indexed, MetricsRegistry, ReplayQueue, SimDuration, SimTime};
use sperke_video::{ChunkTime, VideoModel};
use sperke_vra::{AbrPolicyKind, StochasticChoice};
use std::cell::RefCell;

/// Everything the sense phase computes for one client, independent of
/// every other client and of the world's mutable state.
pub(crate) struct ClientBatch {
    pub(crate) head: sperke_hmp::HeadTrace,
    /// Crowd gaze reports (admitted clients, prefetch runs only).
    pub(crate) reports: Vec<(SimTime, ChunkTime, Vec<TileId>)>,
    /// Per-chunk stochastic selections (admitted clients only).
    pub(crate) decides: Vec<Vec<StochasticChoice>>,
    /// Per-chunk display coverage lists (admitted clients only).
    pub(crate) displays: Vec<Vec<(TileId, f64)>>,
}

/// Per-worker sense-phase scratch: forecast tables, visibility counts,
/// gaze-history window.
type SenseScratch = (
    ForecastScratch,
    VisibilityScratch,
    Vec<(SimTime, Orientation)>,
);

thread_local! {
    /// Per-worker scratch: forecast tables, visibility counts, history
    /// window. Contents never leak between calls (each kernel clears or
    /// rebuilds what it reads), so reuse cannot change output bits.
    static SCRATCH: RefCell<SenseScratch> =
        RefCell::new((ForecastScratch::new(), VisibilityScratch::new(), Vec::new()));
}

/// The replay cursor's scheduler: `now` is the popped event's time,
/// dynamic pushes go into the replay heap with continuing sequence
/// numbers — exactly how the legacy `Scheduler` feeds its `EventQueue`.
struct ReplaySched<'q> {
    now: SimTime,
    queue: &'q mut ReplayQueue<EdgeEvent>,
}

impl EdgeSched for ReplaySched<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn at(&mut self, at: SimTime, event: EdgeEvent) {
        self.queue.push(at, event);
    }
}

/// The sense phase's output: every pure per-client computation,
/// materialized into contiguous arrays. Build once with
/// [`prepare_edge_batch`], replay any number of times with
/// [`run_edge_prepared`] — the split is what lets the perf harness time
/// the engine's stepping loop apart from trace synthesis.
pub struct EdgePlan {
    /// Client specs in canonical (deterministic) order.
    specs: Vec<EdgeClientSpec>,
    /// Per-client sense output, index-aligned with `specs`.
    batches: Vec<ClientBatch>,
}

/// Run the sense phase: sort the population into canonical order and
/// compute every client's pure plan (head trace, gaze reports, decide
/// selections, display visibility) on `workers` threads (0 = machine
/// default). The result is worker-count blind.
pub fn prepare_edge_batch(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
    workers: usize,
) -> EdgePlan {
    prepare_edge_batch_inner(video, config, clients, workers, None)
}

/// [`prepare_edge_batch`] with a rival viewport-adaptation policy
/// planning every sense-phase decide. Pair with a matching
/// [`EdgeHarness::policy`] when replaying (the replay itself never
/// re-plans, but the inline legacy engine does — keeping both set makes
/// the two engines interchangeable).
pub fn prepare_edge_batch_policy(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
    workers: usize,
    policy: AbrPolicyKind,
) -> EdgePlan {
    prepare_edge_batch_inner(video, config, clients, workers, Some(policy))
}

fn prepare_edge_batch_inner(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
    workers: usize,
    policy: Option<AbrPolicyKind>,
) -> EdgePlan {
    assert!(!clients.is_empty(), "at least one client required");
    let mut specs = clients.to_vec();
    specs.sort_by_key(EdgeClientSpec::canonical_key);

    let session = video.duration() + SimDuration::from_secs(5);
    let attention = AttentionModel::generic(config.seed);
    let report_delay = CrowdAggregator::new(*video.grid(), video.chunk_duration()).report_delay;

    let specs_ref = &specs;
    let batches = parallel_indexed(specs.len(), workers, |i| {
        sense_client_policy(
            video,
            config,
            &attention,
            &specs_ref[i],
            i < config.max_clients,
            session,
            report_delay,
            policy,
        )
    });
    EdgePlan { specs, batches }
}

/// The pure per-client sense kernel: head trace, per-chunk decide
/// selections, display coverage lists and crowd gaze reports, all as a
/// function of `(video, config, spec)` alone. Shared by the batched
/// edge engine and the federation engine — both shard it across worker
/// threads and merge by index, which is what makes their outputs
/// worker-count blind.
pub(crate) fn sense_client(
    video: &VideoModel,
    config: &EdgeConfig,
    attention: &AttentionModel,
    spec: &EdgeClientSpec,
    admitted: bool,
    session: SimDuration,
    report_delay: SimDuration,
) -> ClientBatch {
    sense_client_policy(
        video,
        config,
        attention,
        spec,
        admitted,
        session,
        report_delay,
        None,
    )
}

/// [`sense_client`] with an optional rival policy planning the decide
/// selections. The per-client chunk loop runs in order, so temporal
/// policies see the same previous-window state as the legacy engine's
/// time-ordered inline decides.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sense_client_policy(
    video: &VideoModel,
    config: &EdgeConfig,
    attention: &AttentionModel,
    spec: &EdgeClientSpec,
    admitted: bool,
    session: SimDuration,
    report_delay: SimDuration,
    policy: Option<AbrPolicyKind>,
) -> ClientBatch {
    let chunks = video.chunk_count();
    let head = client_head(attention, spec, session);
    if !admitted {
        return ClientBatch {
            head,
            reports: Vec::new(),
            decides: Vec::new(),
            displays: Vec::new(),
        };
    }
    SCRATCH.with(|s| {
        let (fscratch, vscratch, hist) = &mut *s.borrow_mut();
        let mut decides = Vec::with_capacity(chunks as usize);
        let mut prev: Vec<i8> = Vec::new();
        for c in 0..chunks {
            let display = SimTime::ZERO + spec.arrival + video.chunk_duration() * (c + 1) as u64;
            let decide_at = SimTime::from_nanos(
                display
                    .as_nanos()
                    .saturating_sub(config.fetch_lead.as_nanos()),
            );
            decides.push(match policy {
                None => decide_choices(video, spec, &head, c, decide_at, fscratch, hist),
                Some(kind) => decide_choices_policy(
                    video, spec, &head, c, decide_at, fscratch, hist, kind, &mut prev,
                ),
            });
        }
        let gazes: Vec<Orientation> = (0..chunks).map(|c| display_gaze(video, &head, c)).collect();
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
        // The crowd only matters when the prefetcher runs; skipping
        // ingest otherwise cannot change any output (the aggregator
        // is read exclusively by prefetch events).
        let reports = if config.prefetch {
            viewer_reports(
                video.grid(),
                video.chunk_duration(),
                report_delay,
                &LiveViewer {
                    trace: head.clone(),
                    latency: spec.arrival,
                },
                chunks,
            )
        } else {
            Vec::new()
        };
        ClientBatch {
            head,
            reports,
            decides,
            displays,
        }
    })
}

/// Run the stateful engine over a prepared plan: assemble the world,
/// replay the legacy event order, and settle the books. This is the
/// decide → fetch → render stepping loop the perf baseline gates —
/// everything pure was already materialized by [`prepare_edge_batch`].
pub fn run_edge_prepared(
    video: &VideoModel,
    config: &EdgeConfig,
    plan: &EdgePlan,
    harness: &EdgeHarness,
    metrics: Option<&mut MetricsRegistry>,
) -> EdgeReport {
    let chunks = video.chunk_count();
    let specs = &plan.specs;

    // --- Assemble world state in canonical index order (sequential, so
    // WRR registration and crowd report order match legacy exactly).
    let mut egress = WrrLink::new(config.egress_bps);
    let mut crowds: Vec<(u16, CrowdAggregator)> = Vec::new();
    let states: Vec<ClientState> = plan
        .batches
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            let spec = specs[i];
            let admitted = i < config.max_clients;
            let link_id = admitted.then(|| egress.add_client(spec.weight));
            crowd_slot(
                &mut crowds,
                video.grid(),
                video.chunk_duration(),
                spec.content,
            )
            .ingest_reports(batch.reports.clone());
            ClientState::new(spec, batch.head.clone(), admitted, link_id)
        })
        .collect();

    let admitted = states.iter().filter(|c| c.admitted).count();
    let rejected = states.len() - admitted;
    let first_arrival = specs.first().expect("non-empty").arrival;
    let last_arrival = specs.last().expect("non-empty").arrival;

    let mut world = EdgeWorld::new(video, *config, states, egress, crowds, harness);

    // --- Prefetch plans: the crowds are fully ingested and event times
    // are static, so the predicted tiles per chunk (per content group)
    // are known up front.
    let report_lag = first_arrival + SimDuration::from_millis(250) + video.chunk_duration();
    let prefetch_groups: Vec<Vec<(u16, Vec<TileId>)>> = if config.prefetch {
        (0..chunks)
            .map(|c| {
                let at = video.chunk_start(ChunkTime(c)) + report_lag;
                world
                    .crowds
                    .iter()
                    .map(|(content, crowd)| {
                        (
                            *content,
                            crowd.predicted_tiles(at, ChunkTime(c), config.prefetch_k),
                        )
                    })
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };

    // --- Static schedule, pushed in the legacy `sim.schedule` order so
    // sequence numbers (and thus same-instant tie-breaks) coincide.
    let mut queue: ReplayQueue<EdgeEvent> = ReplayQueue::new();
    for (i, spec) in specs.iter().enumerate() {
        let client = i as u32;
        queue.push_static(SimTime::ZERO + spec.arrival, EdgeEvent::Arrive { client });
        if i >= config.max_clients {
            continue;
        }
        for c in 0..chunks {
            let display = world.display_wall(client, c);
            let decide = SimTime::from_nanos(
                display
                    .as_nanos()
                    .saturating_sub(config.fetch_lead.as_nanos()),
            );
            queue.push_static(decide, EdgeEvent::Decide { client, chunk: c });
            queue.push_static(display, EdgeEvent::Display { client, chunk: c });
        }
    }
    if config.prefetch {
        for c in 0..chunks {
            queue.push_static(
                video.chunk_start(ChunkTime(c)) + report_lag,
                EdgeEvent::Prefetch { chunk: c },
            );
        }
    }
    queue.seal();

    // --- Replay: pop by (time, seq) and run the shared apply code.
    let horizon = edge_horizon(video, last_arrival);
    while let Some(t) = queue.peek_time() {
        if t > horizon {
            break;
        }
        let (now, event) = queue.pop().expect("peeked non-empty");
        world.drain_egress(now);
        let mut sched = ReplaySched {
            now,
            queue: &mut queue,
        };
        match event {
            EdgeEvent::Arrive { client } => world.apply_arrive(client, now),
            EdgeEvent::Decide { client, chunk } => {
                let decides = &plan.batches[client as usize].decides;
                world.apply_decide(client, chunk, &decides[chunk as usize], &mut sched);
            }
            EdgeEvent::Display { client, chunk } => {
                let displays = &plan.batches[client as usize].displays;
                world.apply_display(client, chunk, &displays[chunk as usize]);
            }
            EdgeEvent::OriginArrived { chunk, tile, layer } => {
                world.apply_origin_arrived(chunk, tile, layer, now)
            }
            EdgeEvent::OriginRetry {
                chunk,
                tile,
                layer,
                attempt,
            } => world.apply_origin_retry(chunk, tile, layer, attempt, &mut sched),
            EdgeEvent::Prefetch { chunk } => {
                if config.prefetch {
                    world.apply_prefetch(chunk, &prefetch_groups[chunk as usize], &mut sched);
                }
            }
        }
    }

    finish_edge_run(world, specs.len(), admitted, rejected, metrics)
}

/// Run the edge world through the batched engine.
///
/// `workers = 0` picks the machine default; any value (including 1)
/// yields byte-identical traces and reports — worker count only shards
/// the pure sense phase, never the replay.
pub fn run_edge_batched(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
    harness: &EdgeHarness,
    metrics: Option<&mut MetricsRegistry>,
    workers: usize,
) -> EdgeReport {
    // The harness's policy knob drives the sense phase, so the batched
    // engine stays interchangeable with the inline legacy one.
    let plan = prepare_edge_batch_inner(video, config, clients, workers, harness.policy);
    run_edge_prepared(video, config, &plan, harness, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{default_clients, run_edge_full};
    use sperke_net::FaultScript;
    use sperke_sim::{TraceConfig, TraceLevel, TraceSink};
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(12))
            .build()
    }

    #[test]
    fn batched_matches_legacy_report_and_trace() {
        let v = video();
        let cfg = EdgeConfig {
            clients: 10,
            max_clients: 8,
            ..Default::default()
        };
        let clients = default_clients(&cfg);
        for workers in [1usize, 2, 8] {
            let legacy_sink = TraceSink::new(TraceConfig::new(TraceLevel::Events));
            let batch_sink = TraceSink::new(TraceConfig::new(TraceLevel::Events));
            let legacy = run_edge_full(
                &v,
                &cfg,
                &clients,
                &EdgeHarness {
                    trace: legacy_sink.clone(),
                    ..Default::default()
                },
                None,
            );
            let batched = run_edge_batched(
                &v,
                &cfg,
                &clients,
                &EdgeHarness {
                    trace: batch_sink.clone(),
                    ..Default::default()
                },
                None,
                workers,
            );
            assert_eq!(legacy, batched, "report diverged at {workers} workers");
            assert_eq!(
                legacy_sink.snapshot().digest(),
                batch_sink.snapshot().digest(),
                "trace diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn degenerate_policy_kinds_reproduce_legacy_edge_bytes() {
        let v = video();
        let cfg = EdgeConfig {
            clients: 8,
            ..Default::default()
        };
        let clients = default_clients(&cfg);
        let legacy = run_edge_full(&v, &cfg, &clients, &EdgeHarness::default(), None);
        for kind in [AbrPolicyKind::Knapsack, AbrPolicyKind::Sperke] {
            let harness = EdgeHarness {
                policy: Some(kind),
                ..Default::default()
            };
            assert_eq!(
                legacy,
                run_edge_full(&v, &cfg, &clients, &harness, None),
                "{} inline diverged from legacy",
                kind.name()
            );
            assert_eq!(
                legacy,
                run_edge_batched(&v, &cfg, &clients, &harness, None, 4),
                "{} batched diverged from legacy",
                kind.name()
            );
        }
    }

    #[test]
    fn policy_batched_matches_policy_legacy_for_every_kind() {
        let v = video();
        let cfg = EdgeConfig {
            clients: 6,
            ..Default::default()
        };
        let clients = default_clients(&cfg);
        for kind in AbrPolicyKind::all() {
            let harness = EdgeHarness {
                policy: Some(kind),
                ..Default::default()
            };
            let legacy = run_edge_full(&v, &cfg, &clients, &harness, None);
            for workers in [1usize, 2, 8] {
                assert_eq!(
                    legacy,
                    run_edge_batched(&v, &cfg, &clients, &harness, None, workers),
                    "{} diverged at {workers} workers",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn batched_matches_legacy_under_faults_and_no_prefetch() {
        let v = video();
        let cfg = EdgeConfig {
            clients: 8,
            prefetch: false,
            ..Default::default()
        };
        let harness = EdgeHarness {
            faults: FaultScript::none().link_down(0, SimTime::from_secs(2), SimTime::from_secs(4)),
            ..Default::default()
        };
        let clients = default_clients(&cfg);
        let legacy = run_edge_full(&v, &cfg, &clients, &harness, None);
        let batched = run_edge_batched(&v, &cfg, &clients, &harness, None, 4);
        assert_eq!(legacy, batched);
    }
}
