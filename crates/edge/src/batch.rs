//! The edge engine: a pure sense phase, then one serial replay over
//! `1..N` node worlds.
//!
//! A standalone edge ([`run_edge`]) and a federation
//! ([`run_federation`](crate::run_federation)) run the same two phases
//! over contiguous per-client arrays. A standalone edge is the
//! one-node case with no regional tier:
//!
//! 1. **sense** — every client's head trace, gaze reports, per-chunk
//!    decide plans and display visibility lists are *pure* functions of
//!    `(config, spec, video, policy)`, so they are computed up front,
//!    sharded across worker threads by client index (the same
//!    deterministic-merge discipline as the sweep harness: results are
//!    merged by index, making the output worker-count blind). Every
//!    head trace reads one shared hotspot track, and gaze reports are
//!    cast only for the clients whose reports some crowd prefetch can
//!    count (`readable_reports`); the rest would arrive after every
//!    read, so skipping them changes no byte;
//! 2. **decide / fetch / render** — one replay assembles a world per
//!    node and replays every node's events in one merged order through
//!    a [`ReplayQueue`] — static schedule in a sorted array, dynamic
//!    origin completions in a heap, popping by `(time, seq)` exactly
//!    like a heap-backed `EventQueue` — executing the worlds' shared
//!    `apply_*` methods. The static schedule is pushed through the
//!    schedule functions the oracle also calls.
//!
//! The per-event engine in [`oracle`](crate::oracle) plans every decide
//! inline at its event and runs the same `apply_*` code through the
//! same kernels (`forecast_with`, `visible_tiles_into`), and
//! `tests/engine_equivalence.rs` pins the end-to-end claim: the same
//! report and trace bytes, for every policy and worker count.

use crate::cache::CacheKey;
use crate::federation::{NodeSpec, RegionalTier};
use crate::server::{
    client_head, client_schedule, crowd_slot, decide_and_display, decide_choices, display_gaze,
    edge_horizon, finish_edge_run, head_track, prefetch_instant, prefetch_schedule, ClientState,
    EdgeClientSpec, EdgeConfig, EdgeEvent, EdgeHarness, EdgeReport, EdgeSched, EdgeWorld,
    UpstreamDecision,
};
use sperke_geo::{Orientation, TileId, Viewport, VisibilityScratch};
use sperke_hmp::{ForecastScratch, HeadTrace};
use sperke_live::{viewer_reports, CrowdAggregator, LiveViewer};
use sperke_net::WrrLink;
use sperke_sim::{parallel_indexed, MetricsRegistry, ReplayQueue, SimDuration, SimTime};
use sperke_video::{ChunkTime, VideoModel};
use sperke_vra::{AbrPolicyKind, StochasticChoice};
use std::cell::RefCell;
use std::sync::Arc;

/// Everything the sense phase computes for one client, independent of
/// every other client and of the world's mutable state. The client's
/// head trace is not part of it: [`sense_client`] is its only user.
#[derive(Debug, Default, PartialEq)]
struct ClientBatch {
    /// Crowd gaze reports, cast only for a client some crowd prefetch
    /// can count ([`readable_reports`]); empty otherwise. Each tile list
    /// is shared by every crowd the report reaches.
    reports: Vec<(SimTime, ChunkTime, Arc<[TileId]>)>,
    /// Per-chunk decide plans (admitted clients only).
    decides: Vec<Vec<StochasticChoice>>,
    /// Per-chunk display coverage lists (admitted clients only).
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
    /// Per-worker scratch: forecast tables, visibility counts, history
    /// window. Contents never leak between calls (each kernel clears or
    /// rebuilds what it reads), so reuse cannot change output bits.
    static SCRATCH: RefCell<SenseScratch> =
        RefCell::new((ForecastScratch::new(), VisibilityScratch::new(), Vec::new()));
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

/// Run the sense phase under the default policy
/// ([`AbrPolicyKind::Knapsack`]): sort the population into canonical
/// order and compute every client's pure plan (head trace, gaze reports,
/// decide selections, display visibility) on `workers` threads (0 =
/// machine default). The result is worker-count blind.
pub fn prepare_edge_batch(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
    workers: usize,
) -> EdgePlan {
    prepare_plan(video, config, clients, workers, AbrPolicyKind::default())
}

fn prepare_plan(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
    workers: usize,
    policy: AbrPolicyKind,
) -> EdgePlan {
    assert!(!clients.is_empty(), "at least one client required");
    let mut specs = clients.to_vec();
    specs.sort_by_key(EdgeClientSpec::canonical_key);
    let admitted: Vec<bool> = (0..specs.len()).map(|i| i < config.max_clients).collect();
    let home = vec![0; specs.len()];
    let readable = readable_reports(video, config, &specs, &home, &admitted, None);
    sense_plan(video, config, specs, &admitted, &readable, workers, policy)
}

/// Sense every client of the canonically ordered `specs` on `workers`
/// threads (0 = machine default), skipping clients that `admitted`
/// marks as rejected and casting crowd reports only for those that
/// `readable` marks. Every head trace reads one hotspot track. Results
/// merge by client index, so the plan is worker-count blind.
pub(crate) fn sense_plan(
    video: &VideoModel,
    config: &EdgeConfig,
    specs: Vec<EdgeClientSpec>,
    admitted: &[bool],
    readable: &[bool],
    workers: usize,
    policy: AbrPolicyKind,
) -> EdgePlan {
    let track = head_track(video, config.seed);
    let report_delay = report_delay(video);

    let specs_ref = &specs;
    let batches = parallel_indexed(specs.len(), workers, |i| {
        if !admitted[i] {
            return ClientBatch::default();
        }
        let spec = &specs_ref[i];
        let head = client_head(&track, spec);
        let reports = readable[i].then_some(report_delay);
        sense_client(video, config, spec, head, reports, policy)
    });
    EdgePlan { specs, batches }
}

/// How long a viewer's gaze report takes to reach its crowd: the live
/// aggregator's default, which the sense phase casts reports with.
fn report_delay(video: &VideoModel) -> SimDuration {
    CrowdAggregator::new(*video.grid(), video.chunk_duration()).report_delay
}

/// The pure per-client sense kernel of an admitted client: per-chunk
/// decide plans, display coverage lists and, when `report_delay` is
/// given, crowd gaze reports stamped that much after the client watches
/// each chunk, all as a function of `(video, config, spec, head,
/// policy)` alone. The per-client chunk loop runs in order, so temporal
/// policies see the same previous-window state as the oracle's
/// time-ordered inline decides.
fn sense_client(
    video: &VideoModel,
    config: &EdgeConfig,
    spec: &EdgeClientSpec,
    head: HeadTrace,
    report_delay: Option<SimDuration>,
    policy: AbrPolicyKind,
) -> ClientBatch {
    let chunks = video.chunk_count();
    SCRATCH.with(|s| {
        let (fscratch, vscratch, hist) = &mut *s.borrow_mut();
        let mut decides = Vec::with_capacity(chunks as usize);
        let mut prev: Vec<i8> = Vec::new();
        for c in 0..chunks {
            let (decide_at, _) = decide_and_display(video, config, spec, c);
            decides.push(decide_choices(
                video, spec, &head, c, decide_at, fscratch, hist, policy, &mut prev,
            ));
        }
        let mut list = Vec::new();
        let displays: Vec<Vec<(TileId, f64)>> = (0..chunks)
            .map(|c| {
                Viewport::headset(display_gaze(video, &head, c)).visible_tiles_into(
                    video.grid(),
                    12,
                    vscratch,
                    &mut list,
                );
                list.to_vec()
            })
            .collect();
        // Only prefetches read a crowd, so a report no prefetch can
        // count is never cast (`readable_reports`). The reports are the
        // head's last use, so the viewer takes it without a copy. Each
        // tile list moves into an `Arc` here, once, so every crowd the
        // report reaches shares it.
        let reports = match report_delay {
            Some(report_delay) => {
                let viewer = LiveViewer {
                    trace: head,
                    latency: spec.arrival,
                };
                viewer_reports(
                    video.grid(),
                    video.chunk_duration(),
                    report_delay,
                    &viewer,
                    chunks,
                )
                .into_iter()
                .map(|(wall, chunk, tiles)| (wall, chunk, tiles.into()))
                .collect()
            }
            None => Vec::new(),
        };
        ClientBatch {
            reports,
            decides,
            displays,
        }
    })
}

/// What one node's crowds hear, fixed when its world is assembled.
struct NodeCrowds {
    /// The titles its admitted residents watch, sorted.
    served: Vec<u16>,
    /// The arrival of its earliest home client, which times its
    /// prefetches ([`prefetch_instant`]); `None` when nobody is homed
    /// there.
    first_arrival: Option<SimDuration>,
}

impl NodeCrowds {
    /// Each of `nodes` nodes' crowds, for canonically ordered `specs`
    /// homed on `home` and admitted per `admitted`.
    fn of(
        specs: &[EdgeClientSpec],
        home: &[u32],
        admitted: &[bool],
        nodes: usize,
    ) -> Vec<NodeCrowds> {
        (0..nodes as u32)
            .map(|node| {
                let homed = || (0..specs.len()).filter(move |&i| home[i] == node);
                let mut served: Vec<u16> = homed()
                    .filter(|&i| admitted[i])
                    .map(|i| specs[i].content)
                    .collect();
                served.sort_unstable();
                served.dedup();
                NodeCrowds {
                    served,
                    first_arrival: homed().next().map(|i| specs[i].arrival),
                }
            })
            .collect()
    }

    /// After what delay this node, `node`, hears the crowd reports of a
    /// client homed on `home` who watches `content`, or `None` when it
    /// never does. An admitted client reports to its home node at once
    /// and, with a `share_delay`, to every other node that serves its
    /// title that much later; a rejected client reports nowhere.
    fn delivery(
        &self,
        node: u32,
        home: u32,
        admitted: bool,
        content: u16,
        share_delay: Option<SimDuration>,
    ) -> Option<SimDuration> {
        if !admitted {
            None
        } else if home == node {
            Some(SimDuration::ZERO)
        } else {
            share_delay.filter(|_| self.served.binary_search(&content).is_ok())
        }
    }
}

/// Which clients' crowd reports some prefetch can count, for
/// canonically ordered `specs` homed on `home` and admitted per
/// `admitted`. A crowd is read only by its node's prefetch of a chunk,
/// once, at [`prefetch_instant`], and counts the reports that have
/// arrived by then. A client's report of chunk `c` arrives at
/// `chunk_start(c) + arrival + report_delay` plus its
/// [`NodeCrowds::delivery`] delay. A client is readable when any of its
/// reports arrives by its crowd's read of the same chunk. Both instants
/// are `chunk_start(c)` plus a term of the node and the client alone, so
/// that is all of its chunks or none: an unreadable client's reports
/// arrive after every read they could reach, no prefetch runs without
/// them differently, and the sense phase skips their cast.
pub(crate) fn readable_reports(
    video: &VideoModel,
    config: &EdgeConfig,
    specs: &[EdgeClientSpec],
    home: &[u32],
    admitted: &[bool],
    share_delay: Option<SimDuration>,
) -> Vec<bool> {
    if !config.prefetch {
        return vec![false; specs.len()];
    }
    let report_delay = report_delay(video);
    let nodes = home.iter().max().map_or(0, |&n| n as usize + 1);
    let crowds = NodeCrowds::of(specs, home, admitted, nodes);
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            crowds.iter().enumerate().any(|(n, crowd)| {
                let node = n as u32;
                let delivery =
                    crowd.delivery(node, home[i], admitted[i], spec.content, share_delay);
                let (Some(first), Some(delay)) = (crowd.first_arrival, delivery) else {
                    return false;
                };
                (0..video.chunk_count()).any(|c| {
                    let lands =
                        video.chunk_start(ChunkTime(c)) + spec.arrival + report_delay + delay;
                    lands <= prefetch_instant(video, first, c)
                })
            })
        })
        .collect()
}

/// Where a replay's clients live: the nodes that serve them, each
/// client's home node and admission, and the scripted crash-stops that
/// re-home them. A standalone edge is one node that holds everyone.
pub(crate) struct Placement {
    /// Per node, in node order: its capacity and its harness.
    nodes: Vec<(NodeSpec, EdgeHarness)>,
    /// Each client's home node, in canonical client order.
    pub(crate) home: Vec<u32>,
    /// Whether each client's home admitted it.
    pub(crate) admitted: Vec<bool>,
    /// Scripted crash-stops as `(instant, node)`.
    crashes: Vec<(SimTime, u32)>,
}

impl Placement {
    /// Home client `i` on node `home[i]`; each node admits its residents
    /// in canonical order up to its `max_clients`.
    pub(crate) fn new(
        nodes: Vec<(NodeSpec, EdgeHarness)>,
        home: Vec<u32>,
        crashes: Vec<(SimTime, u32)>,
    ) -> Placement {
        let mut residents = vec![0usize; nodes.len()];
        let admitted = home
            .iter()
            .map(|&n| {
                residents[n as usize] += 1;
                residents[n as usize] <= nodes[n as usize].0.max_clients
            })
            .collect();
        Placement {
            nodes,
            home,
            admitted,
            crashes,
        }
    }
}

/// One event in the replay's merged `(time, seq)` order.
#[derive(Debug, Clone, Copy)]
enum ReplayEvent {
    /// A client-addressed event (arrive / decide / display): routed to
    /// the client's *current* home node at dispatch time, so a re-homed
    /// client's remaining schedule follows it to the survivor.
    Client(EdgeEvent),
    /// A node-addressed event (origin completions, retries, prefetch):
    /// dropped if the node died before it fired.
    Node { node: u32, ev: EdgeEvent },
    /// A scripted crash-stop.
    NodeDown { node: u32 },
}

/// One node's scheduling surface during the replay: dynamic pushes
/// carry the node tag, and origin fetches resolve at the regional tier
/// when there is one.
struct NodeSched<'q, 't> {
    now: SimTime,
    node: u32,
    queue: &'q mut ReplayQueue<ReplayEvent>,
    tier: Option<&'t mut RegionalTier>,
}

impl EdgeSched for NodeSched<'_, '_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn at(&mut self, at: SimTime, event: EdgeEvent) {
        self.queue.push(
            at,
            ReplayEvent::Node {
                node: self.node,
                ev: event,
            },
        );
    }
    fn fetch_upstream(
        &mut self,
        key: CacheKey,
        bytes: u64,
        attempt: u32,
        now: SimTime,
    ) -> Option<UpstreamDecision> {
        let node = self.node;
        let tier = self.tier.as_deref_mut()?;
        Some(tier.fetch(node, key, bytes, attempt, now))
    }
}

/// The one edge replay, over the `1..N` node worlds of `placement`; a
/// standalone edge is one node with no regional tier.
///
/// It assembles a world per node, schedules the static events, then
/// pops the merged `(time, seq)` order one event at a time and applies
/// each event to its node's world. `config` holds the knobs every node
/// shares; a node's capacity comes from its `NodeSpec`. With
/// `share_delay`, a node's crowds also see the other nodes' viewers of
/// the titles it serves, that much later. Origin fetches go to `tier`
/// when there is one. A scripted crash-stop marks its node dead, so its
/// later events are dropped, and hands the node, the instant, the alive
/// flags, the worlds and the client homes to `on_crash`, which re-homes
/// the node's clients. Returns one settled report per node, in node
/// order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay<'v>(
    video: &'v VideoModel,
    config: &EdgeConfig,
    plan: &EdgePlan,
    placement: Placement,
    share_delay: Option<SimDuration>,
    mut tier: Option<&mut RegionalTier>,
    mut metrics: Option<&mut MetricsRegistry>,
    mut on_crash: impl FnMut(u32, SimTime, &[bool], &mut [EdgeWorld<'v>], &mut [u32]),
) -> Vec<EdgeReport> {
    let Placement {
        nodes,
        mut home,
        admitted,
        crashes,
    } = placement;
    let specs = &plan.specs;

    // --- One world per node, assembled in canonical client order, so
    // WRR registration and crowd report order match the oracle's. Every
    // world holds the full client vector (indices are global), and only
    // its own admitted residents get egress queues. A client's reports
    // reach each crowd after its `NodeCrowds::delivery` delay. A node's
    // prefetches are timed from its earliest client's arrival.
    let node_crowds = NodeCrowds::of(specs, &home, &admitted, nodes.len());
    let mut worlds: Vec<EdgeWorld<'v>> = Vec::with_capacity(nodes.len());
    for (n, ((spec, harness), heard)) in nodes.iter().zip(&node_crowds).enumerate() {
        let node = n as u32;
        let mut egress = WrrLink::new(spec.egress_bps);
        let mut crowds: Vec<(u16, CrowdAggregator)> = Vec::new();
        let states = specs
            .iter()
            .enumerate()
            .map(|(i, client)| {
                let resident = home[i] == node && admitted[i];
                let delay = heard.delivery(node, home[i], admitted[i], client.content, share_delay);
                if let Some(delay) = delay {
                    crowd_slot(
                        &mut crowds,
                        video.grid(),
                        video.chunk_duration(),
                        client.content,
                    )
                    .ingest_reports_delayed(&plan.batches[i].reports, delay);
                }
                let link_id = resident.then(|| egress.add_client(client.weight));
                ClientState::new(*client, resident, link_id)
            })
            .collect();
        let node_config = EdgeConfig {
            egress_bps: spec.egress_bps,
            cache_bytes: spec.cache_bytes,
            max_clients: spec.max_clients,
            ..*config
        };
        worlds.push(EdgeWorld::new(
            video,
            node_config,
            states,
            egress,
            crowds,
            harness,
        ));
    }

    // --- Static schedule, pushed in the oracle's order so sequence
    // numbers (and thus same-instant tie-breaks) coincide.
    let mut queue: ReplayQueue<ReplayEvent> = ReplayQueue::new();
    client_schedule(
        video,
        config,
        specs,
        |i| admitted[i],
        |at, ev| queue.push_static(at, ReplayEvent::Client(ev)),
    );
    for (n, heard) in node_crowds.iter().enumerate() {
        if let Some(first) = heard.first_arrival.filter(|_| config.prefetch) {
            prefetch_schedule(video, first, |at, ev| {
                queue.push_static(at, ReplayEvent::Node { node: n as u32, ev })
            });
        }
    }
    for &(at, node) in &crashes {
        queue.push_static(at, ReplayEvent::NodeDown { node });
    }
    queue.seal();

    // --- Replay: pop by (time, seq) and run the shared apply code on
    // the event's node.
    let horizon = edge_horizon(video, specs.last().expect("non-empty").arrival);
    let mut alive = vec![true; worlds.len()];
    while let Some(t) = queue.peek_time() {
        if t > horizon {
            break;
        }
        let (now, event) = queue.pop().expect("peeked non-empty");
        let (node, ev) = match event {
            ReplayEvent::Client(ev) => {
                let client = match ev {
                    EdgeEvent::Arrive { client }
                    | EdgeEvent::Decide { client, .. }
                    | EdgeEvent::Display { client, .. } => client,
                    _ => unreachable!("only client-addressed events carry the Client tag"),
                };
                (home[client as usize], ev)
            }
            ReplayEvent::Node { node, ev } => (node, ev),
            ReplayEvent::NodeDown { node } => {
                alive[node as usize] = false;
                assert!(
                    alive.contains(&true),
                    "a federation needs at least one surviving node"
                );
                on_crash(node, now, &alive, &mut worlds, &mut home);
                continue;
            }
        };
        if !alive[node as usize] {
            continue;
        }
        let world = &mut worlds[node as usize];
        world.drain_egress(now);
        let mut sched = NodeSched {
            now,
            node,
            queue: &mut queue,
            tier: tier.as_deref_mut(),
        };
        match ev {
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
            EdgeEvent::Prefetch { chunk } => world.apply_prefetch(chunk, &mut sched),
        }
    }

    // --- Settle every node's books; a node reports the clients homed
    // on it at the end.
    worlds
        .into_iter()
        .enumerate()
        .map(|(n, world)| {
            let clients = home.iter().filter(|&&h| h as usize == n).count();
            let admitted = world.clients.iter().filter(|c| c.admitted).count();
            finish_edge_run(
                world,
                clients,
                admitted,
                clients - admitted,
                metrics.as_deref_mut(),
            )
        })
        .collect()
}

/// Run the stateful engine over a prepared plan: the one replay, on one
/// node holding every client, with `harness` and no regional tier. This
/// is the decide → fetch → render stepping loop that sperkebench's
/// `edge.replay_s` times — everything pure, every decide plan included,
/// was already materialized by [`prepare_edge_batch`], so
/// `harness.policy` is not read here.
pub fn run_edge_prepared(
    video: &VideoModel,
    config: &EdgeConfig,
    plan: &EdgePlan,
    harness: &EdgeHarness,
    metrics: Option<&mut MetricsRegistry>,
) -> EdgeReport {
    let node = (NodeSpec::of(config), harness.clone());
    let placement = Placement::new(vec![node], vec![0; plan.specs.len()], Vec::new());
    let mut reports = replay(
        video,
        config,
        plan,
        placement,
        None,
        None,
        metrics,
        |_, _, _, _, _| unreachable!("a standalone edge has no crash script"),
    );
    reports.pop().expect("one node, one report")
}

/// Run the edge world: explicit client set, harness (trace, faults,
/// origin probing, viewport policy) and optional metrics
/// registry.
///
/// Clients are canonicalised (sorted by arrival, then seed/weight/
/// budget/content) before anything else, so the returned report and
/// every emitted trace byte are invariant to the order of `clients`.
/// `workers = 0` picks the machine default; any value (including 1)
/// yields byte-identical traces and reports — worker count only shards
/// the pure sense phase, never the replay.
pub fn run_edge(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
    harness: &EdgeHarness,
    metrics: Option<&mut MetricsRegistry>,
    workers: usize,
) -> EdgeReport {
    let plan = prepare_plan(video, config, clients, workers, harness.policy);
    run_edge_prepared(video, config, &plan, harness, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::SYNC_DELAY;
    use crate::oracle::run_edge_full;
    use crate::server::{default_clients, gaze_instant, head_session, own_now};
    use sperke_hmp::{AttentionModel, HotspotTrack};
    use sperke_net::FaultScript;
    use sperke_sim::{TraceConfig, TraceLevel, TraceSink};
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(12))
            .build()
    }

    #[test]
    fn head_traces_end_where_the_sense_phase_stops_reading() {
        // Chunks of 1 s and 2 s over an 11 s video (the 2 s chunking
        // ends in a short chunk), with no fetch lead and with one longer
        // than the video.
        for chunk_secs in [1, 2] {
            let v = VideoModelBuilder::new(3)
                .chunk_duration(SimDuration::from_secs(chunk_secs))
                .duration(SimDuration::from_secs(11))
                .build();
            let report_delay = report_delay(&v);
            let last = v.chunk_count() - 1;
            for lead in [SimDuration::ZERO, v.duration() + SimDuration::from_secs(4)] {
                let cfg = EdgeConfig {
                    clients: 4,
                    fetch_lead: lead,
                    ..Default::default()
                };
                let track = head_track(&v, cfg.seed);
                let attention = AttentionModel::generic(cfg.seed);
                let longer = head_session(&v) + SimDuration::from_secs(5);
                let longer = HotspotTrack::new(&attention, longer);
                for spec in default_clients(&cfg) {
                    let head = client_head(&track, &spec);
                    let end = SimTime::ZERO + head.duration();
                    let policy = AbrPolicyKind::default();
                    let batch = sense_client(&v, &cfg, &spec, head, Some(report_delay), policy);
                    // The last decide reads gaze history up to its own
                    // playback instant; the last display samples its
                    // chunk's midpoint, and so does the last crowd
                    // report, stamped `latency + report_delay` after its
                    // chunk starts.
                    let (decide, _) = decide_and_display(&v, &cfg, &spec, last);
                    let (wall, _, _) = batch.reports.last().expect("prefetch runs report");
                    let report_gaze = SimTime::ZERO
                        + (*wall - (SimTime::ZERO + spec.arrival + report_delay))
                        + v.chunk_duration() / 2;
                    let latest = own_now(&spec, decide)
                        .max(gaze_instant(&v, last))
                        .max(report_gaze);
                    assert!(
                        latest <= end,
                        "chunk {chunk_secs} s, lead {lead}: reads {latest} past {end}"
                    );
                    // So a longer trace senses the client bit for bit alike.
                    let longer = client_head(&longer, &spec);
                    assert_eq!(
                        batch,
                        sense_client(&v, &cfg, &spec, longer, Some(report_delay), policy),
                        "chunk {chunk_secs} s, lead {lead}"
                    );
                }
            }
        }
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
            let batched = run_edge(
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
                policy: kind,
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
                run_edge(&v, &cfg, &clients, &harness, None, 4),
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
                policy: kind,
                ..Default::default()
            };
            let legacy = run_edge_full(&v, &cfg, &clients, &harness, None);
            for workers in [1usize, 2, 8] {
                assert_eq!(
                    legacy,
                    run_edge(&v, &cfg, &clients, &harness, None, workers),
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
        let batched = run_edge(&v, &cfg, &clients, &harness, None, 4);
        assert_eq!(legacy, batched);
    }

    /// Replay canonically ordered `specs` over `nodes` nodes of
    /// `config`'s capacity, homed per `home`, with an optional
    /// crash-stop that re-homes the dead node's clients to the first
    /// survivor, casting reports only for the clients `readable` marks.
    /// Returns each node's report and trace digest.
    #[allow(clippy::too_many_arguments)]
    fn replay_casting(
        video: &VideoModel,
        config: &EdgeConfig,
        specs: &[EdgeClientSpec],
        home: &[u32],
        nodes: usize,
        crashes: &[(SimTime, u32)],
        share_delay: Option<SimDuration>,
        readable: impl Fn(&[bool]) -> Vec<bool>,
    ) -> (Vec<EdgeReport>, Vec<u64>) {
        let sinks: Vec<TraceSink> = (0..nodes)
            .map(|_| TraceSink::new(TraceConfig::new(TraceLevel::Events)))
            .collect();
        let placement = Placement::new(
            sinks
                .iter()
                .map(|sink| {
                    let harness = EdgeHarness {
                        trace: sink.clone(),
                        ..Default::default()
                    };
                    (NodeSpec::of(config), harness)
                })
                .collect(),
            home.to_vec(),
            crashes.to_vec(),
        );
        let admitted = placement.admitted.clone();
        let policy = AbrPolicyKind::default();
        let plan = sense_plan(
            video,
            config,
            specs.to_vec(),
            &admitted,
            &readable(&admitted),
            2,
            policy,
        );
        let reports = replay(
            video,
            config,
            &plan,
            placement,
            share_delay,
            None,
            None,
            |node, now, alive, worlds, home| {
                let dead = node as usize;
                worlds[dead].abandon(now);
                let to = alive.iter().position(|&a| a).expect("a survivor") as u32;
                for (c, h) in home.iter_mut().enumerate() {
                    if *h != node {
                        continue;
                    }
                    *h = to;
                    if worlds[dead].clients[c].admitted {
                        let session = worlds[dead].take_client_session(c as u32);
                        worlds[to as usize].install_client_session(c as u32, session);
                    }
                }
            },
        );
        let digests = sinks.iter().map(|s| s.snapshot().digest()).collect();
        (reports, digests)
    }

    proptest::proptest! {
        /// Skipping the reports no prefetch can count changes no byte:
        /// random federations replay the pruned plan and a plan that
        /// casts every admitted client's reports to the same reports and
        /// the same trace digests. Arrival spacings of 0-600 ms make
        /// both readable and unreadable clients; caps below the
        /// population reject some clients, and a crash-stop re-homes a
        /// node's clients mid-run.
        #[test]
        fn pruned_reports_replay_like_every_report(
            nodes in 1usize..5,
            share: bool,
            spacing_ms in 0u64..601,
            titles in 1u16..4,
            clients in 2usize..13,
            cap_below: bool,
            prefetch: bool,
            crash: bool,
            crash_ms in 0u64..6_000,
            seed in 0u64..1_000,
            picks in proptest::collection::vec((0u32..4, 0u16..3), 12),
        ) {
            let video = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(4))
                .build();
            let cap = if cap_below { 1 + clients / (2 * nodes) } else { clients };
            let config = EdgeConfig {
                max_clients: cap,
                prefetch,
                seed,
                ..Default::default()
            };
            let mut specs: Vec<EdgeClientSpec> = (0..clients)
                .map(|i| EdgeClientSpec {
                    arrival: SimDuration::from_millis(spacing_ms * i as u64),
                    seed: seed.wrapping_add(i as u64),
                    weight: if i % 4 == 3 { 2 } else { 1 },
                    budget_bps: config.per_client_budget_bps,
                    content: picks[i].1 % titles,
                })
                .collect();
            specs.sort_by_key(EdgeClientSpec::canonical_key);
            let home: Vec<u32> = picks[..clients].iter().map(|p| p.0 % nodes as u32).collect();
            let crashes = if crash && nodes > 1 {
                vec![(SimTime::from_millis(crash_ms), (crash_ms % nodes as u64) as u32)]
            } else {
                Vec::new()
            };
            let share_delay = share.then_some(SYNC_DELAY);
            let run = |readable: &dyn Fn(&[bool]) -> Vec<bool>| {
                replay_casting(&video, &config, &specs, &home, nodes, &crashes, share_delay, readable)
            };
            let pruned = run(&|admitted| {
                readable_reports(&video, &config, &specs, &home, admitted, share_delay)
            });
            let every = run(&|admitted| admitted.to_vec());
            proptest::prop_assert_eq!(&pruned.0, &every.0);
            proptest::prop_assert_eq!(&pruned.1, &every.1);
        }
    }

    #[test]
    fn a_report_landing_at_the_prefetch_instant_is_kept() {
        // 1 s chunks: a node whose first client arrived at `first` reads
        // chunk c at c + first + 1.25 s, and a report of chunk c lands
        // at c + arrival + 200 ms, plus the sync delay on a sibling.
        let v = video();
        let cfg = EdgeConfig::default();
        let client = |ms: u64, extra_ns: u64| EdgeClientSpec {
            arrival: SimDuration::from_millis(ms) + SimDuration::from_nanos(extra_ns),
            seed: ms,
            weight: 1,
            budget_bps: cfg.per_client_budget_bps,
            content: 0,
        };
        // Alone on one node: the client at 1.05 s reports chunk c at
        // c + 1.25 s, exactly when its node reads it.
        for (late_ns, kept) in [(0, true), (1, false)] {
            let specs = [client(0, 0), client(1_050, late_ns)];
            let readable = readable_reports(&v, &cfg, &specs, &[0, 0], &[true, true], None);
            assert_eq!(readable, [true, kept], "{late_ns} ns past the read");
        }
        // Across nodes: node 1's first client arrives at 1 s, so it reads
        // chunk c at c + 2.25 s. A node-0 client at 1.9 s is too late
        // for its home (read at c + 1.25 s) but reaches node 1 at
        // c + 1.9 s + 200 ms + 150 ms = c + 2.25 s.
        let home = [0, 1, 0];
        for (late_ns, kept) in [(0, true), (1, false)] {
            let specs = [client(0, 0), client(1_000, 0), client(1_900, late_ns)];
            let admitted = [true; 3];
            let shared = readable_reports(&v, &cfg, &specs, &home, &admitted, Some(SYNC_DELAY));
            assert_eq!(
                shared,
                [true, true, kept],
                "{late_ns} ns past the sibling's read"
            );
            let alone = readable_reports(&v, &cfg, &specs, &home, &admitted, None);
            assert_eq!(alone, [true, true, false], "no sharing, no sibling read");
        }
        // Rejected clients and runs without prefetch cast nothing.
        let specs = [client(0, 0), client(500, 0)];
        let rejected = readable_reports(&v, &cfg, &specs, &[0, 0], &[true, false], None);
        assert_eq!(rejected, [true, false]);
        let off = EdgeConfig {
            prefetch: false,
            ..cfg
        };
        assert_eq!(
            readable_reports(&v, &off, &specs, &[0, 0], &[true; 2], None),
            [false; 2]
        );
    }

    #[test]
    fn edge_population_casts_reports_for_its_first_five_clients() {
        // The 250-client edge population at 250 ms spacing: only the
        // clients attached by 1.05 s report before the node's read.
        let v = VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(2))
            .build();
        let cfg = EdgeConfig {
            clients: 250,
            max_clients: 250,
            ..Default::default()
        };
        let plan = prepare_edge_batch(&v, &cfg, &default_clients(&cfg), 0);
        let cast: Vec<usize> = (0..plan.batches.len())
            .filter(|&i| !plan.batches[i].reports.is_empty())
            .collect();
        assert_eq!(cast, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn tracked_client_heads_match_lone_ensemble_members() {
        // 7.3 s: not a whole second. Seeds cover every ensemble slot
        // (seed % 5), hence every behaviour, Explorer and Follower
        // included.
        let v = VideoModelBuilder::new(5)
            .duration(SimDuration::from_millis(7_300))
            .build();
        for run_seed in [7u64, 77, 9_001] {
            let track = head_track(&v, run_seed);
            let attention = AttentionModel::generic(run_seed);
            for seed in run_seed..run_seed + 10 {
                let spec = EdgeClientSpec {
                    arrival: SimDuration::ZERO,
                    seed,
                    weight: 1,
                    budget_bps: 8e6,
                    content: 0,
                };
                let lone = sperke_hmp::generate_ensemble_member(
                    &attention,
                    (seed % 5) as usize,
                    head_session(&v),
                    seed,
                );
                assert_eq!(
                    client_head(&track, &spec),
                    lone,
                    "run {run_seed}, client {seed}"
                );
            }
        }
    }
}
