//! The per-event edge engine, kept only as a differential oracle.
//!
//! [`run_edge_full`] drives the same world and the same `apply_*`
//! handlers as [`run_edge`](crate::run_edge), but through a heap-backed
//! [`Simulation`], planning every decide and scoring every display
//! inline at its event instead of in a sense phase. Tests, the nightly
//! scale harness and the perf harness run it beside the engine and
//! require the same report and trace bytes. No builder, sweep or
//! `run_*` entry point reaches it.

use crate::server::{
    client_head, crowd_slot, decide_choices, display_gaze, edge_horizon, edge_schedule,
    finish_edge_run, ClientState, EdgeClientSpec, EdgeConfig, EdgeEvent, EdgeHarness, EdgeReport,
    EdgeSched, EdgeWorld,
};
use sperke_geo::{Orientation, TileId, Viewport, VisibilityCache};
use sperke_hmp::{AttentionModel, ForecastScratch};
use sperke_live::{CrowdAggregator, LiveViewer};
use sperke_net::WrrLink;
use sperke_sim::{MetricsRegistry, RunOutcome, Scheduler, SimDuration, SimTime, Simulation, World};
use sperke_video::{ChunkTime, VideoModel};
use sperke_vra::AbrPolicyKind;

impl EdgeSched for Scheduler<'_, EdgeEvent> {
    fn now(&self) -> SimTime {
        Scheduler::now(self)
    }
    fn at(&mut self, at: SimTime, event: EdgeEvent) {
        Scheduler::at(self, at, event);
    }
}

/// The edge world plus the state its inline decides and displays need,
/// which the engine's sense phase holds instead.
struct OracleWorld<'a> {
    world: EdgeWorld<'a>,
    policy: AbrPolicyKind,
    /// Per-client previous-window levels for temporal policies.
    prev_levels: Vec<Vec<i8>>,
    /// Reusable forecast/history buffers for inline decides.
    fscratch: ForecastScratch,
    hist: Vec<(SimTime, Orientation)>,
    /// The harness's visibility memo for inline displays.
    vis: VisibilityCache,
}

impl World<EdgeEvent> for OracleWorld<'_> {
    fn handle(&mut self, event: EdgeEvent, sched: &mut Scheduler<'_, EdgeEvent>) {
        let now = Scheduler::now(sched);
        let world = &mut self.world;
        world.drain_egress(now);
        match event {
            EdgeEvent::Arrive { client } => world.apply_arrive(client, now),
            // Only admitted clients have decides and displays scheduled.
            EdgeEvent::Decide { client, chunk } => {
                let state = &world.clients[client as usize];
                let choices = decide_choices(
                    world.video,
                    &state.spec,
                    &state.head,
                    chunk,
                    now,
                    &mut self.fscratch,
                    &mut self.hist,
                    self.policy,
                    &mut self.prev_levels[client as usize],
                );
                world.apply_decide(client, chunk, &choices, sched);
            }
            EdgeEvent::Display { client, chunk } => {
                let state = &world.clients[client as usize];
                let gaze = display_gaze(world.video, &state.head, chunk);
                let visible =
                    self.vis
                        .visible_tiles(&Viewport::headset(gaze), world.video.grid(), 12);
                world.apply_display(client, chunk, &visible);
            }
            EdgeEvent::OriginArrived { chunk, tile, layer } => {
                world.apply_origin_arrived(chunk, tile, layer, now)
            }
            EdgeEvent::OriginRetry {
                chunk,
                tile,
                layer,
                attempt,
            } => world.apply_origin_retry(chunk, tile, layer, attempt, sched),
            EdgeEvent::Prefetch { chunk } => {
                if world.config.prefetch {
                    let k = world.config.prefetch_k;
                    let groups: Vec<(u16, Vec<TileId>)> = world
                        .crowds
                        .iter()
                        .map(|(content, agg)| {
                            (*content, agg.predicted_tiles(now, ChunkTime(chunk), k))
                        })
                        .collect();
                    world.apply_prefetch(chunk, &groups, sched);
                }
            }
        }
    }
}

/// Run the edge world one event at a time: the differential oracle for
/// [`run_edge`](crate::run_edge), which must return the same report and
/// emit the same trace bytes for any `(config, clients, harness)`.
///
/// Clients are canonicalised (sorted by arrival, then seed/weight/
/// budget/content) before anything else, so the returned report and
/// every emitted trace byte are invariant to the order of `clients`.
pub fn run_edge_full(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
    harness: &EdgeHarness,
    metrics: Option<&mut MetricsRegistry>,
) -> EdgeReport {
    assert!(!clients.is_empty(), "at least one client required");
    let mut specs = clients.to_vec();
    specs.sort_by_key(EdgeClientSpec::canonical_key);

    let chunks = video.chunk_count();
    let session = video.duration() + SimDuration::from_secs(5);
    let mut egress = WrrLink::new(config.egress_bps);
    let mut crowds: Vec<(u16, CrowdAggregator)> = Vec::new();
    let attention = AttentionModel::generic(config.seed);
    let states: Vec<ClientState> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let admitted = i < config.max_clients;
            let head = client_head(&attention, spec, session);
            let link_id = admitted.then(|| egress.add_client(spec.weight));
            if admitted {
                // Attached clients report their gaze to their title's
                // crowd model; their latency is their arrival offset, so
                // reports only become visible once they actually watched.
                crowd_slot(
                    &mut crowds,
                    video.grid(),
                    video.chunk_duration(),
                    spec.content,
                )
                .ingest(
                    &LiveViewer {
                        trace: head.clone(),
                        latency: spec.arrival,
                    },
                    chunks,
                );
            }
            ClientState::new(*spec, head, admitted, link_id)
        })
        .collect();

    let admitted = states.iter().filter(|c| c.admitted).count();
    let rejected = states.len() - admitted;
    let last_arrival = specs.last().expect("non-empty").arrival;

    let mut oracle = OracleWorld {
        world: EdgeWorld::new(video, *config, states, egress, crowds, harness),
        policy: harness.policy,
        prev_levels: vec![Vec::new(); specs.len()],
        fscratch: ForecastScratch::new(),
        hist: Vec::new(),
        vis: harness.vis.clone(),
    };

    let mut sim = Simulation::new();
    edge_schedule(video, config, &specs, |at, event| {
        sim.schedule(at, event);
    });

    let horizon = edge_horizon(video, last_arrival);
    let outcome = sim.run(&mut oracle, horizon);
    debug_assert_ne!(outcome, RunOutcome::BudgetExhausted);

    finish_edge_run(oracle.world, specs.len(), admitted, rejected, metrics)
}
