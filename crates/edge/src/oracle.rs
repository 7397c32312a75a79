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
    client_head, client_schedule, crowd_slot, decide_choices, display_gaze, edge_horizon,
    finish_edge_run, head_track, prefetch_schedule, ClientState, EdgeClientSpec, EdgeConfig,
    EdgeEvent, EdgeHarness, EdgeReport, EdgeSched, EdgeWorld,
};
use sperke_geo::{Orientation, TileId, Viewport, VisibilityScratch};
use sperke_hmp::{ForecastScratch, HeadTrace};
use sperke_live::{CrowdAggregator, LiveViewer};
use sperke_net::WrrLink;
use sperke_sim::{MetricsRegistry, RunOutcome, Scheduler, SimTime, Simulation, World};
use sperke_video::VideoModel;
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
    /// Per-client head traces, index-aligned with the world's clients.
    heads: Vec<HeadTrace>,
    policy: AbrPolicyKind,
    /// Per-client previous-window levels for temporal policies.
    prev_levels: Vec<Vec<i8>>,
    /// Reusable forecast/history buffers for inline decides.
    fscratch: ForecastScratch,
    hist: Vec<(SimTime, Orientation)>,
    /// Reusable visibility counts and coverage list for inline displays.
    vscratch: VisibilityScratch,
    visible: Vec<(TileId, f64)>,
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
                let choices = decide_choices(
                    world.video,
                    &world.clients[client as usize].spec,
                    &self.heads[client as usize],
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
                let gaze = display_gaze(world.video, &self.heads[client as usize], chunk);
                Viewport::headset(gaze).visible_tiles_into(
                    world.video.grid(),
                    12,
                    &mut self.vscratch,
                    &mut self.visible,
                );
                world.apply_display(client, chunk, &self.visible);
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
            EdgeEvent::Prefetch { chunk } => world.apply_prefetch(chunk, sched),
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
    let mut egress = WrrLink::new(config.egress_bps);
    let mut crowds: Vec<(u16, CrowdAggregator)> = Vec::new();
    let track = head_track(video, config.seed);
    let heads: Vec<HeadTrace> = specs.iter().map(|spec| client_head(&track, spec)).collect();
    let states: Vec<ClientState> = specs
        .iter()
        .zip(&heads)
        .enumerate()
        .map(|(i, (spec, head))| {
            let admitted = i < config.max_clients;
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
            ClientState::new(*spec, admitted, link_id)
        })
        .collect();

    let admitted = states.iter().filter(|c| c.admitted).count();
    let rejected = states.len() - admitted;
    let last_arrival = specs.last().expect("non-empty").arrival;

    let mut oracle = OracleWorld {
        world: EdgeWorld::new(video, *config, states, egress, crowds, harness),
        heads,
        policy: harness.policy,
        prev_levels: vec![Vec::new(); specs.len()],
        fscratch: ForecastScratch::new(),
        hist: Vec::new(),
        vscratch: VisibilityScratch::new(),
        visible: Vec::new(),
    };

    let mut sim = Simulation::new();
    client_schedule(
        video,
        config,
        &specs,
        |i| i < config.max_clients,
        |at, event| {
            sim.schedule(at, event);
        },
    );
    if config.prefetch {
        prefetch_schedule(video, specs[0].arrival, |at, event| {
            sim.schedule(at, event);
        });
    }

    let horizon = edge_horizon(video, last_arrival);
    let outcome = sim.run(&mut oracle, horizon);
    debug_assert_ne!(outcome, RunOutcome::BudgetExhausted);

    finish_edge_run(oracle.world, specs.len(), admitted, rejected, metrics)
}
