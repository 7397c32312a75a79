//! The per-event fleet engine, kept only as a differential oracle.
//!
//! [`run_fleet_inner`] drives the same world and the same `apply_*`
//! handlers as [`run_fleet`](crate::run_fleet), but through a
//! heap-backed [`Simulation`], planning every decide and scoring every
//! display inline at its event instead of in a sense phase. Tests, the
//! benches and the perf harness run it beside the engine and require
//! the same report bytes. No builder, sweep or `run_*` entry point
//! reaches it.

use crate::fleet::{
    finish_fleet_report, fleet_gaze, fleet_horizon, fleet_selections, FleetConfig, FleetEvent,
    FleetReport, FleetWorld,
};
use sperke_geo::{Orientation, Viewport};
use sperke_hmp::{generate_ensemble, AttentionModel, ForecastScratch, HeadTrace};
use sperke_sim::{RunOutcome, Scheduler, SimDuration, SimTime, Simulation, World};
use sperke_video::VideoModel;
use sperke_vra::AbrPolicyKind;

/// The fleet world plus the state its inline decides need, which the
/// engine's sense phase holds instead.
struct OracleFleet<'a> {
    world: FleetWorld<'a>,
    traces: Vec<HeadTrace>,
    policy: AbrPolicyKind,
    /// Per-viewer previous-window levels for temporal policies.
    prev_levels: Vec<Vec<i8>>,
    /// Reusable forecast/history buffers for inline decides.
    fscratch: ForecastScratch,
    hist: Vec<(SimTime, Orientation)>,
}

impl World<FleetEvent> for OracleFleet<'_> {
    fn handle(&mut self, event: FleetEvent, sched: &mut Scheduler<'_, FleetEvent>) {
        let now = sched.now();
        let world = &mut self.world;
        world.drain_egress(now);
        match event {
            FleetEvent::Decide { viewer, chunk } => {
                let selections = fleet_selections(
                    world.video,
                    &world.config,
                    &self.traces[viewer],
                    world.start_offset[viewer],
                    chunk,
                    now,
                    &mut self.fscratch,
                    &mut self.hist,
                    self.policy,
                    &mut self.prev_levels[viewer],
                );
                world.apply_decide(viewer, chunk, &selections, now);
            }
            FleetEvent::Display { viewer, chunk } => {
                let gaze = fleet_gaze(world.video, &self.traces[viewer], chunk);
                let visible = Viewport::headset(gaze).visible_tiles(world.video.grid(), 12);
                world.apply_display(viewer, chunk, &visible);
            }
        }
    }
}

/// Run the fleet experiment one event at a time: the differential
/// oracle for [`run_fleet`](crate::run_fleet), which must return the
/// same report for any `(video, config, policy)` and worker count.
pub fn run_fleet_inner(
    video: &VideoModel,
    config: &FleetConfig,
    policy: AbrPolicyKind,
) -> FleetReport {
    assert!(config.viewers > 0);
    let attention = AttentionModel::generic(config.seed);
    let traces = generate_ensemble(
        &attention,
        config.viewers,
        video.duration() + SimDuration::from_secs(5),
        config.seed,
    );

    let mut oracle = OracleFleet {
        world: FleetWorld::new(video, *config),
        traces,
        policy,
        prev_levels: vec![Vec::new(); config.viewers],
        fscratch: ForecastScratch::new(),
        hist: Vec::new(),
    };

    let mut sim = Simulation::new();
    oracle.world.schedule(|at, event| {
        sim.schedule(at, event);
    });
    let outcome = sim.run(&mut oracle, fleet_horizon(video, config));
    debug_assert_ne!(outcome, RunOutcome::BudgetExhausted);

    finish_fleet_report(&oracle.world, video, config)
}
