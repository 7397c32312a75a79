//! Federation entry points: the fluent builder and the sweep grid for
//! the [`sperke_edge::federation`] multi-edge model.
//!
//! [`Sperke::federation_builder`] is the five-line way to run a
//! federation experiment; [`run_federation`] (re-exported from the edge
//! crate) is the direct function form; and [`FederationGrid`] →
//! [`run_federation_sweep`] fans a nodes × regional-cache × seeds grid
//! across CPU cores with the same byte-determinism guarantee as every
//! other sweep: the merged report is identical for any worker count.

use crate::builder::Sperke;
use serde::{Deserialize, Serialize};
use sperke_edge::{
    run_federation, EdgeClientSpec, FederationConfig, FederationHarness, FederationReport,
    FederationRunReport,
};
use sperke_geo::VisibilityCache;
use sperke_net::{FaultScript, RecoveryPolicy};
use sperke_sim::sweep::{run_sweep, SweepPlan, SweepReport};
use sperke_sim::trace::TraceLevel;
use sperke_sim::{MetricsRegistry, SimDuration};
use sperke_video::VideoModel;

/// A declarative federation experiment, built by
/// [`Sperke::federation_builder`].
#[derive(Debug, Clone)]
pub struct FederationBuilder {
    config: FederationConfig,
    duration: SimDuration,
    clients: Option<Vec<EdgeClientSpec>>,
    node_faults: FaultScript,
    origin_faults: FaultScript,
    recovery: RecoveryPolicy,
    trace: TraceLevel,
    vis: VisibilityCache,
    workers: usize,
}

impl Sperke {
    /// Start a federation experiment from defaults: two uniform edge
    /// nodes over a shared regional cache and origin, streaming a 12 s
    /// generic video.
    ///
    /// ```
    /// use sperke_core::Sperke;
    ///
    /// let run = Sperke::federation_builder(7).nodes(2).clients(8).run();
    /// assert_eq!(run.report.admitted, 8);
    /// ```
    pub fn federation_builder(seed: u64) -> FederationBuilder {
        let mut config = FederationConfig::default();
        config.node.seed = seed;
        config.seed = seed;
        FederationBuilder {
            config,
            duration: SimDuration::from_secs(12),
            clients: None,
            node_faults: FaultScript::none(),
            origin_faults: FaultScript::none(),
            recovery: RecoveryPolicy::default(),
            trace: TraceLevel::Off,
            vis: VisibilityCache::default(),
            workers: 0,
        }
    }
}

impl FederationBuilder {
    /// Number of uniform edge nodes (ignored when explicit node specs
    /// are supplied on the config).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Number of clients attaching (the default evenly-spaced
    /// population; see [`FederationBuilder::client_specs`]).
    pub fn clients(mut self, clients: usize) -> Self {
        self.config.node.clients = clients;
        self
    }

    /// Supply the exact client population. Order never matters.
    pub fn client_specs(mut self, specs: Vec<EdgeClientSpec>) -> Self {
        self.clients = Some(specs);
        self
    }

    /// Regional cache capacity in bytes (0 = isolated-edges baseline).
    pub fn regional_bytes(mut self, bytes: u64) -> Self {
        self.config.regional_bytes = bytes;
        self
    }

    /// Enable or disable cross-edge heatmap sharing.
    pub fn share_heatmaps(mut self, on: bool) -> Self {
        self.config.share_heatmaps = on;
        self
    }

    /// Video duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Replace the whole config (other setters mutate it).
    pub fn config(mut self, config: FederationConfig) -> Self {
        self.config = config;
        self
    }

    /// Script node crash-stops (path `n` = canonical node `n`).
    pub fn with_node_faults(mut self, faults: FaultScript) -> Self {
        self.node_faults = faults;
        self
    }

    /// Script shared-origin outages (path 0).
    pub fn with_origin_faults(mut self, faults: FaultScript) -> Self {
        self.origin_faults = faults;
        self
    }

    /// Retry policy for origin fetches forwarded by the regional tier.
    pub fn with_resilience(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Record deterministic traces (federation + per node) at `level`.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Pass a visibility-cache handle through to the run. No production
    /// run reads it: node worlds score displays from the sense phase's
    /// coverage lists, so the handle changes neither speed nor outcomes.
    pub fn vis_cache(mut self, vis: VisibilityCache) -> Self {
        self.vis = vis;
        self
    }

    /// Sense-phase worker threads (0 = machine default). Any value
    /// yields byte-identical traces and reports.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The video this experiment streams (seeded by the node seed).
    pub fn build_video(&self) -> VideoModel {
        sperke_video::VideoModelBuilder::new(self.config.node.seed)
            .duration(self.duration)
            .build()
    }

    fn client_set(&self) -> Vec<EdgeClientSpec> {
        self.clients
            .clone()
            .unwrap_or_else(|| sperke_edge::default_clients(&self.config.node))
    }

    /// Run the experiment.
    pub fn run(&self) -> FederationRunReport {
        self.run_metered(None)
    }

    /// Run, additionally accumulating counters into `metrics`.
    pub fn run_metered(&self, metrics: Option<&mut MetricsRegistry>) -> FederationRunReport {
        let video = self.build_video();
        let harness = FederationHarness {
            trace: self.trace,
            node_faults: self.node_faults.clone(),
            origin_faults: self.origin_faults.clone(),
            recovery: self.recovery,
            vis: self.vis.clone(),
        };
        run_federation(
            &video,
            &self.config,
            &self.client_set(),
            &harness,
            metrics,
            self.workers,
        )
    }
}

/// A rectangular grid over [`FederationConfig`]: node count × regional
/// cache capacity × seeds, applied over a shared base config. Point
/// order is deterministic and nodes-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationGrid {
    /// Knobs shared by every point.
    pub base: FederationConfig,
    /// Node-count axis.
    pub nodes: Vec<usize>,
    /// Regional-cache axis, bytes (include 0 for the isolated baseline).
    pub regional_bytes: Vec<u64>,
    /// Seed axis (drives both sharding and the client population).
    pub seeds: Vec<u64>,
}

impl FederationGrid {
    /// A degenerate grid holding only `base`'s own axis values.
    pub fn new(base: FederationConfig) -> FederationGrid {
        FederationGrid {
            nodes: vec![base.nodes],
            regional_bytes: vec![base.regional_bytes],
            seeds: vec![base.seed],
            base,
        }
    }

    /// Sweep these node counts.
    pub fn nodes_axis(mut self, nodes: Vec<usize>) -> FederationGrid {
        self.nodes = nodes;
        self
    }

    /// Sweep these regional capacities (bytes; 0 = isolated baseline).
    pub fn regional_axis(mut self, regional_bytes: Vec<u64>) -> FederationGrid {
        self.regional_bytes = regional_bytes;
        self
    }

    /// Sweep these seeds.
    pub fn seed_axis(mut self, seeds: Vec<u64>) -> FederationGrid {
        self.seeds = seeds;
        self
    }

    /// The grid's points in sweep order (nodes-major, then regional
    /// capacity, then seed).
    pub fn points(&self) -> Vec<FederationConfig> {
        let mut out =
            Vec::with_capacity(self.nodes.len() * self.regional_bytes.len() * self.seeds.len());
        for &nodes in &self.nodes {
            for &regional_bytes in &self.regional_bytes {
                for &seed in &self.seeds {
                    let mut cfg = self.base.clone();
                    cfg.nodes = nodes;
                    cfg.regional_bytes = regional_bytes;
                    cfg.seed = seed;
                    cfg.node.seed = seed;
                    out.push(cfg);
                }
            }
        }
        out
    }

    /// The grid as a [`SweepPlan`].
    pub fn plan(&self) -> SweepPlan<FederationConfig> {
        SweepPlan::new(self.points())
    }
}

/// One merged federation-sweep point: the config that ran and its
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationSweepPoint {
    /// The exact configuration of this point.
    pub config: FederationConfig,
    /// The federation run's aggregate outcome.
    pub report: FederationReport,
}

/// Run every point of `grid` against `video` on `threads` workers
/// (`0` = available parallelism), merging deterministically by grid
/// index: byte-identical for any worker count.
pub fn run_federation_sweep(
    video: &VideoModel,
    grid: &FederationGrid,
    threads: usize,
) -> SweepReport<FederationSweepPoint> {
    let plan = grid.plan();
    run_sweep(&plan, threads, |_index, config| FederationSweepPoint {
        config: config.clone(),
        report: run_federation(
            video,
            config,
            &sperke_edge::default_clients(&config.node),
            &FederationHarness::default(),
            None,
            1,
        )
        .report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(10))
            .build()
    }

    #[test]
    fn builder_runs_and_is_deterministic() {
        let mk = || {
            Sperke::federation_builder(5)
                .nodes(3)
                .clients(9)
                .duration(SimDuration::from_secs(8))
                .with_trace(TraceLevel::Events)
                .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.report, b.report);
        assert_eq!(a.combined_digest(), b.combined_digest());
        assert_eq!(a.report.clients, 9);
        assert_eq!(a.report.nodes.len(), 3);
    }

    #[test]
    fn grid_points_enumerate_nodes_major() {
        let grid = FederationGrid::new(FederationConfig::default())
            .nodes_axis(vec![1, 4])
            .regional_axis(vec![0, 1 << 30])
            .seed_axis(vec![7]);
        let points = grid.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].nodes, 1);
        assert_eq!(points[0].regional_bytes, 0);
        assert_eq!(points[1].regional_bytes, 1 << 30);
        assert_eq!(points[2].nodes, 4);
    }

    #[test]
    fn federation_sweep_is_thread_count_invariant() {
        let v = video();
        let mut base = FederationConfig::default();
        base.node.clients = 6;
        let grid = FederationGrid::new(base)
            .nodes_axis(vec![1, 2])
            .seed_axis(vec![7, 11]);
        let serial = run_federation_sweep(&v, &grid, 1);
        let parallel = run_federation_sweep(&v, &grid, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.len(), 4);
    }
}
