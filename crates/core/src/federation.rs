//! Federation entry point: the fluent builder for the
//! [`sperke_edge::federation`] multi-edge model.
//!
//! [`Sperke::federation_builder`] is the five-line way to run a
//! federation experiment; [`run_federation`] (re-exported from the edge
//! crate) is the direct function form, and the only way to script node
//! crash-stops or origin outages (through its [`FederationHarness`]).

use crate::builder::Sperke;
use sperke_edge::{
    run_federation, EdgeClientSpec, FederationConfig, FederationHarness, FederationRunReport,
};
use sperke_geo::VisibilityCache;
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
    trace: TraceLevel,
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
            trace: TraceLevel::Off,
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

    /// Record deterministic traces (federation + per node) at `level`.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Inert: no run holds a visibility memo, so the handle is dropped
    /// unread and sees no query. Kept only because `sperkebench/` still
    /// calls it; ROADMAP item 1 deletes it with that call.
    pub fn vis_cache(self, _vis: VisibilityCache) -> Self {
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
            ..FederationHarness::default()
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

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_net::FaultScript;
    use sperke_sim::SimTime;
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
    fn harness_fault_scripts_reach_the_run() {
        let mut config = FederationConfig::default();
        config.node.seed = 5;
        config.seed = 5;
        config.nodes = 3;
        config.node.clients = 12;
        let harness = FederationHarness {
            trace: TraceLevel::Events,
            node_faults: FaultScript::none().link_down(
                1,
                SimTime::from_secs(3),
                SimTime::from_secs(60),
            ),
            origin_faults: FaultScript::none().link_down(
                0,
                SimTime::from_secs(2),
                SimTime::from_millis(2800),
            ),
        };
        let run = run_federation(
            &video(),
            &config,
            &sperke_edge::default_clients(&config.node),
            &harness,
            None,
            1,
        );
        assert_eq!(run.report.failed_nodes, 1);
        assert!(run.report.rehomed > 0, "node 1 must have had residents");
        assert!(
            run.report.origin_retries > 0,
            "the origin outage must schedule retries"
        );
    }
}
