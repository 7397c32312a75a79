//! Edge-fleet entry points: the fluent builder and the sweep grid for
//! the [`sperke_edge`] multi-client edge-server model.
//!
//! [`Sperke::edge_builder`] is the five-line way to run an edge
//! experiment, and [`EdgeGrid`] → [`run_edge_sweep`] fans a clients ×
//! cache × seeds grid across CPU cores with the same byte-determinism
//! guarantee as the fleet sweep: the merged report is identical for any
//! worker count. Both run [`sperke_edge::run_edge`], the one edge
//! engine.

use crate::builder::Sperke;
use serde::{Deserialize, Serialize};
use sperke_edge::{run_edge, EdgeClientSpec, EdgeConfig, EdgeHarness, EdgeReport};
use sperke_geo::VisibilityCache;
use sperke_net::{FaultScript, LossChannel, RecoveryPolicy};
use sperke_sim::sweep::{run_sweep, SweepPlan, SweepReport};
use sperke_sim::trace::{Trace, TraceLevel, TraceSink};
use sperke_sim::{MetricsRegistry, SimDuration};
use sperke_video::VideoModel;
use sperke_vra::AbrPolicyKind;

/// The outcome of a traced edge run: report plus captured trace.
#[derive(Debug, Clone)]
pub struct EdgeRunReport {
    /// The edge run's aggregate outcome.
    pub report: EdgeReport,
    /// The captured trace (empty when tracing was off).
    pub trace: Trace,
}

impl EdgeRunReport {
    /// Stable FNV-1a fingerprint of the trace's JSONL bytes.
    pub fn trace_digest(&self) -> u64 {
        self.trace.digest()
    }
}

/// A declarative edge experiment, built by [`Sperke::edge_builder`].
#[derive(Debug, Clone)]
pub struct EdgeBuilder {
    config: EdgeConfig,
    duration: SimDuration,
    clients: Option<Vec<EdgeClientSpec>>,
    faults: FaultScript,
    recovery: RecoveryPolicy,
    trace: TraceLevel,
    vis: VisibilityCache,
    bbr: bool,
    origin_loss: LossChannel,
    policy: AbrPolicyKind,
}

impl Sperke {
    /// Start an edge-fleet experiment from defaults: 16 clients on a
    /// 12 s generic video, a 400 Mbps egress, an 80 Mbps origin
    /// backhaul and a 256 MiB shared tile cache.
    ///
    /// ```
    /// use sperke_core::Sperke;
    ///
    /// let report = Sperke::edge_builder(7).clients(8).run();
    /// assert_eq!(report.admitted, 8);
    /// assert!(report.cache.hits > 0, "shared viewing hits the cache");
    /// ```
    pub fn edge_builder(seed: u64) -> EdgeBuilder {
        EdgeBuilder {
            config: EdgeConfig {
                seed,
                ..Default::default()
            },
            duration: SimDuration::from_secs(12),
            clients: None,
            faults: FaultScript::none(),
            recovery: RecoveryPolicy::default(),
            trace: TraceLevel::Off,
            vis: VisibilityCache::default(),
            bbr: false,
            origin_loss: LossChannel::Declared,
            policy: AbrPolicyKind::default(),
        }
    }
}

impl EdgeBuilder {
    /// Number of clients attaching (the default evenly-spaced
    /// population; see [`EdgeBuilder::client_specs`] for full control).
    pub fn clients(mut self, clients: usize) -> Self {
        self.config.clients = clients;
        self
    }

    /// Admission cap.
    pub fn max_clients(mut self, max_clients: usize) -> Self {
        self.config.max_clients = max_clients;
        self
    }

    /// Supply the exact client population (arrivals, seeds, weights,
    /// budgets). Order does not matter — runs canonicalise it.
    pub fn client_specs(mut self, specs: Vec<EdgeClientSpec>) -> Self {
        self.clients = Some(specs);
        self
    }

    /// Shared egress capacity, bits/second.
    pub fn egress(mut self, bps: f64) -> Self {
        self.config.egress_bps = bps;
        self
    }

    /// Origin backhaul capacity, bits/second.
    pub fn origin(mut self, bps: f64) -> Self {
        self.config.origin_bps = bps;
        self
    }

    /// Tile cache capacity in bytes (0 disables: the no-cache baseline).
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.config.cache_bytes = bytes;
        self
    }

    /// Enable or disable crowd-driven prefetching.
    pub fn prefetch(mut self, on: bool) -> Self {
        self.config.prefetch = on;
        self
    }

    /// Video duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Replace the whole config (the builder's other setters mutate it).
    pub fn config(mut self, config: EdgeConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach a fault script to the origin backhaul (path 0).
    pub fn with_faults(mut self, faults: FaultScript) -> Self {
        self.faults = faults;
        self
    }

    /// Retry policy for failed origin fetches.
    pub fn with_resilience(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Record a deterministic trace of the run at `level`.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Pass a visibility-cache handle through to the run. No production
    /// run reads it: the engine computes display visibility in its
    /// sense phase, so the handle changes neither speed nor outcomes.
    pub fn vis_cache(mut self, vis: VisibilityCache) -> Self {
        self.vis = vis;
        self
    }

    /// Probe the origin backhaul with a BBR-style estimator and pace
    /// fetches at the measured rate. Off by default.
    pub fn with_bbr(mut self) -> Self {
        self.bbr = true;
        self
    }

    /// Loss model for origin fetch attempts (default
    /// [`LossChannel::Declared`]: fault script only).
    pub fn with_origin_loss(mut self, channel: LossChannel) -> Self {
        self.origin_loss = channel;
        self
    }

    /// Plan every client decide with this viewport-adaptation policy
    /// (default [`AbrPolicyKind::Knapsack`], the §3.2 stochastic
    /// selector; [`AbrPolicyKind::Sperke`] plans the same bytes).
    pub fn abr_policy(mut self, kind: AbrPolicyKind) -> Self {
        self.policy = kind;
        self
    }

    /// The video this experiment streams (seeded by the config seed).
    pub fn build_video(&self) -> VideoModel {
        sperke_video::VideoModelBuilder::new(self.config.seed)
            .duration(self.duration)
            .build()
    }

    fn client_set(&self) -> Vec<EdgeClientSpec> {
        self.clients
            .clone()
            .unwrap_or_else(|| sperke_edge::default_clients(&self.config))
    }

    /// Run the experiment.
    pub fn run(&self) -> EdgeReport {
        self.run_report().report
    }

    /// Run and return both the report and the captured trace.
    pub fn run_report(&self) -> EdgeRunReport {
        self.run_metered(None)
    }

    /// Run, additionally accumulating counters into `metrics`.
    pub fn run_metered(&self, metrics: Option<&mut MetricsRegistry>) -> EdgeRunReport {
        self.run_on(metrics, 1)
    }

    /// Run the experiment on `workers` sense threads (`0` = machine
    /// default). Report and trace are byte-identical to
    /// [`EdgeBuilder::run_report`] for any worker count.
    pub fn run_batched(&self, workers: usize) -> EdgeRunReport {
        self.run_on(None, workers)
    }

    fn run_on(&self, metrics: Option<&mut MetricsRegistry>, workers: usize) -> EdgeRunReport {
        let video = self.build_video();
        let sink = TraceSink::with_level(self.trace);
        let harness = EdgeHarness {
            trace: sink.clone(),
            faults: self.faults.clone(),
            recovery: self.recovery,
            vis: self.vis.clone(),
            bbr: self.bbr,
            origin_loss: self.origin_loss,
            policy: self.policy,
        };
        let report = run_edge(
            &video,
            &self.config,
            &self.client_set(),
            &harness,
            metrics,
            workers,
        );
        drop(harness);
        EdgeRunReport {
            report,
            trace: sink.into_trace(),
        }
    }
}

/// A rectangular grid over [`EdgeConfig`]: clients × cache capacity ×
/// seeds, applied over a shared base config. Point order is
/// deterministic and clients-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeGrid {
    /// Knobs shared by every point.
    pub base: EdgeConfig,
    /// Client-count axis.
    pub clients: Vec<usize>,
    /// Cache-capacity axis, bytes (include 0 for the no-cache baseline).
    pub cache_bytes: Vec<u64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
}

impl EdgeGrid {
    /// A degenerate grid holding only `base`'s own axis values.
    pub fn new(base: EdgeConfig) -> EdgeGrid {
        EdgeGrid {
            clients: vec![base.clients],
            cache_bytes: vec![base.cache_bytes],
            seeds: vec![base.seed],
            base,
        }
    }

    /// Sweep these client counts.
    pub fn clients_axis(mut self, clients: Vec<usize>) -> EdgeGrid {
        self.clients = clients;
        self
    }

    /// Sweep these cache capacities (bytes; 0 = no cache).
    pub fn cache_axis(mut self, cache_bytes: Vec<u64>) -> EdgeGrid {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Sweep these seeds.
    pub fn seed_axis(mut self, seeds: Vec<u64>) -> EdgeGrid {
        self.seeds = seeds;
        self
    }

    /// The grid's points in sweep order (clients-major, then cache,
    /// then seed).
    pub fn points(&self) -> Vec<EdgeConfig> {
        let mut out =
            Vec::with_capacity(self.clients.len() * self.cache_bytes.len() * self.seeds.len());
        for &clients in &self.clients {
            for &cache_bytes in &self.cache_bytes {
                for &seed in &self.seeds {
                    out.push(EdgeConfig {
                        clients,
                        cache_bytes,
                        seed,
                        ..self.base
                    });
                }
            }
        }
        out
    }

    /// The grid as a [`SweepPlan`].
    pub fn plan(&self) -> SweepPlan<EdgeConfig> {
        SweepPlan::new(self.points())
    }
}

/// One merged edge-sweep point: the config that ran and its report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSweepPoint {
    /// The exact configuration of this point.
    pub config: EdgeConfig,
    /// The edge run's aggregate outcome.
    pub report: EdgeReport,
}

/// Run every point of `grid` against `video` with `policy` planning
/// every client decide, on `threads` workers (`0` = available
/// parallelism), merging deterministically by grid index: byte-identical
/// for any worker count. Each point runs the edge engine on one sense
/// worker (the sweep already owns the thread pool).
pub fn run_edge_sweep(
    video: &VideoModel,
    grid: &EdgeGrid,
    policy: AbrPolicyKind,
    threads: usize,
) -> SweepReport<EdgeSweepPoint> {
    let plan = grid.plan();
    run_sweep(&plan, threads, |_index, config| {
        let harness = EdgeHarness {
            policy,
            ..Default::default()
        };
        EdgeSweepPoint {
            config: *config,
            report: run_edge(
                video,
                config,
                &sperke_edge::default_clients(config),
                &harness,
                None,
                1,
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_edge::oracle::run_edge_full;
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(10))
            .build()
    }

    /// The builder's exact run, replayed by the per-event oracle.
    fn oracle_run(b: &EdgeBuilder) -> EdgeRunReport {
        let sink = TraceSink::with_level(b.trace);
        let harness = EdgeHarness {
            trace: sink.clone(),
            policy: b.policy,
            ..Default::default()
        };
        let report = run_edge_full(&b.build_video(), &b.config, &b.client_set(), &harness, None);
        drop(harness);
        EdgeRunReport {
            report,
            trace: sink.into_trace(),
        }
    }

    /// [`run_edge_sweep`]'s grid, one oracle run per point.
    fn oracle_sweep(
        video: &VideoModel,
        grid: &EdgeGrid,
        policy: AbrPolicyKind,
        threads: usize,
    ) -> SweepReport<EdgeSweepPoint> {
        run_sweep(&grid.plan(), threads, |_index, config| {
            let harness = EdgeHarness {
                policy,
                ..Default::default()
            };
            EdgeSweepPoint {
                config: *config,
                report: run_edge_full(
                    video,
                    config,
                    &sperke_edge::default_clients(config),
                    &harness,
                    None,
                ),
            }
        })
    }

    #[test]
    fn builder_runs_and_is_deterministic() {
        let mk = || {
            Sperke::edge_builder(5)
                .clients(6)
                .duration(SimDuration::from_secs(8))
                .run()
        };
        let r = mk();
        assert_eq!(r.admitted, 6);
        assert_eq!(r, mk());
    }

    #[test]
    fn builder_trace_digest_is_stable() {
        let mk = || {
            Sperke::edge_builder(9)
                .clients(5)
                .duration(SimDuration::from_secs(6))
                .with_trace(TraceLevel::Verbose)
                .run_report()
        };
        let a = mk();
        let b = mk();
        assert!(!a.trace.is_empty());
        assert_eq!(a.trace_digest(), b.trace_digest());
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn grid_points_enumerate_clients_major() {
        let grid = EdgeGrid::new(EdgeConfig::default())
            .clients_axis(vec![4, 8])
            .cache_axis(vec![0, 64 << 20])
            .seed_axis(vec![7]);
        let points = grid.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].clients, 4);
        assert_eq!(points[0].cache_bytes, 0);
        assert_eq!(points[1].cache_bytes, 64 << 20);
        assert_eq!(points[2].clients, 8);
    }

    #[test]
    fn edge_sweep_is_thread_count_invariant() {
        let v = video();
        let grid = EdgeGrid::new(EdgeConfig {
            clients: 4,
            ..Default::default()
        })
        .cache_axis(vec![0, 128 << 20])
        .seed_axis(vec![7, 11]);
        let serial = run_edge_sweep(&v, &grid, AbrPolicyKind::default(), 1);
        let parallel = run_edge_sweep(&v, &grid, AbrPolicyKind::default(), 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.len(), 4);
    }

    #[test]
    fn batched_builder_and_sweep_match_legacy() {
        let b = Sperke::edge_builder(11)
            .clients(6)
            .duration(SimDuration::from_secs(8))
            .with_trace(TraceLevel::Events);
        let legacy = oracle_run(&b);
        for workers in [1usize, 4] {
            let batched = b.run_batched(workers);
            assert_eq!(legacy.report, batched.report);
            assert_eq!(legacy.trace_digest(), batched.trace_digest());
        }

        let v = video();
        let grid = EdgeGrid::new(EdgeConfig {
            clients: 4,
            ..Default::default()
        })
        .cache_axis(vec![0, 128 << 20])
        .seed_axis(vec![7]);
        let legacy_sweep = oracle_sweep(&v, &grid, AbrPolicyKind::default(), 2);
        let batched_sweep = run_edge_sweep(&v, &grid, AbrPolicyKind::default(), 2);
        assert_eq!(legacy_sweep.to_jsonl(), batched_sweep.to_jsonl());
        assert_eq!(legacy_sweep.digest(), batched_sweep.digest());
    }

    #[test]
    fn policy_edge_builder_and_sweep_collapse_to_legacy() {
        let base = Sperke::edge_builder(13)
            .clients(5)
            .duration(SimDuration::from_secs(8));
        let legacy = base.clone().run();
        assert_eq!(
            legacy,
            base.clone().abr_policy(AbrPolicyKind::Knapsack).run(),
            "knapsack builder diverged from the default"
        );
        assert_eq!(
            legacy,
            base.clone().abr_policy(AbrPolicyKind::Sperke).run(),
            "sperke builder diverged from the default"
        );
        let qer = base.clone().abr_policy(AbrPolicyKind::qer_default());
        let qer_legacy = oracle_run(&qer).report;
        assert_eq!(
            qer_legacy,
            qer.run_batched(4).report,
            "qer batched diverged from qer legacy"
        );

        let v = video();
        let grid = EdgeGrid::new(EdgeConfig {
            clients: 4,
            ..Default::default()
        })
        .cache_axis(vec![0, 128 << 20])
        .seed_axis(vec![7]);
        let legacy_sweep = oracle_sweep(&v, &grid, AbrPolicyKind::default(), 2);
        let knap_sweep = run_edge_sweep(&v, &grid, AbrPolicyKind::Knapsack, 2);
        assert_eq!(legacy_sweep.to_jsonl(), knap_sweep.to_jsonl());
        let serial = run_edge_sweep(&v, &grid, AbrPolicyKind::transition_default(), 1);
        let parallel = run_edge_sweep(&v, &grid, AbrPolicyKind::transition_default(), 4);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert_eq!(serial.digest(), parallel.digest());
    }

    #[test]
    fn sweep_baseline_axis_shows_cache_savings() {
        let v = video();
        let grid = EdgeGrid::new(EdgeConfig {
            clients: 8,
            ..Default::default()
        })
        .cache_axis(vec![0, 256 << 20]);
        let report = run_edge_sweep(&v, &grid, AbrPolicyKind::default(), 0);
        let points: Vec<&EdgeSweepPoint> = report.ok_results().collect();
        assert_eq!(points.len(), 2);
        let (uncached, cached) = (&points[0].report, &points[1].report);
        assert!(cached.origin_demand_bytes() < uncached.origin_demand_bytes());
    }
}
