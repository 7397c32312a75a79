//! Parameter-sweep entry points: fan a grid of experiments across CPU
//! cores without giving up byte-determinism.
//!
//! Two sweeps are wired up here:
//!
//! * [`FleetGrid`] → [`run_fleet_sweep`]: a Table-2-style grid over the
//!   fleet experiment — server egress (bandwidth axis) × delivery
//!   scheme (FoV-guided vs full panorama) × seeds — each point one
//!   deterministic [`run_fleet`] run on one sense worker (the sweep
//!   already owns the thread pool).
//! * [`Sperke::sweep`]: replicate a single-session experiment across a
//!   seed panel, capturing each run's QoE and trace digest.
//!
//! Both ride on [`sperke_sim::sweep::run_sweep`]: every point is its own
//! single-threaded, deterministic simulation; the worker pool only
//! changes wall-clock time, never a byte of the report.

use crate::builder::Sperke;
use crate::fleet::{run_fleet, FleetConfig, FleetReport};
use serde::{Deserialize, Serialize};
use sperke_player::QoeReport;
use sperke_sim::sweep::{run_sweep, SweepPlan, SweepReport};
use sperke_sim::SEED_PANEL;
use sperke_video::VideoModel;
use sperke_vra::AbrPolicyKind;

/// A rectangular grid over [`FleetConfig`]: the cross product of an
/// egress-bandwidth axis, a delivery-scheme axis and a seed axis, all
/// applied over a shared base config.
///
/// Point order is deterministic and bandwidth-major: egress, then
/// scheme, then seed — the row order a Table-2-style report prints in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetGrid {
    /// Knobs shared by every point (viewers, budgets, fetch lead...).
    pub base: FleetConfig,
    /// Server egress capacities to sweep, bits/second.
    pub egress_bps: Vec<f64>,
    /// Delivery schemes to sweep (`true` = FoV-guided).
    pub fov_guided: Vec<bool>,
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
}

impl FleetGrid {
    /// A degenerate grid holding only `base`'s own axes values.
    pub fn new(base: FleetConfig) -> FleetGrid {
        FleetGrid {
            egress_bps: vec![base.egress_bps],
            fov_guided: vec![base.fov_guided],
            seeds: vec![base.seed],
            base,
        }
    }

    /// Sweep these egress capacities (bits/second).
    pub fn egress_axis(mut self, egress_bps: Vec<f64>) -> FleetGrid {
        self.egress_bps = egress_bps;
        self
    }

    /// Sweep these delivery schemes (`true` = FoV-guided).
    pub fn scheme_axis(mut self, fov_guided: Vec<bool>) -> FleetGrid {
        self.fov_guided = fov_guided;
        self
    }

    /// Sweep these seeds.
    pub fn seed_axis(mut self, seeds: Vec<u64>) -> FleetGrid {
        self.seeds = seeds;
        self
    }

    /// The grid's points in sweep order (egress-major, then scheme,
    /// then seed). An empty axis yields an empty — still valid — plan.
    pub fn points(&self) -> Vec<FleetConfig> {
        let mut out =
            Vec::with_capacity(self.egress_bps.len() * self.fov_guided.len() * self.seeds.len());
        for &egress_bps in &self.egress_bps {
            for &fov_guided in &self.fov_guided {
                for &seed in &self.seeds {
                    out.push(FleetConfig {
                        egress_bps,
                        fov_guided,
                        seed,
                        ..self.base
                    });
                }
            }
        }
        out
    }

    /// The grid as a [`SweepPlan`].
    pub fn plan(&self) -> SweepPlan<FleetConfig> {
        SweepPlan::new(self.points())
    }
}

/// One merged fleet-sweep point: the config that ran and its report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSweepPoint {
    /// The exact configuration of this point.
    pub config: FleetConfig,
    /// The fleet run's aggregate outcome.
    pub report: FleetReport,
}

/// Run every point of `grid` against `video` with `policy` planning
/// every FoV-guided decide, on `threads` workers (`0` = available
/// parallelism), and merge deterministically by grid index: the
/// returned report is byte-identical for any worker count.
pub fn run_fleet_sweep(
    video: &VideoModel,
    grid: &FleetGrid,
    policy: AbrPolicyKind,
    threads: usize,
) -> SweepReport<FleetSweepPoint> {
    let plan = grid.plan();
    run_sweep(&plan, threads, |_index, config| FleetSweepPoint {
        config: *config,
        report: run_fleet(video, config, policy, 1),
    })
}

/// One merged session-sweep point: the seed, its QoE and the run's
/// trace digest (stable fingerprint of the captured JSONL trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SperkeSweepPoint {
    /// The seed this session ran from.
    pub seed: u64,
    /// The session's QoE report.
    pub qoe: QoeReport,
    /// [`crate::RunReport::trace_digest`] of the run.
    pub trace_digest: u64,
}

/// A seed sweep over [`Sperke`] sessions, built by [`Sperke::sweep`].
///
/// The experiment is described by a constructor closure (`seed →
/// Sperke`) rather than a prototype instance because the seed shapes
/// the whole experiment; each worker thread builds the sessions it
/// runs. A built [`Sperke`] is `Send + Sync` (its trace sink and
/// visibility cache are `Arc<Mutex<..>>` handles), and every
/// [`Sperke::run_report`] records into a fresh sink.
pub struct SperkeSweep<F> {
    build: F,
    seeds: Vec<u64>,
    threads: usize,
}

impl Sperke {
    /// Start a seed sweep: `build` maps each seed to the experiment to
    /// run for it. Defaults to the bench seed panel ([`SEED_PANEL`]) on
    /// all available cores.
    ///
    /// ```
    /// use sperke_core::Sperke;
    /// use sperke_sim::SimDuration;
    ///
    /// let report = Sperke::sweep(|seed| {
    ///     Sperke::builder(seed).duration(SimDuration::from_secs(4))
    /// })
    /// .seeds(&[1, 2, 3])
    /// .threads(2)
    /// .run();
    /// assert_eq!(report.len(), 3);
    /// ```
    pub fn sweep<F>(build: F) -> SperkeSweep<F>
    where
        F: Fn(u64) -> Sperke + Sync,
    {
        SperkeSweep {
            build,
            seeds: SEED_PANEL.to_vec(),
            threads: 0,
        }
    }
}

impl<F> SperkeSweep<F>
where
    F: Fn(u64) -> Sperke + Sync,
{
    /// Replace the seed panel.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Worker threads; `0` (the default) uses available parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Run the sweep. The merged report is byte-identical for any
    /// thread count.
    pub fn run(&self) -> SweepReport<SperkeSweepPoint> {
        let plan = SweepPlan::new(self.seeds.clone());
        run_sweep(&plan, self.threads, |_index, &seed| {
            let report = (self.build)(seed).run_report();
            let trace_digest = report.trace_digest();
            SperkeSweepPoint {
                seed,
                qoe: report.session.qoe,
                trace_digest,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::run_fleet_inner;
    use sperke_sim::SimDuration;
    use sperke_video::VideoModelBuilder;

    /// The per-event oracle over the same grid, one run per point.
    fn oracle_sweep(
        video: &VideoModel,
        grid: &FleetGrid,
        policy: AbrPolicyKind,
        threads: usize,
    ) -> SweepReport<FleetSweepPoint> {
        run_sweep(&grid.plan(), threads, |_index, config| FleetSweepPoint {
            config: *config,
            report: run_fleet_inner(video, config, policy),
        })
    }

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(6))
            .build()
    }

    fn small_grid() -> FleetGrid {
        FleetGrid::new(FleetConfig {
            viewers: 3,
            ..Default::default()
        })
        .egress_axis(vec![40e6, 200e6])
        .scheme_axis(vec![true, false])
        .seed_axis(vec![7])
    }

    #[test]
    fn grid_points_enumerate_bandwidth_major() {
        let grid = small_grid();
        let points = grid.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].egress_bps, 40e6);
        assert!(points[0].fov_guided);
        assert_eq!(points[1].egress_bps, 40e6);
        assert!(!points[1].fov_guided);
        assert_eq!(points[2].egress_bps, 200e6);
        for p in &points {
            assert_eq!(p.viewers, 3, "base knobs flow into every point");
        }
    }

    #[test]
    fn degenerate_and_empty_grids_are_valid() {
        let single = FleetGrid::new(FleetConfig::default());
        assert_eq!(single.points().len(), 1);
        let empty = single.clone().egress_axis(vec![]);
        assert!(empty.points().is_empty());
        let v = video();
        let report = run_fleet_sweep(&v, &empty, AbrPolicyKind::default(), 4);
        assert!(report.is_empty());
        let s = report.summary(|p| p.report.egress_bps);
        assert_eq!((s.mean, s.min, s.max), (0.0, 0.0, 0.0));
    }

    #[test]
    fn fleet_sweep_is_thread_count_invariant() {
        let v = video();
        let grid = small_grid();
        let serial = run_fleet_sweep(&v, &grid, AbrPolicyKind::default(), 1);
        let parallel = run_fleet_sweep(&v, &grid, AbrPolicyKind::default(), 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.len(), 4);
    }

    #[test]
    fn batched_sweep_matches_legacy_sweep_bytes() {
        let v = video();
        let grid = small_grid();
        let legacy = oracle_sweep(&v, &grid, AbrPolicyKind::default(), 2);
        let batched = run_fleet_sweep(&v, &grid, AbrPolicyKind::default(), 2);
        assert_eq!(legacy.to_jsonl(), batched.to_jsonl());
        assert_eq!(legacy.digest(), batched.digest());
    }

    #[test]
    fn policy_sweeps_collapse_and_stay_thread_invariant() {
        let v = video();
        let grid = small_grid();
        let legacy = oracle_sweep(&v, &grid, AbrPolicyKind::default(), 2);
        for kind in [AbrPolicyKind::Knapsack, AbrPolicyKind::Sperke] {
            let policy = run_fleet_sweep(&v, &grid, kind, 2);
            assert_eq!(
                legacy.to_jsonl(),
                policy.to_jsonl(),
                "{} sweep diverged from legacy",
                kind.name()
            );
        }
        let qer = AbrPolicyKind::qer_default();
        let serial = run_fleet_sweep(&v, &grid, qer, 1);
        let parallel = run_fleet_sweep(&v, &grid, qer, 4);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert_eq!(serial.digest(), parallel.digest());
        let batched = oracle_sweep(&v, &grid, qer, 2);
        assert_eq!(serial.to_jsonl(), batched.to_jsonl());
    }

    #[test]
    fn sperke_seed_sweep_matches_direct_runs() {
        let build = |seed: u64| Sperke::builder(seed).duration(SimDuration::from_secs(4));
        let report = Sperke::sweep(build).seeds(&[5, 9]).threads(2).run();
        assert_eq!(report.len(), 2);
        let points: Vec<&SperkeSweepPoint> = report.ok_results().collect();
        assert_eq!(points[0].seed, 5);
        assert_eq!(points[1].seed, 9);
        assert_eq!(
            points[0].qoe,
            build(5).run().qoe,
            "sweep point == direct run"
        );
        // Same sweep on one thread: byte-identical.
        let serial = Sperke::sweep(build).seeds(&[5, 9]).threads(1).run();
        assert_eq!(serial.to_jsonl(), report.to_jsonl());
    }
}
