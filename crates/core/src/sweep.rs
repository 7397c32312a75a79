//! Session seed sweeps: [`Sperke::sweep`] replicates a single-session
//! experiment across a seed panel, capturing each run's QoE and trace
//! digest. (Multi-viewer grids sweep through
//! [`EdgeGrid`](crate::EdgeGrid) → [`run_edge_sweep`](crate::run_edge_sweep).)
//!
//! It rides on [`sperke_sim::sweep::run_sweep`]: every point is its own
//! single-threaded, deterministic simulation; the worker pool only
//! changes wall-clock time, never a byte of the report.

use crate::builder::Sperke;
use serde::{Deserialize, Serialize};
use sperke_player::QoeReport;
use sperke_sim::sweep::{run_sweep, SweepPlan, SweepReport};
use sperke_sim::SEED_PANEL;

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
    use sperke_sim::SimDuration;

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
