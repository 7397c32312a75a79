//! Fault injection: scripted and seeded-stochastic outages and
//! degradations for the path models.
//!
//! The paper's live-broadcast agenda (§3.4.2) is about behaviour under
//! *degraded* networks — bandwidth collapse, loss bursts, links dropping
//! outright. A [`FaultScript`] describes those conditions declaratively;
//! compiled per path into a [`PathFaults`] timeline, it is honoured by
//! the transfer engine: transfers in flight when an outage starts are
//! interrupted (outcome `Failed`), not silently completed, and
//! degradation windows scale the usable bandwidth and inflate loss.
//!
//! Stochastic scripts are generated eagerly from a seed at construction
//! time, so the same seed + script always yields the same timeline —
//! the fault layer never consumes simulation RNG at transfer time.
//!
//! ```
//! use sperke_net::{FaultScript, PathFaults};
//! use sperke_sim::SimTime;
//!
//! let script = FaultScript::none()
//!     .link_down(0, SimTime::from_secs(4), SimTime::from_secs(9))
//!     .degrade(1, SimTime::from_secs(2), SimTime::from_secs(6), 0.25, 0.01);
//! let faults: PathFaults = script.compile_for(0);
//! assert!(faults.is_down(SimTime::from_secs(5)));
//! assert!(!faults.is_down(SimTime::from_secs(9)));
//! ```

use serde::{Deserialize, Serialize};
use sperke_sim::{SimDuration, SimRng, SimTime};

/// One scripted fault on one path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// The link is down over `[from, until)`: new transfers fail after a
    /// detection RTT and transfers in flight are interrupted.
    LinkDown {
        /// Affected path index.
        path: usize,
        /// Outage start (inclusive).
        from: SimTime,
        /// Outage end (exclusive).
        until: SimTime,
    },
    /// The link is degraded over `[from, until)`: usable bandwidth is
    /// multiplied by `bandwidth_factor` and `extra_loss` is added to the
    /// packet-loss probability (a loss burst).
    Degrade {
        /// Affected path index.
        path: usize,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Multiplier on usable bandwidth, in `(0, 1]`.
        bandwidth_factor: f64,
        /// Additional packet-loss probability, in `[0, 1)`.
        extra_loss: f64,
    },
}

impl FaultSpec {
    /// The path the fault applies to.
    pub fn path(&self) -> usize {
        match *self {
            FaultSpec::LinkDown { path, .. } | FaultSpec::Degrade { path, .. } => path,
        }
    }
}

/// A declarative fault schedule over a path set. Build it fluently with
/// [`FaultScript::link_down`] / [`FaultScript::degrade`], or generate
/// seeded-stochastic outage schedules with
/// [`FaultScript::random_outages`]; compose schedules with
/// [`FaultScript::merge`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultScript {
    specs: Vec<FaultSpec>,
}

impl FaultScript {
    /// The empty script: no faults anywhere. Attaching it is exactly
    /// equivalent to not attaching a script at all.
    pub fn none() -> FaultScript {
        FaultScript::default()
    }

    /// Add a link-down interval `[from, until)` on `path`.
    pub fn link_down(mut self, path: usize, from: SimTime, until: SimTime) -> FaultScript {
        assert!(from < until, "outage must have positive length");
        self.specs.push(FaultSpec::LinkDown { path, from, until });
        self
    }

    /// Add a degradation window `[from, until)` on `path`: bandwidth is
    /// multiplied by `bandwidth_factor` and `extra_loss` is added to the
    /// packet-loss probability.
    pub fn degrade(
        mut self,
        path: usize,
        from: SimTime,
        until: SimTime,
        bandwidth_factor: f64,
        extra_loss: f64,
    ) -> FaultScript {
        assert!(from < until, "degradation must have positive length");
        assert!(
            bandwidth_factor > 0.0 && bandwidth_factor <= 1.0,
            "bandwidth_factor must be in (0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&extra_loss),
            "extra_loss must be in [0, 1)"
        );
        self.specs.push(FaultSpec::Degrade {
            path,
            from,
            until,
            bandwidth_factor,
            extra_loss,
        });
        self
    }

    /// Append every fault of `other`.
    pub fn merge(mut self, other: FaultScript) -> FaultScript {
        self.specs.extend(other.specs);
        self
    }

    /// A seeded-stochastic outage schedule: on each of `paths` paths,
    /// outages arrive with exponential gaps of mean `mean_gap` and last
    /// an exponential `mean_outage` (clamped to at least 100 ms), up to
    /// `horizon`. Deterministic in `seed`.
    pub fn random_outages(
        seed: u64,
        paths: usize,
        horizon: SimDuration,
        mean_gap: SimDuration,
        mean_outage: SimDuration,
    ) -> FaultScript {
        let mut script = FaultScript::none();
        let rng = SimRng::new(seed);
        for path in 0..paths {
            let mut rng = rng.split(path as u64);
            let mut t = SimTime::ZERO;
            loop {
                t += exponential(&mut rng, mean_gap);
                if t.saturating_since(SimTime::ZERO) >= horizon {
                    break;
                }
                let len = exponential(&mut rng, mean_outage).max(SimDuration::from_millis(100));
                script = script.link_down(path, t, t + len);
                t += len;
            }
        }
        script
    }

    /// True when the script contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The raw fault specs, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Compile the script into one path's fault timeline: outage
    /// intervals merged and sorted, degradation windows collected.
    pub fn compile_for(&self, path: usize) -> PathFaults {
        let mut outages: Vec<(SimTime, SimTime)> = self
            .specs
            .iter()
            .filter_map(|s| match *s {
                FaultSpec::LinkDown {
                    path: p,
                    from,
                    until,
                } if p == path => Some((from, until)),
                _ => None,
            })
            .collect();
        outages.sort();
        // Merge overlapping or touching intervals.
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(outages.len());
        for (from, until) in outages {
            match merged.last_mut() {
                Some(last) if from <= last.1 => last.1 = last.1.max(until),
                _ => merged.push((from, until)),
            }
        }
        let degradations = self
            .specs
            .iter()
            .filter_map(|s| match *s {
                FaultSpec::Degrade {
                    path: p,
                    from,
                    until,
                    bandwidth_factor,
                    extra_loss,
                } if p == path => Some(Degradation {
                    from,
                    until,
                    bandwidth_factor,
                    extra_loss,
                }),
                _ => None,
            })
            .collect();
        PathFaults {
            outages: merged,
            degradations,
        }
    }
}

/// Exponentially distributed duration with the given mean (inverse-CDF
/// sampling; deterministic in `rng`).
fn exponential(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    let u = rng.uniform();
    mean.mul_f64(-(1.0 - u).ln())
}

/// One compiled degradation window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Degradation {
    from: SimTime,
    until: SimTime,
    bandwidth_factor: f64,
    extra_loss: f64,
}

/// One path's compiled fault timeline: merged, sorted outage intervals
/// plus degradation windows, with point queries used by the transfer
/// engine. The default value has no faults and costs nothing to query.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PathFaults {
    outages: Vec<(SimTime, SimTime)>,
    degradations: Vec<Degradation>,
}

impl PathFaults {
    /// A timeline with no faults.
    pub fn none() -> PathFaults {
        PathFaults::default()
    }

    /// True when the timeline carries no faults at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.degradations.is_empty()
    }

    /// The merged outage intervals `[from, until)`, sorted.
    pub fn outages(&self) -> &[(SimTime, SimTime)] {
        &self.outages
    }

    /// True when the link is down at `at`.
    pub fn is_down(&self, at: SimTime) -> bool {
        self.outages
            .iter()
            .any(|&(from, until)| from <= at && at < until)
    }

    /// The first outage that *starts* within `[from, until)` — the check
    /// the transfer engine uses to interrupt work already in flight.
    pub fn first_outage_start_within(&self, from: SimTime, until: SimTime) -> Option<SimTime> {
        self.outages
            .iter()
            .map(|&(start, _)| start)
            .find(|&start| from <= start && start < until)
    }

    /// The combined bandwidth multiplier active at `at` (product of all
    /// covering degradation windows, floored at 1 % so transfer times
    /// stay finite).
    pub fn bandwidth_factor_at(&self, at: SimTime) -> f64 {
        let mut factor = 1.0;
        for d in &self.degradations {
            if d.from <= at && at < d.until {
                factor *= d.bandwidth_factor;
            }
        }
        factor.max(0.01)
    }

    /// The additional packet-loss probability active at `at` (sum of all
    /// covering windows, capped below 1).
    pub fn extra_loss_at(&self, at: SimTime) -> f64 {
        let mut extra = 0.0;
        for d in &self.degradations {
            if d.from <= at && at < d.until {
                extra += d.extra_loss;
            }
        }
        extra.min(0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_script_compiles_to_no_faults() {
        let f = FaultScript::none().compile_for(0);
        assert!(f.is_empty());
        assert!(!f.is_down(s(5)));
        assert_eq!(f.bandwidth_factor_at(s(5)), 1.0);
        assert_eq!(f.extra_loss_at(s(5)), 0.0);
        assert_eq!(f.first_outage_start_within(SimTime::ZERO, s(100)), None);
    }

    #[test]
    fn outage_intervals_are_half_open_and_merged() {
        let f = FaultScript::none()
            .link_down(0, s(2), s(4))
            .link_down(0, s(3), s(6)) // overlaps — merges
            .link_down(0, s(9), s(10))
            .compile_for(0);
        assert_eq!(f.outages(), &[(s(2), s(6)), (s(9), s(10))]);
        assert!(!f.is_down(s(1)));
        assert!(f.is_down(s(2)));
        assert!(f.is_down(s(5)));
        assert!(!f.is_down(s(6)), "end is exclusive");
        assert_eq!(f.first_outage_start_within(s(1), s(3)), Some(s(2)));
        assert_eq!(f.first_outage_start_within(s(3), s(8)), None);
        assert_eq!(f.first_outage_start_within(s(7), s(20)), Some(s(9)));
    }

    #[test]
    fn faults_are_per_path() {
        let script = FaultScript::none()
            .link_down(0, s(1), s(2))
            .degrade(1, s(3), s(5), 0.5, 0.02);
        assert!(script.compile_for(0).is_down(s(1)));
        assert!(!script.compile_for(1).is_down(s(1)));
        assert_eq!(script.compile_for(1).bandwidth_factor_at(s(4)), 0.5);
        assert_eq!(script.compile_for(0).bandwidth_factor_at(s(4)), 1.0);
    }

    #[test]
    fn degradations_stack() {
        let f = FaultScript::none()
            .degrade(0, s(0), s(10), 0.5, 0.01)
            .degrade(0, s(5), s(10), 0.5, 0.02)
            .compile_for(0);
        assert_eq!(f.bandwidth_factor_at(s(1)), 0.5);
        assert_eq!(f.bandwidth_factor_at(s(6)), 0.25);
        assert!((f.extra_loss_at(s(6)) - 0.03).abs() < 1e-12);
        assert_eq!(f.extra_loss_at(s(12)), 0.0);
    }

    #[test]
    fn random_scripts_are_seed_deterministic() {
        let mk = |seed| {
            FaultScript::random_outages(
                seed,
                2,
                SimDuration::from_secs(120),
                SimDuration::from_secs(20),
                SimDuration::from_secs(3),
            )
        };
        assert_eq!(mk(7), mk(7), "same seed, same schedule");
        assert_ne!(mk(7), mk(8), "different seeds differ");
        assert!(
            !mk(7).is_empty(),
            "a 120 s horizon with 20 s mean gap yields outages"
        );
        // Outages stay within a generous bound of the horizon and are
        // well-formed per path.
        for path in 0..2 {
            let f = mk(7).compile_for(path);
            for &(from, until) in f.outages() {
                assert!(from < until);
                assert!(from < SimTime::from_secs(120));
            }
        }
    }

    #[test]
    fn merge_combines_scripts() {
        let a = FaultScript::none().link_down(0, s(1), s(2));
        let b = FaultScript::none().link_down(1, s(3), s(4));
        let m = a.merge(b);
        assert_eq!(m.specs().len(), 2);
        assert!(m.compile_for(0).is_down(s(1)));
        assert!(m.compile_for(1).is_down(s(3)));
    }
}
