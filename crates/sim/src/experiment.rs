//! Multi-seed experiment replication.
//!
//! Every Sperke result is a deterministic function of a seed; real
//! conclusions need several seeds. [`replicate`] runs a measurement
//! across seeds and summarizes the distribution; [`Replicates`] carries
//! the summary into result tables.

use crate::stats;
use serde::{Deserialize, Serialize};

/// Summary of a measurement across seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Replicates {
    /// Raw per-seed values, in seed order.
    pub values: Vec<f64>,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Replicates {
    /// Summarize raw values (non-empty).
    fn from_values(values: Vec<f64>) -> Replicates {
        assert!(!values.is_empty(), "need at least one replicate");
        let mean = stats::mean(&values);
        let stddev = stats::stddev(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Replicates {
            values,
            mean,
            stddev,
            min,
            max,
        }
    }

    /// Half-width of a normal-approximation 95 % confidence interval.
    fn ci95(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        1.96 * self.stddev / (self.values.len() as f64).sqrt()
    }

    /// `mean ± ci95` formatted for tables.
    pub fn display(&self) -> String {
        format!("{:.2} ± {:.2}", self.mean, self.ci95())
    }
}

/// Run `measure` once per seed and summarize.
pub fn replicate(seeds: &[u64], mut measure: impl FnMut(u64) -> f64) -> Replicates {
    assert!(!seeds.is_empty(), "need at least one seed");
    Replicates::from_values(seeds.iter().map(|&s| measure(s)).collect())
}

/// The default seed panel used by the benches.
pub const SEED_PANEL: [u64; 5] = [11, 23, 47, 89, 131];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_runs_each_seed_once() {
        let mut calls = Vec::new();
        let r = replicate(&[1, 2, 3], |s| {
            calls.push(s);
            s as f64 * 10.0
        });
        assert_eq!(calls, vec![1, 2, 3]);
        assert_eq!(r.values, vec![10.0, 20.0, 30.0]);
        assert_eq!(r.mean, 20.0);
        assert_eq!(r.min, 10.0);
        assert_eq!(r.max, 30.0);
    }

    #[test]
    fn ci_shrinks_with_more_replicates() {
        let few = Replicates::from_values(vec![1.0, 3.0]);
        let many = Replicates::from_values(vec![1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]);
        assert!(many.ci95() < few.ci95());
        assert_eq!(Replicates::from_values(vec![5.0]).ci95(), 0.0);
    }

    #[test]
    fn display_formats() {
        let r = Replicates::from_values(vec![2.0, 2.0, 2.0]);
        assert_eq!(r.display(), "2.00 ± 0.00");
    }

    #[test]
    #[should_panic]
    fn empty_seeds_rejected() {
        replicate(&[], |_| 0.0);
    }
}
