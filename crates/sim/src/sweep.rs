//! Parallel parameter-sweep runner.
//!
//! Every Sperke experiment is a deterministic, single-threaded function
//! of its configuration and seed — which makes a *sweep* over a grid of
//! (config, seed) points embarrassingly parallel. [`run_sweep`] fans the
//! points of a [`SweepPlan`] across a pool of `std::thread` workers
//! pulling from a shared work queue, then merges the results **by sweep
//! index**, so the assembled [`SweepReport`] is byte-identical no matter
//! how many workers ran or in what order they finished:
//!
//! ```text
//! run_sweep(plan, K, f).to_jsonl() == run_sweep(plan, 1, f).to_jsonl()   for all K
//! ```
//!
//! Each point runs inside [`std::panic::catch_unwind`], so a panicking
//! configuration poisons only its own [`SweepPoint`] (recorded as
//! [`PointOutcome::Panicked`]) and the rest of the grid still completes.
//!
//! ```
//! use sperke_sim::sweep::{run_sweep, SweepPlan};
//!
//! let plan = SweepPlan::new(vec![1u64, 2, 3, 4]);
//! let report = run_sweep(&plan, 2, |_idx, &seed| seed * 10);
//! let values: Vec<u64> = report.ok_results().copied().collect();
//! assert_eq!(values, vec![10, 20, 30, 40]); // merged in sweep order
//! assert_eq!(report.digest(), run_sweep(&plan, 1, |_i, &s| s * 10).digest());
//! ```

use crate::stats;
use crate::trace::fnv1a64;
use serde::{Content, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An ordered list of sweep points. The index of a point in the plan is
/// its identity: results are merged and reported in plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan<P> {
    points: Vec<P>,
}

impl<P> SweepPlan<P> {
    /// A plan over `points`, swept in the given order.
    pub fn new(points: Vec<P>) -> SweepPlan<P> {
        SweepPlan { points }
    }

    /// The points, in sweep order.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True for the empty plan (a valid, zero-work sweep).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl<P> From<Vec<P>> for SweepPlan<P> {
    fn from(points: Vec<P>) -> SweepPlan<P> {
        SweepPlan::new(points)
    }
}

/// How one sweep point ended.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<R> {
    /// The run completed and produced a result.
    Ok(R),
    /// The run panicked; the payload's message is preserved. Only this
    /// point is poisoned — the rest of the sweep still completes.
    Panicked(String),
}

impl<R> PointOutcome<R> {
    /// The result, if the run completed.
    pub fn ok(&self) -> Option<&R> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            PointOutcome::Panicked(_) => None,
        }
    }
}

// The vendored serde derive shim does not handle generic types, so the
// sweep containers implement `Serialize` by hand against the Content
// model (field order fixed, hence byte-stable JSONL).
impl<R: Serialize> Serialize for PointOutcome<R> {
    fn to_content(&self) -> Content {
        match self {
            PointOutcome::Ok(r) => Content::Map(vec![(String::from("Ok"), r.to_content())]),
            PointOutcome::Panicked(msg) => {
                Content::Map(vec![(String::from("Panicked"), Content::Str(msg.clone()))])
            }
        }
    }
}

/// One merged sweep point: its plan index, how it ended, and a stable
/// FNV-1a fingerprint of its serialized outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint<R> {
    /// Position in the plan (the point's identity).
    pub index: usize,
    /// The run's outcome.
    pub outcome: PointOutcome<R>,
    /// FNV-1a 64-bit digest of the outcome's JSON encoding — the
    /// per-point fingerprint golden-sweep tests pin down.
    pub trace_digest: u64,
}

impl<R: Serialize> Serialize for SweepPoint<R> {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (String::from("index"), Content::U64(self.index as u64)),
            (
                String::from("trace_digest"),
                Content::U64(self.trace_digest),
            ),
            (String::from("outcome"), self.outcome.to_content()),
        ])
    }
}

/// Summary statistics over the successful points of a sweep, computed
/// from one extracted metric. All paths are empty-safe: an empty grid or
/// a single-point plan yields zeros / the lone value, never a division
/// by zero or an infinity from an empty min/max fold.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSummary {
    /// Total points in the sweep (including panicked ones).
    pub points: usize,
    /// Points that completed.
    pub ok: usize,
    /// Points that panicked.
    pub panicked: usize,
    /// Mean of the metric over completed points; `0.0` when none.
    pub mean: f64,
    /// Population standard deviation; `0.0` for fewer than two points.
    pub stddev: f64,
    /// Minimum; `0.0` when no point completed.
    pub min: f64,
    /// Maximum; `0.0` when no point completed.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// The deterministic aggregate of a sweep: every point in plan order.
///
/// Equality, [`SweepReport::to_jsonl`] and [`SweepReport::digest`] are
/// all functions of the merged points only — never of worker count,
/// scheduling, or completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport<R> {
    points: Vec<SweepPoint<R>>,
}

impl<R> SweepReport<R> {
    /// The merged points, in plan order.
    pub fn points(&self) -> &[SweepPoint<R>] {
        &self.points
    }

    /// Number of points (completed and panicked).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True for the report of an empty plan.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Results of the points that completed, in plan order.
    pub fn ok_results(&self) -> impl Iterator<Item = &R> {
        self.points.iter().filter_map(|p| p.outcome.ok())
    }

    /// `(index, message)` of every panicked point, in plan order.
    pub fn panicked(&self) -> Vec<(usize, &str)> {
        self.points
            .iter()
            .filter_map(|p| match &p.outcome {
                PointOutcome::Panicked(msg) => Some((p.index, msg.as_str())),
                PointOutcome::Ok(_) => None,
            })
            .collect()
    }

    /// Summarize one metric over the completed points. Safe on empty
    /// grids and single-point plans (see [`SweepSummary`]).
    pub fn summary(&self, metric: impl Fn(&R) -> f64) -> SweepSummary {
        let values: Vec<f64> = self.ok_results().map(metric).collect();
        let (min, max) = stats::minmax(&values);
        SweepSummary {
            points: self.points.len(),
            ok: values.len(),
            panicked: self.points.len() - values.len(),
            mean: stats::mean(&values),
            stddev: stats::stddev(&values),
            min,
            max,
            p50: stats::percentile(&values, 50.0),
            p95: stats::percentile(&values, 95.0),
        }
    }
}

impl<R: Serialize> SweepReport<R> {
    /// Export as newline-delimited JSON, one point per line, in plan
    /// order. Byte-identical across runs and worker counts.
    pub fn to_jsonl(&self) -> String {
        self.points
            .iter()
            .map(|p| serde_json::to_string(p).expect("sweep point serializes"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// FNV-1a 64-bit fingerprint of [`SweepReport::to_jsonl`].
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_jsonl().as_bytes())
    }
}

/// The worker count [`run_sweep`] uses for `threads = 0`: the machine's
/// available parallelism (falling back to 1 if it cannot be queried).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("opaque panic payload")
    }
}

/// Run every point of `plan` through `run` on a pool of `threads`
/// workers (`0` = [`default_threads`]) and merge the results by plan
/// index.
///
/// `run` is called as `run(index, &point)`; each call executes entirely
/// on one worker thread, so state the closure builds (a trace sink, for
/// instance) belongs to that one point. Trace sinks are `Arc<Mutex<..>>`
/// handles and could cross threads; building them per point keeps
/// points from sharing one. A panic inside `run` is caught and recorded
/// as [`PointOutcome::Panicked`] for that point alone.
///
/// The headline guarantee: for any plan and any `K ≥ 1`,
/// `run_sweep(plan, K, f)` equals `run_sweep(plan, 1, f)` byte for byte
/// (same points, same outcomes, same digests).
pub fn run_sweep<P, R, F>(plan: &SweepPlan<P>, threads: usize, run: F) -> SweepReport<R>
where
    P: Sync,
    R: Send + Serialize,
    F: Fn(usize, &P) -> R + Sync,
{
    let n = plan.points.len();
    let workers = if threads == 0 {
        default_threads()
    } else {
        threads
    }
    .min(n)
    .max(1);
    let next = AtomicUsize::new(0);
    let merged: Mutex<Vec<(usize, PointOutcome<R>)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Claim the next unclaimed point; the queue is just a
                // shared cursor since points are known up front.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let outcome = match catch_unwind(AssertUnwindSafe(|| run(i, &plan.points[i]))) {
                    Ok(r) => PointOutcome::Ok(r),
                    Err(payload) => PointOutcome::Panicked(panic_text(payload)),
                };
                merged.lock().expect("sweep merge lock").push((i, outcome));
            });
        }
    });

    let mut collected = merged.into_inner().expect("sweep merge lock");
    collected.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), n, "every point merges exactly once");
    SweepReport {
        points: collected
            .into_iter()
            .map(|(index, outcome)| {
                let trace_digest = fnv1a64(
                    serde_json::to_string(&outcome)
                        .expect("outcome serializes")
                        .as_bytes(),
                );
                SweepPoint {
                    index,
                    outcome,
                    trace_digest,
                }
            })
            .collect(),
    }
}

/// Fan `n` independent index-addressed jobs across `threads` workers
/// (`0` = [`default_threads`]) and return their results in index order.
///
/// The lightweight sibling of [`run_sweep`] for engine-internal batch
/// phases: no serialization, no panic isolation (a worker panic
/// propagates at scope exit), just the same shared-cursor fan-out and
/// merge-by-index discipline — so for any pure `run`, the returned `Vec`
/// is identical at any worker count.
pub fn parallel_indexed<R, F>(n: usize, threads: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = if threads == 0 {
        default_threads()
    } else {
        threads
    }
    .min(n)
    .max(1);
    if workers == 1 {
        return (0..n).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let merged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = run(i);
                merged.lock().expect("parallel merge lock").push((i, r));
            });
        }
    });
    let mut collected = merged.into_inner().expect("parallel merge lock");
    collected.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), n, "every index merges exactly once");
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_sweep(threads: usize, n: u64) -> SweepReport<u64> {
        let plan = SweepPlan::new((0..n).collect());
        run_sweep(&plan, threads, |_i, &x| x * x)
    }

    #[test]
    fn merges_in_plan_order_regardless_of_workers() {
        for threads in [1, 2, 3, 8, 32] {
            let report = square_sweep(threads, 20);
            let values: Vec<u64> = report.ok_results().copied().collect();
            assert_eq!(values, (0..20).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn report_bytes_are_worker_count_invariant() {
        let serial = square_sweep(1, 17);
        for threads in [2, 5, 8] {
            let parallel = square_sweep(threads, 17);
            assert_eq!(parallel, serial);
            assert_eq!(parallel.to_jsonl(), serial.to_jsonl());
            assert_eq!(parallel.digest(), serial.digest());
        }
    }

    #[test]
    fn empty_plan_is_a_valid_sweep() {
        let report = square_sweep(4, 0);
        assert!(report.is_empty());
        assert_eq!(report.to_jsonl(), "");
        let s = report.summary(|&x| x as f64);
        assert_eq!((s.points, s.ok, s.panicked), (0, 0, 0));
        assert_eq!(
            (s.mean, s.stddev, s.min, s.max, s.p50, s.p95),
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn single_point_summary_has_no_spread() {
        let report = square_sweep(8, 1);
        let s = report.summary(|&x| x as f64 + 3.0);
        assert_eq!(s.ok, 1);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!((s.min, s.max, s.p50, s.p95), (3.0, 3.0, 3.0, 3.0));
    }

    #[test]
    fn panic_poisons_only_its_point() {
        let plan = SweepPlan::new((0u64..9).collect());
        let report = run_sweep(&plan, 3, |_i, &x| {
            assert!(x % 4 != 2, "scripted failure at {x}");
            x + 100
        });
        assert_eq!(report.len(), 9);
        let panicked = report.panicked();
        assert_eq!(
            panicked.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![2, 6]
        );
        assert!(panicked[0].1.contains("scripted failure at 2"));
        let ok: Vec<u64> = report.ok_results().copied().collect();
        assert_eq!(ok, vec![100, 101, 103, 104, 105, 107, 108]);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(default_threads() >= 1);
        let auto = square_sweep(0, 10);
        assert_eq!(auto, square_sweep(1, 10));
    }

    #[test]
    fn per_point_digests_fingerprint_outcomes() {
        let report = square_sweep(2, 4);
        // Same outcome value → same digest; different values → different.
        let digests: Vec<u64> = report.points().iter().map(|p| p.trace_digest).collect();
        assert_eq!(digests.len(), 4);
        for (a, b) in digests.iter().zip(digests.iter().skip(1)) {
            assert_ne!(a, b);
        }
        assert_eq!(
            digests,
            square_sweep(7, 4)
                .points()
                .iter()
                .map(|p| p.trace_digest)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_indexed_is_worker_count_invariant() {
        let serial = parallel_indexed(23, 1, |i| i * 7 + 1);
        for threads in [2, 3, 8, 0] {
            assert_eq!(parallel_indexed(23, threads, |i| i * 7 + 1), serial);
        }
        assert_eq!(parallel_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn jsonl_lines_carry_index_digest_outcome() {
        let report = square_sweep(1, 2);
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"index\":0,\"trace_digest\":"));
        assert!(lines[1].contains("\"outcome\":{\"Ok\":1}"));
    }
}
