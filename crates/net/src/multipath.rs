//! Multipath chunk scheduling (§3.3).
//!
//! The baseline is MPTCP's content-agnostic model: "the upper-layer
//! video server application regards all available paths as a single
//! logical path, while the multipath scheduler transparently splits the
//! video bitstream over the actual paths." The proposal is to use
//! application knowledge — the spatial/temporal priorities of Table 1 —
//! to assign each chunk to an appropriate path and delivery mode.

use crate::priority::{ChunkPriority, Reliability, SpatialPriority, TemporalPriority};
use crate::transfer::{Completion, PathQueue, TransferOutcome};
use serde::{Deserialize, Serialize};
use sperke_sim::trace::{TraceEvent, TraceSink};
use sperke_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A chunk delivery request as seen by the multipath layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkRequest {
    /// Bytes to move.
    pub bytes: u64,
    /// Table 1 priority.
    pub priority: ChunkPriority,
    /// Playback deadline (informational for schedulers).
    pub deadline: SimTime,
}

/// A scheduling decision: which path, and how to deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Index into the path set.
    pub path: usize,
    /// Transport reliability to use.
    pub reliability: Reliability,
}

/// A multipath chunk scheduler.
pub trait MultipathScheduler {
    /// Display name for result tables.
    fn name(&self) -> &'static str;

    /// Decide where to send a request. `paths` is the live path set.
    fn assign(&mut self, req: &ChunkRequest, paths: &[PathQueue], now: SimTime) -> Assignment;

    /// Decide how to recover after attempt `attempt` on `failed_path`
    /// ended in a failure or timeout at `now`. Return `None` to abandon
    /// the chunk. The default (content-agnostic) policy retries every
    /// chunk reliably on the path — other than the one that just failed —
    /// that would complete it soonest; content-aware schedulers override
    /// this to spend the retry budget only where the viewport benefits.
    fn reassign(
        &mut self,
        req: &ChunkRequest,
        paths: &[PathQueue],
        failed_path: usize,
        attempt: u32,
        now: SimTime,
    ) -> Option<Assignment> {
        let _ = attempt;
        Some(failover_assignment(req, paths, failed_path, now))
    }
}

/// The content-agnostic failover choice: the earliest-completion path
/// other than `avoid`, falling back to `avoid` itself when it is the
/// only path, always reliable (a recovery retransmission that drops
/// helps nobody).
fn failover_assignment(
    req: &ChunkRequest,
    paths: &[PathQueue],
    avoid: usize,
    now: SimTime,
) -> Assignment {
    let path = (0..paths.len())
        .filter(|&i| i != avoid)
        .min_by_key(|&i| paths[i].estimate_completion(req.bytes, now))
        .unwrap_or(avoid);
    Assignment {
        path,
        reliability: Reliability::Reliable,
    }
}

/// How many recovery attempts may follow a transfer's first try, in
/// [`MultipathSession::submit_resilient`] and for origin fetches.
pub const MAX_RETRIES: u32 = 2;

/// Minimum patience per attempt: an attempt is cut off at
/// `max(deadline, submit_time + TIMEOUT)` — the deadline governs when
/// it is later than the floor, so a transfer that would finish in time
/// is never interrupted.
const TIMEOUT: SimDuration = SimDuration::from_millis(800);

/// Backoff before the first retry.
const BACKOFF: SimDuration = SimDuration::from_millis(100);

/// Multiplier applied to the backoff for each further retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// The backoff before the retry that follows failed attempt `attempt`
/// (1-based): `BACKOFF · BACKOFF_FACTOR^(attempt − 1)`, doubled when
/// `burst` says the failed path sits in a Gilbert–Elliott burst, so the
/// retry lands past it. Returns the delay and its whole milliseconds,
/// the `delay_ms` a [`TraceEvent::RetryScheduled`] carries.
pub fn retry_delay(attempt: u32, burst: bool) -> (SimDuration, u64) {
    let mut delay = BACKOFF.mul_f64(BACKOFF_FACTOR.powi(attempt.saturating_sub(1) as i32));
    if burst {
        delay = delay.mul_f64(2.0);
    }
    (delay, delay.as_nanos() / 1_000_000)
}

/// How a [`MultipathSession::submit_resilient`] call ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOutcome {
    /// The final attempt's completion. Its outcome is
    /// [`TransferOutcome::Failed`] when the chunk was abandoned or the
    /// retry budget ran out with the path still down.
    pub completion: Completion,
    /// Path of the final attempt.
    pub path: usize,
    /// Total attempts made (1 = the first try succeeded).
    pub attempts: u32,
    /// The scheduler declined to retry (e.g. content-aware policy drops
    /// out-of-sight chunks rather than spend retry bandwidth on them).
    pub abandoned: bool,
}

/// Everything over one fixed path (no multipath).
#[derive(Debug, Clone, Copy)]
pub struct SinglePath(pub usize);

impl MultipathScheduler for SinglePath {
    fn name(&self) -> &'static str {
        "single-path"
    }

    fn assign(&mut self, _req: &ChunkRequest, paths: &[PathQueue], _now: SimTime) -> Assignment {
        assert!(self.0 < paths.len());
        Assignment {
            path: self.0,
            reliability: Reliability::Reliable,
        }
    }
}

/// MPTCP's default minRTT scheduler, content-agnostic: send on the
/// lowest-RTT path that is idle; when all are busy, the one that frees
/// first. Always reliable (TCP semantics).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinRtt;

impl MultipathScheduler for MinRtt {
    fn name(&self) -> &'static str {
        "mptcp-minrtt"
    }

    fn assign(&mut self, _req: &ChunkRequest, paths: &[PathQueue], now: SimTime) -> Assignment {
        assert!(!paths.is_empty());
        let idle: Vec<usize> = (0..paths.len())
            .filter(|&i| paths[i].available_at(now) <= now)
            .collect();
        let path = if !idle.is_empty() {
            *idle
                .iter()
                .min_by_key(|&&i| paths[i].path().rtt)
                .expect("non-empty")
        } else {
            (0..paths.len())
                .min_by_key(|&i| (paths[i].available_at(now), paths[i].path().rtt))
                .expect("non-empty")
        };
        Assignment {
            path,
            reliability: Reliability::Reliable,
        }
    }
}

/// Greedy earliest-completion splitting: content-agnostic like MPTCP,
/// but aware of chunk size (a stronger baseline than minRTT).
#[derive(Debug, Clone, Copy, Default)]
pub struct EarliestCompletion;

impl MultipathScheduler for EarliestCompletion {
    fn name(&self) -> &'static str {
        "earliest-completion"
    }

    fn assign(&mut self, req: &ChunkRequest, paths: &[PathQueue], now: SimTime) -> Assignment {
        assert!(!paths.is_empty());
        let path = (0..paths.len())
            .min_by_key(|&i| paths[i].estimate_completion(req.bytes, now))
            .expect("non-empty");
        Assignment {
            path,
            reliability: Reliability::Reliable,
        }
    }
}

/// The paper's content-aware scheduler: FoV/urgent chunks take the path
/// that completes them soonest with reliable delivery; OOS chunks are
/// steered to the *other* path(s) best-effort, keeping the premium path
/// free — "prioritize FoV and OOS chunks over the high-quality and
/// low-quality paths, respectively, and deliver them in different
/// transport-layer QoS (reliable vs best-effort)".
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentAware;

impl MultipathScheduler for ContentAware {
    fn name(&self) -> &'static str {
        "content-aware"
    }

    fn assign(&mut self, req: &ChunkRequest, paths: &[PathQueue], now: SimTime) -> Assignment {
        assert!(!paths.is_empty());
        if paths.len() == 1 {
            return Assignment {
                path: 0,
                reliability: req.priority.reliability(),
            };
        }
        // Rank paths by completion estimate for this chunk.
        let mut order: Vec<usize> = (0..paths.len()).collect();
        order.sort_by_key(|&i| paths[i].estimate_completion(req.bytes, now));
        let best = order[0];
        let path = match (req.priority.spatial, req.priority.temporal) {
            // Urgent chunks always take the fastest completion.
            (_, TemporalPriority::Urgent) => best,
            // Regular FoV chunks take the premium path: the one with the
            // better (lower-loss, then lower-rtt) link, falling back to
            // earliest completion when it is heavily backlogged.
            (SpatialPriority::Fov, TemporalPriority::Regular) => {
                let premium = premium_path(paths);
                let est_premium = paths[premium].estimate_completion(req.bytes, now);
                if est_premium <= req.deadline || premium == best {
                    premium
                } else {
                    best
                }
            }
            // OOS chunks go to the non-premium path to keep the premium
            // path's queue short for FoV traffic — but only best-effort
            // while this chunk is likely to survive the path's loss; on a
            // badly degraded secondary, fall back to reliable delivery on
            // the earliest-completion path (shipping bytes that mostly
            // die helps nobody).
            (SpatialPriority::Oos, TemporalPriority::Regular) => {
                let premium = premium_path(paths);
                let alt = (0..paths.len())
                    .filter(|&i| i != premium)
                    .min_by_key(|&i| paths[i].estimate_completion(req.bytes, now))
                    .unwrap_or(best);
                if best_effort_ok(&paths[alt], req.bytes) {
                    return Assignment {
                        path: alt,
                        reliability: Reliability::BestEffort,
                    };
                }
                best
            }
        };
        let reliability = match req.priority.spatial {
            SpatialPriority::Fov => Reliability::Reliable,
            SpatialPriority::Oos => {
                if best_effort_ok(&paths[path], req.bytes) {
                    Reliability::BestEffort
                } else {
                    Reliability::Reliable
                }
            }
        };
        Assignment { path, reliability }
    }

    fn reassign(
        &mut self,
        req: &ChunkRequest,
        paths: &[PathQueue],
        failed_path: usize,
        _attempt: u32,
        now: SimTime,
    ) -> Option<Assignment> {
        // Retry bandwidth is scarce exactly when recovery runs (a path
        // just died). Spend it on what the viewer sees: FoV and urgent
        // chunks fail over reliably; regular out-of-sight chunks are
        // abandoned — their absence costs a little peripheral quality,
        // not a blank viewport.
        match (req.priority.spatial, req.priority.temporal) {
            (SpatialPriority::Oos, TemporalPriority::Regular) => None,
            _ => Some(failover_assignment(req, paths, failed_path, now)),
        }
    }
}

/// Minimum estimated chunk survival probability for best-effort delivery
/// to be worth the bytes. The gate is per-chunk: drop probability scales
/// with size, so a flat loss-rate threshold ships large chunks that
/// mostly die (and refuses small ones that would almost always make it).
const BEST_EFFORT_MIN_SURVIVAL: f64 = 0.9;

/// Whether a chunk of `bytes` is likely enough to survive best-effort
/// delivery on this path (see [`BEST_EFFORT_MIN_SURVIVAL`]).
fn best_effort_ok(queue: &PathQueue, bytes: u64) -> bool {
    queue.path().best_effort_survival_prob(bytes) >= BEST_EFFORT_MIN_SURVIVAL
}

/// The "high-quality" path: lowest loss, ties broken by RTT then index.
fn premium_path(paths: &[PathQueue]) -> usize {
    (0..paths.len())
        .min_by(|&a, &b| {
            paths[a]
                .path()
                .loss
                .partial_cmp(&paths[b].path().loss)
                .expect("loss is finite")
                .then(paths[a].path().rtt.cmp(&paths[b].path().rtt))
                .then(a.cmp(&b))
        })
        .expect("non-empty")
}

impl MultipathScheduler for Box<dyn MultipathScheduler> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn assign(&mut self, req: &ChunkRequest, paths: &[PathQueue], now: SimTime) -> Assignment {
        (**self).assign(req, paths, now)
    }
    fn reassign(
        &mut self,
        req: &ChunkRequest,
        paths: &[PathQueue],
        failed_path: usize,
        attempt: u32,
        now: SimTime,
    ) -> Option<Assignment> {
        (**self).reassign(req, paths, failed_path, attempt, now)
    }
}

/// A set of paths driven by a scheduler, with aggregate accounting.
///
/// # Trace-event ordering
///
/// Transfers resolve in the future (`Completion::finished` lies ahead of
/// the submission clock), so the session defers their trace events and
/// releases them as the submission clock advances: every `Net` event is
/// emitted once the clock passes its timestamp, in timestamp order. As
/// long as submissions arrive with nondecreasing `now` values, `Net`
/// events therefore appear in the trace in nondecreasing time order.
/// Callers whose clocks regress (the player's upgrade pass re-submits at
/// earlier instants) can recover a globally time-sorted view with
/// [`sperke_sim::trace::Trace::to_jsonl_ordered`]. Call
/// [`MultipathSession::finish_trace`] at end of session to release
/// whatever is still deferred.
pub struct MultipathSession<S: MultipathScheduler> {
    paths: Vec<PathQueue>,
    scheduler: S,
    trace: TraceSink,
    /// Events waiting for the submission clock to pass their timestamp,
    /// keyed `(timestamp, insertion-sequence)` so ties keep insertion
    /// order.
    deferred: BTreeMap<(SimTime, u64), TraceEvent>,
    defer_seq: u64,
    /// High-water mark of submission clocks seen so far.
    clock: SimTime,
    /// Precomputed `PathDown`/`PathUp` transitions from the attached
    /// fault timelines, time-ordered, released as the clock advances.
    transitions: Vec<(SimTime, TraceEvent)>,
    transition_cursor: usize,
}

impl<S: MultipathScheduler> MultipathSession<S> {
    /// Build a session over the given paths.
    pub fn new(paths: Vec<PathQueue>, scheduler: S) -> Self {
        assert!(!paths.is_empty(), "need at least one path");
        let mut transitions: Vec<(SimTime, TraceEvent)> = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            for &(from, until) in p.faults().outages() {
                transitions.push((
                    from,
                    TraceEvent::PathDown {
                        at: from,
                        path: i as u32,
                    },
                ));
                transitions.push((
                    until,
                    TraceEvent::PathUp {
                        at: until,
                        path: i as u32,
                    },
                ));
            }
        }
        transitions.sort_by_key(|&(t, _)| t);
        MultipathSession {
            paths,
            scheduler,
            trace: TraceSink::disabled(),
            deferred: BTreeMap::new(),
            defer_seq: 0,
            clock: SimTime::ZERO,
            transitions,
            transition_cursor: 0,
        }
    }

    /// Record path assignments and transfer completions into `sink`.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The live path set.
    pub fn paths(&self) -> &[PathQueue] {
        &self.paths
    }

    /// The scheduler's name.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    fn defer(&mut self, event: TraceEvent) {
        if !self.trace.is_enabled() {
            return;
        }
        self.deferred.insert((event.at(), self.defer_seq), event);
        self.defer_seq += 1;
    }

    /// Advance the submission clock to `to` (it never moves backwards)
    /// and emit every deferred event — including fault-timeline
    /// transitions — whose timestamp the clock has passed. GE loss
    /// chains tick eagerly up to the clock so their state flips are
    /// deferred before any later-stamped event is released (advancing
    /// eagerly rolls the same tick sequence the next submission would).
    fn advance_clock(&mut self, to: SimTime) {
        if to > self.clock {
            self.clock = to;
        }
        for path in 0..self.paths.len() {
            self.paths[path].advance_loss_channel(self.clock);
            self.defer_path_feedback(path);
        }
        if !self.trace.is_enabled() {
            return;
        }
        while self.transition_cursor < self.transitions.len()
            && self.transitions[self.transition_cursor].0 <= self.clock
        {
            let event = self.transitions[self.transition_cursor].1.clone();
            self.transition_cursor += 1;
            self.deferred.insert((event.at(), self.defer_seq), event);
            self.defer_seq += 1;
        }
        self.drain_ready();
    }

    fn drain_ready(&mut self) {
        while let Some((&(at, _), _)) = self.deferred.iter().next() {
            if at > self.clock {
                break;
            }
            let (_, event) = self.deferred.pop_first().expect("checked non-empty");
            self.trace.emit(event);
        }
    }

    /// Release every still-deferred trace event (the session is over, no
    /// later submission will advance the clock past them). Fault
    /// transitions beyond the last deferred timestamp are not invented —
    /// a link still down when the session ends stays down in the trace.
    pub fn finish_trace(&mut self) {
        if !self.trace.is_enabled() {
            return;
        }
        let horizon = self
            .deferred
            .keys()
            .next_back()
            .map(|&(t, _)| t)
            .unwrap_or(self.clock)
            .max(self.clock);
        self.advance_clock(horizon);
    }

    fn count_bytes(&mut self, outcome: TransferOutcome, bytes: u64) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace.metrics(|m| {
            m.counter(match outcome {
                TransferOutcome::Delivered => "net.bytes_delivered",
                TransferOutcome::Dropped => "net.bytes_dropped",
                TransferOutcome::Failed => "net.bytes_failed",
            })
            .add(bytes);
        });
    }

    fn defer_attempt_events(&mut self, req: &ChunkRequest, assignment: Assignment, at: SimTime) {
        self.defer(TraceEvent::PathAssigned {
            at,
            path: assignment.path as u32,
            bytes: req.bytes,
            fov: req.priority.spatial == SpatialPriority::Fov,
            urgent: req.priority.temporal == TemporalPriority::Urgent,
            reliable: assignment.reliability == Reliability::Reliable,
        });
    }

    /// Drain the path's BBR updates and loss-channel flips accumulated
    /// by the submission that just ran, and defer them as trace events
    /// (future-stamped completions go through the same ordering
    /// machinery as `TransferFinished`). Must run after *every* submit
    /// so the per-path buffers stay empty even with tracing off.
    fn defer_path_feedback(&mut self, path: usize) {
        let updates = self.paths[path].take_bbr_updates();
        let flips = self.paths[path].take_loss_transitions();
        if !self.trace.is_enabled() {
            return;
        }
        for u in updates {
            if let Some(epoch) = u.new_epoch {
                self.defer(TraceEvent::ProbeEpochStarted {
                    at: u.at,
                    path: path as u32,
                    epoch,
                    gain: u.gain,
                });
            }
            self.defer(TraceEvent::DeliveryRateSample {
                at: u.at,
                path: path as u32,
                rate_bps: u.sample_bps,
                btl_bw_bps: u.btl_bw_bps,
            });
            self.trace.metrics(|m| {
                m.histogram("net.bbr.delivery_rate_bps")
                    .record(u.sample_bps);
                m.histogram("net.bbr.btl_bw_bps").record(u.btl_bw_bps);
            });
        }
        for (at, bursty) in flips {
            self.defer(TraceEvent::LossStateChanged {
                at,
                path: path as u32,
                bursty,
            });
            self.trace
                .metrics(|m| m.counter("net.bbr.loss_transitions").incr());
        }
    }

    /// Submit a request; returns the completion and the path used.
    ///
    /// With a fault script attached the completion may come back
    /// [`TransferOutcome::Failed`] — this entry point performs no
    /// recovery (that is [`MultipathSession::submit_resilient`]); it
    /// models the naive client that simply eats the failure.
    pub fn submit(&mut self, req: ChunkRequest, now: SimTime) -> (Completion, usize) {
        self.advance_clock(now);
        let assignment = self.scheduler.assign(&req, &self.paths, now);
        let completion = self.paths[assignment.path].submit(req.bytes, now, assignment.reliability);
        self.defer_attempt_events(&req, assignment, now);
        self.defer(TraceEvent::TransferFinished {
            at: completion.finished,
            path: assignment.path as u32,
            bytes: req.bytes,
            delivered: completion.outcome == TransferOutcome::Delivered,
        });
        self.defer_path_feedback(assignment.path);
        self.count_bytes(completion.outcome, req.bytes);
        self.drain_ready();
        (completion, assignment.path)
    }

    /// Submit with deadline-based timeout, bounded retry and cross-path
    /// failover.
    ///
    /// Each attempt is given until `max(req.deadline, submit + timeout)`;
    /// an attempt that would resolve later is aborted at that cutoff and
    /// charged as failed (from the client's seat an undelivered chunk and
    /// a dead path look the same: no bytes by the deadline). After a
    /// failure the scheduler's [`MultipathScheduler::reassign`] picks the
    /// failover target — or abandons the chunk — and the retry goes out
    /// after exponential backoff. The last permitted attempt is accepted
    /// as-is: late bytes beat no bytes once the budget is spent.
    pub fn submit_resilient(&mut self, req: ChunkRequest, now: SimTime) -> RecoveryOutcome {
        let mut attempt: u32 = 0;
        let mut at = now;
        let mut assignment = self.scheduler.assign(&req, &self.paths, now);
        // Only the caller's clock gates deferred emission: retries happen
        // at future instants (`failed.finished + delay`) and advancing the
        // drain clock to them would release events ahead of a later
        // caller's (earlier) submissions, breaking monotone emission.
        self.advance_clock(now);
        loop {
            attempt += 1;
            let completion =
                self.paths[assignment.path].submit(req.bytes, at, assignment.reliability);
            self.defer_attempt_events(&req, assignment, at);
            self.defer_path_feedback(assignment.path);
            let retries_left = attempt <= MAX_RETRIES;
            let cutoff = req.deadline.max(at + TIMEOUT);

            let failure = if completion.outcome == TransferOutcome::Failed {
                self.defer(TraceEvent::TransferFinished {
                    at: completion.finished,
                    path: assignment.path as u32,
                    bytes: req.bytes,
                    delivered: false,
                });
                Some(completion)
            } else if retries_left && completion.finished > cutoff {
                // Too slow to matter and budget remains: abort the
                // queue-side work so the path frees up, and treat the
                // attempt as failed at the cutoff.
                self.paths[assignment.path].abort(completion.id, cutoff);
                self.defer(TraceEvent::TransferTimedOut {
                    at: cutoff,
                    path: assignment.path as u32,
                    bytes: req.bytes,
                    attempt,
                });
                Some(Completion {
                    finished: cutoff,
                    outcome: TransferOutcome::Failed,
                    ..completion
                })
            } else {
                None
            };

            let Some(failed) = failure else {
                self.defer(TraceEvent::TransferFinished {
                    at: completion.finished,
                    path: assignment.path as u32,
                    bytes: req.bytes,
                    delivered: completion.outcome == TransferOutcome::Delivered,
                });
                self.count_bytes(completion.outcome, req.bytes);
                self.drain_ready();
                return RecoveryOutcome {
                    completion,
                    path: assignment.path,
                    attempts: attempt,
                    abandoned: false,
                };
            };

            self.count_bytes(TransferOutcome::Failed, req.bytes);
            let next = if retries_left {
                self.scheduler.reassign(
                    &req,
                    &self.paths,
                    assignment.path,
                    attempt,
                    failed.finished,
                )
            } else {
                None
            };
            match next {
                None => {
                    self.drain_ready();
                    return RecoveryOutcome {
                        completion: failed,
                        path: assignment.path,
                        attempts: attempt,
                        abandoned: retries_left,
                    };
                }
                Some(fallback) => {
                    // Burst-aware backoff: when the failed path's GE
                    // chain sits in its Bad state, the burst is likely
                    // still in progress. Declared channels never report
                    // a burst, so legacy behaviour is untouched.
                    let burst = self.paths[assignment.path].loss_burst_active();
                    let (delay, delay_ms) = retry_delay(attempt, burst);
                    self.defer(TraceEvent::RetryScheduled {
                        at: failed.finished,
                        path: assignment.path as u32,
                        bytes: req.bytes,
                        attempt,
                        delay_ms,
                    });
                    self.drain_ready();
                    at = failed.finished + delay;
                    assignment = fallback;
                }
            }
        }
    }

    /// Total delivered bytes across paths.
    pub fn bytes_delivered(&self) -> u64 {
        self.paths.iter().map(|p| p.bytes_delivered).sum()
    }

    /// Total dropped bytes across paths.
    pub fn bytes_dropped(&self) -> u64 {
        self.paths.iter().map(|p| p.bytes_dropped).sum()
    }

    /// Total failed bytes across paths (outage interruptions, timeouts).
    pub fn bytes_failed(&self) -> u64 {
        self.paths.iter().map(|p| p.bytes_failed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::BandwidthTrace;
    use crate::path::PathModel;
    use sperke_sim::trace::TraceLevel;
    use sperke_sim::{SimDuration, SimRng};

    fn wifi_lte() -> Vec<PathQueue> {
        // Path 0: fast & clean (wifi). Path 1: slower & lossy (lte).
        vec![
            PathQueue::new(
                PathModel::new(
                    "wifi",
                    BandwidthTrace::constant(25e6),
                    SimDuration::from_millis(15),
                    0.001,
                ),
                SimRng::new(1),
            ),
            PathQueue::new(
                PathModel::new(
                    "lte",
                    BandwidthTrace::constant(8e6),
                    SimDuration::from_millis(60),
                    0.02,
                ),
                SimRng::new(2),
            ),
        ]
    }

    /// Like [`wifi_lte`] but with a mildly lossy LTE, so the Mathis cap
    /// does not throttle it (loss 2% caps LTE near 1.7 Mbps) while WiFi
    /// (0.1% loss) remains the premium path.
    fn wifi_lte_clean() -> Vec<PathQueue> {
        let mut paths = wifi_lte();
        paths[1] = PathQueue::new(
            PathModel::new(
                "lte",
                BandwidthTrace::constant(8e6),
                SimDuration::from_millis(60),
                0.002,
            ),
            SimRng::new(2),
        );
        paths
    }

    /// Record `s`'s net events at every level; read them with
    /// [`events`] once the session's transfers are submitted.
    fn traced<S: MultipathScheduler>(s: &mut MultipathSession<S>) -> TraceSink {
        let sink = TraceSink::with_level(TraceLevel::Verbose);
        s.set_trace(sink.clone());
        sink
    }

    /// Release `s`'s deferred events and return everything `sink` holds.
    fn events<S: MultipathScheduler>(
        s: &mut MultipathSession<S>,
        sink: &TraceSink,
    ) -> Vec<TraceEvent> {
        s.finish_trace();
        sink.snapshot().events().to_vec()
    }

    fn fov_req(bytes: u64) -> ChunkRequest {
        ChunkRequest {
            bytes,
            priority: ChunkPriority::FOV,
            deadline: SimTime::from_secs(10),
        }
    }

    fn oos_req(bytes: u64) -> ChunkRequest {
        ChunkRequest {
            bytes,
            priority: ChunkPriority::OOS,
            deadline: SimTime::from_secs(10),
        }
    }

    #[test]
    fn single_path_sticks() {
        let mut s = MultipathSession::new(wifi_lte(), SinglePath(1));
        let (_, p1) = s.submit(fov_req(100_000), SimTime::ZERO);
        let (_, p2) = s.submit(oos_req(100_000), SimTime::ZERO);
        assert_eq!((p1, p2), (1, 1));
    }

    #[test]
    fn minrtt_prefers_low_rtt_when_idle() {
        let mut s = MultipathSession::new(wifi_lte(), MinRtt);
        let (_, p) = s.submit(fov_req(100_000), SimTime::ZERO);
        assert_eq!(p, 0, "wifi has lower RTT");
    }

    #[test]
    fn minrtt_spills_to_second_path_when_busy() {
        let mut s = MultipathSession::new(wifi_lte(), MinRtt);
        let (_, p1) = s.submit(fov_req(5_000_000), SimTime::ZERO); // occupies wifi ~1.6s
        let (_, p2) = s.submit(fov_req(100_000), SimTime::ZERO);
        assert_eq!(p1, 0);
        assert_eq!(p2, 1, "wifi busy, lte idle");
    }

    #[test]
    fn earliest_completion_considers_size() {
        let mut s = MultipathSession::new(wifi_lte_clean(), EarliestCompletion);
        // Fill wifi with a big transfer.
        s.submit(fov_req(20_000_000), SimTime::ZERO); // ~6.4s on wifi
                                                      // A new large chunk completes sooner on idle LTE than queued wifi.
        let (c, p) = s.submit(fov_req(2_000_000), SimTime::ZERO);
        assert_eq!(p, 1);
        assert!(c.finished.as_secs_f64() < 6.0);
    }

    #[test]
    fn content_aware_separates_fov_and_oos() {
        let mut s = MultipathSession::new(wifi_lte_clean(), ContentAware);
        let (_, p_fov) = s.submit(fov_req(500_000), SimTime::ZERO);
        let (_, p_oos) = s.submit(oos_req(500_000), SimTime::ZERO);
        assert_eq!(p_fov, 0, "FoV on the premium path");
        assert_eq!(p_oos, 1, "OOS steered to the secondary path");
    }

    #[test]
    fn content_aware_avoids_best_effort_on_degraded_path() {
        // With a badly lossy secondary (2%), shipping OOS best-effort
        // would mostly drop; the scheduler falls back to reliable
        // delivery on the earliest-completion path instead.
        let mut s = MultipathSession::new(wifi_lte(), ContentAware);
        for _ in 0..20 {
            let (c, _) = s.submit(oos_req(400_000), SimTime::ZERO);
            assert_eq!(c.outcome, crate::transfer::TransferOutcome::Delivered);
        }
        assert_eq!(s.bytes_dropped(), 0);
    }

    #[test]
    fn content_aware_keeps_premium_queue_short() {
        // Load both schedulers with alternating FoV/OOS traffic and
        // compare FoV completion times: content-aware should beat
        // earliest-completion because OOS bulk never blocks wifi.
        let run = |mut s: MultipathSession<Box<dyn MultipathScheduler>>| -> f64 {
            let mut fov_done = Vec::new();
            for i in 0..10 {
                let now = SimTime::from_millis(i * 50);
                let (c, _) = s.submit(fov_req(400_000), now);
                fov_done.push(c.finished.saturating_since(now).as_secs_f64());
                s.submit(oos_req(1_200_000), now);
            }
            fov_done.iter().sum::<f64>() / fov_done.len() as f64
        };
        let aware = run(MultipathSession::new(
            wifi_lte_clean(),
            Box::new(ContentAware) as Box<dyn MultipathScheduler>,
        ));
        let agnostic = run(MultipathSession::new(
            wifi_lte_clean(),
            Box::new(EarliestCompletion) as Box<dyn MultipathScheduler>,
        ));
        assert!(
            aware < agnostic,
            "content-aware FoV latency {aware:.3}s vs agnostic {agnostic:.3}s"
        );
    }

    #[test]
    fn urgent_chunks_take_fastest_completion() {
        let mut s = MultipathSession::new(wifi_lte_clean(), ContentAware);
        // Saturate wifi.
        s.submit(fov_req(20_000_000), SimTime::ZERO);
        let urgent = ChunkRequest {
            bytes: 200_000,
            priority: ChunkPriority::CRITICAL,
            deadline: SimTime::from_millis(500),
        };
        let (c, p) = s.submit(urgent, SimTime::ZERO);
        assert_eq!(p, 1, "urgent rides the idle path");
        assert!(c.finished.as_secs_f64() < 0.5);
    }

    #[test]
    fn aggregate_accounting() {
        let mut s = MultipathSession::new(wifi_lte(), MinRtt);
        let sink = traced(&mut s);
        s.submit(fov_req(1_000_000), SimTime::ZERO);
        s.submit(fov_req(1_000_000), SimTime::ZERO);
        assert_eq!(s.bytes_delivered(), 2_000_000);
        // One transfer per submission, each delivered.
        let finished: Vec<bool> = events(&mut s, &sink)
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TransferFinished { delivered, .. } => Some(*delivered),
                _ => None,
            })
            .collect();
        assert_eq!(finished, [true, true]);
    }

    /// A flat loss threshold treats a 20 KB and a 2 MB chunk the same;
    /// the survival gate must not. On a borderline 1.5%-loss secondary,
    /// the large chunk concentrates tightly under the 2% loss budget
    /// (many packets → low variance → survives best-effort) while the
    /// small one is a coin flip that reliable delivery should cover.
    #[test]
    fn best_effort_gate_depends_on_chunk_size() {
        let mut paths = wifi_lte();
        paths[1] = PathQueue::new(
            PathModel::new(
                "lte",
                BandwidthTrace::constant(8e6),
                SimDuration::from_millis(60),
                0.015,
            ),
            SimRng::new(2),
        );
        let mut sched = ContentAware;
        let large = sched.assign(&oos_req(2_000_000), &paths, SimTime::ZERO);
        assert_eq!(large.path, 1, "large OOS chunk steered to the secondary");
        assert_eq!(large.reliability, Reliability::BestEffort);
        let small = sched.assign(&oos_req(20_000), &paths, SimTime::ZERO);
        assert_ne!(
            (small.path, small.reliability),
            (1, Reliability::BestEffort),
            "small chunk must not ride best-effort on the borderline path"
        );
    }

    /// [`wifi_lte_clean`] with `path` down over `[2 s, 7 s)`.
    fn outage_on(path: usize) -> Vec<PathQueue> {
        let script = crate::fault::FaultScript::none().link_down(
            path,
            SimTime::from_secs(2),
            SimTime::from_secs(7),
        );
        wifi_lte_clean()
            .into_iter()
            .enumerate()
            .map(|(i, q)| {
                let f = script.compile_for(i);
                q.with_faults(f)
            })
            .collect()
    }

    #[test]
    fn resilient_submission_fails_over_to_surviving_path() {
        let mut s = MultipathSession::new(outage_on(0), ContentAware);
        let sink = traced(&mut s);
        // FoV chunk submitted mid-outage: the premium (wifi) attempt dies
        // after a detection RTT, the retry lands on LTE and delivers.
        let r = s.submit_resilient(fov_req(400_000), SimTime::from_secs(3));
        assert_eq!(r.completion.outcome, TransferOutcome::Delivered);
        assert_eq!(r.path, 1, "failover to the surviving path");
        assert_eq!(r.attempts, 2, "one retry was enough");
        assert!(!r.abandoned);
        // Both attempts are in the trace: the failed wifi try, then LTE,
        // which went out after the backoff.
        let events = events(&mut s, &sink);
        let assigned: Vec<u32> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::PathAssigned { path, .. } => Some(path),
                _ => None,
            })
            .collect();
        assert_eq!(assigned, [0, 1]);
        let failed_at = events
            .iter()
            .find_map(|e| match *e {
                TraceEvent::TransferFinished {
                    at,
                    path: 0,
                    delivered: false,
                    ..
                } => Some(at),
                _ => None,
            })
            .expect("the wifi attempt failed");
        assert!(r.completion.submitted >= failed_at + BACKOFF);
        assert_eq!(s.bytes_failed(), 400_000);
    }

    #[test]
    fn content_aware_abandons_oos_retries() {
        // A regular OOS chunk rides the non-premium path (LTE, path 1);
        // that path is down at the submit instant, so the attempt fails
        // while the premium wifi path stays healthy.
        let mut s = MultipathSession::new(outage_on(1), ContentAware);
        let r = s.submit_resilient(oos_req(400_000), SimTime::from_secs(3));
        assert_eq!(r.completion.outcome, TransferOutcome::Failed);
        assert!(
            r.abandoned,
            "content-aware gives up on OOS rather than fail over"
        );
        assert_eq!(r.attempts, 1);
        assert_eq!(r.path, 1, "the one attempt rode the non-premium path");
    }

    #[test]
    fn agnostic_recovery_retries_everything() {
        let mut s = MultipathSession::new(outage_on(0), EarliestCompletion);
        let r = s.submit_resilient(oos_req(400_000), SimTime::from_secs(6));
        // EarliestCompletion sends to idle LTE or dead wifi; either way
        // the default reassign keeps retrying, so the chunk lands.
        assert_eq!(r.completion.outcome, TransferOutcome::Delivered);
        assert!(!r.abandoned);
    }

    #[test]
    fn timeout_aborts_a_stalled_transfer() {
        // Path 0 collapses to 1% bandwidth (no outage — the engine would
        // deliver, eventually); the client's deadline-based timeout must
        // cut the attempt and fail over to path 1.
        let script = crate::fault::FaultScript::none().degrade(
            0,
            SimTime::ZERO,
            SimTime::from_secs(120),
            0.01,
            0.0,
        );
        let paths: Vec<PathQueue> = wifi_lte_clean()
            .into_iter()
            .enumerate()
            .map(|(i, q)| q.with_faults(script.compile_for(i)))
            .collect();
        let mut s = MultipathSession::new(paths, SinglePathFirstTry);
        let sink = traced(&mut s);
        // Small enough that the healthy path's slow-start ramp fits the
        // 800 ms patience floor; only the collapsed path gets cut off.
        let req = ChunkRequest {
            bytes: 300_000,
            priority: ChunkPriority::FOV,
            deadline: SimTime::from_secs(2),
        };
        let r = s.submit_resilient(req, SimTime::ZERO);
        assert_eq!(r.completion.outcome, TransferOutcome::Delivered);
        assert_eq!(r.path, 1, "timed out on the collapsed path, failed over");
        assert_eq!(r.attempts, 2);
        // The abort reversed the stalled attempt's delivered-bytes credit.
        assert_eq!(s.paths()[0].bytes_delivered, 0);
        assert_eq!(s.paths()[0].bytes_failed, 300_000);
        // The timeout fired at the deadline (it exceeds the 800ms floor).
        let timeouts: Vec<TraceEvent> = events(&mut s, &sink)
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::TransferTimedOut { .. }))
            .collect();
        assert_eq!(
            timeouts,
            [TraceEvent::TransferTimedOut {
                at: SimTime::from_secs(2),
                path: 0,
                bytes: 300_000,
                attempt: 1,
            }]
        );
    }

    #[test]
    fn retry_delay_is_whole_milliseconds() {
        // 100 ms · 2^(attempt − 1), doubled in a burst: the stamp is the
        // delay's exact millisecond count however it is rounded.
        for attempt in 1..=MAX_RETRIES {
            for burst in [false, true] {
                let (delay, ms) = retry_delay(attempt, burst);
                let expect = 100 << (attempt - 1 + burst as u32);
                assert_eq!(delay, SimDuration::from_millis(expect));
                assert_eq!(ms, expect);
                assert_eq!(ms, (delay.as_secs_f64() * 1000.0).round() as u64);
            }
        }
    }

    /// Pins the first attempt to path 0 so the timeout test exercises a
    /// deterministic stall; recovery uses the default failover.
    struct SinglePathFirstTry;

    impl MultipathScheduler for SinglePathFirstTry {
        fn name(&self) -> &'static str {
            "single-path-first-try"
        }
        fn assign(&mut self, _: &ChunkRequest, _: &[PathQueue], _: SimTime) -> Assignment {
            Assignment {
                path: 0,
                reliability: Reliability::Reliable,
            }
        }
    }

    #[test]
    fn retry_budget_is_bounded() {
        // Both paths down forever: every retry fails, and the session
        // must stop after MAX_RETRIES + 1 attempts with a Failed result.
        let script = crate::fault::FaultScript::none()
            .link_down(0, SimTime::ZERO, SimTime::from_secs(600))
            .link_down(1, SimTime::ZERO, SimTime::from_secs(600));
        let paths: Vec<PathQueue> = wifi_lte_clean()
            .into_iter()
            .enumerate()
            .map(|(i, q)| q.with_faults(script.compile_for(i)))
            .collect();
        let mut s = MultipathSession::new(paths, EarliestCompletion);
        let sink = traced(&mut s);
        let r = s.submit_resilient(fov_req(400_000), SimTime::from_secs(1));
        assert_eq!(r.completion.outcome, TransferOutcome::Failed);
        assert_eq!(r.attempts, MAX_RETRIES + 1, "initial try + every retry");
        assert!(!r.abandoned, "budget exhaustion is not abandonment");
        // Every attempt went out and failed; only the last one had no
        // retry after it.
        let (mut assigned, mut failed, mut retried) = (0, 0, 0);
        for e in events(&mut s, &sink) {
            match e {
                TraceEvent::PathAssigned { .. } => assigned += 1,
                TraceEvent::TransferFinished {
                    delivered: false, ..
                } => failed += 1,
                TraceEvent::RetryScheduled { .. } => retried += 1,
                _ => {}
            }
        }
        let attempts = MAX_RETRIES as usize + 1;
        assert_eq!(
            (assigned, failed, retried),
            (attempts, attempts, attempts - 1)
        );
        assert_eq!(s.bytes_failed(), 400_000 * attempts as u64);
    }
}
