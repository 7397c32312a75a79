//! Property tests for the determinism-critical primitives underneath
//! the trace/observability layer: the event queue, the metrics
//! time-series, and the seeded RNG's stream splitting.

use proptest::prelude::*;
use sperke_net::{
    BandwidthTrace, ChunkPriority, ChunkRequest, ContentAware, FaultScript, MultipathSession,
    PathModel, PathQueue,
};
use sperke_sim::metrics::TimeSeries;
use sperke_sim::trace::{Subsystem, TraceLevel, TraceSink};
use sperke_sim::{EventQueue, SimDuration, SimRng, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pops stay nondecreasing in time under arbitrary interleavings of
    /// push, cancel, and pop — and a cancelled event never surfaces.
    #[test]
    fn queue_monotone_under_interleaved_push_cancel(
        ops in proptest::collection::vec((0u64..1_000_000, 0u8..4), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut live_ids = Vec::new();
        let mut cancelled = std::collections::HashSet::new();
        let mut pushed = 0usize;
        let mut popped = 0usize;
        let mut last = SimTime::ZERO;

        for (i, &(t, op)) in ops.iter().enumerate() {
            match op {
                // Cancel an arbitrary still-live event.
                0 if !live_ids.is_empty() => {
                    let (id, payload) = live_ids.swap_remove(t as usize % live_ids.len());
                    prop_assert!(q.cancel(id), "live event must cancel");
                    prop_assert!(!q.cancel(id), "double-cancel must be rejected");
                    cancelled.insert(payload);
                }
                // Pop one event; time must be nondecreasing and the
                // payload must not have been cancelled.
                1 => {
                    if let Some((at, payload)) = q.pop() {
                        prop_assert!(at >= last, "pop went backwards: {at:?} < {last:?}");
                        last = at;
                        popped += 1;
                        prop_assert!(!cancelled.contains(&payload), "cancelled event popped");
                        live_ids.retain(|&(_, p)| p != payload);
                    }
                }
                // Push a new event, scheduled at or after the current
                // virtual time (sims never schedule in the past).
                _ => {
                    let at = SimTime::from_nanos(last.as_nanos() + t);
                    let id = q.push(at, i);
                    live_ids.push((id, i));
                    pushed += 1;
                }
            }
        }

        // Drain: the remainder must also come out in order, and the
        // total popped count must equal pushed minus cancelled.
        while let Some((at, payload)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            popped += 1;
            prop_assert!(!cancelled.contains(&payload));
        }
        prop_assert_eq!(popped, pushed - cancelled.len());
        prop_assert_eq!(q.len(), 0);
    }

    /// TimeSeries accepts any nondecreasing time sequence (including
    /// repeats) and preserves sample values in insertion order.
    #[test]
    fn time_series_preserves_order(
        deltas in proptest::collection::vec(0u64..1_000_000, 1..100),
        seed: u64,
    ) {
        let mut rng = SimRng::new(seed);
        let mut ts = TimeSeries::new();
        let mut now = 0u64;
        let mut expected = Vec::new();
        for &d in &deltas {
            now += d; // zero deltas exercise the `time >= last` boundary
            let v = rng.uniform();
            ts.record(SimTime::from_nanos(now), v);
            expected.push(v);
        }
        prop_assert_eq!(ts.len(), expected.len());
        prop_assert_eq!(ts.values(), expected);
    }

    /// `SimRng::split` yields a sub-stream that depends only on the
    /// parent's seed and the stream label — not on how much any sibling
    /// stream has consumed, and not on the order splits are taken.
    #[test]
    fn rng_split_streams_are_independent(
        seed: u64,
        label_a in 0u64..1000,
        label_off in 1u64..1000,
        sibling_draws in 0usize..64,
    ) {
        let label_b = label_a + label_off;
        let parent = SimRng::new(seed);

        // Baseline: stream A untouched by anything else.
        let mut a1 = parent.split(label_a);
        let baseline: Vec<u64> = (0..16).map(|_| a1.next_u64_raw()).collect();

        // Interference attempt: consume a sibling stream first, then
        // re-derive stream A. The draws must be identical.
        let mut sibling = parent.split(label_b);
        for _ in 0..sibling_draws {
            sibling.next_u64_raw();
        }
        let mut a2 = parent.split(label_a);
        let replay: Vec<u64> = (0..16).map(|_| a2.next_u64_raw()).collect();
        prop_assert_eq!(&baseline, &replay, "sibling consumption perturbed the stream");

        // Distinct labels must decorrelate: 16 consecutive u64 draws
        // colliding across labels is astronomically unlikely.
        let mut b = parent.split(label_b);
        let other: Vec<u64> = (0..16).map(|_| b.next_u64_raw()).collect();
        prop_assert_ne!(&baseline, &other, "distinct labels produced identical streams");
    }

    /// The deferred-emission guarantee: for ANY fault script, net-layer
    /// trace events come out in nondecreasing time order as long as
    /// submission clocks are nondecreasing — in naive and resilient mode
    /// alike. And the ordered export is globally sorted, losing nothing.
    #[test]
    fn net_trace_is_monotone_under_random_faults(
        seed: u64,
        resilient: bool,
        sizes in proptest::collection::vec(10_000u64..2_000_000, 1..16),
        gaps_ms in proptest::collection::vec(0u64..1200, 16),
        outage_from_ms in 0u64..8000,
        outage_len_ms in 100u64..5000,
        factor in 0.05f64..1.0,
    ) {
        let script = FaultScript::none()
            .link_down(
                0,
                SimTime::from_millis(outage_from_ms),
                SimTime::from_millis(outage_from_ms + outage_len_ms),
            )
            .degrade(
                1,
                SimTime::from_millis(outage_from_ms / 2),
                SimTime::from_millis(outage_from_ms / 2 + outage_len_ms),
                factor,
                0.05,
            );
        let paths = vec![
            PathQueue::new(
                PathModel::new(
                    "wifi",
                    BandwidthTrace::constant(25e6),
                    SimDuration::from_millis(15),
                    0.001,
                ),
                SimRng::new(seed),
            )
            .with_faults(script.compile_for(0)),
            PathQueue::new(
                PathModel::new(
                    "lte",
                    BandwidthTrace::constant(8e6),
                    SimDuration::from_millis(60),
                    0.002,
                ),
                SimRng::new(seed ^ 1),
            )
            .with_faults(script.compile_for(1)),
        ];
        let sink = TraceSink::with_level(TraceLevel::Decisions);
        let mut session = MultipathSession::new(paths, ContentAware);
        session.set_trace(sink.clone());
        let priorities = [ChunkPriority::CRITICAL, ChunkPriority::FOV, ChunkPriority::OOS];
        let mut now = SimTime::ZERO;
        for (i, &bytes) in sizes.iter().enumerate() {
            now += SimDuration::from_millis(gaps_ms[i % gaps_ms.len()]);
            let req = ChunkRequest {
                bytes,
                priority: priorities[i % 3],
                deadline: now + SimDuration::from_secs(2),
            };
            if resilient {
                session.submit_resilient(req, now);
            } else {
                session.submit(req, now);
            }
        }
        session.finish_trace();
        let trace = sink.snapshot();

        let mut last = SimTime::ZERO;
        for e in trace.for_subsystem(Subsystem::Net) {
            prop_assert!(
                e.at() >= last,
                "net event went backwards: {:?} then {:?}",
                last,
                e.at()
            );
            last = e.at();
        }

        let ordered = trace.events_ordered();
        prop_assert_eq!(ordered.len(), trace.len(), "ordering must lose nothing");
        for w in ordered.windows(2) {
            prop_assert!(w[0].at() <= w[1].at());
        }
        prop_assert_eq!(trace.to_jsonl_ordered().lines().count(), trace.len());
    }
}
