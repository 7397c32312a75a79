//! # sperke-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under every Sperke experiment: a virtual clock
//! ([`SimTime`], [`SimDuration`]), a deterministic time-ordered
//! [`EventQueue`], a drive loop ([`Simulation`] / [`World`]), a seeded
//! splittable PRNG ([`SimRng`]), metric recorders
//! ([`Counter`], [`TimeSeries`], [`Histogram`]), and the O(1)
//! deterministic [`Lru`] and fast [`FxHashMap`] that the caches share.
//!
//! Design rules, shared by all downstream crates:
//!
//! * **No wall clock.** Every timestamp is virtual; experiments are exactly
//!   reproducible from a single `u64` seed.
//! * **FIFO tie-breaking.** Events scheduled for the same instant run in
//!   insertion order, so heap internals never change results.
//! * **Sans-IO.** Worlds are plain state machines; there is no hidden
//!   I/O, threading, or global state anywhere in the kernel.
//!
//! ```
//! use sperke_sim::{Simulation, World, Scheduler, SimTime, SimDuration};
//!
//! enum Ev { Ping }
//! struct Counter(u32);
//! impl World<Ev> for Counter {
//!     fn handle(&mut self, _e: Ev, s: &mut Scheduler<'_, Ev>) {
//!         self.0 += 1;
//!         s.after(SimDuration::from_millis(100), Ev::Ping);
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! sim.schedule(SimTime::ZERO, Ev::Ping);
//! let mut world = Counter(0);
//! sim.run(&mut world, SimTime::from_secs(1));
//! assert_eq!(world.0, 11); // t = 0.0, 0.1, ..., 1.0
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod fxhash;
pub mod lru;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod runner;
pub mod schedule;
pub mod stats;
pub mod sweep;
pub mod time;
pub mod trace;

pub use experiment::{replicate, Replicates, SEED_PANEL};
pub use fxhash::{FxHashMap, FxHasher};
pub use lru::Lru;
pub use metrics::{Counter, Histogram, TimeSeries};
pub use queue::{EventId, EventQueue};
pub use rng::SimRng;
pub use runner::{RunOutcome, Scheduler, Simulation, World};
pub use schedule::ReplayQueue;
pub use sweep::{
    default_threads, parallel_indexed, run_sweep, PointOutcome, SweepPlan, SweepPoint, SweepReport,
    SweepSummary,
};
pub use time::{SimDuration, SimTime};
pub use trace::{
    fnv1a64, MetricsRegistry, Subsystem, Trace, TraceConfig, TraceEvent, TraceLevel, TraceSink,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping always yields nondecreasing timestamps.
        #[test]
        fn queue_pops_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// A queue pops exactly what was pushed (as a multiset of times).
        #[test]
        fn queue_preserves_multiset(times in proptest::collection::vec(0u64..1000, 0..100)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.push(SimTime::from_nanos(t), ());
            }
            let mut popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_nanos())).collect();
            popped.sort_unstable();
            let mut expect = times.clone();
            expect.sort_unstable();
            prop_assert_eq!(popped, expect);
        }

        /// SimTime +/- SimDuration round-trips.
        #[test]
        fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
            let time = SimTime::from_nanos(t);
            let dur = SimDuration::from_nanos(d);
            prop_assert_eq!((time + dur) - dur, time);
            prop_assert_eq!((time + dur) - time, dur);
        }

        /// Percentile lies within the sample range.
        #[test]
        fn percentile_within_bounds(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
            p in 0.0f64..100.0,
        ) {
            let v = stats::percentile(&xs, p);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
        }

        /// FIFO tie-break among same-instant events survives interleaved
        /// push/cancel sequences: the surviving events of one instant pop
        /// in their original insertion order.
        #[test]
        fn queue_fifo_survives_interleaved_cancels(
            ops in proptest::collection::vec((0u64..4, any::<bool>()), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut ids = Vec::new();        // (EventId, time, payload)
            let mut cancelled = Vec::new();
            for (i, &(t, cancel_one)) in ops.iter().enumerate() {
                let time = SimTime::from_secs(t);
                let id = q.push(time, i);
                ids.push((id, t, i));
                // Interleave: sometimes cancel an arbitrary live event
                // (deterministically picked) right after a push.
                if cancel_one && !ids.is_empty() {
                    let pick = (i * 7 + 3) % ids.len();
                    let (cid, _, payload) = ids[pick];
                    if !cancelled.contains(&payload) && q.cancel(cid) {
                        cancelled.push(payload);
                    }
                }
            }
            // Expected: surviving events sorted by time, ties in insertion order.
            let mut expect: Vec<(u64, usize)> = ids
                .iter()
                .filter(|(_, _, p)| !cancelled.contains(p))
                .map(|&(_, t, p)| (t, p))
                .collect();
            expect.sort_by_key(|&(t, p)| (t, p)); // insertion index == payload
            let mut got = Vec::new();
            while let Some((t, p)) = q.pop() {
                got.push((t.as_nanos() / 1_000_000_000, p));
            }
            prop_assert_eq!(got, expect);
        }

        /// A cancelled EventId never fires, no matter where in the
        /// push/pop sequence the cancellation lands.
        #[test]
        fn queue_cancelled_ids_never_fire(
            times in proptest::collection::vec(0u64..5, 2..100),
            cancel_stride in 2usize..5,
        ) {
            let mut q = EventQueue::new();
            let mut cancelled = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                let id = q.push(SimTime::from_secs(t), i);
                if i % cancel_stride == 0 {
                    prop_assert!(q.cancel(id), "fresh id cancels");
                    prop_assert!(!q.cancel(id), "double-cancel is rejected");
                    cancelled.push(i);
                }
            }
            let survivors = times.len() - cancelled.len();
            prop_assert_eq!(q.len(), survivors);
            let mut fired = 0usize;
            while let Some((_, p)) = q.pop() {
                prop_assert!(!cancelled.contains(&p), "cancelled event {} fired", p);
                fired += 1;
            }
            prop_assert_eq!(fired, survivors);
        }

        /// SimRng::below is always within range.
        #[test]
        fn rng_below_in_range(seed: u64, n in 1u64..10_000) {
            let mut rng = SimRng::new(seed);
            for _ in 0..100 {
                prop_assert!(rng.below(n) < n);
            }
        }

        /// Splitting with the same label is reproducible.
        #[test]
        fn rng_split_reproducible(seed: u64, label: u64) {
            let root = SimRng::new(seed);
            let mut a = root.split(label);
            let mut b = root.split(label);
            for _ in 0..10 {
                prop_assert_eq!(a.next_u64_raw(), b.next_u64_raw());
            }
        }
    }
}
