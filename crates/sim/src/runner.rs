//! A generic drive loop tying the clock and event queue together.
//!
//! Domain crates define an event enum and a world implementing
//! [`World`]; [`Simulation`] pops events in time order, advances the
//! clock, and dispatches. Handlers schedule follow-up events through
//! [`Scheduler`]. The pattern mirrors sans-IO network stacks: all state
//! transitions are explicit and synchronous, which keeps every scenario
//! unit-testable.

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Handle handed to event handlers for scheduling further events and
/// reading the clock.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at` (must not be in the past).
    pub fn at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event)
    }

    /// Schedule `event` after a relative delay.
    pub fn after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Cancel a previously scheduled event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

/// A simulated world reacting to events of type `E`.
pub trait World<E> {
    /// Handle one event at its scheduled time.
    fn handle(&mut self, event: E, sched: &mut Scheduler<'_, E>);
}

/// Outcome of running a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained.
    Drained,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (runaway guard).
    BudgetExhausted,
}

/// The discrete-event simulation driver.
pub struct Simulation<E> {
    now: SimTime,
    queue: EventQueue<E>,
    /// Runaway guard: maximum number of events processed per `run` call.
    pub max_events: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// A fresh simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            max_events: 500_000_000,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an initial event before running.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        self.queue.push(at, event)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Run until the queue drains, `horizon` passes, or the event budget
    /// is exhausted.
    ///
    /// Events scheduled exactly at `horizon` are still processed.
    pub fn run<W: World<E>>(&mut self, world: &mut W, horizon: SimTime) -> RunOutcome {
        let mut processed: u64 = 0;
        loop {
            if processed >= self.max_events {
                return RunOutcome::BudgetExhausted;
            }
            let Some(next_time) = self.queue.peek_time() else {
                return RunOutcome::Drained;
            };
            if next_time > horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            let (time, event) = self.queue.pop().expect("peeked non-empty");
            debug_assert!(time >= self.now, "time must be monotone");
            self.now = time;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
            };
            world.handle(event, &mut sched);
            processed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    struct Ticker {
        seen: Vec<(SimTime, u32)>,
        respawn: bool,
    }

    impl World<Ev> for Ticker {
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
            let Ev::Tick(n) = event;
            self.seen.push((sched.now(), n));
            if self.respawn {
                sched.after(SimDuration::from_secs(1), Ev::Tick(n + 1));
            }
        }
    }

    #[test]
    fn runs_until_drained() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_secs(1), Ev::Tick(1));
        sim.schedule(SimTime::from_secs(2), Ev::Tick(2));
        let mut w = Ticker {
            seen: vec![],
            respawn: false,
        };
        assert_eq!(
            sim.run(&mut w, SimTime::from_secs(100)),
            RunOutcome::Drained
        );
        assert_eq!(w.seen.len(), 2);
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn horizon_cuts_off_and_sets_clock() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, Ev::Tick(0));
        let mut w = Ticker {
            seen: vec![],
            respawn: true,
        };
        assert_eq!(
            sim.run(&mut w, SimTime::from_secs(5)),
            RunOutcome::HorizonReached
        );
        // ticks at t = 0..=5 inclusive
        assert_eq!(w.seen.len(), 6);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn budget_guard_fires() {
        let mut sim = Simulation::new();
        sim.max_events = 10;
        sim.schedule(SimTime::ZERO, Ev::Tick(0));
        let mut w = Ticker {
            seen: vec![],
            respawn: true,
        };
        assert_eq!(sim.run(&mut w, SimTime::MAX), RunOutcome::BudgetExhausted);
        assert_eq!(w.seen.len(), 10);
    }

    #[test]
    fn same_instant_events_run_fifo() {
        struct Collect(Vec<u32>);
        impl World<u32> for Collect {
            fn handle(&mut self, e: u32, _s: &mut Scheduler<'_, u32>) {
                self.0.push(e);
            }
        }
        let mut sim = Simulation::new();
        for i in 0..10 {
            sim.schedule(SimTime::from_secs(1), i);
        }
        let mut w = Collect(vec![]);
        sim.run(&mut w, SimTime::from_secs(2));
        assert_eq!(w.0, (0..10).collect::<Vec<_>>());
    }
}
