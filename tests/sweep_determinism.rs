//! Determinism-equivalence suite for the parallel sweep harness.
//!
//! The harness's headline guarantee — `run_sweep(plan, threads = K)`
//! produces the same bytes as `threads = 1` for all `K` — is enforced
//! here, not left to convention: property tests fan random plans across
//! worker pools of 1, 2 and 8 threads and assert the merged
//! `SweepReport` (JSONL bytes, digest, and every per-point
//! `trace_digest`) is identical, and that a panicking point poisons only
//! itself.

use proptest::prelude::*;
use sperke_core::{run_fleet_sweep, FleetConfig, FleetGrid, Sperke};
use sperke_sim::sweep::{run_sweep, PointOutcome, SweepPlan, SweepReport};
use sperke_sim::{Scheduler, SimDuration, SimRng, SimTime, Simulation, World};
use sperke_video::VideoModelBuilder;
use sperke_vra::AbrPolicyKind;

/// A cheap but honest workload: a tiny discrete-event simulation whose
/// outcome depends on every knob of the point, driven entirely by the
/// deterministic kernel. Fast enough to proptest hundreds of sweeps.
fn mini_sim(seed: u64, events: u64, jitter_ms: u64) -> (u64, u64) {
    struct Hops {
        rng: SimRng,
        jitter_ms: u64,
        left: u64,
        acc: u64,
    }
    impl World<u32> for Hops {
        fn handle(&mut self, hop: u32, sched: &mut Scheduler<'_, u32>) {
            self.acc = self
                .acc
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(sched.now().as_nanos() ^ hop as u64);
            if self.left > 0 {
                self.left -= 1;
                let delay = 1 + self.rng.below(self.jitter_ms.max(1));
                sched.after(SimDuration::from_millis(delay), hop + 1);
            }
        }
    }
    let mut sim = Simulation::new();
    sim.schedule(SimTime::ZERO, 0);
    let mut world = Hops {
        rng: SimRng::new(seed),
        jitter_ms,
        left: events,
        acc: seed,
    };
    sim.run(&mut world, SimTime::from_secs(3600));
    (world.acc, sim.now().as_nanos())
}

fn run_plan(plan: &SweepPlan<(u64, u64, u64)>, threads: usize) -> SweepReport<(u64, u64)> {
    run_sweep(plan, threads, |_i, &(seed, events, jitter)| {
        mini_sim(seed, events, jitter)
    })
}

/// Keep the injected panics of the isolation tests out of the test
/// output: the harness catches them, so the default hook's backtrace
/// spam is pure noise. Panics from anything else still print.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected panic"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random plans merge byte-identically on 1, 2 and 8 workers.
    #[test]
    fn report_is_identical_across_1_2_8_threads(
        points in proptest::collection::vec((0u64..1_000_000, 0u64..40, 1u64..50), 0..24),
    ) {
        let plan = SweepPlan::new(points);
        let serial = run_plan(&plan, 1);
        for threads in [2usize, 8] {
            let parallel = run_plan(&plan, threads);
            prop_assert_eq!(&parallel, &serial, "threads={} diverged", threads);
            prop_assert_eq!(parallel.to_jsonl(), serial.to_jsonl());
            prop_assert_eq!(parallel.digest(), serial.digest());
            // Every per-point trace digest matches, pairwise.
            for (p, s) in parallel.points().iter().zip(serial.points()) {
                prop_assert_eq!(p.index, s.index);
                prop_assert_eq!(p.trace_digest, s.trace_digest);
            }
        }
    }

    /// A panicking point poisons only its own sweep slot: every other
    /// point still completes with the exact value of a clean serial run.
    #[test]
    fn panic_poisons_only_its_own_point(
        seeds in proptest::collection::vec(0u64..1_000, 1..16),
        stride in 2u64..5,
    ) {
        silence_injected_panics();
        let plan = SweepPlan::new(seeds.clone());
        let faulty = |_i: usize, &seed: &u64| {
            assert!(seed % stride != 0, "injected panic for seed {seed}");
            mini_sim(seed, 8, 5)
        };
        for threads in [1usize, 2, 8] {
            let report = run_sweep(&plan, threads, faulty);
            prop_assert_eq!(report.len(), seeds.len(), "no point is lost");
            for (i, point) in report.points().iter().enumerate() {
                prop_assert_eq!(point.index, i);
                match &point.outcome {
                    PointOutcome::Panicked(msg) => {
                        prop_assert_eq!(seeds[i] % stride, 0, "only scripted points panic");
                        prop_assert!(msg.contains("injected panic"), "payload preserved: {}", msg);
                    }
                    PointOutcome::Ok(value) => {
                        prop_assert!(seeds[i] % stride != 0);
                        prop_assert_eq!(*value, mini_sim(seeds[i], 8, 5));
                    }
                }
            }
        }
    }
}

/// The acceptance-criteria check on the real workload: a fleet grid
/// merged from 1, 2 and 8 workers is byte-identical, per-point digests
/// included.
#[test]
fn fleet_sweep_report_is_byte_identical_across_thread_counts() {
    let video = VideoModelBuilder::new(41)
        .duration(SimDuration::from_secs(6))
        .build();
    let grid = FleetGrid::new(FleetConfig {
        viewers: 3,
        ..Default::default()
    })
    .egress_axis(vec![60e6, 200e6])
    .scheme_axis(vec![true, false])
    .seed_axis(vec![7, 11]);
    let serial = run_fleet_sweep(&video, &grid, AbrPolicyKind::default(), 1);
    assert_eq!(serial.len(), 8);
    for threads in [2usize, 8] {
        let parallel = run_fleet_sweep(&video, &grid, AbrPolicyKind::default(), threads);
        assert_eq!(parallel, serial);
        assert_eq!(parallel.to_jsonl(), serial.to_jsonl(), "threads={threads}");
        assert_eq!(parallel.digest(), serial.digest());
        let digests = |r: &sperke_core::SweepReport<sperke_core::FleetSweepPoint>| {
            r.points()
                .iter()
                .map(|p| p.trace_digest)
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(&parallel), digests(&serial));
    }
}

/// Seed sweeps through the session builder are equally worker-blind,
/// and their per-point digests are the real captured-trace digests.
#[test]
fn sperke_seed_sweep_is_thread_count_invariant() {
    use sperke_core::TraceLevel;
    let build = |seed: u64| {
        Sperke::builder(seed)
            .duration(SimDuration::from_secs(4))
            .with_trace(TraceLevel::Events)
    };
    let serial = Sperke::sweep(build).seeds(&[3, 5, 8]).threads(1).run();
    for threads in [2usize, 8] {
        let parallel = Sperke::sweep(build)
            .seeds(&[3, 5, 8])
            .threads(threads)
            .run();
        assert_eq!(parallel.to_jsonl(), serial.to_jsonl(), "threads={threads}");
    }
    // The embedded digest is the session's own trace digest.
    let direct = build(3).run_report().trace_digest();
    assert_eq!(serial.ok_results().next().unwrap().trace_digest, direct);
}

/// Empty grids and single-point plans produce finite summaries (the
/// divide-by-zero ridealong fix): no NaN, no infinities.
#[test]
fn summaries_survive_empty_and_single_point_plans() {
    let empty: SweepReport<(u64, u64)> = run_plan(&SweepPlan::new(vec![]), 4);
    let s = empty.summary(|&(acc, _)| acc as f64);
    assert_eq!((s.points, s.ok, s.panicked), (0, 0, 0));
    for v in [s.mean, s.stddev, s.min, s.max, s.p50, s.p95] {
        assert!(v.is_finite());
        assert_eq!(v, 0.0);
    }

    let single = run_plan(&SweepPlan::new(vec![(9, 4, 3)]), 4);
    let s = single.summary(|&(_, end)| end as f64);
    assert_eq!(s.ok, 1);
    assert!(s.mean.is_finite());
    assert_eq!(s.stddev, 0.0);
    assert_eq!(s.min, s.max);
    assert_eq!(s.p50, s.p95);
}
