//! End-to-end fault-injection tests: scripted and seeded-stochastic
//! outages through the full stack, the naive-vs-resilient comparison of
//! the acceptance demo, and the proof that an attached-but-empty fault
//! script changes nothing at all.

use sperke_core::{FaultScript, RunReport, SchedulerChoice, Sperke, TraceEvent, TraceLevel};
use sperke_hmp::Behavior;
use sperke_net::{BandwidthTrace, PathModel};
use sperke_sim::{SimDuration, SimTime};

/// The demo scenario: a premium WiFi path and a slower LTE path, with
/// the WiFi link dying for five seconds mid-stream.
fn outage_rig(seed: u64) -> Sperke {
    Sperke::builder(seed)
        .duration(SimDuration::from_secs(15))
        .behavior(Behavior::Explorer)
        .paths(vec![
            PathModel::new(
                "wifi",
                BandwidthTrace::constant(40e6),
                SimDuration::from_millis(15),
                0.0,
            ),
            PathModel::new(
                "lte",
                BandwidthTrace::constant(10e6),
                SimDuration::from_millis(60),
                0.0,
            ),
        ])
        .scheduler(SchedulerChoice::ContentAware)
        .with_faults(FaultScript::none().link_down(
            0,
            SimTime::from_secs(5),
            SimTime::from_secs(10),
        ))
}

fn resilient(rig: Sperke) -> Sperke {
    rig.with_resilience().with_fallback()
}

/// The PR's acceptance scenario: a 5 s outage on the premium path
/// mid-stream. The naive client eats failures and blanks; the resilient
/// client fails over within its retry budget and falls back spatially.
#[test]
fn outage_demo_naive_vs_resilient() {
    let naive = outage_rig(42).run();
    let hardened = resilient(outage_rig(42)).run();

    assert!(
        naive.qoe.mean_blank_fraction > 0.05,
        "the outage must visibly hurt the naive client: blank {}",
        naive.qoe.mean_blank_fraction
    );
    assert_eq!(
        naive.qoe.mean_degraded_fraction, 0.0,
        "naive has no fall-back"
    );

    assert!(
        hardened.qoe.mean_blank_fraction < naive.qoe.mean_blank_fraction,
        "failover must shrink the blank area: {} vs {}",
        hardened.qoe.mean_blank_fraction,
        naive.qoe.mean_blank_fraction
    );
    assert!(
        hardened.qoe.mean_degraded_fraction > 0.0,
        "spatial fall-back must rescue some screen area"
    );
    assert!(hardened.qoe.score > naive.qoe.score);
}

/// Same seed + same script ⇒ byte-identical traces, twice over.
#[test]
fn faulted_runs_are_reproducible() {
    let run = || {
        resilient(outage_rig(42))
            .with_trace(TraceLevel::Verbose)
            .run_report()
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.trace_digest(),
        b.trace_digest(),
        "same seed+script, same bytes"
    );
    assert_eq!(a.to_jsonl(), b.to_jsonl());
    assert_eq!(a.session.qoe, b.session.qoe);
}

/// The fault layer narrates itself: the trace carries the outage window
/// (PathDown/PathUp), the recovery machinery (TransferTimedOut /
/// RetryScheduled), and the renderer's fall-back (FallbackFrame).
#[test]
fn fault_events_appear_in_the_trace() {
    let report = resilient(outage_rig(42))
        .with_trace(TraceLevel::Decisions)
        .run_report();
    let has = |f: &dyn Fn(&TraceEvent) -> bool| report.trace.events().iter().any(f);
    assert!(has(&|e| matches!(e, TraceEvent::PathDown { path: 0, .. })));
    assert!(has(&|e| matches!(e, TraceEvent::PathUp { path: 0, .. })));
    assert!(
        has(&|e| matches!(e, TraceEvent::RetryScheduled { .. })),
        "failover must schedule retries during the outage"
    );
    assert!(has(&|e| matches!(e, TraceEvent::FallbackFrame { .. })));

    // And the down window is bracketed correctly: every PathDown precedes
    // its PathUp.
    let down = report
        .trace
        .events()
        .iter()
        .find_map(|e| match e {
            TraceEvent::PathDown { at, path: 0 } => Some(*at),
            _ => None,
        })
        .expect("PathDown recorded");
    let up = report
        .trace
        .events()
        .iter()
        .find_map(|e| match e {
            TraceEvent::PathUp { at, path: 0 } => Some(*at),
            _ => None,
        })
        .expect("PathUp recorded");
    assert_eq!(down, SimTime::from_secs(5));
    assert_eq!(up, SimTime::from_secs(10));
}

/// Seeded stochastic scripts are pure functions of their seed: the same
/// seed compiles to the same windows and streams identically; different
/// seeds genuinely vary.
#[test]
fn random_outages_are_seed_deterministic() {
    let horizon = SimDuration::from_secs(30);
    let gap = SimDuration::from_secs(8);
    let len = SimDuration::from_secs(2);
    let a = FaultScript::random_outages(9, 2, horizon, gap, len);
    let b = FaultScript::random_outages(9, 2, horizon, gap, len);
    let c = FaultScript::random_outages(10, 2, horizon, gap, len);
    assert_eq!(a.compile_for(0).outages(), b.compile_for(0).outages());
    assert_eq!(a.compile_for(1).outages(), b.compile_for(1).outages());
    assert_ne!(a.compile_for(0).outages(), c.compile_for(0).outages());

    let run = |seed| {
        Sperke::builder(3)
            .duration(SimDuration::from_secs(12))
            .wifi_plus_lte()
            .scheduler(SchedulerChoice::ContentAware)
            .with_faults(FaultScript::random_outages(seed, 2, horizon, gap, len))
            .with_resilience()
            .with_trace(TraceLevel::Events)
            .run_report()
    };
    assert_eq!(run(9).trace_digest(), run(9).trace_digest());
}

/// Attaching an *empty* fault script is provably free: the run consumes
/// the same RNG stream and produces byte-identical traces and QoE as a
/// run that never heard of the fault layer. This pins the golden seed-77
/// configuration, so the fault machinery can't silently tax it.
#[test]
fn empty_fault_script_is_byte_identical_to_none() {
    let golden = |faults: Option<FaultScript>| -> RunReport {
        let mut b = Sperke::builder(77)
            .duration(SimDuration::from_secs(12))
            .behavior(Behavior::Explorer)
            .wifi_plus_lte()
            .scheduler(SchedulerChoice::ContentAware)
            .with_crowd(5)
            .with_speed_bound()
            .with_trace(TraceLevel::Verbose);
        if let Some(script) = faults {
            b = b.with_faults(script);
        }
        b.run_report()
    };
    let without = golden(None);
    let with = golden(Some(FaultScript::none()));
    assert_eq!(without.to_jsonl(), with.to_jsonl());
    assert_eq!(without.trace_digest(), with.trace_digest());
    assert_eq!(without.session.qoe, with.session.qoe);
}
