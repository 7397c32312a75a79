//! Fault injection: a 5-second outage on the premium path, mid-stream.
//!
//! The naive client eats the failures — transfers die with the link and
//! the affected tiles go blank. The resilient client times out stalled
//! transfers, retries with exponential backoff, fails over to the
//! surviving path, and re-displays the previous chunk's tiles where a
//! fetch still came up empty (spatial fall-back, §3.4).
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use sperke_core::{FaultScript, SchedulerChoice, Sperke, TraceEvent, TraceLevel};
use sperke_hmp::Behavior;
use sperke_net::{BandwidthTrace, PathModel};
use sperke_sim::{SimDuration, SimTime};

fn rig() -> Sperke {
    let paths = vec![
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
    ];
    Sperke::builder(42)
        .duration(SimDuration::from_secs(15))
        .behavior(Behavior::Explorer)
        .paths(paths)
        .scheduler(SchedulerChoice::ContentAware)
        .with_faults(FaultScript::none().link_down(
            0,
            SimTime::from_secs(5),
            SimTime::from_secs(10),
        ))
        .with_trace(TraceLevel::Decisions)
}

fn main() {
    println!("Mid-stream outage: the WiFi path is down from t=5s to t=10s.");
    println!();

    let naive = rig().run_report();
    let hardened = rig().with_resilience().with_fallback().run_report();

    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>8}",
        "client", "score", "blank", "degraded", "stalls"
    );
    for (label, r) in [("naive", &naive), ("resilient + fall-back", &hardened)] {
        println!(
            "{:<28} {:>8.2} {:>9.1}% {:>9.1}% {:>8}",
            label,
            r.session.qoe.score,
            r.session.qoe.mean_blank_fraction * 100.0,
            r.session.qoe.mean_degraded_fraction * 100.0,
            r.session.qoe.stall_count,
        );
    }

    let retries = hardened
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::RetryScheduled { .. }))
        .count();
    let timeouts = hardened
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::TransferTimedOut { .. }))
        .count();
    let fallbacks = hardened
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::FallbackFrame { .. }))
        .count();

    println!();
    println!(
        "Recovery machinery during the outage: {retries} retries scheduled, \
         {timeouts} timeouts, {fallbacks} fall-back frames."
    );
    println!(
        "Identical seeds reproduce identical traces: digest {:#018x}.",
        hardened.trace_digest()
    );
    println!();
    println!("The resilient client fails FoV transfers over to LTE within one retry");
    println!("budget and papers over the remaining holes with the previous chunk's");
    println!("tiles — degraded beats blank at a fraction of the QoE cost.");
}
