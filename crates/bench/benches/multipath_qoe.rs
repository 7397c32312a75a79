//! E6 — §3.3: content-aware multipath vs MPTCP-style content-agnostic
//! scheduling vs single path, on asymmetric WiFi + LTE: a steady LTE
//! link at two loss rates, then an LTE drive trace with deep fades and
//! outages (the condition 360° rate adaptation over LTE traces targets,
//! Ghosh, Aggarwal & Qian, arXiv:1704.08215).

use sperke_bench::{cols, header, note, row};
use sperke_core::{SchedulerChoice, Sperke};
use sperke_hmp::Behavior;
use sperke_net::{BandwidthTrace, PathModel};
use sperke_sim::{SimDuration, SimRng};

/// A constrained dual-access setup: neither link alone carries the top
/// rungs comfortably, which is exactly where §3.3 claims multipath pays.
fn paths(lte: BandwidthTrace, lte_loss: f64) -> Vec<PathModel> {
    vec![
        PathModel::new(
            "wifi",
            BandwidthTrace::constant(9e6),
            SimDuration::from_millis(15),
            0.001,
        ),
        PathModel::new("lte", lte, SimDuration::from_millis(60), lte_loss),
    ]
}

fn main() {
    header("E6 / §3.3", "multipath schedulers on asymmetric WiFi+LTE");
    let schedulers = [
        ("single-path(wifi)", SchedulerChoice::SinglePath),
        ("mptcp-minrtt", SchedulerChoice::MinRtt),
        ("earliest-completion", SchedulerChoice::EarliestCompletion),
        ("content-aware", SchedulerChoice::ContentAware),
    ];

    let steady = BandwidthTrace::constant(8e6);
    let drive = BandwidthTrace::lte_drive(8e6, SimDuration::from_secs(60), &mut SimRng::new(17));
    for (lte, loss, label) in [
        (steady.clone(), 0.002f64, "clean LTE (0.2% loss)"),
        (steady, 0.02, "lossy LTE (2% loss)"),
        (drive, 0.002, "LTE drive trace (8 Mbps mean, 0.2% loss)"),
    ] {
        println!();
        note(label);
        cols(
            "scheduler",
            &["vpUtil", "stalls", "blank%", "score", "lteMB"],
        );
        let mut scores = Vec::new();
        for (name, sched) in schedulers {
            let r = Sperke::builder(17)
                .duration(SimDuration::from_secs(45))
                .behavior(Behavior::Focused)
                .paths(paths(lte.clone(), loss))
                .scheduler(sched)
                .run();
            let lte_mb = r.path_bytes.get(1).copied().unwrap_or(0) as f64 / 1e6;
            row(
                name,
                &[
                    r.qoe.mean_viewport_utility,
                    r.qoe.stall_count as f64,
                    r.qoe.mean_blank_fraction * 100.0,
                    r.qoe.score,
                    lte_mb,
                ],
            );
            scores.push((name, r.qoe.score));
        }
        // Multipath should beat single path; content-aware should be the
        // best or tied-best multipath option.
        let single = scores[0].1;
        let aware = scores[3].1;
        let best_agnostic = scores[1].1.max(scores[2].1);
        assert!(
            aware >= single - 0.05,
            "content-aware ({aware:.2}) must not lose to single path ({single:.2})"
        );
        assert!(
            aware >= best_agnostic - 0.15,
            "content-aware ({aware:.2}) must be competitive with agnostic best ({best_agnostic:.2})"
        );
    }
    note("content-aware keeps FoV/urgent chunks on the premium path and ships OOS");
    note("best-effort on the secondary; with a lossy LTE the separation matters most.");
    println!("shape check: PASS");
}
