//! §2 at CDN scale — aggregate server egress for a crowd of concurrent
//! viewers behind one edge: FoV-guided tiling vs full-panorama delivery
//! at matched viewport quality.
//!
//! Only the delivery differs between the two crowds. The edge cache
//! holds the whole catalog (zero evictions), prefetch is off and the
//! origin backhaul never bottlenecks, so egress is pure client demand.
//! The guided crowd plans with the default knapsack selector on a
//! 10 Mbps budget; the panorama crowd plans with
//! [`AbrPolicyKind::panorama`] on the budget that affords the whole
//! sphere at Q2 in every chunk.

use sperke_bench::{cols, header, note, row};
use sperke_core::{EdgeConfig, EdgeReport, Sperke};
use sperke_sim::SimDuration;
use sperke_video::{Quality, Scheme};
use sperke_vra::AbrPolicyKind;

const SEED: u64 = 61;
const DURATION: SimDuration = SimDuration::from_secs(20);

/// One crowd of `clients` viewers behind the edge, `panorama` or
/// FoV-guided, shedding SVC layers once the egress backlog passes
/// `degrade_backlog` (`ZERO` turns shedding off).
fn crowd(
    clients: usize,
    egress_bps: f64,
    panorama: bool,
    degrade_backlog: SimDuration,
) -> (EdgeConfig, EdgeReport) {
    let builder = Sperke::edge_builder(SEED).duration(DURATION);
    let (policy, budget) = if panorama {
        let video = builder.build_video();
        let budget = video.panorama_peak_bps(Quality(2), Scheme::svc_default());
        (AbrPolicyKind::panorama(), budget)
    } else {
        (AbrPolicyKind::default(), 10e6)
    };
    let config = EdgeConfig {
        clients,
        egress_bps,
        origin_bps: 100e9,
        cache_bytes: 1 << 30,
        per_client_budget_bps: budget,
        prefetch: false,
        degrade_backlog,
        seed: SEED,
        ..Default::default()
    };
    let report = builder.config(config).abr_policy(policy).run();
    (config, report)
}

/// Mean egress rate over the run, bits/second: the video plus the
/// arrival stagger of the last client.
fn egress_bps(config: &EdgeConfig, report: &EdgeReport) -> f64 {
    let run = DURATION + config.arrival_spacing * (config.clients as u64).saturating_sub(1);
    report.egress_bytes as f64 * 8.0 / run.as_secs_f64()
}

fn main() {
    header(
        "fleet",
        "server egress at scale: FoV-guided vs full panorama",
    );
    cols(
        "viewers / delivery",
        &["egressMB", "Mbps", "vpUtil", "blank%", "late%"],
    );
    let shedding = EdgeConfig::default().degrade_backlog;
    let mut pairs = Vec::new();
    for &n in &[5usize, 20, 50] {
        let mut egress = [0u64; 2];
        for (i, (label, panorama)) in [("guided", false), ("panorama", true)]
            .into_iter()
            .enumerate()
        {
            // Uncongested: measure pure demand.
            let (config, r) = crowd(n, 2e9, panorama, shedding);
            row(
                &format!("{n} / {label}"),
                &[
                    r.egress_bytes as f64 / 1e6,
                    egress_bps(&config, &r) / 1e6,
                    r.mean_viewport_utility,
                    r.mean_blank_fraction * 100.0,
                    r.late_stream_fraction * 100.0,
                ],
            );
            assert_eq!(
                r.cache.evictions, 0,
                "{n} / {label}: the cache must hold the catalog"
            );
            egress[i] = r.egress_bytes;
        }
        pairs.push((n, egress[0], egress[1]));
    }
    note("egress demand scales linearly with viewers for both deliveries; the");
    note("guided crowd needs a fraction of the edge capacity for the same");
    note("viewport quality — the per-viewer §2 savings, summed at the CDN.");

    // Congestion story: at an egress sized for the guided crowd, the
    // panorama crowd collapses unless the edge sheds SVC layers.
    let mut congested = Vec::new();
    for (title, backlog) in [
        ("50 @ 400 Mbps, no shedding", SimDuration::ZERO),
        ("50 @ 400 Mbps, 600 ms shedding", shedding),
    ] {
        println!();
        cols(title, &["vpUtil", "blank%", "late%", "shedDec"]);
        let mut pair = Vec::new();
        for (label, panorama) in [("guided", false), ("panorama", true)] {
            let (_, r) = crowd(50, 400e6, panorama, backlog);
            row(
                label,
                &[
                    r.mean_viewport_utility,
                    r.mean_blank_fraction * 100.0,
                    r.late_stream_fraction * 100.0,
                    r.degraded_decides as f64,
                ],
            );
            pair.push(r);
        }
        congested.push(pair);
    }
    note("with the edge provisioned for tiled delivery, panorama-shipping");
    note("viewers saturate it and go blank; shedding SVC enhancement layers");
    note("keeps them watching, at base-layer quality.");

    for &(n, guided, panorama) in &pairs {
        assert!(
            (guided as f64) < 0.75 * panorama as f64,
            "{n} viewers: guided {guided} vs panorama {panorama}"
        );
    }
    let [guided, panorama] = &congested[0][..] else {
        unreachable!("two crowds per congestion row")
    };
    assert!(
        panorama.mean_blank_fraction > 0.5 && guided.mean_blank_fraction < 0.5,
        "no shedding: panorama blank {:.3} must exceed half, guided {:.3} stay below",
        panorama.mean_blank_fraction,
        guided.mean_blank_fraction
    );
    assert!(
        guided.mean_viewport_utility > panorama.mean_viewport_utility,
        "no shedding: guided utility {:.2} vs panorama {:.2}",
        guided.mean_viewport_utility,
        panorama.mean_viewport_utility
    );
    let [guided, panorama] = &congested[1][..] else {
        unreachable!("two crowds per congestion row")
    };
    assert!(
        panorama.mean_blank_fraction < 0.10,
        "shedding: panorama blank {:.3} must stay below 10%",
        panorama.mean_blank_fraction
    );
    assert!(
        guided.mean_viewport_utility > panorama.mean_viewport_utility,
        "shedding: guided utility {:.2} vs panorama {:.2}",
        guided.mean_viewport_utility,
        panorama.mean_viewport_utility
    );
    println!("shape check: PASS");
}
