//! A Table-2-style parameter sweep in one call: fan an edge grid of
//! audience size × cache capacity across every CPU core, once per
//! delivery scheme, then print the merged reports — each byte-identical
//! to a serial run, so the parallelism is free.
//!
//! ```sh
//! cargo run --release --example param_sweep
//! ```

use sperke_core::{run_edge_sweep, EdgeConfig, EdgeGrid};
use sperke_sim::sweep::default_threads;
use sperke_sim::SimDuration;
use sperke_video::{Quality, Scheme, VideoModelBuilder};
use sperke_vra::AbrPolicyKind;

fn main() {
    let video = VideoModelBuilder::new(61)
        .duration(SimDuration::from_secs(15))
        .build();
    let threads = default_threads();

    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "clients", "cache", "scheme", "egressMB", "originMB", "vpUtil", "late%"
    );
    // The grid: audience size × edge cache (off vs 256 MiB). FoV-guided
    // viewers plan on 10 Mbps; panorama viewers ship the whole sphere on
    // the budget that affords Q2 in every chunk.
    let panorama_bps = video.panorama_peak_bps(Quality(2), Scheme::svc_default());
    for (scheme, policy, budget) in [
        ("guided", AbrPolicyKind::default(), 10e6),
        ("panorama", AbrPolicyKind::panorama(), panorama_bps),
    ] {
        let grid = EdgeGrid::new(EdgeConfig {
            per_client_budget_bps: budget,
            seed: 61,
            ..Default::default()
        })
        .clients_axis(vec![5, 10, 20])
        .cache_axis(vec![0, 256 << 20]);
        let report = run_edge_sweep(&video, &grid, policy, threads);
        for point in report.ok_results() {
            let c = &point.config;
            let r = &point.report;
            println!(
                "{:>8} {:>8} {:>10} {:>10.1} {:>10.1} {:>8.2} {:>8.1}",
                c.clients,
                if c.cache_bytes == 0 { "off" } else { "256MiB" },
                scheme,
                r.egress_bytes as f64 / 1e6,
                r.origin_demand_bytes() as f64 / 1e6,
                r.mean_viewport_utility,
                r.late_stream_fraction * 100.0,
            );
        }

        let utility = report.summary(|p| p.report.mean_viewport_utility);
        let late = report.summary(|p| p.report.late_stream_fraction);
        println!(
            "  {scheme}: viewport utility mean {:.2}, p50 {:.2}, range [{:.2}, {:.2}]; \
             late streams mean {:.1}%, worst point {:.1}%",
            utility.mean,
            utility.p50,
            utility.min,
            utility.max,
            late.mean * 100.0,
            late.max * 100.0
        );

        // The headline guarantee, demonstrated: the merged report carries
        // no fingerprint of the worker count.
        let serial = run_edge_sweep(&video, &grid, policy, 1);
        assert_eq!(serial.to_jsonl(), report.to_jsonl());
        println!(
            "  serial re-run digest {:#018x} == {}-worker digest {:#018x}\n",
            serial.digest(),
            threads,
            report.digest()
        );
    }
    println!("merges are byte-identical at any thread count; only the wall clock changes.");
}
