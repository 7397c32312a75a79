//! The edge-server model in one screen: N viewers behind one edge,
//! shared tile cache vs independent sessions, crowd-driven prefetch,
//! admission control and graceful degradation.
//!
//! ```sh
//! cargo run --release --example edge_fleet
//! ```

use sperke_core::{run_edge_sweep, EdgeConfig, EdgeGrid, Sperke};
use sperke_sim::sweep::default_threads;
use sperke_sim::SimDuration;
use sperke_vra::AbrPolicyKind;

fn main() {
    // One traced run first: the builder surface, with the trace digest
    // proving the run is reproducible byte for byte.
    let report = Sperke::edge_builder(7)
        .clients(24)
        .duration(SimDuration::from_secs(12))
        .with_trace(sperke_core::TraceLevel::Events)
        .run_report();
    let r = &report.report;
    println!(
        "edge run: {} clients admitted, {} rejected",
        r.admitted, r.rejected
    );
    println!(
        "  egress {:.1} MB | origin {:.1} MB | cache hit rate {:.1}% | prefetches {}",
        r.egress_bytes as f64 / 1e6,
        r.origin_demand_bytes() as f64 / 1e6,
        100.0 * r.cache.hits as f64 / (r.cache.hits + r.cache.misses).max(1) as f64,
        r.cache.prefetches,
    );
    println!(
        "  viewport utility {:.2} | blank {:.1}% | QoE {:.2} | trace digest {:#018x}",
        r.mean_viewport_utility,
        r.mean_blank_fraction * 100.0,
        r.qoe_score,
        report.trace_digest(),
    );

    // The operator's question: what does the shared cache save as the
    // audience grows? Sweep clients × {no cache, 256 MiB cache}.
    let video = Sperke::edge_builder(7)
        .duration(SimDuration::from_secs(12))
        .build_video();
    let grid = EdgeGrid::new(EdgeConfig {
        max_clients: 128,
        ..Default::default()
    })
    .clients_axis(vec![8, 16, 32])
    .cache_axis(vec![0, 256 << 20]);
    let sweep = run_edge_sweep(&video, &grid, AbrPolicyKind::default(), default_threads());

    println!(
        "\n{:>8} {:>10} {:>12} {:>12} {:>8}",
        "clients", "cache", "originMB", "egressMB", "hit%"
    );
    for point in sweep.ok_results() {
        let c = &point.config;
        let r = &point.report;
        println!(
            "{:>8} {:>10} {:>12.1} {:>12.1} {:>8.1}",
            c.clients,
            if c.cache_bytes == 0 { "off" } else { "256MiB" },
            r.origin_demand_bytes() as f64 / 1e6,
            r.egress_bytes as f64 / 1e6,
            100.0 * r.cache.hits as f64 / (r.cache.hits + r.cache.misses).max(1) as f64,
        );
    }

    // Pair up the axis: cached origin traffic as a fraction of uncached.
    let points: Vec<_> = sweep.ok_results().collect();
    println!();
    for pair in points.chunks(2) {
        if let [uncached, cached] = pair {
            println!(
                "{:>3} clients: shared cache cuts origin egress to {:.0}% of independent sessions",
                cached.config.clients,
                100.0 * cached.report.origin_demand_bytes() as f64
                    / uncached.report.origin_demand_bytes().max(1) as f64,
            );
        }
    }
}
