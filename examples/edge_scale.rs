//! Nightly edge scale harness: a large client population swept over
//! several seeds on the edge engine, re-run on 1, 2 and 8 workers,
//! asserting the merged sweep reports are byte-identical — the
//! determinism contract the edge model makes at scale — and
//! cross-checked against the per-event oracle, run once per grid point
//! through the same sweep harness, which must land on the very same
//! bytes.
//!
//! The client count is env-tunable so CI can run the full load while
//! local smoke runs stay quick:
//!
//! ```sh
//! EDGE_SCALE_CLIENTS=1000 cargo run --release --example edge_scale
//! ```

use sperke_core::{run_edge_sweep, EdgeConfig, EdgeGrid, EdgeHarness, EdgeSweepPoint, Sperke};
use sperke_edge::default_clients;
use sperke_edge::oracle::run_edge_full;
use sperke_sim::sweep::run_sweep;
use sperke_sim::SimDuration;
use sperke_vra::AbrPolicyKind;

fn main() {
    let clients: usize = std::env::var("EDGE_SCALE_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let secs: u64 = std::env::var("EDGE_SCALE_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);

    let base = EdgeConfig {
        clients,
        max_clients: clients.max(64).next_power_of_two(),
        ..Default::default()
    };
    let video = Sperke::edge_builder(base.seed)
        .duration(SimDuration::from_secs(secs))
        .build_video();
    let grid = EdgeGrid::new(base).seed_axis(vec![7, 41, 1013]);

    println!(
        "edge scale: {} clients x {} seeds on a {} s video",
        clients,
        grid.seeds.len(),
        secs
    );

    let mut digests = Vec::new();
    for workers in [1usize, 2, 8] {
        let report = run_edge_sweep(&video, &grid, AbrPolicyKind::default(), workers);
        println!(
            "  workers={} -> {} points, digest {:#018x}",
            workers,
            report.len(),
            report.digest()
        );
        digests.push((report.digest(), report.to_jsonl()));
    }

    let (d0, jsonl0) = &digests[0];
    for (d, jsonl) in &digests[1..] {
        assert_eq!(d, d0, "sweep digest must not depend on worker count");
        assert_eq!(jsonl, jsonl0, "sweep bytes must not depend on worker count");
    }

    // The per-event engine is the oracle: same grid, same bytes.
    let oracle = run_sweep(&grid.plan(), 2, |_index, config| EdgeSweepPoint {
        config: *config,
        report: run_edge_full(
            &video,
            config,
            &default_clients(config),
            &EdgeHarness::default(),
            None,
        ),
    });
    assert_eq!(
        &oracle.digest(),
        d0,
        "the engine must match the oracle's digest at scale"
    );
    assert_eq!(
        &oracle.to_jsonl(),
        jsonl0,
        "the engine must match the oracle's bytes at scale"
    );

    for point in oracle.ok_results() {
        let r = &point.report;
        println!(
            "  seed {:>5}: admitted {:>4} | origin {:>8.1} MB | hit rate {:>5.1}% | utility {:.2}",
            point.config.seed,
            r.admitted,
            r.origin_demand_bytes() as f64 / 1e6,
            100.0 * r.cache.hits as f64 / (r.cache.hits + r.cache.misses).max(1) as f64,
            r.mean_viewport_utility,
        );
        assert_eq!(
            r.origin_demand_bytes(),
            r.cache.miss_bytes + r.cache.prefetch_bytes,
            "byte balance must hold at scale"
        );
    }

    println!("ok: byte-identical across 1/2/8 workers and vs the oracle");
}
