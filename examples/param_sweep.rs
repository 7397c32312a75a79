//! A Table-2-style parameter sweep in one call: fan a fleet grid of
//! egress bandwidth × delivery scheme across every CPU core, then print
//! the merged report — which is byte-identical to a serial run, so the
//! parallelism is free.
//!
//! ```sh
//! cargo run --release --example param_sweep
//! ```

use sperke_core::{run_fleet_sweep, FleetConfig, FleetGrid};
use sperke_sim::sweep::default_threads;
use sperke_sim::SimDuration;
use sperke_video::VideoModelBuilder;
use sperke_vra::AbrPolicyKind;

fn main() {
    let video = VideoModelBuilder::new(61)
        .duration(SimDuration::from_secs(15))
        .build();

    // The grid: four origin capacities × FoV-guided vs full panorama.
    let grid = FleetGrid::new(FleetConfig {
        viewers: 10,
        ..Default::default()
    })
    .egress_axis(vec![40e6, 80e6, 160e6, 320e6])
    .scheme_axis(vec![true, false]);

    let threads = default_threads();
    let report = run_fleet_sweep(&video, &grid, AbrPolicyKind::default(), threads);
    println!(
        "{}-point fleet sweep on {} worker thread(s)\n",
        report.len(),
        threads
    );

    println!(
        "{:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "egress", "scheme", "egressMB", "Mbps", "vpUtil", "late%"
    );
    for point in report.ok_results() {
        let c = &point.config;
        let r = &point.report;
        println!(
            "{:>8.0}Mb {:>10} {:>10.1} {:>8.1} {:>8.2} {:>8.1}",
            c.egress_bps / 1e6,
            if c.fov_guided { "guided" } else { "panorama" },
            r.egress_bytes as f64 / 1e6,
            r.egress_bps / 1e6,
            r.mean_viewport_utility,
            r.late_stream_fraction * 100.0,
        );
    }

    let utility = report.summary(|p| p.report.mean_viewport_utility);
    let late = report.summary(|p| p.report.late_stream_fraction);
    println!(
        "\nviewport utility across the grid: mean {:.2}, p50 {:.2}, range [{:.2}, {:.2}]",
        utility.mean, utility.p50, utility.min, utility.max
    );
    println!(
        "late-stream fraction: mean {:.1}%, worst point {:.1}%",
        late.mean * 100.0,
        late.max * 100.0
    );

    // The headline guarantee, demonstrated: the merged report carries no
    // fingerprint of the worker count.
    let serial = run_fleet_sweep(&video, &grid, AbrPolicyKind::default(), 1);
    assert_eq!(serial.to_jsonl(), report.to_jsonl());
    println!(
        "\nserial re-run digest {:#018x} == parallel digest {:#018x}: merges are",
        serial.digest(),
        report.digest()
    );
    println!("byte-identical at any thread count; only the wall clock changes.");
}
