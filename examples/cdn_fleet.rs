//! CDN-scale view: run a fleet of concurrent viewers against one origin
//! and compare FoV-guided tiling with full-panorama delivery — the §2
//! bandwidth story, summed over an audience.
//!
//! ```sh
//! cargo run --example cdn_fleet
//! ```

use sperke_core::{run_fleet, FleetConfig};
use sperke_sim::SimDuration;
use sperke_video::VideoModelBuilder;
use sperke_vra::AbrPolicyKind;

fn main() {
    let video = VideoModelBuilder::new(61)
        .duration(SimDuration::from_secs(20))
        .build();

    println!("Origin egress for a 20 s live event, by audience size");
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10}",
        "viewers", "guided MB", "panorama MB", "saving", "g-util"
    );
    for &n in &[10usize, 25, 50] {
        let guided = run_fleet(
            &video,
            &FleetConfig {
                viewers: n,
                egress_bps: 2e9,
                per_viewer_budget_bps: 10e6,
                fov_guided: true,
                ..Default::default()
            },
            AbrPolicyKind::default(),
            0,
        );
        let agnostic = run_fleet(
            &video,
            &FleetConfig {
                viewers: n,
                egress_bps: 2e9,
                per_viewer_budget_bps: 18e6, // affords the panorama at Q2
                fov_guided: false,
                ..Default::default()
            },
            AbrPolicyKind::default(),
            0,
        );
        println!(
            "{:>8} {:>12.0} {:>12.0} {:>9.0}% {:>10.2}",
            n,
            guided.egress_bytes as f64 / 1e6,
            agnostic.egress_bytes as f64 / 1e6,
            100.0 * (1.0 - guided.egress_bytes as f64 / agnostic.egress_bytes as f64),
            guided.mean_viewport_utility,
        );
    }

    println!();
    println!("Same 50-viewer audience when the origin only has 400 Mbps:");
    for (label, guided, budget) in [("guided", true, 10e6), ("panorama", false, 18e6)] {
        let r = run_fleet(
            &video,
            &FleetConfig {
                viewers: 50,
                egress_bps: 400e6,
                per_viewer_budget_bps: budget,
                fov_guided: guided,
                ..Default::default()
            },
            AbrPolicyKind::default(),
            0,
        );
        println!(
            "  {:<9} viewport utility {:.2}, blank {:>5.1} %, late streams {:>5.1} %",
            label,
            r.mean_viewport_utility,
            r.mean_blank_fraction * 100.0,
            r.late_stream_fraction * 100.0,
        );
    }
    println!();
    println!("Tiling turns per-viewer FoV savings into origin capacity: the same");
    println!("egress serves roughly twice the audience at better viewport quality.");
}
