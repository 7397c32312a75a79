//! §2 at CDN scale — aggregate server egress for a fleet of concurrent
//! viewers: FoV-guided tiling vs full-panorama delivery at matched
//! viewport quality.

use sperke_bench::{cols, header, note, row};
use sperke_core::{run_fleet, FleetConfig};
use sperke_sim::SimDuration;
use sperke_video::VideoModelBuilder;
use sperke_vra::AbrPolicyKind;

fn main() {
    header(
        "fleet",
        "server egress at scale: FoV-guided vs full panorama",
    );
    let video = VideoModelBuilder::new(61)
        .duration(SimDuration::from_secs(20))
        .build();
    cols(
        "viewers / delivery",
        &["egressMB", "Mbps", "vpUtil", "blank%", "late%"],
    );
    let mut pairs = Vec::new();
    for &n in &[5usize, 20, 50] {
        // Matched quality: agnostic gets the budget that affords Q2
        // panorama-wide; guided reaches comparable viewport quality
        // from a 10 Mbps budget.
        for (label, guided, budget) in [("guided", true, 10e6), ("agnostic", false, 18e6)] {
            let r = run_fleet(
                &video,
                &FleetConfig {
                    viewers: n,
                    egress_bps: 2e9, // uncongested: measure pure demand
                    per_viewer_budget_bps: budget,
                    fov_guided: guided,
                    ..Default::default()
                },
                AbrPolicyKind::default(),
                1,
            );
            row(
                &format!("{n} / {label}"),
                &[
                    r.egress_bytes as f64 / 1e6,
                    r.egress_bps / 1e6,
                    r.mean_viewport_utility,
                    r.mean_blank_fraction * 100.0,
                    r.late_stream_fraction * 100.0,
                ],
            );
            if guided {
                pairs.push((n, r.egress_bytes, 0u64));
            } else if let Some(last) = pairs.last_mut() {
                last.2 = r.egress_bytes;
            }
        }
    }
    note("egress demand scales linearly with viewers for both deliveries; the");
    note("guided fleet needs a fraction of the origin capacity for the same");
    note("viewport quality — the per-viewer §2 savings, summed at the CDN.");

    // Congestion story: at an egress sized for the guided fleet, the
    // agnostic fleet collapses.
    println!();
    cols(
        "50 viewers @ 400 Mbps egress",
        &["vpUtil", "blank%", "late%"],
    );
    for (label, guided, budget) in [("guided", true, 10e6), ("agnostic", false, 18e6)] {
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
            1,
        );
        row(
            label,
            &[
                r.mean_viewport_utility,
                r.mean_blank_fraction * 100.0,
                r.late_stream_fraction * 100.0,
            ],
        );
    }
    note("with the origin provisioned for tiled delivery, panorama-shipping");
    note("viewers saturate it and go blank.");

    for &(n, guided, agnostic) in &pairs {
        assert!(
            (guided as f64) < 0.75 * agnostic as f64,
            "{n} viewers: guided {guided} vs agnostic {agnostic}"
        );
    }
    println!("shape check: PASS");
}
