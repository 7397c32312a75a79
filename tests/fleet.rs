//! Direct coverage for `core::fleet` — the multi-viewer server-side
//! experiment: capacity enforcement, the §2 egress-saving claim at
//! fleet scale, and seed determinism of the default configuration.

use sperke_core::{run_fleet, FleetConfig, FleetReport};
use sperke_sim::SimDuration;
use sperke_video::{VideoModel, VideoModelBuilder};
use sperke_vra::AbrPolicyKind;

fn video() -> VideoModel {
    VideoModelBuilder::new(17)
        .duration(SimDuration::from_secs(10))
        .build()
}

/// The default policy on one sense worker.
fn run_default(video: &VideoModel, config: &FleetConfig) -> FleetReport {
    run_fleet(video, config, AbrPolicyKind::default(), 1)
}

/// The shared egress link is a hard capacity: whatever the demand, the
/// session-mean egress rate can never exceed `egress_bps`.
#[test]
fn aggregate_egress_never_exceeds_capacity() {
    let v = video();
    for (viewers, egress_bps) in [(6usize, 30e6), (12, 60e6), (20, 25e6)] {
        let report = run_default(
            &v,
            &FleetConfig {
                viewers,
                egress_bps,
                ..Default::default()
            },
        );
        assert!(
            report.egress_bps <= egress_bps * 1.0001,
            "{viewers} viewers through a {:.0} Mbps link drove {:.1} Mbps mean egress",
            egress_bps / 1e6,
            report.egress_bps / 1e6,
        );
        assert!(report.egress_bytes > 0, "the link did carry traffic");
    }
}

/// At an equal-QoE configuration (the agnostic fleet gets the larger
/// budget that affords comparable viewport quality), FoV-guided
/// delivery strictly beats full-panorama delivery on egress bytes.
#[test]
fn fov_guided_strictly_beats_full_panorama_on_egress() {
    let v = video();
    let base = FleetConfig {
        viewers: 8,
        egress_bps: 1e9,
        ..Default::default()
    };
    let guided = run_default(
        &v,
        &FleetConfig {
            fov_guided: true,
            per_viewer_budget_bps: 10e6,
            ..base
        },
    );
    let agnostic = run_default(
        &v,
        &FleetConfig {
            fov_guided: false,
            per_viewer_budget_bps: 18e6,
            ..base
        },
    );
    assert!(
        guided.mean_viewport_utility >= agnostic.mean_viewport_utility - 0.15,
        "equal-QoE premise holds: guided {:.2} vs agnostic {:.2}",
        guided.mean_viewport_utility,
        agnostic.mean_viewport_utility,
    );
    assert!(
        guided.egress_bytes < agnostic.egress_bytes,
        "guided egress {} must be strictly below agnostic {}",
        guided.egress_bytes,
        agnostic.egress_bytes,
    );
}

/// `FleetConfig::default()` outcomes are a pure function of the seed:
/// same seed → identical report, different seed → different traffic.
#[test]
fn default_config_outcomes_are_seed_deterministic() {
    let v = video();
    let run = |seed: u64| -> FleetReport {
        run_default(
            &v,
            &FleetConfig {
                seed,
                ..Default::default()
            },
        )
    };
    let a = run(FleetConfig::default().seed);
    let b = run(FleetConfig::default().seed);
    assert_eq!(a, b, "same seed, byte-equal report");

    let other = run(FleetConfig::default().seed + 1);
    assert_ne!(
        a, other,
        "a different seed reshuffles viewer behaviour and the traffic it drives"
    );
}

/// Late streams are accounted within [0, 1] and congestion only ever
/// increases them (sanity envelope for the congestion metrics).
#[test]
fn late_fraction_stays_a_fraction_and_grows_under_pressure() {
    let v = video();
    let ample = run_default(
        &v,
        &FleetConfig {
            viewers: 8,
            egress_bps: 500e6,
            ..Default::default()
        },
    );
    let tight = run_default(
        &v,
        &FleetConfig {
            viewers: 8,
            egress_bps: 20e6,
            ..Default::default()
        },
    );
    for r in [&ample, &tight] {
        assert!((0.0..=1.0).contains(&r.late_stream_fraction));
        assert!((0.0..=1.0).contains(&r.mean_blank_fraction));
    }
    assert!(tight.late_stream_fraction >= ample.late_stream_fraction);
}
