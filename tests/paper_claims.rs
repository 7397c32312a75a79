//! The paper's quantified claims, as executable assertions. Each test
//! mirrors one experiment of EXPERIMENTS.md with a fast configuration.

use sperke_core::Sperke;
use sperke_geo::{PixelBudget, TileGrid};
use sperke_hmp::{generate_ensemble, AttentionModel, FusedForecaster, HeadTrace};
use sperke_live::{
    plan_upload, run_live, viewer_experience, InterestProfile, LiveRunConfig, NetworkCondition,
    PlatformProfile, UploadStrategy,
};
use sperke_net::{BandwidthTrace, PathModel, PathQueue, SinglePath};
use sperke_pipeline::{figure5, DeviceProfile, SourceVideo};
use sperke_player::{run_session, PlannerKind, PlayerConfig};
use sperke_sim::{SimDuration, SimRng, SimTime};
use sperke_video::{Quality, VideoModelBuilder};
use sperke_vra::{FixedQuality, SperkeConfig};

/// Table 2, base row: FB < Periscope < YouTube, all several seconds.
#[test]
fn table2_base_latency_ordering() {
    let cfg = LiveRunConfig::default();
    let cond = NetworkCondition {
        up_cap_bps: None,
        down_cap_bps: None,
    };
    let fb = run_live(&PlatformProfile::facebook(), cond, &cfg).mean_latency_s;
    let ps = run_live(&PlatformProfile::periscope(), cond, &cfg).mean_latency_s;
    let yt = run_live(&PlatformProfile::youtube(), cond, &cfg).mean_latency_s;
    assert!(fb < ps && ps < yt, "{fb:.1} / {ps:.1} / {yt:.1}");
    assert!((fb - 9.2).abs() < 3.0, "facebook {fb:.1} vs paper 9.2");
    assert!((ps - 12.4).abs() < 3.5, "periscope {ps:.1} vs paper 12.4");
    assert!((yt - 22.2).abs() < 5.0, "youtube {yt:.1} vs paper 22.2");
}

/// Table 2, starved rows: latency inflates sharply at 0.5 Mbps and the
/// non-adaptive platform suffers most on the downlink.
#[test]
fn table2_degradation_shape() {
    let cfg = LiveRunConfig::default();
    let base = NetworkCondition {
        up_cap_bps: None,
        down_cap_bps: None,
    };
    let bad_down = NetworkCondition {
        up_cap_bps: None,
        down_cap_bps: Some(0.5e6),
    };
    for p in PlatformProfile::all() {
        let b = run_live(&p, base, &cfg).mean_latency_s;
        let d = run_live(&p, bad_down, &cfg).mean_latency_s;
        assert!(d > b + 2.0, "{}: {b:.1} -> {d:.1}", p.name);
    }
    let ps = run_live(&PlatformProfile::periscope(), bad_down, &cfg).mean_latency_s;
    let yt = run_live(&PlatformProfile::youtube(), bad_down, &cfg).mean_latency_s;
    assert!(
        ps > yt,
        "non-adaptive Periscope must degrade worse than YouTube"
    );
}

/// Figure 5: 11 → 53 → 120 FPS shape.
#[test]
fn figure5_fps_shape() {
    let trace = HeadTrace::from_fn(SimDuration::from_secs(10), |t| {
        sperke_geo::Orientation::new(0.25 * t.as_secs_f64(), 0.0, 0.0)
    });
    let results = figure5(
        &DeviceProfile::galaxy_s7(),
        SourceVideo::two_k(),
        &TileGrid::sperke_prototype(),
        &trace,
        SimDuration::from_secs(6),
    );
    let fps: Vec<f64> = results.iter().map(|(_, s)| s.fps).collect();
    assert!(
        (8.0..16.0).contains(&fps[0]),
        "bar 1 ≈ 11, got {:.1}",
        fps[0]
    );
    assert!(
        (40.0..70.0).contains(&fps[1]),
        "bar 2 ≈ 53, got {:.1}",
        fps[1]
    );
    assert!(
        (85.0..180.0).contains(&fps[2]),
        "bar 3 ≈ 120, got {:.1}",
        fps[2]
    );
}

/// §2: tiling saves ≥45 % of bandwidth at matched quality with a short
/// prefetch horizon.
#[test]
fn tiling_savings_claim() {
    let video = VideoModelBuilder::new(31)
        .duration(SimDuration::from_secs(30))
        .build();
    let trace = Sperke::builder(31).build_trace();
    let mk_paths = || {
        vec![PathQueue::new(
            PathModel::new(
                "lab",
                BandwidthTrace::constant(60e6),
                SimDuration::from_millis(20),
                0.0,
            ),
            SimRng::new(1),
        )]
    };
    let run = |planner: PlannerKind| {
        run_session(
            &video,
            &trace,
            mk_paths(),
            Box::new(SinglePath(0)),
            Box::new(FixedQuality(Quality(2))),
            &FusedForecaster::motion_only(),
            &PlayerConfig {
                planner,
                max_buffer: SimDuration::from_secs(1),
                ..Default::default()
            },
        )
    };
    let guided = run(PlannerKind::Sperke(SperkeConfig::default()));
    let agnostic = run(PlannerKind::FovAgnostic);
    let saving = 1.0 - guided.qoe.bytes_fetched as f64 / agnostic.qoe.bytes_fetched as f64;
    assert!(
        saving > 0.45,
        "paper cites 45-80% savings; measured {:.0}%",
        saving * 100.0
    );
    assert!(
        guided.qoe.mean_blank_fraction < 0.08,
        "savings must not come from blanking the screen (blank {:.1}%)",
        guided.qoe.mean_blank_fraction * 100.0
    );
}

/// §1: 360° video ≈ 4–5× a conventional video at matched quality.
#[test]
fn size_ratio_claim() {
    let ratio = PixelBudget::headset().size_ratio(1920, 1080);
    assert!((3.5..5.5).contains(&ratio), "got {ratio:.2}");
}

/// §3.4.2: spatial fall-back beats quality-only for stage content under
/// a constrained uplink.
#[test]
fn spatial_fallback_claim() {
    let audience = generate_ensemble(&AttentionModel::stage(9), 10, SimDuration::from_secs(15), 5);
    let interest = InterestProfile::from_traces(&audience, SimTime::from_secs(7));
    let q = plan_upload(UploadStrategy::QualityOnly, 4e6, 1.6e6, &interest, 1.0);
    let s = plan_upload(UploadStrategy::SpatialFallback, 4e6, 1.6e6, &interest, 1.0);
    let dur = SimDuration::from_secs(15);
    assert!(
        viewer_experience(&s, &audience, dur).mean_quality
            > viewer_experience(&q, &audience, dur).mean_quality
    );
}

/// §2: the versioning alternative's server cost — 88 Oculus-style
/// versions dwarf one tiled copy.
#[test]
fn versioning_storage_claim() {
    use sperke_video::{StorageComparison, VersionedStore};
    let video = VideoModelBuilder::new(9)
        .duration(SimDuration::from_secs(6))
        .build();
    let store = VersionedStore::oculus(video.clone());
    assert_eq!(store.versions(), 88, "the paper's Oculus figure");
    let cmp = StorageComparison::compute(&video, &store, true);
    assert!(
        cmp.ratio() > 5.0,
        "versioning/tiling ratio {:.1}",
        cmp.ratio()
    );
}

/// §3: "one or two seconds" is the right chunk duration — shorter pays
/// a steep keyframe tax, longer starves HMP corrections.
#[test]
fn chunk_duration_sweet_spot() {
    use sperke_video::SegmenterModel;
    let m = SegmenterModel::default();
    let f = |s: f64| m.bitrate_factor(SimDuration::from_secs_f64(s));
    assert!(
        f(0.5) > f(1.0) && f(1.0) > f(2.0),
        "keyframe tax falls with duration"
    );
    assert!(
        f(0.5) / f(1.0) > 1.2,
        "sub-second chunks pay >20% extra bitrate"
    );
    assert!(f(4.0) < 1.01, "at the natural GoP the tax vanishes");
    // Correction opportunities halve from 1 s to 2 s chunks.
    assert_eq!(
        m.corrections_per_second(SimDuration::from_secs(1)),
        2.0 * m.corrections_per_second(SimDuration::from_secs(2))
    );
}

/// §3.1.1: with SVC, correcting an HMP miss costs strictly fewer bytes
/// than re-downloading under AVC, across the whole video.
#[test]
fn svc_delta_cheaper_everywhere() {
    use sperke_video::Scheme;
    let video = VideoModelBuilder::new(17)
        .duration(SimDuration::from_secs(10))
        .build();
    for t in video.chunk_times() {
        for tile in video.grid().tiles() {
            let sizes = video.cell_sizes(tile, t);
            let svc = sizes.upgrade_cost(Scheme::svc_default(), Quality(0), Quality(2));
            let avc = sizes.upgrade_cost(Scheme::Avc, Quality(0), Quality(2));
            assert!(svc < avc, "tile {tile} t {t:?}: svc {svc} vs avc {avc}");
        }
    }
}
