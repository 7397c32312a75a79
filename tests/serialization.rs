//! Cross-crate serialization tests: the on-disk formats the §3.2 study
//! depends on (head traces, manifests, reports) survive round trips.

use sperke_geo::{TileGrid, TileId};
use sperke_hmp::{AttentionModel, Behavior, HeadTrace, TraceGenerator, ViewingContext};
use sperke_sim::SimDuration;
use sperke_video::{
    ChunkId, ChunkTime, Ladder, Mpd, Quality, Scheme, VideoModel, VideoModelBuilder,
};

#[test]
fn head_trace_json_roundtrip_preserves_playback() {
    let trace = TraceGenerator::new(
        AttentionModel::generic(4),
        Behavior::Focused,
        ViewingContext::default(),
    )
    .generate(SimDuration::from_secs(5), 11);
    let json = trace.to_json();
    let back = HeadTrace::from_json(&json).expect("parses");
    assert_eq!(back.len(), trace.len());
    assert_eq!(back.context, trace.context);
    // Interpolated playback must agree within float-print precision.
    for ms in (0..5000).step_by(137) {
        let t = sperke_sim::SimTime::from_millis(ms);
        assert!(trace.at(t).angular_distance(&back.at(t)) < 1e-6);
    }
}

#[test]
fn mpd_roundtrips_for_both_schemes() {
    let video = VideoModelBuilder::new(3)
        .duration(SimDuration::from_secs(6))
        .build();
    for scheme in [Scheme::Avc, Scheme::svc_default()] {
        let mpd = Mpd::vod("clip", &video, scheme);
        let back = Mpd::from_json(&mpd.to_json()).expect("parses");
        assert_eq!(mpd, back);
    }
}

/// The model's JSON from before sizes were tabulated: the size table is
/// derived data and must never reach it.
const VIDEO_JSON: &str = concat!(
    r#"{"grid":{"rows":1,"cols":2},"ladder":{"rungs":[{"name":"720p","bitrate_bps":8000000.0,"#,
    r#""height":720},{"name":"1080p","bitrate_bps":16000000.0,"height":1080}]},"#,
    r#""chunk_duration":1000000000,"duration":2500000000,"fps":30.0,"svc_overhead":0.1,"#,
    r#""tile_weights":[0.470399881991465,0.5296001180085349],"jitter":0.15,"seed":5}"#,
);

#[test]
fn video_model_json_skips_the_size_table_and_refills_it() {
    let video = VideoModelBuilder::new(5)
        .grid(TileGrid::new(1, 2))
        .ladder(Ladder::facebook_live())
        .duration(SimDuration::from_millis(2500))
        .build();
    assert_eq!(serde_json::to_string(&video).unwrap(), VIDEO_JSON);
    // Filling the tables on size queries leaves the JSON unchanged.
    let id = ChunkId::new(Quality(1), TileId(1), ChunkTime(2));
    assert!(video.chunk_bytes(id, Scheme::Avc) > 0);
    assert!(video.chunk_bytes(id, Scheme::svc_default()) > 0);
    assert_eq!(serde_json::to_string(&video).unwrap(), VIDEO_JSON);
    // A deserialized model refills its own tables to the same sizes.
    let back: VideoModel = serde_json::from_str(VIDEO_JSON).expect("parses");
    for t in back.chunk_times() {
        for tile in back.grid().tiles() {
            assert_eq!(back.cell_sizes(tile, t), video.cell_sizes(tile, t));
        }
        let svc = Scheme::svc_default();
        assert_eq!(back.chunk_costs(t, svc), video.chunk_costs(t, svc));
    }
    assert_eq!(serde_json::to_string(&back).unwrap(), VIDEO_JSON);
}

#[test]
fn qoe_report_serializes() {
    let result = sperke_core::Sperke::builder(2)
        .duration(SimDuration::from_secs(5))
        .run();
    let json = serde_json::to_string(&result.qoe).expect("serializes");
    let back: sperke_player::QoeReport = serde_json::from_str(&json).expect("parses");
    assert_eq!(result.qoe, back);
}

#[test]
fn live_result_serializes() {
    use sperke_live::{run_live, LiveRunConfig, NetworkCondition, PlatformProfile};
    let r = run_live(
        &PlatformProfile::facebook(),
        NetworkCondition {
            up_cap_bps: None,
            down_cap_bps: None,
        },
        &LiveRunConfig {
            duration: SimDuration::from_secs(30),
            ..Default::default()
        },
    );
    let json = serde_json::to_string(&r).expect("serializes");
    let back: sperke_live::LiveRunResult = serde_json::from_str(&json).expect("parses");
    assert_eq!(r.segment_latencies.len(), back.segment_latencies.len());
}
