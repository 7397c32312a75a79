//! Cross-crate integration tests: the full stack wired together through
//! the `sperke-core` builder.

use sperke_core::{AbrChoice, SchedulerChoice, Sperke, TraceLevel};
use sperke_hmp::{Behavior, Pose, ViewingContext};
use sperke_sim::SimDuration;
use sperke_video::Ladder;

#[test]
fn full_matrix_of_configurations_runs() {
    // Every (behavior × abr × scheduler) combination must produce a
    // sane session: all chunks displayed, bytes moved, no NaN anywhere.
    for behavior in [Behavior::Still, Behavior::Focused, Behavior::Explorer] {
        for abr in [AbrChoice::RateBased, AbrChoice::BufferBased, AbrChoice::Mpc] {
            for sched in [SchedulerChoice::SinglePath, SchedulerChoice::ContentAware] {
                let r = Sperke::builder(3)
                    .duration(SimDuration::from_secs(8))
                    .behavior(behavior)
                    .wifi_plus_lte()
                    .scheduler(sched)
                    .abr(abr)
                    .run();
                assert_eq!(r.qoe.chunks, 8, "{behavior:?}/{abr:?}/{sched:?}");
                assert!(r.qoe.bytes_fetched > 0);
                assert!(r.qoe.mean_viewport_utility.is_finite());
                assert!(r.qoe.score.is_finite());
                assert!((0.0..=1.0).contains(&r.qoe.mean_blank_fraction));
            }
        }
    }
}

#[test]
fn whole_stack_is_seed_deterministic() {
    let run = || {
        Sperke::builder(77)
            .duration(SimDuration::from_secs(12))
            .behavior(Behavior::Explorer)
            .wifi_plus_lte()
            .scheduler(SchedulerChoice::ContentAware)
            .with_crowd(5)
            .with_speed_bound()
            .with_trace(TraceLevel::Verbose)
            .run_report()
    };
    let a = run();
    let b = run();
    assert_eq!(a.session.qoe, b.session.qoe);
    assert_eq!(a.session.records, b.session.records);
    assert_eq!(a.session.path_bytes, b.session.path_bytes);
    assert_eq!(a.session.upgrades_applied, b.session.upgrades_applied);
    // The trace layer inherits the determinism: identical seeds at the
    // same level must export byte-identical JSONL and equal digests.
    assert!(!a.trace.is_empty(), "verbose trace captured events");
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "byte-identical JSONL export");
    assert_eq!(a.trace_digest(), b.trace_digest());
}

#[test]
fn different_seeds_produce_different_sessions() {
    let r1 = Sperke::builder(1)
        .duration(SimDuration::from_secs(10))
        .run();
    let r2 = Sperke::builder(2)
        .duration(SimDuration::from_secs(10))
        .run();
    assert_ne!(
        r1.qoe.bytes_fetched, r2.qoe.bytes_fetched,
        "different seeds should stream different content/gaze"
    );
}

#[test]
fn more_bandwidth_never_hurts_quality_much() {
    // Across a bandwidth sweep, viewport utility must be (weakly)
    // monotone up to small noise.
    let util = |bps: f64| {
        Sperke::builder(5)
            .duration(SimDuration::from_secs(20))
            .single_link(bps)
            .run()
            .qoe
            .mean_viewport_utility
    };
    let low = util(4e6);
    let mid = util(12e6);
    let high = util(40e6);
    assert!(mid >= low - 0.2, "mid {mid} vs low {low}");
    assert!(high >= mid - 0.2, "high {high} vs mid {mid}");
    assert!(high > low, "bandwidth must buy quality: {low} -> {high}");
}

#[test]
fn starved_link_forces_low_quality_not_collapse() {
    let r = Sperke::builder(6)
        .duration(SimDuration::from_secs(15))
        .single_link(1.2e6)
        .run();
    assert_eq!(r.qoe.chunks, 15, "the session must complete");
    assert!(
        r.qoe.mean_viewport_utility < 0.5,
        "must sit near base quality"
    );
}

#[test]
fn lying_viewer_context_threads_through() {
    // A lying viewer's plans must never fetch tiles behind them: the
    // context pruning flows from ViewingContext through the forecaster
    // into the planner's tile selection.
    #[allow(unused_imports)]
    use sperke_hmp::FusedForecaster;
    use sperke_sim::SimTime;
    use sperke_video::{ChunkTime, Quality};
    use sperke_vra::{PlanInput, RateBased, SperkeConfig, SperkeVra};

    let exp = Sperke::builder(8)
        .duration(SimDuration::from_secs(15))
        .context(ViewingContext {
            pose: Pose::Lying,
            ..Default::default()
        });
    let video = exp.build_video();
    let ctx = ViewingContext {
        pose: Pose::Lying,
        ..Default::default()
    };
    let forecaster = FusedForecaster::motion_only().with_context(ctx, 0.0);
    let history = vec![(SimTime::ZERO, sperke_geo::Orientation::FRONT)];
    let forecast = forecaster.forecast(
        video.grid(),
        &history,
        SimTime::ZERO,
        SimTime::from_secs(2),
        ChunkTime(1),
    );
    let mut vra = SperkeVra::new(Box::new(RateBased::default()), SperkeConfig::default());
    let plan = vra.plan(&PlanInput {
        video: &video,
        forecast: &forecast,
        time: ChunkTime(1),
        now: SimTime::ZERO,
        buffer: SimDuration::from_secs(2),
        bandwidth_bps: Some(40e6),
        measured_bps: None,
        last_quality: Quality(1),
    });
    assert!(!plan.fetches.is_empty());
    for fetch in &plan.fetches {
        let center = video.grid().tile_center(fetch.chunk.tile);
        let yaw = center.y.atan2(center.x);
        assert!(
            ctx.yaw_reachable(yaw) || fetch.probability <= 0.06,
            "rear tile {} planned with p={:.2}",
            fetch.chunk.tile,
            fetch.probability
        );
    }
}

#[test]
fn custom_ladder_is_respected() {
    let ladder = Ladder::youtube_live();
    let r = Sperke::builder(9)
        .duration(SimDuration::from_secs(8))
        .ladder(ladder.clone())
        .single_link(50e6)
        .run();
    // fov_quality values recorded per chunk must stay within the ladder.
    for rec in &r.records {
        assert!((rec.fov_quality as usize) < ladder.levels());
    }
}

#[test]
fn upgrades_require_svc_capable_planner() {
    use sperke_player::{PlannerKind, PlayerConfig};
    use sperke_vra::{EncodingPolicy, SperkeConfig};
    let mut player = PlayerConfig {
        planner: PlannerKind::Sperke(SperkeConfig {
            encoding: EncodingPolicy::SvcOnly,
            ..Default::default()
        }),
        ..Default::default()
    };
    let svc = Sperke::builder(10)
        .duration(SimDuration::from_secs(20))
        .behavior(Behavior::Explorer)
        .single_link(60e6)
        .player(player.clone())
        .run();
    player.upgrades_enabled = false;
    let disabled = Sperke::builder(10)
        .duration(SimDuration::from_secs(20))
        .behavior(Behavior::Explorer)
        .single_link(60e6)
        .player(player)
        .run();
    assert!(svc.upgrades_applied > 0);
    assert_eq!(disabled.upgrades_applied, 0);
}
