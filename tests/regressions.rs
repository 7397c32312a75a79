//! Regression tests for bugs found (and fixed) while building the
//! system. Each test documents the failure mode so it stays fixed.

use sperke_core::Sperke;
use sperke_geo::TileGrid;
use sperke_hmp::{Behavior, FusedForecaster, Pose, ViewingContext};
use sperke_net::{BandwidthTrace, PathModel, PathQueue, Reliability};
use sperke_pipeline::{simulate_render, DeviceProfile, PipelineConfig, RenderMode, SourceVideo};
use sperke_sim::{SimDuration, SimRng, SimTime};

/// BUG: context pruning used to cut tiles whose *centre* lay beyond the
/// pose's reachable yaw range. A sitting viewer pinned at the ±120°
/// limit still *sees* ~50° past it, so half their viewport was never
/// fetched — sessions showed a persistent 50 % blank screen.
/// FIX: the prune limit extends by the viewport half-width.
#[test]
fn context_prune_keeps_the_viewport_at_the_pose_limit() {
    let grid = TileGrid::new(4, 6);
    let ctx = ViewingContext {
        pose: Pose::Sitting,
        ..Default::default()
    };
    let f = FusedForecaster::motion_only().with_context(ctx, 0.0);
    // Gaze parked exactly at the sitting yaw limit.
    let at_limit = sperke_geo::Orientation::from_degrees(-120.0, -20.0, 0.0);
    let history = vec![(SimTime::from_secs(1), at_limit)];
    let fc = f.forecast(
        &grid,
        &history,
        SimTime::from_secs(1),
        SimTime::from_secs(2),
        sperke_video::ChunkTime(2),
    );
    // Every tile the viewport actually shows must stay probable.
    let vp = sperke_geo::Viewport::headset(at_limit);
    for tile in vp.visible_tile_set(&grid) {
        assert!(
            fc.prob(tile) > 0.3,
            "visible tile {tile} pruned to {:.3}",
            fc.prob(tile)
        );
    }
}

/// BUG: nothing capped the prefetch depth, so fast links let the buffer
/// (and with it the HMP horizon) grow without bound; the forecast
/// blurred until the "FoV" was the whole panorama and savings vanished.
/// FIX: `PlayerConfig::max_buffer` throttles fetching.
#[test]
fn fast_links_do_not_blur_the_fov() {
    let guided = Sperke::builder(77)
        .duration(SimDuration::from_secs(15))
        .behavior(Behavior::Still)
        .single_link(80e6) // grossly overprovisioned
        .run();
    let agnostic = Sperke::builder(77)
        .duration(SimDuration::from_secs(15))
        .behavior(Behavior::Still)
        .single_link(80e6)
        .fov_agnostic()
        .run();
    assert!(
        (guided.qoe.bytes_fetched as f64) < 0.85 * agnostic.qoe.bytes_fetched as f64,
        "guided {} must stay well under agnostic {} even with bandwidth to burn",
        guided.qoe.bytes_fetched,
        agnostic.qoe.bytes_fetched
    );
}

/// BUG: every tile transfer paid a full RTT + slow-start ramp, so a
/// 24-tile chunk burned ~0.7 s in request latency alone and per-chunk
/// goodput samples were RTT-bound — the estimator reported a fraction of
/// the link and quality never climbed.
/// FIX: back-to-back transfers pipeline over a warm connection.
#[test]
fn warm_connections_pipeline_small_transfers() {
    let mut q = PathQueue::new(
        PathModel::new(
            "wifi",
            BandwidthTrace::constant(25e6),
            SimDuration::from_millis(15),
            0.0,
        ),
        SimRng::new(1),
    );
    // 24 tile fetches of 20 kB each, submitted together.
    let mut last = SimTime::ZERO;
    for _ in 0..24 {
        last = q
            .submit(20_000, SimTime::ZERO, Reliability::Reliable)
            .finished;
    }
    // Bulk time: 480 kB at 25 Mbps ≈ 0.154 s; only the first transfer
    // pays latency. With per-request RTTs this would exceed 0.5 s.
    assert!(
        last.as_secs_f64() < 0.25,
        "24 pipelined tile fetches took {:.3} s",
        last.as_secs_f64()
    );
}

/// BUG: prefetched frames were marked cache-resident at *submit* time,
/// so decoder capacity never gated the render loop — one decoder
/// rendered as fast as eight.
/// FIX: cache hits also wait for the decode completion time.
#[test]
fn decoder_capacity_gates_the_render_loop() {
    let trace = sperke_hmp::HeadTrace::from_fn(SimDuration::from_secs(6), |_| {
        sperke_geo::Orientation::FRONT
    });
    let fps = |n: usize| {
        simulate_render(
            &DeviceProfile::galaxy_s7().with_decoders(n),
            SourceVideo::two_k(),
            &TileGrid::sperke_prototype(),
            &trace,
            RenderMode::OptimizedAll,
            &PipelineConfig::default(),
            SimDuration::from_secs(4),
        )
        .fps
    };
    let one = fps(1);
    let eight = fps(8);
    assert!(
        one < eight / 4.0,
        "one decoder ({one:.1} fps) cannot keep up with eight ({eight:.1} fps)"
    );
}

/// BUG: the crowd prior was blended as a convex average, so a *certain*
/// motion prediction (p=1) was diluted to the crowd mean and the FoV
/// threshold excluded the viewer's own gaze tiles.
/// FIX: noisy-OR combination — the prior can only lift probabilities.
#[test]
fn crowd_prior_never_suppresses_motion_evidence() {
    let grid = TileGrid::new(4, 6);
    let traces: Vec<sperke_hmp::HeadTrace> = (0..5)
        .map(|_| {
            sperke_hmp::HeadTrace::from_fn(SimDuration::from_secs(4), |_| {
                sperke_geo::Orientation::from_degrees(180.0, 0.0, 0.0)
            })
        })
        .collect();
    let map = sperke_hmp::Heatmap::build(grid, SimDuration::from_secs(1), 4, &traces);
    let plain = FusedForecaster::motion_only();
    let with_prior = FusedForecaster::motion_only().with_heatmap(map);
    let history = vec![(SimTime::from_secs(1), sperke_geo::Orientation::FRONT)];
    let target = SimTime::from_secs(3); // long horizon: prior at max weight
    let front_tile = grid.tile_of_direction(sperke_geo::Vec3::X);
    let p_plain = plain
        .forecast(
            &grid,
            &history,
            SimTime::from_secs(1),
            target,
            sperke_video::ChunkTime(3),
        )
        .prob(front_tile);
    let p_prior = with_prior
        .forecast(
            &grid,
            &history,
            SimTime::from_secs(1),
            target,
            sperke_video::ChunkTime(3),
        )
        .prob(front_tile);
    assert!(
        p_prior >= p_plain - 1e-9,
        "prior diluted the gaze tile: {p_prior:.3} < {p_plain:.3}"
    );
}
