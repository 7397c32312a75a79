//! Criterion micro-benchmarks for the hot paths of the Sperke stack:
//! geometry (tile mapping, viewport sampling), the event queue, the
//! forecaster, and the multipath scheduler.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sperke_geo::{Orientation, TileGrid, Viewport, VisibilityCache, VisibilityScratch};
use sperke_hmp::FusedForecaster;
use sperke_net::{
    ChunkPriority, ChunkRequest, ContentAware, MultipathScheduler, PathModel, PathQueue,
};
use sperke_sim::trace::{TraceEvent, TraceLevel, TraceSink};
use sperke_sim::{EventQueue, SimDuration, SimRng, SimTime};
use sperke_video::ChunkTime;

fn bench_geometry(c: &mut Criterion) {
    let grid = TileGrid::new(4, 6);
    let o = Orientation::from_degrees(37.0, 12.0, 3.0);
    c.bench_function("geo/tile_of_direction", |b| {
        let d = o.direction();
        b.iter(|| std::hint::black_box(grid.tile_of_direction(std::hint::black_box(d))))
    });
    c.bench_function("geo/visible_tiles_16x16", |b| {
        let vp = Viewport::headset(o);
        b.iter(|| std::hint::black_box(vp.visible_tiles(&grid, 16)))
    });
    c.bench_function("geo/visible_tiles_16x16_scratch", |b| {
        let vp = Viewport::headset(o);
        let mut scratch = VisibilityScratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            vp.visible_tiles_into(&grid, 16, &mut scratch, &mut out);
            std::hint::black_box(out.len())
        })
    });
    c.bench_function("geo/visible_tiles_16x16_cached_hit", |b| {
        let vp = Viewport::headset(o);
        let cache = VisibilityCache::new(16);
        cache.visible_tiles(&vp, &grid, 16); // warm the single entry
        b.iter(|| std::hint::black_box(cache.visible_tiles(&vp, &grid, 16)))
    });
    c.bench_function("geo/visible_tiles_16x16_cached_miss", |b| {
        // Cache overhead on a guaranteed miss: cleared before each query.
        let vp = Viewport::headset(o);
        let cache = VisibilityCache::new(16);
        b.iter(|| {
            cache.clear();
            std::hint::black_box(cache.visible_tiles(&vp, &grid, 16))
        })
    });
    c.bench_function("geo/tile_coverage_24", |b| {
        let vp = Viewport::headset(o);
        let tile = grid.tile_of_direction(o.direction());
        b.iter(|| std::hint::black_box(vp.tile_coverage(&grid, std::hint::black_box(tile), 24)))
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop_1k", |b| {
        b.iter_batched(
            || {
                let mut rng = SimRng::new(1);
                (0..1000u64)
                    .map(|i| (SimTime::from_nanos(rng.below(1_000_000)), i))
                    .collect::<Vec<_>>()
            },
            |items| {
                let mut q = EventQueue::new();
                for (t, e) in items {
                    q.push(t, e);
                }
                while q.pop().is_some() {}
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_forecast(c: &mut Criterion) {
    let grid = TileGrid::new(4, 6);
    let f = FusedForecaster::motion_only();
    let history: Vec<(SimTime, Orientation)> = (0..50)
        .map(|i| {
            let t = i as f64 * 0.02;
            (
                SimTime::from_secs_f64(t),
                Orientation::new(0.3 * t, 0.05, 0.0),
            )
        })
        .collect();
    let now = history.last().unwrap().0;
    c.bench_function("hmp/forecast_4x6", |b| {
        b.iter(|| {
            std::hint::black_box(f.forecast(
                &grid,
                &history,
                now,
                now + SimDuration::from_secs(1),
                ChunkTime(3),
            ))
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("net/content_aware_assign", |b| {
        let paths = vec![
            PathQueue::new(PathModel::wifi(), SimRng::new(1)),
            PathQueue::new(PathModel::lte(), SimRng::new(2)),
        ];
        let req = ChunkRequest {
            bytes: 250_000,
            priority: ChunkPriority::FOV,
            deadline: SimTime::from_secs(2),
        };
        let mut sched = ContentAware;
        b.iter(|| std::hint::black_box(sched.assign(&req, &paths, SimTime::ZERO)))
    });
}

fn bench_trace(c: &mut Criterion) {
    // The observability promise: a disabled sink costs one branch on the
    // hot path. Compare against an enabled Verbose sink doing real work.
    let disabled = TraceSink::disabled();
    c.bench_function("sim/trace_emit_disabled", |b| {
        b.iter(|| {
            disabled.emit(std::hint::black_box(TraceEvent::EdgeCacheHit {
                at: SimTime::from_nanos(42),
                tile: 3,
                chunk: 7,
                layer: 0,
                bytes: 4_096,
            }))
        })
    });
    let enabled = TraceSink::with_level(TraceLevel::Verbose);
    c.bench_function("sim/trace_emit_enabled", |b| {
        b.iter(|| {
            enabled.emit(std::hint::black_box(TraceEvent::EdgeCacheHit {
                at: SimTime::from_nanos(42),
                tile: 3,
                chunk: 7,
                layer: 0,
                bytes: 4_096,
            }))
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_geometry, bench_event_queue, bench_forecast, bench_scheduler, bench_trace
);
criterion_main!(micro);
