//! The traced run: a per-crate layer profile, measured from outside by
//! timing calls into each crate's public functions.
//!
//! Three kinds of numbers come out of it:
//!
//! * run times of the top-level builder call (`core.run`), traced and
//!   untraced, and of the layer calls that together redo the same run
//!   (`video.build`, `edge.sense`, `edge.replay`, `player.session`);
//! * per-call costs of each crate's hot functions on inputs shaped like
//!   the workload's (head traces, gazes, budgets, request sizes, the
//!   run's own cache-key stream);
//! * counts from the reports, the `MetricsRegistry` counters and the
//!   `TraceLevel::Verbose` event stream.
//!
//! Layers a workload bypasses report 0. Spans are kept in memory and
//! written to `sperkebench/out/` at the end, with a profile summary.

use crate::util::{median, per_call_ns, timed, Metrics, Spans};
use crate::workload::{abr_session, Kind, Report, Setup};
use crate::Checker;
use sperke_core::ShootoutGrid;
use sperke_edge::{
    prepare_edge_batch, run_edge_prepared, CacheKey, EdgeClientSpec, EdgeConfig, EdgeHarness,
    TileCache,
};
use sperke_geo::{Orientation, Viewport, VisibilityCache};
use sperke_hmp::{generate_ensemble_member, AttentionModel, FusedForecaster, HeadTrace};
use sperke_live::{viewer_reports, CrowdAggregator, LiveViewer};
use sperke_net::{
    BandwidthTrace, ChunkPriority, ChunkRequest, MultipathSession, PathModel, PathQueue, SinglePath,
};
use sperke_sim::trace::{Trace, TraceEvent, TraceLevel};
use sperke_sim::{MetricsRegistry, ReplayQueue, SimDuration, SimRng, SimTime};
use sperke_video::{ChunkTime, Scheme, VideoModel};
use sperke_vra::{select_stochastic, AbrPolicyKind, PolicyInput};
use std::path::Path;
use std::time::Instant;

/// Head traces sampled from the population for per-call measurements.
const SAMPLE_CLIENTS: usize = 32;
/// Shootout sessions whose traces feed the digest and submit timings.
const SAMPLE_SESSIONS: usize = 8;
/// Timed batches per per-call measurement; the median is reported.
const ROUNDS: usize = 7;
/// Ray samples per visibility evaluation, as the batched sense uses.
const VIS_SAMPLES: u32 = 12;
/// Residue above this share of the run is flagged.
const RESIDUE_FLAG_PCT: f64 = 10.0;

/// Inputs shaped like the workload's: its video, sampled head traces
/// with their arrivals, the per-chunk byte budget and capacity signal.
struct Shape<'a> {
    video: &'a VideoModel,
    heads: Vec<(HeadTrace, SimDuration)>,
    budget_bytes: u64,
    capacity_bps: f64,
}

/// The edge population's head traces, exactly as the edge engine
/// synthesizes them for each client.
fn edge_heads(
    video: &VideoModel,
    config: &EdgeConfig,
    clients: &[EdgeClientSpec],
) -> Vec<(HeadTrace, SimDuration)> {
    let attention = AttentionModel::generic(config.seed);
    let session = video.duration() + SimDuration::from_secs(5);
    let step = (clients.len() / SAMPLE_CLIENTS).max(1);
    clients
        .iter()
        .step_by(step)
        .take(SAMPLE_CLIENTS)
        .map(|spec| {
            let head =
                generate_ensemble_member(&attention, (spec.seed % 5) as usize, session, spec.seed);
            (head, spec.arrival)
        })
        .collect()
}

pub fn run(kind: Kind, seed: u64, seconds: u64) -> (Checker, Metrics) {
    let mut spans = Spans::new();
    let root = spans.open(kind.name(), None);
    let setup = &Setup::build(kind, seed);
    let mut checker = Checker::new(kind, seed);
    checker.record("warm-up", setup.check(&setup.run(1)));
    let video_build_ms = spans.time("video.build", Some(root), || {
        let times: Vec<f64> = (0..5).map(|_| timed(|| setup.build_video()).0).collect();
        median(&times) * 1e3
    });

    let mut m = Values::default();
    // Untraced top-level runs, then the same run redone layer by layer,
    // alternating for half the time; the per-call measurements follow.
    let deadline = Instant::now() + std::time::Duration::from_secs(seconds) / 2;
    let mut run_s = Vec::new();
    let mut parts: Vec<Parts> = Vec::new();
    while Instant::now() < deadline || run_s.len() < 3 {
        let id = spans.open("core.run", Some(root));
        let report = setup.run(1);
        spans.close(id);
        run_s.push(spans.secs(id));
        checker.record("core.run", setup.check(&report));
        let mut redo = decompose(setup, &report, &mut spans, root, &mut checker);
        redo.run = spans.secs(id);
        parts.push(redo);
    }
    let run_s = median(&run_s);
    m.set("core.run_s", run_s);

    match setup {
        Setup::Fed { .. } | Setup::Edge { .. } => {
            edge_layers(setup, &mut spans, root, &mut checker, &mut m, &parts)
        }
        Setup::Abr { grid, videos } => {
            abr_layers(grid, videos, &mut spans, root, &mut checker, &mut m, &parts)
        }
    }
    m.set("video.build_ms", video_build_ms);
    spans.close(root);

    let metrics = m.into_metrics();
    write_out(kind, seed, &spans, &metrics);
    (checker, metrics)
}

/// Per-layer metrics with their units, in report order. A layer the
/// workload bypasses reports 0.
pub const LAYERS: [(&str, &str); 42] = [
    ("core.run_s", "s"),
    ("core.sweep_overhead_pct", "%"),
    ("unattributed_pct", "%"),
    ("edge.sense_s", "s"),
    ("edge.sense_s.w2", "s"),
    ("edge.replay_s", "s"),
    ("edge.replay_ns_per_event", "ns"),
    ("edge.cache.lookup_ns", "ns"),
    ("edge.cache.insert_ns", "ns"),
    ("edge.cache.hit_ratio", "ratio"),
    ("edge.cache.evictions", "count"),
    ("edge.regional.hit_ratio", "ratio"),
    ("edge.regional.evictions", "count"),
    ("edge.origin_mb", "MB"),
    ("edge.origin_retries", "count"),
    ("sim.queue.pop_ns", "ns"),
    ("sim.trace.digest_mb_s", "MB/s"),
    ("sim.trace_overhead_pct", "%"),
    ("geo.visible_tiles_ns", "ns"),
    ("geo.vis_cache.hit_ratio", "ratio"),
    ("geo.vis_cache.hit_ns", "ns"),
    ("hmp.forecast_ns", "ns"),
    ("hmp.history_ns", "ns"),
    ("vra.decide_ns.knapsack", "ns"),
    ("vra.decide_ns.transition", "ns"),
    ("vra.decide_ns.qer", "ns"),
    ("vra.decide_ns.consistency", "ns"),
    ("vra.decide_ns.sperke", "ns"),
    ("vra.select_stochastic_ns", "ns"),
    ("net.submit_ns", "ns"),
    ("net.transfers", "count"),
    ("live.viewer_reports_ns", "ns"),
    ("live.predicted_tiles_ns", "ns"),
    ("player.session_ms.knapsack", "ms"),
    ("player.session_ms.transition", "ms"),
    ("player.session_ms.qer", "ms"),
    ("player.session_ms.consistency", "ms"),
    ("player.session_ms.sperke", "ms"),
    ("player.chunks", "count"),
    ("player.stalls", "count"),
    ("player.upgrades", "count"),
    ("video.build_ms", "ms"),
];

/// One layer-by-layer redo of the run: seconds per layer call, and the
/// top-level run it was paired with.
#[derive(Default)]
struct Parts {
    run: f64,
    video: f64,
    sense: f64,
    replay: f64,
    /// `(policy, seconds)` per shootout session.
    sessions: Vec<(AbrPolicyKind, f64)>,
}

/// Redo the run as its layer calls, each timed as a span: the edge
/// engine's sense and replay, or the shootout's sessions one by one.
/// The federation's replay has no public entry point of its own, so
/// only its sense is redone.
fn decompose(
    setup: &Setup,
    report: &Report,
    spans: &mut Spans,
    root: usize,
    checker: &mut Checker,
) -> Parts {
    let id = spans.open("decomposition", Some(root));
    let mut parts = Parts::default();
    match setup {
        Setup::Fed {
            config, clients, ..
        } => {
            let video = spans.time("video.build", Some(id), || setup.build_video());
            spans.time("edge.sense", Some(id), || {
                std::hint::black_box(prepare_edge_batch(&video, &config.node, clients, 1));
            });
        }
        Setup::Edge {
            config, clients, ..
        } => {
            let video = spans.time("video.build", Some(id), || setup.build_video());
            let plan = spans.time("edge.sense", Some(id), || {
                prepare_edge_batch(&video, config, clients, 1)
            });
            let report = spans.time("edge.replay", Some(id), || {
                run_edge_prepared(&video, config, &plan, &EdgeHarness::default(), None)
            });
            checker.record("decomposition", setup.check(&Report::Edge(report)));
        }
        Setup::Abr { grid, .. } => {
            let Report::Abr(shootout) = report else {
                unreachable!("shootout report")
            };
            let cells = grid.points();
            let mut same = true;
            for (cell, point) in cells.iter().zip(&shootout.points) {
                let session = abr_session(grid, cell);
                let result = spans.time("player.session", Some(id), || session.run());
                same &= result.qoe == point.qoe;
            }
            checker.expect("sessions redo the shootout", same);
            let times = spans.durations("player.session", id);
            parts.sessions = cells.iter().map(|c| c.policy).zip(times).collect();
        }
    }
    spans.close(id);
    parts.video = spans.durations("video.build", id).iter().sum();
    parts.sense = spans.durations("edge.sense", id).iter().sum();
    parts.replay = spans.durations("edge.replay", id).iter().sum();
    parts
}

/// Per-layer values by name, each set once.
#[derive(Default)]
struct Values(Vec<(String, f64)>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        assert!(
            LAYERS.iter().any(|(n, _)| *n == name) && self.0.iter().all(|(n, _)| n != name),
            "{name} is not a per-layer metric or is set twice"
        );
        self.0.push((name.to_string(), value));
    }

    /// Every per-layer metric in report order, 0 for bypassed layers.
    fn into_metrics(self) -> Metrics {
        let mut out = Metrics::new();
        for (name, unit) in LAYERS {
            let value = self.0.iter().find(|(n, _)| n == name).map_or(0.0, |v| v.1);
            out.put(name, value, unit);
        }
        out
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Replay a cache-key stream through a fresh [`TileCache`] of the run's
/// capacity: hits look up, misses look up then insert, prefetches
/// insert. Returns `(seconds in lookups, lookups, seconds in inserts,
/// inserts)`; inserts are timed one by one, lookups as the remainder.
fn replay_keys(events: &[TraceEvent], capacity: u64, regional: bool) -> (f64, u64, f64, u64) {
    let mut cache = TileCache::new(capacity);
    let (mut lookups, mut inserts, mut insert_s) = (0u64, 0u64, 0.0f64);
    let start = Instant::now();
    for e in events {
        let (key, bytes, insert) = match *e {
            TraceEvent::EdgeCacheHit {
                tile,
                chunk,
                layer,
                bytes,
                ..
            } if !regional => (CacheKey { chunk, tile, layer }, bytes, false),
            TraceEvent::EdgeCacheMiss {
                tile,
                chunk,
                layer,
                bytes,
                ..
            } if !regional => (CacheKey { chunk, tile, layer }, bytes, true),
            TraceEvent::RegionalCacheHit {
                tile,
                chunk,
                layer,
                bytes,
                ..
            } if regional => (CacheKey { chunk, tile, layer }, bytes, false),
            TraceEvent::RegionalCacheMiss {
                tile,
                chunk,
                layer,
                bytes,
                ..
            } if regional => (CacheKey { chunk, tile, layer }, bytes, true),
            TraceEvent::EdgePrefetch {
                tile,
                chunk,
                layer,
                bytes,
                ..
            } if !regional => {
                let t = Instant::now();
                cache.insert(CacheKey { chunk, tile, layer }, bytes);
                insert_s += t.elapsed().as_secs_f64();
                inserts += 1;
                continue;
            }
            _ => continue,
        };
        std::hint::black_box(cache.lookup(key, bytes));
        lookups += 1;
        if insert {
            let t = Instant::now();
            cache.insert(key, bytes);
            insert_s += t.elapsed().as_secs_f64();
            inserts += 1;
        }
    }
    let total = start.elapsed().as_secs_f64();
    ((total - insert_s).max(0.0), lookups, insert_s, inserts)
}

/// Pop `statics + dynamics` events through a [`ReplayQueue`]: the static
/// schedule at the given times, and one dynamic push per pop until
/// `dynamics` pushes were made. Returns nanoseconds per pop.
fn queue_pop_ns(static_times: &[SimTime], dynamics: usize) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut queue: ReplayQueue<u32> = ReplayQueue::new();
            for (i, &t) in static_times.iter().enumerate() {
                queue.push_static(t, i as u32);
            }
            queue.seal();
            let (mut pushed, mut pops) = (0usize, 0usize);
            let start = Instant::now();
            while let Some((now, e)) = queue.pop() {
                std::hint::black_box(e);
                pops += 1;
                if pushed < dynamics {
                    queue.push(now + SimDuration::from_millis(30), pushed as u32);
                    pushed += 1;
                }
            }
            start.elapsed().as_nanos() as f64 / pops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Trace digest throughput over `traces`, MB of JSONL per second.
fn digest_mb_s(traces: &[&Trace]) -> f64 {
    let bytes: usize = traces.iter().map(|t| t.to_jsonl().len()).sum();
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            for t in traces {
                std::hint::black_box(t.digest());
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    bytes as f64 / 1e6 / median(&samples)
}

/// The `geo`, `hmp` and `vra` per-call costs on workload-shaped inputs.
fn sense_layers(shape: &Shape, spans: &mut Spans, root: usize, m: &mut Values) {
    let video = shape.video;
    let grid = video.grid();
    let chunks = video.chunk_count();
    let gazes: Vec<Orientation> = shape
        .heads
        .iter()
        .flat_map(|(head, _)| {
            (0..chunks)
                .map(move |c| head.at(video.chunk_start(ChunkTime(c)) + video.chunk_duration() / 2))
        })
        .collect();
    let n = gazes.len();
    let ns = spans.time("geo.visible_tiles", Some(root), || {
        per_call_ns(ROUNDS, n, |i| {
            std::hint::black_box(Viewport::headset(gazes[i]).visible_tiles(grid, VIS_SAMPLES));
        })
    });
    m.set("geo.visible_tiles_ns", ns);
    let memo = VisibilityCache::new(2 * n);
    for g in &gazes {
        memo.visible_tiles(&Viewport::headset(*g), grid, VIS_SAMPLES);
    }
    let ns = spans.time("geo.vis_cache.hit", Some(root), || {
        per_call_ns(ROUNDS, n, |i| {
            std::hint::black_box(memo.visible_tiles(
                &Viewport::headset(gazes[i]),
                grid,
                VIS_SAMPLES,
            ));
        })
    });
    m.set("geo.vis_cache.hit_ns", ns);

    // One (history instant, chunk) pair per sampled client and chunk.
    let points: Vec<(usize, SimTime, ChunkTime)> = (0..shape.heads.len())
        .flat_map(|h| {
            (1..chunks).map(move |c| (h, video.chunk_start(ChunkTime(c - 1)), ChunkTime(c)))
        })
        .collect();
    let ns = spans.time("hmp.history", Some(root), || {
        per_call_ns(ROUNDS, points.len(), |i| {
            let (h, now, _) = points[i];
            std::hint::black_box(shape.heads[h].0.history(now, 50));
        })
    });
    m.set("hmp.history_ns", ns);
    let histories: Vec<Vec<(SimTime, Orientation)>> = points
        .iter()
        .map(|&(h, now, _)| shape.heads[h].0.history(now, 50))
        .collect();
    let forecaster = FusedForecaster::motion_only();
    let ns = spans.time("hmp.forecast", Some(root), || {
        per_call_ns(ROUNDS, points.len(), |i| {
            let (_, now, t) = points[i];
            std::hint::black_box(forecaster.forecast(
                grid,
                &histories[i],
                now,
                video.chunk_start(t),
                t,
            ));
        })
    });
    m.set("hmp.forecast_ns", ns);
    let forecasts: Vec<_> = points
        .iter()
        .zip(&histories)
        .map(|(&(_, now, t), hist)| forecaster.forecast(grid, hist, now, video.chunk_start(t), t))
        .collect();
    let ns = spans.time("vra.select_stochastic", Some(root), || {
        per_call_ns(ROUNDS, forecasts.len(), |i| {
            std::hint::black_box(select_stochastic(
                video,
                &forecasts[i],
                points[i].2,
                shape.budget_bytes,
                Scheme::svc_default(),
                0.05,
            ));
        })
    });
    m.set("vra.select_stochastic_ns", ns);
    for kind in AbrPolicyKind::all() {
        let name = format!("vra.decide_ns.{}", kind.name());
        let ns = spans.time(&name, Some(root), || {
            per_call_ns(ROUNDS, forecasts.len(), |i| {
                std::hint::black_box(kind.decide(&PolicyInput {
                    video,
                    forecast: &forecasts[i],
                    confidence: forecasts[i].confidence(),
                    time: points[i].2,
                    buffer: video.chunk_duration(),
                    budget_bytes: shape.budget_bytes,
                    capacity_bps: Some(shape.capacity_bps),
                    scheme: Scheme::svc_default(),
                    min_probability: 0.05,
                    prev: None,
                }));
            })
        });
        m.set(&name, ns);
    }
}

/// Every layer metric of the two edge workloads.
fn edge_layers(
    setup: &Setup,
    spans: &mut Spans,
    root: usize,
    checker: &mut Checker,
    m: &mut Values,
    parts: &[Parts],
) {
    let (video, config, clients) = match setup {
        Setup::Fed {
            video,
            config,
            clients,
            ..
        } => (video, config.node, clients),
        Setup::Edge {
            video,
            config,
            clients,
            ..
        } => (video, *config, clients),
        Setup::Abr { .. } => unreachable!("edge layers of the shootout"),
    };
    let chunks = video.chunk_count() as usize;

    // Traced runs: the Verbose event stream, the registry counters and
    // a visibility-cache handle passed in through the builder.
    let vis = VisibilityCache::default();
    let mut registry = MetricsRegistry::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traces: Vec<Trace> = Vec::new();
    let mut regional_trace = None;
    for rep in 0..3 {
        // Each traced run is paired with an untraced one right before it.
        let id = spans.open("core.run", Some(root));
        std::hint::black_box(setup.run(1));
        spans.close(id);
        untraced_s.push(spans.secs(id));
        let id = spans.open("core.run.traced", Some(root));
        let (report, node_traces, fed_trace) = match setup {
            Setup::Fed { builder, .. } => {
                let mut b = builder.clone().workers(1).with_trace(TraceLevel::Verbose);
                if rep == 0 {
                    b = b.vis_cache(vis.clone());
                }
                let out = b.run_metered((rep == 0).then_some(&mut registry));
                (Report::Fed(out.report), out.node_traces, Some(out.trace))
            }
            Setup::Edge { builder, .. } => {
                let mut b = builder.clone().with_trace(TraceLevel::Verbose);
                if rep == 0 {
                    b = b.vis_cache(vis.clone());
                }
                let out = b.run_batched(1);
                (Report::Edge(out.report), vec![out.trace], None)
            }
            Setup::Abr { .. } => unreachable!(),
        };
        spans.close(id);
        traced_s.push(spans.secs(id));
        checker.record("core.run.traced", setup.check(&report));
        traces = node_traces;
        regional_trace = fed_trace;
    }
    m.set(
        "sim.trace_overhead_pct",
        100.0 * (median(&traced_s) / median(&untraced_s) - 1.0),
    );
    let stats = vis.stats();
    m.set(
        "geo.vis_cache.hit_ratio",
        ratio(stats.hits, stats.hits + stats.misses),
    );

    // Counts: the report of the last traced run plus the registry.
    let report = setup.run(1);
    let (hits, misses, evictions, origin_bytes, retries, regional) = match &report {
        Report::Fed(r) => {
            let hit = registry
                .counter_value("federation.regional.hits")
                .unwrap_or(0);
            let miss = registry
                .counter_value("federation.regional.misses")
                .unwrap_or(0);
            (
                r.nodes.iter().map(|n| n.cache.hits).sum::<u64>(),
                r.nodes.iter().map(|n| n.cache.misses).sum::<u64>(),
                r.nodes.iter().map(|n| n.cache.evictions).sum::<u64>(),
                r.origin_demand_bytes(),
                r.origin_retries,
                Some((
                    ratio(hit, hit + miss),
                    r.regional.evictions,
                    r.regional.misses,
                )),
            )
        }
        Report::Edge(r) => {
            let mut reg = MetricsRegistry::new();
            let plan = prepare_edge_batch(video, &config, clients, 1);
            let again = run_edge_prepared(
                video,
                &config,
                &plan,
                &EdgeHarness::default(),
                Some(&mut reg),
            );
            checker.expect("registry run matches the builder", again == *r);
            (
                reg.counter_value("edge.cache.hits").unwrap_or(0),
                reg.counter_value("edge.cache.misses").unwrap_or(0),
                reg.counter_value("edge.cache.evictions").unwrap_or(0),
                r.origin_demand_bytes(),
                r.origin_retries,
                None,
            )
        }
        Report::Abr(_) => unreachable!(),
    };
    checker.record("counts", setup.check(&report));
    m.set("edge.cache.hit_ratio", ratio(hits, hits + misses));
    m.set("edge.cache.evictions", evictions as f64);
    let (regional_ratio, regional_evictions, regional_misses) = regional.unwrap_or((0.0, 0, 0));
    m.set("edge.regional.hit_ratio", regional_ratio);
    m.set("edge.regional.evictions", regional_evictions as f64);
    m.set("edge.origin_mb", origin_bytes as f64 / 1e6);
    m.set("edge.origin_retries", retries as f64);

    // Cache ops on the run's own key streams, per node then regional.
    let node_capacity = config.cache_bytes;
    let mut lookup = Vec::new();
    let mut insert = Vec::new();
    let mut cache_s = Vec::new();
    for _ in 0..3 {
        let id = spans.open("edge.cache.replay", Some(root));
        let (mut ls, mut ln, mut is, mut inn) = (0.0, 0, 0.0, 0);
        for t in &traces {
            let (a, b, c, d) = replay_keys(t.events(), node_capacity, false);
            (ls, ln, is, inn) = (ls + a, ln + b, is + c, inn + d);
        }
        if let (Some(t), Setup::Fed { config, .. }) = (&regional_trace, setup) {
            let (a, _, c, _) = replay_keys(t.events(), config.regional_bytes, true);
            (ls, is) = (ls + a, is + c);
        }
        spans.close(id);
        lookup.push(ls * 1e9 / ln.max(1) as f64);
        insert.push(is * 1e9 / inn.max(1) as f64);
        cache_s.push(ls + is);
    }
    m.set("edge.cache.lookup_ns", median(&lookup));
    m.set("edge.cache.insert_ns", median(&insert));

    // The replay queue, filled with the run's static schedule (arrivals,
    // decides, displays, per-node prefetch ticks) and dynamic origin
    // completions (edge misses and prefetches, retries).
    let nodes = match setup {
        Setup::Fed { config, .. } => config.node_layout().len(),
        _ => 1,
    };
    let mut static_times: Vec<SimTime> =
        Vec::with_capacity(clients.len() * (2 * chunks + 1) + nodes * chunks);
    for spec in clients {
        let arrive = SimTime::ZERO + spec.arrival;
        static_times.push(arrive);
        for c in 0..chunks as u64 {
            let display = arrive + video.chunk_duration() * (c + 1);
            static_times.push(SimTime::from_nanos(
                display
                    .as_nanos()
                    .saturating_sub(config.fetch_lead.as_nanos()),
            ));
            static_times.push(display);
        }
    }
    for _ in 0..nodes {
        static_times.extend((0..chunks as u32).map(|c| video.chunk_start(ChunkTime(c))));
    }
    let dynamics = (misses + regional_misses + retries) as usize
        + traces
            .iter()
            .map(|t| {
                t.events()
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::EdgePrefetch { .. }))
                    .count()
            })
            .sum::<usize>();
    let events = static_times.len() + dynamics;
    let pop_ns = spans.time("sim.queue", Some(root), || {
        queue_pop_ns(&static_times, dynamics)
    });
    m.set("sim.queue.pop_ns", pop_ns);
    let mut all: Vec<&Trace> = traces.iter().collect();
    all.extend(regional_trace.iter());
    let mb_s = spans.time("sim.trace.digest", Some(root), || digest_mb_s(&all));
    m.set("sim.trace.digest_mb_s", mb_s);

    // Sense at 1 and 2 workers; replay as timed (edge) or as the run
    // minus video and sense (federation).
    let mut sense_w2 = Vec::new();
    for _ in 0..3 {
        let id = spans.open("edge.sense.w2", Some(root));
        std::hint::black_box(prepare_edge_batch(video, &config, clients, 2));
        spans.close(id);
        sense_w2.push(spans.secs(id));
    }
    // Residue per paired redo: the run minus its covering layer calls.
    let edge = matches!(setup, Setup::Edge { .. });
    let extra_s = if edge {
        0.0
    } else {
        median(&cache_s) + pop_ns * events as f64 / 1e9
    };
    let residue: Vec<f64> = parts
        .iter()
        .map(|p| {
            let replay = if edge { p.replay } else { 0.0 };
            100.0 * (p.run - p.video - p.sense - replay - extra_s) / p.run
        })
        .collect();
    let sense_s = median(&parts.iter().map(|p| p.sense).collect::<Vec<_>>());
    let replay_s = if edge {
        median(&parts.iter().map(|p| p.replay).collect::<Vec<_>>())
    } else {
        median(
            &parts
                .iter()
                .map(|p| p.run - p.video - p.sense)
                .collect::<Vec<_>>(),
        )
    };
    m.set("edge.sense_s", sense_s);
    m.set("edge.sense_s.w2", median(&sense_w2));
    m.set("edge.replay_s", replay_s);
    m.set(
        "edge.replay_ns_per_event",
        replay_s * 1e9 / events.max(1) as f64,
    );
    m.set("unattributed_pct", median(&residue));

    // Per-call costs on the population's own head traces.
    let heads = edge_heads(video, &config, clients);
    let shape = Shape {
        video,
        heads,
        budget_bytes: (config.per_client_budget_bps * video.chunk_duration().as_secs_f64() / 8.0)
            as u64,
        capacity_bps: config.per_client_budget_bps,
    };
    sense_layers(&shape, spans, root, m);
    live_layers(&shape, &config, spans, root, m);
}

/// The crowd layer: gaze-report synthesis per viewer and the
/// prefetcher's top-k query per chunk.
fn live_layers(shape: &Shape, config: &EdgeConfig, spans: &mut Spans, root: usize, m: &mut Values) {
    let video = shape.video;
    let chunks = video.chunk_count();
    let mut crowd = CrowdAggregator::new(*video.grid(), video.chunk_duration());
    let delay = crowd.report_delay;
    let viewers: Vec<LiveViewer> = shape
        .heads
        .iter()
        .map(|(trace, arrival)| LiveViewer {
            trace: trace.clone(),
            latency: *arrival,
        })
        .collect();
    let ns = spans.time("live.viewer_reports", Some(root), || {
        per_call_ns(ROUNDS, viewers.len(), |i| {
            std::hint::black_box(viewer_reports(
                video.grid(),
                video.chunk_duration(),
                delay,
                &viewers[i],
                chunks,
            ));
        })
    });
    m.set("live.viewer_reports_ns", ns);
    for v in &viewers {
        crowd.ingest_reports(viewer_reports(
            video.grid(),
            video.chunk_duration(),
            delay,
            v,
            chunks,
        ));
    }
    let lag = viewers.first().map_or(SimDuration::ZERO, |v| v.latency)
        + SimDuration::from_millis(250)
        + video.chunk_duration();
    let ns = spans.time("live.predicted_tiles", Some(root), || {
        per_call_ns(ROUNDS, chunks as usize, |c| {
            let t = ChunkTime(c as u32);
            std::hint::black_box(crowd.predicted_tiles(
                video.chunk_start(t) + lag,
                t,
                config.prefetch_k,
            ));
        })
    });
    m.set("live.predicted_tiles_ns", ns);
}

/// Every layer metric of the shootout.
fn abr_layers(
    grid: &ShootoutGrid,
    videos: &[VideoModel],
    spans: &mut Spans,
    root: usize,
    checker: &mut Checker,
    m: &mut Values,
    parts: &[Parts],
) {
    let cells = grid.points();
    let overhead = median(
        &parts
            .iter()
            .map(|p| 100.0 * (p.run - p.sessions.iter().map(|s| s.1).sum::<f64>()) / p.run)
            .collect::<Vec<_>>(),
    );
    m.set("core.sweep_overhead_pct", overhead);
    m.set("unattributed_pct", overhead);
    for kind in AbrPolicyKind::all() {
        let times: Vec<f64> = parts
            .iter()
            .flat_map(|p| p.sessions.iter().filter(|s| s.0 == kind).map(|s| s.1 * 1e3))
            .collect();
        m.set(
            &format!("player.session_ms.{}", kind.name()),
            median(&times),
        );
    }

    // A Verbose pass over every cell: tracing overhead, transfer sizes,
    // visibility-memo stats through a handle per session (the default
    // is a fresh memo per session too), and the session counts.
    let (mut chunks, mut stalls, mut upgrades, mut transfers) = (0u64, 0u64, 0u64, 0u64);
    let (mut vis_hits, mut vis_misses) = (0u64, 0u64);
    // Request sizes of the first sessions, one stream per session.
    let mut requests: Vec<(f64, Vec<u64>)> = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    let untraced = spans.open("player.sessions", Some(root));
    for cell in &cells {
        std::hint::black_box(abr_session(grid, cell).run());
    }
    spans.close(untraced);
    let id = spans.open("core.run.traced", Some(root));
    for cell in &cells {
        let vis = VisibilityCache::default();
        let out = spans.time("player.session.traced", Some(id), || {
            abr_session(grid, cell)
                .with_trace(TraceLevel::Verbose)
                .vis_cache(vis.clone())
                .run_report()
        });
        let stats = vis.stats();
        (vis_hits, vis_misses) = (vis_hits + stats.hits, vis_misses + stats.misses);
        chunks += out.session.qoe.chunks as u64;
        stalls += out.session.qoe.stall_count as u64;
        upgrades += out.session.upgrades_applied as u64;
        let sizes: Vec<u64> = out
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TransferFinished { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        transfers += sizes.len() as u64;
        if traces.len() < SAMPLE_SESSIONS {
            requests.push((cell.bandwidth_bps, sizes));
            traces.push(out.trace);
        }
    }
    spans.close(id);
    checker.expect(
        "traced sessions played every chunk",
        chunks == cells.len() as u64 * grid.duration_secs,
    );
    m.set(
        "sim.trace_overhead_pct",
        100.0 * (spans.secs(id) / spans.secs(untraced) - 1.0),
    );
    m.set(
        "geo.vis_cache.hit_ratio",
        ratio(vis_hits, vis_hits + vis_misses),
    );
    m.set("player.chunks", chunks as f64);
    m.set("player.stalls", stalls as f64);
    m.set("player.upgrades", upgrades as f64);
    m.set("net.transfers", transfers as f64);
    let all: Vec<&Trace> = traces.iter().collect();
    let mb_s = spans.time("sim.trace.digest", Some(root), || digest_mb_s(&all));
    m.set("sim.trace.digest_mb_s", mb_s);

    // MultipathSession::submit over each sampled session's request
    // sizes, through a fresh single-path session at the cell's bandwidth,
    // spread evenly over the session's length.
    let submits: usize = requests.iter().map(|r| r.1.len()).sum();
    let ns = spans.time("net.submit", Some(root), || {
        let samples: Vec<f64> = (0..ROUNDS)
            .map(|r| {
                let start = Instant::now();
                for (bps, sizes) in &requests {
                    let path = PathModel::new(
                        "link",
                        BandwidthTrace::constant(*bps),
                        SimDuration::from_millis(20),
                        0.0,
                    );
                    let mut session = MultipathSession::new(
                        vec![PathQueue::new(path, SimRng::new(r as u64))],
                        SinglePath(0),
                    );
                    let gap = grid.duration_secs * 1000 / sizes.len().max(1) as u64;
                    for (i, &bytes) in sizes.iter().enumerate() {
                        let now = SimTime::from_millis(i as u64 * gap);
                        std::hint::black_box(session.submit(
                            ChunkRequest {
                                bytes,
                                priority: ChunkPriority::FOV,
                                deadline: now + SimDuration::from_secs(2),
                            },
                            now,
                        ));
                    }
                }
                start.elapsed().as_nanos() as f64 / submits.max(1) as f64
            })
            .collect();
        median(&samples)
    });
    m.set("net.submit_ns", ns);

    // Per-call costs on the grid's own sessions' head traces.
    let heads: Vec<(HeadTrace, SimDuration)> = cells
        .iter()
        .filter(|c| {
            c.policy == AbrPolicyKind::Knapsack && c.bandwidth_bps == grid.bandwidths_bps[0]
        })
        .map(|c| (abr_session(grid, c).build_trace(), SimDuration::ZERO))
        .collect();
    let bps = grid.bandwidths_bps[0];
    let shape = Shape {
        video: &videos[0],
        heads,
        budget_bytes: (bps * videos[0].chunk_duration().as_secs_f64() / 8.0) as u64,
        capacity_bps: bps,
    };
    sense_layers(&shape, spans, root, m);
}

/// Write the spans and a profile summary under `sperkebench/out/`.
fn write_out(kind: Kind, seed: u64, spans: &Spans, m: &Metrics) {
    let dir = Path::new("sperkebench/out");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("note: cannot create {}: {e}", dir.display());
        return;
    }
    let stem = format!("{}-{seed}", kind.name());
    let spans_path = dir.join(format!("spans-{stem}.jsonl"));
    if let Err(e) = spans.write_jsonl(&spans_path) {
        eprintln!("note: cannot write {}: {e}", spans_path.display());
    }
    let residue =
        m.0.iter()
            .find(|(n, _, _)| n == "unattributed_pct")
            .map_or(0.0, |x| x.1);
    let (nproc, cpu) = crate::util::host_stamp();
    let flag = if residue > RESIDUE_FLAG_PCT {
        format!("FLAG: {residue:.1}% of the run is not covered by timed layer calls")
    } else if residue < -RESIDUE_FLAG_PCT {
        format!(
            "FLAG: the timed layer calls take {:.1}% longer than the run they redo",
            -residue
        )
    } else {
        format!("layers cover the run to within {residue:.1}%")
    };
    println!("  {flag}");
    println!("  spans written to {}", spans_path.display());
    let summary = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"residue\": \"{flag}\", \"metrics\": {}}}\n",
        kind.name(),
        m.to_json()
    );
    let path = dir.join(format!("profile-{stem}.json"));
    if let Err(e) = std::fs::write(&path, summary) {
        eprintln!("note: cannot write {}: {e}", path.display());
    }
}
