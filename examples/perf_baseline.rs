//! Tracked perf baselines with regression gating.
//!
//! Measures the PR4 visibility hot-path numbers and the PR5 edge numbers (origin demand, cache
//! hit rate, edge run and sweep throughput), compares every gated
//! metric against the committed `BENCH_PR4.json` / `BENCH_PR5.json`
//! baselines, and exits non-zero if any metric regresses by more than
//! the tolerance (default 20%, `PERF_TOLERANCE_PCT` to override).
//! Fresh measurements are written to `target/perf_baseline/`, never over
//! the committed baselines, so every run gates against the same numbers
//! and CI can upload the fresh ones as artifacts.
//!
//! ```sh
//! cargo run --release --example perf_baseline
//! ```
//!
//! A missing baseline file is reported and skipped, never a failure:
//! commit a fresh copy from `target/perf_baseline/` to create it.

use sperke_core::{
    run_edge_sweep, run_federation, run_shootout, EdgeConfig, EdgeGrid, FederationConfig,
    FederationHarness, LossChannel, ShootoutGrid,
};
use sperke_edge::oracle::run_edge_full;
use sperke_edge::{
    default_clients, flash_crowd_clients, prepare_edge_batch, run_edge, run_edge_prepared,
    EdgeHarness,
};
use sperke_geo::{Orientation, TileGrid, Viewport, VisibilityCache};
use sperke_hmp::FusedForecaster;
use sperke_sim::{SimDuration, SimTime};
use sperke_video::{ChunkTime, Scheme, VideoModelBuilder};
use sperke_vra::{AbrPolicyKind, PolicyInput, DEFAULT_MIN_PROBABILITY};
use std::time::Instant;

/// Which way a metric is allowed to drift.
#[derive(Clone, Copy, PartialEq)]
enum Gate {
    /// Higher is better: fail when current < baseline × (1 − tol).
    Higher,
    /// Lower is better: fail when current > baseline × (1 + tol).
    Lower,
    /// Recorded for the artifact but never gated (too noisy to gate).
    Record,
}

/// Median of per-op nanoseconds over `rounds` timed batches of `batch`
/// calls each.
fn median_ns(rounds: usize, batch: u32, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                op();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Pull a numeric field out of a parsed baseline object.
fn metric(doc: &serde_json::Value, name: &str) -> Option<f64> {
    match doc.get(name)? {
        serde_json::Value::U64(n) => Some(*n as f64),
        serde_json::Value::I64(n) => Some(*n as f64),
        serde_json::Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// Where fresh measurements go: beside the build output, never over the
/// committed baselines they are gated against.
const FRESH_DIR: &str = "target/perf_baseline";

/// Write one fresh measurement file into [`FRESH_DIR`].
fn write_fresh(name: &str, json: &str) {
    let path = format!("{FRESH_DIR}/{name}");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Load a committed baseline file; `None` (with a notice) when absent
/// or unparsable, so a new baseline skips rather than fails.
fn load_baseline(path: &str) -> Option<serde_json::Value> {
    match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<serde_json::Value>(&text) {
            Ok(doc) => Some(doc),
            Err(e) => {
                println!("note: {path} unparsable ({e}); skipping comparison");
                None
            }
        },
        Err(_) => {
            println!("note: {path} not found; skipping comparison");
            None
        }
    }
}

/// Compare `current` against the baseline under the gate rule; returns
/// a failure message when the metric regressed past tolerance.
fn check(
    doc: Option<&serde_json::Value>,
    name: &str,
    current: f64,
    gate: Gate,
    tol: f64,
) -> Option<String> {
    let base = metric(doc?, name)?;
    let (fails, bound) = match gate {
        Gate::Higher => (current < base * (1.0 - tol), base * (1.0 - tol)),
        Gate::Lower => (current > base * (1.0 + tol), base * (1.0 + tol)),
        Gate::Record => return None,
    };
    if fails {
        Some(format!(
            "{name}: {current:.1} vs baseline {base:.1} (allowed {} {bound:.1})",
            if gate == Gate::Higher { ">=" } else { "<=" }
        ))
    } else {
        None
    }
}

fn main() {
    let tol = std::env::var("PERF_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(20.0)
        / 100.0;

    // ---------------- PR4: visibility hot path ----------------
    let grid = TileGrid::new(4, 6);
    let vp = Viewport::headset(Orientation::from_degrees(37.0, 12.0, 3.0));

    let uncached_ns = median_ns(31, 200, || {
        std::hint::black_box(vp.visible_tiles(&grid, 16));
    });
    let cache = VisibilityCache::new(16);
    cache.visible_tiles(&vp, &grid, 16); // warm the entry
    let cached_ns = median_ns(31, 200, || {
        std::hint::black_box(cache.visible_tiles(&vp, &grid, 16));
    });
    let speedup = uncached_ns / cached_ns;
    println!("visible_tiles(4x6, 16 samples)");
    println!("  uncached : {uncached_ns:>10.1} ns/op");
    println!("  cache hit: {cached_ns:>10.1} ns/op   ({speedup:.1}x)");

    // ---------------- PR5: edge server ----------------
    let edge_video = VideoModelBuilder::new(7)
        .duration(SimDuration::from_secs(8))
        .build();
    let edge_cfg = EdgeConfig {
        clients: 16,
        max_clients: 64,
        ..Default::default()
    };
    let edge_run = |cfg: &EdgeConfig| {
        let clients = default_clients(cfg);
        run_edge(&edge_video, cfg, &clients, &EdgeHarness::default(), None, 1)
    };
    let cached_edge = edge_run(&edge_cfg);
    let uncached_edge = edge_run(&EdgeConfig {
        cache_bytes: 0,
        prefetch: false,
        ..edge_cfg
    });
    assert_eq!(
        cached_edge.origin_demand_bytes(),
        cached_edge.cache.miss_bytes + cached_edge.cache.prefetch_bytes,
        "edge byte accounting must balance"
    );
    let edge_origin_mb = cached_edge.origin_demand_bytes() as f64 / 1e6;
    let edge_hit_pct = 100.0 * cached_edge.cache.hits as f64
        / (cached_edge.cache.hits + cached_edge.cache.misses).max(1) as f64;
    let edge_savings_pct = 100.0
        * (1.0
            - cached_edge.origin_demand_bytes() as f64
                / uncached_edge.origin_demand_bytes().max(1) as f64);
    // Median-of-three edge run throughput, in client-chunk steps/s.
    let mut edge_secs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(edge_run(&edge_cfg));
            start.elapsed().as_secs_f64()
        })
        .collect();
    edge_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let edge_steps = edge_cfg.clients as f64 * edge_video.chunk_count() as f64;
    let edge_steps_per_s = edge_steps / edge_secs[1];
    println!(
        "edge run ({} clients x {} chunks)",
        edge_cfg.clients,
        edge_video.chunk_count()
    );
    println!("  origin demand : {edge_origin_mb:>8.1} MB (cache saves {edge_savings_pct:.0}%)");
    println!("  cache hit rate: {edge_hit_pct:>8.1} %");
    println!("  throughput    : {edge_steps_per_s:>8.0} steps/s");

    let edge_grid = EdgeGrid::new(EdgeConfig {
        clients: 6,
        ..Default::default()
    })
    .cache_axis(vec![0, 256 << 20])
    .seed_axis(vec![7, 11]);
    let edge_points = edge_grid.points().len() as f64;
    let start = Instant::now();
    let edge_sweep = run_edge_sweep(&edge_video, &edge_grid, AbrPolicyKind::default(), 0);
    let edge_sweep_s = start.elapsed().as_secs_f64();
    assert_eq!(edge_sweep.len(), edge_points as usize);
    let edge_sweep_pps = edge_points / edge_sweep_s;
    println!("edge sweep    : {edge_sweep_pps:>10.2} points/s ({edge_points} points)");

    // ---------------- PR6: data-oriented batched engine ----------------
    // The gated metric is the engine's stepping loop at 1k clients: the
    // decide/fetch/render replay over a materialized plan. Plan
    // synthesis (head traces + forecasts, embarrassingly parallel and
    // off the stepping path) is recorded separately, as are the
    // full-run batched and legacy numbers — no hidden exclusions.
    let pr6_cfg = EdgeConfig {
        clients: 1000,
        max_clients: 2048,
        ..Default::default()
    };
    let pr6_specs = default_clients(&pr6_cfg);
    let pr6_steps = pr6_cfg.clients as f64 * edge_video.chunk_count() as f64;

    let start = Instant::now();
    let legacy_1k = run_edge_full(
        &edge_video,
        &pr6_cfg,
        &pr6_specs,
        &EdgeHarness::default(),
        None,
    );
    let legacy_1k_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let plan = prepare_edge_batch(&edge_video, &pr6_cfg, &pr6_specs, 0);
    let prepare_s = start.elapsed().as_secs_f64();

    let batched_1k = run_edge_prepared(&edge_video, &pr6_cfg, &plan, &EdgeHarness::default(), None);
    assert_eq!(
        legacy_1k, batched_1k,
        "engines must agree bit-for-bit at 1k clients"
    );
    let mut replay_secs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run_edge_prepared(
                &edge_video,
                &pr6_cfg,
                &plan,
                &EdgeHarness::default(),
                None,
            ));
            start.elapsed().as_secs_f64()
        })
        .collect();
    replay_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pr6_edge_steps_per_s = pr6_steps / replay_secs[1];
    let pr6_full_steps_per_s = pr6_steps / (prepare_s + replay_secs[1]);
    let legacy_1k_steps_per_s = pr6_steps / legacy_1k_s;

    // The acceptance anchor is PR5's committed number, hardcoded so the
    // gate cannot ratchet itself by rewriting its own baseline.
    const PR5_EDGE_STEPS_ANCHOR: f64 = 9757.0;
    let pr6_speedup = pr6_edge_steps_per_s / PR5_EDGE_STEPS_ANCHOR;
    println!(
        "batched edge engine ({} clients x {} chunks)",
        pr6_cfg.clients,
        edge_video.chunk_count()
    );
    println!("  engine loop   : {pr6_edge_steps_per_s:>8.0} steps/s ({pr6_speedup:.1}x PR5 anchor {PR5_EDGE_STEPS_ANCHOR:.0})");
    println!(
        "  + plan synth  : {pr6_full_steps_per_s:>8.0} steps/s (prepare {:.0} ms)",
        prepare_s * 1e3
    );
    println!("  legacy oracle : {legacy_1k_steps_per_s:>8.0} steps/s");
    assert!(
        pr6_speedup >= 5.0,
        "batched engine loop must be >= 5x the PR5 anchor: {pr6_edge_steps_per_s:.0} vs {PR5_EDGE_STEPS_ANCHOR:.0}"
    );

    // ---------------- PR7: measured capacity + bursty loss ----------------
    // Same 1k-client stepping loop with the BBR origin estimator and the
    // Gilbert–Elliott burst chain switched on — the estimator rolls,
    // filters and samples inside the hot origin path, so its overhead is
    // tracked here. Record-only this PR (the comparator gates next PR
    // once a committed baseline exists); the legacy-vs-batched equality
    // assert is the non-negotiable part.
    let bbr_harness = EdgeHarness {
        bbr: true,
        origin_loss: LossChannel::bursty_default(),
        ..Default::default()
    };
    let legacy_bbr = run_edge_full(&edge_video, &pr6_cfg, &pr6_specs, &bbr_harness, None);
    let batched_bbr = run_edge_prepared(&edge_video, &pr6_cfg, &plan, &bbr_harness, None);
    assert_eq!(
        legacy_bbr, batched_bbr,
        "engines must agree bit-for-bit with BBR + bursty loss enabled"
    );
    let mut bbr_secs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run_edge_prepared(
                &edge_video,
                &pr6_cfg,
                &plan,
                &bbr_harness,
                None,
            ));
            start.elapsed().as_secs_f64()
        })
        .collect();
    bbr_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pr7_edge_steps_per_s = pr6_steps / bbr_secs[1];
    let pr7_overhead_pct = (pr6_edge_steps_per_s / pr7_edge_steps_per_s - 1.0) * 100.0;
    println!(
        "bbr + bursty-loss edge engine ({} clients x {} chunks)",
        pr6_cfg.clients,
        edge_video.chunk_count()
    );
    println!(
        "  engine loop   : {pr7_edge_steps_per_s:>8.0} steps/s ({pr7_overhead_pct:+.1}% vs plain)"
    );
    println!(
        "  origin retries: {:>8} (burst chain, deterministic)",
        batched_bbr.origin_retries
    );

    // ---------------- PR8: edge federation ----------------
    // A 4-node federation absorbing a 128-client flash crowd over the
    // shared regional tier. Record-only this PR (the comparator gates
    // next PR once a committed baseline exists); the cooperative-origin
    // savings assert is the non-negotiable part — the regional tier must
    // beat four isolated edges on origin bytes.
    let fed_video = VideoModelBuilder::new(7)
        .duration(SimDuration::from_secs(8))
        .build();
    let fed_cfg = FederationConfig {
        nodes: 4,
        ..Default::default()
    };
    let fed_clients = flash_crowd_clients(
        &fed_cfg.node,
        32,
        96,
        SimDuration::from_secs(2),
        SimDuration::from_millis(50),
    );
    let fed_harness = FederationHarness::default();
    let coop = run_federation(&fed_video, &fed_cfg, &fed_clients, &fed_harness, None, 0).report;
    let iso_cfg = FederationConfig {
        regional_bytes: 0,
        share_heatmaps: false,
        ..fed_cfg.clone()
    };
    let iso = run_federation(&fed_video, &iso_cfg, &fed_clients, &fed_harness, None, 0).report;
    let fed_savings_pct =
        100.0 * (1.0 - coop.origin_demand_bytes() as f64 / iso.origin_demand_bytes().max(1) as f64);
    assert!(
        coop.origin_demand_bytes() * 2 <= iso.origin_demand_bytes(),
        "cooperative federation must at least halve isolated origin demand"
    );
    let fed_hit_pct = 100.0 * coop.regional.hits as f64
        / (coop.regional.hits + coop.regional.misses).max(1) as f64;
    let mut fed_secs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run_federation(
                &fed_video,
                &fed_cfg,
                &fed_clients,
                &fed_harness,
                None,
                0,
            ));
            start.elapsed().as_secs_f64()
        })
        .collect();
    fed_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let fed_steps = fed_clients.len() as f64 * fed_video.chunk_count() as f64;
    let fed_steps_per_s = fed_steps / fed_secs[1];
    println!(
        "federation ({} nodes x {} clients x {} chunks)",
        fed_cfg.nodes,
        fed_clients.len(),
        fed_video.chunk_count()
    );
    println!("  throughput     : {fed_steps_per_s:>8.0} steps/s");
    println!("  origin savings : {fed_savings_pct:>8.1} % vs isolated edges");
    println!("  regional hits  : {fed_hit_pct:>8.1} %");

    // ---------------- PR9: parallel replay + streaming digests ----------------
    // The federation scenario above, timed at 1 and 8 sense workers.
    // Replay is serial at every worker count, so the two differ only in
    // how the sense phase is sharded. The hard gate pins `workers = 1`
    // at >= 1.5x the committed federation anchor below — the
    // guard-banded tile classifier alone clears that on one core. The
    // `workers = 8` number is recorded but not gated: it times 8 sense
    // workers over the same serial replay, so it tracks the host's
    // core count more than the code.
    const PR8_FED_STEPS_ANCHOR: f64 = 11_135.0;
    let time_fed = |workers: usize| -> f64 {
        let mut secs: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(run_federation(
                    &fed_video,
                    &fed_cfg,
                    &fed_clients,
                    &fed_harness,
                    None,
                    workers,
                ));
                start.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        fed_steps / secs[1]
    };
    let pr9_serial_steps_per_s = time_fed(1);
    let pr9_parallel_steps_per_s = time_fed(8);
    let pr9_speedup = pr9_serial_steps_per_s / PR8_FED_STEPS_ANCHOR;
    assert!(
        pr9_serial_steps_per_s >= 1.5 * PR8_FED_STEPS_ANCHOR,
        "federation replay must be >= 1.5x the PR8 anchor: \
         {pr9_serial_steps_per_s:.0} vs {PR8_FED_STEPS_ANCHOR:.0}"
    );
    // Streaming digest throughput: hash every trace of a verbose
    // federation run through the incremental per-event path.
    let fed_traced = FederationHarness {
        trace: sperke_sim::trace::TraceLevel::Verbose,
        ..Default::default()
    };
    let traced_run = run_federation(&fed_video, &fed_cfg, &fed_clients, &fed_traced, None, 0);
    let traces: Vec<&sperke_sim::trace::Trace> = std::iter::once(&traced_run.trace)
        .chain(traced_run.node_traces.iter())
        .collect();
    let digest_bytes: usize = traces.iter().map(|t| t.to_jsonl().len()).sum();
    let mut digest_secs: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for t in &traces {
                std::hint::black_box(t.digest());
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    digest_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let digest_mb_per_s = digest_bytes as f64 / 1e6 / digest_secs[2];
    println!("federation replay + streaming digest");
    println!(
        "  serial replay  : {pr9_serial_steps_per_s:>8.0} steps/s ({pr9_speedup:.1}x PR8 anchor {PR8_FED_STEPS_ANCHOR:.0})"
    );
    println!("  sense x8       : {pr9_parallel_steps_per_s:>8.0} steps/s (record-only)");
    println!(
        "  trace digest   : {digest_mb_per_s:>8.1} MB/s over {:.1} MB of JSONL",
        digest_bytes as f64 / 1e6
    );

    // ---------------- PR10: viewport-adaptation policy suite ----------------
    // Per-policy decide() latency on one representative scheduling
    // window (the default tile grid, a motion-only forecast, a
    // mid-range byte budget), plus shootout throughput over the CI
    // smoke grid. Record-only this PR (the comparator gates next PR
    // once a committed baseline exists).
    let pol_video = VideoModelBuilder::new(9)
        .duration(SimDuration::from_secs(20))
        .build();
    let pol_history = vec![(SimTime::ZERO, Orientation::FRONT)];
    let pol_forecast = FusedForecaster::motion_only().forecast(
        pol_video.grid(),
        &pol_history,
        SimTime::ZERO,
        SimTime::from_secs(1),
        ChunkTime(1),
    );
    let prev_window: Vec<i8> = vec![0; pol_video.grid().tile_count()];
    let pol_input = PolicyInput {
        video: &pol_video,
        forecast: &pol_forecast,
        confidence: pol_forecast.confidence(),
        time: ChunkTime(1),
        buffer: SimDuration::from_secs(2),
        budget_bytes: 400_000,
        capacity_bps: Some(3.2e6),
        scheme: Scheme::Avc,
        min_probability: DEFAULT_MIN_PROBABILITY,
        prev: Some(&prev_window),
    };
    println!("policy decide() latency (one scheduling window)");
    let decide_ns: Vec<(&'static str, f64)> = AbrPolicyKind::all()
        .into_iter()
        .map(|kind| {
            let ns = median_ns(31, 100, || {
                std::hint::black_box(kind.decide(&pol_input));
            });
            println!("  {:<12}: {ns:>10.1} ns/op", kind.name());
            (kind.name(), ns)
        })
        .collect();

    let smoke = ShootoutGrid::smoke();
    let smoke_points = smoke.points().len() as f64;
    let shootout_warm = run_shootout(&smoke, 0);
    assert_eq!(
        shootout_warm.ranking.len(),
        5,
        "smoke shootout must rank all five policies"
    );
    let mut shootout_secs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run_shootout(&smoke, 0));
            start.elapsed().as_secs_f64()
        })
        .collect();
    shootout_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let shootout_pps = smoke_points / shootout_secs[1];
    println!("abr shootout  : {shootout_pps:>10.2} points/s ({smoke_points} smoke points)");

    // ---------------- Compare against committed baselines ----------------
    let pr4_base = load_baseline("BENCH_PR4.json");
    let pr5_base = load_baseline("BENCH_PR5.json");
    let pr6_base = load_baseline("BENCH_PR6.json");
    let pr7_base = load_baseline("BENCH_PR7.json");
    let pr8_base = load_baseline("BENCH_PR8.json");
    let pr9_base = load_baseline("BENCH_PR9.json");
    let pr10_base = load_baseline("BENCH_PR10.json");
    // Wall-clock metrics gate at the tolerance; deterministic byte and
    // rate metrics regress only through a behaviour change, so they use
    // the same gate and will trip on far smaller drifts in practice.
    let mut checks = vec![
        check(
            pr4_base.as_ref(),
            "visible_tiles_uncached_ns",
            uncached_ns,
            Gate::Record,
            tol,
        ),
        check(
            pr4_base.as_ref(),
            "visible_tiles_cached_ns",
            cached_ns,
            Gate::Lower,
            tol,
        ),
        check(
            pr4_base.as_ref(),
            "cached_speedup",
            speedup,
            Gate::Higher,
            tol,
        ),
        check(
            pr5_base.as_ref(),
            "edge_origin_demand_mb",
            edge_origin_mb,
            Gate::Lower,
            tol,
        ),
        check(
            pr5_base.as_ref(),
            "edge_cache_hit_rate_pct",
            edge_hit_pct,
            Gate::Higher,
            tol,
        ),
        check(
            pr5_base.as_ref(),
            "edge_origin_savings_pct",
            edge_savings_pct,
            Gate::Higher,
            tol,
        ),
        check(
            pr5_base.as_ref(),
            "edge_steps_per_s",
            edge_steps_per_s,
            Gate::Higher,
            tol,
        ),
        check(
            pr5_base.as_ref(),
            "edge_sweep_points_per_s",
            edge_sweep_pps,
            Gate::Higher,
            tol,
        ),
        check(
            pr6_base.as_ref(),
            "edge_steps_per_s",
            pr6_edge_steps_per_s,
            Gate::Higher,
            tol,
        ),
        check(
            pr6_base.as_ref(),
            "edge_full_steps_per_s",
            pr6_full_steps_per_s,
            Gate::Higher,
            tol,
        ),
        check(
            pr6_base.as_ref(),
            "edge_legacy_steps_per_s",
            legacy_1k_steps_per_s,
            Gate::Record,
            tol,
        ),
        check(
            pr6_base.as_ref(),
            "edge_prepare_ms",
            prepare_s * 1e3,
            Gate::Record,
            tol,
        ),
        check(
            pr6_base.as_ref(),
            "speedup_vs_pr5_anchor",
            pr6_speedup,
            Gate::Record,
            tol,
        ),
        check(
            pr7_base.as_ref(),
            "edge_bbr_steps_per_s",
            pr7_edge_steps_per_s,
            Gate::Record,
            tol,
        ),
        check(
            pr7_base.as_ref(),
            "bbr_overhead_pct",
            pr7_overhead_pct,
            Gate::Record,
            tol,
        ),
        check(
            pr7_base.as_ref(),
            "origin_retries",
            batched_bbr.origin_retries as f64,
            Gate::Record,
            tol,
        ),
        check(
            pr8_base.as_ref(),
            "federation_steps_per_s",
            fed_steps_per_s,
            Gate::Record,
            tol,
        ),
        check(
            pr8_base.as_ref(),
            "federation_origin_savings_pct",
            fed_savings_pct,
            Gate::Record,
            tol,
        ),
        check(
            pr8_base.as_ref(),
            "regional_hit_rate_pct",
            fed_hit_pct,
            Gate::Record,
            tol,
        ),
        check(
            pr9_base.as_ref(),
            "federation_steps_per_s",
            pr9_serial_steps_per_s,
            Gate::Record,
            tol,
        ),
        check(
            pr9_base.as_ref(),
            "federation_parallel_steps_per_s",
            pr9_parallel_steps_per_s,
            Gate::Record,
            tol,
        ),
        check(
            pr9_base.as_ref(),
            "digest_mb_per_s",
            digest_mb_per_s,
            Gate::Record,
            tol,
        ),
        check(
            pr10_base.as_ref(),
            "shootout_points_per_s",
            shootout_pps,
            Gate::Record,
            tol,
        ),
    ];
    for (name, ns) in &decide_ns {
        checks.push(check(
            pr10_base.as_ref(),
            &format!("decide_{name}_ns"),
            *ns,
            Gate::Record,
            tol,
        ));
    }

    // ---------------- Persist fresh artifacts ----------------
    let pr4_json = format!(
        "{{\n  \"visible_tiles_uncached_ns\": {uncached_ns:.1},\n  \
         \"visible_tiles_cached_ns\": {cached_ns:.1},\n  \
         \"cached_speedup\": {speedup:.1}\n}}\n"
    );
    std::fs::create_dir_all(FRESH_DIR).expect("create the fresh-measurement directory");
    write_fresh("BENCH_PR4.json", &pr4_json);
    let pr5_json = format!(
        "{{\n  \"edge_origin_demand_mb\": {edge_origin_mb:.1},\n  \
         \"edge_cache_hit_rate_pct\": {edge_hit_pct:.1},\n  \
         \"edge_origin_savings_pct\": {edge_savings_pct:.1},\n  \
         \"edge_steps_per_s\": {edge_steps_per_s:.0},\n  \
         \"edge_sweep_points_per_s\": {edge_sweep_pps:.2}\n}}\n"
    );
    write_fresh("BENCH_PR5.json", &pr5_json);
    let pr6_json = format!(
        "{{\n  \"edge_steps_per_s\": {pr6_edge_steps_per_s:.0},\n  \
         \"edge_full_steps_per_s\": {pr6_full_steps_per_s:.0},\n  \
         \"edge_legacy_steps_per_s\": {legacy_1k_steps_per_s:.0},\n  \
         \"edge_prepare_ms\": {:.1},\n  \
         \"speedup_vs_pr5_anchor\": {pr6_speedup:.1}\n}}\n",
        prepare_s * 1e3,
    );
    write_fresh("BENCH_PR6.json", &pr6_json);
    let pr7_json = format!(
        "{{\n  \"edge_bbr_steps_per_s\": {pr7_edge_steps_per_s:.0},\n  \
         \"bbr_overhead_pct\": {pr7_overhead_pct:.1},\n  \
         \"origin_retries\": {}\n}}\n",
        batched_bbr.origin_retries,
    );
    write_fresh("BENCH_PR7.json", &pr7_json);
    let pr8_json = format!(
        "{{\n  \"federation_steps_per_s\": {fed_steps_per_s:.0},\n  \
         \"federation_origin_savings_pct\": {fed_savings_pct:.1},\n  \
         \"regional_hit_rate_pct\": {fed_hit_pct:.1}\n}}\n"
    );
    write_fresh("BENCH_PR8.json", &pr8_json);
    let pr9_json = format!(
        "{{\n  \"federation_steps_per_s\": {pr9_serial_steps_per_s:.0},\n  \
         \"federation_parallel_steps_per_s\": {pr9_parallel_steps_per_s:.0},\n  \
         \"speedup_vs_pr8_anchor\": {pr9_speedup:.1},\n  \
         \"digest_mb_per_s\": {digest_mb_per_s:.1}\n}}\n"
    );
    write_fresh("BENCH_PR9.json", &pr9_json);
    let mut pr10_json = String::from("{\n");
    for (name, ns) in &decide_ns {
        pr10_json.push_str(&format!("  \"decide_{name}_ns\": {ns:.1},\n"));
    }
    pr10_json.push_str(&format!(
        "  \"shootout_points_per_s\": {shootout_pps:.2}\n}}\n"
    ));
    write_fresh("BENCH_PR10.json", &pr10_json);
    println!(
        "\nwrote BENCH_PR4.json, BENCH_PR5.json, BENCH_PR6.json, BENCH_PR7.json, \
         BENCH_PR8.json, BENCH_PR9.json, BENCH_PR10.json to {FRESH_DIR}/"
    );

    let failures: Vec<String> = checks.into_iter().flatten().collect();
    if failures.is_empty() {
        println!("perf gate: PASS (tolerance {:.0}%)", tol * 100.0);
    } else {
        eprintln!(
            "perf gate: FAIL ({} regression(s) past {:.0}%):",
            failures.len(),
            tol * 100.0
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
