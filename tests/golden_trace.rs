//! Golden-trace regression tests: one fully-featured seed-77 session
//! and one edge parameter sweep are pinned down to their exact digests
//! and QoE numbers. Any change to the simulation's event ordering, RNG
//! consumption, trace encoding, or sweep merge shows up here first.
//! Two churn goldens run a tile cache far below its working set, so the
//! LRU eviction schedule (which entry goes, and when) is pinned too.
//! A dispatch-matrix golden runs every inner ABR × scheduler ×
//! forecaster combination of the session builder once.
//!
//! Regenerating ALL goldens in this file after an
//! *intentional* behaviour change is one command:
//!
//! ```text
//! cargo test --test golden_trace -- --ignored --nocapture
//! ```
//!
//! then paste the printed constants over the `GOLDEN_*` values below.

use sperke_core::{
    run_edge_sweep, run_federation, run_shootout, zipf_catalog_clients, AbrChoice, EdgeConfig,
    EdgeGrid, EdgeRunReport, EdgeSweepPoint, FederationConfig, FederationHarness, RunReport,
    SchedulerChoice, ShootoutGrid, ShootoutReport, Sperke, SweepReport, TraceLevel,
};
use sperke_edge::oracle::run_edge_full;
use sperke_edge::{default_clients, flash_crowd_clients, EdgeHarness, FederationRunReport};
use sperke_hmp::Behavior;
use sperke_sim::sweep::run_sweep;
use sperke_sim::{fnv1a64, SimDuration};
use sperke_video::{VideoModel, VideoModelBuilder};
use sperke_vra::AbrPolicyKind;

/// The exact configuration the goldens were captured from. Must stay in
/// lockstep with `whole_stack_is_seed_deterministic` in end_to_end.rs.
fn golden_run() -> RunReport {
    Sperke::builder(77)
        .duration(SimDuration::from_secs(12))
        .behavior(Behavior::Explorer)
        .wifi_plus_lte()
        .scheduler(SchedulerChoice::ContentAware)
        .with_crowd(5)
        .with_speed_bound()
        .with_trace(TraceLevel::Verbose)
        .run_report()
}

const GOLDEN_DIGEST: u64 = 0x3dd518a6e1298240;
const GOLDEN_EVENTS: usize = 604;
const GOLDEN_SCORE_BITS: u64 = 0x3f89555555555580; // score = 0.01236979166666674
const GOLDEN_BYTES_FETCHED: u64 = 8970186;
const GOLDEN_STALL_COUNT: u32 = 0;

#[test]
fn seed_77_matches_golden_trace() {
    let report = golden_run();
    assert_eq!(
        report.trace_digest(),
        GOLDEN_DIGEST,
        "trace digest drifted — if the behaviour change is intentional, \
         regenerate with `cargo test --test golden_trace -- --ignored --nocapture`"
    );
    assert_eq!(report.trace.len(), GOLDEN_EVENTS, "event count drifted");
    assert_eq!(
        report.session.qoe.score.to_bits(),
        GOLDEN_SCORE_BITS,
        "QoE score drifted (got {})",
        report.session.qoe.score
    );
    assert_eq!(report.session.qoe.bytes_fetched, GOLDEN_BYTES_FETCHED);
    assert_eq!(report.session.qoe.stall_count, GOLDEN_STALL_COUNT);
}

/// The video and grid the edge-sweep goldens were captured from: a
/// 2×2×1 edge grid (clients × cache off / 64 MiB × seed).
fn golden_edge_sweep_inputs() -> (VideoModel, EdgeGrid) {
    let video = VideoModelBuilder::new(29)
        .duration(SimDuration::from_secs(6))
        .build();
    let grid = EdgeGrid::new(EdgeConfig::default())
        .clients_axis(vec![3, 6])
        .cache_axis(vec![0, 64 << 20])
        .seed_axis(vec![7]);
    (video, grid)
}

/// The exact sweep the edge-sweep goldens were captured from, merged
/// from three worker threads to keep the worker-blindness of the merge
/// under golden coverage too.
fn golden_edge_sweep() -> SweepReport<EdgeSweepPoint> {
    let (video, grid) = golden_edge_sweep_inputs();
    run_edge_sweep(&video, &grid, AbrPolicyKind::default(), 3)
}

const GOLDEN_EDGE_SWEEP_DIGEST: u64 = 0x8e23d34bbe401b3e;
const GOLDEN_EDGE_SWEEP_POINTS: usize = 4;
const GOLDEN_EDGE_SWEEP_POINT0_DIGEST: u64 = 0xdd6d0d7f73814c59;

#[test]
fn edge_sweep_matches_golden_digest() {
    let report = golden_edge_sweep();
    assert_eq!(report.len(), GOLDEN_EDGE_SWEEP_POINTS);
    assert_eq!(
        report.digest(),
        GOLDEN_EDGE_SWEEP_DIGEST,
        "edge sweep report drifted — if the behaviour change is \
         intentional, regenerate with \
         `cargo test --test golden_trace -- --ignored --nocapture`"
    );
    assert_eq!(
        report.points()[0].trace_digest,
        GOLDEN_EDGE_SWEEP_POINT0_DIGEST,
        "per-point digest drifted"
    );
    assert!(report.panicked().is_empty(), "golden grid never panics");
}

/// Two engines stand under the edge-sweep golden: the per-event oracle,
/// run once per grid point through the sweep harness, must land on the
/// *same* pinned digest as the production sweep and on its exact JSONL
/// — no regenerated constants allowed. Worker-count blindness is
/// covered in `engine_equivalence.rs`; here the engine is held to
/// history and to the oracle bit for bit.
#[test]
fn edge_oracle_reproduces_golden_sweep_digest() {
    let (video, grid) = golden_edge_sweep_inputs();
    let harness = EdgeHarness::default();
    let report = run_sweep(&grid.plan(), 3, |_index, config| EdgeSweepPoint {
        config: *config,
        report: run_edge_full(&video, config, &default_clients(config), &harness, None),
    });
    assert_eq!(report.len(), GOLDEN_EDGE_SWEEP_POINTS);
    assert_eq!(
        report.digest(),
        GOLDEN_EDGE_SWEEP_DIGEST,
        "the oracle drifted from the pinned edge-sweep digest"
    );
    assert_eq!(
        report.points()[0].trace_digest,
        GOLDEN_EDGE_SWEEP_POINT0_DIGEST
    );
    assert_eq!(
        report.to_jsonl(),
        golden_edge_sweep().to_jsonl(),
        "the production sweep drifted from the oracle's bytes"
    );
}

/// The exact federation the federation goldens were captured from: a
/// seed-77 4-node federation absorbing a 64-client flash crowd (16
/// steady arrivals, 48 surging in at 3 s on a 100 ms cadence), run on
/// 3 sense workers so worker-blindness stays under golden coverage.
fn golden_federation() -> FederationRunReport {
    let video = VideoModelBuilder::new(77)
        .duration(SimDuration::from_secs(10))
        .build();
    let mut config = FederationConfig::default();
    config.node.seed = 77;
    config.seed = 77;
    config.nodes = 4;
    let clients = flash_crowd_clients(
        &config.node,
        16,
        48,
        SimDuration::from_secs(3),
        SimDuration::from_millis(100),
    );
    let harness = FederationHarness {
        trace: TraceLevel::Verbose,
        ..Default::default()
    };
    run_federation(&video, &config, &clients, &harness, None, 3)
}

const GOLDEN_FED_DIGEST: u64 = 0xd76f325f1ff941e4;
const GOLDEN_FED_CLIENTS: usize = 64;
const GOLDEN_FED_ORIGIN_BYTES: u64 = 25714904;
const GOLDEN_FED_REGIONAL_HIT_BYTES: u64 = 65627245;

#[test]
fn seed_77_federation_matches_golden_digest() {
    let run = golden_federation();
    assert_eq!(
        run.combined_digest(),
        GOLDEN_FED_DIGEST,
        "federation trace digest drifted — if the behaviour change is \
         intentional, regenerate with \
         `cargo test --test golden_trace -- --ignored --nocapture`"
    );
    assert_eq!(run.report.clients, GOLDEN_FED_CLIENTS);
    assert_eq!(run.report.origin_bytes, GOLDEN_FED_ORIGIN_BYTES);
    assert_eq!(run.report.regional.hit_bytes, GOLDEN_FED_REGIONAL_HIT_BYTES);
    assert_eq!(run.report.origin_failed_bytes, 0);
    assert_eq!(run.report.failed_nodes, 0);
}

/// The exact federation the backlogged-federation golden was captured
/// from: a seed-77 4-node flash crowd shaped like the benchmark's
/// `fed_flash` (8 Mbps budgets, one title, a surge on a 5 ms cadence)
/// but small, with every node's egress cut to 40 Mbps. Each node's WRR
/// egress stays backlogged past `degrade_backlog`, so decides shed SVC
/// layers: this is the only golden that reaches the egress-pressure
/// path.
fn golden_backlogged_federation() -> FederationRunReport {
    let video = VideoModelBuilder::new(77)
        .duration(SimDuration::from_secs(8))
        .build();
    let mut config = FederationConfig {
        nodes: 4,
        seed: 77,
        ..Default::default()
    };
    config.node.seed = 77;
    config.node.egress_bps = 40e6;
    let clients = flash_crowd_clients(
        &config.node,
        16,
        48,
        SimDuration::from_secs(2),
        SimDuration::from_millis(5),
    );
    let harness = FederationHarness {
        trace: TraceLevel::Verbose,
        ..Default::default()
    };
    run_federation(&video, &config, &clients, &harness, None, 2)
}

const GOLDEN_BACKLOGGED_FED_DIGEST: u64 = 0xc153634e9e5a11b8;
const GOLDEN_BACKLOGGED_FED_DEGRADED: [u64; 4] = [165, 130, 21, 135];

#[test]
fn backlogged_federation_matches_golden_digest() {
    let run = golden_backlogged_federation();
    let degraded: Vec<u64> = run
        .report
        .nodes
        .iter()
        .map(|n| n.degraded_decides)
        .collect();
    assert!(
        degraded.iter().all(|&d| d > 0),
        "every node's egress must shed layers, got {degraded:?}"
    );
    assert_eq!(
        run.combined_digest(),
        GOLDEN_BACKLOGGED_FED_DIGEST,
        "backlogged federation trace digest drifted — if the behaviour \
         change is intentional, regenerate with \
         `cargo test --test golden_trace -- --ignored --nocapture`"
    );
    assert_eq!(degraded, GOLDEN_BACKLOGGED_FED_DEGRADED);
}

/// The exact edge run the edge-churn golden was captured from: 32
/// seed-77 clients over a Zipf(0.9) catalog of 8 titles, streaming 6 s
/// into an 8 MiB tile cache, about an eighth of the 68 MB the run
/// fetches with an unbounded cache. The cache evicts thousands of times,
/// and every later hit or miss in the trace depends on which entries
/// the LRU kept.
fn golden_edge_churn() -> EdgeRunReport {
    let config = EdgeConfig {
        clients: 32,
        max_clients: 32,
        cache_bytes: 8 << 20,
        seed: 77,
        ..Default::default()
    };
    let clients = zipf_catalog_clients(&config, 32, 8, 0.9);
    Sperke::edge_builder(77)
        .config(config)
        .client_specs(clients)
        .duration(SimDuration::from_secs(6))
        .with_trace(TraceLevel::Verbose)
        .run_batched(2)
}

const GOLDEN_EDGE_CHURN_DIGEST: u64 = 0xcc5a17bdaccf9ebd;
const GOLDEN_EDGE_CHURN_EVENTS: usize = 6547;
const GOLDEN_EDGE_CHURN_EVICTIONS: u64 = 3893;
const GOLDEN_EDGE_CHURN_HITS: u64 = 2324;

#[test]
fn edge_churn_matches_golden_digest() {
    let run = golden_edge_churn();
    assert!(run.report.cache.evictions > 0, "the cache must churn");
    assert_eq!(
        run.trace_digest(),
        GOLDEN_EDGE_CHURN_DIGEST,
        "edge churn trace digest drifted — if the behaviour change is \
         intentional, regenerate with \
         `cargo test --test golden_trace -- --ignored --nocapture`"
    );
    assert_eq!(run.trace.len(), GOLDEN_EDGE_CHURN_EVENTS);
    assert_eq!(run.report.cache.evictions, GOLDEN_EDGE_CHURN_EVICTIONS);
    assert_eq!(run.report.cache.hits, GOLDEN_EDGE_CHURN_HITS);
}

/// The exact federation the regional-churn golden was captured from:
/// 24 seed-77 clients over a Zipf(0.9) catalog of 6 titles on 3 nodes,
/// streaming 6 s behind an 8 MiB regional tier, about a sixth of the
/// 51 MB the tier fetches when unbounded. The edge caches keep their
/// (large) default, so the churn is the regional tier's.
fn golden_regional_churn() -> FederationRunReport {
    let video = VideoModelBuilder::new(77)
        .duration(SimDuration::from_secs(6))
        .build();
    let mut config = FederationConfig {
        nodes: 3,
        seed: 77,
        regional_bytes: 8 << 20,
        ..Default::default()
    };
    config.node.seed = 77;
    let clients = zipf_catalog_clients(&config.node, 24, 6, 0.9);
    let harness = FederationHarness {
        trace: TraceLevel::Verbose,
        ..Default::default()
    };
    run_federation(&video, &config, &clients, &harness, None, 2)
}

const GOLDEN_REGIONAL_CHURN_DIGEST: u64 = 0xf2b3c15d83eb4a73;
const GOLDEN_REGIONAL_CHURN_EVICTIONS: u64 = 1850;
const GOLDEN_REGIONAL_CHURN_HITS: u64 = 557;
const GOLDEN_REGIONAL_CHURN_ORIGIN_BYTES: u64 = 65612000;

#[test]
fn regional_churn_matches_golden_digest() {
    let run = golden_regional_churn();
    assert!(
        run.report.regional.evictions > 0,
        "the regional tier must churn"
    );
    assert_eq!(
        run.combined_digest(),
        GOLDEN_REGIONAL_CHURN_DIGEST,
        "regional churn trace digest drifted — if the behaviour change \
         is intentional, regenerate with \
         `cargo test --test golden_trace -- --ignored --nocapture`"
    );
    assert_eq!(
        run.report.regional.evictions,
        GOLDEN_REGIONAL_CHURN_EVICTIONS
    );
    assert_eq!(run.report.regional.hits, GOLDEN_REGIONAL_CHURN_HITS);
    assert_eq!(run.report.origin_bytes, GOLDEN_REGIONAL_CHURN_ORIGIN_BYTES);
}

/// The exact shootout the shootout golden was captured from: the
/// reduced CI smoke grid (all five policies × 2 bandwidths ×
/// 1 behaviour × 1 seed), run on 3 workers so the merge's
/// worker-blindness stays under golden coverage. The same grid is what
/// `ABR_SHOOTOUT_SMOKE=1 cargo run --release --example abr_shootout`
/// executes in CI.
fn golden_shootout() -> ShootoutReport {
    run_shootout(&ShootoutGrid::smoke(), 3)
}

const GOLDEN_SHOOTOUT_DIGEST: u64 = 0xb7e25213f8878736;
const GOLDEN_SHOOTOUT_POINTS: usize = 10;
const GOLDEN_SHOOTOUT_WINNER: &str = "qer";

#[test]
fn smoke_shootout_matches_golden_digest() {
    let report = golden_shootout();
    assert_eq!(report.points.len(), GOLDEN_SHOOTOUT_POINTS);
    assert_eq!(
        report.digest(),
        GOLDEN_SHOOTOUT_DIGEST,
        "shootout report drifted — if the behaviour change is \
         intentional, regenerate with \
         `cargo test --test golden_trace -- --ignored --nocapture`"
    );
    assert_eq!(
        report.ranking[0].policy, GOLDEN_SHOOTOUT_WINNER,
        "smoke-grid winner changed"
    );
}

/// Every inner ABR × multipath scheduler × forecaster combination the
/// builder can dispatch, run once each on a short dual-path session, in
/// this fixed order. The golden session above covers only one of these
/// 24 cells; this one pins the rest, so a swapped dispatch arm shows up.
fn golden_dispatch_matrix() -> u64 {
    let mut bytes = Vec::new();
    for abr in [AbrChoice::RateBased, AbrChoice::BufferBased, AbrChoice::Mpc] {
        for scheduler in [
            SchedulerChoice::SinglePath,
            SchedulerChoice::MinRtt,
            SchedulerChoice::EarliestCompletion,
            SchedulerChoice::ContentAware,
        ] {
            for oracle in [false, true] {
                let mut b = Sperke::builder(77)
                    .duration(SimDuration::from_secs(8))
                    .wifi_plus_lte()
                    .abr(abr)
                    .scheduler(scheduler)
                    .with_trace(TraceLevel::Decisions);
                if oracle {
                    b = b.with_oracle_hmp();
                }
                let report = b.run_report();
                bytes.extend_from_slice(&report.trace_digest().to_le_bytes());
                bytes.extend_from_slice(&report.session.qoe.score.to_bits().to_le_bytes());
            }
        }
    }
    fnv1a64(&bytes)
}

const GOLDEN_DISPATCH_MATRIX_DIGEST: u64 = 0xeed3026756b518cc;

#[test]
fn builder_dispatch_matrix_matches_golden_digest() {
    assert_eq!(
        golden_dispatch_matrix(),
        GOLDEN_DISPATCH_MATRIX_DIGEST,
        "an ABR, scheduler or forecaster dispatch drifted — if the \
         behaviour change is intentional, regenerate with \
         `cargo test --test golden_trace -- --ignored --nocapture`"
    );
}

/// Prints fresh golden constants for ALL goldens (session, edge sweep,
/// federation, edge and regional churn, shootout and dispatch matrix).
/// Run with `cargo test --test golden_trace -- --ignored --nocapture`
/// and paste the output over the `GOLDEN_*` constants above.
#[test]
#[ignore = "regeneration helper, not a check"]
fn regenerate_golden_constants() {
    let report = golden_run();
    println!(
        "const GOLDEN_DIGEST: u64 = {:#018x};",
        report.trace_digest()
    );
    println!("const GOLDEN_EVENTS: usize = {};", report.trace.len());
    println!(
        "const GOLDEN_SCORE_BITS: u64 = {:#018x}; // score = {}",
        report.session.qoe.score.to_bits(),
        report.session.qoe.score
    );
    println!(
        "const GOLDEN_BYTES_FETCHED: u64 = {};",
        report.session.qoe.bytes_fetched
    );
    println!(
        "const GOLDEN_STALL_COUNT: u32 = {};",
        report.session.qoe.stall_count
    );
    let sweep = golden_edge_sweep();
    println!(
        "const GOLDEN_EDGE_SWEEP_DIGEST: u64 = {:#018x};",
        sweep.digest()
    );
    println!("const GOLDEN_EDGE_SWEEP_POINTS: usize = {};", sweep.len());
    println!(
        "const GOLDEN_EDGE_SWEEP_POINT0_DIGEST: u64 = {:#018x};",
        sweep.points()[0].trace_digest
    );
    let fed = golden_federation();
    println!(
        "const GOLDEN_FED_DIGEST: u64 = {:#018x};",
        fed.combined_digest()
    );
    println!("const GOLDEN_FED_CLIENTS: usize = {};", fed.report.clients);
    println!(
        "const GOLDEN_FED_ORIGIN_BYTES: u64 = {};",
        fed.report.origin_bytes
    );
    println!(
        "const GOLDEN_FED_REGIONAL_HIT_BYTES: u64 = {};",
        fed.report.regional.hit_bytes
    );
    let backlogged = golden_backlogged_federation();
    println!(
        "const GOLDEN_BACKLOGGED_FED_DIGEST: u64 = {:#018x};",
        backlogged.combined_digest()
    );
    println!(
        "const GOLDEN_BACKLOGGED_FED_DEGRADED: [u64; {}] = {:?};",
        backlogged.report.nodes.len(),
        backlogged
            .report
            .nodes
            .iter()
            .map(|n| n.degraded_decides)
            .collect::<Vec<_>>()
    );
    let edge = golden_edge_churn();
    println!(
        "const GOLDEN_EDGE_CHURN_DIGEST: u64 = {:#018x};",
        edge.trace_digest()
    );
    println!(
        "const GOLDEN_EDGE_CHURN_EVENTS: usize = {};",
        edge.trace.len()
    );
    println!(
        "const GOLDEN_EDGE_CHURN_EVICTIONS: u64 = {};",
        edge.report.cache.evictions
    );
    println!(
        "const GOLDEN_EDGE_CHURN_HITS: u64 = {};",
        edge.report.cache.hits
    );
    let regional = golden_regional_churn();
    println!(
        "const GOLDEN_REGIONAL_CHURN_DIGEST: u64 = {:#018x};",
        regional.combined_digest()
    );
    println!(
        "const GOLDEN_REGIONAL_CHURN_EVICTIONS: u64 = {};",
        regional.report.regional.evictions
    );
    println!(
        "const GOLDEN_REGIONAL_CHURN_HITS: u64 = {};",
        regional.report.regional.hits
    );
    println!(
        "const GOLDEN_REGIONAL_CHURN_ORIGIN_BYTES: u64 = {};",
        regional.report.origin_bytes
    );
    let shootout = golden_shootout();
    println!(
        "const GOLDEN_SHOOTOUT_DIGEST: u64 = {:#018x};",
        shootout.digest()
    );
    println!(
        "const GOLDEN_SHOOTOUT_POINTS: usize = {};",
        shootout.points.len()
    );
    println!(
        "const GOLDEN_SHOOTOUT_WINNER: &str = \"{}\";",
        shootout.ranking[0].policy
    );
    println!(
        "const GOLDEN_DISPATCH_MATRIX_DIGEST: u64 = {:#018x};",
        golden_dispatch_matrix()
    );
}
