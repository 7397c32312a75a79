//! Integration suite for the edge-server subsystem.
//!
//! The headline scenario: 32 concurrent viewers behind one edge whose
//! shared tile cache cuts origin egress to a fraction of the
//! independent-sessions baseline. The property tests pin the three
//! invariants the edge accounting rests on:
//!
//! 1. **byte balance** — cache and origin byte counters balance
//!    exactly: `origin ok + origin failed == miss bytes + prefetch
//!    bytes`, and (fault-free) `egress == hit bytes + miss bytes`;
//! 2. **interleaving invariance** — the same `(config, clients)` set
//!    yields byte-identical traces whatever order the client specs
//!    were supplied in;
//! 3. **admission safety** — admitted clients never exceed the cap,
//!    whatever the population size.
//!
//! Invariants 1 and 3 are checked twice: once on the per-event oracle
//! (`sperke_edge::oracle::run_edge_full`) and once on the production
//! engine (`run_edge`) at any worker count.
//!
//! The edge is also the stack's one multi-viewer model for §2 at scale:
//! the crowd tests below pit FoV-guided viewers against full-panorama
//! ones (`AbrPolicyKind::panorama`), bound the congestion metrics, and
//! check that egress overshoots the link's capacity only with late
//! streams.

use proptest::prelude::*;
use sperke_core::{EdgeConfig, Sperke};
use sperke_edge::oracle::run_edge_full;
use sperke_edge::{default_clients, run_edge, EdgeClientSpec, EdgeHarness, EdgeReport};
use sperke_sim::trace::{TraceConfig, TraceLevel, TraceSink};
use sperke_sim::SimDuration;
use sperke_video::{Quality, Scheme, VideoModel, VideoModelBuilder};
use sperke_vra::AbrPolicyKind;

fn video(secs: u64) -> VideoModel {
    VideoModelBuilder::new(3)
        .duration(SimDuration::from_secs(secs))
        .build()
}

/// The default population with no faults and no trace.
fn run_default(video: &VideoModel, config: &EdgeConfig, workers: usize) -> EdgeReport {
    run_edge(
        video,
        config,
        &default_clients(config),
        &EdgeHarness::default(),
        None,
        workers,
    )
}

/// §2-at-the-edge: with ≥32 clients sharing one cache, each hot tile
/// layer crosses the backhaul once instead of once per client, so
/// origin egress lands at ≤ 50% of the no-cache baseline (it is far
/// lower in practice; 50% is the contract).
#[test]
fn shared_cache_halves_origin_egress_for_32_clients() {
    let v = video(10);
    let base = EdgeConfig {
        clients: 32,
        max_clients: 64,
        ..Default::default()
    };
    let cached = run_default(&v, &base, 1);
    let uncached = run_default(
        &v,
        &EdgeConfig {
            cache_bytes: 0,
            prefetch: false,
            ..base
        },
        1,
    );
    assert_eq!(cached.admitted, 32);
    assert!(
        cached.origin_demand_bytes() * 2 <= uncached.origin_demand_bytes(),
        "cached origin {} must be ≤ 50% of uncached {}",
        cached.origin_demand_bytes(),
        uncached.origin_demand_bytes()
    );
    // The clients see the same video either way: the cache pays the
    // origin bill, not the viewport.
    assert!(cached.mean_viewport_utility >= uncached.mean_viewport_utility - 0.05);
}

/// The builder surface reaches the same numbers.
#[test]
fn edge_builder_matches_direct_run() {
    let direct = run_default(
        &VideoModelBuilder::new(7)
            .duration(SimDuration::from_secs(8))
            .build(),
        &EdgeConfig {
            clients: 6,
            seed: 7,
            ..Default::default()
        },
        1,
    );
    let built = Sperke::edge_builder(7)
        .clients(6)
        .duration(SimDuration::from_secs(8))
        .run();
    assert_eq!(direct, built);
}

/// A crowd of `clients` viewers behind an edge whose egress carries
/// `egress_bps`.
fn crowd(seed: u64, clients: usize, egress_bps: f64) -> EdgeConfig {
    EdgeConfig {
        clients,
        egress_bps,
        seed,
        ..Default::default()
    }
}

/// Run `config` on a 10 s video with FoV-guided viewers on a 10 Mbps
/// budget, or full-panorama viewers on the budget that affords the
/// whole sphere at Q2 in every chunk.
fn run_crowd(config: EdgeConfig, panorama: bool) -> EdgeReport {
    let builder = Sperke::edge_builder(config.seed).duration(SimDuration::from_secs(10));
    let (policy, budget) = if panorama {
        let video = builder.build_video();
        let budget = video.panorama_peak_bps(Quality(2), Scheme::svc_default());
        (AbrPolicyKind::panorama(), budget)
    } else {
        (AbrPolicyKind::default(), 10e6)
    };
    builder
        .config(EdgeConfig {
            per_client_budget_bps: budget,
            ..config
        })
        .abr_policy(policy)
        .run()
}

/// A mean egress rate above the link's capacity comes only with late
/// streams. The run lasts the video plus the last client's arrival
/// stagger, when the last display is due, so every stream that
/// finishes after it is late. The edge settles every stream it
/// submitted, late ones included, so an overloaded crowd's
/// `egress_bytes·8/run length` can exceed `egress_bps`; with every
/// stream on time it cannot. The overloaded crowds here do exceed
/// capacity, so that branch runs. The link's own capacity is checked
/// by `sperke-net`'s `wrr::tests::work_is_conserved_across_weightings`.
#[test]
fn egress_above_capacity_comes_only_with_late_streams() {
    let mut overloaded = 0;
    for (clients, egress_bps) in [(6usize, 30e6), (12, 60e6), (20, 25e6)] {
        let config = crowd(17, clients, egress_bps);
        let run = SimDuration::from_secs(10) + config.arrival_spacing * (clients as u64 - 1);
        for panorama in [false, true] {
            let report = run_crowd(config, panorama);
            let mean_bps = report.egress_bytes as f64 * 8.0 / run.as_secs_f64();
            if mean_bps > egress_bps * 1.0001 {
                overloaded += 1;
                assert!(
                    report.late_stream_fraction > 0.0,
                    "{clients} clients through a {:.0} Mbps link drove {:.1} Mbps mean \
                     egress with every stream on time",
                    egress_bps / 1e6,
                    mean_bps / 1e6,
                );
            }
            assert!(report.egress_bytes > 0, "the link did carry traffic");
        }
    }
    assert!(overloaded > 0, "some crowd must demand more than capacity");
}

/// At an equal-QoE configuration (the panorama crowd gets the larger
/// budget that affords comparable viewport quality), FoV-guided
/// delivery strictly beats full-panorama delivery on egress bytes.
#[test]
fn fov_guided_strictly_beats_full_panorama_on_egress() {
    let guided = run_crowd(crowd(17, 8, 1e9), false);
    let panorama = run_crowd(crowd(17, 8, 1e9), true);
    assert!(
        guided.mean_viewport_utility >= panorama.mean_viewport_utility - 0.15,
        "equal-QoE premise holds: guided {:.2} vs panorama {:.2}",
        guided.mean_viewport_utility,
        panorama.mean_viewport_utility,
    );
    assert!(
        guided.egress_bytes < panorama.egress_bytes,
        "guided egress {} must be strictly below panorama {}",
        guided.egress_bytes,
        panorama.egress_bytes,
    );
}

/// Default-config outcomes are a pure function of the seed, for guided
/// and panorama crowds alike: same seed → identical report, different
/// seed → different traffic.
#[test]
fn default_config_outcomes_are_seed_deterministic() {
    let base = EdgeConfig::default();
    for panorama in [false, true] {
        let run = |seed: u64| run_crowd(EdgeConfig { seed, ..base }, panorama);
        let a = run(base.seed);
        assert_eq!(a, run(base.seed), "same seed, byte-equal report");
        assert_ne!(
            a,
            run(base.seed + 1),
            "a different seed reshuffles viewer behaviour and the traffic it drives"
        );
    }
}

/// Late streams are accounted within [0, 1] and congestion only ever
/// increases them (sanity envelope for the congestion metrics).
#[test]
fn late_fraction_stays_a_fraction_and_grows_under_pressure() {
    for panorama in [false, true] {
        let ample = run_crowd(crowd(17, 8, 500e6), panorama);
        let tight = run_crowd(crowd(17, 8, 20e6), panorama);
        for r in [&ample, &tight] {
            assert!((0.0..=1.0).contains(&r.late_stream_fraction));
            assert!((0.0..=1.0).contains(&r.mean_blank_fraction));
        }
        assert!(tight.late_stream_fraction >= ample.late_stream_fraction);
    }
}

/// Build a client population from parallel raw draws (the vendored
/// proptest shim has no `prop_map`, so specs are assembled in-body).
fn specs_from(raw: &[(u64, u64, u32, u64)]) -> Vec<EdgeClientSpec> {
    raw.iter()
        .map(|&(arr_ms, seed, weight, mbps)| EdgeClientSpec {
            arrival: SimDuration::from_millis(arr_ms),
            seed,
            weight,
            budget_bps: mbps as f64 * 1e6,
            content: 0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: the books balance, for any population and cache
    /// size, with prefetch on or off.
    #[test]
    fn cache_accounting_balances_bytes_exactly(
        clients in 1usize..10,
        cache_pick in 0usize..4,
        prefetch: bool,
        seed in 0u64..100,
    ) {
        let v = video(6);
        let cfg = EdgeConfig {
            clients,
            cache_bytes: [0u64, 8, 64, 256][cache_pick] << 20,
            prefetch,
            seed,
            ..Default::default()
        };
        let r = run_edge_full(&v, &cfg, &default_clients(&cfg), &EdgeHarness::default(), None);
        prop_assert_eq!(
            r.origin_demand_bytes(),
            r.cache.miss_bytes + r.cache.prefetch_bytes,
            "origin traffic must equal miss + prefetch bytes"
        );
        // Fault-free: every request (hit or miss) is delivered once.
        prop_assert_eq!(r.egress_bytes, r.cache.hit_bytes + r.cache.miss_bytes);
        prop_assert_eq!(r.origin_failed_bytes, 0u64);
    }

    /// Invariant 1 under the production (batched) engine: advancing
    /// sessions in lockstep phases must not bend the books — exact byte
    /// balance holds for any population, cache size and worker count.
    #[test]
    fn batched_engine_balances_bytes_exactly(
        clients in 1usize..10,
        cache_pick in 0usize..4,
        prefetch: bool,
        seed in 0u64..100,
        workers in 1usize..9,
    ) {
        let v = video(6);
        let cfg = EdgeConfig {
            clients,
            cache_bytes: [0u64, 8, 64, 256][cache_pick] << 20,
            prefetch,
            seed,
            ..Default::default()
        };
        let r = run_default(&v, &cfg, workers);
        prop_assert_eq!(
            r.origin_demand_bytes(),
            r.cache.miss_bytes + r.cache.prefetch_bytes,
            "origin traffic must equal miss + prefetch bytes"
        );
        prop_assert_eq!(r.egress_bytes, r.cache.hit_bytes + r.cache.miss_bytes);
        prop_assert_eq!(r.origin_failed_bytes, 0u64);
    }

    /// Invariant 2: supplying the same client set in any order yields a
    /// byte-identical trace (and so an identical report).
    #[test]
    fn client_interleaving_never_changes_trace_bytes(
        raw in proptest::collection::vec((0u64..4000, 0u64..1000, 1u32..4, 4u64..12), 2..7),
        rot in 0usize..7,
        seed in 0u64..50,
    ) {
        let specs = specs_from(&raw);
        let v = video(5);
        let cfg = EdgeConfig { clients: specs.len(), seed, ..Default::default() };
        let run = |order: &[EdgeClientSpec]| {
            let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
            let harness = EdgeHarness { trace: sink.clone(), ..Default::default() };
            let report = run_edge(&v, &cfg, order, &harness, None, 1);
            let trace = sink.snapshot();
            (report, trace.to_jsonl(), trace.digest())
        };
        let mut rotated = specs.clone();
        rotated.rotate_left(rot % specs.len());
        let (r1, jsonl1, d1) = run(&specs);
        let (r2, jsonl2, d2) = run(&rotated);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(jsonl1, jsonl2);
        prop_assert_eq!(d1, d2);
    }

    /// Invariant 3 under the production (batched) engine: the admission
    /// cap holds for any population size and worker count (rejected
    /// clients are sensed but never planned, fetched for, or rendered).
    #[test]
    fn batched_admission_never_exceeds_the_cap(
        clients in 1usize..24,
        cap in 1usize..8,
        seed in 0u64..50,
        workers in 1usize..9,
    ) {
        let v = video(4);
        let cfg = EdgeConfig { clients, max_clients: cap, seed, ..Default::default() };
        let sink = TraceSink::new(TraceConfig::new(TraceLevel::Events));
        let harness = EdgeHarness { trace: sink.clone(), ..Default::default() };
        let r = run_edge(&v, &cfg, &default_clients(&cfg), &harness, None, workers);
        prop_assert!(r.admitted <= cap);
        prop_assert_eq!(r.admitted, clients.min(cap));
        prop_assert_eq!(r.admitted + r.rejected, clients);
        let admitted_events = sink
            .snapshot()
            .events()
            .iter()
            .filter(|e| matches!(e, sperke_sim::TraceEvent::ClientAdmitted { .. }))
            .count();
        prop_assert!(admitted_events <= cap, "trace shows ≤ cap admissions");
    }

    /// Invariant 3: admission control never exceeds the cap.
    #[test]
    fn admission_never_exceeds_the_cap(
        clients in 1usize..24,
        cap in 1usize..8,
        seed in 0u64..50,
    ) {
        let v = video(4);
        let cfg = EdgeConfig { clients, max_clients: cap, seed, ..Default::default() };
        let sink = TraceSink::new(TraceConfig::new(TraceLevel::Events));
        let harness = EdgeHarness { trace: sink.clone(), ..Default::default() };
        let r = run_edge_full(&v, &cfg, &default_clients(&cfg), &harness, None);
        prop_assert!(r.admitted <= cap);
        prop_assert_eq!(r.admitted, clients.min(cap));
        prop_assert_eq!(r.admitted + r.rejected, clients);
        let admitted_events = sink
            .snapshot()
            .events()
            .iter()
            .filter(|e| matches!(e, sperke_sim::TraceEvent::ClientAdmitted { .. }))
            .count();
        prop_assert!(admitted_events <= cap, "trace shows ≤ cap admissions");
    }
}
