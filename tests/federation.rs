//! Integration suite for the edge federation.
//!
//! The federation's correctness contract, pinned end to end:
//!
//! 1. **determinism** — `(config, clients, seed)` produces
//!    byte-identical traces and digests for ANY sense worker count and
//!    under ANY permutation of client specs or node declarations;
//! 2. **byte conservation** — the three cross-tier identities are
//!    exact: `origin ok + failed == regional misses`,
//!    `regional ingress == Σ edge (misses + prefetches)`, and
//!    `regional egress == regional hits + origin ok`;
//! 3. **oracle** — a 1-node federation over a degenerate regional tier
//!    (no cache, infinite capacity, zero RTT) is trace-byte-identical
//!    to a standalone edge, which runs the same replay on one node with
//!    no tier: the tier's legs stand in for the edge's own backhaul;
//! 4. **failure** — a scripted node crash re-homes every resident onto
//!    the ring's survivors, deterministically, with no client silently
//!    dropped and delivery continuing on the survivors;
//! 5. **cooperation pays** — a flash crowd split across 4 nodes pulls
//!    measurably fewer origin bytes with the shared regional tier than
//!    the same deployment with isolated edges.

use proptest::prelude::*;
use sperke_edge::oracle::run_edge_full;
use sperke_edge::{
    default_clients, flash_crowd_clients, run_edge, run_federation, zipf_catalog_clients,
    EdgeClientSpec, EdgeConfig, EdgeHarness, FederationConfig, FederationHarness, NodeSpec,
};
use sperke_net::FaultScript;
use sperke_sim::trace::{TraceConfig, TraceLevel, TraceSink};
use sperke_sim::{SimDuration, SimTime, TraceEvent};
use sperke_video::{VideoModel, VideoModelBuilder};

fn video(secs: u64) -> VideoModel {
    VideoModelBuilder::new(3)
        .duration(SimDuration::from_secs(secs))
        .build()
}

fn traced(level: TraceLevel) -> FederationHarness {
    FederationHarness {
        trace: level,
        ..Default::default()
    }
}

/// Contract 3: the single-edge engine is a special case of the
/// federation. One node, no regional cache, an unconstrained zero-RTT
/// edge↔regional leg — the node's trace bytes, digest and report must
/// be bit-identical to the plain engine, at every worker count.
#[test]
fn one_node_federation_is_bit_exact_vs_plain_edge() {
    let v = video(10);
    let edge_cfg = EdgeConfig {
        clients: 12,
        seed: 7,
        ..Default::default()
    };
    let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
    let clients = default_clients(&edge_cfg);
    let harness = EdgeHarness {
        trace: sink.clone(),
        ..Default::default()
    };
    let legacy = run_edge(&v, &edge_cfg, &clients, &harness, None, 1);
    let legacy_trace = sink.snapshot();
    assert_eq!(
        legacy,
        run_edge_full(&v, &edge_cfg, &clients, &EdgeHarness::default(), None),
        "the per-event oracle is the same engine"
    );

    let fed_cfg = FederationConfig {
        node: edge_cfg,
        nodes: 1,
        regional_bytes: 0,
        regional_bps: f64::INFINITY,
        regional_rtt: SimDuration::ZERO,
        ..Default::default()
    };
    for workers in [1usize, 2, 8] {
        let fed = run_federation(
            &v,
            &fed_cfg,
            &default_clients(&edge_cfg),
            &traced(TraceLevel::Verbose),
            None,
            workers,
        );
        assert_eq!(
            fed.report.nodes[0], legacy,
            "degenerate federation must reproduce the plain edge report ({workers} workers)"
        );
        assert_eq!(
            fed.node_traces[0].to_jsonl(),
            legacy_trace.to_jsonl(),
            "node trace must be byte-identical to the plain engine ({workers} workers)"
        );
        assert_eq!(fed.node_traces[0].digest(), legacy_trace.digest());
        // The degenerate tier forwards everything: no regional hits.
        assert_eq!(fed.report.regional.hit_bytes, 0);
        assert_eq!(fed.report.origin_bytes, legacy.origin_bytes);
    }
}

/// Contract 4: a scripted crash-stop re-homes every resident of the
/// dead node onto survivors — deterministically at every worker count —
/// with admission events balancing exactly and the survivors still
/// serving traffic after the crash. Re-homing skips admission, so a
/// survivor can end above its own cap while the federation's admitted
/// total stays what the fault-free run admits.
#[test]
fn node_failure_rehomes_every_client_deterministically() {
    let v = video(10);
    let node = EdgeConfig {
        seed: 7,
        ..Default::default()
    };
    let clients = default_clients(&EdgeConfig {
        clients: 24,
        ..node
    });
    let cfg = FederationConfig {
        node,
        nodes: 3,
        ..Default::default()
    };
    let t_fail = SimTime::from_secs(4);
    let harness = FederationHarness {
        trace: TraceLevel::Verbose,
        node_faults: FaultScript::none().link_down(1, t_fail, SimTime::from_secs(60)),
        ..Default::default()
    };
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&w| run_federation(&v, &cfg, &clients, &harness, None, w))
        .collect();
    assert_eq!(runs[0].combined_digest(), runs[1].combined_digest());
    assert_eq!(runs[0].combined_jsonl(), runs[2].combined_jsonl());
    assert_eq!(runs[0].report, runs[1].report);

    let fed = &runs[0];
    assert_eq!(fed.report.failed_nodes, 1);
    assert!(fed.report.rehomed > 0, "node 1 must have had residents");
    // No client silently dropped: the dead node holds nobody at the
    // end, the survivors hold everyone, and the admission ledger adds
    // up across the whole population.
    assert_eq!(fed.report.nodes[1].clients, 0, "dead node must be emptied");
    assert_eq!(
        fed.report.nodes.iter().map(|n| n.clients).sum::<usize>(),
        24,
        "every client must be homed somewhere"
    );
    assert_eq!(fed.report.admitted + fed.report.rejected, 24);
    let rehomed_events = fed
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::ClientRehomed { .. }))
        .count() as u64;
    assert_eq!(rehomed_events, fed.report.rehomed);
    assert_eq!(
        fed.trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::NodeFailed { .. }))
            .count(),
        1
    );
    let arrivals: usize = fed
        .node_traces
        .iter()
        .map(|t| {
            t.events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        TraceEvent::ClientAdmitted { .. }
                            | TraceEvent::ClientThrottled {
                                admitted: false,
                                ..
                            }
                    )
                })
                .count()
        })
        .sum();
    assert_eq!(arrivals, 24, "every arrival is traced exactly once");
    // Crash-stop means the dead node goes quiet at t_fail; delivery for
    // its re-homed clients continues on the survivors.
    assert!(
        fed.node_traces[1].events().iter().all(|e| e.at() <= t_fail),
        "a dead node must emit nothing after its crash"
    );
    for n in [0usize, 2] {
        assert!(
            fed.node_traces[n].events().iter().any(|e| e.at() > t_fail
                && matches!(
                    e,
                    TraceEvent::EdgeCacheHit { .. } | TraceEvent::EdgeCacheMiss { .. }
                )),
            "survivor {n} must keep serving after the crash"
        );
    }

    // Two nodes capped at 6 share 12 clients; node 0 crashes at 3 s and
    // its admitted residents move onto node 1 past node 1's cap.
    let capped = FederationConfig {
        node: EdgeConfig {
            max_clients: 6,
            ..node
        },
        nodes: 2,
        ..Default::default()
    };
    let twelve = default_clients(&EdgeConfig {
        clients: 12,
        ..node
    });
    let crash = FederationHarness {
        node_faults: FaultScript::none().link_down(
            0,
            SimTime::from_secs(3),
            SimTime::from_secs(60),
        ),
        ..Default::default()
    };
    let crashed = run_federation(&v, &capped, &twelve, &crash, None, 1).report;
    let fault_free = run_federation(&v, &capped, &twelve, &Default::default(), None, 1).report;
    assert_eq!(crashed.failed_nodes, 1);
    assert!(
        crashed.nodes[1].admitted > capped.node.max_clients,
        "the survivor takes re-homed clients past its cap: {} admitted",
        crashed.nodes[1].admitted
    );
    assert_eq!(
        crashed.admitted, fault_free.admitted,
        "re-homing conserves the federation's admitted total"
    );
}

/// Contract 5: the cooperative tier pays. A flash crowd watching one
/// broadcast from behind 4 edges pulls each hot tile over the shared
/// origin roughly once with the regional tier, versus once per edge
/// without it. The pinned ratio is conservative: cooperative origin
/// demand must be at most HALF of the isolated deployment's.
#[test]
fn cooperative_federation_halves_flash_crowd_origin_bytes() {
    let v = video(10);
    let node = EdgeConfig {
        seed: 7,
        ..Default::default()
    };
    let clients = flash_crowd_clients(
        &node,
        8,
        24,
        SimDuration::from_secs(2),
        SimDuration::from_millis(50),
    );
    let coop_cfg = FederationConfig {
        node,
        nodes: 4,
        regional_bytes: 1 << 30,
        share_heatmaps: true,
        ..Default::default()
    };
    let iso_cfg = FederationConfig {
        regional_bytes: 0,
        share_heatmaps: false,
        ..coop_cfg.clone()
    };
    let coop = run_federation(&v, &coop_cfg, &clients, &Default::default(), None, 0).report;
    let iso = run_federation(&v, &iso_cfg, &clients, &Default::default(), None, 0).report;
    assert_eq!(coop.clients, 32);
    assert!(
        coop.regional.hit_bytes > 0,
        "siblings must hit the shared tier"
    );
    assert!(
        coop.origin_demand_bytes() * 2 <= iso.origin_demand_bytes(),
        "cooperative origin {} must be ≤ 50% of isolated {}",
        coop.origin_demand_bytes(),
        iso.origin_demand_bytes()
    );
    // The viewers don't pay for the savings.
    let mean_util = |r: &sperke_edge::FederationReport| {
        r.nodes
            .iter()
            .filter(|n| n.admitted > 0)
            .map(|n| n.mean_viewport_utility)
            .sum::<f64>()
            / r.nodes.iter().filter(|n| n.admitted > 0).count() as f64
    };
    assert!(mean_util(&coop) >= mean_util(&iso) - 0.05);
}

/// A Zipf catalog across a federation: titles live in disjoint cache
/// namespaces, the books still balance, and the popular title's
/// cross-node reuse produces regional hits.
#[test]
fn zipf_catalog_federation_balances_and_dedups() {
    let v = video(8);
    let node = EdgeConfig {
        seed: 11,
        ..Default::default()
    };
    let clients = zipf_catalog_clients(&node, 32, 5, 1.1);
    let cfg = FederationConfig {
        node,
        nodes: 3,
        seed: 11,
        ..Default::default()
    };
    let a = run_federation(&v, &cfg, &clients, &traced(TraceLevel::Verbose), None, 2);
    let b = run_federation(&v, &cfg, &clients, &traced(TraceLevel::Verbose), None, 8);
    assert_eq!(a.combined_digest(), b.combined_digest());
    let r = &a.report;
    let edge_demand: u64 = r
        .nodes
        .iter()
        .map(|n| n.cache.miss_bytes + n.cache.prefetch_bytes)
        .sum();
    assert_eq!(r.regional_ingress_bytes, edge_demand);
    assert_eq!(
        r.origin_bytes + r.origin_failed_bytes,
        r.regional.miss_bytes
    );
    assert_eq!(
        r.regional_egress_bytes,
        r.regional.hit_bytes + r.origin_bytes
    );
    assert!(
        r.regional.hit_bytes > 0,
        "the popular title must be deduplicated across nodes"
    );
}

/// Build a federation client population from parallel raw draws (the
/// vendored proptest shim has no `prop_map`, so specs are assembled
/// in-body), spanning multiple catalog titles.
fn fed_specs(raw: &[(u64, u64, u32, u64, u16)]) -> Vec<EdgeClientSpec> {
    raw.iter()
        .map(|&(arr_ms, seed, weight, mbps, content)| EdgeClientSpec {
            arrival: SimDuration::from_millis(arr_ms),
            seed,
            weight,
            budget_bps: mbps as f64 * 1e6,
            content,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 1: for random federation configs, the combined trace is
    /// byte-identical across worker counts and under rotation of the
    /// client spec list.
    #[test]
    fn federation_digest_is_worker_and_client_order_invariant(
        raw in proptest::collection::vec((0u64..3000, 0u64..500, 1u32..3, 4u64..10, 0u16..3), 2..7),
        nodes in 1usize..4,
        regional_pick in 0usize..3,
        share: bool,
        rot in 0usize..7,
        seed in 0u64..50,
    ) {
        let specs = fed_specs(&raw);
        let v = video(5);
        let mut cfg = FederationConfig::default();
        cfg.node.seed = seed;
        cfg.seed = seed;
        cfg.nodes = nodes;
        cfg.regional_bytes = [0u64, 64 << 20, 1 << 30][regional_pick];
        cfg.share_heatmaps = share;
        let harness = traced(TraceLevel::Verbose);
        let base = run_federation(&v, &cfg, &specs, &harness, None, 1);
        for workers in [0usize, 2, 8] {
            let r = run_federation(&v, &cfg, &specs, &harness, None, workers);
            prop_assert_eq!(r.combined_jsonl(), base.combined_jsonl());
            prop_assert_eq!(r.combined_digest(), base.combined_digest());
            prop_assert_eq!(&r.report, &base.report);
        }
        let mut rotated = specs.clone();
        rotated.rotate_left(rot % specs.len());
        let r = run_federation(&v, &cfg, &rotated, &harness, None, 3);
        prop_assert_eq!(r.combined_digest(), base.combined_digest());
        prop_assert_eq!(&r.report, &base.report);
    }

    /// Contract 1, resilience half: with randomized node-crash scripts
    /// and origin backhaul outages (which schedule origin retries), the
    /// run is worker-count blind — workers shard only the sense phase,
    /// the replay and its re-homing are serial, and every worker count
    /// (0 = machine default) reproduces the `workers = 1` run byte for
    /// byte. Contract 2 holds under the same faults: the three
    /// cross-tier identities are exact, each node's edge books balance,
    /// and the edge tier's origin demand is exactly what the regional
    /// tier took in.
    #[test]
    fn failures_are_worker_count_blind_and_balanced(
        raw in proptest::collection::vec((0u64..3000, 0u64..500, 1u32..3, 4u64..10, 0u16..3), 2..7),
        nodes in 2usize..4,
        fail_node in 0usize..4,
        fail_at_s in 1u64..8,
        origin_down_s in 0u64..6,
        share: bool,
        seed in 0u64..50,
    ) {
        let specs = fed_specs(&raw);
        let v = video(5);
        let mut cfg = FederationConfig::default();
        cfg.node.seed = seed;
        cfg.seed = seed;
        cfg.nodes = nodes;
        cfg.share_heatmaps = share;
        let mut harness = traced(TraceLevel::Verbose);
        harness.node_faults = FaultScript::none().link_down(
            fail_node % nodes,
            SimTime::from_secs(fail_at_s),
            SimTime::from_secs(fail_at_s + 60),
        );
        if origin_down_s > 0 {
            harness.origin_faults = FaultScript::none().link_down(
                0,
                SimTime::from_secs(origin_down_s),
                SimTime::from_millis(origin_down_s * 1000 + 800),
            );
        }
        let base = run_federation(&v, &cfg, &specs, &harness, None, 1);
        for workers in [0usize, 2, 8] {
            let r = run_federation(&v, &cfg, &specs, &harness, None, workers);
            prop_assert_eq!(r.combined_jsonl(), base.combined_jsonl());
            prop_assert_eq!(r.combined_digest(), base.combined_digest());
            prop_assert_eq!(&r.report, &base.report);
        }
        let r = &base.report;
        let edge_demand: u64 = r
            .nodes
            .iter()
            .map(|n| n.cache.miss_bytes + n.cache.prefetch_bytes)
            .sum();
        prop_assert_eq!(r.regional_ingress_bytes, edge_demand,
            "every edge miss or prefetch asks the tier exactly once");
        prop_assert_eq!(r.origin_bytes + r.origin_failed_bytes, r.regional.miss_bytes,
            "every regional miss crosses the origin leg exactly once");
        prop_assert_eq!(r.regional_egress_bytes, r.regional.hit_bytes + r.origin_bytes,
            "everything sent down was resident or fetched");
        for n in &r.nodes {
            prop_assert_eq!(
                n.origin_demand_bytes(),
                n.cache.miss_bytes + n.cache.prefetch_bytes
            );
        }
        prop_assert_eq!(r.edge_origin_demand_bytes(), r.regional_ingress_bytes);
    }

    /// Contract 1, node half: declaring heterogeneous nodes in any
    /// order yields byte-identical traces — node indices come from the
    /// canonical layout, never from declaration order.
    #[test]
    fn node_declaration_order_never_changes_trace_bytes(
        egress in proptest::collection::vec(100u64..500, 2..4),
        rot in 0usize..4,
        seed in 0u64..30,
    ) {
        let node_specs: Vec<NodeSpec> = egress
            .iter()
            .enumerate()
            .map(|(i, &e)| NodeSpec {
                egress_bps: e as f64 * 1e6,
                cache_bytes: (64 + 64 * i as u64) << 20,
                max_clients: 8 + i,
            })
            .collect();
        let mut rotated = node_specs.clone();
        rotated.rotate_left(rot % node_specs.len());
        let v = video(5);
        let mk = |order: Vec<NodeSpec>| {
            let mut cfg = FederationConfig::default();
            cfg.node.seed = seed;
            cfg.seed = seed;
            cfg.node_specs = order;
            let clients = default_clients(&EdgeConfig { clients: 10, seed, ..Default::default() });
            run_federation(&v, &cfg, &clients, &traced(TraceLevel::Verbose), None, 2)
        };
        let fwd = mk(node_specs);
        let rev = mk(rotated);
        prop_assert_eq!(fwd.combined_jsonl(), rev.combined_jsonl());
        prop_assert_eq!(fwd.combined_digest(), rev.combined_digest());
        prop_assert_eq!(&fwd.report, &rev.report);
    }

    /// Contract 2: the three cross-tier byte identities are exact for
    /// any fault-free federation, and each node's own edge books stay
    /// balanced inside it.
    #[test]
    fn cross_tier_byte_accounting_is_exact(
        clients in 2usize..12,
        nodes in 1usize..4,
        regional_pick in 0usize..3,
        prefetch: bool,
        seed in 0u64..60,
    ) {
        let v = video(6);
        let mut cfg = FederationConfig::default();
        cfg.node.clients = clients;
        cfg.node.seed = seed;
        cfg.node.prefetch = prefetch;
        cfg.seed = seed;
        cfg.nodes = nodes;
        cfg.regional_bytes = [0u64, 32 << 20, 1 << 30][regional_pick];
        let r = run_federation(
            &v,
            &cfg,
            &default_clients(&cfg.node),
            &Default::default(),
            None,
            2,
        )
        .report;
        let edge_demand: u64 = r
            .nodes
            .iter()
            .map(|n| n.cache.miss_bytes + n.cache.prefetch_bytes)
            .sum();
        prop_assert_eq!(r.regional_ingress_bytes, edge_demand,
            "every edge miss or prefetch asks the tier exactly once");
        prop_assert_eq!(r.origin_bytes + r.origin_failed_bytes, r.regional.miss_bytes,
            "every regional miss crosses the origin leg exactly once");
        prop_assert_eq!(r.regional_egress_bytes, r.regional.hit_bytes + r.origin_bytes,
            "everything sent down was resident or fetched");
        prop_assert_eq!(r.origin_failed_bytes, 0u64);
        for n in &r.nodes {
            prop_assert_eq!(
                n.origin_demand_bytes(),
                n.cache.miss_bytes + n.cache.prefetch_bytes
            );
        }
    }
}
