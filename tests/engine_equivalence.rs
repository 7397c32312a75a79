//! Differential engine harness: the per-event oracles are the test
//! oracle for the production engines.
//!
//! The determinism contract under test:
//!
//! > `(config, clients, seed, policy) → byte-identical trace digests`
//! > for any worker count.
//!
//! Every property here runs the oracle (single-threaded,
//! event-at-a-time — `sperke_core::oracle::run_fleet_inner` /
//! `sperke_edge::oracle::run_edge_full`) and the production engine
//! (`run_fleet` / `run_edge`: a sharded sense phase, then one replay)
//! side by side over randomized configurations and every viewport
//! policy, and requires the *bytes* to match: trace JSONL, trace
//! digest, and the full report struct. Worker counts 1, 2 and 8 must
//! all land on the same bytes — the sense phase shards by session index
//! and merges by index, so the thread pool can only change wall-clock
//! time.

use proptest::prelude::*;
use sperke_core::oracle::run_fleet_inner;
use sperke_core::{run_fleet, run_fleet_sweep, FleetConfig, FleetGrid, FleetSweepPoint, Sperke};
use sperke_edge::oracle::run_edge_full;
use sperke_edge::{default_clients, run_edge, EdgeConfig, EdgeHarness};
use sperke_net::LossChannel;
use sperke_sim::sweep::run_sweep;
use sperke_sim::trace::{TraceConfig, TraceLevel, TraceSink};
use sperke_sim::SimDuration;
use sperke_video::{VideoModel, VideoModelBuilder};
use sperke_vra::AbrPolicyKind;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn video(seed: u64, secs: u64) -> VideoModel {
    VideoModelBuilder::new(seed)
        .duration(SimDuration::from_secs(secs))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fleet: randomized viewer counts, egress capacities, schemes,
    /// seeds and policies — the engine reproduces the oracle's report
    /// exactly at every worker count.
    #[test]
    fn fleet_engines_agree_bit_for_bit(
        viewers in 1usize..14,
        egress_pick in 0usize..4,
        fov_guided: bool,
        seed in 0u64..200,
        policy_pick in 0usize..5,
    ) {
        let v = video(3, 8);
        let cfg = FleetConfig {
            viewers,
            egress_bps: [25e6, 60e6, 200e6, 500e6][egress_pick],
            fov_guided,
            seed,
            ..Default::default()
        };
        let policy = AbrPolicyKind::all()[policy_pick];
        let legacy = run_fleet_inner(&v, &cfg, policy);
        for workers in WORKER_COUNTS {
            let batched = run_fleet(&v, &cfg, policy, workers);
            prop_assert_eq!(
                &legacy, &batched,
                "fleet engines diverged at {} workers under {}", workers, policy.name()
            );
        }
    }

    /// Edge: randomized populations, cache sizes, admission caps,
    /// prefetch settings and policies — report AND trace bytes
    /// identical at every worker count.
    #[test]
    fn edge_engines_agree_on_trace_bytes(
        clients in 1usize..10,
        cap in 1usize..12,
        cache_pick in 0usize..3,
        prefetch: bool,
        seed in 0u64..200,
        policy_pick in 0usize..5,
    ) {
        let v = video(3, 6);
        let cfg = EdgeConfig {
            clients,
            max_clients: cap,
            cache_bytes: [0u64, 32, 256][cache_pick] << 20,
            prefetch,
            seed,
            ..Default::default()
        };
        let specs = default_clients(&cfg);
        let policy = AbrPolicyKind::all()[policy_pick];

        let legacy_sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
        let legacy = run_edge_full(
            &v,
            &cfg,
            &specs,
            &EdgeHarness { trace: legacy_sink.clone(), policy, ..Default::default() },
            None,
        );
        let legacy_trace = legacy_sink.snapshot();

        for workers in WORKER_COUNTS {
            let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
            let batched = run_edge(
                &v,
                &cfg,
                &specs,
                &EdgeHarness { trace: sink.clone(), policy, ..Default::default() },
                None,
                workers,
            );
            let trace = sink.snapshot();
            prop_assert_eq!(
                &legacy, &batched,
                "edge reports diverged at {} workers under {}", workers, policy.name()
            );
            prop_assert_eq!(
                legacy_trace.to_jsonl(), trace.to_jsonl(),
                "edge trace JSONL diverged at {} workers under {}", workers, policy.name()
            );
            prop_assert_eq!(
                legacy_trace.digest(), trace.digest(),
                "edge trace digest diverged at {} workers under {}", workers, policy.name()
            );
        }
    }

    /// Edge with measured capacity and bursty loss: BBR pacing and the
    /// Gilbert–Elliott origin channel live in the shared apply code, so
    /// their state machines must replay byte-identically through the
    /// engine — including the ProbeEpochStarted / DeliveryRateSample /
    /// LossStateChanged events.
    #[test]
    fn edge_engines_agree_with_bbr_and_bursty_loss(
        clients in 1usize..10,
        cap in 1usize..12,
        bbr: bool,
        loss_pick in 0usize..3,
        p_gb in 0.05f64..0.5,
        p_bg in 0.05f64..0.5,
        seed in 0u64..200,
    ) {
        let v = video(3, 6);
        let cfg = EdgeConfig {
            clients,
            max_clients: cap,
            seed,
            ..Default::default()
        };
        let specs = default_clients(&cfg);
        let origin_loss = match loss_pick {
            0 => LossChannel::Declared,
            1 => LossChannel::bursty_default(),
            _ => LossChannel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good: 0.001,
                loss_bad: 0.3,
            },
        };
        let harness_for = |sink: &TraceSink| EdgeHarness {
            trace: sink.clone(),
            bbr,
            origin_loss,
            ..Default::default()
        };

        let legacy_sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
        let legacy = run_edge_full(&v, &cfg, &specs, &harness_for(&legacy_sink), None);
        let legacy_trace = legacy_sink.snapshot();

        for workers in WORKER_COUNTS {
            let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
            let batched = run_edge(&v, &cfg, &specs, &harness_for(&sink), None, workers);
            let trace = sink.snapshot();
            prop_assert_eq!(
                &legacy, &batched,
                "bbr/ge edge reports diverged at {} workers", workers
            );
            prop_assert_eq!(
                legacy_trace.to_jsonl(), trace.to_jsonl(),
                "bbr/ge edge trace JSONL diverged at {} workers", workers
            );
            prop_assert_eq!(
                legacy_trace.digest(), trace.digest(),
                "bbr/ge edge trace digest diverged at {} workers", workers
            );
        }
    }

    /// Sweeps: a randomized fleet grid merged on a randomized thread
    /// count — the oracle, run once per grid point through the sweep
    /// harness, and the production sweep serialize to the same JSONL and
    /// digest.
    #[test]
    fn sweep_engines_agree_on_merged_bytes(
        viewers in 1usize..5,
        seed_a in 0u64..50,
        seed_b in 50u64..100,
        threads in 1usize..5,
    ) {
        let v = video(29, 5);
        let grid = FleetGrid::new(FleetConfig { viewers, ..Default::default() })
            .egress_axis(vec![60e6, 200e6])
            .scheme_axis(vec![true, false])
            .seed_axis(vec![seed_a, seed_b]);
        let policy = AbrPolicyKind::default();
        let legacy = run_sweep(&grid.plan(), threads, |_index, config| FleetSweepPoint {
            config: *config,
            report: run_fleet_inner(&v, config, policy),
        });
        let batched = run_fleet_sweep(&v, &grid, policy, threads);
        prop_assert_eq!(legacy.to_jsonl(), batched.to_jsonl());
        prop_assert_eq!(legacy.digest(), batched.digest());
    }
}

/// The builder surface goes through the same contract: a traced edge
/// run from `Sperke::edge_builder` is byte-identical between the oracle
/// on the builder's exact inputs, `run_report()` and `run_batched(w)`
/// for all worker counts.
#[test]
fn edge_builder_engines_agree() {
    let b = Sperke::edge_builder(77)
        .clients(9)
        .max_clients(7)
        .duration(SimDuration::from_secs(9))
        .with_trace(TraceLevel::Verbose);
    let legacy = b.run_report();
    let cfg = EdgeConfig {
        clients: 9,
        max_clients: 7,
        seed: 77,
        ..Default::default()
    };
    let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose));
    let oracle = run_edge_full(
        &b.build_video(),
        &cfg,
        &default_clients(&cfg),
        &EdgeHarness {
            trace: sink.clone(),
            ..Default::default()
        },
        None,
    );
    assert_eq!(oracle, legacy.report, "oracle diverged from the builder");
    assert_eq!(
        sink.snapshot().to_jsonl(),
        legacy.trace.to_jsonl(),
        "oracle trace diverged from the builder"
    );
    for workers in WORKER_COUNTS {
        let batched = b.run_batched(workers);
        assert_eq!(
            legacy.report, batched.report,
            "report diverged at {workers} workers"
        );
        assert_eq!(
            legacy.trace.to_jsonl(),
            batched.trace.to_jsonl(),
            "trace diverged at {workers} workers"
        );
        assert_eq!(legacy.trace_digest(), batched.trace_digest());
    }
}
