//! Edge delivery at the rack: origin egress with and without the
//! shared tile cache, how the saving grows with audience size — the
//! crowd-amortisation claim of §3.4, measured — and the edge engine
//! against the per-event oracle, bit for bit at up to 1,024 clients,
//! also with BBR and bursty origin loss. Every printed number is a
//! count, so the output is deterministic.

use sperke_bench::{cols, header, note, row};
use sperke_core::{EdgeConfig, LossChannel};
use sperke_edge::oracle::run_edge_full;
use sperke_edge::{default_clients, run_edge, EdgeHarness};
use sperke_sim::SimDuration;
use sperke_video::VideoModelBuilder;

fn main() {
    header("edge", "shared tile cache: origin egress vs audience size");
    let video = VideoModelBuilder::new(7)
        .duration(SimDuration::from_secs(12))
        .build();
    cols(
        "clients / cache",
        &["originMB", "egressMB", "hit%", "vpUtil", "blank%"],
    );
    let mut pairs = Vec::new();
    for &n in &[8usize, 16, 32] {
        for (label, cache_bytes, prefetch) in [("off", 0u64, false), ("256MiB", 256u64 << 20, true)]
        {
            let cfg = EdgeConfig {
                clients: n,
                max_clients: 64,
                cache_bytes,
                prefetch,
                ..Default::default()
            };
            let r = run_edge(
                &video,
                &cfg,
                &default_clients(&cfg),
                &EdgeHarness::default(),
                None,
                1,
            );
            row(
                &format!("{n} / {label}"),
                &[
                    r.origin_demand_bytes() as f64 / 1e6,
                    r.egress_bytes as f64 / 1e6,
                    100.0 * r.cache.hits as f64 / (r.cache.hits + r.cache.misses).max(1) as f64,
                    r.mean_viewport_utility,
                    r.mean_blank_fraction * 100.0,
                ],
            );
            if cache_bytes == 0 {
                pairs.push((n, r.origin_demand_bytes(), 0u64));
            } else if let Some(last) = pairs.last_mut() {
                last.2 = r.origin_demand_bytes();
            }
        }
    }
    note("every hot tile layer crosses the backhaul once, not once per");
    note("viewer: cached origin demand flattens while egress scales with");
    note("the audience — the edge turns N viewers into ~1 origin stream.");

    for &(n, uncached, cached) in &pairs {
        assert!(
            cached * 2 <= uncached,
            "{n} clients: cached origin {cached} must be <= 50% of uncached {uncached}"
        );
    }
    println!("shape check: PASS");

    header("edge", "edge engine vs per-event oracle (identical bytes)");
    cols(
        "clients / origin link",
        &["originMB", "egressMB", "hit%", "retries"],
    );
    let bbr_bursty = EdgeHarness {
        bbr: true,
        origin_loss: LossChannel::bursty_default(),
        ..Default::default()
    };
    let plain = EdgeHarness::default();
    for (n, label, harness) in [
        (64usize, "plain", &plain),
        (256, "plain", &plain),
        (1024, "plain", &plain),
        (1024, "bbr+bursty", &bbr_bursty),
    ] {
        let cfg = EdgeConfig {
            clients: n,
            max_clients: 2048,
            ..Default::default()
        };
        let specs = default_clients(&cfg);
        let oracle = run_edge_full(&video, &cfg, &specs, harness, None);
        let engine = run_edge(&video, &cfg, &specs, harness, None, 0);
        assert_eq!(
            oracle, engine,
            "{n} clients, {label} origin: engines must agree bit-for-bit"
        );
        row(
            &format!("{n} / {label}"),
            &[
                engine.origin_demand_bytes() as f64 / 1e6,
                engine.egress_bytes as f64 / 1e6,
                100.0 * engine.cache.hits as f64
                    / (engine.cache.hits + engine.cache.misses).max(1) as f64,
                engine.origin_retries as f64,
            ],
        );
    }
    note("same (config, clients, seed), same report, same trace bytes;");
    note("the engine only moves the pure sense work onto worker threads");
    note("and replays the identical event order from arrays, also with");
    note("the BBR origin estimator and bursty origin loss switched on.");
}
