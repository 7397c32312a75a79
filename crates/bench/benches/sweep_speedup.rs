//! Sweep harness speedup: serial vs parallel execution of a 16-point
//! edge grid (4 audience sizes × 2 cache capacities × 2 seeds).
//!
//! Every point is the same deterministic single-threaded simulation;
//! the worker pool only divides wall-clock time. The acceptance bar is
//! ≥ 2× at 4 threads, read from the median of three timed runs per
//! thread count — and, non-negotiably, a byte-identical report from
//! every run at every thread count.

use sperke_bench::{cols, header, note, row};
use sperke_core::{run_edge_sweep, EdgeConfig, EdgeGrid};
use sperke_sim::stats::median;
use sperke_sim::SimDuration;
use sperke_video::VideoModelBuilder;
use sperke_vra::AbrPolicyKind;
use std::time::Instant;

/// Timed runs per thread count; the table and the assertion read their
/// median.
const ROUNDS: usize = 3;

fn main() {
    header(
        "sweep",
        "parallel sweep harness: serial vs worker-pool wall clock",
    );
    let video = VideoModelBuilder::new(61)
        .duration(SimDuration::from_secs(15))
        .build();
    let grid = EdgeGrid::new(EdgeConfig::default())
        .clients_axis(vec![8, 16, 24, 32])
        .cache_axis(vec![0, 256 << 20])
        .seed_axis(vec![7, 23]);
    assert_eq!(grid.points().len(), 16, "the 16-point acceptance grid");

    // Warm-up run (page in code and video tables) before timing.
    let reference = run_edge_sweep(&video, &grid, AbrPolicyKind::default(), 1);

    // One wall-clock sample is noise on a shared host: time every thread
    // count ROUNDS times and report (and assert on) the median.
    cols("threads", &["median s", "speedup", "pts/s"]);
    let mut serial_secs = 0.0;
    let mut quad_secs = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let mut times = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let start = Instant::now();
            let report = run_edge_sweep(&video, &grid, AbrPolicyKind::default(), threads);
            times.push(start.elapsed().as_secs_f64());
            assert_eq!(
                report.to_jsonl(),
                reference.to_jsonl(),
                "threads={threads} must merge byte-identically"
            );
        }
        let secs = median(&times);
        match threads {
            1 => serial_secs = secs,
            4 => quad_secs = secs,
            _ => {}
        }
        row(
            &format!("{threads}"),
            &[secs, serial_secs / secs, 16.0 / secs],
        );
    }
    let speedup = serial_secs / quad_secs;

    note(&format!(
        "4-thread speedup {speedup:.2}x over serial ({serial_secs:.2}s -> {quad_secs:.2}s, \
         medians of {ROUNDS})"
    ));
    note("every report above hashed to the same digest: parallelism divides");
    note("wall-clock only, never a byte of the result.");
    let cores = sperke_sim::sweep::default_threads();
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "acceptance: >= 2x wall-clock speedup at 4 threads on the 16-point grid \
             (measured {speedup:.2}x on {cores} cores)"
        );
    } else {
        note(&format!(
            "host exposes only {cores} core(s): the >= 2x @ 4 threads acceptance \
             assertion needs >= 4 cores and is skipped; determinism was still verified."
        ));
    }
}
