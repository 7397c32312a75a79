//! Sweep harness speedup: serial vs parallel execution of a 16-point
//! edge grid (4 audience sizes × 2 cache capacities × 2 seeds).
//!
//! Every point is the same deterministic single-threaded simulation;
//! the worker pool only divides wall-clock time. The acceptance bar is
//! ≥ 2× at 4 threads — and, non-negotiably, a byte-identical report at
//! every thread count.

use sperke_bench::{cols, header, note, row};
use sperke_core::{run_edge_sweep, EdgeConfig, EdgeGrid};
use sperke_sim::SimDuration;
use sperke_video::VideoModelBuilder;
use sperke_vra::AbrPolicyKind;
use std::time::Instant;

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

    cols("threads", &["seconds", "speedup", "pts/s"]);
    let mut serial_secs = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let report = run_edge_sweep(&video, &grid, AbrPolicyKind::default(), threads);
        let secs = start.elapsed().as_secs_f64();
        if threads == 1 {
            serial_secs = secs;
        }
        assert_eq!(
            report.to_jsonl(),
            reference.to_jsonl(),
            "threads={threads} must merge byte-identically"
        );
        row(
            &format!("{threads}"),
            &[secs, serial_secs / secs, 16.0 / secs],
        );
    }
    let start = Instant::now();
    let report4 = run_edge_sweep(&video, &grid, AbrPolicyKind::default(), 4);
    let quad_secs = start.elapsed().as_secs_f64();
    let speedup = serial_secs / quad_secs;
    assert_eq!(report4.digest(), reference.digest());

    note(&format!(
        "4-thread speedup {speedup:.2}x over serial ({serial_secs:.2}s -> {quad_secs:.2}s)"
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
