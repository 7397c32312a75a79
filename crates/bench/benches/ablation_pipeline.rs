//! E12 — §3.5 ablation: decoder-count sweep and decoded-frame cache
//! on/off for the client pipeline.

use sperke_bench::{cols, header, note, row};
use sperke_geo::TileGrid;
use sperke_hmp::HeadTrace;
use sperke_pipeline::{
    energy_of_mode, simulate_render, DeviceProfile, EnergyProfile, PipelineConfig, RenderMode,
    SourceVideo,
};
use sperke_sim::SimDuration;

fn main() {
    header(
        "E12 / §3.5 ablation",
        "decoder parallelism and frame-cache ablations",
    );
    let grid = TileGrid::sperke_prototype();
    let video = SourceVideo::two_k();
    let trace = HeadTrace::from_fn(SimDuration::from_secs(12), |t| {
        sperke_geo::Orientation::new(0.25 * t.as_secs_f64(), 0.0, 0.0)
    });
    let duration = SimDuration::from_secs(8);

    // --- Decoder sweep (optimized-all mode).
    cols(
        "decoders (all tiles, cached)",
        &["fps", "decUtil", "stall_s"],
    );
    let mut fps_curve = Vec::new();
    for &n in &[1usize, 2, 4, 8, 16] {
        let device = DeviceProfile::galaxy_s7().with_decoders(n);
        let s = simulate_render(
            &device,
            video,
            &grid,
            &trace,
            RenderMode::OptimizedAll,
            &PipelineConfig::default(),
            duration,
        );
        row(
            &format!("{n}"),
            &[s.fps, s.decoder_utilization, s.decode_stall.as_secs_f64()],
        );
        fps_curve.push(s.fps);
    }
    note("FPS rises with decoder count until the GPU draw cost binds, matching");
    note("the paper's use of 8 parallel decoders on the SGS7.");

    // --- Cache capacity ablation (FoV mode, panning viewer).
    println!();
    cols("cache capacity (FoV mode)", &["fps", "hitRate"]);
    for &cap in &[0usize, 8, 16, 64, 256] {
        let device = DeviceProfile::galaxy_s7();
        let s = simulate_render(
            &device,
            video,
            &grid,
            &trace,
            RenderMode::OptimizedFov,
            &PipelineConfig {
                cache_capacity: cap,
            },
            duration,
        );
        row(&format!("{cap}"), &[s.fps, s.cache_hit_rate]);
    }
    note("capacity 0 degenerates to synchronous re-decode per frame; a few dozen");
    note("tile-frames suffice because only ~2 source frames are live at once.");

    // --- Device comparison.
    println!();
    cols("device (figure-5 config 2)", &["fps"]);
    for device in [DeviceProfile::galaxy_s5(), DeviceProfile::galaxy_s7()] {
        let s = simulate_render(
            &device,
            video,
            &grid,
            &trace,
            RenderMode::OptimizedAll,
            &PipelineConfig::default(),
            duration,
        );
        row(&device.name, &[s.fps]);
    }

    // --- Energy per Figure-5 configuration (§3.5's "limited
    // computation and energy resources").
    println!();
    cols(
        "mode energy (10 MB downloaded)",
        &["watts", "battHrs", "J/frame"],
    );
    let eprofile = EnergyProfile::galaxy_s7();
    for mode in RenderMode::ALL {
        let s = simulate_render(
            &DeviceProfile::galaxy_s7(),
            video,
            &grid,
            &trace,
            mode,
            &PipelineConfig::default(),
            duration,
        );
        let e = energy_of_mode(
            &eprofile,
            &s,
            mode,
            grid.tile_count(),
            4,
            video.fps,
            10_000_000,
        );
        row(
            mode.label(),
            &[e.mean_watts, e.battery_hours, e.total_j / s.frames as f64],
        );
    }
    note("FoV-only rendering also wins on energy: fewer tiles decoded and drawn");
    note("per second at a higher frame rate.");

    assert!(
        fps_curve[3] > fps_curve[0] * 1.5,
        "parallelism must pay off"
    );
    assert!(
        (fps_curve[4] - fps_curve[3]).abs() < fps_curve[3] * 0.2,
        "beyond 8 decoders the render loop binds"
    );
    println!("shape check: PASS");
}
