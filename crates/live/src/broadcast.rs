//! The live 360° broadcast pipeline and its E2E latency (Table 2).
//!
//! Broadcaster → (RTMP upload) → ingest server (re-encode, package) →
//! (DASH pull or RTMP push) → viewer. "E2E latency is the elapsed time
//! between when a real-world scene appears and its viewer-side playback
//! time. This latency consists of delays incurred at various components
//! including network transmission, video encoding, and buffering at the
//! three entities" (§3.4.1). The simulation reproduces each component
//! explicitly; Table 2's five network rows are `tc`-style caps on the
//! two access links.

use crate::platform::{DownloadProtocol, PlatformProfile};
use serde::{Deserialize, Serialize};
use sperke_net::{BandwidthEstimator, BandwidthTrace, PathModel, PathQueue, Reliability};
use sperke_sim::{stats, SimDuration, SimRng, SimTime};
use sperke_video::Quality;

/// One row of Table 2: caps on the upload / download links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkCondition {
    /// Upload cap in bits/second (`None` = unconstrained high-speed WiFi).
    pub up_cap_bps: Option<f64>,
    /// Download cap in bits/second.
    pub down_cap_bps: Option<f64>,
}

impl NetworkCondition {
    /// The five rows of Table 2, with the paper's labels.
    fn table2_rows() -> Vec<(&'static str, &'static str, NetworkCondition)> {
        vec![
            (
                "No limit",
                "No limit",
                NetworkCondition {
                    up_cap_bps: None,
                    down_cap_bps: None,
                },
            ),
            (
                "2Mbps",
                "No limit",
                NetworkCondition {
                    up_cap_bps: Some(2e6),
                    down_cap_bps: None,
                },
            ),
            (
                "No limit",
                "2Mbps",
                NetworkCondition {
                    up_cap_bps: None,
                    down_cap_bps: Some(2e6),
                },
            ),
            (
                "0.5Mbps",
                "No limit",
                NetworkCondition {
                    up_cap_bps: Some(0.5e6),
                    down_cap_bps: None,
                },
            ),
            (
                "No limit",
                "0.5Mbps",
                NetworkCondition {
                    up_cap_bps: None,
                    down_cap_bps: Some(0.5e6),
                },
            ),
        ]
    }
}

/// Uncapped link speed ("high-speed WiFi").
const BASE_LINK_BPS: f64 = 80e6;

/// Access-link RTT.
const RTT: SimDuration = SimDuration::from_millis(30);

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LiveRunConfig {
    /// How long the broadcast runs (the measurement window).
    pub duration: SimDuration,
    /// Seed for the (minimal) randomness in the transport model.
    pub seed: u64,
}

impl Default for LiveRunConfig {
    fn default() -> Self {
        LiveRunConfig {
            duration: SimDuration::from_secs(90),
            seed: 1,
        }
    }
}

/// Result of one broadcast run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveRunResult {
    /// `(segment index, E2E latency seconds)` for delivered segments.
    pub segment_latencies: Vec<(u32, f64)>,
    /// Mean E2E latency, seconds.
    pub mean_latency_s: f64,
    /// Standard deviation of segment latencies.
    pub stddev_latency_s: f64,
    /// Segments the broadcaster skipped (send buffer full).
    pub upload_skips: u32,
    /// Segments the viewer skipped (fell too far behind the live edge).
    pub viewer_skips: u32,
    /// Number of viewer stall events.
    pub viewer_stalls: u32,
    /// Mean delivered quality level.
    pub mean_quality: f64,
}

/// How far behind the live edge a pushing player tolerates before it
/// jumps forward (RTMP players drop backlog; DASH players generally
/// stall instead).
const PUSH_MAX_LAG: SimDuration = SimDuration::from_secs(75);

/// Run one live broadcast over the given platform and network row.
pub fn run_live(
    platform: &PlatformProfile,
    condition: NetworkCondition,
    config: &LiveRunConfig,
) -> LiveRunResult {
    run_live_with_upload_vra(platform, condition, config, false)
}

/// Like [`run_live`], optionally enabling the §3.4.2 *upload VRA*: the
/// paper found "no rate adaptation is currently used during a live 360°
/// video upload" and proposes adding one. When enabled, the broadcaster
/// tracks its uplink goodput (harmonic mean of recent segments) and
/// scales each segment's encoded bitrate to fit, trading quality for
/// liveness instead of skipping.
pub fn run_live_with_upload_vra(
    platform: &PlatformProfile,
    condition: NetworkCondition,
    config: &LiveRunConfig,
    upload_vra: bool,
) -> LiveRunResult {
    let d = platform.chunk_duration;
    let segments = (config.duration.as_nanos() / d.as_nanos()) as u32;
    let rng = SimRng::new(config.seed);

    let up_bps = condition.up_cap_bps.unwrap_or(BASE_LINK_BPS);
    let down_bps = condition.down_cap_bps.unwrap_or(BASE_LINK_BPS);
    let mut uplink = PathQueue::new(
        PathModel::new("uplink", BandwidthTrace::constant(up_bps), RTT, 0.0),
        rng.split(1),
    );
    let mut downlink = PathQueue::new(
        PathModel::new("downlink", BandwidthTrace::constant(down_bps), RTT, 0.0),
        rng.split(2),
    );
    let mut estimator = BandwidthEstimator::festive();

    // --- Broadcaster + ingest: per delivered segment, when it is
    // published for download.
    let mut published: Vec<(u32, SimTime)> = Vec::new(); // (segment, ready time)
    let mut upload_skips = 0u32;
    let full_seg_bytes = platform.upload_segment_bytes();
    let mut up_estimator = BandwidthEstimator::festive();
    for i in 0..segments {
        let captured = SimTime::ZERO + d * (i + 1) as u64; // end of capture
        let encoded = captured + platform.encoder_delay;
        // Upload VRA (§3.4.2): scale the encoded bitrate to the
        // estimated uplink so the segment fits its real-time budget.
        let seg_bytes = if upload_vra {
            let budget = up_estimator
                .conservative(0.85)
                .map(|bps| (bps * d.as_secs_f64() / 8.0) as u64)
                .unwrap_or(full_seg_bytes);
            // Never below 10% of full quality; never above full.
            budget.clamp(full_seg_bytes / 10, full_seg_bytes)
        } else {
            full_seg_bytes
        };
        // Send-buffer check: skip the segment if the uplink backlog
        // exceeds the buffer depth ("frame skips", §3.4.1).
        let backlog = uplink.available_at(encoded).saturating_since(encoded);
        if backlog > d * platform.upload_buffer_segments as u64 {
            upload_skips += 1;
            continue;
        }
        let completion = uplink.submit(seg_bytes, encoded, Reliability::Reliable);
        let secs = completion.finished.saturating_since(encoded).as_secs_f64();
        if secs > 0.0 {
            up_estimator.record(seg_bytes as f64 * 8.0 / secs);
        }
        let up_done = completion.finished;
        // SVC passthrough (§3.4.2): the server re-muxes layers instead
        // of re-encoding the ladder.
        let server_delay = if platform.svc_passthrough {
            SimDuration::from_millis(150)
        } else {
            platform.reencode_delay
        };
        let ready = up_done + server_delay;
        published.push((i, ready));
    }

    // --- Viewer: discovery, download with (optional) adaptation,
    // buffered playback.
    let mut downloaded: Vec<(u32, SimTime, Quality)> = Vec::new();
    let mut viewer_quality = if platform.viewer_adapts {
        // Live players typically open mid-ladder; FB's ladder bottom is
        // 720p anyway.
        Quality(
            (platform.ladder.levels() as u8 - 1)
                .min(platform.ladder.top().0)
                .saturating_sub(1),
        )
    } else {
        platform.ladder.top()
    };
    for &(i, ready) in &published {
        let discovered = match platform.download {
            DownloadProtocol::DashPull { mpd_poll } => {
                let poll_ns = mpd_poll.as_nanos();
                let k = ready.as_nanos().div_ceil(poll_ns);
                SimTime::from_nanos(k * poll_ns)
            }
            DownloadProtocol::RtmpPush => ready,
        };
        if platform.viewer_adapts {
            if let Some(est) = estimator.conservative(0.85) {
                viewer_quality = platform.ladder.highest_below(est);
            }
        }
        let bytes = (platform.ladder.bitrate(viewer_quality) * d.as_secs_f64() / 8.0) as u64;
        let completion = downlink.submit(bytes, discovered, Reliability::Reliable);
        // Batch goodput over discovery→completion (pipelined queue).
        let secs = completion
            .finished
            .saturating_since(discovered)
            .as_secs_f64();
        if secs > 0.0 {
            estimator.record(bytes as f64 * 8.0 / secs);
        }
        downloaded.push((i, completion.finished, viewer_quality));
    }

    // --- Playback timeline.
    let buffer_needed = platform.viewer_buffer_segments.max(1) as usize;
    let mut latencies: Vec<(u32, f64)> = Vec::new();
    let mut qualities: Vec<f64> = Vec::new();
    let mut viewer_stalls = 0u32;
    let mut viewer_skips = 0u32;
    // Only segments displayed inside the measurement window count: the
    // paper's operator watches for the session's duration, so scenes
    // that would only appear later are never observed.
    let window_end = SimTime::ZERO + config.duration;
    if downloaded.len() >= buffer_needed {
        let play_start = downloaded[buffer_needed - 1].1;
        let mut next_display = play_start;
        for (idx, &(i, dl_done, q)) in downloaded.iter().enumerate() {
            let _ = idx;
            let mut display = next_display;
            if dl_done > display {
                viewer_stalls += 1;
                display = dl_done;
            }
            if display > window_end {
                break;
            }
            // Push players jump to the live edge when too far behind.
            let scene_time = SimTime::ZERO + d * i as u64;
            let lag = display.saturating_since(scene_time);
            if matches!(platform.download, DownloadProtocol::RtmpPush) && lag > PUSH_MAX_LAG {
                viewer_skips += 1;
                next_display = display; // timeline holds; content skipped
                continue;
            }
            latencies.push((i, lag.as_secs_f64()));
            qualities.push(q.0 as f64);
            next_display = display + d;
        }
    }

    let values: Vec<f64> = latencies.iter().map(|&(_, l)| l).collect();
    LiveRunResult {
        mean_latency_s: stats::mean(&values),
        stddev_latency_s: stats::stddev(&values),
        segment_latencies: latencies,
        upload_skips,
        viewer_skips,
        viewer_stalls,
        mean_quality: stats::mean(&qualities),
    }
}

/// Run the full Table 2 grid: five network rows × three platforms.
/// Returns rows of `(up label, down label, [facebook, periscope, youtube])`.
pub fn table2(config: &LiveRunConfig) -> Vec<(&'static str, &'static str, [f64; 3])> {
    let platforms = PlatformProfile::all();
    NetworkCondition::table2_rows()
        .into_iter()
        .map(|(up, down, cond)| {
            let mut vals = [0.0; 3];
            for (i, p) in platforms.iter().enumerate() {
                vals[i] = run_live(p, cond, config).mean_latency_s;
            }
            (up, down, vals)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unlimited() -> NetworkCondition {
        NetworkCondition {
            up_cap_bps: None,
            down_cap_bps: None,
        }
    }

    #[test]
    fn base_latency_ordering_matches_table2() {
        let cfg = LiveRunConfig::default();
        let fb = run_live(&PlatformProfile::facebook(), unlimited(), &cfg);
        let ps = run_live(&PlatformProfile::periscope(), unlimited(), &cfg);
        let yt = run_live(&PlatformProfile::youtube(), unlimited(), &cfg);
        assert!(
            fb.mean_latency_s < ps.mean_latency_s && ps.mean_latency_s < yt.mean_latency_s,
            "expected FB < Periscope < YouTube, got {:.1} / {:.1} / {:.1}",
            fb.mean_latency_s,
            ps.mean_latency_s,
            yt.mean_latency_s
        );
        // "The base latency when the network bandwidth is not limited is
        // non-trivial": several seconds everywhere.
        assert!(fb.mean_latency_s > 4.0);
        assert!(yt.mean_latency_s > 15.0);
    }

    #[test]
    fn base_latencies_near_paper_values() {
        let cfg = LiveRunConfig::default();
        let fb = run_live(&PlatformProfile::facebook(), unlimited(), &cfg).mean_latency_s;
        let ps = run_live(&PlatformProfile::periscope(), unlimited(), &cfg).mean_latency_s;
        let yt = run_live(&PlatformProfile::youtube(), unlimited(), &cfg).mean_latency_s;
        assert!((fb - 9.2).abs() < 3.0, "facebook {fb:.1} vs paper 9.2");
        assert!((ps - 12.4).abs() < 3.5, "periscope {ps:.1} vs paper 12.4");
        assert!((yt - 22.2).abs() < 5.0, "youtube {yt:.1} vs paper 22.2");
    }

    #[test]
    fn poor_uplink_inflates_latency_and_skips() {
        let cfg = LiveRunConfig::default();
        let base = run_live(&PlatformProfile::facebook(), unlimited(), &cfg);
        let starved = run_live(
            &PlatformProfile::facebook(),
            NetworkCondition {
                up_cap_bps: Some(0.5e6),
                down_cap_bps: None,
            },
            &cfg,
        );
        assert!(starved.mean_latency_s > base.mean_latency_s + 2.0);
        assert!(
            starved.upload_skips > 0,
            "0.5 Mbps uplink must skip segments"
        );
    }

    #[test]
    fn poor_downlink_inflates_latency() {
        let cfg = LiveRunConfig::default();
        for p in PlatformProfile::all() {
            let base = run_live(&p, unlimited(), &cfg);
            let starved = run_live(
                &p,
                NetworkCondition {
                    up_cap_bps: None,
                    down_cap_bps: Some(0.5e6),
                },
                &cfg,
            );
            assert!(
                starved.mean_latency_s > base.mean_latency_s,
                "{}: {:.1} !> {:.1}",
                p.name,
                starved.mean_latency_s,
                base.mean_latency_s
            );
        }
    }

    #[test]
    fn adaptive_viewers_drop_quality_under_caps() {
        let cfg = LiveRunConfig::default();
        let yt_base = run_live(&PlatformProfile::youtube(), unlimited(), &cfg);
        let yt_starved = run_live(
            &PlatformProfile::youtube(),
            NetworkCondition {
                up_cap_bps: None,
                down_cap_bps: Some(0.5e6),
            },
            &cfg,
        );
        assert!(yt_starved.mean_quality < yt_base.mean_quality);
    }

    #[test]
    fn non_adaptive_periscope_suffers_most_downlink() {
        // Table 2, row "No limit / 0.5Mbps": Periscope (61.8) worse than
        // FB (45.4) and YT (38.6).
        let cfg = LiveRunConfig::default();
        let cond = NetworkCondition {
            up_cap_bps: None,
            down_cap_bps: Some(0.5e6),
        };
        let fb = run_live(&PlatformProfile::facebook(), cond, &cfg).mean_latency_s;
        let ps = run_live(&PlatformProfile::periscope(), cond, &cfg).mean_latency_s;
        let yt = run_live(&PlatformProfile::youtube(), cond, &cfg).mean_latency_s;
        assert!(ps > yt, "periscope {ps:.1} should exceed youtube {yt:.1}");
        assert!(
            fb > yt,
            "facebook {fb:.1} should exceed youtube {yt:.1} (no low rungs)"
        );
    }

    #[test]
    fn upload_vra_restores_liveness_on_starved_uplinks() {
        // §3.4.2 direction 1: the adaptive broadcaster trades encoded
        // quality for latency instead of skipping and backlogging.
        let cfg = LiveRunConfig::default();
        let cond = NetworkCondition {
            up_cap_bps: Some(0.5e6),
            down_cap_bps: None,
        };
        let p = PlatformProfile::facebook();
        let fixed = run_live(&p, cond, &cfg);
        let adaptive = run_live_with_upload_vra(&p, cond, &cfg, true);
        assert!(
            adaptive.mean_latency_s < fixed.mean_latency_s,
            "adaptive {:.1}s must beat fixed {:.1}s",
            adaptive.mean_latency_s,
            fixed.mean_latency_s
        );
        assert!(
            adaptive.upload_skips < fixed.upload_skips,
            "adaptive skips {} vs fixed {}",
            adaptive.upload_skips,
            fixed.upload_skips
        );
    }

    #[test]
    fn upload_vra_is_noop_on_good_uplinks() {
        let cfg = LiveRunConfig::default();
        let cond = NetworkCondition {
            up_cap_bps: None,
            down_cap_bps: None,
        };
        let p = PlatformProfile::facebook();
        let fixed = run_live(&p, cond, &cfg);
        let adaptive = run_live_with_upload_vra(&p, cond, &cfg, true);
        assert!((adaptive.mean_latency_s - fixed.mean_latency_s).abs() < 0.5);
        assert_eq!(adaptive.upload_skips, 0);
    }

    #[test]
    fn svc_passthrough_cuts_latency() {
        // The §3.4.2 endgame: a Sperke-style live platform with SVC
        // passthrough, short chunks and shallow buffers beats every
        // commercial pipeline's base latency by a wide margin.
        let cfg = LiveRunConfig::default();
        let sperke = run_live(&PlatformProfile::sperke_live(), unlimited(), &cfg);
        let fb = run_live(&PlatformProfile::facebook(), unlimited(), &cfg);
        assert!(
            sperke.mean_latency_s < fb.mean_latency_s * 0.6,
            "sperke-live {:.1}s vs facebook {:.1}s",
            sperke.mean_latency_s,
            fb.mean_latency_s
        );
        assert!(
            sperke.mean_latency_s < 6.0,
            "got {:.1}s",
            sperke.mean_latency_s
        );

        // Ablation: the same platform without passthrough pays the
        // re-encode delay.
        let mut no_pt = PlatformProfile::sperke_live();
        no_pt.svc_passthrough = false;
        let slow = run_live(&no_pt, unlimited(), &cfg);
        assert!(slow.mean_latency_s > sperke.mean_latency_s + 1.0);
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = LiveRunConfig::default();
        let cond = NetworkCondition {
            up_cap_bps: Some(2e6),
            down_cap_bps: None,
        };
        let a = run_live(&PlatformProfile::periscope(), cond, &cfg);
        let b = run_live(&PlatformProfile::periscope(), cond, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn table2_grid_shape() {
        // 90 s default window: shorter windows can end before a starved
        // YouTube viewer's deep buffer even fills.
        let cfg = LiveRunConfig::default();
        let grid = table2(&cfg);
        assert_eq!(grid.len(), 5);
        for (_, _, vals) in &grid {
            for v in vals {
                assert!(*v > 0.0);
            }
        }
    }
}
