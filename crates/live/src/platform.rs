//! Commercial live-360° platform profiles (§3.4.1).
//!
//! The paper's pilot study characterizes Facebook, YouTube and
//! Periscope: all ingest via RTMP over TCP; Facebook/YouTube distribute
//! via DASH pull (FB re-encodes 720p/1080p, YT six levels 144p–1080p),
//! Periscope pushes RTMP to viewers with no adaptation. The profile
//! constants below are calibrated so the simulated pipeline lands near
//! Table 2's measured base latencies (FB 9.2 s, Periscope 12.4 s,
//! YT 22.2 s) — the *structure* (who buffers where) follows the paper's
//! protocol findings.

use serde::{Deserialize, Serialize};
use sperke_sim::SimDuration;
use sperke_video::{Ladder, Rung};

/// How the platform delivers to viewers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DownloadProtocol {
    /// Pull-based HTTP DASH: viewers poll the MPD, then fetch chunks.
    DashPull {
        /// MPD refresh period.
        mpd_poll: SimDuration,
    },
    /// Push-based RTMP: the server pushes as soon as content is ready.
    RtmpPush,
}

/// A live platform's end-to-end pipeline constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformProfile {
    /// Platform name.
    pub name: String,
    /// Upload (and download re-mux) segment duration.
    pub chunk_duration: SimDuration,
    /// Broadcaster-side encode latency per segment.
    pub encoder_delay: SimDuration,
    /// Broadcaster send-buffer depth in segments; beyond it, new
    /// segments are skipped ("frame skips" under poor uplinks).
    pub upload_buffer_segments: u32,
    /// Server-side delay to re-encode a segment into the ladder.
    pub reencode_delay: SimDuration,
    /// Download protocol.
    pub download: DownloadProtocol,
    /// Delivery ladder (the *actual* bitrates observed on the wire;
    /// 360° live content is delivered FoV-agnostically as a regular
    /// video stream, §3.4.1).
    pub ladder: Ladder,
    /// The broadcaster's fixed upload bitrate, bits/second ("video
    /// quality is either fixed or manually specified", §3.4.1).
    pub upload_bitrate_bps: f64,
    /// Whether the viewer adapts quality (Periscope does not).
    pub viewer_adapts: bool,
    /// Segments the viewer buffers before starting playback.
    pub viewer_buffer_segments: u32,
    /// §3.4.2: "if the broadcaster employs SVC encoding, then there is
    /// no need for the server to perform re-encoding because the client
    /// player can directly assemble individual layers into chunks with
    /// different qualities." When set, the ingest re-encode collapses
    /// to a re-mux.
    pub svc_passthrough: bool,
}

fn rung(name: &str, mbps: f64, height: u32) -> Rung {
    Rung {
        name: name.into(),
        bitrate_bps: mbps * 1e6,
        height,
    }
}

impl PlatformProfile {
    /// Facebook live-360: 2 s DASH segments, shallow viewer buffer,
    /// 720p/1080p ladder. The lowest measured base latency (9.2 s).
    pub fn facebook() -> PlatformProfile {
        PlatformProfile {
            name: "facebook".into(),
            chunk_duration: SimDuration::from_secs(2),
            encoder_delay: SimDuration::from_millis(500),
            upload_buffer_segments: 0,
            reencode_delay: SimDuration::from_millis(1500),
            download: DownloadProtocol::DashPull {
                mpd_poll: SimDuration::from_secs(1),
            },
            ladder: Ladder::new(vec![rung("720p", 1.8, 720), rung("1080p", 4.0, 1080)]),
            upload_bitrate_bps: 4.0e6,
            viewer_adapts: true,
            svc_passthrough: false,
            viewer_buffer_segments: 3,
        }
    }

    /// Periscope: RTMP push both ways, no adaptation, a deep viewer
    /// jitter buffer (measured base 12.4 s).
    pub fn periscope() -> PlatformProfile {
        PlatformProfile {
            name: "periscope".into(),
            chunk_duration: SimDuration::from_secs(1),
            encoder_delay: SimDuration::from_millis(500),
            upload_buffer_segments: 40,
            reencode_delay: SimDuration::from_millis(800),
            download: DownloadProtocol::RtmpPush,
            ladder: Ladder::new(vec![rung("1080p", 2.5, 1080)]),
            upload_bitrate_bps: 2.5e6,
            viewer_adapts: false,
            svc_passthrough: false,
            viewer_buffer_segments: 11,
        }
    }

    /// YouTube live-360: 4–5 s DASH segments, six-level ladder, deep
    /// player buffer (measured base 22.2 s).
    pub fn youtube() -> PlatformProfile {
        PlatformProfile {
            name: "youtube".into(),
            chunk_duration: SimDuration::from_secs(4),
            encoder_delay: SimDuration::from_millis(800),
            upload_buffer_segments: 0,
            reencode_delay: SimDuration::from_secs(3),
            download: DownloadProtocol::DashPull {
                mpd_poll: SimDuration::from_secs(2),
            },
            ladder: Ladder::new(vec![
                rung("144p", 0.15, 144),
                rung("240p", 0.3, 240),
                rung("360p", 0.6, 360),
                rung("480p", 1.0, 480),
                rung("720p", 2.2, 720),
                rung("1080p", 4.0, 1080),
            ]),
            upload_bitrate_bps: 1.9e6,
            viewer_adapts: true,
            svc_passthrough: false,
            viewer_buffer_segments: 4,
        }
    }

    /// A hypothetical Sperke live platform (§3.4.2): the broadcaster
    /// uploads SVC, the server merely re-muxes (no re-encode), chunks
    /// are short, and the viewer buffer is shallow.
    pub fn sperke_live() -> PlatformProfile {
        PlatformProfile {
            name: "sperke-live".into(),
            chunk_duration: SimDuration::from_secs(1),
            encoder_delay: SimDuration::from_millis(400),
            upload_buffer_segments: 2,
            reencode_delay: SimDuration::from_secs(2), // ignored: SVC passthrough
            download: DownloadProtocol::DashPull {
                mpd_poll: SimDuration::from_millis(500),
            },
            ladder: Ladder::new(vec![
                rung("360p", 0.66, 360),  // base layer
                rung("720p", 2.4, 720),   // +enhancement 1 (10% SVC overhead)
                rung("1080p", 4.4, 1080), // +enhancement 2
            ]),
            upload_bitrate_bps: 4.4e6,
            viewer_adapts: true,
            svc_passthrough: true,
            viewer_buffer_segments: 2,
        }
    }

    /// The three measured platforms, in Table 2 column order.
    pub fn all() -> Vec<PlatformProfile> {
        vec![
            PlatformProfile::facebook(),
            PlatformProfile::periscope(),
            PlatformProfile::youtube(),
        ]
    }

    /// Bytes of one uploaded segment.
    pub fn upload_segment_bytes(&self) -> u64 {
        (self.upload_bitrate_bps * self.chunk_duration.as_secs_f64() / 8.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_structurally_distinct() {
        let fb = PlatformProfile::facebook();
        let ps = PlatformProfile::periscope();
        let yt = PlatformProfile::youtube();
        assert!(matches!(fb.download, DownloadProtocol::DashPull { .. }));
        assert!(matches!(yt.download, DownloadProtocol::DashPull { .. }));
        assert!(matches!(ps.download, DownloadProtocol::RtmpPush));
        assert!(!ps.viewer_adapts, "Periscope has no rate adaptation");
        assert_eq!(yt.ladder.levels(), 6, "YouTube: 144p..1080p");
        assert_eq!(fb.ladder.levels(), 2, "Facebook: 720p/1080p");
    }

    #[test]
    fn upload_segment_bytes_match_bitrate() {
        let fb = PlatformProfile::facebook();
        // 4 Mbps * 2 s / 8 = 1 MB.
        assert_eq!(fb.upload_segment_bytes(), 1_000_000);
        // YouTube broadcasters push ~1.9 Mbps over 4 s segments.
        assert_eq!(PlatformProfile::youtube().upload_segment_bytes(), 950_000);
    }

    #[test]
    fn all_returns_table2_order() {
        let names: Vec<String> = PlatformProfile::all().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["facebook", "periscope", "youtube"]);
    }
}
