//! DASH-style Media Presentation Description for tiled 360° video.
//!
//! Sperke "follows the DASH paradigm" (§3); live viewers "periodically
//! request an MPD file that contains the meta data (URL, quality, codec
//! info) for recently generated video chunks" (§3.4.1). The manifest is
//! the wire-format view of a [`VideoModel`]:
//! everything a client needs to compute byte budgets without asking the
//! server per chunk.

use crate::content::VideoModel;
use crate::encoding::Scheme;
use crate::ids::{ChunkId, ChunkTime, Quality};
use serde::{Deserialize, Serialize};
use sperke_geo::TileId;
use sperke_sim::SimDuration;

/// One representation: a (quality, tile) bitstream, DASH-style.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Representation {
    /// Quality level.
    pub quality: Quality,
    /// Tile covered by this representation.
    pub tile: TileId,
    /// Codec string, e.g. `avc1.640028` or `svc1.base+2`.
    pub codec: String,
    /// Mean segment size in bytes (clients refine with per-segment data).
    pub mean_segment_bytes: u64,
}

/// Metadata for one published segment (used in live manifests, where
/// only recently generated chunks are listed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentRef {
    /// The chunk this segment carries.
    pub chunk: ChunkId,
    /// Exact size in bytes.
    pub bytes: u64,
    /// Template URL (informational; the simulator transfers by size).
    pub url: String,
}

/// A Media Presentation Description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mpd {
    /// Presentation id.
    pub id: String,
    /// Whether this is a live (dynamic) or on-demand (static) manifest.
    pub live: bool,
    /// Segment duration.
    pub segment_duration: SimDuration,
    /// Number of segments (0 / growing for live).
    pub segment_count: u32,
    /// Tile grid dimensions `(rows, cols)`.
    pub grid: (u16, u16),
    /// Encoding scheme offered.
    pub scheme: Scheme,
    /// All representations, ordered by (quality, tile).
    pub representations: Vec<Representation>,
    /// Recently published segments (live only; empty for VoD).
    pub recent_segments: Vec<SegmentRef>,
}

impl Mpd {
    /// Build a static (on-demand) manifest describing a video.
    pub fn vod(id: impl Into<String>, video: &VideoModel, scheme: Scheme) -> Mpd {
        let id = id.into();
        let n = video.chunk_count().max(1);
        let mut representations = Vec::new();
        for quality in video.ladder().qualities() {
            for tile in video.grid().tiles() {
                let total: u64 = video
                    .chunk_times()
                    .map(|t| video.chunk_bytes(ChunkId::new(quality, tile, t), scheme))
                    .sum();
                representations.push(Representation {
                    quality,
                    tile,
                    codec: codec_string(scheme, quality),
                    mean_segment_bytes: total / n as u64,
                });
            }
        }
        Mpd {
            id,
            live: false,
            segment_duration: video.chunk_duration(),
            segment_count: video.chunk_count(),
            grid: (video.grid().rows, video.grid().cols),
            scheme,
            representations,
            recent_segments: Vec::new(),
        }
    }

    /// Build an initially empty live manifest.
    pub fn live(id: impl Into<String>, video: &VideoModel, scheme: Scheme) -> Mpd {
        let mut mpd = Mpd::vod(id, video, scheme);
        mpd.live = true;
        mpd.segment_count = 0;
        mpd
    }

    /// Publish a segment into a live manifest, keeping at most `window`
    /// recent entries (oldest dropped first).
    pub fn publish(&mut self, seg: SegmentRef, window: usize) {
        assert!(self.live, "publish() only applies to live manifests");
        self.segment_count = self.segment_count.max(seg.chunk.time.0 + 1);
        self.recent_segments.push(seg);
        if self.recent_segments.len() > window {
            let drop = self.recent_segments.len() - window;
            self.recent_segments.drain(..drop);
        }
    }

    /// Newest published segment time (live).
    pub fn live_edge(&self) -> Option<ChunkTime> {
        self.recent_segments.iter().map(|s| s.chunk.time).max()
    }

    /// Serialize to JSON (the simulator's stand-in for MPD XML).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("MPD serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Mpd, serde_json::Error> {
        serde_json::from_str(s)
    }
}

fn codec_string(scheme: Scheme, quality: Quality) -> String {
    match scheme {
        Scheme::Avc => format!("avc1.q{}", quality.0),
        Scheme::Svc { .. } => format!("svc1.base+{}", quality.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(5)
            .duration(SimDuration::from_secs(8))
            .build()
    }

    #[test]
    fn vod_manifest_lists_every_representation() {
        let v = video();
        let mpd = Mpd::vod("clip", &v, Scheme::Avc);
        assert_eq!(
            mpd.representations.len(),
            v.ladder().levels() * v.grid().tile_count()
        );
        assert!(!mpd.live);
        assert_eq!(mpd.segment_count, 8);
    }

    #[test]
    fn svc_representations_carry_codec_and_size() {
        let v = video();
        let mpd = Mpd::vod("clip", &v, Scheme::svc_default());
        for rep in &mpd.representations {
            assert!(rep.codec.starts_with("svc1"), "{}", rep.codec);
            assert!(rep.mean_segment_bytes > 0);
        }
    }

    #[test]
    fn live_publish_maintains_window_and_edge() {
        let v = video();
        let mut mpd = Mpd::live("live", &v, Scheme::Avc);
        assert_eq!(mpd.live_edge(), None);
        for t in 0..5u32 {
            mpd.publish(
                SegmentRef {
                    chunk: ChunkId::new(Quality(0), TileId(0), ChunkTime(t)),
                    bytes: 1000,
                    url: format!("seg/{t}"),
                },
                3,
            );
        }
        assert_eq!(mpd.recent_segments.len(), 3);
        assert_eq!(mpd.live_edge(), Some(ChunkTime(4)));
        assert_eq!(mpd.segment_count, 5);
    }

    #[test]
    fn json_roundtrip() {
        let v = video();
        let mpd = Mpd::vod("clip", &v, Scheme::svc_default());
        let back = Mpd::from_json(&mpd.to_json()).expect("parses");
        assert_eq!(mpd, back);
    }

    #[test]
    #[should_panic]
    fn publish_rejected_on_vod() {
        let v = video();
        let mut mpd = Mpd::vod("clip", &v, Scheme::Avc);
        mpd.publish(
            SegmentRef {
                chunk: ChunkId::new(Quality(0), TileId(0), ChunkTime(0)),
                bytes: 1,
                url: "x".into(),
            },
            4,
        );
    }
}
