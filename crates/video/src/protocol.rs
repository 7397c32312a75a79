//! The DASH request/response protocol, typed.
//!
//! Sperke "follows the DASH paradigm" (§3); live viewers poll MPDs and
//! fetch segments over HTTPS (§3.4.1). This module gives the simulated
//! stack a real protocol boundary: a [`DashOrigin`] state machine that
//! owns stores and live publication state and answers [`Request`]s with
//! [`Response`]s, so clients cannot reach around the API and touch
//! server internals (and tests can assert wire-level behaviour such as
//! live-edge gating and 404s).

use crate::ids::{ChunkId, ChunkTime};
use crate::manifest::{Mpd, SegmentRef};
use crate::store::{ChunkForm, TiledStore};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Approximate wire overhead of one HTTP request/response exchange
/// (request line + headers both ways), bytes.
const HTTP_OVERHEAD_BYTES: u64 = 700;

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Fetch (or refresh) a presentation's manifest.
    GetManifest {
        /// Presentation name.
        presentation: String,
    },
    /// Fetch one segment.
    GetSegment {
        /// Presentation name.
        presentation: String,
        /// The chunk requested.
        chunk: ChunkId,
        /// The encoding form requested.
        form: ChunkForm,
    },
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The manifest.
    Manifest {
        /// The current MPD (live manifests grow over time).
        mpd: Mpd,
    },
    /// Segment payload metadata (the simulator moves sizes, not bits).
    Segment {
        /// The chunk served.
        chunk: ChunkId,
        /// The form served.
        form: ChunkForm,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// The request could not be served.
    Error {
        /// HTTP-ish status code (404 unknown, 425 not yet published).
        status: u16,
        /// Human-readable reason.
        reason: String,
    },
}

impl Response {
    /// Total bytes this response puts on the wire (payload + overhead).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Response::Segment { bytes, .. } => bytes + HTTP_OVERHEAD_BYTES,
            Response::Manifest { mpd } => mpd.to_json().len() as u64 + HTTP_OVERHEAD_BYTES,
            Response::Error { .. } => HTTP_OVERHEAD_BYTES,
        }
    }
}

struct Presentation {
    store: TiledStore,
    mpd: Mpd,
    /// For live presentations, the newest published chunk (inclusive);
    /// `None` for VoD (everything available).
    live_edge: Option<Option<ChunkTime>>,
}

/// Per-origin accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OriginStats {
    /// Requests received.
    pub requests: u64,
    /// Segment payload bytes served.
    pub payload_bytes: u64,
    /// Manifest fetches served.
    pub manifest_fetches: u64,
    /// Errors returned.
    pub errors: u64,
}

/// A DASH origin server hosting presentations.
pub struct DashOrigin {
    presentations: HashMap<String, Presentation>,
    stats: OriginStats,
    /// Live manifest window (recent segments listed).
    pub live_window: usize,
}

impl Default for DashOrigin {
    fn default() -> Self {
        DashOrigin::new()
    }
}

impl DashOrigin {
    /// An empty origin.
    pub fn new() -> DashOrigin {
        DashOrigin {
            presentations: HashMap::new(),
            stats: OriginStats::default(),
            live_window: 8,
        }
    }

    /// Host a video on demand: every chunk immediately available.
    pub fn host_vod(
        &mut self,
        name: impl Into<String>,
        store: TiledStore,
        scheme: crate::encoding::Scheme,
    ) {
        let name = name.into();
        let mpd = Mpd::vod(name.clone(), store.video(), scheme);
        self.presentations.insert(
            name,
            Presentation {
                store,
                mpd,
                live_edge: None,
            },
        );
    }

    /// Host a live presentation: chunks become fetchable only after
    /// [`DashOrigin::publish`].
    pub fn host_live(
        &mut self,
        name: impl Into<String>,
        store: TiledStore,
        scheme: crate::encoding::Scheme,
    ) {
        let name = name.into();
        let mpd = Mpd::live(name.clone(), store.video(), scheme);
        self.presentations.insert(
            name,
            Presentation {
                store,
                mpd,
                live_edge: Some(None),
            },
        );
    }

    /// Publish a live chunk time (all its tiles at once, as an ingest
    /// pipeline would).
    pub fn publish(&mut self, name: &str, time: ChunkTime) {
        let p = self
            .presentations
            .get_mut(name)
            .expect("unknown presentation");
        let edge = p
            .live_edge
            .as_mut()
            .expect("publish() is for live presentations");
        *edge = Some(edge.map_or(time, |e: ChunkTime| ChunkTime(e.0.max(time.0))));
        // Advertise one representative segment per tile in the manifest.
        let q = p.store.video().ladder().top();
        for tile in p.store.video().grid().tiles() {
            let chunk = ChunkId::new(q, tile, time);
            if let Some(bytes) = p.store.size_of(chunk, ChunkForm::Avc) {
                p.mpd.publish(
                    SegmentRef {
                        chunk,
                        bytes,
                        url: format!("{name}/{}/{}", tile, time.0),
                    },
                    self.live_window * p.store.video().grid().tile_count(),
                );
            }
        }
    }

    /// Handle one request.
    pub fn handle(&mut self, request: &Request) -> Response {
        self.stats.requests += 1;
        match request {
            Request::GetManifest { presentation } => match self.presentations.get(presentation) {
                Some(p) => {
                    self.stats.manifest_fetches += 1;
                    Response::Manifest { mpd: p.mpd.clone() }
                }
                None => {
                    self.stats.errors += 1;
                    Response::Error {
                        status: 404,
                        reason: format!("no presentation {presentation}"),
                    }
                }
            },
            Request::GetSegment {
                presentation,
                chunk,
                form,
            } => {
                let Some(p) = self.presentations.get_mut(presentation) else {
                    self.stats.errors += 1;
                    return Response::Error {
                        status: 404,
                        reason: format!("no presentation {presentation}"),
                    };
                };
                if let Some(edge) = &p.live_edge {
                    let available = edge.map(|e| chunk.time <= e).unwrap_or(false);
                    if !available {
                        self.stats.errors += 1;
                        return Response::Error {
                            status: 425,
                            reason: format!("chunk t{} not yet published", chunk.time.0),
                        };
                    }
                }
                match p.store.serve(*chunk, *form) {
                    Some(bytes) => {
                        self.stats.payload_bytes += bytes;
                        Response::Segment {
                            chunk: *chunk,
                            form: *form,
                            bytes,
                        }
                    }
                    None => {
                        self.stats.errors += 1;
                        Response::Error {
                            status: 404,
                            reason: format!("no such segment {chunk}"),
                        }
                    }
                }
            }
        }
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> OriginStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::VideoModelBuilder;
    use crate::encoding::Scheme;
    use crate::ids::Quality;
    use sperke_geo::TileId;
    use sperke_sim::SimDuration;

    fn origin_vod() -> DashOrigin {
        let video = VideoModelBuilder::new(5)
            .duration(SimDuration::from_secs(6))
            .build();
        let mut o = DashOrigin::new();
        o.host_vod("clip", TiledStore::hybrid(video), Scheme::svc_default());
        o
    }

    fn seg_req(t: u32) -> Request {
        Request::GetSegment {
            presentation: "clip".into(),
            chunk: ChunkId::new(Quality(1), TileId(3), ChunkTime(t)),
            form: ChunkForm::Avc,
        }
    }

    #[test]
    fn vod_serves_manifest_and_segments() {
        let mut o = origin_vod();
        let m = o.handle(&Request::GetManifest {
            presentation: "clip".into(),
        });
        assert!(matches!(m, Response::Manifest { .. }));
        let s = o.handle(&seg_req(2));
        let Response::Segment { bytes, .. } = s else {
            panic!("expected a segment, got {s:?}");
        };
        assert!(bytes > 0);
        let stats = o.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.manifest_fetches, 1);
        assert_eq!(stats.payload_bytes, bytes);
    }

    #[test]
    fn unknown_presentation_is_404() {
        let mut o = origin_vod();
        let r = o.handle(&Request::GetManifest {
            presentation: "nope".into(),
        });
        assert!(matches!(r, Response::Error { status: 404, .. }));
        assert_eq!(o.stats().errors, 1);
    }

    #[test]
    fn out_of_range_segment_is_404() {
        let mut o = origin_vod();
        let r = o.handle(&seg_req(999));
        assert!(matches!(r, Response::Error { status: 404, .. }));
    }

    #[test]
    fn live_edge_gates_segments() {
        let video = VideoModelBuilder::new(7)
            .duration(SimDuration::from_secs(6))
            .build();
        let mut o = DashOrigin::new();
        o.host_live("live", TiledStore::avc_only(video), Scheme::Avc);
        let req = Request::GetSegment {
            presentation: "live".into(),
            chunk: ChunkId::new(Quality(0), TileId(0), ChunkTime(1)),
            form: ChunkForm::Avc,
        };
        // Before publication: 425.
        assert!(matches!(
            o.handle(&req),
            Response::Error { status: 425, .. }
        ));
        o.publish("live", ChunkTime(0));
        assert!(matches!(
            o.handle(&req),
            Response::Error { status: 425, .. }
        ));
        o.publish("live", ChunkTime(1));
        assert!(matches!(o.handle(&req), Response::Segment { .. }));
        // The manifest now lists recent segments and a live edge.
        let Response::Manifest { mpd } = o.handle(&Request::GetManifest {
            presentation: "live".into(),
        }) else {
            panic!("manifest expected");
        };
        assert_eq!(mpd.live_edge(), Some(ChunkTime(1)));
    }

    #[test]
    fn wire_bytes_include_overhead() {
        let mut o = origin_vod();
        let seg = o.handle(&seg_req(0));
        let Response::Segment { bytes, .. } = seg else {
            panic!()
        };
        assert_eq!(seg.wire_bytes(), bytes + HTTP_OVERHEAD_BYTES);
        let err = o.handle(&seg_req(999));
        assert_eq!(err.wire_bytes(), HTTP_OVERHEAD_BYTES);
        let man = o.handle(&Request::GetManifest {
            presentation: "clip".into(),
        });
        assert!(man.wire_bytes() > HTTP_OVERHEAD_BYTES);
    }

    #[test]
    fn svc_layers_served_by_hybrid_origin() {
        let mut o = origin_vod();
        let r = o.handle(&Request::GetSegment {
            presentation: "clip".into(),
            chunk: ChunkId::new(Quality(2), TileId(1), ChunkTime(0)),
            form: ChunkForm::SvcLayer(crate::ids::Layer(2)),
        });
        assert!(matches!(r, Response::Segment { .. }), "{r:?}");
    }

    #[test]
    #[should_panic]
    fn publish_on_vod_panics() {
        let mut o = origin_vod();
        o.publish("clip", ChunkTime(0));
    }
}
