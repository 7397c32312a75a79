//! Server-side chunk stores: what the CDN keeps and serves.
//!
//! Tiling "imposes minimal load at the server" (§2) because one tiled
//! copy serves every head orientation; the versioning alternative keeps
//! up to 88 copies. [`TiledStore`] answers byte sizes for requested
//! chunks and tracks request accounting; the hybrid store additionally
//! offers both AVC and SVC forms of every chunk, enabling the hybrid
//! SVC/AVC policy of §3.1.2.

use crate::content::VideoModel;
use crate::ids::{ChunkId, Layer};
use serde::{Deserialize, Serialize};

/// Which form of a chunk a client requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChunkForm {
    /// The standalone AVC representation at the chunk's quality.
    Avc,
    /// All SVC layers from base through the chunk's quality.
    SvcCumulative,
    /// A single SVC enhancement layer (for incremental upgrades).
    SvcLayer(Layer),
}

/// Accounting snapshot of a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Number of requests served.
    pub requests: u64,
    /// Total bytes served.
    pub bytes_served: u64,
}

/// A server-side store serving one tiled video.
#[derive(Debug, Clone)]
pub struct TiledStore {
    video: VideoModel,
    offers_svc: bool,
    stats: StoreStats,
}

impl TiledStore {
    /// A store offering only AVC representations.
    pub fn avc_only(video: VideoModel) -> TiledStore {
        TiledStore {
            video,
            offers_svc: false,
            stats: StoreStats::default(),
        }
    }

    /// A hybrid store offering both AVC and SVC forms (§3.1.2).
    pub fn hybrid(video: VideoModel) -> TiledStore {
        TiledStore {
            video,
            offers_svc: true,
            stats: StoreStats::default(),
        }
    }

    /// The underlying video model.
    pub fn video(&self) -> &VideoModel {
        &self.video
    }

    /// Byte size of a request, or `None` when the form is not offered or
    /// the coordinates are out of range.
    pub fn size_of(&self, id: ChunkId, form: ChunkForm) -> Option<u64> {
        if !self.video.ladder().contains(id.quality) || id.time.0 >= self.video.chunk_count() {
            return None;
        }
        let sizes = self.video.cell_sizes(id.tile, id.time);
        match form {
            ChunkForm::Avc => Some(sizes.avc(id.quality)),
            ChunkForm::SvcCumulative if self.offers_svc => Some(sizes.svc_cumulative(id.quality)),
            ChunkForm::SvcLayer(layer) if self.offers_svc => {
                // The layer must exist and not exceed the requested quality.
                if layer.quality() > id.quality || !self.video.ladder().contains(layer.quality()) {
                    None
                } else {
                    Some(sizes.svc_layer(layer))
                }
            }
            _ => None,
        }
    }

    /// Serve a request, recording accounting. Returns the byte size.
    pub fn serve(&mut self, id: ChunkId, form: ChunkForm) -> Option<u64> {
        let bytes = self.size_of(id, form)?;
        self.stats.requests += 1;
        self.stats.bytes_served += bytes;
        Some(bytes)
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Storage footprint of this store in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.video.tiling_storage_bytes(self.offers_svc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::VideoModelBuilder;
    use crate::ids::ChunkTime;
    use crate::ids::Quality;
    use sperke_geo::TileId;
    use sperke_sim::SimDuration;

    fn store(hybrid: bool) -> TiledStore {
        let v = VideoModelBuilder::new(2)
            .duration(SimDuration::from_secs(6))
            .build();
        if hybrid {
            TiledStore::hybrid(v)
        } else {
            TiledStore::avc_only(v)
        }
    }

    fn chunk(q: u8) -> ChunkId {
        ChunkId::new(Quality(q), TileId(4), ChunkTime(1))
    }

    #[test]
    fn avc_store_refuses_svc() {
        let s = store(false);
        assert!(s.size_of(chunk(1), ChunkForm::Avc).is_some());
        assert!(s.size_of(chunk(1), ChunkForm::SvcCumulative).is_none());
        assert!(s.size_of(chunk(1), ChunkForm::SvcLayer(Layer(1))).is_none());
    }

    #[test]
    fn hybrid_store_serves_everything() {
        let s = store(true);
        assert!(s.size_of(chunk(2), ChunkForm::Avc).is_some());
        assert!(s.size_of(chunk(2), ChunkForm::SvcCumulative).is_some());
        assert!(s.size_of(chunk(2), ChunkForm::SvcLayer(Layer(2))).is_some());
    }

    #[test]
    fn layer_above_requested_quality_refused() {
        let s = store(true);
        assert!(s.size_of(chunk(1), ChunkForm::SvcLayer(Layer(2))).is_none());
    }

    #[test]
    fn out_of_range_refused() {
        let s = store(true);
        let bad_q = ChunkId::new(Quality(99), TileId(0), ChunkTime(0));
        let bad_t = ChunkId::new(Quality(0), TileId(0), ChunkTime(999));
        assert!(s.size_of(bad_q, ChunkForm::Avc).is_none());
        assert!(s.size_of(bad_t, ChunkForm::Avc).is_none());
    }

    #[test]
    fn serve_accumulates_stats() {
        let mut s = store(true);
        let b1 = s.serve(chunk(0), ChunkForm::Avc).unwrap();
        let b2 = s.serve(chunk(1), ChunkForm::SvcCumulative).unwrap();
        assert_eq!(s.stats().requests, 2);
        assert_eq!(s.stats().bytes_served, b1 + b2);
    }

    #[test]
    fn failed_serve_does_not_count() {
        let mut s = store(false);
        assert!(s.serve(chunk(0), ChunkForm::SvcCumulative).is_none());
        assert_eq!(s.stats().requests, 0);
    }

    #[test]
    fn hybrid_storage_exceeds_avc_only() {
        assert!(store(true).storage_bytes() > store(false).storage_bytes());
    }
}
