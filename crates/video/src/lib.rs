//! # sperke-video — tiled DASH content model for panoramic video
//!
//! The server side of Sperke's Figure 2: a panoramic video encoded into
//! multiple qualities ([`Ladder`]), spatially segmented into tiles and
//! temporally split into chunks ([`ChunkId`] = the paper's `C(q, l, t)`),
//! with byte-accurate size models for conventional AVC and scalable SVC
//! encodings ([`encoding`]), DASH manifests ([`Mpd`]) and serving stores
//! ([`TiledStore`]).
//!
//! ```
//! use sperke_video::{VideoModelBuilder, ChunkId, Quality, ChunkTime, Scheme};
//! use sperke_geo::TileId;
//!
//! let video = VideoModelBuilder::new(42).build();
//! let id = ChunkId::new(Quality(1), TileId(8), ChunkTime(3));
//! let avc = video.chunk_bytes(id, Scheme::Avc);
//! let svc = video.chunk_bytes(id, Scheme::svc_default());
//! assert!(svc > avc, "SVC pays an overhead on the initial fetch");
//! ```

#![warn(missing_docs)]

pub mod content;
pub mod encoding;
pub mod ids;
pub mod ladder;
pub mod manifest;
pub mod protocol;
pub mod segmenter;
pub mod store;
pub mod versioning;

pub use content::{VideoModel, VideoModelBuilder};
pub use encoding::{CellSizes, Scheme};
pub use ids::{CellId, ChunkId, ChunkTime, Layer, Quality};
pub use ladder::{Ladder, Rung};
pub use manifest::{Mpd, Representation, SegmentRef};
pub use protocol::{DashOrigin, OriginStats, Request, Response};
pub use segmenter::SegmenterModel;
pub use store::{ChunkForm, StoreStats, TiledStore};
pub use versioning::{StorageComparison, VersionedStore};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sperke_geo::TileId;
    use sperke_sim::SimDuration;

    proptest! {
        /// SVC layers always sum to the cumulative size, for any overhead.
        #[test]
        fn svc_layers_sum(seed: u64, overhead in 0.0f64..0.5, tile in 0u16..24, t in 0u32..6) {
            let v = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(6))
                .svc_overhead(overhead)
                .build();
            let sizes = v.cell_sizes(TileId(tile), ChunkTime(t));
            let top = v.ladder().top();
            let sum: u64 = (0..=top.0).map(|i| sizes.svc_layer(Layer(i))).sum();
            prop_assert_eq!(sum, sizes.svc_cumulative(top));
        }

        /// Upgrading via SVC never costs more than re-downloading AVC
        /// when the overhead is small relative to the rung gap.
        #[test]
        fn svc_upgrade_cheaper_with_zero_overhead(seed: u64, tile in 0u16..24, t in 0u32..6) {
            let v = VideoModelBuilder::new(seed)
                .duration(SimDuration::from_secs(6))
                .svc_overhead(0.0)
                .build();
            let sizes = v.cell_sizes(TileId(tile), ChunkTime(t));
            let svc = sizes.upgrade_cost(Scheme::Svc { overhead: 0.0 }, Quality(0), Quality(2));
            let avc = sizes.upgrade_cost(Scheme::Avc, Quality(0), Quality(2));
            prop_assert!(svc <= avc);
        }

        /// Chunk sizes are deterministic in the seed.
        #[test]
        fn sizes_deterministic(seed: u64, tile in 0u16..24, t in 0u32..6, q in 0u8..4) {
            let a = VideoModelBuilder::new(seed).duration(SimDuration::from_secs(6)).build();
            let b = VideoModelBuilder::new(seed).duration(SimDuration::from_secs(6)).build();
            let id = ChunkId::new(Quality(q), TileId(tile), ChunkTime(t));
            prop_assert_eq!(a.chunk_bytes(id, Scheme::Avc), b.chunk_bytes(id, Scheme::Avc));
        }

        /// The panorama at any quality weighs more than any single tile.
        #[test]
        fn panorama_exceeds_any_tile(seed: u64, q in 0u8..4, t in 0u32..6) {
            let v = VideoModelBuilder::new(seed).duration(SimDuration::from_secs(6)).build();
            let pano = v.panorama_bytes(Quality(q), ChunkTime(t), Scheme::Avc);
            for tile in v.grid().tiles() {
                let id = ChunkId::new(Quality(q), tile, ChunkTime(t));
                prop_assert!(v.chunk_bytes(id, Scheme::Avc) < pano);
            }
        }
    }
}
