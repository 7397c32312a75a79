//! Identifiers for the smallest downloadable units of a tiled 360° video.
//!
//! Sperke "encodes a panoramic video into multiple qualities; each
//! quality is spatially segmented into multiple tiles, which are then
//! temporally split into chunks. A chunk C(q, l, t) is thus the smallest
//! downloadable unit" (§3, Figure 2).

use serde::{Deserialize, Serialize};
use sperke_geo::TileId;

/// A quality level `q` in the bitrate ladder; 0 is the lowest.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Quality(pub u8);

impl Quality {
    /// The lowest quality level.
    pub const LOWEST: Quality = Quality(0);

    /// The raw level index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The next level up.
    pub fn up(self) -> Quality {
        Quality(self.0 + 1)
    }

    /// The next level down, saturating at the lowest.
    pub fn down(self) -> Quality {
        Quality(self.0.saturating_sub(1))
    }
}

impl std::fmt::Display for Quality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// An SVC layer index: 0 is the base layer, `i > 0` are enhancement
/// layers. Playing quality `q` requires layers `0..=q` (§3.1.1, Fig 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Layer(pub u8);

impl Layer {
    /// The quality level this layer completes (layer i completes quality i).
    pub fn quality(self) -> Quality {
        Quality(self.0)
    }
}

/// Index of a chunk along the time axis; chunk `t` spans
/// `[t * chunk_duration, (t+1) * chunk_duration)`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ChunkTime(pub u32);

impl ChunkTime {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The following chunk index.
    pub fn next(self) -> ChunkTime {
        ChunkTime(self.0 + 1)
    }
}

/// The paper's chunk coordinate `C(q, l, t)`: quality level, tile id,
/// and chunk start index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChunkId {
    /// Quality level `q`.
    pub quality: Quality,
    /// Tile id `l`.
    pub tile: TileId,
    /// Chunk start index `t`.
    pub time: ChunkTime,
}

impl ChunkId {
    /// Construct a chunk coordinate.
    pub fn new(quality: Quality, tile: TileId, time: ChunkTime) -> ChunkId {
        ChunkId {
            quality,
            tile,
            time,
        }
    }
}

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C({},{},t{})", self.quality, self.tile, self.time.0)
    }
}

/// A tile/time coordinate without a quality: "which part of which second".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId {
    /// Tile id.
    pub tile: TileId,
    /// Chunk time index.
    pub time: ChunkTime,
}

impl CellId {
    /// Construct a cell coordinate.
    pub fn new(tile: TileId, time: ChunkTime) -> CellId {
        CellId { tile, time }
    }

    /// Attach a quality, forming a chunk id.
    pub fn at(self, quality: Quality) -> ChunkId {
        ChunkId::new(quality, self.tile, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_navigation() {
        let q = Quality(2);
        assert_eq!(q.up(), Quality(3));
        assert_eq!(q.down(), Quality(1));
        assert_eq!(Quality::LOWEST.down(), Quality::LOWEST);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = ChunkId::new(Quality(0), TileId(0), ChunkTime(0));
        let b = ChunkId::new(Quality(0), TileId(0), ChunkTime(1));
        let c = ChunkId::new(Quality(1), TileId(0), ChunkTime(0));
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn cell_and_chunk_conversions() {
        let cell = CellId::new(TileId(3), ChunkTime(7));
        let chunk = cell.at(Quality(2));
        assert_eq!(chunk.tile, TileId(3));
        assert_eq!(chunk.time, ChunkTime(7));
    }

    #[test]
    fn display_matches_paper_notation() {
        let chunk = ChunkId::new(Quality(1), TileId(5), ChunkTime(9));
        assert_eq!(format!("{chunk}"), "C(Q1,T5,t9)");
    }

    #[test]
    fn layer_completes_matching_quality() {
        assert_eq!(Layer(0).quality(), Quality(0));
        assert_eq!(Layer(3).quality(), Quality(3));
    }
}
