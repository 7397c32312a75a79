//! Super chunks: the minimum tile set covering a (predicted) FoV.
//!
//! §3.1.2, part one: "we can generate a sequence of super chunks where
//! each super chunk consists of the minimum number of chunks that fully
//! cover the corresponding FoV ... all chunks within a super chunk will
//! have the same quality (otherwise different subareas in a FoV will
//! have different qualities, thus worsening the QoE)".

use serde::{Deserialize, Serialize};
use sperke_geo::TileId;
use sperke_hmp::TileForecast;
use sperke_video::{ChunkTime, Quality, Scheme, VideoModel};

/// The tile set that must share one quality level for a chunk time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperChunk {
    /// The chunk time covered.
    pub time: ChunkTime,
    /// Tiles inside the (predicted) FoV, sorted by id.
    pub tiles: Vec<TileId>,
}

impl SuperChunk {
    /// Build from a tile forecast: tiles whose on-screen probability is
    /// at least `threshold` **relative to the most probable tile**, so
    /// the FoV set survives any uniform rescaling of the forecast (e.g.
    /// by prior blending). Guarantees at least one tile.
    pub fn from_forecast(forecast: &TileForecast, time: ChunkTime, threshold: f64) -> SuperChunk {
        let max_p = forecast
            .ranked()
            .first()
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
            .max(1e-9);
        let mut tiles = forecast.above(threshold * max_p);
        if tiles.is_empty() {
            tiles = forecast.top_k(1);
        }
        tiles.sort();
        SuperChunk { time, tiles }
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// True when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Whether a tile belongs to this super chunk.
    pub fn contains(&self, tile: TileId) -> bool {
        self.tiles.binary_search(&tile).is_ok()
    }

    /// Total bytes to fetch the super chunk at quality `q`.
    pub fn bytes_at(&self, video: &VideoModel, q: Quality, scheme: Scheme) -> u64 {
        self.tiles
            .iter()
            .map(|&tile| video.chunk_bytes(sperke_video::ChunkId::new(q, tile, self.time), scheme))
            .sum()
    }

    /// The equivalent bitrate (bits/second) of the super chunk at `q`.
    pub fn bitrate_at(&self, video: &VideoModel, q: Quality, scheme: Scheme) -> f64 {
        self.bytes_at(video, q, scheme) as f64 * 8.0 / video.chunk_duration().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::{Orientation, Viewport};
    use sperke_hmp::FusedForecaster;
    use sperke_sim::{SimDuration, SimTime};
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(10))
            .build()
    }

    /// The super chunk of a known, front-facing viewport (the
    /// perfect-HMP case of §3.1.2 part one).
    fn front_chunk(v: &VideoModel, time: ChunkTime) -> SuperChunk {
        SuperChunk {
            time,
            tiles: Viewport::headset(Orientation::FRONT).visible_tile_set(v.grid()),
        }
    }

    #[test]
    fn viewport_superchunk_is_sorted_and_partial() {
        let v = video();
        let sc = front_chunk(&v, ChunkTime(0));
        assert!(!sc.is_empty());
        assert!(
            sc.len() < v.grid().tile_count(),
            "FoV must not cover everything"
        );
        assert!(sc.tiles.windows(2).all(|w| w[0] < w[1]));
        assert!(sc.contains(sc.tiles[0]));
    }

    #[test]
    fn forecast_superchunk_threshold() {
        let grid = sperke_geo::TileGrid::new(4, 6);
        let history = vec![(SimTime::ZERO, Orientation::FRONT)];
        let fc = FusedForecaster::motion_only().forecast(
            &grid,
            &history,
            SimTime::ZERO,
            SimTime::from_millis(500),
            ChunkTime(0),
        );
        let tight = SuperChunk::from_forecast(&fc, ChunkTime(0), 0.9);
        let loose = SuperChunk::from_forecast(&fc, ChunkTime(0), 0.2);
        assert!(tight.len() <= loose.len());
        for t in &tight.tiles {
            assert!(loose.contains(*t));
        }
    }

    #[test]
    fn forecast_superchunk_never_empty() {
        let grid = sperke_geo::TileGrid::new(4, 6);
        // A uniform forecast (total ignorance): the relative threshold
        // admits every tile — "OOS chunks may spread to the entire
        // panoramic scene" in the fully random case.
        let fc = TileForecast::uniform(&grid, 0.001);
        let sc = SuperChunk::from_forecast(&fc, ChunkTime(0), 0.99);
        assert_eq!(sc.len(), grid.tile_count());
        // A degenerate all-zero forecast still yields one tile.
        let zero = TileForecast::new(vec![0.0; grid.tile_count()]);
        assert_eq!(SuperChunk::from_forecast(&zero, ChunkTime(0), 0.9).len(), 1);
    }

    #[test]
    fn bytes_scale_with_quality() {
        let v = video();
        let sc = front_chunk(&v, ChunkTime(1));
        let lo = sc.bytes_at(&v, Quality(0), Scheme::Avc);
        let hi = sc.bytes_at(&v, Quality(3), Scheme::Avc);
        assert!(hi > lo * 4, "ladder spans 8x in bitrate");
    }

    #[test]
    fn superchunk_cheaper_than_panorama() {
        // The essence of FoV-guided streaming: the super chunk is a
        // fraction of the full panorama.
        let v = video();
        let sc = front_chunk(&v, ChunkTime(0));
        let q = Quality(2);
        let sc_bytes = sc.bytes_at(&v, q, Scheme::Avc);
        let pano = v.panorama_bytes(q, ChunkTime(0), Scheme::Avc);
        assert!(
            (sc_bytes as f64) < 0.7 * pano as f64,
            "super chunk {sc_bytes} should be well under panorama {pano}"
        );
    }
}
