//! The client's chunk buffer: which cells are downloaded at which
//! quality (the "Encoded Chunk Cache" of Figure 4).

use serde::{Deserialize, Serialize};
use sperke_video::{CellId, ChunkForm, ChunkTime, Quality};
use std::collections::HashMap;

/// A buffered cell's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferedCell {
    /// Quality currently available for display.
    pub quality: Quality,
    /// The wire form it arrived in (controls upgrade semantics).
    pub form: ChunkForm,
    /// Total bytes spent on this cell so far (including waste).
    pub bytes_spent: u64,
}

/// The player's downloaded-cell buffer.
#[derive(Debug, Clone, Default)]
pub struct CellBuffer {
    cells: HashMap<CellId, BufferedCell>,
}

impl CellBuffer {
    /// An empty buffer.
    pub fn new() -> CellBuffer {
        CellBuffer::default()
    }

    /// Record a completed initial fetch. Replacing an existing entry
    /// (AVC re-download) accumulates `bytes_spent`.
    pub fn insert(&mut self, cell: CellId, quality: Quality, form: ChunkForm, bytes: u64) {
        self.cells
            .entry(cell)
            .and_modify(|c| {
                if quality > c.quality {
                    c.quality = quality;
                    c.form = form;
                }
                c.bytes_spent += bytes;
            })
            .or_insert(BufferedCell {
                quality,
                form,
                bytes_spent: bytes,
            });
    }

    /// Record a completed SVC delta upgrade.
    pub fn upgrade(&mut self, cell: CellId, to: Quality, delta_bytes: u64) {
        if let Some(c) = self.cells.get_mut(&cell) {
            if to > c.quality {
                c.quality = to;
            }
            c.bytes_spent += delta_bytes;
        }
    }

    /// Full state of a cell.
    pub fn get(&self, cell: CellId) -> Option<&BufferedCell> {
        self.cells.get(&cell)
    }

    /// All buffered cells for a chunk time.
    pub fn cells_at(&self, time: ChunkTime) -> Vec<(CellId, Quality)> {
        let mut v: Vec<(CellId, Quality)> = self
            .cells
            .iter()
            .filter(|(id, _)| id.time == time)
            .map(|(&id, c)| (id, c.quality))
            .collect();
        v.sort_by_key(|&(id, _)| id);
        v
    }

    /// Total bytes spent across all cells.
    pub fn total_bytes(&self) -> u64 {
        self.cells.values().map(|c| c.bytes_spent).sum()
    }

    /// Evict everything before `time` (already played out).
    pub fn evict_before(&mut self, time: ChunkTime) {
        self.cells.retain(|id, _| id.time >= time);
    }

    /// Number of buffered cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell is buffered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::TileId;

    fn cell(tile: u16, t: u32) -> CellId {
        CellId::new(TileId(tile), ChunkTime(t))
    }

    #[test]
    fn insert_and_query() {
        let mut b = CellBuffer::new();
        b.insert(cell(0, 1), Quality(2), ChunkForm::Avc, 1000);
        assert_eq!(b.get(cell(0, 1)).map(|c| c.quality), Some(Quality(2)));
        assert_eq!(b.get(cell(1, 1)).map(|c| c.quality), None);
        assert!(!b.cells_at(ChunkTime(1)).is_empty());
        assert!(b.cells_at(ChunkTime(2)).is_empty());
    }

    #[test]
    fn avc_redownload_accumulates_bytes_and_takes_max_quality() {
        let mut b = CellBuffer::new();
        b.insert(cell(0, 1), Quality(1), ChunkForm::Avc, 1000);
        b.insert(cell(0, 1), Quality(3), ChunkForm::Avc, 4000);
        let c = b.get(cell(0, 1)).unwrap();
        assert_eq!(c.quality, Quality(3));
        assert_eq!(c.bytes_spent, 5000);
        // A lower-quality duplicate doesn't downgrade.
        b.insert(cell(0, 1), Quality(0), ChunkForm::Avc, 100);
        assert_eq!(b.get(cell(0, 1)).map(|c| c.quality), Some(Quality(3)));
    }

    #[test]
    fn svc_upgrade_raises_quality() {
        let mut b = CellBuffer::new();
        b.insert(cell(2, 3), Quality(0), ChunkForm::SvcCumulative, 500);
        b.upgrade(cell(2, 3), Quality(2), 800);
        let c = b.get(cell(2, 3)).unwrap();
        assert_eq!(c.quality, Quality(2));
        assert_eq!(c.bytes_spent, 1300);
    }

    #[test]
    fn upgrade_of_missing_cell_is_noop() {
        let mut b = CellBuffer::new();
        b.upgrade(cell(0, 0), Quality(2), 500);
        assert!(b.is_empty());
    }

    #[test]
    fn cells_at_filters_by_time() {
        let mut b = CellBuffer::new();
        b.insert(cell(0, 1), Quality(0), ChunkForm::Avc, 1);
        b.insert(cell(1, 1), Quality(1), ChunkForm::Avc, 1);
        b.insert(cell(0, 2), Quality(2), ChunkForm::Avc, 1);
        let at1 = b.cells_at(ChunkTime(1));
        assert_eq!(at1.len(), 2);
        assert!(at1.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn evict_before_drops_old_cells() {
        let mut b = CellBuffer::new();
        b.insert(cell(0, 0), Quality(0), ChunkForm::Avc, 1);
        b.insert(cell(0, 5), Quality(0), ChunkForm::Avc, 1);
        b.evict_before(ChunkTime(3));
        assert!(b.cells_at(ChunkTime(0)).is_empty());
        assert!(!b.cells_at(ChunkTime(5)).is_empty());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn total_bytes_sums() {
        let mut b = CellBuffer::new();
        b.insert(cell(0, 0), Quality(0), ChunkForm::Avc, 100);
        b.insert(cell(1, 0), Quality(0), ChunkForm::Avc, 200);
        b.upgrade(cell(1, 0), Quality(1), 50);
        assert_eq!(b.total_bytes(), 350);
    }
}
