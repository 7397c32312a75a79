//! Memoized tile-visibility queries.
//!
//! No run holds a [`VisibilityCache`]: every consumer casts through a
//! [`VisibilityScratch`] it owns, because measured runs never hit the
//! memo. The type stays only because the benchmark harness
//! (`sperkebench/`) still builds one and passes it to the builders'
//! inert `.vis_cache(..)` setters; ROADMAP item 1 deletes both.
//!
//! A [`VisibilityCache`] memoizes *exact* [`Viewport::visible_tiles`]
//! results keyed by the orientation's f64 bit patterns plus the grid
//! shape and sample density. Because the key is the exact bit pattern
//! and the stored value is the exact computed result, a cache hit is
//! bit-identical to recomputation by construction.
//!
//! The memo is a bounded least-recently-used store, a
//! [`sperke_sim::Lru`]: a hit moves its entry to the newest end of a
//! recency list, and a miss on a full cache evicts the oldest end. A hit
//! and a miss with eviction each cost O(1) bookkeeping on top of the
//! key hash. The list head is exactly the entry a scan for the minimum
//! of a unique, monotone last-used tick would pick, so the eviction
//! schedule is a pure function of the query sequence — though results
//! never depend on it, since eviction only forces a recomputation of
//! the same exact value.
//!
//! The handle is an `Arc<Mutex<..>>` (like `TraceSink`), so it and
//! anything holding it are `Send + Sync`.

use crate::tiling::{TileGrid, TileId};
use crate::viewport::{Viewport, VisibilityScratch};
use sperke_sim::Lru;
use std::sync::{Arc, Mutex, MutexGuard};

/// Exact memoization key: the f64 bit patterns of the viewport's
/// orientation and FoV extents, the grid shape, and the sample density.
/// Two viewports compare equal here iff `visible_tiles` would perform
/// the identical computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VisKey {
    yaw: u64,
    pitch: u64,
    roll: u64,
    hfov: u64,
    vfov: u64,
    rows: u16,
    cols: u16,
    samples: u32,
}

impl VisKey {
    /// The key for one `(viewport, grid, samples)` query.
    pub fn new(viewport: &Viewport, grid: &TileGrid, samples: u32) -> VisKey {
        VisKey {
            yaw: viewport.orientation.yaw.to_bits(),
            pitch: viewport.orientation.pitch.to_bits(),
            roll: viewport.orientation.roll.to_bits(),
            hfov: viewport.hfov.to_bits(),
            vfov: viewport.vfov.to_bits(),
            rows: grid.rows,
            cols: grid.cols,
            samples,
        }
    }
}

/// Hit/miss/eviction counters of one cache, plus its occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VisCacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to compute (and store) a fresh result.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// The LRU bound (0 when the cache is disabled).
    pub capacity: usize,
}

#[derive(Debug)]
struct CacheInner {
    capacity: usize,
    entries: Lru<VisKey, Arc<[(TileId, f64)]>>,
    scratch: VisibilityScratch,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded LRU memo of exact [`Viewport::visible_tiles`] results.
///
/// The handle is cheap to clone (`Arc`); clones share one cache. See
/// the [module docs](self) for the bit-exactness and threading contract.
///
/// ```
/// use sperke_geo::{Orientation, TileGrid, Viewport, VisibilityCache};
///
/// let cache = VisibilityCache::new(64);
/// let grid = TileGrid::new(4, 6);
/// let vp = Viewport::headset(Orientation::from_degrees(30.0, 10.0, 0.0));
/// let first = cache.visible_tiles(&vp, &grid, 16);
/// let again = cache.visible_tiles(&vp, &grid, 16); // memo hit
/// assert_eq!(first, again);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct VisibilityCache {
    inner: Option<Arc<Mutex<CacheInner>>>,
}

/// Lock the cache state, surviving a poisoned mutex (a panicking
/// worker must not mask the original failure with a second one).
///
/// Recovering the guard is sound because no update can be cut off
/// half-done: the visibility computation runs before a miss touches
/// the LRU, no [`Lru`] method can panic in the middle of a relink, and
/// a counter bumped before a panic is still a valid count.
fn lock(inner: &Mutex<CacheInner>) -> MutexGuard<'_, CacheInner> {
    inner.lock().unwrap_or_else(|p| p.into_inner())
}

/// Default LRU bound: generously covers a session's working set of
/// distinct (gaze, grid, density) queries.
const DEFAULT_VIS_CACHE_CAPACITY: usize = 256;

impl Default for VisibilityCache {
    fn default() -> Self {
        VisibilityCache::new(DEFAULT_VIS_CACHE_CAPACITY)
    }
}

impl VisibilityCache {
    /// A cache bounded to `capacity` entries (LRU eviction).
    pub fn new(capacity: usize) -> VisibilityCache {
        assert!(
            capacity > 0,
            "capacity must be positive; use disabled() to turn caching off"
        );
        VisibilityCache {
            inner: Some(Arc::new(Mutex::new(CacheInner {
                capacity,
                entries: Lru::new(),
                scratch: VisibilityScratch::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }))),
        }
    }

    /// A no-op handle: every query recomputes and nothing is stored.
    /// Useful as an uncached baseline through the exact same call path.
    pub fn disabled() -> VisibilityCache {
        VisibilityCache { inner: None }
    }

    /// Whether this handle memoizes at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Memoized [`Viewport::visible_tiles`]: bit-identical results, with
    /// repeat queries answered by an `Arc` clone (no recomputation, no
    /// allocation).
    pub fn visible_tiles(
        &self,
        viewport: &Viewport,
        grid: &TileGrid,
        samples: u32,
    ) -> Arc<[(TileId, f64)]> {
        let inner = match &self.inner {
            None => return Arc::from(viewport.visible_tiles(grid, samples)),
            Some(inner) => inner,
        };
        let key = VisKey::new(viewport, grid, samples);
        let mut guard = lock(inner);
        let inner = &mut *guard;
        if let Some(tiles) = inner.entries.touch(&key) {
            let tiles = Arc::clone(tiles);
            inner.hits += 1;
            return tiles;
        }
        inner.misses += 1;
        // Compute before touching the LRU: a panic in here must leave
        // the recency list as it was (see `lock`).
        let mut out = Vec::new();
        viewport.visible_tiles_into(grid, samples, &mut inner.scratch, &mut out);
        let tiles: Arc<[(TileId, f64)]> = Arc::from(out);
        if inner.entries.len() >= inner.capacity && inner.entries.pop_oldest().is_some() {
            inner.evictions += 1;
        }
        inner.entries.insert(key, Arc::clone(&tiles));
        tiles
    }

    /// Memoized [`Viewport::visible_tile_set`]: the visible tile ids at
    /// the default sampling density, sorted by id. Identical to the
    /// uncached method.
    pub fn visible_tile_set(&self, viewport: &Viewport, grid: &TileGrid) -> Vec<TileId> {
        let mut tiles: Vec<TileId> = self
            .visible_tiles(viewport, grid, 16)
            .iter()
            .map(|&(t, _)| t)
            .collect();
        tiles.sort();
        tiles
    }

    /// Current counters and occupancy. A disabled handle reports zeros.
    pub fn stats(&self) -> VisCacheStats {
        match &self.inner {
            None => VisCacheStats::default(),
            Some(inner) => {
                let inner = lock(inner);
                VisCacheStats {
                    hits: inner.hits,
                    misses: inner.misses,
                    evictions: inner.evictions,
                    len: inner.entries.len(),
                    capacity: inner.capacity,
                }
            }
        }
    }

    /// Drop every memoized entry (counters survive).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            lock(inner).entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::Orientation;

    fn vp(yaw: f64, pitch: f64) -> Viewport {
        Viewport::headset(Orientation::from_degrees(yaw, pitch, 0.0))
    }

    #[test]
    fn hit_returns_bit_identical_result() {
        let cache = VisibilityCache::new(8);
        let grid = TileGrid::new(4, 6);
        let v = vp(33.0, -12.0);
        let uncached = v.visible_tiles(&grid, 16);
        let miss = cache.visible_tiles(&v, &grid, 16);
        let hit = cache.visible_tiles(&v, &grid, 16);
        for (a, b) in uncached.iter().zip(miss.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert!(
            Arc::ptr_eq(&miss, &hit),
            "a hit shares the stored allocation"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = VisibilityCache::new(16);
        let grid_a = TileGrid::new(4, 6);
        let grid_b = TileGrid::new(2, 4);
        let v = vp(10.0, 5.0);
        let a = cache.visible_tiles(&v, &grid_a, 16);
        let b = cache.visible_tiles(&v, &grid_b, 16);
        let c = cache.visible_tiles(&v, &grid_a, 12);
        assert_eq!(
            cache.stats().misses,
            3,
            "grid shape and density are part of the key"
        );
        assert_ne!(a.len(), 0);
        assert_ne!(b.len(), 0);
        assert_ne!(c.len(), 0);
    }

    #[test]
    fn lru_evicts_oldest_and_never_changes_results() {
        let cache = VisibilityCache::new(2);
        let grid = TileGrid::new(4, 6);
        let views = [vp(0.0, 0.0), vp(45.0, 10.0), vp(-90.0, -20.0)];
        // Fill (2 misses), touch views[1], then overflow with views[2]:
        // views[0] is the LRU victim.
        cache.visible_tiles(&views[0], &grid, 16);
        cache.visible_tiles(&views[1], &grid, 16);
        cache.visible_tiles(&views[1], &grid, 16);
        cache.visible_tiles(&views[2], &grid, 16);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
        // The evicted query recomputes — to the same bits.
        let recomputed = cache.visible_tiles(&views[0], &grid, 16);
        let fresh = views[0].visible_tiles(&grid, 16);
        for (a, b) in recomputed.iter().zip(&fresh) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn tile_set_matches_uncached() {
        let cache = VisibilityCache::default();
        let grid = TileGrid::new(4, 6);
        for &(y, p) in &[(0.0, 0.0), (120.0, 33.0), (-77.0, -45.0)] {
            let v = vp(y, p);
            assert_eq!(cache.visible_tile_set(&v, &grid), v.visible_tile_set(&grid));
        }
    }

    #[test]
    fn disabled_handle_computes_and_stores_nothing() {
        let cache = VisibilityCache::disabled();
        let grid = TileGrid::new(4, 6);
        let v = vp(20.0, 0.0);
        let a = cache.visible_tiles(&v, &grid, 16);
        let b = cache.visible_tiles(&v, &grid, 16);
        assert!(!cache.is_enabled());
        assert!(!Arc::ptr_eq(&a, &b), "no memoization when disabled");
        assert_eq!(cache.stats(), VisCacheStats::default());
    }

    #[test]
    fn clones_share_one_cache() {
        let cache = VisibilityCache::new(8);
        let clone = cache.clone();
        let grid = TileGrid::new(4, 6);
        clone.visible_tiles(&vp(5.0, 5.0), &grid, 16);
        assert_eq!(cache.stats().misses, 1);
        cache.visible_tiles(&vp(5.0, 5.0), &grid, 16);
        assert_eq!(clone.stats().hits, 1);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        VisibilityCache::new(0);
    }
}
