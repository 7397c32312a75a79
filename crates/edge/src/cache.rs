//! The edge's shared tile-chunk cache.
//!
//! One bounded store keyed by `(chunk, tile, layer)` — the unit a
//! viewport-class delivery system actually reuses across viewers. A hit
//! costs the edge nothing upstream; a miss pulls the layer over the
//! origin backhaul exactly once, however many clients are waiting on it.
//!
//! Eviction is least-recently-used over a [`sperke_sim::Lru`]: entries
//! sit on a recency list, a lookup hit or an insert moves its entry to
//! the newest end, and an insert that would overflow the byte budget
//! evicts from the oldest end until it fits. Lookup, insert and each
//! eviction cost O(1), whatever the cache holds. The list head is
//! exactly the entry a scan for the minimum of a unique, monotone
//! last-used tick would pick, so the eviction schedule is the same pure
//! function of the access sequence that such a scan gives.

use serde::{Deserialize, Serialize};
use sperke_sim::Lru;

/// Identity of one cacheable unit: a tile's SVC layer for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Chunk time index.
    pub chunk: u32,
    /// Tile index.
    pub tile: u16,
    /// SVC layer (0 = base).
    pub layer: u8,
}

/// Running cache counters. Byte fields balance exactly against origin
/// traffic: every miss and every prefetch moves its bytes over the
/// backhaul once, every hit moves none (see `tests/edge.rs` proptests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileCacheStats {
    /// Lookups answered from the cache (resident or already in flight).
    pub hits: u64,
    /// Lookups that triggered an origin fetch.
    pub misses: u64,
    /// Bytes served without touching the origin.
    pub hit_bytes: u64,
    /// Bytes pulled from the origin on demand.
    pub miss_bytes: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Bytes evicted by the LRU bound.
    pub evicted_bytes: u64,
    /// Entries inserted by the crowd prefetcher.
    pub prefetches: u64,
    /// Bytes pulled from the origin by the crowd prefetcher.
    pub prefetch_bytes: u64,
}

/// A bounded, deterministic LRU over tile-chunk layers, sized in bytes.
///
/// A capacity of `0` disables caching entirely: every lookup misses and
/// nothing is ever stored — the no-cache baseline an edge is compared
/// against.
#[derive(Debug, Clone)]
pub struct TileCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// Resident entries and their sizes in bytes, in recency order.
    entries: Lru<CacheKey, u64>,
    stats: TileCacheStats,
}

impl TileCache {
    /// A cache bounded to `capacity_bytes` (0 disables caching).
    pub fn new(capacity_bytes: u64) -> TileCache {
        TileCache {
            capacity_bytes,
            used_bytes: 0,
            entries: Lru::new(),
            stats: TileCacheStats::default(),
        }
    }

    /// True when the capacity is zero (the no-cache baseline).
    pub fn is_disabled(&self) -> bool {
        self.capacity_bytes == 0
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running counters.
    pub fn stats(&self) -> TileCacheStats {
        self.stats
    }

    /// Is `key` resident? Touches (refreshes) the entry on success and
    /// records a hit of `bytes`; records a miss otherwise. The caller
    /// decides what a miss means (origin fetch, coalesced wait, ...).
    pub fn lookup(&mut self, key: CacheKey, bytes: u64) -> bool {
        let hit = self.entries.touch(&key).is_some();
        if hit {
            self.stats.hits += 1;
            self.stats.hit_bytes += bytes;
        } else {
            self.stats.misses += 1;
            self.stats.miss_bytes += bytes;
        }
        hit
    }

    /// Record a hit that never consults residency — a lookup coalesced
    /// onto an origin fetch already in flight. The bytes are served from
    /// the shared fetch, so upstream they cost nothing extra.
    pub fn record_coalesced_hit(&mut self, bytes: u64) {
        self.stats.hits += 1;
        self.stats.hit_bytes += bytes;
    }

    /// Record a prefetch insertion decision (bytes will cross the
    /// backhaul once for it).
    pub fn record_prefetch(&mut self, bytes: u64) {
        self.stats.prefetches += 1;
        self.stats.prefetch_bytes += bytes;
    }

    /// Insert `key` as the most recently used entry (no-op when
    /// disabled, or when the layer alone exceeds the whole capacity). A
    /// resident copy of `key` is dropped first, then least-recently-used
    /// entries are evicted until the new entry fits.
    pub fn insert(&mut self, key: CacheKey, bytes: u64) {
        if self.is_disabled() || bytes > self.capacity_bytes {
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.used_bytes -= old;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let (_, gone) = self
                .entries
                .pop_oldest()
                .expect("over-budget cache is non-empty");
            self.used_bytes -= gone;
            self.stats.evictions += 1;
            self.stats.evicted_bytes += gone;
        }
        self.entries.insert(key, bytes);
        self.used_bytes += bytes;
    }

    /// Is `key` resident, without touching LRU state or counters?
    pub fn contains(&self, key: CacheKey) -> bool {
        self.entries.contains(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(chunk: u32, tile: u16, layer: u8) -> CacheKey {
        CacheKey { chunk, tile, layer }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = TileCache::new(1000);
        assert!(!c.lookup(key(0, 1, 0), 100));
        c.insert(key(0, 1, 0), 100);
        assert!(c.lookup(key(0, 1, 0), 100));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.hit_bytes, s.miss_bytes), (100, 100));
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = TileCache::new(300);
        c.insert(key(0, 0, 0), 100);
        c.insert(key(0, 1, 0), 100);
        c.insert(key(0, 2, 0), 100);
        // Touch tile 0 so tile 1 is now the LRU victim.
        assert!(c.lookup(key(0, 0, 0), 100));
        c.insert(key(0, 3, 0), 100);
        assert!(c.contains(key(0, 0, 0)));
        assert!(!c.contains(key(0, 1, 0)), "LRU victim evicted");
        assert!(c.contains(key(0, 2, 0)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().evicted_bytes, 100);
        assert_eq!(c.used_bytes, 300);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c = TileCache::new(0);
        assert!(c.is_disabled());
        c.insert(key(0, 0, 0), 10);
        assert!(c.is_empty());
        assert!(!c.lookup(key(0, 0, 0), 10));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let mut c = TileCache::new(50);
        c.insert(key(0, 0, 0), 51);
        assert!(c.is_empty());
        c.insert(key(0, 1, 0), 50);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_replaces_without_double_count() {
        let mut c = TileCache::new(500);
        c.insert(key(1, 2, 0), 200);
        c.insert(key(1, 2, 0), 300);
        assert_eq!(c.used_bytes, 300);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_schedule_is_deterministic() {
        // Same access sequence twice: identical stats and residency.
        let run = || {
            let mut c = TileCache::new(350);
            for i in 0..40u32 {
                let k = key(i % 7, (i % 5) as u16, (i % 2) as u8);
                if !c.lookup(k, 60 + (i as u64 % 3) * 10) {
                    c.insert(k, 60 + (i as u64 % 3) * 10);
                }
            }
            (c.stats(), c.used_bytes, c.len())
        };
        assert_eq!(run(), run());
    }
}
