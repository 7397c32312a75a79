//! The decoded-frame cache (§3.5): "a decoded chunk cache (implemented
//! using OpenGL ES Framebuffer Objects) that stores uncompressed video
//! chunks in the video memory. Doing so allows decoders to work
//! asynchronously, leading to a higher frame rate. More importantly,
//! when a previous HMP is inaccurate, the cache allows a FoV to be
//! quickly shifted by only changing the 'delta' tiles without
//! re-decoding the entire FoV."

use serde::{Deserialize, Serialize};
use sperke_geo::TileId;
use std::collections::HashMap;

/// Key of a cached decoded tile frame: (source frame index, tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FrameKey {
    /// Source video frame index.
    pub frame: u64,
    /// Tile.
    pub tile: TileId,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found the decoded frame resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0,1]`; 0 when never queried.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A capacity-bounded decoded-frame cache with FIFO-by-insertion
/// eviction (decoded video frames age out in decode order, matching the
/// prototype's ring of FBOs). Capacity 0 disables caching entirely —
/// the "without optimization" configuration of Figure 5.
#[derive(Debug, Clone)]
pub struct DecodedFrameCache {
    capacity: usize,
    /// Insertion-ordered keys (front = oldest).
    order: std::collections::VecDeque<FrameKey>,
    resident: HashMap<FrameKey, ()>,
    stats: CacheStats,
}

impl DecodedFrameCache {
    /// Create a cache holding at most `capacity` decoded tile frames.
    pub fn new(capacity: usize) -> DecodedFrameCache {
        DecodedFrameCache {
            capacity,
            order: std::collections::VecDeque::new(),
            resident: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a decoded frame is resident (records hit/miss).
    pub fn lookup(&mut self, key: FrameKey) -> bool {
        if self.resident.contains_key(&key) {
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Whether a decoded frame is resident, without touching stats.
    pub fn contains(&self, key: FrameKey) -> bool {
        self.resident.contains_key(&key)
    }

    /// Insert a decoded frame, evicting the oldest entries if needed.
    /// No-op when capacity is 0.
    pub fn insert(&mut self, key: FrameKey) {
        if self.capacity == 0 || self.resident.contains_key(&key) {
            return;
        }
        while self.resident.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.resident.remove(&old);
                self.stats.evictions += 1;
            } else {
                break;
            }
        }
        self.order.push_back(key);
        self.resident.insert(key, ());
    }

    /// Drop all frames older than `frame` (already displayed).
    pub fn evict_before(&mut self, frame: u64) {
        while let Some(&front) = self.order.front() {
            if front.frame >= frame {
                break;
            }
            self.order.pop_front();
            self.resident.remove(&front);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident frames.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(frame: u64, tile: u16) -> FrameKey {
        FrameKey {
            frame,
            tile: TileId(tile),
        }
    }

    #[test]
    fn lookup_tracks_hits_and_misses() {
        let mut c = DecodedFrameCache::new(4);
        assert!(!c.lookup(key(0, 0)));
        c.insert(key(0, 0));
        assert!(c.lookup(key(0, 0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = DecodedFrameCache::new(0);
        c.insert(key(0, 0));
        assert!(!c.lookup(key(0, 0)));
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_is_fifo() {
        let mut c = DecodedFrameCache::new(2);
        c.insert(key(0, 0));
        c.insert(key(0, 1));
        c.insert(key(0, 2)); // evicts (0,0)
        assert!(!c.contains(key(0, 0)));
        assert!(c.contains(key(0, 1)));
        assert!(c.contains(key(0, 2)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut c = DecodedFrameCache::new(2);
        c.insert(key(1, 1));
        c.insert(key(1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evict_before_drops_old_frames() {
        let mut c = DecodedFrameCache::new(10);
        c.insert(key(0, 0));
        c.insert(key(1, 0));
        c.insert(key(2, 0));
        c.evict_before(2);
        assert_eq!(c.len(), 1);
        assert!(!c.contains(key(0, 0)));
        assert!(!c.contains(key(1, 0)));
        assert!(c.contains(key(2, 0)));
    }

    #[test]
    fn empty_stats_hit_rate_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
