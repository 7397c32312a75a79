//! A deterministic least-recently-used store with O(1) operations.
//!
//! [`Lru`] keeps its entries in a slab (`Vec`) of nodes threaded on a
//! doubly linked recency list, oldest at the head and newest at the
//! tail, and finds a key's node through an [`FxHashMap`] index. Slots
//! freed by [`Lru::remove`] or [`Lru::pop_oldest`] go on a free list and
//! are reused before the slab grows. [`Lru::touch`], [`Lru::insert`],
//! [`Lru::remove`] and [`Lru::pop_oldest`] each cost one hash lookup and
//! a constant number of link writes.
//!
//! The order is a pure function of the call sequence: every touch or
//! insert moves its entry to the tail, so the head is always the entry
//! whose last touch is oldest. That is exactly the victim a scan for the
//! minimum of a unique, monotone "last used" tick would pick, without
//! the scan. The index is never iterated, so the hasher cannot reach the
//! order.
//!
//! The bound is the caller's: a byte budget, an entry count, or
//! anything else, enforced by calling [`Lru::pop_oldest`] until the
//! next insert fits.
//!
//! Panic safety: the steps that can panic (hashing a key, growing the
//! index or the slab) only run while the recency list is whole, never
//! between the link writes of one relink, and link writes cannot panic.
//! A panic in a `Hash` impl or a capacity overflow can at worst strand
//! one unindexed slot; it never leaves the list half-linked. A caller
//! may therefore keep using an `Lru` recovered from a poisoned lock.

use crate::fxhash::FxHashMap;
use std::hash::Hash;

/// Slot index meaning "none" (end of a list).
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    /// `None` while the slot sits on the free list.
    value: Option<V>,
    /// The next-older entry (towards the head).
    prev: u32,
    /// The next-newer entry (towards the tail), or the next free slot.
    next: u32,
}

/// A least-recently-used map with O(1) touch, insert, remove and
/// evict-oldest; see the [module docs](self).
///
/// ```
/// use sperke_sim::Lru;
///
/// let mut lru = Lru::new();
/// lru.insert("a", 1);
/// lru.insert("b", 2);
/// assert_eq!(lru.touch(&"a"), Some(&1)); // "b" is now the oldest
/// assert_eq!(lru.pop_oldest(), Some(("b", 2)));
/// assert_eq!(lru.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Lru<K, V> {
    index: FxHashMap<K, u32>,
    nodes: Vec<Node<K, V>>,
    /// The least recently used entry.
    head: u32,
    /// The most recently used entry.
    tail: u32,
    /// The first free slot; free slots chain through `next`.
    free: u32,
}

impl<K: Copy + Eq + Hash, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru::new()
    }
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty store; it allocates on the first insert.
    pub fn new() -> Lru<K, V> {
        Lru {
            index: FxHashMap::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Entries resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Is `key` resident? Does not change the recency order.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The value of `key`, which becomes the most recently used entry;
    /// `None` (and no change) when it is not resident.
    pub fn touch(&mut self, key: &K) -> Option<&V> {
        let slot = *self.index.get(key)?;
        if slot != self.tail {
            self.unlink(slot);
            self.link_newest(slot);
        }
        self.nodes[slot as usize].value.as_ref()
    }

    /// Insert `key` as the most recently used entry. A resident `key` is
    /// replaced and its old value returned. Never evicts: the caller
    /// enforces its bound with [`Lru::pop_oldest`].
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let old = self.remove(&key);
        let slot = match self.free {
            NIL => {
                let slot = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("an Lru holds fewer than u32::MAX entries");
                self.nodes.push(Node {
                    key,
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                slot
            }
            slot => {
                let node = &mut self.nodes[slot as usize];
                self.free = node.next;
                node.key = key;
                node.value = Some(value);
                slot
            }
        };
        self.index.insert(key, slot);
        self.link_newest(slot);
        old
    }

    /// Remove `key`, returning its value if it was resident.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.index.remove(key)?;
        self.unlink(slot);
        Some(self.release(slot))
    }

    /// Remove and return the least recently used entry.
    pub fn pop_oldest(&mut self) -> Option<(K, V)> {
        if self.head == NIL {
            return None;
        }
        let slot = self.head;
        let key = self.nodes[slot as usize].key;
        self.index.remove(&key);
        self.unlink(slot);
        Some((key, self.release(slot)))
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// Detach a live slot from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Attach a detached slot at the tail (most recently used).
    fn link_newest(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Move a detached slot to the free list, returning its value.
    fn release(&mut self, slot: u32) -> V {
        let node = &mut self.nodes[slot as usize];
        node.next = self.free;
        self.free = slot;
        node.value.take().expect("a live slot holds a value")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn touch_reorders_and_pop_takes_the_oldest() {
        let mut lru = Lru::new();
        for k in 0..4u32 {
            assert_eq!(lru.insert(k, k * 10), None);
        }
        assert_eq!(lru.touch(&1), Some(&10));
        assert_eq!(lru.touch(&9), None);
        assert_eq!(
            lru.insert(2, 21),
            Some(20),
            "re-insert returns the old value"
        );
        let order: Vec<u32> = std::iter::from_fn(|| lru.pop_oldest().map(|(k, _)| k)).collect();
        assert_eq!(order, vec![0, 3, 1, 2]);
        assert!(lru.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_and_clear_resets() {
        let mut lru = Lru::new();
        lru.insert(1u8, ());
        lru.insert(2u8, ());
        assert_eq!(lru.remove(&1), Some(()));
        assert_eq!(lru.remove(&1), None);
        lru.insert(3u8, ());
        assert_eq!(lru.nodes.len(), 2, "the freed slot was reused");
        lru.clear();
        assert!(lru.is_empty() && !lru.contains(&3));
        assert_eq!(lru.pop_oldest(), None);
        lru.insert(4u8, ());
        assert_eq!(lru.pop_oldest(), Some((4, ())));
    }

    /// The reference model: the minimum-tick scan `TileCache` used
    /// before [`Lru`]. Every touch or insert stamps a fresh, unique
    /// tick; the victim is the minimum.
    struct MinTick<K, V> {
        entries: HashMap<K, (V, u64)>,
        tick: u64,
    }

    /// The operations both eviction policies below need, implemented by
    /// [`Lru`] and by the reference model.
    trait Recency<K, V> {
        fn touch(&mut self, key: &K) -> bool;
        fn insert(&mut self, key: K, value: V);
        fn remove(&mut self, key: &K) -> Option<V>;
        fn pop_oldest(&mut self) -> Option<(K, V)>;
        fn contains(&self, key: &K) -> bool;
        fn len(&self) -> usize;
    }

    impl<K: Copy + Eq + Hash, V> Recency<K, V> for Lru<K, V> {
        fn touch(&mut self, key: &K) -> bool {
            Lru::touch(self, key).is_some()
        }
        fn insert(&mut self, key: K, value: V) {
            Lru::insert(self, key, value);
        }
        fn remove(&mut self, key: &K) -> Option<V> {
            Lru::remove(self, key)
        }
        fn pop_oldest(&mut self) -> Option<(K, V)> {
            Lru::pop_oldest(self)
        }
        fn contains(&self, key: &K) -> bool {
            Lru::contains(self, key)
        }
        fn len(&self) -> usize {
            Lru::len(self)
        }
    }

    impl<K: Copy + Eq + Hash, V> Recency<K, V> for MinTick<K, V> {
        fn touch(&mut self, key: &K) -> bool {
            self.tick += 1;
            match self.entries.get_mut(key) {
                Some(entry) => {
                    entry.1 = self.tick;
                    true
                }
                None => false,
            }
        }
        fn insert(&mut self, key: K, value: V) {
            self.tick += 1;
            self.entries.insert(key, (value, self.tick));
        }
        fn remove(&mut self, key: &K) -> Option<V> {
            self.entries.remove(key).map(|(v, _)| v)
        }
        fn pop_oldest(&mut self) -> Option<(K, V)> {
            // Ticks are unique, so the minimum is unique and the scan
            // order over the map cannot influence the choice.
            let victim = *self.entries.iter().min_by_key(|(_, e)| e.1)?.0;
            self.entries.remove(&victim).map(|(v, _)| (victim, v))
        }
        fn contains(&self, key: &K) -> bool {
            self.entries.contains_key(key)
        }
        fn len(&self) -> usize {
            self.entries.len()
        }
    }

    /// `TileCache`'s policy: a byte budget (0 disables storing), entries
    /// larger than the budget are never stored, and a re-insert drops
    /// the resident copy before evicting for the new size.
    struct ByteBound<R> {
        capacity: u64,
        used: u64,
        list: R,
        /// (hits, misses, evictions, evicted bytes)
        stats: (u64, u64, u64, u64),
    }

    impl<R: Recency<u16, u64>> ByteBound<R> {
        fn lookup(&mut self, key: u16) -> bool {
            let hit = self.list.touch(&key);
            if hit {
                self.stats.0 += 1;
            } else {
                self.stats.1 += 1;
            }
            hit
        }

        fn insert(&mut self, key: u16, bytes: u64) {
            if self.capacity == 0 || bytes > self.capacity {
                return;
            }
            if let Some(old) = self.list.remove(&key) {
                self.used -= old;
            }
            while self.used + bytes > self.capacity {
                let (_, gone) = self.list.pop_oldest().expect("over budget, so non-empty");
                self.used -= gone;
                self.stats.2 += 1;
                self.stats.3 += gone;
            }
            self.list.insert(key, bytes);
            self.used += bytes;
        }
    }

    /// An entry-count bound: a query touches on a hit and on a miss
    /// evicts the oldest once full, then inserts.
    struct CountBound<R> {
        capacity: usize,
        list: R,
        /// (hits, misses, evictions)
        stats: (u64, u64, u64),
    }

    impl<R: Recency<u16, u64>> CountBound<R> {
        fn query(&mut self, key: u16) -> bool {
            if self.list.touch(&key) {
                self.stats.0 += 1;
                return true;
            }
            self.stats.1 += 1;
            if self.list.len() >= self.capacity && self.list.pop_oldest().is_some() {
                self.stats.2 += 1;
            }
            self.list.insert(key, u64::from(key));
            false
        }
    }

    /// Keys 0..KEYS; sizes 1..=130 so entries above a 100-byte budget
    /// occur. Byte budgets are 0–3 hundred bytes: disabled, or 1–3
    /// typical entries.
    const KEYS: u16 = 10;

    proptest! {
        /// Under `TileCache`'s byte bound, the [`Lru`] and the min-tick
        /// reference agree after every touch, insert and re-insert.
        #[test]
        fn byte_bound_lru_matches_min_tick_reference(
            budget in 0u64..4,
            ops in proptest::collection::vec((0u8..3, 0u16..KEYS, 1u64..131), 1..300),
        ) {
            let capacity = budget * 100;
            let mut lru = ByteBound { capacity, used: 0, list: Lru::new(), stats: (0, 0, 0, 0) };
            let mut reference = ByteBound {
                capacity,
                used: 0,
                list: MinTick { entries: HashMap::new(), tick: 0 },
                stats: (0, 0, 0, 0),
            };
            let mut peak = 0;
            for &(op, key, bytes) in &ops {
                match op {
                    // A lookup alone.
                    0 => prop_assert_eq!(lru.lookup(key), reference.lookup(key)),
                    // An insert: a fresh key, or a resident key at a new size.
                    1 => {
                        lru.insert(key, bytes);
                        reference.insert(key, bytes);
                    }
                    // The edge's demand path: look up, insert on a miss.
                    _ => {
                        let hit = lru.lookup(key);
                        prop_assert_eq!(hit, reference.lookup(key));
                        if !hit {
                            lru.insert(key, bytes);
                            reference.insert(key, bytes);
                        }
                    }
                }
                prop_assert_eq!(lru.stats, reference.stats);
                prop_assert_eq!(lru.used, reference.used);
                prop_assert_eq!(lru.list.len(), reference.list.len());
                prop_assert!(lru.used <= capacity);
                for k in 0..KEYS {
                    prop_assert_eq!(lru.list.contains(&k), reference.list.contains(&k), "key {}", k);
                }
                peak = peak.max(lru.list.len());
                prop_assert!(lru.list.nodes.len() <= peak, "slab outgrew peak residency");
            }
        }

        /// Under an entry-count bound (1–3 entries), the [`Lru`] and the
        /// min-tick reference agree after every query.
        #[test]
        fn count_bound_lru_matches_min_tick_reference(
            capacity in 1usize..4,
            keys in proptest::collection::vec(0u16..KEYS, 1..300),
        ) {
            let mut lru = CountBound { capacity, list: Lru::new(), stats: (0, 0, 0) };
            let mut reference = CountBound {
                capacity,
                list: MinTick { entries: HashMap::new(), tick: 0 },
                stats: (0, 0, 0),
            };
            let mut peak = 0;
            for &key in &keys {
                prop_assert_eq!(lru.query(key), reference.query(key));
                prop_assert_eq!(lru.stats, reference.stats);
                prop_assert_eq!(lru.list.len(), reference.list.len());
                prop_assert!(lru.list.len() <= capacity);
                for k in 0..KEYS {
                    prop_assert_eq!(lru.list.contains(&k), reference.list.contains(&k), "key {}", k);
                }
                peak = peak.max(lru.list.len());
                prop_assert!(lru.list.nodes.len() <= peak, "slab outgrew peak residency");
            }
        }
    }
}
