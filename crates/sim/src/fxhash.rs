//! The one fast hasher for simulation-internal maps.
//!
//! The default `HashMap` hasher is SipHash with a per-process random
//! key: hardened against keys crafted to collide, and slow for the
//! small integer keys the hot paths use (visibility-memo keys,
//! tile-cache keys, egress stream ids, tile-chunk cells). Every key
//! here is trusted simulation state the program derived itself, never
//! input from outside it, so that hardening buys nothing; keep the
//! default hasher for anything that is.
//!
//! The hasher is deterministic, but nothing may depend on it: maps
//! keyed this way are looked up, updated and drained into sums, and
//! never iterated into anything the trace or a report can see.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An FxHash-style multiply-rotate [`Hasher`] for trusted simulation
/// keys only (see the [module docs](self)). Not DoS-resistant: a map
/// keyed by outside input must keep the default hasher.
#[derive(Debug, Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n as u64);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x517c_c1b7_2722_0a95)
            .rotate_left(5);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`FxHasher`]; build with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
