//! Encoding size models: conventional AVC versions vs layered SVC
//! (Figure 3), including the delta-fetch semantics of incremental chunk
//! upgrading (§3.1.1).
//!
//! We model *bytes*, not pixels: all of the paper's rate-adaptation and
//! upgrade decisions depend only on how many bytes each representation
//! costs and what is reusable when a quality changes.

use crate::ids::{Layer, Quality};
use serde::{Deserialize, Serialize};

/// How a chunk is encoded on the server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Conventional single-layer encoding (H.264/AVC-style): each quality
    /// is an independent bitstream; switching quality re-downloads.
    Avc,
    /// Scalable encoding (H.264 SVC-style): one base layer plus
    /// enhancement layers; upgrading fetches only the delta, at the cost
    /// of `overhead` extra bytes relative to AVC at the same quality.
    Svc {
        /// Relative size overhead vs AVC at equal quality, e.g. `0.1` =
        /// 10 %. SVC deployments typically measure 10–30 %.
        overhead: f64,
    },
}

impl Scheme {
    /// An SVC scheme with the commonly cited 10 % overhead.
    pub fn svc_default() -> Scheme {
        Scheme::Svc { overhead: 0.10 }
    }
}

/// Size calculator for one cell (tile × chunk-time), a borrowed view of
/// the AVC byte sizes of each quality level for that cell.
///
/// Invariants: AVC sizes are strictly increasing in quality; SVC layer
/// sizes are positive; the sum of SVC layers `0..=q` equals the AVC size
/// at `q` scaled by `1 + overhead`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSizes<'a> {
    avc_bytes: &'a [u64],
    overhead: f64,
}

impl<'a> CellSizes<'a> {
    /// Build from per-quality AVC sizes (lowest first) and the SVC
    /// overhead factor. Panics if sizes are not strictly increasing.
    pub fn new(avc_bytes: &'a [u64], overhead: f64) -> CellSizes<'a> {
        assert!(!avc_bytes.is_empty(), "need at least one quality");
        assert!(overhead >= 0.0, "negative SVC overhead");
        for w in avc_bytes.windows(2) {
            assert!(w[1] > w[0], "AVC sizes must be strictly increasing");
        }
        CellSizes::unchecked(avc_bytes, overhead)
    }

    /// A view of a row the caller built to [`new`](Self::new)'s
    /// invariants (the video's size table), without re-checking them.
    pub(crate) fn unchecked(avc_bytes: &'a [u64], overhead: f64) -> CellSizes<'a> {
        debug_assert!(!avc_bytes.is_empty() && avc_bytes.windows(2).all(|w| w[1] > w[0]));
        CellSizes {
            avc_bytes,
            overhead,
        }
    }

    /// Number of quality levels.
    pub fn levels(&self) -> usize {
        self.avc_bytes.len()
    }

    /// Bytes of the standalone AVC representation at quality `q`.
    pub fn avc(&self, q: Quality) -> u64 {
        self.avc_bytes[q.index()]
    }

    /// Cumulative SVC bytes to play quality `q` (base + all enhancement
    /// layers through `q`), including the SVC overhead.
    pub fn svc_cumulative(&self, q: Quality) -> u64 {
        (self.avc(q) as f64 * (1.0 + self.overhead)).round() as u64
    }

    /// Bytes of a single SVC layer.
    pub fn svc_layer(&self, layer: Layer) -> u64 {
        let q = layer.quality();
        if q == Quality::LOWEST {
            self.svc_cumulative(q)
        } else {
            self.svc_cumulative(q) - self.svc_cumulative(q.down())
        }
    }

    /// Bytes needed to first display this cell at quality `q` under `scheme`.
    ///
    /// SVC sizes always use this cell's own overhead (for a cell from
    /// [`VideoModel::cell_sizes`](crate::VideoModel::cell_sizes), the
    /// video's `svc_overhead`); the `overhead` carried by a
    /// [`Scheme::Svc`] argument only selects the scheme and is ignored.
    pub fn initial_cost(&self, scheme: Scheme, q: Quality) -> u64 {
        match scheme {
            Scheme::Avc => self.avc(q),
            Scheme::Svc { .. } => self.svc_cumulative(q),
        }
    }

    /// Bytes needed to *upgrade* this cell from `have` to `want > have`.
    ///
    /// Under AVC the previously fetched bytes are useless and the full
    /// `want` representation is re-downloaded; under SVC only the missing
    /// enhancement layers are fetched — the paper's incremental chunk
    /// upgrade (§3.1.1).
    pub fn upgrade_cost(&self, scheme: Scheme, have: Quality, want: Quality) -> u64 {
        assert!(want > have, "upgrade must increase quality");
        match scheme {
            Scheme::Avc => self.avc(want),
            Scheme::Svc { .. } => self.svc_cumulative(want) - self.svc_cumulative(have),
        }
    }

    /// Bytes *wasted* by an upgrade: bytes fetched earlier that are
    /// discarded. Zero under SVC; the already-fetched representation
    /// under AVC.
    pub fn wasted_on_upgrade(&self, scheme: Scheme, have: Quality, want: Quality) -> u64 {
        assert!(want > have);
        match scheme {
            Scheme::Avc => self.avc(have),
            Scheme::Svc { .. } => 0,
        }
    }

    /// The SVC overhead factor.
    pub fn overhead(&self) -> f64 {
        self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellSizes<'static> {
        CellSizes::new(&[100, 250, 600, 1400], 0.10)
    }

    #[test]
    fn svc_cumulative_is_avc_plus_overhead() {
        let c = cell();
        assert_eq!(c.svc_cumulative(Quality(0)), 110);
        assert_eq!(c.svc_cumulative(Quality(3)), 1540);
    }

    #[test]
    fn layers_sum_to_cumulative() {
        let c = cell();
        let sum: u64 = (0..4).map(|i| c.svc_layer(Layer(i))).sum();
        assert_eq!(sum, c.svc_cumulative(Quality(3)));
    }

    #[test]
    fn layer_sizes_are_positive() {
        let c = cell();
        for i in 0..4 {
            assert!(c.svc_layer(Layer(i)) > 0);
        }
    }

    #[test]
    fn avc_upgrade_rebuys_svc_fetches_delta() {
        let c = cell();
        // Have Q1, want Q3.
        let avc = c.upgrade_cost(Scheme::Avc, Quality(1), Quality(3));
        let svc = c.upgrade_cost(Scheme::svc_default(), Quality(1), Quality(3));
        assert_eq!(avc, 1400, "full re-download");
        assert_eq!(svc, 1540 - 275, "layers 2 and 3 only");
        assert!(svc < avc, "the whole point of §3.1.1");
    }

    #[test]
    fn waste_is_zero_under_svc() {
        let c = cell();
        assert_eq!(
            c.wasted_on_upgrade(Scheme::Avc, Quality(1), Quality(2)),
            250
        );
        assert_eq!(
            c.wasted_on_upgrade(Scheme::svc_default(), Quality(1), Quality(2)),
            0
        );
    }

    #[test]
    fn initial_cost_reflects_overhead() {
        let c = cell();
        assert_eq!(c.initial_cost(Scheme::Avc, Quality(2)), 600);
        assert_eq!(c.initial_cost(Scheme::svc_default(), Quality(2)), 660);
    }

    #[test]
    fn svc_with_high_overhead_can_lose_on_initial_fetch() {
        // This is the trade-off motivating the hybrid SVC/AVC scheme
        // (§3.1.2 last paragraph): SVC pays overhead even when no
        // upgrade ever happens.
        let c = CellSizes::new(&[100, 300], 0.30);
        assert!(c.initial_cost(Scheme::Svc { overhead: 0.30 }, Quality(1)) > c.avc(Quality(1)));
    }

    #[test]
    #[should_panic]
    fn upgrade_must_go_up() {
        cell().upgrade_cost(Scheme::Avc, Quality(2), Quality(2));
    }

    #[test]
    #[should_panic]
    fn rejects_non_monotone_sizes() {
        CellSizes::new(&[100, 90], 0.1);
    }
}
