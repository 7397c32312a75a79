//! Incremental chunk upgrade decisions (§3.1.1 + §3.1.2 part three).
//!
//! "An updated scheduling may trigger chunks' incremental update (i.e.,
//! fetching enhancement layers). Two decisions need to be carefully
//! made: (1) **upgrade or not**: upgrading improves the quality while
//! not upgrading saves bandwidth for fetching future chunks; (2) **when
//! to upgrade**: upgrading too early may lead to extra bandwidth waste
//! since the HMP may possibly change again in the near future, while
//! upgrading too late may miss the playback deadline."

use serde::{Deserialize, Serialize};
use sperke_sim::{SimDuration, SimTime};
use sperke_video::{CellId, CellSizes, Quality, Scheme};

/// Only upgrade cells whose on-screen probability is at least this.
const MIN_PROBABILITY: f64 = 0.5;
/// Safety factor on the estimated fetch time vs the remaining time
/// (1.3 = require 30 % slack).
const DEADLINE_SAFETY: f64 = 1.3;
/// Defer the upgrade until this close to the deadline (as a multiple of
/// the estimated fetch time) — the "when to upgrade" half: late enough
/// that the HMP has settled, early enough to make it.
const URGENCY_FACTOR: f64 = 2.0;

/// The verdict for one candidate upgrade.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UpgradeDecision {
    /// Fetch the delta now.
    UpgradeNow {
        /// Bytes of the enhancement layers to fetch.
        delta_bytes: u64,
    },
    /// Worth upgrading, but not yet — re-evaluate at the given time.
    Defer {
        /// When to look again.
        revisit_at: SimTime,
    },
    /// Don't upgrade (probability too low, or it can no longer make the
    /// deadline).
    Skip,
}

/// A candidate: a cell already in the buffer at `have`, which the
/// current plan would like at `want`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpgradeCandidate {
    /// The cell (tile × chunk time).
    pub cell: CellId,
    /// Quality already buffered.
    pub have: Quality,
    /// Quality the plan wants.
    pub want: Quality,
    /// Forecast on-screen probability of the cell.
    pub probability: f64,
    /// The cell's playback deadline.
    pub deadline: SimTime,
}

/// Decide whether/when to upgrade one cell.
///
/// `scheme` must be the SVC-capable scheme for deltas to be meaningful;
/// with [`Scheme::Avc`] the "delta" is the full re-download, which this
/// logic prices accordingly (making upgrades rarer — exactly the
/// mismatch the paper pinpoints).
pub fn decide_upgrade(
    candidate: &UpgradeCandidate,
    sizes: &CellSizes<'_>,
    scheme: Scheme,
    now: SimTime,
    bandwidth_bps: f64,
) -> UpgradeDecision {
    if candidate.want <= candidate.have || candidate.probability < MIN_PROBABILITY {
        return UpgradeDecision::Skip;
    }
    if bandwidth_bps <= 0.0 {
        return UpgradeDecision::Skip;
    }
    let delta_bytes = sizes.upgrade_cost(scheme, candidate.have, candidate.want);
    let fetch_secs = delta_bytes as f64 * 8.0 / bandwidth_bps;
    let remaining = candidate.deadline.saturating_since(now).as_secs_f64();

    if fetch_secs * DEADLINE_SAFETY > remaining {
        // Too late to make it at the wanted level. Try a partial upgrade
        // one level up, otherwise give up.
        let mut want = candidate.want.down();
        while want > candidate.have {
            let bytes = sizes.upgrade_cost(scheme, candidate.have, want);
            if (bytes as f64 * 8.0 / bandwidth_bps) * DEADLINE_SAFETY <= remaining {
                return UpgradeDecision::UpgradeNow { delta_bytes: bytes };
            }
            want = want.down();
        }
        return UpgradeDecision::Skip;
    }

    // Not urgent yet? Defer to let the HMP settle ("upgrading too early
    // may lead to extra bandwidth waste").
    let urgent_window = fetch_secs * URGENCY_FACTOR.max(1.0);
    if remaining > urgent_window {
        let revisit_at = candidate.deadline - SimDuration::from_secs_f64(urgent_window);
        // High-confidence cells skip the wait: the HMP has settled.
        if candidate.probability < 0.95 {
            return UpgradeDecision::Defer { revisit_at };
        }
    }
    UpgradeDecision::UpgradeNow { delta_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::TileId;
    use sperke_video::ChunkTime;

    fn sizes() -> CellSizes<'static> {
        CellSizes::new(&[100_000, 250_000, 600_000, 1_400_000], 0.10)
    }

    fn candidate(prob: f64, deadline_s: f64) -> UpgradeCandidate {
        UpgradeCandidate {
            cell: CellId::new(TileId(3), ChunkTime(5)),
            have: Quality(0),
            want: Quality(2),
            probability: prob,
            deadline: SimTime::from_secs_f64(deadline_s),
        }
    }

    const BW: f64 = 10e6; // 10 Mbps

    #[test]
    fn low_probability_skips() {
        let d = decide_upgrade(
            &candidate(0.2, 5.0),
            &sizes(),
            Scheme::svc_default(),
            SimTime::ZERO,
            BW,
        );
        assert_eq!(d, UpgradeDecision::Skip);
    }

    #[test]
    fn confident_upgrade_with_time_defers() {
        // Plenty of time and 0.7 probability: wait for the HMP to settle.
        let d = decide_upgrade(
            &candidate(0.7, 10.0),
            &sizes(),
            Scheme::svc_default(),
            SimTime::ZERO,
            BW,
        );
        match d {
            UpgradeDecision::Defer { revisit_at } => {
                assert!(revisit_at > SimTime::ZERO && revisit_at < SimTime::from_secs(10));
            }
            other => panic!("expected Defer, got {other:?}"),
        }
    }

    #[test]
    fn near_certain_upgrade_goes_now() {
        let d = decide_upgrade(
            &candidate(0.99, 10.0),
            &sizes(),
            Scheme::svc_default(),
            SimTime::ZERO,
            BW,
        );
        match d {
            UpgradeDecision::UpgradeNow { delta_bytes } => {
                // SVC delta Q0->Q2: 660000 - 110000 = 550000.
                assert_eq!(delta_bytes, 550_000);
            }
            other => panic!("expected UpgradeNow, got {other:?}"),
        }
    }

    #[test]
    fn imminent_deadline_upgrades_now() {
        // ~0.44s of fetch, urgency window 0.88s, 0.8s remaining: must go now.
        let d = decide_upgrade(
            &candidate(0.8, 0.8),
            &sizes(),
            Scheme::svc_default(),
            SimTime::ZERO,
            BW,
        );
        assert!(matches!(d, UpgradeDecision::UpgradeNow { .. }), "{d:?}");
    }

    #[test]
    fn hopeless_deadline_downgrades_the_ask() {
        // 0.08 s remaining: full Q0->Q2 delta (0.44 s) can't make it,
        // but Q0->Q1 (165 kB ≈ 0.13 s) can't either. Skip.
        let d = decide_upgrade(
            &candidate(0.9, 0.08),
            &sizes(),
            Scheme::svc_default(),
            SimTime::ZERO,
            BW,
        );
        assert_eq!(d, UpgradeDecision::Skip);
        // With 0.3s remaining, the partial Q0->Q1 upgrade fits.
        let d = decide_upgrade(
            &candidate(0.9, 0.3),
            &sizes(),
            Scheme::svc_default(),
            SimTime::ZERO,
            BW,
        );
        match d {
            UpgradeDecision::UpgradeNow { delta_bytes } => {
                assert_eq!(delta_bytes, 275_000 - 110_000, "one layer only");
            }
            other => panic!("expected partial upgrade, got {other:?}"),
        }
    }

    #[test]
    fn avc_upgrade_costs_more_than_svc() {
        let c = candidate(0.99, 10.0);
        let svc = decide_upgrade(&c, &sizes(), Scheme::svc_default(), SimTime::ZERO, BW);
        let avc = decide_upgrade(&c, &sizes(), Scheme::Avc, SimTime::ZERO, BW);
        let (
            UpgradeDecision::UpgradeNow { delta_bytes: s },
            UpgradeDecision::UpgradeNow { delta_bytes: a },
        ) = (svc, avc)
        else {
            panic!("expected both to upgrade: {svc:?} {avc:?}");
        };
        assert!(a > s, "AVC re-download {a} vs SVC delta {s}");
    }

    #[test]
    fn non_upgrade_requests_skip() {
        let mut c = candidate(0.9, 5.0);
        c.want = Quality(0);
        assert_eq!(
            decide_upgrade(&c, &sizes(), Scheme::svc_default(), SimTime::ZERO, BW),
            UpgradeDecision::Skip
        );
    }

    #[test]
    fn zero_bandwidth_skips() {
        assert_eq!(
            decide_upgrade(
                &candidate(0.9, 5.0),
                &sizes(),
                Scheme::svc_default(),
                SimTime::ZERO,
                0.0
            ),
            UpgradeDecision::Skip
        );
    }
}
