//! Baseline adaptive-bitrate algorithms, specialized to super chunks.
//!
//! §3.1.2 surveys the VRA families a 360° system could customize:
//! throughput-based (FESTIVE \[29\]), buffer-based (BBA \[28\]) and
//! control-theoretic (MPC \[44\]). Each is implemented over the abstract
//! [`AbrContext`] so the same algorithms drive super chunks in the
//! player and full panoramas in the FoV-agnostic baseline.

use serde::{Deserialize, Serialize};
use sperke_sim::SimDuration;
use sperke_video::{Ladder, Quality};

/// Everything an ABR algorithm may look at when choosing a quality.
#[derive(Debug, Clone)]
pub struct AbrContext<'a> {
    /// The bitrate ladder.
    pub ladder: &'a Ladder,
    /// Bitrate (bits/second) of the fetch unit at each quality level —
    /// for super chunks this accounts for how many tiles are in view.
    pub unit_bitrate: Vec<f64>,
    /// Current playback buffer level.
    pub buffer: SimDuration,
    /// Conservative bandwidth estimate, bits/second (`None` on startup).
    pub bandwidth_bps: Option<f64>,
    /// Measured bottleneck-bandwidth estimate from the transport's BBR
    /// probe (bits/second), when capacity probing is on. Takes
    /// precedence over the declared `bandwidth_bps` for the
    /// control-theoretic policies; `None` (probing off) preserves the
    /// declared-capacity behaviour bit-for-bit.
    pub measured_bps: Option<f64>,
    /// Bandwidth forecast for the next chunks (MPC lookahead); falls
    /// back to `bandwidth_bps` when empty.
    pub bandwidth_forecast: Vec<f64>,
    /// Quality of the previously fetched unit.
    pub last_quality: Quality,
    /// Chunk duration.
    pub chunk_duration: SimDuration,
}

impl AbrContext<'_> {
    /// The unit's bitrate at quality `q`.
    pub fn rate(&self, q: Quality) -> f64 {
        self.unit_bitrate[q.index()]
    }

    /// The capacity signal the lookahead policies plan against: the
    /// measured BBR estimate when the probe is live, else the declared
    /// estimate. `None` only before any estimate exists.
    fn planning_bps(&self) -> Option<f64> {
        self.measured_bps.or(self.bandwidth_bps)
    }

    /// Highest quality whose unit bitrate is at most `budget`.
    fn highest_within(&self, budget: f64) -> Quality {
        let mut best = Quality::LOWEST;
        for q in self.ladder.qualities() {
            if self.rate(q) <= budget {
                best = q;
            }
        }
        best
    }
}

/// An adaptive-bitrate policy.
pub trait Abr {
    /// Choose the quality of the next fetch unit.
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Quality;
}

/// A fixed-quality "ABR" for controlled experiments (e.g. measuring
/// bandwidth at matched quality, experiment E4). Clamped to the ladder.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FixedQuality(pub Quality);

impl Abr for FixedQuality {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Quality {
        if ctx.ladder.contains(self.0) {
            self.0
        } else {
            ctx.ladder.top()
        }
    }
}

/// Throughput-based ABR in the FESTIVE style: harmonic-mean estimate
/// (supplied by the caller), a safety margin, and switch damping (only
/// step up after `patience` consecutive opportunities, never jump more
/// than one level at a time).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateBased {
    /// Fraction of the estimate considered spendable.
    pub safety: f64,
    /// Consecutive up-opportunities required before stepping up.
    pub patience: u32,
    up_streak: u32,
}

impl Default for RateBased {
    fn default() -> Self {
        RateBased {
            safety: 0.85,
            patience: 2,
            up_streak: 0,
        }
    }
}

impl Abr for RateBased {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Quality {
        let Some(bw) = ctx.bandwidth_bps else {
            return Quality::LOWEST; // cautious start
        };
        let affordable = ctx.highest_within(bw * self.safety);
        let last = ctx.last_quality;
        if affordable > last {
            self.up_streak += 1;
            if self.up_streak >= self.patience {
                self.up_streak = 0;
                last.up()
            } else {
                last
            }
        } else {
            self.up_streak = 0;
            affordable
        }
    }
}

/// Buffer-based ABR in the BBA style: a linear map from buffer occupancy
/// to quality between a reservoir and a cushion. §3.1.2 warns this may
/// interact poorly with FoV-guided streaming because the HMP window
/// limits achievable buffer depth — visible in experiment E10.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BufferBased {
    /// Below this buffer level, always fetch the lowest quality.
    pub reservoir: SimDuration,
    /// At/above this level, fetch the highest quality.
    pub cushion: SimDuration,
}

impl Default for BufferBased {
    fn default() -> Self {
        BufferBased {
            reservoir: SimDuration::from_secs(5),
            cushion: SimDuration::from_secs(20),
        }
    }
}

impl Abr for BufferBased {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Quality {
        let b = ctx.buffer.as_secs_f64();
        let r = self.reservoir.as_secs_f64();
        let c = self.cushion.as_secs_f64();
        if b <= r {
            return Quality::LOWEST;
        }
        let top = ctx.ladder.top().0 as f64;
        if b >= c {
            return ctx.ladder.top();
        }
        Quality(((b - r) / (c - r) * top).floor() as u8)
    }
}

/// Control-theoretic ABR in the (fast)MPC style: over a lookahead of N
/// chunks, evaluate each candidate (constant) quality against the
/// bandwidth forecast and pick the one maximizing
/// `utility − λ·|switch| − μ·predicted_stall`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mpc {
    /// Lookahead horizon in chunks.
    pub lookahead: usize,
    /// Switching penalty weight (per level of change).
    pub switch_penalty: f64,
    /// Stall penalty weight (per second of predicted rebuffering).
    pub stall_penalty: f64,
}

impl Default for Mpc {
    fn default() -> Self {
        Mpc {
            lookahead: 5,
            switch_penalty: 0.5,
            stall_penalty: 8.0,
        }
    }
}

impl Abr for Mpc {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Quality {
        // Plan against the measured BBR estimate when probing is live;
        // the declared estimate alone can be stale or optimistic.
        let Some(bw0) = ctx.planning_bps() else {
            return Quality::LOWEST;
        };
        let horizon = self.lookahead.max(1);
        let forecast: Vec<f64> = (0..horizon)
            .map(|i| *ctx.bandwidth_forecast.get(i).unwrap_or(&bw0))
            .collect();
        let chunk_secs = ctx.chunk_duration.as_secs_f64();

        let mut best = (f64::NEG_INFINITY, Quality::LOWEST);
        for q in ctx.ladder.qualities() {
            // Simulate downloading `horizon` chunks at quality q.
            let mut buffer = ctx.buffer.as_secs_f64();
            let mut stall = 0.0;
            for &bw in &forecast {
                let dl = ctx.rate(q) * chunk_secs / bw.max(1.0); // seconds to download
                if dl > buffer {
                    stall += dl - buffer;
                    buffer = 0.0;
                } else {
                    buffer -= dl;
                }
                buffer += chunk_secs;
            }
            let utility = ctx.ladder.utility(q) * horizon as f64;
            let switch = (q.0 as i32 - ctx.last_quality.0 as i32).abs() as f64;
            let score = utility - self.switch_penalty * switch - self.stall_penalty * stall;
            if score > best.0 {
                best = (score, q);
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        ladder: &'a Ladder,
        buffer_s: f64,
        bw: Option<f64>,
        last: Quality,
    ) -> AbrContext<'a> {
        AbrContext {
            ladder,
            unit_bitrate: ladder.qualities().map(|q| ladder.bitrate(q)).collect(),
            buffer: SimDuration::from_secs_f64(buffer_s),
            bandwidth_bps: bw,
            measured_bps: None,
            bandwidth_forecast: vec![],
            last_quality: last,
            chunk_duration: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn rate_based_starts_low_without_estimate() {
        let ladder = Ladder::vod_default();
        let mut abr = RateBased::default();
        assert_eq!(
            abr.choose(&ctx(&ladder, 10.0, None, Quality(2))),
            Quality::LOWEST
        );
    }

    #[test]
    fn rate_based_steps_up_with_patience() {
        let ladder = Ladder::vod_default(); // 4, 8, 16, 32 Mbps
        let mut abr = RateBased::default(); // patience 2
        let c = ctx(&ladder, 10.0, Some(40e6), Quality(1));
        assert_eq!(abr.choose(&c), Quality(1), "first opportunity: hold");
        assert_eq!(
            abr.choose(&c),
            Quality(2),
            "second opportunity: one step up"
        );
    }

    #[test]
    fn rate_based_drops_immediately() {
        let ladder = Ladder::vod_default();
        let mut abr = RateBased::default();
        let c = ctx(&ladder, 10.0, Some(5e6), Quality(3));
        assert_eq!(
            abr.choose(&c),
            Quality(0),
            "5 Mbps * 0.85 affords only 4 Mbps"
        );
    }

    #[test]
    fn buffer_based_regions() {
        let ladder = Ladder::vod_default();
        let mut abr = BufferBased::default(); // reservoir 5, cushion 20
        assert_eq!(
            abr.choose(&ctx(&ladder, 2.0, Some(99e6), Quality(0))),
            Quality(0)
        );
        assert_eq!(
            abr.choose(&ctx(&ladder, 25.0, Some(1.0), Quality(0))),
            Quality(3)
        );
        let mid = abr.choose(&ctx(&ladder, 12.5, Some(1.0), Quality(0)));
        assert!(mid > Quality(0) && mid < Quality(3));
    }

    #[test]
    fn buffer_based_is_monotone_in_buffer() {
        let ladder = Ladder::vod_default();
        let mut abr = BufferBased::default();
        let mut prev = Quality(0);
        for b in [0.0, 6.0, 10.0, 14.0, 18.0, 22.0] {
            let q = abr.choose(&ctx(&ladder, b, None, Quality(0)));
            assert!(q >= prev, "quality decreased as buffer grew");
            prev = q;
        }
    }

    #[test]
    fn mpc_picks_high_quality_with_ample_bandwidth() {
        let ladder = Ladder::vod_default();
        let mut abr = Mpc::default();
        let q = abr.choose(&ctx(&ladder, 10.0, Some(100e6), Quality(3)));
        assert_eq!(q, ladder.top());
    }

    #[test]
    fn mpc_avoids_stalls_with_thin_buffer() {
        let ladder = Ladder::vod_default();
        let mut abr = Mpc::default();
        // 6 Mbps: Q1 (8 Mbps) would take 1.33s/chunk, draining a 1s buffer.
        let q = abr.choose(&ctx(&ladder, 1.0, Some(6e6), Quality(0)));
        assert_eq!(q, Quality(0), "stall penalty dominates");
    }

    #[test]
    fn mpc_uses_forecast_dips() {
        let ladder = Ladder::vod_default();
        let mut abr = Mpc::default();
        let mut c = ctx(&ladder, 4.0, Some(40e6), Quality(2));
        // Current estimate is generous but the forecast collapses.
        c.bandwidth_forecast = vec![40e6, 3e6, 3e6, 3e6, 3e6];
        let q = abr.choose(&c);
        assert!(q < Quality(2), "lookahead sees the dip, chose {q}");
    }

    #[test]
    fn mpc_trusts_measured_bbr_estimate_over_declared() {
        // Regression: the declared estimate says the link is generous,
        // but the BBR probe has measured a much thinner bottleneck. Both
        // MPC must plan against the measurement and back off; ignoring
        // it (the pre-fix behaviour) picks the top rung.
        let ladder = Ladder::vod_default(); // 4/8/16/32 Mbps
        let mut declared_only = ctx(&ladder, 2.0, Some(100e6), Quality(3));
        let mut probed = declared_only.clone();
        probed.measured_bps = Some(5e6);

        let q_declared = Mpc::default().choose(&declared_only);
        let q_probed = Mpc::default().choose(&probed);
        assert_eq!(q_declared, ladder.top(), "generous declared");
        assert!(
            q_probed < q_declared,
            "measured 5 Mbps must pull quality below the top, got {q_probed}"
        );

        // With probing off (None) nothing changes: byte-for-byte the
        // declared-capacity decision.
        declared_only.measured_bps = None;
        assert_eq!(Mpc::default().choose(&declared_only), ladder.top());
    }

    #[test]
    fn mpc_switch_penalty_damps_oscillation() {
        let ladder = Ladder::vod_default();
        let mut eager = Mpc {
            switch_penalty: 0.0,
            ..Default::default()
        };
        let mut damped = Mpc {
            switch_penalty: 10.0,
            ..Default::default()
        };
        // Bandwidth affords exactly one level above the last quality.
        let c = ctx(&ladder, 15.0, Some(18e6), Quality(1));
        let q_eager = eager.choose(&c);
        let q_damped = damped.choose(&c);
        assert!(q_eager > q_damped, "heavy switch penalty holds the level");
        assert_eq!(q_damped, Quality(1));
    }
}
