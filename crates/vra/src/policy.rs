//! The tile-aware viewport-adaptation policy suite.
//!
//! The chunk-quality [`Abr`](crate::abr::Abr) trait answers one
//! question — "what quality for the next fetch unit?". A 360° system
//! really decides something richer: *which tiles, at which SVC layer,
//! for the next scheduling window*, given the predicted-viewport
//! heatmap (and how confident it is), the per-tile rate table, the
//! buffer level and the measured capacity. [`AbrPolicyKind::decide`]
//! is that contract, and [`AbrPolicyKind`] names the natural rivals
//! from the literature:
//!
//! * [`Knapsack`] — optimal tile-rate allocation as expected-QoE
//!   maximization under the capacity budget (Ghosh–Aggarwal–Qian,
//!   arXiv:1704.08215), delegating to the §3.2 greedy knapsack in
//!   [`select_stochastic`];
//! * [`Transition`] — confidence-driven switching between
//!   full-delivery / tiled / FoV-only delivery mechanisms (Koch et
//!   al., arXiv:1910.02397);
//! * [`Qer`] — viewport-adaptive *pre-encoded* representations with
//!   quality-emphasized regions: pick 1 of K precoded variants instead
//!   of deciding per tile (Corbillon-style);
//! * [`Consistency`] — spatio-temporal-consistency-aware selection
//!   that rate-limits per-tile quality changes against the previous
//!   window (Yuan-style), never oscillating more than the memoryless
//!   knapsack it tracks;
//! * [`Sperke`] — the existing Sperke VRA as the fifth rival. The
//!   player's [`SperkeVra`](crate::sperke::SperkeVra) runs it as the
//!   full three-part planner; a window decide runs its §3.2 stochastic
//!   selector, the knapsack.
//!
//! Every decide is a *pure function* of its [`PolicyInput`] — no
//! hidden state, no RNG — which is what lets the edge's batched
//! engine keep its oracle≡batched byte-identity proof: a decide
//! computed on a worker thread is the same bytes as one computed
//! inline. Temporal state (the previous window's levels for
//! [`Consistency`]) is threaded explicitly through
//! [`PolicyInput::prev`] by the caller, per client, in chunk order.
//!
//! [`Knapsack`]: AbrPolicyKind::Knapsack
//! [`Transition`]: AbrPolicyKind::Transition
//! [`Qer`]: AbrPolicyKind::Qer
//! [`Consistency`]: AbrPolicyKind::Consistency
//! [`Sperke`]: AbrPolicyKind::Sperke

use crate::knapsack::select_stochastic;
use serde::{Deserialize, Serialize};
use sperke_geo::TileId;
use sperke_hmp::TileForecast;
use sperke_sim::SimDuration;
use sperke_video::{ChunkId, ChunkTime, Quality, Scheme, VideoModel};

/// The probability floor below which tiles are never fetched: the
/// floor the player's policy planner, the edge engine and the live
/// FoV-guided viewer plan with.
pub const DEFAULT_MIN_PROBABILITY: f64 = 0.05;

/// Everything a tile-aware policy may look at when planning a window.
#[derive(Debug, Clone)]
pub struct PolicyInput<'a> {
    /// The video model: per-tile/per-layer rate table, ladder, grid.
    pub video: &'a VideoModel,
    /// Predicted-viewport heatmap for the target chunk time.
    pub forecast: &'a TileForecast,
    /// How concentrated the forecast is, in `[0, 1]`
    /// ([`TileForecast::confidence`]).
    pub confidence: f64,
    /// The chunk time being planned.
    pub time: ChunkTime,
    /// Playback buffer level (time until the window's deadline).
    pub buffer: SimDuration,
    /// Byte budget for this scheduling window, already derived from the
    /// capacity signal by the caller (so every engine's budget formula
    /// stays exactly what it was before the policy suite existed).
    pub budget_bytes: u64,
    /// The capacity signal behind the budget, bits/second: the measured
    /// BBR estimate when probing is live, else the declared estimate;
    /// `None` before any estimate exists.
    pub capacity_bps: Option<f64>,
    /// The pricing scheme fetches are costed under (AVC or SVC with the
    /// model's overhead) — supplied by the caller, since the player and
    /// the edge engine price differently.
    pub scheme: Scheme,
    /// Tiles below this forecast probability are never fetched.
    pub min_probability: f64,
    /// The previous window's per-tile levels (`-1` = not selected),
    /// indexed by tile id — the temporal state consistency-aware
    /// selection clamps against. `None` on the first window.
    pub prev: Option<&'a [i8]>,
}

/// One tile's assignment in a policy plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileAssignment {
    /// The tile.
    pub tile: TileId,
    /// The SVC/AVC quality level assigned.
    pub quality: Quality,
    /// The forecast probability that motivated the assignment.
    pub probability: f64,
}

/// A policy's output for one scheduling window: per-tile layer
/// assignments in the canonical order — descending probability, ties by
/// ascending tile id — which is exactly [`select_stochastic`]'s output
/// convention and the order the engines submit streams in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyPlan {
    /// The assignments, canonically ordered.
    pub assignments: Vec<TileAssignment>,
}

impl PolicyPlan {
    /// The per-tile level vector (`-1` = unselected) a caller stores as
    /// the next window's [`PolicyInput::prev`].
    pub fn levels(&self, tile_count: usize) -> Vec<i8> {
        let mut levels = vec![-1i8; tile_count];
        for a in &self.assignments {
            levels[a.tile.index()] = a.quality.0 as i8;
        }
        levels
    }

    /// Total cost of the plan under `scheme` (the budget checks'
    /// reference).
    #[cfg(test)]
    pub(crate) fn cost_bytes(&self, video: &VideoModel, time: ChunkTime, scheme: Scheme) -> u64 {
        self.assignments
            .iter()
            .map(|a| video.chunk_bytes(ChunkId::new(a.quality, a.tile, time), scheme))
            .sum()
    }

    /// Expected viewport utility under the forecast probabilities the
    /// plan was made with (`Σ p · (1 + U(q))` — the knapsack objective).
    pub fn expected_utility(&self, video: &VideoModel) -> f64 {
        self.assignments
            .iter()
            .map(|a| a.probability * (1.0 + video.ladder().utility(a.quality)))
            .sum()
    }
}

/// Sort assignments into the canonical order (descending probability,
/// ties by ascending tile id) shared with [`select_stochastic`].
fn canonicalize(mut assignments: Vec<TileAssignment>) -> Vec<TileAssignment> {
    assignments.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .expect("no NaN probabilities")
            .then(a.tile.cmp(&b.tile))
    });
    assignments
}

/// The shared knapsack core every policy degenerates to when its
/// distinguishing knob is off: the §3.2 greedy expected-utility
/// knapsack, byte-identical to what the edge engine runs.
fn knapsack_plan(input: &PolicyInput<'_>) -> PolicyPlan {
    let choices = select_stochastic(
        input.video,
        input.forecast,
        input.time,
        input.budget_bytes,
        input.scheme,
        input.min_probability,
    );
    PolicyPlan {
        assignments: choices
            .into_iter()
            .map(|c| TileAssignment {
                tile: c.tile,
                quality: c.quality,
                probability: input.forecast.prob(c.tile),
            })
            .collect(),
    }
}

/// [`AbrPolicyKind::Transition`]'s decide.
fn transition_plan(
    input: &PolicyInput<'_>,
    full_below: f64,
    fov_only_above: f64,
    fov_floor: f64,
) -> PolicyPlan {
    // Neither transition reachable: the mechanism is pinned to tiled
    // delivery, which is the knapsack core.
    let active = full_below > 0.0 || fov_only_above <= 1.0;
    if !active {
        return knapsack_plan(input);
    }
    // The mode's probability floor, non-decreasing in confidence.
    let floor = if input.confidence < full_below {
        0.0
    } else if input.confidence >= fov_only_above {
        fov_floor.max(input.min_probability)
    } else {
        input.min_probability
    };
    // Candidates in descending-probability order; a higher floor
    // yields a prefix of a lower floor's list.
    let candidates: Vec<(TileId, f64)> = input
        .forecast
        .ranked()
        .into_iter()
        .filter(|&(_, p)| p >= floor)
        .collect();
    let bytes_at = |tile: TileId, q: Quality| {
        input
            .video
            .chunk_bytes(ChunkId::new(q, tile, input.time), input.scheme)
    };
    // Base pass: the affordable prefix gets the base layer.
    let mut spent: u64 = 0;
    let mut delivered: Vec<(TileId, f64, Quality)> = Vec::new();
    for &(tile, p) in &candidates {
        let cost = bytes_at(tile, Quality::LOWEST);
        if spent + cost > input.budget_bytes {
            break;
        }
        spent += cost;
        delivered.push((tile, p, Quality::LOWEST));
    }
    // Upgrade pass: level by level, highest probability first, with
    // whatever budget the bases left. Never adds tiles.
    let top = input.video.ladder().top();
    for level in 1..=top.0 {
        let q = Quality(level);
        for entry in delivered.iter_mut() {
            if entry.2 .0 + 1 != level {
                continue;
            }
            let cost = bytes_at(entry.0, q) - bytes_at(entry.0, entry.2);
            if spent + cost <= input.budget_bytes {
                spent += cost;
                entry.2 = q;
            }
        }
    }
    PolicyPlan {
        assignments: delivered
            .into_iter()
            .map(|(tile, probability, quality)| TileAssignment {
                tile,
                quality,
                probability,
            })
            .collect(),
    }
}

/// The tiles QER variant `k` of `variants` emphasizes: those whose
/// centre yaw lies within the sector of width `2π/K` centred on
/// `2πk/K`.
fn qer_emphasized(video: &VideoModel, variants: u8, k: u8) -> Vec<bool> {
    let grid = video.grid();
    let kf = variants.max(1) as f64;
    let center = 2.0 * std::f64::consts::PI * k as f64 / kf;
    let half_width = std::f64::consts::PI / kf;
    grid.tiles()
        .map(|tile| {
            let dir = grid.tile_center(tile);
            let yaw = dir.y.atan2(dir.x);
            let mut d = (yaw - center).abs() % (2.0 * std::f64::consts::PI);
            if d > std::f64::consts::PI {
                d = 2.0 * std::f64::consts::PI - d;
            }
            d <= half_width
        })
        .collect()
}

/// [`AbrPolicyKind::Qer`]'s decide.
fn qer_plan(input: &PolicyInput<'_>, variants: u8, emphasis_drop: u8) -> PolicyPlan {
    if variants == 0 {
        return knapsack_plan(input);
    }
    let video = input.video;
    let grid = video.grid();
    let ladder = video.ladder();
    let bytes_at = |tile: TileId, q: Quality| {
        video.chunk_bytes(ChunkId::new(q, tile, input.time), input.scheme)
    };
    // Best variant = argmax expected utility of its best affordable
    // (q_hi, q_lo) pair; ties resolve to the lowest variant index.
    let mut best: Option<(f64, u8, Vec<bool>, Quality, Quality)> = None;
    for k in 0..variants {
        let emphasized = qer_emphasized(video, variants, k);
        // Highest affordable emphasis quality for this variant; the
        // cheapest pair (0, 0) is the floor — a precoded stream is
        // indivisible, so it ships even when over budget.
        let mut pick = (Quality::LOWEST, Quality::LOWEST);
        for q_hi in ladder.qualities() {
            let q_lo = Quality(q_hi.0.saturating_sub(emphasis_drop));
            let cost: u64 = grid
                .tiles()
                .map(|tile| bytes_at(tile, if emphasized[tile.index()] { q_hi } else { q_lo }))
                .sum();
            if cost <= input.budget_bytes && q_hi >= pick.0 {
                pick = (q_hi, q_lo);
            }
        }
        let (q_hi, q_lo) = pick;
        let score: f64 = grid
            .tiles()
            .map(|tile| {
                let q = if emphasized[tile.index()] { q_hi } else { q_lo };
                input.forecast.prob(tile) * (1.0 + ladder.utility(q))
            })
            .sum();
        let better = match &best {
            None => true,
            Some((s, ..)) => score > *s,
        };
        if better {
            best = Some((score, k, emphasized, q_hi, q_lo));
        }
    }
    let (_, _, emphasized, q_hi, q_lo) = best.expect("variants >= 1");
    let assignments = grid
        .tiles()
        .map(|tile| TileAssignment {
            tile,
            quality: if emphasized[tile.index()] { q_hi } else { q_lo },
            probability: input.forecast.prob(tile),
        })
        .collect();
    PolicyPlan {
        assignments: canonicalize(assignments),
    }
}

/// [`AbrPolicyKind::Consistency`]'s decide.
fn consistency_plan(input: &PolicyInput<'_>, max_up_step: u8) -> PolicyPlan {
    let target = knapsack_plan(input);
    if max_up_step == 0 {
        return target;
    }
    let Some(prev) = input.prev else {
        // First window: adopt the target unchanged (the oscillation
        // bound's base case).
        return target;
    };
    let step = max_up_step as i8;
    let assignments = target
        .assignments
        .into_iter()
        .filter_map(|a| {
            let idx = a.tile.index();
            let before = prev.get(idx).copied().unwrap_or(-1);
            let clamped = (a.quality.0 as i8).min(before.saturating_add(step));
            if clamped < 0 {
                return None;
            }
            Some(TileAssignment {
                quality: Quality(clamped as u8),
                ..a
            })
        })
        .collect();
    // The target was canonical and the clamp preserves membership
    // order, so no re-sort is needed.
    PolicyPlan { assignments }
}

/// The viewport-adaptation policy an engine or player runs. Plain data
/// (like [`SperkeConfig`](crate::sperke::SperkeConfig)) so it threads
/// through builders, sweeps and worker shards by copy. The default,
/// [`Knapsack`], is the §3.2 stochastic selector the edge engine plans
/// with unless told otherwise. [`AbrPolicyKind::panorama`] names the §2
/// FoV-agnostic baseline as one of these values.
///
/// [`Knapsack`]: AbrPolicyKind::Knapsack
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum AbrPolicyKind {
    /// (a) Knapsack QoE maximization (Ghosh–Aggarwal–Qian): choose
    /// per-tile qualities maximizing `Σ p·U(q)` under the byte budget,
    /// via the greedy marginal-utility-per-byte heap in
    /// [`select_stochastic`].
    #[default]
    Knapsack,
    /// (b) Mechanism transitioning (Koch et al.): switch the delivery
    /// mechanism on HMP confidence. Diffuse forecasts ship the full
    /// panorama (full delivery), middling ones ship the probable tiles
    /// (tiled delivery), confident ones ship the viewport alone
    /// (FoV-only).
    ///
    /// While transitioning is active, every mode allocates the same
    /// way: the candidate set is the tiles at or above the mode's
    /// probability floor (`0` / `min_probability` / `fov_floor` — a
    /// non-decreasing step function of confidence), the affordable
    /// prefix of that set in descending-probability order gets the base
    /// layer, and leftover budget upgrades the delivered tiles level by
    /// level in the same order. Because a higher confidence only raises
    /// the floor, and each floor's candidate list is a prefix of the
    /// next-lower floor's list, the delivered tile set can only shrink
    /// as confidence grows — the monotonicity the proptests pin.
    ///
    /// The distinguishing knob is the threshold pair: with `full_below
    /// <= 0` and `fov_only_above > 1` neither transition is reachable,
    /// the mechanism is pinned to plain tiled delivery, and the policy
    /// collapses to the knapsack core byte-for-byte.
    Transition {
        /// Below this confidence, deliver the full panorama.
        full_below: f64,
        /// At or above this confidence, deliver the viewport only.
        fov_only_above: f64,
        /// Probability floor of the FoV-only mode (clamped to at least
        /// the input's `min_probability` so the mode sets stay nested).
        fov_floor: f64,
    },
    /// (c) Viewport-adaptive pre-encoded representations with
    /// quality-emphasized regions (Corbillon-style): the server offers
    /// `K` precoded variants of the full panorama, variant `k`
    /// emphasizing the yaw sector centred on `2πk/K`; the client picks
    /// exactly one — whichever maximizes expected utility under the
    /// forecast at the best affordable emphasis quality. No per-tile
    /// decisions: every tile ships, emphasized tiles at `q_hi`, the
    /// rest `emphasis_drop` rungs lower.
    ///
    /// The distinguishing knob is `variants`: `0` disables precoding
    /// and collapses to the knapsack core byte-for-byte.
    Qer {
        /// Number of precoded variants on offer (`0` = precoding off).
        variants: u8,
        /// How many ladder rungs below the emphasized quality the
        /// de-emphasized region sits.
        emphasis_drop: u8,
    },
    /// (d) Spatio-temporal-consistency-aware selection (Yuan-style):
    /// compute the memoryless knapsack target, then rate-limit upward
    /// quality movement per tile to `max_up_step` levels per window
    /// against the previous window's delivery ([`PolicyInput::prev`]).
    /// Downgrades are never limited — the clamped level never exceeds
    /// the knapsack target, so the plan stays within budget wherever
    /// the knapsack did.
    ///
    /// The standard lazy-follower potential argument (`Φ = target −
    /// clamped ≥ 0`) gives `Σ|Δclamped| ≤ Σ|Δtarget|` per tile: this
    /// policy never oscillates more than the plain knapsack on the same
    /// trace, which the proptests pin.
    ///
    /// The distinguishing knob is `max_up_step`: `0` disables the clamp
    /// and collapses to the knapsack core byte-for-byte.
    Consistency {
        /// Maximum upward level movement per tile per window (`0` =
        /// clamp off).
        max_up_step: u8,
    },
    /// (e) The existing Sperke VRA. The player runs it as the full
    /// three-part planner; inside a window decide — the edge engine,
    /// whose planner has always been Sperke's §3.2 stochastic
    /// selector — it is exactly the knapsack core.
    Sperke,
}

impl AbrPolicyKind {
    /// Every kind at its default tuning, in shootout table order.
    pub fn all() -> [AbrPolicyKind; 5] {
        [
            AbrPolicyKind::Knapsack,
            AbrPolicyKind::transition_default(),
            AbrPolicyKind::qer_default(),
            AbrPolicyKind::consistency_default(),
            AbrPolicyKind::Sperke,
        ]
    }

    /// [`AbrPolicyKind::Transition`] at its default tuning.
    pub fn transition_default() -> AbrPolicyKind {
        AbrPolicyKind::Transition {
            full_below: 0.35,
            fov_only_above: 0.8,
            fov_floor: 0.5,
        }
    }

    /// [`AbrPolicyKind::Qer`] at its default tuning.
    pub fn qer_default() -> AbrPolicyKind {
        AbrPolicyKind::Qer {
            variants: 4,
            emphasis_drop: 2,
        }
    }

    /// FoV-agnostic full-panorama delivery, the §2 baseline: one
    /// precoded representation whose emphasized region is the whole
    /// sphere, so every tile ships at the highest quality whose
    /// panorama fits the budget ([`Quality::LOWEST`] when none does).
    pub fn panorama() -> AbrPolicyKind {
        AbrPolicyKind::Qer {
            variants: 1,
            emphasis_drop: 0,
        }
    }

    /// [`AbrPolicyKind::Consistency`] at its default tuning.
    fn consistency_default() -> AbrPolicyKind {
        AbrPolicyKind::Consistency { max_up_step: 1 }
    }

    /// Display name for result tables.
    pub fn name(&self) -> &'static str {
        match self {
            AbrPolicyKind::Knapsack => "knapsack",
            AbrPolicyKind::Transition { .. } => "transition",
            AbrPolicyKind::Qer { .. } => "qer",
            AbrPolicyKind::Consistency { .. } => "consistency",
            AbrPolicyKind::Sperke => "sperke",
        }
    }

    /// Plan one window under this kind. Pure in its input: the same
    /// [`PolicyInput`] gives the same [`PolicyPlan`], bit for bit, which
    /// the batched engines rely on.
    pub fn decide(&self, input: &PolicyInput<'_>) -> PolicyPlan {
        match *self {
            AbrPolicyKind::Knapsack | AbrPolicyKind::Sperke => knapsack_plan(input),
            AbrPolicyKind::Transition {
                full_below,
                fov_only_above,
                fov_floor,
            } => transition_plan(input, full_below, fov_only_above, fov_floor),
            AbrPolicyKind::Qer {
                variants,
                emphasis_drop,
            } => qer_plan(input, variants, emphasis_drop),
            AbrPolicyKind::Consistency { max_up_step } => consistency_plan(input, max_up_step),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::Orientation;
    use sperke_hmp::FusedForecaster;
    use sperke_sim::SimTime;
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(9)
            .duration(SimDuration::from_secs(20))
            .build()
    }

    fn forecast(video: &VideoModel) -> TileForecast {
        let history = vec![(SimTime::ZERO, Orientation::FRONT)];
        FusedForecaster::motion_only().forecast(
            video.grid(),
            &history,
            SimTime::ZERO,
            SimTime::from_secs(1),
            ChunkTime(1),
        )
    }

    fn policy_input<'a>(
        video: &'a VideoModel,
        fc: &'a TileForecast,
        budget: u64,
    ) -> PolicyInput<'a> {
        PolicyInput {
            video,
            forecast: fc,
            confidence: fc.confidence(),
            time: ChunkTime(1),
            buffer: SimDuration::from_secs(2),
            budget_bytes: budget,
            capacity_bps: Some(budget as f64 * 8.0),
            scheme: Scheme::Avc,
            min_probability: DEFAULT_MIN_PROBABILITY,
            prev: None,
        }
    }

    #[test]
    fn all_policies_produce_canonical_order_and_respect_floor() {
        let v = video();
        let fc = forecast(&v);
        let input = policy_input(&v, &fc, 2_000_000);
        for kind in AbrPolicyKind::all() {
            let plan = kind.decide(&input);
            assert!(!plan.assignments.is_empty(), "{}: empty plan", kind.name());
            for w in plan.assignments.windows(2) {
                let ord = w[1]
                    .probability
                    .partial_cmp(&w[0].probability)
                    .expect("no NaN");
                assert!(
                    w[0].probability > w[1].probability
                        || (ord == std::cmp::Ordering::Equal && w[0].tile < w[1].tile),
                    "{}: not canonical at {:?} -> {:?}",
                    kind.name(),
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn knapsack_kind_matches_select_stochastic_exactly() {
        let v = video();
        let fc = forecast(&v);
        for budget in [100_000u64, 800_000, 3_000_000] {
            let input = policy_input(&v, &fc, budget);
            let plan = AbrPolicyKind::Knapsack.decide(&input);
            let raw = select_stochastic(&v, &fc, ChunkTime(1), budget, Scheme::Avc, 0.05);
            assert_eq!(plan.assignments.len(), raw.len());
            for (a, c) in plan.assignments.iter().zip(raw.iter()) {
                assert_eq!((a.tile, a.quality), (c.tile, c.quality));
            }
        }
    }

    #[test]
    fn transition_modes_shrink_delivery_as_confidence_grows() {
        let v = video();
        let fc = forecast(&v);
        let policy = AbrPolicyKind::transition_default();
        let mut input = policy_input(&v, &fc, 6_000_000);
        let mut last_area = usize::MAX;
        for conf in [0.1, 0.5, 0.95] {
            input.confidence = conf;
            let area = policy.decide(&input).assignments.len();
            assert!(
                area <= last_area,
                "area widened from {last_area} to {area} at confidence {conf}"
            );
            last_area = area;
        }
    }

    #[test]
    fn qer_picks_the_variant_facing_the_forecast() {
        let v = video();
        let fc = forecast(&v); // mass near FRONT (yaw 0)
        let input = policy_input(&v, &fc, 40_000_000);
        let plan = AbrPolicyKind::qer_default().decide(&input);
        // Full panorama ships.
        assert_eq!(plan.assignments.len(), v.grid().tile_count());
        // The most probable tile sits in the emphasized (higher-quality)
        // region: its quality must be at least every other tile's.
        let top = &plan.assignments[0];
        assert!(plan.assignments.iter().all(|a| a.quality <= top.quality));
        // Two distinct qualities when the budget affords emphasis.
        let distinct: std::collections::BTreeSet<u8> =
            plan.assignments.iter().map(|a| a.quality.0).collect();
        assert!(distinct.len() >= 2, "no emphasis: {distinct:?}");
    }

    #[test]
    fn consistency_limits_upward_movement() {
        let v = video();
        let fc = forecast(&v);
        let mut input = policy_input(&v, &fc, 8_000_000);
        let prev = vec![-1i8; v.grid().tile_count()];
        input.prev = Some(&prev);
        let plan = AbrPolicyKind::Consistency { max_up_step: 1 }.decide(&input);
        // From nothing delivered, no tile may jump past base+0 levels.
        for a in &plan.assignments {
            assert!(a.quality <= Quality(0), "jumped to {:?}", a.quality);
        }
        // And the clamped plan never exceeds the knapsack target.
        let target = AbrPolicyKind::Knapsack.decide(&input);
        let t_levels = target.levels(v.grid().tile_count());
        for a in &plan.assignments {
            assert!((a.quality.0 as i8) <= t_levels[a.tile.index()]);
        }
    }
}
