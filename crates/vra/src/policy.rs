//! The tile-aware viewport-adaptation policy suite.
//!
//! The chunk-quality [`Abr`](crate::abr::Abr) trait answers one
//! question — "what quality for the next fetch unit?". A 360° system
//! really decides something richer: *which tiles, at which SVC layer,
//! for the next scheduling window*, given the predicted-viewport
//! heatmap (and how confident it is), the per-tile rate table, the
//! buffer level and the measured capacity. [`AbrPolicy`] is that
//! contract, and this module implements the natural rivals from the
//! literature behind it:
//!
//! * [`KnapsackQoe`] — optimal tile-rate allocation as expected-QoE
//!   maximization under the capacity budget (Ghosh–Aggarwal–Qian,
//!   arXiv:1704.08215), delegating to the §3.2 greedy knapsack in
//!   [`select_stochastic`];
//! * [`MechanismTransition`] — confidence-driven switching between
//!   full-delivery / tiled / FoV-only delivery mechanisms (Koch et
//!   al., arXiv:1910.02397);
//! * [`QerPrecoded`] — viewport-adaptive *pre-encoded* representations
//!   with quality-emphasized regions: pick 1 of K precoded variants
//!   instead of deciding per tile (Corbillon-style);
//! * [`ConsistencyAware`] — spatio-temporal-consistency-aware
//!   selection that rate-limits per-tile quality changes against the
//!   previous window (Yuan-style), never oscillating more than the
//!   memoryless knapsack it tracks;
//! * [`SperkeSelector`] — the existing Sperke VRA as the fifth rival
//!   (its §3.2 stochastic selector; the player path runs the full
//!   three-part planner via `PlannerKind`-level dispatch upstream).
//!
//! Every policy is a *pure function* of its [`PolicyInput`] — no
//! hidden state, no RNG — which is what lets the fleet/edge batched
//! engines keep their legacy≡batched byte-identity proof: a policy
//! decide computed on a worker thread is the same bytes as one
//! computed inline. Temporal state (the previous window's levels for
//! [`ConsistencyAware`]) is threaded explicitly through
//! [`PolicyInput::prev`] by the caller, per client, in chunk order.

use crate::knapsack::select_stochastic;
use crate::sperke::{emit_abr_decision, FetchPlan, PlanInput, PlannedFetch, SperkeConfig};
use crate::superchunk::SuperChunk;
use serde::{Deserialize, Serialize};
use sperke_geo::TileId;
use sperke_hmp::TileForecast;
use sperke_net::{ChunkPriority, SpatialPriority, TemporalPriority};
use sperke_sim::{SimDuration, TraceSink};
use sperke_video::{ChunkId, ChunkTime, Quality, Scheme, VideoModel};

/// The default probability floor below which tiles are never fetched
/// (matches [`SelectionPolicy::Stochastic`]'s conventional setting and
/// the fleet/edge engines' hardwired floor).
///
/// [`SelectionPolicy::Stochastic`]: crate::sperke::SelectionPolicy
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
    /// model's overhead) — supplied by the caller, since the player,
    /// fleet and edge engines price differently.
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

    /// Total cost of the plan under `scheme`.
    pub fn cost_bytes(&self, video: &VideoModel, time: ChunkTime, scheme: Scheme) -> u64 {
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

/// A tile-aware viewport-adaptation policy: heatmap + confidence +
/// rate table + buffer + capacity in, per-tile layer assignments out.
///
/// Implementations must be pure in their input (same `PolicyInput`,
/// same `PolicyPlan`, bit for bit) — the batched engines rely on it.
pub trait AbrPolicy {
    /// Display name for result tables.
    fn name(&self) -> &'static str;

    /// Plan the next scheduling window.
    fn decide(&self, input: &PolicyInput<'_>) -> PolicyPlan;
}

/// The shared knapsack core every policy degenerates to when its
/// distinguishing knob is off: the §3.2 greedy expected-utility
/// knapsack, byte-identical to what the Sperke stochastic selector and
/// the fleet/edge engines run.
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

/// (a) Knapsack QoE maximization (Ghosh–Aggarwal–Qian): choose per-tile
/// qualities maximizing `Σ p·U(q)` under the byte budget, via the
/// greedy marginal-utility-per-byte heap in [`select_stochastic`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KnapsackQoe {}

impl AbrPolicy for KnapsackQoe {
    fn name(&self) -> &'static str {
        "knapsack"
    }

    fn decide(&self, input: &PolicyInput<'_>) -> PolicyPlan {
        knapsack_plan(input)
    }
}

/// (b) Mechanism transitioning (Koch et al.): switch the delivery
/// mechanism on HMP confidence. Diffuse forecasts ship the full
/// panorama (full delivery), middling ones ship the probable tiles
/// (tiled delivery), confident ones ship the viewport alone (FoV-only).
///
/// While transitioning is active, every mode allocates the same way:
/// the candidate set is the tiles at or above the mode's probability
/// floor (`0` / `min_probability` / `fov_floor` — a non-decreasing
/// step function of confidence), the affordable prefix of that set in
/// descending-probability order gets the base layer, and leftover
/// budget upgrades the delivered tiles level by level in the same
/// order. Because a higher confidence only raises the floor, and each
/// floor's candidate list is a prefix of the next-lower floor's list,
/// the delivered tile set can only shrink as confidence grows — the
/// monotonicity the proptests pin.
///
/// The distinguishing knob is the threshold pair: with `full_below <=
/// 0` and `fov_only_above > 1` neither transition is reachable, the
/// mechanism is pinned to plain tiled delivery, and the policy
/// collapses to the knapsack core byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MechanismTransition {
    /// Below this confidence, deliver the full panorama.
    pub full_below: f64,
    /// At or above this confidence, deliver the forecast viewport only.
    pub fov_only_above: f64,
    /// Probability floor of the FoV-only mode (clamped to at least the
    /// input's `min_probability` so the mode sets stay nested).
    pub fov_floor: f64,
}

impl Default for MechanismTransition {
    fn default() -> Self {
        MechanismTransition {
            full_below: 0.35,
            fov_only_above: 0.8,
            fov_floor: 0.5,
        }
    }
}

impl MechanismTransition {
    /// Is the transitioning machinery reachable at all?
    pub fn is_active(&self) -> bool {
        self.full_below > 0.0 || self.fov_only_above <= 1.0
    }

    /// The probability floor the mechanism applies at `confidence` —
    /// non-decreasing in confidence by construction.
    pub fn floor_at(&self, confidence: f64, min_probability: f64) -> f64 {
        if confidence < self.full_below {
            0.0
        } else if confidence >= self.fov_only_above {
            self.fov_floor.max(min_probability)
        } else {
            min_probability
        }
    }
}

impl AbrPolicy for MechanismTransition {
    fn name(&self) -> &'static str {
        "transition"
    }

    fn decide(&self, input: &PolicyInput<'_>) -> PolicyPlan {
        if !self.is_active() {
            return knapsack_plan(input);
        }
        let floor = self.floor_at(input.confidence, input.min_probability);
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
}

/// (c) Viewport-adaptive pre-encoded representations with
/// quality-emphasized regions (Corbillon-style): the server offers `K`
/// precoded variants of the full panorama, variant `k` emphasizing the
/// yaw sector centred on `2πk/K`; the client picks exactly one —
/// whichever maximizes expected utility under the forecast at the best
/// affordable emphasis quality. No per-tile decisions: every tile
/// ships, emphasized tiles at `q_hi`, the rest `emphasis_drop` rungs
/// lower.
///
/// The distinguishing knob is `variants`: `0` disables precoding and
/// collapses to the knapsack core byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QerPrecoded {
    /// Number of precoded variants on offer (`0` = precoding off).
    pub variants: u8,
    /// How many ladder rungs below the emphasized quality the
    /// de-emphasized region sits.
    pub emphasis_drop: u8,
}

impl Default for QerPrecoded {
    fn default() -> Self {
        QerPrecoded {
            variants: 4,
            emphasis_drop: 2,
        }
    }
}

impl QerPrecoded {
    /// The tiles variant `k` emphasizes: those whose centre yaw lies
    /// within the sector of width `2π/K` centred on `2πk/K`.
    fn emphasized(&self, video: &VideoModel, k: u8) -> Vec<bool> {
        let grid = video.grid();
        let kf = self.variants.max(1) as f64;
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
}

impl AbrPolicy for QerPrecoded {
    fn name(&self) -> &'static str {
        "qer"
    }

    fn decide(&self, input: &PolicyInput<'_>) -> PolicyPlan {
        if self.variants == 0 {
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
        for k in 0..self.variants {
            let emphasized = self.emphasized(video, k);
            // Highest affordable emphasis quality for this variant; the
            // cheapest pair (0, 0) is the floor — a precoded stream is
            // indivisible, so it ships even when over budget.
            let mut pick = (Quality::LOWEST, Quality::LOWEST);
            for q_hi in ladder.qualities() {
                let q_lo = Quality(q_hi.0.saturating_sub(self.emphasis_drop));
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
}

/// (d) Spatio-temporal-consistency-aware selection (Yuan-style):
/// compute the memoryless knapsack target, then rate-limit upward
/// quality movement per tile to `max_up_step` levels per window against
/// the previous window's delivery ([`PolicyInput::prev`]). Downgrades
/// are never limited — the clamped level never exceeds the knapsack
/// target, so the plan stays within budget wherever the knapsack did.
///
/// The standard lazy-follower potential argument (`Φ = target −
/// clamped ≥ 0`) gives `Σ|Δclamped| ≤ Σ|Δtarget|` per tile: this
/// policy never oscillates more than the plain knapsack on the same
/// trace, which the proptests pin.
///
/// The distinguishing knob is `max_up_step`: `0` disables the clamp
/// and collapses to the knapsack core byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyAware {
    /// Maximum upward level movement per tile per window (`0` = clamp
    /// off).
    pub max_up_step: u8,
}

impl Default for ConsistencyAware {
    fn default() -> Self {
        ConsistencyAware { max_up_step: 1 }
    }
}

impl AbrPolicy for ConsistencyAware {
    fn name(&self) -> &'static str {
        "consistency"
    }

    fn decide(&self, input: &PolicyInput<'_>) -> PolicyPlan {
        let target = knapsack_plan(input);
        if self.max_up_step == 0 {
            return target;
        }
        let Some(prev) = input.prev else {
            // First window: adopt the target unchanged (the oscillation
            // bound's base case).
            return target;
        };
        let step = self.max_up_step as i8;
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
}

/// (e) The existing Sperke VRA as the fifth rival. In the per-viewer
/// player path the builder dispatches this kind to the full three-part
/// Sperke planner (`PlannerKind`-level, upstream); inside the
/// fleet/edge engines — whose planner has always been Sperke's §3.2
/// stochastic selector — it is exactly the knapsack core.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SperkeSelector {}

impl AbrPolicy for SperkeSelector {
    fn name(&self) -> &'static str {
        "sperke"
    }

    fn decide(&self, input: &PolicyInput<'_>) -> PolicyPlan {
        knapsack_plan(input)
    }
}

/// Serializable policy selector: which [`AbrPolicy`] an engine runs.
/// Plain data (like [`SperkeConfig`]) so it threads through builders,
/// sweeps and worker shards by copy. The default, [`Knapsack`], is the
/// §3.2 stochastic selector every fleet and edge engine plans with
/// unless told otherwise.
///
/// [`Knapsack`]: AbrPolicyKind::Knapsack
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum AbrPolicyKind {
    /// (a) knapsack QoE maximization.
    #[default]
    Knapsack,
    /// (b) confidence-driven mechanism transitioning.
    Transition {
        /// Below this confidence, deliver the full panorama.
        full_below: f64,
        /// At or above this confidence, deliver the viewport only.
        fov_only_above: f64,
        /// Probability floor of the FoV-only mode.
        fov_floor: f64,
    },
    /// (c) pre-encoded quality-emphasized-region variants.
    Qer {
        /// Number of precoded variants (`0` = precoding off).
        variants: u8,
        /// Ladder rungs between emphasized and de-emphasized regions.
        emphasis_drop: u8,
    },
    /// (d) spatio-temporal-consistency-aware selection.
    Consistency {
        /// Maximum upward level movement per window (`0` = clamp off).
        max_up_step: u8,
    },
    /// (e) the existing Sperke VRA.
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

    /// [`MechanismTransition::default`] as a kind.
    pub fn transition_default() -> AbrPolicyKind {
        let d = MechanismTransition::default();
        AbrPolicyKind::Transition {
            full_below: d.full_below,
            fov_only_above: d.fov_only_above,
            fov_floor: d.fov_floor,
        }
    }

    /// [`QerPrecoded::default`] as a kind.
    pub fn qer_default() -> AbrPolicyKind {
        let d = QerPrecoded::default();
        AbrPolicyKind::Qer {
            variants: d.variants,
            emphasis_drop: d.emphasis_drop,
        }
    }

    /// [`ConsistencyAware::default`] as a kind.
    pub fn consistency_default() -> AbrPolicyKind {
        let d = ConsistencyAware::default();
        AbrPolicyKind::Consistency {
            max_up_step: d.max_up_step,
        }
    }

    /// Display name for result tables.
    pub fn name(&self) -> &'static str {
        match self {
            AbrPolicyKind::Knapsack => KnapsackQoe {}.name(),
            AbrPolicyKind::Transition { .. } => "transition",
            AbrPolicyKind::Qer { .. } => "qer",
            AbrPolicyKind::Consistency { .. } => "consistency",
            AbrPolicyKind::Sperke => SperkeSelector {}.name(),
        }
    }

    /// Plan one window under this kind (pure dispatch — identical
    /// bytes to building the boxed policy and calling it).
    pub fn decide(&self, input: &PolicyInput<'_>) -> PolicyPlan {
        match *self {
            AbrPolicyKind::Knapsack => KnapsackQoe {}.decide(input),
            AbrPolicyKind::Transition {
                full_below,
                fov_only_above,
                fov_floor,
            } => MechanismTransition {
                full_below,
                fov_only_above,
                fov_floor,
            }
            .decide(input),
            AbrPolicyKind::Qer {
                variants,
                emphasis_drop,
            } => QerPrecoded {
                variants,
                emphasis_drop,
            }
            .decide(input),
            AbrPolicyKind::Consistency { max_up_step } => {
                ConsistencyAware { max_up_step }.decide(input)
            }
            AbrPolicyKind::Sperke => SperkeSelector {}.decide(input),
        }
    }

    /// The boxed trait object, for callers that want dynamic dispatch.
    pub fn build(&self) -> Box<dyn AbrPolicy + Send + Sync> {
        match *self {
            AbrPolicyKind::Knapsack => Box::new(KnapsackQoe {}),
            AbrPolicyKind::Transition {
                full_below,
                fov_only_above,
                fov_floor,
            } => Box::new(MechanismTransition {
                full_below,
                fov_only_above,
                fov_floor,
            }),
            AbrPolicyKind::Qer {
                variants,
                emphasis_drop,
            } => Box::new(QerPrecoded {
                variants,
                emphasis_drop,
            }),
            AbrPolicyKind::Consistency { max_up_step } => {
                Box::new(ConsistencyAware { max_up_step })
            }
            AbrPolicyKind::Sperke => Box::new(SperkeSelector {}),
        }
    }
}

/// The player-side wrapper that runs an [`AbrPolicyKind`] where
/// [`SperkeVra`](crate::sperke::SperkeVra) would run: it derives the
/// policy's inputs from a [`PlanInput`] exactly the way the §3.2
/// stochastic planner does (same budget formula, same pricing scheme,
/// same probability floor), converts the [`PolicyPlan`] into a
/// [`FetchPlan`] with the same priorities, forms and trace events, and
/// threads the previous window's levels for temporal policies. With
/// [`AbrPolicyKind::Knapsack`], the produced plans are byte-identical
/// to `SelectionPolicy::Stochastic` — the degeneracy tests pin it.
pub struct PolicyVra {
    /// Which policy plans the windows.
    pub kind: AbrPolicyKind,
    /// Shared planner tuning (encoding policy, FoV threshold, urgency).
    pub config: SperkeConfig,
    trace: TraceSink,
    /// Previous window's per-tile levels (empty until the first plan).
    prev: Vec<i8>,
}

impl PolicyVra {
    /// Construct with a policy kind and the shared planner tuning.
    pub fn new(kind: AbrPolicyKind, config: SperkeConfig) -> PolicyVra {
        PolicyVra {
            kind,
            config,
            trace: TraceSink::disabled(),
            prev: Vec::new(),
        }
    }

    /// Record ABR decisions into `sink`.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The probability floor this wrapper plans with: the configured
    /// stochastic floor, or the conventional default under other
    /// selection settings.
    fn min_probability(&self) -> f64 {
        match self.config.selection {
            crate::sperke::SelectionPolicy::Stochastic { min_probability } => min_probability,
            _ => DEFAULT_MIN_PROBABILITY,
        }
    }

    /// Produce the fetch plan for one chunk time.
    pub fn plan(&mut self, input: &PlanInput<'_>) -> FetchPlan {
        let video = input.video;
        // Measured capacity (BBR) over the declared estimate, mirroring
        // the AbrContext preference; with probing off this is exactly
        // the stochastic planner's budget.
        let capacity_bps = input.measured_bps.or(input.bandwidth_bps);
        let budget_bytes = capacity_bps
            .map(|bw| (bw * video.chunk_duration().as_secs_f64() / 8.0) as u64)
            .unwrap_or_else(|| {
                SuperChunk::from_forecast(input.forecast, input.time, self.config.fov_threshold)
                    .bytes_at(video, Quality::LOWEST, Scheme::Avc)
            });
        let tile_count = video.grid().tile_count();
        let policy_input = PolicyInput {
            video,
            forecast: input.forecast,
            confidence: input.forecast.confidence(),
            time: input.time,
            buffer: input.buffer,
            budget_bytes,
            capacity_bps,
            scheme: self.config.encoding.scheme_for(video, 0.5),
            min_probability: self.min_probability(),
            prev: (self.prev.len() == tile_count).then_some(self.prev.as_slice()),
        };
        let plan = self.kind.decide(&policy_input);
        self.prev = plan.levels(tile_count);

        // The same conversion the stochastic planner applies: priority
        // by forecast probability, urgency by deadline, form by the
        // hybrid encoding policy.
        let deadline_close = input.buffer <= self.config.urgent_window;
        let mut fetches = Vec::with_capacity(plan.assignments.len());
        let mut fov_quality = Quality::LOWEST;
        let mut best_p = -1.0;
        for a in &plan.assignments {
            let p = a.probability;
            if p > best_p {
                best_p = p;
                fov_quality = a.quality;
            }
            let spatial = if p >= self.config.fov_threshold {
                SpatialPriority::Fov
            } else {
                SpatialPriority::Oos
            };
            let temporal = if deadline_close && spatial == SpatialPriority::Fov {
                TemporalPriority::Urgent
            } else {
                TemporalPriority::Regular
            };
            let scheme = self.config.encoding.scheme_for(video, p);
            let id = ChunkId::new(a.quality, a.tile, input.time);
            fetches.push(PlannedFetch {
                chunk: id,
                form: self.config.encoding.form_for(video, p, a.quality),
                bytes: video.chunk_bytes(id, scheme),
                priority: ChunkPriority { spatial, temporal },
                probability: p,
            });
        }
        emit_abr_decision(&self.trace, input, fov_quality, &[]);
        FetchPlan {
            time: input.time,
            fov_quality,
            fetches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr::RateBased;
    use crate::sperke::{SelectionPolicy, SperkeVra};
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
        let policy = MechanismTransition::default();
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
        let plan = QerPrecoded::default().decide(&input);
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
        let plan = ConsistencyAware { max_up_step: 1 }.decide(&input);
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

    #[test]
    fn policy_vra_knapsack_matches_stochastic_planner_bytes() {
        let v = video();
        let fc = forecast(&v);
        let config = SperkeConfig {
            selection: SelectionPolicy::Stochastic {
                min_probability: 0.05,
            },
            ..Default::default()
        };
        let mut legacy = SperkeVra::new(RateBased::default(), config.clone());
        let mut wrapped = PolicyVra::new(AbrPolicyKind::Knapsack, config);
        for bw in [None, Some(8e6), Some(25e6), Some(80e6)] {
            let input = PlanInput {
                video: &v,
                forecast: &fc,
                time: ChunkTime(1),
                now: SimTime::ZERO,
                buffer: SimDuration::from_secs(2),
                bandwidth_bps: bw,
                measured_bps: None,
                bandwidth_forecast: vec![],
                last_quality: Quality(1),
            };
            assert_eq!(
                legacy.plan(&input),
                wrapped.plan(&input),
                "diverged at bw {bw:?}"
            );
        }
    }

    #[test]
    fn policy_vra_prefers_measured_capacity() {
        let v = video();
        let fc = forecast(&v);
        let mut vra = PolicyVra::new(AbrPolicyKind::Knapsack, SperkeConfig::default());
        let mk = |measured| PlanInput {
            video: &v,
            forecast: &fc,
            time: ChunkTime(1),
            now: SimTime::ZERO,
            buffer: SimDuration::from_secs(2),
            bandwidth_bps: Some(60e6),
            measured_bps: measured,
            bandwidth_forecast: vec![],
            last_quality: Quality(1),
        };
        let declared = vra.plan(&mk(None));
        let probed = vra.plan(&mk(Some(6e6)));
        assert!(
            probed.total_bytes() < declared.total_bytes(),
            "measured 6 Mbps must shrink the plan: {} vs {}",
            probed.total_bytes(),
            declared.total_bytes()
        );
    }
}
