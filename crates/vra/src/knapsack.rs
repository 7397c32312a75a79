//! Stochastic chunk selection (§3.2): "when being integrated with VRA,
//! this can be formulated as a stochastic optimization problem: using
//! chunks' viewing probabilities to optimally find the chunks to
//! download (as well as their qualities) such that the QoE is
//! maximized."
//!
//! Formally: choose a quality `q_l ∈ {none, 0..top}` per tile `l`
//! maximizing `Σ_l p_l · U(q_l)` subject to `Σ_l bytes(q_l) ≤ B`.
//! Utility is concave in the level index for sensible ladders, so the
//! classic greedy by marginal utility-per-byte is near-optimal; a final
//! backfill pass spends leftover budget.

use serde::{Deserialize, Serialize};
use sperke_geo::TileId;
use sperke_hmp::TileForecast;
use sperke_video::{ChunkTime, Quality, Scheme, VideoModel};
use std::cmp::Ordering;

/// One selected fetch: a tile at a final quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StochasticChoice {
    /// The tile.
    pub tile: TileId,
    /// The quality to fetch it at.
    pub quality: Quality,
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    ratio: f64,
    tile: TileId,
    /// The quality this increment reaches (from `quality - 1` or from
    /// "not fetched" when `quality == 0`).
    quality: Quality,
    cost: u64,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.ratio == other.ratio && self.tile == other.tile && self.quality == other.quality
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ratio
            .partial_cmp(&other.ratio)
            .expect("ratios are finite")
            .then(other.tile.cmp(&self.tile)) // deterministic tie-break
            .then(self.quality.cmp(&other.quality))
    }
}

/// Utility of displaying a tile at `q`, with a base reward for the tile
/// being present at all (a blank tile is worse than base quality).
fn tile_utility(video: &VideoModel, q: Quality) -> f64 {
    1.0 + video.ladder().utility(q)
}

/// Greedy expected-utility knapsack over `(tile, quality)` increments.
///
/// Tiles below `min_probability` are never fetched. The result is
/// sorted by descending probability (ties by tile id), mirroring
/// [`select_oos`](crate::oos::select_oos)'s convention.
///
/// ```
/// use sperke_vra::select_stochastic;
/// use sperke_hmp::TileForecast;
/// use sperke_video::{ChunkId, ChunkTime, Scheme, VideoModelBuilder};
/// use sperke_sim::SimDuration;
///
/// let video = VideoModelBuilder::new(1).duration(SimDuration::from_secs(4)).build();
/// let forecast = TileForecast::uniform(video.grid(), 0.4);
/// let budget = 500_000;
/// let picks = select_stochastic(&video, &forecast, ChunkTime(0), budget, Scheme::Avc, 0.05);
/// let cost: u64 = picks
///     .iter()
///     .map(|c| video.chunk_bytes(ChunkId::new(c.quality, c.tile, ChunkTime(0)), Scheme::Avc))
///     .sum();
/// assert!(cost <= budget);
/// ```
pub fn select_stochastic(
    video: &VideoModel,
    forecast: &TileForecast,
    time: ChunkTime,
    budget_bytes: u64,
    scheme: Scheme,
    min_probability: f64,
) -> Vec<StochasticChoice> {
    let grid = video.grid();
    // Every candidate's cost comes from one row of the video's cost
    // table, its chunk checked once here.
    let costs = video.chunk_costs(time, scheme);
    let levels = video.ladder().levels();
    let bytes_at = |tile: TileId, q: Quality| costs[tile.index() * levels + q.index()];
    // Per-rung utility, once per call rather than per increment.
    let utility: Vec<f64> = video
        .ladder()
        .qualities()
        .map(|q| tile_utility(video, q))
        .collect();

    // The open increments, ascending, best last. A tile has at most one
    // open increment, so no two compare equal and popping the greatest
    // takes the order a binary heap would. The queue never holds more
    // entries than the grid has tiles (24 by default), few enough that a
    // sorted vector popped from its end is cheaper than a heap.
    let mut queue: Vec<Candidate> = Vec::with_capacity(grid.tile_count());
    for tile in grid.tiles() {
        let p = forecast.prob(tile);
        if p < min_probability {
            continue;
        }
        let cost = bytes_at(tile, Quality(0));
        let gain = p * utility[0];
        queue.push(Candidate {
            ratio: gain / cost.max(1) as f64,
            tile,
            quality: Quality(0),
            cost,
        });
    }
    queue.sort_unstable();

    let top = video.ladder().top();
    let mut chosen: Vec<Option<Quality>> = vec![None; grid.tile_count()];
    let mut spent: u64 = 0;
    while let Some(c) = queue.pop() {
        if spent + c.cost > budget_bytes {
            // This increment doesn't fit; cheaper increments for other
            // tiles may still fit, so keep draining the queue.
            continue;
        }
        // Apply the increment.
        spent += c.cost;
        chosen[c.tile.index()] = Some(c.quality);
        // Offer the next increment for this tile.
        if c.quality < top {
            let p = forecast.prob(c.tile);
            let next = c.quality.up();
            let cost = bytes_at(c.tile, next) - bytes_at(c.tile, c.quality);
            let gain = p * (utility[next.index()] - utility[c.quality.index()]);
            let candidate = Candidate {
                ratio: gain / cost.max(1) as f64,
                tile: c.tile,
                quality: next,
                cost,
            };
            let at = queue.partition_point(|open| *open < candidate);
            queue.insert(at, candidate);
        }
    }

    // Tiles are distinct, so the order is total and an unstable sort
    // gives the one result.
    let mut out: Vec<(f64, StochasticChoice)> = chosen
        .iter()
        .enumerate()
        .filter_map(|(i, q)| {
            q.map(|quality| {
                let tile = TileId(i as u16);
                (forecast.prob(tile), StochasticChoice { tile, quality })
            })
        })
        .collect();
    out.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("no NaN")
            .then(a.1.tile.cmp(&b.1.tile))
    });
    out.into_iter().map(|(_, c)| c).collect()
}

/// The expected viewport utility of a selection under the forecast
/// (the objective value the optimizer maximizes).
pub fn expected_utility(
    video: &VideoModel,
    forecast: &TileForecast,
    choices: &[StochasticChoice],
) -> f64 {
    choices
        .iter()
        .map(|c| forecast.prob(c.tile) * tile_utility(video, c.quality))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperke_geo::Orientation;
    use sperke_hmp::FusedForecaster;
    use sperke_sim::{SimDuration, SimTime};
    use sperke_video::{ChunkId, VideoModelBuilder};

    fn setup() -> (VideoModel, TileForecast) {
        let video = VideoModelBuilder::new(13)
            .duration(SimDuration::from_secs(8))
            .build();
        let history = vec![(SimTime::ZERO, Orientation::FRONT)];
        let fc = FusedForecaster::motion_only().forecast(
            video.grid(),
            &history,
            SimTime::ZERO,
            SimTime::from_secs(1),
            ChunkTime(0),
        );
        (video, fc)
    }

    /// Total cost of a selection (the budget checks' reference).
    fn selection_cost(
        video: &VideoModel,
        time: ChunkTime,
        scheme: Scheme,
        choices: &[StochasticChoice],
    ) -> u64 {
        choices
            .iter()
            .map(|c| video.chunk_bytes(ChunkId::new(c.quality, c.tile, time), scheme))
            .sum()
    }

    #[test]
    fn respects_budget_exactly() {
        let (video, fc) = setup();
        for budget in [50_000u64, 200_000, 1_000_000, 5_000_000] {
            let choices = select_stochastic(&video, &fc, ChunkTime(0), budget, Scheme::Avc, 0.05);
            let cost = selection_cost(&video, ChunkTime(0), Scheme::Avc, &choices);
            assert!(cost <= budget, "cost {cost} > budget {budget}");
        }
    }

    #[test]
    fn utility_monotone_in_budget() {
        let (video, fc) = setup();
        let mut last = -1.0;
        for budget in [100_000u64, 400_000, 1_600_000, 6_400_000] {
            let choices = select_stochastic(&video, &fc, ChunkTime(0), budget, Scheme::Avc, 0.05);
            let u = expected_utility(&video, &fc, &choices);
            assert!(u >= last, "utility fell as budget grew: {last} -> {u}");
            last = u;
        }
    }

    #[test]
    fn probable_tiles_get_higher_quality() {
        let (video, fc) = setup();
        let choices = select_stochastic(&video, &fc, ChunkTime(0), 2_000_000, Scheme::Avc, 0.05);
        assert!(!choices.is_empty());
        // choices are sorted by probability; qualities should be
        // non-increasing modulo size jitter — check the extremes.
        let first = choices.first().expect("non-empty");
        let last = choices.last().expect("non-empty");
        assert!(
            first.quality >= last.quality,
            "most probable tile {first:?} below least probable {last:?}"
        );
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let (video, fc) = setup();
        assert!(select_stochastic(&video, &fc, ChunkTime(0), 0, Scheme::Avc, 0.05).is_empty());
    }

    #[test]
    fn improbable_tiles_excluded() {
        let (video, fc) = setup();
        let choices = select_stochastic(&video, &fc, ChunkTime(0), u64::MAX / 2, Scheme::Avc, 0.3);
        for c in &choices {
            assert!(fc.prob(c.tile) >= 0.3);
        }
        // With an unbounded budget every qualifying tile is at top quality.
        for c in &choices {
            assert_eq!(c.quality, video.ladder().top());
        }
    }

    #[test]
    fn greedy_beats_banded_selection_on_objective() {
        // The stochastic optimizer should achieve at least the expected
        // utility of the banded FoV+OOS heuristic at the same budget.
        use crate::oos::{select_oos, OosConfig};
        use crate::superchunk::SuperChunk;
        let (video, fc) = setup();
        let budget = 1_200_000u64;

        // Banded: super chunk at the affordable quality + OOS from the rest.
        let sc = SuperChunk::from_forecast(&fc, ChunkTime(0), 0.75);
        let mut banded: Vec<StochasticChoice> = Vec::new();
        let mut fov_q = Quality(0);
        for q in video.ladder().qualities() {
            if sc.bytes_at(&video, q, Scheme::Avc) <= budget * 7 / 10 {
                fov_q = q;
            }
        }
        for &tile in &sc.tiles {
            banded.push(StochasticChoice {
                tile,
                quality: fov_q,
            });
        }
        let fov_cost = selection_cost(&video, ChunkTime(0), Scheme::Avc, &banded);
        let oos = select_oos(
            &video,
            &fc,
            ChunkTime(0),
            &sc.tiles,
            fov_q,
            Scheme::Avc,
            budget.saturating_sub(fov_cost),
            &OosConfig::default(),
        );
        for c in oos {
            banded.push(StochasticChoice {
                tile: c.tile,
                quality: c.quality,
            });
        }
        let banded_util = expected_utility(&video, &fc, &banded);

        let greedy = select_stochastic(&video, &fc, ChunkTime(0), budget, Scheme::Avc, 0.05);
        let greedy_util = expected_utility(&video, &fc, &greedy);
        assert!(
            greedy_util >= banded_util * 0.98,
            "greedy {greedy_util:.3} vs banded {banded_util:.3}"
        );
    }

    #[test]
    fn deterministic() {
        let (video, fc) = setup();
        let a = select_stochastic(&video, &fc, ChunkTime(0), 800_000, Scheme::Avc, 0.05);
        let b = select_stochastic(&video, &fc, ChunkTime(0), 800_000, Scheme::Avc, 0.05);
        assert_eq!(a, b);
    }
}

/// The table-driven knapsack against the per-call form it replaced.
#[cfg(test)]
mod per_call_oracle {
    use super::*;
    use proptest::prelude::*;
    use sperke_geo::TileGrid;
    use sperke_sim::SimDuration;
    use sperke_video::{ChunkId, Ladder, Rung, VideoModelBuilder};
    use std::collections::BinaryHeap;

    /// [`select_stochastic`] as it ran before the cost table: one
    /// `chunk_bytes` call per lookup, each checking the cell and
    /// deriving the size anew, and a binary heap of open increments.
    fn select_stochastic_per_call(
        video: &VideoModel,
        forecast: &TileForecast,
        time: ChunkTime,
        budget_bytes: u64,
        scheme: Scheme,
        min_probability: f64,
    ) -> Vec<StochasticChoice> {
        let grid = video.grid();
        let bytes_at =
            |tile: TileId, q: Quality| video.chunk_bytes(ChunkId::new(q, tile, time), scheme);
        let utility: Vec<f64> = video
            .ladder()
            .qualities()
            .map(|q| tile_utility(video, q))
            .collect();
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for tile in grid.tiles() {
            let p = forecast.prob(tile);
            if p < min_probability {
                continue;
            }
            let cost = bytes_at(tile, Quality(0));
            heap.push(Candidate {
                ratio: p * utility[0] / cost.max(1) as f64,
                tile,
                quality: Quality(0),
                cost,
            });
        }
        let top = video.ladder().top();
        let mut chosen: Vec<Option<Quality>> = vec![None; grid.tile_count()];
        let mut spent: u64 = 0;
        while let Some(c) = heap.pop() {
            if spent + c.cost > budget_bytes {
                continue;
            }
            spent += c.cost;
            chosen[c.tile.index()] = Some(c.quality);
            if c.quality < top {
                let p = forecast.prob(c.tile);
                let next = c.quality.up();
                let cost = bytes_at(c.tile, next) - bytes_at(c.tile, c.quality);
                let gain = p * (utility[next.index()] - utility[c.quality.index()]);
                heap.push(Candidate {
                    ratio: gain / cost.max(1) as f64,
                    tile: c.tile,
                    quality: next,
                    cost,
                });
            }
        }
        let mut out: Vec<(f64, StochasticChoice)> = chosen
            .iter()
            .enumerate()
            .filter_map(|(i, q)| {
                q.map(|quality| {
                    let tile = TileId(i as u16);
                    (forecast.prob(tile), StochasticChoice { tile, quality })
                })
            })
            .collect();
        out.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("no NaN")
                .then(a.1.tile.cmp(&b.1.tile))
        });
        out.into_iter().map(|(_, c)| c).collect()
    }

    /// Rungs so small that every tile's base layer floors to a byte or
    /// two: under a large SVC overhead the first upgrade rounds cheaper
    /// than the base it builds on.
    fn tiny_ladder() -> Ladder {
        let rung = |bitrate_bps: f64, height: u32| Rung {
            name: format!("{height}p"),
            bitrate_bps,
            height,
        };
        Ladder::new(vec![
            rung(40.0, 1),
            rung(80.0, 2),
            rung(900.0, 3),
            rung(7_000.0, 4),
        ])
    }

    #[test]
    fn tiny_ladder_upgrades_round_cheaper_than_their_base() {
        let video = VideoModelBuilder::new(3)
            .ladder(tiny_ladder())
            .svc_overhead(0.6)
            .duration(SimDuration::from_secs(2))
            .build();
        let svc = Scheme::svc_default();
        let cheaper = video.grid().tiles().any(|tile| {
            let cost = |q| video.chunk_bytes(ChunkId::new(Quality(q), tile, ChunkTime(1)), svc);
            cost(1) - cost(0) < cost(0)
        });
        assert!(
            cheaper,
            "no tile whose first SVC upgrade undercuts its base"
        );
    }

    proptest! {
        /// Same choices in the same order, over grids, ladders, SVC
        /// overheads, chunks up to the last (a short one included),
        /// budgets from zero to past the full top-rung panorama, and
        /// probabilities at, just above and just below the threshold.
        #[test]
        fn table_knapsack_matches_per_call_knapsack(
            seed: u64,
            rows in 1u16..5,
            cols in 1u16..9,
            ladder in 0u8..4,
            overhead in (any::<bool>(), 0.0f64..0.9),
            duration_ms in 1u64..5_000,
            chunk_ms in 200u64..2_000,
            chunk_pick in (0u8..3, any::<u32>()),
            min_probability in (0u8..3, 0.0f64..0.9),
            probs in proptest::collection::vec((0u8..5, 0.0f64..1.0), 32),
            budget_frac in (0u8..4, 0.0f64..1.2),
            svc: bool,
        ) {
            let ladder = match ladder {
                0 => Ladder::vod_default(),
                1 => Ladder::youtube_live(),
                2 => Ladder::facebook_live(),
                _ => tiny_ladder(),
            };
            let overhead = if overhead.0 { overhead.1 } else { 0.0 };
            let min_probability = [0.0, 0.05, min_probability.1][min_probability.0 as usize];
            let budget_frac = [0.0, 1.0, 1.5, budget_frac.1][budget_frac.0 as usize];
            let video = VideoModelBuilder::new(seed)
                .grid(TileGrid::new(rows, cols))
                .ladder(ladder)
                .svc_overhead(overhead)
                .duration(SimDuration::from_millis(duration_ms))
                .chunk_duration(SimDuration::from_millis(chunk_ms))
                .build();
            let last = video.chunk_count() - 1;
            let time = ChunkTime(match chunk_pick.0 {
                0 => 0,
                1 => last,
                _ => chunk_pick.1 % (last + 1),
            });
            // Exactly at, one ulp either side of, or anywhere around the
            // threshold; repeated values tie on ratio.
            let probs: Vec<f64> = (0..video.grid().tile_count())
                .map(|i| {
                    let (kind, p) = probs[i % probs.len()];
                    match kind {
                        0 => min_probability,
                        1 => min_probability.next_up(),
                        2 => min_probability.next_down(),
                        3 => 0.5,
                        _ => p,
                    }
                })
                .collect();
            let forecast = TileForecast::new(probs);
            let scheme = if svc { Scheme::svc_default() } else { Scheme::Avc };
            let panorama = video.panorama_bytes(video.ladder().top(), time, scheme);
            let budget = (panorama as f64 * budget_frac) as u64;
            let table = select_stochastic(&video, &forecast, time, budget, scheme, min_probability);
            let per_call =
                select_stochastic_per_call(&video, &forecast, time, budget, scheme, min_probability);
            prop_assert_eq!(table, per_call);
        }
    }
}
