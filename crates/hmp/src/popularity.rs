//! Cross-user viewing statistics: the "big data" prior (§3.2).
//!
//! "How to leverage multiple users' viewing statistics of the same video
//! to guide chunk fetching — we can give popular chunks higher priorities
//! when prefetching them, thus making long-term prediction feasible."
//!
//! A [`Heatmap`] holds, per chunk time and tile, the fraction of
//! observed viewers whose viewport included that tile. It can be built
//! offline from an ensemble of [`HeadTrace`]s, or updated online one
//! observation at a time (the realtime crowd-sourcing of §3.4.2).

use crate::trace::HeadTrace;
use serde::{Deserialize, Serialize};
use sperke_geo::{TileGrid, TileId, Viewport, VisibilityScratch};
use sperke_sim::{SimDuration, SimTime};
use sperke_video::ChunkTime;

/// Per-(chunk, tile) view-probability table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    grid: TileGrid,
    chunk_duration: SimDuration,
    /// `counts[t][tile]` = number of viewers who saw the tile in chunk t.
    counts: Vec<Vec<u32>>,
    /// Number of viewers observed per chunk.
    viewers: Vec<u32>,
}

impl Heatmap {
    /// An empty heatmap for `chunks` chunk times.
    pub fn empty(grid: TileGrid, chunk_duration: SimDuration, chunks: u32) -> Heatmap {
        assert!(chunks > 0, "need at least one chunk");
        Heatmap {
            grid,
            chunk_duration,
            counts: vec![vec![0; grid.tile_count()]; chunks as usize],
            viewers: vec![0; chunks as usize],
        }
    }

    /// Build from an ensemble of traces: for every chunk window, each
    /// viewer contributes the union of tiles visible at three instants
    /// within the window (start / middle / end of chunk).
    ///
    /// Each distinct sample instant is cast once per trace: a window
    /// that starts at the instant the previous one ended reuses that
    /// end set as its start set.
    pub fn build(
        grid: TileGrid,
        chunk_duration: SimDuration,
        chunks: u32,
        traces: &[HeadTrace],
    ) -> Heatmap {
        let mut map = Heatmap::empty(grid, chunk_duration, chunks);
        let mut scratch = VisibilityScratch::new();
        // The visible sets at the window's start, middle and end.
        let mut sets: [Vec<TileId>; 3] = Default::default();
        let mut union = Vec::new();
        for trace in traces {
            let mut last_end: Option<SimTime> = None;
            for t in 0..chunks {
                let start = SimTime::ZERO + chunk_duration * t as u64;
                let instants = [0.0, 0.5, 1.0].map(|frac| start + chunk_duration.mul_f64(frac));
                for (i, &at) in instants.iter().enumerate() {
                    if i == 0 && last_end == Some(at) {
                        sets.swap(0, 2);
                    } else {
                        Viewport::headset(trace.at(at)).visible_tile_set_into(
                            &grid,
                            &mut scratch,
                            &mut sets[i],
                        );
                    }
                }
                last_end = Some(instants[2]);
                union.clear();
                for set in &sets {
                    union.extend_from_slice(set);
                }
                union.sort();
                union.dedup();
                map.record(ChunkTime(t), &union);
            }
        }
        map
    }

    /// Record one viewer's visible-tile set for a chunk (online update).
    pub fn record(&mut self, t: ChunkTime, tiles: &[TileId]) {
        let idx = t.index();
        assert!(idx < self.counts.len(), "chunk beyond heatmap");
        self.viewers[idx] += 1;
        let mut seen = vec![false; self.grid.tile_count()];
        for &tile in tiles {
            if !seen[tile.index()] {
                seen[tile.index()] = true;
                self.counts[idx][tile.index()] += 1;
            }
        }
    }

    /// Number of chunk times covered.
    pub fn chunks(&self) -> u32 {
        self.counts.len() as u32
    }

    /// The tile grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Viewers observed for chunk `t`.
    pub fn viewer_count(&self, t: ChunkTime) -> u32 {
        self.viewers[t.index()]
    }

    /// Probability that a viewer's viewport includes `tile` during chunk
    /// `t`. With no observations, falls back to a uniform prior equal to
    /// the tile's share of the sphere scaled by a typical FoV footprint.
    pub fn tile_probability(&self, t: ChunkTime, tile: TileId) -> f64 {
        let idx = t.index().min(self.counts.len() - 1);
        let n = self.viewers[idx];
        if n == 0 {
            // Uninformed prior: a headset FoV covers roughly 1/5 of the
            // sphere; spread that probability by tile solid angle.
            let share = self.grid.rect(tile).solid_angle() / (4.0 * std::f64::consts::PI);
            return (share * 5.0).min(1.0);
        }
        self.counts[idx][tile.index()] as f64 / n as f64
    }

    /// Tiles ordered by descending probability for chunk `t` (ties by id).
    pub fn ranked_tiles(&self, t: ChunkTime) -> Vec<(TileId, f64)> {
        let mut v: Vec<(TileId, f64)> = self
            .grid
            .tiles()
            .map(|tile| (tile, self.tile_probability(t, tile)))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
        v
    }

    /// The `k` most-viewed tiles for chunk `t`, best first — the prefetch
    /// working set an edge server pre-warms for a crowd.
    ///
    /// The ordering is explicitly total: raw view count descending, ties
    /// broken by ascending tile index, compared as integers so no float
    /// round-trip can perturb the cut. Because every probability at a
    /// chunk shares one denominator (the viewer count), this is the same
    /// order [`Heatmap::ranked_tiles`] produces — but it stays total under
    /// any sequence of [`Heatmap::merge`]s, which cross-edge heatmap
    /// sharing relies on for order-independent prefetch digests. With no
    /// observations the solid-angle prior ranking is used instead.
    pub fn top_k(&self, t: ChunkTime, k: usize) -> Vec<TileId> {
        let idx = t.index().min(self.counts.len() - 1);
        if self.viewers[idx] == 0 {
            return self
                .ranked_tiles(t)
                .into_iter()
                .take(k)
                .map(|(tile, _)| tile)
                .collect();
        }
        let counts = &self.counts[idx];
        let mut tiles: Vec<TileId> = self.grid.tiles().collect();
        tiles.sort_by(|a, b| counts[b.index()].cmp(&counts[a.index()]).then(a.cmp(b)));
        tiles.truncate(k);
        tiles
    }

    /// Shannon entropy (bits) of the normalized tile distribution at `t`:
    /// low entropy = consensus (good for long-horizon prediction),
    /// high entropy = viewers scattered.
    pub fn entropy(&self, t: ChunkTime) -> f64 {
        let probs: Vec<f64> = self
            .grid
            .tiles()
            .map(|tile| self.tile_probability(t, tile))
            .collect();
        let total: f64 = probs.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        -probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| {
                let q = p / total;
                q * q.log2()
            })
            .sum::<f64>()
    }

    /// Merge another heatmap's observations into this one (same shape).
    pub fn merge(&mut self, other: &Heatmap) {
        assert_eq!(self.grid, other.grid, "grids must match");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "chunk counts must match"
        );
        for (mine, theirs) in self.viewers.iter_mut().zip(&other.viewers) {
            *mine += theirs;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_ensemble, AttentionModel};
    use sperke_geo::Orientation;

    fn fixed_trace(yaw_deg: f64) -> HeadTrace {
        HeadTrace::from_fn(SimDuration::from_secs(4), move |_| {
            Orientation::from_degrees(yaw_deg, 0.0, 0.0)
        })
    }

    #[test]
    fn record_and_probability() {
        let grid = TileGrid::new(2, 4);
        let mut map = Heatmap::empty(grid, SimDuration::from_secs(1), 2);
        map.record(ChunkTime(0), &[TileId(0), TileId(1)]);
        map.record(ChunkTime(0), &[TileId(1)]);
        assert_eq!(map.viewer_count(ChunkTime(0)), 2);
        assert_eq!(map.tile_probability(ChunkTime(0), TileId(1)), 1.0);
        assert_eq!(map.tile_probability(ChunkTime(0), TileId(0)), 0.5);
        assert_eq!(map.tile_probability(ChunkTime(0), TileId(5)), 0.0);
    }

    #[test]
    fn duplicate_tiles_in_one_record_count_once() {
        let grid = TileGrid::new(2, 4);
        let mut map = Heatmap::empty(grid, SimDuration::from_secs(1), 1);
        map.record(ChunkTime(0), &[TileId(3), TileId(3), TileId(3)]);
        assert_eq!(map.tile_probability(ChunkTime(0), TileId(3)), 1.0);
        assert_eq!(map.viewer_count(ChunkTime(0)), 1);
    }

    #[test]
    fn unobserved_chunk_uses_uniform_prior() {
        let grid = TileGrid::new(2, 4);
        let map = Heatmap::empty(grid, SimDuration::from_secs(1), 1);
        let p = map.tile_probability(ChunkTime(0), TileId(4));
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn build_from_consensus_traces_finds_hotspot() {
        let grid = TileGrid::new(4, 6);
        // All viewers stare at yaw=0 -> the front tiles dominate.
        let traces: Vec<HeadTrace> = (0..5).map(|_| fixed_trace(0.0)).collect();
        let map = Heatmap::build(grid, SimDuration::from_secs(1), 4, &traces);
        let top = map.ranked_tiles(ChunkTime(2))[0].0;
        let front = grid.tile_of_direction(sperke_geo::Vec3::X);
        // Front tile must be at probability 1; top tile is one of the
        // tiles around the gaze.
        assert_eq!(map.tile_probability(ChunkTime(2), front), 1.0);
        assert!(map.tile_probability(ChunkTime(2), top) >= 1.0 - 1e-9);
        // Tiles behind the viewer are at 0.
        let behind = grid.tile_of_direction(-sperke_geo::Vec3::X);
        assert_eq!(map.tile_probability(ChunkTime(2), behind), 0.0);
    }

    #[test]
    fn build_matches_three_casts_per_window() {
        let grid = TileGrid::new(4, 6);
        let traces =
            generate_ensemble(&AttentionModel::generic(5), 3, SimDuration::from_secs(6), 9);
        // A round and an odd chunk length. Either way a window's end
        // instant is the next window's start, so each window after a
        // trace's first reuses the previous end set.
        for cd in [
            SimDuration::from_secs(1),
            SimDuration::from_nanos(333_333_333),
        ] {
            let mut expected = Heatmap::empty(grid, cd, 5);
            for trace in &traces {
                for t in 0..5u32 {
                    let start = SimTime::ZERO + cd * t as u64;
                    let mut tiles: Vec<TileId> = [0.0, 0.5, 1.0]
                        .iter()
                        .flat_map(|&frac| {
                            Viewport::headset(trace.at(start + cd.mul_f64(frac)))
                                .visible_tile_set(&grid)
                        })
                        .collect();
                    tiles.sort();
                    tiles.dedup();
                    expected.record(ChunkTime(t), &tiles);
                }
            }
            assert_eq!(Heatmap::build(grid, cd, 5, &traces), expected);
        }
    }

    #[test]
    fn entropy_lower_for_consensus_than_scatter() {
        let grid = TileGrid::new(4, 6);
        let consensus: Vec<HeadTrace> = (0..6).map(|_| fixed_trace(0.0)).collect();
        let scattered: Vec<HeadTrace> = (0..6)
            .map(|i| fixed_trace(i as f64 * 60.0 - 180.0))
            .collect();
        let hc = Heatmap::build(grid, SimDuration::from_secs(1), 2, &consensus);
        let hs = Heatmap::build(grid, SimDuration::from_secs(1), 2, &scattered);
        assert!(
            hc.entropy(ChunkTime(0)) < hs.entropy(ChunkTime(0)),
            "consensus {:.2} vs scatter {:.2}",
            hc.entropy(ChunkTime(0)),
            hs.entropy(ChunkTime(0))
        );
    }

    #[test]
    fn merge_adds_observations() {
        let grid = TileGrid::new(2, 4);
        let mut a = Heatmap::empty(grid, SimDuration::from_secs(1), 1);
        let mut b = Heatmap::empty(grid, SimDuration::from_secs(1), 1);
        a.record(ChunkTime(0), &[TileId(0)]);
        b.record(ChunkTime(0), &[TileId(0)]);
        b.record(ChunkTime(0), &[TileId(1)]);
        a.merge(&b);
        assert_eq!(a.viewer_count(ChunkTime(0)), 3);
        assert!((a.tile_probability(ChunkTime(0), TileId(0)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ensemble_heatmap_tracks_generated_hotspot() {
        let att = AttentionModel::stage(5);
        let traces = generate_ensemble(&att, 8, SimDuration::from_secs(8), 17);
        let grid = TileGrid::new(4, 6);
        let map = Heatmap::build(grid, SimDuration::from_secs(1), 8, &traces);
        let stage_tile = grid.tile_of_direction(att.hotspots()[0].position(4.0).direction());
        let p = map.tile_probability(ChunkTime(4), stage_tile);
        assert!(p > 0.5, "stage tile only at p={p}");
    }

    #[test]
    fn top_k_order_is_total_and_matches_ranked_tiles() {
        let grid = TileGrid::new(2, 4);
        let mut map = Heatmap::empty(grid, SimDuration::from_secs(1), 1);
        // Deliberate count ties: tiles 1 and 5 both at 1, tiles 2 and 6
        // both at 2 — the cut must order ties by ascending tile index.
        map.record(ChunkTime(0), &[TileId(2), TileId(6), TileId(1)]);
        map.record(ChunkTime(0), &[TileId(2), TileId(6), TileId(5)]);
        let top = map.top_k(ChunkTime(0), 4);
        assert_eq!(top, vec![TileId(2), TileId(6), TileId(1), TileId(5)]);
        // The integer order agrees with the float ranking end to end.
        let ranked: Vec<TileId> = map
            .ranked_tiles(ChunkTime(0))
            .into_iter()
            .map(|(tile, _)| tile)
            .collect();
        assert_eq!(map.top_k(ChunkTime(0), 8), ranked);
        // Unobserved chunks fall back to the prior ranking.
        let empty = Heatmap::empty(grid, SimDuration::from_secs(1), 1);
        let prior: Vec<TileId> = empty
            .ranked_tiles(ChunkTime(0))
            .into_iter()
            .take(3)
            .map(|(tile, _)| tile)
            .collect();
        assert_eq!(empty.top_k(ChunkTime(0), 3), prior);
    }

    #[test]
    fn top_k_invariant_under_merge_order() {
        let grid = TileGrid::new(4, 6);
        let mut parts: Vec<Heatmap> = Vec::new();
        for yaw in [0.0, 90.0, -90.0, 180.0] {
            let traces: Vec<HeadTrace> = (0..3).map(|_| fixed_trace(yaw)).collect();
            parts.push(Heatmap::build(grid, SimDuration::from_secs(1), 2, &traces));
        }
        let fold = |order: &[usize]| {
            let mut acc = Heatmap::empty(grid, SimDuration::from_secs(1), 2);
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc.top_k(ChunkTime(0), 6)
        };
        let forward = fold(&[0, 1, 2, 3]);
        assert_eq!(forward, fold(&[3, 2, 1, 0]));
        assert_eq!(forward, fold(&[2, 0, 3, 1]));
    }

    #[test]
    fn ranked_tiles_are_sorted() {
        let grid = TileGrid::new(2, 4);
        let mut map = Heatmap::empty(grid, SimDuration::from_secs(1), 1);
        map.record(ChunkTime(0), &[TileId(2)]);
        map.record(ChunkTime(0), &[TileId(2), TileId(3)]);
        let ranked = map.ranked_tiles(ChunkTime(0));
        assert_eq!(ranked[0].0, TileId(2));
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
