//! The synthetic panoramic video: per-tile, per-chunk byte sizes.
//!
//! Substitutes for the paper's real test clips. Sizes follow a
//! three-factor model: the ladder's panorama bitrate × the tile's share
//! of panorama bits (solid angle × spatial complexity) × deterministic
//! per-chunk jitter (temporal complexity). All randomness derives from
//! the video's seed, so a given `VideoModel` is identical across runs.
//!
//! `chunk_bytes`, `chunk_costs`, `cell_sizes` and `panorama_bytes` read
//! one flat table of every cell's AVC bytes, filled on the first size
//! query, and SVC costs read a second table of the same layout, filled
//! from the first on the first SVC query.

use crate::encoding::{CellSizes, Scheme};
use crate::ids::{ChunkId, ChunkTime, Quality};
use crate::ladder::Ladder;
use serde::{missing_field, Content, DeError, Deserialize, Serialize};
use sperke_geo::{TileGrid, TileId};
use sperke_sim::{SimDuration, SimRng, SimTime};
use std::fmt;
use std::sync::OnceLock;

/// A fully specified panoramic video.
#[derive(Debug, Clone)]
pub struct VideoModel {
    grid: TileGrid,
    ladder: Ladder,
    chunk_duration: SimDuration,
    duration: SimDuration,
    /// Frames per second of the source.
    pub fps: f64,
    svc_overhead: f64,
    /// Per-tile share of the panorama's bits; sums to 1.
    tile_weights: Vec<f64>,
    /// Amplitude of per-chunk size jitter (0 = constant bitrate).
    jitter: f64,
    seed: u64,
    /// Derived from the fields above; never serialized.
    sizes: SizeTable,
    /// Every cell's SVC cumulative bytes, laid out like `sizes`: derived
    /// from it, never serialized.
    svc_sizes: SizeTable,
}

/// One `u64` per cell and rung, at index
/// `(chunk * tiles + tile) * levels + quality`: tiles × chunks × rungs ×
/// 8 B. The video holds two, the monotone-fixed AVC bytes and the SVC
/// cumulative bytes derived from them. Each is filled on its first query
/// rather than in [`VideoModelBuilder::build`], so building a video stays
/// cheap and threads that query at once share one fill.
#[derive(Clone, Default)]
struct SizeTable(OnceLock<Box<[u64]>>);

impl fmt::Debug for SizeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            Some(table) => write!(f, "SizeTable({} entries)", table.len()),
            None => f.write_str("SizeTable(unfilled)"),
        }
    }
}

// Hand-written because the vendored derive has no `#[serde(skip)]`: the
// JSON is exactly what the derive emits for the fields without the size
// table, and a deserialized model refills the table on first use.
impl Serialize for VideoModel {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("grid".into(), self.grid.to_content()),
            ("ladder".into(), self.ladder.to_content()),
            ("chunk_duration".into(), self.chunk_duration.to_content()),
            ("duration".into(), self.duration.to_content()),
            ("fps".into(), self.fps.to_content()),
            ("svc_overhead".into(), self.svc_overhead.to_content()),
            ("tile_weights".into(), self.tile_weights.to_content()),
            ("jitter".into(), self.jitter.to_content()),
            ("seed".into(), self.seed.to_content()),
        ])
    }
}

impl Deserialize for VideoModel {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Map(entries) => Ok(VideoModel {
                grid: missing_field(entries, "grid")?,
                ladder: missing_field(entries, "ladder")?,
                chunk_duration: missing_field(entries, "chunk_duration")?,
                duration: missing_field(entries, "duration")?,
                fps: missing_field(entries, "fps")?,
                svc_overhead: missing_field(entries, "svc_overhead")?,
                tile_weights: missing_field(entries, "tile_weights")?,
                jitter: missing_field(entries, "jitter")?,
                seed: missing_field(entries, "seed")?,
                sizes: SizeTable::default(),
                svc_sizes: SizeTable::default(),
            }),
            other => Err(DeError::expected("struct VideoModel", other)),
        }
    }
}

/// Builder for [`VideoModel`].
#[derive(Debug, Clone)]
pub struct VideoModelBuilder {
    grid: TileGrid,
    ladder: Ladder,
    chunk_duration: SimDuration,
    duration: SimDuration,
    fps: f64,
    svc_overhead: f64,
    complexity_variance: f64,
    jitter: f64,
    seed: u64,
}

impl VideoModelBuilder {
    /// Start from defaults: 4×6 grid, VoD ladder, 1 s chunks, 60 s video,
    /// 30 fps, 10 % SVC overhead.
    pub fn new(seed: u64) -> VideoModelBuilder {
        VideoModelBuilder {
            grid: TileGrid::new(4, 6),
            ladder: Ladder::vod_default(),
            chunk_duration: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(60),
            fps: 30.0,
            svc_overhead: 0.10,
            complexity_variance: 0.3,
            jitter: 0.15,
            seed,
        }
    }

    /// Set the tile grid.
    pub fn grid(mut self, grid: TileGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Set the bitrate ladder.
    pub fn ladder(mut self, ladder: Ladder) -> Self {
        self.ladder = ladder;
        self
    }

    /// Set the chunk duration (paper: "one or two seconds").
    pub fn chunk_duration(mut self, d: SimDuration) -> Self {
        assert!(!d.is_zero(), "chunk duration must be positive");
        self.chunk_duration = d;
        self
    }

    /// Set the total video duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        assert!(!d.is_zero(), "duration must be positive");
        self.duration = d;
        self
    }

    /// Set the frame rate.
    pub fn fps(mut self, fps: f64) -> Self {
        assert!(fps > 0.0);
        self.fps = fps;
        self
    }

    /// Set the SVC size overhead factor.
    pub fn svc_overhead(mut self, overhead: f64) -> Self {
        assert!(overhead >= 0.0);
        self.svc_overhead = overhead;
        self
    }

    /// Set the spatial complexity spread across tiles (0 = uniform); the
    /// size tests' knob, every model otherwise uses the default 0.3.
    #[cfg(test)]
    fn complexity_variance(mut self, v: f64) -> Self {
        assert!((0.0..1.0).contains(&v), "variance must be in [0,1)");
        self.complexity_variance = v;
        self
    }

    /// Set the per-chunk temporal size jitter amplitude (0 = CBR).
    pub fn jitter(mut self, j: f64) -> Self {
        assert!((0.0..1.0).contains(&j));
        self.jitter = j;
        self
    }

    /// Finalize the model.
    pub fn build(self) -> VideoModel {
        let mut rng = SimRng::new(self.seed).split(0xC0_11_7E_57);
        let n = self.grid.tile_count();
        // Weight = solid-angle share × lognormal-ish complexity factor.
        let mut weights: Vec<f64> = self
            .grid
            .tiles()
            .map(|t| {
                let solid = self.grid.rect(t).solid_angle();
                let complexity = (1.0 + self.complexity_variance * rng.gaussian()).max(0.2);
                solid * complexity
            })
            .collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        debug_assert_eq!(weights.len(), n);
        VideoModel {
            grid: self.grid,
            ladder: self.ladder,
            chunk_duration: self.chunk_duration,
            duration: self.duration,
            fps: self.fps,
            svc_overhead: self.svc_overhead,
            tile_weights: weights,
            jitter: self.jitter,
            seed: self.seed,
            sizes: SizeTable::default(),
            svc_sizes: SizeTable::default(),
        }
    }
}

impl VideoModel {
    /// The tile grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The bitrate ladder.
    pub fn ladder(&self) -> &Ladder {
        &self.ladder
    }

    /// Chunk duration.
    pub fn chunk_duration(&self) -> SimDuration {
        self.chunk_duration
    }

    /// Total duration.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// SVC overhead factor used by this video's scalable encoding.
    pub fn svc_overhead(&self) -> f64 {
        self.svc_overhead
    }

    /// The video's deterministic seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of chunk times (ceil of duration / chunk duration).
    pub fn chunk_count(&self) -> u32 {
        let d = self.duration.as_nanos();
        let c = self.chunk_duration.as_nanos();
        d.div_ceil(c) as u32
    }

    /// All chunk time indices.
    pub fn chunk_times(&self) -> impl Iterator<Item = ChunkTime> {
        (0..self.chunk_count()).map(ChunkTime)
    }

    /// Playback start time of chunk `t`.
    pub fn chunk_start(&self, t: ChunkTime) -> SimTime {
        SimTime::ZERO + self.chunk_duration * t.0 as u64
    }

    /// Playback deadline of chunk `t` (its start; the chunk must be
    /// present by then to avoid a stall/skip).
    pub fn chunk_deadline(&self, t: ChunkTime) -> SimTime {
        self.chunk_start(t)
    }

    /// A tile's share of panorama bits.
    fn tile_weight(&self, tile: TileId) -> f64 {
        self.tile_weights[tile.index()]
    }

    /// Deterministic per-cell jitter multiplier in `[1-j, 1+j]`.
    fn cell_jitter(&self, tile: TileId, t: ChunkTime) -> f64 {
        if self.jitter == 0.0 {
            return 1.0;
        }
        let label = (tile.0 as u64) << 32 | t.0 as u64;
        let mut rng = SimRng::new(self.seed).split(label ^ 0x7153_C0DE);
        1.0 + self.jitter * (2.0 * rng.uniform() - 1.0)
    }

    /// One rung's AVC bytes for a cell with jitter multiplier `jitter`,
    /// before the cell's monotonicity fix.
    fn rung_bytes(&self, q: Quality, tile: TileId, jitter: f64) -> u64 {
        let panorama_bits = self.ladder.bitrate(q) * self.chunk_duration.as_secs_f64();
        let bytes = panorama_bits / 8.0 * self.tile_weight(tile) * jitter;
        (bytes.round() as u64).max(1)
    }

    /// Fail closed on a cell outside the video: a flat table index would
    /// otherwise read a neighbouring cell for an out-of-range tile.
    fn check_cell(&self, tile: TileId, t: ChunkTime) {
        assert!(tile.index() < self.grid.tile_count(), "tile beyond grid");
        assert!(t.0 < self.chunk_count(), "chunk time beyond video");
    }

    /// The size table, filled on first use with one jitter draw per cell.
    fn size_table(&self) -> &[u64] {
        self.sizes.0.get_or_init(|| {
            let levels = self.ladder.levels();
            let mut table =
                Vec::with_capacity(self.chunk_count() as usize * self.grid.tile_count() * levels);
            for t in self.chunk_times() {
                for tile in self.grid.tiles() {
                    let jitter = self.cell_jitter(tile, t);
                    // Jitter is per-cell (not per-quality) so monotonicity
                    // holds by construction; enforce it anyway against
                    // pathological ladders whose rungs round alike.
                    let mut prev = 0;
                    for q in self.ladder.qualities() {
                        prev = self.rung_bytes(q, tile, jitter).max(prev + 1);
                        table.push(prev);
                    }
                }
            }
            table.into_boxed_slice()
        })
    }

    /// The SVC cumulative bytes of every cell and rung, in the size
    /// table's layout, filled from it on first use: each entry is the
    /// cell's [`CellSizes::svc_cumulative`], so SVC rounding keeps one
    /// definition.
    fn svc_table(&self) -> &[u64] {
        self.svc_sizes.0.get_or_init(|| {
            let levels = self.ladder.levels();
            self.size_table()
                .chunks_exact(levels)
                .flat_map(|row| {
                    let cell = CellSizes::unchecked(row, self.svc_overhead);
                    self.ladder.qualities().map(move |q| cell.svc_cumulative(q))
                })
                .collect()
        })
    }

    /// The table of [`CellSizes::initial_cost`] under `scheme`.
    fn cost_table(&self, scheme: Scheme) -> &[u64] {
        match scheme {
            Scheme::Avc => self.size_table(),
            Scheme::Svc { .. } => self.svc_table(),
        }
    }

    /// The full size table of one cell across all qualities: a borrowed
    /// row of the video's size table, strictly increasing in quality.
    pub fn cell_sizes(&self, tile: TileId, t: ChunkTime) -> CellSizes<'_> {
        self.check_cell(tile, t);
        let levels = self.ladder.levels();
        let start = (t.index() * self.grid.tile_count() + tile.index()) * levels;
        CellSizes::unchecked(&self.size_table()[start..start + levels], self.svc_overhead)
    }

    /// Bytes of a chunk under the given encoding scheme (initial fetch).
    ///
    /// SVC sizes use this video's [`svc_overhead`](Self::svc_overhead),
    /// never the `overhead` of the [`Scheme::Svc`] argument.
    pub fn chunk_bytes(&self, id: ChunkId, scheme: Scheme) -> u64 {
        assert!(self.ladder.contains(id.quality), "quality beyond ladder");
        assert!(id.tile.index() < self.grid.tile_count(), "tile beyond grid");
        let levels = self.ladder.levels();
        self.chunk_costs(id.time, scheme)[id.tile.index() * levels + id.quality.index()]
    }

    /// Every tile's [`chunk_bytes`](Self::chunk_bytes) at every rung of
    /// chunk `t` under `scheme`: one borrowed row of the size tables,
    /// indexed `tile * levels + quality`. A caller pricing many cells of
    /// one chunk checks the chunk once here; a tile beyond the grid
    /// indexes past the row's end. The table holds whole rows for the
    /// video's chunks only, so its length bounds `t` without a division.
    pub fn chunk_costs(&self, t: ChunkTime, scheme: Scheme) -> &[u64] {
        let len = self.grid.tile_count() * self.ladder.levels();
        let table = self.cost_table(scheme);
        let start = t.index() * len;
        assert!(start < table.len(), "chunk time beyond video");
        &table[start..start + len]
    }

    /// Total bytes of the whole panorama at quality `q` for chunk `t`
    /// (what a FoV-agnostic player downloads per chunk period).
    pub fn panorama_bytes(&self, q: Quality, t: ChunkTime, scheme: Scheme) -> u64 {
        self.grid
            .tiles()
            .map(|tile| self.chunk_bytes(ChunkId::new(q, tile, t), scheme))
            .sum()
    }

    /// Peak per-chunk rate of the whole panorama at quality `q`, in
    /// bits/second: the smallest per-viewer budget that affords the
    /// full panorama at `q` in every chunk.
    pub fn panorama_peak_bps(&self, q: Quality, scheme: Scheme) -> f64 {
        let peak = self
            .chunk_times()
            .map(|t| self.panorama_bytes(q, t, scheme))
            .max()
            .unwrap_or(0);
        peak as f64 * 8.0 / self.chunk_duration().as_secs_f64()
    }

    /// Server storage footprint in bytes for the *tiling* approach:
    /// every tile at every quality (AVC), plus optionally the SVC copies.
    pub fn tiling_storage_bytes(&self, include_svc: bool) -> u64 {
        let mut total = 0u64;
        for t in self.chunk_times() {
            for tile in self.grid.tiles() {
                let sizes = self.cell_sizes(tile, t);
                for q in self.ladder.qualities() {
                    total += sizes.avc(q);
                    if include_svc {
                        total += sizes.svc_layer(crate::ids::Layer(q.0));
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video() -> VideoModel {
        VideoModelBuilder::new(7)
            .duration(SimDuration::from_secs(10))
            .build()
    }

    #[test]
    fn deterministic_across_builds() {
        let a = video();
        let b = video();
        let id = ChunkId::new(Quality(2), TileId(5), ChunkTime(3));
        assert_eq!(
            a.chunk_bytes(id, Scheme::Avc),
            b.chunk_bytes(id, Scheme::Avc)
        );
        assert_eq!(a.tile_weight(TileId(9)), b.tile_weight(TileId(9)));
    }

    #[test]
    fn weights_sum_to_one() {
        let v = video();
        let sum: f64 = v.grid().tiles().map(|t| v.tile_weight(t)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chunk_count_rounds_up() {
        let v = VideoModelBuilder::new(1)
            .duration(SimDuration::from_millis(2500))
            .chunk_duration(SimDuration::from_secs(1))
            .build();
        assert_eq!(v.chunk_count(), 3);
    }

    #[test]
    fn panorama_bytes_match_ladder_bitrate() {
        let v = VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(4))
            .jitter(0.0)
            .build();
        let q = Quality(1); // 8 Mbps
        let bytes = v.panorama_bytes(q, ChunkTime(0), Scheme::Avc);
        let expect = 8.0e6 / 8.0; // one second
        let err = (bytes as f64 - expect).abs() / expect;
        assert!(err < 0.01, "panorama bytes {bytes} vs expected {expect}");
    }

    #[test]
    fn panorama_peak_rate_affords_every_chunk_exactly() {
        let v = video();
        let scheme = Scheme::svc_default();
        let per_chunk = v.panorama_peak_bps(Quality(2), scheme) * v.chunk_duration().as_secs_f64();
        let budget = (per_chunk / 8.0) as u64;
        let sizes: Vec<u64> = v
            .chunk_times()
            .map(|t| v.panorama_bytes(Quality(2), t, scheme))
            .collect();
        assert!(sizes.iter().all(|&b| b <= budget));
        assert!(sizes.contains(&budget), "the peak chunk fits with no slack");
    }

    #[test]
    fn higher_quality_is_strictly_bigger() {
        let v = video();
        let sizes = v.cell_sizes(TileId(7), ChunkTime(2));
        for i in 1..v.ladder().levels() {
            assert!(sizes.avc(Quality(i as u8)) > sizes.avc(Quality((i - 1) as u8)));
        }
    }

    #[test]
    fn jitter_stays_bounded() {
        let v = VideoModelBuilder::new(11)
            .duration(SimDuration::from_secs(30))
            .jitter(0.15)
            .complexity_variance(0.0)
            .build();
        let q = Quality(0);
        // With no complexity variance, per-tile mean size is weight-proportional;
        // check per-chunk sizes stay within the jitter band around the mean.
        for tile in v.grid().tiles() {
            let sizes: Vec<f64> = v
                .chunk_times()
                .map(|t| v.chunk_bytes(ChunkId::new(q, tile, t), Scheme::Avc) as f64)
                .collect();
            let base = v.ladder().bitrate(q) / 8.0 * v.tile_weight(tile);
            for s in sizes {
                assert!(s >= base * 0.84 && s <= base * 1.16, "s={s} base={base}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_quality_rejected() {
        let v = video();
        v.chunk_bytes(
            ChunkId::new(Quality(42), TileId(0), ChunkTime(0)),
            Scheme::Avc,
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_time_rejected() {
        let v = video();
        v.chunk_bytes(
            ChunkId::new(Quality(0), TileId(0), ChunkTime(999)),
            Scheme::Avc,
        );
    }

    // An out-of-range tile at chunk 0 would index the next chunk's first
    // cell of the flat size table; the id checks must fire first.
    #[test]
    #[should_panic(expected = "tile beyond grid")]
    fn chunk_bytes_rejects_out_of_range_tile() {
        video().chunk_bytes(
            ChunkId::new(Quality(0), TileId(24), ChunkTime(0)),
            Scheme::Avc,
        );
    }

    #[test]
    #[should_panic(expected = "quality beyond ladder")]
    fn chunk_bytes_rejects_out_of_range_quality() {
        video().chunk_bytes(
            ChunkId::new(Quality(4), TileId(0), ChunkTime(0)),
            Scheme::Avc,
        );
    }

    #[test]
    #[should_panic(expected = "chunk time beyond video")]
    fn chunk_bytes_rejects_out_of_range_time() {
        video().chunk_bytes(
            ChunkId::new(Quality(0), TileId(0), ChunkTime(10)),
            Scheme::svc_default(),
        );
    }

    #[test]
    #[should_panic(expected = "chunk time beyond video")]
    fn chunk_costs_rejects_out_of_range_time() {
        video().chunk_costs(ChunkTime(10), Scheme::svc_default());
    }

    #[test]
    #[should_panic(expected = "tile beyond grid")]
    fn cell_sizes_rejects_out_of_range_tile() {
        video().cell_sizes(TileId(24), ChunkTime(0));
    }

    #[test]
    #[should_panic(expected = "chunk time beyond video")]
    fn cell_sizes_rejects_out_of_range_time() {
        video().cell_sizes(TileId(0), ChunkTime(10));
    }
}

/// The size table against the per-call derivation it replaced.
#[cfg(test)]
mod table_oracle {
    use super::*;
    use crate::ids::Layer;
    use crate::ladder::Rung;
    use proptest::prelude::*;
    use sperke_sim::parallel_indexed;
    use std::sync::Barrier;

    /// One cell as the per-call derivation computed it: each rung's
    /// own size, the monotone-fixed sizes, and the SVC cumulative sizes
    /// (computed here, independently of `CellSizes`).
    struct OracleCell {
        rung: Vec<u64>,
        avc: Vec<u64>,
        svc: Vec<u64>,
    }

    fn oracle_avc(v: &VideoModel, id: ChunkId) -> u64 {
        let jitter = if v.jitter == 0.0 {
            1.0
        } else {
            let label = (id.tile.0 as u64) << 32 | id.time.0 as u64;
            let mut rng = SimRng::new(v.seed).split(label ^ 0x7153_C0DE);
            1.0 + v.jitter * (2.0 * rng.uniform() - 1.0)
        };
        let panorama_bits = v.ladder.bitrate(id.quality) * v.chunk_duration.as_secs_f64();
        let bytes = panorama_bits / 8.0 * v.tile_weights[id.tile.index()] * jitter;
        (bytes.round() as u64).max(1)
    }

    fn oracle_cell(v: &VideoModel, tile: TileId, t: ChunkTime) -> OracleCell {
        let rung: Vec<u64> = v
            .ladder
            .qualities()
            .map(|q| oracle_avc(v, ChunkId::new(q, tile, t)))
            .collect();
        let mut avc = rung.clone();
        for i in 1..avc.len() {
            if avc[i] <= avc[i - 1] {
                avc[i] = avc[i - 1] + 1;
            }
        }
        let svc = avc
            .iter()
            .map(|&b| (b as f64 * (1.0 + v.svc_overhead)).round() as u64)
            .collect();
        OracleCell { rung, avc, svc }
    }

    /// Rungs so small that `max(1)` floors several of them to one byte,
    /// so the monotonicity fix has to bump them.
    fn tiny_ladder() -> Ladder {
        let rung = |bitrate_bps: f64, height: u32| Rung {
            name: format!("{height}p"),
            bitrate_bps,
            height,
        };
        Ladder::new(vec![
            rung(1.0, 1),
            rung(2.0, 2),
            rung(50.0, 3),
            rung(400.0, 4),
        ])
    }

    /// Every size accessor of `v` against the oracle, for every cell.
    fn check_against_oracle(v: &VideoModel) -> Result<(), TestCaseError> {
        // The argument's overhead is ignored: SVC sizes use the video's.
        let svc = Scheme::Svc { overhead: 0.37 };
        let levels = v.ladder.levels();
        for t in v.chunk_times() {
            let mut panorama = vec![(0u64, 0u64); levels];
            for tile in v.grid.tiles() {
                let o = oracle_cell(v, tile, t);
                let sizes = v.cell_sizes(tile, t);
                prop_assert_eq!(sizes.levels(), levels);
                prop_assert_eq!(sizes.overhead(), v.svc_overhead);
                for q in v.ladder.qualities() {
                    let i = q.index();
                    let id = ChunkId::new(q, tile, t);
                    prop_assert_eq!(sizes.avc(q), o.avc[i]);
                    prop_assert_eq!(sizes.svc_cumulative(q), o.svc[i]);
                    let layer = if i == 0 {
                        o.svc[0]
                    } else {
                        o.svc[i] - o.svc[i - 1]
                    };
                    prop_assert_eq!(sizes.svc_layer(Layer(q.0)), layer);
                    prop_assert_eq!(sizes.initial_cost(Scheme::Avc, q), o.avc[i]);
                    prop_assert_eq!(sizes.initial_cost(svc, q), o.svc[i]);
                    prop_assert_eq!(v.chunk_bytes(id, Scheme::Avc), o.avc[i]);
                    prop_assert_eq!(v.chunk_bytes(id, svc), o.svc[i]);
                    for have in 0..i {
                        let h = Quality(have as u8);
                        prop_assert_eq!(sizes.upgrade_cost(Scheme::Avc, h, q), o.avc[i]);
                        prop_assert_eq!(sizes.upgrade_cost(svc, h, q), o.svc[i] - o.svc[have]);
                        prop_assert_eq!(sizes.wasted_on_upgrade(Scheme::Avc, h, q), o.avc[have]);
                        prop_assert_eq!(sizes.wasted_on_upgrade(svc, h, q), 0);
                    }
                    panorama[i].0 += o.avc[i];
                    panorama[i].1 += o.svc[i];
                }
            }
            for q in v.ladder.qualities() {
                let (avc, svc_total) = panorama[q.index()];
                prop_assert_eq!(v.panorama_bytes(q, t, Scheme::Avc), avc);
                prop_assert_eq!(v.panorama_bytes(q, t, svc), svc_total);
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn table_matches_per_call_derivation(
            seed: u64,
            rows in 1u16..5,
            cols in 1u16..8,
            ladder in 0u8..4,
            jitter_on: bool,
            jitter in 0.0f64..0.99,
            overhead_on: bool,
            overhead in 0.0f64..0.5,
            variance in 0.0f64..0.9,
            duration_ms in 1u64..6_000,
            chunk_ms in 100u64..2_500,
        ) {
            let ladder = match ladder {
                0 => Ladder::vod_default(),
                1 => Ladder::youtube_live(),
                2 => Ladder::facebook_live(),
                _ => tiny_ladder(),
            };
            let v = VideoModelBuilder::new(seed)
                .grid(TileGrid::new(rows, cols))
                .ladder(ladder)
                .duration(SimDuration::from_millis(duration_ms))
                .chunk_duration(SimDuration::from_millis(chunk_ms))
                .jitter(if jitter_on { jitter } else { 0.0 })
                .svc_overhead(if overhead_on { overhead } else { 0.0 })
                .complexity_variance(variance)
                .build();
            check_against_oracle(&v)?;
        }
    }

    #[test]
    fn tiny_ladder_fires_the_monotone_fix() {
        let v = VideoModelBuilder::new(4)
            .ladder(tiny_ladder())
            .duration(SimDuration::from_millis(2_500))
            .build();
        let o = oracle_cell(&v, TileId(0), ChunkTime(2));
        assert_eq!(o.rung[..2], [1, 1], "both lowest rungs floor to one byte");
        assert_eq!(v.cell_sizes(TileId(0), ChunkTime(2)).avc(Quality(1)), 2);
        check_against_oracle(&v).unwrap();
    }

    /// The SVC table, read through `chunk_costs` and `chunk_bytes`,
    /// against `CellSizes`' own derivation for every cell and rung, and
    /// the AVC row against the AVC sizes.
    fn check_svc_table(v: &VideoModel) {
        let svc = Scheme::Svc { overhead: 0.37 };
        let levels = v.ladder.levels();
        let mut flat = Vec::new();
        for t in v.chunk_times() {
            let (svc_row, avc_row) = (v.chunk_costs(t, svc), v.chunk_costs(t, Scheme::Avc));
            assert_eq!(svc_row.len(), v.grid.tile_count() * levels);
            assert_eq!(avc_row.len(), svc_row.len());
            for tile in v.grid.tiles() {
                let sizes = v.cell_sizes(tile, t);
                for q in v.ladder.qualities() {
                    let i = tile.index() * levels + q.index();
                    let cumulative = sizes.svc_cumulative(q);
                    assert_eq!(svc_row[i], cumulative, "{tile:?} {t:?} {q:?}");
                    assert_eq!(v.chunk_bytes(ChunkId::new(q, tile, t), svc), cumulative);
                    assert_eq!(avc_row[i], sizes.avc(q));
                    flat.push(cumulative);
                }
            }
        }
        assert_eq!(v.svc_table(), &flat[..]);
    }

    #[test]
    fn svc_table_matches_cell_sizes_through_clone_and_serde() {
        let short_last = VideoModelBuilder::new(8)
            .duration(SimDuration::from_millis(4_300))
            .build();
        let overhead = VideoModelBuilder::new(9)
            .grid(TileGrid::new(3, 5))
            .ladder(Ladder::youtube_live())
            .svc_overhead(0.27)
            .duration(SimDuration::from_secs(3))
            .build();
        let tiny = VideoModelBuilder::new(4)
            .ladder(tiny_ladder())
            .svc_overhead(0.6)
            .chunk_duration(SimDuration::from_millis(700))
            .duration(SimDuration::from_millis(2_500))
            .build();
        assert_eq!(short_last.chunk_count(), 5);
        for v in [short_last, overhead, tiny] {
            let json = serde_json::to_string(&v).unwrap();
            assert!(v.svc_sizes.0.get().is_none(), "build fills no SVC table");
            check_svc_table(&v);
            // Filling the SVC table leaves the JSON as it was.
            assert_eq!(serde_json::to_string(&v).unwrap(), json);
            // A clone carries the filled table; its reads agree.
            let copy = v.clone();
            assert_eq!(copy.svc_sizes.0.get(), v.svc_sizes.0.get());
            check_svc_table(&copy);
            // A deserialized model starts unfilled and refills the same.
            let back: VideoModel = serde_json::from_str(&json).unwrap();
            assert!(back.svc_sizes.0.get().is_none());
            check_svc_table(&back);
            assert_eq!(back.svc_table(), v.svc_table());
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn racing_first_queries_share_one_identical_fill() {
        let v = VideoModelBuilder::new(21)
            .ladder(Ladder::youtube_live())
            .duration(SimDuration::from_secs(30))
            .build();
        let cells: Vec<(TileId, ChunkTime)> = v
            .chunk_times()
            .flat_map(|t| v.grid().tiles().map(move |tile| (tile, t)))
            .collect();
        // All eight workers issue their first query together, each
        // starting at a different cell, then read every row.
        let start = Barrier::new(8);
        let tables = parallel_indexed(8, 8, |w| {
            start.wait();
            let first = w * cells.len() / 8;
            let mut table = vec![0u64; cells.len() * v.ladder().levels()];
            for i in (first..cells.len()).chain(0..first) {
                let (tile, t) = cells[i];
                let row = v.cell_sizes(tile, t);
                for q in v.ladder().qualities() {
                    table[i * v.ladder().levels() + q.index()] = row.avc(q);
                }
            }
            table
        });
        let expect: Vec<u64> = cells
            .iter()
            .flat_map(|&(tile, t)| oracle_cell(&v, tile, t).avc)
            .collect();
        for table in &tables {
            assert_eq!(table, &expect);
        }
        assert_eq!(v.size_table(), &expect[..]);
    }
}
