//! Guard-banded direction→tile classification.
//!
//! [`TileGrid::tile_of_direction`] costs two normalizations, an
//! `atan2` and an `asin` per query. Ray-grid visibility sampling
//! (256 rays per pose at the default density) spends most of the
//! edge-simulation sense phase inside exactly that chain. A
//! [`TileClassifier`] answers the same query with a handful of
//! multiply-compares — and it answers it **bit-identically**, which the
//! golden traces require.
//!
//! # Why comparisons can be exact
//!
//! The equirect tile of a direction depends only on which yaw sector
//! and pitch band the direction falls in. Sector membership is a sign
//! test against the boundary direction (a 2-D cross product); band
//! membership is a comparison of `z/|v|` against the sine of the
//! boundary pitch. Those tests involve rounding, and the exact path
//! (`normalize → normalize → atan2/asin → scale → floor`) involves
//! different rounding, so the two formulations could disagree — but
//! only for directions within a few ulps (≲1e-14 radians) of a tile
//! boundary. The classifier therefore keeps a **guard band** of 1e-9
//! radians around every boundary: queries inside any band take the
//! original exact path, queries outside are decided by comparisons that
//! provably agree with it (libm's `atan2`/`asin` are well under 1e-9
//! away from correctly rounded, and the floor-chain's flip points sit
//! within a few ulps of the true boundary). The band is ~10⁵× wider
//! than any rounding effect yet a 16×16 ray grid virtually never lands
//! in it, so the fast path serves ≫99.9% of real queries.
//!
//! The classifier accepts **unnormalized** vectors: callers that build
//! rays as `f + l·x + u·y` skip their own `normalized()` too (the
//! fallback normalizes exactly like the original call chain did).
//!
//! # Hinted queries
//!
//! Neighbouring rays of a ray grid mostly share a tile, so
//! [`TileClassifier::classify_hinted`] first asks whether the direction
//! lies in a hinted tile (the previous ray's): two cross products against
//! that tile's own yaw boundaries, and a band test on squares
//! (`z²` against `sin²·|v|²`, no square root or division) whose limits
//! sit two guards inside the band. A direction that passes is more than
//! a guard from every boundary, so the comparisons decide it exactly as
//! the full test would; any other direction takes the full test.

use crate::tiling::{TileGrid, TileId};
use crate::vector::Vec3;
use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// Half-width of the guard band: queries closer than this (radians for
/// yaw sectors, in `sin(pitch)` units for pitch bands — the two scales
/// differ by at most ~2.6× for the band boundaries of practical grids)
/// to a tile boundary are answered by the exact path.
const GUARD: f64 = 1e-9;

/// How far inside its pitch band a hinted tile's limits sit, in
/// `sin(pitch)` units. One guard more than the full test keeps: the
/// squared comparisons err by a few ulps, so a direction they accept is
/// still more than [`GUARD`] inside the band.
const HINT_INSET: f64 = 2.0 * GUARD;

/// One tile's own boundaries, tabulated for the hinted test.
#[derive(Debug, Clone, Copy)]
struct TileBounds {
    /// `(cos θ, sin θ)` of the tile's sector boundaries: the yaw it
    /// starts at and the yaw it ends at.
    west: (f64, f64),
    east: (f64, f64),
    /// The band's `sin(pitch)` limits, pulled in by [`HINT_INSET`], and
    /// their squares; ±∞ on a side with no boundary (the polar rows).
    lo: f64,
    lo2: f64,
    hi: f64,
    hi2: f64,
}

impl TileBounds {
    /// Whether `v` (with squared norm `n2`, finite and not degenerate)
    /// lies in the tile at least a guard band from each of its
    /// boundaries. `false` decides nothing: the caller runs the full
    /// test.
    #[inline]
    fn holds(&self, v: Vec3, n2: f64) -> bool {
        let (x, y, z) = (v.x, v.y, v.z);
        // Inside the sector: past its start boundary (positive cross
        // product) and short of its end (negative), each by the guard.
        // A sector spans less than π, so the two half-planes meet in it
        // alone.
        let g = GUARD * (x.abs() + y.abs());
        let (cw, sw) = self.west;
        let (ce, se) = self.east;
        if !(cw * y - sw * x > g && ce * y - se * x < -g) {
            return false;
        }
        // Inside the band: z/|v| above `lo` and below `hi`, compared on
        // squares with each limit's sign.
        let z2 = z * z;
        let above = if self.lo < 0.0 {
            z >= 0.0 || z2 < self.lo2 * n2
        } else {
            z > 0.0 && z2 > self.lo2 * n2
        };
        let below = if self.hi > 0.0 {
            z <= 0.0 || z2 < self.hi2 * n2
        } else {
            z < 0.0 && z2 > self.hi2 * n2
        };
        above && below
    }
}

/// Precomputed boundary tables mapping directions to tiles of one
/// [`TileGrid`], bit-identical to
/// `grid.tile_of_direction(v.normalized())` by construction (see the
/// module docs for the argument; the test suite fuzzes it).
#[derive(Debug, Clone)]
pub struct TileClassifier {
    grid: TileGrid,
    /// `(cos θ_k, sin θ_k)` for the yaw sector boundaries
    /// `θ_k = −π + k·2π/cols`, `k = 0..cols`. Empty when `cols < 3`
    /// (those cases use dedicated tests below).
    col_bounds: Vec<(f64, f64)>,
    /// `sin(pitch_m)` for the pitch band boundaries
    /// `pitch_m = π/2 − m·π/rows`, `m = 1..rows`, strictly decreasing.
    row_sins: Vec<f64>,
    /// Each tile's own boundaries for the hinted test, by tile id.
    /// Empty when `cols < 3`: those grids ignore hints.
    bounds: Vec<TileBounds>,
}

impl TileClassifier {
    /// Tabulate the boundaries of `grid`.
    pub fn new(grid: TileGrid) -> TileClassifier {
        let cols = grid.cols as usize;
        let rows = grid.rows as usize;
        let col_bounds = if cols >= 3 {
            (0..cols)
                .map(|k| {
                    let th = -PI + k as f64 * (TAU / cols as f64);
                    (th.cos(), th.sin())
                })
                .collect()
        } else {
            Vec::new()
        };
        let row_sins: Vec<f64> = (1..rows)
            .map(|m| (FRAC_PI_2 - m as f64 * (PI / rows as f64)).sin())
            .collect();
        // A limit within a guard of zero moves to the stricter side of
        // it, so its square never underflows against `|v|²`.
        let band = |row: usize| {
            let lo = match row_sins.get(row) {
                Some(&s) if (s + HINT_INSET).abs() < GUARD => GUARD,
                Some(&s) => s + HINT_INSET,
                None => f64::NEG_INFINITY,
            };
            let hi = match row.checked_sub(1).map(|m| row_sins[m]) {
                Some(s) if (s - HINT_INSET).abs() < GUARD => -GUARD,
                Some(s) => s - HINT_INSET,
                None => f64::INFINITY,
            };
            (lo, hi)
        };
        let bounds = if cols >= 3 {
            grid.tiles()
                .map(|tile| {
                    let (row, col) = grid.position(tile);
                    let (lo, hi) = band(row as usize);
                    TileBounds {
                        west: col_bounds[col as usize],
                        east: col_bounds[(col as usize + 1) % cols],
                        lo,
                        lo2: lo * lo,
                        hi,
                        hi2: hi * hi,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        TileClassifier {
            grid,
            col_bounds,
            row_sins,
            bounds,
        }
    }

    /// The grid the tables were built for.
    pub fn grid(&self) -> TileGrid {
        self.grid
    }

    /// The exact path the classifier must agree with.
    #[cold]
    fn exact(&self, v: Vec3) -> TileId {
        self.grid.tile_of_direction(v.normalized())
    }

    /// The tile containing direction `v` (which need not be
    /// normalized), testing `hint` first; returns exactly what
    /// `grid.tile_of_direction(v.normalized())` returns, whatever the
    /// hint. A hint that holds saves the full test (see the module
    /// docs); one that fails costs two cross products.
    #[inline]
    pub fn classify_hinted(&self, v: Vec3, hint: Option<TileId>) -> TileId {
        let n2 = v.x * v.x + v.y * v.y + v.z * v.z;
        // Degenerate or non-finite input: defer to the original chain
        // (which maps near-zero vectors to +X, NaN to tile 0).
        if !(n2.is_finite() && n2 >= 1e-24) {
            return self.exact(v);
        }
        if let Some(tile) = hint {
            if self
                .bounds
                .get(tile.index())
                .is_some_and(|b| b.holds(v, n2))
            {
                return tile;
            }
        }
        self.classify(v, n2)
    }

    /// The full test for a direction `v` whose squared norm `n2` is
    /// finite and not degenerate.
    #[inline]
    fn classify(&self, v: Vec3, n2: f64) -> TileId {
        let (x, y, z) = (v.x, v.y, v.z);

        // Yaw sector from the (x, y) components alone: membership in
        // sector k is a sign pattern over cross products against the
        // boundary directions. All comparisons carry a guard of
        // GUARD·(|x|+|y|), an angular band ≥ GUARD/√2 radians.
        let cols = self.grid.cols;
        let col = if cols == 1 {
            0u16
        } else if cols == 2 {
            // Boundaries at yaw 0 and ±π: both have y = 0.
            if y.abs() <= GUARD * (x.abs() + y.abs()) {
                return self.exact(v);
            }
            if y < 0.0 {
                0 // yaw ∈ (−π, 0) → u ∈ (0, 0.5)
            } else {
                1
            }
        } else {
            let g = GUARD * (x.abs() + y.abs());
            let nb = self.col_bounds.len();
            // c_k = sin(yaw − θ_k)·r flips sign exactly once around the
            // circle (+ arc then − arc, each spanning π > sector width),
            // so sector k is the single +→− transition.
            let mut col = u16::MAX;
            let mut first = 0.0f64;
            let mut prev = 0.0f64;
            for (k, &(ck, sk)) in self.col_bounds.iter().enumerate() {
                let c = ck * y - sk * x;
                if c.abs() <= g {
                    return self.exact(v);
                }
                if k == 0 {
                    first = c;
                } else if prev > 0.0 && c < 0.0 {
                    col = (k - 1) as u16;
                }
                prev = c;
            }
            if col == u16::MAX {
                // The transition wraps: sector nb−1 spans up to +π.
                if prev > 0.0 && first < 0.0 {
                    (nb - 1) as u16
                } else {
                    return self.exact(v);
                }
            } else {
                col
            }
        };

        // Pitch band from z/|v| against the boundary sines. Band
        // boundaries of an r-row grid satisfy |pitch_m| ≤ π/2 − π/r, so
        // d(sin)/d(pitch) ≥ sin(π/r) and the GUARD in sin-space covers
        // an angular band within ~2.6× of GUARD for r ≤ 8 (wider rows
        // are even safer). The pole clamps in the exact path only bite
        // strictly inside the extreme bands, never at a boundary.
        let row = if self.row_sins.is_empty() {
            0u16
        } else {
            let zn = z / n2.sqrt();
            let mut row = 0u16;
            for &zm in &self.row_sins {
                if (zn - zm).abs() <= GUARD {
                    return self.exact(v);
                }
                if zn < zm {
                    row += 1;
                }
            }
            row
        };

        self.grid.id_at(row, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::Orientation;

    /// `v`'s tile through the hinted entry under every possible hint
    /// (none, then each tile of the grid), checked against the exact
    /// path each time.
    fn classify_all_hints(cls: &TileClassifier, v: Vec3, what: &dyn Fn() -> String) {
        let grid = cls.grid();
        let exact = grid.tile_of_direction(v.normalized());
        for hint in std::iter::once(None).chain(grid.tiles().map(Some)) {
            assert_eq!(
                cls.classify_hinted(v, hint),
                exact,
                "grid {grid:?} hint {hint:?} {}",
                what()
            );
        }
    }

    fn grids() -> Vec<TileGrid> {
        vec![
            TileGrid::new(2, 4),
            TileGrid::new(4, 6),
            TileGrid::new(3, 7),
            TileGrid::new(1, 1),
            TileGrid::new(1, 2),
            TileGrid::new(2, 2),
            TileGrid::new(8, 12),
            TileGrid::new(5, 3),
        ]
    }

    #[test]
    fn matches_exact_on_angle_sweep() {
        for grid in grids() {
            let cls = TileClassifier::new(grid);
            let mut held = 0;
            for i in 0..360 {
                for j in 0..90 {
                    let yaw = (i as f64 - 180.0).to_radians() + 1e-4;
                    let pitch = (j as f64 * 2.0 - 89.0).to_radians() + 3e-5;
                    let d = Orientation::new(yaw, pitch, 0.0).direction() * 1.37;
                    classify_all_hints(&cls, d, &|| format!("yaw {yaw} pitch {pitch}"));
                    let tile = grid.tile_of_direction(d.normalized());
                    if cls
                        .bounds
                        .get(tile.index())
                        .is_some_and(|b| b.holds(d, d.dot(d)))
                    {
                        held += 1;
                    }
                }
            }
            // The right hint settles nearly every sweep direction
            // without the full test; the narrow grids ignore hints.
            if grid.cols >= 3 {
                assert!(held > 360 * 90 * 99 / 100, "grid {grid:?}: {held} held");
            } else {
                assert_eq!(held, 0);
            }
        }
    }

    #[test]
    fn matches_exact_at_and_near_boundaries() {
        // Directions straddling every yaw sector and pitch band
        // boundary at offsets spanning deep inside the guard band to
        // far outside it.
        let offsets = [
            0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-10, -1e-10, 2e-9, -2e-9, 1e-7, -1e-7, 1e-3, -1e-3,
        ];
        for grid in grids() {
            let cls = TileClassifier::new(grid);
            for k in 0..grid.cols {
                let th = -PI + k as f64 * (TAU / grid.cols as f64);
                for &dy in &offsets {
                    for &pitch in &[-1.2, -0.3, 0.0, 0.4, 1.1] {
                        let d = Orientation::new(th + dy, pitch, 0.0).direction();
                        classify_all_hints(&cls, d, &|| format!("col boundary {k} offset {dy}"));
                    }
                }
            }
            for m in 1..grid.rows {
                let pm = FRAC_PI_2 - m as f64 * (PI / grid.rows as f64);
                for &dp in &offsets {
                    for &yaw in &[-3.0, -0.7, 0.0, 0.2, 2.9] {
                        let d = Orientation::new(yaw, pm + dp, 0.0).direction();
                        classify_all_hints(&cls, d, &|| format!("row boundary {m} offset {dp}"));
                    }
                }
            }
        }
    }

    #[test]
    fn matches_exact_at_poles_wrap_and_degenerates() {
        let vecs = [
            Vec3::Z,
            -Vec3::Z,
            Vec3::new(1e-14, -3e-15, 0.9),
            Vec3::new(-1e-300, 1e-300, -1.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(-1.0, -0.0, 0.0),
            Vec3::new(-1.0, 1e-13, 0.3),
            Vec3::new(-1.0, -1e-13, -0.3),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1e-20, 0.0, 0.0),
            Vec3::X,
            Vec3::Y,
            -Vec3::Y,
        ];
        for grid in grids() {
            let cls = TileClassifier::new(grid);
            for &v in &vecs {
                classify_all_hints(&cls, v, &|| format!("v {v:?}"));
            }
        }
    }

    #[test]
    fn matches_exact_on_pseudorandom_raw_vectors() {
        // Raw (unnormalized) vectors like the ray loop produces,
        // driven by a deterministic LCG.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 6.0 - 3.0
        };
        for grid in grids() {
            let cls = TileClassifier::new(grid);
            for _ in 0..20_000 {
                let v = Vec3::new(next(), next(), next());
                classify_all_hints(&cls, v, &|| format!("v {v:?}"));
            }
        }
    }
}
