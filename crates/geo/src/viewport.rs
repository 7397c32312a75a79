//! The user's Field of View and its mapping onto tiles.
//!
//! "The width and height of the FoV are usually fixed parameters of a VR
//! headset" (§2). A [`Viewport`] is an orientation plus fixed angular
//! extents; its key operation is computing which tiles of a [`TileGrid`]
//! are visible, and with what share of the screen.

use crate::classifier::TileClassifier;
use crate::orientation::Orientation;
use crate::tiling::{TileGrid, TileId};
use crate::vector::Vec3;
use serde::{Deserialize, Serialize};

/// A field of view: where the user looks and how wide the headset sees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Viewport {
    /// Centre orientation (head pose).
    pub orientation: Orientation,
    /// Horizontal field of view, radians.
    pub hfov: f64,
    /// Vertical field of view, radians.
    pub vfov: f64,
}

impl Viewport {
    /// A typical Cardboard-class headset FoV: 100° × 90°.
    pub fn headset(orientation: Orientation) -> Viewport {
        Viewport {
            orientation,
            hfov: 100f64.to_radians(),
            vfov: 90f64.to_radians(),
        }
    }

    /// Construct with explicit FoV extents (radians).
    pub fn new(orientation: Orientation, hfov: f64, vfov: f64) -> Viewport {
        assert!(
            hfov > 0.0 && hfov < std::f64::consts::TAU,
            "hfov out of range"
        );
        assert!(
            vfov > 0.0 && vfov < std::f64::consts::PI,
            "vfov out of range"
        );
        Viewport {
            orientation,
            hfov,
            vfov,
        }
    }

    /// Whether a world direction falls inside the FoV frustum.
    pub fn contains(&self, dir: Vec3) -> bool {
        let (f, l, u) = self.orientation.basis();
        let d = dir.normalized();
        let df = d.dot(f);
        if df <= 0.0 {
            return false; // behind the viewer
        }
        let dl = d.dot(l);
        let du = d.dot(u);
        // Angular offsets in the camera frame.
        let h = dl.atan2(df).abs();
        let v = du.atan2((df * df + dl * dl).sqrt()).abs();
        h <= self.hfov / 2.0 && v <= self.vfov / 2.0
    }

    /// The world direction of a point on the viewport plane, with
    /// `(sx, sy)` in `[-1, 1]²` (`sx` left-positive, `sy` up-positive);
    /// the frustum tests' probe.
    #[cfg(test)]
    fn ray(&self, sx: f64, sy: f64) -> Vec3 {
        let (f, l, u) = self.orientation.basis();
        let x = (self.hfov / 2.0).tan() * sx;
        let y = (self.vfov / 2.0).tan() * sy;
        (f + l * x + u * y).normalized()
    }

    /// Which tiles are on screen, and what fraction of the screen each
    /// covers. Computed by casting a `samples × samples` grid of rays
    /// (perspective-correct); fractions sum to 1.
    ///
    /// The returned list is ordered by decreasing coverage.
    ///
    /// Allocates the result and a counts buffer; steady-state callers
    /// should prefer [`Viewport::visible_tiles_into`] (zero allocation).
    pub fn visible_tiles(&self, grid: &TileGrid, samples: u32) -> Vec<(TileId, f64)> {
        let mut out = Vec::new();
        self.visible_tiles_into(grid, samples, &mut VisibilityScratch::new(), &mut out);
        out
    }

    /// Allocation-free form of [`Viewport::visible_tiles`]: the ray-grid
    /// hit counts go into `scratch` (reused across calls) and the result
    /// replaces the contents of `out`. Once `scratch` and `out` have
    /// grown to the working size, repeated queries do zero heap
    /// allocation.
    pub fn visible_tiles_into(
        &self,
        grid: &TileGrid,
        samples: u32,
        scratch: &mut VisibilityScratch,
        out: &mut Vec<(TileId, f64)>,
    ) {
        let counts = self.cast(grid, samples, scratch);
        let total = (samples * samples) as f64;
        out.clear();
        out.extend(
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (TileId(i as u16), c as f64 / total)),
        );
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
    }

    /// Just the set of visible tile ids (sorted by id), using the default
    /// sampling density.
    pub fn visible_tile_set(&self, grid: &TileGrid) -> Vec<TileId> {
        let mut tiles = Vec::new();
        self.visible_tile_set_into(grid, &mut VisibilityScratch::new(), &mut tiles);
        tiles
    }

    /// Scratch-reusing form of [`Viewport::visible_tile_set`]: the set
    /// of tiles with at least one ray hit at the default 16×16 density,
    /// read straight out of the count buffer in ascending id order (the
    /// order a coverage sort followed by an id sort would produce).
    pub fn visible_tile_set_into(
        &self,
        grid: &TileGrid,
        scratch: &mut VisibilityScratch,
        out: &mut Vec<TileId>,
    ) {
        let counts = self.cast(grid, 16, scratch);
        out.clear();
        out.extend(
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, _)| TileId(i as u16)),
        );
    }

    /// Fraction of the screen covered by `tile` (0 when off screen):
    /// the entry [`Viewport::visible_tiles`] reports for it, bit for
    /// bit, without building or sorting the list.
    pub fn tile_coverage(&self, grid: &TileGrid, tile: TileId, samples: u32) -> f64 {
        let mut scratch = VisibilityScratch::new();
        match self.cast(grid, samples, &mut scratch).get(tile.index()) {
            Some(&hits) if hits > 0 => hits as f64 / (samples * samples) as f64,
            _ => 0.0,
        }
    }

    /// The one ray cast: bins a `samples × samples` grid of rays through
    /// cell centres of the viewport plane into per-tile hit counts,
    /// returned from `scratch`.
    ///
    /// The basis and the half-FoV tangents are computed once per call,
    /// the column terms `f + l*x` once per column (kept in the scratch)
    /// and `u * y` once per row; `(f + l*x) + u*y` keeps the addition
    /// order of a per-ray construction. Each raw (unnormalized) ray is
    /// binned by the scratch's [`TileClassifier`], hinted with the
    /// previous ray's tile; whatever the hint, the result is
    /// bit-identical to normalizing the ray and binning it by its
    /// yaw/pitch angles (golden traces depend on this; see the
    /// `classifier` module docs).
    fn cast<'s>(
        &self,
        grid: &TileGrid,
        samples: u32,
        scratch: &'s mut VisibilityScratch,
    ) -> &'s [u32] {
        assert!(samples >= 2, "need at least a 2x2 sample grid");
        let (cls, counts, columns) = scratch.for_grid(grid);
        let n = samples;
        let (f, l, u) = self.orientation.basis();
        let tan_h = (self.hfov / 2.0).tan();
        let tan_v = (self.vfov / 2.0).tan();
        // Sample cell centres, not edges, to avoid double-counting corners.
        let centre = |i: u32| (i as f64 + 0.5) / n as f64 * 2.0 - 1.0;
        columns.clear();
        columns.extend((0..n).map(|ix| f + l * (tan_h * centre(ix))));
        let mut hint = None;
        for iy in 0..n {
            let uy = u * (tan_v * centre(iy));
            for &column in columns.iter() {
                let tile = cls.classify_hinted(column + uy, hint);
                counts[tile.index()] += 1;
                hint = Some(tile);
            }
        }
        counts
    }
}

/// Reusable buffers for [`Viewport::visible_tiles_into`]: holds the
/// per-tile ray-hit counts and the cast's per-column ray terms between
/// queries so the steady state does no heap allocation. One scratch
/// serves any grid shape and density (the buffers are resized, not
/// reallocated, once they have reached the largest size seen).
#[derive(Debug, Clone, Default)]
pub struct VisibilityScratch {
    counts: Vec<u32>,
    columns: Vec<Vec3>,
    classifier: Option<TileClassifier>,
}

impl VisibilityScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> VisibilityScratch {
        VisibilityScratch::default()
    }

    /// The cached classifier for `grid` (rebuilt if the grid changed
    /// since the last query), the zeroed count buffer and the column
    /// buffer.
    fn for_grid(&mut self, grid: &TileGrid) -> (&TileClassifier, &mut Vec<u32>, &mut Vec<Vec3>) {
        if self.classifier.as_ref().map(|c| c.grid()) != Some(*grid) {
            self.classifier = Some(TileClassifier::new(*grid));
        }
        self.counts.clear();
        self.counts.resize(grid.tile_count(), 0);
        (
            self.classifier.as_ref().expect("just set"),
            &mut self.counts,
            &mut self.columns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::deg;

    #[test]
    fn contains_center_and_rejects_behind() {
        let vp = Viewport::headset(Orientation::FRONT);
        assert!(vp.contains(Vec3::X));
        assert!(!vp.contains(-Vec3::X));
        assert!(
            !vp.contains(Vec3::Z),
            "straight up is outside a 90-degree vfov"
        );
    }

    #[test]
    fn contains_respects_fov_edges() {
        let vp = Viewport::new(Orientation::FRONT, deg(100.0), deg(90.0));
        let just_in = Orientation::from_degrees(49.0, 0.0, 0.0).direction();
        let just_out = Orientation::from_degrees(51.0, 0.0, 0.0).direction();
        assert!(vp.contains(just_in));
        assert!(!vp.contains(just_out));
        let up_in = Orientation::from_degrees(0.0, 44.0, 0.0).direction();
        let up_out = Orientation::from_degrees(0.0, 46.0, 0.0).direction();
        assert!(vp.contains(up_in));
        assert!(!vp.contains(up_out));
    }

    #[test]
    fn ray_center_is_view_direction() {
        let o = Orientation::from_degrees(40.0, 20.0, 0.0);
        let vp = Viewport::headset(o);
        assert!(vp.ray(0.0, 0.0).angle_to(o.direction()) < 1e-9);
    }

    #[test]
    fn rays_stay_inside_fov() {
        let vp = Viewport::headset(Orientation::from_degrees(30.0, -10.0, 15.0));
        for &(sx, sy) in &[(-0.99, -0.99), (0.99, 0.99), (-0.99, 0.99), (0.5, -0.5)] {
            assert!(
                vp.contains(vp.ray(sx, sy)),
                "ray ({sx},{sy}) escaped the FoV"
            );
        }
    }

    #[test]
    fn visible_fractions_sum_to_one() {
        let grid = TileGrid::new(4, 6);
        let vp = Viewport::headset(Orientation::from_degrees(77.0, 13.0, 0.0));
        let vis = vp.visible_tiles(&grid, 32);
        let sum: f64 = vis.iter().map(|&(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(!vis.is_empty());
    }

    #[test]
    fn front_viewport_sees_center_tiles_of_2x4() {
        let grid = TileGrid::sperke_prototype();
        let vp = Viewport::headset(Orientation::FRONT);
        let tiles = vp.visible_tile_set(&grid);
        // Front viewport straddles pitch 0 (both rows) around yaw 0
        // (columns 1-2 of the 4): at minimum the four central tiles.
        for t in [grid.id_at(0, 2), grid.id_at(1, 2)] {
            assert!(tiles.contains(&t), "expected {t} visible, got {tiles:?}");
        }
        assert!(
            tiles.len() < grid.tile_count(),
            "FoV must not cover everything"
        );
    }

    #[test]
    fn coverage_of_hidden_tile_is_zero() {
        let grid = TileGrid::new(4, 6);
        let vp = Viewport::headset(Orientation::FRONT);
        // The tile behind the viewer:
        let behind = grid.tile_of_direction(-Vec3::X);
        assert_eq!(vp.tile_coverage(&grid, behind, 24), 0.0);
    }

    #[test]
    fn wider_fov_sees_no_fewer_tiles() {
        let grid = TileGrid::new(4, 8);
        let o = Orientation::from_degrees(12.0, 5.0, 0.0);
        let narrow = Viewport::new(o, deg(60.0), deg(50.0)).visible_tile_set(&grid);
        let wide = Viewport::new(o, deg(120.0), deg(100.0)).visible_tile_set(&grid);
        assert!(wide.len() >= narrow.len());
        for t in &narrow {
            assert!(wide.contains(t), "narrow tile {t} missing from wide set");
        }
    }

    #[test]
    #[should_panic]
    fn zero_fov_rejected() {
        Viewport::new(Orientation::FRONT, 0.0, 1.0);
    }

    #[test]
    fn scratch_api_matches_allocating_api_bitwise() {
        let grid = TileGrid::new(4, 6);
        let mut scratch = VisibilityScratch::new();
        let mut out = Vec::new();
        for (i, &(yaw, pitch, roll)) in [
            (0.0, 0.0, 0.0),
            (77.0, 13.0, 0.0),
            (-130.0, -40.0, 12.0),
            (179.0, 60.0, -25.0),
        ]
        .iter()
        .enumerate()
        {
            let vp = Viewport::headset(Orientation::from_degrees(yaw, pitch, roll));
            let samples = 8 + 4 * i as u32;
            vp.visible_tiles_into(&grid, samples, &mut scratch, &mut out);
            let fresh = vp.visible_tiles(&grid, samples);
            assert_eq!(out.len(), fresh.len());
            for (a, b) in out.iter().zip(&fresh) {
                assert_eq!(a.0, b.0);
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "coverage must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn tile_coverage_matches_visible_tiles_bitwise() {
        let grid = TileGrid::new(4, 6);
        let vp = Viewport::headset(Orientation::from_degrees(42.0, -17.0, 8.0));
        let vis = vp.visible_tiles(&grid, 24);
        for tile in grid.tiles() {
            let direct = vp.tile_coverage(&grid, tile, 24);
            let from_list = vis
                .iter()
                .find(|&&(t, _)| t == tile)
                .map(|&(_, f)| f)
                .unwrap_or(0.0);
            assert_eq!(
                direct.to_bits(),
                from_list.to_bits(),
                "tile {tile} coverage drifted: direct {direct} vs list {from_list}"
            );
        }
    }
}
