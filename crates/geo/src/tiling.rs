//! Spatial segmentation of the panorama into tiles (§2 "Tiling").
//!
//! Sperke segments the equirectangular frame into a `rows × cols` grid.
//! A [`TileId`] indexes a tile; [`TileGrid`] maps between tile ids,
//! angular extents, and texture coordinates.

use crate::angles::wrap_tau;
use crate::projection::{Equirect, Uv};
use crate::vector::Vec3;
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// Identifier of one tile within a [`TileGrid`], row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TileId(pub u16);

impl TileId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// The angular extent of a tile: yaw span `[yaw_min, yaw_max)` (may wrap)
/// and pitch span `[pitch_min, pitch_max]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileRect {
    /// Western yaw edge, radians in `[-π, π)`.
    pub yaw_min: f64,
    /// Eastern yaw edge, radians (yaw_min + span, may exceed π before wrap).
    pub yaw_max: f64,
    /// Lower pitch edge, radians.
    pub pitch_min: f64,
    /// Upper pitch edge, radians.
    pub pitch_max: f64,
}

impl TileRect {
    /// Yaw span, radians.
    fn yaw_span(&self) -> f64 {
        self.yaw_max - self.yaw_min
    }

    /// The solid angle subtended by this tile, steradians.
    pub fn solid_angle(&self) -> f64 {
        self.yaw_span() * (self.pitch_max.sin() - self.pitch_min.sin())
    }
}

/// A regular `rows × cols` tiling of the equirectangular panorama.
///
/// The paper's prototype uses **2×4**; its tiling-related citations use
/// 4×6. Rows split pitch `[−π/2, π/2]` top-to-bottom; columns split yaw
/// `[−π, π)` west-to-east. Tiles are numbered row-major starting at the
/// top-left (north-west).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileGrid {
    /// Number of pitch bands.
    pub rows: u16,
    /// Number of yaw sectors.
    pub cols: u16,
}

impl TileGrid {
    /// Construct; panics on a degenerate grid.
    pub fn new(rows: u16, cols: u16) -> TileGrid {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        assert!(
            (rows as u32) * (cols as u32) <= u16::MAX as u32 + 1,
            "too many tiles for TileId"
        );
        TileGrid { rows, cols }
    }

    /// The paper prototype's 2×4 grid (§3.5).
    pub fn sperke_prototype() -> TileGrid {
        TileGrid::new(2, 4)
    }

    /// Total number of tiles.
    pub fn tile_count(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// All tile ids, row-major.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> {
        (0..self.tile_count() as u16).map(TileId)
    }

    /// `(row, col)` of a tile id.
    pub fn position(&self, id: TileId) -> (u16, u16) {
        let idx = id.0;
        assert!((idx as usize) < self.tile_count(), "tile id out of range");
        (idx / self.cols, idx % self.cols)
    }

    /// Tile id at `(row, col)`.
    pub fn id_at(&self, row: u16, col: u16) -> TileId {
        assert!(row < self.rows && col < self.cols, "position out of range");
        TileId(row * self.cols + col)
    }

    /// Angular extent of a tile.
    pub fn rect(&self, id: TileId) -> TileRect {
        let (row, col) = self.position(id);
        let yaw_step = TAU / self.cols as f64;
        let pitch_step = PI / self.rows as f64;
        let yaw_min = -PI + col as f64 * yaw_step;
        // Row 0 is the top band (highest pitch).
        let pitch_max = FRAC_PI_2 - row as f64 * pitch_step;
        TileRect {
            yaw_min,
            yaw_max: yaw_min + yaw_step,
            pitch_min: pitch_max - pitch_step,
            pitch_max,
        }
    }

    /// The tile containing a view direction.
    pub fn tile_of_direction(&self, dir: Vec3) -> TileId {
        self.tile_of_uv(Equirect::project(dir))
    }

    /// The tile containing normalized texture coordinates.
    fn tile_of_uv(&self, uv: Uv) -> TileId {
        let col = ((uv.u.clamp(0.0, 1.0 - 1e-12)) * self.cols as f64) as u16;
        let row = ((uv.v.clamp(0.0, 1.0 - 1e-12)) * self.rows as f64) as u16;
        self.id_at(row.min(self.rows - 1), col.min(self.cols - 1))
    }

    /// The tile containing yaw/pitch angles (radians).
    pub fn tile_of_angles(&self, yaw: f64, pitch: f64) -> TileId {
        let u = wrap_tau(yaw + PI) / TAU;
        let v = ((FRAC_PI_2 - pitch.clamp(-FRAC_PI_2, FRAC_PI_2)) / PI).clamp(0.0, 1.0);
        self.tile_of_uv(Uv { u, v })
    }

    /// The unit direction at a tile's angular centre.
    pub fn tile_center(&self, id: TileId) -> Vec3 {
        let r = self.rect(id);
        let yaw = (r.yaw_min + r.yaw_max) / 2.0;
        let pitch = (r.pitch_min + r.pitch_max) / 2.0;
        Vec3::new(
            pitch.cos() * yaw.cos(),
            pitch.cos() * yaw.sin(),
            pitch.sin(),
        )
    }

    /// Great-circle distance from a direction to a tile's centre,
    /// radians; the reference [`TileCenters::distance_to_tile`] is
    /// tested against.
    #[cfg(test)]
    fn distance_to_tile(&self, dir: Vec3, id: TileId) -> f64 {
        dir.angle_to(self.tile_center(id))
    }
}

/// Precomputed tile-centre directions for one grid.
///
/// [`TileGrid::tile_center`] spends four trig calls per query, and
/// forecast scoring asks for every tile's centre once per (client,
/// chunk) — at edge scale that is millions of redundant evaluations of
/// the same `rows × cols` values. The table stores the exact
/// `tile_center` outputs, so anything derived from it (notably
/// [`TileCenters::distance_to_tile`]) is bit-identical to computing the
/// centre on demand.
#[derive(Debug, Clone)]
pub struct TileCenters {
    grid: TileGrid,
    centers: Vec<Vec3>,
}

impl TileCenters {
    /// Tabulate every tile centre of `grid`.
    pub fn new(grid: TileGrid) -> TileCenters {
        let centers = grid.tiles().map(|t| grid.tile_center(t)).collect();
        TileCenters { grid, centers }
    }

    /// The grid the table was built for.
    pub fn grid(&self) -> TileGrid {
        self.grid
    }

    /// The unit direction at a tile's angular centre; equals
    /// [`TileGrid::tile_center`] exactly.
    pub fn center(&self, id: TileId) -> Vec3 {
        self.centers[id.index()]
    }

    /// Great-circle distance from a direction to a tile's centre,
    /// radians: the angle to the exact [`TileGrid::tile_center`].
    pub fn distance_to_tile(&self, dir: Vec3, id: TileId) -> f64 {
        dir.angle_to(self.centers[id.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::deg;
    use crate::orientation::Orientation;

    #[test]
    fn count_and_positions() {
        let g = TileGrid::new(2, 4);
        assert_eq!(g.tile_count(), 8);
        assert_eq!(g.position(TileId(0)), (0, 0));
        assert_eq!(g.position(TileId(5)), (1, 1));
        assert_eq!(g.id_at(1, 3), TileId(7));
    }

    #[test]
    fn rects_tile_the_sphere() {
        let g = TileGrid::new(3, 5);
        let total: f64 = g.tiles().map(|t| g.rect(t).solid_angle()).sum();
        assert!((total - 4.0 * PI).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn direction_maps_to_containing_rect() {
        let g = TileGrid::new(4, 6);
        for yaw_deg in (-175..180).step_by(25) {
            for pitch_deg in (-85..=85).step_by(17) {
                let o = Orientation::from_degrees(yaw_deg as f64, pitch_deg as f64, 0.0);
                let t = g.tile_of_direction(o.direction());
                let r = g.rect(t);
                let yaw = deg(yaw_deg as f64);
                let pitch = deg(pitch_deg as f64);
                assert!(
                    yaw >= r.yaw_min - 1e-9 && yaw <= r.yaw_max + 1e-9,
                    "yaw {yaw_deg} not in {r:?}"
                );
                assert!(
                    pitch >= r.pitch_min - 1e-9 && pitch <= r.pitch_max + 1e-9,
                    "pitch {pitch_deg} not in {r:?}"
                );
            }
        }
    }

    #[test]
    fn tile_center_maps_back_to_same_tile() {
        let g = TileGrid::new(4, 6);
        for t in g.tiles() {
            assert_eq!(g.tile_of_direction(g.tile_center(t)), t);
        }
    }

    #[test]
    fn front_direction_is_middle_tile() {
        let g = TileGrid::new(2, 4);
        let t = g.tile_of_direction(Vec3::X);
        let (row, col) = g.position(t);
        // Front (+X) = yaw 0, pitch 0: yaw 0 is at u=0.5 → col 2 of 4;
        // pitch 0 is at v=0.5 → row 1 of 2.
        assert_eq!((row, col), (1, 2));
    }

    #[test]
    fn poles_map_to_extreme_rows() {
        let g = TileGrid::new(4, 4);
        let (row_top, _) = g.position(g.tile_of_direction(Vec3::Z));
        let (row_bot, _) = g.position(g.tile_of_direction(-Vec3::Z));
        assert_eq!(row_top, 0);
        assert_eq!(row_bot, 3);
    }

    #[test]
    fn tile_of_angles_consistent_with_direction() {
        let g = TileGrid::new(3, 7);
        for i in 0..100 {
            let yaw = (i as f64 * 0.37).sin() * PI * 0.999;
            let pitch = (i as f64 * 0.17).cos() * FRAC_PI_2 * 0.98;
            let o = Orientation::new(yaw, pitch, 0.0);
            assert_eq!(
                g.tile_of_angles(yaw, pitch),
                g.tile_of_direction(o.direction()),
                "i={i}"
            );
        }
    }

    #[test]
    fn tile_centers_table_is_bit_identical() {
        for g in [
            TileGrid::new(2, 4),
            TileGrid::new(4, 6),
            TileGrid::new(3, 7),
        ] {
            let table = TileCenters::new(g);
            for t in g.tiles() {
                let a = table.center(t);
                let b = g.tile_center(t);
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.z.to_bits(), b.z.to_bits());
                let dir = Orientation::from_degrees(33.0, -12.0, 0.0).direction();
                assert_eq!(
                    table.distance_to_tile(dir, t).to_bits(),
                    g.distance_to_tile(dir, t).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn degenerate_grid_rejected() {
        TileGrid::new(0, 4);
    }
}
