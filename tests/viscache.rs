//! Property tests for the visibility kernel and the visibility cache:
//! over random orientations, FoV extents, grid shapes and sampling
//! densities, every view of the one ray cast must agree **bitwise** with
//! an exact reference, and a cache hit with a fresh computation — the
//! golden trace digests depend on it. Case count: `PROPTEST_CASES`
//! (default 64).

use proptest::prelude::*;
use sperke_geo::{Orientation, TileGrid, TileId, Viewport, VisibilityCache, VisibilityScratch};
use std::f64::consts::PI;

fn bits(tiles: &[(TileId, f64)]) -> Vec<(u16, u64)> {
    tiles.iter().map(|&(t, f)| (t.0, f.to_bits())).collect()
}

/// The exact cast the kernel must reproduce, with no classifier: each
/// ray of the `samples × samples` cell-centre grid is normalized and
/// binned by `TileGrid::tile_of_direction`, then the hits are counted
/// and sorted like `Viewport::visible_tiles` (coverage descending, ties
/// by tile id).
fn reference_coverage(vp: &Viewport, grid: &TileGrid, samples: u32) -> Vec<(TileId, f64)> {
    let (f, l, u) = vp.orientation.basis();
    let tan_h = (vp.hfov / 2.0).tan();
    let tan_v = (vp.vfov / 2.0).tan();
    let mut counts = vec![0u32; grid.tile_count()];
    for iy in 0..samples {
        let sy = (iy as f64 + 0.5) / samples as f64 * 2.0 - 1.0;
        for ix in 0..samples {
            let sx = (ix as f64 + 0.5) / samples as f64 * 2.0 - 1.0;
            let ray = f + l * (tan_h * sx) + u * (tan_v * sy);
            counts[grid.tile_of_direction(ray.normalized()).index()] += 1;
        }
    }
    let total = (samples * samples) as f64;
    let mut out: Vec<(TileId, f64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (TileId(i as u16), c as f64 / total))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
    out
}

proptest! {

    /// A cache hit is bit-identical to a fresh uncached computation, for
    /// any orientation, grid shape and sampling density.
    #[test]
    fn cached_matches_uncached_bitwise(
        yaw in -PI..PI,
        pitch in -1.4f64..1.4,
        roll in -0.5f64..0.5,
        rows in 1u16..8,
        cols in 1u16..12,
        samples in 4u32..24,
    ) {
        let grid = TileGrid::new(rows, cols);
        let vp = Viewport::headset(Orientation::new(yaw, pitch, roll));
        let cache = VisibilityCache::new(8);
        let uncached = vp.visible_tiles(&grid, samples);
        let miss = cache.visible_tiles(&vp, &grid, samples);
        let hit = cache.visible_tiles(&vp, &grid, samples);
        prop_assert_eq!(bits(&uncached), bits(&miss));
        prop_assert_eq!(bits(&miss), bits(&hit));
        let s = cache.stats();
        prop_assert_eq!((s.hits, s.misses), (1, 1));
    }

    /// LRU eviction under a tiny capacity never changes any result:
    /// recomputation after eviction produces the same bits the first
    /// computation did, across an arbitrary revisit-heavy query schedule.
    #[test]
    fn lru_eviction_never_changes_results(
        gazes in proptest::collection::vec((-PI..PI, -1.2f64..1.2), 4..16),
        schedule in proptest::collection::vec(0usize..16, 8..64),
        capacity in 1usize..4,
    ) {
        let grid = TileGrid::new(4, 6);
        let views: Vec<Viewport> = gazes
            .iter()
            .map(|&(y, p)| Viewport::headset(Orientation::new(y, p, 0.0)))
            .collect();
        // Ground truth, computed once, uncached.
        let truth: Vec<Vec<(u16, u64)>> =
            views.iter().map(|v| bits(&v.visible_tiles(&grid, 12))).collect();
        let cache = VisibilityCache::new(capacity);
        for &pick in &schedule {
            let i = pick % views.len();
            let got = cache.visible_tiles(&views[i], &grid, 12);
            prop_assert_eq!(&bits(&got), &truth[i], "query {} drifted", i);
        }
        let s = cache.stats();
        prop_assert!(s.len <= capacity, "LRU bound violated: {} > {}", s.len, capacity);
        prop_assert_eq!(s.hits + s.misses, schedule.len() as u64);
    }

    /// The scratch (allocation-free) API is bit-identical to the
    /// allocating API, including when the scratch buffer is reused
    /// across grids of different shapes.
    #[test]
    fn scratch_reuse_across_shapes_is_bitwise_identical(
        yaw in -PI..PI,
        pitch in -1.4f64..1.4,
        rows_a in 1u16..8, cols_a in 1u16..12,
        rows_b in 1u16..8, cols_b in 1u16..12,
    ) {
        let vp = Viewport::headset(Orientation::new(yaw, pitch, 0.0));
        let mut scratch = VisibilityScratch::new();
        let mut out = Vec::new();
        for (rows, cols) in [(rows_a, cols_a), (rows_b, cols_b)] {
            let grid = TileGrid::new(rows, cols);
            vp.visible_tiles_into(&grid, 16, &mut scratch, &mut out);
            prop_assert_eq!(bits(&out), bits(&vp.visible_tiles(&grid, 16)));
        }
    }

    /// Every view of the kernel agrees with the exact reference: the
    /// coverage list bitwise, the default-density tile set, and each
    /// tile's `tile_coverage` (zero when the reference lacks it). Grids
    /// include the classifier's special shapes (1×1, 1×2, 2×2).
    #[test]
    fn tile_coverage_agrees_with_full_list(
        yaw in -PI..PI,
        pitch in -1.4f64..1.4,
        roll in -0.6f64..0.6,
        hfov_deg in 20.0f64..170.0,
        vfov_deg in 20.0f64..150.0,
        shape in 0usize..8,
        rows in 1u16..8,
        cols in 1u16..12,
        samples in 2u32..24,
    ) {
        let grid = match shape {
            0 => TileGrid::new(1, 1),
            1 => TileGrid::new(1, 2),
            2 => TileGrid::new(2, 2),
            _ => TileGrid::new(rows, cols),
        };
        let vp = Viewport::new(
            Orientation::new(yaw, pitch, roll),
            hfov_deg.to_radians(),
            vfov_deg.to_radians(),
        );
        let reference = reference_coverage(&vp, &grid, samples);
        prop_assert_eq!(bits(&vp.visible_tiles(&grid, samples)), bits(&reference));
        for tile in grid.tiles() {
            let expected = reference
                .iter()
                .find(|&&(t, _)| t == tile)
                .map(|&(_, f)| f)
                .unwrap_or(0.0);
            let direct = vp.tile_coverage(&grid, tile, samples);
            prop_assert_eq!(direct.to_bits(), expected.to_bits(), "tile {}", tile);
        }
        let mut set: Vec<TileId> = reference_coverage(&vp, &grid, 16)
            .iter()
            .map(|&(t, _)| t)
            .collect();
        set.sort();
        prop_assert_eq!(vp.visible_tile_set(&grid), set);
    }

    /// The pre-normalized candidate set answers nearest-direction
    /// queries identically to the one-shot form.
    #[test]
    fn unit_directions_match_one_shot(
        n in 2usize..96,
        yaw in -PI..PI,
        pitch in -1.5f64..1.5,
    ) {
        let candidates = sperke_geo::sampling::fibonacci_sphere(n);
        let units = sperke_geo::UnitDirections::new(&candidates);
        let dir = Orientation::new(yaw, pitch, 0.0).direction();
        prop_assert_eq!(
            units.nearest(dir),
            sperke_geo::sampling::nearest(&candidates, dir)
        );
    }
}

/// A disabled cache and an enabled cache drive the exact same call path
/// to the exact same bits — the uncached-baseline contract the
/// perf-baseline comparison rests on.
#[test]
fn disabled_and_enabled_handles_agree() {
    let grid = TileGrid::new(4, 6);
    let on = VisibilityCache::new(32);
    let off = VisibilityCache::disabled();
    for i in 0..40 {
        let vp = Viewport::headset(Orientation::from_degrees(
            -180.0 + 9.0 * i as f64,
            -60.0 + 3.0 * i as f64,
            0.0,
        ));
        let a = on.visible_tiles(&vp, &grid, 16);
        let b = off.visible_tiles(&vp, &grid, 16);
        assert_eq!(bits(&a), bits(&b), "gaze {i}");
        assert_eq!(
            on.visible_tile_set(&vp, &grid),
            off.visible_tile_set(&vp, &grid)
        );
    }
    assert_eq!(off.stats().misses, 0, "disabled handle counts nothing");
    assert!(on.stats().misses > 0);
}
