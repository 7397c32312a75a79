//! The §2 *versioning* alternative to tiling.
//!
//! "The 360° video is encoded into multiple versions each having a
//! different high-quality region; the player needs to pick the
//! appropriate version based on user's viewing direction. This approach
//! simplifies the fetching, decoding, and rendering logic at the
//! client's player, but incurs substantial overhead at the server that
//! needs to maintain a large number of versions of the same video
//! (e.g., up to 88 for Oculus 360)."
//!
//! Implemented in full so tiling can be compared against it on storage,
//! bandwidth, and delivered viewport quality.

use crate::content::VideoModel;
use crate::encoding::Scheme;
use crate::ids::{ChunkId, ChunkTime, Quality};
use serde::{Deserialize, Serialize};
use sperke_geo::sampling::{fibonacci_sphere, nearest};
use sperke_geo::{Orientation, Vec3};

/// A server keeping `n` versions of the panorama, each with a
/// high-quality region of angular radius `hq_radius` centred on one of
/// `n` well-spread directions; everything else is encoded at `lq`.
///
/// ```
/// use sperke_video::{VersionedStore, VideoModelBuilder};
/// use sperke_geo::Orientation;
/// use sperke_sim::SimDuration;
///
/// let video = VideoModelBuilder::new(1).duration(SimDuration::from_secs(4)).build();
/// let store = VersionedStore::oculus(video);
/// assert_eq!(store.versions(), 88);
/// let gaze = Orientation::from_degrees(40.0, 10.0, 0.0);
/// let v = store.best_version(&gaze);
/// assert!(store.in_hq_region(v, gaze.direction()));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VersionedStore {
    video: VideoModel,
    centers: Vec<Vec3>,
    /// Quality inside the high-quality region.
    pub hq: Quality,
    /// Quality outside it.
    pub lq: Quality,
    /// Angular radius of the high-quality region, radians.
    pub hq_radius: f64,
}

impl VersionedStore {
    /// Build an Oculus-style store with `versions` versions.
    pub fn new(
        video: VideoModel,
        versions: usize,
        hq: Quality,
        lq: Quality,
        hq_radius: f64,
    ) -> Self {
        assert!(versions > 0, "need at least one version");
        assert!(video.ladder().contains(hq) && video.ladder().contains(lq));
        assert!(lq <= hq, "low quality must not exceed high quality");
        assert!(hq_radius > 0.0);
        VersionedStore {
            video,
            centers: fibonacci_sphere(versions),
            hq,
            lq,
            hq_radius,
        }
    }

    /// The Oculus 360 configuration the paper cites: 88 versions, the
    /// high-quality region sized to cover a headset FoV.
    pub fn oculus(video: VideoModel) -> Self {
        let hq = video.ladder().top();
        let lq = Quality::LOWEST;
        VersionedStore::new(video, 88, hq, lq, 65f64.to_radians())
    }

    /// Number of versions kept.
    pub fn versions(&self) -> usize {
        self.centers.len()
    }

    /// The underlying video model.
    pub fn video(&self) -> &VideoModel {
        &self.video
    }

    /// The version a client should fetch for a given head orientation.
    pub fn best_version(&self, orientation: &Orientation) -> usize {
        nearest(&self.centers, orientation.direction())
    }

    /// Whether `dir` falls in a version's high-quality region.
    pub fn in_hq_region(&self, version: usize, dir: Vec3) -> bool {
        self.centers[version].angle_to(dir) <= self.hq_radius
    }

    /// Bytes of one chunk period of one version: the whole panorama,
    /// with tiles inside the HQ region at `hq` and the rest at `lq`.
    /// (Tiles are only an accounting granularity here — each version is
    /// a single monolithic stream on the wire.)
    fn version_chunk_bytes(&self, version: usize, t: ChunkTime) -> u64 {
        let center = self.centers[version];
        self.video
            .grid()
            .tiles()
            .map(|tile| {
                let q = if self.video.grid().tile_center(tile).angle_to(center) <= self.hq_radius {
                    self.hq
                } else {
                    self.lq
                };
                self.video
                    .chunk_bytes(ChunkId::new(q, tile, t), Scheme::Avc)
            })
            .sum()
    }

    /// Total server storage across all versions and chunks.
    pub fn storage_bytes(&self) -> u64 {
        (0..self.versions())
            .map(|v| {
                self.video
                    .chunk_times()
                    .map(|t| self.version_chunk_bytes(v, t))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Worst-case delivered quality when the client always picks the
    /// best version for its *predicted* orientation but the user ends
    /// up `error` radians away: `hq` while the error stays within the
    /// region's slack, `lq` beyond.
    pub fn quality_under_error(&self, error: f64) -> Quality {
        // The covering radius of the center set bounds how far a gaze
        // can sit from its best version's center.
        let covering = sperke_geo::sampling::covering_radius(&self.centers, 16);
        if covering + error <= self.hq_radius {
            self.hq
        } else {
            self.lq
        }
    }
}

/// Compare server-side footprints: tiling (one tiled copy, every tile at
/// every quality) vs versioning (`n` monolithic copies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageComparison {
    /// Tiling storage, bytes (with SVC copies if the store is hybrid).
    pub tiling_bytes: u64,
    /// Versioning storage, bytes.
    pub versioning_bytes: u64,
}

impl StorageComparison {
    /// Compute for a video.
    pub fn compute(video: &VideoModel, store: &VersionedStore, tiling_includes_svc: bool) -> Self {
        StorageComparison {
            tiling_bytes: video.tiling_storage_bytes(tiling_includes_svc),
            versioning_bytes: store.storage_bytes(),
        }
    }

    /// versioning / tiling.
    pub fn ratio(&self) -> f64 {
        self.versioning_bytes as f64 / self.tiling_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::VideoModelBuilder;
    use crate::encoding::Scheme;
    use sperke_sim::SimDuration;

    fn video() -> VideoModel {
        VideoModelBuilder::new(9)
            .duration(SimDuration::from_secs(6))
            .build()
    }

    #[test]
    fn oculus_store_has_88_versions() {
        let s = VersionedStore::oculus(video());
        assert_eq!(s.versions(), 88);
    }

    #[test]
    fn best_version_center_is_near_gaze() {
        let s = VersionedStore::oculus(video());
        for yaw in [-170.0, -60.0, 0.0, 45.0, 120.0] {
            let o = Orientation::from_degrees(yaw, 10.0, 0.0);
            let v = s.best_version(&o);
            let dist = s.centers[v].angle_to(o.direction());
            assert!(
                dist < 30f64.to_radians(),
                "yaw {yaw}: nearest center {:.1}° away",
                dist.to_degrees()
            );
        }
    }

    #[test]
    fn gaze_in_best_versions_hq_region() {
        let s = VersionedStore::oculus(video());
        for i in 0..50 {
            let o = Orientation::new((i as f64 * 0.7).sin() * 3.0, (i as f64 * 0.3).cos(), 0.0);
            let v = s.best_version(&o);
            assert!(s.in_hq_region(v, o.direction()));
        }
    }

    #[test]
    fn version_chunk_is_between_all_lq_and_all_hq() {
        let v = video();
        let lo = v.panorama_bytes(Quality::LOWEST, ChunkTime(0), Scheme::Avc);
        let hi = v.panorama_bytes(v.ladder().top(), ChunkTime(0), Scheme::Avc);
        let s = VersionedStore::oculus(v);
        let bytes = s.version_chunk_bytes(0, ChunkTime(0));
        assert!(bytes > lo && bytes < hi, "{lo} < {bytes} < {hi}");
    }

    #[test]
    fn storage_scales_with_version_count() {
        let mk = |n| VersionedStore::new(video(), n, Quality(3), Quality(0), 1.1).storage_bytes();
        let s8 = mk(8);
        let s88 = mk(88);
        assert!(
            s88 > 9 * s8,
            "88 versions ≈ 11x the storage of 8: {s8} vs {s88}"
        );
    }

    #[test]
    fn versioning_storage_dwarfs_tiling() {
        // The motivation for Sperke's tiling choice (§3): "Sperke
        // employs a tiling-based approach to avoid storing too many
        // video versions at the server side".
        let v = video();
        let s = VersionedStore::oculus(v.clone());
        let cmp = StorageComparison::compute(&v, &s, true);
        assert!(cmp.ratio() > 5.0, "ratio {}", cmp.ratio());
    }

    #[test]
    fn small_prediction_errors_keep_hq() {
        let s = VersionedStore::oculus(video());
        assert_eq!(s.quality_under_error(0.1), s.hq);
        assert_eq!(
            s.quality_under_error(2.0),
            s.lq,
            "large errors fall off the region"
        );
    }

    #[test]
    #[should_panic]
    fn inverted_qualities_rejected() {
        VersionedStore::new(video(), 8, Quality(0), Quality(3), 1.0);
    }
}
