//! The §3.2 study's data backend: what the paper's player app would
//! upload, and the mining that turns it into streaming intelligence.
//!
//! "We will develop a 360° video player app and publish it to mobile app
//! stores ... the app will collect a wide range of information such as
//! (1) the video URL, (2) users' head movement during 360° video
//! playback, (3) user's rating of the video, (4) lightweight contextual
//! information ... uncompressed head movement data at 50 Hz is less than
//! 5 Kbps, \[so\] our system can easily scale."
//!
//! A [`StudyDataset`] stores sessions, answers the three §3.2 research
//! questions (cross-user heatmaps, per-user profiles, context priors)
//! and round-trips through newline-delimited JSON.

use crate::popularity::Heatmap;
use crate::trace::HeadTrace;
use serde::{Deserialize, Serialize};
use sperke_geo::TileGrid;
use sperke_sim::{stats, SimDuration};
use std::collections::BTreeMap;

/// One uploaded viewing session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// The watched video (stand-in for the URL).
    pub video_id: u64,
    /// The (anonymous) user.
    pub user_id: u64,
    /// The user's 1–5 star rating, if given.
    pub rating: Option<u8>,
    /// The 50 Hz head-movement log with its context metadata.
    pub trace: HeadTrace,
}

impl SessionRecord {
    /// Approximate upload size of this session's head data in bits per
    /// second of playback — the paper's scalability estimate (< 5 kbps).
    fn head_data_bitrate_bps(&self) -> f64 {
        // yaw/pitch/roll as 3 × 16-bit fixed point at the sample rate.
        3.0 * 16.0 * self.trace.sample_hz()
    }
}

/// What the study learns about one user across videos (§3.2 question 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserProfile {
    /// Sessions observed.
    pub sessions: u32,
    /// 95th-percentile head speed across all sessions, rad/s — the
    /// "speed bound" that limits how far a tile fetch can be deferred.
    pub speed_bound: f64,
    /// Median head speed, rad/s.
    pub median_speed: f64,
    /// Mean rating given (0 when never rated).
    pub mean_rating: f64,
}

/// The collected corpus.
///
/// ```
/// use sperke_hmp::{StudyDataset, SessionRecord, HeadTrace};
/// use sperke_geo::Orientation;
/// use sperke_sim::SimDuration;
///
/// let mut ds = StudyDataset::new();
/// let trace = HeadTrace::from_fn(SimDuration::from_secs(2), |_| Orientation::FRONT);
/// ds.add(SessionRecord { video_id: 1, user_id: 7, rating: Some(5), trace });
/// assert_eq!(ds.len(), 1);
/// let profiles = ds.user_profiles();
/// assert_eq!(profiles[&7].sessions, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StudyDataset {
    sessions: Vec<SessionRecord>,
}

impl StudyDataset {
    /// An empty dataset.
    pub fn new() -> StudyDataset {
        StudyDataset::default()
    }

    /// Ingest one session.
    pub fn add(&mut self, record: SessionRecord) {
        self.sessions.push(record);
    }

    /// All sessions.
    pub fn sessions(&self) -> &[SessionRecord] {
        &self.sessions
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no sessions are stored.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Sessions of one video.
    fn for_video(&self, video_id: u64) -> Vec<&SessionRecord> {
        self.sessions
            .iter()
            .filter(|s| s.video_id == video_id)
            .collect()
    }

    /// §3.2 question 1: the cross-user heatmap for a video.
    pub fn heatmap(
        &self,
        video_id: u64,
        grid: TileGrid,
        chunk_duration: SimDuration,
        chunks: u32,
    ) -> Heatmap {
        let traces: Vec<HeadTrace> = self
            .for_video(video_id)
            .into_iter()
            .map(|s| s.trace.clone())
            .collect();
        Heatmap::build(grid, chunk_duration, chunks, &traces)
    }

    /// §3.2 question 2: per-user profiles mined across videos.
    pub fn user_profiles(&self) -> BTreeMap<u64, UserProfile> {
        let mut grouped: BTreeMap<u64, Vec<&SessionRecord>> = BTreeMap::new();
        for s in &self.sessions {
            grouped.entry(s.user_id).or_default().push(s);
        }
        grouped
            .into_iter()
            .map(|(user, sessions)| {
                let speeds95: Vec<f64> = sessions
                    .iter()
                    .map(|s| s.trace.speed_percentile(95.0))
                    .collect();
                let speeds50: Vec<f64> = sessions
                    .iter()
                    .map(|s| s.trace.speed_percentile(50.0))
                    .collect();
                let ratings: Vec<f64> = sessions
                    .iter()
                    .filter_map(|s| s.rating.map(|r| r as f64))
                    .collect();
                (
                    user,
                    UserProfile {
                        sessions: sessions.len() as u32,
                        speed_bound: stats::percentile(&speeds95, 50.0),
                        median_speed: stats::percentile(&speeds50, 50.0),
                        mean_rating: stats::mean(&ratings),
                    },
                )
            })
            .collect()
    }

    /// Aggregate head-data upload rate across concurrent sessions, bps —
    /// supports the paper's "our system can easily scale" estimate.
    pub fn aggregate_bitrate_bps(&self) -> f64 {
        self.sessions
            .iter()
            .map(|s| s.head_data_bitrate_bps())
            .sum()
    }

    /// Serialize to newline-delimited JSON (one session per line).
    pub fn to_ndjson(&self) -> String {
        self.sessions
            .iter()
            .map(|s| serde_json::to_string(s).expect("session serializes"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parse from newline-delimited JSON; blank lines are skipped.
    pub fn from_ndjson(data: &str) -> Result<StudyDataset, serde_json::Error> {
        let mut ds = StudyDataset::new();
        for line in data.lines() {
            if line.trim().is_empty() {
                continue;
            }
            ds.add(serde_json::from_str(line)?);
        }
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ViewingContext;
    use crate::generate::{AttentionModel, Behavior, TraceGenerator};
    use sperke_video::ChunkTime;

    fn session(video: u64, user: u64, behavior: Behavior, rating: Option<u8>) -> SessionRecord {
        let mut trace = TraceGenerator::new(
            AttentionModel::generic(video),
            behavior,
            ViewingContext::default(),
        )
        .generate(SimDuration::from_secs(10), user * 31 + video);
        trace.user_id = user;
        trace.video_id = video;
        SessionRecord {
            video_id: video,
            user_id: user,
            rating,
            trace,
        }
    }

    fn corpus() -> StudyDataset {
        let mut ds = StudyDataset::new();
        for user in 0..4u64 {
            for video in 0..3u64 {
                let behavior = if user == 0 {
                    Behavior::Still
                } else {
                    Behavior::Explorer
                };
                ds.add(session(video, user, behavior, Some((user + 1) as u8)));
            }
        }
        ds
    }

    #[test]
    fn ingest_and_filter() {
        let ds = corpus();
        assert_eq!(ds.len(), 12);
        assert_eq!(ds.for_video(1).len(), 4);
        assert!(!ds.is_empty());
    }

    #[test]
    fn heatmap_built_per_video() {
        let ds = corpus();
        let grid = TileGrid::new(4, 6);
        let map = ds.heatmap(1, grid, SimDuration::from_secs(1), 10);
        assert_eq!(map.viewer_count(ChunkTime(3)), 4);
    }

    #[test]
    fn user_profiles_distinguish_behaviours() {
        let ds = corpus();
        let profiles = ds.user_profiles();
        assert_eq!(profiles.len(), 4);
        let still = profiles[&0];
        let explorer = profiles[&1];
        assert_eq!(still.sessions, 3);
        assert!(
            still.speed_bound < explorer.speed_bound,
            "a still user's learned bound ({:.2}) must undercut an explorer's ({:.2})",
            still.speed_bound,
            explorer.speed_bound
        );
        assert!((still.mean_rating - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bitrate_matches_paper_scalability_claim() {
        let ds = corpus();
        for s in ds.sessions() {
            let bps = s.head_data_bitrate_bps();
            assert!(bps < 5_000.0, "paper: under 5 kbps, got {bps}");
        }
        assert!(ds.aggregate_bitrate_bps() < 5_000.0 * ds.len() as f64);
    }

    #[test]
    fn ndjson_roundtrip() {
        let ds = corpus();
        let text = ds.to_ndjson();
        let back = StudyDataset::from_ndjson(&text).expect("parses");
        assert_eq!(ds.len(), back.len());
        assert_eq!(ds.sessions()[5].user_id, back.sessions()[5].user_id);
        assert_eq!(ds.sessions()[5].rating, back.sessions()[5].rating);
    }

    #[test]
    fn ndjson_skips_blank_lines() {
        let ds = corpus();
        let text = format!("\n{}\n\n", ds.to_ndjson());
        assert_eq!(
            StudyDataset::from_ndjson(&text).expect("parses").len(),
            ds.len()
        );
    }
}
