//! The ABR shootout: a head-to-head tournament of the five
//! viewport-adaptation policies ([`AbrPolicyKind`]) over a policy ×
//! bandwidth × behaviour × content grid of single-session experiments.
//!
//! Every grid point is one deterministic [`Sperke`] session. A
//! session's video depends only on its seed and its head trace only on
//! its seed and behaviour, so the points sharing a (seed, behaviour)
//! pair form one *content group* that builds both once. The groups fan
//! across CPU cores on the [`run_sweep`] harness and each session's
//! report lands in its point's slot, so the full report — points,
//! ranking, JSON, markdown and digest — is byte-identical for any worker
//! count, and every point equals the standalone session of its cell. The
//! smoke grid's digest is pinned in `tests/golden_trace.rs`
//! (`GOLDEN_SHOOTOUT_DIGEST`); `examples/abr_shootout.rs` runs the
//! tournament from the command line and self-checks worker invariance.

use crate::builder::Sperke;
use serde::{Deserialize, Serialize};
use sperke_hmp::Behavior;
use sperke_player::QoeReport;
use sperke_sim::sweep::{run_sweep, SweepPlan};
use sperke_sim::{fnv1a64, SimDuration};
use sperke_vra::AbrPolicyKind;
use std::sync::Mutex;

/// The shootout's experiment grid: the cross product of a policy axis,
/// a bandwidth axis, a viewer-behaviour axis and a content (seed)
/// axis. Point order is deterministic and policy-major: policy, then
/// bandwidth, then behaviour, then seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShootoutGrid {
    /// The rival policies to race.
    pub policies: Vec<AbrPolicyKind>,
    /// Single-link bandwidths to sweep, bits/second.
    pub bandwidths_bps: Vec<f64>,
    /// Viewer behaviour classes to sweep.
    pub behaviors: Vec<Behavior>,
    /// Content seeds to sweep (each seeds video, traces and network).
    pub seeds: Vec<u64>,
    /// Session length in seconds.
    pub duration_secs: u64,
}

impl ShootoutGrid {
    /// The reduced CI smoke grid: all five policies × 2 bandwidths ×
    /// 1 behaviour × 1 seed = 10 points of 4 s sessions. Its report
    /// digest is pinned as `GOLDEN_SHOOTOUT_DIGEST`. It is one content
    /// group, so it runs on one worker at any worker count.
    pub fn smoke() -> ShootoutGrid {
        ShootoutGrid {
            policies: AbrPolicyKind::all().to_vec(),
            bandwidths_bps: vec![10e6, 40e6],
            behaviors: vec![Behavior::Explorer],
            seeds: vec![77],
            duration_secs: 4,
        }
    }

    /// The default tournament grid: all five policies × 2 bandwidths ×
    /// 2 behaviours × 2 seeds = 40 points of 6 s sessions.
    pub fn default_grid() -> ShootoutGrid {
        ShootoutGrid {
            policies: AbrPolicyKind::all().to_vec(),
            bandwidths_bps: vec![10e6, 40e6],
            behaviors: vec![Behavior::Explorer, Behavior::Focused],
            seeds: vec![77, 78],
            duration_secs: 6,
        }
    }

    /// The nightly full grid: all five policies × 3 bandwidths × all
    /// 4 behaviours × 3 seeds = 180 points of 8 s sessions.
    pub fn full() -> ShootoutGrid {
        ShootoutGrid {
            policies: AbrPolicyKind::all().to_vec(),
            bandwidths_bps: vec![8e6, 25e6, 60e6],
            behaviors: Behavior::ALL.to_vec(),
            seeds: vec![77, 78, 79],
            duration_secs: 8,
        }
    }

    /// The grid's points in sweep order (policy-major, then bandwidth,
    /// then behaviour, then seed). An empty axis yields an empty —
    /// still valid — plan.
    pub fn points(&self) -> Vec<ShootoutCell> {
        let mut out = Vec::with_capacity(
            self.policies.len()
                * self.bandwidths_bps.len()
                * self.behaviors.len()
                * self.seeds.len(),
        );
        for &policy in &self.policies {
            for &bandwidth_bps in &self.bandwidths_bps {
                for &behavior in &self.behaviors {
                    for &seed in &self.seeds {
                        out.push(ShootoutCell {
                            policy,
                            bandwidth_bps,
                            behavior,
                            seed,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One grid coordinate: the experiment a shootout point runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShootoutCell {
    /// The policy planning every decide.
    pub policy: AbrPolicyKind,
    /// Single-link bandwidth, bits/second.
    pub bandwidth_bps: f64,
    /// The viewer's behaviour class.
    pub behavior: Behavior,
    /// The content seed.
    pub seed: u64,
}

/// One finished shootout point: the cell that ran and its QoE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShootoutPoint {
    /// The grid coordinate.
    pub cell: ShootoutCell,
    /// The session's QoE report.
    pub qoe: QoeReport,
}

/// One row of the ranked leaderboard: a policy's aggregate outcome
/// over every grid point it ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRank {
    /// 1-based leaderboard position (1 = best mean QoE score).
    pub rank: usize,
    /// The policy's stable name.
    pub policy: String,
    /// Mean composite QoE score across the policy's points.
    pub mean_score: f64,
    /// Mean viewport utility across the policy's points.
    pub mean_utility: f64,
    /// Total stall events across the policy's points.
    pub stalls: u32,
    /// Total bytes fetched across the policy's points.
    pub bytes_fetched: u64,
    /// Number of grid points behind the aggregates.
    pub points: usize,
}

/// The merged tournament outcome: every point in grid order plus the
/// ranked leaderboard. Byte-identical for any worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShootoutReport {
    /// The grid that ran.
    pub grid: ShootoutGrid,
    /// Every point in deterministic grid order.
    pub points: Vec<ShootoutPoint>,
    /// The leaderboard, best mean score first (ties by policy name).
    pub ranking: Vec<PolicyRank>,
}

impl ShootoutReport {
    /// The report as canonical JSON (serde's deterministic field and
    /// float formatting — the bytes the digest fingerprints).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("shootout report serializes")
    }

    /// The ranked leaderboard as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| rank | policy | mean QoE | mean utility | stalls | MB fetched | points |\n\
             |-----:|--------|---------:|-------------:|-------:|-----------:|-------:|\n",
        );
        for r in &self.ranking {
            out.push_str(&format!(
                "| {} | {} | {:.4} | {:.4} | {} | {:.1} | {} |\n",
                r.rank,
                r.policy,
                r.mean_score,
                r.mean_utility,
                r.stalls,
                r.bytes_fetched as f64 / 1e6,
                r.points
            ));
        }
        out
    }

    /// FNV-1a 64-bit fingerprint of [`ShootoutReport::to_json`].
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_json().as_bytes())
    }
}

/// Race every policy over the grid on `threads` workers (`0` =
/// available parallelism). Each point is one single-threaded
/// deterministic [`Sperke`] session. A worker runs one content group
/// (the points sharing a seed and a behaviour) at a time: it builds the
/// group's video and head trace, plays the group's sessions over them in
/// grid order, and drops them. So a grid with fewer groups than
/// `threads` runs on fewer workers. The merged report — and therefore
/// its JSON, markdown and digest — is byte-identical for any worker
/// count.
pub fn run_shootout(grid: &ShootoutGrid, threads: usize) -> ShootoutReport {
    let cells = grid.points();
    let groups = content_groups(&cells);
    let duration = SimDuration::from_secs(grid.duration_secs);
    let session = |cell: &ShootoutCell| {
        Sperke::builder(cell.seed)
            .duration(duration)
            .single_link(cell.bandwidth_bps)
            .behavior(cell.behavior)
            .abr_policy(cell.policy)
    };
    // Each session writes its report into its point's slot, so a group
    // hands back no heap result: collecting each group's reports in a
    // vector measured higher peak memory (DESIGN §17).
    let slots: Mutex<Vec<Option<QoeReport>>> = Mutex::new(vec![None; cells.len()]);
    let sweep = run_sweep(&SweepPlan::new(groups), threads, |_, members| {
        let first = session(&cells[members[0]]);
        let (video, trace) = (first.build_video(), first.build_trace());
        for &i in members {
            let qoe = session(&cells[i]).run_over(&video, &trace).session.qoe;
            slots.lock().expect("no session panics holding the slots")[i] = Some(qoe);
        }
        members.len()
    });
    assert_eq!(
        sweep.panicked(),
        vec![],
        "every shootout content group must complete"
    );
    let qoes = slots
        .into_inner()
        .expect("no session panics holding the slots");
    let points: Vec<ShootoutPoint> = cells
        .into_iter()
        .zip(qoes)
        .map(|(cell, qoe)| ShootoutPoint {
            cell,
            qoe: qoe.expect("every point belongs to one content group"),
        })
        .collect();
    let ranking = rank(grid, &points);
    ShootoutReport {
        grid: grid.clone(),
        points,
        ranking,
    }
}

/// The grid's content groups: for each distinct (seed, behaviour) pair,
/// in order of first appearance, the indices of the points that share
/// it, in grid order. A session's video depends only on its seed and its
/// head trace only on its seed and behaviour, so a group's points can
/// stream one build of each. A repeated seed value joins its group.
///
/// The group, not the content, is the sweep's unit so that a worker
/// holds one group's content at a time: keeping every group's content
/// alive for the whole run costs far more peak memory (DESIGN §17).
fn content_groups(cells: &[ShootoutCell]) -> Vec<Vec<usize>> {
    let mut keys: Vec<(u64, Behavior)> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let key = (cell.seed, cell.behavior);
        match keys.iter().position(|&k| k == key) {
            Some(g) => groups[g].push(i),
            None => {
                keys.push(key);
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Aggregate points per policy and rank by mean composite score
/// (descending; ties broken by policy name so the order is total).
fn rank(grid: &ShootoutGrid, points: &[ShootoutPoint]) -> Vec<PolicyRank> {
    let mut rows: Vec<PolicyRank> = grid
        .policies
        .iter()
        .map(|&policy| {
            let mine: Vec<&ShootoutPoint> =
                points.iter().filter(|p| p.cell.policy == policy).collect();
            let n = mine.len().max(1) as f64;
            PolicyRank {
                rank: 0,
                policy: policy.name().to_string(),
                mean_score: mine.iter().map(|p| p.qoe.score).sum::<f64>() / n,
                mean_utility: mine
                    .iter()
                    .map(|p| p.qoe.mean_viewport_utility)
                    .sum::<f64>()
                    / n,
                stalls: mine.iter().map(|p| p.qoe.stall_count).sum(),
                bytes_fetched: mine.iter().map(|p| p.qoe.bytes_fetched).sum(),
                points: mine.len(),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.mean_score
            .total_cmp(&a.mean_score)
            .then_with(|| a.policy.cmp(&b.policy))
    });
    for (i, row) in rows.iter_mut().enumerate() {
        row.rank = i + 1;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_enumerate_policy_major() {
        let grid = ShootoutGrid::default_grid();
        let points = grid.points();
        assert_eq!(points.len(), 40);
        assert_eq!(points[0].policy, AbrPolicyKind::Knapsack);
        assert_eq!(points[0].bandwidth_bps, 10e6);
        assert_eq!(points[0].seed, 77);
        assert_eq!(points[1].seed, 78);
        assert_eq!(points[4].bandwidth_bps, 40e6);
        assert_eq!(points[39].policy, AbrPolicyKind::Sperke);
        assert_eq!(ShootoutGrid::full().points().len(), 180);
    }

    #[test]
    fn shootout_is_worker_count_invariant() {
        let grid = ShootoutGrid::smoke();
        let serial = run_shootout(&grid, 1);
        let parallel = run_shootout(&grid, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.to_markdown(), parallel.to_markdown());
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.points.len(), 10);
        assert_eq!(serial.ranking.len(), 5, "all five policies ranked");
        for (i, row) in serial.ranking.iter().enumerate() {
            assert_eq!(row.rank, i + 1);
            assert_eq!(row.points, 2);
        }
        for pair in serial.ranking.windows(2) {
            assert!(pair[0].mean_score >= pair[1].mean_score, "ranking sorted");
        }
    }

    /// 3 seeds × 2 behaviours × 2 policies × 2 bandwidths = 24 points
    /// of short sessions in 6 content groups.
    fn multi_group_grid() -> ShootoutGrid {
        ShootoutGrid {
            policies: vec![AbrPolicyKind::qer_default(), AbrPolicyKind::Sperke],
            bandwidths_bps: vec![8e6, 30e6],
            behaviors: vec![Behavior::Explorer, Behavior::Focused],
            seeds: vec![77, 5, 1234],
            duration_secs: 6,
        }
    }

    #[test]
    fn content_groups_key_on_seed_and_behaviour_in_grid_order() {
        let smoke = ShootoutGrid::smoke();
        assert_eq!(
            content_groups(&smoke.points()),
            vec![(0..10).collect::<Vec<_>>()]
        );
        let repeated = ShootoutGrid {
            seeds: vec![78, 77, 78],
            ..multi_group_grid()
        };
        for (grid, count) in [(multi_group_grid(), 6), (repeated, 4)] {
            let cells = grid.points();
            let groups = content_groups(&cells);
            assert_eq!(groups.len(), count);
            let mut seen: Vec<usize> = groups.concat();
            seen.sort_unstable();
            assert_eq!(seen, (0..cells.len()).collect::<Vec<_>>());
            for members in &groups {
                assert!(members.windows(2).all(|w| w[0] < w[1]), "grid order");
                let key = |i: usize| (cells[i].seed, cells[i].behavior);
                assert!(members.iter().all(|&i| key(i) == key(members[0])));
            }
        }
    }

    #[test]
    fn grouped_points_equal_standalone_sessions_at_any_worker_count() {
        let grids = [
            ("multi-group", multi_group_grid()),
            (
                "repeated seed",
                ShootoutGrid {
                    seeds: vec![78, 77, 78],
                    ..multi_group_grid()
                },
            ),
            ("one group", ShootoutGrid::smoke()),
        ];
        for (name, grid) in grids {
            let serial = run_shootout(&grid, 1);
            let cells = grid.points();
            assert_eq!(serial.points.len(), cells.len());
            for (point, cell) in serial.points.iter().zip(&cells) {
                let alone = Sperke::builder(cell.seed)
                    .duration(SimDuration::from_secs(grid.duration_secs))
                    .single_link(cell.bandwidth_bps)
                    .behavior(cell.behavior)
                    .abr_policy(cell.policy)
                    .run()
                    .qoe;
                assert_eq!(point.cell, *cell, "{name}");
                assert_eq!(
                    serde_json::to_string(&point.qoe).unwrap(),
                    serde_json::to_string(&alone).unwrap(),
                    "{name}: {cell:?}"
                );
            }
            for threads in [2, 3, 8] {
                let parallel = run_shootout(&grid, threads);
                assert_eq!(
                    parallel.digest(),
                    serial.digest(),
                    "{name}, {threads} workers"
                );
                assert_eq!(parallel, serial, "{name}, {threads} workers");
            }
        }
    }

    #[test]
    fn knapsack_and_sperke_rows_agree_on_fleet_side_metrics() {
        // The full Sperke planner is richer than the knapsack policy,
        // so the two rows need not tie — but both must post positive
        // utility on the smoke grid.
        let report = run_shootout(&ShootoutGrid::smoke(), 0);
        for row in &report.ranking {
            assert!(
                row.mean_utility > 0.0,
                "{} delivered no viewport utility",
                row.policy
            );
        }
    }
}
