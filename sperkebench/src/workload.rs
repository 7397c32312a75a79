//! The three benchmark workloads: how each builds its inputs from a
//! seed, runs through a stable builder entry point, and checks its own
//! output.

use sperke_core::{
    flash_crowd_clients, run_shootout, zipf_catalog_clients, EdgeBuilder, EdgeClientSpec,
    EdgeConfig, FederationBuilder, FederationConfig, FederationReport, ShootoutCell, ShootoutGrid,
    ShootoutReport, Sperke,
};
use sperke_edge::EdgeReport;
use sperke_hmp::Behavior;
use sperke_sim::{fnv1a64, SimDuration};
use sperke_video::VideoModel;
use sperke_vra::AbrPolicyKind;

/// Video length of the federation and edge workloads, seconds.
const EDGE_VIDEO_SECS: u64 = 20;
/// `fed_flash`: edge nodes, steady early viewers, surge viewers.
const FED_NODES: usize = 4;
const FED_BASE: usize = 100;
const FED_SURGE: usize = 300;
/// `edge_zipf_churn`: clients, catalog titles, Zipf exponent and a tile
/// cache well below the catalog's working set.
const EDGE_CLIENTS: usize = 250;
const EDGE_TITLES: u16 = 32;
const EDGE_ZIPF: f64 = 0.9;
const EDGE_CACHE_BYTES: u64 = 16 << 20;
/// `abr_shootout`: session length and the grid's seed-axis length.
const ABR_SESSION_SECS: u64 = 120;
const ABR_SEEDS: u64 = 4;

/// The seed every workload is tuned against.
pub const DEFAULT_SEED: u64 = 77;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FedFlash,
    EdgeZipfChurn,
    AbrShootout,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::FedFlash, Kind::EdgeZipfChurn, Kind::AbrShootout];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FedFlash => "fed_flash",
            Kind::EdgeZipfChurn => "edge_zipf_churn",
            Kind::AbrShootout => "abr_shootout",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// A seed nobody tunes against: a gain claimed on the default seed
    /// must also hold here.
    pub fn heldout_seed(self) -> u64 {
        match self {
            Kind::FedFlash => 9001,
            Kind::EdgeZipfChurn => 9002,
            Kind::AbrShootout => 9003,
        }
    }
}

/// Everything a workload needs before its timed call: the video, the
/// generated population or grid, and the configured builder.
pub enum Setup {
    Fed {
        video: VideoModel,
        config: FederationConfig,
        clients: Vec<EdgeClientSpec>,
        builder: FederationBuilder,
    },
    Edge {
        video: VideoModel,
        config: EdgeConfig,
        clients: Vec<EdgeClientSpec>,
        builder: EdgeBuilder,
    },
    Abr {
        /// One video per content seed of the grid, as every session
        /// builds it.
        videos: Vec<VideoModel>,
        grid: ShootoutGrid,
    },
}

/// One checked run: the report's hash and every broken identity.
pub struct Outcome {
    pub hash: u64,
    pub problems: Vec<String>,
}

/// A run's report, kept for the profile's counts.
pub enum Report {
    Fed(FederationReport),
    Edge(EdgeReport),
    Abr(ShootoutReport),
}

impl Setup {
    pub fn build(kind: Kind, seed: u64) -> Setup {
        let duration = SimDuration::from_secs(EDGE_VIDEO_SECS);
        match kind {
            Kind::FedFlash => {
                let mut config = FederationConfig {
                    nodes: FED_NODES,
                    seed,
                    ..Default::default()
                };
                config.node.seed = seed;
                // Every node can hold the whole crowd: no rejections.
                config.node.max_clients = FED_BASE + FED_SURGE;
                let clients = flash_crowd_clients(
                    &config.node,
                    FED_BASE,
                    FED_SURGE,
                    SimDuration::from_secs(2),
                    SimDuration::from_millis(5),
                );
                let builder = Sperke::federation_builder(seed)
                    .config(config.clone())
                    .client_specs(clients.clone())
                    .duration(duration);
                Setup::Fed {
                    video: builder.build_video(),
                    config,
                    clients,
                    builder,
                }
            }
            Kind::EdgeZipfChurn => {
                let config = EdgeConfig {
                    clients: EDGE_CLIENTS,
                    max_clients: EDGE_CLIENTS,
                    cache_bytes: EDGE_CACHE_BYTES,
                    seed,
                    ..Default::default()
                };
                let clients = zipf_catalog_clients(&config, EDGE_CLIENTS, EDGE_TITLES, EDGE_ZIPF);
                let builder = Sperke::edge_builder(seed)
                    .config(config)
                    .client_specs(clients.clone())
                    .duration(duration);
                Setup::Edge {
                    video: builder.build_video(),
                    config,
                    clients,
                    builder,
                }
            }
            Kind::AbrShootout => {
                let grid = ShootoutGrid {
                    policies: AbrPolicyKind::all().to_vec(),
                    bandwidths_bps: vec![8e6, 25e6],
                    behaviors: vec![Behavior::Explorer, Behavior::Focused],
                    seeds: (0..ABR_SEEDS).map(|i| seed.wrapping_add(i)).collect(),
                    duration_secs: ABR_SESSION_SECS,
                };
                let videos = grid
                    .seeds
                    .iter()
                    .map(|&s| {
                        Sperke::builder(s)
                            .duration(SimDuration::from_secs(grid.duration_secs))
                            .build_video()
                    })
                    .collect();
                Setup::Abr { videos, grid }
            }
        }
    }

    /// Client-chunk steps (or session-chunk steps) one run plays.
    pub fn steps(&self) -> u64 {
        match self {
            Setup::Fed { video, clients, .. } | Setup::Edge { video, clients, .. } => {
                clients.len() as u64 * video.chunk_count() as u64
            }
            Setup::Abr { grid, .. } => grid.points().len() as u64 * grid.duration_secs,
        }
    }

    /// The timed call: one run through the workload's builder entry
    /// point on `workers` threads, tracing off.
    pub fn run(&self, workers: usize) -> Report {
        match self {
            Setup::Fed { builder, .. } => {
                Report::Fed(builder.clone().workers(workers).run().report)
            }
            Setup::Edge { builder, .. } => Report::Edge(builder.run_batched(workers).report),
            Setup::Abr { grid, .. } => Report::Abr(run_shootout(grid, workers)),
        }
    }

    /// Hash `report` and check the identities every run must keep.
    pub fn check(&self, report: &Report) -> Outcome {
        let mut problems = Vec::new();
        let mut expect = |ok: bool, what: &str| {
            if !ok {
                problems.push(what.to_string());
            }
        };
        let hash = match report {
            Report::Fed(r) => {
                let edge_demand: u64 = r
                    .nodes
                    .iter()
                    .map(|n| n.cache.miss_bytes + n.cache.prefetch_bytes)
                    .sum();
                expect(
                    r.origin_bytes + r.origin_failed_bytes == r.regional.miss_bytes,
                    "origin + origin_failed != regional misses",
                );
                expect(
                    r.regional_ingress_bytes == edge_demand,
                    "regional ingress != edge miss + prefetch",
                );
                expect(
                    r.regional_egress_bytes == r.regional.hit_bytes + r.origin_bytes,
                    "regional egress != regional hits + origin",
                );
                expect(r.admitted == r.clients, "a client was rejected");
                fnv1a64(
                    serde_json::to_string(r)
                        .expect("report serializes")
                        .as_bytes(),
                )
            }
            Report::Edge(r) => {
                expect(
                    r.origin_demand_bytes() == r.cache.miss_bytes + r.cache.prefetch_bytes,
                    "origin demand != cache miss + prefetch",
                );
                expect(r.admitted == r.clients, "a client was rejected");
                fnv1a64(
                    serde_json::to_string(r)
                        .expect("report serializes")
                        .as_bytes(),
                )
            }
            Report::Abr(r) => {
                if let Setup::Abr { grid, .. } = self {
                    expect(
                        r.points.len() == grid.points().len(),
                        "a grid point is missing",
                    );
                    expect(
                        r.points
                            .iter()
                            .all(|p| p.qoe.chunks as u64 == grid.duration_secs),
                        "a session did not play every chunk",
                    );
                    expect(
                        r.ranking.len() == grid.policies.len(),
                        "a policy is unranked",
                    );
                }
                r.digest()
            }
        };
        Outcome { hash, problems }
    }

    /// Build the video a run streams, as the builder does inside its
    /// run (the first content seed's video for the shootout).
    pub fn build_video(&self) -> VideoModel {
        match self {
            Setup::Fed { builder, .. } => builder.build_video(),
            Setup::Edge { builder, .. } => builder.build_video(),
            Setup::Abr { grid, .. } => Sperke::builder(grid.seeds[0])
                .duration(SimDuration::from_secs(grid.duration_secs))
                .build_video(),
        }
    }
}

/// The exact session `run_shootout` plays for one grid cell.
pub fn abr_session(grid: &ShootoutGrid, cell: &ShootoutCell) -> Sperke {
    Sperke::builder(cell.seed)
        .duration(SimDuration::from_secs(grid.duration_secs))
        .single_link(cell.bandwidth_bps)
        .behavior(cell.behavior)
        .abr_policy(cell.policy)
}
