//! # sperke-edge — the multi-client edge delivery model
//!
//! A deterministic edge server multiplexing N concurrent FoV-guided
//! player sessions over one shared egress link:
//!
//! * [`TileCache`] — a bounded, deterministic LRU over tile-chunk SVC
//!   layers keyed `(chunk, tile, layer)`, with exact byte accounting;
//! * [`run_edge`] — the edge world: weighted round-robin egress
//!   fairness, admission control with a hard client cap, graceful
//!   SVC-layer degradation under egress pressure, a serialized origin
//!   backhaul with fault-scripted outages and retry/backoff recovery,
//!   and crowd-driven cache pre-warming from attached clients' head
//!   traces. A pure sense phase shards across worker threads; one
//!   serial replay runs the stateful rest;
//! * [`run_federation`] — N such edges sharded over a shared regional
//!   tier;
//! * [`EdgeReport`] — the aggregate outcome, a pure function of
//!   `(config, clients, harness)`.
//!
//! ```
//! use sperke_edge::{default_clients, run_edge, EdgeConfig, EdgeHarness};
//! use sperke_sim::SimDuration;
//! use sperke_video::VideoModelBuilder;
//!
//! let video = VideoModelBuilder::new(1)
//!     .duration(SimDuration::from_secs(8))
//!     .build();
//! let config = EdgeConfig { clients: 6, ..Default::default() };
//! let clients = default_clients(&config);
//! let report = run_edge(&video, &config, &clients, &EdgeHarness::default(), None, 1);
//! assert_eq!(report.admitted, 6);
//! // Origin traffic balances cache accounting exactly.
//! assert_eq!(
//!     report.origin_demand_bytes(),
//!     report.cache.miss_bytes + report.cache.prefetch_bytes
//! );
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod federation;
#[doc(hidden)]
pub mod oracle;
pub mod server;

pub use batch::{prepare_edge_batch, run_edge, run_edge_prepared, EdgePlan};
pub use cache::{CacheKey, TileCache, TileCacheStats};
pub use federation::{
    flash_crowd_clients, run_federation, zipf_catalog_clients, FederationConfig, FederationHarness,
    FederationReport, FederationRunReport, NodeSpec,
};
pub use server::{default_clients, EdgeClientSpec, EdgeConfig, EdgeHarness, EdgeReport};
