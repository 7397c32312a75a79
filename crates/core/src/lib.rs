//! # sperke-core — the Sperke FoV-guided 360° streaming framework
//!
//! A complete, simulation-backed implementation of the research agenda
//! of *"360° Innovations for Panoramic Video Streaming"* (HotNets 2017):
//! the Sperke tiling-based streaming framework (Figure 2/4) plus every
//! §3 building block —
//!
//! * **§3.1** SVC incremental chunk upgrades and the three-part 360° VRA
//!   ([`vra`]),
//! * **§3.2** big-data head-movement prediction: traces, behaviour
//!   models, popularity heatmaps and the fused forecaster ([`hmp`]),
//! * **§3.3** content-aware multipath scheduling ([`net`]),
//! * **§3.4** live broadcast: the Table-2 platform study, spatial
//!   fall-back and crowd-sourced HMP ([`live`]),
//! * **§3.5** the client decode/render pipeline of Figure 5
//!   ([`pipeline`]).
//!
//! The [`Sperke`] builder is the five-line entry point:
//!
//! ```
//! use sperke_core::{Sperke, SchedulerChoice};
//! use sperke_sim::SimDuration;
//!
//! let result = Sperke::builder(42)
//!     .duration(SimDuration::from_secs(10))
//!     .wifi_plus_lte()
//!     .scheduler(SchedulerChoice::ContentAware)
//!     .run();
//! assert_eq!(result.qoe.chunks, 10);
//! println!("viewport utility {:.2}, stalls {}", result.qoe.mean_viewport_utility, result.qoe.stall_count);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod edge;
pub mod federation;
pub mod shootout;
pub mod sweep;

pub use builder::{AbrChoice, RunReport, SchedulerChoice, Sperke};
pub use edge::{run_edge_sweep, EdgeBuilder, EdgeGrid, EdgeRunReport, EdgeSweepPoint};
pub use federation::FederationBuilder;
pub use shootout::{
    run_shootout, PolicyRank, ShootoutCell, ShootoutGrid, ShootoutPoint, ShootoutReport,
};
pub use sperke_edge::{
    flash_crowd_clients, run_edge, run_federation, zipf_catalog_clients, EdgeClientSpec,
    EdgeConfig, EdgeHarness, EdgeReport, FederationConfig, FederationHarness, FederationReport,
    FederationRunReport, NodeSpec, TileCache,
};
pub use sperke_net::{BbrState, FaultScript, FaultSpec, LossChannel, PathFaults};
pub use sperke_sim::sweep::{SweepPlan, SweepReport, SweepSummary};
pub use sperke_sim::trace::{Trace, TraceEvent, TraceLevel};
pub use sweep::{SperkeSweep, SperkeSweepPoint};

// Re-export the subsystem crates under stable names so downstream users
// depend on one crate.
pub use sperke_geo as geo;
pub use sperke_hmp as hmp;
pub use sperke_live as live;
pub use sperke_net as net;
pub use sperke_pipeline as pipeline;
pub use sperke_player as player;
pub use sperke_sim as sim;
pub use sperke_video as video;
pub use sperke_vra as vra;
