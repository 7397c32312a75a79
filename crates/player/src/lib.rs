//! # sperke-player — the FoV-guided adaptive streaming client
//!
//! Figure 4's client-side logic as a deterministic simulation: the
//! [`CellBuffer`] (encoded chunk cache), the per-session QoE model
//! ([`QoeReport`], §3.1.2's stalls/bitrate/switches plus 360°-specific
//! viewport quality and blank fraction), and [`run_session`] — the one
//! session loop, which plans with `sperke-vra`, forecasts with
//! `sperke-hmp`, transfers with `sperke-net`, applies incremental
//! upgrades, and scores what the user actually saw. Its inner ABR,
//! multipath scheduler and forecaster are trait objects. What happened
//! is recorded in the deterministic trace ([`PlayerConfig::trace`]);
//! [`SessionResult::records`] holds every displayed chunk.

#![warn(missing_docs)]

pub mod buffer;
pub mod client;
pub mod qoe;
pub mod session;

pub use buffer::{BufferedCell, CellBuffer};
pub use client::{ClientStats, DashClient};
pub use qoe::{ChunkRecord, QoeReport, QoeWeights};
pub use session::{run_session, PlannerKind, PlayerConfig, SessionResult};
