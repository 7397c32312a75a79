//! Deterministic trace and observability layer.
//!
//! Every subsystem in the Sperke stack can emit typed, [`SimTime`]-stamped
//! [`TraceEvent`]s into a shared [`TraceSink`]: the network layer logs path
//! selection and transfer completions, the VRA logs rate-adaptation
//! decisions with their candidate qualities, the player logs buffer levels
//! and stall/blank events, and the edge and federation tiers log
//! admissions and cache activity. The sink is a bounded ring buffer gated by one
//! level; a disabled sink is a single `Option` check, so instrumented hot
//! paths cost nothing when tracing is off.
//!
//! Because the whole stack runs on a virtual clock from a single seed, the
//! captured trace is *bit-identical* across runs: [`Trace::to_jsonl`]
//! yields byte-identical JSON lines for identical seeds, and
//! [`Trace::digest`] (an FNV-1a 64-bit hash of those bytes) gives a stable
//! fingerprint suitable for golden-trace regression tests.
//!
//! ```
//! use sperke_sim::trace::{Subsystem, TraceEvent, TraceLevel, TraceSink};
//! use sperke_sim::SimTime;
//!
//! let sink = TraceSink::with_level(TraceLevel::Decisions);
//! sink.emit(TraceEvent::StallStarted { at: SimTime::from_secs(2), chunk: 4 });
//! let trace = sink.snapshot();
//! assert_eq!(trace.len(), 1);
//! assert_eq!(trace.for_subsystem(Subsystem::Player).len(), 1);
//! println!("{}", trace.to_jsonl()); // {"StallStarted":{"at":2000000000,"chunk":4}}
//! assert_ne!(trace.digest(), 0);
//! ```

use crate::metrics::{Counter, Histogram, TimeSeries};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// How much detail a subsystem records. Levels are cumulative: enabling
/// [`TraceLevel::Verbose`] also records everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TraceLevel {
    /// Record nothing (the default; emission is a no-op).
    Off,
    /// Major session lifecycle: stalls, blank frames, applied upgrades.
    Events,
    /// Per-chunk decisions: ABR choices, path assignments, transfer
    /// completions, bandwidth updates, buffer levels.
    Decisions,
    /// Per-request detail: edge and regional cache hits and misses,
    /// and per-ACK delivery-rate samples.
    Verbose,
}

/// Which part of the stack an event came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Subsystem {
    /// The simulation kernel itself.
    Sim,
    /// Multipath networking and bandwidth estimation (`sperke-net`).
    Net,
    /// Rate adaptation (`sperke-vra`).
    Vra,
    /// The streaming player loop (`sperke-player`).
    Player,
    /// The multi-client edge server (`sperke-edge`).
    Edge,
    /// The multi-edge federation tier (`sperke-edge::federation`).
    Federation,
}

impl Subsystem {
    /// All subsystems, in declaration order.
    pub const ALL: [Subsystem; 6] = [
        Subsystem::Sim,
        Subsystem::Net,
        Subsystem::Vra,
        Subsystem::Player,
        Subsystem::Edge,
        Subsystem::Federation,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Sim => "sim",
            Subsystem::Net => "net",
            Subsystem::Vra => "vra",
            Subsystem::Player => "player",
            Subsystem::Edge => "edge",
            Subsystem::Federation => "federation",
        }
    }
}

/// One (quality, bitrate, utility) candidate weighed by an ABR decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateQuality {
    /// Ladder quality index.
    pub quality: u8,
    /// Effective bitrate of the super chunk at this quality, bits/second.
    pub bitrate_bps: f64,
    /// The ladder's utility for this quality.
    pub utility: f64,
}

/// A typed, `SimTime`-stamped trace event. Fields are primitives so the
/// kernel stays free of dependencies on the domain crates; emitters
/// convert their ids (`TileId`, `ChunkTime`, `Quality`) to raw integers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    // --- Player ---------------------------------------------------------
    /// The playback buffer level observed when planning a chunk.
    BufferLevel {
        /// When the level was sampled.
        at: SimTime,
        /// The chunk being planned.
        chunk: u32,
        /// Buffer level in milliseconds of playback.
        level_ms: u64,
    },
    /// Playback entered a stall waiting for a chunk.
    StallStarted {
        /// The missed deadline.
        at: SimTime,
        /// The blocking chunk.
        chunk: u32,
    },
    /// Playback resumed after a stall.
    StallEnded {
        /// When playback resumed.
        at: SimTime,
        /// The chunk that was blocking.
        chunk: u32,
        /// Stall length in milliseconds.
        duration_ms: u64,
    },
    /// Part of the displayed viewport had no delivered tile (or, for a
    /// skipped realtime chunk, the whole frame was blank).
    BlankFrame {
        /// Display time.
        at: SimTime,
        /// The chunk displayed.
        chunk: u32,
        /// Blank fraction of the viewport, in `[0, 1]`.
        fraction: f64,
    },

    // --- VRA ------------------------------------------------------------
    /// The inner ABR chose a super-chunk quality.
    AbrDecision {
        /// Decision time.
        at: SimTime,
        /// The chunk planned.
        chunk: u32,
        /// The chosen ladder quality.
        chosen: u8,
        /// Buffer level in milliseconds at decision time.
        buffer_ms: u64,
        /// Bandwidth estimate used, bits/second (`0.0` before any sample).
        bandwidth_bps: f64,
        /// The candidate qualities that were weighed.
        candidates: Vec<CandidateQuality>,
    },
    /// An incremental upgrade was fetched and applied in time (§3.1.1).
    UpgradeGranted {
        /// Completion time.
        at: SimTime,
        /// The upgraded tile.
        tile: u16,
        /// The chunk time.
        chunk: u32,
        /// Quality reached.
        to: u8,
        /// Delta bytes fetched.
        delta_bytes: u64,
    },
    /// An upgrade candidate was dropped (skipped, deferred past its
    /// deadline, or delivered too late to display).
    UpgradeRejected {
        /// Decision time.
        at: SimTime,
        /// The candidate tile.
        tile: u16,
        /// The chunk time.
        chunk: u32,
        /// The quality that was wanted.
        want: u8,
    },

    /// A tile's chunk missed its deadline and the player rendered the
    /// previously buffered (base/low-layer) frame instead of blank —
    /// the paper's spatial fall-back applied on the display side.
    FallbackFrame {
        /// Display time.
        at: SimTime,
        /// The chunk displayed.
        chunk: u32,
        /// Degraded (fallen-back) fraction of the viewport, in `[0, 1]`.
        fraction: f64,
    },

    // --- Net ------------------------------------------------------------
    /// The multipath scheduler assigned a chunk request to a path; this
    /// also marks the transfer's start (submission time).
    PathAssigned {
        /// Submission time.
        at: SimTime,
        /// Chosen path index.
        path: u32,
        /// Request size in bytes.
        bytes: u64,
        /// Whether the chunk is FoV (vs out-of-sight).
        fov: bool,
        /// Whether the chunk is deadline-urgent.
        urgent: bool,
        /// Whether delivery is reliable (vs best-effort).
        reliable: bool,
    },
    /// A transfer finished (delivered or dropped).
    TransferFinished {
        /// Completion time.
        at: SimTime,
        /// Path that carried it.
        path: u32,
        /// Transfer size in bytes.
        bytes: u64,
        /// `false` when a best-effort transfer was dropped.
        delivered: bool,
    },
    /// The bandwidth estimator absorbed a goodput sample.
    BandwidthUpdated {
        /// Sample time.
        at: SimTime,
        /// Observed goodput, bits/second.
        goodput_bps: f64,
        /// The estimator's updated estimate, bits/second.
        estimate_bps: f64,
    },
    /// A path entered a scripted outage (fault injection).
    PathDown {
        /// When the link went down.
        at: SimTime,
        /// The affected path index.
        path: u32,
    },
    /// A path recovered from a scripted outage.
    PathUp {
        /// When the link came back.
        at: SimTime,
        /// The recovered path index.
        path: u32,
    },
    /// A transfer was interrupted by an outage or abandoned by the
    /// client's deadline-based timeout.
    TransferTimedOut {
        /// When the client detected the failure.
        at: SimTime,
        /// Path the attempt ran on.
        path: u32,
        /// Transfer size in bytes.
        bytes: u64,
        /// Which attempt failed (1 = the first try).
        attempt: u32,
    },
    /// The recovery layer scheduled a retry after exponential backoff.
    RetryScheduled {
        /// Decision time (the moment the failed attempt was detected).
        at: SimTime,
        /// Path of the failed attempt being retried.
        path: u32,
        /// Transfer size in bytes.
        bytes: u64,
        /// The upcoming attempt number.
        attempt: u32,
        /// Backoff delay before the retry, in milliseconds.
        delay_ms: u64,
    },
    /// A path's BBR-style estimator rolled into a new probe epoch.
    ProbeEpochStarted {
        /// When the epoch began.
        at: SimTime,
        /// The probed path index.
        path: u32,
        /// The epoch number (monotone per path).
        epoch: u64,
        /// The pacing gain in effect for the epoch.
        gain: f64,
    },
    /// A path's BBR-style estimator absorbed a delivery-rate sample.
    DeliveryRateSample {
        /// When the sample landed (transfer completion).
        at: SimTime,
        /// The sampled path index.
        path: u32,
        /// The delivery-rate sample, bits/second.
        rate_bps: f64,
        /// The max-filtered bottleneck estimate after the sample.
        btl_bw_bps: f64,
    },
    /// A path's Gilbert–Elliott loss channel switched state.
    LossStateChanged {
        /// When the chain flipped.
        at: SimTime,
        /// The affected path index.
        path: u32,
        /// `true` when the chain entered the Bad (bursty) state.
        bursty: bool,
    },

    // --- Edge ---------------------------------------------------------
    /// An edge server admitted a client session.
    ClientAdmitted {
        /// Admission time.
        at: SimTime,
        /// The admitted client's id.
        client: u32,
    },
    /// An edge server throttled a client: turned away at the admission
    /// cap (`admitted: false`) or degraded to lower SVC layers under
    /// egress pressure (`admitted: true`).
    ClientThrottled {
        /// Throttle time.
        at: SimTime,
        /// The affected client's id.
        client: u32,
        /// Whether the client holds an admitted session.
        admitted: bool,
    },
    /// A tile-chunk lookup was served from the edge's shared cache
    /// (including hits on an entry already in flight from the origin).
    EdgeCacheHit {
        /// Lookup time.
        at: SimTime,
        /// The tile requested.
        tile: u16,
        /// The chunk time requested.
        chunk: u32,
        /// The SVC layer requested.
        layer: u8,
        /// The layer's size in bytes.
        bytes: u64,
    },
    /// A tile-chunk lookup missed the edge cache and triggered an
    /// origin fetch.
    EdgeCacheMiss {
        /// Lookup time.
        at: SimTime,
        /// The tile requested.
        tile: u16,
        /// The chunk time requested.
        chunk: u32,
        /// The SVC layer requested.
        layer: u8,
        /// The layer's size in bytes.
        bytes: u64,
    },
    /// The edge pre-warmed its cache with a crowd-predicted tile before
    /// any client asked for it.
    EdgePrefetch {
        /// Prefetch decision time.
        at: SimTime,
        /// The tile prefetched.
        tile: u16,
        /// The chunk time prefetched.
        chunk: u32,
        /// The SVC layer prefetched.
        layer: u8,
        /// The layer's size in bytes.
        bytes: u64,
    },

    // --- Federation -----------------------------------------------------
    /// An edge node's miss was served out of the shared regional cache
    /// (cooperative hit: some sibling already pulled the object).
    RegionalCacheHit {
        /// Lookup time.
        at: SimTime,
        /// The requesting edge node's index.
        node: u32,
        /// The tile requested.
        tile: u16,
        /// The (content-salted) chunk key requested.
        chunk: u32,
        /// The SVC layer requested.
        layer: u8,
        /// The layer's size in bytes.
        bytes: u64,
    },
    /// An edge node's miss also missed the regional tier and was
    /// forwarded to the shared origin backhaul.
    RegionalCacheMiss {
        /// Lookup time.
        at: SimTime,
        /// The requesting edge node's index.
        node: u32,
        /// The tile requested.
        tile: u16,
        /// The (content-salted) chunk key requested.
        chunk: u32,
        /// The SVC layer requested.
        layer: u8,
        /// The layer's size in bytes.
        bytes: u64,
    },
    /// An edge node crashed (crash-stop): in-flight work is written off
    /// and its clients are re-homed onto the surviving nodes.
    NodeFailed {
        /// Crash time.
        at: SimTime,
        /// The failed node's index.
        node: u32,
    },
    /// A client was deterministically re-homed after its edge node
    /// failed.
    ClientRehomed {
        /// Re-homing time (the crash time).
        at: SimTime,
        /// The re-homed client's id.
        client: u32,
        /// The failed node it was homed on.
        from_node: u32,
        /// The surviving node it now lives on.
        to_node: u32,
    },
}

impl TraceEvent {
    /// The event's virtual timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::BufferLevel { at, .. }
            | TraceEvent::StallStarted { at, .. }
            | TraceEvent::StallEnded { at, .. }
            | TraceEvent::BlankFrame { at, .. }
            | TraceEvent::FallbackFrame { at, .. }
            | TraceEvent::AbrDecision { at, .. }
            | TraceEvent::UpgradeGranted { at, .. }
            | TraceEvent::UpgradeRejected { at, .. }
            | TraceEvent::PathAssigned { at, .. }
            | TraceEvent::TransferFinished { at, .. }
            | TraceEvent::BandwidthUpdated { at, .. }
            | TraceEvent::PathDown { at, .. }
            | TraceEvent::PathUp { at, .. }
            | TraceEvent::TransferTimedOut { at, .. }
            | TraceEvent::RetryScheduled { at, .. }
            | TraceEvent::ProbeEpochStarted { at, .. }
            | TraceEvent::DeliveryRateSample { at, .. }
            | TraceEvent::LossStateChanged { at, .. }
            | TraceEvent::ClientAdmitted { at, .. }
            | TraceEvent::ClientThrottled { at, .. }
            | TraceEvent::EdgeCacheHit { at, .. }
            | TraceEvent::EdgeCacheMiss { at, .. }
            | TraceEvent::EdgePrefetch { at, .. }
            | TraceEvent::RegionalCacheHit { at, .. }
            | TraceEvent::RegionalCacheMiss { at, .. }
            | TraceEvent::NodeFailed { at, .. }
            | TraceEvent::ClientRehomed { at, .. } => at,
        }
    }

    /// The subsystem the event belongs to.
    fn subsystem(&self) -> Subsystem {
        match self {
            TraceEvent::BufferLevel { .. }
            | TraceEvent::StallStarted { .. }
            | TraceEvent::StallEnded { .. }
            | TraceEvent::BlankFrame { .. }
            | TraceEvent::FallbackFrame { .. } => Subsystem::Player,
            TraceEvent::AbrDecision { .. }
            | TraceEvent::UpgradeGranted { .. }
            | TraceEvent::UpgradeRejected { .. } => Subsystem::Vra,
            TraceEvent::PathAssigned { .. }
            | TraceEvent::TransferFinished { .. }
            | TraceEvent::BandwidthUpdated { .. }
            | TraceEvent::PathDown { .. }
            | TraceEvent::PathUp { .. }
            | TraceEvent::TransferTimedOut { .. }
            | TraceEvent::RetryScheduled { .. }
            | TraceEvent::ProbeEpochStarted { .. }
            | TraceEvent::DeliveryRateSample { .. }
            | TraceEvent::LossStateChanged { .. } => Subsystem::Net,
            TraceEvent::ClientAdmitted { .. }
            | TraceEvent::ClientThrottled { .. }
            | TraceEvent::EdgeCacheHit { .. }
            | TraceEvent::EdgeCacheMiss { .. }
            | TraceEvent::EdgePrefetch { .. } => Subsystem::Edge,
            TraceEvent::RegionalCacheHit { .. }
            | TraceEvent::RegionalCacheMiss { .. }
            | TraceEvent::NodeFailed { .. }
            | TraceEvent::ClientRehomed { .. } => Subsystem::Federation,
        }
    }

    /// The minimum level at which the event is recorded.
    pub fn level(&self) -> TraceLevel {
        match self {
            TraceEvent::StallStarted { .. }
            | TraceEvent::StallEnded { .. }
            | TraceEvent::BlankFrame { .. }
            | TraceEvent::FallbackFrame { .. }
            | TraceEvent::UpgradeGranted { .. }
            | TraceEvent::PathDown { .. }
            | TraceEvent::PathUp { .. }
            | TraceEvent::TransferTimedOut { .. }
            | TraceEvent::ClientAdmitted { .. }
            | TraceEvent::ClientThrottled { .. }
            | TraceEvent::NodeFailed { .. }
            | TraceEvent::ClientRehomed { .. } => TraceLevel::Events,
            TraceEvent::EdgePrefetch { .. } => TraceLevel::Decisions,
            TraceEvent::BufferLevel { .. }
            | TraceEvent::AbrDecision { .. }
            | TraceEvent::UpgradeRejected { .. }
            | TraceEvent::PathAssigned { .. }
            | TraceEvent::TransferFinished { .. }
            | TraceEvent::BandwidthUpdated { .. }
            | TraceEvent::RetryScheduled { .. }
            | TraceEvent::ProbeEpochStarted { .. }
            | TraceEvent::LossStateChanged { .. } => TraceLevel::Decisions,
            TraceEvent::EdgeCacheHit { .. }
            | TraceEvent::EdgeCacheMiss { .. }
            | TraceEvent::RegionalCacheHit { .. }
            | TraceEvent::RegionalCacheMiss { .. }
            | TraceEvent::DeliveryRateSample { .. } => TraceLevel::Verbose,
        }
    }
}

/// Sink configuration: one level for every subsystem, and the
/// ring-buffer capacity.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    level: TraceLevel,
    capacity: usize,
}

impl TraceConfig {
    /// A config recording every subsystem at `level`, with the default
    /// ring capacity (65 536 events).
    pub fn new(level: TraceLevel) -> TraceConfig {
        TraceConfig {
            level,
            capacity: 1 << 16,
        }
    }

    /// Bound the ring buffer to `capacity` events (oldest are dropped).
    pub fn capacity(mut self, capacity: usize) -> TraceConfig {
        assert!(capacity > 0, "trace capacity must be positive");
        self.capacity = capacity;
        self
    }
}

/// A registry of labeled metric recorders, unifying [`Counter`],
/// [`TimeSeries`] and [`Histogram`] behind stable string names. Maps are
/// ordered so JSON export and digests are deterministic.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    series: BTreeMap<String, TimeSeries>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        self.counters.entry(name.to_owned()).or_default()
    }

    /// The time series registered under `name`, created on first use.
    pub fn series(&mut self, name: &str) -> &mut TimeSeries {
        self.series.entry(name.to_owned()).or_default()
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_owned()).or_default()
    }

    /// Read a counter's total; `None` if never registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|c| c.get())
    }

    /// Read a registered histogram.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Names of all registered metrics, as `(kind, name)` pairs in
    /// deterministic order.
    pub fn names(&self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        for k in self.counters.keys() {
            out.push(("counter", k.clone()));
        }
        for k in self.series.keys() {
            out.push(("series", k.clone()));
        }
        for k in self.histograms.keys() {
            out.push(("histogram", k.clone()));
        }
        out
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.series.is_empty() && self.histograms.is_empty()
    }

    /// One JSON summary line per metric: counters report their total,
    /// series their count/last, histograms count/mean/p50/p99.
    pub fn to_jsonl(&self) -> String {
        let mut lines = Vec::new();
        for (name, c) in &self.counters {
            lines.push(format!(
                "{{\"metric\":{},\"kind\":\"counter\",\"value\":{}}}",
                serde_json::to_string(name).expect("name serializes"),
                c.get()
            ));
        }
        for (name, s) in &self.series {
            lines.push(format!(
                "{{\"metric\":{},\"kind\":\"series\",\"count\":{},\"last\":{}}}",
                serde_json::to_string(name).expect("name serializes"),
                s.len(),
                serde_json::to_string(&s.last().unwrap_or(0.0)).expect("f64 serializes"),
            ));
        }
        for (name, h) in &self.histograms {
            lines.push(format!(
                "{{\"metric\":{},\"kind\":\"histogram\",\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}",
                serde_json::to_string(name).expect("name serializes"),
                h.count(),
                serde_json::to_string(&h.mean()).expect("f64 serializes"),
                serde_json::to_string(&h.percentile(50.0)).expect("f64 serializes"),
                serde_json::to_string(&h.percentile(99.0)).expect("f64 serializes"),
            ));
        }
        lines.join("\n")
    }
}

#[derive(Debug)]
struct SinkInner {
    config: TraceConfig,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    metrics: MetricsRegistry,
}

/// A shared handle to the trace buffer. Cloning is cheap (a reference
/// count); a disabled sink carries no allocation at all, so passing one
/// through hot paths and emitting into it costs a single branch.
///
/// The buffer sits behind an `Arc<Mutex<..>>`, so a sink (and anything
/// holding one, like an edge world) is `Send + Sync`. Every engine
/// emits only from the one thread that replays its events, so within a
/// run no lock is contended and event order stays deterministic.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<SinkInner>>>,
}

/// Lock a sink's state, surviving a poisoned mutex (a panicking worker
/// must not mask the original failure with a second one).
fn lock(inner: &Mutex<SinkInner>) -> MutexGuard<'_, SinkInner> {
    inner.lock().unwrap_or_else(|p| p.into_inner())
}

impl TraceSink {
    /// A sink that records nothing. Emission is a no-op.
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// A sink recording per `config`. A config whose effective level is
    /// `Off` for every subsystem still allocates; use
    /// [`TraceSink::with_level`] to get the no-op sink for `Off`.
    pub fn new(config: TraceConfig) -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(SinkInner {
                config,
                events: VecDeque::new(),
                dropped: 0,
                metrics: MetricsRegistry::new(),
            }))),
        }
    }

    /// A sink recording every subsystem at `level`;
    /// [`TraceLevel::Off`] yields the disabled (no-op) sink.
    pub fn with_level(level: TraceLevel) -> TraceSink {
        if level == TraceLevel::Off {
            TraceSink::disabled()
        } else {
            TraceSink::new(TraceConfig::new(level))
        }
    }

    /// True when the sink records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when the sink records events at `level`. Use this to guard
    /// emission sites whose payload is expensive to build.
    #[inline]
    pub fn enabled(&self, level: TraceLevel) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => lock(inner).config.level >= level,
        }
    }

    /// Record an event if the sink's level admits it. On a disabled sink
    /// this is a single branch.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        let mut inner = lock(inner);
        if inner.config.level < event.level() {
            return;
        }
        if inner.events.len() >= inner.config.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Access the shared [`MetricsRegistry`]; returns `None` (without
    /// calling `f`) on a disabled sink.
    pub fn metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| f(&mut lock(inner).metrics))
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| lock(inner).events.len())
    }

    /// True when nothing has been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the captured trace out of the sink. The sink keeps recording;
    /// snapshots taken later include earlier events (ring bound allowing).
    pub fn snapshot(&self) -> Trace {
        match &self.inner {
            None => Trace {
                level: TraceLevel::Off,
                events: Vec::new(),
                dropped: 0,
                metrics: MetricsRegistry::new(),
            },
            Some(inner) => {
                let inner = lock(inner);
                Trace {
                    level: inner.config.level,
                    events: inner.events.iter().cloned().collect(),
                    dropped: inner.dropped,
                    metrics: inner.metrics.clone(),
                }
            }
        }
    }

    /// Consume the sink, moving the captured trace out without cloning
    /// a single event. When this is the last handle (the common
    /// end-of-run case: schedulers and worlds have been dropped), the
    /// ring buffer is transferred wholesale; if other handles are still
    /// alive the call degrades to a [`TraceSink::snapshot`] copy.
    pub fn into_trace(self) -> Trace {
        match self.inner {
            None => Trace {
                level: TraceLevel::Off,
                events: Vec::new(),
                dropped: 0,
                metrics: MetricsRegistry::new(),
            },
            Some(inner) => match Arc::try_unwrap(inner) {
                Ok(mutex) => {
                    let inner = mutex.into_inner().unwrap_or_else(|p| p.into_inner());
                    Trace {
                        level: inner.config.level,
                        events: inner.events.into(),
                        dropped: inner.dropped,
                        metrics: inner.metrics,
                    }
                }
                Err(shared) => TraceSink {
                    inner: Some(shared),
                }
                .snapshot(),
            },
        }
    }
}

/// A captured trace: the recorded events (oldest first), how many were
/// dropped by the ring bound, and the metrics registry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    level: TraceLevel,
    events: Vec<TraceEvent>,
    dropped: u64,
    metrics: MetricsRegistry,
}

impl Trace {
    /// The level the sink recorded at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped by the ring bound (oldest-first eviction).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The metrics recorded alongside the events.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Events from one subsystem.
    pub fn for_subsystem(&self, subsystem: Subsystem) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.subsystem() == subsystem)
            .collect()
    }

    /// Export as newline-delimited JSON, one event per line. The encoding
    /// is fully deterministic (ordered keys, stable float formatting), so
    /// identical runs produce byte-identical output.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        jsonl(&self.events, |bytes| out.push_str(bytes));
        out
    }

    /// The recorded events sorted by timestamp, ties broken by emission
    /// order (a stable sort), so the result is deterministic.
    ///
    /// The live buffer preserves *emission* order, which is the causal
    /// order decisions were made in but is not globally time-sorted: a
    /// handful of events are stamped with the future time they take
    /// effect (`UpgradeGranted` at its completion, deferred net events
    /// drained out of submission order when the upgrade pass runs ahead
    /// of the fetch clock). This view restores a globally nondecreasing
    /// timeline for analysis tools that require one.
    pub fn events_ordered(&self) -> Vec<&TraceEvent> {
        let mut out: Vec<&TraceEvent> = self.events.iter().collect();
        out.sort_by_key(|e| e.at());
        out
    }

    /// Export as newline-delimited JSON sorted by timestamp (stable, see
    /// [`Trace::events_ordered`]): guaranteed nondecreasing `at` fields,
    /// byte-identical across identical runs.
    pub fn to_jsonl_ordered(&self) -> String {
        let mut out = String::new();
        jsonl(self.events_ordered(), |bytes| out.push_str(bytes));
        out
    }

    /// A stable 64-bit fingerprint of the trace: FNV-1a over the JSONL
    /// bytes, folded with the dropped count. Identical seeds and levels
    /// produce identical digests across runs and platforms.
    ///
    /// Hashes incrementally — each event serializes into one reusable
    /// buffer whose bytes feed the hash directly, so the digest of an
    /// arbitrarily long trace allocates only that buffer (the value is
    /// identical to hashing the full [`Trace::to_jsonl`] string).
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        jsonl(&self.events, |bytes| {
            h = bytes.bytes().fold(h, fnv1a64_step);
        });
        for b in self.dropped.to_le_bytes() {
            h = fnv1a64_step(h, b);
        }
        h
    }
}

/// The JSONL encoding of `events`: hands `out` each event's line and
/// the `'\n'` between lines, in order. Every line serializes into one
/// reused buffer, so the caller decides what, if anything, to keep.
fn jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>, mut out: impl FnMut(&str)) {
    let mut line = String::new();
    for (i, e) in events.into_iter().enumerate() {
        if i > 0 {
            out("\n");
        }
        line.clear();
        e.write_json(&mut line);
        out(&line);
    }
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a64_step(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// FNV-1a 64-bit hash of a byte slice. Small, dependency-free and stable
/// across platforms — the digest primitive for golden-trace tests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a64_step(h, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall(at_secs: u64, chunk: u32) -> TraceEvent {
        TraceEvent::StallStarted {
            at: SimTime::from_secs(at_secs),
            chunk,
        }
    }

    fn cache_hit(at_secs: u64) -> TraceEvent {
        TraceEvent::EdgeCacheHit {
            at: SimTime::from_secs(at_secs),
            tile: 2,
            chunk: 1,
            layer: 0,
            bytes: 4_096,
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        sink.emit(stall(1, 0));
        assert!(!sink.is_enabled());
        assert!(sink.is_empty());
        assert_eq!(sink.metrics(|m| m.counter("x").incr()), None);
        let trace = sink.snapshot();
        assert!(trace.is_empty());
        assert_eq!(trace.level(), TraceLevel::Off);
    }

    #[test]
    fn with_level_off_is_disabled() {
        assert!(!TraceSink::with_level(TraceLevel::Off).is_enabled());
        assert!(TraceSink::with_level(TraceLevel::Events).is_enabled());
    }

    #[test]
    fn levels_filter_events() {
        let sink = TraceSink::with_level(TraceLevel::Events);
        sink.emit(stall(1, 0)); // Events — recorded
        sink.emit(cache_hit(1)); // Verbose — filtered
        assert_eq!(sink.len(), 1);
        let verbose = TraceSink::with_level(TraceLevel::Verbose);
        verbose.emit(stall(1, 0));
        verbose.emit(cache_hit(1));
        assert_eq!(verbose.len(), 2);
    }

    #[test]
    fn ring_bound_drops_oldest() {
        let sink = TraceSink::new(TraceConfig::new(TraceLevel::Events).capacity(3));
        for i in 0..5 {
            sink.emit(stall(i, i as u32));
        }
        let trace = sink.snapshot();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 2);
        assert_eq!(
            trace.events()[0].at(),
            SimTime::from_secs(2),
            "oldest dropped first"
        );
    }

    #[test]
    fn clones_share_the_buffer() {
        let sink = TraceSink::with_level(TraceLevel::Decisions);
        let clone = sink.clone();
        clone.emit(stall(1, 0));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn streaming_jsonl_matches_per_event_to_string_construction() {
        // Pins the streaming serializer (reusable buffer + incremental
        // digest) byte-for-byte against the original construction:
        // serde_json::to_string per event, joined with '\n', hashed as
        // one buffer. Goldens across the workspace depend on these bytes.
        let sink = TraceSink::new(TraceConfig::new(TraceLevel::Verbose).capacity(4));
        sink.emit(TraceEvent::StallStarted {
            at: SimTime::from_millis(2500),
            chunk: 3,
        });
        sink.emit(cache_hit(1)); // out-of-order timestamp for the ordered view
        sink.emit(TraceEvent::AbrDecision {
            at: SimTime::from_secs(4),
            chunk: 9,
            chosen: 1,
            buffer_ms: 125,
            bandwidth_bps: 2.5e6,
            candidates: Vec::new(),
        });
        for i in 0..3 {
            sink.emit(stall(5 + i, i as u32)); // overflow the ring → dropped > 0
        }
        let trace = sink.into_trace();
        assert_eq!(trace.dropped(), 2);

        let legacy: Vec<String> = trace
            .events()
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect();
        let legacy_jsonl = legacy.join("\n");
        assert_eq!(trace.to_jsonl(), legacy_jsonl);

        let legacy_ordered = trace
            .events_ordered()
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(trace.to_jsonl_ordered(), legacy_ordered);

        let mut h = fnv1a64(legacy_jsonl.as_bytes());
        for b in trace.dropped().to_le_bytes() {
            h = fnv1a64_step(h, b);
        }
        assert_eq!(trace.digest(), h);
    }

    #[test]
    fn jsonl_is_deterministic_and_digest_stable() {
        let mk = || {
            let sink = TraceSink::with_level(TraceLevel::Verbose);
            sink.emit(stall(1, 7));
            sink.emit(TraceEvent::AbrDecision {
                at: SimTime::from_millis(1500),
                chunk: 7,
                chosen: 2,
                buffer_ms: 1800,
                bandwidth_bps: 24.5e6,
                candidates: vec![CandidateQuality {
                    quality: 2,
                    bitrate_bps: 12e6,
                    utility: 1.5,
                }],
            });
            sink.snapshot()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.to_jsonl().lines().count(), 2);
        // A different trace digests differently.
        let sink = TraceSink::with_level(TraceLevel::Verbose);
        sink.emit(stall(2, 7));
        assert_ne!(sink.snapshot().digest(), a.digest());
    }

    #[test]
    fn trace_events_roundtrip_through_json() {
        let sink = TraceSink::with_level(TraceLevel::Verbose);
        sink.emit(TraceEvent::PathAssigned {
            at: SimTime::from_millis(250),
            path: 1,
            bytes: 40_000,
            fov: true,
            urgent: false,
            reliable: true,
        });
        sink.emit(cache_hit(3));
        for event in sink.snapshot().events() {
            let json = serde_json::to_string(event).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, event);
        }
    }

    #[test]
    fn metrics_registry_unifies_recorders() {
        let mut m = MetricsRegistry::new();
        m.counter("player.stalls").incr();
        m.counter("player.stalls").add(2);
        m.series("player.buffer").record(SimTime::from_secs(1), 1.5);
        m.histogram("net.goodput").record(20e6);
        assert_eq!(m.counter_value("player.stalls"), Some(3));
        assert_eq!(m.series("player.buffer").len(), 1);
        assert_eq!(m.get_histogram("net.goodput").unwrap().count(), 1);
        assert_eq!(m.names().len(), 3);
        assert_eq!(m.to_jsonl().lines().count(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn metrics_flow_through_the_sink() {
        let sink = TraceSink::with_level(TraceLevel::Events);
        sink.metrics(|m| m.counter("bytes").add(10));
        sink.metrics(|m| m.counter("bytes").add(5));
        let trace = sink.snapshot();
        assert_eq!(trace.metrics().counter_value("bytes"), Some(15));
    }

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn for_subsystem_filters() {
        let sink = TraceSink::with_level(TraceLevel::Verbose);
        sink.emit(stall(1, 0));
        sink.emit(cache_hit(2));
        let trace = sink.snapshot();
        assert_eq!(trace.for_subsystem(Subsystem::Player).len(), 1);
        assert_eq!(trace.for_subsystem(Subsystem::Edge).len(), 1);
        assert_eq!(trace.for_subsystem(Subsystem::Net).len(), 0);
    }
}
