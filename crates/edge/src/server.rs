//! The edge-server world: N concurrent player sessions, one shared
//! egress, one shared cache, one origin backhaul.
//!
//! §2's per-viewer savings compound at the edge: concurrent viewers of
//! the same panorama overwhelmingly watch the same tiles (that is the
//! premise of crowd-driven HMP, §3.4.2), so an edge node that caches
//! tile-chunk layers serves most requests without touching the origin.
//! This module models that node as a deterministic discrete-event
//! world:
//!
//! * every client is a FoV-guided player (motion-only HMP + stochastic
//!   SVC selection by default, or any [`AbrPolicyKind`], the
//!   full-panorama baseline included) arriving at its own offset;
//! * admission control caps concurrent clients at
//!   [`EdgeConfig::max_clients`] — beyond it, clients are rejected and
//!   traced, never silently dropped;
//! * the egress is a [`WrrLink`]: weighted round-robin between clients,
//!   so one viewer's deep queue cannot starve the others;
//! * misses go to the origin over a serialized backhaul that can fail
//!   per a [`FaultScript`] and recovers on the same bounded
//!   [`retry_delay`] schedule as the multipath layer;
//! * under egress pressure the planner degrades gracefully, shedding
//!   SVC enhancement layers before base layers (§3.1.1's rationale for
//!   scalable coding);
//! * a crowd prefetcher feeds attached clients' head traces into the
//!   live [`CrowdAggregator`] and pre-warms the cache with the tiles
//!   the crowd is about to watch.
//!
//! The whole run is a pure function of `(config, clients, faults,
//! seed, policy)`: reports compare bit-for-bit and traces digest
//! identically whatever order clients were supplied in (they are
//! canonicalised first).
//!
//! This module holds the world's state and its stateful `apply_*`
//! handlers. One replay in [`batch`](crate::batch) drives them, for a
//! standalone edge and for every node of a federation alike; the
//! per-event differential oracle in [`oracle`](crate::oracle) drives
//! the very same handlers. An origin fetch goes to the federation's
//! regional tier when there is one and over the world's own backhaul
//! otherwise. Both answer with one `UpstreamDecision`, and both trace
//! and back off a failed attempt through one helper.

use crate::cache::{CacheKey, TileCache, TileCacheStats};
use serde::{Deserialize, Serialize};
use sperke_geo::{Orientation, TileGrid, TileId};
use sperke_hmp::{AttentionModel, ForecastScratch, FusedForecaster, HeadTrace, HotspotTrack};
use sperke_live::CrowdAggregator;
use sperke_net::{
    retry_delay, BbrState, FaultScript, GeChain, LossChannel, PathFaults, WrrCompletion, WrrLink,
    MAX_RETRIES,
};
use sperke_player::QoeWeights;
use sperke_sim::{FxHashMap, MetricsRegistry, SimDuration, SimRng, SimTime, TraceEvent, TraceSink};
use sperke_video::{CellId, ChunkTime, Quality, Scheme, VideoModel};
use sperke_vra::{AbrPolicyKind, PolicyInput, StochasticChoice, DEFAULT_MIN_PROBABILITY};

/// Edge experiment parameters. Everything that shapes the run is here
/// (plus the optional [`EdgeHarness`]); the report is a pure function
/// of this struct, the video and the client set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeConfig {
    /// Clients that try to attach.
    pub clients: usize,
    /// Admission cap: concurrent clients the edge will serve.
    pub max_clients: usize,
    /// Arrival spacing for the default client population.
    pub arrival_spacing: SimDuration,
    /// Shared egress capacity towards clients, bits/second: finite and
    /// positive. Unlike the origin's `SerialLink`, where `f64::INFINITY`
    /// means unconstrained, the WRR egress rejects an infinite rate (its
    /// fluid steps would drain `∞ · 0 = NaN` and never finish a stream).
    pub egress_bps: f64,
    /// Origin backhaul capacity, bits/second (serialized FIFO).
    pub origin_bps: f64,
    /// Origin round-trip added to every backhaul fetch.
    pub origin_rtt: SimDuration,
    /// Tile cache capacity in bytes; 0 disables caching (the
    /// independent-sessions baseline).
    pub cache_bytes: u64,
    /// Per-client planning budget, bits/second.
    pub per_client_budget_bps: f64,
    /// How far before display a client plans a chunk.
    pub fetch_lead: SimDuration,
    /// Enable crowd-driven cache pre-warming.
    pub prefetch: bool,
    /// Tiles per chunk the prefetcher pulls (top-k of the crowd map).
    pub prefetch_k: usize,
    /// Highest SVC layer index the prefetcher pulls (inclusive).
    pub prefetch_layers: u8,
    /// Egress backlog above which decides shed enhancement layers.
    pub degrade_backlog: SimDuration,
    /// Seed for the client population's head movement.
    pub seed: u64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            clients: 16,
            max_clients: 64,
            arrival_spacing: SimDuration::from_millis(250),
            egress_bps: 400e6,
            origin_bps: 80e6,
            origin_rtt: SimDuration::from_millis(30),
            cache_bytes: 256 << 20,
            per_client_budget_bps: 8e6,
            fetch_lead: SimDuration::from_secs(2),
            prefetch: true,
            prefetch_k: 6,
            prefetch_layers: 1,
            degrade_backlog: SimDuration::from_millis(600),
            seed: 7,
        }
    }
}

/// One client attaching to the edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeClientSpec {
    /// When the client attaches (wall clock; also its playback offset).
    pub arrival: SimDuration,
    /// Seed selecting its head-movement trace.
    pub seed: u64,
    /// Egress scheduling weight (≥ 1).
    pub weight: u32,
    /// Its planning budget, bits/second.
    pub budget_bps: f64,
    /// Which catalog title the client watches. Titles share one encoding
    /// profile (the run's [`VideoModel`]) but occupy disjoint cache
    /// namespaces and disjoint crowd heatmaps; `0` is the single-title
    /// default and changes nothing.
    pub content: u16,
}

impl EdgeClientSpec {
    /// The canonical total order: arrival, then seed, weight, budget
    /// bits and content. Runs sort client sets by this key, so the
    /// trace and report are invariant to the order clients were
    /// supplied in. Content sorts last: single-title populations order
    /// exactly as they did before the field existed.
    pub(crate) fn canonical_key(&self) -> (u64, u64, u32, u64, u16) {
        (
            self.arrival.as_nanos(),
            self.seed,
            self.weight,
            self.budget_bps.to_bits(),
            self.content,
        )
    }
}

/// The default client population for a config: evenly spaced arrivals,
/// per-client seeds, a mild weight skew (every fourth client is a
/// premium subscriber at weight 2).
pub fn default_clients(config: &EdgeConfig) -> Vec<EdgeClientSpec> {
    (0..config.clients)
        .map(|i| EdgeClientSpec {
            arrival: config.arrival_spacing * i as u64,
            seed: config.seed.wrapping_add(i as u64),
            weight: if i % 4 == 3 { 2 } else { 1 },
            budget_bps: config.per_client_budget_bps,
            content: 0,
        })
        .collect()
}

/// Content-namespace salt: the catalog title occupies the top 16 bits
/// of a cache key's chunk field, so titles never collide in shared
/// caches (edge or regional). Identity for title 0.
pub(crate) const CONTENT_SHIFT: u32 = 16;

/// Fold a title into a chunk index to form the cache-key namespace.
pub(crate) fn salted_chunk(chunk: u32, content: u16) -> u32 {
    chunk | (content as u32) << CONTENT_SHIFT
}

/// The chunk index back out of a salted cache-key chunk field.
pub(crate) fn chunk_of(salted: u32) -> u32 {
    salted & ((1 << CONTENT_SHIFT) - 1)
}

/// Non-serializable run dependencies: trace sink, fault script, origin
/// probing and the viewport policy. Kept out of
/// [`EdgeConfig`] so configs stay plain data for sweeps.
#[derive(Debug, Clone, Default)]
pub struct EdgeHarness {
    /// Event sink (disabled by default).
    pub trace: TraceSink,
    /// Origin backhaul faults (path 0 of the script).
    pub faults: FaultScript,
    /// Probe the origin backhaul with a BBR-style estimator and pace
    /// fetches at the measured rate (clamped to the declared capacity).
    /// Off by default: declared pacing keeps golden digests stable.
    pub bbr: bool,
    /// Loss model for origin fetch attempts. The default
    /// [`LossChannel::Declared`] keeps the legacy fault-script-only
    /// behaviour; a Gilbert–Elliott channel adds seeded bursty failures
    /// on its own split RNG stream.
    pub origin_loss: LossChannel,
    /// Viewport-adaptation policy planning every client decide. The
    /// default, [`AbrPolicyKind::Knapsack`], is the §3.2 stochastic
    /// selector; [`AbrPolicyKind::Sperke`] plans the same bytes.
    pub policy: AbrPolicyKind,
}

/// Aggregate outcome of an edge run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeReport {
    /// Clients that tried to attach.
    pub clients: usize,
    /// Clients admitted at the end of the run. A standalone edge never
    /// exceeds its `max_clients` cap. A federation survivor can: it
    /// takes over a crashed node's admitted clients without an
    /// admission check, so re-homing conserves the federation's
    /// admitted total ([`crate::FederationReport::admitted`] equals the
    /// fault-free run's), not each node's cap.
    pub admitted: usize,
    /// Clients rejected by admission control.
    pub rejected: usize,
    /// Bytes delivered to clients over the shared egress.
    pub egress_bytes: u64,
    /// Bytes successfully fetched from the origin (demand + prefetch).
    pub origin_bytes: u64,
    /// Bytes of origin fetches abandoned after exhausting retries.
    pub origin_failed_bytes: u64,
    /// Origin retry attempts scheduled.
    pub origin_retries: u64,
    /// Cache counters (hits, misses, evictions, prefetches).
    pub cache: TileCacheStats,
    /// Mean viewport utility across displays.
    pub mean_viewport_utility: f64,
    /// Mean blank viewport fraction across displays.
    pub mean_blank_fraction: f64,
    /// Decides that shed layers under egress pressure.
    pub degraded_decides: u64,
    /// Displays that showed less than the planned quality.
    pub degraded_displays: u64,
    /// Fraction of delivered streams that finished after their display.
    pub late_stream_fraction: f64,
    /// Composite QoE score under the player's default weights.
    pub qoe_score: f64,
}

impl EdgeReport {
    /// All bytes the edge pulled (or tried to pull) upstream — the
    /// number a CDN operator pays for. Balances exactly against cache
    /// accounting: `miss_bytes + prefetch_bytes`.
    pub fn origin_demand_bytes(&self) -> u64 {
        self.origin_bytes + self.origin_failed_bytes
    }
}

/// The outcome of one origin-fetch attempt, whoever made it: the
/// world's own backhaul or the federation's regional tier. The world
/// handles every outcome in one place, `start_origin_fetch`.
pub(crate) enum UpstreamDecision {
    /// The object arrives at `at` (a backhaul transfer, a regional hit,
    /// or a regional miss forwarded through the shared origin).
    Deliver(SimTime),
    /// The origin leg is down; retry as `attempt` at `at`.
    Retry {
        /// When the retry fires.
        at: SimTime,
        /// The upcoming attempt number.
        attempt: u32,
    },
    /// The fetch is abandoned (retry budget exhausted).
    Failed,
}

/// A failed origin attempt on `path`, for the world's backhaul and the
/// regional tier alike: trace the timeout, then schedule the backed-off
/// retry ([`retry_delay`]), or give up once [`MAX_RETRIES`] is spent.
pub(crate) fn failed_attempt(
    trace: &TraceSink,
    path: u32,
    bytes: u64,
    attempt: u32,
    now: SimTime,
) -> UpstreamDecision {
    trace.emit(TraceEvent::TransferTimedOut {
        at: now,
        path,
        bytes,
        attempt,
    });
    if attempt > MAX_RETRIES {
        return UpstreamDecision::Failed;
    }
    let (delay, delay_ms) = retry_delay(attempt, false);
    trace.emit(TraceEvent::RetryScheduled {
        at: now,
        path,
        bytes,
        attempt: attempt + 1,
        delay_ms,
    });
    UpstreamDecision::Retry {
        at: now + delay,
        attempt: attempt + 1,
    }
}

/// The scheduling surface the edge world's handlers need: current time
/// plus the ability to post future events. Implemented by the replay's
/// per-node cursor and by the oracle's heap-backed `Scheduler`, so both
/// execute the *same* stateful apply code — bit-exact equivalence by
/// construction.
pub(crate) trait EdgeSched {
    /// The current simulation time.
    fn now(&self) -> SimTime;
    /// Schedule `event` at absolute time `at`.
    fn at(&mut self, at: SimTime, event: EdgeEvent);
    /// Resolve an origin fetch at the upstream tier, if there is one. The
    /// default, `None`, means no tier: the world's own backhaul decides.
    fn fetch_upstream(
        &mut self,
        _key: CacheKey,
        _bytes: u64,
        _attempt: u32,
        _now: SimTime,
    ) -> Option<UpstreamDecision> {
        None
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum EdgeEvent {
    /// A client attaches (admitted or rejected).
    Arrive { client: u32 },
    /// Client `c` plans chunk `chunk`'s layers.
    Decide { client: u32, chunk: u32 },
    /// Client `c` displays chunk `chunk`.
    Display { client: u32, chunk: u32 },
    /// An origin fetch for one cache key completes.
    OriginArrived { chunk: u32, tile: u16, layer: u8 },
    /// A failed origin fetch retries.
    OriginRetry {
        chunk: u32,
        tile: u16,
        layer: u8,
        attempt: u32,
    },
    /// The crowd prefetcher considers chunk `chunk`.
    Prefetch { chunk: u32 },
}

pub(crate) struct ClientState {
    pub(crate) spec: EdgeClientSpec,
    pub(crate) admitted: bool,
    /// WRR queue id; only admitted clients hold one.
    pub(crate) link_id: Option<u32>,
    /// Delivered SVC layers per cell, as a bitmask (bit i = layer i),
    /// indexed by [`EdgeWorld::cell_index`]. Empty until the first
    /// delivery, which allocates every cell of the video at zero.
    delivered: Vec<u32>,
    /// Planned quality per cell (display-time degradation check), laid
    /// out and allocated like `delivered`; 0 where nothing was planned.
    planned: Vec<u8>,
}

impl ClientState {
    /// A freshly attached client with nothing delivered or planned.
    pub(crate) fn new(spec: EdgeClientSpec, admitted: bool, link_id: Option<u32>) -> ClientState {
        ClientState {
            spec,
            admitted,
            link_id,
            delivered: Vec::new(),
            planned: Vec::new(),
        }
    }
}

/// Entry `i` of a dense per-cell array, allocating all `len` entries
/// (zeroed) on first use.
fn cell_mut<T: Copy + Default>(array: &mut Vec<T>, len: usize, i: usize) -> &mut T {
    if array.is_empty() {
        array.resize(len, T::default());
    }
    &mut array[i]
}

/// A client's per-cell session state, moved whole when a crash-stop
/// re-homes the client: delivered layer masks and planned qualities.
pub(crate) type ClientSession = (Vec<u32>, Vec<u8>);

/// The aggregator for one catalog title inside a content-sorted group
/// list, created on first use. Insertion keeps the list sorted by
/// content id, so group order is a pure function of the client set.
pub(crate) fn crowd_slot<'c>(
    crowds: &'c mut Vec<(u16, CrowdAggregator)>,
    grid: &TileGrid,
    chunk_duration: SimDuration,
    content: u16,
) -> &'c mut CrowdAggregator {
    let idx = match crowds.binary_search_by_key(&content, |e| e.0) {
        Ok(i) => i,
        Err(i) => {
            crowds.insert(i, (content, CrowdAggregator::new(*grid, chunk_duration)));
            i
        }
    };
    &mut crowds[idx].1
}

/// The span of video time a client's head trace covers: up to the end
/// of the last chunk, the video time of its last display. A decide reads
/// gaze history up to its client's own playback instant, never later
/// than that chunk's display, and displays and crowd reports sample
/// mid-chunk, so no read lands past it. It is `video.duration()` for a
/// video of whole chunks; a shorter last chunk still gets its full
/// span.
pub(crate) fn head_session(video: &VideoModel) -> SimDuration {
    video.chunk_duration() * video.chunk_count() as u64
}

/// The hotspot track every client of a run at `seed` pursues, over its
/// [`head_session`]: built once per sense phase or oracle run, read by
/// every [`client_head`].
pub(crate) fn head_track(video: &VideoModel, seed: u64) -> HotspotTrack {
    HotspotTrack::new(&AttentionModel::generic(seed), head_session(video))
}

/// The head trace the edge assigns to a client spec: one deterministic
/// member of the seed's behaviour ensemble (the mix keys off the seed),
/// pursuing hotspots read from the run's one `track`, so it equals
/// `generate_ensemble_member` over the track's attention and duration.
pub(crate) fn client_head(track: &HotspotTrack, spec: &EdgeClientSpec) -> HeadTrace {
    track.member((spec.seed % 5) as usize, spec.seed)
}

/// The world-independent slice of a decide: gaze history → motion-only
/// forecast → a plan from `policy`. Pure in its arguments, so the engine
/// precomputes it per (client, chunk) on sense workers; the oracle calls
/// it inline at the decide event. `now` is the decide's wall-clock
/// instant. `prev` is the client's previous-window level vector,
/// updated in place: decides run in chunk order per client in both
/// engines, so temporal policies see identical state either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_choices(
    video: &VideoModel,
    spec: &EdgeClientSpec,
    head: &HeadTrace,
    chunk: u32,
    now: SimTime,
    scratch: &mut ForecastScratch,
    history: &mut Vec<(SimTime, Orientation)>,
    policy: AbrPolicyKind,
    prev: &mut Vec<i8>,
) -> Vec<StochasticChoice> {
    let t = ChunkTime(chunk);
    let video_time = video.chunk_start(t);
    let own_now = own_now(spec, now);
    let budget = (spec.budget_bps * video.chunk_duration().as_secs_f64() / 8.0) as u64;
    let forecaster = FusedForecaster::motion_only();
    head.history_into(own_now, decide_history_len(&forecaster), history);
    let forecast = forecaster.forecast_with(video.grid(), history, own_now, video_time, t, scratch);
    let tile_count = video.grid().tile_count();
    let plan = policy.decide(&PolicyInput {
        video,
        forecast: &forecast,
        confidence: forecast.confidence(),
        time: t,
        buffer: video.chunk_duration(),
        budget_bytes: budget,
        capacity_bps: Some(spec.budget_bps),
        scheme: Scheme::svc_default(),
        min_probability: DEFAULT_MIN_PROBABILITY,
        prev: (prev.len() == tile_count).then_some(prev.as_slice()),
    });
    *prev = plan.levels(tile_count);
    plan.assignments
        .into_iter()
        .map(|a| StochasticChoice {
            tile: a.tile,
            quality: a.quality,
        })
        .collect()
}

/// How many trailing gaze samples a decide copies for `forecaster`: its
/// motion predictor fits that many, and the rest of a forecast reads
/// only the newest. A longer history forecasts the same bits.
fn decide_history_len(forecaster: &FusedForecaster) -> usize {
    forecaster.motion.window.max(2)
}

/// A client's own playback instant at wall time `now`: the video time
/// it has watched up to, the last instant of its head trace a decide at
/// `now` reads.
pub(crate) fn own_now(spec: &EdgeClientSpec, now: SimTime) -> SimTime {
    SimTime::from_nanos(now.as_nanos().saturating_sub(spec.arrival.as_nanos()))
}

/// The video time a display samples: mid-chunk. Crowd reports sample
/// the same instant of each chunk.
pub(crate) fn gaze_instant(video: &VideoModel, chunk: u32) -> SimTime {
    video.chunk_start(ChunkTime(chunk)) + video.chunk_duration() / 2
}

/// The gaze a display samples: mid-chunk orientation in video time.
pub(crate) fn display_gaze(video: &VideoModel, head: &HeadTrace, chunk: u32) -> Orientation {
    head.at(gaze_instant(video, chunk))
}

struct Inflight {
    bytes: u64,
    /// Admitted clients waiting on this fetch.
    waiters: Vec<u32>,
}

/// What an egress stream delivers, carried through the link as the
/// stream's tag and handed back with its completion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EgressTag {
    client: u32,
    cell: CellId,
    layer: u8,
}

/// RNG stream label for the origin's Gilbert–Elliott chain ("ORIGIN").
/// Splitting off the seed leaves every other draw untouched, so a
/// Declared-channel run is byte-identical to builds without the chain.
const EDGE_GE_STREAM: u64 = 0x4F52_4947_494E;

pub(crate) struct EdgeWorld<'a> {
    pub(crate) video: &'a VideoModel,
    config: EdgeConfig,
    pub(crate) clients: Vec<ClientState>,
    pub(crate) egress: WrrLink<EgressTag>,
    /// Tiles per chunk and cells (chunk × tile) of the video: the
    /// layout of every client's dense per-cell state.
    tiles: usize,
    cells: usize,
    cache: TileCache,
    inflight: FxHashMap<CacheKey, Inflight>,
    origin_busy_until: SimTime,
    /// Measured-capacity estimator for the origin backhaul (None when
    /// the harness leaves probing off).
    origin_bbr: Option<BbrState>,
    /// Gilbert–Elliott burst chain for origin fetch attempts (None for
    /// the declared channel).
    origin_ge: Option<GeChain>,
    faults: PathFaults,
    /// Crowd aggregators per catalog title, sorted by content id. A
    /// single-title run holds exactly one entry under content 0.
    crowds: Vec<(u16, CrowdAggregator)>,
    trace: TraceSink,
    // Accounting.
    origin_bytes: u64,
    origin_failed_bytes: u64,
    origin_retries: u64,
    egress_bytes: u64,
    streams_total: u64,
    streams_late: u64,
    utility_acc: f64,
    blank_acc: f64,
    displays: u64,
    degraded_decides: u64,
    degraded_displays: u64,
}

impl<'a> EdgeWorld<'a> {
    /// A fresh world over pre-built client states, egress and crowd
    /// aggregators (one per catalog title, sorted by content id).
    pub(crate) fn new(
        video: &'a VideoModel,
        config: EdgeConfig,
        clients: Vec<ClientState>,
        egress: WrrLink<EgressTag>,
        crowds: Vec<(u16, CrowdAggregator)>,
        harness: &EdgeHarness,
    ) -> EdgeWorld<'a> {
        assert!(
            video.chunk_count() <= 1 << CONTENT_SHIFT,
            "chunk indices must fit under the content salt"
        );
        let tiles = video.grid().tile_count();
        EdgeWorld {
            video,
            config,
            clients,
            egress,
            tiles,
            cells: tiles * video.chunk_count() as usize,
            cache: TileCache::new(config.cache_bytes),
            inflight: FxHashMap::default(),
            origin_busy_until: SimTime::ZERO,
            origin_bbr: harness.bbr.then(BbrState::new),
            origin_ge: match harness.origin_loss {
                LossChannel::Declared => None,
                ge @ LossChannel::GilbertElliott { .. } => Some(GeChain::new(
                    ge,
                    SimRng::new(config.seed).split(EDGE_GE_STREAM),
                )),
            },
            faults: harness.faults.compile_for(0),
            crowds,
            trace: harness.trace.clone(),
            origin_bytes: 0,
            origin_failed_bytes: 0,
            origin_retries: 0,
            egress_bytes: 0,
            streams_total: 0,
            streams_late: 0,
            utility_acc: 0.0,
            blank_acc: 0.0,
            displays: 0,
            degraded_decides: 0,
            degraded_displays: 0,
        }
    }
}

impl EdgeWorld<'_> {
    fn key_of(cell: CellId, layer: u8, content: u16) -> CacheKey {
        CacheKey {
            chunk: salted_chunk(cell.time.0, content),
            tile: cell.tile.0,
            layer,
        }
    }

    /// A cell's index in the clients' dense per-cell arrays.
    fn cell_index(&self, cell: CellId) -> usize {
        cell.time.0 as usize * self.tiles + cell.tile.index()
    }

    /// Bytes of one SVC layer of a cell: the difference of two
    /// cumulative costs in the video's SVC cost table, as
    /// [`CellSizes::svc_layer`](sperke_video::CellSizes::svc_layer)
    /// derives it.
    fn layer_bytes(&self, cell: CellId, layer: u8) -> u64 {
        let levels = self.video.ladder().levels();
        assert!((layer as usize) < levels, "layer beyond ladder");
        let costs = self.video.chunk_costs(cell.time, Scheme::svc_default());
        let at = cell.tile.index() * levels + layer as usize;
        let below = if layer == 0 { 0 } else { costs[at - 1] };
        costs[at] - below
    }

    pub(crate) fn display_wall(&self, client: u32, chunk: u32) -> SimTime {
        SimTime::ZERO
            + self.clients[client as usize].spec.arrival
            + self.video.chunk_duration() * (chunk + 1) as u64
    }

    /// Pull completed egress streams into client buffers.
    pub(crate) fn drain_egress(&mut self, now: SimTime) {
        for done in self.egress.run_until(now) {
            let EgressTag {
                client,
                cell,
                layer,
            } = done.tag;
            let i = self.cell_index(cell);
            let delivered = &mut self.clients[client as usize].delivered;
            *cell_mut(delivered, self.cells, i) |= 1u32 << layer;
            self.account_stream(&done);
        }
    }

    /// Count a completed egress stream's bytes, and count it late when
    /// it finished after its display.
    fn account_stream(&mut self, done: &WrrCompletion<EgressTag>) {
        self.egress_bytes += done.bytes;
        if done.finished > self.display_wall(done.tag.client, done.tag.cell.time.0) {
            self.streams_late += 1;
        }
    }

    fn submit_egress(&mut self, client: u32, cell: CellId, layer: u8, bytes: u64, now: SimTime) {
        let Some(link_id) = self.clients[client as usize].link_id else {
            return;
        };
        let tag = EgressTag {
            client,
            cell,
            layer,
        };
        self.egress.submit(link_id, bytes, now, tag);
        self.streams_total += 1;
    }

    /// One client's request for one SVC layer: served from cache,
    /// coalesced onto an in-flight fetch, or fetched from the origin.
    fn request_layer(
        &mut self,
        client: u32,
        cell: CellId,
        layer: u8,
        now: SimTime,
        sched: &mut impl EdgeSched,
    ) {
        let content = self.clients[client as usize].spec.content;
        let key = Self::key_of(cell, layer, content);
        let bytes = self.layer_bytes(cell, layer);
        if let Some(fl) = self.inflight.get_mut(&key) {
            // A fetch for this layer is already on the wire: share it.
            fl.waiters.push(client);
            self.cache.record_coalesced_hit(bytes);
            self.trace.emit(TraceEvent::EdgeCacheHit {
                at: now,
                tile: key.tile,
                chunk: key.chunk,
                layer,
                bytes,
            });
        } else if self.cache.lookup(key, bytes) {
            self.trace.emit(TraceEvent::EdgeCacheHit {
                at: now,
                tile: key.tile,
                chunk: key.chunk,
                layer,
                bytes,
            });
            self.submit_egress(client, cell, layer, bytes, now);
        } else {
            self.trace.emit(TraceEvent::EdgeCacheMiss {
                at: now,
                tile: key.tile,
                chunk: key.chunk,
                layer,
                bytes,
            });
            self.inflight.insert(
                key,
                Inflight {
                    bytes,
                    waiters: vec![client],
                },
            );
            self.start_origin_fetch(key, bytes, 1, now, sched);
        }
    }

    /// Submit one origin fetch attempt, to the upstream tier if the
    /// scheduler has one and over the world's own backhaul otherwise,
    /// and act on the outcome: schedule the arrival or the retry, or
    /// abandon the fetch.
    fn start_origin_fetch(
        &mut self,
        key: CacheKey,
        bytes: u64,
        attempt: u32,
        now: SimTime,
        sched: &mut impl EdgeSched,
    ) {
        let decision = match sched.fetch_upstream(key, bytes, attempt, now) {
            Some(decision) => decision,
            None => self.backhaul(bytes, attempt, now),
        };
        match decision {
            UpstreamDecision::Deliver(at) => sched.at(
                at,
                EdgeEvent::OriginArrived {
                    chunk: key.chunk,
                    tile: key.tile,
                    layer: key.layer,
                },
            ),
            UpstreamDecision::Retry { at, attempt } => {
                self.origin_retries += 1;
                sched.at(
                    at,
                    EdgeEvent::OriginRetry {
                        chunk: key.chunk,
                        tile: key.tile,
                        layer: key.layer,
                        attempt,
                    },
                );
            }
            UpstreamDecision::Failed => {
                // Out of retries: the waiters display what they have.
                self.inflight.remove(&key);
                self.origin_failed_bytes += bytes;
            }
        }
    }

    /// One attempt over the world's serialized origin backhaul. An
    /// outage (scripted or rolled by the Gilbert–Elliott chain) at
    /// submit time fails the attempt. A successful attempt is paced at
    /// the BBR estimate when probing is on and feeds the estimator a
    /// delivery-rate sample.
    fn backhaul(&mut self, bytes: u64, attempt: u32, now: SimTime) -> UpstreamDecision {
        // Tick the burst chain up to `now` first and surface any state
        // flips. Flip stamps lie in (last tick, now], and this world
        // never emits an event stamped later than the current event
        // time, so the trace stays nondecreasing.
        if let Some(chain) = &mut self.origin_ge {
            chain.advance_to(now);
            for (at, bursty) in chain.take_transitions() {
                self.trace.emit(TraceEvent::LossStateChanged {
                    at,
                    path: 0,
                    bursty,
                });
                self.trace
                    .metrics(|m| m.counter("net.bbr.loss_transitions").incr());
            }
        }
        let ge_down = self
            .origin_ge
            .as_mut()
            .is_some_and(|chain| chain.roll_failure(now));
        if self.faults.is_down(now) || ge_down {
            return failed_attempt(&self.trace, 0, bytes, attempt, now);
        }
        let start = now.max(self.origin_busy_until);
        // Pace at the measured estimate while probing, clamped to the
        // declared backhaul — the wire can't beat physics, but the
        // probe gain lets the estimate climb up to it.
        let pacing = self
            .origin_bbr
            .as_ref()
            .and_then(BbrState::pacing_rate)
            .unwrap_or(self.config.origin_bps);
        let wire = pacing.min(self.config.origin_bps);
        let xfer = SimDuration::from_secs_f64(bytes as f64 * 8.0 / wire);
        self.origin_busy_until = start + xfer;
        if let Some(bbr) = &mut self.origin_bbr {
            // The sample interval is the wire time alone — folding the
            // propagation RTT in would undershoot the rate, drop the
            // pacing, stretch the next wire time and spiral downward.
            // Self-clocked this way, cruise epochs hold the estimate and
            // probe epochs (gain > 1) climb it toward true capacity.
            if let Some(u) = bbr.on_ack(bytes, xfer, now) {
                if let Some(epoch) = u.new_epoch {
                    self.trace.emit(TraceEvent::ProbeEpochStarted {
                        at: now,
                        path: 0,
                        epoch,
                        gain: u.gain,
                    });
                }
                self.trace.emit(TraceEvent::DeliveryRateSample {
                    at: now,
                    path: 0,
                    rate_bps: u.sample_bps,
                    btl_bw_bps: u.btl_bw_bps,
                });
                self.trace.metrics(|m| {
                    m.histogram("net.bbr.delivery_rate_bps")
                        .record(u.sample_bps);
                    m.histogram("net.bbr.btl_bw_bps").record(u.btl_bw_bps);
                });
            }
        }
        UpstreamDecision::Deliver(start + xfer + self.config.origin_rtt)
    }

    /// How many egress quality levels to shed under the current backlog
    /// (0 = none). One level per multiple of `degrade_backlog` queued.
    ///
    /// The shed step never decreases as the backlog grows: the drain
    /// time keeps the order of the bits, and so do the division by the
    /// limit and the saturating `as u8`. So when both ends of the link's
    /// backlog interval give the same step, the exact backlog gives it
    /// too, and the ordered sum over every queued stream runs only when
    /// the ends disagree.
    fn pressure_steps(&self) -> u8 {
        let limit = self.config.degrade_backlog.as_secs_f64();
        if limit <= 0.0 {
            return 0;
        }
        let steps = |bits: f64| {
            let over = self.egress.drain_time(bits).as_secs_f64() / limit;
            if over < 1.0 {
                0
            } else {
                (over as u8).min(8)
            }
        };
        let (lo, hi) = self.egress.backlog_bits_bounds();
        let shed = steps(lo);
        if shed == steps(hi) {
            shed
        } else {
            steps(self.egress.backlog_bits())
        }
    }

    /// The stateful half of a decide: degrade under egress pressure,
    /// record the plan and request the surviving layers. Shared verbatim
    /// between the engine's replay and the oracle's event loop.
    pub(crate) fn apply_decide(
        &mut self,
        client: u32,
        chunk: u32,
        choices: &[StochasticChoice],
        sched: &mut impl EdgeSched,
    ) {
        let now = sched.now();
        let t = ChunkTime(chunk);
        // Graceful degradation: shed enhancement layers (never the base)
        // when the shared egress is backlogged.
        let shed = self.pressure_steps();
        if shed > 0 {
            self.degraded_decides += 1;
            self.trace.emit(TraceEvent::ClientThrottled {
                at: now,
                client,
                admitted: true,
            });
        }
        for choice in choices {
            let q = Quality(choice.quality.0.saturating_sub(shed));
            let cell = CellId::new(choice.tile, t);
            let i = self.cell_index(cell);
            let planned = cell_mut(&mut self.clients[client as usize].planned, self.cells, i);
            *planned = (*planned).max(choice.quality.0);
            for layer in 0..=q.0 {
                self.request_layer(client, cell, layer, now, sched);
            }
        }
    }

    /// The stateful half of a display: score the visible tiles against
    /// what actually arrived. `visible` is the pose's coverage list
    /// (precomputed by the engine's sense phase, inline by the oracle).
    pub(crate) fn apply_display(&mut self, client: u32, chunk: u32, visible: &[(TileId, f64)]) {
        let t = ChunkTime(chunk);
        let mut util = 0.0;
        let mut blank = 0.0;
        let mut degraded = false;
        let state = &self.clients[client as usize];
        for &(tile, coverage) in visible.iter() {
            let i = self.cell_index(CellId::new(tile, t));
            let mask = state.delivered.get(i).copied().unwrap_or(0);
            // SVC: quality q plays only when layers 0..=q all arrived.
            let contiguous = mask.trailing_ones() as u8;
            if contiguous == 0 {
                blank += coverage;
            } else {
                let shown = Quality(contiguous - 1);
                util += coverage * self.video.ladder().utility(shown);
                if shown.0 < state.planned.get(i).copied().unwrap_or(0) {
                    degraded = true;
                }
            }
        }
        self.utility_acc += util;
        self.blank_acc += blank;
        self.displays += 1;
        if degraded {
            self.degraded_displays += 1;
        }
    }

    /// A crowd prefetch: per catalog title (sorted by content id), pull
    /// the top-k tiles its crowd predicts for `chunk` from the reports
    /// available now, skipping tiles already cached or on the wire.
    pub(crate) fn apply_prefetch(&mut self, chunk: u32, sched: &mut impl EdgeSched) {
        let now = sched.now();
        let t = ChunkTime(chunk);
        let groups: Vec<(u16, Vec<TileId>)> = self
            .crowds
            .iter()
            .map(|(content, crowd)| {
                let tiles = crowd.predicted_tiles(now, t, self.config.prefetch_k);
                (*content, tiles)
            })
            .collect();
        for (content, tiles) in groups {
            for tile in tiles {
                for layer in 0..=self.config.prefetch_layers {
                    let cell = CellId::new(tile, t);
                    let key = Self::key_of(cell, layer, content);
                    if self.cache.is_disabled()
                        || self.cache.contains(key)
                        || self.inflight.contains_key(&key)
                    {
                        continue;
                    }
                    let bytes = self.layer_bytes(cell, layer);
                    self.cache.record_prefetch(bytes);
                    self.trace.emit(TraceEvent::EdgePrefetch {
                        at: now,
                        tile: key.tile,
                        chunk: key.chunk,
                        layer,
                        bytes,
                    });
                    self.inflight.insert(
                        key,
                        Inflight {
                            bytes,
                            waiters: Vec::new(),
                        },
                    );
                    self.start_origin_fetch(key, bytes, 1, now, sched);
                }
            }
        }
    }
}

impl EdgeWorld<'_> {
    /// Trace a client attaching (admitted or rejected).
    pub(crate) fn apply_arrive(&mut self, client: u32, now: SimTime) {
        if self.clients[client as usize].admitted {
            self.trace
                .emit(TraceEvent::ClientAdmitted { at: now, client });
        } else {
            self.trace.emit(TraceEvent::ClientThrottled {
                at: now,
                client,
                admitted: false,
            });
        }
    }

    /// An origin fetch landed: account it, cache it, fan it out. The
    /// event's `chunk` is the content-salted cache-key field; the cell
    /// the waiters consume is the unsalted chunk index.
    pub(crate) fn apply_origin_arrived(&mut self, chunk: u32, tile: u16, layer: u8, now: SimTime) {
        let key = CacheKey { chunk, tile, layer };
        if let Some(fl) = self.inflight.remove(&key) {
            self.origin_bytes += fl.bytes;
            self.cache.insert(key, fl.bytes);
            let cell = CellId::new(TileId(tile), ChunkTime(chunk_of(chunk)));
            for client in fl.waiters {
                self.submit_egress(client, cell, layer, fl.bytes, now);
            }
        }
    }

    /// Retry a failed origin fetch if it is still wanted.
    pub(crate) fn apply_origin_retry(
        &mut self,
        chunk: u32,
        tile: u16,
        layer: u8,
        attempt: u32,
        sched: &mut impl EdgeSched,
    ) {
        let now = sched.now();
        let key = CacheKey { chunk, tile, layer };
        if let Some(bytes) = self.inflight.get(&key).map(|fl| fl.bytes) {
            self.start_origin_fetch(key, bytes, attempt, now, sched);
        }
    }
}

/// What a crash-stop node failure wrote off: egress streams that were
/// on the wire at death (their bytes never reach a client) and fetches
/// still in flight (folded into the node's failed-origin ledger).
pub(crate) struct NodeWreckage {
    /// Bytes of submitted egress streams lost mid-transfer.
    pub(crate) lost_egress_bytes: u64,
    /// Number of egress streams lost mid-transfer.
    pub(crate) lost_streams: u64,
}

impl EdgeWorld<'_> {
    /// Crash-stop this node at `now`: deliver everything that finished
    /// by `now`, discard every egress stream still on the wire, and
    /// write off in-flight origin fetches as failed (the same settling
    /// [`finish_edge_run`] applies at the horizon). The world stays
    /// consistent for report assembly; it just never makes progress
    /// again because no further events are routed to it.
    pub(crate) fn abandon(&mut self, now: SimTime) -> NodeWreckage {
        self.drain_egress(now);
        let mut lost_egress_bytes = 0;
        let mut lost_streams = 0;
        for done in self.egress.drain() {
            lost_egress_bytes += done.bytes;
            lost_streams += 1;
        }
        for (_, fl) in self.inflight.drain() {
            self.origin_failed_bytes += fl.bytes;
        }
        NodeWreckage {
            lost_egress_bytes,
            lost_streams,
        }
    }

    /// Detach a client's session state (for re-homing onto a survivor).
    /// The client stays in the vector — indices are global across a
    /// federation — but no longer holds an egress queue here.
    pub(crate) fn take_client_session(&mut self, client: u32) -> ClientSession {
        let state = &mut self.clients[client as usize];
        state.admitted = false;
        state.link_id = None;
        (
            std::mem::take(&mut state.delivered),
            std::mem::take(&mut state.planned),
        )
    }

    /// Install a re-homed client's session: admit it, give it a fresh
    /// egress queue at its spec weight, and restore what it had already
    /// received and planned so delivery continues where it left off.
    /// There is no admission check, so a survivor can end the run above
    /// its own `max_clients`.
    pub(crate) fn install_client_session(&mut self, client: u32, session: ClientSession) {
        let weight = self.clients[client as usize].spec.weight;
        let link_id = self.egress.add_client(weight);
        let state = &mut self.clients[client as usize];
        state.admitted = true;
        state.link_id = Some(link_id);
        (state.delivered, state.planned) = session;
    }
}

/// When a client plans chunk `chunk` and when it displays it: display
/// follows the client's arrival (its playback offset) by `chunk + 1`
/// chunk durations, and the decide comes `fetch_lead` earlier, never
/// before time zero. The sense phase plans at these instants and the
/// schedule fires them, so both read them from here.
pub(crate) fn decide_and_display(
    video: &VideoModel,
    config: &EdgeConfig,
    spec: &EdgeClientSpec,
    chunk: u32,
) -> (SimTime, SimTime) {
    let display = SimTime::ZERO + spec.arrival + video.chunk_duration() * (chunk + 1) as u64;
    let decide = SimTime::from_nanos(
        display
            .as_nanos()
            .saturating_sub(config.fetch_lead.as_nanos()),
    );
    (decide, display)
}

/// Feed the clients' static schedule over canonically ordered `specs`
/// to `push`, in push order: each client's arrival and, when
/// `admitted(i)`, its per-chunk decide and display. Push order fixes
/// same-instant tie-breaks, so the replay and the oracle both schedule
/// clients through this one function.
pub(crate) fn client_schedule(
    video: &VideoModel,
    config: &EdgeConfig,
    specs: &[EdgeClientSpec],
    admitted: impl Fn(usize) -> bool,
    mut push: impl FnMut(SimTime, EdgeEvent),
) {
    for (i, spec) in specs.iter().enumerate() {
        let client = i as u32;
        push(SimTime::ZERO + spec.arrival, EdgeEvent::Arrive { client });
        if !admitted(i) {
            continue;
        }
        for c in 0..video.chunk_count() {
            let (decide, display) = decide_and_display(video, config, spec, c);
            push(decide, EdgeEvent::Decide { client, chunk: c });
            push(display, EdgeEvent::Display { client, chunk: c });
        }
    }
}

/// When a node whose earliest home client attached at `first_arrival`
/// prefetches `chunk`: once that client has watched the chunk and its
/// report has propagated. It is the only instant the node's crowds read
/// their reports of `chunk`.
pub(crate) fn prefetch_instant(
    video: &VideoModel,
    first_arrival: SimDuration,
    chunk: u32,
) -> SimTime {
    let report_lag = first_arrival + SimDuration::from_millis(250) + video.chunk_duration();
    video.chunk_start(ChunkTime(chunk)) + report_lag
}

/// Feed one node's crowd prefetches to `push`, one per chunk at its
/// [`prefetch_instant`], in chunk order. The replay and the oracle
/// schedule prefetches through this one function.
pub(crate) fn prefetch_schedule(
    video: &VideoModel,
    first_arrival: SimDuration,
    mut push: impl FnMut(SimTime, EdgeEvent),
) {
    for chunk in 0..video.chunk_count() {
        push(
            prefetch_instant(video, first_arrival, chunk),
            EdgeEvent::Prefetch { chunk },
        );
    }
}

/// When an edge run stops draining its queue.
pub(crate) fn edge_horizon(video: &VideoModel, last_arrival: SimDuration) -> SimTime {
    SimTime::ZERO + video.duration() + last_arrival + SimDuration::from_secs(120)
}

/// Settle a finished world and assemble its report — shared by the
/// engine and the oracle so the accounting is identical code.
pub(crate) fn finish_edge_run(
    mut world: EdgeWorld<'_>,
    clients: usize,
    admitted: usize,
    rejected: usize,
    metrics: Option<&mut MetricsRegistry>,
) -> EdgeReport {
    // Settle the egress so every submitted stream is accounted, then
    // write off fetches the horizon cut short (keeps the byte balance
    // exact: misses + prefetches == origin ok + failed).
    for done in world.egress.drain() {
        world.account_stream(&done);
    }
    for (_, fl) in world.inflight.drain() {
        world.origin_failed_bytes += fl.bytes;
    }

    let stats = world.cache.stats();
    if let Some(registry) = metrics {
        registry.counter("edge.cache.hits").add(stats.hits);
        registry.counter("edge.cache.misses").add(stats.misses);
        registry
            .counter("edge.cache.hit_bytes")
            .add(stats.hit_bytes);
        registry
            .counter("edge.cache.miss_bytes")
            .add(stats.miss_bytes);
        registry
            .counter("edge.cache.evictions")
            .add(stats.evictions);
        registry
            .counter("edge.cache.prefetch_bytes")
            .add(stats.prefetch_bytes);
        registry
            .counter("edge.origin.bytes")
            .add(world.origin_bytes);
        registry
            .counter("edge.origin.failed_bytes")
            .add(world.origin_failed_bytes);
        registry
            .counter("edge.origin.retries")
            .add(world.origin_retries);
        registry
            .counter("edge.egress.bytes")
            .add(world.egress_bytes);
        registry
            .counter("edge.clients.admitted")
            .add(admitted as u64);
        registry
            .counter("edge.clients.rejected")
            .add(rejected as u64);
    }

    let n = world.displays.max(1) as f64;
    let mean_viewport_utility = world.utility_acc / n;
    let mean_blank_fraction = world.blank_acc / n;
    let degraded_fraction = world.degraded_displays as f64 / n;
    let w = QoeWeights::default();
    EdgeReport {
        clients,
        admitted,
        rejected,
        egress_bytes: world.egress_bytes,
        origin_bytes: world.origin_bytes,
        origin_failed_bytes: world.origin_failed_bytes,
        origin_retries: world.origin_retries,
        cache: stats,
        mean_viewport_utility,
        mean_blank_fraction,
        degraded_decides: world.degraded_decides,
        degraded_displays: world.degraded_displays,
        late_stream_fraction: if world.streams_total == 0 {
            0.0
        } else {
            world.streams_late as f64 / world.streams_total as f64
        },
        qoe_score: w.quality * mean_viewport_utility
            - w.blank * mean_blank_fraction
            - w.degraded * degraded_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_edge;
    use sperke_sim::{TraceConfig, TraceLevel};
    use sperke_video::VideoModelBuilder;

    fn video() -> VideoModel {
        VideoModelBuilder::new(3)
            .duration(SimDuration::from_secs(12))
            .build()
    }

    fn small(clients: usize) -> EdgeConfig {
        EdgeConfig {
            clients,
            ..Default::default()
        }
    }

    /// The default population through the engine, no faults, no trace.
    fn run(video: &VideoModel, config: &EdgeConfig) -> EdgeReport {
        run_with(video, config, &EdgeHarness::default())
    }

    fn run_with(video: &VideoModel, config: &EdgeConfig, harness: &EdgeHarness) -> EdgeReport {
        run_edge(video, config, &default_clients(config), harness, None, 1)
    }

    #[test]
    fn deterministic_report() {
        let v = video();
        let cfg = small(8);
        assert_eq!(run(&v, &cfg), run(&v, &cfg));
    }

    #[test]
    fn byte_balance_holds() {
        let v = video();
        let r = run(&v, &small(10));
        assert_eq!(
            r.origin_demand_bytes(),
            r.cache.miss_bytes + r.cache.prefetch_bytes,
            "origin traffic must balance cache accounting"
        );
        assert!(r.cache.hits > 0, "shared viewing must produce hits");
    }

    #[test]
    fn admission_control_caps_and_traces() {
        let v = video();
        let cfg = EdgeConfig {
            clients: 12,
            max_clients: 5,
            ..Default::default()
        };
        let sink = TraceSink::new(TraceConfig::new(TraceLevel::Events));
        let harness = EdgeHarness {
            trace: sink.clone(),
            ..Default::default()
        };
        let r = run_with(&v, &cfg, &harness);
        assert_eq!(r.admitted, 5);
        assert_eq!(r.rejected, 7);
        let trace = sink.snapshot();
        let admitted = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ClientAdmitted { .. }))
            .count();
        let rejected = trace
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::ClientThrottled {
                        admitted: false,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(admitted, 5);
        assert_eq!(rejected, 7);
    }

    #[test]
    fn shared_cache_slashes_origin_traffic() {
        let v = video();
        let cached = run(&v, &small(12));
        let uncached = run(
            &v,
            &EdgeConfig {
                cache_bytes: 0,
                prefetch: false,
                ..small(12)
            },
        );
        assert!(
            cached.origin_demand_bytes() * 2 < uncached.origin_demand_bytes(),
            "cached {} vs uncached {}",
            cached.origin_demand_bytes(),
            uncached.origin_demand_bytes()
        );
    }

    #[test]
    fn client_order_does_not_change_the_report() {
        let v = video();
        let cfg = small(9);
        let mut clients = default_clients(&cfg);
        let forward = run_edge(&v, &cfg, &clients, &EdgeHarness::default(), None, 1);
        clients.reverse();
        let reversed = run_edge(&v, &cfg, &clients, &EdgeHarness::default(), None, 1);
        assert_eq!(forward, reversed);
    }

    #[test]
    fn tight_egress_degrades_instead_of_collapsing() {
        let v = video();
        let ample = run(
            &v,
            &EdgeConfig {
                egress_bps: 400e6,
                ..small(12)
            },
        );
        let tight = run(
            &v,
            &EdgeConfig {
                egress_bps: 18e6,
                ..small(12)
            },
        );
        assert_eq!(ample.degraded_decides, 0, "no pressure on a wide link");
        assert!(tight.degraded_decides > 0, "tight link must shed layers");
        assert!(tight.mean_viewport_utility < ample.mean_viewport_utility);
    }

    #[test]
    fn origin_outage_triggers_retries() {
        let v = video();
        let harness = EdgeHarness {
            faults: FaultScript::none().link_down(0, SimTime::from_secs(2), SimTime::from_secs(4)),
            ..Default::default()
        };
        let cfg = small(8);
        let r = run_with(&v, &cfg, &harness);
        assert!(r.origin_retries > 0, "outage must schedule retries");
        assert_eq!(
            r.origin_demand_bytes(),
            r.cache.miss_bytes + r.cache.prefetch_bytes,
            "balance must survive faults"
        );
    }

    #[test]
    fn metrics_registry_mirrors_report() {
        let v = video();
        let cfg = small(6);
        let mut reg = MetricsRegistry::new();
        let r = run_edge(
            &v,
            &cfg,
            &default_clients(&cfg),
            &EdgeHarness::default(),
            Some(&mut reg),
            1,
        );
        assert_eq!(reg.counter_value("edge.cache.hits"), Some(r.cache.hits));
        assert_eq!(reg.counter_value("edge.origin.bytes"), Some(r.origin_bytes));
        assert_eq!(
            reg.counter_value("edge.clients.admitted"),
            Some(r.admitted as u64)
        );
    }

    #[test]
    fn prefetch_prewarms_the_cache() {
        let v = video();
        let on = run(
            &v,
            &EdgeConfig {
                prefetch: true,
                ..small(14)
            },
        );
        let off = run(
            &v,
            &EdgeConfig {
                prefetch: false,
                ..small(14)
            },
        );
        assert!(on.cache.prefetches > 0, "crowd model must drive prefetches");
        assert_eq!(off.cache.prefetches, 0);
    }

    #[test]
    fn decide_history_is_the_regression_window_and_forecasts_the_same_bits() {
        // A decide copies only the motion predictor's fitting window. At
        // every decide instant of a crowd, that window and 50 samples
        // forecast bit-identical tile probabilities.
        let forecaster = FusedForecaster::motion_only();
        let window = decide_history_len(&forecaster);
        assert_eq!(window, forecaster.motion.window);
        assert!(window < 50);
        let v = video();
        let config = small(12);
        let track = head_track(&v, config.seed);
        let mut scratch = ForecastScratch::new();
        let (mut short, mut long) = (Vec::new(), Vec::new());
        let mut longer = 0;
        for spec in default_clients(&config) {
            let head = client_head(&track, &spec);
            for chunk in 0..v.chunk_count() {
                let (now, _) = decide_and_display(&v, &config, &spec, chunk);
                let (own, t) = (own_now(&spec, now), ChunkTime(chunk));
                head.history_into(own, window, &mut short);
                head.history_into(own, 50, &mut long);
                longer += usize::from(long.len() > short.len());
                let [a, b] = [&short, &long].map(|history| {
                    let target = v.chunk_start(t);
                    forecaster.forecast_with(v.grid(), history, own, target, t, &mut scratch)
                });
                for tile in v.grid().tiles() {
                    assert_eq!(
                        a.prob(tile).to_bits(),
                        b.prob(tile).to_bits(),
                        "client {} chunk {chunk} {tile:?}",
                        spec.seed
                    );
                }
            }
        }
        assert!(longer > 100, "only {longer} decides had more than a window");
    }
}
