//! Multi-edge federation over a shared origin.
//!
//! A federation shards one client population across N edge nodes and
//! inserts a regional cache tier between the nodes and the origin:
//!
//! ```text
//!   clients ──► edge node 0 ─┐                     ┌──────────┐
//!   clients ──► edge node 1 ─┼─► regional tier ──► │  origin  │
//!   clients ──► edge node … ─┘   (shared cache)    └──────────┘
//! ```
//!
//! * **Sharding** is seeded consistent hashing: every node owns 16
//!   points on a 64-bit ring and a client lives at the first point
//!   clockwise of its canonical-key hash. The assignment is a
//!   pure function of `(seed, node layout, client key)` — declaration
//!   order of nodes or clients cannot change it.
//! * **Cooperative lookups**: an edge miss goes to the regional tier
//!   first; only a regional miss touches the shared origin backhaul.
//!   Byte accounting is exact at every tier (see the identities on
//!   [`FederationReport`]).
//! * **Crowd sharing**: with [`FederationConfig::share_heatmaps`] on,
//!   one node's viewers pre-warm another's prefetcher — remote gaze
//!   reports arrive 150 ms later than local ones, modelled by a
//!   wall-clock shift of the report stream.
//! * **Node failure** is crash-stop: at a scripted outage start the
//!   node's in-flight work is written off and every client homed there
//!   is deterministically re-homed onto the ring's surviving nodes,
//!   resuming delivery where it left off.
//!
//! The engine is the standalone edge's (`DESIGN.md` §13): the same
//! sense phase, sharded over worker threads and merged by client index,
//! then the same serial replay, here over every node's world at once,
//! popping one merged `(time, seq)` queue one event at a time. A
//! standalone edge is that replay on one node with no regional tier.
//! This module adds only what is a federation's own: the ring
//! placement, the regional tier, node crashes and the federation
//! report. The worker count reaches only the sense phase, so every
//! node's trace and the federation report are byte-identical for any
//! worker count (why replay stays serial: `DESIGN.md` §16). A 1-node
//! federation with a degenerate regional tier (`regional_bytes = 0`,
//! infinite `regional_bps`, zero `regional_rtt`) reproduces the plain
//! edge server bit for bit, its tier's legs standing in for the
//! world's own backhaul; `tests/federation.rs` pins all of these
//! claims.

use crate::batch::{readable_reports, replay, sense_plan, Placement};
use crate::cache::{CacheKey, TileCache, TileCacheStats};
use crate::server::{
    edge_horizon, failed_attempt, EdgeClientSpec, EdgeConfig, EdgeHarness, EdgeReport,
    UpstreamDecision,
};
use serde::{Deserialize, Serialize};
use sperke_net::{FaultScript, PathFaults, SerialLink};
use sperke_sim::trace::{Trace, TraceLevel};
use sperke_sim::{FxHashMap, MetricsRegistry, SimDuration, SimTime, TraceEvent, TraceSink};
use sperke_video::VideoModel;
use sperke_vra::AbrPolicyKind;

/// One edge node's capacity declaration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The node's egress capacity towards its clients, bits/second:
    /// finite and positive, as [`EdgeConfig::egress_bps`].
    pub egress_bps: f64,
    /// The node's tile-cache capacity in bytes (0 = no cache).
    pub cache_bytes: u64,
    /// The node's admission cap.
    pub max_clients: usize,
}

impl NodeSpec {
    /// The capacity part of an edge config: the node a standalone edge
    /// runs as, and the template of a uniform federation layout.
    pub(crate) fn of(config: &EdgeConfig) -> NodeSpec {
        NodeSpec {
            egress_bps: config.egress_bps,
            cache_bytes: config.cache_bytes,
            max_clients: config.max_clients,
        }
    }

    /// The canonical total order nodes are indexed in. Sorting the
    /// layout by this key makes node indices — and therefore every
    /// trace byte — invariant to the order nodes were declared in.
    fn canonical_key(&self) -> (u64, u64, usize) {
        (
            self.egress_bps.to_bits(),
            self.cache_bytes,
            self.max_clients,
        )
    }
}

/// Federation experiment parameters. Plain data (serializable), like
/// [`EdgeConfig`]; the non-data dependencies live in
/// [`FederationHarness`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// The per-node edge configuration (egress, origin leg, cache,
    /// planner knobs). `egress_bps`, `cache_bytes` and `max_clients`
    /// act as the uniform node template when `node_specs` is empty;
    /// `origin_bps`/`origin_rtt` describe the regional→origin leg.
    pub node: EdgeConfig,
    /// Number of nodes when `node_specs` is empty (uniform layout).
    pub nodes: usize,
    /// Explicit per-node capacities; empty means `nodes` uniform copies
    /// of the template. Order never matters — nodes are canonicalised.
    pub node_specs: Vec<NodeSpec>,
    /// Regional cache capacity in bytes; 0 disables the shared tier
    /// (every edge miss goes straight to the origin — the isolated
    /// baseline a federation is compared against).
    pub regional_bytes: u64,
    /// Edge↔regional link capacity per node, bits/second
    /// (`f64::INFINITY` = unconstrained).
    pub regional_bps: f64,
    /// Edge↔regional propagation delay.
    pub regional_rtt: SimDuration,
    /// Share crowd heatmaps across nodes: one node's viewers pre-warm
    /// every sibling's prefetcher for the titles the sibling serves.
    pub share_heatmaps: bool,
    /// Seed for the sharding ring (independent of the video seed).
    pub seed: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            node: EdgeConfig::default(),
            nodes: 2,
            node_specs: Vec::new(),
            regional_bytes: 1 << 30,
            regional_bps: 200e6,
            regional_rtt: SimDuration::from_millis(10),
            share_heatmaps: true,
            seed: 7,
        }
    }
}

impl FederationConfig {
    /// The canonical node layout: explicit specs if given, else `nodes`
    /// uniform copies of the template — always sorted into canonical
    /// order so node indices are declaration-order invariant.
    pub fn node_layout(&self) -> Vec<NodeSpec> {
        let mut layout = if self.node_specs.is_empty() {
            vec![NodeSpec::of(&self.node); self.nodes]
        } else {
            self.node_specs.clone()
        };
        layout.sort_by(|a, b| a.canonical_key().partial_cmp(&b.canonical_key()).unwrap());
        assert!(!layout.is_empty(), "a federation needs at least one node");
        layout
    }
}

/// Non-serializable federation run dependencies.
#[derive(Debug, Clone)]
pub struct FederationHarness {
    /// Trace level applied to the federation sink and every node sink.
    pub trace: TraceLevel,
    /// Node crash script: path `n` of the script is node `n` (canonical
    /// index); the first outage start inside the run's horizon is the
    /// node's crash-stop instant.
    pub node_faults: FaultScript,
    /// Shared origin backhaul faults (path 0 of the script).
    pub origin_faults: FaultScript,
}

impl Default for FederationHarness {
    fn default() -> Self {
        FederationHarness {
            trace: TraceLevel::Off,
            node_faults: FaultScript::none(),
            origin_faults: FaultScript::none(),
        }
    }
}

/// Aggregate outcome of a federation run.
///
/// Byte-accounting identities (exact with or without faults, pinned by
/// `tests/federation.rs`):
///
/// * `origin_bytes + origin_failed_bytes == regional.miss_bytes` —
///   every regional miss moves its bytes over the shared origin leg
///   exactly once, successfully or not;
/// * `regional_ingress_bytes == Σ nodes (cache.miss_bytes +
///   cache.prefetch_bytes)` — every edge miss or prefetch asks the
///   regional tier exactly once;
/// * `regional_egress_bytes == regional.hit_bytes + origin_bytes` —
///   everything the tier sends down was either resident or fetched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// Per-node edge reports, in canonical node order.
    pub nodes: Vec<EdgeReport>,
    /// Clients that tried to attach anywhere.
    pub clients: usize,
    /// Clients admitted somewhere at the end of the run.
    pub admitted: usize,
    /// Clients rejected by their home node's admission control.
    pub rejected: usize,
    /// Regional cache counters.
    pub regional: TileCacheStats,
    /// Bytes edge nodes requested from the regional tier.
    pub regional_ingress_bytes: u64,
    /// Bytes the regional tier delivered down to edge nodes.
    pub regional_egress_bytes: u64,
    /// Bytes fetched over the shared origin backhaul.
    pub origin_bytes: u64,
    /// Bytes of origin fetches the tier abandoned (retries exhausted or
    /// the requesting node died mid-retry).
    pub origin_failed_bytes: u64,
    /// Origin retry attempts the tier scheduled.
    pub origin_retries: u64,
    /// Clients re-homed after node failures.
    pub rehomed: u64,
    /// Nodes that crash-stopped during the run.
    pub failed_nodes: u64,
    /// Bytes of edge egress streams lost on the wire at node death.
    pub lost_egress_bytes: u64,
}

impl FederationReport {
    /// Bytes the federation pulled (or tried to pull) from the origin —
    /// the number the whole deployment pays for upstream.
    pub fn origin_demand_bytes(&self) -> u64 {
        self.origin_bytes + self.origin_failed_bytes
    }

    /// Bytes the edge tier pulled (or tried to pull) from the regional
    /// tier, summed across nodes.
    pub fn edge_origin_demand_bytes(&self) -> u64 {
        self.nodes.iter().map(EdgeReport::origin_demand_bytes).sum()
    }
}

/// The outcome of a traced federation run: the report, the
/// federation-level trace (regional hits/misses, node failures,
/// re-homings) and one trace per node (bit-identical to what the node
/// would emit standing alone, fault-free tier aside).
#[derive(Debug, Clone)]
pub struct FederationRunReport {
    /// The federation's aggregate outcome.
    pub report: FederationReport,
    /// The federation-level trace.
    pub trace: Trace,
    /// Per-node traces, in canonical node order.
    pub node_traces: Vec<Trace>,
}

impl FederationRunReport {
    /// A single stable fingerprint over the federation trace and every
    /// node trace, in order. Two runs are byte-identical iff their
    /// combined digests match.
    pub fn combined_digest(&self) -> u64 {
        let mut h = self.trace.digest();
        for t in &self.node_traces {
            h = (h ^ t.digest()).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Every trace's JSONL, federation first then nodes in order,
    /// separated by blank lines.
    pub fn combined_jsonl(&self) -> String {
        let mut out = self.trace.to_jsonl();
        for t in &self.node_traces {
            out.push('\n');
            out.push_str(&t.to_jsonl());
        }
        out
    }
}

// ---------------------------------------------------------------------
// Sharding: a seeded consistent-hash ring.
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_words(seed: u64, words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in std::iter::once(seed).chain(words.iter().copied()) {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Virtual points per node on the consistent-hash ring.
const VNODES: usize = 16;

/// How much later a remote node's gaze reports become visible than
/// local ones (cross-edge sync latency).
pub(crate) const SYNC_DELAY: SimDuration = SimDuration::from_millis(150);

/// The ring: `VNODES` points per node, sorted by hash. Ties (hash
/// collisions) break towards the lower node index, so the ring is a
/// total order.
fn ring_points(seed: u64, nodes: usize) -> Vec<(u64, u32)> {
    let mut points = Vec::with_capacity(nodes * VNODES);
    for node in 0..nodes as u64 {
        for replica in 0..VNODES as u64 {
            points.push((fnv_words(seed, &[0x4e4f_4445, node, replica]), node as u32));
        }
    }
    points.sort_unstable();
    points
}

fn client_point(seed: u64, spec: &EdgeClientSpec) -> u64 {
    fnv_words(
        seed,
        &[
            0x434c_4945_4e54,
            spec.arrival.as_nanos(),
            spec.seed,
            spec.weight as u64,
            spec.budget_bps.to_bits(),
            spec.content as u64,
        ],
    )
}

/// The first alive node clockwise of `point` on the ring.
fn home_for(points: &[(u64, u32)], alive: &[bool], point: u64) -> u32 {
    let start = points.partition_point(|&(h, _)| h < point);
    for i in 0..points.len() {
        let (_, node) = points[(start + i) % points.len()];
        if alive[node as usize] {
            return node;
        }
    }
    unreachable!("home_for requires at least one alive node");
}

// ---------------------------------------------------------------------
// The regional tier.
// ---------------------------------------------------------------------

/// The shared middle tier: one cache, one serialized leg per node, one
/// serialized origin leg. Answers every edge origin-fetch attempt the
/// replay routes to it.
pub(crate) struct RegionalTier {
    cache: TileCache,
    node_links: Vec<SerialLink>,
    origin: SerialLink,
    faults: PathFaults,
    trace: TraceSink,
    ingress_bytes: u64,
    egress_bytes: u64,
    origin_bytes: u64,
    origin_failed_bytes: u64,
    origin_retries: u64,
    /// Bytes answered `Retry` and not yet resolved, per `(node, key)`.
    /// Settled as failed at the horizon, which cuts off the retries
    /// still queued and those of dead nodes, which never fire — keeps
    /// `ok + failed == miss_bytes` exact always.
    pending: FxHashMap<(u32, CacheKey), u64>,
}

impl RegionalTier {
    /// Resolve node `node`'s origin-fetch attempt: a regional hit on the
    /// first attempt, else a forward over the shared origin leg.
    pub(crate) fn fetch(
        &mut self,
        node: u32,
        key: CacheKey,
        bytes: u64,
        attempt: u32,
        now: SimTime,
    ) -> UpstreamDecision {
        if attempt == 1 {
            self.ingress_bytes += bytes;
            if self.cache.lookup(key, bytes) {
                self.trace.emit(TraceEvent::RegionalCacheHit {
                    at: now,
                    node,
                    tile: key.tile,
                    chunk: key.chunk,
                    layer: key.layer,
                    bytes,
                });
                let at = self.node_links[node as usize].transmit(bytes, now);
                self.egress_bytes += bytes;
                return UpstreamDecision::Deliver(at);
            }
            self.trace.emit(TraceEvent::RegionalCacheMiss {
                at: now,
                node,
                tile: key.tile,
                chunk: key.chunk,
                layer: key.layer,
                bytes,
            });
        }
        // Forward the miss to the shared origin. Retries re-enter here
        // with attempt > 1 and skip the cache (the miss is already
        // recorded once — the balance stays exact).
        if self.faults.is_down(now) {
            let decision = failed_attempt(&self.trace, node, bytes, attempt, now);
            if let UpstreamDecision::Retry { .. } = decision {
                self.origin_retries += 1;
                self.pending.insert((node, key), bytes);
            } else {
                self.pending.remove(&(node, key));
                self.origin_failed_bytes += bytes;
            }
            return decision;
        }
        self.pending.remove(&(node, key));
        // Cut-through: the object reaches the regional tier when the
        // origin leg delivers it, then traverses the node's own leg.
        let at_regional = self.origin.transmit(bytes, now);
        self.origin_bytes += bytes;
        self.cache.insert(key, bytes);
        let at = self.node_links[node as usize].transmit(bytes, at_regional);
        self.egress_bytes += bytes;
        UpstreamDecision::Deliver(at)
    }

    /// Write off every pending retry as failed — the matching edge-side
    /// fetches were written off too.
    fn fail_pending(&mut self) {
        self.origin_failed_bytes += self.pending.drain().map(|(_, bytes)| bytes).sum::<u64>();
    }
}

// ---------------------------------------------------------------------
// Population helpers.
// ---------------------------------------------------------------------

/// A flash-crowd population: `base` evenly spaced early viewers of one
/// broadcast, then `surge` more piling in from `surge_at` onwards at
/// `surge_spacing` intervals. Everyone watches title 0.
pub fn flash_crowd_clients(
    config: &EdgeConfig,
    base: usize,
    surge: usize,
    surge_at: SimDuration,
    surge_spacing: SimDuration,
) -> Vec<EdgeClientSpec> {
    let mut out = Vec::with_capacity(base + surge);
    for i in 0..base {
        out.push(EdgeClientSpec {
            arrival: config.arrival_spacing * i as u64,
            seed: config.seed.wrapping_add(i as u64),
            weight: if i % 4 == 3 { 2 } else { 1 },
            budget_bps: config.per_client_budget_bps,
            content: 0,
        });
    }
    for i in 0..surge {
        out.push(EdgeClientSpec {
            arrival: surge_at + surge_spacing * i as u64,
            seed: config.seed.wrapping_add((base + i) as u64) ^ 0x5eed,
            weight: 1,
            budget_bps: config.per_client_budget_bps,
            content: 0,
        });
    }
    out
}

/// A multi-title population with Zipf(`exponent`) popularity over
/// `titles` catalog entries: each client's title is drawn by seeded
/// inverse-CDF, so title 0 dominates and the tail thins out.
pub fn zipf_catalog_clients(
    config: &EdgeConfig,
    clients: usize,
    titles: u16,
    exponent: f64,
) -> Vec<EdgeClientSpec> {
    assert!(titles >= 1, "the catalog needs at least one title");
    let weights: Vec<f64> = (0..titles)
        .map(|t| 1.0 / ((t + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..clients)
        .map(|i| {
            let u = (fnv_words(config.seed, &[0x5a49_5046, i as u64]) >> 11) as f64
                / (1u64 << 53) as f64;
            let mut acc = 0.0;
            let mut content = titles - 1;
            for (t, w) in weights.iter().enumerate() {
                acc += w / total;
                if u < acc {
                    content = t as u16;
                    break;
                }
            }
            EdgeClientSpec {
                arrival: config.arrival_spacing * i as u64,
                seed: config.seed.wrapping_add(i as u64),
                weight: 1,
                budget_bps: config.per_client_budget_bps,
                content,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------

/// Run a federation: shard `clients` across the config's node layout,
/// sense every client's pure plan on `workers` threads (0 = machine
/// default), then replay the merged event order serially through the
/// per-node worlds and the shared regional tier.
///
/// The returned report and every trace byte are a pure function of
/// `(video, config, clients, harness scripts)` — invariant to worker
/// count and to the declaration order of both clients and nodes.
pub fn run_federation(
    video: &VideoModel,
    config: &FederationConfig,
    clients: &[EdgeClientSpec],
    harness: &FederationHarness,
    mut metrics: Option<&mut MetricsRegistry>,
    workers: usize,
) -> FederationRunReport {
    assert!(!clients.is_empty(), "at least one client required");
    let layout = config.node_layout();
    let mut specs = clients.to_vec();
    specs.sort_by_key(EdgeClientSpec::canonical_key);
    let horizon = edge_horizon(video, specs.last().expect("non-empty").arrival);

    // --- Ring placement: each client's home node is a pure function of
    // the config and the canonical orders. A node's first scripted
    // outage inside the horizon is its crash-stop.
    let points = ring_points(config.seed, layout.len());
    let client_points: Vec<u64> = specs.iter().map(|s| client_point(config.seed, s)).collect();
    let all_alive = vec![true; layout.len()];
    let home = client_points
        .iter()
        .map(|&p| home_for(&points, &all_alive, p))
        .collect();
    let fed_sink = TraceSink::with_level(harness.trace);
    let node_sinks: Vec<TraceSink> = layout
        .iter()
        .map(|_| TraceSink::with_level(harness.trace))
        .collect();
    let nodes = layout
        .iter()
        .zip(&node_sinks)
        .map(|(spec, sink)| {
            let trace = sink.clone();
            (
                *spec,
                EdgeHarness {
                    trace,
                    ..Default::default()
                },
            )
        })
        .collect();
    let crashes = (0..layout.len())
        .filter_map(|n| {
            let faults = harness.node_faults.compile_for(n);
            let at = faults.first_outage_start_within(SimTime::ZERO, horizon)?;
            Some((at, n as u32))
        })
        .collect();
    let placement = Placement::new(nodes, home, crashes);
    let share_delay = config.share_heatmaps.then_some(SYNC_DELAY);
    let readable = readable_reports(
        video,
        &config.node,
        &specs,
        &placement.home,
        &placement.admitted,
        share_delay,
    );
    let plan = sense_plan(
        video,
        &config.node,
        specs,
        &placement.admitted,
        &readable,
        workers,
        AbrPolicyKind::default(),
    );

    // --- The shared regional tier.
    let mut tier = RegionalTier {
        cache: TileCache::new(config.regional_bytes),
        node_links: (0..layout.len())
            .map(|_| SerialLink::new(config.regional_bps, config.regional_rtt))
            .collect(),
        origin: SerialLink::new(config.node.origin_bps, config.node.origin_rtt),
        faults: harness.origin_faults.compile_for(0),
        trace: fed_sink.clone(),
        ingress_bytes: 0,
        egress_bytes: 0,
        origin_bytes: 0,
        origin_failed_bytes: 0,
        origin_retries: 0,
        pending: FxHashMap::default(),
    };

    // --- The replay, with the tier. A crash-stop writes off the dead
    // node's in-flight work and moves each of its clients to the first
    // alive node clockwise on the ring, carrying an admitted client's
    // session along.
    let mut rehomed = 0u64;
    let mut failed_nodes = 0u64;
    let mut lost_egress_bytes = 0u64;
    let mut lost_streams = 0u64;
    let node_reports = replay(
        video,
        &config.node,
        &plan,
        placement,
        share_delay,
        Some(&mut tier),
        metrics.as_deref_mut(),
        |node, now, alive, worlds, home| {
            let dead = node as usize;
            failed_nodes += 1;
            let wreck = worlds[dead].abandon(now);
            lost_egress_bytes += wreck.lost_egress_bytes;
            lost_streams += wreck.lost_streams;
            fed_sink.emit(TraceEvent::NodeFailed { at: now, node });
            for c in 0..home.len() {
                if home[c] != node {
                    continue;
                }
                let to = home_for(&points, alive, client_points[c]);
                home[c] = to;
                if worlds[dead].clients[c].admitted {
                    let session = worlds[dead].take_client_session(c as u32);
                    worlds[to as usize].install_client_session(c as u32, session);
                }
                fed_sink.emit(TraceEvent::ClientRehomed {
                    at: now,
                    client: c as u32,
                    from_node: node,
                    to_node: to,
                });
                rehomed += 1;
            }
        },
    );

    // --- Settle: retries the horizon cut off, and those of dead nodes,
    // fail at the tier exactly as the matching edge in-flight entries
    // fail in finish_edge_run and at a node's crash.
    tier.fail_pending();
    let admitted: usize = node_reports.iter().map(|r| r.admitted).sum();

    let regional = tier.cache.stats();
    if let Some(registry) = metrics {
        registry
            .counter("federation.regional.hits")
            .add(regional.hits);
        registry
            .counter("federation.regional.misses")
            .add(regional.misses);
        registry
            .counter("federation.regional.hit_bytes")
            .add(regional.hit_bytes);
        registry
            .counter("federation.regional.miss_bytes")
            .add(regional.miss_bytes);
        registry
            .counter("federation.regional.ingress_bytes")
            .add(tier.ingress_bytes);
        registry
            .counter("federation.regional.egress_bytes")
            .add(tier.egress_bytes);
        registry
            .counter("federation.origin.bytes")
            .add(tier.origin_bytes);
        registry
            .counter("federation.origin.failed_bytes")
            .add(tier.origin_failed_bytes);
        registry
            .counter("federation.origin.retries")
            .add(tier.origin_retries);
        registry.counter("federation.clients.rehomed").add(rehomed);
        registry
            .counter("federation.nodes.failed")
            .add(failed_nodes);
        registry
            .counter("federation.egress.lost_bytes")
            .add(lost_egress_bytes);
        registry
            .counter("federation.egress.lost_streams")
            .add(lost_streams);
    }

    let report = FederationReport {
        nodes: node_reports,
        clients: clients.len(),
        admitted,
        rejected: clients.len() - admitted,
        regional,
        regional_ingress_bytes: tier.ingress_bytes,
        regional_egress_bytes: tier.egress_bytes,
        origin_bytes: tier.origin_bytes,
        origin_failed_bytes: tier.origin_failed_bytes,
        origin_retries: tier.origin_retries,
        rehomed,
        failed_nodes,
        lost_egress_bytes,
    };
    // The tier holds the last live clone of the federation sink; drop it
    // so `into_trace` takes the zero-copy move instead of a snapshot.
    drop(tier);
    FederationRunReport {
        report,
        trace: fed_sink.into_trace(),
        node_traces: node_sinks.into_iter().map(TraceSink::into_trace).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = ring_points(7, 4);
        let b = ring_points(7, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(a, sorted, "ring points must come out sorted");
        // Every node owns at least one point at this vnode count.
        for n in 0..4u32 {
            assert!(a.iter().any(|&(_, owner)| owner == n));
        }
    }

    #[test]
    fn rehoming_skips_dead_nodes() {
        let points = ring_points(7, 3);
        let alive_all = vec![true; 3];
        let mut one_dead = alive_all.clone();
        let spec = EdgeClientSpec {
            arrival: SimDuration::from_millis(125),
            seed: 42,
            weight: 1,
            budget_bps: 8e6,
            content: 0,
        };
        let p = client_point(7, &spec);
        let before = home_for(&points, &alive_all, p);
        one_dead[before as usize] = false;
        let after = home_for(&points, &one_dead, p);
        assert_ne!(before, after, "a dead home must be skipped");
        // Clients homed elsewhere keep their home when this node dies.
        for probe in 0..200u64 {
            let q = fnv_words(11, &[probe]);
            let h = home_for(&points, &alive_all, q);
            if h != before {
                assert_eq!(h, home_for(&points, &one_dead, q));
            }
        }
    }

    #[test]
    fn zipf_catalog_is_front_loaded() {
        let cfg = EdgeConfig::default();
        let specs = zipf_catalog_clients(&cfg, 200, 6, 1.1);
        assert_eq!(specs.len(), 200);
        let count = |t: u16| specs.iter().filter(|s| s.content == t).count();
        assert!(count(0) > count(5), "title 0 must dominate the tail");
        assert!(specs.iter().all(|s| s.content < 6));
    }

    #[test]
    fn node_layout_is_declaration_order_invariant() {
        let a = NodeSpec {
            egress_bps: 200e6,
            cache_bytes: 64 << 20,
            max_clients: 32,
        };
        let b = NodeSpec {
            egress_bps: 400e6,
            cache_bytes: 256 << 20,
            max_clients: 64,
        };
        let fwd = FederationConfig {
            node_specs: vec![a, b],
            ..Default::default()
        };
        let rev = FederationConfig {
            node_specs: vec![b, a],
            ..Default::default()
        };
        assert_eq!(fwd.node_layout(), rev.node_layout());
    }
}
