//! Per-client weighted round-robin egress for a shared delivery point.
//!
//! An edge server arbitrating many viewers needs fairness between
//! *clients*, whatever their request depth: a link that gave every
//! in-flight stream its own weighted slice would hand a client that
//! opens ten streams ten slices. [`WrrLink`] gives each client one FIFO
//! queue and serves only the queue heads, weighted
//! round-robin: the fluid (processor-sharing) limit of a deficit
//! round-robin scheduler, where at any instant each backlogged client
//! receives `weight / Σ backlogged weights` of the capacity and its
//! queued requests drain strictly in submission order.
//!
//! Completions are computed exactly by event-stepping between queue-head
//! finishes, so the model is deterministic: identical submissions yield
//! identical completion times, bit for bit.
//!
//! The stepper is laid out as a struct of arrays. The backlogged
//! clients' ids, their heads' remaining bits and their weight classes
//! are three dense vectors aligned by position, sorted by client id;
//! queued streams behind a head keep their full size and wait in the
//! client's FIFO. A fluid step computes `rate · weight / Σ weights` and
//! its product with the step length once per distinct weight, then
//! costs one division (time to finish) and one subtraction (bits
//! drained) per head. The weight sum is a running total, exact in f64
//! because the weights are small integers.
//!
//! ```
//! use sperke_net::WrrLink;
//! use sperke_sim::SimTime;
//!
//! let mut link = WrrLink::new(8e6);
//! let a = link.add_client(1);
//! let b = link.add_client(1);
//! link.submit(a, 125_000, SimTime::ZERO); // 1 Mbit each
//! link.submit(b, 125_000, SimTime::ZERO);
//! let done = link.drain();
//! assert_eq!(done.len(), 2);
//! // Equal weights: both finish together at 0.25 s.
//! assert!(done.iter().all(|c| (c.finished.as_secs_f64() - 0.25).abs() < 1e-9));
//! ```

use serde::{Deserialize, Serialize};
use sperke_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Identifier of a stream on a [`WrrLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamId(pub u64);

/// A stream queued or in flight on a [`WrrLink`]. Only a queue head
/// drains, and its remaining bits live in the link's dense head array;
/// a stream behind the head still has all of its bits to send.
#[derive(Debug, Clone)]
struct WrrStream {
    id: StreamId,
    bytes: u64,
    submitted: SimTime,
}

impl WrrStream {
    /// The stream's full size in bits.
    fn bits(&self) -> f64 {
        self.bytes as f64 * 8.0
    }
}

/// One client's FIFO queue (head first) and its weight class.
#[derive(Debug, Clone)]
struct ClientQueue {
    class: u32,
    queue: VecDeque<WrrStream>,
}

/// Every client registered at one scheduling weight, with the rate each
/// of them is served at in the current fluid step and the bits that
/// step drains from each of their heads.
#[derive(Debug, Clone)]
struct WeightClass {
    weight: f64,
    rate: f64,
    drained: f64,
}

/// A completed client stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WrrCompletion {
    /// The client the stream belonged to.
    pub client: u32,
    /// The stream.
    pub id: StreamId,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Bytes carried.
    pub bytes: u64,
}

/// A constant-rate link shared between clients with weighted
/// round-robin fairness (fluid model; see the module docs).
#[derive(Debug, Clone)]
pub struct WrrLink {
    rate_bps: f64,
    now: SimTime,
    clients: Vec<ClientQueue>,
    /// The distinct registered weights; a client holds an index here.
    classes: Vec<WeightClass>,
    /// Ids of the clients with a non-empty queue, ascending. Walking it
    /// visits the backlogged clients in the order a scan of the whole
    /// registry would, so the lowest-id tie-break and every f64
    /// operation sequence match that formulation.
    active: Vec<u32>,
    /// Remaining bits of each backlogged client's head, aligned with
    /// `active`.
    head_bits: Vec<f64>,
    /// Weight class of each backlogged client, aligned with `active`.
    head_class: Vec<u32>,
    /// Σ weights of the backlogged clients. The weights are integers,
    /// so this running total is exact: it equals a fresh sum in any
    /// order while it stays below 2⁵³.
    total_weight: f64,
    /// Bytes of the queued streams behind the heads.
    tail_bytes: u64,
    /// Streams queued, heads included.
    queued: usize,
    next_id: u64,
    completions: Vec<WrrCompletion>,
    delivered_bytes: u64,
}

impl WrrLink {
    /// A link of the given constant capacity, bits/second.
    pub fn new(rate_bps: f64) -> WrrLink {
        assert!(rate_bps > 0.0, "rate must be positive");
        WrrLink {
            rate_bps,
            now: SimTime::ZERO,
            clients: Vec::new(),
            classes: Vec::new(),
            active: Vec::new(),
            head_bits: Vec::new(),
            head_class: Vec::new(),
            total_weight: 0.0,
            tail_bytes: 0,
            queued: 0,
            next_id: 0,
            completions: Vec::new(),
            delivered_bytes: 0,
        }
    }

    /// Register a client with an integer scheduling weight (≥ 1);
    /// returns its client id. Clients must be registered before any
    /// submission on their behalf.
    pub fn add_client(&mut self, weight: u32) -> u32 {
        assert!(weight > 0, "weight must be positive");
        let weight = weight as f64;
        let class = match self.classes.iter().position(|c| c.weight == weight) {
            Some(class) => class,
            None => {
                self.classes.push(WeightClass {
                    weight,
                    rate: 0.0,
                    drained: 0.0,
                });
                self.classes.len() - 1
            }
        };
        self.clients.push(ClientQueue {
            class: class as u32,
            queue: VecDeque::new(),
        });
        (self.clients.len() - 1) as u32
    }

    /// Number of registered clients.
    pub fn clients(&self) -> usize {
        self.clients.len()
    }

    /// Queue a stream of `bytes` for `client` at `now`. Submissions must
    /// be globally time-ordered (the discrete-event loop guarantees
    /// this); within a client, streams drain strictly FIFO.
    pub fn submit(&mut self, client: u32, bytes: u64, now: SimTime) -> StreamId {
        assert!(now >= self.now, "submissions must be time-ordered");
        self.advance(now);
        let id = StreamId(self.next_id);
        self.next_id += 1;
        let stream = WrrStream {
            id,
            bytes,
            submitted: now,
        };
        let q = &mut self.clients[client as usize];
        if q.queue.is_empty() {
            let pos = self.active.partition_point(|&i| i < client);
            self.active.insert(pos, client);
            self.head_bits.insert(pos, stream.bits());
            self.head_class.insert(pos, q.class);
            self.total_weight += self.classes[q.class as usize].weight;
        } else {
            self.tail_bytes += bytes;
        }
        q.queue.push_back(stream);
        self.queued += 1;
        id
    }

    /// Bits still queued (all clients, including in-flight heads).
    ///
    /// The ordered sum over every queued stream: clients ascending, each
    /// client's head then the streams behind it. Empty queues contribute
    /// no terms, so this adds exactly the f64 sequence a scan of every
    /// registered client would. [`WrrLink::backlog_bits_bounds`] brackets
    /// it at the cost of the heads alone.
    pub fn backlog_bits(&self) -> f64 {
        self.active
            .iter()
            .zip(&self.head_bits)
            .flat_map(|(&i, &head)| {
                let tails = self.clients[i as usize].queue.iter().skip(1);
                std::iter::once(head).chain(tails.map(WrrStream::bits))
            })
            .sum()
    }

    /// An interval `(lo, hi)` sure to contain [`WrrLink::backlog_bits`],
    /// computed from one pass over the backlogged heads instead of every
    /// queued stream.
    ///
    /// The streams behind the heads hold an exact integer total `T`.
    /// Summing `n` terms in order errs by at most `γ(n−1)·Σ|x|`, with
    /// `γ(k) = k·u/(1 − k·u)` and `u = 2⁻⁵³` (Higham, *Accuracy and
    /// Stability of Numerical Algorithms*, §4.2); that bounds both
    /// `backlog_bits` over all `n` queued streams and the head sum here
    /// over `m` heads. The centre `T + Σ heads` is therefore within
    /// about `(n + m)·u·(T + Σ|heads|)` of `backlog_bits`, and the half
    /// width `(n + m + 2)·ε·(T + Σ|heads|)`, with `ε = 2u`, is over twice
    /// that, which also covers the rounding of the centre and the ends.
    pub fn backlog_bits_bounds(&self) -> (f64, f64) {
        let (mut heads, mut magnitude) = (0.0f64, 0.0f64);
        for &bits in &self.head_bits {
            heads += bits;
            magnitude += bits.abs();
        }
        let tails = self.tail_bytes as f64 * 8.0;
        let terms = (self.queued + self.head_bits.len() + 2) as f64;
        let half_width = terms * f64::EPSILON * (tails + magnitude);
        let centre = tails + heads;
        (centre - half_width, centre + half_width)
    }

    /// Time to send `bits` at full link rate; `drain_time(backlog_bits())`
    /// is the backlog's time to drain. It never decreases as `bits`
    /// grows: the division by a positive rate and the nanosecond
    /// rounding both keep the order.
    pub fn drain_time(&self, bits: f64) -> SimDuration {
        SimDuration::from_secs_f64(bits / self.rate_bps)
    }

    /// Streams queued for one client (head included); the tests' view.
    #[cfg(test)]
    fn queued(&self, client: u32) -> usize {
        self.clients[client as usize].queue.len()
    }

    /// Total bytes delivered so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Advance the fluid WRR state to `to`, retiring queue heads that
    /// finish. Tie-break on simultaneous finishes is the lowest client
    /// index (deterministic).
    ///
    /// Every f64 operation that reaches a completion time is the one the
    /// full-registry formulation performs, in the same order: the rate
    /// `rate_bps · w / Σw` and the drained bits `rate · dt` are the same
    /// expressions whether computed per head or once per weight, and the
    /// heads are visited in ascending client id.
    fn advance(&mut self, to: SimTime) {
        while self.now < to && !self.active.is_empty() {
            let total_weight = self.total_weight;
            for class in &mut self.classes {
                class.rate = self.rate_bps * class.weight / total_weight;
            }
            // The head that finishes first under the current sharing;
            // strict `<` keeps the first of equal minima, matching the
            // lowest-client-index tie-break.
            let mut best_pos = 0usize;
            let mut best_dt = f64::INFINITY;
            for (pos, (&bits, &class)) in self.head_bits.iter().zip(&self.head_class).enumerate() {
                let dt = bits / self.classes[class as usize].rate;
                if dt < best_dt {
                    best_dt = dt;
                    best_pos = pos;
                }
            }
            let window = (to - self.now).as_secs_f64();
            let finishes = best_dt <= window;
            let step = if finishes { best_dt } else { window };
            for class in &mut self.classes {
                class.drained = class.rate * step;
            }
            for (bits, &class) in self.head_bits.iter_mut().zip(&self.head_class) {
                *bits -= self.classes[class as usize].drained;
            }
            if finishes {
                let finish = self.now + SimDuration::from_secs_f64(best_dt);
                self.retire_head(best_pos, finish);
                self.now = finish;
            } else {
                self.now = to;
            }
        }
        self.now = self.now.max(to);
    }

    /// Complete the head of backlogged client `active[pos]` at `finish`:
    /// the stream behind it becomes the head with all its bits to send,
    /// or the client leaves the backlog.
    fn retire_head(&mut self, pos: usize, finish: SimTime) {
        let client = self.active[pos];
        let q = &mut self.clients[client as usize];
        let done = q.queue.pop_front().expect("a backlogged client has a head");
        if let Some(next) = q.queue.front() {
            self.head_bits[pos] = next.bits();
            self.tail_bytes -= next.bytes;
        } else {
            self.active.remove(pos);
            self.head_bits.remove(pos);
            self.head_class.remove(pos);
            self.total_weight -= self.classes[q.class as usize].weight;
        }
        self.queued -= 1;
        self.delivered_bytes += done.bytes;
        self.completions.push(WrrCompletion {
            client,
            id: done.id,
            submitted: done.submitted,
            finished: finish,
            bytes: done.bytes,
        });
    }

    /// Drive the link until `to`, then drain completions so far, ordered
    /// by finish time (ties by client id, deterministic).
    pub fn run_until(&mut self, to: SimTime) -> Vec<WrrCompletion> {
        self.advance(to);
        let mut out = std::mem::take(&mut self.completions);
        out.sort_by_key(|c| (c.finished, c.client));
        out
    }

    /// Run until every queued stream completes; returns all outstanding
    /// completions.
    pub fn drain(&mut self) -> Vec<WrrCompletion> {
        while !self.active.is_empty() {
            let t = self.now + SimDuration::from_secs(3600);
            self.advance(t);
        }
        self.run_until(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBIT: u64 = 125_000;

    #[test]
    fn per_client_fifo_order_is_respected() {
        let mut link = WrrLink::new(8e6);
        let a = link.add_client(1);
        let first = link.submit(a, MBIT, SimTime::ZERO);
        let second = link.submit(a, MBIT, SimTime::ZERO);
        let done = link.drain();
        assert_eq!(done[0].id, first);
        assert_eq!(done[1].id, second);
        assert!(done[0].finished < done[1].finished);
    }

    #[test]
    fn deep_queue_does_not_starve_other_clients() {
        // Client A queues 8 streams, client B one; equal weights. B's
        // lone stream shares the link 50/50 with A's *head* only, so it
        // finishes long before A's backlog drains.
        let mut link = WrrLink::new(8e6);
        let a = link.add_client(1);
        let b = link.add_client(1);
        for _ in 0..8 {
            link.submit(a, MBIT, SimTime::ZERO);
        }
        link.submit(b, MBIT, SimTime::ZERO);
        let done = link.drain();
        let b_done = done.iter().find(|c| c.client == b).unwrap().finished;
        let a_last = done
            .iter()
            .filter(|c| c.client == a)
            .map(|c| c.finished)
            .max()
            .unwrap();
        assert!(
            (b_done.as_secs_f64() - 0.25).abs() < 1e-9,
            "B at 0.25 s, got {b_done}"
        );
        assert!(a_last.as_secs_f64() > 1.0, "A's 8 Mbit backlog takes > 1 s");
    }

    #[test]
    fn weights_split_capacity_proportionally() {
        let mut link = WrrLink::new(8e6);
        let heavy = link.add_client(3);
        let light = link.add_client(1);
        link.submit(heavy, MBIT, SimTime::ZERO);
        link.submit(light, MBIT, SimTime::ZERO);
        let done = link.drain();
        let h = done.iter().find(|c| c.client == heavy).unwrap();
        let l = done.iter().find(|c| c.client == light).unwrap();
        // Heavy at 6 Mbps: 1/6 s; light 2 Mbps for 1/6 s then full rate.
        assert!((h.finished.as_secs_f64() - 1.0 / 6.0).abs() < 1e-9);
        let expect_l = 1.0 / 6.0 + (2.0 / 3.0) / 8.0;
        assert!((l.finished.as_secs_f64() - expect_l).abs() < 1e-9);
    }

    #[test]
    fn work_is_conserved_across_weightings() {
        let makespan = |weights: &[u32]| {
            let mut link = WrrLink::new(10e6);
            for &w in weights {
                let c = link.add_client(w);
                link.submit(c, MBIT, SimTime::ZERO);
            }
            link.drain().into_iter().map(|c| c.finished).max().unwrap()
        };
        let fair = makespan(&[1, 1, 1, 1]);
        let skewed = makespan(&[7, 1, 3, 2]);
        assert!((fair.as_secs_f64() - skewed.as_secs_f64()).abs() < 1e-9);
        assert!((fair.as_secs_f64() - 0.4).abs() < 1e-9, "4 Mbit at 10 Mbps");
    }

    #[test]
    fn backlog_tracks_queued_bits() {
        let mut link = WrrLink::new(8e6);
        let a = link.add_client(1);
        assert_eq!(link.backlog_bits(), 0.0);
        link.submit(a, MBIT, SimTime::ZERO);
        link.submit(a, MBIT, SimTime::ZERO);
        assert!((link.backlog_bits() - 2e6).abs() < 1e-6);
        let drain = link.drain_time(link.backlog_bits());
        assert!((drain.as_secs_f64() - 0.25).abs() < 1e-9);
        link.run_until(SimTime::from_millis(125));
        assert!((link.backlog_bits() - 1e6).abs() < 1e-6, "half drained");
        assert_eq!(link.delivered_bytes(), MBIT);
    }

    #[test]
    fn run_until_reports_partial_progress() {
        let mut link = WrrLink::new(8e6);
        let a = link.add_client(1);
        link.submit(a, MBIT, SimTime::ZERO);
        link.submit(a, 100 * MBIT, SimTime::ZERO);
        let early = link.run_until(SimTime::from_millis(300));
        assert_eq!(early.len(), 1);
        assert_eq!(link.queued(a), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_order_submission_rejected() {
        let mut link = WrrLink::new(1e6);
        let a = link.add_client(1);
        link.submit(a, 1000, SimTime::from_secs(5));
        link.submit(a, 1000, SimTime::from_secs(1));
    }

    #[test]
    fn simultaneous_finishes_across_weights_retire_lowest_id_first() {
        // Weight w gets w/3 of 3 Mbps, so a weight-1 head of 1 Mbit and
        // a weight-2 head of 2 Mbit both need exactly 1 s. Whichever
        // client registered first (the lower id) retires at that
        // instant; the other is left queued with nothing to send.
        for weights in [[1, 2], [2, 1]] {
            let mut link = WrrLink::new(3e6);
            let ids = weights.map(|w| link.add_client(w));
            for (id, w) in ids.into_iter().zip(weights) {
                link.submit(id, w as u64 * MBIT, SimTime::ZERO);
            }
            let first = link.run_until(SimTime::from_secs(1));
            assert_eq!(first.len(), 1, "weights {weights:?}");
            assert_eq!(first[0].client, ids[0], "weights {weights:?}");
            assert_eq!(first[0].finished, SimTime::from_secs(1));
            assert_eq!(link.queued(ids[1]), 1);
            let rest = link.drain();
            assert_eq!(rest.len(), 1);
            assert_eq!(rest[0].client, ids[1]);
            assert_eq!(rest[0].finished, SimTime::from_secs(1));
        }
    }

    /// A stream in the full-scan oracle: every queued stream carries its
    /// own remaining bits.
    struct OracleStream {
        id: StreamId,
        bytes: u64,
        remaining_bits: f64,
        submitted: SimTime,
    }

    /// One client of the full-scan oracle.
    struct OracleClient {
        weight: f64,
        queue: VecDeque<OracleStream>,
    }

    /// The full-scan formulation the dense stepper replaced, kept as a
    /// differential oracle: every pass filters the whole registry for
    /// non-empty queues and reaches each head through its queue.
    struct FullScanWrr {
        rate_bps: f64,
        now: SimTime,
        clients: Vec<OracleClient>,
        next_id: u64,
        completions: Vec<WrrCompletion>,
    }

    impl FullScanWrr {
        fn new(rate_bps: f64) -> FullScanWrr {
            FullScanWrr {
                rate_bps,
                now: SimTime::ZERO,
                clients: Vec::new(),
                next_id: 0,
                completions: Vec::new(),
            }
        }

        fn add_client(&mut self, weight: u32) -> u32 {
            self.clients.push(OracleClient {
                weight: weight as f64,
                queue: VecDeque::new(),
            });
            (self.clients.len() - 1) as u32
        }

        fn submit(&mut self, client: u32, bytes: u64, now: SimTime) {
            self.advance(now);
            let id = StreamId(self.next_id);
            self.next_id += 1;
            self.clients[client as usize].queue.push_back(OracleStream {
                id,
                bytes,
                remaining_bits: bytes as f64 * 8.0,
                submitted: now,
            });
        }

        fn backlog_bits(&self) -> f64 {
            self.clients
                .iter()
                .flat_map(|c| c.queue.iter())
                .map(|s| s.remaining_bits)
                .sum()
        }

        fn advance(&mut self, to: SimTime) {
            loop {
                if self.now >= to {
                    break;
                }
                let total_w: f64 = self
                    .clients
                    .iter()
                    .filter(|c| !c.queue.is_empty())
                    .map(|c| c.weight)
                    .sum();
                if total_w == 0.0 {
                    break;
                }
                let (idx, dt) = self
                    .clients
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.queue.is_empty())
                    .map(|(i, c)| {
                        let rate = self.rate_bps * c.weight / total_w;
                        (i, c.queue[0].remaining_bits / rate)
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                    .expect("non-empty active set");
                let window = (to - self.now).as_secs_f64();
                if dt <= window {
                    let finish = self.now + SimDuration::from_secs_f64(dt);
                    for c in self.clients.iter_mut() {
                        if let Some(head) = c.queue.front_mut() {
                            let rate = self.rate_bps * c.weight / total_w;
                            head.remaining_bits -= rate * dt;
                        }
                    }
                    let done = self.clients[idx].queue.pop_front().expect("head exists");
                    self.completions.push(WrrCompletion {
                        client: idx as u32,
                        id: done.id,
                        submitted: done.submitted,
                        finished: finish,
                        bytes: done.bytes,
                    });
                    self.now = finish;
                } else {
                    for c in self.clients.iter_mut() {
                        if let Some(head) = c.queue.front_mut() {
                            let rate = self.rate_bps * c.weight / total_w;
                            head.remaining_bits -= rate * window;
                        }
                    }
                    self.now = to;
                }
            }
            self.now = self.now.max(to);
        }

        fn run_until(&mut self, to: SimTime) -> Vec<WrrCompletion> {
            self.advance(to);
            let mut out = std::mem::take(&mut self.completions);
            out.sort_by_key(|c| (c.finished, c.client));
            out
        }
    }

    /// The dense link's ordered backlog sum equals the full scan's
    /// (compared as f64: the oracle's empty sum is -0.0), and the
    /// backlog interval contains it.
    fn check_backlog(
        fast: &WrrLink,
        slow: &FullScanWrr,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let bits = slow.backlog_bits();
        proptest::prop_assert_eq!(fast.backlog_bits(), bits);
        let (lo, hi) = fast.backlog_bits_bounds();
        proptest::prop_assert!(
            lo <= bits && bits <= hi,
            "backlog {} outside [{}, {}]",
            bits,
            lo,
            hi
        );
        Ok(())
    }

    proptest::proptest! {
        /// The dense stepper is bit-identical to the full-scan oracle on
        /// arbitrary submission/checkpoint schedules: same completions
        /// in the same order, with the exact same finish time bits. At
        /// every checkpoint and after every submission the backlog
        /// agrees too (see `check_backlog`).
        #[test]
        fn active_list_matches_full_scan_bit_exact(
            weights in proptest::collection::vec(1u32..5, 1..12),
            ops in proptest::collection::vec(
                (0u32..12, 1u64..600_000, 0u64..2_000), 1..80),
        ) {
            let mut fast = WrrLink::new(8e6);
            let mut slow = FullScanWrr::new(8e6);
            for &w in &weights {
                fast.add_client(w);
                slow.add_client(w);
            }
            let mut t_ms = 0u64;
            for &(client, bytes, gap_ms) in &ops {
                let client = client % weights.len() as u32;
                t_ms += gap_ms;
                let now = SimTime::from_millis(t_ms);
                // Interleave checkpoints so partial windows (the
                // else-branch decrement) are exercised too.
                if gap_ms % 3 == 0 {
                    let a = fast.run_until(now);
                    let b = slow.run_until(now);
                    proptest::prop_assert_eq!(&a, &b);
                    check_backlog(&fast, &slow)?;
                }
                fast.submit(client, bytes, now);
                slow.submit(client, bytes, now);
                check_backlog(&fast, &slow)?;
            }
            let a = fast.drain();
            let end = fast.now;
            slow.advance(end);
            let b = slow.run_until(end);
            proptest::prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                proptest::prop_assert_eq!(x.client, y.client);
                proptest::prop_assert_eq!(x.id, y.id);
                proptest::prop_assert_eq!(x.finished, y.finished);
                proptest::prop_assert_eq!(x.bytes, y.bytes);
            }
        }
    }
}
