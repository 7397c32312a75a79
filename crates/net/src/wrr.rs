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
//! The stepper keeps one dense pair of arrays per weight class: the
//! remaining bits of the class's backlogged heads, ascending, and their
//! clients' ids, aligned; queued streams behind a head keep their full
//! size and wait in the client's FIFO. A fluid step computes the class's
//! rate `rate · weight / Σ weights` once and subtracts one drained amount
//! from every head of the class. IEEE subtraction of a common value is
//! monotone, so the order survives every step, and a class's first
//! finisher is its front head: dividing by one positive rate keeps the
//! order of the bits, and a division per head runs only over the front
//! run whose few extra ulps could round to the same finish, where the
//! lowest id wins. A successor or a newly backlogged head goes in by
//! binary search. The weight sum is a running total, exact in f64
//! because the weights are small integers.
//!
//! Each submission carries a caller tag, handed back in its
//! [`WrrCompletion`], so a caller needs no map from streams to what they
//! deliver.
//!
//! ```
//! use sperke_net::WrrLink;
//! use sperke_sim::SimTime;
//!
//! let mut link = WrrLink::new(8e6);
//! let a = link.add_client(1);
//! let b = link.add_client(1);
//! link.submit(a, 125_000, SimTime::ZERO, 'a'); // 1 Mbit each
//! link.submit(b, 125_000, SimTime::ZERO, 'b');
//! let done = link.drain();
//! assert_eq!(done.len(), 2);
//! assert_eq!((done[0].tag, done[1].tag), ('a', 'b'));
//! // Equal weights: both finish together at 0.25 s.
//! assert!(done.iter().all(|c| (c.finished.as_secs_f64() - 0.25).abs() < 1e-9));
//! ```

use sperke_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A stream queued or in flight on a [`WrrLink`]. Only a queue head
/// drains, and its remaining bits live in its weight class's dense head
/// array; a stream behind the head still has all of its bits to send.
#[derive(Debug, Clone)]
struct WrrStream<T> {
    tag: T,
    bytes: u64,
    submitted: SimTime,
}

impl<T> WrrStream<T> {
    /// The stream's full size in bits.
    fn bits(&self) -> f64 {
        self.bytes as f64 * 8.0
    }
}

/// One client's FIFO queue (head first) and its weight class.
#[derive(Debug, Clone)]
struct ClientQueue<T> {
    class: u32,
    queue: VecDeque<WrrStream<T>>,
}

/// Every client registered at one scheduling weight: the backlogged
/// ones with their heads' remaining bits, and the rate each of them is
/// served at in the current fluid step.
#[derive(Debug, Clone)]
struct WeightClass {
    weight: f64,
    rate: f64,
    /// Ids of the class's clients with a non-empty queue, aligned with
    /// `bits`.
    ids: Vec<u32>,
    /// Remaining bits of each backlogged client's head, ascending (in
    /// finish order). Never NaN: the link rate is finite.
    bits: Vec<f64>,
}

impl WeightClass {
    fn new(weight: f64) -> WeightClass {
        WeightClass {
            weight,
            rate: 0.0,
            ids: Vec::new(),
            bits: Vec::new(),
        }
    }

    /// Add a backlogged head, keeping the bits ascending. Where bits are
    /// equal, any position is as good: [`WeightClass::first_finisher`]
    /// walks the whole equal run.
    fn insert(&mut self, client: u32, bits: f64) {
        let pos = self.bits.partition_point(|&b| b < bits);
        self.ids.insert(pos, client);
        self.bits.insert(pos, bits);
    }

    /// Give the head at `pos` a fresh stream of `bits`, moving it to its
    /// finish-order place: one shift of the heads it passes.
    fn reseat(&mut self, pos: usize, bits: f64) {
        let client = self.ids[pos];
        let at = if bits >= self.bits[pos] {
            pos + self.bits[pos + 1..].partition_point(|&b| b < bits)
        } else {
            self.bits[..pos].partition_point(|&b| b < bits)
        };
        if at > pos {
            self.ids.copy_within(pos + 1..=at, pos);
            self.bits.copy_within(pos + 1..=at, pos);
        } else {
            self.ids.copy_within(at..pos, at + 1);
            self.bits.copy_within(at..pos, at + 1);
        }
        self.ids[at] = client;
        self.bits[at] = bits;
    }

    /// Serve every head of the class at its rate for `step` seconds.
    /// Rounding is monotone, so `a ≤ b` gives `a − d ≤ b − d` and the
    /// bits stay ascending (two heads may become equal).
    fn drain(&mut self, step: f64) {
        let drained = self.rate * step;
        for bits in &mut self.bits {
            *bits -= drained;
        }
    }

    /// The position of the class's first finisher under the current
    /// rate, and its time to finish: `bits / rate` at its least, the
    /// lowest id among equal times.
    ///
    /// The division is monotone, so the front head has the least time. A
    /// lower id with more bits can still round to that same time; its
    /// excess is then within a few ulps of the least bits (or of the
    /// smallest normal, scaled by the rate, where the time underflows).
    /// Heads inside that slack form a front run, since the excess grows
    /// with the position, and only they are divided to break the tie.
    fn first_finisher(&self) -> (usize, f64) {
        let least = self.bits[0];
        let dt = least / self.rate;
        let slack = least.abs() * (4.0 * f64::EPSILON) + self.rate * f64::MIN_POSITIVE;
        let mut pos = 0;
        for (p, &bits) in self.bits.iter().enumerate().skip(1) {
            if bits - least > slack {
                break;
            }
            if self.ids[p] < self.ids[pos] && bits / self.rate == dt {
                pos = p;
            }
        }
        (pos, dt)
    }
}

/// A completed client stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrrCompletion<T> {
    /// The client the stream belonged to.
    pub client: u32,
    /// The tag the stream was submitted with.
    pub tag: T,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Bytes carried.
    pub bytes: u64,
}

/// A constant-rate link shared between clients with weighted
/// round-robin fairness (fluid model; see the module docs). Every
/// stream carries a caller tag of type `T`.
#[derive(Debug, Clone)]
pub struct WrrLink<T> {
    rate_bps: f64,
    now: SimTime,
    clients: Vec<ClientQueue<T>>,
    /// The distinct registered weights; a client holds an index here.
    classes: Vec<WeightClass>,
    /// Clients with a non-empty queue, over all classes.
    backlogged: usize,
    /// Σ weights of the backlogged clients. The weights are integers,
    /// so this running total is exact: it equals a fresh sum in any
    /// order while it stays below 2⁵³.
    total_weight: f64,
    /// Bytes of the queued streams behind the heads.
    tail_bytes: u64,
    /// Streams queued, heads included.
    queued: usize,
    completions: Vec<WrrCompletion<T>>,
    delivered_bytes: u64,
}

impl<T> WrrLink<T> {
    /// A link of the given constant capacity, bits/second: finite and
    /// positive. An infinite rate would drain every head by `∞ · 0 = NaN`
    /// in its first step, and a NaN head never finishes.
    pub fn new(rate_bps: f64) -> WrrLink<T> {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "WRR link rate_bps must be finite and positive, got {rate_bps}"
        );
        WrrLink {
            rate_bps,
            now: SimTime::ZERO,
            clients: Vec::new(),
            classes: Vec::new(),
            backlogged: 0,
            total_weight: 0.0,
            tail_bytes: 0,
            queued: 0,
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
                self.classes.push(WeightClass::new(weight));
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

    /// Queue a stream of `bytes` for `client` at `now`, carrying `tag`
    /// to its completion. Submissions must be globally time-ordered (the
    /// discrete-event loop guarantees this); within a client, streams
    /// drain strictly FIFO.
    pub fn submit(&mut self, client: u32, bytes: u64, now: SimTime, tag: T) {
        assert!(now >= self.now, "submissions must be time-ordered");
        self.advance(now);
        let stream = WrrStream {
            tag,
            bytes,
            submitted: now,
        };
        let q = &mut self.clients[client as usize];
        if q.queue.is_empty() {
            let class = &mut self.classes[q.class as usize];
            class.insert(client, stream.bits());
            self.backlogged += 1;
            self.total_weight += class.weight;
        } else {
            self.tail_bytes += bytes;
        }
        q.queue.push_back(stream);
        self.queued += 1;
    }

    /// Bits still queued (all clients, including in-flight heads).
    ///
    /// The ordered sum over every queued stream: clients ascending, each
    /// client's head then the streams behind it. Empty queues contribute
    /// no terms, so this adds exactly the f64 sequence a scan of every
    /// registered client would. [`WrrLink::backlog_bits_bounds`] brackets
    /// it at the cost of the heads alone.
    pub fn backlog_bits(&self) -> f64 {
        let mut heads: Vec<(u32, f64)> = self
            .classes
            .iter()
            .flat_map(|c| c.ids.iter().copied().zip(c.bits.iter().copied()))
            .collect();
        heads.sort_unstable_by_key(|&(client, _)| client);
        heads
            .into_iter()
            .flat_map(|(client, head)| {
                let tails = self.clients[client as usize].queue.iter().skip(1);
                std::iter::once(head).chain(tails.map(WrrStream::bits))
            })
            .sum()
    }

    /// An interval `(lo, hi)` sure to contain [`WrrLink::backlog_bits`],
    /// computed from one pass over the backlogged heads instead of every
    /// queued stream.
    ///
    /// The streams behind the heads hold an exact integer total `T`.
    /// Summing `n` terms in any order errs by at most `γ(n−1)·Σ|x|`, with
    /// `γ(k) = k·u/(1 − k·u)` and `u = 2⁻⁵³` (Higham, *Accuracy and
    /// Stability of Numerical Algorithms*, §4.2); that bounds both
    /// `backlog_bits` over all `n` queued streams and the head sum here
    /// over `m` heads. The centre `T + Σ heads` is therefore within
    /// about `(n + m)·u·(T + Σ|heads|)` of `backlog_bits`, and the half
    /// width `(n + m + 2)·ε·(T + Σ|heads|)`, with `ε = 2u`, is over twice
    /// that, which also covers the rounding of the centre and the ends.
    pub fn backlog_bits_bounds(&self) -> (f64, f64) {
        let (mut heads, mut magnitude) = (0.0f64, 0.0f64);
        for &bits in self.classes.iter().flat_map(|c| &c.bits) {
            heads += bits;
            magnitude += bits.abs();
        }
        let tails = self.tail_bytes as f64 * 8.0;
        let terms = (self.queued + self.backlogged + 2) as f64;
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
    /// full-registry formulation performs: the rate `rate_bps · w / Σw`,
    /// each head's time to finish `bits / rate` and the drained bits
    /// `rate · dt` are the same expressions whether computed per head or
    /// once per weight. The first finisher is each class's first (see
    /// [`WeightClass::first_finisher`]) with the least time, ties to the
    /// lowest client id, which is the head a scan of every client in id
    /// order keeps.
    fn advance(&mut self, to: SimTime) {
        while self.now < to && self.backlogged > 0 {
            let total_weight = self.total_weight;
            let mut best = (f64::INFINITY, u32::MAX, 0usize, 0usize);
            for (k, class) in self.classes.iter_mut().enumerate() {
                class.rate = self.rate_bps * class.weight / total_weight;
                if class.ids.is_empty() {
                    continue;
                }
                let (pos, dt) = class.first_finisher();
                let client = class.ids[pos];
                if dt < best.0 || (dt == best.0 && client < best.1) {
                    best = (dt, client, k, pos);
                }
            }
            let (best_dt, _, best_class, best_pos) = best;
            let window = (to - self.now).as_secs_f64();
            let finishes = best_dt <= window;
            let step = if finishes { best_dt } else { window };
            for class in &mut self.classes {
                class.drain(step);
            }
            if finishes {
                let finish = self.now + SimDuration::from_secs_f64(best_dt);
                self.retire_head(best_class, best_pos, finish);
                self.now = finish;
            } else {
                self.now = to;
            }
        }
        self.now = self.now.max(to);
    }

    /// Complete the head at position `pos` of weight class `class` at
    /// `finish`: the stream behind it becomes the head with all its bits
    /// to send, in its finish-order place, or the client leaves the
    /// backlog.
    fn retire_head(&mut self, class: usize, pos: usize, finish: SimTime) {
        let c = &mut self.classes[class];
        let client = c.ids[pos];
        let q = &mut self.clients[client as usize];
        let done = q.queue.pop_front().expect("a backlogged client has a head");
        if let Some(next) = q.queue.front() {
            c.reseat(pos, next.bits());
            self.tail_bytes -= next.bytes;
        } else {
            c.ids.remove(pos);
            c.bits.remove(pos);
            self.backlogged -= 1;
            self.total_weight -= c.weight;
        }
        self.queued -= 1;
        self.delivered_bytes += done.bytes;
        self.completions.push(WrrCompletion {
            client,
            tag: done.tag,
            submitted: done.submitted,
            finished: finish,
            bytes: done.bytes,
        });
    }

    /// Drive the link until `to`, then drain completions so far, ordered
    /// by finish time (ties by client id, deterministic).
    pub fn run_until(&mut self, to: SimTime) -> Vec<WrrCompletion<T>> {
        self.advance(to);
        let mut out = std::mem::take(&mut self.completions);
        out.sort_by_key(|c| (c.finished, c.client));
        out
    }

    /// Run until every queued stream completes; returns all outstanding
    /// completions.
    pub fn drain(&mut self) -> Vec<WrrCompletion<T>> {
        while self.backlogged > 0 {
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
        link.submit(a, MBIT, SimTime::ZERO, "first");
        link.submit(a, MBIT, SimTime::ZERO, "second");
        let done = link.drain();
        assert_eq!(done[0].tag, "first");
        assert_eq!(done[1].tag, "second");
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
            link.submit(a, MBIT, SimTime::ZERO, ());
        }
        link.submit(b, MBIT, SimTime::ZERO, ());
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
        link.submit(heavy, MBIT, SimTime::ZERO, ());
        link.submit(light, MBIT, SimTime::ZERO, ());
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
                link.submit(c, MBIT, SimTime::ZERO, ());
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
        link.submit(a, MBIT, SimTime::ZERO, ());
        link.submit(a, MBIT, SimTime::ZERO, ());
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
        link.submit(a, MBIT, SimTime::ZERO, ());
        link.submit(a, 100 * MBIT, SimTime::ZERO, ());
        let early = link.run_until(SimTime::from_millis(300));
        assert_eq!(early.len(), 1);
        assert_eq!(link.queued(a), 1);
    }

    #[test]
    fn tags_survive_a_partial_run_and_the_final_drain() {
        // A's head finishes inside the window; B's head is cut mid-way
        // by it and A's second stream never starts. Each completion,
        // early or drained, hands back exactly the tag it went in with.
        let mut link = WrrLink::new(8e6);
        let a = link.add_client(1);
        let b = link.add_client(2);
        link.submit(a, MBIT, SimTime::ZERO, (a, 10u64));
        link.submit(a, 2 * MBIT, SimTime::ZERO, (a, 11));
        link.submit(b, 4 * MBIT, SimTime::ZERO, (b, 20));
        let early = link.run_until(SimTime::from_millis(400));
        assert_eq!(early.len(), 1);
        assert_eq!((early[0].client, early[0].tag), (a, (a, 10)));
        assert_eq!(link.queued(a), 1);
        assert_eq!(link.queued(b), 1);
        let rest = link.drain();
        let tags: Vec<(u32, (u32, u64))> = rest.iter().map(|c| (c.client, c.tag)).collect();
        assert_eq!(tags, [(b, (b, 20)), (a, (a, 11))]);
        assert!(rest.iter().all(|c| c.submitted == SimTime::ZERO));
        assert_eq!(rest[1].bytes, 2 * MBIT);
    }

    #[test]
    #[should_panic]
    fn out_of_order_submission_rejected() {
        let mut link = WrrLink::new(1e6);
        let a = link.add_client(1);
        link.submit(a, 1000, SimTime::from_secs(5), ());
        link.submit(a, 1000, SimTime::from_secs(1), ());
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
                link.submit(id, w as u64 * MBIT, SimTime::ZERO, id);
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

    #[test]
    fn three_classes_finishing_together_match_the_full_scan() {
        // Weights 3, 1, 2 (twice each, interleaved) share 12 Mbps: each
        // client gets w Mbps, so heads of w Mbit all need exactly 1 s.
        // Six heads in three classes tie, and both steppers retire them
        // in the same order with the same finish bits.
        let weights = [3u32, 1, 2, 1, 3, 2];
        let mut fast = WrrLink::new(12e6);
        let mut slow = FullScanWrr::new(12e6);
        for &w in &weights {
            fast.add_client(w);
            slow.add_client(w);
        }
        for (id, &w) in weights.iter().enumerate() {
            let id = id as u32;
            fast.submit(id, w as u64 * MBIT, SimTime::ZERO, id);
            slow.submit(id, w as u64 * MBIT, SimTime::ZERO, id);
        }
        let end = SimTime::from_secs(1);
        let a = fast.run_until(end);
        let b = slow.run_until(end);
        assert_eq!(a, b);
        assert!(a[0].finished == end && a[0].client == 0, "{a:?}");
        let (rest_a, rest_b) = (fast.drain(), slow.drain());
        assert_eq!(rest_a, rest_b);
        let mut all = a;
        all.extend(rest_a);
        assert_eq!(all.len(), weights.len());
        assert!(all.iter().all(|c| c.finished == end), "{all:?}");
    }

    /// A class at `rate` holding the given `(client, bits)` heads, each
    /// inserted the way the link inserts a newly backlogged head.
    fn class_of(rate: f64, heads: &[(u32, f64)]) -> WeightClass {
        let mut class = WeightClass::new(1.0);
        class.rate = rate;
        for &(client, bits) in heads {
            class.insert(client, bits);
        }
        class
    }

    #[test]
    fn first_finisher_breaks_rounding_ties_to_the_lowest_id() {
        // Heads whose bits differ yet divide to the same time: the lower
        // id finishes first even though it holds more bits, which puts
        // it behind the other head in finish order. The last pair
        // underflows to a zero time, which the slack's absolute term
        // admits.
        let rate = 3e6;
        let near = |bits: f64| {
            let more = bits.next_up();
            (more / rate == bits / rate).then_some([more, bits])
        };
        let tied: Vec<[f64; 2]> = (1..50)
            .filter_map(|k| near(k as f64 * 1e5 + 0.5))
            .chain([[1e-318, 0.0]])
            .collect();
        assert!(tied.len() > 1, "no rounding tie among the probes");
        for bits in tied {
            let class = class_of(rate, &[(3, bits[0]), (7, bits[1])]);
            assert!(bits[0] > bits[1]);
            assert_eq!(class.ids, [7, 3], "{bits:?}");
            assert_eq!(class.first_finisher(), (1, bits[1] / rate), "{bits:?}");
        }
        // One whole bit apart is never a tie: the least bits finish first.
        let class = class_of(rate, &[(3, 1e6 + 1.0), (7, 1e6)]);
        assert_eq!(class.ids[class.first_finisher().0], 7);
    }

    #[test]
    fn heads_that_round_equal_after_a_drain_finish_lowest_id_first() {
        // 1.5 and the next float up, each less half an ulp, land on the
        // midpoints either side of 1.5, and both round to the even 1.5.
        // The higher id held fewer bits, so it sits first and the walk
        // must still pick the lower id.
        let (lo, hi) = (1.5, 1.5f64.next_up());
        let mut class = class_of(1.0, &[(2, hi), (5, lo)]);
        assert_eq!(class.ids, [5, 2]);
        class.drain(f64::EPSILON / 2.0);
        assert_eq!(class.bits, [1.5, 1.5], "the drain collapses the pair");
        assert_eq!(class.first_finisher(), (1, 1.5));
        // Bits that stay apart are never merged: the front head finishes
        // first whatever its id.
        let class = class_of(1.0, &[(2, 3.0), (5, 1.5)]);
        assert_eq!(class.ids[class.first_finisher().0], 5);
    }

    /// Run `schedule` (`(at_ms, client, bytes)`, time-ordered) on both
    /// steppers at 3 Mbps over three weight-1 clients, returning the
    /// dense link's class order after `run_until(check)` and asserting
    /// every completion bit-equal to the full scan's.
    fn head_order_after(schedule: &[(u64, u32, u64)], check: SimTime) -> Vec<u32> {
        let mut fast = WrrLink::new(3e6);
        let mut slow = FullScanWrr::new(3e6);
        for _ in 0..3 {
            fast.add_client(1);
            slow.add_client(1);
        }
        let mut order = None;
        for (tag, &(at_ms, client, bytes)) in schedule.iter().enumerate() {
            let now = SimTime::from_millis(at_ms);
            if order.is_none() && now > check {
                assert_eq!(fast.run_until(check), slow.run_until(check));
                order = Some(fast.classes[0].ids.clone());
            }
            fast.submit(client, bytes, now, tag as u32);
            slow.submit(client, bytes, now, tag as u32);
        }
        let order = order.unwrap_or_else(|| {
            assert_eq!(fast.run_until(check), slow.run_until(check));
            fast.classes[0].ids.clone()
        });
        assert!(fast.classes[0].bits.windows(2).all(|w| w[0] <= w[1]));
        let done = fast.drain();
        let end = fast.now;
        slow.advance(end);
        assert_eq!(done, slow.run_until(end));
        order
    }

    #[test]
    fn a_successor_reenters_in_finish_order() {
        // Each client gets 1 Mbps. At 1 s client 2's 1 Mbit head is done
        // and clients 1 and 0 have 1 and 2 Mbit left. Its 0.1 Mbit
        // successor holds fewer bits than either and goes ahead of both,
        // though its id is the highest; at 1.1 s its 5 Mbit successor
        // goes behind both.
        let schedule = [
            (0, 0, 3 * MBIT),
            (0, 1, 2 * MBIT),
            (0, 2, MBIT),
            (0, 2, MBIT / 10),
            (0, 2, 5 * MBIT),
        ];
        assert_eq!(
            head_order_after(&schedule, SimTime::from_secs(1)),
            [2, 1, 0]
        );
        assert_eq!(
            head_order_after(&schedule, SimTime::from_millis(1100)),
            [1, 0, 2]
        );
    }

    #[test]
    fn a_newly_backlogged_client_lands_between_heads() {
        // Clients 0 and 1 share 3 Mbps; at 0.5 s client 1 has 0.25 Mbit
        // left and client 0 2.25 Mbit. Client 2's 1 Mbit lands between.
        let order = head_order_after(
            &[(0, 0, 3 * MBIT), (0, 1, MBIT), (500, 2, MBIT)],
            SimTime::from_millis(500),
        );
        assert_eq!(order, [1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "rate_bps must be finite and positive")]
    fn infinite_rate_is_rejected() {
        WrrLink::<()>::new(f64::INFINITY);
    }

    /// A stream in the full-scan oracle: every queued stream carries its
    /// own remaining bits.
    struct OracleStream {
        tag: u32,
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
    /// non-empty queues, reaches each head through its queue and divides
    /// every head's bits by its rate.
    struct FullScanWrr {
        rate_bps: f64,
        now: SimTime,
        clients: Vec<OracleClient>,
        completions: Vec<WrrCompletion<u32>>,
    }

    impl FullScanWrr {
        fn new(rate_bps: f64) -> FullScanWrr {
            FullScanWrr {
                rate_bps,
                now: SimTime::ZERO,
                clients: Vec::new(),
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

        fn submit(&mut self, client: u32, bytes: u64, now: SimTime, tag: u32) {
            self.advance(now);
            self.clients[client as usize].queue.push_back(OracleStream {
                tag,
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
                        tag: done.tag,
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

        fn run_until(&mut self, to: SimTime) -> Vec<WrrCompletion<u32>> {
            self.advance(to);
            let mut out = std::mem::take(&mut self.completions);
            out.sort_by_key(|c| (c.finished, c.client));
            out
        }

        fn drain(&mut self) -> Vec<WrrCompletion<u32>> {
            while self.clients.iter().any(|c| !c.queue.is_empty()) {
                let t = self.now + SimDuration::from_secs(3600);
                self.advance(t);
            }
            self.run_until(self.now)
        }
    }

    /// The dense link's ordered backlog sum equals the full scan's
    /// (compared as f64: the oracle's empty sum is -0.0), and the
    /// backlog interval contains it.
    fn check_backlog(
        fast: &WrrLink<u32>,
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
        /// in the same order, with the same tags and the exact same
        /// finish time bits. At every checkpoint and after every
        /// submission the backlog agrees too (see `check_backlog`).
        ///
        /// Weights span eight classes. A burst submits `weight × unit`
        /// bytes to every client at one instant, so every client whose
        /// queue was empty finishes that stream at the same instant
        /// (up to rounding) whatever its class: three or more classes
        /// tie, which exercises the per-class first finisher's rounding
        /// tie-break and the cross-class lowest-id order.
        #[test]
        fn active_list_matches_full_scan_bit_exact(
            weights in proptest::collection::vec(1u32..9, 3..12),
            rate in 0usize..4,
            ops in proptest::collection::vec(
                (0u32..12, 1u64..600_000, 0u64..2_000, 0u8..4), 1..80),
        ) {
            // Link rates whose per-class shares divide evenly or not.
            let rate = [8e6, 12e6, 2.52e6, 7.3e6][rate];
            let mut fast = WrrLink::new(rate);
            let mut slow = FullScanWrr::new(rate);
            for &w in &weights {
                fast.add_client(w);
                slow.add_client(w);
            }
            let mut t_ms = 0u64;
            let mut tag = 0u32;
            for &(client, bytes, gap_ms, kind) in &ops {
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
                let burst: Vec<(u32, u64)> = if kind == 0 {
                    let unit = bytes / 8 + 1;
                    (0..weights.len() as u32)
                        .map(|c| (c, weights[c as usize] as u64 * unit))
                        .collect()
                } else {
                    vec![(client % weights.len() as u32, bytes)]
                };
                for (c, b) in burst {
                    fast.submit(c, b, now, tag);
                    slow.submit(c, b, now, tag);
                    tag += 1;
                    check_backlog(&fast, &slow)?;
                }
            }
            let a = fast.drain();
            let end = fast.now;
            slow.advance(end);
            let b = slow.run_until(end);
            proptest::prop_assert_eq!(a, b);
        }
    }
}
