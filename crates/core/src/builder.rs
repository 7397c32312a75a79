//! The high-level session builder: one fluent entry point that wires a
//! video, a viewer, a network and the Sperke algorithms into a runnable
//! streaming experiment.

use sperke_geo::VisibilityCache;
use sperke_hmp::{
    generate_ensemble, AttentionModel, Behavior, Forecaster, FusedForecaster, HeadTrace, Heatmap,
    OracleForecaster, TraceGenerator, ViewingContext,
};
use sperke_net::{
    BandwidthTrace, ContentAware, EarliestCompletion, FaultScript, LossChannel, MinRtt,
    MultipathScheduler, PathModel, PathQueue, SinglePath,
};
use sperke_player::{run_session, PlannerKind, PlayerConfig, SessionResult};
use sperke_sim::trace::{Trace, TraceLevel, TraceSink};
use sperke_sim::{SimDuration, SimRng};
use sperke_video::{Ladder, VideoModel, VideoModelBuilder};
use sperke_vra::{Abr, AbrPolicyKind, BufferBased, Mpc, RateBased, SperkeConfig};

/// Which inner ABR drives the super-chunk quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbrChoice {
    /// FESTIVE-style throughput-based (§3.1.2 \[29\]).
    RateBased,
    /// BBA-style buffer-based (§3.1.2 \[28\]).
    BufferBased,
    /// MPC-style control-theoretic (§3.1.2 \[44\]).
    Mpc,
}

/// Which multipath scheduler moves chunks (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerChoice {
    /// Only the first path is used.
    SinglePath,
    /// MPTCP's content-agnostic minRTT.
    MinRtt,
    /// Content-agnostic earliest-completion splitting.
    EarliestCompletion,
    /// The paper's priority-driven content-aware scheduler.
    ContentAware,
}

/// A declarative description of one streaming experiment.
#[derive(Debug, Clone)]
pub struct Sperke {
    seed: u64,
    duration: SimDuration,
    ladder: Ladder,
    grid: (u16, u16),
    attention: AttentionModel,
    behavior: Behavior,
    context: ViewingContext,
    paths: Vec<PathModel>,
    scheduler: SchedulerChoice,
    abr: AbrChoice,
    player: PlayerConfig,
    crowd_users: usize,
    use_speed_bound: bool,
    svc_overhead: f64,
    chunk_duration: SimDuration,
    oracle_hmp: bool,
    trace: TraceLevel,
    faults: FaultScript,
    bbr: bool,
    loss_channel: LossChannel,
}

/// The outcome of a traced experiment: the session result plus the
/// captured [`Trace`] (empty when tracing was off).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The streaming session's QoE and per-chunk records.
    pub session: SessionResult,
    /// The captured trace (events + metrics registry).
    pub trace: Trace,
}

impl RunReport {
    /// Stable FNV-1a fingerprint of the trace's JSONL bytes. Identical
    /// seeds and trace levels yield identical digests across runs.
    pub fn trace_digest(&self) -> u64 {
        self.trace.digest()
    }

    /// The trace as newline-delimited JSON, one event per line.
    pub fn to_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }
}

impl Sperke {
    /// Start from sensible defaults: a 60 s generic video on a 4×6 grid,
    /// one focused viewer, a single 25 Mbps WiFi path, the full Sperke
    /// planner with a rate-based inner ABR.
    pub fn builder(seed: u64) -> Sperke {
        Sperke {
            seed,
            duration: SimDuration::from_secs(60),
            ladder: Ladder::vod_default(),
            grid: (4, 6),
            attention: AttentionModel::generic(seed),
            behavior: Behavior::Focused,
            context: ViewingContext::default(),
            paths: vec![PathModel::wifi()],
            scheduler: SchedulerChoice::SinglePath,
            abr: AbrChoice::RateBased,
            player: PlayerConfig::default(),
            crowd_users: 0,
            use_speed_bound: false,
            svc_overhead: 0.10,
            chunk_duration: SimDuration::from_secs(1),
            oracle_hmp: false,
            trace: TraceLevel::Off,
            faults: FaultScript::none(),
            bbr: false,
            loss_channel: LossChannel::Declared,
        }
    }

    /// Enable BBR-style measured-capacity probing on every path: a
    /// windowed max-filter over delivery-rate samples feeds the
    /// schedulers' completion estimates instead of the declared trace.
    /// Off by default — declared capacity keeps golden traces stable.
    pub fn with_bbr(mut self) -> Self {
        self.bbr = true;
        self
    }

    /// Replace the declared i.i.d. loss rate with a [`LossChannel`] —
    /// typically [`LossChannel::bursty_default`]'s Gilbert–Elliott chain.
    /// The chain draws from a split RNG stream, so
    /// [`LossChannel::Declared`] (the default) is byte-identical to
    /// builds that predate this knob.
    pub fn with_loss_channel(mut self, channel: LossChannel) -> Self {
        self.loss_channel = channel;
        self
    }

    /// Attach a fault-injection script: scripted or seeded-stochastic
    /// outages and degradations applied to the network paths. The script
    /// is compiled per path when the experiment runs; the same seed and
    /// script always reproduce the same failures.
    pub fn with_faults(mut self, faults: FaultScript) -> Self {
        self.faults = faults;
        self
    }

    /// Enable resilient transfers: deadline-based timeouts with bounded
    /// retry, exponential backoff and cross-path failover
    /// ([`sperke_net::MultipathSession::submit_resilient`]). Without
    /// this, a transfer interrupted by an outage simply fails (the naive
    /// client of the §3.3 comparison).
    pub fn with_resilience(mut self) -> Self {
        self.player.resilient = true;
        self
    }

    /// Enable spatial fall-back rendering: when a chunk's tile is
    /// missing, the player re-displays the previous chunk's buffered
    /// tile (counted as `degraded_fraction`) instead of going blank.
    pub fn with_fallback(mut self) -> Self {
        self.player.fallback_enabled = true;
        self
    }

    /// Record a deterministic trace of the run at `level`; retrieve it
    /// through [`Sperke::run_report`]. Defaults to [`TraceLevel::Off`],
    /// which costs nothing.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Inert: no run holds a visibility memo, so the handle is dropped
    /// unread and sees no query. Kept only because `sperkebench/` still
    /// calls it; ROADMAP item 1 deletes it with that call.
    pub fn vis_cache(self, _cache: VisibilityCache) -> Self {
        self
    }

    /// Video duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Bitrate ladder.
    pub fn ladder(mut self, ladder: Ladder) -> Self {
        self.ladder = ladder;
        self
    }

    /// Tile grid dimensions.
    pub fn grid(mut self, rows: u16, cols: u16) -> Self {
        self.grid = (rows, cols);
        self
    }

    /// The video's attention structure (hotspots).
    pub fn attention(mut self, attention: AttentionModel) -> Self {
        self.attention = attention;
        self
    }

    /// The viewer's behaviour class.
    pub fn behavior(mut self, behavior: Behavior) -> Self {
        self.behavior = behavior;
        self
    }

    /// The viewing context (pose, mode, mobility).
    pub fn context(mut self, context: ViewingContext) -> Self {
        self.context = context;
        self
    }

    /// Replace the network paths.
    pub fn paths(mut self, paths: Vec<PathModel>) -> Self {
        assert!(!paths.is_empty(), "need at least one path");
        self.paths = paths;
        self
    }

    /// Convenience: a single constant-rate path.
    pub fn single_link(mut self, bps: f64) -> Self {
        self.paths = vec![PathModel::new(
            "link",
            BandwidthTrace::constant(bps),
            SimDuration::from_millis(20),
            0.0,
        )];
        self
    }

    /// Convenience: the WiFi + LTE dual-path setup of §3.3.
    pub fn wifi_plus_lte(mut self) -> Self {
        self.paths = vec![PathModel::wifi(), PathModel::lte()];
        self
    }

    /// Multipath scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerChoice) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Inner ABR algorithm.
    pub fn abr(mut self, abr: AbrChoice) -> Self {
        self.abr = abr;
        self
    }

    /// Player configuration (planner, upgrades, weights...).
    pub fn player(mut self, player: PlayerConfig) -> Self {
        self.player = player;
        self
    }

    /// Use the FoV-agnostic baseline planner.
    pub fn fov_agnostic(mut self) -> Self {
        self.player.planner = PlannerKind::FovAgnostic;
        self
    }

    /// Select the Sperke planner's viewport-adaptation policy from the
    /// rival suite ([`sperke_vra::policy`]), keeping the rest of the
    /// current planner tuning (the default tuning when the FoV-agnostic
    /// planner was selected). [`AbrPolicyKind::Sperke`] is the full
    /// three-part Sperke planner; every other kind plans each chunk with
    /// its window decide.
    pub fn abr_policy(mut self, kind: AbrPolicyKind) -> Self {
        let mut config = match &self.player.planner {
            PlannerKind::Sperke(config) => config.clone(),
            PlannerKind::FovAgnostic => SperkeConfig::default(),
        };
        config.policy = kind;
        self.player.planner = PlannerKind::Sperke(config);
        self
    }

    /// Set the chunk duration (the paper's "one or two seconds").
    pub fn chunk_duration(mut self, d: SimDuration) -> Self {
        assert!(!d.is_zero());
        self.chunk_duration = d;
        self
    }

    /// Set the SVC layering overhead of the video's scalable encoding.
    pub fn svc_overhead(mut self, overhead: f64) -> Self {
        assert!(overhead >= 0.0);
        self.svc_overhead = overhead;
        self
    }

    /// Replace prediction with a perfect-HMP oracle (§3.1.2 part one:
    /// "let us assume that the HMP is perfect") — the upper bound every
    /// real predictor is judged against.
    pub fn with_oracle_hmp(mut self) -> Self {
        self.oracle_hmp = true;
        self
    }

    /// Enable the §3.2 cross-user popularity prior, built from an
    /// ensemble of `users` synthetic viewers of the same video.
    pub fn with_crowd(mut self, users: usize) -> Self {
        self.crowd_users = users;
        self
    }

    /// Enable the §3.2 per-user speed bound, learned from the viewer's
    /// own (synthetic) viewing history.
    pub fn with_speed_bound(mut self) -> Self {
        self.use_speed_bound = true;
        self
    }

    /// Materialize the video model this experiment streams.
    pub fn build_video(&self) -> VideoModel {
        VideoModelBuilder::new(self.seed)
            .duration(self.duration)
            .ladder(self.ladder.clone())
            .grid(sperke_geo::TileGrid::new(self.grid.0, self.grid.1))
            .svc_overhead(self.svc_overhead)
            .chunk_duration(self.chunk_duration)
            .build()
    }

    /// Materialize the viewer's head trace.
    pub fn build_trace(&self) -> HeadTrace {
        TraceGenerator::new(self.attention.clone(), self.behavior, self.context).generate(
            self.duration + SimDuration::from_secs(5),
            self.seed ^ 0x7ACE,
        )
    }

    /// Materialize the HMP forecaster (with crowd prior / speed bound /
    /// context as configured) for `video`, the one this experiment
    /// streams.
    fn build_forecaster(&self, video: &VideoModel) -> FusedForecaster {
        let mut forecaster = FusedForecaster::motion_only();
        forecaster.context = self.context;
        if self.crowd_users > 0 {
            let traces = generate_ensemble(
                &self.attention,
                self.crowd_users,
                self.duration,
                self.seed ^ 0xC40D,
            );
            let map = Heatmap::build(
                *video.grid(),
                video.chunk_duration(),
                video.chunk_count(),
                &traces,
            );
            forecaster = forecaster.with_heatmap(map);
        }
        if self.use_speed_bound {
            // Learn the bound from a prior session of the same viewer.
            let past = TraceGenerator::new(self.attention.clone(), self.behavior, self.context)
                .generate(SimDuration::from_secs(60), self.seed ^ 0x5EED);
            let bound = past.speed_percentile(95.0).max(0.1);
            forecaster = forecaster.with_speed_bound(bound);
        }
        forecaster
    }

    /// Run the experiment.
    pub fn run(&self) -> SessionResult {
        self.run_report().session
    }

    /// Run the experiment and return the [`RunReport`] carrying both the
    /// session result and the trace captured at the level set by
    /// [`Sperke::with_trace`].
    pub fn run_report(&self) -> RunReport {
        self.run_over(&self.build_video(), &self.build_trace())
    }

    /// Run the experiment over borrowed content: `video` and `trace`
    /// must equal [`Sperke::build_video`] and [`Sperke::build_trace`],
    /// so that sessions sharing a seed and a behaviour can share one
    /// build of each (the shootout's content groups).
    pub(crate) fn run_over(&self, video: &VideoModel, trace: &HeadTrace) -> RunReport {
        let sink = TraceSink::with_level(self.trace);
        let mut player = self.player.clone();
        player.trace = sink.clone();
        let rng = SimRng::new(self.seed ^ 0xBEEF);
        let paths: Vec<PathQueue> = self
            .paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut q = PathQueue::new(p.clone(), rng.split(i as u64))
                    .with_faults(self.faults.compile_for(i))
                    .with_loss_channel(self.loss_channel);
                if self.bbr {
                    q = q.with_bbr();
                }
                q
            })
            .collect();

        let scheduler: Box<dyn MultipathScheduler> = match self.scheduler {
            SchedulerChoice::SinglePath => Box::new(SinglePath(0)),
            SchedulerChoice::MinRtt => Box::new(MinRtt),
            SchedulerChoice::EarliestCompletion => Box::new(EarliestCompletion),
            SchedulerChoice::ContentAware => Box::new(ContentAware),
        };
        let abr: Box<dyn Abr> = match self.abr {
            AbrChoice::RateBased => Box::new(RateBased::default()),
            AbrChoice::BufferBased => Box::new(BufferBased::default()),
            AbrChoice::Mpc => Box::new(Mpc::default()),
        };
        let forecaster: Box<dyn Forecaster> = if self.oracle_hmp {
            Box::new(OracleForecaster::new(trace.clone()))
        } else {
            Box::new(self.build_forecaster(video))
        };
        let session = run_session(
            video,
            trace,
            paths,
            scheduler,
            abr,
            forecaster.as_ref(),
            &player,
        );
        // `player` carries the last live clone of the sink; drop it so
        // `into_trace` takes the zero-copy move instead of a snapshot.
        drop(player);
        RunReport {
            session,
            trace: sink.into_trace(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_runs_cleanly() {
        let result = Sperke::builder(7)
            .duration(SimDuration::from_secs(10))
            .run();
        assert_eq!(result.qoe.chunks, 10);
        assert!(result.qoe.bytes_fetched > 0);
    }

    #[test]
    fn builder_is_deterministic() {
        let mk = || {
            Sperke::builder(3)
                .duration(SimDuration::from_secs(8))
                .single_link(15e6)
                .run()
        };
        assert_eq!(mk().qoe, mk().qoe);
    }

    #[test]
    fn fov_agnostic_fetches_more() {
        let base = Sperke::builder(5)
            .duration(SimDuration::from_secs(10))
            .single_link(40e6);
        let guided = base.clone().run();
        let agnostic = base.fov_agnostic().run();
        assert!(agnostic.qoe.bytes_fetched > guided.qoe.bytes_fetched);
    }

    #[test]
    fn multipath_uses_both_paths() {
        let r = Sperke::builder(9)
            .duration(SimDuration::from_secs(10))
            .wifi_plus_lte()
            .scheduler(SchedulerChoice::ContentAware)
            .run();
        assert_eq!(r.path_bytes.len(), 2);
        assert!(r.path_bytes[0] > 0);
        assert_eq!(r.scheduler, "content-aware");
    }

    #[test]
    fn all_abr_choices_run() {
        for abr in [AbrChoice::RateBased, AbrChoice::BufferBased, AbrChoice::Mpc] {
            let r = Sperke::builder(11)
                .duration(SimDuration::from_secs(6))
                .abr(abr)
                .run();
            assert_eq!(r.qoe.chunks, 6);
        }
    }

    #[test]
    fn oracle_hmp_is_an_upper_bound() {
        let base = Sperke::builder(19)
            .duration(SimDuration::from_secs(15))
            .behavior(Behavior::Explorer)
            .single_link(25e6);
        let real = base.clone().run();
        let oracle = base.with_oracle_hmp().run();
        assert!(
            oracle.qoe.mean_blank_fraction <= real.qoe.mean_blank_fraction + 1e-9,
            "oracle blanks ({:.3}) must not exceed real HMP ({:.3})",
            oracle.qoe.mean_blank_fraction,
            real.qoe.mean_blank_fraction
        );
        assert!(
            oracle.qoe.mean_blank_fraction < 0.02,
            "perfect HMP ~never blanks"
        );
    }

    #[test]
    fn run_report_traces_deterministically() {
        let mk = || {
            Sperke::builder(21)
                .duration(SimDuration::from_secs(6))
                .wifi_plus_lte()
                .scheduler(SchedulerChoice::ContentAware)
                .with_trace(TraceLevel::Verbose)
                .run_report()
        };
        let a = mk();
        let b = mk();
        assert!(!a.trace.is_empty(), "tracing captures events");
        assert_eq!(
            a.to_jsonl(),
            b.to_jsonl(),
            "same seed, byte-identical JSONL"
        );
        assert_eq!(a.trace_digest(), b.trace_digest());
        assert_eq!(a.session.qoe, b.session.qoe);
    }

    #[test]
    fn trace_agrees_with_the_session_report() {
        use sperke_sim::trace::TraceEvent;
        let twenty_secs = |b: Sperke| b.duration(SimDuration::from_secs(20));
        let sessions = [
            ("default", twenty_secs(Sperke::builder(77))),
            ("agnostic", twenty_secs(Sperke::builder(77)).fov_agnostic()),
            (
                "stalling",
                twenty_secs(Sperke::builder(5))
                    .single_link(3e6)
                    .fov_agnostic(),
            ),
            (
                "upgrading",
                twenty_secs(Sperke::builder(9))
                    .wifi_plus_lte()
                    .scheduler(SchedulerChoice::ContentAware),
            ),
            (
                "skipping",
                twenty_secs(Sperke::builder(5))
                    .single_link(1e6)
                    .player(PlayerConfig {
                        realtime: true,
                        ..Default::default()
                    }),
            ),
        ];
        let mut totals = [0u64; 3];
        for (name, b) in sessions {
            let r = b.with_trace(TraceLevel::Decisions).run_report();
            let count = |keep: fn(&TraceEvent) -> bool| {
                r.trace.events().iter().filter(|e| keep(e)).count() as u64
            };
            let decisions = count(|e| matches!(e, TraceEvent::AbrDecision { .. }));
            let stalls = count(|e| matches!(e, TraceEvent::StallStarted { .. }));
            let upgrades = count(|e| matches!(e, TraceEvent::UpgradeGranted { .. }));
            let full_blanks =
                count(|e| matches!(e, TraceEvent::BlankFrame { fraction, .. } if *fraction == 1.0));
            let skips = r.trace.metrics().counter_value("player.skips");
            let q = &r.session.qoe;
            assert_eq!(decisions, q.chunks as u64, "{name}: one decision per chunk");
            assert_eq!(stalls, q.stall_count as u64, "{name}: stalls");
            assert_eq!(
                upgrades, r.session.upgrades_applied as u64,
                "{name}: upgrades"
            );
            assert_eq!(full_blanks, skips.unwrap_or(0), "{name}: skips");
            assert_eq!(r.trace.dropped(), 0, "{name}: the ring dropped events");
            totals[0] += stalls;
            totals[1] += upgrades;
            totals[2] += full_blanks;
        }
        assert!(
            totals.iter().all(|&n| n > 0),
            "the panel must stall, upgrade and skip: {totals:?}"
        );
    }

    #[test]
    fn untraced_run_report_is_empty_and_cheap() {
        let r = Sperke::builder(21)
            .duration(SimDuration::from_secs(4))
            .run_report();
        assert!(r.trace.is_empty());
        assert_eq!(r.trace.dropped(), 0);
        // A disabled trace still produces a stable digest (of nothing).
        assert_eq!(r.trace_digest(), r.trace_digest());
    }

    #[test]
    fn trace_level_gates_event_volume() {
        let at = |level: TraceLevel| {
            Sperke::builder(33)
                .duration(SimDuration::from_secs(6))
                .with_trace(level)
                .run_report()
                .trace
                .len()
        };
        let events = at(TraceLevel::Events);
        let decisions = at(TraceLevel::Decisions);
        assert!(
            decisions > events,
            "higher levels record strictly more ({events} vs {decisions})"
        );
    }

    #[test]
    fn fault_script_degrades_the_session() {
        use sperke_sim::SimTime;
        let base = Sperke::builder(17)
            .duration(SimDuration::from_secs(12))
            .single_link(25e6);
        let clean = base.clone().run();
        let faulted = base
            .with_faults(FaultScript::none().link_down(
                0,
                SimTime::from_secs(4),
                SimTime::from_secs(8),
            ))
            .run();
        assert!(
            faulted.qoe.mean_blank_fraction > clean.qoe.mean_blank_fraction,
            "an outage must cost screen area: faulted {} vs clean {}",
            faulted.qoe.mean_blank_fraction,
            clean.qoe.mean_blank_fraction
        );
        assert!(faulted.qoe.score < clean.qoe.score);
    }

    #[test]
    fn resilience_and_fallback_soften_an_outage() {
        use sperke_sim::SimTime;
        let faulty = || {
            Sperke::builder(23)
                .duration(SimDuration::from_secs(12))
                .paths(vec![
                    PathModel::new(
                        "wifi",
                        BandwidthTrace::constant(40e6),
                        SimDuration::from_millis(15),
                        0.0,
                    ),
                    PathModel::new(
                        "lte",
                        BandwidthTrace::constant(10e6),
                        SimDuration::from_millis(60),
                        0.0,
                    ),
                ])
                .scheduler(SchedulerChoice::ContentAware)
                .with_faults(FaultScript::none().link_down(
                    0,
                    SimTime::from_secs(4),
                    SimTime::from_secs(9),
                ))
        };
        let naive = faulty().run();
        let hardened = faulty().with_resilience().with_fallback().run();
        assert!(
            hardened.qoe.mean_blank_fraction < naive.qoe.mean_blank_fraction,
            "failover + fall-back shrink the blank area: hardened {} vs naive {}",
            hardened.qoe.mean_blank_fraction,
            naive.qoe.mean_blank_fraction
        );
        assert!(hardened.qoe.score > naive.qoe.score);
    }

    #[test]
    fn abr_policy_keeps_the_planner_tuning() {
        let cfg = SperkeConfig {
            encoding: sperke_vra::EncodingPolicy::AvcOnly,
            ..Default::default()
        };
        let base = || Sperke::builder(19).duration(SimDuration::from_secs(8));
        let planner = |cfg| PlayerConfig {
            planner: PlannerKind::Sperke(cfg),
            ..Default::default()
        };
        let chained = base()
            .player(planner(cfg.clone()))
            .abr_policy(AbrPolicyKind::Knapsack)
            .run();
        let direct = base()
            .player(planner(SperkeConfig {
                policy: AbrPolicyKind::Knapsack,
                ..cfg
            }))
            .run();
        assert_eq!(chained.qoe, direct.qoe);
        assert_eq!(chained.qoe.score.to_bits(), direct.qoe.score.to_bits());
        let default_tuning = base().abr_policy(AbrPolicyKind::Knapsack).run();
        assert_ne!(
            chained.qoe.bytes_fetched, default_tuning.qoe.bytes_fetched,
            "the AVC-only tuning must survive abr_policy"
        );
    }

    #[test]
    fn sperke_policy_is_the_default_planner() {
        let traced = |b: Sperke| b.with_trace(TraceLevel::Verbose).run_report();
        let default = traced(Sperke::builder(77));
        let sperke = traced(Sperke::builder(77).abr_policy(AbrPolicyKind::Sperke));
        assert_eq!(default.to_jsonl(), sperke.to_jsonl());
        assert_eq!(default.trace_digest(), sperke.trace_digest());
        assert_eq!(default.session.qoe, sperke.session.qoe);
    }

    #[test]
    fn every_abr_policy_runs_through_the_builder() {
        for kind in AbrPolicyKind::all() {
            let r = Sperke::builder(7)
                .duration(SimDuration::from_secs(6))
                .abr_policy(kind)
                .run();
            assert_eq!(r.qoe.chunks, 6, "{} died", kind.name());
        }
    }

    #[test]
    fn crowd_and_speed_bound_compose() {
        let r = Sperke::builder(13)
            .duration(SimDuration::from_secs(8))
            .with_crowd(6)
            .with_speed_bound()
            .run();
        assert_eq!(r.qoe.chunks, 8);
    }
}
