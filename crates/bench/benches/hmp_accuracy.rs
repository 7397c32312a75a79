//! E5 — §3.2: head-movement prediction accuracy vs horizon, the gains
//! from the data-fusion features (popularity prior, per-user speed
//! bound, context pruning), and §3.2's engagement question: gaze
//! stability as the engagement signal that hints at sharp head movement.

use sperke_bench::{cols, header, note, row};
use sperke_geo::TileGrid;
use sperke_hmp::{
    estimate_engagement, evaluate_forecaster, evaluate_predictor, generate_ensemble, AlphaBeta,
    AttentionModel, Behavior, DampedRegression, DeadReckoning, Ensemble, FusedForecaster, Heatmap,
    LinearRegression, Persistence, Pose, Predictor, TraceGenerator, ViewingContext,
};
use sperke_sim::{SimDuration, SimTime};

fn main() {
    header("E5 / §3.2", "HMP accuracy vs horizon; data-fusion gains");
    let grid = TileGrid::new(4, 6);
    let att = AttentionModel::generic(6);
    let trace = TraceGenerator::new(att.clone(), Behavior::Focused, ViewingContext::default())
        .generate(SimDuration::from_secs(60), 14);

    // --- Point predictors across horizons.
    let horizons = [0.1f64, 0.25, 0.5, 1.0, 2.0];
    let predictors: Vec<(&str, Box<dyn Predictor>)> = vec![
        ("persistence", Box::new(Persistence)),
        ("dead-reckoning", Box::new(DeadReckoning)),
        ("linear-regression", Box::new(LinearRegression::default())),
        ("damped-regression", Box::new(DampedRegression::default())),
        ("alpha-beta", Box::new(AlphaBeta::default())),
        ("ensemble", Box::new(Ensemble::standard())),
    ];
    cols(
        "mean error (deg) @ horizon",
        &["0.1s", "0.25s", "0.5s", "1.0s", "2.0s"],
    );
    for (name, p) in &predictors {
        let errs: Vec<f64> = horizons
            .iter()
            .map(|&h| {
                evaluate_predictor(p.as_ref(), &trace, SimDuration::from_secs_f64(h), &grid)
                    .mean_error_deg
            })
            .collect();
        row(name, &errs);
    }
    note("paper premise: short horizons (<= 2 s) are predictable from motion alone;");
    note("error grows with horizon for every predictor.");

    // --- Fusion: top-6 tile hit rate at a 2 s horizon.
    println!();
    let crowd = generate_ensemble(&att, 12, SimDuration::from_secs(60), 77);
    let map = Heatmap::build(grid, SimDuration::from_secs(1), 60, &crowd);
    let wanderer = TraceGenerator::new(att.clone(), Behavior::Explorer, ViewingContext::default())
        .generate(SimDuration::from_secs(60), 15);
    let h2 = SimDuration::from_secs(2);
    let cd = SimDuration::from_secs(1);
    let motion = FusedForecaster::motion_only();
    let fused = FusedForecaster::motion_only()
        .with_heatmap(map)
        .with_speed_bound(wanderer.speed_percentile(95.0).max(0.1));
    let ctx_fused = fused.clone().with_context(
        ViewingContext {
            pose: Pose::Sitting,
            ..Default::default()
        },
        0.0,
    );
    cols("forecaster (explorer, 2s)", &["top6Hit", "pOnTarget"]);
    for (name, f) in [
        ("motion-only", &motion),
        ("+crowd+speed", &fused),
        ("+context", &ctx_fused),
    ] {
        let r = evaluate_forecaster(f, &wanderer, h2, &grid, cd, 6);
        row(name, &[r.topk_hit_rate, r.mean_prob_on_target]);
    }
    note("the metric that matters for fetching is the top-k hit rate: with a");
    note("6-tile budget, does the set we'd fetch contain the true gaze tile?");
    note("(blending dilutes raw probabilities but sharpens the ranking)");

    let m = evaluate_forecaster(&motion, &wanderer, h2, &grid, cd, 6);
    let f = evaluate_forecaster(&fused, &wanderer, h2, &grid, cd, 6);
    assert!(
        f.topk_hit_rate >= m.topk_hit_rate - 0.02,
        "fusion must not hurt the top-k hit rate ({} vs {})",
        f.topk_hit_rate,
        m.topk_hit_rate
    );

    // --- Engagement: mean score over the 2 s windows of 60 s traces,
    // one trace per seed and behaviour class.
    println!();
    cols("engagement (8 seeds)", &["min", "max"]);
    let mut classes = Vec::new();
    for behavior in Behavior::ALL {
        let means: Vec<f64> = (1..=8u64)
            .map(|seed| {
                let tr = TraceGenerator::new(att.clone(), behavior, ViewingContext::default())
                    .generate(SimDuration::from_secs(60), seed);
                let windows: Vec<f64> = (1..=30u64)
                    .map(|w| estimate_engagement(&tr.history(SimTime::from_secs(2 * w), 100)).0)
                    .collect();
                windows.iter().sum::<f64>() / windows.len() as f64
            })
            .collect();
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        row(&format!("{behavior:?}"), &[lo, hi]);
        classes.push((behavior, lo, hi));
    }
    note("engagement = gaze stability (low head speed, few yaw reversals); the");
    note("paper reads low engagement as a likely sharp head movement.");
    let explorer_max = classes
        .iter()
        .find(|c| c.0 == Behavior::Explorer)
        .map(|c| c.2)
        .expect("Explorer is a behaviour class");
    for &(behavior, lo, _) in classes.iter().filter(|c| c.0 != Behavior::Explorer) {
        assert!(
            explorer_max < lo,
            "every Explorer seed must score below every {behavior:?} seed \
             ({explorer_max:.3} vs {lo:.3})"
        );
    }
    println!("shape check: PASS");
}
