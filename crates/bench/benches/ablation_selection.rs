//! Ablation — selection policy: the paper's banded FoV/OOS split
//! (§3.1.2) vs the stochastic expected-utility knapsack (§3.2), both
//! inside the full streaming loop.

use sperke_bench::{cols, header, note, row};
use sperke_core::Sperke;
use sperke_hmp::Behavior;
use sperke_player::{PlannerKind, PlayerConfig};
use sperke_sim::SimDuration;
use sperke_vra::{AbrPolicyKind, SperkeConfig};

fn run(
    policy: AbrPolicyKind,
    behavior: Behavior,
    bw: f64,
    crowd: usize,
) -> sperke_player::QoeReport {
    let player = PlayerConfig {
        planner: PlannerKind::Sperke(SperkeConfig {
            policy,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut b = Sperke::builder(47)
        .duration(SimDuration::from_secs(40))
        .behavior(behavior)
        .single_link(bw)
        .player(player);
    if crowd > 0 {
        b = b.with_crowd(crowd);
    }
    b.run().qoe
}

fn main() {
    header(
        "ablation",
        "banded FoV/OOS selection vs stochastic knapsack (§3.2)",
    );
    cols(
        "behavior / bw / policy",
        &["vpUtil", "blank%", "wasteFrac", "score"],
    );
    let policies = [
        ("banded", AbrPolicyKind::Sperke),
        ("knapsack", AbrPolicyKind::Knapsack),
    ];
    let mut pairs = Vec::new();
    for behavior in [Behavior::Focused, Behavior::Explorer] {
        for bw in [10e6, 25e6] {
            let mut utils = Vec::new();
            for (name, policy) in policies {
                let q = run(policy, behavior, bw, 8);
                row(
                    &format!("{behavior:?} / {:.0}Mbps / {name}", bw / 1e6),
                    &[
                        q.mean_viewport_utility,
                        q.mean_blank_fraction * 100.0,
                        q.waste_fraction(),
                        q.score,
                    ],
                );
                utils.push(q.mean_viewport_utility);
            }
            pairs.push((utils[0], utils[1]));
        }
    }
    note("the knapsack maximizes expected viewport utility and wins that metric");
    note("throughout; at tight budgets it concentrates bytes on probable tiles and");
    note("trades coverage (blank%), which the banded heuristic's uniform-quality");
    note("FoV protects — the linear p*U objective underweights blank-screen risk.");

    for (banded, knap) in &pairs {
        assert!(
            *knap >= *banded,
            "knapsack must win its own objective: {knap:.2} vs banded {banded:.2}"
        );
    }
    println!("shape check: PASS");
}
