//! Algorithm-level golden pins for [`tournament_quantile`], the robust
//! algorithm of Theorem 1.4, the sampling baselines and the exact algorithm
//! of Theorem 1.1: every scenario of `support/tournament_goldens.rs` must
//! reproduce its pinned outputs fingerprint and metrics line (and, for the
//! robust driver, its outcome line; for the exact algorithm, its answer's
//! bits, iterations and rounds) exactly.
//!
//! The engine-level pins (`gossip-net/tests/golden.rs`) fix each primitive's
//! trajectory; these fix what the drivers compose from them — dense
//! iterations, the δ-truncated final iterations of both tournament phases,
//! the final votes, and the same steps under loss, the failure model and
//! churn — so a restructuring of how the drivers call the engine cannot
//! change an answer unnoticed. Every driver sizes its pool from
//! `par::num_threads()`, so CI's `GOSSIP_NUM_THREADS` matrix checks the pins
//! at 1/2/3/8 threads; the n = 20 000 scenarios run the parallel paths.
//!
//! Regenerate deliberately (with a CHANGES.md note) via
//! `cargo run -p quantile-gossip --example regen_tournament_goldens -- --write`.

#[path = "support/tournament_goldens.rs"]
mod support;

use quantile_gossip::{tournament_quantile, EngineConfig, FaultPlan, LossModel, TournamentConfig};
use support::Driver;

/// The pinned scenarios whose driver `pick` accepts.
fn scenarios(pick: impl Fn(Driver) -> bool) -> Vec<support::Scenario> {
    support::scenarios()
        .into_iter()
        .filter(|s| pick(s.driver))
        .collect()
}

fn tournament(d: Driver) -> bool {
    d == Driver::Tournament
}

/// Runs every scenario and checks each of its values against its pin.
fn check(scenarios: Vec<support::Scenario>) {
    for s in scenarios {
        for (suffix, value) in s.run() {
            assert_eq!(
                value,
                support::pinned(&format!("{}.{suffix}", s.name)),
                "{}: {suffix}",
                s.name
            );
        }
    }
}

#[test]
fn every_scenario_truncates_both_phases() {
    for s in scenarios(tournament) {
        assert!(s.has_delta_cuts(), "{}: no δ < 1 final step", s.name);
    }
}

#[test]
fn tournament_outputs_and_metrics_match_the_pins() {
    check(scenarios(tournament));
}

#[test]
fn robust_and_baseline_outputs_and_metrics_match_the_pins() {
    check(scenarios(|d| !tournament(d) && !d.is_exact()));
}

#[test]
fn exact_outcomes_and_metrics_match_the_pins() {
    check(scenarios(Driver::is_exact));
}

#[test]
fn heavy_message_loss_degrades_instead_of_panicking() {
    // Under heavy loss some sampling round can deliver to nobody at all; the
    // tournaments must still see one sample slot per round (undelivered ones
    // empty) and fall back to their failure branches.
    let values: Vec<u64> = (0..64).collect();
    for (n, loss) in [(64usize, 0.9), (1_000, 0.99)] {
        let values: Vec<u64> = values.iter().copied().cycle().take(n).collect();
        for seed in 0..8 {
            let config = EngineConfig::with_seed(seed)
                .fault(FaultPlan::none().with_loss(LossModel::uniform(loss).unwrap()));
            let out = tournament_quantile(&values, 0.5, 0.1, &TournamentConfig::default(), config)
                .expect("valid parameters");
            assert_eq!(out.outputs.len(), n);
            assert!(out.metrics.messages_dropped > 0);
        }
    }
}
