//! Algorithm-level golden pins for [`tournament_quantile`]: every scenario of
//! `support/tournament_goldens.rs` must reproduce its pinned outputs
//! fingerprint and metrics line exactly.
//!
//! The engine-level pins (`gossip-net/tests/golden.rs`) fix each primitive's
//! trajectory; these fix what the tournament drivers compose from them —
//! dense iterations, the δ-truncated final iterations of both phases, and
//! the final vote — so a restructuring of how the drivers call the engine
//! cannot change an answer unnoticed. `tournament_quantile` sizes its pool
//! from `par::num_threads()`, so CI's `GOSSIP_NUM_THREADS` matrix checks the
//! pins at 1/2/3/8 threads; the n = 20 000 scenarios run the parallel paths.
//!
//! Regenerate deliberately (with a CHANGES.md note) via
//! `cargo run -p quantile-gossip --example regen_tournament_goldens -- --write`.

#[path = "support/tournament_goldens.rs"]
mod support;

use quantile_gossip::{tournament_quantile, EngineConfig, FaultPlan, LossModel, TournamentConfig};

#[test]
fn every_scenario_truncates_both_phases() {
    for s in support::scenarios() {
        assert!(s.has_delta_cuts(), "{}: no δ < 1 final step", s.name);
    }
}

#[test]
fn tournament_outputs_and_metrics_match_the_pins() {
    for s in support::scenarios() {
        let (fp, metrics) = s.run();
        assert_eq!(
            metrics,
            support::pinned(&format!("{}.metrics", s.name)),
            "{}: metrics",
            s.name
        );
        assert_eq!(
            fp,
            support::pinned(&format!("{}.fp", s.name)),
            "{}: outputs",
            s.name
        );
    }
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
