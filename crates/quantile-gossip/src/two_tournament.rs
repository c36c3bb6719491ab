//! Phase I of the approximation algorithm: the 2-TOURNAMENT dynamic
//! (Algorithm 1 of the paper).
//!
//! Each iteration, every node samples two uniformly random values (two
//! rounds) and — with probability `δ` prescribed by the
//! [schedule](crate::schedule::TwoTournamentSchedule) — replaces its value
//! with the **minimum** (when shrinking the high side) or the **maximum**
//! (when shrinking the low side) of the two samples; otherwise it replaces
//! its value with the first sample alone.
//!
//! The effect (Lemmas 2.3–2.11) is that the mass of values above the
//! `(φ+ε)`-quantile is driven to `1/2 − ε ± ε/2` while the `[φ−ε, φ+ε]` band
//! keeps mass at least `7ε/4`, i.e. the target quantile band is *shifted to
//! the median* so that Phase II ([`crate::three_tournament`]) can finish the
//! job.
//!
//! Every iteration is one [`Engine::sample_step`]: both samples are pulled
//! from the iteration-start values and applied in a single engine pass. The
//! final schedule step applies the tournament only with probability
//! `δ < 1`; non-participants need just one fresh sample, so that step's
//! second round runs only at the participants — `O(δn)` gathers — with the
//! participation coin evaluated inside the pass on the dedicated
//! [`NodeRng::STREAM_PARTICIPATION`] stream (deterministic in the seed,
//! disjoint from round randomness).

use crate::schedule::{ShrinkSide, TwoTournamentSchedule};
use gossip_net::{Engine, EngineConfig, GossipError, Metrics, NodeRng, NodeValue, Result};

/// Result of running Phase I.
#[derive(Debug, Clone)]
pub struct TwoTournamentOutcome<V> {
    /// The transformed value at every node.
    pub values: Vec<V>,
    /// Iterations executed (`t` in the paper).
    pub iterations: usize,
    /// Rounds executed (two per iteration).
    pub rounds: u64,
    /// Communication metrics.
    pub metrics: Metrics,
}

/// Runs Algorithm 1 on `values` with the given schedule.
///
/// The schedule decides both the number of iterations and which extremum is
/// taken; see [`TwoTournamentSchedule::compute`].
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given.
pub fn run<V: NodeValue>(
    values: &[V],
    schedule: &TwoTournamentSchedule,
    engine_config: EngineConfig,
) -> Result<TwoTournamentOutcome<V>> {
    if values.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: values.len(),
        });
    }
    let mut engine = Engine::from_states(values.to_vec(), engine_config);
    let side = schedule.side;
    let seed = engine.seed();

    // Every iteration is one sample step: both samples are pulled from the
    // iteration-start values and applied in the same pass. The trajectory is
    // bit-identical to collecting the samples round by round and applying
    // them in a local step (pinned by the algorithm-level goldens of
    // `tests/tournament_golden.rs`).
    let update = move |_: usize, state: &mut V, _: &mut NodeRng, samples: &mut [Option<V>]| {
        *state = tournament(side, *state, samples);
    };
    for (iteration, step) in schedule.steps.iter().enumerate() {
        if step.delta >= 1.0 {
            // Full iteration: every node runs the tournament.
            engine.sample_step(2, 2, |_| true, |_, &v| v, update);
        } else {
            // Probabilistic final iteration: only a δ-fraction of nodes runs
            // the tournament, and only *they* pull the second sample, so the
            // second round costs O(δn) gathers instead of O(n). The
            // participation coin is drawn on the dedicated
            // `STREAM_PARTICIPATION` stream, keyed by the iteration index —
            // deterministic in the seed at any thread count, and disjoint
            // from the rounds' randomness.
            let delta = step.delta;
            let coin = NodeRng::key_prefix(seed, iteration as u64, NodeRng::STREAM_PARTICIPATION);
            engine.sample_step(
                2,
                1,
                |v| coin.node(v as u64).next_f64() < delta,
                |_, &v| v,
                update,
            );
        }
    }

    let metrics = engine.metrics();
    Ok(TwoTournamentOutcome {
        values: engine.into_states(),
        iterations: schedule.len(),
        rounds: metrics.rounds,
        metrics,
    })
}

/// One node's Algorithm 1 update from the samples it pulled this iteration
/// (`None` = a failed pull): the extremum of two samples, or — a
/// non-participant of a δ-truncated iteration, which pulls once — the single
/// fresh sample. With failed pulls the update degrades to a tournament
/// between the received sample and the current value, or keeps the value.
pub(crate) fn tournament<V: Ord + Copy>(side: ShrinkSide, state: V, samples: &[Option<V>]) -> V {
    match *samples {
        [Some(a), Some(b)] => extremum(side, a, b),
        [Some(a)] => a,
        [Some(a), None] | [None, Some(a)] => extremum(side, a, state),
        _ => state,
    }
}

pub(crate) fn extremum<V: Ord>(side: ShrinkSide, a: V, b: V) -> V {
    match side {
        ShrinkSide::High => a.min(b),
        ShrinkSide::Low => a.max(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of values in `values` strictly above the `q`-quantile of the
    /// *original* 0..n ramp (values are their own ranks in these tests).
    fn mass_above(values: &[u64], n: u64, q: f64) -> f64 {
        let cut = (q * n as f64) as u64;
        values.iter().filter(|&&v| v >= cut).count() as f64 / values.len() as f64
    }

    fn mass_in_band(values: &[u64], n: u64, lo: f64, hi: f64) -> f64 {
        let lo = (lo * n as f64) as u64;
        let hi = (hi * n as f64) as u64;
        values.iter().filter(|&&v| v >= lo && v <= hi).count() as f64 / values.len() as f64
    }

    #[test]
    fn rejects_tiny_networks() {
        let s = TwoTournamentSchedule::compute(0.5, 0.05).unwrap();
        assert!(run::<u64>(&[1], &s, EngineConfig::with_seed(0)).is_err());
    }

    #[test]
    fn consumes_two_rounds_per_iteration() {
        let n = 1 << 12;
        let values: Vec<u64> = (0..n).collect();
        let s = TwoTournamentSchedule::compute(0.25, 0.05).unwrap();
        let out = run(&values, &s, EngineConfig::with_seed(1)).unwrap();
        assert_eq!(out.rounds, 2 * s.len() as u64);
        assert_eq!(out.iterations, s.len());
        assert_eq!(out.values.len(), values.len());
    }

    #[test]
    fn shifts_low_quantile_band_towards_the_median() {
        // φ = 0.2, ε = 0.05: after Phase I (Lemma 2.6 / 2.10) the mass above
        // the (φ+ε)-quantile should be ≈ 1/2 − ε ± ε/2, and the mass of the
        // original [φ−ε, φ+ε] band should be ≥ 7ε/4.
        let n: u64 = 200_000;
        let values: Vec<u64> = (0..n).collect();
        let phi = 0.2;
        let eps = 0.05;
        let s = TwoTournamentSchedule::compute(phi, eps).unwrap();
        let out = run(&values, &s, EngineConfig::with_seed(7)).unwrap();
        let h = mass_above(&out.values, n, phi + eps);
        assert!(
            (h - (0.5 - eps)).abs() <= eps / 2.0 + 0.01,
            "high mass {h}, expected ≈ {}",
            0.5 - eps
        );
        let band = mass_in_band(&out.values, n, phi - eps, phi + eps);
        assert!(
            band >= 1.6 * eps,
            "band mass {band}, expected ≥ {}",
            1.75 * eps
        );
    }

    #[test]
    fn shifts_high_quantile_band_towards_the_median() {
        // Symmetric case: φ = 0.85 shrinks the low side with max-of-two.
        let n: u64 = 200_000;
        let values: Vec<u64> = (0..n).collect();
        let phi = 0.85;
        let eps = 0.05;
        let s = TwoTournamentSchedule::compute(phi, eps).unwrap();
        assert_eq!(s.side, ShrinkSide::Low);
        let out = run(&values, &s, EngineConfig::with_seed(9)).unwrap();
        // Mass strictly below the (φ−ε)-quantile should now be ≈ 1/2 − ε.
        let below = 1.0 - mass_above(&out.values, n, phi - eps);
        assert!(
            (below - (0.5 - eps)).abs() <= eps / 2.0 + 0.01,
            "low mass {below}"
        );
        let band = mass_in_band(&out.values, n, phi - eps, phi + eps);
        assert!(band >= 1.6 * eps, "band mass {band}");
    }

    #[test]
    fn median_target_keeps_values_centred() {
        // For φ = 0.5 the schedule is short and the median band must survive.
        let n: u64 = 100_000;
        let values: Vec<u64> = (0..n).collect();
        let eps = 0.05;
        let s = TwoTournamentSchedule::compute(0.5, eps).unwrap();
        let out = run(&values, &s, EngineConfig::with_seed(3)).unwrap();
        let band = mass_in_band(&out.values, n, 0.5 - eps, 0.5 + eps);
        assert!(band >= 1.6 * eps, "band mass {band}");
    }

    #[test]
    fn final_delta_iteration_samples_sparsely() {
        let n = 1 << 13;
        let values: Vec<u64> = (0..n).collect();
        let s = TwoTournamentSchedule::compute(0.25, 0.05).unwrap();
        let last = s.steps.last().unwrap();
        assert!(last.delta < 1.0, "schedule has no truncated final step");
        let out = run(&values, &s, EngineConfig::with_seed(6)).unwrap();
        // All rounds but the final sparse one are dense; the final round's
        // activity is the δ-fraction participant set (binomial, generous
        // bounds).
        let m = out.metrics;
        let dense_rounds = 2 * (s.len() as u64) - 1;
        let sparse_active = m.active_nodes_total - dense_rounds * n;
        let expected = last.delta * n as f64;
        assert!(
            (sparse_active as f64) > 0.5 * expected && (sparse_active as f64) < 1.5 * expected,
            "sparse round activity {sparse_active}, expected ≈ {expected}"
        );
        assert_eq!(m.max_active, n);
    }

    #[test]
    fn empty_schedule_is_identity() {
        let values: Vec<u64> = (0..100).collect();
        let s = TwoTournamentSchedule::compute(0.5, 0.12).unwrap();
        assert!(s.is_empty());
        let out = run(&values, &s, EngineConfig::with_seed(2)).unwrap();
        assert_eq!(out.values, values);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn outputs_are_always_members_of_the_input_multiset() {
        let values: Vec<u64> = (0..5000).map(|i| i * 31 % 9973).collect();
        let s = TwoTournamentSchedule::compute(0.3, 0.06).unwrap();
        let out = run(&values, &s, EngineConfig::with_seed(4)).unwrap();
        let set: std::collections::HashSet<u64> = values.iter().copied().collect();
        assert!(out.values.iter().all(|v| set.contains(v)));
    }
}
