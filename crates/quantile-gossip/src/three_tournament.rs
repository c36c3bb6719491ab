//! Phase II of the approximation algorithm: the 3-TOURNAMENT median dynamic
//! (Algorithm 2 of the paper).
//!
//! Each iteration, every node samples three uniformly random values (three
//! rounds) and replaces its value with their **median**. The mass of values
//! whose quantile lies more than ε away from 1/2 first shrinks geometrically
//! (for `O(log 1/ε)` iterations) and then doubly exponentially (for
//! `O(log log n)` iterations) until it falls below `2·n^{-1/3}` (Lemmas
//! 2.12–2.16). A final sampling step — every node samples `K = O(1)` values
//! and outputs their median — then returns an ε-approximate median at every
//! node w.h.p. (Lemma 2.17).
//!
//! Every iteration, and the final vote, is one [`Engine::sample_step`]: all
//! samples are pulled from the iteration-start values and applied in a
//! single engine pass. The last tournament iteration is δ-truncated
//! ([`ThreeTournamentSchedule::final_delta`], the analogue of Algorithm 1's
//! final-step probability): only a δ-fraction of nodes runs the three-sample
//! tournament, so that iteration's second and third rounds run only at the
//! participants, with the participation coin evaluated inside the pass on
//! [`NodeRng::STREAM_PARTICIPATION`].

use crate::schedule::ThreeTournamentSchedule;
use gossip_net::{Engine, EngineConfig, GossipError, Metrics, NodeRng, NodeValue, Result};

/// Configuration of the final `K`-sample vote of Algorithm 2 (line 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalVote {
    /// Number of values each node samples before outputting their median.
    /// The paper takes `K = O(1)`; 15 keeps the per-node failure probability
    /// `2·(4e/n^{2/3})^{K/2}` negligible for every n ≥ 1000 while costing only
    /// 15 rounds.
    pub samples: usize,
}

impl Default for FinalVote {
    fn default() -> Self {
        FinalVote { samples: 15 }
    }
}

/// Result of running Phase II.
#[derive(Debug, Clone)]
pub struct ThreeTournamentOutcome<V> {
    /// The per-node outputs of the final vote (an approximate median of the
    /// input multiset at every node).
    pub outputs: Vec<V>,
    /// The node values after the tournament iterations, before the final vote.
    pub converged_values: Vec<V>,
    /// Tournament iterations executed (`t` in the paper).
    pub iterations: usize,
    /// Total rounds executed (three per iteration plus the final vote).
    pub rounds: u64,
    /// Communication metrics.
    pub metrics: Metrics,
}

/// Runs Algorithm 2 on `values`: tournament iterations given by `schedule`,
/// then the final `K`-sample vote.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given, or
/// [`GossipError::InvalidParameter`] if `vote.samples == 0`.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn run<V: NodeValue>(
    values: &[V],
    schedule: &ThreeTournamentSchedule,
    vote: FinalVote,
    engine_config: EngineConfig,
) -> Result<ThreeTournamentOutcome<V>> {
    if values.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: values.len(),
        });
    }
    if vote.samples == 0 {
        return Err(GossipError::InvalidParameter {
            name: "vote.samples",
            reason: "the final vote needs at least one sample".to_string(),
        });
    }
    let mut engine = Engine::try_from_states(values.to_vec(), engine_config)?;
    let seed = engine.seed();

    // Each iteration is one sample step pulling its three samples from the
    // iteration-start values and applying them in the same pass. The
    // trajectory is bit-identical to collecting the samples round by round
    // and applying them in a local step.
    let update = |_: usize, state: &mut V, _: &mut NodeRng, samples: &mut [Option<V>]| {
        *state = tournament(*state, samples);
    };
    let iterations = schedule.len();
    for iteration in 0..iterations {
        let delta = if iteration + 1 == iterations {
            schedule.final_delta
        } else {
            1.0
        };
        if delta >= 1.0 {
            engine.sample_step(3, 3, |_| true, |_, &v| v, update);
        } else {
            // δ-truncated final iteration (ThreeTournamentSchedule::final_delta):
            // only a δ-fraction of nodes runs the three-sample tournament;
            // everyone else copies a single fresh sample, so the second and
            // third rounds run at the participants only — O(δn) gathers. The
            // participation coin is drawn on the dedicated
            // STREAM_PARTICIPATION stream so the trajectory is a pure
            // function of the seed.
            let coin = NodeRng::key_prefix(seed, iteration as u64, NodeRng::STREAM_PARTICIPATION);
            engine.sample_step(
                3,
                1,
                |v| coin.node(v as u64).next_f64() < delta,
                |_, &v| v,
                update,
            );
        }
    }
    let converged_values = engine.states().to_vec();

    // Line 8: sample K values and output their median — one more sample step,
    // whose per-node median selection runs inside the parallel pass. A node
    // that received nothing keeps its converged value.
    engine.sample_step(
        vote.samples,
        vote.samples,
        |_| true,
        |_, &v| v,
        |_, state, _, samples| {
            if let Some(median) = median_of_delivered(samples) {
                *state = median;
            }
        },
    );

    let metrics = engine.metrics();
    Ok(ThreeTournamentOutcome {
        outputs: engine.into_states(),
        converged_values,
        iterations: schedule.len(),
        rounds: metrics.rounds,
        metrics,
    })
}

/// One node's Algorithm 2 update from the samples it pulled this iteration
/// (`None` = a failed pull): the median of three samples, or — a
/// non-participant of the δ-truncated iteration, which pulls once — the
/// single fresh sample. With failed pulls the update degrades gracefully to
/// the samples actually received, padded with the current value.
pub(crate) fn tournament<V: Ord + Copy>(state: V, samples: &[Option<V>]) -> V {
    match *samples {
        [Some(a), Some(b), Some(c)] => median3(a, b, c),
        [Some(a)] => a,
        [Some(a), Some(b), None] | [Some(a), None, Some(b)] | [None, Some(a), Some(b)] => {
            median3(a, b, state)
        }
        [Some(a), None, None] | [None, Some(a), None] | [None, None, Some(a)] => {
            median3(a, state, state)
        }
        _ => state,
    }
}

/// The median of the delivered samples (the upper median for an even count),
/// or `None` when every pull failed. Reorders `samples`.
fn median_of_delivered<V: Ord + Copy>(samples: &mut [Option<V>]) -> Option<V> {
    // `None` orders before every `Some`, so the delivered values occupy the
    // top ranks and their median sits `failed` places further in.
    let failed = samples.iter().filter(|s| s.is_none()).count();
    if failed == samples.len() {
        return None;
    }
    let mid = failed + (samples.len() - failed) / 2;
    *samples.select_nth_unstable(mid).1
}

/// Median of three values: with `(lo, hi)` the ordered pair `(a, b)`, `lo`
/// if `c <= lo`, else `hi` if `c >= hi`, else `c`. Written as selects
/// (`Ord::min` keeps its first argument on a tie, `Ord::max` its second),
/// so it returns that same element without a data-dependent branch — the
/// inputs of a tournament are random, and mispredicted branches dominated
/// the lane-wide step loop.
pub(crate) fn median3<V: Ord + Copy>(a: V, b: V, c: V) -> V {
    let (lo, hi) = (a.min(b), a.max(b));
    let inner = hi.min(c);
    if c <= lo {
        lo
    } else {
        inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantile_of(v: u64, n: u64) -> f64 {
        v as f64 / n as f64
    }

    #[test]
    fn rejects_bad_inputs() {
        let s = ThreeTournamentSchedule::compute(0.05, 100).unwrap();
        assert!(run::<u64>(&[1], &s, FinalVote::default(), EngineConfig::with_seed(0)).is_err());
        assert!(run(
            &[1u64, 2],
            &s,
            FinalVote { samples: 0 },
            EngineConfig::with_seed(0)
        )
        .is_err());
    }

    #[test]
    fn round_count_matches_schedule_plus_vote() {
        let n: u64 = 1 << 12;
        let values: Vec<u64> = (0..n).collect();
        let s = ThreeTournamentSchedule::compute(0.05, n as usize).unwrap();
        let vote = FinalVote { samples: 9 };
        let out = run(&values, &s, vote, EngineConfig::with_seed(1)).unwrap();
        assert_eq!(out.rounds, 3 * s.len() as u64 + 9);
        assert_eq!(out.iterations, s.len());
    }

    #[test]
    fn every_node_outputs_an_approximate_median() {
        let n: u64 = 100_000;
        let values: Vec<u64> = (0..n).collect();
        let eps = 0.05;
        let s = ThreeTournamentSchedule::compute(eps, n as usize).unwrap();
        let out = run(
            &values,
            &s,
            FinalVote::default(),
            EngineConfig::with_seed(5),
        )
        .unwrap();
        for &o in &out.outputs {
            let q = quantile_of(o, n);
            assert!((q - 0.5).abs() <= eps, "output quantile {q}");
        }
    }

    #[test]
    fn tournament_concentrates_values_before_the_vote() {
        // Lemma 2.16: after the iterations, the mass outside [1/2−ε, 1/2+ε]
        // is at most ~2·n^{-1/3} each side. Check a generous 10·n^{-1/3}.
        let n: u64 = 50_000;
        let values: Vec<u64> = (0..n).collect();
        let eps = 0.05;
        let s = ThreeTournamentSchedule::compute(eps, n as usize).unwrap();
        let out = run(
            &values,
            &s,
            FinalVote::default(),
            EngineConfig::with_seed(6),
        )
        .unwrap();
        let outside = out
            .converged_values
            .iter()
            .filter(|&&v| {
                let q = quantile_of(v, n);
                !(0.5 - eps..=0.5 + eps).contains(&q)
            })
            .count() as f64
            / n as f64;
        let bound = 10.0 * (n as f64).powf(-1.0 / 3.0);
        assert!(outside <= bound, "outside mass {outside}, bound {bound}");
    }

    #[test]
    fn final_delta_iteration_samples_sparsely() {
        let n: u64 = 1 << 13;
        let values: Vec<u64> = (0..n).collect();
        let s = ThreeTournamentSchedule::compute(0.05, n as usize).unwrap();
        if s.final_delta >= 1.0 {
            return; // nothing truncated for these parameters
        }
        let vote = FinalVote { samples: 5 };
        let out = run(&values, &s, vote, EngineConfig::with_seed(11)).unwrap();
        // Dense rounds: 3 per full iteration, plus the final iteration's one
        // dense sampling round, plus the vote; the final iteration's two
        // sparse rounds carry only the δ-fraction participants.
        let m = out.metrics;
        let dense_rounds = 3 * (s.len() as u64 - 1) + 1 + 5;
        let sparse_active = m.active_nodes_total - dense_rounds * n;
        let expected = 2.0 * s.final_delta * n as f64;
        assert!(
            (sparse_active as f64) > 0.5 * expected && (sparse_active as f64) < 1.5 * expected,
            "sparse activity {sparse_active}, expected ≈ {expected}"
        );
    }

    #[test]
    fn works_on_skewed_inputs() {
        // Highly skewed multiset: 90% zeros, 10% spread. The median is 0 and
        // every node must output 0.
        let n = 20_000u64;
        let values: Vec<u64> = (0..n).map(|i| if i < n * 9 / 10 { 0 } else { i }).collect();
        let s = ThreeTournamentSchedule::compute(0.05, n as usize).unwrap();
        let out = run(
            &values,
            &s,
            FinalVote::default(),
            EngineConfig::with_seed(8),
        )
        .unwrap();
        let zeros = out.outputs.iter().filter(|&&o| o == 0).count();
        assert_eq!(zeros as u64, n);
    }

    #[test]
    fn median3_is_correct() {
        for perm in [
            [1, 2, 3],
            [1, 3, 2],
            [2, 1, 3],
            [2, 3, 1],
            [3, 1, 2],
            [3, 2, 1],
        ] {
            assert_eq!(median3(perm[0], perm[1], perm[2]), 2);
        }
        assert_eq!(median3(4, 4, 9), 4);
    }

    /// Ordered by `key` alone, so ties are told apart by `tag`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tagged {
        key: u8,
        tag: u8,
    }

    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    #[test]
    fn median3_returns_the_element_of_the_comparison_chain_on_ties() {
        let chain = |a: Tagged, b: Tagged, c: Tagged| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if c <= lo {
                lo
            } else if c >= hi {
                hi
            } else {
                c
            }
        };
        for keys in 0..27u8 {
            let t = |tag: u8, key: u8| Tagged { key, tag };
            let (a, b, c) = (t(0, keys % 3), t(1, keys / 3 % 3), t(2, keys / 9));
            assert_eq!(median3(a, b, c), chain(a, b, c), "keys {keys}");
        }
    }

    #[test]
    fn outputs_are_members_of_the_input_multiset() {
        let values: Vec<u64> = (0..8192).map(|i| i * 17 % 65_537).collect();
        let s = ThreeTournamentSchedule::compute(0.08, values.len()).unwrap();
        let out = run(
            &values,
            &s,
            FinalVote::default(),
            EngineConfig::with_seed(2),
        )
        .unwrap();
        let set: std::collections::HashSet<u64> = values.iter().copied().collect();
        assert!(out.outputs.iter().all(|v| set.contains(v)));
    }
}
