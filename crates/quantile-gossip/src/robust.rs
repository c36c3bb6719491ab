//! Failure-robust tournament algorithms (Theorem 1.4, Section 5.1).
//!
//! Under the failure model of Section 5 (every node fails each round with a
//! probability bounded by `μ < 1`), the tournament algorithms are made robust
//! by over-sampling: in every iteration each node pulls from
//! `Θ(1/(1−μ) · log 1/(1−μ))` nodes instead of 2 or 3, declares itself *good*
//! if at least 2 (resp. 3) of those pulls succeeded **and** came from nodes
//! that were good in the previous iteration, and runs the tournament on the
//! first good pulls. Lemma 5.2 shows a constant fraction of nodes stays good
//! throughout, so the concentration arguments go through with `n` replaced by
//! `n_i = Ω(n)`.
//!
//! The final vote samples `Θ(K/(1−μ)·log(K/(1−μ)))` nodes and succeeds at
//! every node that obtained `K` good pulls; `t` additional learning rounds
//! then deliver the answer to all but `≈ n·2^{-t}` of the remaining nodes.

use crate::schedule::{
    AdaptiveRoundBudget, ShrinkSide, ThreeTournamentSchedule, TwoTournamentSchedule,
};
use crate::three_tournament::median3;
use gossip_net::{Engine, EngineConfig, GossipError, Metrics, NodeValue, Result};
use rand::Rng;

/// Configuration of the robust approximate-quantile algorithm.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// Upper bound `μ` on the per-round failure probability. `None` derives it
    /// from the engine's fault plan where possible (and errors otherwise,
    /// unless [`RobustConfig::adaptive`] is set).
    pub mu: Option<f64>,
    /// Number of pulls per tournament iteration. `None` selects the
    /// Lemma 5.2 default `⌈4/(1−μ)·ln(4/(1−μ))⌉ + 1`.
    pub pulls_per_iteration: Option<usize>,
    /// `K`: the number of good pulls the final vote needs (0 runs as 1).
    pub final_vote_samples: usize,
    /// `t`: extra learning rounds after the vote; all but `≈ n·2^{-t}` nodes
    /// end up with an answer.
    pub learning_rounds: u64,
    /// Adapt the per-iteration pull budget to the **observed** failure mass
    /// instead of the assumed bound: each iteration's metrics delta feeds an
    /// [`AdaptiveRoundBudget`], and the next iteration re-evaluates the
    /// Lemma 5.2 budget at the smoothed estimate `μ̂`. This is the paper's
    /// `O(1/(1−μ))` compensation driven by measurement — under a fault plan
    /// whose intensity is unknown (or lower than a pessimistic bound) it
    /// spends fewer rounds, and with no derivable bound at all it still runs
    /// (starting from `μ̂ = 0`, or [`RobustConfig::mu`] if given).
    pub adaptive: bool,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            mu: None,
            pulls_per_iteration: None,
            final_vote_samples: 15,
            learning_rounds: 10,
            adaptive: false,
        }
    }
}

impl RobustConfig {
    /// The per-iteration pull count for a failure bound `mu`.
    pub fn pulls_for(&self, mu: f64) -> usize {
        if let Some(k) = self.pulls_per_iteration {
            return k.max(3);
        }
        let s = 1.0 - mu.clamp(0.0, 0.99);
        ((4.0 / s) * (4.0 / s).ln()).ceil() as usize + 1
    }

    /// `K`, the number of good pulls the final vote needs: at least one.
    fn vote_samples(&self) -> usize {
        self.final_vote_samples.max(1)
    }

    /// The number of pulls used by the final vote for a failure bound `mu`.
    pub fn final_pulls_for(&self, mu: f64) -> usize {
        let s = 1.0 - mu.clamp(0.0, 0.99);
        let k = self.vote_samples() as f64;
        ((k / s) * (k / s).ln().max(1.0)).ceil() as usize
    }
}

/// Result of the robust approximate quantile computation.
#[derive(Debug, Clone)]
pub struct RobustOutcome<V> {
    /// Per-node output: `Some(value)` for nodes that learned an answer,
    /// `None` for the (exponentially small) remainder.
    pub outputs: Vec<Option<V>>,
    /// Fraction of nodes with an answer.
    pub answered_fraction: f64,
    /// Total rounds executed.
    pub rounds: u64,
    /// Communication metrics.
    pub metrics: Metrics,
    /// Fraction of nodes still *good* after the tournament iterations
    /// (Lemma 5.2 guarantees a constant fraction).
    pub good_fraction: f64,
    /// The failure estimate the run ended on: the observed `μ̂` in adaptive
    /// mode, the assumed bound otherwise.
    pub estimated_mu: f64,
}

#[derive(Debug, Clone, Copy)]
struct RobustState<V> {
    value: V,
    good: bool,
    answer: Option<V>,
}

/// The values of a step's good pulls — delivered, from a node that was good —
/// in pull order.
fn good_pulls<V: Copy>(samples: &[Option<(V, bool)>]) -> impl Iterator<Item = V> + '_ {
    samples
        .iter()
        .flatten()
        .filter(|&&(_, good)| good)
        .map(|&(v, _)| v)
}

/// Runs the failure-robust ε-approximate φ-quantile algorithm of Theorem 1.4.
///
/// # Errors
///
/// Returns an error if fewer than two values are given, `φ ∉ [0, 1]`,
/// `ε ≤ 0` or NaN, or `μ` is neither given nor derivable from the failure
/// model.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn robust_approximate_quantile<V: NodeValue>(
    values: &[V],
    phi: f64,
    epsilon: f64,
    config: &RobustConfig,
    engine_config: EngineConfig,
) -> Result<RobustOutcome<V>> {
    let n = values.len();
    if n < 2 {
        return Err(GossipError::TooFewNodes { requested: n });
    }
    if !(0.0..=1.0).contains(&phi) {
        return Err(GossipError::InvalidParameter {
            name: "phi",
            reason: format!("must be in [0, 1], got {phi}"),
        });
    }
    if epsilon.is_nan() || epsilon <= 0.0 {
        return Err(GossipError::InvalidParameter {
            name: "epsilon",
            reason: format!("must be positive, got {epsilon}"),
        });
    }
    let mu = match config.mu.or_else(|| engine_config.fault.mu_upper_bound()) {
        Some(m) if m < 1.0 => m,
        // Adaptive mode needs no a-priori bound: it starts from μ̂ = 0 and
        // sizes later iterations from what it measures.
        None if config.adaptive => 0.0,
        _ => {
            return Err(GossipError::InvalidParameter {
                name: "mu",
                reason: "a failure bound mu < 1 must be provided or derivable".to_string(),
            })
        }
    };
    let eps = epsilon.min(crate::approx::MAX_TOURNAMENT_EPSILON);
    let fixed_pulls = config.pulls_for(mu);
    let mut budget = AdaptiveRoundBudget::with_initial_mu(mu);

    let states: Vec<RobustState<V>> = values
        .iter()
        .map(|&v| RobustState {
            value: v,
            good: true,
            answer: None,
        })
        .collect();
    let mut engine = Engine::try_from_states(states, engine_config)?;

    // Every iteration and the final vote are one sample step each: every
    // node pulls `(value, good)` pairs and uses the first good ones, in pull
    // order.
    let serve = |_: usize, st: &RobustState<V>| (st.value, st.good);
    let pulls_now = |budget: &AdaptiveRoundBudget| {
        if config.adaptive {
            config.pulls_for(budget.mu_hat())
        } else {
            fixed_pulls
        }
    };

    // Phase I: robust 2-TOURNAMENT.
    let schedule1 = TwoTournamentSchedule::compute(phi, eps)?;
    let side = schedule1.side;
    for step in &schedule1.steps {
        let pulls = pulls_now(&budget);
        let before = engine.metrics();
        let delta = step.delta;
        engine.sample_step(
            pulls,
            pulls,
            |_| true,
            serve,
            |_, st, rng, samples| {
                let mut good = good_pulls(samples);
                let (Some(a), Some(b)) = (good.next(), good.next()) else {
                    st.good = false;
                    return;
                };
                // The probability-δ branch is drawn from the node's own stream so
                // runs replay identically at any thread count.
                let tournament = delta >= 1.0 || rng.gen::<f64>() < delta;
                st.value = if tournament {
                    match side {
                        ShrinkSide::High => a.min(b),
                        ShrinkSide::Low => a.max(b),
                    }
                } else {
                    a
                };
            },
        );
        if config.adaptive {
            budget.observe(engine.metrics().snapshot_delta(&before).disturbance_rate());
        }
    }

    // Phase II: robust 3-TOURNAMENT.
    let schedule2 = ThreeTournamentSchedule::compute(eps / 4.0, n)?;
    for _ in 0..schedule2.len() {
        let pulls = pulls_now(&budget);
        let before = engine.metrics();
        engine.sample_step(
            pulls,
            pulls,
            |_| true,
            serve,
            |_, st, _, samples| {
                let mut good = good_pulls(samples);
                match (good.next(), good.next(), good.next()) {
                    (Some(a), Some(b), Some(c)) => st.value = median3(a, b, c),
                    _ => st.good = false,
                }
            },
        );
        if config.adaptive {
            budget.observe(engine.metrics().snapshot_delta(&before).disturbance_rate());
        }
    }

    // Final vote: the median of the first K good pulls, at every node that
    // got K of them.
    let final_pulls = if config.adaptive {
        config.final_pulls_for(budget.mu_hat())
    } else {
        config.final_pulls_for(mu)
    };
    let k = config.vote_samples();
    engine.sample_step(
        final_pulls,
        final_pulls,
        |_| true,
        serve,
        |_, st, _, samples| {
            // Move the first K good pulls to the front.
            let mut good = 0;
            for i in 0..samples.len() {
                if good == k {
                    break;
                }
                if matches!(samples[i], Some((_, true))) {
                    samples.swap(good, i);
                    good += 1;
                }
            }
            st.answer = None;
            if good == k {
                let votes = &mut samples[..k];
                votes.sort_unstable();
                st.answer = votes[k / 2].map(|(val, _)| val);
            }
        },
    );

    // Learning rounds: nodes without an answer adopt any answer they pull.
    for _ in 0..config.learning_rounds {
        engine.pull_round(
            |_, st| st.answer,
            |_, st, pulled| {
                if st.answer.is_none() {
                    if let Some(Some(a)) = pulled {
                        st.answer = Some(a);
                    }
                }
            },
        );
    }

    let metrics = engine.metrics();
    // `good` is only ever cleared during the tournament phases (the final
    // vote and learning rounds touch `answer` alone), so the fraction
    // measured here equals the post-tournament one.
    let states = engine.states();
    let good_fraction = states.iter().filter(|st| st.good).count() as f64 / n as f64;
    let outputs: Vec<Option<V>> = states.iter().map(|st| st.answer).collect();
    let answered = outputs.iter().flatten().count() as f64 / n as f64;
    Ok(RobustOutcome {
        outputs,
        answered_fraction: answered,
        rounds: metrics.rounds,
        metrics,
        good_fraction,
        estimated_mu: if config.adaptive { budget.mu_hat() } else { mu },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{FailureModel, FaultPlan};

    /// A sorted copy of `values`, made once per check for [`rank_of`].
    fn sorted_copy(values: &[u64]) -> Vec<u64> {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted
    }

    /// Normalised rank of `x` among the ascending `sorted` values: the
    /// fraction that are `<= x`.
    fn rank_of(sorted: &[u64], x: u64) -> f64 {
        sorted.partition_point(|&v| v <= x) as f64 / sorted.len() as f64
    }

    #[test]
    fn rejects_invalid_inputs() {
        let cfg = RobustConfig::default();
        assert!(
            robust_approximate_quantile(&[1u64], 0.5, 0.1, &cfg, EngineConfig::with_seed(0))
                .is_err()
        );
        assert!(robust_approximate_quantile(
            &[1u64, 2],
            2.0,
            0.1,
            &cfg,
            EngineConfig::with_seed(0)
        )
        .is_err());
        assert!(robust_approximate_quantile(
            &[1u64, 2],
            0.5,
            f64::NAN,
            &cfg,
            EngineConfig::with_seed(0)
        )
        .is_err());
        // A schedule-based failure model has no derivable mu.
        let ec = EngineConfig::with_seed(0)
            .fault(FaultPlan::none().with_failure(FailureModel::schedule(|_, _| 0.1)));
        assert!(
            robust_approximate_quantile(&(0..10u64).collect::<Vec<_>>(), 0.5, 0.1, &cfg, ec)
                .is_err()
        );
    }

    #[test]
    fn pull_counts_grow_with_mu() {
        let cfg = RobustConfig::default();
        assert!(cfg.pulls_for(0.0) < cfg.pulls_for(0.5));
        assert!(cfg.pulls_for(0.5) < cfg.pulls_for(0.9));
        assert!(cfg.pulls_for(0.0) >= 3);
        assert!(cfg.final_pulls_for(0.5) > cfg.final_vote_samples);
        let fixed = RobustConfig {
            pulls_per_iteration: Some(7),
            ..Default::default()
        };
        assert_eq!(fixed.pulls_for(0.9), 7);
    }

    #[test]
    fn a_zero_sample_vote_runs_as_a_one_sample_vote() {
        let values: Vec<u64> = (0..4_000).collect();
        let run = |final_vote_samples| {
            let cfg = RobustConfig {
                mu: Some(0.0),
                final_vote_samples,
                ..Default::default()
            };
            robust_approximate_quantile(&values, 0.5, 0.1, &cfg, EngineConfig::with_seed(4))
                .unwrap()
        };
        let (zero, one) = (run(0), run(1));
        assert_eq!(zero.answered_fraction, 1.0);
        assert_eq!(zero.outputs, one.outputs);
        assert_eq!(zero.metrics, one.metrics);
        assert_eq!(zero.good_fraction, one.good_fraction);
    }

    #[test]
    fn without_failures_every_node_answers_accurately() {
        let n: u64 = 50_000;
        let values: Vec<u64> = (0..n).collect();
        let eps = 0.08;
        let out = robust_approximate_quantile(
            &values,
            0.3,
            eps,
            &RobustConfig::default(),
            EngineConfig::with_seed(2),
        )
        .unwrap();
        assert_eq!(out.answered_fraction, 1.0);
        assert!(out.good_fraction > 0.99);
        let sorted = sorted_copy(&values);
        for o in out.outputs.iter().flatten() {
            let q = rank_of(&sorted, *o);
            assert!((q - 0.3).abs() <= eps + 0.01, "quantile {q}");
        }
    }

    #[test]
    fn with_heavy_failures_most_nodes_answer_accurately() {
        let n: u64 = 50_000;
        let values: Vec<u64> = (0..n).collect();
        let eps = 0.08;
        let mu = 0.5;
        let ec = EngineConfig::with_seed(5)
            .fault(FaultPlan::none().with_failure(FailureModel::uniform(mu).unwrap()));
        let out =
            robust_approximate_quantile(&values, 0.5, eps, &RobustConfig::default(), ec).unwrap();
        // Lemma 5.2: a constant fraction of nodes stays good.
        assert!(
            out.good_fraction > 0.3,
            "good fraction {}",
            out.good_fraction
        );
        // Theorem 1.4: all but ~n/2^t nodes learn an answer.
        assert!(
            out.answered_fraction > 0.99,
            "answered {}",
            out.answered_fraction
        );
        let mut checked = 0;
        let sorted = sorted_copy(&values);
        for o in out.outputs.iter().flatten() {
            let q = rank_of(&sorted, *o);
            assert!((q - 0.5).abs() <= eps + 0.02, "quantile {q}");
            checked += 1;
        }
        assert!(checked > 0);
        assert!(out.metrics.failed_operations > 0);
    }

    #[test]
    fn adaptive_budget_measures_fault_plans_without_a_bound() {
        use gossip_net::{LossModel, StragglerModel};
        let n: u64 = 20_000;
        let values: Vec<u64> = (0..n).collect();
        // Loss + stragglers: mu_upper_bound is derivable here, but pretend it
        // is not by keeping `mu: None` with a schedule-free plan — adaptive
        // mode must measure the disturbance instead of assuming it.
        let plan = FaultPlan::none()
            .with_loss(LossModel::uniform(0.3).unwrap())
            .with_stragglers(StragglerModel::uniform(0.1, 3).unwrap());
        let ec = EngineConfig::with_seed(11).fault(plan);
        let cfg = RobustConfig {
            adaptive: true,
            ..Default::default()
        };
        let out = robust_approximate_quantile(&values, 0.5, 0.1, &cfg, ec).unwrap();
        // The measured estimate reflects the injected ~40% disturbance mass.
        assert!(
            out.estimated_mu > 0.15 && out.estimated_mu < 0.99,
            "measured mu {}",
            out.estimated_mu
        );
        assert!(
            out.answered_fraction > 0.9,
            "answered {}",
            out.answered_fraction
        );
        assert!(out.metrics.messages_dropped > 0);
        // The robust algorithm is pull-only and pull contacts never straggle,
        // so the straggler combinator is inert here by design.
        assert_eq!(out.metrics.messages_delayed, 0);
        let sorted = sorted_copy(&values);
        for o in out.outputs.iter().flatten() {
            let q = rank_of(&sorted, *o);
            assert!((q - 0.5).abs() <= 0.13, "quantile {q}");
        }
    }

    #[test]
    fn adaptive_mode_requires_no_derivable_bound() {
        // A schedule-based failure model has no mu_upper_bound; adaptive mode
        // runs anyway, the fixed mode errors (as pinned above).
        let values: Vec<u64> = (0..5_000u64).collect();
        let ec = EngineConfig::with_seed(3)
            .fault(FaultPlan::none().with_failure(FailureModel::schedule(|_, _| 0.2)));
        let cfg = RobustConfig {
            adaptive: true,
            ..Default::default()
        };
        let out = robust_approximate_quantile(&values, 0.5, 0.1, &cfg, ec).unwrap();
        assert!(out.answered_fraction > 0.9);
        assert!(out.estimated_mu > 0.05, "measured mu {}", out.estimated_mu);
    }

    #[test]
    fn per_node_failure_probabilities_are_supported() {
        let n: u64 = 20_000;
        let values: Vec<u64> = (0..n).collect();
        // Adversarial-ish: half the nodes fail 60% of the time, half never.
        let probs: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.6 } else { 0.0 }).collect();
        let ec = EngineConfig::with_seed(9)
            .fault(FaultPlan::none().with_failure(FailureModel::per_node(probs).unwrap()));
        let out =
            robust_approximate_quantile(&values, 0.5, 0.1, &RobustConfig::default(), ec).unwrap();
        assert!(
            out.answered_fraction > 0.95,
            "answered {}",
            out.answered_fraction
        );
        let sorted = sorted_copy(&values);
        for o in out.outputs.iter().flatten() {
            let q = rank_of(&sorted, *o);
            assert!((q - 0.5).abs() <= 0.12, "quantile {q}");
        }
    }
}
