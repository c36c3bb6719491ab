//! Push-sum aggregation (Kempe, Dobra, Gehrke; FOCS 2003).
//!
//! Every node `v` holds a pair `(s_v, w_v)`. In each round it splits both
//! components in half, keeps one half and pushes the other half to a uniformly
//! random node; received pairs are added component-wise. The estimate at node
//! `v` is `s_v / w_v`, which converges to `Σ s_u(0) / Σ w_u(0)` — the average
//! when all weights start at 1 — with relative error `ε` after
//! `O(log n + log 1/ε)` rounds with high probability.
//!
//! The quantile paper uses this primitive twice:
//! * Algorithm 3, Step 5 counts the rank of a value ("the sum can be
//!   aggregated in O(log n) rounds" \[KDG03\]), implemented here as
//!   [`count_matching`];
//! * the `O(log² n)` baseline ([`crate::kdg_selection`]) counts ranks in every
//!   iteration.
//!
//! **Robustness.** Under the failure model of Section 5, a node that fails
//! simply does not split this round (its outgoing half is returned to it), so
//! the protocol's mass conservation invariant `Σ s_v = const`, `Σ w_v = const`
//! is preserved and only convergence speed degrades — matching the discussion
//! in \[KDG03\] and Section 5.2 of the paper.

use gossip_net::{Engine, EngineConfig, GossipError, Metrics, Result};

/// State of one node during push-sum.
#[derive(Debug, Clone, Copy)]
struct PushSumState {
    s: f64,
    w: f64,
    out_s: f64,
    out_w: f64,
}

/// Configuration of a push-sum run.
#[derive(Debug, Clone)]
pub struct PushSumConfig {
    /// Number of rounds to run. `None` selects the default
    /// `ceil(c · (log2 n + log2(1/target_accuracy)))` with `c = 2`.
    pub rounds: Option<u64>,
    /// Target relative accuracy used to size the default round count.
    pub target_accuracy: f64,
}

impl Default for PushSumConfig {
    fn default() -> Self {
        PushSumConfig {
            rounds: None,
            target_accuracy: 1e-4,
        }
    }
}

impl PushSumConfig {
    /// Configuration that runs exactly `rounds` rounds.
    pub fn fixed_rounds(rounds: u64) -> Self {
        PushSumConfig {
            rounds: Some(rounds),
            target_accuracy: 1e-4,
        }
    }

    /// Number of rounds to run for a network of `n` nodes.
    pub fn rounds_for(&self, n: usize) -> u64 {
        match self.rounds {
            Some(r) => r,
            None => {
                let n = n.max(2) as f64;
                let acc = self.target_accuracy.clamp(1e-12, 0.5);
                (2.0 * (n.log2() + (1.0 / acc).log2())).ceil() as u64
            }
        }
    }
}

/// Result of a push-sum run.
#[derive(Debug, Clone)]
pub struct PushSumOutcome {
    /// Per-node estimates of the aggregate (average, sum or count depending on
    /// the entry point used).
    pub estimates: Vec<f64>,
    /// Rounds executed.
    pub rounds: u64,
    /// Communication metrics.
    pub metrics: Metrics,
}

impl PushSumOutcome {
    /// The largest absolute deviation of any node's estimate from `truth`.
    pub fn max_absolute_error(&self, truth: f64) -> f64 {
        self.estimates
            .iter()
            .map(|e| (e - truth).abs())
            .fold(0.0, f64::max)
    }
}

fn run_push_sum(
    initial: Vec<(f64, f64)>,
    config: &PushSumConfig,
    engine_config: EngineConfig,
) -> PushSumOutcome {
    let n = initial.len();
    let states: Vec<PushSumState> = initial
        .into_iter()
        .map(|(s, w)| PushSumState {
            s,
            w,
            out_s: 0.0,
            out_w: 0.0,
        })
        .collect();
    let mut engine = Engine::from_states(states, engine_config);
    let rounds = config.rounds_for(n);

    for _ in 0..rounds {
        // Local half-split into the outbox.
        engine.local_step(|_, st, _rng| {
            st.out_s = st.s / 2.0;
            st.out_w = st.w / 2.0;
            st.s -= st.out_s;
            st.w -= st.out_w;
        });
        // Push the outbox; a failed push returns the mass to its owner so that
        // Σs and Σw are conserved exactly.
        engine.push_round(
            |_, st| Some((st.out_s, st.out_w)),
            |_, st, (ms, mw)| {
                st.s += ms;
                st.w += mw;
            },
            |_, st, delivered| {
                if !delivered {
                    st.s += st.out_s;
                    st.w += st.out_w;
                }
                st.out_s = 0.0;
                st.out_w = 0.0;
            },
        );
    }

    let metrics = engine.metrics();
    let estimates = engine
        .states()
        .iter()
        .map(|st| if st.w > 0.0 { st.s / st.w } else { 0.0 })
        .collect();
    PushSumOutcome {
        estimates,
        rounds,
        metrics,
    }
}

/// Estimates the **average** of `values` at every node.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given.
pub fn average(
    values: &[f64],
    config: &PushSumConfig,
    engine_config: EngineConfig,
) -> Result<PushSumOutcome> {
    if values.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: values.len(),
        });
    }
    Ok(run_push_sum(
        values.iter().map(|&v| (v, 1.0)).collect(),
        config,
        engine_config,
    ))
}

/// Estimates the **sum** of `values` at every node.
///
/// Following \[KDG03\], the weight 1 starts at a single designated node
/// (node 0) and all other weights start at 0, so `s/w` converges to the sum.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given.
pub fn sum(
    values: &[f64],
    config: &PushSumConfig,
    engine_config: EngineConfig,
) -> Result<PushSumOutcome> {
    if values.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: values.len(),
        });
    }
    let initial = values
        .iter()
        .enumerate()
        .map(|(v, &x)| (x, if v == 0 { 1.0 } else { 0.0 }))
        .collect();
    Ok(run_push_sum(initial, config, engine_config))
}

/// Estimates, at every node, the **number of nodes satisfying a predicate**.
///
/// This is the "counting" use of push-sum from Algorithm 3, Step 5: nodes
/// matching the predicate contribute 1, the others 0, and the average is
/// scaled by `n` (every node knows `n` in the model).
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two indicator values are given.
pub fn count_matching(
    indicators: &[bool],
    config: &PushSumConfig,
    engine_config: EngineConfig,
) -> Result<PushSumOutcome> {
    if indicators.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: indicators.len(),
        });
    }
    let n = indicators.len() as f64;
    let values: Vec<f64> = indicators
        .iter()
        .map(|&b| if b { 1.0 } else { 0.0 })
        .collect();
    let mut outcome = average(&values, config, engine_config)?;
    for e in &mut outcome.estimates {
        *e *= n;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{FailureModel, FaultPlan};

    fn cfg(seed: u64) -> EngineConfig {
        EngineConfig::with_seed(seed)
    }

    #[test]
    fn rejects_tiny_networks() {
        assert!(average(&[1.0], &PushSumConfig::default(), cfg(0)).is_err());
        assert!(sum(&[], &PushSumConfig::default(), cfg(0)).is_err());
        assert!(count_matching(&[true], &PushSumConfig::default(), cfg(0)).is_err());
    }

    #[test]
    fn average_converges_everywhere() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let truth = 999.0 / 2.0;
        let out = average(&values, &PushSumConfig::default(), cfg(1)).unwrap();
        assert_eq!(out.estimates.len(), 1000);
        assert!(
            out.max_absolute_error(truth) < truth * 1e-3,
            "err {}",
            out.max_absolute_error(truth)
        );
    }

    #[test]
    fn sum_converges_everywhere() {
        let values: Vec<f64> = vec![2.0; 512];
        let out = sum(&values, &PushSumConfig::default(), cfg(2)).unwrap();
        assert!(
            out.max_absolute_error(1024.0) < 1.0,
            "err {}",
            out.max_absolute_error(1024.0)
        );
    }

    #[test]
    fn counting_is_accurate_enough_for_ranks() {
        // Rank counting needs the count to be right to within < 1 after
        // rounding, which is what Algorithm 3 Step 5 relies on.
        let indicators: Vec<bool> = (0..2000).map(|i| i % 3 == 0).collect();
        let truth = indicators.iter().filter(|&&b| b).count() as f64;
        let config = PushSumConfig {
            rounds: None,
            target_accuracy: 1e-6,
        };
        let out = count_matching(&indicators, &config, cfg(3)).unwrap();
        assert!(
            out.max_absolute_error(truth) < 0.5,
            "err {}",
            out.max_absolute_error(truth)
        );
    }

    #[test]
    fn rounds_default_scales_with_log_n_and_accuracy() {
        let c = PushSumConfig::default();
        assert!(c.rounds_for(1 << 10) < c.rounds_for(1 << 20));
        let coarse = PushSumConfig {
            rounds: None,
            target_accuracy: 1e-2,
        };
        let fine = PushSumConfig {
            rounds: None,
            target_accuracy: 1e-8,
        };
        assert!(coarse.rounds_for(1024) < fine.rounds_for(1024));
        assert_eq!(PushSumConfig::fixed_rounds(17).rounds_for(1 << 30), 17);
    }

    #[test]
    fn mass_is_conserved_under_failures() {
        // With a 30% failure rate the estimate still converges (more slowly),
        // because failed pushes return their mass to the sender.
        let values: Vec<f64> = (0..800).map(|i| (i % 10) as f64).collect();
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let config = PushSumConfig {
            rounds: Some(120),
            target_accuracy: 1e-6,
        };
        let engine_config = EngineConfig::with_seed(9)
            .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.3).unwrap()));
        let out = average(&values, &config, engine_config).unwrap();
        assert!(
            out.max_absolute_error(truth) < 0.05,
            "err {}",
            out.max_absolute_error(truth)
        );
        assert!(out.metrics.failed_operations > 0);
    }

    #[test]
    fn metrics_report_push_rounds_and_small_messages() {
        let values: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let out = average(&values, &PushSumConfig::fixed_rounds(10), cfg(4)).unwrap();
        assert_eq!(out.rounds, 10);
        assert_eq!(out.metrics.rounds, 10);
        // Push-sum messages are a pair of f64: 128 bits, i.e. O(log n)-sized.
        assert_eq!(out.metrics.max_message_bits, 128);
    }
}
