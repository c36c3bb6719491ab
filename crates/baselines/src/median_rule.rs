//! The 3-sample median rule of Doerr et al. \[DGM+11\].
//!
//! Every node repeatedly samples three random values and adopts their median.
//! Doerr et al. analysed this dynamic as a *stabilizing consensus* protocol and
//! showed that `O(log n)` iterations converge to a value within
//! `±O(√(log n)/√n · n)` ranks of the median even under `O(√n)` adversarial
//! node failures. The paper's 3-TOURNAMENT (Algorithm 2) is the same dynamic
//! run for only `O(log 1/ε + log log n)` iterations with a final sampling
//! step; this module provides the original rule as a baseline so the two can
//! be compared (experiment E9).

use gossip_net::{Engine, EngineConfig, GossipError, Metrics, NodeValue, Result};

/// Configuration of the median-rule baseline.
#[derive(Debug, Clone)]
pub struct MedianRuleConfig {
    /// Maximum number of median-of-three iterations (each costs 3 rounds).
    pub max_iterations: u64,
    /// Stop early once every node holds the same value.
    pub stop_on_consensus: bool,
}

impl Default for MedianRuleConfig {
    fn default() -> Self {
        MedianRuleConfig {
            max_iterations: 200,
            stop_on_consensus: true,
        }
    }
}

/// Result of running the median rule.
#[derive(Debug, Clone)]
pub struct MedianRuleOutcome<V> {
    /// Final value at every node.
    pub values: Vec<V>,
    /// Iterations executed (each iteration = 3 pull rounds).
    pub iterations: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Whether all nodes held the same value at the end.
    pub consensus: bool,
    /// Communication metrics.
    pub metrics: Metrics,
}

/// Returns the median of three values.
pub(crate) fn median3<V: Ord>(a: V, b: V, c: V) -> V {
    // max(min(a,b), min(max(a,b), c))
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if c <= lo {
        lo
    } else if c >= hi {
        hi
    } else {
        c
    }
}

/// Runs the Doerr et al. median rule on `values`.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given.
pub fn run<V: NodeValue>(
    values: &[V],
    config: &MedianRuleConfig,
    engine_config: EngineConfig,
) -> Result<MedianRuleOutcome<V>> {
    if values.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: values.len(),
        });
    }
    let mut engine = Engine::from_states(values.to_vec(), engine_config);
    let mut iterations = 0u64;
    let mut consensus = all_equal(engine.states());
    while iterations < config.max_iterations && !(config.stop_on_consensus && consensus) {
        // Three rounds of sampling against the iteration-start snapshot, then
        // a synchronous local update — exactly the paper's convention that
        // sampling three values costs three rounds. A node's own value stands
        // in for each sample that did not arrive.
        engine.sample_step(
            3,
            3,
            |_| true,
            |_, &v| v,
            |_, state, _, samples| {
                let mut three = [*state; 3];
                for (slot, &s) in three.iter_mut().zip(samples.iter().flatten()) {
                    *slot = s;
                }
                *state = median3(three[0], three[1], three[2]);
            },
        );
        iterations += 1;
        consensus = all_equal(engine.states());
    }
    let metrics = engine.metrics();
    let rounds = metrics.rounds;
    Ok(MedianRuleOutcome {
        values: engine.into_states(),
        iterations,
        rounds,
        consensus,
        metrics,
    })
}

fn all_equal<V: PartialEq>(values: &[V]) -> bool {
    values.windows(2).all(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{FailureModel, FaultPlan};

    #[test]
    fn median3_is_correct_for_all_orderings() {
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
        assert_eq!(median3(5, 5, 1), 5);
        assert_eq!(median3(1, 5, 5), 5);
        assert_eq!(median3(7, 7, 7), 7);
    }

    #[test]
    fn converges_to_a_near_median_value() {
        let n = 4096u64;
        let values: Vec<u64> = (0..n).collect();
        let out = run(
            &values,
            &MedianRuleConfig::default(),
            EngineConfig::with_seed(3),
        )
        .unwrap();
        assert!(
            out.consensus,
            "did not reach consensus in {} iterations",
            out.iterations
        );
        let v = out.values[0] as f64 / n as f64;
        // Doerr et al.: within O(sqrt(log n / n)) of the median; allow a wide
        // deterministic margin for a single run.
        assert!((v - 0.5).abs() < 0.1, "consensus value quantile {v}");
        // O(log n) iterations.
        assert!(out.iterations <= 60, "{} iterations", out.iterations);
        assert_eq!(out.rounds, out.metrics.rounds);
    }

    #[test]
    fn respects_iteration_cap() {
        let values: Vec<u64> = (0..128).collect();
        let cfg = MedianRuleConfig {
            max_iterations: 2,
            stop_on_consensus: true,
        };
        let out = run(&values, &cfg, EngineConfig::with_seed(1)).unwrap();
        assert_eq!(out.iterations, 2);
        assert_eq!(out.rounds, 6);
    }

    #[test]
    fn works_under_failures() {
        let values: Vec<u64> = (0..2048).collect();
        let cfg = MedianRuleConfig {
            max_iterations: 300,
            stop_on_consensus: true,
        };
        let engine_config = EngineConfig::with_seed(5)
            .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.3).unwrap()));
        let out = run(&values, &cfg, engine_config).unwrap();
        assert!(out.consensus);
        let v = out.values[0] as f64 / 2048.0;
        assert!((v - 0.5).abs() < 0.15, "consensus value quantile {v}");
    }

    #[test]
    fn rejects_tiny_networks() {
        assert!(run::<u64>(
            &[1],
            &MedianRuleConfig::default(),
            EngineConfig::with_seed(0)
        )
        .is_err());
    }

    #[test]
    fn already_unanimous_input_terminates_immediately() {
        let values = vec![42u64; 64];
        let out = run(
            &values,
            &MedianRuleConfig::default(),
            EngineConfig::with_seed(0),
        )
        .unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.consensus);
        assert!(out.values.iter().all(|&v| v == 42));
    }
}
