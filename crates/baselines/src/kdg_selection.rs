//! Exact quantile computation in `O(log² n)` rounds — the \[KDG03\] baseline.
//!
//! Kempe, Dobra and Gehrke observed that gossip primitives for *sampling* and
//! *counting* suffice to implement the classic randomized selection algorithm
//! \[Hoa61, FR75\]: repeatedly pick a uniformly random pivot among the values
//! still in play, count its rank with push-sum, and discard the half of the
//! candidate interval that cannot contain the target rank. Each iteration
//! costs `O(log n)` rounds (pivot dissemination + counting) and `O(log n)`
//! iterations suffice with high probability, for `O(log² n)` rounds overall —
//! the bound that Theorem 1.1 of the quantile paper improves quadratically.
//!
//! This is the main baseline of experiment E1.
//!
//! ## Faithfulness notes
//!
//! * Values are paired with their node id internally so that all keys are
//!   distinct (the papers assume distinct values w.l.o.g.).
//! * After every counting phase, each node holds its own push-sum estimate of
//!   the pivot's rank. The implementation takes the median of the per-node
//!   (rounded) estimates as the common decision; a real deployment would
//!   piggy-back this consensus on the next pivot dissemination at no extra
//!   asymptotic cost. The push-sum round budget is sized so that all estimates
//!   round to the true count with high probability. Setting
//!   [`KdgSelectionConfig::oracle_counting`] replaces the push-sum count with
//!   an exact oracle, isolating the effect of counting noise (ablation).

use crate::push_sum::{self, PushSumConfig};
use crate::rumor::{spread_max_tagged, spread_min_max, SpreadRounds};
use gossip_net::{EngineConfig, GossipError, Metrics, NodeValue, Result, SeedSequence};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of the \[KDG03\] selection baseline.
#[derive(Debug, Clone)]
pub struct KdgSelectionConfig {
    /// Rounds used by every rumor-spreading phase.
    pub spread_rounds: SpreadRounds,
    /// Round budget for every push-sum counting phase (`None` = default
    /// `O(log n + log 1/acc)` with accuracy `0.25/n`, enough to round to the
    /// exact count w.h.p.).
    pub counting_rounds: Option<u64>,
    /// Use an exact counting oracle instead of push-sum (ablation only).
    pub oracle_counting: bool,
    /// Safety cap on the number of selection iterations.
    pub max_iterations: u64,
}

impl Default for KdgSelectionConfig {
    fn default() -> Self {
        KdgSelectionConfig {
            spread_rounds: SpreadRounds::default(),
            counting_rounds: None,
            oracle_counting: false,
            max_iterations: 400,
        }
    }
}

/// Result of the \[KDG03\] exact quantile computation.
#[derive(Debug, Clone)]
pub struct KdgSelectionOutcome<V> {
    /// The value of rank `⌈φ·n⌉` (identical at every node).
    pub answer: V,
    /// Selection iterations that were needed.
    pub iterations: u64,
    /// Total rounds consumed across all phases.
    pub rounds: u64,
    /// Aggregated communication metrics.
    pub metrics: Metrics,
}

/// Internal key: (value, node id) — all distinct.
type Key<V> = (V, u64);

fn median_rounded(estimates: &[f64]) -> u64 {
    let mut rounded: Vec<i64> = estimates.iter().map(|e| e.round() as i64).collect();
    rounded.sort_unstable();
    rounded[rounded.len() / 2].max(0) as u64
}

/// Computes the exact φ-quantile (the `⌈φ·n⌉`-th smallest value) of `values`
/// with the \[KDG03\] randomized-selection gossip algorithm.
///
/// # Errors
///
/// Returns an error if fewer than two values are given, `phi` is outside
/// `[0, 1]`, or the iteration cap is exceeded (which indicates a
/// mis-configured counting budget).
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn exact_quantile<V: NodeValue>(
    values: &[V],
    phi: f64,
    config: &KdgSelectionConfig,
    engine_config: EngineConfig,
) -> Result<KdgSelectionOutcome<V>> {
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
    let target_rank = ((phi * n as f64).ceil() as u64).clamp(1, n as u64);
    let keys: Vec<Key<V>> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u64))
        .collect();

    let mut seeds = SeedSequence::new(engine_config.seed);
    let mut total_metrics = Metrics::default();
    let mut total_rounds = 0u64;
    let mut rng = SmallRng::seed_from_u64(seeds.next_seed());

    // Every selection phase runs on its own sub-engine; sharing one worker
    // pool (materialised here if the caller didn't supply one) means the
    // phases reuse one set of threads.
    let mut engine_config = engine_config;
    engine_config.ensure_pool_for(n);
    let sub_config = |seeds: &mut SeedSequence| engine_config.sub(seeds.next_seed());

    let counting_config = PushSumConfig {
        rounds: config.counting_rounds,
        target_accuracy: 0.25 / n as f64,
    };

    // Phase 0: learn the global extrema to initialise the candidate interval.
    let spread = spread_min_max(&keys, config.spread_rounds, sub_config(&mut seeds))?;
    total_metrics = total_metrics + spread.metrics;
    total_rounds += spread.rounds;
    let mut lo: Option<Key<V>> = None; // answer is strictly above lo
    let mut hi: Key<V> = *keys.iter().max().expect("non-empty");

    let mut iterations = 0u64;
    loop {
        if iterations >= config.max_iterations {
            return Err(GossipError::RoundBudgetExceeded {
                budget: config.max_iterations,
                phase: "KDG03 selection iterations",
            });
        }
        iterations += 1;

        // Pick a uniformly random pivot among the candidate keys in (lo, hi]:
        // every candidate draws a random tag, the maximum-tag value wins.
        // (The tag spread costs O(log n) rounds.)
        let tagged: Vec<(u64, Key<V>)> = keys
            .iter()
            .map(|&k| {
                let in_play = lo.map_or(true, |l| k > l) && k <= hi;
                let tag = if in_play { 1 + rng.gen::<u64>() / 2 } else { 0 };
                (tag, k)
            })
            .collect();
        let pivot_spread =
            spread_max_tagged(&tagged, config.spread_rounds, sub_config(&mut seeds))?;
        total_metrics = total_metrics + pivot_spread.metrics;
        total_rounds += pivot_spread.rounds;
        let (_, pivot) = *pivot_spread.max_at.first().expect("non-empty network");

        // Count rank(pivot) = #{keys ≤ pivot} with push-sum (Step "count").
        let count = if config.oracle_counting {
            keys.iter().filter(|&&k| k <= pivot).count() as u64
        } else {
            let indicators: Vec<bool> = keys.iter().map(|&k| k <= pivot).collect();
            let count_out =
                push_sum::count_matching(&indicators, &counting_config, sub_config(&mut seeds))?;
            total_metrics = total_metrics + count_out.metrics;
            total_rounds += count_out.rounds;
            median_rounded(&count_out.estimates)
        };

        if count == target_rank {
            // The pivot is the answer; disseminate it (already known to all via
            // the pivot spread of this iteration).
            return Ok(KdgSelectionOutcome {
                answer: pivot.0,
                iterations,
                rounds: total_rounds,
                metrics: total_metrics,
            });
        } else if count > target_rank {
            hi = pivot;
        } else {
            lo = Some(pivot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{FailureModel, FaultPlan};

    fn sorted_rank(values: &[u64], phi: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((phi * values.len() as f64).ceil() as usize).clamp(1, values.len());
        sorted[rank - 1]
    }

    #[test]
    fn rejects_invalid_inputs() {
        let cfg = KdgSelectionConfig::default();
        assert!(exact_quantile(&[1u64], 0.5, &cfg, EngineConfig::with_seed(0)).is_err());
        assert!(exact_quantile(&[1u64, 2], 1.1, &cfg, EngineConfig::with_seed(0)).is_err());
    }

    #[test]
    fn finds_exact_median_with_oracle_counting() {
        let values: Vec<u64> = (0..501).map(|i| (i * 7919) % 100_000).collect();
        let cfg = KdgSelectionConfig {
            oracle_counting: true,
            ..Default::default()
        };
        let out = exact_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(1)).unwrap();
        assert_eq!(out.answer, sorted_rank(&values, 0.5));
        assert!(out.iterations <= 40);
    }

    #[test]
    fn finds_exact_quantiles_with_push_sum_counting() {
        let values: Vec<u64> = (0..400).map(|i| (i * 2654435761) % 1_000_003).collect();
        let cfg = KdgSelectionConfig::default();
        for (seed, phi) in [(2u64, 0.1f64), (3, 0.5), (4, 0.9)] {
            let out = exact_quantile(&values, phi, &cfg, EngineConfig::with_seed(seed)).unwrap();
            assert_eq!(out.answer, sorted_rank(&values, phi), "phi = {phi}");
        }
    }

    #[test]
    fn handles_duplicate_values() {
        let values: Vec<u64> = (0..300).map(|i| i % 10).collect();
        let cfg = KdgSelectionConfig {
            oracle_counting: true,
            ..Default::default()
        };
        let out = exact_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(5)).unwrap();
        assert_eq!(out.answer, sorted_rank(&values, 0.5));
    }

    #[test]
    fn extreme_quantiles() {
        let values: Vec<u64> = (0..256).map(|i| i * 3 + 1).collect();
        let cfg = KdgSelectionConfig {
            oracle_counting: true,
            ..Default::default()
        };
        let min = exact_quantile(&values, 0.0, &cfg, EngineConfig::with_seed(6)).unwrap();
        assert_eq!(min.answer, 1);
        let max = exact_quantile(&values, 1.0, &cfg, EngineConfig::with_seed(7)).unwrap();
        assert_eq!(max.answer, 255 * 3 + 1);
    }

    #[test]
    fn round_count_scales_quadratically_in_log_n() {
        // Not a precise asymptotic test, just the E1 "shape": rounds grow
        // clearly faster than a single log factor.
        let cfg = KdgSelectionConfig {
            oracle_counting: true,
            ..Default::default()
        };
        let run = |n: usize, seed: u64| {
            let values: Vec<u64> = (0..n as u64).map(|i| (i * 48271) % 1_000_000_007).collect();
            exact_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(seed))
                .unwrap()
                .rounds
        };
        let small = run(1 << 8, 8);
        let large = run(1 << 12, 9);
        assert!(
            large > small,
            "rounds should grow with n: {small} vs {large}"
        );
    }

    #[test]
    fn tolerates_failures() {
        let values: Vec<u64> = (0..300).map(|i| i * 13 % 4096).collect();
        let cfg = KdgSelectionConfig {
            spread_rounds: SpreadRounds::LogarithmicWithFactor(8.0),
            counting_rounds: Some(150),
            ..Default::default()
        };
        let engine_config = EngineConfig::with_seed(10)
            .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.2).unwrap()));
        let out = exact_quantile(&values, 0.5, &cfg, engine_config).unwrap();
        assert_eq!(out.answer, sorted_rank(&values, 0.5));
        assert!(out.metrics.failed_operations > 0);
    }
}
