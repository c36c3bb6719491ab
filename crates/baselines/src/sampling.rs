//! Naive quantile approximation by independent sampling.
//!
//! Section 1 ("Technical Summary") of the paper: sampling `Θ(log n / ε²)`
//! values uniformly and independently at random and taking the φ-quantile of
//! the sample gives an ε-approximation of the φ-quantile with high
//! probability. Since a node can sample one value per round, this is an
//! `O(log n / ε²)`-round algorithm with `O(log n)`-bit messages — the
//! strawman that the tournament algorithms beat exponentially in `1/ε`.

use gossip_net::{Engine, EngineConfig, GossipError, Metrics, NodeValue, Result};

/// Returns the `⌈φ·m⌉`-th smallest element of a **sorted** non-empty slice
/// (the paper's definition of the φ-quantile), clamped to the valid range.
pub(crate) fn empirical_quantile<V: Copy>(sorted: &[V], phi: f64) -> V {
    debug_assert!(!sorted.is_empty());
    let m = sorted.len();
    let rank = (phi * m as f64).ceil() as usize;
    let rank = rank.clamp(1, m);
    sorted[rank - 1]
}

/// Configuration of the sampling baseline.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Target additive quantile error ε.
    pub epsilon: f64,
    /// Multiplier `c` in the sample size `⌈c · ln n / ε²⌉`.
    pub sample_factor: f64,
    /// Hard cap on the number of samples (= rounds), to keep runs bounded.
    pub max_samples: usize,
}

impl SamplingConfig {
    /// Configuration targeting additive error `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidParameter`] if `epsilon` is not in `(0, 1)`.
    pub fn new(epsilon: f64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(GossipError::InvalidParameter {
                name: "epsilon",
                reason: format!("must be in (0, 1), got {epsilon}"),
            });
        }
        Ok(SamplingConfig {
            epsilon,
            sample_factor: 2.0,
            max_samples: 1 << 16,
        })
    }

    /// Number of samples (and therefore rounds) for a network of `n` nodes.
    pub fn samples_for(&self, n: usize) -> usize {
        let n = n.max(2) as f64;
        let s = (self.sample_factor * n.ln() / (self.epsilon * self.epsilon)).ceil() as usize;
        s.clamp(1, self.max_samples)
    }
}

/// Result of the sampling baseline.
#[derive(Debug, Clone)]
pub struct SamplingOutcome<V> {
    /// Per-node estimate of the φ-quantile.
    pub estimates: Vec<V>,
    /// Rounds executed (equal to the per-node sample count).
    pub rounds: u64,
    /// Communication metrics.
    pub metrics: Metrics,
}

/// Every node estimates the φ-quantile of `values` by uniform sampling.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given, or
/// [`GossipError::InvalidParameter`] if `phi` is not in `[0, 1]`.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn approximate_quantile<V: NodeValue>(
    values: &[V],
    phi: f64,
    config: &SamplingConfig,
    engine_config: EngineConfig,
) -> Result<SamplingOutcome<V>> {
    if values.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: values.len(),
        });
    }
    if !(0.0..=1.0).contains(&phi) {
        return Err(GossipError::InvalidParameter {
            name: "phi",
            reason: format!("must be in [0, 1], got {phi}"),
        });
    }
    let k = config.samples_for(values.len());
    let mut engine = Engine::try_from_states(values.to_vec(), engine_config)?;
    engine.sample_step(
        k,
        k,
        |_| true,
        |_, &v| v,
        |_, state, _, samples| {
            // Undelivered samples sort first. A node whose every pull failed
            // keeps its own value; with k = Ω(log n) samples this happens with
            // probability ≤ mu^k.
            samples.sort_unstable();
            let delivered = &samples[samples.partition_point(Option::is_none)..];
            if !delivered.is_empty() {
                *state = empirical_quantile(delivered, phi).expect("a delivered sample");
            }
        },
    );
    let metrics = engine.metrics();
    Ok(SamplingOutcome {
        estimates: engine.into_states(),
        rounds: k as u64,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_quantile_matches_definition() {
        let sorted: Vec<u64> = (1..=10).collect();
        // ⌈0.5·10⌉ = 5th smallest = 5.
        assert_eq!(empirical_quantile(&sorted, 0.5), 5);
        assert_eq!(empirical_quantile(&sorted, 0.0), 1);
        assert_eq!(empirical_quantile(&sorted, 1.0), 10);
        assert_eq!(empirical_quantile(&sorted, 0.05), 1);
        assert_eq!(empirical_quantile(&sorted, 0.11), 2);
    }

    #[test]
    fn config_validates_epsilon() {
        assert!(SamplingConfig::new(0.0).is_err());
        assert!(SamplingConfig::new(1.0).is_err());
        assert!(SamplingConfig::new(0.1).is_ok());
    }

    #[test]
    fn sample_count_grows_with_accuracy() {
        let coarse = SamplingConfig::new(0.2).unwrap();
        let fine = SamplingConfig::new(0.02).unwrap();
        assert!(coarse.samples_for(1000) < fine.samples_for(1000));
    }

    #[test]
    fn rejects_bad_phi_and_tiny_networks() {
        let cfg = SamplingConfig::new(0.1).unwrap();
        assert!(approximate_quantile(&[1u64, 2], 1.5, &cfg, EngineConfig::with_seed(0)).is_err());
        assert!(approximate_quantile(&[1u64], 0.5, &cfg, EngineConfig::with_seed(0)).is_err());
    }

    #[test]
    fn median_estimate_is_close_for_uniform_values() {
        let values: Vec<u64> = (0..5000).collect();
        let cfg = SamplingConfig::new(0.05).unwrap();
        let out = approximate_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(11)).unwrap();
        assert_eq!(out.rounds as usize, cfg.samples_for(5000));
        // Every node's estimate should be within ~2ε·n ranks of the median.
        let n = values.len() as f64;
        for &e in &out.estimates {
            let rank = e as f64 / n; // values are 0..n, so value == rank here
            assert!((rank - 0.5).abs() < 0.1, "rank {rank}");
        }
    }

    #[test]
    fn extreme_quantiles_are_supported() {
        let values: Vec<u64> = (0..2000).collect();
        let cfg = SamplingConfig::new(0.1).unwrap();
        let lo = approximate_quantile(&values, 0.0, &cfg, EngineConfig::with_seed(3)).unwrap();
        let hi = approximate_quantile(&values, 1.0, &cfg, EngineConfig::with_seed(4)).unwrap();
        for &e in &lo.estimates {
            assert!(e < 400);
        }
        for &e in &hi.estimates {
            assert!(e > 1600);
        }
    }
}
