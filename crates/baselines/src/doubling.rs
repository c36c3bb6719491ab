//! The buffer-doubling sampling algorithm of Appendix A.
//!
//! Each node `v` maintains a multiset buffer `S_v`, initialised with one
//! uniformly sampled value. In every round, `v` contacts a uniformly random
//! node `t(v)` and sets `S_v ← S_v ∪ S_{t(v)}`, so the buffer size roughly
//! doubles per round. After `O(log(log n / ε²)) = O(log log n + log 1/ε)`
//! rounds the buffer holds `Ω(log n / ε²)` values — not independent, but
//! (Lemma A.2) with multiplicities bounded well enough that the empirical
//! φ-quantile of the buffer is an ε-approximation w.h.p.
//!
//! The price is message size: whole buffers are exchanged, i.e.
//! `Θ(log² n / ε²)` bits per message. This trade-off is what experiment E8
//! measures against the `O(log n)`-bit tournament algorithm.

use crate::sampling::empirical_quantile;
use gossip_net::{Engine, EngineConfig, GossipError, Metrics, NodeValue, Result};

/// Configuration of the doubling algorithm.
#[derive(Debug, Clone)]
pub struct DoublingConfig {
    /// Target additive quantile error ε.
    pub epsilon: f64,
    /// Multiplier `c` in the target buffer size `⌈c · ln n / ε²⌉`.
    pub buffer_factor: f64,
    /// Hard cap on the per-node buffer size, to bound memory in experiments.
    pub max_buffer: usize,
}

impl DoublingConfig {
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
        Ok(DoublingConfig {
            epsilon,
            buffer_factor: 2.0,
            max_buffer: 1 << 16,
        })
    }

    /// Target buffer size for a network of `n` nodes.
    pub fn target_buffer_size(&self, n: usize) -> usize {
        let n = n.max(2) as f64;
        let s = (self.buffer_factor * n.ln() / (self.epsilon * self.epsilon)).ceil() as usize;
        s.clamp(2, self.max_buffer)
    }
}

/// Result of the doubling algorithm.
#[derive(Debug, Clone)]
pub struct DoublingOutcome<V> {
    /// Per-node estimate of the φ-quantile.
    pub estimates: Vec<V>,
    /// Rounds executed (1 seeding round + the doubling rounds).
    pub rounds: u64,
    /// Communication metrics. `metrics.max_message_bits` exposes the
    /// `Θ(log² n/ε²)`-bit messages this algorithm needs.
    pub metrics: Metrics,
    /// The smallest per-node buffer size reached at the end.
    pub min_buffer_len: usize,
}

/// Every node estimates the φ-quantile of `values` with the doubling algorithm.
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
    config: &DoublingConfig,
    engine_config: EngineConfig,
) -> Result<DoublingOutcome<V>> {
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
    let target = config.target_buffer_size(values.len());

    // States: (own value, buffer). The buffer is seeded with one random pull,
    // exactly as in Appendix A ("Before the first round, each node v samples a
    // random node t0(v) and sets S_v(0) = {t0(v)}").
    let states: Vec<(V, Vec<V>)> = values.iter().map(|&v| (v, Vec::new())).collect();
    let mut engine = Engine::try_from_states(states, engine_config)?;

    engine.pull_round(
        |_, (own, _)| *own,
        |_, (own, buf), pulled| buf.push(pulled.unwrap_or(*own)),
    );

    // Doubling rounds until every buffer reaches the target size (the round
    // count is data-independent in the failure-free case: ⌈log2 target⌉).
    let max_rounds = 2 * ((target as f64).log2().ceil() as u64 + 2);
    let mut rounds = 1u64;
    while rounds < 1 + max_rounds {
        let done = engine.states().iter().all(|(_, buf)| buf.len() >= target);
        if done {
            break;
        }
        engine.pull_round(
            |_, (_, buf)| buf.clone(),
            |_, (_, buf), pulled| {
                if let Some(mut other) = pulled {
                    buf.append(&mut other);
                    buf.truncate(4 * target); // keep memory bounded; beyond the target extra samples don't help
                }
            },
        );
        rounds += 1;
    }

    let metrics = engine.metrics();
    let states = engine.into_states();
    let min_buffer_len = states.iter().map(|(_, b)| b.len()).min().unwrap_or(0);
    let estimates = states
        .into_iter()
        .map(|(own, mut buf)| {
            if buf.is_empty() {
                own
            } else {
                buf.sort_unstable();
                empirical_quantile(&buf, phi)
            }
        })
        .collect();
    Ok(DoublingOutcome {
        estimates,
        rounds,
        metrics,
        min_buffer_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_epsilon() {
        assert!(DoublingConfig::new(0.0).is_err());
        assert!(DoublingConfig::new(0.5).is_ok());
    }

    #[test]
    fn runs_in_doubly_logarithmic_rounds() {
        let values: Vec<u64> = (0..4000).collect();
        let cfg = DoublingConfig::new(0.1).unwrap();
        let out = approximate_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(2)).unwrap();
        // target ≈ 2·ln(4000)/0.01 ≈ 1660; ⌈log2⌉ ≈ 11 rounds of doubling.
        assert!(out.rounds <= 30, "rounds = {}", out.rounds);
        assert!(out.min_buffer_len >= cfg.target_buffer_size(4000) / 2);
    }

    #[test]
    fn median_estimates_are_accurate() {
        let values: Vec<u64> = (0..4000).collect();
        let cfg = DoublingConfig::new(0.1).unwrap();
        let out = approximate_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(7)).unwrap();
        let n = values.len() as f64;
        for &e in &out.estimates {
            let rank = e as f64 / n;
            assert!((rank - 0.5).abs() <= 0.15, "rank {rank}");
        }
    }

    #[test]
    fn messages_are_much_larger_than_o_log_n() {
        let values: Vec<u64> = (0..2000).collect();
        let cfg = DoublingConfig::new(0.1).unwrap();
        let out = approximate_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(3)).unwrap();
        // The whole point of E8: the doubling algorithm ships buffers of
        // Θ(log n/ε²) values, i.e. tens of kilobits, vs 64-bit tournaments.
        assert!(
            out.metrics.max_message_bits > 10_000,
            "{}",
            out.metrics.max_message_bits
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        let cfg = DoublingConfig::new(0.1).unwrap();
        assert!(approximate_quantile(&[1u64], 0.5, &cfg, EngineConfig::with_seed(0)).is_err());
        assert!(approximate_quantile(&[1u64, 2], -0.1, &cfg, EngineConfig::with_seed(0)).is_err());
    }
}
