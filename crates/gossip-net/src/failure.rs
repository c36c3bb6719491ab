//! Failure models (Section 5 of the paper).
//!
//! The paper's robustness model: every node `v` in every round `i` is
//! associated with a pre-determined probability `p_{v,i} <= mu < 1`; during
//! round `i` node `v` fails to perform its operation (push or pull) with
//! probability `p_{v,i}`.

use crate::error::{GossipError, Result};
use crate::NodeId;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// A per-node, per-round transmission failure model.
///
/// A failed node performs nothing in the round in which it fails: its pull
/// returns nothing and its push is not delivered. Failures are sampled
/// independently across nodes and rounds, matching Section 5 of the paper.
#[derive(Clone, Default)]
pub enum FailureModel {
    /// No failures ever occur (the model of Sections 2–4).
    #[default]
    None,
    /// Every node fails in every round with the same probability `p`.
    Uniform(f64),
    /// Node `v` fails with probability `p[v]` in every round.
    PerNode(Arc<Vec<f64>>),
    /// Fully general `p_{v,i}`: a caller-supplied function of node and round.
    ///
    /// This is how an adversary choosing the (pre-determined) probabilities is
    /// simulated in the robustness experiments.
    Schedule(Arc<dyn Fn(NodeId, u64) -> f64 + Send + Sync>),
}

impl FailureModel {
    /// Uniform failure probability `p` for every node in every round.
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidProbability`] if `p` is not in `[0, 1)`.
    /// A probability of exactly 1 is rejected because the paper requires
    /// `mu < 1`.
    pub fn uniform(p: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&p) {
            return Err(GossipError::InvalidProbability {
                name: "failure probability",
                value: p,
            });
        }
        if p == 0.0 {
            Ok(FailureModel::None)
        } else {
            Ok(FailureModel::Uniform(p))
        }
    }

    /// Per-node failure probabilities; entry `v` applies to node `v` in every round.
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidProbability`] if any entry is not in `[0, 1)`.
    pub fn per_node(probabilities: Vec<f64>) -> Result<Self> {
        for &p in &probabilities {
            if !(0.0..1.0).contains(&p) {
                return Err(GossipError::InvalidProbability {
                    name: "per-node failure probability",
                    value: p,
                });
            }
        }
        Ok(FailureModel::PerNode(Arc::new(probabilities)))
    }

    /// Fully general schedule `p_{v,i}` given as a function of `(node, round)`.
    ///
    /// Values returned by the function are clamped to `[0, 1)`.
    pub fn schedule<F>(f: F) -> Self
    where
        F: Fn(NodeId, u64) -> f64 + Send + Sync + 'static,
    {
        FailureModel::Schedule(Arc::new(f))
    }

    /// The failure probability of node `node` in round `round`.
    pub fn probability(&self, node: NodeId, round: u64) -> f64 {
        match self {
            FailureModel::None => 0.0,
            FailureModel::Uniform(p) => *p,
            FailureModel::PerNode(ps) => ps.get(node).copied().unwrap_or(0.0),
            FailureModel::Schedule(f) => f(node, round).clamp(0.0, 0.999_999_999),
        }
    }

    /// Samples whether node `node` fails its operation in round `round`.
    pub fn fails<R: Rng>(&self, node: NodeId, round: u64, rng: &mut R) -> bool {
        let p = self.probability(node, round);
        if p <= 0.0 {
            false
        } else {
            rng.gen::<f64>() < p
        }
    }

    /// An upper bound `mu` on the failure probability, if one can be computed cheaply.
    ///
    /// Used by the robust algorithms to size their per-iteration pull counts
    /// `Theta(1/(1-mu) * log(1/(1-mu)))`. For [`FailureModel::Schedule`] the
    /// caller must supply `mu` explicitly, so `None` is returned.
    pub fn mu_upper_bound(&self) -> Option<f64> {
        match self {
            FailureModel::None => Some(0.0),
            FailureModel::Uniform(p) => Some(*p),
            FailureModel::PerNode(ps) => Some(ps.iter().copied().fold(0.0, f64::max)),
            FailureModel::Schedule(_) => None,
        }
    }

    /// Whether this model can never produce a failure.
    pub fn is_reliable(&self) -> bool {
        matches!(self, FailureModel::None)
    }

    /// Canonicalises models that can never fire into [`FailureModel::None`].
    ///
    /// [`FailureModel::uniform`] already returns `None` for `p = 0`, but the
    /// enum variants are public, so `FailureModel::Uniform(0.0)` (and an
    /// all-zero [`FailureModel::PerNode`]) can be constructed directly — and
    /// would steer the engine onto its per-node coin path for a probability
    /// that can never fire. The engine normalises its model at construction
    /// so those models run the no-fault instantiation of its round bodies.
    /// [`FailureModel::Schedule`] cannot be inspected and is left as-is.
    pub fn normalized(self) -> Self {
        match &self {
            FailureModel::Uniform(p) if *p <= 0.0 => FailureModel::None,
            FailureModel::PerNode(ps) if ps.iter().all(|&p| p <= 0.0) => FailureModel::None,
            _ => self,
        }
    }
}

impl fmt::Debug for FailureModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureModel::None => write!(f, "FailureModel::None"),
            FailureModel::Uniform(p) => write!(f, "FailureModel::Uniform({p})"),
            FailureModel::PerNode(ps) => {
                write!(
                    f,
                    "FailureModel::PerNode(n={}, mu={:?})",
                    ps.len(),
                    self.mu_upper_bound()
                )
            }
            FailureModel::Schedule(_) => write!(f, "FailureModel::Schedule(<fn>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_rejects_out_of_range() {
        assert!(FailureModel::uniform(-0.1).is_err());
        assert!(FailureModel::uniform(1.0).is_err());
        assert!(FailureModel::uniform(1.5).is_err());
        assert!(FailureModel::uniform(0.0).is_ok());
        assert!(FailureModel::uniform(0.99).is_ok());
    }

    #[test]
    fn uniform_zero_is_reliable() {
        let m = FailureModel::uniform(0.0).unwrap();
        assert!(m.is_reliable());
        assert_eq!(m.mu_upper_bound(), Some(0.0));
    }

    #[test]
    fn normalized_collapses_never_firing_models() {
        assert!(FailureModel::Uniform(0.0).normalized().is_reliable());
        assert!(FailureModel::Uniform(-0.5).normalized().is_reliable());
        assert!(!FailureModel::Uniform(0.1).normalized().is_reliable());
        assert!(FailureModel::PerNode(Arc::new(vec![0.0; 8]))
            .normalized()
            .is_reliable());
        assert!(!FailureModel::per_node(vec![0.0, 0.2])
            .unwrap()
            .normalized()
            .is_reliable());
        // Schedules are opaque and must be preserved even when always-zero.
        let sched = FailureModel::schedule(|_, _| 0.0).normalized();
        assert!(matches!(sched, FailureModel::Schedule(_)));
    }

    #[test]
    fn per_node_validates_and_reports_mu() {
        assert!(FailureModel::per_node(vec![0.1, 1.2]).is_err());
        let m = FailureModel::per_node(vec![0.1, 0.5, 0.3]).unwrap();
        assert_eq!(m.mu_upper_bound(), Some(0.5));
        assert_eq!(m.probability(1, 0), 0.5);
        // Out-of-range nodes never fail.
        assert_eq!(m.probability(17, 0), 0.0);
    }

    #[test]
    fn none_never_fails() {
        let m = FailureModel::None;
        let mut rng = SmallRng::seed_from_u64(1);
        assert!((0..1000).all(|r| !m.fails(0, r, &mut rng)));
    }

    #[test]
    fn uniform_failure_frequency_is_close_to_p() {
        let m = FailureModel::uniform(0.3).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let trials = 20_000;
        let failures = (0..trials).filter(|&r| m.fails(0, r, &mut rng)).count();
        let rate = failures as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn schedule_uses_node_and_round() {
        let m =
            FailureModel::schedule(|node, round| if node == 0 && round < 5 { 0.9999 } else { 0.0 });
        assert!(m.probability(0, 0) > 0.99);
        assert_eq!(m.probability(1, 0), 0.0);
        assert_eq!(m.probability(0, 5), 0.0);
        assert_eq!(m.mu_upper_bound(), None);
        let mut rng = SmallRng::seed_from_u64(7);
        // With p clamped just below 1, failures are overwhelmingly likely.
        let fails = (0..100).filter(|_| m.fails(0, 0, &mut rng)).count();
        assert!(fails > 90);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", FailureModel::None).is_empty());
        assert!(!format!("{:?}", FailureModel::uniform(0.25).unwrap()).is_empty());
        assert!(!format!("{:?}", FailureModel::per_node(vec![0.1]).unwrap()).is_empty());
        assert!(!format!("{:?}", FailureModel::schedule(|_, _| 0.0)).is_empty());
    }
}
