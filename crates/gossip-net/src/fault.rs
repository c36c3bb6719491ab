//! Deterministic fault injection: churn, message loss, stragglers, and the
//! round-skip [`FailureModel`] composed into one [`FaultPlan`].
//!
//! The paper's Section 5 robustness model is a per-node, per-round failure
//! probability `p_{v,i} ≤ μ < 1` — a failed node silently skips its round.
//! Real deployments degrade in more ways than that, and a [`FaultPlan`]
//! models the three that matter for gossip round/accuracy bounds:
//!
//! * **crash-stop churn** ([`ChurnModel`]) — a node crashes and performs
//!   *nothing* from that round on, either permanently or until it rejoins
//!   after `k` rounds. The engine tracks the alive set round to round and
//!   intersects it with both dense rounds and sparse rounds' active sets;
//!   contacts *targeting* a crashed node are dropped in flight.
//! * **per-contact message loss** ([`LossModel`]) — an individual delivery is
//!   dropped with a probability drawn per `(sender, receiver, round)`. Unlike
//!   the failure model, the sender still acted: only this one message is
//!   lost, and the two directions of a push–pull round fail independently.
//! * **stragglers** ([`StragglerModel`]) — a push lands `d ≥ 1` rounds late.
//!   The engine buffers the contact and folds it into the first push-capable
//!   round at or after its due round, re-deriving the message from the
//!   sender's state *at arrival* (`make` is pure, so no message values cross
//!   rounds). Pull contacts never straggle: a pull is a request/response
//!   within one synchronous round, so a late reply is modelled as a lost one
//!   ([`LossModel`]).
//! * the existing [`FailureModel`] rides along as the plan's fourth
//!   combinator, unchanged.
//!
//! ## Determinism
//!
//! Every fault coin is drawn from its own counter-RNG stream
//! ([`NodeRng::STREAM_FAULT_CRASH`](crate::rng::NodeRng::STREAM_FAULT_CRASH),
//! [`STREAM_FAULT_LOSS`](crate::rng::NodeRng::STREAM_FAULT_LOSS),
//! [`STREAM_FAULT_DELAY`](crate::rng::NodeRng::STREAM_FAULT_DELAY)), disjoint
//! from the algorithm's round/local streams. Injecting faults therefore never
//! perturbs the algorithm's own coin flips, faulted runs are bit-identical
//! across thread counts, and a [`FaultPlan::none`] engine takes the exact
//! code paths (and golden trajectories) of an engine without the fault layer.
//!
//! ## Per-contact decision order
//!
//! For one contact, faults apply sender-side first, then channel, then
//! receiver-side: sender crashed → failure-model coin → target sampling →
//! straggler coin (push only) → loss coin → receiver crashed. Each stage uses
//! its own stream, so enabling one fault kind never re-keys another's coins.

use crate::error::{GossipError, Result};
use crate::failure::FailureModel;

/// Crash-stop churn: each alive node crashes with a fixed probability per
/// round, permanently or rejoining after a fixed downtime.
///
/// While down, a node performs nothing in a round — it neither pulls,
/// pushes, serves, nor folds, and a push round skips its `after` — and
/// contacts targeting it are dropped in flight (counted in
/// [`Metrics::messages_dropped`](crate::Metrics)). A local step is not a
/// round: it still runs at a down node, so an algorithm that stages a push
/// in a local step must take back a message the node could not send. A node
/// that rejoins resumes with the state it crashed with (crash-*stop*, not
/// crash-recovery with amnesia).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    crash_probability: f64,
    rejoin_after: Option<u64>,
}

impl ChurnModel {
    /// Permanent crash-stop churn: every alive node crashes with probability
    /// `crash_probability` per round and never comes back.
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidProbability`] unless
    /// `crash_probability ∈ [0, 1)`.
    pub fn crash_stop(crash_probability: f64) -> Result<Self> {
        validate_probability("crash_probability", crash_probability)?;
        Ok(ChurnModel {
            crash_probability,
            rejoin_after: None,
        })
    }

    /// Churn with rejoin: a crashed node is down for exactly `rejoin_after`
    /// rounds, then rejoins with its pre-crash state.
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidProbability`] unless
    /// `crash_probability ∈ [0, 1)`, or [`GossipError::InvalidParameter`] if
    /// `rejoin_after` is zero.
    pub fn with_rejoin(crash_probability: f64, rejoin_after: u64) -> Result<Self> {
        validate_probability("crash_probability", crash_probability)?;
        if rejoin_after == 0 {
            return Err(GossipError::InvalidParameter {
                name: "rejoin_after",
                reason: "a crashed node must stay down for at least one round".into(),
            });
        }
        Ok(ChurnModel {
            crash_probability,
            rejoin_after: Some(rejoin_after),
        })
    }

    /// Per-round crash probability of an alive node.
    pub fn crash_probability(&self) -> f64 {
        self.crash_probability
    }

    /// Downtime in rounds before a crashed node rejoins; `None` means the
    /// crash is permanent.
    pub fn rejoin_after(&self) -> Option<u64> {
        self.rejoin_after
    }

    /// Upper bound on the probability that churn disturbs one *contact*:
    /// either endpoint being down kills it (a crashed node performs no
    /// operation; a contact to a crashed node is dropped), so the bound is
    /// `1 − (1 − d)²` at the steady-state down fraction `d = k·p/(1 + k·p)`
    /// of the crash/rejoin renewal process (alive nodes crash at rate `p`
    /// and dwell `k` rounds down).
    ///
    /// `None` for crash-stop churn: permanent crashes accumulate, so no
    /// per-round bound `μ < 1` holds over time — callers should measure
    /// (adaptive schedules) instead.
    pub fn unavailability_bound(&self) -> Option<f64> {
        let k = self.rejoin_after? as f64;
        let down = k * self.crash_probability / (1.0 + k * self.crash_probability);
        Some(1.0 - (1.0 - down) * (1.0 - down))
    }
}

/// Per-contact message loss: a delivery is dropped in flight with probability
/// `drop_probability`, drawn independently per `(sender, receiver, round)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    drop_probability: f64,
}

impl LossModel {
    /// Loss with the given per-contact drop probability.
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidProbability`] unless
    /// `drop_probability ∈ [0, 1)`.
    pub fn uniform(drop_probability: f64) -> Result<Self> {
        validate_probability("drop_probability", drop_probability)?;
        Ok(LossModel { drop_probability })
    }

    /// Per-contact drop probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_probability
    }
}

/// Stragglers: a push-direction contact lands `d` rounds late, with
/// `d` drawn uniformly from `1..=max_delay`.
///
/// Delayed contacts are buffered by the engine and folded into the first
/// push-capable round (push or push–pull, dense or sparse) at or after their
/// due round; the message is re-derived from the sender's state at arrival.
/// If the receiver is down at arrival, or the sender has gone silent
/// (`make` returns `None`), the late message is dropped instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerModel {
    straggle_probability: f64,
    max_delay: u64,
}

impl StragglerModel {
    /// Stragglers with the given per-push probability and maximum delay.
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidProbability`] unless
    /// `straggle_probability ∈ [0, 1)`, or
    /// [`GossipError::InvalidParameter`] if `max_delay` is zero.
    pub fn uniform(straggle_probability: f64, max_delay: u64) -> Result<Self> {
        validate_probability("straggle_probability", straggle_probability)?;
        if max_delay == 0 {
            return Err(GossipError::InvalidParameter {
                name: "max_delay",
                reason: "a straggler must be delayed by at least one round".into(),
            });
        }
        Ok(StragglerModel {
            straggle_probability,
            max_delay,
        })
    }

    /// Probability that a push straggles.
    pub fn straggle_probability(&self) -> f64 {
        self.straggle_probability
    }

    /// Largest possible delay in rounds (delays are uniform on
    /// `1..=max_delay`).
    pub fn max_delay(&self) -> u64 {
        self.max_delay
    }
}

/// A composable, fully deterministic fault-injection plan: crash-stop churn,
/// per-contact message loss, stragglers, and the Section 5 [`FailureModel`],
/// in any combination.
///
/// Build one with the `with_*` combinators and hand it to
/// [`EngineConfig::fault`](crate::EngineConfig::fault):
///
/// ```
/// use gossip_net::{ChurnModel, FaultPlan, LossModel, StragglerModel};
///
/// # fn main() -> gossip_net::Result<()> {
/// let plan = FaultPlan::none()
///     .with_churn(ChurnModel::with_rejoin(0.01, 4)?)
///     .with_loss(LossModel::uniform(0.1)?)
///     .with_stragglers(StragglerModel::uniform(0.05, 3)?);
/// assert!(!plan.is_none());
/// # Ok(())
/// # }
/// ```
///
/// [`FaultPlan::none`] (the default) is guaranteed bit-identical to an
/// engine without the fault layer: the engine's golden trajectory pins run
/// against it unchanged.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    churn: Option<ChurnModel>,
    loss: Option<LossModel>,
    stragglers: Option<StragglerModel>,
    failure: FailureModel,
}

impl FaultPlan {
    /// The empty plan: no churn, no loss, no stragglers,
    /// [`FailureModel::None`].
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan can never inject anything.
    pub fn is_none(&self) -> bool {
        !self.is_disruptive() && self.failure.is_reliable()
    }

    /// Adds (or replaces) the churn combinator.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Adds (or replaces) the message-loss combinator.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Adds (or replaces) the straggler combinator.
    pub fn with_stragglers(mut self, stragglers: StragglerModel) -> Self {
        self.stragglers = Some(stragglers);
        self
    }

    /// Adds (or replaces) the round-skip failure-model combinator.
    pub fn with_failure(mut self, failure: FailureModel) -> Self {
        self.failure = failure;
        self
    }

    /// The churn combinator, if any.
    pub fn churn(&self) -> Option<&ChurnModel> {
        self.churn.as_ref()
    }

    /// The message-loss combinator, if any.
    pub fn loss(&self) -> Option<&LossModel> {
        self.loss.as_ref()
    }

    /// The straggler combinator, if any.
    pub fn stragglers(&self) -> Option<&StragglerModel> {
        self.stragglers.as_ref()
    }

    /// The round-skip failure model ([`FailureModel::None`] by default).
    pub fn failure(&self) -> &FailureModel {
        &self.failure
    }

    /// Whether the plan carries churn, loss, or stragglers — the fault kinds
    /// beyond the Section 5 [`FailureModel`]. The engine does not branch on
    /// it: every plan that is not [`FaultPlan::is_none`] runs the fault-aware
    /// instantiation of the engine's round bodies, whose churn, loss and
    /// straggler hooks stay inert when this is false.
    pub(crate) fn is_disruptive(&self) -> bool {
        self.churn.is_some() || self.loss.is_some() || self.stragglers.is_some()
    }

    /// Canonicalises the plan: combinators that can never fire are removed
    /// and the failure model is [normalised](FailureModel::normalized), so
    /// the engine's fast loops apply whenever they can.
    pub fn normalized(self) -> Self {
        FaultPlan {
            churn: self.churn.filter(|c| c.crash_probability > 0.0),
            loss: self.loss.filter(|l| l.drop_probability > 0.0),
            stragglers: self.stragglers.filter(|s| s.straggle_probability > 0.0),
            failure: self.failure.normalized(),
        }
    }

    /// Validates the plan against a network size at engine construction:
    /// a [`FailureModel::PerNode`] vector must have exactly `n` entries
    /// (a short vector used to be silently read as probability 0 for the
    /// missing tail).
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidParameter`] on a length mismatch.
    pub(crate) fn validate_for(&self, n: usize) -> Result<()> {
        if let FailureModel::PerNode(ps) = &self.failure {
            if ps.len() != n {
                return Err(GossipError::InvalidParameter {
                    name: "failure",
                    reason: format!(
                        "FailureModel::PerNode has {} probabilities for an {n}-node network",
                        ps.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// A conservative upper bound on the probability that any single
    /// operation is disturbed by this plan (failure skip, crash, loss, or
    /// delay), or `None` if a combinator's mass cannot be bounded. This is
    /// the `μ` of the paper's `O(1/(1−μ))` compensation — adaptive schedules
    /// measure it instead (see `quantile-gossip`'s `AdaptiveRoundBudget`),
    /// but a static bound is still useful for sizing an initial budget.
    pub fn mu_upper_bound(&self) -> Option<f64> {
        let failure_mu = self.failure.mu_upper_bound()?;
        // Union bound over the independent per-contact coins. Churn counts
        // the steady-state unavailability of *both* contact endpoints (see
        // [`ChurnModel::unavailability_bound`]) — its per-round crash coin
        // alone badly underestimates the disturbance because a crashed node
        // stays down for `k` consecutive rounds and also silently swallows
        // every contact addressed to it. Permanent (crash-stop) churn has no
        // bound at all: `None`.
        let churn_mu = match &self.churn {
            Some(c) => c.unavailability_bound()?,
            None => 0.0,
        };
        let mass = failure_mu
            + churn_mu
            + self.loss.map_or(0.0, |l| l.drop_probability)
            + self.stragglers.map_or(0.0, |s| s.straggle_probability);
        Some(mass.min(1.0))
    }
}

/// Probability parameters of the fault combinators live in `[0, 1)` — a
/// probability of exactly 1 would deterministically destroy every operation,
/// which is a configuration error, not a fault model.
fn validate_probability(name: &'static str, p: f64) -> Result<()> {
    if !(0.0..1.0).contains(&p) {
        return Err(GossipError::InvalidProbability { name, value: p });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn none_plan_is_none_and_not_disruptive() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert!(!plan.is_disruptive());
        assert_eq!(plan.mu_upper_bound(), Some(0.0));
        assert!(FaultPlan::default().is_none());
    }

    #[test]
    fn combinators_validate_their_probabilities() {
        assert!(ChurnModel::crash_stop(-0.1).is_err());
        assert!(ChurnModel::crash_stop(1.0).is_err());
        assert!(ChurnModel::with_rejoin(0.1, 0).is_err());
        assert!(LossModel::uniform(1.5).is_err());
        assert!(StragglerModel::uniform(0.2, 0).is_err());
        assert!(StragglerModel::uniform(f64::NAN, 2).is_err());
        let churn = ChurnModel::with_rejoin(0.25, 3).unwrap();
        assert_eq!(churn.crash_probability(), 0.25);
        assert_eq!(churn.rejoin_after(), Some(3));
        assert_eq!(ChurnModel::crash_stop(0.5).unwrap().rejoin_after(), None);
        assert_eq!(LossModel::uniform(0.3).unwrap().drop_probability(), 0.3);
        let lag = StragglerModel::uniform(0.1, 4).unwrap();
        assert_eq!(lag.straggle_probability(), 0.1);
        assert_eq!(lag.max_delay(), 4);
    }

    #[test]
    fn builders_compose_and_report() {
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::crash_stop(0.1).unwrap())
            .with_loss(LossModel::uniform(0.2).unwrap())
            .with_stragglers(StragglerModel::uniform(0.3, 2).unwrap())
            .with_failure(FailureModel::uniform(0.1).unwrap());
        assert!(!plan.is_none());
        assert!(plan.is_disruptive());
        assert!(plan.churn().is_some());
        assert!(plan.loss().is_some());
        assert!(plan.stragglers().is_some());
        assert!(!plan.failure().is_reliable());
        // Crash-stop churn makes the bound non-derivable: permanent crashes
        // accumulate past any per-round mu < 1.
        assert_eq!(plan.mu_upper_bound(), None);

        // With rejoin the churn mass is the two-endpoint steady-state
        // unavailability: d = k·p/(1 + k·p) = 1/6 at (p=0.1, k=2), so the
        // contact bound is 1 − (5/6)² = 11/36.
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap())
            .with_loss(LossModel::uniform(0.2).unwrap())
            .with_stragglers(StragglerModel::uniform(0.3, 2).unwrap())
            .with_failure(FailureModel::uniform(0.1).unwrap());
        let mu = plan.mu_upper_bound().unwrap();
        assert!((mu - (0.1 + 11.0 / 36.0 + 0.2 + 0.3)).abs() < 1e-12, "{mu}");
    }

    #[test]
    fn normalization_strips_never_firing_combinators() {
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::crash_stop(0.0).unwrap())
            .with_loss(LossModel::uniform(0.0).unwrap())
            .with_stragglers(StragglerModel::uniform(0.0, 5).unwrap())
            .with_failure(FailureModel::Uniform(0.0))
            .normalized();
        assert!(plan.is_none());
        // Firing combinators survive.
        let plan = FaultPlan::none()
            .with_loss(LossModel::uniform(0.4).unwrap())
            .normalized();
        assert!(plan.is_disruptive());
    }

    #[test]
    fn failure_only_plan_is_not_disruptive() {
        // A plan carrying only the Section 5 model is neither disruptive nor
        // none: the engine runs it through the fault-aware round bodies with
        // the churn, loss and straggler hooks inert (golden-pinned by the
        // `*_failures` scenarios).
        let plan = FaultPlan::none().with_failure(FailureModel::uniform(0.5).unwrap());
        assert!(!plan.is_disruptive());
        assert!(!plan.is_none());
        assert_eq!(plan.mu_upper_bound(), Some(0.5));
    }

    #[test]
    fn per_node_length_is_validated() {
        let plan =
            FaultPlan::none().with_failure(FailureModel::PerNode(Arc::new(vec![0.1, 0.2, 0.3])));
        assert!(plan.validate_for(3).is_ok());
        let err = plan.validate_for(5).unwrap_err();
        assert!(matches!(
            err,
            GossipError::InvalidParameter {
                name: "failure",
                ..
            }
        ));
        assert!(err.to_string().contains("3 probabilities"));
        // Other models pass at any n.
        assert!(FaultPlan::none().validate_for(100).is_ok());
    }

    #[test]
    fn mu_bound_is_capped_and_propagates_unbounded_schedules() {
        let plan = FaultPlan::none()
            .with_loss(LossModel::uniform(0.9).unwrap())
            .with_failure(FailureModel::uniform(0.9).unwrap());
        assert_eq!(plan.mu_upper_bound(), Some(1.0));
        let plan = FaultPlan::none().with_failure(FailureModel::schedule(|_, _| 0.1));
        assert_eq!(plan.mu_upper_bound(), None);
    }
}
