//! Push-sum aggregation (Kempe, Dobra, Gehrke; FOCS 2003).
//!
//! Every node `v` holds a pair `(s_v, w_v)`. In each round it splits both
//! components in half, keeps one half and pushes the other half to a uniformly
//! random node; received pairs are added component-wise. The estimate at node
//! `v` is `s_v / w_v`, which converges to `Σ s_u(0) / Σ w_u(0)` — the average
//! when all weights start at 1 — with relative error `ε` after
//! `O(log n + log 1/ε)` rounds with high probability.
//!
//! As in \[KDG03\], one run may carry several sums beside one shared
//! weight: state `(s₁, …, s_K, w)`, one message of `K + 1` numbers per push.
//! Every sum follows exactly the arithmetic, targets and fault coins of a run
//! of its own on the same seed, so each of its estimates is bit-identical to
//! that solo run's. An extra sum costs one number per message, where a second
//! run would cost its own rounds and two numbers per message.
//!
//! The quantile paper uses this primitive twice:
//! * Algorithm 3, Step 5 counts the ranks of the bracket's two ends ("the sum
//!   can be aggregated in O(log n) rounds" \[KDG03\]) in one run, through
//!   [`count_matching`] with two indicators per node;
//! * the `O(log² n)` baseline ([`crate::kdg_selection`]) counts ranks in every
//!   iteration.
//!
//! **Robustness.** Under the failure model of Section 5, a node that fails
//! simply does not split this round (its outgoing half is returned to it), so
//! the protocol's mass conservation invariant `Σ s_v = const`, `Σ w_v = const`
//! is preserved and only convergence speed degrades — matching the discussion
//! in \[KDG03\] and Section 5.2 of the paper. The same holds under churn: a
//! node held down keeps its staged half and takes it back at its next local
//! step.

use gossip_net::{Engine, EngineConfig, GossipError, MessageSize, Metrics, Result};
use std::fmt::Debug;

/// The sums one push-sum run carries beside its shared weight: one `f64`, or
/// `[f64; K]` for `K` sums in the same messages.
pub trait Sums: Copy + Debug + Send + Sync + MessageSize + 'static {
    /// Applies `f` to every sum.
    fn map(self, f: impl Fn(f64) -> f64) -> Self;
    /// Combines two sets of sums position by position.
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self;
}

impl Sums for f64 {
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        f(self)
    }
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        f(self, other)
    }
}

impl<const K: usize> Sums for [f64; K] {
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        std::array::from_fn(|i| f(self[i]))
    }
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        std::array::from_fn(|i| f(self[i], other[i]))
    }
}

/// What a node contributes to [`count_matching`]: whether it matches one
/// predicate (`bool`), or each of `K` predicates (`[bool; K]`), which one
/// run then counts together.
pub trait Indicator: Copy {
    /// The per-node count estimates: `f64`, or `[f64; K]`.
    type Counts: Sums;
    /// 1 where a predicate holds, 0 elsewhere.
    fn sums(self) -> Self::Counts;
}

impl Indicator for bool {
    type Counts = f64;
    fn sums(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
}

impl<const K: usize> Indicator for [bool; K] {
    type Counts = [f64; K];
    fn sums(self) -> [f64; K] {
        std::array::from_fn(|i| self[i].sums())
    }
}

/// State of one node during push-sum.
#[derive(Debug, Clone, Copy)]
struct PushSumState<S> {
    s: S,
    w: f64,
    out_s: S,
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
pub struct PushSumOutcome<S = f64> {
    /// Per-node estimates of the aggregate (average, sum or count depending on
    /// the entry point used), one per sum the run carried.
    pub estimates: Vec<S>,
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

fn run_push_sum<S: Sums>(
    initial: Vec<(S, f64)>,
    config: &PushSumConfig,
    engine_config: EngineConfig,
) -> Result<PushSumOutcome<S>> {
    let n = initial.len();
    let states: Vec<PushSumState<S>> = initial
        .into_iter()
        .map(|(s, w)| PushSumState {
            s,
            w,
            out_s: s.map(|_| 0.0),
            out_w: 0.0,
        })
        .collect();
    let mut engine = Engine::try_from_states(states, engine_config)?;
    let rounds = config.rounds_for(n);

    for _ in 0..rounds {
        // Local half-split into the outbox. A local step also runs at a node
        // that churn holds down, whose push round skipped `after`: it first
        // takes back the outbox it could not send (a no-op everywhere else,
        // since `after` empties every outbox it runs at).
        engine.local_step(|_, st, _rng| {
            st.s = st.s.zip(st.out_s, |s, o| s + o);
            st.w += st.out_w;
            st.out_s = st.s.map(|s| s / 2.0);
            st.out_w = st.w / 2.0;
            st.s = st.s.zip(st.out_s, |s, o| s - o);
            st.w -= st.out_w;
        });
        // Push the outbox; a failed push returns the mass to its owner so that
        // Σs and Σw are conserved exactly.
        engine.push_round(
            |_, st| Some((st.out_s, st.out_w)),
            |_, st, (ms, mw)| {
                st.s = st.s.zip(ms, |s, m| s + m);
                st.w += mw;
            },
            |_, st, delivered| {
                if !delivered {
                    st.s = st.s.zip(st.out_s, |s, o| s + o);
                    st.w += st.out_w;
                }
                st.out_s = st.out_s.map(|_| 0.0);
                st.out_w = 0.0;
            },
        );
    }

    let metrics = engine.metrics();
    let estimates = engine
        .states()
        .iter()
        .map(|st| st.s.map(|s| if st.w > 0.0 { s / st.w } else { 0.0 }))
        .collect();
    Ok(PushSumOutcome {
        estimates,
        rounds,
        metrics,
    })
}

/// Estimates the **average** of `values` at every node.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
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
    run_push_sum(
        values.iter().map(|&v| (v, 1.0)).collect(),
        config,
        engine_config,
    )
}

/// Estimates the **sum** of `values` at every node.
///
/// Following \[KDG03\], the weight 1 starts at a single designated node
/// (node 0) and all other weights start at 0, so `s/w` converges to the sum.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
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
    run_push_sum(initial, config, engine_config)
}

/// Estimates, at every node, the **number of nodes satisfying a predicate**
/// — or, with `[bool; K]` indicators, of each of `K` predicates in one run.
///
/// This is the "counting" use of push-sum from Algorithm 3, Step 5: nodes
/// matching the predicate contribute 1, the others 0, and the average is
/// scaled by `n` (every node knows `n` in the model). Each of `K` counts is
/// bit-identical to a one-predicate run on the same seed.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two indicator values are given.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn count_matching<I: Indicator>(
    indicators: &[I],
    config: &PushSumConfig,
    engine_config: EngineConfig,
) -> Result<PushSumOutcome<I::Counts>> {
    if indicators.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: indicators.len(),
        });
    }
    let n = indicators.len() as f64;
    let initial = indicators.iter().map(|i| (i.sums(), 1.0)).collect();
    let mut outcome = run_push_sum(initial, config, engine_config)?;
    for e in &mut outcome.estimates {
        *e = e.map(|c| c * n);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{ChurnModel, FailureModel, FaultPlan};

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
    fn shared_counts_equal_solo_runs_bit_for_bit() {
        // Two predicates in one run: each count is the solo run's, bit for
        // bit, in one 192-bit message per push instead of two 128-bit ones.
        let a: Vec<bool> = (0..1500).map(|i| i % 3 == 0).collect();
        let b: Vec<bool> = (0..1500).map(|i| i % 7 < 2).collect();
        let both: Vec<[bool; 2]> = a.iter().zip(&b).map(|(&x, &y)| [x, y]).collect();
        let plan = FaultPlan::none().with_churn(ChurnModel::with_rejoin(0.05, 3).unwrap());
        for config in [cfg(5), cfg(6).fault(plan)] {
            let config = || config.clone();
            let config_rounds = PushSumConfig::fixed_rounds(30);
            let shared = count_matching(&both, &config_rounds, config()).unwrap();
            let solo_a = count_matching(&a, &config_rounds, config()).unwrap();
            let solo_b = count_matching(&b, &config_rounds, config()).unwrap();
            for (i, e) in shared.estimates.iter().enumerate() {
                assert_eq!(e[0].to_bits(), solo_a.estimates[i].to_bits());
                assert_eq!(e[1].to_bits(), solo_b.estimates[i].to_bits());
            }
            assert_eq!(shared.metrics.rounds, solo_a.metrics.rounds);
            assert_eq!(
                shared.metrics.bits_delivered * 2,
                solo_a.metrics.bits_delivered * 3
            );
        }
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
        // With a 30% failure rate, or churn that holds 5% of the nodes down
        // for 3 rounds at a time, the estimate still converges (more slowly),
        // because a push that does not go out returns its mass to the sender.
        let values: Vec<f64> = (0..800).map(|i| (i % 10) as f64).collect();
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let config = PushSumConfig {
            rounds: Some(120),
            target_accuracy: 1e-6,
        };
        let failure = FaultPlan::none().with_failure(FailureModel::uniform(0.3).unwrap());
        let churn = FaultPlan::none().with_churn(ChurnModel::with_rejoin(0.05, 3).unwrap());
        for plan in [failure, churn] {
            let engine_config = EngineConfig::with_seed(9).fault(plan);
            let out = average(&values, &config, engine_config).unwrap();
            assert!(
                out.max_absolute_error(truth) < 0.05,
                "err {}",
                out.max_absolute_error(truth)
            );
            let m = out.metrics;
            assert!(m.failed_operations + m.crashed_operations > 0);
        }
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
