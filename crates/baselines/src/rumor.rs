//! Push–pull rumor spreading of extremal values.
//!
//! Algorithm 3 (Step 4) requires every node to learn the global minimum and
//! maximum of a set of values, which the paper attributes to classic rumor
//! spreading: "Since it takes O(log n) rounds to spread a message by
//! \[FG85, Pit87\], this step can be done in O(log n) rounds." Under failures
//! the same bound holds with a constant-factor slow-down \[ES09\].
//!
//! The implementation here spreads the minimum and maximum simultaneously
//! (the message is the pair `(min, max)`, still `O(log n)` bits) using
//! push–pull rounds.
//!
//! [`spread_rumor`] is the *single-rumor* process the classic analyses are
//! actually about: only **informed** nodes act, so round `r` touches
//! `~min(2^r·|sources|, n)` nodes. It runs on the engine's sparse
//! [`push_round_on`](gossip_net::Engine::push_round_on) path with the
//! informed set as the [`ActiveSet`], grown in place from each round's
//! receiver list — per-round engine cost proportional to the informed
//! population. Total push activity to inform *everyone* is still
//! `Θ(n log n)` (the coupon-collector tail rounds each have `≈ n` informed
//! senders; that lower bound is about messages, not simulation overhead) —
//! what the sparse path eliminates is the dense engine's `Θ(n)`-per-round
//! cost during the doubling phase, where only `2^r` nodes actually act.
//! ([`spread_min_max`] stays dense: in min/max aggregation every node holds
//! information from round 0, so there is no sparse phase to exploit.)

use gossip_net::{ActiveSet, Engine, EngineConfig, GossipError, Metrics, NodeValue, Result};

/// How long to run the spreading process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpreadRounds {
    /// Run exactly this many rounds (what a real deployment would do).
    Fixed(u64),
    /// Run `ceil(factor · log2 n)` rounds.
    LogarithmicWithFactor(f64),
}

impl Default for SpreadRounds {
    fn default() -> Self {
        // 4·log2 n push–pull rounds leave a per-node miss probability well
        // below 1/poly(n); with failures the caller should raise the factor
        // by 1/(1-mu).
        SpreadRounds::LogarithmicWithFactor(4.0)
    }
}

impl SpreadRounds {
    /// Number of rounds for a network of `n` nodes.
    ///
    /// The logarithmic budget **saturates** on pathological factors rather
    /// than trusting a raw `f64 → u64` cast: a `NaN` factor falls back to the
    /// one-round minimum, negative and sub-one products clamp to 1, and
    /// non-finite or `> u64::MAX` products clamp to `u64::MAX` (a budget the
    /// caller's loop will treat as "run forever", which is the honest reading
    /// of an infinite factor — not the wrapped/garbage count an unchecked
    /// cast could produce).
    pub fn rounds_for(&self, n: usize) -> u64 {
        match self {
            SpreadRounds::Fixed(r) => *r,
            SpreadRounds::LogarithmicWithFactor(f) => {
                let n = n.max(2) as f64;
                let rounds = (f * n.log2()).ceil();
                if rounds.is_nan() {
                    1
                } else if rounds >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    // In-range cast: rounds < 2^64 here, so only the lower
                    // clamp can fire.
                    rounds.max(1.0) as u64
                }
            }
        }
    }
}

/// Outcome of spreading the global minimum and maximum.
#[derive(Debug, Clone)]
pub struct SpreadOutcome<V> {
    /// Per-node belief about the global minimum after spreading.
    pub min_at: Vec<V>,
    /// Per-node belief about the global maximum after spreading.
    pub max_at: Vec<V>,
    /// Rounds executed.
    pub rounds: u64,
    /// Communication metrics.
    pub metrics: Metrics,
    /// Whether every node holds the true global extrema.
    pub complete: bool,
}

impl<V: NodeValue> SpreadOutcome<V> {
    /// The fraction of nodes that know both true extrema.
    pub fn coverage(&self, true_min: V, true_max: V) -> f64 {
        let n = self.min_at.len();
        let good = self
            .min_at
            .iter()
            .zip(&self.max_at)
            .filter(|(lo, hi)| **lo == true_min && **hi == true_max)
            .count();
        good as f64 / n as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct MinMaxState<V> {
    min: V,
    max: V,
}

/// Spreads the global minimum and maximum of `values` to every node by
/// push–pull gossip.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn spread_min_max<V: NodeValue>(
    values: &[V],
    rounds: SpreadRounds,
    engine_config: EngineConfig,
) -> Result<SpreadOutcome<V>> {
    if values.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: values.len(),
        });
    }
    let true_min = *values.iter().min().expect("non-empty");
    let true_max = *values.iter().max().expect("non-empty");
    let states: Vec<MinMaxState<V>> = values
        .iter()
        .map(|&v| MinMaxState { min: v, max: v })
        .collect();
    let mut engine = Engine::try_from_states(states, engine_config)?;
    let total_rounds = rounds.rounds_for(values.len());

    for _ in 0..total_rounds {
        engine.push_pull_round(
            |_, st| (st.min, st.max),
            |_, st, (lo, hi)| {
                if lo < st.min {
                    st.min = lo;
                }
                if hi > st.max {
                    st.max = hi;
                }
            },
        );
    }

    let metrics = engine.metrics();
    let states = engine.into_states();
    let min_at: Vec<V> = states.iter().map(|st| st.min).collect();
    let max_at: Vec<V> = states.iter().map(|st| st.max).collect();
    let complete = min_at.iter().all(|&m| m == true_min) && max_at.iter().all(|&m| m == true_max);
    Ok(SpreadOutcome {
        min_at,
        max_at,
        rounds: total_rounds,
        metrics,
        complete,
    })
}

/// Outcome of spreading a single rumor from a source set.
#[derive(Debug, Clone)]
pub struct RumorOutcome {
    /// Whether each node is informed after the run.
    pub informed: Vec<bool>,
    /// Number of informed nodes after each executed round (index 0 is the
    /// state *before* the first round, i.e. the source count) — the `~2^r`
    /// growth curve the paper's `O(log n)` spreading bound describes.
    pub informed_per_round: Vec<usize>,
    /// Rounds executed (stops early once everyone is informed).
    pub rounds: u64,
    /// Communication metrics. Push rounds here are **sparse**: the per-round
    /// active count is the informed-set size, so `metrics.active_push_nodes`
    /// is the area under the informed curve — near zero through the doubling
    /// phase, `≈ n` per round in the completion tail.
    pub metrics: Metrics,
    /// Whether every node was informed within the budget.
    pub complete: bool,
}

/// Spreads a single rumor from `sources` by **push** gossip in which only
/// informed nodes act: round `r` costs `O(informed_r)` engine work, not
/// `O(n)` — the textbook "`~2^r` informed nodes in round `r`" process
/// \[FG85, Pit87\], executed on the engine's sparse
/// [`push_round_on`](gossip_net::Engine::push_round_on) path with the
/// informed [`ActiveSet`] grown in place from each round's receiver list.
///
/// Stops as soon as every node is informed (or after `rounds.rounds_for(n)`
/// rounds, whichever is first).
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if `n < 2`, or
/// [`GossipError::InvalidParameter`] if `sources` is empty or names a node
/// `>= n`.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn spread_rumor(
    n: usize,
    sources: &[usize],
    rounds: SpreadRounds,
    engine_config: EngineConfig,
) -> Result<RumorOutcome> {
    if n < 2 {
        return Err(GossipError::TooFewNodes { requested: n });
    }
    if sources.is_empty() {
        return Err(GossipError::InvalidParameter {
            name: "sources",
            reason: "rumor spreading needs at least one source".to_string(),
        });
    }
    let states: Vec<bool> = {
        let mut informed = vec![false; n];
        for &s in sources {
            if s >= n {
                return Err(GossipError::InvalidParameter {
                    name: "sources",
                    reason: format!("source {s} is out of range for an {n}-node network"),
                });
            }
            informed[s] = true;
        }
        informed
    };
    let mut active = ActiveSet::from_members(n, sources.iter().copied())?;
    let mut engine = Engine::try_from_states(states, engine_config)?;
    let budget = rounds.rounds_for(n);
    let mut informed_per_round = vec![active.len()];

    let mut executed = 0u64;
    while executed < budget && active.len() < n {
        let out = engine.push_round_on(
            &active,
            // Every informed node pushes the one-bit rumor.
            |_, _| Some(true),
            |_, st, _| *st = true,
            |_, _, _| {},
        );
        executed += 1;
        active.union_sorted(&out.receivers);
        informed_per_round.push(active.len());
    }

    let metrics = engine.metrics();
    let informed = engine.into_states();
    let complete = active.len() == n;
    Ok(RumorOutcome {
        informed,
        informed_per_round,
        rounds: executed,
        metrics,
        complete,
    })
}

/// Spreads an arbitrary per-node `u64` tag together with an associated value,
/// keeping the pair with the **largest tag**. Used by
/// [`crate::kdg_selection`] to agree on a uniformly random pivot: every
/// candidate draws a random tag and the network converges on the value of the
/// tag-maximal candidate.
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two items are given.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn spread_max_tagged<V: NodeValue>(
    tagged: &[(u64, V)],
    rounds: SpreadRounds,
    engine_config: EngineConfig,
) -> Result<SpreadOutcome<(u64, V)>> {
    if tagged.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: tagged.len(),
        });
    }
    let mut engine = Engine::try_from_states(tagged.to_vec(), engine_config)?;
    let total_rounds = rounds.rounds_for(tagged.len());
    for _ in 0..total_rounds {
        engine.push_pull_round(
            |_, st| *st,
            |_, st, m| {
                if m > *st {
                    *st = m;
                }
            },
        );
    }
    let metrics = engine.metrics();
    let states = engine.into_states();
    let true_max = *tagged.iter().max().expect("non-empty");
    let complete = states.iter().all(|&s| s == true_max);
    Ok(SpreadOutcome {
        min_at: states.clone(),
        max_at: states,
        rounds: total_rounds,
        metrics,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{FailureModel, FaultPlan};

    #[test]
    fn rejects_tiny_networks() {
        assert!(
            spread_min_max::<u64>(&[3], SpreadRounds::default(), EngineConfig::with_seed(0))
                .is_err()
        );
    }

    #[test]
    fn spreads_both_extrema_to_every_node() {
        let values: Vec<u64> = (0..4096).map(|i| i * 7 + 13).collect();
        let out =
            spread_min_max(&values, SpreadRounds::default(), EngineConfig::with_seed(5)).unwrap();
        assert!(out.complete);
        assert_eq!(out.coverage(13, 4095 * 7 + 13), 1.0);
        // O(log n): 4·log2(4096) = 48 rounds.
        assert_eq!(out.rounds, 48);
        assert_eq!(out.metrics.max_message_bits, 128);
    }

    #[test]
    fn fixed_round_budget_is_respected() {
        let values: Vec<u64> = (0..64).collect();
        let out =
            spread_min_max(&values, SpreadRounds::Fixed(2), EngineConfig::with_seed(1)).unwrap();
        assert_eq!(out.rounds, 2);
        // Two rounds cannot inform 64 nodes.
        assert!(!out.complete);
        assert!(out.coverage(0, 63) < 1.0);
    }

    #[test]
    fn survives_constant_failure_probability() {
        let values: Vec<u64> = (0..2048).collect();
        let cfg = EngineConfig::with_seed(3)
            .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.4).unwrap()));
        // Inflate the round budget by 1/(1-mu) as the robust algorithms do.
        let out = spread_min_max(&values, SpreadRounds::LogarithmicWithFactor(8.0), cfg).unwrap();
        assert!(out.complete, "coverage {}", out.coverage(0, 2047));
    }

    #[test]
    fn tagged_spread_agrees_on_the_maximum_tag() {
        let tagged: Vec<(u64, u64)> = (0..512).map(|i| ((i * 2654435761) % 1000, i)).collect();
        let truth = *tagged.iter().max().unwrap();
        let out = spread_max_tagged(&tagged, SpreadRounds::default(), EngineConfig::with_seed(8))
            .unwrap();
        assert!(out.complete);
        assert!(out.max_at.iter().all(|&s| s == truth));
    }

    #[test]
    fn rounds_for_scales_logarithmically() {
        let r = SpreadRounds::LogarithmicWithFactor(3.0);
        assert_eq!(r.rounds_for(2), 3);
        assert_eq!(r.rounds_for(1 << 10), 30);
        assert_eq!(r.rounds_for(1 << 20), 60);
        assert_eq!(SpreadRounds::Fixed(7).rounds_for(1 << 20), 7);
    }

    #[test]
    fn rounds_for_saturates_on_pathological_factors() {
        // Non-finite and out-of-range factors must clamp, never wrap or
        // produce a garbage budget.
        assert_eq!(
            SpreadRounds::LogarithmicWithFactor(f64::NAN).rounds_for(1 << 10),
            1
        );
        assert_eq!(
            SpreadRounds::LogarithmicWithFactor(f64::INFINITY).rounds_for(1 << 10),
            u64::MAX
        );
        assert_eq!(
            SpreadRounds::LogarithmicWithFactor(f64::NEG_INFINITY).rounds_for(1 << 10),
            1
        );
        assert_eq!(
            SpreadRounds::LogarithmicWithFactor(-5.0).rounds_for(1 << 10),
            1
        );
        assert_eq!(SpreadRounds::LogarithmicWithFactor(0.0).rounds_for(4), 1);
        // Huge-but-finite factors land on the saturation ceiling too:
        // 1e30 · log2(1024) = 1e31 > u64::MAX.
        assert_eq!(
            SpreadRounds::LogarithmicWithFactor(1e30).rounds_for(1 << 10),
            u64::MAX
        );
        // Values just inside the range still round up normally.
        assert_eq!(SpreadRounds::LogarithmicWithFactor(0.05).rounds_for(4), 1);
        assert_eq!(SpreadRounds::LogarithmicWithFactor(1.5).rounds_for(4), 3);
    }

    #[test]
    fn rumor_reaches_everyone_and_counts_sparse_activity() {
        let n = 4096;
        let out = spread_rumor(
            n,
            &[17],
            SpreadRounds::default(),
            EngineConfig::with_seed(9),
        )
        .unwrap();
        assert!(out.complete);
        assert!(out.informed.iter().all(|&i| i));
        // O(log n) rounds with a healthy margin.
        assert!(out.rounds <= 48, "rounds = {}", out.rounds);
        // The growth curve starts at the source count, is monotone, and ends
        // at n.
        assert_eq!(out.informed_per_round[0], 1);
        assert!(out.informed_per_round.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*out.informed_per_round.last().unwrap(), n);
        // Sparse accounting: total push activity is the area under the
        // informed curve. The completion tail is coupon-collector (near-full
        // rounds), but the 2^r doubling phase is nearly free — so the total
        // is well below the dense n-per-round cost, and the first half of the
        // run is almost entirely saved.
        let m = out.metrics;
        assert_eq!(m.push_rounds, out.rounds);
        assert!(
            m.active_push_nodes < out.rounds * n as u64 * 3 / 4,
            "active pushes {} vs dense {}",
            m.active_push_nodes,
            out.rounds * n as u64
        );
        let first_half: usize = out.informed_per_round[..out.informed_per_round.len() / 2]
            .iter()
            .sum();
        assert!(
            (first_half as u64) < n as u64,
            "doubling phase touched {first_half} node-rounds"
        );
        assert!(m.max_active <= n as u64);
        // Doubling phase really is exponential at the start.
        assert!(out.informed_per_round[6] <= 64);
    }

    #[test]
    fn rumor_spreading_is_deterministic_and_stops_early() {
        let run = || {
            spread_rumor(
                2048,
                &[0, 1000],
                SpreadRounds::Fixed(10_000),
                EngineConfig::with_seed(4),
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.informed_per_round, b.informed_per_round);
        assert_eq!(a.rounds, b.rounds);
        // A huge Fixed budget still stops as soon as everyone is informed.
        assert!(a.complete);
        assert!(a.rounds < 60, "rounds = {}", a.rounds);
    }

    #[test]
    fn rumor_validates_inputs() {
        let cfg = EngineConfig::with_seed(0);
        assert!(spread_rumor(1, &[0], SpreadRounds::default(), cfg.clone()).is_err());
        assert!(spread_rumor(8, &[], SpreadRounds::default(), cfg.clone()).is_err());
        assert!(spread_rumor(8, &[8], SpreadRounds::default(), cfg).is_err());
    }

    #[test]
    fn rumor_respects_a_tight_round_budget() {
        let out = spread_rumor(
            1024,
            &[0],
            SpreadRounds::Fixed(3),
            EngineConfig::with_seed(2),
        )
        .unwrap();
        assert_eq!(out.rounds, 3);
        assert!(!out.complete);
        // At most 2^3 = 8 nodes can be informed after 3 push rounds.
        assert!(*out.informed_per_round.last().unwrap() <= 8);
    }
}
