//! Exact φ-quantile computation in `O(log n)` rounds (Theorem 1.1,
//! Algorithm 3) and the interval-narrowing bootstrap behind Theorem 1.2.
//!
//! One narrowing iteration follows Algorithm 3 step by step:
//!
//! 1. every node computes an ε/2-approximation of the `(k/n − ε/2)`- and
//!    `(k/n + ε/2)`-quantiles of the current working values with the
//!    tournament algorithm ([`crate::approx::tournament_quantile`]);
//! 2. the minimum of the lower approximations and the maximum of the upper
//!    approximations are disseminated by push–pull rumor spreading (Step 4);
//! 3. the rank `R` of the minimum and the rank of the maximum (so the size
//!    of the bracket) are counted in one push-sum run whose messages carry
//!    both sums beside one shared weight, `(s_lo, s_hi, w)` (Step 5,
//!    \[KDG03\]);
//! 4. nodes whose value lies outside `[min, max]` become *valueless* (Step 6);
//! 5. every surviving value is duplicated `m` times — `m` the smallest power
//!    of two that brings the number of valued nodes up to a constant fraction
//!    of `n` — by a decentralized token splitting-and-scattering process
//!    (Step 7);
//! 6. the target rank is updated to `k ← m·(k − R + 1)` (Step 8).
//!
//! Each iteration multiplies the number of copies of every candidate value by
//! `m = Θ(1/ε)`, so after a constant number of iterations (for the paper's
//! polynomial ε) or `O(log n / log(1/ε))` iterations in general, only copies
//! of the answer remain inside the bracket and the algorithm stops with the
//! exact answer. Stopping earlier — as soon as at most `⌊ε·n⌋` candidate
//! values remain — yields the ε-approximation of Theorem 1.2 for arbitrarily
//! small ε.
//!
//! ## Rank codes
//!
//! A run sorts a copy of the inputs once, into a table of their distinct
//! values, and carries every working key as one `u64` code: the dense rank
//! of the key's value in that table, the holder node as a tag that keeps
//! keys distinct, and the value's message width; a valueless node is
//! `u64::MAX`. Codes order exactly as (value, tag) pairs do and charge the
//! same message bits (the value, a 64-bit tag and a presence bit), so the
//! tournaments, the bracket spread, the Step-6 cut and the counts compare
//! integers, and only the answer (and Step 7, whose tokens carry values) is
//! decoded. The layout holds fewer than 2²⁸ nodes and value widths below 256
//! bits; other inputs are refused with [`GossipError::InvalidParameter`].
//!
//! ## Scale substitution
//!
//! The paper sizes the duplication target as `n^{0.99}/2` valued nodes and the
//! per-iteration approximation parameter as `ε = n^{-0.05}/2`; both choices
//! only make sense asymptotically (at `n ≤ 2²²`, `n^{-0.05}/2 ≈ 0.25`). The
//! implementation keeps the same structure but uses a duplication target of
//! `0.7·n` valued nodes (so the answer's copy count grows by `Θ(1/ε)` per
//! iteration while tokens still fit) and an adaptive per-iteration ε of
//! `Θ(√(log n / n))` — the smallest value for which the tournament
//! concentration holds — which preserves the paper's behaviour of removing a
//! polynomial fraction of candidates per iteration.

use crate::approx::{tournament_quantile, TournamentConfig};
use crate::ranks::{rank, sort_distinct};
use baselines::push_sum::{self, PushSumConfig};
use baselines::rumor::SpreadRounds;
use gossip_net::{
    ActiveSet, Engine, EngineConfig, GossipError, MessageSize, Metrics, NodeValue, Result,
    SeedSequence,
};

/// A node's working key as one `u64`: `rank << 36 | tag << 8 | width`, or
/// [`Code::EMPTY`] for a valueless node (the paper's `x_v ← ∞`).
///
/// `rank` is the dense rank of the key's value among the inputs' distinct
/// values, `tag` the node that holds the key — which keeps all working keys
/// distinct, what lets Algorithm 3 reason about exact ranks — and `width` the
/// value's [`MessageSize::message_bits`]. Codes therefore order exactly as
/// (value, holder) pairs with valueless keys last, and a message costs what
/// the value and a 64-bit tag would: `1 + width + 64` bits, or 1 when
/// valueless. The layout holds fewer than 2²⁸ nodes and widths below 256
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Code(u64);

impl Code {
    /// A valueless node; above every valued code.
    const EMPTY: Code = Code(u64::MAX);
    /// The bound (exclusive) on ranks and tags, and so on `n`.
    const MAX_NODES: usize = 1 << 28;
    /// The bound (exclusive) on a value's message width.
    const MAX_WIDTH: u64 = 1 << 8;

    fn new(rank: usize, tag: usize, width: u64) -> Code {
        Code((rank as u64) << 36 | (tag as u64) << 8 | width)
    }

    fn rank(self) -> Option<usize> {
        (self != Code::EMPTY).then_some((self.0 >> 36) as usize)
    }
}

impl MessageSize for Code {
    fn message_bits(&self) -> u64 {
        match *self {
            Code::EMPTY => 1,
            Code(c) => 1 + (c & (Code::MAX_WIDTH - 1)) + 64,
        }
    }
}

/// Sorts a copy of `values` once: returns the table of their distinct
/// values in ascending order and node `v`'s initial code.
fn encode<V: NodeValue>(values: &[V]) -> Result<(Vec<V>, Vec<Code>)> {
    let n = values.len();
    if n >= Code::MAX_NODES {
        return Err(GossipError::InvalidParameter {
            name: "values",
            reason: format!("rank codes hold fewer than 2^28 nodes, got {n}"),
        });
    }
    let mut table = Vec::with_capacity(n);
    sort_distinct(values, &mut table);
    let keys = values
        .iter()
        .enumerate()
        .map(|(v, x)| code(&table, rank(&table, x), v))
        .collect::<Result<_>>()?;
    Ok((table, keys))
}

/// The code of the value `table[rank]` held by node `v`.
fn code<V: NodeValue>(table: &[V], rank: usize, v: usize) -> Result<Code> {
    let width = table[rank].message_bits();
    if width >= Code::MAX_WIDTH {
        return Err(GossipError::InvalidParameter {
            name: "values",
            reason: format!("rank codes hold message widths below 256 bits, got {width}"),
        });
    }
    Ok(Code::new(rank, v, width))
}

/// Configuration of the exact / narrowing quantile algorithm.
#[derive(Debug, Clone)]
pub struct NarrowingConfig {
    /// Per-iteration approximation parameter ε. `None` selects the adaptive
    /// default `min(0.1, 2·tournament_min_epsilon(n))`.
    pub iteration_epsilon: Option<f64>,
    /// Replace push-sum rank counting with an exact oracle (ablation only).
    pub oracle_counting: bool,
    /// Round budget of every rumor-spreading phase (Step 4).
    pub spread_rounds: SpreadRounds,
    /// Round budget of every push-sum counting phase (`None` = sized for an
    /// absolute error below 1/4, i.e. exact after rounding, w.h.p.).
    pub counting_rounds: Option<u64>,
    /// Safety cap on narrowing iterations.
    pub max_iterations: u64,
    /// Fraction of `n` that duplication aims to fill with valued nodes
    /// (the paper's `n^{0.99}/2`; see the module docs).
    pub duplication_target_fraction: f64,
    /// Configuration of the tournament sub-calls (Step 3).
    pub tournament: TournamentConfig,
}

impl Default for NarrowingConfig {
    fn default() -> Self {
        NarrowingConfig {
            iteration_epsilon: None,
            oracle_counting: false,
            spread_rounds: SpreadRounds::default(),
            counting_rounds: None,
            max_iterations: 80,
            duplication_target_fraction: 0.7,
            tournament: TournamentConfig::default(),
        }
    }
}

impl NarrowingConfig {
    /// The per-iteration ε used for a network of `n` nodes.
    pub fn iteration_epsilon_for(&self, n: usize) -> f64 {
        self.iteration_epsilon
            .unwrap_or_else(|| (2.0 * crate::approx::tournament_min_epsilon(n)).min(0.1))
            .clamp(1e-9, 0.1)
    }
}

/// Result of the exact (or narrowing) quantile computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactOutcome<V> {
    /// The computed value (identical at every node).
    pub answer: V,
    /// Narrowing iterations executed.
    pub iterations: u64,
    /// Total rounds executed across all sub-phases.
    pub rounds: u64,
    /// Aggregated communication metrics.
    pub metrics: Metrics,
}

/// Computes the **exact** φ-quantile — the `⌈φ·n⌉`-th smallest value — of
/// `values` (Theorem 1.1).
///
/// # Errors
///
/// Returns an error if fewer than two values are given, `φ ∉ [0, 1]`, the
/// inputs do not fit the rank-code layout (2²⁸ or more values, or a value of
/// 256 or more message bits), or the iteration cap is exhausted (which
/// indicates a mis-configured round budget).
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn exact_quantile<V: NodeValue>(
    values: &[V],
    phi: f64,
    config: &NarrowingConfig,
    engine_config: EngineConfig,
) -> Result<ExactOutcome<V>> {
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
    narrow_to_rank(values, target_rank, 0, config, engine_config)
}

/// Computes a value whose rank is within `tolerance` of `target_rank`
/// (`tolerance = 0` forces the exact answer). This is the shared machinery
/// behind [`exact_quantile`] and the small-ε branch of
/// [`crate::approx::approximate_quantile`].
pub(crate) fn narrow_to_rank<V: NodeValue>(
    values: &[V],
    target_rank: u64,
    tolerance: u64,
    config: &NarrowingConfig,
    engine_config: EngineConfig,
) -> Result<ExactOutcome<V>> {
    let n = values.len();
    if n < 2 {
        return Err(GossipError::TooFewNodes { requested: n });
    }
    if target_rank == 0 || target_rank > n as u64 {
        return Err(GossipError::InvalidParameter {
            name: "target_rank",
            reason: format!("must be in 1..={n}, got {target_rank}"),
        });
    }
    // Working keys: the rank code of node v's value, tagged with v.
    let (table, mut keys) = encode(values)?;
    let mut seeds = SeedSequence::new(engine_config.seed);
    // Every narrowing iteration spins up sub-engines; sharing one worker
    // pool (materialised here if the caller didn't supply one) keeps that
    // from re-spawning threads per iteration.
    let mut engine_config = engine_config;
    engine_config.ensure_pool_for(n);
    let sub = |seeds: &mut SeedSequence| engine_config.sub(seeds.next_seed());

    let eps = config.iteration_epsilon_for(n);
    let counting = PushSumConfig {
        rounds: config.counting_rounds,
        target_accuracy: 0.25 / n as f64,
    };

    let mut k = target_rank;
    let mut copies_per_candidate: u64 = 1; // M_{i-1} in the paper
    let mut metrics = Metrics::default();
    let mut rounds = 0u64;

    for iteration in 1..=config.max_iterations {
        let phi_center = k as f64 / n as f64;
        let phi_lo = (phi_center - eps / 2.0).max(0.0);
        let phi_hi = (phi_center + eps / 2.0).min(1.0);
        // When the ±ε/2 window spills past a boundary of [0, 1] the tournament
        // guarantee can no longer bracket the target rank from that side; use
        // the trivial (but always safe) bound instead: every node contributes
        // its own key, so the spread returns the global extremum.
        let lower_trivial = k as f64 <= eps / 2.0 * n as f64 + 1.0;
        let upper_trivial = k as f64 >= (1.0 - eps / 2.0) * n as f64 - 1.0;

        // Step 3: tournament approximations of the bracketing quantiles.
        let lower_outputs = if lower_trivial {
            keys.clone()
        } else {
            let lo_out = tournament_quantile(
                &keys,
                phi_lo,
                eps / 2.0,
                &config.tournament,
                sub(&mut seeds),
            )?;
            metrics = metrics + lo_out.metrics;
            rounds += lo_out.rounds;
            lo_out.outputs
        };
        let upper_outputs = if upper_trivial {
            keys.clone()
        } else {
            let hi_out = tournament_quantile(
                &keys,
                phi_hi,
                eps / 2.0,
                &config.tournament,
                sub(&mut seeds),
            )?;
            metrics = metrics + hi_out.metrics;
            rounds += hi_out.rounds;
            hi_out.outputs
        };

        // Step 4: spread min(lower approximations) and max(upper approximations).
        let (lo, hi, spread_rounds, spread_metrics) = spread_bracket(
            &lower_outputs,
            &upper_outputs,
            config.spread_rounds.rounds_for(n),
            sub(&mut seeds),
        )?;
        metrics = metrics + spread_metrics;
        rounds += spread_rounds;

        let lo_rank = match lo.rank() {
            Some(r) => r,
            // Degenerate (only possible under extreme failure rates): retry.
            None => continue,
        };

        // Step 5: count the ranks of `lo` and of `hi` in one push-sum. (`hi`
        // may legitimately be valueless when the upper window spilled past 1
        // and some nodes are valueless; `EMPTY` compares above every key, so
        // its count is then simply `n` — "no upper restriction".)
        let ([rank_lo, rank_hi], c_rounds, c_metrics) = count_at_most(
            &keys,
            [lo, hi],
            config.oracle_counting,
            &counting,
            sub(&mut seeds),
        )?;
        metrics = metrics + c_metrics;
        rounds += c_rounds;

        // Sanity: the bracket must contain the target rank. If counting or the
        // tournament misbehaved (possible only under heavy failures or at very
        // small n), skip the iteration rather than lose the answer.
        if rank_lo > k || rank_hi < k || rank_hi <= rank_lo {
            continue;
        }
        let bracket = rank_hi - rank_lo + 1;

        // Convergence (the analogue of the paper's final Step 10): the
        // invariant maintained below is that every key with rank in
        // `(k − copies, k]` carries the answer value, where `copies` is the
        // accumulated duplication factor. As soon as `lo` falls inside that
        // block — i.e. its exactly-counted rank satisfies `k − rank < copies`
        // — `lo`'s value *is* the answer. The same holds trivially when the
        // bracket spans a single distinct value.
        if k - rank_lo < copies_per_candidate || hi.rank() == Some(lo_rank) {
            return Ok(ExactOutcome {
                answer: table[lo_rank],
                iterations: iteration,
                rounds,
                metrics,
            });
        }

        // Early stop for the approximate (Theorem 1.2) regime: at most
        // `bracket / copies + 2` distinct original values remain in the
        // bracket, every one of them within that many ranks of the target.
        if tolerance > 0 && bracket / copies_per_candidate + 2 <= tolerance {
            return Ok(ExactOutcome {
                answer: table[lo_rank],
                iterations: iteration,
                rounds,
                metrics,
            });
        }

        // Step 6: nodes outside [lo, hi] become valueless.
        for key in keys.iter_mut() {
            if *key < lo || *key > hi {
                *key = Code::EMPTY;
            }
        }
        let valued = keys.iter().filter(|&&c| c != Code::EMPTY).count() as u64;
        if valued == 0 {
            // Cannot happen if the bracket checks above passed; defensive.
            continue;
        }

        // Step 7: duplicate every surviving value m times and scatter the
        // copies so that a constant fraction of nodes is valued again. `m` is
        // the smallest power of two strictly larger than target/valued (the
        // paper's rule), capped so the tokens always fit comfortably below n.
        let dup_target = (config.duplication_target_fraction * n as f64).max(1.0);
        let quotient = dup_target / valued as f64;
        let mut m: u64 = 1;
        while (m as f64) <= quotient {
            m *= 2;
        }
        while m > 1 && m * valued > (n as u64) * 9 / 10 {
            m /= 2;
        }
        // The tokens carry values: decode the keys, and re-encode what each
        // node is assigned by a binary search over the table.
        if m > 1 {
            let held: Vec<Option<V>> = keys.iter().map(|c| c.rank().map(|r| table[r])).collect();
            let (assigned, d_rounds, d_metrics) = distribute_tokens(&held, m, n, sub(&mut seeds))?;
            metrics = metrics + d_metrics;
            rounds += d_rounds;
            for (v, key) in keys.iter_mut().enumerate() {
                *key = match assigned[v] {
                    Some(x) => code(&table, rank(&table, &x), v)?,
                    None => Code::EMPTY,
                };
            }
        }

        // Step 8.
        k = m * (k - rank_lo + 1);
        copies_per_candidate = copies_per_candidate.saturating_mul(m);
    }

    Err(GossipError::RoundBudgetExceeded {
        budget: config.max_iterations,
        phase: "exact quantile narrowing iterations",
    })
}

/// Disseminates `min` of the first components and `max` of the second
/// components to every node by push–pull gossip (Step 4 of Algorithm 3).
fn spread_bracket(
    lower: &[Code],
    upper: &[Code],
    rounds: u64,
    engine_config: EngineConfig,
) -> Result<(Code, Code, u64, Metrics)> {
    let states: Vec<(Code, Code)> = lower.iter().copied().zip(upper.iter().copied()).collect();
    let mut engine = Engine::try_from_states(states, engine_config)?;
    for _ in 0..rounds {
        engine.push_pull_round(
            |_, st| *st,
            |_, st, (lo, hi)| {
                if lo < st.0 {
                    st.0 = lo;
                }
                if hi > st.1 {
                    st.1 = hi;
                }
            },
        );
    }
    let metrics = engine.metrics();
    // With the default budget every node has converged w.h.p.; the global
    // extrema (which are what every informed node holds) drive the rest of the
    // iteration.
    let lo = engine
        .states()
        .iter()
        .map(|s| s.0)
        .min()
        .expect("non-empty network");
    let hi = engine
        .states()
        .iter()
        .map(|s| s.1)
        .max()
        .expect("non-empty network");
    Ok((lo, hi, rounds, metrics))
}

/// Counts `#{keys ≤ bound}` for both bounds in one push-sum over
/// `(s_lo, s_hi, w)` (or exactly, for the ablation). Each count is the median
/// of the nodes' rounded estimates.
fn count_at_most(
    keys: &[Code],
    bounds: [Code; 2],
    oracle: bool,
    counting: &PushSumConfig,
    engine_config: EngineConfig,
) -> Result<([u64; 2], u64, Metrics)> {
    if oracle {
        let counts = bounds.map(|b| keys.iter().filter(|&&k| k <= b).count() as u64);
        return Ok((counts, 0, Metrics::default()));
    }
    let indicators: Vec<[bool; 2]> = keys.iter().map(|&k| bounds.map(|b| k <= b)).collect();
    let out = push_sum::count_matching(&indicators, counting, engine_config)?;
    let count = |i: usize| {
        let mut rounded: Vec<i64> = out.estimates.iter().map(|e| e[i].round() as i64).collect();
        // The median estimate: the element a sort would put in the middle, in O(n).
        let mid = rounded.len() / 2;
        (*rounded.select_nth_unstable(mid).1).max(0) as u64
    };
    Ok(([count(0), count(1)], out.rounds, out.metrics))
}

/// Token state used by the splitting-and-scattering process of Step 7.
#[derive(Debug, Clone)]
struct TokenState<V> {
    tokens: Vec<(V, u64)>,
    outbox: Option<(V, u64)>,
}

/// Duplicates every valued key `m` times and scatters the copies so that every
/// node ends up holding at most one copy (Step 7 of Algorithm 3).
///
/// Only **token holders** act in this process — initially the valued nodes
/// (`o(n)` of them in the regime Step 7 exists for), growing by each round's
/// push receivers — so every pass (the settled check, the outbox local step,
/// the push round itself) runs on the holder [`ActiveSet`] via the engine's
/// sparse primitives, at `O(|holders|)` per round instead of `O(n)`. The
/// active set is exactly the dense path's "`make` returned `Some`" sender
/// set, so the trajectory is bit-identical to a dense execution of the same
/// process.
///
/// `held[v]` is node `v`'s value, or `None` if it is valueless. Returns the
/// value assigned to every node (or `None` for nodes left valueless), the
/// number of rounds used, and the metrics.
fn distribute_tokens<V: NodeValue>(
    held: &[Option<V>],
    m: u64,
    n: usize,
    engine_config: EngineConfig,
) -> Result<(Vec<Option<V>>, u64, Metrics)> {
    debug_assert!(m.is_power_of_two());
    let states: Vec<TokenState<V>> = held
        .iter()
        .map(|x| TokenState {
            tokens: x.map(|x| (x, m)).into_iter().collect(),
            outbox: None,
        })
        .collect();
    // Nodes holding at least one token; holders never drop to zero tokens,
    // so the set only grows (by push receivers).
    let mut holders = ActiveSet::from_members(
        n,
        held.iter()
            .enumerate()
            .filter(|(_, x)| x.is_some())
            .map(|(v, _)| v),
    )?;
    let mut engine = Engine::try_from_states(states, engine_config)?;
    let max_rounds =
        8 * (n.max(2) as f64).log2().ceil() as u64 + 4 * (m as f64).log2().ceil() as u64 + 64;

    // One reusable per-round sender set: `clear` + `union_sorted` touch only
    // the members, so rebuilding it each round is O(|holders|), never O(n).
    let mut senders = ActiveSet::from_members(n, std::iter::empty())?;
    let mut sender_ids: Vec<usize> = Vec::new();
    let mut executed = 0u64;
    let budget_exceeded = loop {
        let settled = holders.iter().all(|v| {
            let st = &engine.states()[v];
            st.outbox.is_none() && st.tokens.len() <= 1 && st.tokens.iter().all(|&(_, w)| w == 1)
        });
        if settled {
            break false;
        }
        if executed >= max_rounds {
            break true;
        }
        // Local step over the holders only: pick what to send this round —
        // half of a heavy token, or a surplus token if the node holds more
        // than one. (Non-holders have nothing to send and an already-clear
        // outbox.) A holder that churn held down last round skipped `after`,
        // so it first takes back the token it could not send.
        engine.local_step_on(&holders, |_, st, _rng| {
            st.tokens.extend(st.outbox.take());
            if let Some(idx) = st.tokens.iter().position(|&(_, w)| w > 1) {
                let (value, weight) = st.tokens[idx];
                let half = weight / 2;
                st.tokens[idx] = (value, weight - half);
                st.outbox = Some((value, half));
            } else if st.tokens.len() > 1 {
                st.outbox = st.tokens.pop();
            }
        });
        // Senders this round: holders with a loaded outbox (already in
        // ascending order, so the sorted-union repopulation is a single
        // merge pass).
        sender_ids.clear();
        sender_ids.extend(
            holders
                .iter()
                .filter(|&v| engine.states()[v].outbox.is_some()),
        );
        senders.clear();
        senders.union_sorted(&sender_ids);
        let out = engine.push_round_on(
            &senders,
            |_, st| st.outbox,
            |_, st, token| st.tokens.push(token),
            |_, st, delivered| {
                if !delivered {
                    if let Some(token) = st.outbox.take() {
                        st.tokens.push(token);
                    }
                }
                st.outbox = None;
            },
        );
        holders.union_sorted(&out.receivers);
        executed += 1;
    };
    if budget_exceeded {
        return Err(GossipError::RoundBudgetExceeded {
            budget: max_rounds,
            phase: "token distribution (Algorithm 3, Step 7)",
        });
    }

    let metrics = engine.metrics();
    let assigned = engine
        .into_states()
        .into_iter()
        .map(|st| st.tokens.first().map(|&(v, _)| v))
        .collect();
    Ok((assigned, executed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{ChurnModel, FailureModel, FaultPlan, LossModel, OrderedF64};

    fn sorted_quantile(values: &[u64], phi: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = ((phi * values.len() as f64).ceil() as usize).clamp(1, values.len());
        sorted[rank - 1]
    }

    #[test]
    fn codes_order_as_value_then_holder_and_charge_the_value_and_a_tag() {
        let a = Code::new(10, 5, 64);
        let b = Code::new(10, 6, 64);
        let c = Code::new(11, 0, 32);
        // n < 2^28 keeps ranks and tags at most 2^28 - 2, below `EMPTY`.
        let top = Code::new(Code::MAX_NODES - 2, Code::MAX_NODES - 2, 255);
        assert!(a < b && b < c && c < top && top < Code::EMPTY);
        assert_eq!(
            (a.rank(), top.rank()),
            (Some(10), Some(Code::MAX_NODES - 2))
        );
        assert_eq!(Code::EMPTY.rank(), None);
        assert_eq!(a.message_bits(), 1 + 64 + 64);
        assert_eq!(c.message_bits(), 1 + 32 + 64);
        assert_eq!(Code::EMPTY.message_bits(), 1);
    }

    #[test]
    fn encoding_ranks_distinct_values_and_reads_both_zeros_as_one_code() {
        let zero = |x: f64| OrderedF64::new(x).unwrap();
        let values = [zero(2.5), zero(0.0), zero(-1.0), zero(-0.0), zero(2.5)];
        let (table, keys) = encode(&values).unwrap();
        let bits: Vec<u64> = table.iter().map(|x| x.get().to_bits()).collect();
        let expect = [-1.0f64, 0.0, 2.5].map(f64::to_bits);
        assert_eq!(bits, expect, "±0.0 (nodes 1 and 3) read as one entry, +0.0");
        let ranks: Vec<_> = keys.iter().map(|c| c.rank()).collect();
        assert_eq!(ranks, [2, 1, 0, 1, 2].map(Some));
        assert_eq!(keys[3], Code::new(1, 3, 64));
    }

    #[test]
    fn inputs_outside_the_code_layout_are_rejected() {
        /// A value wider than a code's width field holds.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct Wide(u64);
        impl MessageSize for Wide {
            fn message_bits(&self) -> u64 {
                256
            }
        }
        let cfg = NarrowingConfig::default();
        let wide: Vec<Wide> = (0..10).map(Wide).collect();
        let out = exact_quantile(&wide, 0.5, &cfg, EngineConfig::with_seed(0));
        assert!(matches!(
            out,
            Err(GossipError::InvalidParameter { name: "values", .. })
        ));
        // 2^28 zero-sized values: too many nodes, refused before any work.
        let many = vec![(); Code::MAX_NODES];
        let out = exact_quantile(&many, 0.5, &cfg, EngineConfig::with_seed(0));
        assert!(matches!(
            out,
            Err(GossipError::InvalidParameter { name: "values", .. })
        ));
    }

    #[test]
    fn zeros_of_both_signs_answer_positive_zero() {
        // 300 negative values, 100 zeros of alternating sign, 200 positive
        // ones; the median lies among the zeros, which read as +0.0.
        let sign = [-0.0f64, 0.0];
        for first in 0..2 {
            let values: Vec<OrderedF64> = (0..600)
                .map(|i| match i {
                    0..=299 => -1.0 - i as f64,
                    300..=399 => sign[(i + first) % 2],
                    _ => i as f64,
                })
                .map(|x| OrderedF64::new(x).unwrap())
                .collect();
            let cfg = NarrowingConfig::default();
            let out = exact_quantile(&values, 0.6, &cfg, EngineConfig::with_seed(first as u64));
            let answer = out.unwrap().answer.get();
            assert_eq!(answer.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let cfg = NarrowingConfig::default();
        assert!(exact_quantile(&[1u64], 0.5, &cfg, EngineConfig::with_seed(0)).is_err());
        assert!(exact_quantile(&[1u64, 2], 1.5, &cfg, EngineConfig::with_seed(0)).is_err());
        assert!(narrow_to_rank(&[1u64, 2], 0, 0, &cfg, EngineConfig::with_seed(0)).is_err());
        assert!(narrow_to_rank(&[1u64, 2], 3, 0, &cfg, EngineConfig::with_seed(0)).is_err());
    }

    #[test]
    fn exact_median_on_a_permutation() {
        let n = 4001u64;
        let values: Vec<u64> = (0..n).map(|i| (i * 48271) % 1_000_003).collect();
        let cfg = NarrowingConfig {
            oracle_counting: true,
            ..Default::default()
        };
        let out = exact_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(1)).unwrap();
        assert_eq!(out.answer, sorted_quantile(&values, 0.5));
        assert!(out.iterations <= 20, "iterations {}", out.iterations);
    }

    #[test]
    fn exact_quantiles_with_push_sum_counting() {
        let n = 3000u64;
        let values: Vec<u64> = (0..n).map(|i| (i * 2654435761) % 999_983).collect();
        let cfg = NarrowingConfig::default();
        for (seed, phi) in [(2u64, 0.1f64), (3, 0.5), (4, 0.95)] {
            let out = exact_quantile(&values, phi, &cfg, EngineConfig::with_seed(seed)).unwrap();
            assert_eq!(out.answer, sorted_quantile(&values, phi), "phi = {phi}");
        }
    }

    #[test]
    fn exact_works_with_duplicate_values() {
        let values: Vec<u64> = (0..2000).map(|i| i % 7).collect();
        let cfg = NarrowingConfig {
            oracle_counting: true,
            ..Default::default()
        };
        for (seed, phi) in [(5u64, 0.3f64), (6, 0.5), (7, 0.9)] {
            let out = exact_quantile(&values, phi, &cfg, EngineConfig::with_seed(seed)).unwrap();
            assert_eq!(out.answer, sorted_quantile(&values, phi), "phi = {phi}");
        }
    }

    #[test]
    fn extreme_ranks_are_exact() {
        let values: Vec<u64> = (0..1500).map(|i| i * 17 % 65_521).collect();
        let cfg = NarrowingConfig {
            oracle_counting: true,
            ..Default::default()
        };
        let min = exact_quantile(&values, 0.0, &cfg, EngineConfig::with_seed(8)).unwrap();
        assert_eq!(min.answer, *values.iter().min().unwrap());
        let max = exact_quantile(&values, 1.0, &cfg, EngineConfig::with_seed(9)).unwrap();
        assert_eq!(max.answer, *values.iter().max().unwrap());
    }

    #[test]
    fn narrowing_with_tolerance_is_within_bounds_and_faster() {
        let n = 8000u64;
        let values: Vec<u64> = (0..n).map(|i| (i * 104729) % 1_000_003).collect();
        let cfg = NarrowingConfig {
            oracle_counting: true,
            ..Default::default()
        };
        let exact = exact_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(10)).unwrap();
        let tol = 200u64;
        let approx =
            narrow_to_rank(&values, n / 2, tol, &cfg, EngineConfig::with_seed(10)).unwrap();
        // The approximate answer's rank is within the tolerance.
        let rank = values.iter().filter(|&&v| v <= approx.answer).count() as i64;
        assert!((rank - (n / 2) as i64).unsigned_abs() <= tol, "rank {rank}");
        assert!(approx.rounds <= exact.rounds);
    }

    #[test]
    fn token_distribution_activity_tracks_holders_not_n() {
        // 8 valued keys over 4096 nodes, duplicated 16× = 128 tokens: every
        // round's participants are the token holders, so total push activity
        // is bounded by rounds × final-holder-count — far below rounds × n.
        let n = 4096usize;
        let keys: Vec<Option<u64>> = (0..n).map(|v| (v % 512 == 0).then_some(v as u64)).collect();
        let (assigned, rounds, metrics) =
            distribute_tokens(&keys, 16, n, EngineConfig::with_seed(6)).unwrap();
        assert_eq!(assigned.iter().filter(|a| a.is_some()).count(), 8 * 16);
        assert!(
            metrics.max_active <= 128,
            "max_active {}",
            metrics.max_active
        );
        assert!(
            metrics.active_nodes_total <= rounds * 128,
            "activity {} over {rounds} rounds",
            metrics.active_nodes_total
        );
    }

    #[test]
    fn token_distribution_conserves_copies() {
        let n = 1024usize;
        // 32 valued keys, to be duplicated 8x = 256 tokens over 1024 nodes.
        let keys: Vec<Option<u64>> = (0..n).map(|v| (v % 32 == 0).then_some(v as u64)).collect();
        let (assigned, rounds, _metrics) =
            distribute_tokens(&keys, 8, n, EngineConfig::with_seed(3)).unwrap();
        let placed: Vec<u64> = assigned.iter().filter_map(|a| *a).collect();
        assert_eq!(placed.len(), 32 * 8, "every copy placed on a distinct node");
        for orig in (0..n).step_by(32) {
            let copies = placed.iter().filter(|&&v| v == orig as u64).count();
            assert_eq!(copies, 8, "value {orig} has {copies} copies");
        }
        assert!(rounds > 0 && rounds < 200);
    }

    #[test]
    fn token_distribution_under_failures_still_conserves_copies() {
        let n = 512usize;
        let keys: Vec<Option<u64>> = (0..n).map(|v| (v % 16 == 0).then_some(v as u64)).collect();
        let failure = FaultPlan::none().with_failure(FailureModel::uniform(0.3).unwrap());
        let churn = FaultPlan::none()
            .with_churn(ChurnModel::with_rejoin(0.05, 3).unwrap())
            .with_loss(LossModel::uniform(0.1).unwrap());
        for plan in [failure, churn] {
            let cfg = EngineConfig::with_seed(4).fault(plan);
            let (assigned, _rounds, metrics) = distribute_tokens(&keys, 4, n, cfg).unwrap();
            let placed: Vec<u64> = assigned.iter().filter_map(|a| *a).collect();
            assert_eq!(placed.len(), 32 * 4);
            assert!(metrics.failed_operations + metrics.crashed_operations > 0);
        }
    }

    /// Theorem 1.1 as a claim: the answer equals the rank oracle's at every
    /// seed tried, without faults and under each fault plan.
    #[test]
    fn exact_answer_matches_the_rank_oracle_under_every_fault_plan() {
        let n = 2000u64;
        let loss = || LossModel::uniform(0.1).unwrap();
        let plans = [
            FaultPlan::none(),
            FaultPlan::none().with_loss(loss()),
            FaultPlan::none().with_failure(FailureModel::uniform(0.2).unwrap()),
            FaultPlan::none()
                .with_churn(ChurnModel::with_rejoin(0.05, 3).unwrap())
                .with_loss(loss()),
        ];
        for (p, plan) in plans.into_iter().enumerate() {
            // Distinct inputs, then a duplicate-heavy one (97 values).
            for (seed, phi, modulus) in [(31u64, 0.1, 4001), (32, 0.5, 4001), (33, 0.9, 97)] {
                let values: Vec<u64> = (0..n).map(|i| (i * 7919 + seed) % modulus).collect();
                let cfg = EngineConfig::with_seed(seed * 10 + p as u64).fault(plan.clone());
                let out = exact_quantile(&values, phi, &NarrowingConfig::default(), cfg);
                let answer = out.map(|o| o.answer);
                assert_eq!(
                    answer,
                    Ok(sorted_quantile(&values, phi)),
                    "plan {plan:?}, phi {phi}"
                );
            }
        }
    }

    #[test]
    fn iteration_epsilon_default_is_reasonable() {
        let cfg = NarrowingConfig::default();
        let e_small = cfg.iteration_epsilon_for(1 << 10);
        let e_large = cfg.iteration_epsilon_for(1 << 22);
        assert!(e_small >= e_large);
        assert!(e_large > 0.0 && e_small <= 0.1);
        let fixed = NarrowingConfig {
            iteration_epsilon: Some(0.03),
            ..Default::default()
        };
        assert_eq!(fixed.iteration_epsilon_for(1 << 20), 0.03);
    }
}
