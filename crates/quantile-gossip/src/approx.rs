//! ε-approximate φ-quantile computation (Theorems 1.2 and 2.1).
//!
//! Two regimes are composed here:
//!
//! * **Tournament regime** (`ε` at least polynomially large in `1/n`,
//!   Theorem 2.1): Phase I ([`crate::two_tournament`]) shifts the quantile
//!   band `[φ−ε, φ+ε]` to the median band, Phase II
//!   ([`crate::three_tournament`]) approximates the median of the shifted
//!   multiset. Total `O(log log n + log 1/ε)` rounds, `O(log n)`-bit messages.
//! * **Narrowing (bootstrap) regime** (arbitrarily small `ε`, Theorem 1.2):
//!   the tournament algorithm is only valid for `ε` above a polynomial
//!   threshold; below it, the interval-narrowing machinery of the exact
//!   algorithm ([`crate::exact`]) removes a polynomial fraction of candidate
//!   values per iteration and stops as soon as the remaining uncertainty is at
//!   most `ε·n` ranks.
//!
//! [`approximate_quantile`] dispatches between the two automatically;
//! [`tournament_quantile`] exposes the first regime directly.

use crate::exact::{self, NarrowingConfig};
use crate::schedule::{ThreeTournamentSchedule, TwoTournamentSchedule};
use crate::three_tournament::{self, FinalVote};
use crate::two_tournament;
use gossip_net::{EngineConfig, GossipError, Metrics, NodeValue, Result, SeedSequence};

/// The largest ε that the tournament analysis supports; larger requests are
/// clamped (a finer approximation is also a valid coarser one).
pub const MAX_TOURNAMENT_EPSILON: f64 = 0.125;

/// The smallest ε (as a function of `n`) for which the tournament regime is
/// used by default.
///
/// The paper proves validity for `ε = Ω(1/n^{0.096})` (Theorem 2.1) with very
/// loose constants; the binding practical constraint is the Chernoff
/// concentration of the tail masses, which requires `ε ≳ √(log n / n)`. The
/// default threshold is `6·√(ln n / n)`, which keeps every concentration
/// argument comfortable at laptop scales while being far below the paper's
/// own polynomial bound.
pub fn tournament_min_epsilon(n: usize) -> f64 {
    let n = n.max(4) as f64;
    (6.0 * (n.ln() / n).sqrt()).min(MAX_TOURNAMENT_EPSILON)
}

/// Configuration of the tournament (Theorem 2.1) regime.
#[derive(Debug, Clone, Copy, Default)]
pub struct TournamentConfig {
    /// The final `K`-sample vote of Algorithm 2.
    pub final_vote: FinalVote,
}

/// Which regime [`approximate_quantile`] should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Always use the tournament regime (Theorem 2.1).
    Tournament,
    /// Always use the interval-narrowing regime (Theorem 1.2 bootstrap).
    Narrowing,
    /// Pick automatically based on [`tournament_min_epsilon`] (default).
    #[default]
    Auto,
}

/// Configuration of [`approximate_quantile`].
#[derive(Debug, Clone, Default)]
pub struct ApproxConfig {
    /// Regime selection.
    pub method: Method,
    /// Parameters of the tournament regime.
    pub tournament: TournamentConfig,
    /// Parameters of the narrowing regime.
    pub narrowing: NarrowingConfig,
}

/// Which regime actually ran, with its iteration counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodUsed {
    /// The tournament regime ran with the given Phase I / Phase II iteration counts.
    Tournament {
        /// 2-TOURNAMENT iterations (Phase I).
        phase1_iterations: usize,
        /// 3-TOURNAMENT iterations (Phase II).
        phase2_iterations: usize,
    },
    /// The narrowing regime ran with the given number of bootstrap iterations.
    Narrowing {
        /// Bootstrap iterations executed.
        iterations: u64,
    },
}

/// Result of an approximate quantile computation.
#[derive(Debug, Clone)]
pub struct ApproxOutcome<V> {
    /// The value output by each node. Every output is a member of the input
    /// multiset with rank in `[(φ−ε)n, (φ+ε)n]` with high probability.
    pub outputs: Vec<V>,
    /// Total rounds executed.
    pub rounds: u64,
    /// Aggregated communication metrics.
    pub metrics: Metrics,
    /// Which regime ran.
    pub method: MethodUsed,
}

/// Runs the two-phase tournament algorithm of Theorem 2.1.
///
/// Requires `ε` to be large enough for the tournament analysis (see
/// [`tournament_min_epsilon`]); smaller values still run but their accuracy
/// guarantee degrades — use [`approximate_quantile`] to dispatch automatically.
///
/// # Errors
///
/// Returns an error if fewer than two values are given or `φ ∉ [0, 1]` /
/// `ε ≤ 0` / `ε` is NaN.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn tournament_quantile<V: NodeValue>(
    values: &[V],
    phi: f64,
    epsilon: f64,
    config: &TournamentConfig,
    engine_config: EngineConfig,
) -> Result<ApproxOutcome<V>> {
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
    if epsilon.is_nan() || epsilon <= 0.0 {
        return Err(GossipError::InvalidParameter {
            name: "epsilon",
            reason: format!("must be positive, got {epsilon}"),
        });
    }
    let eps = epsilon.min(MAX_TOURNAMENT_EPSILON);
    let mut seeds = SeedSequence::new(engine_config.seed);
    // Sub-phases inherit the failure model and share one worker pool
    // (materialised here if the caller didn't supply one), so each phase's
    // engine reuses the same threads.
    let mut engine_config = engine_config;
    engine_config.ensure_pool_for(values.len());
    let sub = |seeds: &mut SeedSequence| engine_config.sub(seeds.next_seed());

    // Phase I: shift [φ−ε, φ+ε] to the median band.
    let schedule1 = TwoTournamentSchedule::compute(phi, eps)?;
    let phase1 = two_tournament::run(values, &schedule1, sub(&mut seeds))?;

    // Phase II: approximate the median of the shifted multiset to within ε/4,
    // so that (Lemma 2.11) the output quantile lands inside the shifted band.
    let schedule2 = ThreeTournamentSchedule::compute(eps / 4.0, n)?;
    let phase2 = three_tournament::run(
        &phase1.values,
        &schedule2,
        config.final_vote,
        sub(&mut seeds),
    )?;

    let metrics = phase1.metrics + phase2.metrics;
    Ok(ApproxOutcome {
        outputs: phase2.outputs,
        rounds: metrics.rounds,
        metrics,
        method: MethodUsed::Tournament {
            phase1_iterations: phase1.iterations,
            phase2_iterations: phase2.iterations,
        },
    })
}

/// Solves the ε-approximate φ-quantile problem for **any** `ε > 0`
/// (Theorem 1.2), dispatching between the tournament and narrowing regimes.
///
/// Every node's output has rank within `±ε·n` of `⌈φ·n⌉` with high
/// probability; in the narrowing regime all nodes output the same value.
///
/// # Errors
///
/// Returns an error if fewer than two values are given, `φ ∉ [0, 1]`, or
/// `ε ≤ 0` or NaN.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn approximate_quantile<V: NodeValue>(
    values: &[V],
    phi: f64,
    epsilon: f64,
    config: &ApproxConfig,
    engine_config: EngineConfig,
) -> Result<ApproxOutcome<V>> {
    let n = values.len();
    if n < 2 {
        return Err(GossipError::TooFewNodes { requested: n });
    }
    if epsilon.is_nan() || epsilon <= 0.0 {
        return Err(GossipError::InvalidParameter {
            name: "epsilon",
            reason: format!("must be positive, got {epsilon}"),
        });
    }
    let use_tournament = match config.method {
        Method::Tournament => true,
        Method::Narrowing => false,
        Method::Auto => epsilon >= tournament_min_epsilon(n),
    };
    if use_tournament {
        return tournament_quantile(values, phi, epsilon, &config.tournament, engine_config);
    }

    // Narrowing regime: aim for the target rank with a rank tolerance of
    // ⌊ε·n⌋ (0 forces exactness).
    if !(0.0..=1.0).contains(&phi) {
        return Err(GossipError::InvalidParameter {
            name: "phi",
            reason: format!("must be in [0, 1], got {phi}"),
        });
    }
    let target_rank = ((phi * n as f64).ceil() as u64).clamp(1, n as u64);
    let tolerance = (epsilon * n as f64).floor() as u64;
    let narrowed = exact::narrow_to_rank(
        values,
        target_rank,
        tolerance,
        &config.narrowing,
        engine_config,
    )?;
    Ok(ApproxOutcome {
        outputs: vec![narrowed.answer; n],
        rounds: narrowed.rounds,
        metrics: narrowed.metrics,
        method: MethodUsed::Narrowing {
            iterations: narrowed.iterations,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sorted copy of `values`, made once per check for [`rank_of`].
    fn sorted_copy(values: &[u64]) -> Vec<u64> {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted
    }

    /// Rank (1-based) of `x` among the ascending `sorted` values: how many
    /// are `<= x`.
    fn rank_of(sorted: &[u64], x: u64) -> u64 {
        sorted.partition_point(|&v| v <= x) as u64
    }

    #[test]
    fn threshold_decreases_with_n() {
        assert!(tournament_min_epsilon(1 << 10) > tournament_min_epsilon(1 << 20));
        assert!(tournament_min_epsilon(4) <= MAX_TOURNAMENT_EPSILON);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let cfg = TournamentConfig::default();
        assert!(tournament_quantile(&[1u64], 0.5, 0.05, &cfg, EngineConfig::with_seed(0)).is_err());
        assert!(
            tournament_quantile(&[1u64, 2], 1.5, 0.05, &cfg, EngineConfig::with_seed(0)).is_err()
        );
        assert!(
            tournament_quantile(&[1u64, 2], 0.5, 0.0, &cfg, EngineConfig::with_seed(0)).is_err()
        );
        let nan = f64::NAN;
        assert!(
            tournament_quantile(&[1u64, 2], 0.5, nan, &cfg, EngineConfig::with_seed(0)).is_err()
        );
        let acfg = ApproxConfig::default();
        assert!(
            approximate_quantile(&[1u64, 2], 0.5, -1.0, &acfg, EngineConfig::with_seed(0)).is_err()
        );
        assert!(
            approximate_quantile(&[1u64, 2], 0.5, nan, &acfg, EngineConfig::with_seed(0)).is_err()
        );
    }

    #[test]
    fn tournament_approximates_several_quantiles() {
        let n: u64 = 100_000;
        let values: Vec<u64> = (0..n).map(|i| i * 3 + 7).collect();
        let eps = 0.06;
        let sorted = sorted_copy(&values);
        for (seed, phi) in [(1u64, 0.1f64), (2, 0.3), (3, 0.5), (4, 0.7), (5, 0.9)] {
            let out = tournament_quantile(
                &values,
                phi,
                eps,
                &TournamentConfig::default(),
                EngineConfig::with_seed(seed),
            )
            .unwrap();
            let target = (phi * n as f64).ceil();
            for &o in &out.outputs {
                let r = rank_of(&sorted, o) as f64;
                assert!(
                    (r - target).abs() <= eps * n as f64 + 1.0,
                    "phi={phi}: rank {r}, target {target}"
                );
            }
        }
    }

    #[test]
    fn round_complexity_is_doubly_logarithmic_plus_log_inv_eps() {
        // The round count must match the schedule arithmetic: 2·t1 + 3·t2 + K.
        let n = 1usize << 16;
        let values: Vec<u64> = (0..n as u64).collect();
        let eps = 0.05;
        let cfg = TournamentConfig::default();
        let out =
            tournament_quantile(&values, 0.25, eps, &cfg, EngineConfig::with_seed(9)).unwrap();
        let t1 = TwoTournamentSchedule::compute(0.25, eps).unwrap().len() as u64;
        let t2 = ThreeTournamentSchedule::compute(eps / 4.0, n)
            .unwrap()
            .len() as u64;
        assert_eq!(out.rounds, 2 * t1 + 3 * t2 + cfg.final_vote.samples as u64);
        // And it is far below log2(n)² = 256 (the KDG03 regime).
        assert!(out.rounds < 100, "rounds = {}", out.rounds);
    }

    #[test]
    fn auto_dispatch_picks_narrowing_for_tiny_epsilon() {
        let n: u64 = 4096;
        let values: Vec<u64> = (0..n).collect();
        // ε = 1/n is far below the tournament threshold.
        let eps = 1.0 / n as f64;
        let out = approximate_quantile(
            &values,
            0.5,
            eps,
            &ApproxConfig::default(),
            EngineConfig::with_seed(11),
        )
        .unwrap();
        assert!(matches!(out.method, MethodUsed::Narrowing { .. }));
        let target = (0.5 * n as f64).ceil() as u64;
        let sorted = sorted_copy(&values);
        for &o in &out.outputs {
            let r = rank_of(&sorted, o);
            assert!(
                (r as i64 - target as i64).unsigned_abs() <= 4,
                "rank {r} target {target}"
            );
        }
    }

    #[test]
    fn auto_dispatch_picks_tournament_for_large_epsilon() {
        let values: Vec<u64> = (0..50_000).collect();
        let out = approximate_quantile(
            &values,
            0.5,
            0.1,
            &ApproxConfig::default(),
            EngineConfig::with_seed(13),
        )
        .unwrap();
        assert!(matches!(out.method, MethodUsed::Tournament { .. }));
    }

    #[test]
    fn epsilon_larger_than_one_eighth_is_clamped_not_rejected() {
        let values: Vec<u64> = (0..20_000).collect();
        let out = tournament_quantile(
            &values,
            0.5,
            0.4,
            &TournamentConfig::default(),
            EngineConfig::with_seed(17),
        )
        .unwrap();
        let n = values.len() as f64;
        let sorted = sorted_copy(&values);
        for &o in &out.outputs {
            let r = rank_of(&sorted, o) as f64;
            assert!((r - 0.5 * n).abs() <= 0.4 * n);
        }
    }
}
