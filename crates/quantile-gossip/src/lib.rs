//! # quantile-gossip
//!
//! Gossip algorithms for exact and approximate quantile computation — a
//! faithful implementation of
//! *"Optimal Gossip Algorithms for Exact and Approximate Quantile
//! Computations"* (Haeupler, Mohapatra, Su; PODC 2018).
//!
//! Every node of a network holds a value; nodes communicate by uniform
//! push/pull gossip (one contact per node per round, `O(log n)`-bit messages).
//! This crate provides:
//!
//! | Entry point | Paper result | Rounds |
//! |---|---|---|
//! | [`approx::approximate_quantile`] | Theorems 1.2 / 2.1 | `O(log log n + log 1/ε)` |
//! | [`exact::exact_quantile`] | Theorem 1.1 | `O(log n)` |
//! | [`own_rank::estimate_own_quantiles`] | Corollary 1.5 | `(1/ε)·O(log log n + log 1/ε)` |
//! | [`robust::robust_approximate_quantile`] | Theorem 1.4 | same, under failures |
//! | [`two_tournament::run`] | Algorithm 1 (2-TOURNAMENT), Lemmas 2.3–2.11 | 2 per iteration |
//! | [`three_tournament::run`] | Algorithm 2 (3-TOURNAMENT), Lemmas 2.12–2.17 | 3 per iteration |
//! | [`schedule::TwoTournamentSchedule`] | the `h_{i+1} = h_i²` recursion, Lemma 2.2 | — |
//! | [`schedule::ThreeTournamentSchedule`] | the `h_{i+1} = 3h_i² − 2h_i³` recursion, Lemma 2.12 | — |
//! | [`service::QuantileService`] | Theorems 1.2/1.3, amortised over a query *vector* | `O((log log n + log 1/ε)/q)` per query |
//!
//! The full entry-point-by-theorem map — including the Appendix A baselines
//! living in the `baselines` crate — is `docs/paper-map.md` in the repository
//! root.
//!
//! All algorithms run on the [`gossip_net`] simulator and report the rounds,
//! messages and bits they consumed, so they can be compared head-to-head with
//! the [`baselines`] crate (Kempe et al. push-sum and selection, naive
//! sampling, the doubling/compaction algorithms of Appendix A).
//!
//! Every entry point takes an [`EngineConfig`], and with it a communication
//! [`Topology`]: the paper's complete-graph uniform gossip by default, or a
//! restricted graph (random regular expander, ring, torus). Sub-phases and
//! sub-engines inherit the configured topology, so e.g.
//! [`approx::approximate_quantile`] runs both tournament phases on the same
//! graph. The paper's guarantees are proved for the complete graph only —
//! `bench/benches/topology_quantile.rs` measures how each algorithm degrades
//! away from it (see `docs/paper-map.md`, "Where the complete-graph
//! assumption enters").
//!
//! ## Quickstart
//!
//! ```
//! use gossip_net::EngineConfig;
//! use quantile_gossip::approx::{approximate_quantile, ApproxConfig};
//!
//! # fn main() -> gossip_net::Result<()> {
//! // 10 000 sensors, each holding one reading.
//! let readings: Vec<u64> = (0..10_000).map(|i| (i * 7919) % 100_000).collect();
//!
//! // Every node learns a value whose rank is within ±5% of the 90th percentile,
//! // in O(log log n + log 1/eps) gossip rounds.
//! let out = approximate_quantile(&readings, 0.9, 0.05, &ApproxConfig::default(),
//!                                EngineConfig::with_seed(42))?;
//! assert_eq!(out.outputs.len(), readings.len());
//! println!("rounds used: {}", out.rounds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approx;
pub mod exact;
mod median;
pub mod own_rank;
mod ranks;
pub mod robust;
pub mod schedule;
pub mod service;
pub mod three_tournament;
pub mod two_tournament;

pub use approx::{
    approximate_quantile, tournament_min_epsilon, tournament_quantile, ApproxConfig, ApproxOutcome,
    Method, MethodUsed, TournamentConfig,
};
pub use exact::{exact_quantile, ExactOutcome, NarrowingConfig};
pub use own_rank::{estimate_own_quantiles, OwnRankConfig, OwnRankOutcome};
pub use robust::{robust_approximate_quantile, RobustConfig, RobustOutcome};
pub use schedule::{
    AdaptiveRoundBudget, ShrinkSide, ThreeTournamentSchedule, TwoTournamentSchedule,
};
pub use service::{
    EpochMode, EpochTimings, QuantileQuery, QuantileService, QueryCost, ServiceConfig,
    ServiceOutcome,
};
pub use three_tournament::FinalVote;

// Re-export the substrate types that appear in this crate's public API so that
// downstream users only need one dependency.
pub use gossip_net::{
    ChurnModel, EngineConfig, FailureModel, FaultPlan, GossipError, LossModel, Metrics, NodeValue,
    Result, StragglerModel, Topology,
};
