//! # gossip-quantiles
//!
//! A faithful, laptop-scale reproduction of
//! *"Optimal Gossip Algorithms for Exact and Approximate Quantile
//! Computations"* (Haeupler, Mohapatra, Su; PODC 2018), packaged as a facade
//! over the workspace crates:
//!
//! * [`net`] ([`gossip_net`]) — the synchronous uniform-gossip simulator;
//! * [`quantile`] ([`quantile_gossip`]) — the paper's algorithms
//!   (Theorems 1.1, 1.2, 1.4, Corollary 1.5);
//! * [`baseline`] ([`baselines`]) — push-sum, KDG03 selection, naive sampling,
//!   the doubling/compaction algorithms of Appendix A, the Doerr et al. median
//!   rule;
//! * [`bound`] ([`lower_bound`]) — the Theorem 1.3 information-spreading lower
//!   bound;
//! * [`measure`] ([`analysis`]) — rank oracle, workloads, trial runner,
//!   reporting.
//!
//! The most common entry points are re-exported at the crate root:
//!
//! ```
//! use gossip_quantiles::{approximate_quantile, exact_quantile, ApproxConfig,
//!                        EngineConfig, NarrowingConfig};
//!
//! # fn main() -> gossip_quantiles::Result<()> {
//! let readings: Vec<u64> = (0..5_000).map(|i| (i * 31) % 65_537).collect();
//!
//! // Every node learns an approximate 95th percentile in O(log log n) rounds…
//! let approx = approximate_quantile(&readings, 0.95, 0.05,
//!                                   &ApproxConfig::default(),
//!                                   EngineConfig::with_seed(1))?;
//! // …or the exact one in O(log n) rounds.
//! let exact = exact_quantile(&readings, 0.95, &NarrowingConfig::default(),
//!                            EngineConfig::with_seed(2))?;
//! assert!(approx.rounds < exact.rounds);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios, `README.md` for the
//! crate map and threading knobs, and `docs/paper-map.md` for the
//! entry-point-by-theorem map of the whole reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The gossip network simulator (re-export of [`gossip_net`]).
pub use gossip_net as net;

/// The paper's quantile algorithms (re-export of [`quantile_gossip`]).
pub use quantile_gossip as quantile;

/// Baseline algorithms and gossip primitives (re-export of [`baselines`]).
pub use baselines as baseline;

/// The lower-bound experiment (re-export of [`lower_bound`]).
pub use lower_bound as bound;

/// Measurement substrate (re-export of [`analysis`]).
pub use analysis as measure;

pub use gossip_net::{
    ChurnModel, Engine, EngineConfig, FailureModel, FaultPlan, GossipError, LossModel, Metrics,
    NodeValue, PoolStats, Result, StragglerModel, Topology,
};
pub use quantile_gossip::{
    approximate_quantile, estimate_own_quantiles, exact_quantile, robust_approximate_quantile,
    ApproxConfig, ApproxOutcome, ExactOutcome, NarrowingConfig, OwnRankConfig, RobustConfig,
};
