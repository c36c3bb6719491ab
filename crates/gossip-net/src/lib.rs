//! # gossip-net
//!
//! A synchronous **uniform gossip** network simulator.
//!
//! This crate is the substrate for the reproduction of
//! *"Optimal Gossip Algorithms for Exact and Approximate Quantile Computations"*
//! (Haeupler, Mohapatra, Su; PODC 2018). It implements the communication model
//! the paper analyses:
//!
//! * computation proceeds in **synchronous rounds**;
//! * in each round every node either **pushes** a message to a uniformly random
//!   other node or **pulls** a message from a uniformly random other node;
//! * messages are size-accounted in bits (the paper restricts messages to
//!   `O(log n)` bits — the simulator measures rather than enforces this, so
//!   that over-budget baselines such as the doubling algorithm of Appendix A
//!   can be compared honestly);
//! * every node may **fail** to perform its operation in a round with a
//!   (potentially per-node, per-round) probability bounded by a constant
//!   `mu < 1` (the failure model of Section 5 of the paper).
//!
//! The central type is [`Engine`], which owns the per-node states and drives
//! rounds. Higher-level crates (`quantile-gossip`, `baselines`) express their
//! algorithms as sequences of [`Engine::pull_round`] / [`Engine::push_round`]
//! calls so that round counts, message counts and transmitted bits are measured
//! by the same machinery for every algorithm.
//!
//! ## Quick example
//!
//! Spreading the maximum value to every node by push–pull rumor spreading:
//!
//! ```
//! use gossip_net::{Engine, EngineConfig};
//!
//! let values: Vec<u64> = (0..1000).collect();
//! let mut engine = Engine::from_states(values, EngineConfig::with_seed(7));
//! // Each round: pull a random node's current maximum and keep the larger.
//! for _ in 0..32 {
//!     engine.pull_round(|_, &s| s, |_, state, pulled| {
//!         if let Some(p) = pulled {
//!             if p > *state {
//!                 *state = p;
//!             }
//!         }
//!     });
//! }
//! assert!(engine.states().iter().all(|&v| v == 999));
//! ```

// `deny`, not `forbid`: the two sanctioned exceptions are the lifetime
// erasure inside `pool` (see the safety discussion in that module's docs) and
// the architecture prefetch intrinsics inside `soa` (hints with no safety
// obligations), each opting back in with a scoped `allow`. Everything else
// stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod active;
pub mod engine;
pub mod error;
pub mod failure;
pub mod fault;
pub mod message;
pub mod metrics;
pub mod par;
pub mod pool;
pub mod rng;
pub mod soa;
pub mod topology;
pub mod value;

pub use active::ActiveSet;
pub use engine::{Engine, EngineConfig, SparsePushOutcome};
pub use error::{GossipError, Result};
pub use failure::FailureModel;
pub use fault::{ChurnModel, FaultPlan, LossModel, StragglerModel};
pub use message::MessageSize;
pub use metrics::{Metrics, RoundKind};
pub use pool::{PoolStats, WorkerPool};
pub use rng::{KeyPrefix, NodeRng, SeedSequence};
pub use soa::{LaneMatrix, SampleMatrix};
pub use topology::{Adjacency, AdjacencyCache, Topology};
pub use value::{NodeValue, OrderedF64};

/// Identifier of a node in the simulated network (an index in `0..n`).
pub type NodeId = usize;
