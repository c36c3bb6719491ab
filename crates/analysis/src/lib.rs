//! # analysis
//!
//! Measurement substrate for the gossip-quantiles reproduction: everything the
//! experiment harness needs that is *not* a gossip algorithm.
//!
//! * [`rank`] — an exact rank/quantile oracle over the input multiset, used to
//!   grade algorithm outputs;
//! * [`workload`] — input-value generators (uniform, clustered, Zipf-like,
//!   adversarial, sensor-field) used across the experiments;
//! * [`stats`] — summary statistics over repeated trials;
//! * [`experiment`] — a small parallel trial runner with deterministic
//!   per-trial seeds;
//! * [`report`] — fixed-width table and CSV emitters for the `reproduce`
//!   binary's experiment tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiment;
pub mod rank;
pub mod report;
pub mod stats;
pub mod workload;

pub use experiment::{run_topology_trials, run_trials, TrialSpec};
pub use rank::RankOracle;
pub use report::{Csv, ServiceQueryRow, Table};
pub use stats::Summary;
pub use workload::Workload;
