//! # bench
//!
//! The reproduction harness: shared experiment drivers used both by the
//! `reproduce` binary (which prints one table per experiment) and by the
//! Criterion benches (which measure wall-clock simulation cost).
//!
//! Every experiment E1–E10 has a driver function here returning an
//! [`analysis::Table`], documented with the claim of the paper it checks
//! (see also "Measurement" in `docs/paper-map.md`); the binary only handles
//! argument parsing and printing.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod report_json;
pub mod smoke;

pub use experiments::*;
