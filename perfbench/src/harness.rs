//! What every workload shares: the run's settings, its answer checks, its
//! figures, and the closed loop that times calls.

use crate::stats::{median, timed, Timed};
use crate::sys::Host;
use crate::trace::Tracer;
use analysis::RankOracle;
use gossip_net::WorkerPool;
use std::collections::HashMap;

/// Setups measured per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest timed calls a run makes, however short `--seconds` is.
pub const MIN_CALLS: usize = 4;

/// The end-to-end figures of an untraced run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Wall seconds of every timed answer.
    pub answer_walls: Vec<f64>,
    /// Active seconds ([`Timed::active`]) of every timed answer.
    pub answer_active: Vec<f64>,
    /// Steal seconds summed over the timed answers.
    pub steal_total: f64,
    /// Process CPU seconds summed over the timed answers.
    pub cpu_total: f64,
    /// Active seconds ([`Timed::active`]) of every setup.
    pub setups: Vec<f64>,
    /// Worker-pool dispatches and wake-ups of every timed answer.
    pub pool_deltas: Vec<(u64, u64)>,
    /// `VmHWM` when the closed loop ends, before any check that builds
    /// more state.
    pub peak_rss_bytes: u64,
}

/// Work done by one answer, as exact counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub rounds: u64,
    pub bits: u64,
    pub contacts: u64,
    pub dropped: u64,
    pub dirty_nodes: u64,
}

impl Counts {
    pub fn of(metrics: &gossip_net::Metrics) -> Counts {
        Counts {
            rounds: metrics.rounds,
            bits: metrics.bits_delivered,
            contacts: metrics.pulls_attempted + metrics.pushes_attempted,
            dropped: metrics.messages_dropped,
            dirty_nodes: 0,
        }
    }
}

/// One benchmark run: settings in, figures and check results out.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub threads: usize,
    pub host: Host,
    pub tracer: Tracer,
    /// Network size of the workload's answers.
    pub n: usize,
    /// Exact per-answer counts; every answer of the run must repeat them.
    pub counts: Option<Counts>,
    pub e2e: EndToEnd,
    /// Per-layer figures of a traced run, by metric name.
    pub layer: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Run {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    /// Records a failed check; the run then reports `correct: false`.
    pub fn problem(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.problems.push(what);
    }

    /// Records `attempted` node-answers of which `failed` failed their check.
    pub fn answers(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problem(format!("{failed} of {attempted} node-answers failed"));
        }
    }

    /// A call returned `Err`: all `n` of its node-answers fail.
    pub fn call_failed(&mut self, error: impl std::fmt::Display) {
        self.problem(format!("call returned an error: {error}"));
        self.attempted += self.n as u64;
        self.failed += self.n as u64;
    }

    /// Checks that an answer's counts repeat the run's first answer's.
    pub fn same_counts(&mut self, counts: Counts) {
        match self.counts {
            None => self.counts = Some(counts),
            Some(first) if first != counts => {
                self.problem(format!("counts drifted: {first:?} then {counts:?}"))
            }
            Some(_) => {}
        }
    }

    /// Builds the workload [`SETUPS`] times in an untraced run, once in a
    /// traced one, timing each build, and keeps the last. Each build drops
    /// the previous one first.
    pub fn setup<S>(&mut self, mut setup: impl FnMut(&mut Run) -> S) -> S {
        let count = if self.traced { 1 } else { SETUPS };
        let mut kept = None;
        for _ in 0..count {
            drop(kept.take());
            let built = timed(|| setup(self));
            self.e2e.setups.push(built.active());
            kept = Some(built.out);
        }
        kept.expect("at least one setup")
    }

    /// The closed loop: `step(i)` makes call `i` (timed inside `step`, which
    /// returns the timed seconds) and checks it; the next call starts when
    /// the previous one is back. Runs until `--seconds` of timed calls and at
    /// least [`MIN_CALLS`] calls.
    pub fn closed_loop(&mut self, mut step: impl FnMut(&mut Run, usize) -> f64) {
        let mut spent = 0.0;
        let mut i = 0;
        while spent < self.seconds || i < MIN_CALLS {
            spent += step(self, i);
            i += 1;
        }
        self.e2e.peak_rss_bytes = crate::sys::peak_rss_bytes();
    }

    /// Makes one timed answer: wall, active and CPU time, and the dispatches and
    /// wake-ups it cost `pool`, all go into the end-to-end figures.
    pub fn timed_answer<T>(&mut self, pool: &WorkerPool, call: impl FnOnce() -> T) -> Timed<T> {
        let before = pool.stats();
        let t = timed(call);
        let after = pool.stats();
        self.e2e.answer_walls.push(t.wall);
        self.e2e.answer_active.push(t.active());
        self.e2e.steal_total += t.steal;
        self.e2e.cpu_total += t.cpu;
        self.e2e.pool_deltas.push((
            after.dispatches - before.dispatches,
            after.wakeups - before.wakeups,
        ));
        t
    }

    /// Median wall seconds of the untraced answers: the base the traced
    /// run's spans, which are wall time too, are set against.
    pub fn median_answer_s(&self) -> f64 {
        median(&self.e2e.answer_walls)
    }
}

/// Checks ε-approximate answers against a [`RankOracle`], remembering the
/// verdict per distinct value (answers repeat a few values many times).
pub struct EpsilonCheck<'a> {
    oracle: &'a RankOracle<u64>,
    phi: f64,
    epsilon: f64,
    seen: HashMap<u64, bool>,
}

impl<'a> EpsilonCheck<'a> {
    pub fn new(oracle: &'a RankOracle<u64>, phi: f64, epsilon: f64) -> Self {
        EpsilonCheck {
            oracle,
            phi,
            epsilon,
            seen: HashMap::new(),
        }
    }

    /// Number of `answers` whose rank is outside `[φ−ε, φ+ε]`.
    pub fn failures(&mut self, answers: &[u64]) -> u64 {
        let (oracle, phi, epsilon) = (self.oracle, self.phi, self.epsilon);
        answers
            .iter()
            .filter(|a| {
                !*self
                    .seen
                    .entry(**a)
                    .or_insert_with(|| oracle.within_epsilon(a, phi, epsilon))
            })
            .count() as u64
    }
}
