//! Shared fixtures for the algorithm-level pins and the
//! `regen_tournament_goldens` example.
//!
//! The pinned constants live in `tests/data/tournament_goldens.txt`; this
//! module holds the scenario list, the fingerprint helpers, and the file
//! parser. It is included with `#[path]` by `tests/tournament_golden.rs` and
//! `examples/regen_tournament_goldens.rs`, so the two can never disagree
//! about what a scenario runs.
//!
//! Most scenarios are one [`tournament_quantile`] call. Their settings are
//! chosen so that both phases end in a δ-truncated (δ < 1) final iteration,
//! which puts every tournament code path — dense iterations, the δ-cut
//! iterations of both phases, and the final vote — under the pins. Others
//! run the other drivers built on sampling rounds: the robust algorithm of
//! Theorem 1.4 (fixed and adaptive pull budgets), the median rule and the
//! sampling baseline, each without faults, under the failure model and
//! under churn. The last run [`exact_quantile`] (Algorithm 3: tournaments,
//! the bracket spread, push-sum counts and token scattering) under every
//! fault plan, on u64 inputs and, for the message-size charge of other value
//! widths, on u32 and [`OrderedF64`] inputs.

#![allow(dead_code)]

use baselines::{median_rule, sampling, MedianRuleConfig, SamplingConfig};
use gossip_net::OrderedF64;
use quantile_gossip::{
    exact_quantile, robust_approximate_quantile, tournament_quantile, ChurnModel, EngineConfig,
    FailureModel, FaultPlan, LossModel, Metrics, NarrowingConfig, NodeValue, RobustConfig,
    ThreeTournamentSchedule, Topology, TournamentConfig, TwoTournamentSchedule,
};

/// The ε of every pinned tournament and robust scenario.
pub const EPSILON: f64 = 0.05;

/// The ε of the pinned sampling-baseline scenarios (496 samples at n = 20 000,
/// more than one target batch of the sample step holds).
pub const SAMPLING_EPSILON: f64 = 0.2;

/// SplitMix64 finalizer, re-stated here so the fingerprint is independent of
/// the crates' internals.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive fingerprint of the per-node outputs.
pub fn fingerprint(outputs: &[u64]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, &s) in outputs.iter().enumerate() {
        h = mix64(h ^ s ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    format!("{h:016x}")
}

/// The metrics line of a pin: rounds, participants, max participants, pulls
/// attempted, failures, drops, deliveries, bits, crashed operations and
/// delayed messages.
pub fn metrics_line(m: &Metrics) -> String {
    format!(
        "r{} a{} ma{} pa{} f{} dr{} d{} b{} c{} dl{}",
        m.rounds,
        m.active_nodes_total,
        m.max_active,
        m.pulls_attempted,
        m.failed_operations,
        m.messages_dropped,
        m.messages_delivered,
        m.bits_delivered,
        m.crashed_operations,
        m.messages_delayed
    )
}

/// The algorithm a pinned scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// [`tournament_quantile`].
    Tournament,
    /// [`robust_approximate_quantile`] with the fixed Lemma 5.2 budget.
    Robust,
    /// [`robust_approximate_quantile`] with the adaptive budget.
    RobustAdaptive,
    /// [`median_rule::run`].
    MedianRule,
    /// [`sampling::approximate_quantile`] at [`SAMPLING_EPSILON`].
    Sampling,
    /// [`exact_quantile`] on the u64 inputs.
    Exact,
    /// [`exact_quantile`] on the same inputs as u32.
    ExactU32,
    /// [`exact_quantile`] on the inputs mapped to [`OrderedF64`] (negative
    /// and positive values).
    ExactF64,
}

impl Driver {
    /// Whether the driver is one of the [`exact_quantile`] drivers.
    pub fn is_exact(self) -> bool {
        matches!(self, Driver::Exact | Driver::ExactU32 | Driver::ExactF64)
    }
}

/// The fault plan a pinned scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// No faults.
    Reliable,
    /// 10 % per-contact message loss.
    Loss,
    /// Section 5's failure model: every operation fails with probability 0.2.
    Failure,
    /// Crash-and-rejoin churn (crash probability 0.05, down for 3 rounds)
    /// plus 10 % message loss.
    Churn,
}

impl Plan {
    fn suffix(self) -> &'static str {
        match self {
            Plan::Reliable => "",
            Plan::Loss => ".loss",
            Plan::Failure => ".failure",
            Plan::Churn => ".churn",
        }
    }

    fn fault_plan(self) -> FaultPlan {
        let loss = || LossModel::uniform(0.1).unwrap();
        match self {
            Plan::Reliable => FaultPlan::none(),
            Plan::Loss => FaultPlan::none().with_loss(loss()),
            Plan::Failure => FaultPlan::none().with_failure(FailureModel::uniform(0.2).unwrap()),
            Plan::Churn => FaultPlan::none()
                .with_churn(ChurnModel::with_rejoin(0.05, 3).unwrap())
                .with_loss(loss()),
        }
    }
}

/// One pinned driver call.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The pin-file key prefix.
    pub name: String,
    pub driver: Driver,
    pub n: usize,
    pub phi: f64,
    pub seed: u64,
    pub topology: Topology,
    pub plan: Plan,
}

impl Scenario {
    fn new(driver: Driver, n: usize, phi: f64, topology: Topology, plan: Plan) -> Self {
        let graph = match topology {
            Topology::Complete => "complete".to_string(),
            Topology::RandomRegular { degree, .. } => format!("rr{degree}"),
            other => unreachable!("no pinned scenario runs on {other}"),
        };
        let at = format!("n{n}.phi{phi}.{graph}{}", plan.suffix());
        let name = match driver {
            // The tournament keys predate the other drivers' and stay bare.
            Driver::Tournament => at,
            Driver::Robust => format!("robust.{at}"),
            Driver::RobustAdaptive => format!("robust_adaptive.{at}"),
            Driver::MedianRule => format!("median_rule.n{n}.{graph}{}", plan.suffix()),
            Driver::Sampling => format!("sampling.{at}"),
            Driver::Exact => format!("exact.{at}"),
            Driver::ExactU32 => format!("exact_u32.{at}"),
            Driver::ExactF64 => format!("exact_f64.{at}"),
        };
        Scenario {
            name,
            driver,
            n,
            phi,
            seed: 1000 + n as u64 + (phi * 100.0) as u64,
            topology,
            plan,
        }
    }

    /// The input multiset: distinct-ish pseudo-random values.
    pub fn values(&self) -> Vec<u64> {
        (0..self.n as u64)
            .map(|i| mix64(i ^ self.seed.rotate_left(32)) % (10 * self.n as u64))
            .collect()
    }

    pub fn config(&self) -> EngineConfig {
        EngineConfig::with_seed(self.seed)
            .topology(self.topology)
            .fault(self.plan.fault_plan())
    }

    /// Whether both phases' schedules end in a δ < 1 final iteration.
    pub fn has_delta_cuts(&self) -> bool {
        let two = TwoTournamentSchedule::compute(self.phi, EPSILON).unwrap();
        let three = ThreeTournamentSchedule::compute(EPSILON / 4.0, self.n).unwrap();
        two.steps.last().is_some_and(|s| s.delta < 1.0) && three.final_delta < 1.0
    }

    /// Runs the scenario: its pinned `(key suffix, value)` pairs — the
    /// outputs fingerprint (a node without an answer as `u64::MAX`), the
    /// metrics line and, for the robust driver, the bits of its good and
    /// answered fractions and of its failure estimate. An exact scenario
    /// pins its answer's bits, iterations and rounds instead of a
    /// fingerprint, or the error it returned (with `-` for metrics).
    pub fn run(&self) -> Vec<(&'static str, String)> {
        let (values, config) = (self.values(), self.config());
        let (outputs, metrics, outcome) = match self.driver {
            Driver::Tournament => {
                let out = tournament_quantile(
                    &values,
                    self.phi,
                    EPSILON,
                    &TournamentConfig::default(),
                    config,
                )
                .expect("valid scenario parameters");
                (out.outputs, out.metrics, None)
            }
            Driver::Robust | Driver::RobustAdaptive => {
                let robust = RobustConfig {
                    adaptive: self.driver == Driver::RobustAdaptive,
                    ..RobustConfig::default()
                };
                let out = robust_approximate_quantile(&values, self.phi, EPSILON, &robust, config)
                    .expect("valid scenario parameters");
                let outcome = format!(
                    "good{:016x} answered{:016x} mu{:016x}",
                    out.good_fraction.to_bits(),
                    out.answered_fraction.to_bits(),
                    out.estimated_mu.to_bits()
                );
                let outputs = out.outputs.iter().map(|o| o.unwrap_or(u64::MAX)).collect();
                (outputs, out.metrics, Some(outcome))
            }
            Driver::MedianRule => {
                let out = median_rule::run(&values, &MedianRuleConfig::default(), config)
                    .expect("valid scenario parameters");
                (out.values, out.metrics, None)
            }
            Driver::Sampling => {
                let sampling_config = SamplingConfig::new(SAMPLING_EPSILON).unwrap();
                let out =
                    sampling::approximate_quantile(&values, self.phi, &sampling_config, config)
                        .expect("valid scenario parameters");
                (out.estimates, out.metrics, None)
            }
            Driver::Exact => return self.exact(&values, |x| x, |a| a),
            Driver::ExactU32 => return self.exact(&values, |x| x as u32, u64::from),
            Driver::ExactF64 => {
                let to_f64 = |x: u64| OrderedF64::new(x as f64 / 7.0 - self.n as f64).unwrap();
                return self.exact(&values, to_f64, |a| a.get().to_bits());
            }
        };
        let mut pins = vec![
            ("fp", fingerprint(&outputs)),
            ("metrics", metrics_line(&metrics)),
        ];
        pins.extend(outcome.map(|o| ("outcome", o)));
        pins
    }

    /// Runs [`exact_quantile`] on the inputs mapped by `to`: its pins, with
    /// the answer's bits mapped back to a u64 by `bits`.
    fn exact<V: NodeValue>(
        &self,
        values: &[u64],
        to: impl Fn(u64) -> V,
        bits: impl Fn(V) -> u64,
    ) -> Vec<(&'static str, String)> {
        let values: Vec<V> = values.iter().map(|&x| to(x)).collect();
        let narrowing = NarrowingConfig::default();
        match exact_quantile(&values, self.phi, &narrowing, self.config()) {
            Ok(out) => {
                let (answer, iterations, rounds) = (bits(out.answer), out.iterations, out.rounds);
                vec![
                    (
                        "outcome",
                        format!("answer{answer:016x} iterations{iterations} rounds{rounds}"),
                    ),
                    ("metrics", metrics_line(&out.metrics)),
                ]
            }
            Err(e) => vec![("outcome", format!("error {e}")), ("metrics", "-".into())],
        }
    }
}

/// Every pinned scenario, in canonical file order: the tournament at
/// n ∈ {2 000, 20 000} × φ ∈ {0.1, 0.9} on the complete graph and a
/// degree-16 random regular expander, one message-loss case at n = 2 000 and
/// the three fault plans at n = 20 000; then the robust driver (both
/// budgets), the median rule and the sampling baseline at n = 20 000, each
/// reliable, under the failure model and under churn; then the exact
/// algorithm under all four plans at n = 2 000 × φ ∈ {0.1, 0.5, 0.9} and at
/// n = 20 000 × φ = 0.5, and on u32 and [`OrderedF64`] inputs at n = 2 000.
pub fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for topology in [Topology::Complete, Topology::random_regular(16, 7)] {
        for n in [2_000, 20_000] {
            for phi in [0.1, 0.9] {
                out.push(Scenario::new(
                    Driver::Tournament,
                    n,
                    phi,
                    topology,
                    Plan::Reliable,
                ));
            }
        }
    }
    out.push(Scenario::new(
        Driver::Tournament,
        2_000,
        0.1,
        Topology::Complete,
        Plan::Loss,
    ));
    for plan in [Plan::Loss, Plan::Failure, Plan::Churn] {
        out.push(Scenario::new(
            Driver::Tournament,
            20_000,
            0.1,
            Topology::Complete,
            plan,
        ));
    }
    for driver in [
        Driver::Robust,
        Driver::RobustAdaptive,
        Driver::MedianRule,
        Driver::Sampling,
    ] {
        for plan in [Plan::Reliable, Plan::Failure, Plan::Churn] {
            out.push(Scenario::new(driver, 20_000, 0.3, Topology::Complete, plan));
        }
    }
    let plans = [Plan::Reliable, Plan::Loss, Plan::Failure, Plan::Churn];
    for (n, phis) in [(2_000, &[0.1, 0.5, 0.9][..]), (20_000, &[0.5][..])] {
        for &phi in phis {
            for plan in plans {
                out.push(Scenario::new(
                    Driver::Exact,
                    n,
                    phi,
                    Topology::Complete,
                    plan,
                ));
            }
        }
    }
    for driver in [Driver::ExactU32, Driver::ExactF64] {
        out.push(Scenario::new(
            driver,
            2_000,
            0.5,
            Topology::Complete,
            Plan::Reliable,
        ));
    }
    out
}

// --- the pin file -----------------------------------------------------------

/// The pinned constants, embedded at compile time.
pub const GOLDENS: &str = include_str!("../data/tournament_goldens.txt");

/// Looks a key up in a `name=value` pin file.
pub fn lookup<'a>(file: &'a str, key: &str) -> Option<&'a str> {
    file.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once('=')?;
            (k.trim() == key).then(|| v.trim())
        })
}

/// The pinned value for `key`, or a loud panic pointing at the regen tool.
pub fn pinned(key: &str) -> &'static str {
    lookup(GOLDENS, key).unwrap_or_else(|| {
        panic!(
            "no pin named {key:?} in tests/data/tournament_goldens.txt — regenerate \
             with `cargo run -p quantile-gossip --example regen_tournament_goldens -- --write`"
        )
    })
}

/// Recomputes every pinned value, in the canonical file order.
pub fn compute_all() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for s in scenarios() {
        for (suffix, value) in s.run() {
            out.push((format!("{}.{suffix}", s.name), value));
        }
    }
    out
}
