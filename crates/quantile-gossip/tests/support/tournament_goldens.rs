//! Shared fixtures for the algorithm-level tournament pins and the
//! `regen_tournament_goldens` example.
//!
//! The pinned constants live in `tests/data/tournament_goldens.txt`; this
//! module holds the scenario list, the fingerprint helpers, and the file
//! parser. It is included with `#[path]` by `tests/tournament_golden.rs` and
//! `examples/regen_tournament_goldens.rs`, so the two can never disagree
//! about what a scenario runs.
//!
//! Every scenario is one [`tournament_quantile`] call. The settings are
//! chosen so that both phases end in a δ-truncated (δ < 1) final iteration,
//! which puts every tournament code path — dense iterations, the δ-cut
//! iterations of both phases, and the final vote — under the pins.

#![allow(dead_code)]

use quantile_gossip::{
    tournament_quantile, EngineConfig, FaultPlan, LossModel, ThreeTournamentSchedule, Topology,
    TournamentConfig, TwoTournamentSchedule,
};

/// The ε of every pinned scenario.
pub const EPSILON: f64 = 0.05;

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

/// One pinned `tournament_quantile` call.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The pin-file key prefix.
    pub name: String,
    pub n: usize,
    pub phi: f64,
    pub seed: u64,
    pub topology: Topology,
    /// Per-contact message-loss probability (0 = fault-free).
    pub loss: f64,
}

impl Scenario {
    fn new(n: usize, phi: f64, topology: Topology, loss: f64) -> Self {
        let graph = match topology {
            Topology::Complete => "complete".to_string(),
            Topology::RandomRegular { degree, .. } => format!("rr{degree}"),
            other => unreachable!("no pinned scenario runs on {other}"),
        };
        let lossy = if loss > 0.0 { ".loss" } else { "" };
        Scenario {
            name: format!("n{n}.phi{phi}.{graph}{lossy}"),
            n,
            phi,
            seed: 1000 + n as u64 + (phi * 100.0) as u64,
            topology,
            loss,
        }
    }

    /// The input multiset: distinct-ish pseudo-random values.
    pub fn values(&self) -> Vec<u64> {
        (0..self.n as u64)
            .map(|i| mix64(i ^ self.seed.rotate_left(32)) % (10 * self.n as u64))
            .collect()
    }

    pub fn config(&self) -> EngineConfig {
        let config = EngineConfig::with_seed(self.seed).topology(self.topology);
        if self.loss > 0.0 {
            config.fault(FaultPlan::none().with_loss(LossModel::uniform(self.loss).unwrap()))
        } else {
            config
        }
    }

    /// Whether both phases' schedules end in a δ < 1 final iteration.
    pub fn has_delta_cuts(&self) -> bool {
        let two = TwoTournamentSchedule::compute(self.phi, EPSILON).unwrap();
        let three = ThreeTournamentSchedule::compute(EPSILON / 4.0, self.n).unwrap();
        two.steps.last().is_some_and(|s| s.delta < 1.0) && three.final_delta < 1.0
    }

    /// Runs the scenario: `(outputs fingerprint, metrics line)`.
    pub fn run(&self) -> (String, String) {
        let out = tournament_quantile(
            &self.values(),
            self.phi,
            EPSILON,
            &TournamentConfig::default(),
            self.config(),
        )
        .expect("valid scenario parameters");
        let m = out.metrics;
        let metrics = format!(
            "r{} a{} ma{} pa{} f{} dr{} d{} b{}",
            m.rounds,
            m.active_nodes_total,
            m.max_active,
            m.pulls_attempted,
            m.failed_operations,
            m.messages_dropped,
            m.messages_delivered,
            m.bits_delivered
        );
        (fingerprint(&out.outputs), metrics)
    }
}

/// Every pinned scenario, in canonical file order: n ∈ {2 000, 20 000} ×
/// φ ∈ {0.1, 0.9} on the complete graph and a degree-16 random regular
/// expander, plus one message-loss case.
pub fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for topology in [Topology::Complete, Topology::random_regular(16, 7)] {
        for n in [2_000, 20_000] {
            for phi in [0.1, 0.9] {
                out.push(Scenario::new(n, phi, topology, 0.0));
            }
        }
    }
    out.push(Scenario::new(2_000, 0.1, Topology::Complete, 0.1));
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
            "no tournament pin named {key:?} in tests/data/tournament_goldens.txt — regenerate \
             with `cargo run -p quantile-gossip --example regen_tournament_goldens -- --write`"
        )
    })
}

/// Recomputes every pinned value, in the canonical file order.
pub fn compute_all() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for s in scenarios() {
        let (fp, metrics) = s.run();
        out.push((format!("{}.fp", s.name), fp));
        out.push((format!("{}.metrics", s.name), metrics));
    }
    out
}
