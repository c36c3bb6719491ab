//! Shared fixtures for the golden-pin suites and the `regen_goldens` example.
//!
//! The pinned constants live in `tests/data/goldens.txt`; this module holds
//! the scenario builders that produce them, the fingerprint helpers, and the
//! file parser. It is included with `#[path]` by `tests/golden.rs`,
//! `tests/sparse.rs`, `examples/regen_goldens.rs` and the suites that reuse
//! its scenario bodies, so they can never disagree about what a scenario
//! runs.

#![allow(dead_code)]

use gossip_net::{
    par, ActiveSet, ChurnModel, Engine, EngineConfig, FailureModel, FaultPlan, LossModel,
    MessageSize, NodeId, StragglerModel,
};
use rand::Rng;

/// SplitMix64 finalizer, re-stated here so the fingerprint is independent of
/// the crate's internals.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive fingerprint of a state vector.
pub fn fingerprint(states: &[u64]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, &s) in states.iter().enumerate() {
        h = mix64(h ^ s ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    format!("{h:016x}")
}

/// Order-sensitive message fold (any reordering or content change shows up).
pub fn fold_hash(state: u64, msg: u64) -> u64 {
    (state.rotate_left(7) ^ msg).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Order-sensitive fingerprint of per-node sample buckets.
pub fn sample_fp(samples: &[Vec<u64>]) -> String {
    let mut h = 0u64;
    for bucket in samples {
        h = mix64(h ^ 0x5eed);
        for &s in bucket {
            h = mix64(h ^ s);
        }
    }
    format!("{h:016x}")
}

/// Compact fingerprint of the metrics counters, pinned alongside the states.
pub fn metrics_line(e: &Engine<u64>) -> String {
    let m = e.metrics();
    format!(
        "r{} pa{} psa{} f{} d{} b{}",
        m.rounds,
        m.pulls_attempted,
        m.pushes_attempted,
        m.failed_operations,
        m.messages_delivered,
        m.bits_delivered
    )
}

/// The fault counters, pinned alongside the classic metrics line for the
/// faulted trajectory.
pub fn fault_metrics_line(e: &Engine<u64>) -> String {
    let m = e.metrics();
    format!(
        "c{} dr{} dl{}",
        m.crashed_operations, m.messages_dropped, m.messages_delayed
    )
}

pub fn initial_states(n: usize) -> Vec<u64> {
    (0..n as u64).map(|v| v.wrapping_mul(31)).collect()
}

pub fn engine(n: usize, seed: u64, failure: FailureModel) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).fault(FaultPlan::none().with_failure(failure));
    let mut e = Engine::from_states(initial_states(n), config);
    e.set_threads(par::num_threads());
    e
}

/// The full fault plan of the faulted golden pin: churn with rejoin, message
/// loss, stragglers, and the Section 5 failure model all at once.
pub fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap())
        .with_loss(LossModel::uniform(0.15).unwrap())
        .with_stragglers(StragglerModel::uniform(0.2, 2).unwrap())
        .with_failure(FailureModel::uniform(0.1).unwrap())
}

pub fn pull_rounds(e: &mut Engine<u64>, rounds: usize) {
    for _ in 0..rounds {
        e.pull_round(
            |_, &s| s,
            |_, st, pulled| {
                if let Some(p) = pulled {
                    *st = fold_hash(*st, p);
                }
            },
        );
    }
}

pub fn push_rounds(e: &mut Engine<u64>, rounds: usize) {
    for _ in 0..rounds {
        e.push_round(
            |v, &s| if v % 5 == 0 { None } else { Some(s) },
            |_, st, msg| *st = fold_hash(*st, msg),
            |_, st, delivered| {
                if !delivered {
                    *st = st.wrapping_add(1);
                }
            },
        );
    }
}

pub fn push_pull_rounds(e: &mut Engine<u64>, rounds: usize) {
    for _ in 0..rounds {
        e.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
    }
}

/// The local-step scenario body shared by `local_step` and the mixed runs.
pub fn hash_local_steps(e: &mut Engine<u64>, rounds: usize) {
    for _ in 0..rounds {
        e.local_step(|v, st, rng| {
            *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
            if rng.gen::<f64>() < 0.25 {
                *st = st.rotate_right(3);
            }
        });
    }
}

/// `k` sampling rounds through `pull_sources` over `active` (every node when
/// `None`): per member, in ascending node order, the values its delivered
/// pulls read from a snapshot of the states, in round order — the buckets
/// of a `k`-round sample collection serving the states, with the same
/// targets, coins and metrics.
pub fn pulled_samples(e: &mut Engine<u64>, active: Option<&ActiveSet>, k: usize) -> Vec<Vec<u64>> {
    let snap = e.states().to_vec();
    let members: Vec<NodeId> = active.map_or_else(|| (0..e.n()).collect(), |a| a.iter().collect());
    let mut buckets = vec![Vec::with_capacity(k); members.len()];
    let mut sources = vec![0u32; e.n()];
    for _ in 0..k {
        e.pull_sources(active, |t| snap[t].message_bits(), &mut sources);
        for (bucket, &v) in buckets.iter_mut().zip(&members) {
            bucket.extend(snap.get(sources[v] as usize));
        }
    }
    buckets
}

/// One mixed macro-iteration over all five primitives.
pub fn mixed_iteration(e: &mut Engine<u64>) {
    pull_rounds(e, 1);
    push_rounds(e, 1);
    push_pull_rounds(e, 1);
    let samples = pulled_samples(e, None, 2);
    e.local_step(|v, st, rng| {
        for &s in &samples[v] {
            *st = fold_hash(*st, s);
        }
        if rng.gen::<f64>() < 0.25 {
            *st = st.rotate_right(3);
        }
    });
}

/// An engine running under a whole fault plan (the `engine` helper only
/// sets its failure model).
pub fn plan_engine(n: usize, seed: u64, plan: FaultPlan) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).fault(plan);
    let mut e = Engine::from_states(initial_states(n), config);
    e.set_threads(par::num_threads());
    e
}

pub fn faulted_mixed(n: usize, seed: u64) -> Engine<u64> {
    let mut e = plan_engine(n, seed, chaos_plan());
    for _ in 0..3 {
        mixed_iteration(&mut e);
    }
    e
}

/// The chaos plan at a size where multi-thread runs fold pushes per
/// receiver range, with stragglers drained across the push-capable rounds.
pub fn faulted_large(seed: u64) -> Engine<u64> {
    let mut e = plan_engine(20_000, seed, chaos_plan());
    pull_rounds(&mut e, 2);
    push_rounds(&mut e, 2);
    push_pull_rounds(&mut e, 2);
    e
}

// --- sparse variants of the scenario bodies --------------------------------

/// Runs the push scenario body over `active`; returns each round's receivers.
pub fn sparse_push_rounds(
    e: &mut Engine<u64>,
    active: &ActiveSet,
    rounds: usize,
) -> Vec<Vec<NodeId>> {
    (0..rounds)
        .map(|_| {
            e.push_round_on(
                active,
                |v, &s| if v % 5 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if !delivered {
                        *st = st.wrapping_add(1);
                    }
                },
            )
            .receivers
        })
        .collect()
}

/// The fixed proper subset of the `sparse_kept*` pins: two nodes in three,
/// plus one contiguous run so the copy-on-write commit swaps multi-slot
/// runs.
pub fn pinned_subset(n: usize) -> ActiveSet {
    ActiveSet::from_fn(n, |v| v % 3 != 0 || (200..320).contains(&v))
}

/// A `pull_sources` round over `active`, then a `local_step_on` in which
/// each member folds in the value of its pulled source, read from a
/// snapshot of the states the round served, and one local coin. Returns the
/// round's sources.
pub fn sparse_pull_step(e: &mut Engine<u64>, active: &ActiveSet) -> Vec<u32> {
    let snap = e.states().to_vec();
    let mut sources = vec![0u32; e.n()];
    e.pull_sources(Some(active), |t| snap[t].message_bits(), &mut sources);
    e.local_step_on(active, |v, st, rng| {
        if let Some(&pulled) = snap.get(sources[v] as usize) {
            *st = fold_hash(*st, pulled);
        }
        *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
    });
    sources
}

/// One `sparse_kept*` scenario at n nodes: three iterations of
/// `push_round_on` and a [`sparse_pull_step`], all over [`pinned_subset`],
/// under `plan` — the sparse rounds the algorithms and the service run.
/// Returns the engine, the fingerprint of every round's sources and the
/// fingerprint of every returned receiver list.
pub fn sparse_kept(n: usize, seed: u64, plan: FaultPlan) -> (Engine<u64>, String, String) {
    let mut e = plan_engine(n, seed, plan);
    let active = pinned_subset(n);
    let (mut rows, mut receivers) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        receivers.extend(sparse_push_rounds(&mut e, &active, 1));
        let sources = sparse_pull_step(&mut e, &active);
        rows.push(sources.iter().map(|&s| u64::from(s)).collect::<Vec<_>>());
    }
    let receivers: Vec<Vec<u64>> = receivers
        .iter()
        .map(|r| r.iter().map(|&v| v as u64).collect())
        .collect();
    (e, sample_fp(&rows), sample_fp(&receivers))
}

/// The six `sparse_kept*` pins: key prefix, n, seed and plan — reliable,
/// under the failure model and under the chaos plan, at n = 1,000 and at
/// n = 20,000 (above the prefetch gate and the parallel threshold).
pub fn sparse_kept_cases() -> Vec<(String, usize, u64, FaultPlan)> {
    let plans = || {
        [
            ("", FaultPlan::none()),
            (
                "_failures",
                FaultPlan::none().with_failure(FailureModel::uniform(0.3).unwrap()),
            ),
            ("_faulted", chaos_plan()),
        ]
    };
    let mut cases = Vec::new();
    for (size, n) in [("", 1_000), ("_large", 20_000)] {
        for (seed, (kind, plan)) in (2121..).step_by(101).zip(plans()) {
            cases.push((format!("sparse_kept{size}{kind}"), n, seed, plan));
        }
    }
    cases
}

// --- the pin file -----------------------------------------------------------

/// The pinned constants, embedded at compile time.
pub const GOLDENS: &str = include_str!("../data/goldens.txt");

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
            "no golden pin named {key:?} in tests/data/goldens.txt — \
             regenerate with `cargo run -p gossip-net --example regen_goldens -- --write`"
        )
    })
}

/// Recomputes every pinned value, in the canonical file order. This is the
/// single source of truth for what each scenario executes; the test suites
/// replay the same builders against [`pinned`].
pub fn compute_all() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut pin = |k: &str, v| out.push((k.to_owned(), v));

    let mut e = engine(512, 101, FailureModel::None);
    pull_rounds(&mut e, 8);
    pin("pull.metrics", metrics_line(&e));
    pin("pull.fp", fingerprint(e.states()));

    let mut e = engine(512, 101, FailureModel::uniform(0.3).unwrap());
    pull_rounds(&mut e, 8);
    pin("pull_failures.metrics", metrics_line(&e));
    pin("pull_failures.fp", fingerprint(e.states()));

    let mut e = engine(512, 202, FailureModel::None);
    push_rounds(&mut e, 8);
    pin("push.metrics", metrics_line(&e));
    pin("push.fp", fingerprint(e.states()));

    let mut e = engine(512, 202, FailureModel::uniform(0.3).unwrap());
    push_rounds(&mut e, 8);
    pin("push_failures.metrics", metrics_line(&e));
    pin("push_failures.fp", fingerprint(e.states()));

    let mut e = engine(512, 303, FailureModel::None);
    push_pull_rounds(&mut e, 8);
    pin("push_pull.metrics", metrics_line(&e));
    pin("push_pull.fp", fingerprint(e.states()));

    let mut e = engine(512, 303, FailureModel::uniform(0.3).unwrap());
    push_pull_rounds(&mut e, 8);
    pin("push_pull_failures.metrics", metrics_line(&e));
    pin("push_pull_failures.fp", fingerprint(e.states()));

    let mut e = engine(512, 404, FailureModel::None);
    let samples = pulled_samples(&mut e, None, 3);
    pin("collect.metrics", metrics_line(&e));
    pin("collect.sample_fp", sample_fp(&samples));

    let mut e = engine(512, 404, FailureModel::uniform(0.4).unwrap());
    let samples = pulled_samples(&mut e, None, 3);
    pin("collect_failures.metrics", metrics_line(&e));
    pin("collect_failures.sample_fp", sample_fp(&samples));

    let mut e = engine(512, 505, FailureModel::None);
    hash_local_steps(&mut e, 4);
    pin("local_step.metrics", metrics_line(&e));
    pin("local_step.fp", fingerprint(e.states()));

    let mut e = engine(600, 606, FailureModel::uniform(0.2).unwrap());
    for _ in 0..3 {
        mixed_iteration(&mut e);
    }
    pin("mixed.metrics", metrics_line(&e));
    pin("mixed.fp", fingerprint(e.states()));

    let e = faulted_mixed(600, 909);
    pin("faulted_mixed.metrics", metrics_line(&e));
    pin("faulted_mixed.faults", fault_metrics_line(&e));
    pin("faulted_mixed.fp", fingerprint(e.states()));

    let mut e = engine(20_000, 707, FailureModel::None);
    pull_rounds(&mut e, 2);
    push_rounds(&mut e, 2);
    push_pull_rounds(&mut e, 2);
    pin("large.metrics", metrics_line(&e));
    pin("large.fp", fingerprint(e.states()));

    let mut e = engine(20_000, 808, FailureModel::uniform(0.25).unwrap());
    pull_rounds(&mut e, 2);
    push_rounds(&mut e, 2);
    push_pull_rounds(&mut e, 2);
    pin("large_failures.metrics", metrics_line(&e));
    pin("large_failures.fp", fingerprint(e.states()));

    let e = faulted_large(1010);
    pin("faulted_large.metrics", metrics_line(&e));
    pin("faulted_large.faults", fault_metrics_line(&e));
    pin("faulted_large.fp", fingerprint(e.states()));

    for (name, n, seed, plan) in sparse_kept_cases() {
        let (e, sources, receivers) = sparse_kept(n, seed, plan);
        pin(&format!("{name}.metrics"), metrics_line(&e));
        pin(&format!("{name}.faults"), fault_metrics_line(&e));
        pin(&format!("{name}.fp"), fingerprint(e.states()));
        pin(&format!("{name}.sources"), sources);
        pin(&format!("{name}.receivers"), receivers);
    }

    out
}
