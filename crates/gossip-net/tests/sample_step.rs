//! The sample step against the composition it is defined by: a
//! [`Engine::sample_step`] — `k` pull rounds against the round-start states,
//! drawn, gathered and applied in one pass — must leave the same states,
//! round counter and metrics as collecting the samples round by round and
//! applying them in a local step, alone and inside a word over every dense
//! and sparse primitive.
//!
//! Every test runs at `par::num_threads()`, so CI's `GOSSIP_NUM_THREADS`
//! matrix (crossed with `GOSSIP_SPIN_US` for the spin-vs-park barrier paths)
//! checks each case at 1/2/3/8 threads.

#[path = "support/goldens.rs"]
mod support;

use gossip_net::{
    ActiveSet, ChurnModel, Engine, EngineConfig, FailureModel, FaultPlan, MessageSize, Metrics,
    Topology,
};
use rand::Rng;
use support::{
    chaos_plan, engine, fold_hash, hash_local_steps, initial_states, pinned_subset, pull_rounds,
    push_pull_rounds, push_rounds, sparse_pull_step, sparse_push_rounds,
};

// --- a word over every primitive ---------------------------------------------

/// The step alphabet of the word test; a schedule is a word over it. The
/// `*On` ops run over [`pinned_subset`], a fixed proper subset.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Pull,
    Push,
    PushPull,
    Local,
    Collect,
    SourcesOn,
    PushOn,
    LocalOn,
}

const OPS: [Op; 8] = [
    Op::Pull,
    Op::Push,
    Op::PushPull,
    Op::Local,
    Op::Collect,
    Op::SourcesOn,
    Op::PushOn,
    Op::LocalOn,
];

/// Executes one op. `Collect` runs as the sample step when `sample_step`
/// is set, and as the composition it is defined by — a flat collect, then
/// a local step — otherwise.
fn run_op(e: &mut Engine<u64>, active: &ActiveSet, op: Op, sample_step: bool) {
    match op {
        Op::Pull => pull_rounds(e, 1),
        Op::Push => push_rounds(e, 1),
        Op::PushPull => push_pull_rounds(e, 1),
        Op::Local => hash_local_steps(e, 1),
        Op::Collect if sample_step => {
            e.sample_step(
                2,
                2,
                |_| true,
                |_, &s| s,
                |_, st, _, samples| {
                    for &s in samples.iter().flatten() {
                        *st = fold_hash(*st, s);
                    }
                },
            );
        }
        Op::Collect => {
            let samples = e.collect_samples_flat(2, |_, &s| s);
            e.local_step(|v, st, _| {
                for &s in samples.row(v) {
                    *st = fold_hash(*st, s);
                }
            });
        }
        Op::SourcesOn => {
            sparse_pull_step(e, active);
        }
        Op::PushOn => {
            sparse_push_rounds(e, active, 1);
        }
        Op::LocalOn => {
            e.local_step_on(active, |v, st, rng| {
                *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
            });
        }
    }
}

/// Runs `ops` on a fresh engine, `Collect` as a sample step when
/// `sample_step` is set and as its composition otherwise.
fn run_word(
    n: usize,
    seed: u64,
    failure: &FailureModel,
    ops: &[Op],
    sample_step: bool,
) -> (Vec<u64>, Metrics) {
    let mut e = engine(n, seed, failure.clone());
    let active = pinned_subset(n);
    for &op in ops {
        run_op(&mut e, &active, op, sample_step);
    }
    let metrics = e.metrics();
    (e.into_states(), metrics)
}

#[test]
fn sample_steps_in_a_word_over_every_primitive_match_the_composition() {
    // Property-style schedule generation without a proptest dependency: the
    // op word is drawn from the same splitmix finalizer the fingerprints
    // use, so the case is reproducible yet arbitrary. The word holds every
    // op once, in a seeded order, followed by seeded draws, so every
    // primitive, dense and sparse, runs between the sample steps. The
    // small failing engine's sample steps run the cache-resident pass with
    // failure coins, the reliable 20k one the parallel, prefetched pass.
    for (n, failure) in [
        (500, FailureModel::uniform(0.2).unwrap()),
        (20_000, FailureModel::None),
    ] {
        let seed = 4242;
        let mut ops = OPS.to_vec();
        ops.sort_by_key(|&op| support::mix64(seed ^ op as u64));
        ops.extend(
            (0..7).map(|i| OPS[(support::mix64(seed ^ (16 + i)) % OPS.len() as u64) as usize]),
        );
        assert!(OPS.iter().all(|op| ops.contains(op)), "{ops:?}");
        assert_eq!(
            run_word(n, seed, &failure, &ops, true),
            run_word(n, seed, &failure, &ops, false),
            "n = {n}: the sample steps diverged from their composition"
        );
    }
}

// --- one sample step ≡ its composition --------------------------------------

/// The participation predicate of the cut cases: pure in the node id, about
/// a third of the nodes.
fn participates(v: usize) -> bool {
    support::mix64(v as u64 ^ 0xc0ffee) % 3 == 0
}

/// The update every sample-step case applies: an order-sensitive fold of the
/// delivered samples, the number of rounds the node pulled in, and one local
/// coin — so any change to which samples arrive, in which order, at which
/// nodes, or to the local RNG stream shows up in the states.
fn fold_samples(st: &mut u64, rounds: usize, delivered: impl Iterator<Item = u64>, coin: u64) {
    for s in delivered {
        *st = fold_hash(*st, s);
    }
    *st = fold_hash(*st, rounds as u64) ^ (coin & 0xff);
}

/// One `k`-sample step (rounds `dense..k` at the participants only) as the
/// one-pass primitive.
fn one_pass_step(e: &mut Engine<u64>, k: usize, dense: usize) {
    e.sample_step(
        k,
        dense,
        participates,
        |_, &s| s,
        |_, st, rng, samples| {
            let coin = rng.gen::<u64>();
            fold_samples(st, samples.len(), samples.iter().flatten().copied(), coin);
        },
    );
}

/// The same step as the composition it is defined by: a flat collect of the
/// dense rounds, the cut rounds as source-only pull rounds over the
/// participant set (their deliveries read from a snapshot of the
/// round-start states), and a local step.
fn composed_step(e: &mut Engine<u64>, k: usize, dense: usize) {
    let active = ActiveSet::from_fn(e.n(), participates);
    let head = e.collect_samples_flat(dense, |_, &s| s);
    let snap = e.states().to_vec();
    let tail: Vec<Vec<u32>> = (dense..k)
        .map(|_| {
            let mut sources = vec![0; snap.len()];
            e.pull_sources(Some(&active), |t| snap[t].message_bits(), &mut sources);
            sources
        })
        .collect();
    e.local_step(|v, st, rng| {
        let coin = rng.gen::<u64>();
        let rounds = if dense == k || active.contains(v) {
            k
        } else {
            dense
        };
        let tail = tail.iter().filter_map(|row| snap.get(row[v] as usize));
        fold_samples(st, rounds, head.row(v).chain(tail).copied(), coin);
    });
}

fn graph_engine(n: usize, config: &EngineConfig) -> Engine<u64> {
    let mut e = Engine::from_states(initial_states(n), config.clone());
    e.set_threads(gossip_net::par::num_threads());
    e
}

#[test]
fn sample_step_matches_its_composition() {
    // The one-pass step against the composition — on the cache-resident path
    // (n = 256) and the parallel, prefetched one (20k is above
    // PAR_MIN_NODES and the prefetch gate) — for every k the tournaments use
    // (1, 2 and 3 samples, the 15-sample vote), with and without a
    // participation cut, at every prefetch distance, on the complete graph
    // and an expander. Two steps back to back also pin the round-counter and
    // local-epoch advance.
    for (n, topology) in [256, 20_000].into_iter().flat_map(|n| {
        [
            (n, Topology::Complete),
            (n, Topology::random_regular(16, 3)),
        ]
    }) {
        // Clones share the graph cache, so the expander is built once per n.
        let config = EngineConfig::with_seed(77).topology(topology);
        for k in [1, 2, 3, 15] {
            for dense in [k, k / 2] {
                let mut composed = graph_engine(n, &config);
                composed_step(&mut composed, k, dense);
                composed_step(&mut composed, k, dense);
                let composed_metrics = composed.metrics();
                for dist in [0, 1, 32] {
                    let mut stepped = graph_engine(n, &config);
                    stepped.set_prefetch_dist(dist);
                    one_pass_step(&mut stepped, k, dense);
                    one_pass_step(&mut stepped, k, dense);
                    let case = format!("n={n} {topology}: k={k} dense={dense} dist={dist}");
                    assert_eq!(stepped.metrics(), composed_metrics, "{case}");
                    assert_eq!(stepped.round(), composed.round(), "{case}");
                    assert_eq!(stepped.states(), composed.states(), "{case}");
                }
            }
        }
    }
}

#[test]
fn sample_step_under_faults_matches_its_composition() {
    // Under every kind of fault the one pass must reproduce the composed
    // collectors' coins, drops and crashes exactly: on the cache-resident
    // path (n = 600) and the parallel, prefetched one (20k), for the
    // tournaments' step sizes and a step whose targets overflow the stack
    // batch (300, gathered unbatched), with and without a participation
    // cut. Churn advances through a step's rounds before the pass, so both
    // churn kinds run alone as well as inside the chaos plan.
    for n in [600, 20_000] {
        let per_node: Vec<f64> = (0..n).map(|v| [0.5, 0.05, 0.2][v % 3]).collect();
        for (name, plan) in [
            (
                "failures",
                FaultPlan::none().with_failure(FailureModel::uniform(0.3).unwrap()),
            ),
            (
                "per-node failures",
                FaultPlan::none().with_failure(FailureModel::per_node(per_node).unwrap()),
            ),
            (
                "crash-stop churn",
                FaultPlan::none().with_churn(ChurnModel::crash_stop(0.02).unwrap()),
            ),
            (
                "rejoining churn",
                FaultPlan::none().with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap()),
            ),
            ("chaos", chaos_plan()),
        ] {
            let config = EngineConfig::with_seed(31).fault(plan);
            for k in [2, 3, 15, 300] {
                // At 20k the overflowing step runs under the chaos plan
                // only, which carries every fault kind at once; the full
                // grid there would take most of the suite's time.
                if n > 600 && k > 256 && name != "chaos" {
                    continue;
                }
                for dense in [k, k / 2] {
                    let run = |one_pass: bool| {
                        let mut e = graph_engine(n, &config);
                        for _ in 0..2 {
                            if one_pass {
                                one_pass_step(&mut e, k, dense);
                            } else {
                                composed_step(&mut e, k, dense);
                            }
                        }
                        let metrics = e.metrics();
                        (e.crashed_nodes(), metrics, e.into_states())
                    };
                    let composed = run(false);
                    let m = &composed.1;
                    assert!(
                        m.failed_operations + m.messages_dropped + m.crashed_operations > 0,
                        "n={n} {name}: no pull failed"
                    );
                    assert_eq!(run(true), composed, "n={n} {name}: k={k} dense={dense}");
                }
            }
        }
    }
}
