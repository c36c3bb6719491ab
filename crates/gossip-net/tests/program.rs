//! Fused-session equivalence: the golden trajectories of `tests/golden.rs`,
//! re-executed inside [`Engine::fused`], must reproduce the **same pinned
//! fingerprints** — fusing a schedule into one resident pool dispatch is a
//! scheduling change, never a semantic one.
//!
//! On top of the pins, the suite checks the composition laws that make fused
//! execution safe to adopt incrementally: a schedule split at any cut point
//! into two sequential fused sessions equals the plain loop, a sample step
//! equals its composition, and a whole session — nested blocks included —
//! costs a single pool dispatch where the loop pays one per round.
//!
//! Every test runs at `par::num_threads()`, so CI's `GOSSIP_NUM_THREADS`
//! matrix (crossed with `GOSSIP_SPIN_US` for the spin-vs-park barrier paths)
//! checks each pin at 1/2/8 threads.

#[path = "support/goldens.rs"]
mod support;

use gossip_net::{ActiveSet, Engine, EngineConfig, FailureModel, FaultPlan, Metrics, Topology};
use rand::Rng;
use support::{
    chaos_plan, engine, fault_metrics_line, fingerprint, fold_hash, hash_local_steps,
    initial_states, metrics_line, mixed_iteration, pinned, pinned_subset, pull_rounds,
    push_pull_rounds, push_rounds, sparse_pull_rounds, sparse_push_pull_rounds, sparse_push_rounds,
};

#[test]
fn golden_pull_replays_through_fused() {
    let mut e = engine(512, 101, FailureModel::None);
    e.fused(|e| pull_rounds(e, 8));
    assert_eq!(metrics_line(&e), pinned("pull.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull.fp"));
}

#[test]
fn golden_pull_with_failures_replays_through_fused() {
    let mut e = engine(512, 101, FailureModel::uniform(0.3).unwrap());
    e.fused(|e| pull_rounds(e, 8));
    assert_eq!(metrics_line(&e), pinned("pull_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull_failures.fp"));
}

#[test]
fn golden_push_replays_through_fused() {
    let mut e = engine(512, 202, FailureModel::None);
    e.fused(|e| push_rounds(e, 8));
    assert_eq!(metrics_line(&e), pinned("push.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push.fp"));
}

#[test]
fn golden_push_pull_replays_through_fused() {
    let mut e = engine(512, 303, FailureModel::None);
    e.fused(|e| push_pull_rounds(e, 8));
    assert_eq!(metrics_line(&e), pinned("push_pull.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push_pull.fp"));
}

#[test]
fn golden_mixed_sequence_replays_through_fused() {
    // The broadest pinned trajectory — all five primitives, failure
    // injection on — executed inside one fused session. `mixed_iteration`'s
    // collect feeds the same iteration's local step, so this also covers
    // sequential session-thread work between resident phases.
    let mut e = engine(600, 606, FailureModel::uniform(0.2).unwrap());
    e.fused(|e| {
        for _ in 0..3 {
            mixed_iteration(e);
        }
    });
    assert_eq!(metrics_line(&e), pinned("mixed.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("mixed.fp"));
}

#[test]
fn golden_faulted_mixed_replays_through_fused() {
    // The full chaos plan (churn, loss, stragglers, failures) under a fused
    // session: the fault-injection randomness contract must survive
    // residency exactly as it survives thread counts.
    let config = EngineConfig::with_seed(909).fault(chaos_plan());
    let mut e = Engine::from_states(initial_states(600), config);
    e.set_threads(gossip_net::par::num_threads());
    e.fused(|e| {
        for _ in 0..3 {
            mixed_iteration(e);
        }
    });
    assert_eq!(metrics_line(&e), pinned("faulted_mixed.metrics"));
    assert_eq!(fault_metrics_line(&e), pinned("faulted_mixed.faults"));
    assert_eq!(fingerprint(e.states()), pinned("faulted_mixed.fp"));
}

#[test]
fn golden_large_n_replays_through_fused() {
    // Large enough that multi-thread CI matrix entries take the parallel CSR
    // bucketing path *inside resident phases*.
    let mut e = engine(20_000, 707, FailureModel::None);
    e.fused(|e| {
        pull_rounds(e, 2);
        push_rounds(e, 2);
        push_pull_rounds(e, 2);
    });
    assert_eq!(metrics_line(&e), pinned("large.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("large.fp"));
}

// --- cut-point splits -------------------------------------------------------

/// The step alphabet of the split tests; a schedule is a word over it. The
/// `*On` ops run over [`pinned_subset`], a fixed proper subset.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Pull,
    Push,
    PushPull,
    Local,
    Collect,
    PullOn,
    PushOn,
    PushPullOn,
    LocalOn,
}

const OPS: [Op; 9] = [
    Op::Pull,
    Op::Push,
    Op::PushPull,
    Op::Local,
    Op::Collect,
    Op::PullOn,
    Op::PushOn,
    Op::PushPullOn,
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
        Op::PullOn => sparse_pull_rounds(e, active, 1),
        Op::PushOn => {
            sparse_push_rounds(e, active, 1);
        }
        Op::PushPullOn => {
            sparse_push_pull_rounds(e, active, 1);
        }
        Op::LocalOn => {
            e.local_step_on(active, |v, st, rng| {
                *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
            });
        }
    }
}

/// Runs `ops` as two sequential fused sessions, split at `cut`.
fn run_ops_as_split_sessions(
    n: usize,
    seed: u64,
    failure: &FailureModel,
    ops: &[Op],
    cut: usize,
) -> (Vec<u64>, Metrics) {
    let mut e = engine(n, seed, failure.clone());
    let active = pinned_subset(n);
    for part in [&ops[..cut], &ops[cut..]] {
        e.fused(|e| {
            for &op in part {
                run_op(e, &active, op, true);
            }
        });
    }
    let metrics = e.metrics();
    (e.into_states(), metrics)
}

#[test]
fn sessions_split_at_any_cut_point_match_the_loop() {
    // Property-style schedule generation without a proptest dependency: the
    // op word and the exercised cut points are drawn from the same splitmix
    // finalizer the fingerprints use, so the cases are reproducible yet
    // arbitrary. The word holds every op once, in a seeded order, followed by
    // seeded draws, so every primitive, dense and sparse, runs in the split
    // sessions. Every split of the word into two sequentially
    // fused sessions must equal the hand-rolled loop bit for bit — fusion
    // has no memory across session boundaries. The split side runs the
    // collect steps as sample steps, the loop as their composition: the
    // small failing engine's sample step composes itself, the reliable 20k
    // one runs the fused, parallel, prefetched pass.
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

        let mut looped = engine(n, seed, failure.clone());
        let active = pinned_subset(n);
        for &op in &ops {
            run_op(&mut looped, &active, op, false);
        }
        let loop_metrics = looped.metrics();
        let baseline = (looped.into_states(), loop_metrics);

        // Both degenerate cuts (empty head / empty tail), plus pseudo-random
        // interior ones.
        let mut cuts = vec![0, ops.len()];
        cuts.extend(
            (0..4).map(|i| (support::mix64(seed.wrapping_add(100 + i)) as usize) % ops.len()),
        );
        for cut in cuts {
            let split = run_ops_as_split_sessions(n, seed, &failure, &ops, cut);
            assert_eq!(
                split,
                baseline,
                "n = {n}: split at {cut}/{} diverged from the loop",
                ops.len()
            );
        }
    }
}

// --- fused sample step ≡ its composition ------------------------------------

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
/// fused primitive.
fn fused_step(e: &mut Engine<u64>, k: usize, dense: usize) {
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
/// dense rounds, a sparse collect of the cut rounds over the participant
/// set, and a local step.
fn composed_step(e: &mut Engine<u64>, k: usize, dense: usize) {
    let active = ActiveSet::from_fn(e.n(), participates);
    let head = e.collect_samples_flat(dense, |_, &s| s);
    let tail = if dense < k {
        e.collect_samples_on(&active, k - dense, |_, &s| s)
    } else {
        Vec::new()
    };
    e.local_step(|v, st, rng| {
        let coin = rng.gen::<u64>();
        let cut_rounds = active.rank(v).filter(|_| dense < k);
        let rounds = if cut_rounds.is_some() || dense == k {
            k
        } else {
            dense
        };
        let tail = cut_rounds.map_or(&[][..], |r| tail[r].as_slice());
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
    // The fused pass against the composition — on the cache-resident path
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
                    let mut fused = graph_engine(n, &config);
                    fused.set_prefetch_dist(dist);
                    fused.fused(|e| {
                        fused_step(e, k, dense);
                        fused_step(e, k, dense);
                    });
                    let case = format!("n={n} {topology}: k={k} dense={dense} dist={dist}");
                    assert_eq!(fused.metrics(), composed_metrics, "{case}");
                    assert_eq!(fused.round(), composed.round(), "{case}");
                    assert_eq!(fused.states(), composed.states(), "{case}");
                }
            }
        }
    }
}

#[test]
fn sample_step_on_failing_engines_runs_the_composition() {
    // Failure models and disruptive fault plans take the composed path;
    // its flat per-round columns must reproduce the nested and sparse
    // collectors' coins, drops and crashes exactly.
    for (name, config) in [
        (
            "failures",
            EngineConfig::with_seed(31)
                .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.3).unwrap())),
        ),
        ("chaos", EngineConfig::with_seed(31).fault(chaos_plan())),
    ] {
        for (k, dense) in [(2, 2), (3, 1), (15, 15)] {
            let run = |fuse: bool| {
                let mut e = Engine::from_states(initial_states(600), config.clone());
                e.set_threads(gossip_net::par::num_threads());
                for _ in 0..2 {
                    if fuse {
                        fused_step(&mut e, k, dense);
                    } else {
                        composed_step(&mut e, k, dense);
                    }
                }
                let metrics = e.metrics();
                (e.into_states(), metrics)
            };
            let composed = run(false);
            assert!(
                composed.1.failed_operations + composed.1.messages_dropped > 0,
                "{name}: no pull failed"
            );
            assert_eq!(run(true), composed, "{name}: k={k} dense={dense}");
        }
    }
}

// --- scheduling-counter contract --------------------------------------------

#[test]
fn a_session_costs_one_dispatch_where_the_loop_pays_per_round() {
    // The point of fusing, asserted on the engine's own metrics: a 16-round
    // schedule inside one fused block is one pool dispatch, and so is the
    // same schedule split across a block nested inside another (the inner
    // block runs inside the outer session); the identical loop pays at least
    // one per round. (Workers are required — the inline single-thread path
    // has no hand-off to count.)
    let rounds = 16;
    let run = |schedule: &dyn Fn(&mut Engine<u64>)| {
        let mut e = engine(512, 1313, FailureModel::None);
        e.set_threads(2);
        let before = e.metrics().pool_dispatches;
        schedule(&mut e);
        (e.metrics().pool_dispatches - before, e.into_states())
    };
    let (loop_dispatches, loop_states) = run(&|e| pull_rounds(e, rounds));
    let (fused_dispatches, fused_states) = run(&|e| e.fused(|e| pull_rounds(e, rounds)));
    let (nested_dispatches, nested_states) = run(&|e| {
        e.fused(|e| {
            pull_rounds(e, rounds / 2);
            e.fused(|e| pull_rounds(e, rounds / 2));
        })
    });
    assert_eq!(fused_states, loop_states);
    assert_eq!(nested_states, loop_states);
    assert_eq!(fused_dispatches, 1, "a session is one hand-off");
    assert_eq!(nested_dispatches, 1, "a nested block joins the session");
    assert!(
        loop_dispatches >= rounds as u64,
        "looped dispatches {loop_dispatches} < {rounds} rounds"
    );
}

#[test]
fn scheduling_counters_do_not_affect_metrics_equality() {
    // The determinism suites compare `Metrics` across runs whose scheduling
    // differs (fused vs looped, 1 vs 8 threads); the == contract must ignore
    // the dispatch/wakeup counters or every such comparison would be flaky.
    let run = |fuse: bool| {
        let mut e = engine(256, 77, FailureModel::None);
        e.set_threads(2);
        if fuse {
            e.fused(|e| pull_rounds(e, 4));
        } else {
            pull_rounds(&mut e, 4);
        }
        e.metrics()
    };
    let fused = run(true);
    let looped = run(false);
    assert_eq!(fused, looped);
    assert_ne!(fused.pool_dispatches, looped.pool_dispatches);
}
