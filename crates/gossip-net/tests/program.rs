//! Program-replay equivalence: the golden trajectories of `tests/golden.rs`,
//! re-executed through [`RoundProgram`] / [`Engine::fused`], must reproduce
//! the **same pinned fingerprints** — fusing a schedule into one resident
//! pool dispatch is a scheduling change, never a semantic one.
//!
//! On top of the pins, the suite checks the composition laws that make fused
//! execution safe to adopt incrementally: a program split at any cut point
//! into two sequential fused runs equals both the unsplit program and the
//! plain loop, and a whole program costs a single pool dispatch where the
//! loop pays one per round.
//!
//! Every test runs at `par::num_threads()`, so CI's `GOSSIP_NUM_THREADS`
//! matrix (crossed with `GOSSIP_SPIN_US` for the spin-vs-park barrier paths)
//! checks each pin at 1/2/8 threads.

#[path = "support/goldens.rs"]
mod support;

use gossip_net::{
    ActiveSet, Engine, EngineConfig, FailureModel, Metrics, RoundProgram, StepKind, Topology,
};
use rand::Rng;
use support::{
    chaos_plan, engine, fault_metrics_line, fingerprint, fold_hash, initial_states, metrics_line,
    mixed_iteration, pinned,
};

/// Records `rounds` copies of the golden pull-round body.
fn record_pulls(p: &mut RoundProgram<'_, u64>, rounds: usize) {
    for _ in 0..rounds {
        p.pull(
            |_, &s| s,
            |_, st, pulled| {
                if let Some(pl) = pulled {
                    *st = fold_hash(*st, pl);
                }
            },
        );
    }
}

/// Records `rounds` copies of the golden push-round body.
fn record_pushes(p: &mut RoundProgram<'_, u64>, rounds: usize) {
    for _ in 0..rounds {
        p.push(
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

/// Records `rounds` copies of the golden push–pull-round body.
fn record_push_pulls(p: &mut RoundProgram<'_, u64>, rounds: usize) {
    for _ in 0..rounds {
        p.push_pull(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
    }
}

#[test]
fn golden_pull_replays_through_a_program() {
    let mut e = engine(512, 101, FailureModel::None);
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_pulls(&mut p, 8);
    e.run_program(&mut p);
    assert_eq!(metrics_line(&e), pinned("pull.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull.fp"));
}

#[test]
fn golden_pull_with_failures_replays_through_a_program() {
    let mut e = engine(512, 101, FailureModel::uniform(0.3).unwrap());
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_pulls(&mut p, 8);
    e.run_program(&mut p);
    assert_eq!(metrics_line(&e), pinned("pull_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("pull_failures.fp"));
}

#[test]
fn golden_push_replays_through_a_program() {
    let mut e = engine(512, 202, FailureModel::None);
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_pushes(&mut p, 8);
    e.run_program(&mut p);
    assert_eq!(metrics_line(&e), pinned("push.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push.fp"));
}

#[test]
fn golden_push_pull_replays_through_a_program() {
    let mut e = engine(512, 303, FailureModel::None);
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_push_pulls(&mut p, 8);
    e.run_program(&mut p);
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
fn golden_large_n_replays_through_a_program() {
    // Large enough that multi-thread CI matrix entries take the parallel CSR
    // bucketing path *inside resident phases*.
    let mut e = engine(20_000, 707, FailureModel::None);
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_pulls(&mut p, 2);
    record_pushes(&mut p, 2);
    record_push_pulls(&mut p, 2);
    e.run_program(&mut p);
    assert_eq!(metrics_line(&e), pinned("large.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("large.fp"));
}

// --- cut-point splits -------------------------------------------------------

/// The step alphabet of the split tests; a schedule is a word over it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Pull,
    Push,
    PushPull,
    Local,
    Collect,
}

const OPS: [Op; 5] = [Op::Pull, Op::Push, Op::PushPull, Op::Local, Op::Collect];

/// Executes one op directly — the loop baseline.
fn run_op(e: &mut Engine<u64>, op: Op) {
    match op {
        Op::Pull => {
            e.pull_round(
                |_, &s| s,
                |_, st, pulled| {
                    if let Some(p) = pulled {
                        *st = fold_hash(*st, p);
                    }
                },
            );
        }
        Op::Push => {
            e.push_round(
                |v, &s| if v % 3 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if !delivered {
                        *st = st.wrapping_add(1);
                    }
                },
            );
        }
        Op::PushPull => {
            e.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
        }
        Op::Local => {
            e.local_step(|v, st, rng| {
                *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
            });
        }
        Op::Collect => {
            let samples = e.collect_samples_flat(2, |_, &s| s);
            e.local_step(|v, st, _| {
                if let Some(s) = samples.sample(v, 0) {
                    *st = fold_hash(*st, s);
                }
                if let Some(s) = samples.sample(v, 1) {
                    *st = fold_hash(*st, s);
                }
            });
        }
    }
}

/// Records the same op into a program.
fn record_op(p: &mut RoundProgram<'_, u64>, op: Op) {
    match op {
        Op::Pull => {
            p.pull(
                |_, &s| s,
                |_, st, pulled| {
                    if let Some(pl) = pulled {
                        *st = fold_hash(*st, pl);
                    }
                },
            );
        }
        Op::Push => {
            p.push(
                |v, &s| if v % 3 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if !delivered {
                        *st = st.wrapping_add(1);
                    }
                },
            );
        }
        Op::PushPull => {
            p.push_pull(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
        }
        Op::Local => {
            p.local_step(|v, st, rng| {
                *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
            });
        }
        Op::Collect => {
            p.collect_local(
                2,
                |_, &s| s,
                |_, st, _, samples| {
                    for &s in samples.iter().flatten() {
                        *st = fold_hash(*st, s);
                    }
                },
            );
        }
    }
}

fn run_ops_as_split_programs(
    n: usize,
    seed: u64,
    failure: &FailureModel,
    ops: &[Op],
    cut: usize,
) -> (Vec<u64>, Metrics) {
    let mut e = engine(n, seed, failure.clone());
    let mut head: RoundProgram<'_, u64> = RoundProgram::new();
    for &op in &ops[..cut] {
        record_op(&mut head, op);
    }
    let mut tail: RoundProgram<'_, u64> = RoundProgram::new();
    for &op in &ops[cut..] {
        record_op(&mut tail, op);
    }
    e.run_program(&mut head);
    e.run_program(&mut tail);
    let metrics = e.metrics();
    (e.into_states(), metrics)
}

#[test]
fn programs_split_at_any_cut_point_match_the_loop() {
    // Property-style schedule generation without a proptest dependency: the
    // op word and the exercised cut points are drawn from the same splitmix
    // finalizer the fingerprints use, so the cases are reproducible yet
    // arbitrary. Every split of the word into two sequentially fused
    // programs must equal the hand-rolled loop bit for bit — fusion has no
    // memory across session boundaries. The small failing engine runs the
    // collect steps as their composition; the reliable 20k one runs them as
    // the fused, parallel, prefetched sample step.
    for (n, failure) in [
        (500, FailureModel::uniform(0.2).unwrap()),
        (20_000, FailureModel::None),
    ] {
        let seed = 4242;
        let ops: Vec<Op> = (0..12)
            .map(|i| OPS[(support::mix64(seed ^ i) % OPS.len() as u64) as usize])
            .collect();
        assert!(ops.iter().any(|op| matches!(op, Op::Collect)));

        let mut looped = engine(n, seed, failure.clone());
        for &op in &ops {
            run_op(&mut looped, op);
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
            let split = run_ops_as_split_programs(n, seed, &failure, &ops, cut);
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
    // The fused pass (parallel at 20k, past the prefetch gate) against the
    // composition, for every k the tournaments use (1, 2 and 3 samples, the
    // 15-sample vote), with and without a participation cut, at every
    // prefetch distance, on the complete graph and an expander. Two steps
    // back to back also pin the round-counter and local-epoch advance.
    let n = 20_000;
    for topology in [Topology::Complete, Topology::random_regular(16, 3)] {
        // Clones share the graph cache, so the expander is built once.
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
                    let case = format!("{topology}: k={k} dense={dense} dist={dist}");
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
            EngineConfig::with_seed(31).failure(FailureModel::uniform(0.3).unwrap()),
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
fn a_program_costs_one_dispatch_where_the_loop_pays_per_round() {
    // The point of the whole layer, asserted on the engine's own metrics: a
    // 16-round recorded schedule is one pool dispatch; the identical loop
    // pays at least one per round. (Workers are required — the inline
    // single-thread path has no hand-off to count.)
    let rounds = 16;
    let run = |fuse: bool| {
        let mut e = engine(512, 1313, FailureModel::None);
        e.set_threads(2);
        let before = e.metrics().pool_dispatches;
        let mut p: RoundProgram<'_, u64> = RoundProgram::new();
        record_pulls(&mut p, rounds);
        if fuse {
            e.run_program(&mut p);
        } else {
            for _ in 0..rounds {
                run_op(&mut e, Op::Pull);
            }
        }
        let m = e.metrics();
        (m.pool_dispatches - before, e.into_states())
    };
    let (program_dispatches, program_states) = run(true);
    let (loop_dispatches, loop_states) = run(false);
    assert_eq!(program_states, loop_states);
    assert_eq!(program_dispatches, 1, "a session is one hand-off");
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
        let mut p: RoundProgram<'_, u64> = RoundProgram::new();
        record_pulls(&mut p, 4);
        if fuse {
            e.run_program(&mut p);
        } else {
            for _ in 0..4 {
                run_op(&mut e, Op::Pull);
            }
        }
        e.metrics()
    };
    let fused = run(true);
    let looped = run(false);
    assert_eq!(fused, looped);
    assert_ne!(fused.pool_dispatches, looped.pool_dispatches);
}

#[test]
fn step_kinds_describe_the_recorded_schedule() {
    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
    record_op(&mut p, Op::Pull);
    record_op(&mut p, Op::Collect);
    p.step(StepKind::Custom, |_| {});
    let kinds: Vec<String> = p.kinds().map(|k| k.to_string()).collect();
    assert_eq!(kinds, ["pull", "collect", "custom"]);
}
