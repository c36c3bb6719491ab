//! Determinism contract of the parallel engine: for a fixed seed, executions
//! are bit-identical across thread counts (the `GOSSIP_NUM_THREADS=1,2,3,8`
//! matrix of CI; 3 threads cut n = 20 000 into unequal chunks), across separately constructed
//! engines replaying the same round sequence, with failure injection on, and
//! regardless of which `WorkerPool` — private, grown, or shared between
//! engines — the rounds dispatch on.
//!
//! These tests exercise all three round primitives plus sampling rounds
//! (`pull_sources`) and `local_step` (itself a pooled chunk map), with
//! non-commutative state folds where possible so that any ordering
//! difference between runs shows up as a state difference.

#[path = "support/goldens.rs"]
mod support;

use gossip_net::{
    ActiveSet, ChurnModel, Engine, EngineConfig, FailureModel, FaultPlan, LossModel, Metrics,
    NodeRng, StragglerModel, Topology, WorkerPool,
};
use rand::Rng;
use std::sync::Arc;

const THREAD_MATRIX: [usize; 4] = [1, 2, 3, 8];

/// A state whose update history is order-sensitive: a running hash of every
/// message folded into it. Any change in delivery order or content changes
/// the final value.
fn fold_hash(state: u64, msg: u64) -> u64 {
    (state.rotate_left(7) ^ msg).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Drives one engine through a fixed, mixed sequence of primitives and
/// returns its final states and metrics.
fn run_mixed_sequence(mut engine: Engine<u64>, threads: usize) -> (Vec<u64>, Metrics) {
    engine.set_threads(threads);
    for _ in 0..3 {
        engine.pull_round(
            |_, &s| s,
            |_, st, pulled| {
                if let Some(p) = pulled {
                    *st = fold_hash(*st, p);
                }
            },
        );
        engine.push_round(
            |v, &s| if v % 3 == 0 { None } else { Some(s) },
            |_, st, msg| *st = fold_hash(*st, msg),
            |_, st, delivered| {
                if !delivered {
                    *st = st.wrapping_add(1);
                }
            },
        );
        engine.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
        let samples = support::pulled_samples(&mut engine, None, 2);
        engine.local_step(|v, st, rng| {
            for &s in &samples[v] {
                *st = fold_hash(*st, s);
            }
            if rng.gen::<f64>() < 0.25 {
                *st = st.rotate_right(3);
            }
        });
    }
    let metrics = engine.metrics();
    (engine.into_states(), metrics)
}

fn engine(n: usize, seed: u64, failure: FailureModel) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).fault(FaultPlan::none().with_failure(failure));
    Engine::from_states((0..n as u64).map(|v| v.wrapping_mul(31)).collect(), config)
}

#[test]
fn mixed_rounds_are_identical_across_thread_counts_without_failures() {
    let baseline = run_mixed_sequence(engine(1000, 7, FailureModel::None), 1);
    for threads in THREAD_MATRIX {
        let run = run_mixed_sequence(engine(1000, 7, FailureModel::None), threads);
        assert_eq!(
            run, baseline,
            "{threads} threads diverged from the 1-thread run"
        );
    }
}

#[test]
fn mixed_rounds_are_identical_across_thread_counts_with_failure_injection() {
    let model = || FailureModel::uniform(0.3).unwrap();
    let baseline = run_mixed_sequence(engine(1000, 21, model()), 1);
    assert!(
        baseline.1.failed_operations > 0,
        "failure injection did not fire"
    );
    for threads in THREAD_MATRIX {
        let run = run_mixed_sequence(engine(1000, 21, model()), threads);
        assert_eq!(run, baseline, "{threads} threads diverged under failures");
    }
}

#[test]
fn per_node_failure_schedules_are_thread_count_invariant() {
    let model = || {
        FailureModel::schedule(|node, round| {
            if (node + round as usize) % 4 == 0 {
                0.9
            } else {
                0.05
            }
        })
    };
    let baseline = run_mixed_sequence(engine(600, 5, model()), 1);
    for threads in THREAD_MATRIX {
        let run = run_mixed_sequence(engine(600, 5, model()), threads);
        assert_eq!(
            run, baseline,
            "{threads} threads diverged under a failure schedule"
        );
    }
}

#[test]
fn two_separately_constructed_engines_replay_identically() {
    // Same seed, same initial states, same call sequence — but different
    // Engine instances and different thread counts.
    let first = run_mixed_sequence(engine(800, 99, FailureModel::uniform(0.2).unwrap()), 2);
    let second = run_mixed_sequence(engine(800, 99, FailureModel::uniform(0.2).unwrap()), 8);
    assert_eq!(first, second);
}

#[test]
fn different_seeds_still_diverge() {
    // Guards against the determinism machinery accidentally ignoring the seed.
    let a = run_mixed_sequence(engine(500, 1, FailureModel::None), 2);
    let b = run_mixed_sequence(engine(500, 2, FailureModel::None), 2);
    assert_ne!(a.0, b.0);
}

#[test]
fn sampling_rounds_are_thread_count_invariant() {
    let run = |threads: usize| {
        let mut e = engine(700, 13, FailureModel::uniform(0.1).unwrap());
        e.set_threads(threads);
        support::pulled_samples(&mut e, None, 4)
    };
    let baseline = run(1);
    for threads in THREAD_MATRIX {
        assert_eq!(
            run(threads),
            baseline,
            "{threads} threads changed the sample sets"
        );
    }
}

#[test]
fn pool_reuse_across_engines_is_invisible_in_the_results() {
    // One persistent pool serving a whole matrix of engines sequentially —
    // including engines of different sizes in between — must leave every
    // engine's execution identical to a run on a private pool.
    let baseline = run_mixed_sequence(engine(1000, 7, FailureModel::None), 1);
    let pool = Arc::new(WorkerPool::new(8));
    for threads in THREAD_MATRIX {
        let config = EngineConfig::with_seed(7).pool(Arc::clone(&pool));
        let e = Engine::from_states((0..1000u64).map(|v| v.wrapping_mul(31)).collect(), config);
        let run = run_mixed_sequence(e, threads);
        assert_eq!(
            run, baseline,
            "{threads} threads on the shared pool diverged"
        );
        // Interleave an unrelated engine on the same pool between matrix
        // entries; it must not perturb the next entry.
        let mut other = Engine::from_states(
            vec![3u64; 64],
            EngineConfig::with_seed(threads as u64).pool(Arc::clone(&pool)),
        );
        other.set_threads(2);
        other.push_pull_round(|_, &s| s, |_, st, m| *st = st.wrapping_add(m));
    }
}

#[test]
fn local_step_is_identical_across_thread_counts() {
    // The dedicated local_step matrix: algorithm-local coins plus an
    // order-sensitive fold of a shared read-only capture, at every thread
    // count of the matrix.
    let run = |threads: usize| {
        let mut e = engine(1000, 31, FailureModel::None);
        e.set_threads(threads);
        let samples = support::pulled_samples(&mut e, None, 2);
        for _ in 0..5 {
            e.local_step(|v, st, rng| {
                for &s in &samples[v] {
                    *st = fold_hash(*st, s);
                }
                if rng.gen::<f64>() < 0.5 {
                    *st = st.rotate_left(11);
                }
            });
        }
        e.into_states()
    };
    let baseline = run(1);
    for threads in THREAD_MATRIX {
        assert_eq!(
            run(threads),
            baseline,
            "{threads}-thread local_step diverged"
        );
    }
}

#[test]
fn sender_order_fold_is_thread_count_invariant() {
    // Push paths file each landed push under its sender chunk and receiver
    // range, and every receiver range folds its lists in sender-chunk order;
    // 1 thread files everything in one list. Every split — 3 threads cut
    // 20 000 nodes into 6 667 / 6 667 / 6 666 — must fold each receiver's
    // messages in the same ascending sender order.
    let run = |threads: usize| {
        let mut e = engine(20_000, 17, FailureModel::uniform(0.15).unwrap());
        e.set_threads(threads);
        for _ in 0..2 {
            e.push_round(
                |v, &s| if v % 7 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if delivered {
                        *st = st.rotate_left(1);
                    }
                },
            );
            e.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
        }
        let metrics = e.metrics();
        (e.into_states(), metrics)
    };
    let baseline = run(1);
    for threads in THREAD_MATRIX {
        assert_eq!(
            run(threads),
            baseline,
            "{threads}-thread sender-order fold diverged"
        );
    }
}

#[test]
fn non_complete_topologies_are_thread_count_invariant() {
    // The full mixed-primitive sequence (pull, push, push–pull, sampling,
    // local steps), with failure injection on, for each restricted topology:
    // peer sampling through the materialised adjacency must be exactly as
    // thread-count-independent as the complete graph's implicit one.
    // n = 600 factorises as a 24 × 25 torus and comfortably hosts an
    // 8-regular graph.
    for topology in [
        Topology::random_regular(8, 5),
        Topology::ring(3),
        Topology::Torus2D,
    ] {
        let make = || {
            let config = EngineConfig::with_seed(23)
                .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.2).unwrap()))
                .topology(topology);
            Engine::from_states((0..600u64).map(|v| v.wrapping_mul(31)).collect(), config)
        };
        let baseline = run_mixed_sequence(make(), 1);
        assert!(baseline.1.failed_operations > 0, "failures did not fire");
        for threads in THREAD_MATRIX {
            let run = run_mixed_sequence(make(), threads);
            assert_eq!(
                run, baseline,
                "{topology}: {threads} threads diverged from the 1-thread run"
            );
        }
    }
}

#[test]
fn sender_order_fold_with_sparse_topology_is_thread_count_invariant() {
    // Sparse peer sampling concentrates receivers (every delivery lands in a
    // small neighbourhood, often across a receiver-range boundary), which
    // must not perturb the sender-order fold at any thread count.
    let run = |threads: usize| {
        let config = EngineConfig::with_seed(31)
            .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.15).unwrap()))
            .topology(Topology::random_regular(8, 11));
        let mut e =
            Engine::from_states((0..20_000u64).map(|v| v.wrapping_mul(31)).collect(), config);
        e.set_threads(threads);
        for _ in 0..2 {
            e.push_round(
                |v, &s| if v % 7 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if delivered {
                        *st = st.rotate_left(1);
                    }
                },
            );
            e.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
        }
        let metrics = e.metrics();
        (e.into_states(), metrics)
    };
    let baseline = run(1);
    for threads in THREAD_MATRIX {
        assert_eq!(
            run(threads),
            baseline,
            "{threads}-thread sparse-topology sender-order fold diverged"
        );
    }
}

#[test]
fn sparse_push_at_20k_is_thread_count_invariant() {
    // The sparse execution path at the size where the dense engine runs
    // parallel by default: an active subset pushes through push_round_on
    // (pair-sort bucketing, copy-on-write commit), interleaved with a dense
    // pull so sparse-written and densely-written buffers mix. Results and the
    // reported receiver sets must be identical at every thread count.
    let run = |threads: usize| {
        let n = 20_000;
        let active = ActiveSet::from_fn(n, |v| v % 11 == 0);
        let mut e = engine(n, 47, FailureModel::uniform(0.15).unwrap());
        e.set_threads(threads);
        let mut receiver_log = Vec::new();
        for _ in 0..3 {
            let out = e.push_round_on(
                &active,
                |v, &s| if v % 5 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if delivered {
                        *st = st.rotate_left(1);
                    }
                },
            );
            receiver_log.push(out);
            e.pull_round(
                |_, &s| s,
                |_, st, p| {
                    if let Some(p) = p {
                        *st = fold_hash(*st, p);
                    }
                },
            );
        }
        let metrics = e.metrics();
        (e.into_states(), metrics, receiver_log)
    };
    let baseline = run(1);
    assert!(baseline.1.failed_operations > 0, "failures did not fire");
    for threads in THREAD_MATRIX {
        assert_eq!(
            run(threads),
            baseline,
            "{threads}-thread sparse push diverged"
        );
    }
}

#[test]
fn sparse_push_then_pull_at_20k_is_thread_count_invariant() {
    // The entry above interleaved with dense pull rounds: each sparse push's
    // copy-on-write commit feeds a dense round, which must stay exactly as
    // thread-count-invariant as either kind of round alone.
    let run = |threads: usize| {
        let n = 20_000;
        let active = ActiveSet::from_fn(n, |v| v % 11 == 0);
        let mut e = engine(n, 47, FailureModel::uniform(0.15).unwrap());
        e.set_threads(threads);
        for _ in 0..3 {
            e.push_round_on(
                &active,
                |v, &s| if v % 5 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if delivered {
                        *st = st.rotate_left(1);
                    }
                },
            );
            e.pull_round(
                |_, &s| s,
                |_, st, p| {
                    if let Some(p) = p {
                        *st = fold_hash(*st, p);
                    }
                },
            );
        }
        let metrics = e.metrics();
        (e.into_states(), metrics)
    };
    let baseline = run(1);
    assert!(baseline.1.failed_operations > 0, "failures did not fire");
    for threads in THREAD_MATRIX {
        assert_eq!(
            run(threads),
            baseline,
            "{threads}-thread sparse push / dense pull diverged"
        );
    }
}

#[test]
fn sample_step_at_20k_is_thread_count_invariant() {
    // The fused sample step draws, prefetches and applies all k samples of a
    // node in one pass, and counts the cut rounds' participants per chunk.
    // Chunk boundaries move with the thread count; the states, the metrics
    // and the participant counts must not.
    let run = |threads: usize| {
        let mut e = engine(20_000, 53, FailureModel::None);
        e.set_threads(threads);
        for (k, dense) in [(2, 2), (3, 1), (15, 15)] {
            e.sample_step(
                k,
                dense,
                |v| v % 4 == 1,
                |_, &s| s,
                |_, st, rng, samples| {
                    *st = fold_hash(*st, samples.len() as u64);
                    for &s in samples.iter().flatten() {
                        *st = fold_hash(*st, s);
                    }
                    if rng.gen::<f64>() < 0.25 {
                        *st = st.rotate_right(3);
                    }
                },
            );
        }
        let metrics = e.metrics();
        (e.into_states(), metrics)
    };
    let baseline = run(1);
    assert_eq!(
        baseline.1.active_nodes_total,
        20_000 * (2 + 1 + 15) + 2 * 5_000
    );
    for threads in THREAD_MATRIX {
        assert_eq!(
            run(threads),
            baseline,
            "{threads}-thread sample step diverged"
        );
    }
}

#[test]
fn pull_sources_at_20k_is_thread_count_invariant() {
    // The source-only pull round writes each node's realised source in a
    // chunked pass (dense, or over the active indices after a reset) and
    // sums its metrics per chunk; under the chaos plan it runs the
    // fault-aware column body. Sources and metrics must not move with the
    // thread count.
    let n = 20_000;
    let active = ActiveSet::from_fn(n, |v| v % 5 != 2);
    for plan in [FaultPlan::none(), chaos_plan()] {
        let run = |threads: usize| {
            let config = EngineConfig::with_seed(61).fault(plan.clone());
            let mut e: Engine<()> = Engine::from_states(vec![(); n], config);
            e.set_threads(threads);
            let mut rows = vec![0u32; 3 * n];
            for (r, row) in rows.chunks_exact_mut(n).enumerate() {
                let set = (r == 1).then_some(&active);
                e.pull_sources(set, |t| 64 + t as u64 % 3, row);
            }
            (rows, e.metrics())
        };
        let baseline = run(1);
        for threads in THREAD_MATRIX {
            assert_eq!(
                run(threads),
                baseline,
                "{threads}-thread source draw diverged"
            );
        }
    }
}

/// The full fault plan: churn with rejoin, message loss, stragglers, and the
/// Section 5 failure model, all active at once.
fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap())
        .with_loss(LossModel::uniform(0.15).unwrap())
        .with_stragglers(StragglerModel::uniform(0.2, 2).unwrap())
        .with_failure(FailureModel::uniform(0.1).unwrap())
}

fn fault_engine(n: usize, seed: u64) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).fault(chaos_plan());
    Engine::from_states((0..n as u64).map(|v| v.wrapping_mul(31)).collect(), config)
}

#[test]
fn mixed_rounds_are_identical_across_thread_counts_with_fault_injection() {
    // The faulty execution paths (churn scans, loss coins, straggler
    // buffering and drain) must be exactly as thread-count-independent as
    // the pinned fast loops.
    let baseline = run_mixed_sequence(fault_engine(1000, 43), 1);
    assert!(baseline.1.crashed_operations > 0, "churn did not fire");
    assert!(baseline.1.messages_dropped > 0, "loss did not fire");
    assert!(baseline.1.messages_delayed > 0, "stragglers did not fire");
    assert!(baseline.1.failed_operations > 0, "failures did not fire");
    for threads in THREAD_MATRIX {
        let run = run_mixed_sequence(fault_engine(1000, 43), threads);
        assert_eq!(run, baseline, "{threads} threads diverged under faults");
    }
}

#[test]
fn large_n_fault_injection_is_thread_count_invariant() {
    // At the parallel default, the faulty push passes concatenate straggled
    // contacts chunk-by-chunk and fold due arrivals after the in-round
    // deliveries; both must be invisible to the thread count.
    let run = |threads: usize| {
        let mut e = fault_engine(20_000, 71);
        e.set_threads(threads);
        for _ in 0..3 {
            e.push_round(
                |v, &s| if v % 7 == 0 { None } else { Some(s) },
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if delivered {
                        *st = st.rotate_left(1);
                    }
                },
            );
            e.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
        }
        let metrics = e.metrics();
        let crashed = e.crashed_nodes();
        let in_flight = e.delayed_in_flight();
        (e.into_states(), metrics, crashed, in_flight)
    };
    let baseline = run(1);
    assert!(baseline.1.messages_delayed > 0, "stragglers did not fire");
    for threads in THREAD_MATRIX {
        assert_eq!(
            run(threads),
            baseline,
            "{threads}-thread faulty push path diverged"
        );
    }
}

#[test]
fn sparse_rounds_with_fault_injection_are_thread_count_invariant() {
    // Active-set rounds under the full chaos plan: the sparse faulty passes
    // merge due straggler receivers into the copy-on-write written set; the
    // reported receiver log must also be identical at every thread count.
    let run = |threads: usize| {
        let n = 4000;
        let active = ActiveSet::from_fn(n, |v| v % 5 == 0);
        let mut e = fault_engine(n, 53);
        e.set_threads(threads);
        let mut receiver_log = Vec::new();
        for _ in 0..4 {
            let out = e.push_round_on(
                &active,
                |_, &s| Some(s),
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if delivered {
                        *st = st.rotate_left(1);
                    }
                },
            );
            receiver_log.push(out);
            support::sparse_pull_step(&mut e, &active);
        }
        let metrics = e.metrics();
        (e.into_states(), metrics, receiver_log)
    };
    let baseline = run(1);
    assert!(baseline.1.messages_dropped > 0, "loss did not fire");
    for threads in THREAD_MATRIX {
        assert_eq!(
            run(threads),
            baseline,
            "{threads}-thread sparse faulty rounds diverged"
        );
    }
}

#[test]
fn node_rng_streams_are_independent_of_order_of_use() {
    // Drawing from node 5's stream never perturbs node 6's stream — the
    // property that makes per-chunk execution order irrelevant.
    let mut a5 = NodeRng::keyed(3, 1, 5, NodeRng::STREAM_ROUND);
    let mut a6 = NodeRng::keyed(3, 1, 6, NodeRng::STREAM_ROUND);
    let first5: Vec<u64> = (0..8).map(|_| a5.next_u64()).collect();
    let first6: Vec<u64> = (0..8).map(|_| a6.next_u64()).collect();

    let mut b6 = NodeRng::keyed(3, 1, 6, NodeRng::STREAM_ROUND);
    let mut b5 = NodeRng::keyed(3, 1, 5, NodeRng::STREAM_ROUND);
    let second6: Vec<u64> = (0..8).map(|_| b6.next_u64()).collect();
    let second5: Vec<u64> = (0..8).map(|_| b5.next_u64()).collect();

    assert_eq!(first5, second5);
    assert_eq!(first6, second6);
}

/// A two-field state, so each round's fold moves a struct, not a word.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairState {
    value: u64,
    tag: u64,
}

#[test]
fn struct_states_are_identical_across_thread_counts_and_layout_knobs() {
    // Struct states run through pull/push rounds whose layout knobs (copy
    // block, prefetch distance) vary per configuration. Every
    // (threads, knobs) point of the matrix must yield bit-identical states —
    // the knobs are mechanical-sympathy switches, never semantic ones.
    let initial: Vec<PairState> = (0..2000u64)
        .map(|v| PairState {
            value: v.wrapping_mul(31),
            tag: v ^ 0x5eed,
        })
        .collect();

    let run = |threads: usize, block: usize, dist: usize| {
        let mut e = Engine::from_states(initial.clone(), EngineConfig::with_seed(77));
        e.set_threads(threads);
        e.set_copy_block(block).set_prefetch_dist(dist);
        let active = ActiveSet::from_fn(2000, |v| v % 3 != 0);
        for _ in 0..3 {
            e.pull_round(
                |_, st| st.value,
                |_, st, pulled| {
                    if let Some(p) = pulled {
                        st.value = fold_hash(st.value, p);
                    }
                },
            );
            e.push_round(
                |_, st| Some(st.tag),
                |_, st, msg| st.tag = fold_hash(st.tag, msg),
                |_, _, _| {},
            );
            e.push_round_on(
                &active,
                |_, st| Some(st.value),
                |_, st, msg| st.value = fold_hash(st.value, msg),
                |_, _, _| {},
            );
        }
        let metrics = e.metrics();
        (e.into_states(), metrics)
    };

    let (baseline_states, baseline_metrics) = run(1, 2048, 32);
    for (i, &threads) in THREAD_MATRIX.iter().enumerate() {
        // Vary every knob along the matrix, including the degenerate block
        // size and a disabled prefetcher.
        let (block, dist) = [(1, 0), (64, 8), (1000, 3), (4096, 512)][i];
        let (states, metrics) = run(threads, block, dist);
        assert_eq!(
            states, baseline_states,
            "{threads} threads / block {block} / dist {dist} diverged"
        );
        assert_eq!(metrics, baseline_metrics);
    }
}

#[test]
fn env_var_thread_counts_honoured_at_construction_do_not_change_results() {
    // Engines pick their default thread count from the environment at
    // construction; results must nevertheless be a pure function of the seed.
    // (Large-n engines default to the parallel path; this just cross-checks
    // an explicit override of that default against the sequential run.)
    let auto = engine(2000, 55, FailureModel::None);
    let default_threads = auto.threads();
    assert!(default_threads >= 1);
    let auto_run = run_mixed_sequence(auto, default_threads);
    let forced_run = run_mixed_sequence(engine(2000, 55, FailureModel::None), 1);
    assert_eq!(auto_run, forced_run);
}
