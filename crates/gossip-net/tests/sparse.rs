//! Sparse/dense equivalence pins and active-set round properties.
//!
//! Three layers of evidence that the sparse execution paths
//! (`push_round_on`, `local_step_on` and `pull_sources` over an active set)
//! are faithful:
//!
//! 1. **Equivalence pins** — each sparse primitive, run over
//!    [`ActiveSet::full`], reproduces the *same* golden fingerprints pinned in
//!    `tests/data/goldens.txt` for the dense engine (the scenarios are
//!    identical, so both suites read the same keys; regenerate with
//!    `cargo run -p gossip-net --example regen_goldens -- --write`).
//! 2. **Proper-subset pins** — the `sparse_kept*` scenarios over a fixed
//!    partial active set, pinned to constants of their own.
//! 3. **Property tests** — over partial active sets: sources arrive only at
//!    members, push receivers are exactly the reported set, sparse and dense
//!    runs agree wherever dense activity is emulated with silent senders,
//!    and metrics count participants instead of `n`.
//!
//! Every test runs at `par::num_threads()` workers, so CI's 1/2/3/8-thread
//! matrix exercises the sparse dispatch at each thread count.

#[path = "support/goldens.rs"]
mod support;

use gossip_net::{
    par, ActiveSet, ChurnModel, Engine, EngineConfig, FailureModel, FaultPlan, LossModel,
    RoundKind, StragglerModel,
};
use proptest::prelude::*;
use rand::Rng;
use support::{
    chaos_plan, engine, fault_metrics_line, fingerprint, fold_hash, metrics_line, pinned,
    pull_rounds, pulled_samples, push_pull_rounds, sample_fp, sparse_kept, sparse_kept_cases,
    sparse_push_rounds,
};

// ---------------------------------------------------------------------------
// Equivalence pins: sparse over the FULL set == the dense golden constants.
// ---------------------------------------------------------------------------

#[test]
fn full_set_push_matches_dense_golden_pin() {
    let mut e = engine(512, 202, FailureModel::None);
    sparse_push_rounds(&mut e, &ActiveSet::full(512), 8);
    assert_eq!(metrics_line(&e), pinned("push.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push.fp"));
}

#[test]
fn full_set_push_with_failures_matches_dense_golden_pin() {
    let mut e = engine(512, 202, FailureModel::uniform(0.3).unwrap());
    sparse_push_rounds(&mut e, &ActiveSet::full(512), 8);
    assert_eq!(metrics_line(&e), pinned("push_failures.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("push_failures.fp"));
}

#[test]
fn full_set_sampling_rounds_match_dense_golden_pin() {
    let mut e = engine(512, 404, FailureModel::None);
    let samples = pulled_samples(&mut e, Some(&ActiveSet::full(512)), 3);
    assert_eq!(metrics_line(&e), pinned("collect.metrics"));
    assert_eq!(sample_fp(&samples), pinned("collect.sample_fp"));
}

#[test]
fn full_set_sampling_rounds_with_failures_match_dense_golden_pin() {
    let mut e = engine(512, 404, FailureModel::uniform(0.4).unwrap());
    let samples = pulled_samples(&mut e, Some(&ActiveSet::full(512)), 3);
    assert_eq!(metrics_line(&e), pinned("collect_failures.metrics"));
    assert_eq!(sample_fp(&samples), pinned("collect_failures.sample_fp"));
}

#[test]
fn full_set_local_step_matches_dense_golden_pin() {
    let mut e = engine(512, 505, FailureModel::None);
    let full = ActiveSet::full(512);
    for _ in 0..4 {
        e.local_step_on(&full, |v, st, rng| {
            *st = fold_hash(*st, rng.gen::<u64>() ^ v as u64);
            if rng.gen::<f64>() < 0.25 {
                *st = st.rotate_right(3);
            }
        });
    }
    assert_eq!(metrics_line(&e), pinned("local_step.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("local_step.fp"));
}

#[test]
fn full_set_large_n_matches_dense_golden_pin() {
    // The 20k scenario of golden.rs with its push rounds over the full set:
    // at multi-thread runs of the CI matrix, the *dense* engine folds per
    // receiver range here; the sparse full-set rounds must land on the
    // identical trajectory through their pair-sort bucketing, between the
    // dense pull and push–pull rounds.
    let mut e = engine(20_000, 707, FailureModel::None);
    pull_rounds(&mut e, 2);
    sparse_push_rounds(&mut e, &ActiveSet::full(20_000), 2);
    push_pull_rounds(&mut e, 2);
    assert_eq!(metrics_line(&e), pinned("large.metrics"));
    assert_eq!(fingerprint(e.states()), pinned("large.fp"));
}

// ---------------------------------------------------------------------------
// Proper-subset pins: the sparse rounds over a fixed partial active set,
// pinned to constants of their own (the checks below only compare code paths
// with each other, which a change made to both sides alike would pass):
// `push_round_on`, `pull_sources` over the subset and `local_step_on` (see
// `sparse_kept`).
// ---------------------------------------------------------------------------

fn check_sparse_kept_pin(case: usize) {
    let (name, n, seed, plan) = sparse_kept_cases().swap_remove(case);
    let (e, sources, receivers) = sparse_kept(n, seed, plan);
    let key = |field: &str| format!("{name}.{field}");
    assert_eq!(metrics_line(&e), pinned(&key("metrics")));
    assert_eq!(fault_metrics_line(&e), pinned(&key("faults")));
    assert_eq!(fingerprint(e.states()), pinned(&key("fp")));
    assert_eq!(sources, pinned(&key("sources")));
    assert_eq!(receivers, pinned(&key("receivers")));
}

#[test]
fn kept_sparse_rounds_match_their_pin() {
    check_sparse_kept_pin(0);
}

#[test]
fn kept_sparse_rounds_with_failures_match_their_pin() {
    check_sparse_kept_pin(1);
}

#[test]
fn kept_sparse_rounds_under_the_chaos_plan_match_their_pin() {
    check_sparse_kept_pin(2);
}

#[test]
fn large_kept_sparse_rounds_match_their_pin() {
    check_sparse_kept_pin(3);
}

#[test]
fn large_kept_sparse_rounds_with_failures_match_their_pin() {
    check_sparse_kept_pin(4);
}

#[test]
fn large_kept_sparse_rounds_under_the_chaos_plan_match_their_pin() {
    check_sparse_kept_pin(5);
}

// ---------------------------------------------------------------------------
// Property tests over partial active sets.
//
// Generated by the `proptest` harness (seeded, shrink-on-failure): network
// size, seed and active-set shape are drawn per case instead of being fixed
// constants, so the invariants are exercised across many subset geometries.
// Override the generator seed with `PROPTEST_SEED`.
// ---------------------------------------------------------------------------

proptest! {
    /// A dense run in which inactive nodes are *explicitly* idle must match
    /// the sparse run over the active subset exactly: dense push with
    /// `make -> None` for inactive nodes draws nothing for them, which is
    /// precisely what the sparse path skips.
    fn sparse_push_matches_dense_with_silent_inactive_senders(
        n in 16usize..600,
        seed in 0u64..1_000_000,
        m in 2usize..8,
    ) {
        let active = ActiveSet::from_fn(n, |v| v % m == 0);
        let is_active = |v: usize| v % m == 0;

        let mut dense = engine(n, seed, FailureModel::uniform(0.2).unwrap());
        for _ in 0..3 {
            dense.push_round(
                |v, &s| if is_active(v) { Some(s) } else { None },
                |_, st, msg| *st = fold_hash(*st, msg),
                |v, st, delivered| {
                    if is_active(v) && !delivered {
                        *st = st.wrapping_add(1);
                    }
                },
            );
        }

        let mut sparse = engine(n, seed, FailureModel::uniform(0.2).unwrap());
        for _ in 0..3 {
            sparse.push_round_on(
                &active,
                |_, &s| Some(s),
                |_, st, msg| *st = fold_hash(*st, msg),
                |_, st, delivered| {
                    if !delivered {
                        *st = st.wrapping_add(1);
                    }
                },
            );
        }

        prop_assert_eq!(dense.states(), sparse.states());
        let (dm, sm) = (dense.metrics(), sparse.metrics());
        prop_assert_eq!(dm.pushes_attempted, sm.pushes_attempted);
        prop_assert_eq!(dm.messages_delivered, sm.messages_delivered);
        prop_assert_eq!(dm.failed_operations, sm.failed_operations);
        // The *activity* accounting differs by design: dense rounds count n
        // participants, sparse rounds count the active-set size.
        prop_assert_eq!(dm.active_nodes_total, 3 * n as u64);
        prop_assert_eq!(sm.active_nodes_total, 3 * active.len() as u64);
        prop_assert_eq!(sm.max_active, active.len() as u64);
    }

    fn sparse_push_reports_exactly_the_changed_receivers(
        n in 32usize..800,
        seed in 0u64..1_000_000,
        stride in 1usize..20,
    ) {
        let active = ActiveSet::from_members(n, (0..n).step_by(stride)).unwrap();
        let mut e = Engine::from_states(vec![0u64; n], EngineConfig::with_seed(seed));
        e.set_threads(par::num_threads());
        let before = e.states().to_vec();
        let out = e.push_round_on(
            &active,
            |v, _| Some(v as u64 + 1),
            |_, st, msg| *st += msg,
            |_, _, _| {},
        );
        prop_assert_eq!(out.failed, 0);
        // Receivers are sorted, unique, and exactly the nodes whose state
        // moved.
        prop_assert!(out.receivers.windows(2).all(|w| w[0] < w[1]));
        for (v, (&b, &a)) in before.iter().zip(e.states()).enumerate() {
            prop_assert_eq!(a != b, out.receivers.contains(&v), "node {}", v);
        }
        // Conservation: every active sender's message landed somewhere.
        let total: u64 = e.states().iter().sum();
        let expected: u64 = active.iter().map(|v| v as u64 + 1).sum();
        prop_assert_eq!(total, expected);
    }

    fn pull_sources_on_a_subset_deliver_only_at_members(
        dims in (8usize..300, 0u64..1_000_000),
        k in 1usize..5,
        raw in collection::vec(0u64..100_000, 1..12),
    ) {
        let (n, seed) = dims;
        let active = ActiveSet::from_members(n, raw.iter().map(|&r| r as usize % n)).unwrap();
        let mut e = engine(n, seed, FailureModel::None);
        let initial = e.states().to_vec();
        let mut sources = vec![0u32; n];
        for _ in 0..k {
            e.pull_sources(Some(&active), |_| 64, &mut sources);
            // Every member pulls from another node; nothing arrives elsewhere.
            for (v, &src) in sources.iter().enumerate() {
                if active.contains(v) {
                    prop_assert!((src as usize) < n && src as usize != v, "node {}", v);
                } else {
                    prop_assert_eq!(src, u32::MAX, "non-member {} received", v);
                }
            }
        }
        prop_assert_eq!(e.metrics().rounds, k as u64);
        prop_assert_eq!(e.metrics().active_of(RoundKind::Pull), (k * active.len()) as u64);
        prop_assert_eq!(e.metrics().messages_delivered, (k * active.len()) as u64);
        // States untouched.
        prop_assert_eq!(e.states(), initial.as_slice());
    }

    fn local_step_on_runs_only_the_members(
        n in 16usize..256,
        seed in 0u64..1_000_000,
        cut in 1usize..16,
    ) {
        let active = ActiveSet::from_fn(n, |v| v < cut);
        let mut e = engine(n, seed, FailureModel::None);
        let before = e.states().to_vec();
        e.local_step_on(&active, |v, st, _| *st = v as u64);
        for (v, &b) in before.iter().enumerate() {
            if v < cut {
                prop_assert_eq!(e.states()[v], v as u64);
            } else {
                prop_assert_eq!(e.states()[v], b);
            }
        }
    }

    fn empty_active_set_rounds_are_no_ops_that_still_count_rounds(
        n in 2usize..128,
        seed in 0u64..1_000_000,
    ) {
        let empty = ActiveSet::from_members(n, std::iter::empty()).unwrap();
        let mut e = engine(n, seed, FailureModel::None);
        let before = e.states().to_vec();
        let mut sources = vec![0u32; n];
        e.pull_sources(Some(&empty), |_| 64, &mut sources);
        prop_assert!(sources.iter().all(|&s| s == u32::MAX));
        let out = e.push_round_on(&empty, |_, &s| Some(s), |_, _, _| {}, |_, _, _| {});
        prop_assert!(out.receivers.is_empty());
        prop_assert_eq!(e.states(), before.as_slice());
        prop_assert_eq!(e.round(), 2);
        prop_assert_eq!(e.metrics().rounds, 2);
        prop_assert_eq!(e.metrics().active_nodes_total, 0);
        prop_assert_eq!(e.metrics().max_active, 0);
    }

    /// The copy-on-write commit must leave the front buffer fully current, so
    /// a dense round after a sparse one (and vice versa) sees every node's
    /// latest value. Compare against an all-dense emulation.
    fn sparse_and_dense_rounds_interleave_freely(
        n in 16usize..500,
        seed in 0u64..1_000_000,
        m in 2usize..8,
    ) {
        let active = ActiveSet::from_fn(n, |v| v % m == 0);
        let is_active = |v: usize| v % m == 0;

        let run_mixed = |sparse: bool| {
            let mut e = engine(n, seed, FailureModel::uniform(0.1).unwrap());
            for _ in 0..2 {
                // Dense pull (all nodes).
                e.pull_round(
                    |_, &s| s,
                    |_, st, p| {
                        if let Some(p) = p {
                            *st = fold_hash(*st, p);
                        }
                    },
                );
                // Sparse push from the subset vs dense push with silent
                // others.
                if sparse {
                    e.push_round_on(
                        &active,
                        |_, &s| Some(s),
                        |_, st, msg| *st = fold_hash(*st, msg),
                        |_, _, _| {},
                    );
                } else {
                    e.push_round(
                        |v, &s| if is_active(v) { Some(s) } else { None },
                        |_, st, msg| *st = fold_hash(*st, msg),
                        |_, _, _| {},
                    );
                }
            }
            e.into_states()
        };
        prop_assert_eq!(run_mixed(true), run_mixed(false));
    }
}

// ---------------------------------------------------------------------------
// ActiveSet algebra: union_sorted and the member list against the dense
// bitmap oracle.
// ---------------------------------------------------------------------------

/// Reduces a raw draw to a strictly increasing member list in `0..n`.
fn sorted_members(n: usize, raw: &[u64]) -> Vec<usize> {
    let mut m: Vec<usize> = raw.iter().map(|&r| r as usize % n).collect();
    m.sort_unstable();
    m.dedup();
    m
}

proptest! {
    fn union_sorted_matches_from_members_and_is_idempotent(
        n in 1usize..512,
        raw in collection::vec(0u64..100_000, 0..64),
    ) {
        let members = sorted_members(n, &raw);
        let expect = ActiveSet::from_members(n, members.iter().copied()).unwrap();
        let mut set = ActiveSet::from_members(n, std::iter::empty()).unwrap();
        set.union_sorted(&members);
        prop_assert_eq!(&set, &expect);
        // Unioning the same list again changes nothing.
        set.union_sorted(&members);
        prop_assert_eq!(&set, &expect);
    }

    fn union_sorted_commutes_and_agrees_with_the_dense_bitmap(
        n in 1usize..512,
        raw_a in collection::vec(0u64..100_000, 0..48),
        raw_b in collection::vec(0u64..100_000, 0..48),
    ) {
        let a = sorted_members(n, &raw_a);
        let b = sorted_members(n, &raw_b);
        let mut ab = ActiveSet::from_members(n, a.iter().copied()).unwrap();
        ab.union_sorted(&b);
        let mut ba = ActiveSet::from_members(n, b.iter().copied()).unwrap();
        ba.union_sorted(&a);
        prop_assert_eq!(&ab, &ba);
        let dense = ActiveSet::from_fn(n, |v| {
            a.binary_search(&v).is_ok() || b.binary_search(&v).is_ok()
        });
        prop_assert_eq!(&ab, &dense);
    }

    fn indices_are_the_members_in_order(
        n in 1usize..400,
        raw in collection::vec(0u64..100_000, 0..64),
    ) {
        let members = sorted_members(n, &raw);
        let set = ActiveSet::from_members(n, members.iter().copied()).unwrap();
        // `indices()` and `iter()` list exactly the members, strictly
        // increasing, and agree with the bitmap.
        prop_assert!(set.iter().eq(members.iter().copied()));
        prop_assert!(set.indices().iter().map(|&v| v as usize).eq(set.iter()));
        for v in 0..n {
            prop_assert_eq!(set.contains(v), members.binary_search(&v).is_ok());
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-active scenarios: the sparse faulty paths against the dense ones.
// ---------------------------------------------------------------------------

fn fault_engine(n: usize, seed: u64) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).fault(chaos_plan());
    let mut e = Engine::from_states((0..n as u64).map(|v| v.wrapping_mul(31)).collect(), config);
    e.set_threads(par::num_threads());
    e
}

/// Sparse push rounds over the FULL active set take the same per-contact
/// fault decisions (same counter-keyed coins) as the dense engine, so the
/// two trajectories must be bit-identical — including the straggler buffers
/// the push–pull rounds between them drain.
#[test]
fn full_set_fault_rounds_match_dense_fault_rounds() {
    full_vs_dense_fault_case(1000, 77).unwrap();
}

proptest! {
    /// The same full-set/dense equivalence, over generated sizes and seeds.
    fn full_set_fault_rounds_match_dense_fault_rounds_generated(
        n in 200usize..1000,
        seed in 0u64..1_000_000,
    ) {
        full_vs_dense_fault_case(n, seed)?;
    }
}

fn full_vs_dense_fault_case(n: usize, seed: u64) -> proptest::TestCaseResult {
    let full = ActiveSet::full(n);

    let mut dense = fault_engine(n, seed);
    let mut sparse = fault_engine(n, seed);
    for _ in 0..4 {
        pull_rounds(&mut dense, 1);
        pull_rounds(&mut sparse, 1);
        dense.push_round(
            |v, &s| if v % 5 == 0 { None } else { Some(s) },
            |_, st, msg| *st = fold_hash(*st, msg),
            |_, st, delivered| {
                if !delivered {
                    *st = st.wrapping_add(1);
                }
            },
        );
        sparse.push_round_on(
            &full,
            |v, &s| if v % 5 == 0 { None } else { Some(s) },
            |_, st, msg| *st = fold_hash(*st, msg),
            |_, st, delivered| {
                if !delivered {
                    *st = st.wrapping_add(1);
                }
            },
        );
        push_pull_rounds(&mut dense, 1);
        push_pull_rounds(&mut sparse, 1);
    }

    prop_assert_eq!(dense.states(), sparse.states());
    prop_assert_eq!(dense.crashed_nodes(), sparse.crashed_nodes());
    prop_assert_eq!(dense.delayed_in_flight(), sparse.delayed_in_flight());
    let (dm, sm) = (dense.metrics(), sparse.metrics());
    prop_assert!(dm.crashed_operations > 0, "churn did not fire");
    prop_assert!(dm.messages_dropped > 0, "loss did not fire");
    prop_assert!(dm.messages_delayed > 0, "stragglers did not fire");
    prop_assert_eq!(dm.crashed_operations, sm.crashed_operations);
    prop_assert_eq!(dm.messages_dropped, sm.messages_dropped);
    prop_assert_eq!(dm.messages_delayed, sm.messages_delayed);
    prop_assert_eq!(dm.messages_delivered, sm.messages_delivered);
    prop_assert_eq!(dm.failed_operations, sm.failed_operations);
    Ok(())
}

proptest! {
    /// Under stragglers, a sparse push round's reported receivers include the
    /// late arrivals drained that round — still sorted, unique, and exactly
    /// the nodes whose state changed.
    fn sparse_push_receivers_include_drained_stragglers(
        n in 90usize..600,
        seed in 0u64..1_000_000,
    ) {
        let active = ActiveSet::from_fn(n, |v| v % 3 == 0);
        let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.5, 1).unwrap());
        let mut e = Engine::from_states(vec![0u64; n], EngineConfig::with_seed(seed).fault(plan));
        e.set_threads(par::num_threads());
        let mut total_received = 0u64;
        for _ in 0..4 {
            let before = e.states().to_vec();
            let out = e.push_round_on(
                &active,
                |_, _| Some(1u64),
                |_, st, msg| *st += msg,
                |_, _, _| {},
            );
            prop_assert!(out.receivers.windows(2).all(|w| w[0] < w[1]));
            for (v, (&b, &a)) in before.iter().zip(e.states()).enumerate() {
                prop_assert_eq!(a != b, out.receivers.contains(&v), "node {}", v);
            }
            total_received = e.states().iter().sum();
        }
        // Every delivery (in-round or drained) incremented exactly one
        // counter.
        prop_assert_eq!(total_received, e.metrics().messages_delivered);
        // With delay 1 and four rounds, something straggled and something
        // drained.
        prop_assert!(e.metrics().messages_delayed > 0);
        prop_assert!(total_received > 0);
    }

    /// Sparse sampling rounds under churn and loss: deliveries thin out,
    /// arrive at members only, and leave the states untouched.
    fn pull_sources_on_a_subset_under_faults_thin_deliveries(
        n in 100usize..500,
        seed in 0u64..1_000_000,
    ) {
        let active = ActiveSet::from_fn(n, |v| v % 2 == 0);
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::with_rejoin(0.2, 1).unwrap())
            .with_loss(LossModel::uniform(0.3).unwrap());
        let mut e = Engine::from_states(
            (0..n as u64).collect(),
            EngineConfig::with_seed(seed).fault(plan),
        );
        e.set_threads(par::num_threads());
        let initial = e.states().to_vec();
        let (mut sources, mut total) = (vec![0u32; n], 0);
        for _ in 0..4 {
            e.pull_sources(Some(&active), |_| 64, &mut sources);
            for (v, &src) in sources.iter().enumerate() {
                prop_assert!(src == u32::MAX || active.contains(v), "non-member {}", v);
                total += usize::from(src != u32::MAX);
            }
        }
        prop_assert_eq!(total as u64, e.metrics().messages_delivered);
        prop_assert!(total < 4 * active.len());
        prop_assert!(total > 0);
        prop_assert_eq!(e.states(), initial.as_slice());
        prop_assert!(e.metrics().messages_dropped > 0);
    }
}

#[test]
#[should_panic(expected = "ActiveSet was built for a")]
fn mismatched_active_set_size_panics() {
    let mut e = engine(64, 1, FailureModel::None);
    let wrong = ActiveSet::full(65);
    e.push_round_on(&wrong, |_, &s| Some(s), |_, _, _| {}, |_, _, _| {});
}
