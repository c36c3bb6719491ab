//! Bit-identity of the memory-layout machinery: the cache-blocked
//! back-buffer refresh, the batched target gather with software prefetch,
//! the flat column-major sample matrix, and the run-batched copy-on-write
//! commit are *mechanical* rewrites of the per-slot paths — for every block
//! size, prefetch distance, active-set shape, and failure model, in the
//! dense rounds and in the sparse push rounds alike, they must
//! produce exactly the states, metrics, and sample values of the per-slot
//! configuration (`set_copy_block(1)` with `set_prefetch_dist(0)`: one slot
//! cloned, then served, at a time; for the commit, the per-slot swap
//! `soa::swap_runs` is checked against). The flat sample matrix and the lane
//! collector are pinned against the source-only pull round they are built
//! on.
//!
//! Property tests draw those knobs arbitrarily (proptest); every test runs
//! at `par::num_threads()` workers, so CI's 1/2/3/8-thread matrix exercises
//! the blocked paths at each thread count.

use gossip_net::message::seq_message_bits;
use gossip_net::{
    par, soa, ActiveSet, ChurnModel, Engine, EngineConfig, FailureModel, FaultPlan, LaneMatrix,
    LossModel, MessageSize, Metrics,
};
use proptest::prelude::*;

fn fold_hash(state: u64, msg: u64) -> u64 {
    (state.rotate_left(7) ^ msg).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn engine(n: usize, seed: u64, failure: FailureModel) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).fault(FaultPlan::none().with_failure(failure));
    let mut e = Engine::from_states((0..n as u64).map(|v| v.wrapping_mul(31)).collect(), config);
    e.set_threads(par::num_threads());
    e
}

fn failure_for(p: f64) -> FailureModel {
    if p <= 0.0 {
        FailureModel::None
    } else {
        FailureModel::uniform(p).expect("valid probability")
    }
}

/// An engine in the per-slot configuration every layout knob setting is
/// compared against: refresh blocks of one slot, no prefetch.
fn per_slot(n: usize, seed: u64, failure: FailureModel) -> Engine<u64> {
    let mut e = engine(n, seed, failure);
    e.set_copy_block(1).set_prefetch_dist(0);
    e
}

fn pull_rounds(e: &mut Engine<u64>, rounds: usize) -> (Vec<u64>, Metrics) {
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
    (e.states().to_vec(), e.metrics())
}

proptest! {
    /// The blocked + prefetched pull round is bit-identical to the per-slot
    /// configuration for arbitrary sizes, block sizes, prefetch distances,
    /// and failure rates.
    fn blocked_pull_matches_per_slot(
        size in (16usize..600, 0u64..1_000_000),
        knobs in (1usize..512, 0usize..64),
        fail_p in proptest::f64_range(0.0, 0.4),
    ) {
        let (n, seed) = size;
        let (block, dist) = knobs;
        let reference = pull_rounds(&mut per_slot(n, seed, failure_for(fail_p)), 4);
        let mut e = engine(n, seed, failure_for(fail_p));
        e.set_copy_block(block).set_prefetch_dist(dist);
        let blocked = pull_rounds(&mut e, 4);
        prop_assert_eq!(reference, blocked);
    }

    /// Push and push–pull rounds (whose pass 2 refreshes the back buffer in
    /// blocks and prefetches the receiver slots of the sender-order fold)
    /// are invariant under the layout knobs.
    fn dense_push_rounds_are_knob_invariant(
        size in (16usize..600, 0u64..1_000_000),
        knobs in (1usize..512, 0usize..64),
        fail_p in proptest::f64_range(0.0, 0.4),
    ) {
        let (n, seed) = size;
        let run = |block_dist: Option<(usize, usize)>| {
            let mut e = engine(n, seed, failure_for(fail_p));
            if let Some((b, d)) = block_dist {
                e.set_copy_block(b).set_prefetch_dist(d);
            }
            for _ in 0..3 {
                e.push_round(
                    |v, &s| if v % 3 == 0 { None } else { Some(s) },
                    |_, st, msg| *st = fold_hash(*st, msg),
                    |_, st, delivered| {
                        if !delivered {
                            *st = st.wrapping_add(1);
                        }
                    },
                );
                e.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
            }
            (e.states().to_vec(), e.metrics())
        };
        prop_assert_eq!(run(None), run(Some(knobs)));
    }

    /// The sparse push round runs the dense body over its members, so it
    /// honours both knobs too: over a proper subset, between dense pull and
    /// push–pull rounds, at sizes below and above the 64 KiB prefetch gate
    /// (8,192 `u64` states), every block size and prefetch distance
    /// reproduces the per-slot configuration's states, metrics and receiver
    /// lists.
    fn sparse_rounds_are_knob_invariant(
        size in (16usize..600, 0u64..1_000_000, 0usize..2),
        knobs in (1usize..512, 0usize..64, 2usize..6),
        fail_p in proptest::f64_range(0.0, 0.4),
    ) {
        let (small, seed, above_gate) = size;
        let n = if above_gate == 1 { 8_192 + 7 * small } else { small };
        let (block, dist, stride) = knobs;
        let phase = seed as usize % stride;
        let active = ActiveSet::from_fn(n, |v| v % stride != phase);
        let run = |mut e: Engine<u64>| {
            let mut receivers = Vec::new();
            for _ in 0..3 {
                pull_rounds(&mut e, 1);
                let pushed = e.push_round_on(
                    &active,
                    |v, &s| if v % 3 == 0 { None } else { Some(s) },
                    |_, st, msg| *st = fold_hash(*st, msg),
                    |_, st, delivered| {
                        if !delivered {
                            *st = st.wrapping_add(1);
                        }
                    },
                );
                receivers.push(pushed.receivers);
                e.push_pull_round(|_, &s| s, |_, st, msg| *st = fold_hash(*st, msg));
            }
            (e.states().to_vec(), e.metrics(), receivers)
        };
        let mut e = engine(n, seed, failure_for(fail_p));
        e.set_copy_block(block).set_prefetch_dist(dist);
        prop_assert_eq!(run(per_slot(n, seed, failure_for(fail_p))), run(e));
    }

    /// `swap_runs` itself, against the per-slot reference, for arbitrary
    /// sorted id sets over an arbitrary chunk base.
    fn swap_runs_matches_per_slot_swap(
        shape in (1usize..200, 0usize..50),
        picks in proptest::collection::vec(0usize..200, 0..100),
    ) {
        let (len, base) = shape;
        let mut ids: Vec<u32> = picks.into_iter().filter(|&i| i < len).map(|i| (i + base) as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut a: Vec<u64> = (0..len as u64).collect();
        let mut b: Vec<u64> = (0..len as u64).map(|v| v.wrapping_mul(97).wrapping_add(13)).collect();
        let (mut a_ref, mut b_ref) = (a.clone(), b.clone());
        for &id in &ids {
            let i = id as usize - base;
            std::mem::swap(&mut a_ref[i], &mut b_ref[i]);
        }
        soa::swap_runs(&ids, base, &mut a, &mut b);
        prop_assert_eq!(a, a_ref);
        prop_assert_eq!(b, b_ref);
    }

    /// The flat column-major sample matrix holds exactly the values its
    /// `k` source-only pull rounds read from a snapshot of the states —
    /// same values, same round order, same metrics — under arbitrary failure
    /// rates.
    fn flat_sample_matrix_matches_pulled_sources(
        size in (16usize..600, 0u64..1_000_000),
        k in 1usize..6,
        fail_p in proptest::f64_range(0.0, 0.4),
    ) {
        let (n, seed) = size;
        let mut flat_engine = engine(n, seed, failure_for(fail_p));
        let flat = flat_engine.collect_samples_flat(k, |_, &s| s);
        let mut drawn = engine(n, seed, failure_for(fail_p));
        let snap = drawn.states().to_vec();
        let mut sources = vec![0u32; n];
        for r in 0..k {
            drawn.pull_sources(None, |_| 64, &mut sources);
            for (v, &src) in sources.iter().enumerate() {
                prop_assert_eq!(flat.sample(v, r), snap.get(src as usize).copied(), "node {}", v);
            }
        }
        prop_assert_eq!(drawn.metrics(), flat_engine.metrics());
    }
}

/// The block loop's edge cases — block ≥ chunk, block = 1, and a block that
/// straddles the parallel chunk boundary — pinned explicitly on top of the
/// random sweep.
#[test]
fn pull_block_edge_cases_match_per_slot() {
    for block in [1, 7, 1 << 14, usize::MAX / 2] {
        let reference = pull_rounds(&mut per_slot(300, 5, FailureModel::None), 4);
        let mut e = engine(300, 5, FailureModel::None);
        e.set_copy_block(block);
        let blocked = pull_rounds(&mut e, 4);
        assert_eq!(reference, blocked, "block = {block}");
    }
}

/// A prefetch distance beyond every batch and pair list is a no-op hint, not
/// an out-of-bounds access.
#[test]
fn oversized_prefetch_distance_is_harmless() {
    let reference = pull_rounds(&mut per_slot(200, 9, FailureModel::None), 4);
    let mut e = engine(200, 9, FailureModel::None);
    e.set_prefetch_dist(1 << 20);
    let far = pull_rounds(&mut e, 4);
    assert_eq!(reference, far);
}

/// A lane row tagged with the node that served it. Only the row goes on the
/// wire, as in the lane collectors' bit charge.
struct TaggedRow {
    source: u32,
    row: Vec<u64>,
}

impl MessageSize for TaggedRow {
    fn message_bits(&self) -> u64 {
        self.row.message_bits()
    }
}

/// The source-only pull round realises exactly the sources and metrics of
/// one-column flat sampling serving tagged rows and of the lane collector,
/// in a sequence of dense rounds and rounds on an active set (an empty one
/// included), under a failure model and under a disruptive fault plan,
/// below and above the parallel threshold.
#[test]
fn pull_sources_matches_lane_collection_and_flat_sampling() {
    let q = 3;
    let configs = [
        ("clean", EngineConfig::with_seed(77)),
        (
            "failure",
            EngineConfig::with_seed(77)
                .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.3).unwrap())),
        ),
        (
            "disruptive",
            EngineConfig::with_seed(77).fault(
                FaultPlan::none()
                    .with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap())
                    .with_loss(LossModel::uniform(0.15).unwrap())
                    .with_failure(FailureModel::uniform(0.1).unwrap()),
            ),
        ),
    ];
    for n in [256usize, 20_000] {
        let lanes: Vec<u64> = (0..(n * q) as u64)
            .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let row = |t: usize| &lanes[t * q..(t + 1) * q];
        let serve = |t: usize, _: &()| TaggedRow {
            source: t as u32,
            row: row(t).to_vec(),
        };
        let partial = ActiveSet::from_fn(n, |v| v % 3 != 1);
        let empty = ActiveSet::from_fn(n, |_| false);
        for (name, config) in &configs {
            let make = || {
                let mut e: Engine<()> = Engine::from_states(vec![(); n], config.clone());
                e.set_threads(par::num_threads());
                e
            };
            let (mut drawn, mut lane, mut flat) = (make(), make(), make());
            let mut sources = vec![0u32; n];
            let mut matrix = LaneMatrix::empty(n, q, 0u64);
            for active in [None, Some(&partial), Some(&empty), None, Some(&partial)] {
                let bits = |t: usize| seq_message_bits(row(t));
                drawn.pull_sources(active, bits, &mut sources);
                if active.is_some() {
                    // The lane collector and the flat matrix are dense-only:
                    // their engines draw the sparse rounds directly, staying
                    // in step.
                    lane.pull_sources(active, bits, &mut vec![0; n]);
                    flat.pull_sources(active, bits, &mut vec![0; n]);
                    continue;
                }
                lane.collect_lanes(&lanes, &mut matrix);
                assert_eq!(matrix.sources(), &sources[..], "{name}, n = {n}: lanes");
                let column = flat.collect_samples_flat(1, serve);
                for (v, &src) in sources.iter().enumerate() {
                    if src != u32::MAX {
                        assert_eq!(matrix.row(v), Some(row(src as usize)));
                    }
                    let sampled = column.get(v, 0).map_or(u32::MAX, |m| m.source);
                    assert_eq!(sampled, src, "{name}, n = {n}: flat sampling at {v}");
                }
            }
            assert_eq!(drawn.round(), flat.round());
            assert_eq!(drawn.metrics(), flat.metrics(), "{name}, n = {n}");
            assert_eq!(drawn.metrics(), lane.metrics(), "{name}, n = {n}");
        }
    }
}
