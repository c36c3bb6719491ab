//! Cross-crate conformance suite for the batched multi-query service.
//!
//! Two contracts, pinned exactly (no tolerance):
//!
//! 1. **Batched ≡ sequential.** A [`QuantileService`] epoch answering `q`
//!    queries through shared tournament rounds is *bit-identical*, lane by
//!    lane, to `q` independent [`tournament_quantile`] runs on the same
//!    [`EngineConfig`] seed — on every topology of the simulator and under a
//!    disruptive fault plan (churn + loss + stragglers + failures at once).
//! 2. **Incremental ≡ full.** After holders change between epochs, the
//!    replay of the first epoch's contact graph returns exactly the answers
//!    (and round count) of a from-scratch recompute over the updated
//!    inputs, and so does a replay after a replay.
//!
//! Batched ≡ sequential compares answers through their bits, so it also
//! holds over `OrderedF64` zeros of both signs and over a variable-width
//! value type.

use gossip_net::{
    ChurnModel, EngineConfig, FailureModel, FaultPlan, LossModel, NodeValue, OrderedF64,
    StragglerModel, Topology,
};
use quantile_gossip::{
    tournament_quantile, EpochMode, FinalVote, QuantileQuery, QuantileService, ServiceConfig,
    ServiceOutcome, TournamentConfig,
};
use std::collections::BTreeSet;

/// 144 nodes: divisible into the 12×12 grid `Topology::Torus2D` needs.
const N: usize = 144;

fn values(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % 100_000)
        .collect()
}

fn queries() -> Vec<QuantileQuery> {
    vec![
        QuantileQuery::new(0.5, 0.05),
        QuantileQuery::new(0.25, 0.08),
        QuantileQuery::new(0.9, 0.03),
    ]
}

/// Every topology from the pluggable-topology layer (PR 4).
fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("complete", Topology::Complete),
        ("random_regular", Topology::random_regular(16, 7)),
        ("ring", Topology::ring(8)),
        ("torus2d", Topology::Torus2D),
    ]
}

/// Churn, loss, stragglers and Section 5 failures, all at once. Pulls never
/// straggle in the engine, but the model stays on to prove the service's
/// round decomposition survives the full plan.
fn disruptive_plan() -> FaultPlan {
    FaultPlan::none()
        .with_churn(ChurnModel::with_rejoin(0.05, 2).unwrap())
        .with_loss(LossModel::uniform(0.15).unwrap())
        .with_stragglers(StragglerModel::uniform(0.2, 2).unwrap())
        .with_failure(FailureModel::uniform(0.1).unwrap())
}

/// A value's bits: what batched ≡ sequential compares, so that Ord-equal
/// values with different bits (`OrderedF64`'s ±0.0) count as different
/// answers.
trait Bits: NodeValue {
    type Bits: Eq + std::fmt::Debug;
    fn bits(self) -> Self::Bits;
}

impl Bits for u64 {
    type Bits = u64;
    fn bits(self) -> u64 {
        self
    }
}

impl Bits for Option<u64> {
    type Bits = Option<u64>;
    fn bits(self) -> Option<u64> {
        self
    }
}

impl Bits for OrderedF64 {
    type Bits = u64;
    fn bits(self) -> u64 {
        self.get().to_bits()
    }
}

fn bits<V: Bits>(answers: &[V]) -> Vec<V::Bits> {
    answers.iter().map(|&x| x.bits()).collect()
}

/// Batched epoch over `vals` vs `q` sequential solo runs on a paired seed,
/// both ending in the `vote`: bit-identity per lane, and the per-query
/// round accounting must match what the solo runs actually spent. Returns
/// the epoch's outcome.
fn assert_batched_matches_sequential<V: Bits>(
    name: &str,
    vals: &[V],
    vote: FinalVote,
    engine_config: EngineConfig,
) -> ServiceOutcome<V> {
    let qs = queries();
    let cfg = ServiceConfig {
        final_vote: vote,
        ..ServiceConfig::default()
    };
    let mut svc = QuantileService::new(vals, &qs, cfg, engine_config.clone()).unwrap();
    let out = svc.epoch().unwrap();
    assert_eq!(out.mode, EpochMode::Full);

    let solo_config = TournamentConfig { final_vote: vote };
    let mut solo_rounds_total = 0u64;
    for (i, q) in qs.iter().enumerate() {
        let solo = tournament_quantile(vals, q.phi, q.epsilon, &solo_config, engine_config.clone())
            .unwrap();
        assert_eq!(
            bits(&out.answers[i]),
            bits(&solo.outputs),
            "lane {i} (phi={}, eps={}) diverged from its solo run on {name}",
            q.phi,
            q.epsilon
        );
        assert_eq!(
            out.per_query[i].solo_rounds, solo.rounds,
            "per-query accounting disagrees with the actual solo run on {name}"
        );
        solo_rounds_total += solo.rounds;
    }
    // The shared rounds amortise: one epoch costs at most the longest solo
    // schedule, strictly less than running the queries back to back.
    assert!(
        out.rounds < solo_rounds_total,
        "no amortisation on {name}: {} batched vs {} sequential rounds",
        out.rounds,
        solo_rounds_total
    );
    assert!(out.amortisation() > 1.0);
    out
}

#[test]
fn batched_epoch_is_bit_identical_to_sequential_runs_on_every_topology() {
    for (name, topo) in topologies() {
        let ec = EngineConfig::with_seed(4242).topology(topo);
        assert_batched_matches_sequential(name, &values(N), FinalVote::default(), ec);
    }
}

#[test]
fn batched_epoch_is_bit_identical_to_sequential_runs_under_faults() {
    for (name, topo) in topologies() {
        let ec = EngineConfig::with_seed(97)
            .topology(topo)
            .fault(disruptive_plan());
        assert_batched_matches_sequential(name, &values(N), FinalVote::default(), ec);
    }
}

/// Votes of other sizes, on a clean engine (every vote complete) and under
/// the disruptive plan (most votes miss samples): K = 16 is even, so every
/// side picks the upper median, and K = 33 is above the largest vote the
/// median network takes, so every side selects.
#[test]
fn batched_epoch_is_bit_identical_to_sequential_runs_at_other_vote_sizes() {
    for samples in [16, 33] {
        for (plan, fault) in [("clean", FaultPlan::none()), ("faulted", disruptive_plan())] {
            let ec = EngineConfig::with_seed(6007).fault(fault);
            let name = format!("K = {samples}, {plan}");
            assert_batched_matches_sequential(&name, &values(N), FinalVote { samples }, ec);
        }
    }
}

/// A third of the holders hold zeros, alternating in sign, between a
/// negative and a positive third, so the φ = 0.5 lane answers among them.
/// At `N_PARALLEL` holders every epoch pass runs on the pool.
#[test]
fn batched_epoch_keeps_the_bits_of_signed_zeros_at_parallel_scale() {
    let vals: Vec<OrderedF64> = values(N_PARALLEL)
        .into_iter()
        .enumerate()
        .map(|(i, x)| match i % 3 {
            0 if i % 2 == 0 => -0.0,
            0 => 0.0,
            1 => -1.0 - x as f64,
            _ => 1.0 + x as f64,
        })
        .map(|x| OrderedF64::new(x).unwrap())
        .collect();
    let out = assert_batched_matches_sequential(
        "signed zeros",
        &vals,
        FinalVote::default(),
        EngineConfig::with_seed(61),
    );
    assert!(out.answers[0].iter().all(|x| x.get() == 0.0));
}

/// `Option<u64>` is a variable-width value: `None` is a 1-bit message,
/// `Some` a 65-bit one. Every seventh holder holds `None`. Beside the
/// answers, the traffic each delivery is charged is pinned.
#[test]
fn batched_epoch_over_variable_width_values_matches_solo_runs() {
    let vals: Vec<Option<u64>> = values(N)
        .into_iter()
        .enumerate()
        .map(|(i, x)| (i % 7 != 0).then_some(x))
        .collect();
    let ec = EngineConfig::with_seed(73).fault(disruptive_plan());
    let out = assert_batched_matches_sequential("option", &vals, FinalVote::default(), ec);
    let m = out.metrics;
    assert_eq!(
        format!(
            "rounds {} delivered {} bits {} max {}",
            m.rounds, m.messages_delivered, m.bits_delivered, m.max_message_bits
        ),
        "rounds 51 delivered 4568 bits 1003528 max 227"
    );
}

/// Runs an epoch, mutates a few holders, and checks the incremental second
/// epoch against a from-scratch service over the mutated inputs.
fn assert_incremental_matches_full(name: &str, engine_config: EngineConfig) {
    let mut vals = values(N);
    let qs = queries();
    let cfg = ServiceConfig::default();
    let mut svc = QuantileService::new(&vals, &qs, cfg, engine_config.clone()).unwrap();
    svc.epoch().unwrap();

    let edits: [(usize, u64); 4] = [(3, 1), (77, 999_999), (110, 50_000), (143, 0)];
    for (node, value) in edits {
        svc.set_value(node, value).unwrap();
        vals[node] = value;
    }
    let inc = svc.epoch().unwrap();
    assert!(
        matches!(inc.mode, EpochMode::Incremental { dirty_nodes } if dirty_nodes <= edits.len()),
        "expected an incremental epoch on {name}, got {:?}",
        inc.mode
    );

    let mut fresh = QuantileService::new(&vals, &qs, cfg, engine_config).unwrap();
    let full = fresh.epoch().unwrap();
    assert_eq!(
        inc.answers, full.answers,
        "incremental replay diverged from the full recompute on {name}"
    );
    assert_eq!(
        inc.rounds, full.rounds,
        "round accounting diverged on {name}"
    );
}

#[test]
fn incremental_recompute_equals_full_recompute_on_every_topology() {
    for (name, topo) in topologies() {
        let ec = EngineConfig::with_seed(271).topology(topo);
        assert_incremental_matches_full(name, ec);
    }
}

#[test]
fn incremental_recompute_equals_full_recompute_under_faults() {
    for (name, topo) in topologies() {
        let ec = EngineConfig::with_seed(31)
            .topology(topo)
            .fault(disruptive_plan());
        assert_incremental_matches_full(name, ec);
    }
}

/// The ingestion path: holders absorb observations through their compactor
/// sketches, only moved medians mark holders dirty, and the incremental
/// epoch over the effective values equals a full recompute over them.
#[test]
fn incremental_epoch_after_sketch_ingestion_matches_full_recompute() {
    let vals = values(N);
    let qs = queries();
    let cfg = ServiceConfig::default();
    let ec = EngineConfig::with_seed(555).fault(disruptive_plan());
    let mut svc = QuantileService::new(&vals, &qs, cfg, ec.clone()).unwrap();
    svc.epoch().unwrap();

    // A burst of observations on a handful of holders; repeated inserts move
    // each sketch median decisively.
    for node in [5usize, 40, 90] {
        for obs in 0..8u64 {
            svc.ingest(node, 200_000 + obs * 1_000 + node as u64)
                .unwrap();
        }
    }
    assert!(svc.dirty_nodes() >= 1, "ingestion never moved a median");

    let effective = svc.effective_values().to_vec();
    let inc = svc.epoch().unwrap();
    assert!(matches!(inc.mode, EpochMode::Incremental { .. }));

    let mut fresh = QuantileService::new(&effective, &qs, cfg, ec).unwrap();
    let full = fresh.epoch().unwrap();
    assert_eq!(inc.answers, full.answers);
    assert_eq!(inc.rounds, full.rounds);
}

/// A single-query service must agree with the solo run too (the q=1 edge of
/// the batching argument), and a no-op second epoch must replay to the same
/// answers.
#[test]
fn single_query_service_and_clean_epoch_edge_cases() {
    let vals = values(N);
    let qs = [QuantileQuery::new(0.33, 0.06)];
    let ec = EngineConfig::with_seed(808).topology(Topology::ring(8));
    let mut svc = QuantileService::new(&vals, &qs, ServiceConfig::default(), ec.clone()).unwrap();
    let first = svc.epoch().unwrap();
    let solo = tournament_quantile(&vals, 0.33, 0.06, &TournamentConfig::default(), ec).unwrap();
    assert_eq!(first.answers[0], solo.outputs);
    assert_eq!(first.rounds, solo.rounds);

    // Nothing changed: the second epoch is incremental with zero dirty
    // holders and identical answers.
    let second = svc.epoch().unwrap();
    assert_eq!(second.mode, EpochMode::Incremental { dirty_nodes: 0 });
    assert_eq!(second.answers, first.answers);
}

/// The pool-parallel passes of full epochs and of replays are chunked over
/// worker threads; results must not depend on the thread count.
#[test]
fn epochs_are_deterministic_across_thread_counts() {
    let vals = values(N);
    let qs = queries();
    let edits: [(usize, u64); 4] = [(3, 1), (77, 999_999), (110, 50_000), (143, 0)];
    let run = |threads: usize| {
        let ec = EngineConfig::with_seed(909).fault(disruptive_plan());
        let mut svc = QuantileService::new(&vals, &qs, ServiceConfig::default(), ec).unwrap();
        svc.set_threads(threads);
        let full = svc.epoch().unwrap();
        assert_eq!(full.mode, EpochMode::Full);
        for (node, value) in edits {
            svc.set_value(node, value).unwrap();
        }
        let inc = svc.epoch().unwrap();
        assert!(matches!(inc.mode, EpochMode::Incremental { .. }));
        (full.answers, full.rounds, full.metrics, inc.answers)
    };
    let reference = run(1);
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(
            reference, other,
            "epoch results changed at {threads} threads"
        );
    }
}

/// 20 000 nodes: above `Engine::PAR_MIN_NODES`, so epochs run their
/// pool-parallel row passes (at the thread count of the environment, which
/// CI varies over 1, 2 and 8).
const N_PARALLEL: usize = 20_000;

/// Four lanes whose schedules all differ at `N_PARALLEL`: Phase I lengths
/// 0, 2, 3 and 2 on both shrink sides with δ-truncated last steps, Phase II
/// lengths 10, 9, 12 and 8 (so four distinct vote windows), and four
/// different final δ cuts.
fn mixed_queries() -> Vec<QuantileQuery> {
    vec![
        QuantileQuery::new(0.5, 0.05),
        QuantileQuery::new(0.25, 0.08),
        QuantileQuery::new(0.9, 0.03),
        QuantileQuery::new(0.1, 0.125),
    ]
}

/// Two lanes at φ = 0.5, whose Phase I schedules are empty: Phase II steps
/// straight from the inputs sheet. Phase II lengths 10 and 8, so two vote
/// windows.
fn median_queries() -> Vec<QuantileQuery> {
    vec![
        QuantileQuery::new(0.5, 0.05),
        QuantileQuery::new(0.5, 0.125),
    ]
}

/// Batched ≡ solo and incremental ≡ full at parallel scale, on a clean
/// engine and under 10 % message loss, for the mixed lanes and for lanes
/// with no Phase I: a replay after the full epoch, then a replay after that
/// replay.
#[test]
fn parallel_scale_epochs_match_solo_runs_and_full_recompute() {
    let cfg = ServiceConfig::default();
    let lossy = FaultPlan::none().with_loss(LossModel::uniform(0.1).unwrap());
    let query_sets = [
        (
            "mixed",
            mixed_queries(),
            vec![0, 2, 3, 2],
            vec![10, 9, 12, 8],
        ),
        ("median", median_queries(), vec![0, 0], vec![10, 8]),
    ];
    for (set, qs, t1_expected, t2_expected) in query_sets {
        for (fault_name, fault) in [("clean", FaultPlan::none()), ("lossy", lossy.clone())] {
            let name = format!("{set}, {fault_name}");
            let mut vals = values(N_PARALLEL);
            let ec = EngineConfig::with_seed(2718).fault(fault);
            let mut svc = QuantileService::new(&vals, &qs, cfg, ec.clone()).unwrap();
            let t1: Vec<usize> = svc
                .per_query()
                .iter()
                .map(|c| c.phase1_iterations)
                .collect();
            let t2: Vec<usize> = svc
                .per_query()
                .iter()
                .map(|c| c.phase2_iterations)
                .collect();
            assert_eq!(t1, t1_expected, "Phase I lengths moved ({name})");
            assert_eq!(t2, t2_expected, "Phase II lengths moved ({name})");

            let out = svc.epoch().unwrap();
            assert_eq!(out.mode, EpochMode::Full);
            for (i, q) in qs.iter().enumerate() {
                let solo = tournament_quantile(
                    &vals,
                    q.phi,
                    q.epsilon,
                    &TournamentConfig::default(),
                    ec.clone(),
                )
                .unwrap();
                assert_eq!(
                    out.answers[i], solo.outputs,
                    "lane {i} diverged from its solo run ({name})"
                );
                assert_eq!(out.per_query[i].solo_rounds, solo.rounds);
            }

            // 0.1 % of the holders move: an incremental epoch.
            for node in (0..N_PARALLEL).step_by(997) {
                vals[node] = vals[node].wrapping_mul(31) % 100_000;
                svc.set_value(node, vals[node]).unwrap();
            }
            let inc = svc.epoch().unwrap();
            assert!(
                matches!(inc.mode, EpochMode::Incremental { dirty_nodes } if dirty_nodes > 0),
                "expected a non-trivial incremental epoch ({name}), got {:?}",
                inc.mode
            );
            assert_replay_matches_full(&inc, &vals, &qs, &ec, &name);

            // A second round of writes, then a replay after the replay: every
            // other holder of the first round again, fresh holders beside
            // them, and one holder written away and back.
            let mut written = BTreeSet::new();
            let second = (0..N_PARALLEL)
                .step_by(2 * 997)
                .chain((500..N_PARALLEL).step_by(1_999));
            for node in second {
                vals[node] += 1;
                svc.set_value(node, vals[node]).unwrap();
                written.insert(node);
            }
            let away_and_back = 12_345;
            assert!(!written.contains(&away_and_back));
            svc.set_value(away_and_back, vals[away_and_back] + 1)
                .unwrap();
            svc.set_value(away_and_back, vals[away_and_back]).unwrap();
            written.insert(away_and_back);
            assert_eq!(svc.dirty_nodes(), written.len(), "{name}");
            let again = svc.epoch().unwrap();
            assert_eq!(
                again.mode,
                EpochMode::Incremental {
                    dirty_nodes: written.len()
                },
                "{name}"
            );
            assert_replay_matches_full(&again, &vals, &qs, &ec, &format!("{name}, second"));
        }
    }
}

/// A replay's answers, rounds and metrics equal those of a fresh service's
/// `recompute_full` over `vals`.
fn assert_replay_matches_full(
    replay: &ServiceOutcome<u64>,
    vals: &[u64],
    qs: &[QuantileQuery],
    ec: &EngineConfig,
    name: &str,
) {
    let mut fresh = QuantileService::new(vals, qs, ServiceConfig::default(), ec.clone()).unwrap();
    let full = fresh.recompute_full().unwrap();
    assert_eq!(
        replay.answers, full.answers,
        "the replay diverged from the full recompute ({name})"
    );
    assert_eq!(replay.rounds, full.rounds, "{name}");
    assert_eq!(replay.metrics, full.metrics, "{name}");
}
