//! Integration tests of the fault-injection subsystem (`gossip_net::fault`).
//!
//! The engine-level unit tests pin the per-combinator mechanics; this suite
//! checks the cross-cutting contracts:
//!
//! * the message **ledger** stays conserved under every combinator mix
//!   (attempted = delivered + dropped + delayed-in-flight + failed, with
//!   crashed nodes attempting nothing);
//! * straggled pushes are **re-derived from the sender's state at arrival**,
//!   not frozen at send time;
//! * straggled contacts survive intervening pull rounds and drain on the
//!   next push-capable round;
//! * the engine surfaces per-round crash sets (`crashed_nodes`) and fault
//!   deltas (`Metrics::snapshot_delta`) mid-run;
//! * fault injection composes with restricted topologies.
//!
//! Every test runs at `par::num_threads()` workers, so CI's 1/2/3/8-thread
//! matrix exercises the faulty dispatch at each thread count.

use gossip_net::{
    par, ChurnModel, Engine, EngineConfig, FailureModel, FaultPlan, LossModel, StragglerModel,
    Topology,
};

fn engine_with_plan(n: usize, seed: u64, plan: FaultPlan) -> Engine<u64> {
    let config = EngineConfig::with_seed(seed).fault(plan);
    let mut e = Engine::from_states((0..n as u64).collect(), config);
    e.set_threads(par::num_threads());
    e
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap())
        .with_loss(LossModel::uniform(0.15).unwrap())
        .with_stragglers(StragglerModel::uniform(0.2, 2).unwrap())
        .with_failure(FailureModel::uniform(0.1).unwrap())
}

/// Every attempted push is accounted for exactly once: delivered in-round,
/// dropped (loss, crashed receiver), delayed (straggling, counted at send),
/// or failed (the Section 5 model). Crashed senders attempt nothing.
#[test]
fn push_ledger_is_conserved_under_the_full_chaos_plan() {
    let n = 2000u64;
    let mut e = engine_with_plan(n as usize, 3, chaos_plan());
    for _ in 0..6 {
        e.push_round(
            |v, _| Some(v),
            |_, st, _| *st = st.wrapping_add(1),
            |_, _, _| {},
        );
    }
    let m = e.metrics();
    assert_eq!(
        m.pushes_attempted + m.crashed_operations,
        6 * n,
        "every node per round either attempts or is crashed"
    );
    // Straggled sends are counted `delayed` at send and then *also* counted
    // delivered (or dropped, if the receiver crashed meanwhile) at arrival,
    // so the exact ledger is over the terminal outcomes plus the in-flight
    // buffer:
    assert_eq!(
        m.messages_delivered
            + m.messages_dropped
            + m.failed_operations
            + e.delayed_in_flight() as u64,
        m.pushes_attempted,
        "ledger mismatch: {m:?}"
    );
    assert!(m.messages_delayed > 0);
    assert!(m.messages_dropped > 0);
    assert!(m.crashed_operations > 0);
    assert!(m.failed_operations > 0);
}

/// A straggled message is re-derived from the sender's state *at arrival*:
/// mutate every state between send and drain, and no receiver may observe a
/// stale value.
#[test]
fn straggled_messages_carry_the_senders_state_at_arrival() {
    let n = 500;
    let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.9, 1).unwrap());
    let mut e = Engine::from_states(vec![100u64; n], EngineConfig::with_seed(8).fault(plan));
    e.set_threads(par::num_threads());

    // Round 1: push the current state (100). ~90% of contacts straggle.
    e.push_round(
        |_, &s| Some(s),
        |_, st, msg| {
            assert_eq!(msg, 100, "round-1 in-round delivery");
            *st = st.wrapping_add(msg << 32);
        },
        |_, _, _| {},
    );
    let delivered_in_round_1 = e.metrics().messages_delivered;
    let in_flight = e.delayed_in_flight();
    assert!(in_flight > 300, "p=0.9 on 500 pushes, got {in_flight}");

    // Rewrite every sender's low half to 200 before the drain round.
    e.local_step(|_, st, _| *st = (*st & !0xFFFF_FFFF) | 200);

    // Round 2 drains the round-1 stragglers. The low 32 bits a receiver
    // folds must be 200 — the sender's *current* value — never the stale
    // 100 from send time.
    e.push_round(
        |_, &s| Some(s & 0xFFFF_FFFF),
        |_, st, msg| {
            assert_eq!(msg, 200, "a drained straggler carried a stale payload");
            *st = st.wrapping_add(1);
        },
        |_, _, _| {},
    );
    let m = e.metrics();
    assert!(
        m.messages_delivered > delivered_in_round_1 + 100,
        "the round-1 stragglers did not drain"
    );
}

/// Straggled pushes survive intervening pull rounds (which are not
/// push-capable) and drain on the next push round.
#[test]
fn stragglers_wait_out_pull_rounds() {
    let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.8, 1).unwrap());
    let mut e = engine_with_plan(400, 15, plan);
    e.push_round(
        |v, _| Some(v as u64),
        |_, st, _| *st = st.wrapping_add(1),
        |_, _, _| {},
    );
    let in_flight = e.delayed_in_flight();
    assert!(in_flight > 200);
    // Three pull rounds pass; the buffer must not drain (pull rounds carry
    // no push deliveries), even though the contacts are long overdue.
    for _ in 0..3 {
        e.pull_round(|_, &s| s, |_, _, _| {});
    }
    assert_eq!(e.delayed_in_flight(), in_flight);
    // The next push round folds them in.
    let delivered_before = e.metrics().messages_delivered;
    e.push_round(
        |v, _| Some(v as u64),
        |_, st, _| *st = st.wrapping_add(1),
        |_, _, _| {},
    );
    // No loss or churn in this plan: every overdue contact delivers.
    assert!(e.metrics().messages_delivered >= delivered_before + in_flight as u64);
}

/// Crash-stop churn visibly freezes a node: its state stops changing while
/// down, and with rejoin disabled it never changes again.
#[test]
fn crashed_nodes_states_are_frozen() {
    let plan = FaultPlan::none().with_churn(ChurnModel::crash_stop(0.15).unwrap());
    let mut e = engine_with_plan(500, 42, plan);
    let mut frozen: Vec<(usize, u64)> = Vec::new();
    for _ in 0..8 {
        e.pull_round(
            |_, &s| s,
            |_, st, p| {
                if let Some(p) = p {
                    *st = st.wrapping_mul(31).wrapping_add(p);
                }
            },
        );
        for &(v, expected) in &frozen {
            assert_eq!(e.states()[v], expected, "crashed node {v} changed state");
        }
        frozen = e
            .crashed_nodes()
            .into_iter()
            .map(|v| (v, e.states()[v]))
            .collect();
    }
    assert!(!frozen.is_empty());
}

/// The engine reports each round's faults while an algorithm runs:
/// `crashed_nodes()` is the crash set after the round, and
/// `metrics().snapshot_delta(&before)` is the round's fault delta. Pull and
/// push rounds alternate, so both directions report; a fault-free engine
/// reports nothing.
#[test]
fn engine_reports_faults_per_round() {
    let n = 300;
    for (plan, faulty) in [(chaos_plan(), true), (FaultPlan::none(), false)] {
        let mut e = engine_with_plan(n, 99, plan);
        let mut saw_crash = false;
        let mut saw_disruption = false;
        for round in 0..10 {
            let before = e.metrics();
            if round % 2 == 0 {
                e.pull_round(
                    |_, &s| s,
                    |_, st, pulled| {
                        if let Some(m) = pulled {
                            *st = (*st).max(m);
                        }
                    },
                );
            } else {
                e.push_round(|_, &s| Some(s), |_, st, m| *st = (*st).max(m), |_, _, _| {});
            }
            let crashed = e.crashed_nodes();
            let delta = e.metrics().snapshot_delta(&before);
            assert_eq!(delta.rounds, 1);
            assert_eq!(crashed.len() as u64, delta.crashed_operations);
            assert!(crashed.windows(2).all(|w| w[0] < w[1]));
            // Crashed nodes make no attempts.
            assert_eq!(
                delta.pulls_attempted + delta.pushes_attempted,
                n as u64 - delta.crashed_operations
            );
            saw_crash |= !crashed.is_empty();
            saw_disruption |= delta.messages_dropped > 0;
        }
        // Both fire within 10 rounds of the chaos plan, never without it.
        assert_eq!(saw_crash, faulty, "churn fired: {saw_crash}");
        assert_eq!(saw_disruption, faulty, "loss fired: {saw_disruption}");
    }
}

/// Fault injection composes with restricted topologies: the per-contact
/// coins are keyed by ids, not by the sampling structure.
#[test]
fn faults_compose_with_restricted_topologies() {
    for topology in [Topology::ring(3), Topology::Torus2D] {
        let config = EngineConfig::with_seed(7)
            .fault(chaos_plan())
            .topology(topology);
        let mut e = Engine::from_states((0..900u64).collect(), config);
        e.set_threads(par::num_threads());
        for _ in 0..5 {
            e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
        }
        let m = e.metrics();
        assert!(m.crashed_operations > 0, "{topology}: churn silent");
        assert!(m.messages_dropped > 0, "{topology}: loss silent");
        assert!(m.messages_delayed > 0, "{topology}: stragglers silent");
        assert!(m.failed_operations > 0, "{topology}: failures silent");
    }
}

/// `FaultPlan::mu_upper_bound` feeds the adaptive schedules: the union
/// bound must dominate the observed per-round disturbance rate, churn's
/// skipped operations included.
#[test]
fn mu_upper_bound_dominates_observed_disturbance() {
    let loss_and_failures = FaultPlan::none()
        .with_loss(LossModel::uniform(0.2).unwrap())
        .with_failure(FailureModel::uniform(0.1).unwrap());
    let churn_and_loss = FaultPlan::none()
        .with_churn(ChurnModel::with_rejoin(0.05, 3).unwrap())
        .with_loss(LossModel::uniform(0.1).unwrap());
    for plan in [loss_and_failures, churn_and_loss] {
        let mu = plan.mu_upper_bound().expect("bound derivable");
        let mut e = engine_with_plan(5000, 77, plan);
        for _ in 0..5 {
            e.pull_round(|_, &s| s, |_, _, _| {});
        }
        let observed = e.metrics().disturbance_rate();
        assert!(observed > 0.0);
        assert!(
            observed <= mu + 0.05,
            "observed {observed} exceeds the union bound {mu}"
        );
    }
}

#[test]
fn flat_collect_keeps_one_column_per_round_under_heavy_loss() {
    // At 99 % loss most rounds deliver to almost nobody, and some deliver to
    // nobody at all. The flat matrix must still have one column per round
    // (so `sample(v, k - 1)` is a valid query at every node), with each
    // delivery in the column of the round that made it: a twin engine
    // collecting the same rounds one at a time sees the same columns.
    let plan = || FaultPlan::none().with_loss(LossModel::uniform(0.99).unwrap());
    let k = 6;
    let mut e = engine_with_plan(64, 3, plan());
    let matrix = e.collect_samples_flat(k, |_, &s| s);
    assert_eq!((matrix.n(), matrix.k()), (64, k));
    let mut twin = engine_with_plan(64, 3, plan());
    let mut empty_rounds = 0;
    for r in 0..k {
        let column = twin.collect_samples_flat(1, |_, &s| s);
        let delivered: Vec<Option<u64>> = (0..64).map(|v| column.sample(v, 0)).collect();
        assert_eq!(
            (0..64).map(|v| matrix.sample(v, r)).collect::<Vec<_>>(),
            delivered,
            "round {r}"
        );
        empty_rounds += usize::from(delivered.iter().all(Option::is_none));
    }
    assert!(empty_rounds > 0, "every round delivered something");
    assert_eq!(e.metrics(), twin.metrics());
}
