//! `exact_lossy`: back-to-back `exact_quantile(φ = 0.5)` under 10 % uniform
//! message loss, on n = 2·10^4 nodes.
//!
//! The exact algorithm runs about 1,500 short rounds per answer: pull,
//! push (push-sum), push-pull (rumor) and sparse pushes (token
//! distribution), all through the engine's fault-aware bodies. The traced
//! run also times, from outside, the three sub-algorithms the exact
//! algorithm calls once or twice per narrowing iteration.

use crate::harness::{Counts, Run};
use crate::stats::{median, timed};
use analysis::{RankOracle, Workload};
use baselines::push_sum::{self, PushSumConfig};
use baselines::rumor::{self, SpreadRounds};
use gossip_net::{EngineConfig, FaultPlan, LossModel, WorkerPool};
use quantile_gossip::{exact_quantile, tournament_quantile, ExactOutcome, NarrowingConfig};
use std::sync::Arc;

/// Just above `Engine::PAR_MIN_NODES` (2^14), so every round still runs on
/// the worker pool, and small enough that an answer takes about a second
/// and a run holds a dozen of them.
pub const N: usize = 20_000;
const PHI: f64 = 0.5;
const LOSS: f64 = 0.1;

pub fn fault_plan() -> FaultPlan {
    FaultPlan::none().with_loss(LossModel::uniform(LOSS).expect("a valid loss probability"))
}

fn config(seed: u64, pool: &Arc<WorkerPool>) -> EngineConfig {
    EngineConfig::with_seed(seed)
        .fault(fault_plan())
        .pool(Arc::clone(pool))
}

fn call(
    seed: u64,
    values: &[u64],
    pool: &Arc<WorkerPool>,
) -> gossip_net::Result<ExactOutcome<u64>> {
    exact_quantile(values, PHI, &NarrowingConfig::default(), config(seed, pool))
}

struct Setup {
    values: Vec<u64>,
    pool: Arc<WorkerPool>,
    first: gossip_net::Result<ExactOutcome<u64>>,
}

fn setup(run: &mut Run) -> Setup {
    let values = Workload::UniformDistinct.generate(N, run.seed);
    let pool = Arc::new(WorkerPool::new(run.threads));
    let first = call(run.seed, &values, &pool);
    Setup {
        values,
        pool,
        first,
    }
}

/// One exact answer: right (all n node-answers pass) or wrong.
fn check(run: &mut Run, truth: u64, out: &gossip_net::Result<ExactOutcome<u64>>) {
    match out {
        Ok(out) => {
            let failed = if out.answer == truth { 0 } else { N as u64 };
            run.answers(N as u64, failed);
            run.same_counts(Counts::of(&out.metrics));
        }
        Err(e) => run.call_failed(e),
    }
}

/// The sub-algorithms of one narrowing iteration, each called from outside
/// on the workload's values with the same loss plan: the tournament at the
/// iteration's ε, the min/max spread, and push-sum counting. Returns their
/// rounds.
fn components(run: &mut Run, setup: &Setup) -> (u64, u64, u64) {
    let n = setup.values.len();
    let narrowing = NarrowingConfig::default();
    let eps = narrowing.iteration_epsilon_for(n);
    let counting = PushSumConfig {
        rounds: narrowing.counting_rounds,
        target_accuracy: 0.25 / n as f64,
    };
    let bound = setup.values[0];
    let indicators: Vec<bool> = setup.values.iter().map(|&v| v <= bound).collect();
    let (values, pool, seed) = (&setup.values, &setup.pool, run.seed);
    run.tracer.span("exact.components", |tracer| {
        let t = tracer.span("tournament_quantile", |_| {
            tournament_quantile(
                values,
                PHI,
                eps / 2.0,
                &narrowing.tournament,
                config(seed, pool),
            )
        });
        let s = tracer.span("rumor::spread_min_max", |_| {
            rumor::spread_min_max(values, SpreadRounds::default(), config(seed, pool))
        });
        let c = tracer.span("push_sum::count_matching", |_| {
            push_sum::count_matching(&indicators, &counting, config(seed, pool))
        });
        match (t, s, c) {
            (Ok(t), Ok(s), Ok(c)) => (t.rounds, s.rounds, c.rounds),
            _ => (0, 0, 0),
        }
    })
}

pub fn run(run: &mut Run) {
    run.n = N;
    let setup = run.setup(setup);
    let truth = RankOracle::new(&setup.values).quantile(PHI);
    check(run, truth, &setup.first);

    let mut rounds = (0, 0, 0);
    let mut iterations = Vec::new();
    run.closed_loop(|run, i| {
        let traced_call = run.traced && i % 2 == 1;
        let seed = run.seed;
        let t = if traced_call {
            timed(|| {
                run.tracer
                    .span("exact_quantile", |_| call(seed, &setup.values, &setup.pool))
            })
        } else {
            run.timed_answer(&setup.pool, || call(seed, &setup.values, &setup.pool))
        };
        check(run, truth, &t.out);
        if traced_call {
            if let Ok(out) = &t.out {
                iterations.push(out.iterations as f64);
            }
            rounds = components(run, &setup);
        }
        t.wall
    });
    if !run.traced {
        return;
    }

    let answer_s = run.median_answer_s();
    let self_time = |run: &Run, name| median(&run.tracer.self_times(name));
    let tournament_s = self_time(run, "tournament_quantile");
    let spread_s = self_time(run, "rumor::spread_min_max");
    let count_s = self_time(run, "push_sum::count_matching");
    let iterations = median(&iterations);
    // Per narrowing iteration the exact algorithm runs two tournaments, one
    // spread and two counts; token distribution and the glue are the rest.
    let reached = iterations * (2.0 * tournament_s + spread_s + 2.0 * count_s);
    run.layer("exact.iterations", iterations);
    run.layer("exact.tournament_s", tournament_s);
    run.layer("exact.tournament_rounds", rounds.0 as f64);
    run.layer("exact.spread_s", spread_s);
    run.layer("exact.spread_rounds", rounds.1 as f64);
    run.layer("exact.count_s", count_s);
    run.layer("exact.count_rounds", rounds.2 as f64);
    run.layer("exact.unaccounted_s", answer_s - reached);
    let traced_answer = median(&run.tracer.durations("exact_quantile"));
    run.layer("trace.overhead", traced_answer / answer_s - 1.0);
}
