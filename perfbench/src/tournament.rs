//! `tournament_1m`: back-to-back `tournament_quantile(φ = 0.9, ε = 0.05)` at
//! n = 10^6 on the complete graph, no faults.

use crate::harness::{Counts, EpsilonCheck, Run};
use crate::stats::{median, timed};
use analysis::{RankOracle, Workload};
use gossip_net::{EngineConfig, SeedSequence, WorkerPool};
use quantile_gossip::approx::{ApproxOutcome, MAX_TOURNAMENT_EPSILON};
use quantile_gossip::{
    three_tournament, tournament_quantile, two_tournament, FinalVote, ThreeTournamentSchedule,
    TournamentConfig, TwoTournamentSchedule,
};
use std::sync::Arc;

pub const N: usize = 1_000_000;
const PHI: f64 = 0.9;
const EPSILON: f64 = 0.05;

struct Setup {
    values: Vec<u64>,
    pool: Arc<WorkerPool>,
    /// The cold call's outcome: the reference every later answer repeats.
    reference: ApproxOutcome<u64>,
}

fn call(
    seed: u64,
    values: &[u64],
    pool: &Arc<WorkerPool>,
) -> gossip_net::Result<ApproxOutcome<u64>> {
    tournament_quantile(
        values,
        PHI,
        EPSILON,
        &TournamentConfig::default(),
        EngineConfig::with_seed(seed).pool(Arc::clone(pool)),
    )
}

fn setup(run: &mut Run) -> Setup {
    let values = Workload::UniformDistinct.generate(N, run.seed);
    let pool = Arc::new(WorkerPool::new(run.threads));
    let reference = call(run.seed, &values, &pool).expect("the tournament_1m parameters are valid");
    Setup {
        values,
        pool,
        reference,
    }
}

/// The two phases `tournament_quantile` runs, called one by one with the
/// sub-seeds it derives, each inside its own span.
fn decomposed(run: &mut Run, setup: &Setup) -> gossip_net::Result<ApproxOutcome<u64>> {
    let engine_config = EngineConfig::with_seed(run.seed).pool(Arc::clone(&setup.pool));
    let values = &setup.values;
    run.tracer.span("approx.tournament_quantile", |tracer| {
        let eps = EPSILON.min(MAX_TOURNAMENT_EPSILON);
        let mut seeds = SeedSequence::new(engine_config.seed);
        let schedule1 = TwoTournamentSchedule::compute(PHI, eps)?;
        let phase1 = tracer.span("two_tournament::run", |_| {
            two_tournament::run(values, &schedule1, engine_config.sub(seeds.next_seed()))
        })?;
        let schedule2 = ThreeTournamentSchedule::compute(eps / 4.0, values.len())?;
        let phase2 = tracer.span("three_tournament::run", |_| {
            three_tournament::run(
                &phase1.values,
                &schedule2,
                FinalVote::default(),
                engine_config.sub(seeds.next_seed()),
            )
        })?;
        let metrics = phase1.metrics + phase2.metrics;
        Ok(ApproxOutcome {
            outputs: phase2.outputs,
            rounds: metrics.rounds,
            metrics,
            method: setup.reference.method,
        })
    })
}

pub fn run(run: &mut Run) {
    run.n = N;
    let setup = run.setup(setup);
    let oracle = RankOracle::new(&setup.values);
    let mut check = EpsilonCheck::new(&oracle, PHI, EPSILON);
    let failures = check.failures(&setup.reference.outputs);
    run.answers(N as u64, failures);
    run.same_counts(Counts::of(&setup.reference.metrics));

    run.closed_loop(|run, i| {
        let traced_call = run.traced && i % 2 == 1;
        let t = if traced_call {
            timed(|| decomposed(run, &setup))
        } else {
            let seed = run.seed;
            run.timed_answer(&setup.pool, || call(seed, &setup.values, &setup.pool))
        };
        match &t.out {
            Ok(out) => {
                let failures = check.failures(&out.outputs);
                run.answers(N as u64, failures);
                run.same_counts(Counts::of(&out.metrics));
                if traced_call && out.outputs != setup.reference.outputs {
                    run.problem("the traced phases differ from tournament_quantile".into());
                }
            }
            Err(e) => run.call_failed(e),
        }
        t.wall
    });
    if !run.traced {
        return;
    }

    let answer_s = run.median_answer_s();
    let two = median(&run.tracer.self_times("two_tournament::run"));
    let three = median(&run.tracer.self_times("three_tournament::run"));
    let traced_answer = median(&run.tracer.durations("approx.tournament_quantile"));
    run.layer("two_tournament.s", two);
    run.layer("three_tournament.s", three);
    run.layer("approx.glue_s", answer_s - two - three);
    run.layer("trace.overhead", traced_answer / answer_s - 1.0);
}
