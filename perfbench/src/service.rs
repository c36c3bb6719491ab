//! `service_full` and `service_drift`: one `QuantileService` at n = 10^5 with
//! q = 64 queries (φ spread over [0.25, 0.75], ε = 0.05).
//!
//! `service_full` answers back-to-back warm `recompute_full` epochs with no
//! writes between them. `service_drift` moves 1 % of the holders by +1 with
//! `set_value` before each `epoch()`, a different set every epoch, so each
//! epoch is an incremental replay.

use crate::harness::{Counts, EpsilonCheck, Run};
use crate::stats::{median, ratio, timed};
use analysis::{RankOracle, Workload};
use gossip_net::{EngineConfig, WorkerPool};
use quantile_gossip::{EpochMode, QuantileQuery, QuantileService, ServiceConfig, ServiceOutcome};
use std::sync::Arc;

pub const N: usize = 100_000;
pub const Q: usize = 64;
const EPSILON: f64 = 0.05;
/// Holders moved before each `service_drift` epoch: 1 % of n.
const DRIFT: usize = N / 100;
/// Memory the service workloads need free before they start: one service
/// peaks near 1.1 GiB, and the drift check builds a second one after the
/// first is dropped.
const MIN_AVAILABLE_BYTES: u64 = 3 << 30;

fn queries() -> Vec<QuantileQuery> {
    (0..Q)
        .map(|i| QuantileQuery::new(0.25 + 0.5 * i as f64 / (Q - 1) as f64, EPSILON))
        .collect()
}

fn service(
    values: &[u64],
    seed: u64,
    pool: &Arc<WorkerPool>,
    threads: usize,
) -> QuantileService<u64> {
    let mut svc = QuantileService::new(
        values,
        &queries(),
        ServiceConfig::default(),
        EngineConfig::with_seed(seed).pool(Arc::clone(pool)),
    )
    .expect("the service parameters are valid");
    svc.set_threads(threads);
    svc
}

struct Setup {
    svc: QuantileService<u64>,
    pool: Arc<WorkerPool>,
    /// The cold epoch's outcome.
    first: ServiceOutcome<u64>,
}

fn setup(run: &mut Run) -> Setup {
    let values = Workload::UniformDistinct.generate(N, run.seed);
    let pool = Arc::new(WorkerPool::new(run.threads));
    let mut svc = service(&values, run.seed, &pool, run.threads);
    let first = svc.recompute_full().expect("the cold epoch succeeds");
    Setup { svc, pool, first }
}

/// Checks every lane's answers against the oracle of `inputs`.
fn check_answers(run: &mut Run, inputs: &[u64], out: &ServiceOutcome<u64>) {
    let oracle = RankOracle::new(inputs);
    for (query, answers) in queries().iter().zip(&out.answers) {
        let failures = EpsilonCheck::new(&oracle, query.phi, query.epsilon).failures(answers);
        run.answers(answers.len() as u64, failures);
    }
}

/// Engine contacts and drops an epoch paid: none for an incremental replay,
/// which runs no engine.
fn counts(out: &ServiceOutcome<u64>, dirty_nodes: u64) -> Counts {
    let mut counts = Counts::of(&out.metrics);
    if matches!(out.mode, EpochMode::Incremental { .. }) {
        counts.contacts = 0;
        counts.dropped = 0;
    }
    counts.dirty_nodes = dirty_nodes;
    counts
}

/// The holders moved before drift epoch `epoch`: every hundredth id from an
/// offset that changes with the epoch.
fn drift_nodes(seed: u64, epoch: usize) -> impl Iterator<Item = usize> {
    let stride = N / DRIFT;
    let offset = (seed as usize + epoch) % stride;
    (0..DRIFT).map(move |j| j * stride + offset)
}

pub fn run(run: &mut Run, drift: bool) {
    run.n = N;
    let available = crate::sys::meminfo_bytes("MemAvailable").unwrap_or(0);
    if available < MIN_AVAILABLE_BYTES {
        eprintln!(
            "refusing to run: {available} bytes of memory available, the service workloads need {MIN_AVAILABLE_BYTES}"
        );
        std::process::exit(2);
    }
    let mut setup = run.setup(setup);
    let inputs = setup.svc.effective_values().to_vec();
    check_answers(run, &inputs, &setup.first);
    let (t1max, t2max) = setup.svc.per_query().iter().fold((0, 0), |(t1, t2), c| {
        (t1.max(c.phase1_iterations), t2.max(c.phase2_iterations))
    });
    if !drift {
        run.same_counts(counts(&setup.first, 0));
    }

    let mut traced_epochs = Vec::new();
    let mut writes = Vec::new();
    run.closed_loop(|run, i| {
        let traced_call = run.traced && i % 2 == 1;
        if drift {
            let svc = &mut setup.svc;
            let write = timed(|| {
                for node in drift_nodes(run.seed, i) {
                    let moved = svc.effective_values()[node] + 1;
                    svc.set_value(node, moved)
                        .expect("drift nodes are in range");
                }
            });
            if traced_call {
                writes.push(write.wall);
            }
        }
        let dirty = setup.svc.dirty_nodes() as u64;
        let svc = &mut setup.svc;
        let epoch = |svc: &mut QuantileService<u64>| {
            if drift {
                svc.epoch()
            } else {
                svc.recompute_full()
            }
        };
        let t = if traced_call {
            timed(|| run.tracer.span("service.epoch", |_| epoch(svc)))
        } else {
            run.timed_answer(&setup.pool, || epoch(svc))
        };
        match t.out {
            Ok(out) => {
                let inputs = setup.svc.effective_values().to_vec();
                check_answers(run, &inputs, &out);
                if drift && !matches!(out.mode, EpochMode::Incremental { .. }) {
                    run.problem(format!("drift epoch {i} was not incremental"));
                }
                run.same_counts(counts(&out, dirty));
                if traced_call {
                    traced_epochs.push((t.wall, out.timings));
                }
            }
            Err(e) => run.call_failed(e),
        }
        t.wall
    });

    if drift {
        check_against_full(run, setup);
    }
    if !run.traced {
        return;
    }
    let stage = |f: fn(&quantile_gossip::EpochTimings) -> f64| {
        median(&traced_epochs.iter().map(|(_, t)| f(t)).collect::<Vec<_>>())
    };
    // An incremental epoch's vote stage is the output patch.
    let (vote_s, patch_s) = if drift {
        (0.0, stage(|t| t.vote_secs))
    } else {
        (stage(|t| t.vote_secs), 0.0)
    };
    let stages = [
        ("service.collect_s", stage(|t| t.collect_secs)),
        ("service.apply_s", stage(|t| t.apply_secs)),
        ("service.record_s", stage(|t| t.record_secs)),
        ("service.vote_s", vote_s),
        ("service.replay_s", stage(|t| t.replay_secs)),
        ("service.patch_s", patch_s),
    ];
    let apply_s = stages[1].1;
    let staged: f64 = stages.iter().map(|(_, s)| s).sum();
    for (name, secs) in stages {
        run.layer(name, secs);
    }
    run.layer("service.unaccounted_s", run.median_answer_s() - staged);
    run.layer("service.write_s", median(&writes));
    let dirty = run.counts.map_or(0, |c| c.dirty_nodes);
    run.layer("service.dirty_nodes", dirty as f64);
    // Bytes the lane apply moves: each Phase I iteration reads the state
    // sheet and two sample sheets and writes the state sheet back (4 sheets);
    // each Phase II iteration does the same with three sample sheets (5).
    // A sheet is n·q·8 bytes.
    let sheet = (N * Q * 8) as f64;
    let apply_bytes = (4 * t1max + 5 * t2max) as f64 * sheet;
    let apply_gbps = ratio(apply_bytes, apply_s) / 1e9;
    run.layer("service.apply_gbps", apply_gbps);
    let traced_answer = median(&run.tracer.durations("service.epoch"));
    run.layer(
        "trace.overhead",
        traced_answer / run.median_answer_s() - 1.0,
    );
}

/// Compares the last drift epoch's answers bit for bit with a fresh
/// service's `recompute_full` on the same inputs. Runs after the loop and
/// after the first service is dropped, so neither the timing nor the peak
/// memory figure sees it.
fn check_against_full(run: &mut Run, setup: Setup) {
    let Setup { mut svc, pool, .. } = setup;
    let inputs = svc.effective_values().to_vec();
    // One more untimed write-free epoch returns the cached answers of the
    // last timed epoch.
    let last = svc.epoch().expect("a write-free epoch succeeds");
    drop(svc);
    let mut fresh = service(&inputs, run.seed, &pool, run.threads);
    match fresh.recompute_full() {
        Ok(full) if full.answers == last.answers => {}
        Ok(_) => run.problem("incremental answers differ from a fresh recompute_full".into()),
        Err(e) => run.problem(format!("the fresh recompute_full failed: {e}")),
    }
}
