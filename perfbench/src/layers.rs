//! Layer microbenchmarks: the benchmark drives `gossip_net::Engine` and
//! `gossip_net::WorkerPool` directly, with each workload's network size,
//! state type, fault plan and round mix, and times single calls.

use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{exact, service, tournament};
use gossip_net::{ActiveSet, Engine, EngineConfig, FaultPlan, LaneMatrix, WorkerPool};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed calls per microbenchmark; the median is reported.
const CALLS: usize = 15;
/// Untimed calls first, so buffers are allocated and faulted in.
const WARM: usize = 2;
/// `WorkerPool` dispatches or phases per timed batch.
const POOL_BATCH: usize = 500;

/// Median seconds of one call of `f`, each timed call recorded as a span.
fn per_call(tracer: &mut Tracer, name: &'static str, calls: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..WARM {
        f();
    }
    let secs: Vec<f64> = (0..calls)
        .map(|_| {
            tracer.span(name, |_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
        })
        .collect();
    median(&secs)
}

/// A pull round over u64 states whose apply always writes.
fn pull_round(e: &mut Engine<u64>) {
    e.pull_round(
        |_, &s| s,
        |_, st, got| {
            if let Some(p) = got {
                *st = st.wrapping_add(p);
            }
        },
    );
}

fn config(seed: u64, pool: &Arc<WorkerPool>, fault: FaultPlan) -> EngineConfig {
    EngineConfig::with_seed(seed)
        .fault(fault)
        .pool(Arc::clone(pool))
}

/// Engine primitive costs, as `(metric, value)` pairs.
pub fn engine(seed: u64, pool: &Arc<WorkerPool>, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // The tournament's shape: u64 states, no faults, n = 10^6.
    let n = tournament::N;
    let values = analysis::Workload::UniformDistinct.generate(n, seed);
    let mut e = Engine::from_states(values.clone(), config(seed, pool, FaultPlan::none()));
    let pull = per_call(tracer, "engine.pull_round", CALLS, || pull_round(&mut e));
    out.push(("engine.pull.ns_per_node", pull / n as f64 * 1e9));
    let samples = 2;
    let collect = per_call(tracer, "engine.collect_samples_flat", CALLS, || {
        black_box(e.collect_samples_flat(samples, |_, &s| s));
    });
    out.push((
        "engine.collect.ns_per_node",
        collect / (samples * n) as f64 * 1e9,
    ));
    drop(e);

    // The service's shape: lane-major rows of q values, n = 10^5.
    let (n, q) = (service::N, service::Q);
    let lanes: Vec<u64> = (0..(n * q) as u64).collect();
    let mut sheet = LaneMatrix::empty(n, q, 0u64);
    let mut e = Engine::from_states(vec![(); n], config(seed, pool, FaultPlan::none()));
    let collect_lanes = per_call(tracer, "engine.collect_lanes", CALLS, || {
        e.collect_lanes(&lanes, &mut sheet);
    });
    out.push((
        "engine.collect_lanes.ns_per_node",
        collect_lanes / n as f64 * 1e9,
    ));
    drop((e, sheet, lanes));

    // The exact algorithm's shape: its network size and loss plan.
    let n = exact::N;
    let loss = exact::fault_plan();
    let small: Vec<u64> = values[..n].to_vec();
    let calls = 10 * CALLS;

    // Push-sum: (sum, weight) pairs, half of each pushed every round.
    let mut e = Engine::from_states(
        small.iter().map(|&v| (v as f64, 1.0)).collect::<Vec<_>>(),
        config(seed, pool, loss.clone()),
    );
    let push = per_call(tracer, "engine.push_round", calls, || {
        e.push_round(
            |_, st: &(f64, f64)| Some((st.0 / 2.0, st.1 / 2.0)),
            |_, st, (s, w)| {
                st.0 += s;
                st.1 += w;
            },
            |_, st, delivered| {
                if delivered {
                    st.0 /= 2.0;
                    st.1 /= 2.0;
                }
            },
        );
    });
    out.push(("engine.push.ns_per_node", push / n as f64 * 1e9));

    // Rumor spreading: (min, max) pairs merged in both directions.
    let mut e = Engine::from_states(
        small.iter().map(|&v| (v, v)).collect::<Vec<_>>(),
        config(seed, pool, loss.clone()),
    );
    let push_pull = per_call(tracer, "engine.push_pull_round", calls, || {
        e.push_pull_round(
            |_, &st: &(u64, u64)| st,
            |_, st, (lo, hi)| {
                st.0 = st.0.min(lo);
                st.1 = st.1.max(hi);
            },
        );
    });
    out.push(("engine.push_pull.ns_per_node", push_pull / n as f64 * 1e9));

    // Token distribution: sparse pushes from 1 % of the nodes.
    let active = ActiveSet::from_fn(n, |v| v % 100 == 0);
    let mut e = Engine::from_states(small.clone(), config(seed, pool, loss.clone()));
    let push_on = per_call(tracer, "engine.push_round_on", calls, || {
        black_box(e.push_round_on(
            &active,
            |_, &st: &u64| Some(st),
            |_, st, m| *st = st.wrapping_add(m),
            |_, _, _| {},
        ));
    });
    out.push((
        "engine.push_on.ns_per_active",
        push_on / active.len() as f64 * 1e9,
    ));

    // The fault plan's price on the same pull round.
    let mut pull_at = |fault: FaultPlan, name: &'static str| {
        let mut e = Engine::from_states(small.clone(), config(seed, pool, fault));
        per_call(tracer, name, calls, || pull_round(&mut e))
    };
    let clean = pull_at(FaultPlan::none(), "engine.pull_round.clean");
    let lossy = pull_at(loss, "engine.pull_round.lossy");
    out.push(("engine.fault_overhead", ratio(lossy, clean)));
    out
}

/// Worker-pool hand-off costs at `pool.threads()` executors.
pub fn pool(pool: &WorkerPool, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let tasks = pool.threads();
    let task = |i: usize| {
        black_box(i);
    };
    let dispatch = per_call(tracer, "pool.run", CALLS, || {
        for _ in 0..POOL_BATCH {
            pool.run(tasks, &task);
        }
    });
    let phase = per_call(tracer, "pool.run_program", CALLS, || {
        pool.run_program(|| {
            for _ in 0..POOL_BATCH {
                pool.run(tasks, &task);
            }
        });
    });
    vec![
        ("pool.dispatch_us", dispatch / POOL_BATCH as f64 * 1e6),
        ("pool.phase_us", phase / POOL_BATCH as f64 * 1e6),
    ]
}
