//! An ablation of the engine's round machinery, **per-pass round costs**
//! (`engine_rounds`): the steady-state cost of one round of each primitive —
//! pull (a single fused double-buffer dispatch), push and push–pull (a draw
//! pass that files each landed push by sender chunk and receiver range, then
//! a per-receiver-range fold pass), and `local_step` — with and without
//! failure injection, so a change to any pass (snapshot fusion, the push
//! lists, RNG keying, failure specialisation) is visible per primitive
//! instead of only through whole benchmarks. The sparse push round the
//! algorithms run is timed by the repository benchmark's
//! `engine.push_on.ns_per_active`.
//!
//! Set `ENGINE_ABLATION_QUICK=1` (CI's bench smoke step does) to shrink the
//! sizes and sample counts so a run finishes in seconds — enough to catch
//! bit-rot, not enough for stable numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_net::{Engine, EngineConfig, FailureModel, FaultPlan};

fn quick() -> bool {
    std::env::var_os("ENGINE_ABLATION_QUICK").is_some_and(|v| v != "0")
}

fn round_engine(n: usize, failure: FailureModel) -> Engine<u64> {
    let config = EngineConfig::with_seed(7).fault(FaultPlan::none().with_failure(failure));
    Engine::from_states((0..n as u64).collect(), config)
}

fn bench_round_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_rounds");
    group.sample_size(if quick() { 3 } else { 10 });
    let sizes: &[usize] = if quick() {
        &[1 << 12]
    } else {
        &[1 << 12, 1 << 14, 1 << 17]
    };
    for &n in sizes {
        for (label, failure) in [
            ("", FailureModel::None),
            ("_mu0.2", FailureModel::uniform(0.2).expect("valid p")),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("pull_round{label}"), n),
                &n,
                |b, _| {
                    let mut e = round_engine(n, failure.clone());
                    b.iter(|| {
                        e.pull_round(
                            |_, &s| s,
                            |_, st, p| {
                                if let Some(p) = p {
                                    *st = (*st).max(p);
                                }
                            },
                        )
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("push_round{label}"), n),
                &n,
                |b, _| {
                    let mut e = round_engine(n, failure.clone());
                    b.iter(|| {
                        e.push_round(|_, &s| Some(s), |_, st, m| *st = (*st).max(m), |_, _, _| {})
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("push_pull_round{label}"), n),
                &n,
                |b, _| {
                    let mut e = round_engine(n, failure.clone());
                    b.iter(|| e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m)));
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("local_step", n), &n, |b, _| {
            let mut e = round_engine(n, FailureModel::None);
            b.iter(|| {
                e.local_step(|v, st, _| *st = st.wrapping_add(v as u64));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_round_primitives);
criterion_main!(benches);
