//! E5 wall-clock bench: the robust tournament under increasing failure rates.

use analysis::Workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_net::{EngineConfig, FailureModel, FaultPlan};
use quantile_gossip::{robust, RobustConfig};

fn bench_robust(c: &mut Criterion) {
    let mut group = c.benchmark_group("robust_failures");
    group.sample_size(10);
    let values = Workload::UniformDistinct.generate(1 << 13, 11);
    for &mu in &[0.0f64, 0.3, 0.6] {
        group.bench_with_input(
            BenchmarkId::new("mu", format!("{mu}")),
            &values,
            |b, values| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let cfg = EngineConfig::with_seed(seed)
                        .fault(FaultPlan::none().with_failure(FailureModel::uniform(mu).unwrap()));
                    robust::robust_approximate_quantile(
                        values,
                        0.5,
                        0.08,
                        &RobustConfig::default(),
                        cfg,
                    )
                    .unwrap()
                    .answered_fraction
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_robust);
criterion_main!(benches);
