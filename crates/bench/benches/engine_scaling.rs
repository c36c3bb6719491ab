//! Engine round-throughput scaling: rounds/sec of the pull primitive at
//! n ∈ {1k, 4k, 10k, 16k, 100k, 1M}, single-threaded vs all available cores,
//! plus a determinism cross-check between the two configurations.
//!
//! The small sizes (1k/4k/16k) exist to track the **parallel break-even
//! point**: with per-round thread spawning (PR 1) the multi-thread rows lost
//! to 1 thread everywhere below ~16k nodes; the persistent worker pool
//! amortises dispatch and moves that crossover left. Watch the `speedup`
//! column of those rows across PRs.
//!
//! Besides the usual criterion output, this bench writes `BENCH_engine.json`
//! (in the workspace root, or `$BENCH_ENGINE_JSON`) so future PRs have a perf
//! trajectory to compare against. Each JSON row reports the **median** of
//! five warmed measurements plus their sample standard deviation (`std_1t` /
//! `std_mt`), so regressions can be judged
//! against run-to-run noise instead of a single best-of number:
//!
//! ```text
//! cargo bench -p bench --bench engine_scaling
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gossip_net::{par, Engine, EngineConfig};
use std::time::Instant;

/// Rounds per measurement at a given n (many at small n so dispatch overhead
/// is what gets measured, few at 1M to bound runtime).
fn rounds_for(n: usize) -> u64 {
    match n {
        0..=4_000 => 200,
        4_001..=20_000 => 50,
        20_001..=200_000 => 10,
        _ => 5,
    }
}

fn max_spread_engine(n: usize, seed: u64, threads: usize) -> Engine<u64> {
    let mut engine = Engine::from_states((0..n as u64).collect(), EngineConfig::with_seed(seed));
    engine.set_threads(threads);
    engine
}

/// Runs `rounds` pull rounds of max-spreading. Returns rounds/sec and the
/// final states.
fn run_pull(n: usize, threads: usize, rounds: u64) -> (f64, Vec<u64>) {
    let mut engine = max_spread_engine(n, 42, threads);
    let start = Instant::now();
    for _ in 0..rounds {
        engine.pull_round(
            |_, &s| s,
            |_, st, p| {
                if let Some(p) = p {
                    *st = (*st).max(p);
                }
            },
        );
    }
    let rate = rounds as f64 / start.elapsed().as_secs_f64();
    (rate, engine.into_states())
}

fn bench_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(10);
    // Worker threads for the "mt" rows (env-configurable) — distinct from the
    // machine's physical parallelism, which the report records separately so
    // a 4-thread run on a 1-core container cannot be misread as 4-core data.
    let threads_mt = par::num_threads();
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    let mut report_rows = Vec::new();
    let mut scaling_rows = Vec::new();
    for &n in &[1_000usize, 4_000, 10_000, 16_000, 100_000, 1_000_000] {
        let rounds = rounds_for(n);
        // One criterion iteration runs `rounds` rounds of n node operations.
        group.throughput(Throughput::Elements(rounds * n as u64));
        let mut thread_configs = vec![1];
        if threads_mt > 1 {
            thread_configs.push(threads_mt); // 1 would duplicate the id
        }
        for &threads in &thread_configs {
            group.bench_with_input(
                BenchmarkId::new(format!("pull_n{n}"), format!("{threads}t")),
                &(n, threads),
                |b, &(n, threads)| {
                    b.iter(|| run_pull(n, threads, rounds).0);
                },
            );
        }
        // A clean measurement set for the JSON report, outside criterion's
        // sampling so the numbers are directly comparable across PRs: one
        // warm-up measurement, then five samples summarised as median ± std
        // dev (host contention shows up as outliers the median resists, and
        // the std dev records how noisy the run was).
        let measure = |threads: usize| {
            let _warmup = run_pull(n, threads, rounds);
            let samples: Vec<f64> = (0..5).map(|_| run_pull(n, threads, rounds).0).collect();
            criterion::stats::summary(&samples).expect("five samples")
        };
        let single = measure(1);
        let multi = measure(threads_mt);
        let identical = run_pull(n, 1, rounds).1 == run_pull(n, threads_mt, rounds).1;
        assert!(identical, "thread count changed the execution at n = {n}");
        println!(
            "engine_scaling n={n}: {:.2}±{:.2} rounds/s @1t, {:.2}±{:.2} rounds/s @{threads_mt}t \
             ({host_cores} host cores; speedup {:.2}x, deterministic: {identical})",
            single.median,
            single.std_dev,
            multi.median,
            multi.std_dev,
            multi.median / single.median
        );
        report_rows.push(format!(
            "    {{\"n\": {n}, \"threads\": {threads_mt}, \"host_cores\": {host_cores}, \
             \"rounds_per_sec_1t\": {:.3}, \"std_1t\": {:.3}, \
             \"rounds_per_sec_mt\": {:.3}, \"std_mt\": {:.3}, \"speedup\": {:.3}, \
             \"deterministic_across_threads\": {identical}}}",
            single.median,
            single.std_dev,
            multi.median,
            multi.std_dev,
            multi.median / single.median
        ));
        // Parallel efficiency (speedup / threads) is only meaningful when the
        // host can actually run the workers in parallel: on a 1-core
        // container the "mt" rows measure oversubscription, not scaling, so
        // the `scaling` section stays empty there rather than recording
        // numbers that would be misread as real-core data.
        if host_cores > 1 && threads_mt > 1 {
            let speedup = multi.median / single.median;
            let efficiency = speedup / threads_mt as f64;
            scaling_rows.push(format!(
                "    {{\"n\": {n}, \"threads\": {threads_mt}, \"host_cores\": {host_cores}, \
                 \"speedup\": {speedup:.3}, \"parallel_efficiency\": {efficiency:.3}}}"
            ));
        }
    }
    group.finish();

    // Anchored in the workspace root (or $BENCH_ENGINE_JSON) so every PR's
    // artifact lands in the same place; the section writer preserves the
    // `active_set` rows contributed by the engine_ablation bench.
    bench::report_json::write_section("results", &report_rows);
    if !scaling_rows.is_empty() {
        bench::report_json::write_section("scaling", &scaling_rows);
    }
}

criterion_group!(benches, bench_engine_scaling);
criterion_main!(benches);
