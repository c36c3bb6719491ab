//! Same-host A/B of a memory-layout change: the **old** code path (the
//! composition a fused call replaces) and the **new** one are measured in
//! the same process, back to back, so the comparison is free of toolchain
//! and host drift. The change is **`fused_sample_step`**: a
//! tournament-shaped step of `k` samples per node feeding a local update —
//! `collect_samples_flat(k)` plus `local_step` (the composition) vs
//! [`Engine::sample_step`], which draws, prefetches and applies all `k`
//! samples in one pass — for `k = 3` (a 3-TOURNAMENT iteration) and
//! `k = 15` (the final vote).
//!
//! Every pair also cross-checks **bit-identical final states** — the layout
//! work is pure mechanical sympathy, so any trajectory divergence is a bug,
//! not a tolerance question. Rows land in the `layout` section of
//! `BENCH_engine.json`.
//!
//! The flat column-major [`SampleMatrix`](gossip_net::SampleMatrix)
//! ([`Engine::collect_samples_flat`]) is the only sample collector the
//! engine has. Its A/B against the nested per-node `Vec<Vec<M>>` collector it
//! replaced is recorded in the committed `collect_flat` rows of
//! `BENCH_engine.json` (5.38× at n = 16k, 5.15× at 100k, 4.22× at 1M; a
//! full run of this bench rewrites the section without them).
//!
//! The cache-blocked, prefetched dense pull round is the only pull round
//! the engine has. Its A/B against the per-slot loop it replaced is
//! recorded in the committed `pull_blocked_prefetch` rows of
//! `BENCH_engine.json` (0.925× at n = 16k, 0.897× at 100k, 1.821× at 1M;
//! a full run of this bench rewrites the section without them), and its
//! equivalence to the per-slot configuration (`set_copy_block(1)`,
//! `set_prefetch_dist(0)`) is a property test of `tests/layout.rs`.
//!
//! The run-batched copy-on-write commit ([`gossip_net::soa::swap_runs`]) is
//! the only commit the engine has; its A/B against the per-slot swap it
//! replaced is recorded in the committed `sparse_commit_runs` rows of
//! `BENCH_engine.json` (1.22× at n = 16k, 0.96× at 100k, 0.89× at 1M), and
//! its equivalence is a property test of `soa` and `tests/layout.rs`.
//!
//! Set `ENGINE_LAYOUT_QUICK=1` (CI's bench smoke step does) to shrink sizes
//! and samples to a bit-rot check.
//!
//! ```text
//! cargo bench -p bench --bench engine_layout
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use gossip_net::{Engine, EngineConfig};
use std::time::Instant;

fn quick() -> bool {
    std::env::var_os("ENGINE_LAYOUT_QUICK").is_some_and(|v| v != "0")
}

fn rounds_for(n: usize) -> u64 {
    match n {
        0..=4_000 => 200,
        4_001..=20_000 => 50,
        20_001..=200_000 => 10,
        _ => 5,
    }
}

fn engine(n: usize) -> Engine<u64> {
    let mut e = Engine::from_states((0..n as u64).collect(), EngineConfig::with_seed(42));
    e.set_threads(1);
    e
}

/// One A/B measurement: median-of-5 (after one warm-up) of `f`'s rounds/sec.
fn measure(mut f: impl FnMut() -> f64) -> criterion::stats::Summary {
    let samples = if quick() { 2 } else { 5 };
    let _warmup = f();
    let collected: Vec<f64> = (0..samples).map(|_| f()).collect();
    criterion::stats::summary(&collected).expect("samples")
}

/// The update both sides of the sample-step A/B apply: each node takes the
/// median of its `k` samples (Algorithm 2's iteration and final vote).
fn take_median(st: &mut u64, samples: &mut [Option<u64>]) {
    let mid = samples.len() / 2;
    if let Some(m) = samples.select_nth_unstable(mid).1 {
        *st = *m;
    }
}

fn sample_step_rounds_per_sec(n: usize, k: usize, steps: u64, fused: bool) -> (f64, Vec<u64>) {
    let mut e = engine(n);
    let start = Instant::now();
    for _ in 0..steps {
        if fused {
            e.sample_step(k, k, |_| true, |_, &v| v, |_, st, _, s| take_median(st, s));
        } else {
            let m = e.collect_samples_flat(k, |_, &v| v);
            e.local_step(|v, st, _| {
                let mut row = [None; 16];
                for (r, slot) in row[..k].iter_mut().enumerate() {
                    *slot = m.sample(v, r);
                }
                take_median(st, &mut row[..k]);
            });
        }
    }
    let rate = (k as u64 * steps) as f64 / start.elapsed().as_secs_f64();
    (rate, e.into_states())
}

struct AbRow {
    /// Samples per step.
    k: usize,
    n: usize,
    old: criterion::stats::Summary,
    new: criterion::stats::Summary,
    identical: bool,
}

fn bench_engine_layout(_: &mut Criterion) {
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let sizes: &[usize] = if quick() {
        &[1 << 12, 1 << 14]
    } else {
        &[16_000, 100_000, 1_000_000]
    };

    let mut rows: Vec<AbRow> = Vec::new();
    for &n in sizes {
        let rounds = rounds_for(n);
        for k in [3, 15] {
            let steps = (3 * rounds).div_ceil(k as u64);
            let old = measure(|| sample_step_rounds_per_sec(n, k, steps, false).0);
            let new = measure(|| sample_step_rounds_per_sec(n, k, steps, true).0);
            let identical = sample_step_rounds_per_sec(n, k, steps, false).1
                == sample_step_rounds_per_sec(n, k, steps, true).1;
            assert!(identical, "fused sample step diverged at n = {n}, k = {k}");
            rows.push(AbRow {
                k,
                n,
                old,
                new,
                identical,
            });
        }
    }

    let mut json_rows = Vec::new();
    for r in &rows {
        let speedup = r.new.median / r.old.median;
        println!(
            "engine_layout fused_sample_step k={} n={}: old {:.2}±{:.2} rounds/s, \
             new {:.2}±{:.2} rounds/s (speedup {speedup:.2}x, identical: {})",
            r.k, r.n, r.old.median, r.old.std_dev, r.new.median, r.new.std_dev, r.identical
        );
        json_rows.push(format!(
            "    {{\"change\": \"fused_sample_step\", \"k\": {}, \"n\": {}, \"threads\": 1, \
             \"host_cores\": {host_cores}, \
             \"rounds_per_sec_old\": {:.3}, \"std_old\": {:.3}, \
             \"rounds_per_sec_new\": {:.3}, \"std_new\": {:.3}, \"speedup\": {speedup:.3}, \
             \"identical_states\": {}}}",
            r.k, r.n, r.old.median, r.old.std_dev, r.new.median, r.new.std_dev, r.identical
        ));
    }
    // Quick mode's numbers are bit-rot checks, not data — keep the committed
    // section's full-run numbers in that case.
    if !quick() {
        bench::report_json::write_section("layout", &json_rows);
    }
}

criterion_group!(benches, bench_engine_layout);
criterion_main!(benches);
