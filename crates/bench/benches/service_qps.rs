//! Multi-query service throughput: round amortisation, payload cost, and
//! the replay's cost against a full recompute.
//!
//! Three experiments, all on the batched [`QuantileService`]:
//!
//! * **Batch grid** — for every n ∈ {10k, 100k, 1M} and query-vector size
//!   q ∈ {1, 8, 64}: the median of five epochs (fresh service each, so the
//!   cold first-epoch cost is what's measured) answering all q queries
//!   through shared tournament rounds. Each timed epoch includes
//!   `QuantileService::new`, which allocates the epoch buffers, just as the
//!   sequential baseline times whole `tournament_quantile` calls. Reports
//!   rounds, wall-clock with a sample standard deviation
//!   (`std_epoch_secs`/`std_qps`, so the CI drift check can band-compare
//!   the wall-clock keys instead of skipping them), queries/second, a
//!   per-phase wall-clock breakdown (sample-collect / lane-apply / vote,
//!   from [`ServiceOutcome::timings`]), the payload cost in bytes per node
//!   per round ([`Metrics::mean_bits_per_node_round`]), and the round
//!   amortisation `Σᵢ solo_roundsᵢ / rounds`.
//! * **Batch vs sequential** — the same q queries as q back-to-back
//!   [`tournament_quantile`] runs. Measured directly up to n = 100k and at
//!   q = 1 for every n (so the 1M single-query baseline is real); the
//!   remaining 1M cells extrapolate as `q ×` the measured single-query run
//!   (the JSON row says which, in `seq_mode` — nothing is silently
//!   dropped).
//! * **Incremental vs full** — at n = 100k, q = 8: epoch, move 1 % of the
//!   holders by +1, then time the replay (`epoch()` over the cached
//!   contact graph, for every node) against a from-scratch recompute of the
//!   same inputs (a fresh service, construction included). The replay's
//!   work depends neither on how many holders moved nor on how far.
//!
//! Results land in `BENCH_service.json` in the workspace root (override with
//! `$BENCH_SERVICE_JSON`). Set `SERVICE_QPS_QUICK=1` (CI's bench smoke step
//! does) to shrink the grid to a bit-rot check: the batch grid runs at
//! n = 10k and q ∈ {1, 8}; the incremental comparison runs as in a full
//! run, at the committed n = 100k, so its row matches the committed row and
//! the drift check compares its rounds and dirty count:
//!
//! ```text
//! cargo bench -p bench --bench service_qps
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_net::EngineConfig;
use quantile_gossip::{
    tournament_quantile, EpochMode, QuantileQuery, QuantileService, ServiceConfig, TournamentConfig,
};
use std::time::Instant;

fn quick() -> bool {
    std::env::var_os("SERVICE_QPS_QUICK").is_some_and(|v| v != "0")
}

/// Distinct pseudorandom holder values.
fn values(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// The q-query vector: quantile targets spread over [0.25, 0.75] at ε = 5%,
/// so every lane's schedule has comparable length and the shared round
/// window stays close to a single query's.
fn query_vector(q: usize) -> Vec<QuantileQuery> {
    (0..q)
        .map(|i| {
            let phi = if q == 1 {
                0.5
            } else {
                0.25 + 0.5 * i as f64 / (q - 1) as f64
            };
            QuantileQuery::new(phi, 0.05)
        })
        .collect()
}

struct BatchCell {
    n: usize,
    q: usize,
    rounds: u64,
    solo_rounds_total: u64,
    amortisation: f64,
    epoch_secs: f64,
    std_epoch_secs: f64,
    qps: f64,
    std_qps: f64,
    collect_secs: f64,
    apply_secs: f64,
    vote_secs: f64,
    bytes_per_node_round: f64,
    seq_secs: f64,
    seq_rounds: u64,
    seq_mode: &'static str,
}

/// Median and sample standard deviation of a set of timings.
fn median_std(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let denom = samples.len().saturating_sub(1).max(1) as f64;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / denom;
    (median, var.sqrt())
}

/// Median-of-`trials` batched epochs (fresh service per trial) plus the
/// sequential comparison (measured once — it is a baseline, not the quantity
/// under drift surveillance).
fn run_batch_cell(
    n: usize,
    q: usize,
    seed: u64,
    trials: usize,
    measure_sequential: bool,
) -> BatchCell {
    let vals = values(n);
    let queries = query_vector(q);
    let ec = EngineConfig::with_seed(seed);
    let mut epoch_samples = Vec::with_capacity(trials);
    let mut outcomes = Vec::with_capacity(trials);
    for _ in 0..trials {
        // Construction allocates the epoch buffers, so it is timed too.
        let t = Instant::now();
        let mut svc = QuantileService::new(&vals, &queries, ServiceConfig::default(), ec.clone())
            .expect("valid service parameters");
        let mut out = svc.epoch().expect("epoch");
        epoch_samples.push(t.elapsed().as_secs_f64());
        // Only the stage timings differ between trials: free the answers,
        // which at n = 1M, q = 64 are half a gigabyte per trial.
        out.answers = Vec::new();
        outcomes.push(out);
    }
    let mut sorted = epoch_samples.clone();
    let (epoch_secs, std_epoch_secs) = median_std(&mut sorted);
    let mut qps_samples: Vec<f64> = epoch_samples
        .iter()
        .map(|&s| q as f64 / s.max(1e-9))
        .collect();
    let (_, std_qps) = median_std(&mut qps_samples);
    // Report the phase breakdown of the median trial, so the columns sum to
    // (roughly) the reported wall-clock.
    let median_trial = epoch_samples
        .iter()
        .position(|&s| s == epoch_secs)
        .unwrap_or(0);
    let out = &outcomes[median_trial];

    let (seq_secs, seq_rounds, seq_mode) = if measure_sequential {
        let t = Instant::now();
        let mut rounds = 0u64;
        for query in &queries {
            let solo = tournament_quantile(
                &vals,
                query.phi,
                query.epsilon,
                &TournamentConfig::default(),
                ec.clone(),
            )
            .expect("solo run");
            rounds += solo.rounds;
        }
        (t.elapsed().as_secs_f64(), rounds, "measured")
    } else {
        // One solo run, scaled by q: the q runs are independent and
        // identically sized, so the extrapolation is linear by construction.
        let t = Instant::now();
        tournament_quantile(
            &vals,
            queries[0].phi,
            queries[0].epsilon,
            &TournamentConfig::default(),
            ec.clone(),
        )
        .expect("solo run");
        let one = t.elapsed().as_secs_f64();
        (
            one * q as f64,
            out.per_query.iter().map(|c| c.solo_rounds).sum(),
            "extrapolated",
        )
    };

    BatchCell {
        n,
        q,
        rounds: out.rounds,
        solo_rounds_total: out.per_query.iter().map(|c| c.solo_rounds).sum(),
        amortisation: out.amortisation(),
        epoch_secs,
        std_epoch_secs,
        qps: q as f64 / epoch_secs.max(1e-9),
        std_qps,
        collect_secs: out.timings.collect_secs,
        apply_secs: out.timings.apply_secs,
        vote_secs: out.timings.vote_secs,
        bytes_per_node_round: out.metrics.mean_bits_per_node_round() / 8.0,
        seq_secs,
        seq_rounds,
        seq_mode,
    }
}

struct IncrementalCell {
    n: usize,
    q: usize,
    dirty_fraction: f64,
    dirty_nodes: usize,
    rounds: u64,
    inc_secs: f64,
    replay_secs: f64,
    vote_secs: f64,
    full_secs: f64,
    speedup: f64,
}

/// Epoch, move a fraction of holders by +1, and time the replay against a
/// full recompute.
fn run_incremental_cell(n: usize, q: usize, dirty_fraction: f64, seed: u64) -> IncrementalCell {
    let mut vals = values(n);
    let queries = query_vector(q);
    let ec = EngineConfig::with_seed(seed);
    let mut svc = QuantileService::new(&vals, &queries, ServiceConfig::default(), ec.clone())
        .expect("valid service parameters");
    svc.epoch().expect("warm-up epoch");

    let k = ((n as f64 * dirty_fraction).round() as usize).max(1);
    // Spread the edits over the id space.
    for j in 0..k {
        let node = (j * n) / k;
        vals[node] = vals[node].wrapping_add(1);
        svc.set_value(node, vals[node]).expect("in range");
    }
    let dirty_nodes = svc.dirty_nodes();

    let t = Instant::now();
    let inc = svc.epoch().expect("incremental epoch");
    let inc_secs = t.elapsed().as_secs_f64();
    assert_eq!(inc.mode, EpochMode::Incremental { dirty_nodes });

    let t = Instant::now();
    let mut fresh = QuantileService::new(&vals, &queries, ServiceConfig::default(), ec)
        .expect("valid service parameters");
    let full = fresh.epoch().expect("full epoch");
    let full_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        inc.answers, full.answers,
        "incremental epoch diverged from the full recompute"
    );

    IncrementalCell {
        n,
        q,
        dirty_fraction,
        dirty_nodes,
        rounds: inc.rounds,
        inc_secs,
        replay_secs: inc.timings.replay_secs,
        vote_secs: inc.timings.vote_secs,
        full_secs,
        speedup: full_secs / inc_secs.max(1e-9),
    }
}

fn bench_service_qps(c: &mut Criterion) {
    let quick = quick();
    let sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let qs: &[usize] = if quick { &[1, 8] } else { &[1, 8, 64] };
    // Sequential timing is measured directly where affordable (every cell up
    // to this size, plus every q = 1 cell — a single solo run is affordable
    // at any n); the remaining rows are marked "extrapolated".
    let seq_measure_cap: usize = 100_000;
    let trials = if quick { 3 } else { 5 };

    // Criterion timing rows at the smallest size: the cost of one batched
    // epoch per query-vector size.
    let mut group = c.benchmark_group("service_qps");
    group.sample_size(2);
    for &q in qs {
        group.bench_with_input(BenchmarkId::new("epoch", q), &q, |b, &q| {
            let vals = values(sizes[0]);
            let queries = query_vector(q);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut svc = QuantileService::new(
                    &vals,
                    &queries,
                    ServiceConfig::default(),
                    EngineConfig::with_seed(seed),
                )
                .expect("valid service parameters");
                svc.epoch().expect("epoch").rounds
            });
        });
    }
    group.finish();

    let mut rows = Vec::new();

    for &n in sizes {
        for &q in qs {
            let cell = run_batch_cell(n, q, 42, trials, n <= seq_measure_cap || q == 1);
            println!(
                "service_qps n={n} q={q}: rounds={} (solo total {}), amortisation={:.1}x, \
                 epoch={:.3}s±{:.3} (collect {:.3}s, apply {:.3}s, vote {:.3}s) \
                 qps={:.1} payload={:.1} B/node/round, sequential={:.3}s ({})",
                cell.rounds,
                cell.solo_rounds_total,
                cell.amortisation,
                cell.epoch_secs,
                cell.std_epoch_secs,
                cell.collect_secs,
                cell.apply_secs,
                cell.vote_secs,
                cell.qps,
                cell.bytes_per_node_round,
                cell.seq_secs,
                cell.seq_mode
            );
            rows.push(format!(
                "    {{\"kind\": \"batch\", \"n\": {}, \"q\": {}, \"rounds\": {}, \
                 \"solo_rounds_total\": {}, \"amortisation\": {:.3}, \
                 \"epoch_secs\": {:.6}, \"std_epoch_secs\": {:.6}, \
                 \"qps\": {:.3}, \"std_qps\": {:.3}, \
                 \"collect_secs\": {:.6}, \"apply_secs\": {:.6}, \"vote_secs\": {:.6}, \
                 \"bytes_per_node_round\": {:.3}, \"seq_secs\": {:.6}, \
                 \"seq_rounds\": {}, \"seq_mode\": \"{}\", \"wall_speedup\": {:.3}}}",
                cell.n,
                cell.q,
                cell.rounds,
                cell.solo_rounds_total,
                cell.amortisation,
                cell.epoch_secs,
                cell.std_epoch_secs,
                cell.qps,
                cell.std_qps,
                cell.collect_secs,
                cell.apply_secs,
                cell.vote_secs,
                cell.bytes_per_node_round,
                cell.seq_secs,
                cell.seq_rounds,
                cell.seq_mode,
                cell.seq_secs / cell.epoch_secs.max(1e-9),
            ));
        }
    }

    let cell = run_incremental_cell(100_000, 8, 0.01, 1337);
    println!(
        "service_qps incremental n={} q={} dirty={:.3}% ({} holders): \
         inc={:.3}s (replay {:.3}s, vote {:.3}s) full={:.3}s speedup={:.1}x",
        cell.n,
        cell.q,
        100.0 * cell.dirty_fraction,
        cell.dirty_nodes,
        cell.inc_secs,
        cell.replay_secs,
        cell.vote_secs,
        cell.full_secs,
        cell.speedup
    );
    rows.push(format!(
        "    {{\"kind\": \"incremental\", \"n\": {}, \"q\": {}, \
         \"dirty_fraction\": {}, \"dirty_nodes\": {}, \"rounds\": {}, \
         \"inc_secs\": {:.6}, \"replay_secs\": {:.6}, \"vote_secs\": {:.6}, \
         \"full_secs\": {:.6}, \"speedup\": {:.3}}}",
        cell.n,
        cell.q,
        cell.dirty_fraction,
        cell.dirty_nodes,
        cell.rounds,
        cell.inc_secs,
        cell.replay_secs,
        cell.vote_secs,
        cell.full_secs,
        cell.speedup,
    ));

    // Anchor the report in the workspace root, like the other BENCH_*.json.
    let path = std::env::var("BENCH_SERVICE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json").into()
    });
    let json = format!(
        "{{\n  \"bench\": \"service_qps\",\n  \"algorithm\": \
         \"QuantileService batched epochs (eps=0.05, phi spread over [0.25, 0.75])\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    if let Err(err) = std::fs::write(&path, &json) {
        eprintln!("could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_service_qps);
criterion_main!(benches);
