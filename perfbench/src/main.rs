//! The repository benchmark: end-to-end and per-layer cost of the quantile
//! gossip algorithms. See `perfbench/README.md` for the workloads and every
//! metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod exact;
mod harness;
mod host;
mod layers;
mod service;
mod stats;
mod sys;
mod tournament;
mod trace;

use harness::{EndToEnd, Run};
use stats::{median, ratio};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WORKLOADS: [&str; 4] = [
    "tournament_1m",
    "service_full",
    "service_drift",
    "exact_lossy",
];

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("answer_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_bytes", "bytes"),
    ("rounds", "count"),
    ("bytes_per_node", "bytes"),
    ("accuracy", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A layer that a workload
/// never calls reports 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("host.cores", "count"),
    ("host.threads", "count"),
    ("host.llc_bytes", "bytes"),
    ("host.ram_bytes", "bytes"),
    ("host.copy_bytes", "bytes"),
    ("host.gather_bytes", "bytes"),
    ("host.copy_gbps.t1", "GB/s"),
    ("host.copy_gbps.tN", "GB/s"),
    ("host.gather_ns", "ns"),
    ("host.steal_share", "ratio"),
    ("engine.pull.ns_per_node", "ns"),
    ("engine.collect.ns_per_node", "ns"),
    ("engine.collect_lanes.ns_per_node", "ns"),
    ("engine.push.ns_per_node", "ns"),
    ("engine.push_pull.ns_per_node", "ns"),
    ("engine.push_on.ns_per_active", "ns"),
    ("engine.fault_overhead", "ratio"),
    ("engine.gather_eff", "ratio"),
    ("engine.contacts", "count"),
    ("engine.dropped", "count"),
    ("pool.dispatch_us", "us"),
    ("pool.phase_us", "us"),
    ("pool.dispatches", "count"),
    ("pool.wakeups", "count"),
    ("pool.round_share", "ratio"),
    ("two_tournament.s", "s"),
    ("three_tournament.s", "s"),
    ("approx.glue_s", "s"),
    ("exact.iterations", "count"),
    ("exact.tournament_s", "s"),
    ("exact.tournament_rounds", "count"),
    ("exact.spread_s", "s"),
    ("exact.spread_rounds", "count"),
    ("exact.count_s", "s"),
    ("exact.count_rounds", "count"),
    ("exact.unaccounted_s", "s"),
    ("service.collect_s", "s"),
    ("service.apply_s", "s"),
    ("service.record_s", "s"),
    ("service.vote_s", "s"),
    ("service.replay_s", "s"),
    ("service.patch_s", "s"),
    ("service.write_s", "s"),
    ("service.unaccounted_s", "s"),
    ("service.dirty_nodes", "count"),
    ("service.apply_gbps", "GB/s"),
    ("service.apply_eff", "ratio"),
    ("trace.answer_s", "s"),
    ("trace.overhead", "ratio"),
];

const USAGE: &str =
    "usage: perfbench --workload <tournament_1m|service_full|service_drift|exact_lossy> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = sys::Host::detect();
    // The engines size their rounds by this count; a row is recorded only
    // when every executor has a core of its own.
    let threads = gossip_net::par::num_threads();
    if threads > host.cores {
        eprintln!(
            "refusing to run: {threads} threads on {} cores (unset GOSSIP_NUM_THREADS / RAYON_NUM_THREADS)",
            host.cores
        );
        std::process::exit(2);
    }
    println!(
        "host: cores={} threads={threads} llc_bytes={} ram_bytes={}",
        host.cores, host.llc_bytes, host.ram_bytes
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );

    let mut run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        threads,
        host,
        tracer: trace::Tracer::new(),
        n: 0,
        counts: None,
        e2e: EndToEnd::default(),
        layer: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    if run.traced {
        layer_microbenchmarks(&mut run);
    }
    match run.workload {
        "tournament_1m" => tournament::run(&mut run),
        "service_full" => service::run(&mut run, false),
        "service_drift" => service::run(&mut run, true),
        "exact_lossy" => exact::run(&mut run),
        _ => unreachable!("parse_args accepts only known workloads"),
    }
    check_determinism(&mut run);

    let mut active = run.e2e.answer_active.clone();
    active.sort_by(f64::total_cmp);
    println!(
        "answers: timed={} active_s min={:.4} median={:.4} max={:.4}; wall_s median={:.4}; steal_share={:.4}; setups_s={:?}",
        active.len(),
        active.first().unwrap_or(&0.0),
        median(&active),
        active.last().unwrap_or(&0.0),
        run.median_answer_s(),
        steal_share(&run.e2e),
        run.e2e.setups
    );
    let metrics = if run.traced {
        per_layer(&mut run)
    } else {
        end_to_end(&run)
    };
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let correct = run.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Host roofline and engine and pool microbenchmarks, run before the
/// workload so their memory is freed before it starts.
fn layer_microbenchmarks(run: &mut Run) {
    let roof = host::calibrate(&run.host, run.threads, &mut run.tracer);
    run.layer("host.copy_gbps.t1", roof.copy_gbps_t1);
    run.layer("host.copy_gbps.tN", roof.copy_gbps_tn);
    run.layer("host.gather_ns", roof.gather_ns);
    run.layer("host.copy_bytes", roof.copy_bytes as f64);
    run.layer("host.gather_bytes", roof.gather_bytes as f64);
    let pool = Arc::new(gossip_net::WorkerPool::new(run.threads));
    for (name, value) in layers::engine(run.seed, &pool, &mut run.tracer) {
        run.layer(name, value);
    }
    for (name, value) in layers::pool(&pool, &mut run.tracer) {
        run.layer(name, value);
    }
}

fn layer_value(run: &Run, name: &str) -> f64 {
    run.layer
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Every per-layer metric, in [`PER_LAYER`] order.
fn per_layer(run: &mut Run) -> Vec<(&'static str, f64, &'static str)> {
    let answer_s = run.median_answer_s();
    let counts = run.counts.unwrap_or_default();
    let dispatches: Vec<f64> = run.e2e.pool_deltas.iter().map(|d| d.0 as f64).collect();
    let wakeups: Vec<f64> = run.e2e.pool_deltas.iter().map(|d| d.1 as f64).collect();
    let derived = [
        ("host.cores", run.host.cores as f64),
        ("host.threads", run.threads as f64),
        ("host.llc_bytes", run.host.llc_bytes as f64),
        ("host.ram_bytes", run.host.ram_bytes as f64),
        ("host.steal_share", steal_share(&run.e2e)),
        (
            "engine.gather_eff",
            ratio(
                layer_value(run, "host.gather_ns"),
                layer_value(run, "engine.pull.ns_per_node"),
            ),
        ),
        ("engine.contacts", counts.contacts as f64),
        ("engine.dropped", counts.dropped as f64),
        ("pool.dispatches", median(&dispatches)),
        ("pool.wakeups", median(&wakeups)),
        (
            "pool.round_share",
            ratio(
                counts.rounds as f64 * layer_value(run, "pool.phase_us") * 1e-6,
                answer_s,
            ),
        ),
        (
            "service.apply_eff",
            ratio(
                layer_value(run, "service.apply_gbps"),
                layer_value(run, "host.copy_gbps.tN"),
            ),
        ),
        ("trace.answer_s", answer_s),
    ];
    for (name, value) in derived {
        run.layer(name, value);
    }
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", run.workload, run.seed));
    match run.tracer.write_jsonl(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => run.problem(format!("writing {}: {e}", path.display())),
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, finite(layer_value(run, name)), unit))
        .collect()
}

/// Every end-to-end metric, in [`END_TO_END`] order.
fn end_to_end(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let e2e = &run.e2e;
    let counts = run.counts.unwrap_or_default();
    let values = [
        median(&e2e.answer_active),
        ratio(e2e.cpu_total, e2e.answer_walls.len() as f64),
        median(&e2e.setups),
        e2e.peak_rss_bytes as f64,
        counts.rounds as f64,
        ratio(counts.bits as f64 / 8.0, run.n as f64),
        1.0 - ratio(run.failed as f64, run.attempted as f64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, finite(value), unit))
        .collect()
}

/// Share of the timed answers' wall time the hypervisor stole.
fn steal_share(e2e: &EndToEnd) -> f64 {
    ratio(e2e.steal_total, e2e.answer_walls.iter().sum())
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Where spans and determinism records go: `out/` beside this package's
/// manifest.
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    // A failure to create it surfaces when a file is written.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The exact counts of an answer must repeat across runs with one seed:
/// the first run of a build records them, later runs compare.
fn check_determinism(run: &mut Run) {
    let Some(c) = run.counts else {
        run.problem("no answer produced counts".into());
        return;
    };
    let record = format!(
        "rounds={} bits={} contacts={} dropped={} dirty_nodes={}\n",
        c.rounds, c.bits, c.contacts, c.dropped, c.dirty_nodes
    );
    let path = out_dir().join(format!(
        "counts-{}-seed{}-{:016x}.txt",
        run.workload,
        run.seed,
        build_id()
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != record => run.problem(format!(
            "counts differ from an earlier run with this seed: {} vs {}",
            earlier.trim(),
            record.trim()
        )),
        Ok(_) => {}
        Err(_) => {
            if let Err(e) = std::fs::write(&path, record) {
                run.problem(format!("writing {}: {e}", path.display()));
            }
        }
    }
}

/// FNV-1a hash of this executable, so a rebuilt program starts a fresh
/// determinism record.
fn build_id() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
