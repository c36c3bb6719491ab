//! Chaos sweep: approximate-quantile accuracy under the `gossip_net::fault`
//! combinators, plus a fixed-vs-adaptive round-schedule comparison.
//!
//! Two report sections, both written to `BENCH_robustness.json` in the
//! workspace root (override with `$BENCH_ROBUSTNESS_JSON`):
//!
//! 1. **Per-fault-kind accuracy curves** — for every fault kind (message
//!    loss, churn with rejoin, stragglers, the Section 5 failure model) and
//!    every intensity, the Theorem 1.4 robust algorithm (φ = 0.5, ε = 0.1)
//!    runs over seed-paired trials; each cell records the fraction of
//!    answered nodes within ε, the answered fraction, the rounds spent, and
//!    the fault counters the run absorbed. This is the empirical shape of
//!    the paper's claim that accuracy survives any per-round disturbance
//!    bounded by `μ < 1` — and of where each combinator actually bites
//!    (stragglers are inert for the pull-only robust algorithm; churn also
//!    silences nodes, so its curve bends first).
//!
//! 2. **Fixed vs adaptive schedules** — under a plan whose derivable union
//!    bound is pessimistic (loss + stragglers: the straggler mass never
//!    disturbs a pull), the fixed schedule pays `O(1/(1−μ))` at the assumed
//!    bound while the adaptive one re-evaluates the Lemma 5.2 budget at the
//!    *observed* `μ̂` each iteration. Both rows record rounds and accuracy:
//!    the acceptance shape is equal-or-better within-ε at a lower round
//!    budget (or better within-ε at an equal budget).
//!
//! Each cell is the median of 5 trials with sample standard deviations
//! (`std_*`). Set `ROBUSTNESS_QUICK=1` (CI's bench smoke step does) to
//! shrink the grid to a bit-rot check: intensities 0 and 0.3, μ = 0.3 and 2
//! trials, still at n = 20 000, so each quick row is one of the committed
//! rows and `bench_smoke` compares its deterministic `rounds`:
//!
//! ```text
//! cargo bench -p bench --bench chaos_robustness
//! ```

use analysis::{run_trials, RankOracle, TrialSpec, Workload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_net::{ChurnModel, EngineConfig, FailureModel, FaultPlan, LossModel, StragglerModel};
use quantile_gossip::robust::{robust_approximate_quantile, RobustConfig};

const PHI: f64 = 0.5;
const EPS: f64 = 0.1;

fn quick() -> bool {
    std::env::var_os("ROBUSTNESS_QUICK").is_some_and(|v| v != "0")
}

const FAULT_KINDS: [&str; 4] = ["loss", "churn", "stragglers", "failure"];

/// A single-combinator plan at the given intensity. Churn rejoins after two
/// rounds so the population stays bounded away from extinction; stragglers
/// spread arrivals over up to three rounds.
fn plan_for(kind: &str, p: f64) -> FaultPlan {
    if p == 0.0 {
        return FaultPlan::none();
    }
    match kind {
        "loss" => FaultPlan::none().with_loss(LossModel::uniform(p).expect("p < 1")),
        "churn" => FaultPlan::none().with_churn(ChurnModel::with_rejoin(p, 2).expect("p < 1")),
        "stragglers" => {
            FaultPlan::none().with_stragglers(StragglerModel::uniform(p, 3).expect("p < 1"))
        }
        "failure" => FaultPlan::none().with_failure(FailureModel::uniform(p).expect("p < 1")),
        other => unreachable!("unknown fault kind {other}"),
    }
}

/// What one robust run under one plan measured.
struct TrialResult {
    rounds: f64,
    within_eps: f64,
    answered: f64,
    estimated_mu: f64,
    crashed: f64,
    dropped: f64,
    delayed: f64,
}

fn run_trial(n: usize, seed: u64, plan: FaultPlan, config: &RobustConfig) -> TrialResult {
    let values = Workload::UniformDistinct.generate(n, seed);
    let oracle = RankOracle::new(&values);
    let target = (PHI * n as f64).ceil();
    let engine_config = EngineConfig::with_seed(seed).fault(plan);
    let out = robust_approximate_quantile(&values, PHI, EPS, config, engine_config)
        .expect("valid parameters");
    let answered: Vec<&_> = out.outputs.iter().flatten().collect();
    let within = answered
        .iter()
        .filter(|o| (oracle.rank(o) as f64 - target).abs() / n as f64 <= EPS)
        .count();
    let within_eps = if answered.is_empty() {
        0.0
    } else {
        within as f64 / answered.len() as f64
    };
    TrialResult {
        rounds: out.rounds as f64,
        within_eps,
        answered: out.answered_fraction,
        estimated_mu: out.estimated_mu,
        crashed: out.metrics.crashed_operations as f64,
        dropped: out.metrics.messages_dropped as f64,
        delayed: out.metrics.messages_delayed as f64,
    }
}

fn bench_chaos_robustness(c: &mut Criterion) {
    let quick = quick();
    let n = 20_000;
    let trials = if quick { 2 } else { 5 };
    let intensities: &[f64] = if quick {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.4]
    };

    // Criterion timing row: the cost of one full robust run under the
    // μ = 0.3 loss plan, tracked like the other benches.
    let mut group = c.benchmark_group("chaos_robustness");
    group.sample_size(if quick { 2 } else { 5 });
    group.bench_with_input(BenchmarkId::new("robust", "loss-0.3"), &n, |b, &n| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_trial(n, seed, plan_for("loss", 0.3), &RobustConfig::default()).within_eps
        });
    });
    group.finish();

    let stat = |results: &[TrialResult], f: &dyn Fn(&TrialResult) -> f64| {
        let samples: Vec<f64> = results.iter().map(f).collect();
        criterion::stats::summary(&samples).expect("at least one trial")
    };

    // Section 1: accuracy vs intensity, one curve per fault kind.
    let mut report_rows = Vec::new();
    for kind in FAULT_KINDS {
        for &p in intensities {
            let spec = TrialSpec::new(42, trials);
            let results = run_trials(&spec, |_i, seed| {
                run_trial(n, seed, plan_for(kind, p), &RobustConfig::default())
            });
            let rounds = stat(&results, &|r| r.rounds);
            let within = stat(&results, &|r| r.within_eps);
            let answered = stat(&results, &|r| r.answered);
            let crashed = stat(&results, &|r| r.crashed);
            let dropped = stat(&results, &|r| r.dropped);
            let delayed = stat(&results, &|r| r.delayed);
            println!(
                "chaos_robustness {kind} p={p} n={n}: within_eps={:.3}±{:.3} \
                 answered={:.3} rounds={:.0}",
                within.median, within.std_dev, answered.median, rounds.median
            );
            report_rows.push(format!(
                "    {{\"section\": \"sweep\", \"fault\": \"{kind}\", \"intensity\": {p}, \
                 \"n\": {n}, \"phi\": {PHI}, \"epsilon\": {EPS}, \"trials\": {trials}, \
                 \"within_eps\": {:.5}, \"std_within_eps\": {:.5}, \
                 \"answered\": {:.5}, \"std_answered\": {:.5}, \
                 \"rounds\": {:.1}, \"std_rounds\": {:.3}, \
                 \"crashed\": {:.1}, \"dropped\": {:.1}, \"delayed\": {:.1}}}",
                within.median,
                within.std_dev,
                answered.median,
                answered.std_dev,
                rounds.median,
                rounds.std_dev,
                crashed.median,
                dropped.median,
                delayed.median
            ));
        }
    }

    // Section 2: fixed vs adaptive at μ ≥ 0.3. The plan mixes loss (which
    // disturbs pulls) with stragglers (which never do): the derivable union
    // bound is ~0.3 above the truth, so the fixed schedule over-provisions
    // its pull budget while the adaptive one converges to the observed μ̂.
    let comparisons: &[f64] = if quick { &[0.3] } else { &[0.3, 0.4] };
    for &mu in comparisons {
        let plan = || {
            FaultPlan::none()
                .with_loss(LossModel::uniform(mu).expect("p < 1"))
                .with_stragglers(StragglerModel::uniform(0.3, 3).expect("p < 1"))
        };
        for (mode, config) in [
            ("fixed", RobustConfig::default()),
            (
                "adaptive",
                RobustConfig {
                    adaptive: true,
                    ..RobustConfig::default()
                },
            ),
        ] {
            let spec = TrialSpec::new(97, trials);
            let results = run_trials(&spec, |_i, seed| run_trial(n, seed, plan(), &config));
            let rounds = stat(&results, &|r| r.rounds);
            let within = stat(&results, &|r| r.within_eps);
            let answered = stat(&results, &|r| r.answered);
            let mu_hat = stat(&results, &|r| r.estimated_mu);
            println!(
                "chaos_robustness schedule={mode} mu={mu} n={n}: rounds={:.0}±{:.1} \
                 within_eps={:.3} estimated_mu={:.3}",
                rounds.median, rounds.std_dev, within.median, mu_hat.median
            );
            report_rows.push(format!(
                "    {{\"section\": \"schedule\", \"mode\": \"{mode}\", \"mu\": {mu}, \
                 \"n\": {n}, \"phi\": {PHI}, \"epsilon\": {EPS}, \"trials\": {trials}, \
                 \"within_eps\": {:.5}, \"std_within_eps\": {:.5}, \
                 \"answered\": {:.5}, \"std_answered\": {:.5}, \
                 \"rounds\": {:.1}, \"std_rounds\": {:.3}, \
                 \"estimated_mu\": {:.5}}}",
                within.median,
                within.std_dev,
                answered.median,
                answered.std_dev,
                rounds.median,
                rounds.std_dev,
                mu_hat.median
            ));
        }
    }

    // Anchor the report in the workspace root (cargo runs benches with the
    // package directory as CWD), like BENCH_topology.json.
    let path = std::env::var("BENCH_ROBUSTNESS_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_robustness.json").into()
    });
    let json = format!(
        "{{\n  \"bench\": \"chaos_robustness\",\n  \"algorithm\": \
         \"robust_approximate_quantile(phi=0.5, eps=0.1), Theorem 1.4\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        report_rows.join(",\n")
    );
    if let Err(err) = std::fs::write(&path, &json) {
        eprintln!("could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_chaos_robustness);
criterion_main!(benches);
