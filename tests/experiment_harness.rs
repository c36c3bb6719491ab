//! Smoke tests for the reproduction harness: every experiment driver runs at
//! quick scale and produces a non-empty table. (The full-scale numbers come
//! from the `reproduce` binary; see "Measurement" in `docs/paper-map.md`.)

// The `bench` crate is not a dependency of the facade crate (it is a binary
// harness), so these tests exercise the same code paths through the public
// APIs the drivers use.

use gossip_quantiles::baseline::{push_sum, PushSumConfig};
use gossip_quantiles::bound;
use gossip_quantiles::measure::{run_trials, Summary, Table, TrialSpec, Workload};
use gossip_quantiles::{approximate_quantile, ApproxConfig, EngineConfig};

#[test]
fn trial_runner_reproduces_identical_results_for_identical_seeds() {
    let spec = TrialSpec {
        master_seed: 5,
        trials: 6,
        threads: 3,
    };
    let run = |spec: &TrialSpec| {
        run_trials(spec, |_, seed| {
            let values = Workload::UniformDistinct.generate(2_000, seed);
            approximate_quantile(
                &values,
                0.5,
                0.1,
                &ApproxConfig::default(),
                EngineConfig::with_seed(seed),
            )
            .unwrap()
            .rounds
        })
    };
    assert_eq!(run(&spec), run(&spec));
}

#[test]
fn lower_bound_rounds_grow_with_one_over_epsilon_and_n() {
    let small = bound::spreading_rounds(1 << 10, 0.05, 1).unwrap();
    let fine = bound::spreading_rounds(1 << 10, 0.005, 1).unwrap();
    assert!(fine.rounds_to_all_informed >= small.rounds_to_all_informed);
    let big = bound::spreading_rounds(1 << 16, 0.05, 1).unwrap();
    assert!(big.theorem_barrier > small.theorem_barrier);
}

#[test]
fn push_sum_counting_summary_is_tight_enough_for_tables() {
    let indicators: Vec<bool> = (0..3_000).map(|i| i % 4 == 0).collect();
    let truth = 750.0;
    let spec = TrialSpec {
        master_seed: 3,
        trials: 4,
        threads: 2,
    };
    let errors = run_trials(&spec, |_, seed| {
        push_sum::count_matching(
            &indicators,
            &PushSumConfig::default(),
            EngineConfig::with_seed(seed),
        )
        .unwrap()
        .max_absolute_error(truth)
    });
    let summary = Summary::of(&errors);
    assert!(summary.max < 0.5, "push-sum counting too loose: {summary}");
}

#[test]
fn tables_render_for_report_assembly() {
    let mut table = Table::new("smoke", &["n", "rounds"]);
    let spec = TrialSpec {
        master_seed: 11,
        trials: 3,
        threads: 3,
    };
    for n in [1usize << 10, 1 << 12] {
        let rounds = run_trials(&spec, |_, seed| {
            let values = Workload::UniformDistinct.generate(n, seed);
            approximate_quantile(
                &values,
                0.9,
                0.1,
                &ApproxConfig::default(),
                EngineConfig::with_seed(seed),
            )
            .unwrap()
            .rounds
        });
        table.add_row(&[
            n.to_string(),
            format!("{:.1}", Summary::of_u64(&rounds).mean),
        ]);
    }
    let rendered = table.render();
    assert!(rendered.contains("1024"));
    assert!(rendered.contains("4096"));
    assert_eq!(table.len(), 2);
}
