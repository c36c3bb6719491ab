//! Cross-crate integration tests: the full algorithms, graded by the analysis
//! oracle, on realistic workloads. Sizes are kept moderate so the suite runs
//! in debug mode; the benches and the `reproduce` binary exercise larger n.

use gossip_quantiles::measure::{RankOracle, Workload};
use gossip_quantiles::quantile::MethodUsed;
use gossip_quantiles::{
    approximate_quantile, exact_quantile, ApproxConfig, EngineConfig, FailureModel, FaultPlan,
    NarrowingConfig,
};

#[test]
fn approximate_quantile_is_accurate_on_every_workload() {
    let n = 20_000;
    let phi = 0.75;
    let eps = 0.06;
    for (i, workload) in Workload::all().into_iter().enumerate() {
        let values = workload.generate(n, 100 + i as u64);
        let oracle = RankOracle::new(&values);
        let out = approximate_quantile(
            &values,
            phi,
            eps,
            &ApproxConfig::default(),
            EngineConfig::with_seed(i as u64),
        )
        .expect("approximate quantile");
        assert_eq!(out.outputs.len(), n);
        let worst = oracle.worst_error(&out.outputs, phi);
        assert!(
            worst <= eps + 0.01,
            "workload {}: worst error {worst}",
            workload.name()
        );
        // Outputs are always actual input values.
        let set: std::collections::HashSet<u64> = values.iter().copied().collect();
        assert!(out.outputs.iter().all(|o| set.contains(o)));
    }
}

#[test]
fn exact_quantile_matches_centralised_sort_on_ties_and_heavy_tails() {
    for (workload, seed) in [(Workload::HeavyTies, 1u64), (Workload::HeavyTail, 2)] {
        let values = workload.generate(4_000, seed);
        let oracle = RankOracle::new(&values);
        for phi in [0.25, 0.5, 0.99] {
            let out = exact_quantile(
                &values,
                phi,
                &NarrowingConfig::default(),
                EngineConfig::with_seed(seed ^ phi.to_bits()),
            )
            .expect("exact quantile");
            assert_eq!(
                out.answer,
                oracle.quantile(phi),
                "workload {} phi {phi}",
                workload.name()
            );
            // Largest message of the whole pipeline: a pair of (value, tag)
            // bracket keys, i.e. a small constant number of words — O(log n).
            assert!(
                out.metrics.max_message_bits <= 512,
                "O(log n) message bound violated"
            );
        }
    }
}

#[test]
fn exact_is_faster_than_kdg_baseline_in_rounds() {
    // Round counts of both algorithms vary noticeably with the seed, so a
    // single run can land either way; the E1 "shape" — the paper's algorithm
    // needs fewer rounds than the O(log^2 n) baseline already at laptop
    // scale — is about the mean, which a handful of seeds pins down.
    let values = Workload::UniformDistinct.generate(8_192, 3);
    let mut ours_total = 0u64;
    let mut kdg_total = 0u64;
    for seed in [4u64, 104, 204] {
        let ours = exact_quantile(
            &values,
            0.5,
            &NarrowingConfig::default(),
            EngineConfig::with_seed(seed),
        )
        .expect("ours");
        let kdg = gossip_quantiles::baseline::kdg_selection::exact_quantile(
            &values,
            0.5,
            &gossip_quantiles::baseline::KdgSelectionConfig::default(),
            EngineConfig::with_seed(seed ^ 1),
        )
        .expect("kdg");
        assert_eq!(ours.answer, kdg.answer);
        ours_total += ours.rounds;
        kdg_total += kdg.rounds;
    }
    assert!(
        ours_total < kdg_total,
        "ours {} total rounds vs kdg {} total rounds over 3 seeds",
        ours_total,
        kdg_total
    );
}

#[test]
fn tiny_epsilon_falls_back_to_narrowing_and_stays_exactish() {
    let values = Workload::UniformDistinct.generate(4_096, 9);
    let oracle = RankOracle::new(&values);
    let eps = 0.002; // far below the tournament threshold at this n
    let out = approximate_quantile(
        &values,
        0.3,
        eps,
        &ApproxConfig::default(),
        EngineConfig::with_seed(10),
    )
    .expect("approximate");
    assert!(matches!(out.method, MethodUsed::Narrowing { .. }));
    for o in &out.outputs {
        assert!(oracle.within_epsilon(o, 0.3, eps + 1.0 / 4096.0));
    }
}

#[test]
fn approximate_quantile_under_failures_still_within_epsilon() {
    let values = Workload::UniformDistinct.generate(20_000, 21);
    let oracle = RankOracle::new(&values);
    let eps = 0.08;
    // The plain (non-robust) algorithm under a mild failure rate: accuracy
    // degrades gracefully because failed pulls fall back to fewer samples.
    let engine = EngineConfig::with_seed(22)
        .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.1).unwrap()));
    let out = approximate_quantile(&values, 0.5, eps, &ApproxConfig::default(), engine)
        .expect("approximate");
    let worst = oracle.worst_error(&out.outputs, 0.5);
    assert!(worst <= 2.0 * eps, "worst error {worst}");
}

#[test]
fn exact_quantile_under_failures_is_still_exact() {
    let values = Workload::UniformDistinct.generate(3_000, 33);
    let oracle = RankOracle::new(&values);
    let engine = EngineConfig::with_seed(34)
        .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.2).unwrap()));
    let out = exact_quantile(&values, 0.5, &NarrowingConfig::default(), engine).expect("exact");
    assert_eq!(out.answer, oracle.quantile(0.5));
    assert!(out.metrics.failed_operations > 0);
}
