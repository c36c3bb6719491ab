//! Baselines off the complete graph: the topology configured on the
//! [`EngineConfig`] flows through every baseline unchanged, and the classic
//! complete-graph bounds stop holding exactly where mixing slows down.
//! (Everything is seed-deterministic, so these are replay checks.)

use baselines::rumor::{spread_max_tagged, spread_min_max, spread_rumor, SpreadRounds};
use baselines::{
    compactor, doubling, kdg_selection, median_rule, push_sum, sampling, CompactorConfig,
    DoublingConfig, KdgSelectionConfig, MedianRuleConfig, PushSumConfig, SamplingConfig,
};
use gossip_net::{EngineConfig, GossipError, Topology};

#[test]
fn rumor_spreading_completes_on_an_expander_in_logarithmic_rounds() {
    let n = 2_048usize;
    let values: Vec<u64> = (0..n as u64).collect();
    // The default 4·log2 n budget, proved for the complete graph, still
    // suffices on a bounded-degree random regular graph.
    let config = EngineConfig::with_seed(3).topology(Topology::random_regular(8, 5));
    let out = spread_min_max(&values, SpreadRounds::default(), config).unwrap();
    assert!(
        out.complete,
        "expander spread incomplete after {} rounds",
        out.rounds
    );
    assert_eq!(out.coverage(0, (n - 1) as u64), 1.0);
}

#[test]
fn rumor_spreading_on_a_thin_ring_misses_the_logarithmic_budget() {
    let n = 2_048usize;
    let values: Vec<u64> = (0..n as u64).collect();
    // On a k=1 ring the extrema move O(1) hops per round; the 4·log2 n ≈ 44
    // round budget cannot cover the Θ(n) diameter.
    let config = EngineConfig::with_seed(3).topology(Topology::ring(1));
    let out = spread_min_max(&values, SpreadRounds::default(), config).unwrap();
    assert!(
        !out.complete,
        "ring spread unexpectedly completed in {} rounds",
        out.rounds
    );
    assert!(out.coverage(0, (n - 1) as u64) < 0.5);
}

/// A ring too wide for the network (60 neighbours a side need 121 nodes, and
/// there are 101) is the topology's error at every entry point that builds
/// an engine, never a panic.
#[test]
fn an_unrealisable_topology_is_an_error_at_every_entry_point() {
    let n = 101;
    let values: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 101).collect();
    let reals: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let tagged: Vec<(u64, u64)> = values.iter().map(|&v| (v, v)).collect();
    let config = EngineConfig::with_seed(5).topology(Topology::ring(60));
    let (phi, eps, rounds) = (0.5, 0.1, SpreadRounds::default());
    let push_sum_config = PushSumConfig::default();
    let errors = [
        (
            "median_rule::run",
            median_rule::run(&values, &MedianRuleConfig::default(), config.clone()).err(),
        ),
        (
            "push_sum::average",
            push_sum::average(&reals, &push_sum_config, config.clone()).err(),
        ),
        (
            "push_sum::sum",
            push_sum::sum(&reals, &push_sum_config, config.clone()).err(),
        ),
        (
            "push_sum::count_matching",
            push_sum::count_matching(&vec![true; n], &push_sum_config, config.clone()).err(),
        ),
        (
            "spread_min_max",
            spread_min_max(&values, rounds, config.clone()).err(),
        ),
        (
            "spread_rumor",
            spread_rumor(n, &[0], rounds, config.clone()).err(),
        ),
        (
            "spread_max_tagged",
            spread_max_tagged(&tagged, rounds, config.clone()).err(),
        ),
        (
            "doubling::approximate_quantile",
            doubling::approximate_quantile(
                &values,
                phi,
                &DoublingConfig::new(eps).unwrap(),
                config.clone(),
            )
            .err(),
        ),
        (
            "compactor::approximate_quantile",
            compactor::approximate_quantile(
                &values,
                phi,
                &CompactorConfig::new(eps).unwrap(),
                config.clone(),
            )
            .err(),
        ),
        (
            "sampling::approximate_quantile",
            sampling::approximate_quantile(
                &values,
                phi,
                &SamplingConfig::new(eps).unwrap(),
                config.clone(),
            )
            .err(),
        ),
        (
            "kdg_selection::exact_quantile",
            kdg_selection::exact_quantile(&values, phi, &KdgSelectionConfig::default(), config)
                .err(),
        ),
    ];
    for (name, error) in errors {
        assert!(
            matches!(error, Some(GossipError::InvalidParameter { name: "k", .. })),
            "{name}: {error:?}"
        );
    }
}
