//! Experiment drivers E1–E10: each one's docs name the claim of the paper it
//! checks, and the `reproduce` binary prints their tables (see
//! "Measurement" in `docs/paper-map.md`).

use analysis::{run_trials, RankOracle, Summary, Table, TrialSpec, Workload};
use baselines::{
    compactor, doubling, kdg_selection, median_rule, push_sum, sampling, KdgSelectionConfig,
    MedianRuleConfig, PushSumConfig,
};
use gossip_net::{EngineConfig, FailureModel, FaultPlan};
use quantile_gossip::{
    approx, exact, own_rank, robust, NarrowingConfig, OwnRankConfig, RobustConfig, TournamentConfig,
};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes and few trials — used by CI-style runs and the benches.
    Quick,
    /// The full sizes the `reproduce` binary runs without `--quick`.
    Full,
}

impl Scale {
    fn trials(&self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 8,
        }
    }
}

fn cfg(seed: u64) -> EngineConfig {
    EngineConfig::with_seed(seed)
}

fn fmt(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// E1 — Theorem 1.1: exact quantile rounds, ours vs the KDG03 baseline.
pub fn e1_exact_vs_kdg(scale: Scale, master_seed: u64) -> Table {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[1 << 10, 1 << 12, 1 << 14],
        Scale::Full => &[1 << 12, 1 << 14, 1 << 16, 1 << 18],
    };
    let mut table = Table::new(
        "E1  Exact phi-quantile: rounds vs n (ours, Theorem 1.1) vs KDG03 O(log^2 n)",
        &[
            "n",
            "phi",
            "ours rounds (mean)",
            "KDG03 rounds (mean)",
            "speedup",
            "both exact",
        ],
    );
    for &n in sizes {
        for &phi in &[0.5f64, 0.9] {
            let spec = TrialSpec::new(master_seed ^ (n as u64) ^ phi.to_bits(), scale.trials());
            let rows = run_trials(&spec, |_, seed| {
                let values = Workload::UniformDistinct.generate(n, seed);
                let oracle = RankOracle::new(&values);
                let truth = oracle.quantile(phi);
                let ours =
                    exact::exact_quantile(&values, phi, &NarrowingConfig::default(), cfg(seed ^ 1))
                        .expect("exact");
                let kdg = kdg_selection::exact_quantile(
                    &values,
                    phi,
                    &KdgSelectionConfig::default(),
                    cfg(seed ^ 2),
                )
                .expect("kdg");
                (
                    ours.rounds,
                    kdg.rounds,
                    ours.answer == truth && kdg.answer == truth,
                )
            });
            let ours = Summary::of_u64(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
            let kdg = Summary::of_u64(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
            let all_exact = rows.iter().all(|r| r.2);
            table.add_row(&[
                n.to_string(),
                format!("{phi}"),
                fmt(ours.mean),
                fmt(kdg.mean),
                format!("{:.2}x", kdg.mean / ours.mean),
                if all_exact { "yes".into() } else { "NO".into() },
            ]);
        }
    }
    table
}

/// E2 — Theorem 1.2/2.1: approximate quantile rounds vs ε at fixed n.
pub fn e2_approx_rounds_vs_eps(scale: Scale, master_seed: u64) -> Table {
    let n = match scale {
        Scale::Quick => 1 << 14,
        Scale::Full => 1 << 17,
    };
    let epsilons: &[f64] = &[0.5, 0.25, 0.125, 0.0625, 0.03125];
    let mut table = Table::new(
        format!("E2  Approximate phi-quantile (tournament): rounds vs epsilon at n = {n}"),
        &[
            "epsilon",
            "phi",
            "rounds (mean)",
            "naive sampling rounds",
            "worst |rank err|/n",
            "within eps",
        ],
    );
    for &eps in epsilons {
        for &phi in &[0.25f64, 0.5] {
            if eps < quantile_gossip::tournament_min_epsilon(n) {
                continue;
            }
            let spec = TrialSpec::new(master_seed ^ eps.to_bits() ^ phi.to_bits(), scale.trials());
            let rows = run_trials(&spec, |_, seed| {
                let values = Workload::UniformDistinct.generate(n, seed);
                let oracle = RankOracle::new(&values);
                let out = approx::tournament_quantile(
                    &values,
                    phi,
                    eps,
                    &TournamentConfig::default(),
                    cfg(seed),
                )
                .expect("approx");
                let worst = oracle.worst_error(&out.outputs, phi);
                let ok = out
                    .outputs
                    .iter()
                    .all(|o| oracle.within_epsilon(o, phi, eps + 0.005));
                (out.rounds, worst, ok)
            });
            let rounds = Summary::of_u64(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
            let worst = rows.iter().map(|r| r.1).fold(0.0, f64::max);
            let ok = rows.iter().all(|r| r.2);
            let naive = sampling::SamplingConfig::new(eps.min(0.99))
                .unwrap()
                .samples_for(n);
            table.add_row(&[
                format!("{eps}"),
                format!("{phi}"),
                fmt(rounds.mean),
                naive.to_string(),
                format!("{worst:.4}"),
                if ok { "yes".into() } else { "NO".into() },
            ]);
        }
    }
    table
}

/// E3 — round growth in n for fixed ε (doubly logarithmic).
pub fn e3_approx_rounds_vs_n(scale: Scale, master_seed: u64) -> Table {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[1 << 12, 1 << 14, 1 << 16],
        Scale::Full => &[1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20],
    };
    let eps = 0.05;
    let mut table = Table::new(
        format!("E3  Approximate median (tournament): rounds vs n at epsilon = {eps}"),
        &[
            "n",
            "rounds (mean)",
            "log2(n)",
            "log2 log2(n) + log2(1/eps)",
            "within eps",
        ],
    );
    for &n in sizes {
        let spec = TrialSpec::new(master_seed ^ n as u64, scale.trials());
        let rows = run_trials(&spec, |_, seed| {
            let values = Workload::UniformDistinct.generate(n, seed);
            let oracle = RankOracle::new(&values);
            let out = approx::tournament_quantile(
                &values,
                0.5,
                eps,
                &TournamentConfig::default(),
                cfg(seed),
            )
            .expect("approx");
            let ok = out
                .outputs
                .iter()
                .all(|o| oracle.within_epsilon(o, 0.5, eps + 0.005));
            (out.rounds, ok)
        });
        let rounds = Summary::of_u64(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let lg = (n as f64).log2();
        table.add_row(&[
            n.to_string(),
            fmt(rounds.mean),
            fmt(lg),
            fmt(lg.log2() + (1.0 / eps).log2()),
            if rows.iter().all(|r| r.1) {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    table
}

/// E4 — correctness across workloads.
pub fn e4_accuracy_across_workloads(scale: Scale, master_seed: u64) -> Table {
    let n = match scale {
        Scale::Quick => 1 << 13,
        Scale::Full => 1 << 16,
    };
    let eps = 0.05;
    let phi = 0.9;
    let mut table = Table::new(
        format!("E4  Accuracy across workloads (n = {n}, phi = {phi}, eps = {eps})"),
        &[
            "workload",
            "trials",
            "worst |rank err|/n",
            "all nodes within eps",
        ],
    );
    for w in Workload::all() {
        let spec = TrialSpec::new(master_seed ^ w.name().len() as u64, scale.trials());
        let rows = run_trials(&spec, |i, seed| {
            let values = w.generate(n, seed ^ i as u64);
            let oracle = RankOracle::new(&values);
            let out = approx::tournament_quantile(
                &values,
                phi,
                eps,
                &TournamentConfig::default(),
                cfg(seed),
            )
            .expect("approx");
            let worst = oracle.worst_error(&out.outputs, phi);
            let ok = out
                .outputs
                .iter()
                .all(|o| oracle.within_epsilon(o, phi, eps + 0.005));
            (worst, ok)
        });
        let worst = rows.iter().map(|r| r.0).fold(0.0, f64::max);
        table.add_row(&[
            w.name().to_string(),
            rows.len().to_string(),
            format!("{worst:.4}"),
            if rows.iter().all(|r| r.1) {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    table
}

/// E5 — Theorem 1.4: robustness under per-round failure probability μ.
pub fn e5_robust_failures(scale: Scale, master_seed: u64) -> Table {
    let n = match scale {
        Scale::Quick => 1 << 13,
        Scale::Full => 1 << 15,
    };
    let eps = 0.08;
    let mus: &[f64] = &[0.0, 0.2, 0.4, 0.6, 0.8];
    let mut table = Table::new(
        format!("E5  Robust approximate quantile under failures (n = {n}, phi = 0.5, eps = {eps})"),
        &[
            "mu",
            "pulls/iter",
            "rounds (mean)",
            "answered frac",
            "good frac",
            "answers within eps",
        ],
    );
    for &mu in mus {
        let spec = TrialSpec::new(master_seed ^ mu.to_bits(), scale.trials());
        let rows = run_trials(&spec, |_, seed| {
            let values = Workload::UniformDistinct.generate(n, seed);
            let oracle = RankOracle::new(&values);
            let engine_config = EngineConfig::with_seed(seed)
                .fault(FaultPlan::none().with_failure(FailureModel::uniform(mu).expect("mu")));
            let out = robust::robust_approximate_quantile(
                &values,
                0.5,
                eps,
                &RobustConfig::default(),
                engine_config,
            )
            .expect("robust");
            let ok = out
                .outputs
                .iter()
                .flatten()
                .all(|o| oracle.within_epsilon(o, 0.5, eps + 0.02));
            (out.rounds, out.answered_fraction, out.good_fraction, ok)
        });
        let rounds = Summary::of_u64(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let answered = Summary::of(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        let good = Summary::of(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
        table.add_row(&[
            format!("{mu}"),
            RobustConfig::default().pulls_for(mu).to_string(),
            fmt(rounds.mean),
            format!("{:.4}", answered.mean),
            format!("{:.3}", good.mean),
            if rows.iter().all(|r| r.3) {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    table
}

/// E6 — Theorem 1.3: the information-spreading lower bound.
pub fn e6_lower_bound(scale: Scale, master_seed: u64) -> Table {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[1 << 12, 1 << 16],
        Scale::Full => &[1 << 12, 1 << 16, 1 << 20],
    };
    let epsilons: &[f64] = &[0.06, 0.01, 0.002];
    let mut table = Table::new(
        "E6  Lower bound (Theorem 1.3): idealised spreading rounds vs the barrier",
        &[
            "n",
            "epsilon",
            "informed start",
            "rounds to all informed",
            "barrier 0.5*lglg n + log4(8/eps)",
        ],
    );
    for &n in sizes {
        for &eps in epsilons {
            let spec = TrialSpec::new(master_seed ^ n as u64 ^ eps.to_bits(), scale.trials());
            let rows = run_trials(&spec, |_, seed| {
                lower_bound::spreading_rounds(n, eps, seed).expect("spreading")
            });
            let rounds = Summary::of_u64(
                &rows
                    .iter()
                    .map(|r| r.rounds_to_all_informed)
                    .collect::<Vec<_>>(),
            );
            table.add_row(&[
                n.to_string(),
                format!("{eps}"),
                rows[0].initially_informed.to_string(),
                fmt(rounds.mean),
                fmt(rows[0].theorem_barrier),
            ]);
        }
    }
    table
}

/// E7 — Corollary 1.5: every node estimates its own quantile.
pub fn e7_own_rank(scale: Scale, master_seed: u64) -> Table {
    let n = match scale {
        Scale::Quick => 1 << 15,
        Scale::Full => 1 << 17,
    };
    let epsilons: &[f64] = &[0.25, 0.125];
    let mut table = Table::new(
        format!("E7  Own-quantile estimation at every node (n = {n})"),
        &[
            "epsilon",
            "thresholds",
            "rounds",
            "worst |quantile err|",
            "mean |quantile err|",
        ],
    );
    for &eps in epsilons {
        let spec = TrialSpec::new(master_seed ^ eps.to_bits(), scale.trials());
        let rows = run_trials(&spec, |_, seed| {
            let values = Workload::UniformDistinct.generate(n, seed);
            let oracle = RankOracle::new(&values);
            let out = own_rank::estimate_own_quantiles(
                &values,
                eps,
                &OwnRankConfig::default(),
                cfg(seed),
            )
            .expect("own rank");
            let errs: Vec<f64> = out
                .quantiles
                .iter()
                .enumerate()
                .map(|(v, &q)| (q - oracle.quantile_of(&values[v])).abs())
                .collect();
            let worst = errs.iter().copied().fold(0.0, f64::max);
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            (out.rounds, out.thresholds, worst, mean)
        });
        let rounds = Summary::of_u64(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let worst = rows.iter().map(|r| r.2).fold(0.0, f64::max);
        let mean = Summary::of(&rows.iter().map(|r| r.3).collect::<Vec<_>>());
        table.add_row(&[
            format!("{eps}"),
            rows[0].1.to_string(),
            fmt(rounds.mean),
            format!("{worst:.3}"),
            format!("{:.3}", mean.mean),
        ]);
    }
    table
}

/// E8 — message-size trade-off: tournament vs doubling vs compaction.
pub fn e8_message_complexity(scale: Scale, master_seed: u64) -> Table {
    let n = match scale {
        Scale::Quick => 1 << 11,
        Scale::Full => 1 << 13,
    };
    let eps = 0.1;
    let phi = 0.5;
    let mut table = Table::new(
        format!("E8  Message size vs rounds (n = {n}, phi = {phi}, eps = {eps})"),
        &[
            "algorithm",
            "rounds",
            "max message bits",
            "mean message bits",
            "worst |rank err|/n",
        ],
    );
    let spec = TrialSpec::new(master_seed, 1.max(scale.trials() / 2));
    #[allow(clippy::type_complexity)]
    let rows: Vec<Vec<(String, u64, u64, f64, f64)>> = run_trials(&spec, |_, seed| {
        let values = Workload::UniformDistinct.generate(n, seed);
        let oracle = RankOracle::new(&values);
        let mut out = Vec::new();

        let t =
            approx::tournament_quantile(&values, phi, eps, &TournamentConfig::default(), cfg(seed))
                .expect("tournament");
        out.push((
            "tournament (Thm 2.1)".to_string(),
            t.rounds,
            t.metrics.max_message_bits,
            t.metrics.mean_message_bits(),
            oracle.worst_error(&t.outputs, phi),
        ));

        let s = sampling::approximate_quantile(
            &values,
            phi,
            &sampling::SamplingConfig::new(eps).unwrap(),
            cfg(seed ^ 1),
        )
        .expect("sampling");
        out.push((
            "naive sampling".to_string(),
            s.rounds,
            s.metrics.max_message_bits,
            s.metrics.mean_message_bits(),
            oracle.worst_error(&s.estimates, phi),
        ));

        let d = doubling::approximate_quantile(
            &values,
            phi,
            &doubling::DoublingConfig::new(eps).unwrap(),
            cfg(seed ^ 2),
        )
        .expect("doubling");
        out.push((
            "doubling (App. A)".to_string(),
            d.rounds,
            d.metrics.max_message_bits,
            d.metrics.mean_message_bits(),
            oracle.worst_error(&d.estimates, phi),
        ));

        let c = compactor::approximate_quantile(
            &values,
            phi,
            &compactor::CompactorConfig::new(eps).unwrap(),
            cfg(seed ^ 3),
        )
        .expect("compactor");
        out.push((
            "compaction (App. A.1)".to_string(),
            c.rounds,
            c.metrics.max_message_bits,
            c.metrics.mean_message_bits(),
            oracle.worst_error(&c.estimates, phi),
        ));
        out
    });
    // Average across trials per algorithm.
    for alg in 0..rows[0].len() {
        let name = rows[0][alg].0.clone();
        let rounds = Summary::of_u64(&rows.iter().map(|r| r[alg].1).collect::<Vec<_>>());
        let maxbits = rows.iter().map(|r| r[alg].2).max().unwrap_or(0);
        let meanbits = Summary::of(&rows.iter().map(|r| r[alg].3).collect::<Vec<_>>());
        let worst = rows.iter().map(|r| r[alg].4).fold(0.0, f64::max);
        table.add_row(&[
            name,
            fmt(rounds.mean),
            maxbits.to_string(),
            fmt(meanbits.mean),
            format!("{worst:.4}"),
        ]);
    }
    table
}

/// E9 — the tournament dynamics themselves (Lemmas 2.6, 2.10, 2.16) plus the
/// Doerr et al. median rule for context.
pub fn e9_tournament_dynamics(scale: Scale, master_seed: u64) -> Table {
    let n = match scale {
        Scale::Quick => 1 << 14,
        Scale::Full => 1 << 17,
    };
    let eps = 0.05;
    let phi = 0.2;
    let mut table = Table::new(
        format!("E9  Tournament dynamics (n = {n}, phi = {phi}, eps = {eps})"),
        &["quantity", "paper prediction", "measured (mean)"],
    );
    let spec = TrialSpec::new(master_seed, scale.trials());
    let rows = run_trials(&spec, |_, seed| {
        let values: Vec<u64> = (0..n as u64).collect();
        let schedule = quantile_gossip::TwoTournamentSchedule::compute(phi, eps).expect("schedule");
        let out = quantile_gossip::two_tournament::run(&values, &schedule, cfg(seed)).expect("2t");
        let above = out
            .values
            .iter()
            .filter(|&&v| (v as f64 / n as f64) > phi + eps)
            .count() as f64
            / n as f64;
        let band = out
            .values
            .iter()
            .filter(|&&v| {
                let q = v as f64 / n as f64;
                (phi - eps..=phi + eps).contains(&q)
            })
            .count() as f64
            / n as f64;

        let s3 = quantile_gossip::ThreeTournamentSchedule::compute(eps, n).expect("schedule");
        let out3 = quantile_gossip::three_tournament::run(
            &values,
            &s3,
            quantile_gossip::FinalVote::default(),
            cfg(seed ^ 9),
        )
        .expect("3t");
        let outside = out3
            .converged_values
            .iter()
            .filter(|&&v| {
                let q = v as f64 / n as f64;
                !(0.5 - eps..=0.5 + eps).contains(&q)
            })
            .count() as f64
            / n as f64;

        let mr = median_rule::run(&values, &MedianRuleConfig::default(), cfg(seed ^ 17))
            .expect("median rule");
        (above, band, outside, mr.iterations)
    });
    let above = Summary::of(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
    let band = Summary::of(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
    let outside = Summary::of(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
    let mr_iters = Summary::of_u64(&rows.iter().map(|r| r.3).collect::<Vec<_>>());
    table.add_row(&[
        "|H_t|/n after 2-TOURNAMENT".into(),
        format!("{} ± {}", 0.5 - eps, eps / 2.0),
        format!("{:.4}", above.mean),
    ]);
    table.add_row(&[
        "|M_t|/n after 2-TOURNAMENT".into(),
        format!(">= {}", 1.75 * eps),
        format!("{:.4}", band.mean),
    ]);
    table.add_row(&[
        "mass outside median band after 3-TOURNAMENT".into(),
        format!("<= {:.5}", 4.0 * (n as f64).powf(-1.0 / 3.0)),
        format!("{:.5}", outside.mean),
    ]);
    table.add_row(&[
        "median-rule (DGM+11) iterations to consensus".into(),
        "O(log n)".into(),
        fmt(mr_iters.mean),
    ]);
    table
}

/// E10 — the push-sum primitive (KDG03) used by Algorithm 3 Step 5.
pub fn e10_push_sum(scale: Scale, master_seed: u64) -> Table {
    let n = match scale {
        Scale::Quick => 1 << 12,
        Scale::Full => 1 << 15,
    };
    let mut table = Table::new(
        format!("E10  Push-sum counting accuracy vs rounds (n = {n})"),
        &["rounds", "max |count error|", "exact after rounding"],
    );
    let truth_fraction = 3;
    for rounds in [10u64, 20, 40, 60] {
        let spec = TrialSpec::new(master_seed ^ rounds, scale.trials());
        let rows = run_trials(&spec, |_, seed| {
            let indicators: Vec<bool> = (0..n).map(|i| i % truth_fraction == 0).collect();
            let truth = indicators.iter().filter(|&&b| b).count() as f64;
            let out = push_sum::count_matching(
                &indicators,
                &PushSumConfig::fixed_rounds(rounds),
                cfg(seed),
            )
            .expect("push-sum");
            let err = out.max_absolute_error(truth);
            (err, err < 0.5)
        });
        let worst = rows.iter().map(|r| r.0).fold(0.0, f64::max);
        table.add_row(&[
            rounds.to_string(),
            format!("{worst:.3}"),
            if rows.iter().all(|r| r.1) {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    table
}

/// Runs one experiment by id; `None` if the id is unknown.
pub fn run_experiment(id: &str, scale: Scale, master_seed: u64) -> Option<Table> {
    let table = match id {
        "e1" => e1_exact_vs_kdg(scale, master_seed),
        "e2" => e2_approx_rounds_vs_eps(scale, master_seed),
        "e3" => e3_approx_rounds_vs_n(scale, master_seed),
        "e4" => e4_accuracy_across_workloads(scale, master_seed),
        "e5" => e5_robust_failures(scale, master_seed),
        "e6" => e6_lower_bound(scale, master_seed),
        "e7" => e7_own_rank(scale, master_seed),
        "e8" => e8_message_complexity(scale, master_seed),
        "e9" => e9_tournament_dynamics(scale, master_seed),
        "e10" => e10_push_sum(scale, master_seed),
        _ => return None,
    };
    Some(table)
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 10] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_resolves() {
        for id in ALL_EXPERIMENTS {
            // Just resolve the id; running them all at Quick scale is done by
            // the integration tests / the reproduce binary.
            assert!(ALL_EXPERIMENTS.contains(&id));
        }
        assert!(run_experiment("nope", Scale::Quick, 0).is_none());
    }

    #[test]
    fn quick_lower_bound_experiment_produces_rows() {
        let t = e6_lower_bound(Scale::Quick, 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn quick_push_sum_experiment_produces_rows() {
        let t = e10_push_sum(Scale::Quick, 1);
        assert_eq!(t.len(), 4);
    }
}
