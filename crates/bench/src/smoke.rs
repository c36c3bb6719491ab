//! Bench smoke comparison: flag quick-mode medians that drift outside the
//! noise band of the committed bench reports (`BENCH_engine.json`,
//! `BENCH_service.json`, `BENCH_robustness.json`).
//!
//! CI's bench smoke step snapshots the committed reports, re-runs the
//! benches in quick mode, and then calls [`compare`] (via the `bench_smoke`
//! binary) on each committed/fresh pair. Rows are matched by their
//! **identity keys** (`n`, `threads`, `kind`, `fault`, … — whichever are
//! present); within a matched pair a measurement `K` is compared when the
//! committed row carries a noise estimate for it, under either naming
//! convention:
//!
//! - the engine report's suffix style, `rounds_per_sec_1t` ↔ `std_1t`;
//! - the generic style used elsewhere, `within_eps` ↔ `std_within_eps`.
//!
//! The band is the committed median ± [`NOISE_SIGMAS`]·(committed std). A
//! handful of keys (`DETERMINISTIC_KEYS`) are *derived counts* — round
//! totals, amortisation ratios, per-round byte footprints — that are exact
//! functions of the seed; those are compared exactly, whether or not the
//! committed row carries a std for them, because any drift there is a
//! behavioural change, not noise. Wall-clock keys with neither a std pair
//! nor a determinism guarantee (`qps`, `speedup`, `epoch_secs`, …) are
//! skipped: with no committed noise estimate there is no honest band to test
//! against.
//!
//! A deterministic count that differs from its committed value is a
//! **failure**: the `bench_smoke` binary exits non-zero, and the committed
//! row may only change by re-running the bench that writes it. So is a
//! fresh report none of whose rows matches a committed row: it compared
//! nothing, so it cannot vouch for anything. A wall-clock
//! median outside its band is a **warning** — never a failure, because
//! quick mode trades stability for runtime and a CI container's noise floor
//! is unknowable — so a silent regression at least leaves a trace in the job
//! log at PR time.
//!
//! The parser is deliberately matched to [`crate::report_json`]'s fixed
//! row-per-line format rather than being a general JSON reader: one object
//! per line, `"key": value` pairs, flat scalars only.

use std::collections::BTreeMap;

/// Keys that identify a row within its section rather than measuring it.
/// Spans all three reports: engine rows (`n`/`threads`/`active_frac`/
/// `change`/`k`), service rows (`kind`/`q`/`dirty_fraction`) and
/// robustness rows (in-row `section` plus `fault`/`intensity` for the sweep,
/// `mode`/`mu` for the schedule comparison).
const IDENTITY_KEYS: &[&str] = &[
    "n",
    "threads",
    "active_frac",
    "change",
    "k",
    "kind",
    "q",
    "dirty_fraction",
    "section",
    "fault",
    "intensity",
    "mode",
    "mu",
];

/// Measurements that are deterministic functions of the seed (round counts
/// and quantities derived from them). Always compared exactly — drift here
/// means the algorithm's trajectory changed, not that the machine was
/// noisy.
const DETERMINISTIC_KEYS: &[&str] = &[
    "rounds",
    "seq_rounds",
    "solo_rounds_total",
    "dirty_nodes",
    "amortisation",
    "bytes_per_node_round",
];

/// How many committed standard deviations of drift count as noise.
pub const NOISE_SIGMAS: f64 = 3.0;

/// One parsed report row: the section it came from, its identity-key values
/// (in key order), and its numeric fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Section name (`results`, `layout`, …).
    pub section: String,
    /// Identity, e.g. `n=1000000 threads=4`.
    pub identity: String,
    /// All numeric fields of the row, by key.
    pub values: BTreeMap<String, f64>,
}

/// Parses the fixed `report_json` format into rows, tolerating unknown
/// sections. Header keys (`"bench"`, `"primitive"`) and non-numeric fields
/// are ignored.
pub fn parse_rows(report: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut section: Option<String> = None;
    for line in report.lines() {
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix('"') {
            // A section opener looks like `"results": [`.
            if let Some((name, tail)) = rest.split_once('"') {
                if tail.trim_start().starts_with(':') && tail.trim_end().ends_with('[') {
                    section = Some(name.to_string());
                    continue;
                }
            }
        }
        if trimmed.starts_with(']') {
            section = None;
            continue;
        }
        let Some(sec) = &section else { continue };
        if !trimmed.starts_with('{') {
            continue;
        }
        let body = trimmed
            .trim_start_matches('{')
            .trim_end_matches(',')
            .trim_end_matches('}');
        let mut values = BTreeMap::new();
        let mut identity_parts = Vec::new();
        for field in body.split(',') {
            let Some((key, value)) = field.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim();
            if IDENTITY_KEYS.contains(&key.as_str()) {
                identity_parts.push(format!("{key}={}", value.trim_matches('"')));
            }
            if let Ok(num) = value.parse::<f64>() {
                values.insert(key, num);
            }
        }
        rows.push(Row {
            section: sec.clone(),
            identity: identity_parts.join(" "),
            values,
        });
    }
    rows
}

/// What [`compare`] found: how many fresh rows it compared, and one
/// human-readable line per finding.
#[derive(Debug, Default, PartialEq)]
pub struct Drift {
    /// Fresh rows that matched a committed row, and so were compared.
    pub matched: usize,
    /// Rows in the fresh report.
    pub fresh: usize,
    /// Deterministic counts that differ from their committed value.
    pub failures: Vec<String>,
    /// Wall-clock medians outside their committed noise band.
    pub warnings: Vec<String>,
}

/// Compares a freshly generated report against the committed one (both
/// lists empty = every deterministic count exact and every median within
/// noise), and counts the fresh rows it matched. Rows present on only one
/// side are skipped — quick mode legitimately produces fewer sections.
pub fn compare(committed: &str, fresh: &str) -> Drift {
    let committed_rows = parse_rows(committed);
    let fresh_rows = parse_rows(fresh);
    let mut drift = Drift {
        fresh: fresh_rows.len(),
        ..Drift::default()
    };
    for fresh_row in &fresh_rows {
        let Some(base) = committed_rows
            .iter()
            .find(|r| r.section == fresh_row.section && r.identity == fresh_row.identity)
        else {
            continue;
        };
        drift.matched += 1;
        for (key, &fresh_value) in &fresh_row.values {
            if key.starts_with("std") || IDENTITY_KEYS.contains(&key.as_str()) {
                continue;
            }
            let Some(&committed_value) = base.values.get(key) else {
                continue;
            };
            if DETERMINISTIC_KEYS.contains(&key.as_str()) {
                if fresh_value != committed_value {
                    drift.failures.push(format!(
                        "[{}] {}: {key} = {fresh_value:.3} differs from committed \
                         {committed_value:.3} (deterministic count — expected exact match)",
                        fresh_row.section, fresh_row.identity
                    ));
                }
                continue;
            }
            // A wall-clock measurement with no committed noise estimate has
            // nothing honest to compare against.
            let Some(std) = committed_std(base, key) else {
                continue;
            };
            let band = NOISE_SIGMAS * std;
            let moved = fresh_value - committed_value;
            if moved.abs() > band {
                drift.warnings.push(format!(
                    "[{}] {}: {key} = {fresh_value:.3} drifted {moved:+.3} from committed \
                     {committed_value:.3} (band ±{band:.3} = {NOISE_SIGMAS}·std {std:.3})",
                    fresh_row.section, fresh_row.identity
                ));
            }
        }
    }
    drift
}

/// Looks up the committed noise estimate for measurement `key`, accepting
/// both std-naming conventions: the engine report's suffix style
/// (`rounds_per_sec_1t` ↔ `std_1t`) and the generic `K` ↔ `std_K` style
/// used by the robustness report.
fn committed_std(row: &Row, key: &str) -> Option<f64> {
    if let Some(suffix) = key.strip_prefix("rounds_per_sec") {
        if let Some(&std) = row.values.get(&format!("std{suffix}")) {
            return Some(std);
        }
    }
    row.values.get(&format!("std_{key}")).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = r#"{
  "bench": "engine",
  "primitive": "pull_round(max-spread, u64)",
  "results": [
    {"n": 1000, "threads": 4, "rounds_per_sec_1t": 1000.0, "std_1t": 10.0, "rounds_per_sec_mt": 500.0, "std_mt": 50.0},
    {"n": 4000, "threads": 4, "rounds_per_sec_1t": 200.0, "std_1t": 5.0, "rounds_per_sec_mt": 100.0, "std_mt": 5.0}
  ],
  "layout": [
    {"change": "pull_blocked_prefetch", "n": 1000, "threads": 1, "rounds_per_sec_old": 70.0, "std_old": 2.0, "rounds_per_sec_new": 100.0, "std_new": 3.0, "speedup": 1.429}
  ]
}
"#;

    /// A clean comparison of `matched` of `fresh` rows.
    fn compared(matched: usize, fresh: usize) -> Drift {
        Drift {
            matched,
            fresh,
            ..Drift::default()
        }
    }

    #[test]
    fn parses_sections_identities_and_numbers() {
        let rows = parse_rows(COMMITTED);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].section, "results");
        assert_eq!(rows[0].identity, "n=1000 threads=4");
        assert_eq!(rows[0].values["rounds_per_sec_1t"], 1000.0);
        assert_eq!(rows[2].section, "layout");
        assert_eq!(
            rows[2].identity,
            "change=pull_blocked_prefetch n=1000 threads=1"
        );
        assert_eq!(rows[2].values["std_new"], 3.0);
    }

    #[test]
    fn within_band_produces_no_warnings() {
        // +3·std exactly is the band edge — still inside.
        let fresh = COMMITTED.replace(
            "\"rounds_per_sec_1t\": 1000.0",
            "\"rounds_per_sec_1t\": 1030.0",
        );
        assert_eq!(compare(COMMITTED, &fresh), compared(3, 3));
    }

    #[test]
    fn drift_beyond_band_warns_with_the_pairing_std() {
        let fresh = COMMITTED
            .replace(
                "\"rounds_per_sec_mt\": 500.0",
                "\"rounds_per_sec_mt\": 300.0",
            )
            .replace(
                "\"rounds_per_sec_new\": 100.0",
                "\"rounds_per_sec_new\": 80.0",
            );
        let Drift {
            failures, warnings, ..
        } = compare(COMMITTED, &fresh);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("rounds_per_sec_mt = 300.000"));
        assert!(warnings[0].contains("band ±150.000"));
        assert!(warnings[1].contains("[layout] change=pull_blocked_prefetch"));
        assert!(warnings[1].contains("band ±9.000"));
    }

    #[test]
    fn unmatched_rows_and_sections_are_skipped() {
        // Fresh run covering only one committed row, plus a brand-new row.
        let fresh = r#"{
  "results": [
    {"n": 1000, "threads": 4, "rounds_per_sec_1t": 995.0, "std_1t": 12.0},
    {"n": 999999, "threads": 4, "rounds_per_sec_1t": 1.0, "std_1t": 0.1}
  ]
}
"#;
        assert_eq!(compare(COMMITTED, fresh), compared(1, 2));
    }

    #[test]
    fn a_report_with_no_matching_identity_compares_no_row() {
        // Every fresh identity differs from the committed ones (here `n`),
        // so nothing is compared and nothing can be vouched for.
        let fresh = COMMITTED.replace("\"n\": ", "\"n\": 7");
        assert_eq!(compare(COMMITTED, &fresh), compared(0, 3));
        assert_eq!(compare(COMMITTED, COMMITTED), compared(3, 3));
    }

    #[test]
    fn measurements_without_committed_std_are_skipped() {
        let committed = r#"{
  "results": [
    {"n": 7, "rounds_per_sec_1t": 10.0}
  ]
}
"#;
        let fresh = committed.replace("10.0", "99.0");
        assert_eq!(compare(committed, &fresh), compared(1, 1));
    }

    #[test]
    fn robustness_rows_pair_measurements_with_generic_std_keys() {
        // Robustness rows use the `K` ↔ `std_K` convention and are keyed by
        // the in-row `section` plus fault/intensity.
        let committed = r#"{
  "results": [
    {"section": "sweep", "fault": "loss", "intensity": 0.2, "n": 20000, "within_eps": 1.0, "std_within_eps": 0.01, "answered": 1.0, "std_answered": 0.0, "rounds": 155.0, "std_rounds": 2.0},
    {"section": "schedule", "mode": "adaptive", "mu": 0.3, "n": 20000, "rounds": 189.0, "std_rounds": 0.0}
  ]
}
"#;
        let fresh = committed
            .replace("\"within_eps\": 1.0,", "\"within_eps\": 0.8,")
            .replace("\"answered\": 1.0,", "\"answered\": 0.99,");
        let Drift {
            failures, warnings, ..
        } = compare(committed, &fresh);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("[results] section=sweep fault=loss intensity=0.2 n=20000"));
        assert!(warnings[0].contains("answered = 0.990"));
        // A zero std makes any drift of its measurement real.
        assert!(warnings[0].contains("band ±0.000"));
        assert!(warnings[1].contains("within_eps = 0.800"));
        assert!(warnings[1].contains("band ±0.030"));
    }

    #[test]
    fn deterministic_counts_fail_even_inside_their_committed_band() {
        // Robustness rows carry a std for `rounds`, but the count is a
        // function of the seeds: a drift inside ±3·std is still a changed
        // trajectory, so it fails instead of passing as noise.
        let committed = r#"{
  "results": [
    {"section": "sweep", "fault": "loss", "intensity": 0.2, "n": 20000, "rounds": 155.0, "std_rounds": 2.0},
    {"section": "schedule", "mode": "adaptive", "mu": 0.3, "n": 20000, "rounds": 189.0, "std_rounds": 0.0}
  ]
}
"#;
        assert_eq!(compare(committed, committed), compared(2, 2));
        let fresh = committed
            .replace("\"rounds\": 155.0,", "\"rounds\": 156.0,")
            .replace("\"rounds\": 189.0,", "\"rounds\": 190.0,");
        let Drift {
            failures, warnings, ..
        } = compare(committed, &fresh);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("section=sweep fault=loss intensity=0.2 n=20000"));
        assert!(failures[0].contains("rounds = 156.000 differs from committed 155.000"));
        assert!(failures[1].contains("section=schedule mode=adaptive mu=0.3"));
        assert!(failures[1].contains("deterministic count"));
    }

    #[test]
    fn deterministic_service_counters_must_match_exactly() {
        let committed = r#"{
  "results": [
    {"kind": "batch", "n": 10000, "q": 8, "rounds": 49, "solo_rounds_total": 380, "amortisation": 7.755, "qps": 107.822, "epoch_secs": 0.074}
  ]
}
"#;
        // Wall-clock keys (`qps`) are free to move without a committed noise
        // estimate; the deterministic round count is not.
        let fresh = committed
            .replace("107.822", "3.001")
            .replace("\"rounds\": 49", "\"rounds\": 53");
        let Drift {
            failures, warnings, ..
        } = compare(committed, &fresh);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("[results] kind=batch n=10000 q=8"));
        assert!(failures[0].contains("rounds = 53.000"));
        assert!(failures[0].contains("deterministic count"));
    }
}
