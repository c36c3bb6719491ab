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
//! functions of the seed; those are compared exactly even without a
//! committed std, because any drift there is a behavioural change, not
//! noise. Wall-clock keys with neither a std pair nor a determinism
//! guarantee (`qps`, `speedup`, `epoch_secs`, …) are skipped: with no
//! committed noise estimate there is no honest band to test against.
//!
//! Anything outside its band becomes a **warning** — never a failure,
//! because quick mode trades stability for runtime and a CI container's
//! noise floor is unknowable — so a silent regression at least leaves a
//! trace in the job log at PR time.
//!
//! The parser is deliberately matched to [`crate::report_json`]'s fixed
//! row-per-line format rather than being a general JSON reader: one object
//! per line, `"key": value` pairs, flat scalars only.

use std::collections::BTreeMap;

/// Keys that identify a row within its section rather than measuring it.
/// Spans all three reports: engine rows (`n`/`threads`/`active_frac`/
/// `change`/`k`), service rows (`kind`/`q`/`dirty_fraction`/`perturbation`) and
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
    "perturbation",
    "section",
    "fault",
    "intensity",
    "mode",
    "mu",
];

/// Measurements that are deterministic functions of the seed (round counts
/// and quantities derived from them). Compared exactly when the committed
/// row has no std pair for them — drift here means the algorithm's
/// trajectory changed, not that the machine was noisy.
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
    /// Section name (`results`, `active_set`, `layout`, …).
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

/// Compares a freshly generated report against the committed one and returns
/// one human-readable warning per median outside the committed noise band
/// (empty = all within noise). Rows present on only one side are skipped —
/// quick mode legitimately produces fewer sections.
pub fn compare(committed: &str, fresh: &str) -> Vec<String> {
    let committed_rows = parse_rows(committed);
    let fresh_rows = parse_rows(fresh);
    let mut warnings = Vec::new();
    for fresh_row in &fresh_rows {
        let Some(base) = committed_rows
            .iter()
            .find(|r| r.section == fresh_row.section && r.identity == fresh_row.identity)
        else {
            continue;
        };
        for (key, &fresh_value) in &fresh_row.values {
            if key.starts_with("std") || IDENTITY_KEYS.contains(&key.as_str()) {
                continue;
            }
            let Some(&committed_value) = base.values.get(key) else {
                continue;
            };
            match committed_std(base, key) {
                Some(std) => {
                    let band = NOISE_SIGMAS * std;
                    let drift = fresh_value - committed_value;
                    if drift.abs() > band {
                        warnings.push(format!(
                            "[{}] {}: {key} = {fresh_value:.3} drifted {drift:+.3} from committed \
                             {committed_value:.3} (band ±{band:.3} = {NOISE_SIGMAS}·std {std:.3})",
                            fresh_row.section, fresh_row.identity
                        ));
                    }
                }
                None if DETERMINISTIC_KEYS.contains(&key.as_str())
                    && fresh_value != committed_value =>
                {
                    warnings.push(format!(
                        "[{}] {}: {key} = {fresh_value:.3} differs from committed \
                         {committed_value:.3} (deterministic count — expected exact match)",
                        fresh_row.section, fresh_row.identity
                    ));
                }
                // Wall-clock measurement with no committed noise estimate:
                // nothing honest to compare against.
                None => {}
            }
        }
    }
    warnings
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
        assert_eq!(compare(COMMITTED, &fresh), Vec::<String>::new());
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
        let warnings = compare(COMMITTED, &fresh);
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
        assert!(compare(COMMITTED, fresh).is_empty());
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
        assert!(compare(committed, &fresh).is_empty());
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
            .replace("\"rounds\": 155.0,", "\"rounds\": 162.0,")
            .replace("\"rounds\": 189.0,", "\"rounds\": 190.0,");
        let warnings = compare(committed, &fresh);
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings[0].contains("[results] section=sweep fault=loss intensity=0.2 n=20000"));
        assert!(warnings[0].contains("rounds = 162.000"));
        assert!(warnings[0].contains("band ±6.000"));
        assert!(warnings[1].contains("within_eps = 0.800"));
        // The zero-std schedule row treats any round drift as real.
        assert!(warnings[2].contains("section=schedule mode=adaptive mu=0.3"));
        assert!(warnings[2].contains("band ±0.000"));
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
        let warnings = compare(committed, &fresh);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("[results] kind=batch n=10000 q=8"));
        assert!(warnings[0].contains("rounds = 53.000"));
        assert!(warnings[0].contains("deterministic count"));
    }
}
