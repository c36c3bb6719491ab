//! CI bench smoke comparator: `bench_smoke <committed.json> <fresh.json>`.
//!
//! Prints how many fresh rows matched a committed row, one error line per
//! deterministic count that differs from its committed value, and one
//! warning line per wall-clock median outside the committed noise band (see
//! [`bench::smoke`]). It exits non-zero if a count differs, or if a report
//! cannot be read or no fresh row matched (then nothing was compared); a
//! warning never fails the run — quick-mode timings are noisy by
//! construction, so their drift is surfaced in the job log, not enforced.
//! CI invokes it once per report pair (`BENCH_engine.json`,
//! `BENCH_service.json`, `BENCH_robustness.json`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_smoke <committed.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            println!("::error::bench_smoke: cannot read {path}: {e}; nothing was compared");
            None
        }
    };
    let (Some(committed), Some(fresh)) = (read(committed_path), read(fresh_path)) else {
        return ExitCode::FAILURE;
    };
    let drift = bench::smoke::compare(&committed, &fresh);
    println!(
        "bench_smoke: compared {} of {} fresh rows",
        drift.matched, drift.fresh
    );
    if drift.matched == 0 {
        println!(
            "::error::bench_smoke: no fresh row matched a committed row; nothing was compared"
        );
        return ExitCode::FAILURE;
    }
    for w in &drift.warnings {
        println!("::warning::bench_smoke: {w}");
    }
    for f in &drift.failures {
        println!("::error::bench_smoke: {f}");
    }
    if drift.warnings.is_empty() {
        println!("bench_smoke: all medians within ±3·std of the committed report");
    } else {
        println!(
            "bench_smoke: {} median(s) outside the committed noise band (warning only)",
            drift.warnings.len()
        );
    }
    if drift.failures.is_empty() {
        println!("bench_smoke: every deterministic count matches the committed report");
        ExitCode::SUCCESS
    } else {
        println!(
            "bench_smoke: {} deterministic count(s) differ from the committed report",
            drift.failures.len()
        );
        ExitCode::FAILURE
    }
}
