//! Regenerates (or checks) the pinned golden fingerprints in
//! `tests/data/goldens.txt`, which back both the dense pins of
//! `tests/golden.rs` and the sparse full-set equivalence pins of
//! `tests/sparse.rs`.
//!
//! ```text
//! cargo run -p gossip-net --example regen_goldens            # check: exit 1 on drift
//! cargo run -p gossip-net --example regen_goldens -- --write # rewrite the file
//! ```
//!
//! Pins must only be regenerated deliberately — in the same commit as the
//! change that alters the randomness contract, with a CHANGES.md note.
//! Before writing, the tool re-derives every sparse full-set trajectory and
//! refuses to proceed if it diverges from the dense one, so a regeneration
//! can never pin a dense/sparse disagreement.

#[path = "../tests/support/goldens.rs"]
mod support;

use gossip_net::{ActiveSet, FailureModel};
use std::process::ExitCode;

const PIN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/goldens.txt");

const HEADER: &str = "\
# Pinned golden fingerprints for the gossip-net engine.
#
# Consumed by tests/golden.rs (dense engine) and tests/sparse.rs (sparse
# full-set equivalence pins). Regenerate deliberately — in the same commit as
# the change that alters the randomness contract, with a CHANGES.md note —
# via:
#
#     cargo run -p gossip-net --example regen_goldens -- --write
#
# Running the example without --write recomputes every value, prints any
# drift, and exits non-zero; CI treats that as a failed check.
";

fn main() -> ExitCode {
    let write = std::env::args().any(|a| a == "--write");

    verify_sparse_full_set_equivalence();

    let computed = support::compute_all();
    let mut rendered = String::from(HEADER);
    for (k, v) in &computed {
        rendered.push_str(k);
        rendered.push('=');
        rendered.push_str(v);
        rendered.push('\n');
    }

    let on_disk = std::fs::read_to_string(PIN_PATH).unwrap_or_default();
    let mut drift = 0;
    for (k, v) in &computed {
        match support::lookup(&on_disk, k) {
            Some(pinned) if pinned == v => {}
            Some(pinned) => {
                drift += 1;
                println!("DRIFT  {k}\n  pinned:   {pinned}\n  computed: {v}");
            }
            None => {
                drift += 1;
                println!("MISSING {k}\n  computed: {v}");
            }
        }
    }
    for key in keys_of(&on_disk) {
        if !computed.iter().any(|(k, _)| *k == key) {
            drift += 1;
            println!("STALE  {key} (pinned but no scenario computes it)");
        }
    }

    if drift == 0 && on_disk == rendered {
        println!("goldens: {} pins, no drift", computed.len());
        return ExitCode::SUCCESS;
    }

    if write {
        std::fs::write(PIN_PATH, &rendered).expect("writing tests/data/goldens.txt");
        println!(
            "goldens: rewrote {} pins ({} changed) at {PIN_PATH}",
            computed.len(),
            drift
        );
        println!("note the regeneration in CHANGES.md and commit the file with the change.");
        ExitCode::SUCCESS
    } else if drift == 0 {
        // Values agree but formatting/comments differ from the canonical
        // rendering; still a failure so the file stays canonical.
        println!(
            "goldens: values match but the file is not canonically formatted; rerun with --write"
        );
        ExitCode::FAILURE
    } else {
        println!("goldens: {drift} pins drifted; rerun with --write to regenerate");
        ExitCode::FAILURE
    }
}

fn keys_of(file: &str) -> Vec<&str> {
    file.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('=').map(|(k, _)| k.trim()))
        .collect()
}

/// Re-derives every scenario a sparse primitive can run over the full
/// active set — the push rounds through `push_round_on`, the sampling
/// rounds through `pull_sources` over the full set — and asserts
/// bit-identity with the dense run, mirroring the equivalence pins of
/// `tests/sparse.rs`. A regeneration that would break sparse/dense
/// agreement aborts here instead of writing a bad pin file.
fn verify_sparse_full_set_equivalence() {
    let check = |name: &str, dense: &gossip_net::Engine<u64>, sparse: &gossip_net::Engine<u64>| {
        assert_eq!(
            (
                support::metrics_line(dense),
                support::fingerprint(dense.states())
            ),
            (
                support::metrics_line(sparse),
                support::fingerprint(sparse.states())
            ),
            "sparse full-set trajectory diverged from dense for scenario {name:?}",
        );
    };

    for (name, seed, failure) in [
        ("push", 202, FailureModel::None),
        ("push_failures", 202, FailureModel::uniform(0.3).unwrap()),
    ] {
        let mut d = support::engine(512, seed, failure.clone());
        support::push_rounds(&mut d, 8);
        let mut s = support::engine(512, seed, failure);
        support::sparse_push_rounds(&mut s, &ActiveSet::full(512), 8);
        check(name, &d, &s);
    }
    for (name, seed, failure) in [
        ("collect", 404, FailureModel::None),
        ("collect_failures", 404, FailureModel::uniform(0.4).unwrap()),
    ] {
        let mut d = support::engine(512, seed, failure.clone());
        let ds = support::pulled_samples(&mut d, None, 3);
        let mut s = support::engine(512, seed, failure);
        let ss = support::pulled_samples(&mut s, Some(&ActiveSet::full(512)), 3);
        assert_eq!(
            support::sample_fp(&ds),
            support::sample_fp(&ss),
            "sparse full-set samples diverged from dense for scenario {name:?}",
        );
        check(name, &d, &s);
    }
    {
        let mut d = support::engine(20_000, 707, FailureModel::None);
        support::pull_rounds(&mut d, 2);
        support::push_rounds(&mut d, 2);
        support::push_pull_rounds(&mut d, 2);
        let mut s = support::engine(20_000, 707, FailureModel::None);
        support::pull_rounds(&mut s, 2);
        support::sparse_push_rounds(&mut s, &ActiveSet::full(20_000), 2);
        support::push_pull_rounds(&mut s, 2);
        check("large", &d, &s);
    }
    println!("sparse full-set trajectories match dense on all scenarios");
}
