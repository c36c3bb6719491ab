//! Regenerates (or checks) the pinned algorithm-level fingerprints in
//! `tests/data/tournament_goldens.txt`, which back `tests/tournament_golden.rs`.
//!
//! ```text
//! cargo run -p quantile-gossip --example regen_tournament_goldens            # check: exit 1 on drift
//! cargo run -p quantile-gossip --example regen_tournament_goldens -- --write # rewrite the file
//! ```
//!
//! Pins must only be regenerated deliberately — in the same commit as the
//! change that alters a driver's trajectory, with a CHANGES.md note.

#[path = "../tests/support/tournament_goldens.rs"]
mod support;

use std::process::ExitCode;

const PIN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/tournament_goldens.txt"
);

const HEADER: &str = "\
# Pinned algorithm-level fingerprints of tournament_quantile, the robust
# algorithm, the median rule, the sampling baseline and exact_quantile.
#
# Consumed by tests/tournament_golden.rs. Each scenario pins the per-node
# outputs fingerprint (a node without an answer as u64::MAX) and a metrics
# line (rounds, participants, max participants, pulls attempted, failures,
# drops, deliveries, bits, crashed operations, delayed messages); a robust
# scenario also pins the bits of its good and answered fractions and of its
# failure estimate, and an exact scenario pins its answer's bits, iterations
# and rounds instead of a fingerprint. Regenerate deliberately — in the same commit as the
# change that alters a driver's trajectory, with a CHANGES.md note — via:
#
#     cargo run -p quantile-gossip --example regen_tournament_goldens -- --write
#
# Running the example without --write recomputes every value, prints any
# drift, and exits non-zero.
";

fn main() -> ExitCode {
    let write = std::env::args().any(|a| a == "--write");

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

    if drift == 0 && on_disk == rendered {
        println!("tournament goldens: {} pins, no drift", computed.len());
        return ExitCode::SUCCESS;
    }
    if write {
        std::fs::write(PIN_PATH, &rendered).expect("writing tests/data/tournament_goldens.txt");
        println!(
            "tournament goldens: rewrote {} pins ({drift} changed) at {PIN_PATH}",
            computed.len()
        );
        println!("note the regeneration in CHANGES.md and commit the file with the change.");
        ExitCode::SUCCESS
    } else {
        println!("tournament goldens: {drift} pins drifted (or the file is not canonical); rerun with --write");
        ExitCode::FAILURE
    }
}
