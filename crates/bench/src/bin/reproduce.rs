//! Reproduction harness: prints one table per experiment E1–E10 (see
//! "Measurement" in `docs/paper-map.md`).
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- all            # every experiment
//! cargo run --release -p bench --bin reproduce -- e1 e5          # selected experiments
//! cargo run --release -p bench --bin reproduce -- --quick all    # smaller sizes / fewer trials
//! cargo run --release -p bench --bin reproduce -- --seed 7 e2    # change the master seed
//! ```

use bench::{run_experiment, Scale, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut seed: u64 = 20180723; // PODC 2018
    let mut requested: Vec<String> = Vec::new();

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--seed requires a value");
                    std::process::exit(2);
                });
                seed = value.parse().unwrap_or_else(|_| {
                    eprintln!("--seed requires an integer, got `{value}`");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => requested.push(other.to_lowercase()),
        }
    }
    if requested.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    if requested.iter().any(|r| r == "all") {
        requested = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    println!(
        "# gossip-quantiles reproduction ({} scale, master seed {seed})\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    );
    for id in &requested {
        let start = std::time::Instant::now();
        match run_experiment(id, scale, seed) {
            Some(table) => {
                println!("{}", table.render());
                println!("({id} took {:.1?})\n", start.elapsed());
            }
            None => {
                eprintln!("unknown experiment `{id}`; known: {ALL_EXPERIMENTS:?} or `all`");
                std::process::exit(2);
            }
        }
    }
}

fn print_usage() {
    println!(
        "usage: reproduce [--quick] [--seed N] <experiment...|all>\n\
         experiments: {ALL_EXPERIMENTS:?}\n\
         Each table's title names what it measures; the E1-E10 drivers in\n\
         crates/bench/src/experiments.rs document the claim each one checks."
    );
}
