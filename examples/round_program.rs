//! Fused sessions: run a multi-round gossip schedule as **one** worker-pool
//! dispatch.
//!
//! The paper's algorithms run hundreds of very short rounds (Theorems
//! 1.2/1.3 prove `O(log n)`-round budgets), so at small `n` the cost of
//! handing each round to the workers matters. Every round is a phase of the
//! pool's barrier: its workers spin between phases and only park after a
//! long gap. [`Engine::fused`] runs a closure as one session that takes the
//! pool's gate once, so its rounds count as one dispatch and no other
//! thread's dispatch comes between them; a looped schedule takes the gate
//! per round, and runs at about the same speed. The schedule is a plain loop
//! inside the closure. Results are bit-identical to the unfused loop — this
//! example proves it on its own run — only the scheduling counters change.
//!
//! ```text
//! cargo run --release --example round_program
//! ```

use gossip_quantiles::{Engine, EngineConfig};
use std::time::Instant;

/// Max-spreading pull: after O(log n) rounds every node holds the maximum.
fn pull_rounds(engine: &mut Engine<u64>, rounds: usize) {
    for _ in 0..rounds {
        engine.pull_round(
            |_, &v| v,
            |_, state, pulled| {
                if let Some(p) = pulled {
                    *state = (*state).max(p);
                }
            },
        );
    }
}

fn engine(n: usize, threads: usize) -> Engine<u64> {
    let mut e = Engine::from_states((0..n as u64).collect(), EngineConfig::with_seed(7));
    e.set_threads(threads);
    e
}

fn main() {
    let n = 4_000;
    let threads = 2;
    let rounds = 128;

    // Looped: every round is its own pool dispatch.
    let mut looped = engine(n, threads);
    let start = Instant::now();
    pull_rounds(&mut looped, rounds);
    let loop_time = start.elapsed();

    // Fused: the same loop inside one session.
    let mut fused = engine(n, threads);
    let start = Instant::now();
    fused.fused(|e| pull_rounds(e, rounds));
    let fused_time = start.elapsed();

    let lm = looped.metrics();
    let fm = fused.metrics();
    println!("{rounds} pull rounds over n = {n} nodes, {threads} threads\n");
    println!(
        "  looped : {loop_time:>10.3?}  ({} pool dispatches, {} worker wakeups)",
        lm.pool_dispatches, lm.worker_wakeups
    );
    println!(
        "  fused  : {fused_time:>10.3?}  ({} pool dispatch,   {} worker wakeups)",
        fm.pool_dispatches, fm.worker_wakeups
    );
    println!(
        "\n  speedup {:.2}x, dispatches reduced {}x",
        loop_time.as_secs_f64() / fused_time.as_secs_f64().max(f64::EPSILON),
        lm.pool_dispatches / fm.pool_dispatches.max(1)
    );

    // The whole point is that fusion is *only* a scheduling change: the two
    // engines ran bit-identical executions.
    assert_eq!(looped.states(), fused.states());
    assert_eq!(looped.metrics(), fused.metrics()); // == ignores scheduling counters
    assert_eq!(looped.states().iter().max(), Some(&(n as u64 - 1)));
    println!("  final states identical: true");

    // The next session continues from the engine's new state, with fresh
    // deterministic randomness (rounds advance the engine's counter).
    let before = fused.round();
    fused.fused(|e| pull_rounds(e, rounds));
    assert_eq!(fused.round(), before + rounds as u64);
    println!(
        "  ran the schedule again in a second session: rounds {} -> {}",
        before,
        fused.round()
    );
}
