//! Lifecycle and edge cases of the persistent worker pool as engines use it:
//! shutdown on drop, reuse across engines (shared and sequential), thread
//! counts exceeding the node count, degenerate engines, and the pool's
//! indifference contract (pool size and sharing never change results).

use gossip_net::{Engine, EngineConfig, GossipError, WorkerPool};
use std::sync::Arc;

fn max_spread(engine: &mut Engine<u64>, rounds: usize) {
    for _ in 0..rounds {
        engine.pull_round(
            |_, &s| s,
            |_, st, p| {
                if let Some(p) = p {
                    *st = (*st).max(p);
                }
            },
        );
    }
}

fn run_to_completion(n: usize, threads: usize, config: EngineConfig) -> Vec<u64> {
    let mut engine = Engine::from_states((0..n as u64).collect(), config.clone());
    engine.set_threads(threads);
    max_spread(&mut engine, 6);
    engine.local_step(|v, st, _| *st = st.wrapping_add(v as u64));
    engine.into_states()
}

#[test]
fn dropping_an_engine_mid_use_shuts_the_pool_down_cleanly() {
    // Drop after arbitrary amounts of work, including right after a round
    // (workers have just gone back to sleep) and with rounds still cheap to
    // issue; none of these may hang or poison a subsequent engine.
    for rounds in [0, 1, 7] {
        let mut engine = Engine::from_states((0..500u64).collect(), EngineConfig::with_seed(3));
        engine.set_threads(4);
        max_spread(&mut engine, rounds);
        drop(engine);
    }
    // A fresh engine after all those shutdowns behaves normally.
    let states = run_to_completion(500, 4, EngineConfig::with_seed(3));
    assert_eq!(
        states,
        run_to_completion(500, 1, EngineConfig::with_seed(3))
    );
}

#[test]
fn two_engines_can_share_one_pool_in_one_process() {
    let pool = Arc::new(WorkerPool::new(4));
    let mut a = Engine::from_states(
        (0..300u64).collect(),
        EngineConfig::with_seed(1).pool(Arc::clone(&pool)),
    );
    let mut b = Engine::from_states(
        (0..300u64).map(|v| v * 2).collect(),
        EngineConfig::with_seed(2).pool(Arc::clone(&pool)),
    );
    a.set_threads(4);
    b.set_threads(4);
    assert!(Arc::ptr_eq(a.pool(), &pool) && Arc::ptr_eq(b.pool(), &pool));

    // Interleave rounds on the shared pool; results must match the same
    // engines run on private pools.
    for _ in 0..5 {
        max_spread(&mut a, 1);
        max_spread(&mut b, 1);
    }
    let (a, b) = (a.into_states(), b.into_states());

    let mut a_ref = Engine::from_states((0..300u64).collect(), EngineConfig::with_seed(1));
    let mut b_ref = Engine::from_states(
        (0..300u64).map(|v| v * 2).collect(),
        EngineConfig::with_seed(2),
    );
    a_ref.set_threads(4);
    b_ref.set_threads(4);
    max_spread(&mut a_ref, 5);
    max_spread(&mut b_ref, 5);
    assert_eq!(a, a_ref.into_states(), "shared pool changed engine A");
    assert_eq!(b, b_ref.into_states(), "shared pool changed engine B");

    // The pool outlives both engines and still works for a third.
    let states = run_to_completion(64, 4, EngineConfig::with_seed(9).pool(pool));
    assert_eq!(states, run_to_completion(64, 1, EngineConfig::with_seed(9)));
}

#[test]
fn two_engines_can_share_one_pool_from_two_threads() {
    // The pool's dispatch gate serialises concurrent rounds from different
    // user threads; each engine's results stay a pure function of its seed.
    let pool = Arc::new(WorkerPool::new(4));
    let spawn = |seed: u64, pool: Arc<WorkerPool>| {
        std::thread::spawn(move || {
            let mut e = Engine::from_states(
                (0..400u64).collect(),
                EngineConfig::with_seed(seed).pool(pool),
            );
            e.set_threads(3);
            max_spread(&mut e, 8);
            e.into_states()
        })
    };
    let ha = spawn(11, Arc::clone(&pool));
    let hb = spawn(22, Arc::clone(&pool));
    let (a, b) = (ha.join().unwrap(), hb.join().unwrap());
    assert_eq!(a, run_to_completion_no_local(400, 11));
    assert_eq!(b, run_to_completion_no_local(400, 22));
}

fn run_to_completion_no_local(n: usize, seed: u64) -> Vec<u64> {
    let mut e = Engine::from_states((0..n as u64).collect(), EngineConfig::with_seed(seed));
    max_spread(&mut e, 8);
    e.into_states()
}

#[test]
fn more_threads_than_nodes_is_fine_and_thread_count_invariant() {
    let run = |threads: usize| {
        let mut e = Engine::from_states((0..10u64).collect(), EngineConfig::with_seed(7));
        e.set_threads(threads);
        max_spread(&mut e, 10);
        e.local_step(|v, st, _| *st ^= v as u64);
        e.into_states()
    };
    let baseline = run(1);
    for threads in [10, 11, 64] {
        assert_eq!(run(threads), baseline, "threads = {threads}");
    }
}

#[test]
fn degenerate_engines_are_rejected_not_wedged() {
    // A zero-node (and one-node) engine is a constructor-time error…
    let zero = Engine::<u64>::try_from_states(Vec::new(), EngineConfig::with_seed(0));
    assert_eq!(zero.unwrap_err(), GossipError::TooFewNodes { requested: 0 });
    let one = Engine::<u64>::try_from_states(vec![1], EngineConfig::with_seed(0));
    assert_eq!(one.unwrap_err(), GossipError::TooFewNodes { requested: 1 });
    // …even when handed a live shared pool, which must stay usable after the
    // rejections.
    let pool = Arc::new(WorkerPool::new(3));
    let rejected = Engine::<u64>::try_from_states(
        Vec::new(),
        EngineConfig::with_seed(0).pool(Arc::clone(&pool)),
    );
    assert!(rejected.is_err());
    let states = run_to_completion(32, 3, EngineConfig::with_seed(1).pool(pool));
    assert_eq!(states, run_to_completion(32, 1, EngineConfig::with_seed(1)));
}

#[test]
fn set_threads_grows_the_pool_and_shrinking_keeps_it() {
    let mut e = Engine::from_states((0..100u64).collect(), EngineConfig::with_seed(8));
    // Small engines default to a 1-executor pool…
    assert_eq!(e.threads(), 1);
    assert_eq!(e.pool().threads(), 1);
    // …growing allocates workers…
    e.set_threads(6);
    assert_eq!(e.pool().threads(), 6);
    let grown = Arc::clone(e.pool());
    // …and shrinking reuses the grown pool rather than churning threads.
    e.set_threads(2);
    assert!(Arc::ptr_eq(e.pool(), &grown));
    max_spread(&mut e, 4);
    let states = e.into_states();
    assert_eq!(states, {
        let mut r = Engine::from_states((0..100u64).collect(), EngineConfig::with_seed(8));
        max_spread(&mut r, 4);
        r.into_states()
    });
}
