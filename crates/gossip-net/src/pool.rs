//! A persistent worker pool for the engine's per-round chunk maps.
//!
//! Spawning threads for every chunk map costs more than a whole round below
//! about 16k nodes, so [`WorkerPool`] keeps its workers for its whole life.
//! They start in one loop, the *phase barrier*, and leave it only when the
//! pool is dropped.
//!
//! ## Phases
//!
//! Every non-inline [`WorkerPool::run`] is one *phase*. The thread that
//! calls it, the phase's *owner*, is executor 0:
//!
//! 1. it writes the job cell (the task closure and its task count), resets
//!    the task cursor, `remaining` and the panic flag, and stores the packed
//!    phase word: the phase counter and the phase's participant count in
//!    one atomic (see `PHASE_SHIFT`);
//! 2. it wakes the workers that have parked, if any;
//! 3. it claims task indices from the shared cursor (`fetch_add`) like any
//!    participant, and runs the job on each index it wins;
//! 4. it waits until `remaining == 0`, that is until every participant has
//!    retired the phase, under a guard that waits on unwind too.
//!
//! A worker waits for the phase counter to move. It spins for a budget
//! (`GOSSIP_SPIN_US`), yielding now and then so that an oversubscribed host
//! keeps making progress; then it registers in `sleepers` and parks on a
//! condvar, and the next phase's owner wakes it. A phase of `t` tasks has
//! `min(workers, t − 1)` participants, the id prefix of the workers; the
//! others go back to waiting without touching the job or `remaining`.
//! Worker panics are caught per phase, forwarded by the owner after the
//! quiescence wait, and leave the pool usable.
//!
//! Calls from different threads serialise on a gate, held by the owner for
//! one phase or, in [`WorkerPool::run_program`], for a whole block; the
//! owner's own calls skip it. A call back into the pool from a thread running
//! one of its tasks, directly or through other pools' runs, panics instead of
//! waiting on itself: on the owner the phase it would publish finds one in
//! flight, on a worker a thread-local mark names the worker's pool. Only a
//! call that comes back on another thread can still deadlock on the gate.
//!
//! `tests/pool_model.rs` checks this barrier exhaustively: the owner and two
//! or three workers as a state machine with one step per atomic operation
//! here, over every interleaving of three phases.
//!
//! ## Determinism argument
//!
//! The pool influences only *which thread* executes a task, never *what* the
//! task computes: [`crate::par::for_chunks`] assigns chunk `i` of the input to
//! task `i`, every task writes its result into slot `i`, and the caller folds
//! the slots in index order after the barrier. Which executor won which index
//! — and the pool's size — is therefore invisible in the results, preserving
//! the engine's bit-identical-at-any-thread-count contract (pinned by
//! `tests/determinism.rs`).
//!
//! ## The one `unsafe`
//!
//! The job closure borrows the caller's stack (the chunk and slot tables of a
//! `for_chunks` call), but worker threads are `'static`, so the pool stores
//! the closure as a lifetime-erased raw pointer (`TaskPtr`). Only a phase's
//! participants dereference it, and the owner returns, or unwinds, only after
//! every participant has retired the phase, so the pointee outlives every
//! dereference. This is the standard scoped-pool construction (rayon's
//! `scope` does the same) and is the only unsafe code in the crate; the rest
//! of the crate stays `deny(unsafe_code)`-clean.

#![allow(unsafe_code)]

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, ignoring poison: the pool forwards worker panics itself
/// (after the quiescence wait), so a poisoned lock carries no extra
/// information and must not wedge the pool for subsequent jobs.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A per-thread token distinguishing live threads: the address of a
/// thread-local, which is unique among concurrently running threads and never
/// zero. Used to recognise the gate's holder without taking any lock.
fn thread_token() -> usize {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| t as *const u8 as usize)
}

thread_local! {
    /// The pool whose worker this thread is (its [`Shared`]'s address), or
    /// `0`. A worker must never wait on that pool's gate.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

/// Spin budget of the phase barrier, in microseconds, read from
/// `GOSSIP_SPIN_US` (`0` parks immediately — the pure condvar path the CI
/// matrix exercises; [`WorkerPool::with_spin`] clamps it to 100 ms).
///
/// Without an explicit setting the budget is 100 µs if `threads` executors
/// fit the host's cores, and `0` if they do not: a spinning waiter on an
/// oversubscribed host steals the core its peer needs to reach the barrier,
/// turning each phase hand-off into a full scheduler quantum.
fn spin_us_from_env(threads: usize) -> u64 {
    if let Some(v) = std::env::var("GOSSIP_SPIN_US")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        return v;
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if threads > cores {
        0
    } else {
        100
    }
}

/// Lifetime-erased pointer to a caller-owned `dyn Fn(usize) + Sync` job
/// closure. Safety: only dereferenced by a phase's participants, between the
/// phase's publication and its quiescence, while the owner's
/// [`WorkerPool::run`] call borrows the pointee.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));

impl TaskPtr {
    /// Erases the closure's borrow of the caller's stack.
    ///
    /// # Safety
    ///
    /// The caller must not let any dereference of the returned pointer
    /// outlive `'a` — in the pool, the quiescence wait of the phase that
    /// published the job enforces this.
    unsafe fn erase<'a>(task: &'a (dyn Fn(usize) + Sync + 'a)) -> TaskPtr {
        let short: *const (dyn Fn(usize) + Sync + 'a) = task;
        // SAFETY: identical layout; only the lifetime bound changes.
        TaskPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + 'a),
                *const (dyn Fn(usize) + Sync + 'static),
            >(short)
        })
    }
}

// SAFETY: the pointee is `Sync` (shared references may cross threads), and
// the quiescence wait bounds every dereference within the lifetime of the
// `run` call that published it.
unsafe impl Send for TaskPtr {}

/// A published phase's job: the erased closure and its task count.
#[derive(Clone, Copy)]
struct Job {
    task: TaskPtr,
    tasks: usize,
}

/// Bit split of [`Shared::phase`]: phase counter in the high bits, that
/// phase's participant count in the low [`PHASE_SHIFT`] bits (a pool has at
/// most 255 workers; 48 phase bits outlast any pool). One atomic makes a
/// worker's participation decision atomic with its phase observation: a
/// worker that sat out phase N and only looks again after phase N+1 is
/// published reads the *pair* (N+1, participants(N+1)). Combining phase N
/// with phase N+1's count would let it run a phase twice and underflow
/// `remaining`, breaking the quiescence wait the lifetime erasure rests on.
const PHASE_SHIFT: u32 = 16;

/// The participant count of the last phase, which tells every worker to exit.
const EXIT: u64 = (1 << PHASE_SHIFT) - 1;

/// Phase-counter half of a packed [`Shared::phase`] word.
fn phase_of(packed: u64) -> u64 {
    packed >> PHASE_SHIFT
}

/// Participant-count half of a packed [`Shared::phase`] word.
fn participants_of(packed: u64) -> u64 {
    packed & ((1 << PHASE_SHIFT) - 1)
}

/// The phase barrier's state, shared by the owner of the current phase and
/// the workers.
struct Shared {
    /// Thread token ([`thread_token`]) of the thread holding the gate, or
    /// `0`. Its `run` calls skip the gate.
    owner: AtomicUsize,
    /// Packed phase word (see [`PHASE_SHIFT`]), written only by the owner of
    /// the current phase; its `SeqCst` store releases the phase's job.
    phase: AtomicU64,
    /// The current phase's job (the `Sync` impl below says why it needs no
    /// lock).
    job: UnsafeCell<Option<Job>>,
    /// A phase is in flight; touched only by the gate's holder, so relaxed.
    /// It keeps the owner, whose calls skip the gate, from publishing over it.
    in_phase: AtomicBool,
    /// Next unclaimed task index of the current phase.
    cursor: AtomicUsize,
    /// Participants that have not yet retired the current phase; the owner
    /// returns only when it reaches 0 (the quiescence wait).
    remaining: AtomicUsize,
    /// Workers registered to park. The owner notifies only when this is
    /// non-zero, so a phase whose workers all spin never takes the mutex.
    sleepers: AtomicUsize,
    /// Any participant's task panicked during the current phase. Its relaxed
    /// accesses are ordered by the `phase` store and the `remaining` wait.
    panicked: AtomicBool,
    /// The mutex parked workers wait under; it guards no data, and only
    /// orders a worker's last check of the phase word against the notify.
    parking: Mutex<()>,
    /// Parked workers wait here for the next phase.
    start: Condvar,
    /// Spin budget of a waiting worker before it parks, and of the owner's
    /// quiescence wait before it falls back to pure yielding. Never affects
    /// results, only the latency/CPU trade.
    spin: Duration,
    /// Gate acquisitions: one per [`WorkerPool::run`] outside
    /// [`WorkerPool::run_program`], one per `run_program` block.
    dispatches: AtomicU64,
    /// Parked workers woken by phase publications.
    wakeups: AtomicU64,
}

// SAFETY: the `job` cell is the only non-atomic field. The owner writes it
// before the `SeqCst`/release `phase` store; a worker reads it only when the
// packed word it acquire-loaded names that phase *and* lists the worker as a
// participant (phase and participant count travel in one word, so the pair
// is always consistent), and the owner rewrites the cell only after
// `remaining` reached 0 (release decrements, acquire read) — so every access
// pair is ordered by a happens-before edge and no two accesses race.
unsafe impl Sync for Shared {}

/// Scheduling counters of a [`WorkerPool`] — see [`WorkerPool::stats`].
///
/// These measure dispatch overhead, not communication: they are wall-clock
/// observability (how often the gate was taken and how many parked workers
/// had to be woken), not part of any algorithm's trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Gate acquisitions: one per non-inline [`WorkerPool::run`] outside a
    /// [`WorkerPool::run_program`] block, plus one per such block, however
    /// many phases it runs.
    pub dispatches: u64,
    /// Parked workers woken by phase publications (workers still spinning
    /// when a phase is published cost no wake-up).
    pub wakeups: u64,
}

/// A persistent pool of worker threads executing deterministic chunk maps.
///
/// Construct one per [`Engine`](crate::Engine) (done automatically), or share
/// one across engines via [`EngineConfig`](crate::EngineConfig)`::pool` /
/// [`Engine::pool`](crate::Engine::pool) — a pool is only ever *scheduling*
/// state, so sharing it cannot couple two engines' results (see the module
/// docs' determinism argument).
///
/// Dropping the pool (its last `Arc`, in engine use) shuts the workers down
/// and joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serialises [`WorkerPool::run`] calls from different user threads.
    gate: Mutex<()>,
}

impl WorkerPool {
    /// Creates a pool with `threads` executors: the calling thread plus
    /// `threads - 1` spawned workers (clamped to `[1, 256]`), with the phase
    /// barrier's spin budget taken from `GOSSIP_SPIN_US` (100 µs when the
    /// executors fit the host's cores, `0` when oversubscribed).
    ///
    /// `WorkerPool::new(1)` spawns nothing and makes [`run`](Self::run)
    /// purely inline — the engine's configuration for small networks.
    /// If the OS refuses a thread, the pool degrades to the workers it got
    /// (results are unaffected; only wall-clock time changes).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::with_spin(threads, spin_us_from_env(threads))
    }

    /// [`WorkerPool::new`] with an explicit spin budget in microseconds.
    fn with_spin(threads: usize, spin_us: u64) -> WorkerPool {
        let threads = threads.clamp(1, 256);
        let shared = Arc::new(Shared {
            owner: AtomicUsize::new(0),
            phase: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            in_phase: AtomicBool::new(false),
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            parking: Mutex::new(()),
            start: Condvar::new(),
            spin: Duration::from_micros(spin_us.min(100_000)),
            dispatches: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        });
        let handles = (1..threads)
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gossip-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i as u64 - 1))
                    .ok()
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            gate: Mutex::new(()),
        }
    }

    /// Number of executors, counting the calling thread: spawned workers + 1.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Cumulative scheduling counters (monotone over the pool's lifetime):
    /// how many times the gate was taken and how many parked workers phase
    /// publications woke. With a shared pool the counts cover every sharer.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            dispatches: self.shared.dispatches.load(Ordering::Relaxed),
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
        }
    }

    /// Executes `task(0), task(1), …, task(tasks - 1)`, each exactly once,
    /// distributed over the pool's workers and the calling thread, and blocks
    /// until all of them finished.
    ///
    /// Task-to-thread assignment is first-come-first-served and **not**
    /// deterministic; callers that need deterministic results must make each
    /// task's effect a pure function of its index (the contract
    /// [`crate::par::for_chunks`] builds on top of this).
    ///
    /// Calls from different threads serialise on an internal gate: a
    /// non-inline `run` is a [`WorkerPool::run_program`] block of one phase,
    /// so inside a block, on the block's thread, it skips the gate.
    ///
    /// # Panics
    ///
    /// If any task panics, `run` panics after all executors quiesced; the
    /// pool itself remains usable. A multi-task `run` from inside one of this
    /// pool's own tasks panics. A task may run another pool, as long as no
    /// other thread runs this pool back for it (see the module docs).
    pub fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if self.handles.is_empty() || tasks == 1 {
            // Inline fast path: nothing to hand off. Panics propagate as-is.
            for i in 0..tasks {
                task(i);
            }
            return;
        }
        self.run_program(|| self.phase(tasks, task));
    }

    /// Runs `program` holding the pool's gate, with this thread marked as its
    /// owner: every [`WorkerPool::run`] this thread makes inside `program` —
    /// directly or through engine round primitives — skips the gate, and the
    /// block counts as one dispatch in [`PoolStats`].
    ///
    /// Results are bit-identical to calling `program` without the block (its
    /// phases are the same phases a plain `run` publishes). Nested
    /// `run_program` calls on the same pool from the block's thread just run
    /// their program.
    ///
    /// Calls from different threads serialise on the same gate as
    /// [`WorkerPool::run`]: a second thread blocks until the block ends.
    ///
    /// # Panics
    ///
    /// Worker panics inside a phase are forwarded by that phase's `run`; a
    /// panic unwinding out of `program` releases the gate and the owner mark
    /// and continues unwinding. A call from one of this pool's workers panics
    /// instead of waiting on the gate.
    pub fn run_program<R>(&self, program: impl FnOnce() -> R) -> R {
        let token = thread_token();
        // Only the owner thread can ever observe its own token here, so the
        // relaxed load is enough.
        if self.handles.is_empty() || self.shared.owner.load(Ordering::Relaxed) == token {
            // No workers to keep waiting, or this thread holds the gate.
            return program();
        }
        assert!(
            WORKER_OF.with(Cell::get) != Arc::as_ptr(&self.shared) as usize,
            "WorkerPool run from inside one of its own tasks"
        );
        let _gate = lock(&self.gate);
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        /// Clears the owner mark when the block ends, by unwinding too.
        struct Owner<'p>(&'p AtomicUsize);
        impl Drop for Owner<'_> {
            fn drop(&mut self) {
                self.0.store(0, Ordering::Relaxed);
            }
        }
        self.shared.owner.store(token, Ordering::Relaxed);
        let _owner = Owner(&self.shared.owner);
        program()
    }

    /// Runs one phase (see the module docs): publish the job, claim tasks
    /// alongside the participants, and wait for the phase to quiesce. The
    /// caller holds the gate.
    fn phase(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        assert!(
            !shared.in_phase.swap(true, Ordering::Relaxed),
            "WorkerPool run from inside one of its own tasks"
        );
        // A 2-task phase on an 8-worker pool involves 1 worker.
        let participants = self.handles.len().min(tasks - 1);
        // SAFETY (lifetime erasure): the quiescence wait below, which also
        // runs on unwind, keeps every dereference within this call, while
        // `task` is borrowed.
        let task_ptr = unsafe { TaskPtr::erase(task) };
        // SAFETY: no worker reads the cell now. A worker reads it only as a
        // participant of the phase its packed word names; every participant
        // of the previous phase retired before that phase's owner returned,
        // and this phase's word is not stored yet.
        unsafe {
            *shared.job.get() = Some(Job {
                task: task_ptr,
                tasks,
            });
        }
        shared.remaining.store(participants, Ordering::Relaxed);
        shared.cursor.store(0, Ordering::Relaxed);
        // A phase whose every task panicked leaves the flag set: the owner's
        // own task unwound before it could read it.
        shared.panicked.store(false, Ordering::Relaxed);
        self.publish(participants as u64);

        /// Waits until every participant retired the phase, then ends it —
        /// in `Drop`, so both hold when the owner's own task panics too.
        struct Quiesce<'p>(&'p Shared);
        impl Drop for Quiesce<'_> {
            fn drop(&mut self) {
                let deadline = Instant::now() + self.0.spin;
                while self.0.remaining.load(Ordering::Acquire) != 0 {
                    if Instant::now() < deadline {
                        for _ in 0..64 {
                            std::hint::spin_loop();
                        }
                    } else {
                        // The owner never parks (participants finish in
                        // bounded time); yielding keeps an oversubscribed
                        // host making progress.
                        std::thread::yield_now();
                    }
                }
                self.0.in_phase.store(false, Ordering::Relaxed);
            }
        }
        let quiesce = Quiesce(shared);
        claim(shared, tasks, task);
        drop(quiesce);

        if shared.panicked.load(Ordering::Relaxed) {
            panic!("gossip worker thread panicked");
        }
    }

    /// Stores the next phase word and wakes the parked workers. The `SeqCst`
    /// store and the `SeqCst` `sleepers` read pair with a worker's `SeqCst`
    /// registration and re-check in [`wait_for_phase`]: either the re-check
    /// sees the new phase, or this read sees the sleeper and notifies. The
    /// empty lock/unlock serialises with a worker that checked the phase
    /// under the mutex but has not yet entered `wait`.
    fn publish(&self, participants: u64) {
        let shared = &*self.shared;
        // Only the gate holder (or `Drop`) writes the word, so the
        // load-then-store does not race.
        let next = phase_of(shared.phase.load(Ordering::Relaxed)) + 1;
        shared
            .phase
            .store(next << PHASE_SHIFT | participants, Ordering::SeqCst);
        let sleepers = shared.sleepers.load(Ordering::SeqCst);
        if sleepers > 0 {
            drop(lock(&shared.parking));
            shared.start.notify_all();
            shared.wakeups.fetch_add(sleepers as u64, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // The last phase: every worker observes it and exits.
        self.publish(EXIT);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs `task` on every index this executor claims from the cursor.
fn claim(shared: &Shared, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
    loop {
        let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            return;
        }
        task(i);
    }
}

/// A worker's life: wait for each phase, run its tasks if `id` participates,
/// retire it; exit on the [`EXIT`] phase. A worker that sat a phase out may
/// lag and observe a *later* phase next — safe, because the owner cannot
/// return from a phase (and publish the next) until every listed participant
/// retired it, so a phase this worker participates in can never be skipped
/// over, and the packed word always pairs the observed phase with *its own*
/// participant count.
fn worker_loop(shared: &Shared, id: u64) {
    WORKER_OF.with(|t| t.set(shared as *const Shared as usize));
    let mut seen = 0;
    loop {
        let packed = wait_for_phase(shared, seen);
        seen = phase_of(packed);
        let participants = participants_of(packed);
        if participants == EXIT {
            return;
        }
        if id >= participants {
            // Never touches the job or `remaining`, so the owner does not
            // wait for this worker — which is why it may lag.
            continue;
        }
        // SAFETY: the acquire-ordered observation of the packed word happens
        // after the owner's job publication for exactly this phase
        // (participation was decided from the same word, so this cannot be a
        // stale pairing), and the owner cannot rewrite the cell, or return
        // and end the closure's borrow, before this participant decrements
        // `remaining` below.
        let (task, tasks) = unsafe {
            let job = (*shared.job.get()).expect("phase published without a job");
            (&*job.task.0, job.tasks)
        };
        if catch_unwind(AssertUnwindSafe(|| claim(shared, tasks, task))).is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        shared.remaining.fetch_sub(1, Ordering::Release);
    }
}

/// Waits until the phase counter moves past `seen` (a phase number, not a
/// packed word), and returns the new **packed** word — phase and participant
/// count observed as one consistent pair.
///
/// It spins and yields within the budget first; the yield matters on an
/// oversubscribed host, where the owner needs the core to make the progress
/// this worker waits for. Then it parks: register as a sleeper, re-check,
/// and wait on `start` (see [`WorkerPool::publish`] for why no wake-up is
/// lost).
fn wait_for_phase(shared: &Shared, seen: u64) -> u64 {
    let deadline = Instant::now() + shared.spin;
    loop {
        let p = shared.phase.load(Ordering::Acquire);
        if phase_of(p) != seen {
            return p;
        }
        if Instant::now() >= deadline {
            break;
        }
        for _ in 0..64 {
            std::hint::spin_loop();
        }
        std::thread::yield_now();
    }
    let unmoved = || phase_of(shared.phase.load(Ordering::SeqCst)) == seen;
    shared.sleepers.fetch_add(1, Ordering::SeqCst);
    if unmoved() {
        let mut parked = lock(&shared.parking);
        while unmoved() {
            parked = shared
                .start
                .wait(parked)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
    shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    shared.phase.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        for tasks in [0usize, 1, 2, 3, 4, 7, 64] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(tasks, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "task {i} ({tasks} tasks)");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        for round in 0..500u64 {
            pool.run(5, &|i| {
                total.fetch_add(round + i as u64, Ordering::Relaxed);
            });
        }
        // Σ_round (5·round + 0+1+2+3+4)
        let expected: u64 = (0..500).map(|r| 5 * r + 10).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        pool.run(4, &|_| assert_eq!(std::thread::current().id(), caller));
    }

    #[test]
    fn more_tasks_than_threads_and_vice_versa() {
        for (threads, tasks) in [(2, 100), (8, 3), (16, 16)] {
            let pool = WorkerPool::new(threads);
            let sum = AtomicU64::new(0);
            pool.run(tasks, &|i| {
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
            assert_eq!(
                sum.load(Ordering::Relaxed),
                (tasks as u64) * (tasks as u64 + 1) / 2
            );
        }
    }

    #[test]
    fn small_jobs_on_a_big_pool_complete_repeatedly() {
        // Exercises the participant prefix: 2-task jobs on a 16-executor
        // pool leave 14 workers out of each phase, across many back-to-back
        // phases (so workers alternate between joining and sitting phases
        // out).
        let pool = WorkerPool::new(16);
        let total = AtomicU64::new(0);
        for round in 0..300u64 {
            let tasks = 2 + (round % 3) as usize; // 2, 3, 4 tasks
            pool.run(tasks, &|i| {
                total.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
        }
        // Tasks t = 2 + r % 3 add 1 + 2 + … + t.
        let expected: u64 = (0..300u64).map(|r| (2 + r % 3) * (3 + r % 3) / 2).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn worker_panic_is_forwarded_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 5 {
                    panic!("task 5 exploded");
                }
            });
        }));
        assert!(attempt.is_err(), "panic was swallowed");
        // The pool still works after a panicked job.
        let ok = AtomicUsize::new(0);
        pool.run(8, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn drop_joins_workers_without_hanging() {
        for _ in 0..20 {
            let pool = WorkerPool::new(4);
            pool.run(4, &|_| {});
            drop(pool); // must not hang or leak
        }
    }

    #[test]
    fn tasks_can_borrow_the_callers_stack() {
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let partial: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        pool.run(4, &|i| {
            let chunk = &data[i * 250..(i + 1) * 250];
            partial[i].store(chunk.iter().sum(), Ordering::Relaxed);
        });
        let total: u64 = partial.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    // --- run_program blocks ----------------------------------------------

    /// Phase dispatches inside a program execute every task exactly once —
    /// at both ends of the spin spectrum (0 = park immediately, large =
    /// never park within a phase gap).
    #[test]
    fn program_phases_execute_every_task_exactly_once() {
        for spin_us in [0u64, 5_000] {
            let pool = WorkerPool::with_spin(4, spin_us);
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            pool.run_program(|| {
                for _ in 0..16 {
                    pool.run(4, &|i| {
                        for h in &hits[i * 16..(i + 1) * 16] {
                            h.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            let counts: Vec<usize> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
            assert_eq!(counts, vec![16; 64], "spin {spin_us}µs");
        }
    }

    #[test]
    fn program_matches_looped_dispatches() {
        // The same job sequence, in a block and looped, must produce
        // identical results (the task effects are pure functions of the index).
        let run_once = |in_block: bool| -> Vec<u64> {
            let pool = WorkerPool::with_spin(4, 50);
            let cells: Vec<AtomicU64> = (0..128).map(|_| AtomicU64::new(0)).collect();
            let rounds = || {
                for round in 0..50u64 {
                    pool.run(8, &|i| {
                        for c in &cells[i * 16..(i + 1) * 16] {
                            let old = c.load(Ordering::Relaxed);
                            c.store(old.rotate_left(5) ^ (round + i as u64), Ordering::Relaxed);
                        }
                    });
                }
            };
            if in_block {
                pool.run_program(rounds);
            } else {
                rounds();
            }
            cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        assert_eq!(run_once(true), run_once(false));
    }

    #[test]
    fn program_counts_one_dispatch_for_many_phases() {
        let pool = WorkerPool::new(4);
        let before = pool.stats();
        pool.run_program(|| {
            for _ in 0..32 {
                pool.run(4, &|_| {});
            }
        });
        assert_eq!(pool.stats().dispatches - before.dispatches, 1, "one block");
        // The same schedule looped pays one dispatch per round.
        let before = pool.stats();
        for _ in 0..32 {
            pool.run(4, &|_| {});
        }
        assert_eq!(pool.stats().dispatches - before.dispatches, 32);
    }

    #[test]
    fn program_is_reentrant_on_the_owner_thread() {
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        pool.run_program(|| {
            pool.run_program(|| {
                pool.run(6, &|i| {
                    sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 21);
        // The block ended: a fresh plain run still works.
        pool.run(6, &|i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn program_phases_respect_the_participation_prefix() {
        // 2-task phases on an 8-executor pool: 7 workers are resident but
        // only 1 participates per phase; the rest must sit phases out
        // without corrupting anything, across many phases.
        let pool = WorkerPool::new(8);
        let total = AtomicU64::new(0);
        pool.run_program(|| {
            for round in 0..200u64 {
                let tasks = 2 + (round % 3) as usize;
                pool.run(tasks, &|i| {
                    total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
            }
        });
        // Tasks t = 2 + r % 3 add 1 + 2 + … + t.
        let expected: u64 = (0..200u64).map(|r| (2 + r % 3) * (3 + r % 3) / 2).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    /// Regression for the lagging-non-participant race: a worker that sat
    /// out phase N may only observe the phase word again after phase N+1 is
    /// published. Because phase and participant count travel in one packed
    /// word, it must join N+1 exactly once (never phase N's wake-up paired
    /// with N+1's participant count, which double-ran the phase and
    /// underflowed `remaining`). Alternating minimal and full participation
    /// maximises sat-out→participant transitions; spin 0 parks workers
    /// immediately, making them lag as far as possible.
    #[test]
    fn lagging_nonparticipants_rejoin_exactly_once() {
        for spin_us in [0u64, 5_000] {
            let pool = WorkerPool::with_spin(8, spin_us);
            let total = AtomicU64::new(0);
            pool.run_program(|| {
                for round in 0..400u64 {
                    // 2 tasks (1 participant of 7 workers), then 9 tasks
                    // (all 7) — every worker 1..7 re-joins right after
                    // sitting a phase out.
                    let tasks = if round % 2 == 0 { 2 } else { 9 };
                    pool.run(tasks, &|i| {
                        total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                    });
                }
            });
            let expected: u64 = (0..400u64).map(|r| if r % 2 == 0 { 3 } else { 45 }).sum();
            assert_eq!(total.load(Ordering::Relaxed), expected, "spin {spin_us}µs");
        }
    }

    #[test]
    fn single_task_and_empty_dispatches_inside_a_program_run_inline() {
        let pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        pool.run_program(|| {
            pool.run(0, &|_| panic!("no tasks, no calls"));
            pool.run(1, &|_| assert_eq!(std::thread::current().id(), caller));
        });
    }

    #[test]
    fn worker_panic_in_a_phase_is_forwarded_and_session_survives() {
        let pool = WorkerPool::new(4);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            pool.run_program(|| {
                pool.run(8, &|i| {
                    if i == 5 {
                        panic!("phase task 5 exploded");
                    }
                });
            });
        }));
        assert!(attempt.is_err(), "phase panic was swallowed");
        // The block unwound cleanly: the pool still works, in a block or not.
        let ok = AtomicUsize::new(0);
        pool.run_program(|| {
            pool.run(8, &|_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        pool.run(8, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 16);
    }

    /// When every task of a phase panics, the owner's own task unwinds out
    /// of the dispatch after a worker's task has set the panic flag. A clean
    /// phase after it must not report that stale panic.
    #[test]
    fn a_clean_phase_after_an_all_panicking_phase_does_not_panic() {
        let pool = WorkerPool::new(4);
        let ok = AtomicUsize::new(0);
        pool.run_program(|| {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, &|_| panic!("every task panics"));
            }));
            assert!(attempt.is_err(), "phase panic was swallowed");
            pool.run(8, &|_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    /// The executor of a 2-task phase that makes the nested call: the thread
    /// that called `run`, or the pool's one worker.
    #[derive(Clone, Copy, PartialEq)]
    enum Nester {
        Owner,
        Worker,
    }

    /// Runs a 2-task phase of `pool` whose task on `nester` calls `nest`,
    /// while the other task waits for that call, so each executor claims one.
    fn nest_in_a_task(pool: &WorkerPool, nester: Nester, nest: &(dyn Fn() + Sync)) {
        let owner = std::thread::current().id();
        let nesting = AtomicBool::new(false);
        pool.run(2, &|_| {
            let on_owner = std::thread::current().id() == owner;
            if on_owner == (nester == Nester::Owner) {
                nesting.store(true, Ordering::SeqCst);
                nest();
            } else {
                while !nesting.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
        });
    }

    /// Runs `case` on two 2-executor pools `a` and `b`, once plainly and once
    /// inside an `a.run_program` block, and asserts that it panics. It runs
    /// on a helper thread, so a deadlock fails after 20 s instead of
    /// hanging. Both pools must work afterwards, and a task of one may still
    /// run the other.
    fn assert_nested_call_panics(case: fn(&WorkerPool, &WorkerPool)) {
        for in_block in [false, true] {
            let pools = Arc::new((WorkerPool::new(2), WorkerPool::new(2)));
            let (done, finished) = std::sync::mpsc::channel();
            let helper = {
                let pools = Arc::clone(&pools);
                std::thread::spawn(move || {
                    let (a, b) = (&pools.0, &pools.1);
                    let nested = catch_unwind(AssertUnwindSafe(|| match in_block {
                        true => a.run_program(|| case(a, b)),
                        false => case(a, b),
                    }));
                    let _ = done.send(nested.is_err());
                })
            };
            let refused = finished
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("a nested call deadlocked (in a block: {in_block})"));
            assert!(refused, "not refused (in a block: {in_block})");
            helper.join().expect("the helper thread panicked");
            let (a, b) = (&pools.0, &pools.1);
            let total = AtomicU64::new(0);
            a.run_program(|| {
                a.run(8, &|_| {
                    b.run(3, &|i| {
                        total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                    });
                });
            });
            assert_eq!(total.load(Ordering::Relaxed), 8 * 6);
        }
    }

    /// A `run` from a task on the thread that called the outer `run` would
    /// wait on the gate that thread holds, or publish a phase over the one
    /// in flight; so would one that comes back through another pool's `run`
    /// on the same thread. Both must panic.
    #[test]
    fn a_run_nested_in_a_program_task_panics() {
        assert_nested_call_panics(|a, _| {
            nest_in_a_task(a, Nester::Owner, &|| a.run(2, &|_| {}));
        });
        assert_nested_call_panics(|a, b| {
            nest_in_a_task(a, Nester::Owner, &|| {
                nest_in_a_task(b, Nester::Owner, &|| a.run(2, &|_| {}));
            });
        });
    }

    /// A `run` or `run_program` from a worker's task would wait on the gate,
    /// which the phase's owner holds while it waits on the worker; so would
    /// one that comes back through another pool's `run` on the worker. All
    /// must panic, forwarded by the owner.
    #[test]
    fn a_run_nested_in_a_worker_task_panics() {
        assert_nested_call_panics(|a, _| {
            nest_in_a_task(a, Nester::Worker, &|| a.run(2, &|_| {}));
        });
        assert_nested_call_panics(|a, _| {
            nest_in_a_task(a, Nester::Worker, &|| a.run_program(|| ()));
        });
        assert_nested_call_panics(|a, b| {
            nest_in_a_task(a, Nester::Worker, &|| {
                nest_in_a_task(b, Nester::Owner, &|| a.run(2, &|_| {}));
            });
        });
    }

    #[test]
    fn empty_program_is_a_clean_session() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.run_program(|| 7), 7);
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn program_on_a_single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let before = pool.stats();
        let out = pool.run_program(|| {
            let caller = std::thread::current().id();
            pool.run(4, &|_| assert_eq!(std::thread::current().id(), caller));
            11
        });
        assert_eq!(out, 11);
        assert_eq!(pool.stats(), before, "inline work must not count");
    }

    #[test]
    fn programs_from_two_threads_serialise_on_the_gate() {
        let pool = std::sync::Arc::new(WorkerPool::new(4));
        let total = std::sync::Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for _ in 0..2 {
            let pool = std::sync::Arc::clone(&pool);
            let total = std::sync::Arc::clone(&total);
            joins.push(std::thread::spawn(move || {
                pool.run_program(|| {
                    for _ in 0..50 {
                        pool.run(4, &|i| {
                            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    }
                });
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 2 * 50 * 10);
    }

    #[test]
    fn drop_joins_workers_after_sessions() {
        for spin_us in [0u64, 100] {
            let pool = WorkerPool::with_spin(4, spin_us);
            pool.run_program(|| {
                pool.run(4, &|_| {});
            });
            drop(pool); // must not hang or leak
        }
    }

    #[test]
    fn stats_count_wakeups_per_dispatch() {
        // With no spin budget every worker parks; a phase wakes them all.
        let pool = WorkerPool::with_spin(4, 0);
        while pool.shared.sleepers.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        let before = pool.stats();
        pool.run(4, &|_| {});
        let delta_w = pool.stats().wakeups - before.wakeups;
        assert_eq!(delta_w, 3, "a 4-task job wakes the 3 parked workers");
        // Inline runs cost nothing.
        let before = pool.stats();
        pool.run(1, &|_| {});
        assert_eq!(pool.stats(), before);
    }
}
