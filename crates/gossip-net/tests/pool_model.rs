//! Exhaustive interleaving model of the worker pool's phase barrier.
//!
//! `src/pool.rs` synchronises its workers with a handful of atomics, one
//! mutex and one condition variable, and its one `unsafe` idea — a job
//! closure whose lifetime is erased while workers run it — is sound only if
//! that barrier is. A stress test samples a few schedules; this file checks
//! **every** schedule of a small configuration instead.
//!
//! A phase's owner and `W` workers are written as a state machine with one
//! step per atomic operation of `pool.rs`; each step's variant names the
//! operation it models. Steps are sequentially consistent: every atomic the
//! barrier's correctness rests on is `SeqCst`, or a release/acquire pair
//! whose only job is to order the plain job-cell accesses, which the model
//! tracks explicitly. A depth-first search with a visited set walks every
//! interleaving for `W ∈ {2, 3}` workers and three phases, once for every
//! participant sequence in `{1..W}³` (a phase with `p` participants has
//! `p + 1` tasks, so the owner claims tasks too), and checks that
//!
//! - each task of a phase runs exactly once before the owner returns from
//!   that phase;
//! - no worker still holds a phase's job after the owner has returned from
//!   it;
//! - a worker reads only the job of the phase it joined;
//! - `remaining` never underflows;
//! - every terminal state has the owner done and every worker out of the
//!   phase loop, so no wake-up is lost;
//! - the owner reports a panic from a phase exactly when that phase's tasks
//!   panicked.
//!
//! At two workers each participant sequence also runs under every pattern
//! of phases whose tasks all panic; at three, which has some 3 million
//! states, the phases are clean. In a panicking phase each executor stops
//! claiming after its first task, so the owner's own task unwinds to the
//! quiescence guard while workers flag theirs.
//!
//! Three simplifications keep the state space small, and none of them hides
//! a schedule:
//!
//! - A load that finds the phase counter unchanged changes nothing, so the
//!   spin loop's loads are one step.
//! - Every critical section on the mutex is a single step: the owner's is
//!   empty, and a worker's is one load followed by either `wait` (which
//!   releases the mutex atomically) or the unlock. Holding the mutex only
//!   delays the other threads' own critical sections, so an interleaving
//!   inside one is equivalent to one that runs it whole.
//! - Spurious condvar wake-ups are left out. A woken worker re-checks its
//!   predicate under the mutex, so a spurious wake-up only repeats steps the
//!   model already has, and leaving them out keeps a lost wake-up a terminal
//!   state rather than a cycle.
//!
//! The model starts where `WorkerPool::new` leaves the pool, with every
//! worker waiting for phase 1. Three phases follow, each published by a
//! `run`; the gate orders the phases of different callers, so one owner
//! stands for them all, and a `run_program` block only skips the gate. Then
//! the pool's `Drop` publishes the exit phase and joins the workers.
//!
//! Three known-bad schedules must be rejected, which shows the model can see
//! the failures it is meant to catch:
//!
//! - [`Protocol::SplitCount`], the barrier before the phase word was packed:
//!   the participant count lives in its own atomic, and a worker loads it
//!   after it observes the phase, so a worker that lags behind can pair an
//!   old phase with a newer count;
//! - [`Protocol::SleepersFirst`], an owner that reads `sleepers` before it
//!   publishes the phase word, so a worker can register, re-check and park
//!   in between and never be woken;
//! - [`Protocol::NoPanicReset`], a publication that leaves the panic flag
//!   alone: when a phase's owner unwinds from its own task, a flag a worker
//!   set survives into the next, clean phase.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Phases each exploration runs.
const PHASES: usize = 3;
/// Most workers a configuration has.
const MAX_WORKERS: usize = 3;
/// The exit phase's participant count.
const EXIT: u8 = u8::MAX;

/// Which barrier the model runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Protocol {
    /// The barrier `pool.rs` implements.
    Pool,
    /// Known bad: the participant count is a separate atomic, loaded after
    /// the phase is observed.
    SplitCount,
    /// Known bad: the owner reads `sleepers` before it stores the phase word.
    SleepersFirst,
    /// Known bad: publication does not reset the panic flag, and only the
    /// owner's read after quiescence does.
    NoPanicReset,
}

/// The packed phase word: the phase counter and that phase's participant
/// count, written and read as one atomic value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
struct Word {
    phase: u8,
    participants: u8,
}

/// What the owner does next.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Owner {
    /// `*job.get() = Some(job)`.
    WriteJob,
    /// `remaining.store(participants)`.
    StoreRemaining,
    /// `cursor.store(0)`.
    StoreCursor,
    /// `panicked.store(false)`.
    ResetPanicked,
    /// `SplitCount` only: `participants.store(participants)`.
    StoreCount,
    /// `publish`: `phase.store(packed)`, for a phase or for the exit phase.
    StoreWord,
    /// `publish`: `sleepers.load()`.
    ReadSleepers,
    /// `publish`: `drop(lock(&parking))`, the empty critical section before
    /// the notify.
    Lock,
    /// `publish`: `start.notify_all()`.
    Notify,
    /// `cursor.fetch_add(1)`, then the task if the index is in range. A
    /// panicking task unwinds to the quiescence guard.
    Claim,
    /// The quiescence guard: `remaining.load() == 0`, then return, or go on
    /// unwinding. A clean return reads `panicked`.
    Quiesce,
    /// `Drop`: `handle.join()` for every worker.
    Join,
    Done,
}

/// What a worker does next.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Worker {
    /// `phase.load()` in the spin loop, or after unregistering. A moved
    /// counter returns the word, and the worker exits, joins the phase or
    /// sits it out by the word's participant count.
    Check,
    /// `sleepers.fetch_add(1)`.
    Register,
    /// The re-check `phase.load()` after registering.
    Recheck,
    /// `sleepers.fetch_sub(1)` after the re-check saw a new phase.
    Retract,
    /// The locked re-check: `lock(&parking)`, `phase.load()`, then
    /// `start.wait()` if the phase has not moved, else the unlock.
    Lock,
    /// Parked in `start.wait()` until a notify.
    Waiting,
    /// A notified waiter: `wait()` re-takes the mutex, then the locked
    /// re-check runs again.
    Relock,
    /// `sleepers.fetch_sub(1)` after the locked re-check saw a new phase.
    Leave,
    /// `SplitCount` only: `participants.load()`.
    LoadCount,
    /// `*job.get()`: take the phase's job.
    ReadJob,
    /// `cursor.fetch_add(1)`, then the task if the index is in range. A
    /// panicking task ends the claim loop, and `catch_unwind` returns.
    Claim,
    /// `panicked.store(true)` after a task panicked.
    Flag,
    /// `remaining.fetch_sub(1)`.
    Retire,
    /// Returned from `worker_loop`.
    Exited,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct WorkerState {
    pc: Worker,
    /// The phase counter this worker last observed.
    seen: u8,
    /// The phase whose job this worker holds, or 0.
    held: u8,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct State {
    owner: Owner,
    /// Phases the owner has returned from.
    done: u8,
    /// Whether the owner's `sleepers` read found a sleeper, until it has
    /// notified.
    notify: bool,
    /// The job cell: the phase whose job it holds, or 0.
    job: u8,
    remaining: u8,
    cursor: u8,
    word: Word,
    /// `SplitCount`'s separate participant count.
    count: u8,
    sleepers: u8,
    panicked: bool,
    /// Whether the owner's own task panicked in the live phase.
    unwinding: bool,
    /// The phase the owner is inside (from its job write to its return), or
    /// 0: the only phase whose job may be held.
    live: u8,
    /// Which tasks of the live phase have run, one bit each.
    runs: u8,
    workers: [WorkerState; MAX_WORKERS],
}

/// One exploration: a protocol, a worker count, a participant sequence and
/// the phases whose tasks all panic.
struct Model {
    protocol: Protocol,
    workers: usize,
    participants: [u8; PHASES],
    panics: [bool; PHASES],
    visited: HashSet<State, BuildHasherDefault<Fx>>,
}

impl Model {
    fn tasks(&self, phase: u8) -> u8 {
        self.participants[phase as usize - 1] + 1
    }

    fn panics(&self, phase: u8) -> bool {
        self.panics[phase as usize - 1]
    }

    /// The first step of `publish`.
    fn publish(&self) -> Owner {
        match self.protocol {
            Protocol::SleepersFirst => Owner::ReadSleepers,
            _ => Owner::StoreWord,
        }
    }

    fn initial(&self) -> State {
        let waiting = WorkerState {
            pc: Worker::Check,
            seen: 0,
            held: 0,
        };
        State {
            owner: Owner::WriteJob,
            done: 0,
            notify: false,
            job: 0,
            remaining: 0,
            cursor: 0,
            word: Word::default(),
            count: 0,
            sleepers: 0,
            panicked: false,
            unwinding: false,
            live: 0,
            runs: 0,
            workers: [waiting; MAX_WORKERS],
        }
    }

    /// Walks every state reachable from `s`; on a violation, returns it with
    /// the steps that lead there.
    fn explore(&mut self, s: State) -> Result<(), String> {
        if !self.visited.insert(s) {
            return Ok(());
        }
        let mut next = Vec::new();
        self.owner_step(&s, &mut next)?;
        for w in 0..self.workers {
            self.worker_steps(&s, w, &mut next)?;
        }
        if next.is_empty() {
            let exited = s.workers[..self.workers]
                .iter()
                .all(|w| w.pc == Worker::Exited);
            if s.owner != Owner::Done || !exited {
                return Err(format!("deadlock: no step is enabled in {s:?}"));
            }
        }
        for (thread, t) in next {
            self.explore(t)
                .map_err(|e| format!("{}\n{e}", step(&s, thread)))?;
        }
        Ok(())
    }

    /// The owner's step from `s`, unless it is blocked.
    fn owner_step(&self, s: &State, out: &mut Vec<(Thread, State)>) -> Result<(), String> {
        let mut t = *s;
        let phase = s.done + 1;
        let closing = s.done as usize == PHASES;
        // After the wake-up: claim tasks, or wait for the workers to leave.
        let after_wake = if closing { Owner::Join } else { Owner::Claim };
        t.owner = match s.owner {
            Owner::WriteJob => {
                t.job = phase;
                t.live = phase;
                match self.protocol {
                    Protocol::SplitCount => Owner::StoreCount,
                    _ => Owner::StoreRemaining,
                }
            }
            Owner::StoreCount => {
                t.count = self.participants[s.done as usize];
                Owner::StoreRemaining
            }
            Owner::StoreRemaining => {
                t.remaining = self.participants[s.done as usize];
                Owner::StoreCursor
            }
            Owner::StoreCursor => {
                t.cursor = 0;
                match self.protocol {
                    Protocol::NoPanicReset => Owner::StoreWord,
                    _ => Owner::ResetPanicked,
                }
            }
            Owner::ResetPanicked => {
                t.panicked = false;
                self.publish()
            }
            Owner::StoreWord => {
                t.word = Word {
                    phase,
                    participants: match self.protocol {
                        _ if closing => EXIT,
                        Protocol::SplitCount => 0,
                        _ => self.participants[s.done as usize],
                    },
                };
                match self.protocol {
                    Protocol::SleepersFirst if s.notify => Owner::Lock,
                    Protocol::SleepersFirst => after_wake,
                    _ => Owner::ReadSleepers,
                }
            }
            Owner::ReadSleepers => {
                t.notify = s.sleepers > 0;
                match self.protocol {
                    Protocol::SleepersFirst => Owner::StoreWord,
                    _ if t.notify => Owner::Lock,
                    _ => after_wake,
                }
            }
            Owner::Lock => Owner::Notify,
            Owner::Notify => {
                t.notify = false;
                for w in &mut t.workers[..self.workers] {
                    if w.pc == Worker::Waiting {
                        w.pc = Worker::Relock;
                    }
                }
                after_wake
            }
            Owner::Claim => {
                let i = s.cursor;
                t.cursor += 1;
                if i >= self.tasks(phase) {
                    Owner::Quiesce
                } else {
                    run_task(&mut t, i, phase, "the owner")?;
                    t.unwinding = self.panics(phase);
                    if t.unwinding {
                        Owner::Quiesce
                    } else {
                        Owner::Claim
                    }
                }
            }
            Owner::Quiesce if s.remaining == 0 => {
                let reported = s.unwinding || s.panicked;
                if self.protocol == Protocol::NoPanicReset && !s.unwinding {
                    // `panicked.swap(false)`.
                    t.panicked = false;
                }
                if reported != self.panics(phase) {
                    return Err(format!(
                        "the owner's return from phase {phase} reports a panic: {reported}"
                    ));
                }
                let all = (1u8 << self.tasks(phase)) - 1;
                if !self.panics(phase) && s.runs != all {
                    return Err(format!(
                        "the owner returns from phase {phase} with tasks {:#b} of {all:#b} run",
                        s.runs
                    ));
                }
                if let Some(w) = s.workers.iter().position(|w| w.held == phase) {
                    return Err(format!(
                        "worker {w} still holds the job of phase {phase} when the owner returns"
                    ));
                }
                t.live = 0;
                t.runs = 0;
                t.unwinding = false;
                t.done += 1;
                if t.done as usize == PHASES {
                    self.publish()
                } else {
                    Owner::WriteJob
                }
            }
            Owner::Join
                if s.workers[..self.workers]
                    .iter()
                    .all(|w| w.pc == Worker::Exited) =>
            {
                Owner::Done
            }
            Owner::Quiesce | Owner::Join | Owner::Done => return Ok(()),
        };
        out.push((None, t));
        Ok(())
    }

    /// Worker `w`'s step from `s`, unless it is blocked.
    fn worker_steps(
        &self,
        s: &State,
        w: usize,
        out: &mut Vec<(Thread, State)>,
    ) -> Result<(), String> {
        let me = s.workers[w];
        let moved = s.word.phase != me.seen;
        let mut t = *s;
        let mut next = me;
        next.pc = match me.pc {
            Worker::Check if moved => {
                next.seen = s.word.phase;
                match s.word.participants {
                    EXIT => Worker::Exited,
                    _ if self.protocol == Protocol::SplitCount => Worker::LoadCount,
                    p if (w as u8) < p => Worker::ReadJob,
                    _ => Worker::Check,
                }
            }
            Worker::Check => Worker::Register,
            Worker::Register => {
                t.sleepers += 1;
                Worker::Recheck
            }
            Worker::Recheck if moved => Worker::Retract,
            Worker::Recheck => Worker::Lock,
            Worker::Retract | Worker::Leave => {
                t.sleepers -= 1;
                Worker::Check
            }
            Worker::Lock | Worker::Relock if moved => Worker::Leave,
            Worker::Lock | Worker::Relock => Worker::Waiting,
            Worker::LoadCount => {
                if (w as u8) < s.count {
                    Worker::ReadJob
                } else {
                    Worker::Check
                }
            }
            Worker::ReadJob => {
                if s.job != me.seen || s.live != me.seen {
                    return Err(format!(
                        "worker {w} joined phase {} but reads the job of phase {} (live phase {})",
                        me.seen, s.job, s.live
                    ));
                }
                next.held = s.job;
                Worker::Claim
            }
            Worker::Claim => {
                let i = s.cursor;
                t.cursor += 1;
                if i >= self.tasks(me.held) {
                    Worker::Retire
                } else if me.held != s.live {
                    return Err(format!(
                        "worker {w} runs a task of phase {} while phase {} is live",
                        me.held, s.live
                    ));
                } else {
                    run_task(&mut t, i, me.held, &format!("worker {w}"))?;
                    if self.panics(me.held) {
                        Worker::Flag
                    } else {
                        Worker::Claim
                    }
                }
            }
            Worker::Flag => {
                t.panicked = true;
                Worker::Retire
            }
            Worker::Retire => {
                if s.remaining == 0 {
                    return Err(format!("worker {w} underflows `remaining`"));
                }
                t.remaining -= 1;
                next.held = 0;
                Worker::Check
            }
            Worker::Waiting | Worker::Exited => return Ok(()),
        };
        t.workers[w] = next;
        out.push((Some(w), t));
        Ok(())
    }
}

/// Runs task `i` of `phase`: it must not have run before.
fn run_task(t: &mut State, i: u8, phase: u8, who: &str) -> Result<(), String> {
    if t.runs & (1 << i) != 0 {
        return Err(format!(
            "{who} runs task {i} of phase {phase} a second time"
        ));
    }
    t.runs |= 1 << i;
    Ok(())
}

/// Who takes a step: the owner (`None`) or a worker.
type Thread = Option<usize>;

/// Names the step `thread` takes from `s`, for a violation's trace.
fn step(s: &State, thread: Thread) -> String {
    match thread {
        None => format!("owner: {:?}", s.owner),
        Some(w) => format!("worker {w}: {:?} (word {:?})", s.workers[w].pc, s.word),
    }
}

/// A multiply-rotate hasher: the visited set hashes millions of small
/// states, and SipHash would dominate the run time of a debug build.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write_u64(b.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// Explores every participant sequence for `workers` workers in
/// lexicographic order, each under every panic pattern below `patterns`
/// (bit `k` set: every task of phase `k + 1` panics). Returns the number of
/// states visited, or the first violation with its scenario and the steps
/// that reach it.
fn check_all(protocol: Protocol, workers: usize, patterns: u8) -> Result<usize, String> {
    let mut states = 0;
    let w = workers as u8;
    for a in 1..=w {
        for b in 1..=w {
            for c in 1..=w {
                for pattern in 0..patterns {
                    let mut model = Model {
                        protocol,
                        workers,
                        participants: [a, b, c],
                        panics: [0, 1, 2].map(|k| pattern >> k & 1 == 1),
                        visited: HashSet::default(),
                    };
                    let start = model.initial();
                    model.explore(start).map_err(|e| {
                        format!(
                            "participants ({a}, {b}, {c}), panics {:?}: {e}",
                            model.panics
                        )
                    })?;
                    states += model.visited.len();
                }
            }
        }
    }
    Ok(states)
}

#[test]
fn the_pool_barrier_passes_every_interleaving() {
    // Every panic pattern at two workers; clean phases at three, where the
    // participant decision has the most room to go wrong.
    for (workers, patterns) in [(2, 8), (3, 1)] {
        match check_all(Protocol::Pool, workers, patterns) {
            Ok(states) => eprintln!("{workers} workers: {states} states"),
            Err(e) => panic!("{workers} workers: {e}"),
        }
    }
}

#[test]
fn a_count_loaded_after_the_phase_is_rejected() {
    let err = check_all(Protocol::SplitCount, 2, 8).expect_err("stale pairing not found");
    assert!(
        err.starts_with("participants (1, 1, 2)") && err.contains("reads the job of phase"),
        "{err}"
    );
}

#[test]
fn reading_sleepers_before_the_phase_word_is_rejected() {
    let err = check_all(Protocol::SleepersFirst, 2, 8).expect_err("lost wake-up not found");
    assert!(
        err.starts_with("participants (1, 1, 1)") && err.contains("deadlock"),
        "{err}"
    );
}

#[test]
fn a_panic_flag_left_from_an_earlier_phase_is_rejected() {
    let err = check_all(Protocol::NoPanicReset, 2, 8).expect_err("stale panic not found");
    assert!(
        err.starts_with("participants (1, 1, 1)") && err.contains("reports a panic"),
        "{err}"
    );
}
