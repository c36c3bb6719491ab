//! Recorded round schedules replayed as one fused pool dispatch.
//!
//! The paper's algorithms are round-dominated: a tournament schedule runs
//! hundreds of short rounds, and each one dispatched through
//! [`WorkerPool::run`](crate::WorkerPool::run) pays a full wake/quiesce
//! hand-off — the dominant cost at small `n`. A [`RoundProgram`] records the
//! schedule up front (each step holds its closures), and
//! [`Engine::run_program`] replays the whole sequence inside one
//! [`Engine::fused`] block: the workers are woken once, stay resident
//! across every step, and synchronise between rounds on the pool's
//! spin-then-park phase barrier.
//!
//! Replay calls exactly the same engine primitives, in the same order, with
//! the same closures as the hand-written loop would — the program layer adds
//! no scheduling semantics of its own — so results are **bit-identical** to
//! the unfused loop (pinned by `tests/program.rs` against the golden
//! fingerprints, and by the determinism matrix at 1/2/8 threads).
//!
//! Steps with data-dependent structure (an active set computed from a
//! counter-based participation coin, a collect whose samples feed the same
//! step's local update) are recorded with [`RoundProgram::step`], whose body
//! gets `&mut Engine` and full freedom; the sugar methods cover the common
//! dense/sparse pull / push / push-pull / local / collect+local shapes.
//! Sequential work inside a step body runs on the session thread (executor
//! 0) while the workers hold at the barrier.
//!
//! ```
//! use gossip_net::{Engine, EngineConfig, RoundProgram};
//!
//! let mut engine = Engine::from_states(vec![0u64; 64], EngineConfig::with_seed(1));
//! let mut program: RoundProgram<'_, u64> = RoundProgram::new();
//! for _ in 0..8 {
//!     program.pull(|_, &v| v, |_, st, got| *st = (*st).max(got.unwrap_or(0)));
//!     program.local_step(|_, st, _| *st += 1);
//! }
//! engine.run_program(&mut program); // 16 rounds, one pool dispatch
//! assert_eq!(engine.metrics().rounds, 8);
//! ```

use crate::active::ActiveSet;
use crate::engine::Engine;
use crate::message::MessageSize;
use crate::rng::NodeRng;
use crate::NodeId;

/// What shape of round a recorded step performs — descriptive metadata for
/// reporting and debugging; execution is entirely driven by the step's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// A dense or sparse pull round.
    Pull,
    /// A dense or sparse push round.
    Push,
    /// A dense or sparse push–pull round.
    PushPull,
    /// A communication-free local step.
    Local,
    /// A `k`-sample collect feeding a local update.
    Collect,
    /// An arbitrary recorded body (data-dependent structure).
    Custom,
}

impl std::fmt::Display for StepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StepKind::Pull => "pull",
            StepKind::Push => "push",
            StepKind::PushPull => "push-pull",
            StepKind::Local => "local",
            StepKind::Collect => "collect",
            StepKind::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A recorded step body: exclusive access to the engine, inside the session.
type StepBody<'a, S> = Box<dyn FnMut(&mut Engine<S>) + 'a>;

struct Step<'a, S> {
    kind: StepKind,
    body: StepBody<'a, S>,
}

/// A recorded sequence of round descriptors, replayed by
/// [`Engine::run_program`] as one fused pool dispatch.
///
/// Build with the sugar methods ([`pull`](Self::pull), [`push`](Self::push),
/// [`push_pull`](Self::push_pull), [`local_step`](Self::local_step),
/// [`collect_local`](Self::collect_local), and their `_on` active-set
/// variants) or record arbitrary bodies with [`step`](Self::step). A program
/// borrows what its closures capture (`'a`), can be replayed repeatedly, and
/// is engine-agnostic: the same program can run on several engines.
pub struct RoundProgram<'a, S> {
    steps: Vec<Step<'a, S>>,
}

impl<S> std::fmt::Debug for RoundProgram<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundProgram")
            .field("steps", &self.len())
            .field("kinds", &self.kinds().collect::<Vec<_>>())
            .finish()
    }
}

impl<S> Default for RoundProgram<'_, S> {
    fn default() -> Self {
        RoundProgram::new()
    }
}

impl<'a, S> RoundProgram<'a, S> {
    /// An empty program.
    pub fn new() -> Self {
        RoundProgram { steps: Vec::new() }
    }

    /// Number of recorded steps. A step is one schedule entry; most execute
    /// exactly one engine round ([`collect_local`](Self::collect_local)
    /// executes `k` collect rounds plus a local step, custom steps whatever
    /// their body does).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no steps have been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The recorded step kinds, in execution order.
    pub fn kinds(&self) -> impl Iterator<Item = StepKind> + '_ {
        self.steps.iter().map(|s| s.kind)
    }

    /// Records an arbitrary step: `body` runs with exclusive access to the
    /// engine, inside the fused session. Use this for data-dependent
    /// structure the sugar methods cannot express — participation sets drawn
    /// per iteration, collects feeding the same step's update, convergence
    /// bookkeeping on the session thread.
    pub fn step(&mut self, kind: StepKind, body: impl FnMut(&mut Engine<S>) + 'a) -> &mut Self {
        self.steps.push(Step {
            kind,
            body: Box::new(body),
        });
        self
    }

    fn replay(&mut self, engine: &mut Engine<S>) {
        for step in &mut self.steps {
            (step.body)(engine);
        }
    }
}

impl<'a, S: Send> RoundProgram<'a, S> {
    /// Records a dense local step ([`Engine::local_step`]).
    pub fn local_step(
        &mut self,
        f: impl Fn(NodeId, &mut S, &mut NodeRng) + Sync + 'a,
    ) -> &mut Self {
        self.step(StepKind::Local, move |e| e.local_step(&f))
    }

    /// Records a sparse local step ([`Engine::local_step_on`]) over `active`.
    pub fn local_step_on(
        &mut self,
        active: ActiveSet,
        f: impl Fn(NodeId, &mut S, &mut NodeRng) + Sync + 'a,
    ) -> &mut Self {
        self.step(StepKind::Local, move |e| e.local_step_on(&active, &f))
    }
}

impl<'a, S: Clone + Send + Sync> RoundProgram<'a, S> {
    /// Records a dense pull round ([`Engine::pull_round`]).
    pub fn pull<M, F, G>(&mut self, serve: F, apply: G) -> &mut Self
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync + 'a,
        G: Fn(NodeId, &mut S, Option<M>) + Sync + 'a,
    {
        self.step(StepKind::Pull, move |e| {
            e.pull_round(&serve, &apply);
        })
    }

    /// Records a sparse pull round ([`Engine::pull_round_on`]) over `active`.
    pub fn pull_on<M, F, G>(&mut self, active: ActiveSet, serve: F, apply: G) -> &mut Self
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync + 'a,
        G: Fn(NodeId, &mut S, Option<M>) + Sync + 'a,
    {
        self.step(StepKind::Pull, move |e| {
            e.pull_round_on(&active, &serve, &apply);
        })
    }

    /// Records a dense push round ([`Engine::push_round`]).
    pub fn push<M, F, G, H>(&mut self, make: F, fold: G, after: H) -> &mut Self
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync + 'a,
        G: Fn(NodeId, &mut S, M) + Sync + 'a,
        H: Fn(NodeId, &mut S, bool) + Sync + 'a,
    {
        self.step(StepKind::Push, move |e| {
            e.push_round(&make, &fold, &after);
        })
    }

    /// Records a sparse push round ([`Engine::push_round_on`]) over `active`.
    /// The [`SparsePushOutcome`](crate::SparsePushOutcome) is discarded;
    /// record a [`step`](Self::step) to consume it (e.g. to grow the next
    /// round's active set on the session thread).
    pub fn push_on<M, F, G, H>(
        &mut self,
        active: ActiveSet,
        make: F,
        fold: G,
        after: H,
    ) -> &mut Self
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync + 'a,
        G: Fn(NodeId, &mut S, M) + Sync + 'a,
        H: Fn(NodeId, &mut S, bool) + Sync + 'a,
    {
        self.step(StepKind::Push, move |e| {
            e.push_round_on(&active, &make, &fold, &after);
        })
    }

    /// Records a dense push–pull round ([`Engine::push_pull_round`]).
    pub fn push_pull<M, F, G>(&mut self, serve: F, merge: G) -> &mut Self
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync + 'a,
        G: Fn(NodeId, &mut S, M) + Sync + 'a,
    {
        self.step(StepKind::PushPull, move |e| {
            e.push_pull_round(&serve, &merge);
        })
    }

    /// Records a sparse push–pull round ([`Engine::push_pull_round_on`])
    /// over `active`.
    pub fn push_pull_on<M, F, G>(&mut self, active: ActiveSet, serve: F, merge: G) -> &mut Self
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync + 'a,
        G: Fn(NodeId, &mut S, M) + Sync + 'a,
    {
        self.step(StepKind::PushPull, move |e| {
            e.push_pull_round_on(&active, &serve, &merge);
        })
    }

    /// Records `k` sampling rounds feeding a local update — one
    /// [`Engine::sample_step`] with no participation cut: every node pulls
    /// `k` samples of the step-start states and `apply` runs with them in
    /// hand (`samples[r]` from round `r`, `None` where the pull failed) —
    /// the tournament-iteration shape (collect two samples, replace the
    /// value with their extremum).
    pub fn collect_local<M, F, A>(&mut self, k: usize, serve: F, apply: A) -> &mut Self
    where
        M: MessageSize + Clone + Send + Sync,
        F: Fn(NodeId, &S) -> M + Sync + 'a,
        A: Fn(NodeId, &mut S, &mut NodeRng, &mut [Option<M>]) + Sync + 'a,
    {
        self.step(StepKind::Collect, move |e| {
            e.sample_step(k, k, |_| true, &serve, &apply);
        })
    }
}

impl<S> Engine<S> {
    /// Replays `program`'s steps, in order, as one fused pool dispatch (an
    /// [`Engine::fused`] block): the workers are woken once for the whole
    /// schedule and synchronise between rounds on the resident phase
    /// barrier. Bit-identical to executing the same steps as individual
    /// calls — only the dispatch cost (and the scheduling counters in
    /// [`Engine::metrics`]) changes.
    ///
    /// The program is replayable: running it again executes the same
    /// schedule from the engine's new state (rounds are keyed by the
    /// engine's monotone round counter, so the two replays draw fresh,
    /// deterministic randomness).
    pub fn run_program(&mut self, program: &mut RoundProgram<'_, S>) {
        self.fused(|e| program.replay(e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    fn engine(n: usize, seed: u64) -> Engine<u64> {
        Engine::from_states((0..n as u64).collect(), EngineConfig::with_seed(seed))
    }

    #[test]
    fn builder_records_kinds_in_order() {
        let mut p: RoundProgram<'_, u64> = RoundProgram::new();
        assert!(p.is_empty());
        p.pull(|_, &v| v, |_, _, _| {});
        p.push(|_, &v| Some(v), |_, _, _| {}, |_, _, _| {});
        p.push_pull(|_, &v| v, |_, _, _| {});
        p.local_step(|_, _, _| {});
        p.collect_local(2, |_, &v| v, |_, _, _, _| {});
        p.step(StepKind::Custom, |_| {});
        assert_eq!(p.len(), 6);
        assert_eq!(
            p.kinds().collect::<Vec<_>>(),
            [
                StepKind::Pull,
                StepKind::Push,
                StepKind::PushPull,
                StepKind::Local,
                StepKind::Collect,
                StepKind::Custom,
            ]
        );
        let dbg = format!("{p:?}");
        assert!(dbg.contains("steps: 6"), "{dbg}");
    }

    #[test]
    fn program_matches_the_equivalent_loop() {
        // The same 3-round schedule, recorded and hand-rolled, from the same
        // start: states and trajectory metrics must match exactly.
        let mut fused = engine(300, 42);
        let mut program: RoundProgram<'_, u64> = RoundProgram::new();
        program
            .pull(|_, &v| v, |_, st, got| *st = (*st).max(got.unwrap_or(0)))
            .local_step(|_, st, _| *st = st.wrapping_mul(3).wrapping_add(1))
            .push_pull(|_, &v| v, |_, st, got| *st = (*st).min(got));
        fused.run_program(&mut program);

        let mut looped = engine(300, 42);
        looped.pull_round(|_, &v| v, |_, st, got| *st = (*st).max(got.unwrap_or(0)));
        looped.local_step(|_, st, _| *st = st.wrapping_mul(3).wrapping_add(1));
        looped.push_pull_round(|_, &v| v, |_, st, got| *st = (*st).min(got));

        assert_eq!(fused.states(), looped.states());
        assert_eq!(fused.metrics(), looped.metrics());
        assert_eq!(fused.round(), looped.round());
    }

    #[test]
    fn program_is_replayable_and_advances_rounds() {
        let mut e = engine(200, 7);
        let mut p: RoundProgram<'_, u64> = RoundProgram::new();
        p.pull(|_, &v| v, |_, st, got| *st ^= got.unwrap_or(0));
        e.run_program(&mut p);
        e.run_program(&mut p);
        assert_eq!(e.metrics().rounds, 2);
        // The two replays must not repeat randomness: a replayed round is a
        // fresh round of the engine's counter-keyed streams.
        let mut looped = engine(200, 7);
        looped.pull_round(|_, &v| v, |_, st, got| *st ^= got.unwrap_or(0));
        looped.pull_round(|_, &v| v, |_, st, got| *st ^= got.unwrap_or(0));
        assert_eq!(e.states(), looped.states());
    }

    #[test]
    fn sparse_steps_replay_their_active_sets() {
        let n = 400;
        let active = ActiveSet::from_fn(n, |v| v % 3 == 0);
        let mut fused = engine(n, 11);
        let mut p: RoundProgram<'_, u64> = RoundProgram::new();
        p.pull_on(
            active.clone(),
            |_, &v| v,
            |_, st, got| *st = (*st).max(got.unwrap_or(0)),
        );
        p.local_step_on(active.clone(), |_, st, _| *st += 1);
        p.push_on(
            active.clone(),
            |_, &v| Some(v),
            |_, st, got| *st = (*st).min(got),
            |_, _, _| {},
        );
        p.push_pull_on(active.clone(), |_, &v| v, |_, st, got| *st ^= got);
        fused.run_program(&mut p);

        let mut looped = engine(n, 11);
        looped.pull_round_on(
            &active,
            |_, &v| v,
            |_, st, got| *st = (*st).max(got.unwrap_or(0)),
        );
        looped.local_step_on(&active, |_, st, _| *st += 1);
        looped.push_round_on(
            &active,
            |_, &v| Some(v),
            |_, st, got| *st = (*st).min(got),
            |_, _, _| {},
        );
        looped.push_pull_round_on(&active, |_, &v| v, |_, st, got| *st ^= got);

        assert_eq!(fused.states(), looped.states());
        assert_eq!(fused.metrics(), looped.metrics());
    }

    #[test]
    fn collect_local_matches_flat_collect_plus_local_step() {
        // The fused sample step against the composition it replaces, on the
        // sequential path (n = 256) and the parallel, prefetched one
        // (n = 20 000 is above PAR_MIN_NODES and the prefetch gate), at
        // every prefetch distance: the order-sensitive fold of the samples
        // and the local coin must agree bit for bit.
        let update = |st: &mut u64, rng: &mut NodeRng, samples: &mut dyn Iterator<Item = u64>| {
            for s in samples {
                *st = (st.rotate_left(7) ^ s).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            *st ^= rng.next_u64() & 0xff;
        };
        for n in [256, 20_000] {
            for k in [1, 2, 3, 15] {
                let mut looped = engine(n, 3);
                looped.set_threads(crate::par::num_threads());
                let samples = looped.collect_samples_flat(k, |_, &v| v);
                looped.local_step(|v, st, rng| update(st, rng, &mut samples.row(v).copied()));

                for dist in [0, 1, 32] {
                    let mut fused = engine(n, 3);
                    fused
                        .set_threads(crate::par::num_threads())
                        .set_prefetch_dist(dist);
                    let mut p: RoundProgram<'_, u64> = RoundProgram::new();
                    p.collect_local(
                        k,
                        |_, &v| v,
                        |_, st, rng, samples| {
                            assert_eq!(samples.len(), k);
                            update(st, rng, &mut samples.iter().flatten().copied());
                        },
                    );
                    fused.run_program(&mut p);
                    let case = format!("n={n} k={k} dist={dist}");
                    assert_eq!(fused.states(), looped.states(), "{case}");
                    assert_eq!(fused.metrics(), looped.metrics(), "{case}");
                    assert_eq!(fused.round(), looped.round(), "{case}");
                }
            }
        }
    }

    #[test]
    fn custom_steps_see_session_thread_state() {
        // A custom step's sequential bookkeeping (executor-0 work) runs
        // between rounds and can steer later steps.
        let mut e = engine(128, 5);
        let mut max_seen = 0u64;
        let mut p: RoundProgram<'_, u64> = RoundProgram::new();
        p.step(StepKind::Custom, |e| {
            e.pull_round(|_, &v| v, |_, st, got| *st = (*st).max(got.unwrap_or(0)));
            max_seen = e.states().iter().copied().max().unwrap_or(0);
        });
        e.run_program(&mut p);
        drop(p);
        assert_eq!(max_seen, 127);
    }

    #[test]
    fn fused_blocks_nest_with_programs() {
        let mut e = engine(100, 9);
        let rounds = e.fused(|e| {
            let mut p: RoundProgram<'_, u64> = RoundProgram::new();
            p.pull(|_, &v| v, |_, st, got| *st = (*st).max(got.unwrap_or(0)));
            e.run_program(&mut p); // nested: runs inside the outer session
            e.metrics().rounds
        });
        assert_eq!(rounds, 1);
    }

    #[test]
    fn step_kind_display() {
        assert_eq!(StepKind::Pull.to_string(), "pull");
        assert_eq!(StepKind::Push.to_string(), "push");
        assert_eq!(StepKind::PushPull.to_string(), "push-pull");
        assert_eq!(StepKind::Local.to_string(), "local");
        assert_eq!(StepKind::Collect.to_string(), "collect");
        assert_eq!(StepKind::Custom.to_string(), "custom");
    }
}
