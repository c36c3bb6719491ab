//! The synchronous uniform-gossip engine: deterministic and data-parallel.
//!
//! [`Engine`] owns one state per node and advances the network one round at a
//! time. It is deliberately *not* a general message-passing framework: the
//! gossip model is exactly "each node contacts one uniformly random neighbour
//! per round", and the engine exposes that and nothing more. Under the
//! default [`Topology::Complete`] the neighbourhood is all other nodes — the
//! paper's uniform-gossip model verbatim; [`EngineConfig::topology`] swaps in
//! restricted communication graphs (random regular expander, ring, torus; see
//! [`crate::topology`]) without touching any algorithm code. All algorithms
//! of the reproduction — the tournament algorithms of Section 2, the exact
//! algorithm of Section 3, the baselines of Appendix A and \[KDG03\] — are
//! written against this interface, so their round counts are measured
//! identically.
//!
//! Two entry points cover the model:
//!
//! * [`Engine::pull_round`] — every node contacts a uniformly random other
//!   node and reads a message derived from that node's state *at the start of
//!   the round* (synchronous snapshot semantics, as assumed by the paper's
//!   proofs).
//! * [`Engine::push_round`] — every node derives a message from its own state
//!   and delivers it to a uniformly random other node; receivers then fold all
//!   messages delivered to them into their state.
//!
//! Failure injection (Section 5) applies to the *operation of the failing
//! node*: a failed puller receives nothing, a failed pusher delivers nothing.
//! The wider [`FaultPlan`] (churn, message loss, stragglers) runs through the
//! same round bodies; see "Fault policy" below.
//!
//! ## Randomness contract
//!
//! The engine has **no sequential random stream**. Every draw is made from a
//! counter-based [`NodeRng`] keyed by `(seed, round, node, stream)`:
//!
//! * in a communication round, node `v` draws its failure coin and then its
//!   contact target(s) from `NodeRng::keyed(seed, round, v, STREAM_ROUND)` —
//!   each contact is a single uniform *neighbour-index* draw against the
//!   configured topology (for the complete graph: an index into the implicit
//!   list of the `n − 1` other nodes), so the draw count per node is
//!   topology-independent;
//! * in a [`local_step`](Engine::local_step), node `v` receives
//!   `NodeRng::keyed(seed, epoch, v, STREAM_LOCAL)` (one epoch per call) for
//!   its algorithm-local coins.
//!
//! Because a node's stream depends only on the key, executions are
//! **bit-identical across thread counts and iteration orders**: a fixed seed
//! and a fixed sequence of round/`local_step` calls produce the same final
//! states whether the engine runs on 1 thread or 64. This is the property the
//! determinism integration tests pin down.
//!
//! ## Parallelism contract
//!
//! Rounds are data-parallel maps over nodes, executed over contiguous node
//! chunks on the engine's persistent [`WorkerPool`] (see [`crate::par`] for
//! the chunk/fold contract and [`crate::pool`] for the pool's barrier
//! protocol). The pool is created once at engine construction — or adopted
//! from [`EngineConfig::pool`], so several engines (e.g. an algorithm's
//! sub-computations, via [`EngineConfig::sub`]) can share one set of workers
//! — and reused by every round and [`local_step`](Engine::local_step); no
//! threads are spawned per round. The closures a round takes
//! (`serve`, `make`, `apply`, `fold`, `merge`, `after`) must therefore be
//! `Fn + Sync`, and they must uphold the gossip model's locality: a closure
//! may only mutate the state slot it is handed (its own node) and may only
//! *read* other nodes' states through the pre-round state buffer the engine
//! passes it. `serve`/`make` may be invoked more than once per node per round
//! (the push paths recompute messages instead of buffering them), so they
//! must be **pure** functions of `(node, state)` — cheap, deterministic, and
//! side-effect free.
//!
//! The thread count defaults to [`crate::par::num_threads`] for networks of
//! at least [`Engine::PAR_MIN_NODES`] nodes and to 1 below that (fork/join
//! overhead would dominate); [`Engine::set_threads`] overrides the choice
//! either way.
//!
//! ## Pass structure: double-buffered rounds
//!
//! The engine holds **two** state vectors — `states` (the current, pre-round
//! values) and `next` (the back buffer). A communication round runs the
//! minimum number of pool dispatches, each a single pass over the nodes:
//!
//! * **pull** — *one* dispatch: each node's task clones its pre-round state
//!   from `states` into its `next` slot, serves/applies against it while
//!   reading peers from the immutable `states`, and the engine swaps the two
//!   vectors afterwards. (Earlier engines refreshed a separate snapshot in
//!   its own dispatch first — a full extra `O(n)` pass per round.)
//! * **push** — two dispatches. The draw pass decides every sender's
//!   outcome (silent / failed / dropped / target) into the target scratch
//!   and files each landed push as a `(receiver, sender)` pair in a list for
//!   its sender chunk and receiver range. The fold pass runs one task per
//!   receiver range: it clones the range's states into `next`, walks the
//!   range's lists in sender-chunk order folding each message into its
//!   receiver's slot, folds the straggled arrivals due this round, and runs
//!   `after`. Swap.
//! * **push–pull** — the same two dispatches; the fold pass merges each
//!   node's pulled message first, then the pushed ones.
//!
//! A chunk draws its senders in ascending order, so walking the lists in
//! chunk order hands every receiver its messages in ascending sender order
//! with no sort: each node sees its pulled message, its in-time pushes by
//! ascending sender, its late arrivals in send order and then `after`, at
//! any thread count.
//!
//! Inside every pass the loop-invariant work is hoisted: the
//! `(seed, round, stream)` RNG prefix is absorbed once per round
//! ([`crate::rng::NodeRng::key_prefix`] — per-node keying is one
//! xor-multiply and one finalizer instead of three finalizers), and the
//! topology, the fault policy and the index domain are dispatched once per
//! round — each primitive's body is monomorphised over the concrete sampler
//! type, the policy and the domain, so the clean dense complete-graph loop
//! carries no per-draw topology, fault or domain branch (see
//! [`crate::topology`] and below).
//!
//! ## Fault policy
//!
//! Each primitive has **one** round body, generic over a private fault
//! policy that the body asks once per contact, in the order sender down →
//! failure coin → target → straggler coin (pushes only) → loss coin →
//! receiver down (see [`FaultPlan`]). Two policies exist, picked per round:
//! a zero-sized `Reliable` whose hooks are constants — the instantiation a
//! [`FaultPlan::none`] engine runs, and which compiles to the plain clean
//! loop — and the per-round `FaultCtx`, which holds the failure model, the
//! churn model's down-until view, the hoisted loss and straggler stream
//! prefixes and the straggled pushes due this round. An engine whose plan
//! only carries a [`FailureModel`] runs `FaultCtx` with its churn, loss and
//! straggler hooks inert. Engines normalise never-firing plans at
//! construction, so a zero-intensity plan runs `Reliable`. Fault coins come
//! from their own streams (`STREAM_FAULT_*`), so a faulted round's draws on
//! the round stream are exactly a clean round's.
//!
//! ## Index domains
//!
//! The push, local-step and sampling-column bodies also run the sparse
//! primitives ([`Engine::push_round_on`], [`Engine::local_step_on`] and
//! [`Engine::pull_sources`] over an active set): each is generic over a
//! private *index domain*, the nodes the round runs at — every node for the
//! dense rounds, an [`ActiveSet`]'s sorted members for the sparse ones —
//! picked once per round next to the sampler and the fault policy. The
//! domain answers what the two kinds of round do differently: its member
//! count (the participant charge), the node at a member position and the
//! position of a node, how the pool chunks a node-indexed buffer
//! ([`crate::par::for_chunks`] or [`crate::par::for_sparse`]), how the
//! back-buffer slots are refreshed (one [`crate::soa::clone_block`] burst or
//! per-slot clones), which push lists a fold task walks (its receiver
//! range's lists as the draw pass filed them, or its slice of the round's
//! pairs gathered and sorted receiver-major, split at the written set's
//! chunks), and how the round commits (the whole-buffer swap or the
//! copy-on-write slot swap). The fault order, the ascending-sender fold,
//! the straggler drain and the metrics accounting each live in one place,
//! and the dense instantiation is the plain dense loop. The pull, push–pull
//! and sample-step bodies run the dense domain only.
//!
//! ## Allocation discipline
//!
//! All `O(n)` scratch (contact targets, the push lists, the `next` state
//! buffer) lives in buffers owned by the engine, sized once at construction
//! (`next` on the first round; the push lists — `threads²` of them, holding
//! at most `n` pairs — grow on the first push rounds and keep their
//! capacity) and reused forever after: steady-state rounds perform **no
//! size-`n` allocations**. The only per-round heap traffic is `O(threads)`
//! chunk/slot bookkeeping per dispatched map (a push's draw pass adds one
//! vector of `threads` list headers per task) — and whatever the caller's own
//! state clones cost for non-`Copy` states.
//!
//! The per-slot `clone_from` into `next` is the price of running serve and
//! apply fused in one parallel pass (closures read other nodes only through
//! the immutable front buffer while writing their own back-buffer slot); for
//! `Copy` states it is a parallel memcpy. States holding buffers (doubling,
//! compactor) pay a real per-round copy — matching what their own `serve`
//! closures already clone per message — so if a heavy-state workload ever
//! dominates, the documented alternative is a message-buffer path specialised
//! for cheap snapshots.
//!
//! ## Memory layout of the hot passes
//!
//! Dense rounds at large `n` are bandwidth-bound (one round streams the
//! whole state array several times), so the hot passes are structured around
//! bytes moved, with [`crate::soa`] housing the shared machinery:
//!
//! * the back-buffer refresh is **cache-blocked**: instead of interleaving
//!   one slot's clone with its serve/apply (two live streams competing for
//!   the same lines), the chunk loop clones [`Engine::set_copy_block`] slots
//!   in one [`crate::soa::clone_block`] burst — a straight `memcpy` for
//!   `Copy` states — and then works through them while they are L2-warm;
//! * pull targets are drawn into a small stack batch and the corresponding
//!   sender states are **software-prefetched** [`Engine::set_prefetch_dist`]
//!   iterations ahead of their random-gather read, hiding the DRAM latency
//!   of the uniform contact pattern (the push folds, which read their senders
//!   in ascending order, prefetch their receivers' slots the same way);
//! * a `k`-sample step feeding a local update — a tournament iteration, the
//!   robust algorithm's, a baseline's sampling — runs as **one** such pass
//!   ([`Engine::sample_step`]) under every fault plan: all `k` rounds'
//!   targets of a node batch are drawn up front through each round's fault
//!   policy, gathered under one prefetch stream, and applied without an
//!   intermediate sample matrix (churn keeps one bit per node and round);
//! * the sparse copy-on-write commit batches runs of consecutive written ids
//!   into whole-slice swaps ([`crate::soa::swap_runs`]).
//!
//! Faulted rounds run the same bodies, so they get the blocked refresh and
//! the prefetched gathers too. All of it is mechanical rewriting with
//! bit-identical results — per-node RNG consumption, fold order and metrics
//! are unchanged (pinned by the golden suites, by `tests/layout.rs` against
//! the per-slot configuration `set_copy_block(1)` + `set_prefetch_dist(0)`,
//! and by the sample-step ≡ composition tests of `tests/sample_step.rs`).

use crate::active::ActiveSet;
use crate::error::{GossipError, Result};
use crate::failure::FailureModel;
use crate::fault::FaultPlan;
use crate::message::MessageSize;
use crate::metrics::{Metrics, RoundKind};
use crate::par::{self, Rows, Split};
use crate::pool::WorkerPool;
use crate::rng::{Coin, KeyPrefix, NodeRng};
use crate::soa::{LaneMatrix, SampleMatrix};
use crate::topology::{
    AdjacencyCache, CompleteSampler, CsrSampler, PeerSampler, Sampler, Topology,
};
use crate::NodeId;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Sentinel in the target scratch buffer: the node failed this round.
const TARGET_FAILED: u32 = u32::MAX;
/// Sentinel in the target scratch buffer: the node stayed silent (no message).
const TARGET_SILENT: u32 = u32::MAX - 1;
/// Sentinel in the target scratch buffer: the node pushed, but the delivery
/// did not land this round — dropped in flight by a fault-plan coin, sent to
/// a crashed node, or buffered by the straggler model. Like the other
/// sentinels it is `>= n` (engines reject `n > u32::MAX - 2`), so the draw
/// pass files no push for it and `after` sees `delivered = false`.
const TARGET_DROPPED: u32 = u32::MAX - 2;

/// Contact targets the prefetched gathers draw ahead into one stack or
/// scratch batch before serving them.
const TARGET_BATCH: usize = 256;

/// A push contact buffered by the straggler model: it lands in the first
/// push-capable round at or after round `due`, where the message is
/// re-derived from the sender's state at arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DelayedContact {
    due: u64,
    receiver: u32,
    sender: u32,
}

/// The fault policy of a round body (see the module docs' "Fault policy"):
/// the hooks a body asks once per contact, in the per-contact order sender
/// down → failure coin → target → straggler coin (push directions only) →
/// loss coin → receiver down. Pulls never straggle: a pull is a
/// request/response within the round. The last two stages drop the contact
/// alike and their coins are keyed, not sequential, so the provided methods
/// test the cheap receiver-down check first without changing any outcome.
///
/// `with_faults!` picks the instantiation once per round, never per node (a
/// per-draw match measurably cost throughput at n = 10⁶): [`Reliable`] when
/// the plan can inject nothing, [`FaultCtx`] otherwise.
trait Faults: Sync {
    /// This policy's view of one round, borrowing the engine's churn and
    /// straggler state (`Copy`, so it holds the borrows without a
    /// destructor and a body can re-hoist it after mutating the engine).
    type Round<'a>: Faults + Copy;

    /// Hoists the round's loop invariants. `up` is the round's row of churn
    /// bits (see `Engine::advance_churn`; empty without churn) and `due`
    /// its drained straggler list (see [`Faults::late`]).
    fn hoist<'a>(
        seed: u64,
        round: u64,
        plan: &'a FaultPlan,
        up: &'a [u64],
        due: &'a [(u32, u32)],
    ) -> Self::Round<'a>;

    /// Whether `v` is up this round; a down node performs nothing.
    fn alive(&self, v: usize) -> bool;

    /// Draws `v`'s failure-model coin from its round stream.
    fn fails(&self, v: usize, rng: &mut NodeRng) -> bool;

    /// Draws the straggler coin of `sender`'s push: `Some(due)` buffers it
    /// until round `due`.
    fn delayed(&self, sender: usize) -> Option<u64>;

    /// Draws the loss coin of the contact `sender → receiver`.
    fn lost(&self, sender: usize, receiver: usize) -> bool;

    /// The straggled pushes landing this round at receivers in `nodes`, as
    /// `(receiver, sender)` pairs sorted by receiver, each receiver's in send
    /// order.
    fn late(&self, nodes: Range<usize>) -> &[(u32, u32)];

    /// Node `v`'s pull contact: its target, or why nothing arrives —
    /// [`TARGET_SILENT`] (`v` is down and performs nothing),
    /// [`TARGET_FAILED`] (failure coin) or [`TARGET_DROPPED`] (target down or
    /// reply lost). Every sentinel is `>= n`, so `states.get(t)` is the
    /// delivery test.
    #[inline(always)]
    fn pull<SP: Sampler>(&self, sp: &SP, prefix: KeyPrefix, v: usize, m: &mut Metrics) -> u32 {
        if !self.alive(v) {
            m.record_crash();
            return TARGET_SILENT;
        }
        m.record_attempt(RoundKind::Pull);
        let mut rng = prefix.node(v as u64);
        if self.fails(v, &mut rng) {
            m.record_failure();
            return TARGET_FAILED;
        }
        let t = sp.sample(&mut rng, v);
        if !self.alive(t) || self.lost(t, v) {
            m.record_drop();
            return TARGET_DROPPED;
        }
        t as u32
    }

    /// Node `v`'s push contact, given the wire size of what it sends
    /// (`None` = silent, nothing recorded): the target, or a sentinel. A
    /// straggled push goes to `pending` and reads as dropped this round.
    #[inline(always)]
    fn push<SP: Sampler>(
        &self,
        sp: &SP,
        prefix: KeyPrefix,
        v: usize,
        bits: impl FnOnce() -> Option<u64>,
        m: &mut Metrics,
        pending: &mut Vec<DelayedContact>,
    ) -> u32 {
        if !self.alive(v) {
            m.record_crash();
            return TARGET_SILENT;
        }
        let Some(bits) = bits() else {
            return TARGET_SILENT;
        };
        m.record_attempt(RoundKind::Push);
        let mut rng = prefix.node(v as u64);
        if self.fails(v, &mut rng) {
            m.record_failure();
            return TARGET_FAILED;
        }
        let t = sp.sample(&mut rng, v);
        if !self.push_lands(v, t, m, pending) {
            return TARGET_DROPPED;
        }
        m.record_delivery(bits);
        t as u32
    }

    /// Node `v`'s push–pull contact: `(pull target, push target)`, each a
    /// node id or a sentinel. Both legs share the failure coin; each draws
    /// its own loss coin. Deliveries are recorded where the messages are
    /// built, in the receiver pass.
    #[inline(always)]
    fn push_pull<SP: Sampler>(
        &self,
        sp: &SP,
        prefix: KeyPrefix,
        v: usize,
        m: &mut Metrics,
        pending: &mut Vec<DelayedContact>,
    ) -> (u32, u32) {
        if !self.alive(v) {
            m.record_crash();
            return (TARGET_SILENT, TARGET_SILENT);
        }
        m.record_attempt(RoundKind::PushPull);
        let mut rng = prefix.node(v as u64);
        if self.fails(v, &mut rng) {
            m.record_failure();
            return (TARGET_FAILED, TARGET_FAILED);
        }
        let t_pull = sp.sample(&mut rng, v);
        let t_push = sp.sample(&mut rng, v);
        let pulled = if !self.alive(t_pull) || self.lost(t_pull, v) {
            m.record_drop();
            TARGET_DROPPED
        } else {
            t_pull as u32
        };
        let pushed = if self.push_lands(v, t_push, m, pending) {
            t_push as u32
        } else {
            TARGET_DROPPED
        };
        (pulled, pushed)
    }

    /// The channel half of a push `v → t`: straggler coin, then loss coin and
    /// receiver down. Whether the push lands this round.
    #[inline(always)]
    fn push_lands(
        &self,
        v: usize,
        t: usize,
        m: &mut Metrics,
        pending: &mut Vec<DelayedContact>,
    ) -> bool {
        if let Some(due) = self.delayed(v) {
            pending.push(DelayedContact {
                due,
                receiver: t as u32,
                sender: v as u32,
            });
            m.record_delay();
            return false;
        }
        if !self.alive(t) || self.lost(v, t) {
            m.record_drop();
            return false;
        }
        true
    }
}

/// The policy of a plan that can inject nothing: every hook is a constant.
#[derive(Clone, Copy)]
struct Reliable;

impl Faults for Reliable {
    type Round<'a> = Reliable;

    #[inline(always)]
    fn hoist<'a>(_: u64, _: u64, _: &'a FaultPlan, _: &'a [u64], _: &'a [(u32, u32)]) -> Reliable {
        Reliable
    }

    #[inline(always)]
    fn alive(&self, _: usize) -> bool {
        true
    }

    #[inline(always)]
    fn fails(&self, _: usize, _: &mut NodeRng) -> bool {
        false
    }

    #[inline(always)]
    fn delayed(&self, _: usize) -> Option<u64> {
        None
    }

    #[inline(always)]
    fn lost(&self, _: usize, _: usize) -> bool {
        false
    }

    #[inline(always)]
    fn late(&self, _: Range<usize>) -> &[(u32, u32)] {
        &[]
    }
}

/// Per-round fault context: the loop-invariant pieces of the active
/// [`FaultPlan`], hoisted before each pass of a round (the failure model,
/// the RNG prefixes of the loss and delay streams, the round's churn bits
/// and the drained stragglers).
#[derive(Clone, Copy)]
struct FaultCtx<'a> {
    round: u64,
    /// `None` when the failure model never fires.
    failure: Option<&'a FailureModel>,
    /// One bit per node, set where the node is up this round; empty when the
    /// plan has no churn.
    up: &'a [u64],
    due: &'a [(u32, u32)],
    loss: Option<(KeyPrefix, Coin)>,
    delay: Option<(KeyPrefix, Coin, u64)>,
}

impl Faults for FaultCtx<'_> {
    type Round<'a> = FaultCtx<'a>;

    fn hoist<'a>(
        seed: u64,
        round: u64,
        plan: &'a FaultPlan,
        up: &'a [u64],
        due: &'a [(u32, u32)],
    ) -> FaultCtx<'a> {
        FaultCtx {
            round,
            failure: Some(plan.failure()).filter(|f| !f.is_reliable()),
            up,
            due,
            loss: plan.loss().map(|l| {
                (
                    NodeRng::key_prefix(seed, round, NodeRng::STREAM_FAULT_LOSS),
                    Coin::new(l.drop_probability()),
                )
            }),
            delay: plan.stragglers().map(|s| {
                (
                    NodeRng::key_prefix(seed, round, NodeRng::STREAM_FAULT_DELAY),
                    Coin::new(s.straggle_probability()),
                    s.max_delay(),
                )
            }),
        }
    }

    #[inline]
    fn alive(&self, v: usize) -> bool {
        self.up.is_empty() || self.up[v / 64] >> (v % 64) & 1 != 0
    }

    #[inline]
    fn fails(&self, v: usize, rng: &mut NodeRng) -> bool {
        self.failure.is_some_and(|f| f.fails(v, self.round, rng))
    }

    /// The coin is keyed by the sender alone; a straggled push lands `d >= 1`
    /// rounds late.
    #[inline]
    fn delayed(&self, sender: usize) -> Option<u64> {
        let (prefix, coin, max_delay) = self.delay?;
        let mut rng = prefix.node(sender as u64);
        coin.lands(&mut rng)
            .then(|| self.round + 1 + rng.next_below(max_delay))
    }

    /// The coin is keyed by the packed `(sender, receiver)` pair, so the two
    /// directions of a push–pull round are independent.
    #[inline]
    fn lost(&self, sender: usize, receiver: usize) -> bool {
        self.loss.is_some_and(|(prefix, coin)| {
            let key = ((sender as u64) << 32) | receiver as u64;
            coin.lands(&mut prefix.node(key))
        })
    }

    fn late(&self, nodes: Range<usize>) -> &[(u32, u32)] {
        let lo = self
            .due
            .partition_point(|&(r, _)| (r as usize) < nodes.start);
        let hi = self.due.partition_point(|&(r, _)| (r as usize) < nodes.end);
        &self.due[lo..hi]
    }
}

/// Lands node `v`'s pull contact `t` (see [`Faults::pull`]) in its
/// back-buffer `slot`: the served message, `None` when the pull failed or its
/// reply was lost, and nothing at all when `v` is down (it resumes from its
/// state on rejoin).
#[inline(always)]
fn land_pull<S, M: MessageSize>(
    states: &[S],
    serve: &impl Fn(NodeId, &S) -> M,
    apply: &impl Fn(NodeId, &mut S, Option<M>),
    v: NodeId,
    slot: &mut S,
    t: u32,
    local: &mut Metrics,
) {
    match states.get(t as usize) {
        Some(state) => {
            let msg = serve(t as usize, state);
            local.record_delivery(msg.message_bits());
            apply(v, slot, Some(msg));
        }
        None if t != TARGET_SILENT => apply(v, slot, None),
        None => {}
    }
}

/// Concatenates per-chunk `(metrics, straggled pushes)` results in chunk
/// order, so `pending_delayed` grows in ascending sender order at any thread
/// count.
fn join_pending(
    (ma, mut va): (Metrics, Vec<DelayedContact>),
    (mb, mut vb): (Metrics, Vec<DelayedContact>),
) -> (Metrics, Vec<DelayedContact>) {
    va.append(&mut vb);
    (ma + mb, va)
}

/// Landed pushes as `(receiver, sender)` pairs.
type PushList = Vec<(u32, u32)>;

/// How a push-style round's draw pass files its landed pushes: one
/// [`PushList`] per sender chunk and receiver range. The sender chunks are
/// the draw pass's chunks of member positions, and the receiver ranges are
/// the dense fold pass's chunks of nodes (both cut by [`par::chunk_len`]).
/// List `c · ranges + r` holds chunk `c`'s pushes into range `r`. A chunk
/// draws its senders in ascending order, so walking a range's lists in chunk
/// order meets every receiver's senders in ascending order.
#[derive(Clone, Copy)]
struct Bins {
    chunk: usize,
    chunks: usize,
    range: usize,
    ranges: usize,
}

impl Bins {
    fn new(members: usize, n: usize, threads: usize) -> Bins {
        let (chunk, range) = (par::chunk_len(members, threads), par::chunk_len(n, threads));
        Bins {
            chunk,
            chunks: members.div_ceil(chunk),
            range,
            ranges: n.div_ceil(range),
        }
    }

    /// The number of lists.
    fn len(self) -> usize {
        self.chunks * self.ranges
    }
}

/// A push-style round's in-time pushes, as its fold pass reads them (see
/// [`Domain::pushes`]).
#[derive(Clone, Copy)]
struct Landed<'a> {
    bins: Bins,
    /// The draw pass's lists, `bins.len()` of them.
    lists: &'a [PushList],
    /// A sparse round's pairs, gathered from `lists` and sorted
    /// receiver-major.
    sorted: &'a [(u32, u32)],
}

/// Runs draw task `c` of a push-style round with its lists taken out of
/// `cells` and cleared, and puts them back afterwards. The task appends to
/// list headers in a vector of its own: with the headers side by side in
/// the engine's scratch, two tasks appending at once write one cache line,
/// which took a 2-thread push round at n = 2·10⁴ from 10 to 21 ns per node
/// on a 2-vCPU x86-64 host.
fn with_lists<A>(
    cells: &[Mutex<&mut [PushList]>],
    c: usize,
    draw: impl FnOnce(&mut [PushList]) -> A,
) -> A {
    let mut home = cells[c].lock().expect("delivery lists poisoned");
    let mut lists: Vec<_> = home.iter_mut().map(std::mem::take).collect();
    lists.iter_mut().for_each(Vec::clear);
    let out = draw(&mut lists);
    for (slot, list) in home.iter_mut().zip(lists) {
        *slot = list;
    }
    out
}

/// Lands the in-time pushes of the fold task over written positions `run`
/// in its back-buffer window `sub`, which starts at node `base`: walks
/// [`Domain::pushes`] and calls `land(receiver, slot, sender)` per push,
/// with each receiver's slot prefetched `dist` pushes ahead.
#[inline(always)]
fn land_pushes<S, W: Domain>(
    written: W,
    run: Range<usize>,
    landed: Landed<'_>,
    sub: &mut [S],
    base: usize,
    dist: usize,
    mut land: impl FnMut(NodeId, &mut S, usize),
) {
    for list in written.pushes(run, landed) {
        for (i, &(u, v)) in list.iter().enumerate() {
            if dist > 0 {
                if let Some(&(ahead, _)) = list.get(i + dist) {
                    crate::soa::prefetch_read(&sub[ahead as usize - base]);
                }
            }
            land(u as usize, &mut sub[u as usize - base], v as usize);
        }
    }
}

/// The index domain of a round body (see the module docs' "Index domains"):
/// the nodes it runs at, addressed by their *member position* `0..len()` in
/// ascending node order. [`All`] is every node, where position `p` is node
/// `p`; [`Members`] is an [`ActiveSet`]'s member list. The public wrappers
/// pick the domain once per round, next to the sampler and the fault
/// policy, so the [`All`] instantiation is the plain dense loop.
trait Domain: Copy + Sync {
    /// The domain a push-style round writes: its members and every receiver
    /// of the round, as readied by [`Domain::bucket`].
    type Written<'w>: Domain;

    /// Member count — the round's participant charge.
    fn len(self) -> usize;

    /// The node at member position `p`.
    fn node(self, p: usize) -> usize;

    /// The member position of node `v`, or `None` if `v` is not a member.
    fn position(self, v: usize) -> Option<usize>;

    /// The nodes from the first to the last member of the non-empty run of
    /// positions `run`; no other member lies among them.
    fn span(self, run: Range<usize>) -> Range<usize> {
        self.node(run.start)..self.node(run.end - 1) + 1
    }

    /// Runs `map(run, base, sub)` over contiguous runs of member positions
    /// on `pool` and folds the results in run order. `data` is node-indexed
    /// and `sub` is its window starting at node `base`, so the slot of
    /// member `p` is item `self.node(p) - base` of `sub`.
    fn map<T, A, F, R>(
        self,
        pool: &WorkerPool,
        data: T,
        threads: usize,
        identity: A,
        map: F,
        reduce: R,
    ) -> A
    where
        T: Split,
        A: Send,
        F: Fn(Range<usize>, usize, T) -> A + Sync,
        R: Fn(A, A) -> A;

    /// Refreshes the back-buffer slots of the members `run` from `states`,
    /// in `sub`, a [`Domain::map`] window starting at node `base`.
    fn refresh<S: Clone>(self, sub: &mut [S], base: usize, states: &[S], run: Range<usize>);

    /// Readies a push-style round's landed pushes, which the draw pass left
    /// in the first `lists` of `scratch_lists` (see [`Bins`]), for the fold
    /// pass over the written domain, and returns the round's receivers
    /// (empty for [`All`], which reports none). [`All`] folds the lists as
    /// they are. [`Members`] gathers their pairs into `scratch_pairs`, sorted
    /// receiver-major, and its written set into `scratch_written`.
    fn bucket<S: Clone + Send + Sync>(self, e: &mut Engine<S>, lists: usize) -> Vec<NodeId>;

    /// The written domain, given the written list [`Domain::bucket`] left in
    /// `scratch_written`.
    fn written(self, list: &[u32]) -> Self::Written<'_>;

    /// The lists of in-time pushes the fold task over the written positions
    /// `run` walks, in order: together they hold every push into the run's
    /// receivers, and each receiver meets its senders in ascending order.
    fn pushes<'a>(
        self,
        run: Range<usize>,
        landed: Landed<'a>,
    ) -> impl Iterator<Item = &'a [(u32, u32)]>;

    /// Commits the members' back-buffer slots to the front buffer.
    fn commit<S: Send>(
        self,
        pool: &WorkerPool,
        states: &mut Vec<S>,
        next: &mut Vec<S>,
        threads: usize,
    );
}

/// Every node of an `n`-node network: member position `p` is node `p`.
#[derive(Clone, Copy)]
struct All(usize);

impl Domain for All {
    type Written<'w> = All;

    #[inline(always)]
    fn len(self) -> usize {
        self.0
    }

    #[inline(always)]
    fn node(self, p: usize) -> usize {
        p
    }

    #[inline(always)]
    fn position(self, v: usize) -> Option<usize> {
        Some(v)
    }

    #[inline(always)]
    fn map<T, A, F, R>(
        self,
        pool: &WorkerPool,
        data: T,
        threads: usize,
        identity: A,
        map: F,
        reduce: R,
    ) -> A
    where
        T: Split,
        A: Send,
        F: Fn(Range<usize>, usize, T) -> A + Sync,
        R: Fn(A, A) -> A,
    {
        let chunk_map = |start, chunk: T| map(start..start + chunk.items(), start, chunk);
        par::for_chunks(pool, data, threads, identity, chunk_map, reduce)
    }

    /// One [`crate::soa::clone_block`] burst: a memcpy for `Copy` states.
    #[inline(always)]
    fn refresh<S: Clone>(self, sub: &mut [S], base: usize, states: &[S], run: Range<usize>) {
        crate::soa::clone_block(&mut sub[run.start - base..run.end - base], &states[run]);
    }

    fn bucket<S: Clone + Send + Sync>(self, _: &mut Engine<S>, _: usize) -> Vec<NodeId> {
        Vec::new()
    }

    fn written(self, _: &[u32]) -> All {
        self
    }

    /// The run is receiver range `r`: its lists from every sender chunk, in
    /// chunk order.
    fn pushes<'a>(
        self,
        run: Range<usize>,
        landed: Landed<'a>,
    ) -> impl Iterator<Item = &'a [(u32, u32)]> {
        let Bins { range, ranges, .. } = landed.bins;
        let lists = landed.lists.iter().skip(run.start / range);
        lists.step_by(ranges).map(Vec::as_slice)
    }

    /// The `O(1)` whole-buffer swap.
    fn commit<S: Send>(self, _: &WorkerPool, states: &mut Vec<S>, next: &mut Vec<S>, _: usize) {
        std::mem::swap(states, next);
    }
}

/// A sorted, duplicate-free member list — an [`ActiveSet`]'s indices, or a
/// sparse push round's written set: member position `p` is node `ids[p]`.
#[derive(Clone, Copy)]
struct Members<'a>(&'a [u32]);

impl Domain for Members<'_> {
    type Written<'w> = Members<'w>;

    #[inline]
    fn len(self) -> usize {
        self.0.len()
    }

    #[inline]
    fn node(self, p: usize) -> usize {
        self.0[p] as usize
    }

    #[inline]
    fn position(self, v: usize) -> Option<usize> {
        self.0.binary_search(&(v as u32)).ok()
    }

    fn map<T, A, F, R>(
        self,
        pool: &WorkerPool,
        data: T,
        threads: usize,
        identity: A,
        map: F,
        reduce: R,
    ) -> A
    where
        T: Split,
        A: Send,
        F: Fn(Range<usize>, usize, T) -> A + Sync,
        R: Fn(A, A) -> A,
    {
        let chunk_map = |first, ids: &[u32], base, sub| map(first..first + ids.len(), base, sub);
        par::for_sparse(pool, data, self.0, threads, identity, chunk_map, reduce)
    }

    /// A per-slot `clone_from`: the members need not be contiguous.
    #[inline]
    fn refresh<S: Clone>(self, sub: &mut [S], base: usize, states: &[S], run: Range<usize>) {
        for &v in &self.0[run] {
            sub[v as usize - base].clone_from(&states[v as usize]);
        }
    }

    fn bucket<S: Clone + Send + Sync>(self, e: &mut Engine<S>, lists: usize) -> Vec<NodeId> {
        e.bucket_sparse(self.0, lists)
    }

    fn written(self, list: &[u32]) -> Members<'_> {
        Members(list)
    }

    /// The sorted pairs whose receivers lie in the run's span.
    fn pushes<'a>(
        self,
        run: Range<usize>,
        landed: Landed<'a>,
    ) -> impl Iterator<Item = &'a [(u32, u32)]> {
        let (nodes, sorted) = (self.span(run), landed.sorted);
        let lo = sorted.partition_point(|&(r, _)| (r as usize) < nodes.start);
        let hi = sorted.partition_point(|&(r, _)| (r as usize) < nodes.end);
        std::iter::once(&sorted[lo..hi])
    }

    /// The copy-on-write commit: swaps the members' slots between the
    /// buffers, batching runs of consecutive ids into slice swaps
    /// ([`crate::soa::swap_runs`]).
    fn commit<S: Send>(
        self,
        pool: &WorkerPool,
        states: &mut Vec<S>,
        next: &mut Vec<S>,
        threads: usize,
    ) {
        let buffers = (&mut states[..], &mut next[..]);
        let swap = |run: Range<usize>, base, (a, b): (&mut [S], &mut [S])| {
            crate::soa::swap_runs(&self.0[run], base, a, b);
        };
        self.map(pool, buffers, threads, (), swap, |(), ()| ());
    }
}

/// What a sparse push round ([`Engine::push_round_on`]) did, beyond the
/// dense primitives' failed count: the set of nodes that received at least
/// one message this round.
///
/// Receivers are how sparse activity *grows* — a rumor-spreading loop unions
/// them into its informed [`ActiveSet`]
/// ([`ActiveSet::union_sorted`]), a token-scattering loop into its holder set
/// — so the engine reports them instead of forcing callers into an `O(n)`
/// scan for changed states. They are read off the round's pushes, which the
/// sparse round sorts receiver-major for its fold anyway, together with the
/// receivers of the straggled pushes that land this round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePushOutcome {
    /// Number of active nodes whose push failed under the failure model.
    pub failed: usize,
    /// Nodes that had at least one message delivered to them this round,
    /// sorted ascending, duplicate-free. Receivers are sampled from the whole
    /// topology neighbourhood, so they need **not** be members of the active
    /// set.
    pub receivers: Vec<NodeId>,
}

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Seed of the engine's random streams. Two engines with the same seed,
    /// the same initial states and the same sequence of round calls produce
    /// identical executions — at any thread count.
    pub seed: u64,
    /// The fault plan applied to the engine's rounds (default:
    /// [`FaultPlan::none`]), set through [`EngineConfig::fault`]. It
    /// subsumes the Section 5 failure model: a plain [`FailureModel`] is
    /// `FaultPlan::none().with_failure(model)`, and churn, message loss and
    /// stragglers are its other combinators.
    pub fault: FaultPlan,
    /// The communication graph peer sampling runs on (default:
    /// [`Topology::Complete`], the paper's uniform-gossip model). See
    /// [`crate::topology`] for the available graphs and the sampling
    /// contract; the graph is materialised once at engine construction.
    pub topology: Topology,
    /// A [`WorkerPool`] for the engine to run its rounds on, shared with
    /// whoever else holds the `Arc`. `None` (the default) gives the engine a
    /// pool of its own, sized by the policy described on
    /// [`Engine::PAR_MIN_NODES`]. Pools are pure scheduling state: sharing
    /// one never couples two engines' results.
    pub pool: Option<Arc<WorkerPool>>,
    /// Cache of materialised topology adjacencies, shared (like the pool)
    /// with every configuration derived via [`EngineConfig::sub`]/`clone` —
    /// sub-engines reuse their parent's graph instead of rebuilding it.
    /// Graph construction is deterministic, so sharing is
    /// behaviour-invisible.
    pub graph_cache: Arc<AdjacencyCache>,
}

impl EngineConfig {
    /// Configuration with the given seed, no failures, the complete-graph
    /// topology, and a private pool.
    pub fn with_seed(seed: u64) -> Self {
        EngineConfig {
            seed,
            fault: FaultPlan::none(),
            topology: Topology::Complete,
            pool: None,
            graph_cache: Arc::new(AdjacencyCache::default()),
        }
    }

    /// Replaces the whole fault plan (see [`FaultPlan`]).
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Replaces the communication topology (default: [`Topology::Complete`]).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Makes the engine run its rounds on `pool` instead of creating its own.
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Configuration for a sub-computation: a fresh seed, the same fault
    /// plan (churn *state* does not transfer — a sub-engine starts with every
    /// node alive), the **same topology** (an algorithm's sub-phases run on
    /// the same communication graph as its main phase), and the **same
    /// worker pool** — so an algorithm that runs many short-lived sub-engines
    /// (e.g. the exact-quantile narrowing loop) pays for thread creation
    /// once, not once per phase.
    ///
    /// Sharing only happens if this configuration *has* a pool; an algorithm
    /// that fans out into sub-engines should first call
    /// [`EngineConfig::ensure_pool_for`] with its network size.
    pub fn sub(&self, seed: u64) -> Self {
        EngineConfig {
            seed,
            fault: self.fault.clone(),
            topology: self.topology,
            pool: self.pool.clone(),
            graph_cache: Arc::clone(&self.graph_cache),
        }
    }

    /// Materialises a worker pool on this configuration if it has none and
    /// `n`-node engines built from it would run parallel rounds
    /// (`n >= `[`Engine::PAR_MIN_NODES`]), so that every engine later derived
    /// via [`EngineConfig::sub`] shares one set of worker threads instead of
    /// spawning its own.
    ///
    /// Below the parallel threshold this is a no-op: engines there run
    /// inline, and an idle pool would be pure overhead.
    pub fn ensure_pool_for(&mut self, n: usize) -> &mut Self {
        if self.pool.is_none() && n >= Engine::<()>::PAR_MIN_NODES {
            self.pool = Some(Arc::new(WorkerPool::new(par::num_threads())));
        }
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::with_seed(0)
    }
}

/// A synchronous uniform-gossip network holding one state of type `S` per node.
///
/// See the [module documentation](self) for the communication, randomness and
/// parallelism contracts.
#[derive(Debug)]
pub struct Engine<S> {
    /// The current node states (the front buffer; what peers are read from
    /// during a round).
    states: Vec<S>,
    /// The back buffer a round writes into before the post-round swap with
    /// `states`; lazily sized on the first communication round.
    next: Vec<S>,
    seed: u64,
    threads: usize,
    /// The persistent worker pool rounds dispatch on; constructed once (or
    /// adopted from [`EngineConfig::pool`]) and reused by every round.
    pool: Arc<WorkerPool>,
    /// The normalised fault plan in effect.
    fault: FaultPlan,
    /// Churn state: the first round node `v` is alive again (`0` = alive,
    /// `u64::MAX` = crashed permanently). Empty until the plan's churn model
    /// first advances.
    down_until: Vec<u64>,
    /// Churn scratch: one row of `n` bits per round of the running body, set
    /// where the node is up in that round (see `Engine::advance_churn`);
    /// empty without churn.
    up: Vec<u64>,
    /// Straggled push contacts not yet due (or due in a round that cannot
    /// deliver them — only push-capable rounds drain this buffer).
    pending_delayed: Vec<DelayedContact>,
    /// Per-round drain scratch: `(receiver, sender)` pairs due this round,
    /// sorted receiver-major (stable, so a receiver folds its late arrivals
    /// in send order).
    due_scratch: Vec<(u32, u32)>,
    /// The materialised peer sampler rounds draw contacts from; built once at
    /// construction.
    sampler: PeerSampler,
    metrics: Metrics,
    round: u64,
    local_epochs: u64,
    /// Per-sender contact target (push target in push–pull), or a sentinel,
    /// at the sender's member position.
    scratch_targets: Vec<u32>,
    /// Per-puller contact target in push–pull rounds, by member position.
    scratch_pull: Vec<u32>,
    /// A push-style round's landed pushes as `(receiver, sender)` pairs, one
    /// list per sender chunk and receiver range (see [`Bins`]): at most
    /// `threads²` lists holding at most `n` pairs, which keep their capacity
    /// across rounds.
    scratch_lists: Vec<PushList>,
    /// A sparse round's landed pushes, gathered from `scratch_lists` and
    /// sorted receiver-major with ascending senders — sized by the number of
    /// messages instead of `n`.
    scratch_pairs: Vec<(u32, u32)>,
    /// The written set of the current sparse round (active ∪ receivers),
    /// sorted — what the copy-on-write commit pass swaps into the front
    /// buffer.
    scratch_written: Vec<u32>,
    /// Sorted unique receivers of the current sparse push round, late
    /// arrivals included, reused across rounds.
    scratch_receivers: Vec<u32>,
    /// Slots per cache-blocked back-buffer refresh block (see
    /// [`crate::soa::clone_block`]); starts at
    /// [`crate::soa::DEFAULT_COPY_BLOCK`], overridable per engine via
    /// [`Engine::set_copy_block`]. Never affects results, only cache
    /// behaviour.
    copy_block: usize,
    /// Lookahead of the software prefetches issued by the delivery gathers
    /// (pull targets, push receivers' back-buffer slots); starts at
    /// [`crate::soa::DEFAULT_PREFETCH_DIST`], `0` disables. Never affects
    /// results.
    prefetch_dist: usize,
}

impl<S> Engine<S> {
    /// Networks with at least this many nodes run rounds on
    /// [`crate::par::num_threads`] threads by default; smaller ones run
    /// sequentially (fork/join overhead would dominate the per-node work).
    pub const PAR_MIN_NODES: usize = 1 << 14;

    /// Creates an engine whose node `v` starts with state `states[v]`.
    ///
    /// # Panics
    ///
    /// Panics on any error of [`Engine::try_from_states`], the fallible
    /// constructor: too few or too many states, or a topology or fault plan
    /// that cannot be realised on this network size.
    pub fn from_states(states: Vec<S>, config: EngineConfig) -> Self {
        Engine::try_from_states(states, config).expect("Engine::try_from_states failed")
    }

    /// Fallible variant of [`Engine::from_states`].
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::TooFewNodes`] if fewer than two states are
    /// supplied, [`GossipError::InvalidParameter`] if more than
    /// `u32::MAX - 2` are (contact targets are stored as `u32`), or the
    /// topology's own validation error if [`EngineConfig::topology`] cannot
    /// be realised on this network size.
    pub fn try_from_states(states: Vec<S>, config: EngineConfig) -> Result<Self> {
        let n = states.len();
        if n < 2 {
            return Err(GossipError::TooFewNodes { requested: n });
        }
        if n > (u32::MAX - 2) as usize {
            return Err(GossipError::InvalidParameter {
                name: "n",
                reason: format!("at most {} nodes are supported, got {n}", u32::MAX - 2),
            });
        }
        config.fault.validate_for(n)?;
        // Combinators that can never fire are stripped so plans built from
        // zero intensities run the reliable round instantiation.
        let fault = config.fault.normalized();
        let sampler = config.topology.materialize(n, &config.graph_cache)?;
        let threads = if n >= Self::PAR_MIN_NODES {
            par::num_threads()
        } else {
            1
        };
        // Adopt the configured (shared) pool, or build a private one sized
        // for the default thread count. A 1-thread pool spawns nothing.
        let pool = config
            .pool
            .unwrap_or_else(|| Arc::new(WorkerPool::new(threads)));
        Ok(Engine {
            states,
            next: Vec::new(),
            seed: config.seed,
            threads,
            pool,
            fault,
            down_until: Vec::new(),
            up: Vec::new(),
            pending_delayed: Vec::new(),
            due_scratch: Vec::new(),
            sampler,
            metrics: Metrics::new(),
            round: 0,
            local_epochs: 0,
            scratch_targets: vec![0; n],
            scratch_pull: vec![0; n],
            scratch_lists: Vec::new(),
            scratch_pairs: Vec::new(),
            scratch_written: Vec::new(),
            scratch_receivers: Vec::new(),
            copy_block: crate::soa::DEFAULT_COPY_BLOCK,
            prefetch_dist: crate::soa::DEFAULT_PREFETCH_DIST,
        })
    }

    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.states.len()
    }

    /// The states of all nodes, indexed by [`NodeId`].
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Communication metrics accumulated so far.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The seed all of this engine's random streams are keyed by.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault plan in effect (normalised at construction: combinators
    /// that can never fire are stripped).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// The nodes that were down (crashed by the plan's churn model) during
    /// the most recently executed round, in ascending id order. Empty when
    /// the plan has no churn or no round has run yet.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        let round = self.round;
        self.down_until
            .iter()
            .enumerate()
            .filter(|&(_, &down)| down > round)
            .map(|(v, _)| v)
            .collect()
    }

    /// Number of straggled push contacts currently in flight (sent, but not
    /// yet folded into a push-capable round's deliveries).
    pub fn delayed_in_flight(&self) -> usize {
        self.pending_delayed.len()
    }

    /// Number of worker threads rounds run on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    ///
    /// Results do not depend on this value — only wall-clock time does. If
    /// the engine's current pool has fewer executors than requested, the
    /// engine switches to a new, private pool of the requested size (engines
    /// previously sharing the old pool keep it and are unaffected); shrinking
    /// keeps the pool and simply cuts fewer chunks per round.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        self.threads = threads.max(1);
        if self.threads > self.pool.threads() {
            self.pool = Arc::new(WorkerPool::new(self.threads));
        }
        self
    }

    /// The persistent worker pool this engine's rounds dispatch on.
    ///
    /// Clone the `Arc` into [`EngineConfig::pool`] to run another engine on
    /// the same workers (see [`EngineConfig::sub`]).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Overrides the cache-blocked refresh block size (slots per
    /// [`crate::soa::clone_block`] block; clamped to at least 1). Defaults to
    /// [`crate::soa::DEFAULT_COPY_BLOCK`]. **Results never
    /// depend on this value** — only the order cache lines are touched in;
    /// the layout property tests pin that invariance.
    pub fn set_copy_block(&mut self, slots: usize) -> &mut Self {
        self.copy_block = slots.max(1);
        self
    }

    /// Overrides the software-prefetch lookahead of the delivery gathers
    /// (`0` disables prefetching). Defaults to
    /// [`crate::soa::DEFAULT_PREFETCH_DIST`]. **Results never depend on this
    /// value** — prefetches are pure cache hints.
    pub fn set_prefetch_dist(&mut self, dist: usize) -> &mut Self {
        self.prefetch_dist = dist;
        self
    }

    /// Consumes the engine and returns the final node states.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }
}

impl<S: Send> Engine<S> {
    /// Applies a purely local update to every node (no communication, no round
    /// consumed), in parallel over the engine's node chunks.
    ///
    /// Each node receives its own deterministic [`NodeRng`] for algorithm-local
    /// coins (e.g. the probability-δ branch of Algorithm 1); the stream is
    /// keyed by `(seed, epoch, node)` where the epoch increments per
    /// `local_step` call, so runs replay identically — at any thread count,
    /// since the closure runs on the same chunk map as the rounds. The
    /// closure may therefore only mutate the state slot it is handed; shared
    /// captures are immutable (`Fn + Sync`).
    pub fn local_step<F>(&mut self, f: F)
    where
        F: Fn(NodeId, &mut S, &mut NodeRng) + Sync,
    {
        self.local_body(All(self.n()), f);
    }

    /// [`Engine::local_step`] restricted to an [`ActiveSet`]: only the
    /// members' closures run, dispatched over the active indices so the cost
    /// is `O(|active|)`, not `O(n)`.
    ///
    /// Each member receives exactly the [`NodeRng`] stream it would have
    /// received from the dense `local_step` at the same epoch (the epoch
    /// counter advances either way), so a sparse step over the **full** set is
    /// bit-identical to the dense one.
    pub fn local_step_on<F>(&mut self, active: &ActiveSet, f: F)
    where
        F: Fn(NodeId, &mut S, &mut NodeRng) + Sync,
    {
        self.assert_active(active);
        self.local_body(Members(active.indices()), f);
    }

    /// The local step over the members of `dom`.
    fn local_body<D: Domain, F>(&mut self, dom: D, f: F)
    where
        F: Fn(NodeId, &mut S, &mut NodeRng) + Sync,
    {
        self.local_epochs += 1;
        let prefix = NodeRng::key_prefix(self.seed, self.local_epochs, NodeRng::STREAM_LOCAL);
        dom.map(
            &self.pool,
            &mut self.states[..],
            self.threads,
            (),
            |run, base, sub| {
                for p in run {
                    let v = dom.node(p);
                    f(v, &mut sub[v - base], &mut prefix.node(v as u64));
                }
            },
            |(), ()| (),
        );
    }
}

impl<S> Engine<S> {
    /// Sparse rounds take the engine's `ActiveSet` by reference; it must have
    /// been built for this network size.
    fn assert_active(&self, active: &ActiveSet) {
        assert_eq!(
            active.n(),
            self.n(),
            "ActiveSet was built for a {}-node network, engine has {} nodes",
            active.n(),
            self.n()
        );
    }
}

/// Merges two sorted, duplicate-free id lists into `out` (also sorted and
/// duplicate-free) — how a sparse push round assembles its written set
/// (active senders ∪ receivers) in `O(|a| + |b|)`.
fn merge_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Dispatches `$body` with `$sp` bound to the engine's concrete sampler
/// type — **once per round**, so the node loops monomorphise over
/// [`CompleteSampler`] / [`CsrSampler`] instead of matching the topology
/// enum per draw (which measurably cost throughput at n = 10⁶, where the
/// complete-graph loop must keep `n` in a register).
macro_rules! with_sampler {
    ($self:ident, $sp:ident => $body:expr) => {
        // Cheap per-round clone: a usize or an Arc bump.
        match $self.sampler.clone() {
            PeerSampler::Complete { n } => {
                let $sp = CompleteSampler { n };
                $body
            }
            PeerSampler::Sparse(adj) => {
                let $sp = CsrSampler::new(adj);
                $body
            }
        }
    };
}

/// Dispatches `$body` with `$fx` bound to the round's fault policy (see
/// [`Faults`]) — **once per round**, like [`with_sampler!`]: a
/// `PhantomData` naming [`Reliable`] when the plan can inject nothing,
/// [`FaultCtx`] otherwise. The body hoists the policy's round view itself
/// (`X::hoist`), because the view borrows engine state the body mutates
/// between passes.
macro_rules! with_faults {
    ($self:ident, $fx:ident => $body:expr) => {
        if $self.fault.is_none() {
            let $fx = PhantomData::<Reliable>;
            $body
        } else {
            let $fx = PhantomData::<FaultCtx<'static>>;
            $body
        }
    };
}

impl<S: Clone + Send + Sync> Engine<S> {
    /// Sizes the back buffer on the first communication round (the one
    /// size-`n` allocation; every later round reuses it in place).
    fn ensure_next(&mut self) {
        if self.next.len() != self.states.len() {
            self.next = self.states.clone();
        }
    }

    /// The [`Bins`] of a push-style round over `members` members, with
    /// `scratch_lists` grown to hold them.
    fn bins(&mut self, members: usize) -> Bins {
        let bins = Bins::new(members, self.n(), self.threads);
        if self.scratch_lists.len() < bins.len() {
            self.scratch_lists.resize_with(bins.len(), Vec::new);
        }
        bins
    }

    /// One synchronous **pull** round.
    ///
    /// Every node `v` contacts a uniformly random neighbour `t(v)` (under the
    /// default [`Topology::Complete`]: a uniformly random other node). The
    /// message served by `t(v)` is `serve(t(v), &states[t(v)])`, computed from
    /// the state of `t(v)` at the start of the round. Then
    /// `apply(v, &mut states[v], Some(msg))` is called for every node that
    /// succeeded, and `apply(v, .., None)` for every node whose pull failed
    /// or whose reply was lost under the fault plan; a node that is down
    /// under churn is not applied at all.
    ///
    /// The whole round is **one** pool dispatch: each node's task clones its
    /// pre-round state into the back buffer, applies the update there while
    /// reading peers from the front buffer, and the buffers swap afterwards
    /// (see the module docs' pass structure).
    ///
    /// `serve` must be pure (see the module docs); `apply` may only mutate the
    /// state it is handed.
    ///
    /// Returns the number of nodes whose pull failed.
    pub fn pull_round<M, F, G>(&mut self, serve: F, apply: G) -> usize
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        with_sampler!(self, sp => with_faults!(self, fx => self.pull_body(fx, sp, serve, apply)))
    }

    /// [`Engine::pull_round`], monomorphised over the sampler type and the
    /// fault policy.
    fn pull_body<X, SP, M, F, G>(
        &mut self,
        _: PhantomData<X>,
        sampler: SP,
        serve: F,
        apply: G,
    ) -> usize
    where
        X: Faults,
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        self.metrics.record_round(RoundKind::Pull, self.n() as u64);
        self.round += 1;
        self.ensure_next();
        self.advance_churn(self.round, 1);

        let (round, threads) = (self.round, self.threads);
        let states = &self.states;
        let sampler = &sampler;
        let (block, dist) = (self.copy_block, self.prefetch_dist);
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let fx = X::hoist(self.seed, round, &self.fault, &self.up, &[]);
        let (serve, apply) = (&serve, &apply);
        // When the whole state array is cache-resident the gather never
        // misses, so the batch/prefetch machinery is skipped (measured ~10%
        // overhead at n = 4k) — the touch order is the same either way, so
        // this gate cannot affect results.
        let prefetch =
            dist > 0 && std::mem::size_of::<S>() * states.len() > crate::soa::PREFETCH_MIN_BYTES;
        let delta = par::for_chunks(
            &self.pool,
            &mut self.next[..],
            threads,
            Metrics::default(),
            |base, sub| {
                let mut local = Metrics::default();
                // Structured around memory layout (bit-identical to a
                // per-slot clone-then-serve loop — every node draws the same
                // stream and serves the same target; only the cache-line
                // touch order changes):
                //
                // 1. refresh one block of back-buffer slots in a tight clone
                //    pass (a memcpy for Copy states) so the block is
                //    L1/L2-hot for the apply pass;
                // 2. within the block, draw contacts a batch at a time into a
                //    stack buffer — separating the RNG math from the gather
                //    makes the targets available early;
                // 3. serve/apply with the gather prefetched `dist` targets
                //    ahead, hiding the random-read latency that dominates
                //    large-n rounds.
                let mut tbuf = [0u32; TARGET_BATCH];
                let run = base..base + sub.len();
                let mut bs = run.start;
                while bs < run.end {
                    let be = (bs + block).min(run.end);
                    crate::soa::clone_block(&mut sub[bs - base..be - base], &states[bs..be]);
                    if !prefetch {
                        for v in bs..be {
                            let t = fx.pull(sampler, prefix, v, &mut local);
                            land_pull(states, serve, apply, v, &mut sub[v - base], t, &mut local);
                        }
                        bs = be;
                        continue;
                    }
                    let mut js = bs;
                    while js < be {
                        let je = (js + TARGET_BATCH).min(be);
                        let batch = je - js;
                        for (i, t) in tbuf[..batch].iter_mut().enumerate() {
                            *t = fx.pull(sampler, prefix, js + i, &mut local);
                        }
                        for i in 0..batch {
                            if i + dist < batch {
                                if let Some(ahead) = states.get(tbuf[i + dist] as usize) {
                                    crate::soa::prefetch_read(ahead);
                                }
                            }
                            let v = js + i;
                            let slot = &mut sub[v - base];
                            land_pull(states, serve, apply, v, slot, tbuf[i], &mut local);
                        }
                        js = je;
                    }
                    bs = be;
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + delta;
        std::mem::swap(&mut self.states, &mut self.next);
        delta.failed_operations as usize
    }

    /// One synchronous **push** round.
    ///
    /// Every node `v` derives a message `make(v, &states[v])` from its own
    /// (pre-round) state; if the node does not fail, the message is delivered
    /// to a uniformly random other node. After all deliveries are decided,
    /// `fold(u, &mut states[u], msg)` is invoked once per message delivered to
    /// node `u` (in ascending sender order), and finally `after(v,
    /// &mut states[v], delivered)` is called for every node, where `delivered`
    /// is `true` iff the node's own push was delivered. `make` returning
    /// `None` means the node stays silent this round (no failure is recorded).
    ///
    /// `make` must be pure — it is re-evaluated on the delivery pass instead
    /// of buffering messages (see the module docs).
    ///
    /// Returns the number of nodes whose push failed.
    pub fn push_round<M, F, G, H>(&mut self, make: F, fold: G, after: H) -> usize
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
        H: Fn(NodeId, &mut S, bool) + Sync,
    {
        let all = All(self.n());
        with_sampler!(self, sp => with_faults!(self, fx => {
            self.push_body(all, fx, sp, make, fold, after).failed
        }))
    }

    /// [`Engine::push_round`] and [`Engine::push_round_on`], monomorphised
    /// over the index domain, the sampler type and the fault policy.
    fn push_body<D, X, SP, M, F, G, H>(
        &mut self,
        dom: D,
        _: PhantomData<X>,
        sampler: SP,
        make: F,
        fold: G,
        after: H,
    ) -> SparsePushOutcome
    where
        D: Domain,
        X: Faults,
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
        H: Fn(NodeId, &mut S, bool) + Sync,
    {
        let (n, m) = (self.n(), dom.len());
        self.metrics.record_round(RoundKind::Push, m as u64);
        self.round += 1;
        self.ensure_next();
        self.advance_churn(self.round, 1);

        let (round, threads) = (self.round, self.threads);
        let bins = self.bins(m);
        let states = &self.states;
        let sampler = &sampler;
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let fx = X::hoist(self.seed, round, &self.fault, &self.up, &[]);

        // Pass 1: every member decides its outcome (silent / failed /
        // dropped / target) into its member position of the target scratch,
        // reading its own pre-round state from the front buffer, and files a
        // landed push under its sender chunk and receiver range.
        let cells: Vec<_> = self.scratch_lists[..bins.len()]
            .chunks_mut(bins.ranges)
            .map(Mutex::new)
            .collect();
        let range = bins.range as u32;
        let (delta, mut pending) = par::for_chunks(
            &self.pool,
            &mut self.scratch_targets[..m],
            threads,
            (Metrics::default(), Vec::new()),
            |start, chunk| {
                with_lists(&cells, start / bins.chunk, |lists| {
                    let mut local = Metrics::default();
                    let mut pending = Vec::new();
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let v = dom.node(start + j);
                        let bits = || make(v, &states[v]).map(|m| m.message_bits());
                        let t = fx.push(sampler, prefix, v, bits, &mut local, &mut pending);
                        if (t as usize) < n {
                            lists[(t / range) as usize].push((t, v as u32));
                        }
                        *slot = t;
                    }
                    (local, pending)
                })
            },
            join_pending,
        );
        drop(cells);
        self.metrics = self.metrics + delta;
        // New entries are due strictly after `round`, so appending before the
        // drain is safe — they cannot be picked up by it.
        self.pending_delayed.append(&mut pending);
        self.collect_due(round);

        // Pass 2, one task per chunk of the written domain (a receiver range
        // in a dense round): refresh the chunk's back-buffer slots, fold its
        // in-time pushes by ascending sender, then its late arrivals, and run
        // `after`.
        let receivers = dom.bucket(self, bins.len());
        let written = dom.written(&self.scratch_written);
        let landed = Landed {
            bins,
            lists: &self.scratch_lists[..bins.len()],
            sorted: &self.scratch_pairs,
        };
        let states = &self.states;
        let (targets, dist) = (&self.scratch_targets[..m], self.prefetch_dist);
        let fx = X::hoist(self.seed, round, &self.fault, &self.up, &self.due_scratch);
        let arrivals = written.map(
            &self.pool,
            &mut self.next[..],
            threads,
            Metrics::default(),
            |run, base, sub| {
                let mut local = Metrics::default();
                written.refresh(sub, base, states, run.clone());
                land_pushes(
                    written,
                    run.clone(),
                    landed,
                    sub,
                    base,
                    dist,
                    |u, slot, v| {
                        if let Some(msg) = make(v, &states[v]) {
                            fold(u, slot, msg);
                        }
                    },
                );
                // Late arrivals land after the in-time pushes, in send order;
                // the message is re-derived from the sender's *current* state
                // (a sender answering `None` now means the late message
                // evaporates).
                for &(u, v) in fx.late(written.span(run.clone())) {
                    let (u, v) = (u as usize, v as usize);
                    if let Some(msg) = make(v, &states[v]) {
                        local.record_delivery(msg.message_bits());
                        fold(u, &mut sub[u - base], msg);
                    }
                }
                // `after` runs at the members only, and not at a crashed one:
                // it performed nothing this round.
                for q in run {
                    let u = written.node(q);
                    if let Some(p) = dom.position(u) {
                        if fx.alive(u) {
                            after(u, &mut sub[u - base], (targets[p] as usize) < n);
                        }
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + arrivals;
        written.commit(&self.pool, &mut self.states, &mut self.next, threads);
        SparsePushOutcome {
            failed: delta.failed_operations as usize,
            receivers,
        }
    }

    /// One synchronous **push–pull** round (both directions in one round), the
    /// primitive used by rumor-spreading subroutines such as learning the
    /// global minimum/maximum (Step 4 of Algorithm 3).
    ///
    /// Semantically this is a [`Engine::pull_round`] and a [`Engine::push_round`]
    /// executed against the same snapshot, counted as a *single* round — the
    /// standard push–pull convention in the rumor-spreading literature the
    /// paper cites (\[FG85\], \[Pit87\], \[KSSV00\]). For each node, `merge` first
    /// receives the pulled message, then pushed messages in ascending sender
    /// order. `serve` must be pure (it is re-evaluated per delivery).
    pub fn push_pull_round<M, F, G>(&mut self, serve: F, merge: G) -> usize
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
    {
        with_sampler!(self, sp => with_faults!(self, fx => self.push_pull_body(fx, sp, serve, merge)))
    }

    /// [`Engine::push_pull_round`], monomorphised over the sampler type and
    /// the fault policy.
    fn push_pull_body<X, SP, M, F, G>(
        &mut self,
        _: PhantomData<X>,
        sampler: SP,
        serve: F,
        merge: G,
    ) -> usize
    where
        X: Faults,
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
    {
        let n = self.n();
        self.metrics.record_round(RoundKind::PushPull, n as u64);
        self.round += 1;
        self.ensure_next();
        self.advance_churn(self.round, 1);

        let (round, threads) = (self.round, self.threads);
        let bins = self.bins(n);
        let sampler = &sampler;
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let fx = X::hoist(self.seed, round, &self.fault, &self.up, &[]);

        // Pass 1: every node draws its failure coin, pull target, push
        // target, then the per-direction fault coins, and files a landed push
        // as the push round does. Delivery metrics are recorded in pass 2,
        // where the messages are constructed anyway.
        let cells: Vec<_> = self.scratch_lists[..bins.len()]
            .chunks_mut(bins.ranges)
            .map(Mutex::new)
            .collect();
        let range = bins.range as u32;
        let (delta, mut pending) = par::for_chunks(
            &self.pool,
            (&mut self.scratch_targets[..], &mut self.scratch_pull[..]),
            threads,
            (Metrics::default(), Vec::new()),
            |start, (push_chunk, pull_chunk)| {
                with_lists(&cells, start / bins.chunk, |lists| {
                    let mut local = Metrics::default();
                    let mut pending = Vec::new();
                    for (j, (push, pull)) in push_chunk.iter_mut().zip(pull_chunk).enumerate() {
                        let v = start + j;
                        (*pull, *push) = fx.push_pull(sampler, prefix, v, &mut local, &mut pending);
                        if (*push as usize) < n {
                            lists[(*push / range) as usize].push((*push, v as u32));
                        }
                    }
                    (local, pending)
                })
            },
            join_pending,
        );
        drop(cells);
        self.metrics = self.metrics + delta;
        self.pending_delayed.append(&mut pending);
        self.collect_due(round);

        let landed = Landed {
            bins,
            lists: &self.scratch_lists[..bins.len()],
            sorted: &[],
        };
        let states = &self.states;
        let (block, dist) = (self.copy_block, self.prefetch_dist);
        let pulls = &self.scratch_pull;
        let fx = X::hoist(self.seed, round, &self.fault, &self.up, &self.due_scratch);
        let deliveries = par::for_chunks(
            &self.pool,
            &mut self.next[..],
            threads,
            Metrics::default(),
            |base, sub| {
                let mut local = Metrics::default();
                let mut deliver = |u: NodeId, slot: &mut S, v: usize| {
                    let msg = serve(v, &states[v]);
                    local.record_delivery(msg.message_bits());
                    merge(u, slot, msg);
                };
                // The pulled messages first: each block of slots is refreshed
                // and then merges its pulls while it is cache-warm, the pull
                // gather prefetched a few nodes ahead.
                let run = base..base + sub.len();
                let mut bs = run.start;
                while bs < run.end {
                    let be = (bs + block).min(run.end);
                    crate::soa::clone_block(&mut sub[bs - base..be - base], &states[bs..be]);
                    for u in bs..be {
                        if dist > 0 {
                            if let Some(&ahead) = pulls.get(u + dist) {
                                if let Some(ahead) = states.get(ahead as usize) {
                                    crate::soa::prefetch_read(ahead);
                                }
                            }
                        }
                        if (pulls[u] as usize) < n {
                            deliver(u, &mut sub[u - base], pulls[u] as usize);
                        }
                    }
                    bs = be;
                }
                // Then the pushes by ascending sender, and the late arrivals
                // in send order.
                land_pushes(All(n), run.clone(), landed, sub, base, dist, &mut deliver);
                for &(u, v) in fx.late(run) {
                    deliver(u as usize, &mut sub[u as usize - base], v as usize);
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + deliveries;
        std::mem::swap(&mut self.states, &mut self.next);
        delta.failed_operations as usize
    }

    /// `k` consecutive pull rounds in which every node collects the served
    /// messages of `k` independently chosen random nodes, into one flat,
    /// column-major `n × k` sample matrix (see [`SampleMatrix`]): column `r`
    /// holds round `r`'s pulls, empty where a pull failed or was lost. This
    /// consumes exactly `k` rounds, matching the paper's convention that
    /// "each node can sample t node values (with replacement) in t rounds".
    /// Node states are untouched. Each round is a [`Engine::pull_sources`]
    /// round whose messages cost what `serve` returns: the same targets,
    /// coins and metrics. [`Engine::sample_step`] is the fused form for
    /// samples that feed a local update.
    pub fn collect_samples_flat<M, F>(&mut self, k: usize, serve: F) -> SampleMatrix<M>
    where
        M: MessageSize + Send,
        F: Fn(NodeId, &S) -> M + Sync,
    {
        let mut matrix = SampleMatrix::empty(self.n(), k);
        let deliver = |slot: &mut Option<M>, t, state: &S| {
            let msg = serve(t, state);
            let bits = msg.message_bits();
            *slot = Some(msg);
            bits
        };
        let all = All(self.n());
        with_sampler!(self, sp => with_faults!(self, fx => {
            for r in 0..k {
                self.collect_column(all, fx, &sp, matrix.column_mut(r), &deliver);
            }
        }));
        matrix
    }

    /// `k` pull rounds against the round-start states, fused with the local
    /// update they feed: every node collects `k` samples and hands them
    /// straight to `apply` — the shape of a tournament iteration (Algorithms
    /// 1 and 2: sample two or three values, replace your own with their
    /// extremum or median) and of Algorithm 2's final `K`-sample vote.
    ///
    /// Rounds `0..dense` run at every node; rounds `dense..k` only at the
    /// nodes where `participates(v)` holds (the δ-truncated iterations). The
    /// step is defined as, and **bit-identical** to, the composition
    /// [`Engine::collect_samples_flat`]`(dense)`, then `k − dense` rounds of
    /// [`Engine::pull_sources`] over the participants, each delivery served
    /// from the round-start states, then one [`Engine::local_step`] calling
    /// `apply(v, state, rng, samples)`: the same per-node RNG streams, the
    /// same round-counter and local-epoch advance, and the same [`Metrics`]
    /// (`k` pull rounds of `n` — or of the participant count, for the cut
    /// rounds — plus one attempt, delivery and bit charge per sample).
    ///
    /// `samples[r]` is what the node pulled in round `r` (`None` where the
    /// pull failed); the slice holds `k` entries at participating nodes and
    /// `dense` elsewhere, and `apply` may move the messages out. With
    /// `dense >= k` there is no cut and `participates` is never called;
    /// otherwise it must be a pure function of the node id (it may be
    /// evaluated more than once).
    ///
    /// The whole step is **one** pool dispatch over the back buffer, under
    /// every fault plan: per block of nodes, all targets of all `k` rounds
    /// are drawn from the `k` hoisted round views into a stack batch, their
    /// states are software-prefetched [`Engine::set_prefetch_dist`] ahead
    /// (the [`Engine::pull_round`] scheme, with the same cache-resident
    /// gate), and each node's samples go straight to `apply` — no sample
    /// matrix and no second pass. A step of more than 256 samples per node
    /// gathers each sample as it draws it. Each draw passes the round's
    /// fault coins in the order of a pull round, and an undelivered sample
    /// reads `None`. Under churn the model advances through all `k` rounds
    /// before the pass, keeping one bit per node and round, and ends where
    /// `k` sampling rounds leave it.
    pub fn sample_step<M, P, F, A>(
        &mut self,
        k: usize,
        dense: usize,
        participates: P,
        serve: F,
        apply: A,
    ) where
        M: MessageSize + Clone + Send + Sync,
        P: Fn(NodeId) -> bool + Sync,
        F: Fn(NodeId, &S) -> M + Sync,
        A: Fn(NodeId, &mut S, &mut NodeRng, &mut [Option<M>]) + Sync,
    {
        with_sampler!(self, sp => with_faults!(self, fx => {
            self.sample_step_body(fx, sp, k, dense, participates, serve, apply)
        }))
    }

    /// [`Engine::sample_step`], monomorphised over the sampler type and the
    /// fault policy.
    #[allow(clippy::too_many_arguments)]
    fn sample_step_body<X, SP, M, P, F, A>(
        &mut self,
        _: PhantomData<X>,
        sampler: SP,
        k: usize,
        dense: usize,
        participates: P,
        serve: F,
        apply: A,
    ) where
        X: Faults,
        SP: Sampler,
        M: MessageSize + Clone + Send + Sync,
        P: Fn(NodeId) -> bool + Sync,
        F: Fn(NodeId, &S) -> M + Sync,
        A: Fn(NodeId, &mut S, &mut NodeRng, &mut [Option<M>]) + Sync,
    {
        let (n, dense, seed) = (self.n(), dense.min(k), self.seed);
        self.ensure_next();
        let first = self.round + 1;
        self.advance_churn(first, k);
        self.round += k as u64;
        self.local_epochs += 1;
        let local = NodeRng::key_prefix(seed, self.local_epochs, NodeRng::STREAM_LOCAL);
        // One hoisted view per round, as each sampling round hoists its own,
        // holding the round's row of churn bits (empty without churn).
        let words = self.up.len() / k.max(1);
        let rounds: Vec<(KeyPrefix, X::Round<'_>)> = (0..k)
            .map(|r| {
                let round = first + r as u64;
                let up = &self.up[r * words..(r + 1) * words];
                (
                    NodeRng::key_prefix(seed, round, NodeRng::STREAM_ROUND),
                    X::hoist(seed, round, &self.fault, up, &[]),
                )
            })
            .collect();

        let (states, sampler, rounds) = (&self.states, &sampler, &rounds);
        let (block, dist) = (self.copy_block, self.prefetch_dist);
        // A node's targets must fit the stack batch: reading the batch
        // through a slice that could also point at a heap buffer made
        // `tournament_1m` 1.25× slower, so larger steps take the unbatched
        // loop below.
        let prefetch = k <= TARGET_BATCH
            && dist > 0
            && std::mem::size_of::<S>() * n > crate::soa::PREFETCH_MIN_BYTES;
        // Nodes per target batch (at least one whenever the batch runs).
        let batch = TARGET_BATCH / k.max(1);
        // How many rounds `v` pulls in: all `k` at participants, `dense`
        // elsewhere.
        let pulls_of = |v: NodeId| {
            if dense == k || participates(v) {
                k
            } else {
                dense
            }
        };
        // What a drawn target delivers: the served message, or `None` for a
        // sentinel, which is never read.
        let gather = |t: u32, metrics: &mut Metrics| {
            states.get(t as usize).map(|state| {
                let msg = serve(t as usize, state);
                metrics.record_delivery(msg.message_bits());
                msg
            })
        };
        let (delta, joined) = par::for_chunks(
            &self.pool,
            &mut self.next[..],
            self.threads,
            (Metrics::default(), 0u64),
            |start, chunk| {
                let mut metrics = Metrics::default();
                let mut joined = 0u64;
                // Stack scratch (measurably faster than heap buffers here):
                // the batch's targets, packed node by node, and each node's
                // round count.
                let mut targets = [0u32; TARGET_BATCH];
                let mut pulls = [0usize; TARGET_BATCH];
                let mut got: Vec<Option<M>> = (0..k).map(|_| None).collect();
                let mut bs = 0;
                while bs < chunk.len() {
                    // Same structure as the pull round: refresh one block of
                    // back-buffer slots, then work through it while it is
                    // cache-hot, one target batch at a time.
                    let be = (bs + block).min(chunk.len());
                    crate::soa::clone_block(&mut chunk[bs..be], &states[start + bs..start + be]);
                    if !prefetch {
                        // Cache-resident states (gathers never miss, so the
                        // batch machinery would be pure overhead) or more
                        // targets per node than a batch holds.
                        for (j, slot) in chunk[bs..be].iter_mut().enumerate() {
                            let v = start + bs + j;
                            let kv = pulls_of(v);
                            joined += u64::from(kv > dense);
                            for (sample, (prefix, fx)) in got[..kv].iter_mut().zip(rounds) {
                                let t = fx.pull(sampler, *prefix, v, &mut metrics);
                                *sample = gather(t, &mut metrics);
                            }
                            apply(v, slot, &mut local.node(v as u64), &mut got[..kv]);
                        }
                        bs = be;
                        continue;
                    }
                    let mut js = bs;
                    while js < be {
                        let je = (js + batch).min(be);
                        let pulls = &mut pulls[..je - js];
                        // Draw every target of the batch — all rounds of
                        // every node — before the first gather…
                        let mut drawn = 0;
                        for (i, kv) in pulls.iter_mut().enumerate() {
                            let v = start + js + i;
                            *kv = pulls_of(v);
                            joined += u64::from(*kv > dense);
                            for (slot, (prefix, fx)) in
                                targets[drawn..drawn + *kv].iter_mut().zip(rounds)
                            {
                                *slot = fx.pull(sampler, *prefix, v, &mut metrics);
                            }
                            drawn += *kv;
                        }
                        // …then gather with each read prefetched `dist`
                        // targets ahead, applying node by node.
                        let mut j = 0;
                        for (i, &kv) in pulls.iter().enumerate() {
                            let v = start + js + i;
                            for sample in &mut got[..kv] {
                                if j + dist < drawn {
                                    if let Some(ahead) = states.get(targets[j + dist] as usize) {
                                        crate::soa::prefetch_read(ahead);
                                    }
                                }
                                *sample = gather(targets[j], &mut metrics);
                                j += 1;
                            }
                            apply(
                                v,
                                &mut chunk[js + i],
                                &mut local.node(v as u64),
                                &mut got[..kv],
                            );
                        }
                        js = je;
                    }
                    bs = be;
                }
                (metrics, joined)
            },
            |(a, x), (b, y)| (a + b, x + y),
        );
        for r in 0..k {
            let active = if r < dense { n as u64 } else { joined };
            self.metrics.record_round(RoundKind::Pull, active);
        }
        self.metrics = self.metrics + delta;
        std::mem::swap(&mut self.states, &mut self.next);
    }

    /// One sampling round into the node-indexed `column`: every member `v`
    /// of `dom` pulls once, and when the pull lands `deliver(slot, t,
    /// &states[t])` stores what target `t` served in `v`'s slot and returns
    /// the bits it costs on the wire; a pull that fails, is dropped, or
    /// comes from a down node leaves its slot untouched, as are the other
    /// slots. The round is recorded with the member count, and every coin —
    /// churn, failure, target, loss — is drawn in the order of the pull
    /// round.
    fn collect_column<D, X, SP, C, Dl>(
        &mut self,
        dom: D,
        _: PhantomData<X>,
        sampler: &SP,
        column: &mut [C],
        deliver: &Dl,
    ) where
        D: Domain,
        X: Faults,
        SP: Sampler,
        C: Send,
        Dl: Fn(&mut C, NodeId, &S) -> u64 + Sync,
    {
        self.metrics.record_round(RoundKind::Pull, dom.len() as u64);
        self.round += 1;
        let round = self.round;
        self.advance_churn(round, 1);
        let states = &self.states;
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let fx = X::hoist(self.seed, round, &self.fault, &self.up, &[]);
        let delta = dom.map(
            &self.pool,
            column,
            self.threads,
            Metrics::default(),
            |run, base, sub| {
                let mut local = Metrics::default();
                for p in run {
                    let v = dom.node(p);
                    let t = fx.pull(sampler, prefix, v, &mut local) as usize;
                    if let Some(state) = states.get(t) {
                        local.record_delivery(deliver(&mut sub[v - base], t, state));
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + delta;
    }

    /// One pull round that records only who delivered: `sources[v]`
    /// receives the node `v` pulled from, or `u32::MAX` when nothing
    /// arrived — `v` is outside `active` (when given), its pull failed, it
    /// was down, or the message was lost. Each delivery is charged
    /// `bits(source)` bits, the wire size of what the caller's source
    /// serves. No state is read or written: the round is fully described by
    /// its realised sources and its bit charge, which is all a caller that
    /// keeps its values outside the engine needs — it then reads the served
    /// values itself, when and how it likes (a sampler of the engine's own
    /// states reads them from a snapshot of [`Engine::states`]).
    ///
    /// Targets, coins, the round counter and [`Metrics`] advance exactly as
    /// a one-column [`Engine::collect_samples_flat`] whose messages cost
    /// `bits(source)` — over the active indices only when `active` is given
    /// (after an `O(n)` reset of `sources`, which also runs whenever a pull
    /// can fail), as in the cut rounds of [`Engine::sample_step`].
    ///
    /// # Panics
    ///
    /// If `sources.len() != n`, or `active` was built for another size.
    pub fn pull_sources<B>(&mut self, active: Option<&ActiveSet>, bits: B, sources: &mut [u32])
    where
        B: Fn(NodeId) -> u64 + Sync,
    {
        assert_eq!(sources.len(), self.n(), "one source slot per node");
        if let Some(active) = active {
            self.assert_active(active);
        }
        // Every slot no delivery writes reads "nothing arrived".
        if active.is_some() || !self.fault.is_none() {
            sources.fill(u32::MAX);
        }
        let deliver = |slot: &mut u32, t: NodeId, _: &S| {
            *slot = t as u32;
            bits(t)
        };
        let all = All(self.n());
        with_sampler!(self, sp => with_faults!(self, fx => match active {
            None => self.collect_column(all, fx, &sp, sources, &deliver),
            Some(active) => {
                self.collect_column(Members(active.indices()), fx, &sp, sources, &deliver);
            }
        }));
    }

    /// One pull round in which every node samples a random peer and receives
    /// that peer's `lanes`-wide row of `lane_values` — the lane-major,
    /// allocation-free counterpart of
    /// `collect_samples_flat(1, |t, _| lane_values[t*lanes..(t+1)*lanes].to_vec())`.
    ///
    /// `lane_values` is a borrowed lane-major sheet (`n × lanes`, node `t`'s
    /// row at `t·lanes..(t+1)·lanes`), deliberately separate from the
    /// engine's own states so callers can gossip an external per-node lane
    /// buffer without round-tripping it through engine state. `out` must be
    /// an `n × lanes` [`LaneMatrix`]; its buffers are reused, never
    /// reallocated. The round is [`Engine::pull_sources`] into the source
    /// column, charging each delivered row as the `Vec` message it stands
    /// for, length prefix included ([`crate::message::seq_message_bits`]),
    /// then one pass copying every delivered row — so draws *and* metrics
    /// equal the vector-serving call's, faults included.
    pub fn collect_lanes<V>(&mut self, lane_values: &[V], out: &mut LaneMatrix<V>)
    where
        V: MessageSize + Copy + Send + Sync,
    {
        let lanes = out.lanes();
        assert_eq!(
            out.n(),
            self.n(),
            "lane matrix row count must match the engine"
        );
        assert_eq!(
            lane_values.len(),
            self.n() * lanes,
            "lane buffer must be n × lanes"
        );
        let row = |t: usize| &lane_values[t * lanes..(t + 1) * lanes];
        let (values, sources) = out.parts_mut();
        self.pull_sources(None, |t| crate::message::seq_message_bits(row(t)), sources);
        par::for_chunks(
            &self.pool,
            (Rows(values, lanes), sources),
            self.threads,
            (),
            |_, (Rows(vchunk, _), schunk)| {
                for (dst, &src) in vchunk.chunks_exact_mut(lanes).zip(schunk.iter()) {
                    if src != LaneMatrix::<V>::NO_SOURCE {
                        dst.copy_from_slice(row(src as usize));
                    }
                }
            },
            |(), ()| (),
        );
    }

    // ------------------------------------------------------------------
    // Fault state between rounds.
    //
    // Every round body advances the churn model at its start (a no-op
    // without churn), and the push-capable bodies drain the straggled
    // contacts due this round after their sender pass. Straggled pushes
    // wait in `pending_delayed` and fold into the first push-capable round
    // at or after their due round, with the message re-derived from the
    // sender's state at arrival; pull-only rounds leave them in flight.
    // ------------------------------------------------------------------

    /// Advances the churn model through the `k` rounds from `first` on: in
    /// each, every currently-alive node draws its crash coin (from
    /// `STREAM_FAULT_CRASH`); nodes already down draw nothing until their
    /// rejoin round passes. Leaves in `up` one row of `n` bits per round,
    /// set where the node is up in that round. Sequential `O(n·k)` — churn
    /// is an explicitly-opted-into fault mode, and the scan is a trivial
    /// fraction of a round's work.
    fn advance_churn(&mut self, first: u64, k: usize) {
        let Some(churn) = self.fault.churn() else {
            return;
        };
        let coin = Coin::new(churn.crash_probability());
        let rejoin = churn.rejoin_after();
        let n = self.states.len();
        if self.down_until.len() != n {
            self.down_until = vec![0; n];
        }
        let words = n.div_ceil(64);
        self.up.clear();
        self.up.resize(k * words, 0);
        for (r, row) in self.up.chunks_mut(words).enumerate() {
            let round = first + r as u64;
            let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_FAULT_CRASH);
            for (v, down) in self.down_until.iter_mut().enumerate() {
                if *down <= round && coin.lands(&mut prefix.node(v as u64)) {
                    *down = rejoin.map_or(u64::MAX, |after| round.saturating_add(after));
                }
                if *down <= round {
                    row[v / 64] |= 1 << (v % 64);
                }
            }
        }
    }

    /// Moves the straggled contacts due at `round` from `pending_delayed`
    /// into `due_scratch`, sorted receiver-major (stable: a receiver folds
    /// its late arrivals in send order). Contacts due to a crashed receiver
    /// are dropped here and counted as [`Metrics::messages_dropped`].
    fn collect_due(&mut self, round: u64) {
        self.due_scratch.clear();
        if self.pending_delayed.is_empty() {
            return;
        }
        let due = &mut self.due_scratch;
        let down = &self.down_until;
        let mut dropped = 0u64;
        self.pending_delayed.retain(|c| {
            if c.due > round {
                return true;
            }
            if down.is_empty() || down[c.receiver as usize] <= round {
                due.push((c.receiver, c.sender));
            } else {
                dropped += 1;
            }
            false
        });
        due.sort_by_key(|&(receiver, _)| receiver);
        for _ in 0..dropped {
            self.metrics.record_drop();
        }
    }
}

/// ## Sparse rounds: active sets and copy-on-write buffers
///
/// [`Engine::push_round_on`] is the participant-proportional counterpart of
/// the dense push round, as [`Engine::local_step_on`] is of the local step
/// and [`Engine::pull_sources`] over an active set of a sampling round: it
/// takes an [`ActiveSet`] and runs the dense primitive's round body over its
/// members (the index domain, see the module docs), so its pool chunks cover
/// the active indices only ([`crate::par::for_sparse`]) and a round over `a`
/// participants costs `O(a)` plus `O(messages)` delivery work instead of
/// `O(n)`. Peer *targets* are still sampled from the full topology
/// neighbourhood — sparseness restricts who acts, not who can be contacted.
///
/// Instead of the dense rounds' whole-buffer swap, a sparse push round is
/// **copy-on-write**: only the round's *written set* — the active nodes and
/// the receivers — is cloned into the back buffer, updated there against the
/// immutable front buffer, and committed by swapping exactly those slots
/// back (an `O(|written|)` pass; [`crate::par::for_sparse`] over the buffer
/// pair). The front buffer therefore stays fully current at all times —
/// dense and sparse rounds interleave freely — and untouched slots are never
/// cloned, read, or written. (A design with an `O(1)` whole-buffer swap plus per-node epoch
/// stamps was rejected: resolving stale slots through stamps makes peer
/// reads alias the buffer being written, which cannot be expressed under
/// this crate's `deny(unsafe_code)` discipline — and the slot-swap commit is
/// already proportional to the participants, which is the property that
/// matters.)
///
/// Push deliveries are bucketed over the **sparse message set**: the draw
/// pass's `(receiver, sender)` lists are gathered into one pair list sized
/// by the number of messages and sorted receiver-major (unique keys, so the
/// unstable sort is deterministic and yields the dense paths'
/// ascending-sender fold order). Each fold task over a chunk of the written
/// set walks the slice of pairs whose receivers fall in its chunk — never an
/// `O(n)` pass.
///
/// A sparse round over [`ActiveSet::full`] is **bit-identical** to its dense
/// counterpart — same RNG keys per node, same fold order, same metrics — as
/// pinned against the golden trajectories by `tests/sparse.rs`.
impl<S: Clone + Send + Sync> Engine<S> {
    /// [`Engine::push_round`] restricted to an [`ActiveSet`]: only active
    /// nodes derive and push messages; receivers (any node of the network)
    /// fold what they were sent, in ascending sender order as in the dense
    /// primitive, and `after` runs for the **active** nodes only. The
    /// round's pushes are sorted receiver-major, and each fold task walks its
    /// receivers' slice of them. Cost: `O(|active| + messages · log
    /// messages)`.
    ///
    /// # Panics
    ///
    /// Panics if `active` was built for a different network size.
    pub fn push_round_on<M, F, G, H>(
        &mut self,
        active: &ActiveSet,
        make: F,
        fold: G,
        after: H,
    ) -> SparsePushOutcome
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
        H: Fn(NodeId, &mut S, bool) + Sync,
    {
        self.assert_active(active);
        let dom = Members(active.indices());
        with_sampler!(self, sp => with_faults!(self, fx => {
            self.push_body(dom, fx, sp, make, fold, after)
        }))
    }

    /// Readies a sparse push round's landed pushes, left by the draw pass in
    /// the first `lists` of `scratch_lists`, for the fold pass: their pairs
    /// are gathered into `scratch_pairs` and sorted receiver-major with
    /// ascending senders, and the written set (members ∪ receivers ∪ this
    /// round's straggler receivers) goes to `scratch_written`. Returns the
    /// sorted receivers, late ones included. `O(messages · log messages +
    /// |members|)` — never `O(n)`.
    fn bucket_sparse(&mut self, ids: &[u32], lists: usize) -> Vec<NodeId> {
        let pairs = &mut self.scratch_pairs;
        pairs.clear();
        for list in &self.scratch_lists[..lists] {
            pairs.extend_from_slice(list);
        }
        // Keys are unique (one push per sender), so the unstable sort is
        // deterministic; receiver-major lexicographic order gives each
        // receiver its senders ascending — the dense fold order.
        pairs.sort_unstable();
        let receivers = &mut self.scratch_receivers;
        receivers.clear();
        receivers.extend(pairs.iter().chain(&self.due_scratch).map(|&(r, _)| r));
        if !self.due_scratch.is_empty() {
            receivers.sort_unstable();
        }
        receivers.dedup();
        merge_sorted_into(ids, receivers, &mut self.scratch_written);
        receivers.iter().map(|&r| r as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn engine_with(n: usize, seed: u64) -> Engine<u64> {
        Engine::from_states((0..n as u64).collect(), EngineConfig::with_seed(seed))
    }

    #[test]
    fn rejects_fewer_than_two_nodes() {
        let err = Engine::<u64>::try_from_states(vec![1], EngineConfig::default()).unwrap_err();
        assert_eq!(err, GossipError::TooFewNodes { requested: 1 });
    }

    #[test]
    fn pull_round_never_contacts_self() {
        let mut e = engine_with(8, 3);
        for _ in 0..200 {
            e.pull_round(
                |t, _| t as u64,
                |v, _, pulled| {
                    if let Some(t) = pulled {
                        assert_ne!(t, v as u64, "node pulled from itself");
                    }
                },
            );
        }
    }

    #[test]
    fn pull_round_uses_pre_round_snapshot() {
        // All nodes simultaneously become the value they pull; because serving
        // is from the snapshot, the multiset of values after one round is a
        // sub-multiset of the original values (no partially-updated value can
        // be observed).
        let mut e = engine_with(64, 9);
        let before: HashSet<u64> = e.states().iter().copied().collect();
        e.pull_round(|_, &s| s, |_, state, pulled| *state = pulled.unwrap());
        assert!(e.states().iter().all(|v| before.contains(v)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut e = engine_with(100, seed);
            for _ in 0..2 {
                e.pull_round(
                    |_, &s| s,
                    |_, st, p| {
                        if let Some(p) = p {
                            *st = (*st).max(p);
                        }
                    },
                );
            }
            e.into_states()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The real cross-primitive matrix lives in tests/determinism.rs; this
        // is the fast unit-level check on the pull path.
        let run = |threads: usize| {
            let mut e = engine_with(500, 42);
            e.set_threads(threads);
            for _ in 0..8 {
                e.pull_round(
                    |_, &s| s,
                    |_, st, p| {
                        if let Some(p) = p {
                            *st = (*st).max(p);
                        }
                    },
                );
            }
            let metrics = e.metrics();
            (e.into_states(), metrics)
        };
        let (states_1t, _) = run(1);
        for threads in [2, 3, 8] {
            let (states, _) = run(threads);
            assert_eq!(
                states, states_1t,
                "thread count {threads} changed the execution"
            );
        }
    }

    #[test]
    fn metrics_count_rounds_messages_and_bits() {
        let mut e = engine_with(10, 1);
        e.pull_round(|_, &s| s, |_, _, _| {});
        e.push_round(|_, &s| Some(s), |_, _, _| {}, |_, _, _| {});
        let m = e.metrics();
        assert_eq!(m.rounds, 2);
        assert_eq!(m.pulls_attempted, 10);
        assert_eq!(m.pushes_attempted, 10);
        assert_eq!(m.messages_delivered, 20);
        assert_eq!(m.bits_delivered, 20 * 64);
        assert_eq!(m.max_message_bits, 64);
        assert_eq!(m.failed_operations, 0);
    }

    #[test]
    fn push_round_delivers_every_non_failed_message_exactly_once() {
        let mut e = Engine::from_states(vec![0u64; 50], EngineConfig::with_seed(11));
        // Count how many messages each node receives.
        e.push_round(|v, _| Some(v as u64), |_, st, _msg| *st += 1, |_, _, _| {});
        let total: u64 = e.states().iter().sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn push_round_folds_in_ascending_sender_order() {
        let mut e = Engine::from_states(vec![Vec::<u64>::new(); 40], EngineConfig::with_seed(7));
        e.push_round(
            |v, _| Some(v as u64),
            |_, st, msg| st.push(msg),
            |_, _, _| {},
        );
        for received in e.states() {
            let mut sorted = received.clone();
            sorted.sort_unstable();
            assert_eq!(received, &sorted);
        }
    }

    #[test]
    fn push_round_none_means_silent() {
        let mut e = Engine::from_states(vec![0u64; 20], EngineConfig::with_seed(2));
        e.push_round(
            |v, _| if v % 2 == 0 { Some(1u64) } else { None },
            |_, st, m| *st += m,
            |_, _, _| {},
        );
        let total: u64 = e.states().iter().sum();
        assert_eq!(total, 10);
        assert_eq!(e.metrics().pushes_attempted, 10);
    }

    #[test]
    fn never_firing_failure_models_normalize_to_none_at_construction() {
        // The enum variants are public, so a literal `Uniform(0.0)` (which
        // `FailureModel::uniform` would have canonicalised) must still land
        // on the engine's no-failure fast loops.
        let config = EngineConfig::with_seed(1)
            .fault(FaultPlan::none().with_failure(FailureModel::Uniform(0.0)));
        let e = Engine::from_states(vec![0u64; 4], config);
        assert!(e.fault_plan().failure().is_reliable());
        let per_node = FailureModel::per_node(vec![0.0; 4]).unwrap();
        let e = Engine::from_states(
            vec![0u64; 4],
            EngineConfig::with_seed(1).fault(FaultPlan::none().with_failure(per_node)),
        );
        assert!(e.fault_plan().failure().is_reliable());
        // A model that can fire survives normalisation.
        let config = EngineConfig::with_seed(1)
            .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.5).unwrap()));
        let e = Engine::from_states(vec![0u64; 4], config);
        assert!(!e.fault_plan().failure().is_reliable());
    }

    #[test]
    fn failures_reduce_deliveries() {
        let config = EngineConfig::with_seed(3)
            .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.5).unwrap()));
        let mut e = Engine::from_states(vec![1u64; 1000], config);
        e.pull_round(|_, &s| s, |_, _, _| {});
        let m = e.metrics();
        assert_eq!(m.pulls_attempted, 1000);
        assert!(
            m.failed_operations > 350 && m.failed_operations < 650,
            "{}",
            m.failed_operations
        );
        assert_eq!(m.messages_delivered + m.failed_operations, 1000);
    }

    #[test]
    fn total_failure_schedule_blocks_everything() {
        let config = EngineConfig::with_seed(3)
            .fault(FaultPlan::none().with_failure(FailureModel::schedule(|_, _| 1.0)));
        let mut e = Engine::from_states(vec![1u64, 2, 3, 4], config);
        let failed = e.pull_round(
            |_, &s| s,
            |_, st, p| {
                if let Some(p) = p {
                    *st = p;
                }
            },
        );
        assert_eq!(failed, 4);
        assert_eq!(e.states(), &[1, 2, 3, 4]);
    }

    #[test]
    fn push_pull_round_spreads_max_quickly() {
        let mut e = engine_with(1024, 17);
        let mut rounds = 0;
        while e.states().iter().any(|&v| v != 1023) {
            e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
            rounds += 1;
            assert!(rounds < 64, "rumor spreading too slow");
        }
        // Push-pull rumor spreading completes in O(log n) rounds; for n=1024,
        // comfortably under 30.
        assert!(rounds <= 30, "took {rounds} rounds");
    }

    #[test]
    fn collect_samples_flat_returns_k_samples_without_failures() {
        let mut e = engine_with(32, 23);
        let samples = e.collect_samples_flat(3, |_, &s| s);
        assert_eq!((samples.n(), samples.k()), (32, 3));
        assert!((0..32).all(|v| samples.count(v) == 3));
        assert_eq!(e.metrics().rounds, 3);
        // Node states are untouched by sampling.
        assert_eq!(e.states(), (0..32u64).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn collect_samples_flat_with_failures_returns_fewer() {
        let config = EngineConfig::with_seed(5)
            .fault(FaultPlan::none().with_failure(FailureModel::uniform(0.4).unwrap()));
        let mut e = Engine::from_states((0..500u64).collect(), config);
        let samples = e.collect_samples_flat(4, |_, &s| s);
        let total: usize = (0..500).map(|v| samples.count(v)).sum();
        assert!(total < 2000);
        assert!(total > 500);
    }

    #[test]
    fn local_step_touches_every_node_and_costs_no_round() {
        let mut e = engine_with(10, 0);
        e.local_step(|v, s, _rng| *s = v as u64 * 2);
        assert_eq!(e.round(), 0);
        assert_eq!(e.metrics().rounds, 0);
        assert_eq!(e.states()[7], 14);
    }

    #[test]
    fn local_step_rng_is_per_node_and_per_epoch() {
        use rand::Rng;
        // The closure is `Fn + Sync` (it runs on the pool), so each node
        // records its draw in its own state slot rather than in a captured
        // mutable buffer.
        let mut e = engine_with(16, 4);
        e.local_step(|_, st, rng| *st = rng.gen::<u64>());
        let first = e.states().to_vec();
        e.local_step(|_, st, rng| *st = rng.gen::<u64>());
        let second = e.states().to_vec();
        // Distinct across nodes and across epochs…
        let unique: HashSet<u64> = first.iter().chain(second.iter()).copied().collect();
        assert_eq!(unique.len(), 32);
        // …and reproducible: a fresh engine with the same seed replays them.
        let mut e2 = engine_with(16, 4);
        e2.local_step(|_, st, rng| *st = rng.gen::<u64>());
        assert_eq!(e2.states(), first.as_slice());
    }

    #[test]
    fn local_step_is_thread_count_invariant() {
        use rand::Rng;
        let run = |threads: usize| {
            let mut e = engine_with(300, 9);
            e.set_threads(threads);
            for _ in 0..4 {
                e.local_step(|v, st, rng| {
                    *st = st.wrapping_add(rng.gen::<u64>() ^ v as u64);
                });
            }
            e.into_states()
        };
        let baseline = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), baseline, "{threads} threads diverged");
        }
    }

    #[test]
    fn complete_peer_sampling_is_roughly_uniform() {
        let sampler = Topology::Complete
            .materialize(5, &AdjacencyCache::default())
            .expect("valid");
        let mut rng = NodeRng::keyed(77, 0, 2, NodeRng::STREAM_ROUND);
        let n = 5;
        let mut counts = vec![0u32; n];
        for _ in 0..40_000 {
            let t = sampler.sample(&mut rng, 2);
            counts[t] += 1;
        }
        assert_eq!(counts[2], 0);
        for (i, &c) in counts.iter().enumerate() {
            if i != 2 {
                assert!((c as f64 - 10_000.0).abs() < 500.0, "node {i}: {c}");
            }
        }
    }

    #[test]
    fn ring_topology_pulls_only_from_neighbours() {
        let config = EngineConfig::with_seed(5).topology(Topology::ring(1));
        let mut e = Engine::from_states((0..32u64).collect(), config);
        for _ in 0..50 {
            e.pull_round(
                |t, _| t as u64,
                |v, _, pulled| {
                    let t = pulled.expect("no failures configured") as i64;
                    let d = (t - v as i64).rem_euclid(32);
                    assert!(d == 1 || d == 31, "node {v} pulled non-neighbour {t}");
                },
            );
        }
    }

    #[test]
    fn invalid_topology_is_rejected_at_construction() {
        let config = EngineConfig::with_seed(1).topology(Topology::ring(40));
        let err = Engine::try_from_states(vec![0u64; 16], config).unwrap_err();
        assert!(matches!(
            err,
            GossipError::InvalidParameter { name: "k", .. }
        ));
    }

    #[test]
    fn sub_config_inherits_the_topology() {
        let config = EngineConfig::with_seed(1).topology(Topology::Torus2D);
        assert_eq!(config.sub(9).topology, Topology::Torus2D);
    }

    // ---- fault-plan behaviour -------------------------------------------

    use crate::fault::{ChurnModel, LossModel, StragglerModel};

    fn faulty_engine(n: usize, seed: u64, fault: FaultPlan) -> Engine<u64> {
        Engine::from_states(
            (0..n as u64).collect(),
            EngineConfig::with_seed(seed).fault(fault),
        )
    }

    #[test]
    fn zero_intensity_fault_plan_normalizes_away_at_construction() {
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::crash_stop(0.0).unwrap())
            .with_loss(LossModel::uniform(0.0).unwrap())
            .with_stragglers(StragglerModel::uniform(0.0, 4).unwrap());
        let e = faulty_engine(16, 1, plan);
        assert!(e.fault_plan().is_none());
        // And the golden-pinned fast loops therefore produce identical
        // trajectories: same fingerprint inputs as a plain engine.
        let mut a = faulty_engine(64, 9, FaultPlan::none());
        let mut b = Engine::from_states((0..64u64).collect(), EngineConfig::with_seed(9));
        for _ in 0..4 {
            a.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
            b.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
        }
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn per_node_failure_length_is_validated_against_n() {
        let per_node = FailureModel::per_node(vec![0.1; 8]).unwrap();
        let err = Engine::try_from_states(
            vec![0u64; 16],
            EngineConfig::with_seed(1).fault(FaultPlan::none().with_failure(per_node)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            GossipError::InvalidParameter {
                name: "failure",
                ..
            }
        ));
    }

    #[test]
    fn crash_stop_churn_is_permanent_and_monotone() {
        let plan = FaultPlan::none().with_churn(ChurnModel::crash_stop(0.05).unwrap());
        let mut e = faulty_engine(400, 3, plan);
        let mut prev: Vec<NodeId> = Vec::new();
        for _ in 0..12 {
            e.pull_round(|_, &s| s, |_, _, _| {});
            let crashed = e.crashed_nodes();
            // Crash-stop: once down, forever down — the crashed set only grows.
            assert!(prev.iter().all(|v| crashed.contains(v)));
            // Ascending order.
            assert!(crashed.windows(2).all(|w| w[0] < w[1]));
            prev = crashed;
        }
        assert!(!prev.is_empty(), "p=0.05 over 12 rounds on 400 nodes");
        assert!(e.metrics().crashed_operations > 0);
        // Crashed nodes perform no operation at all.
        let m = e.metrics();
        assert!(m.pulls_attempted < 12 * 400);
        assert_eq!(
            m.pulls_attempted + m.crashed_operations,
            12 * 400,
            "every node either attempts or is counted crashed"
        );
    }

    #[test]
    fn churn_with_rejoin_brings_nodes_back_after_k_rounds() {
        let plan = FaultPlan::none().with_churn(ChurnModel::with_rejoin(0.5, 2).unwrap());
        let mut e = faulty_engine(200, 7, plan);
        e.pull_round(|_, &s| s, |_, _, _| {});
        let first = e.crashed_nodes();
        assert!(!first.is_empty(), "p=0.5 on 200 nodes");
        // A node crashed in round r (down_until = r + 2) is down for rounds
        // r and r+1 and eligible again in r+2. Run two more rounds: every
        // node from `first` has either rejoined or re-crashed; none can be
        // down *because of* the round-1 coin any more.
        e.pull_round(|_, &s| s, |_, _, _| {});
        let second = e.crashed_nodes();
        // Still down one round later (down_until = 1 + 2 = 3 > 2).
        assert!(first.iter().all(|v| second.contains(v)));
        e.pull_round(|_, &s| s, |_, _, _| {});
        e.pull_round(|_, &s| s, |_, _, _| {});
        // With p = 0.5 and rejoin, the population never collapses: some
        // nodes must be alive and attempting in every round.
        let m = e.metrics();
        assert!(m.pulls_attempted > 0);
        assert!(m.crashed_operations > 0);
    }

    #[test]
    fn uniform_loss_drops_messages_and_conserves_the_push_ledger() {
        let plan = FaultPlan::none().with_loss(LossModel::uniform(0.3).unwrap());
        let mut e = faulty_engine(1000, 5, plan);
        e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        let m = e.metrics();
        assert_eq!(m.pushes_attempted, 1000);
        assert!(m.messages_dropped > 150 && m.messages_dropped < 450);
        // No churn, no stragglers, no failure model: every attempted push
        // is either delivered or dropped.
        assert_eq!(m.messages_delivered + m.messages_dropped, 1000);
        assert_eq!(e.delayed_in_flight(), 0);
    }

    #[test]
    fn loss_is_deterministic_per_contact() {
        let plan = || FaultPlan::none().with_loss(LossModel::uniform(0.4).unwrap());
        let mut a = faulty_engine(300, 21, plan());
        let mut b = faulty_engine(300, 21, plan());
        b.set_threads(4);
        for _ in 0..5 {
            a.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
            b.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
        }
        assert_eq!(a.states(), b.states());
        assert_eq!(a.metrics().messages_dropped, b.metrics().messages_dropped);
    }

    #[test]
    fn stragglers_buffer_across_rounds_and_drain_on_push_capable_rounds() {
        let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.5, 3).unwrap());
        let mut e = faulty_engine(500, 13, plan);
        e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        let in_flight = e.delayed_in_flight();
        assert!(in_flight > 100, "p=0.5 on 500 pushes, got {in_flight}");
        assert_eq!(e.metrics().messages_delayed as usize, in_flight);
        // Pull rounds are not push-capable: nothing drains there.
        e.pull_round(|_, &s| s, |_, _, _| {});
        assert!(e.delayed_in_flight() >= in_flight.saturating_sub(0));
        let before_drain = e.delayed_in_flight();
        // Every pending contact has delay <= 3; three push rounds later the
        // original batch has fully drained (new stragglers may be pending).
        let delivered_before = e.metrics().messages_delivered;
        for _ in 0..3 {
            e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        }
        assert!(e.metrics().messages_delivered > delivered_before);
        assert!(before_drain > 0);
    }

    #[test]
    fn straggled_contacts_sent_during_final_rounds_stay_in_flight() {
        let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.99, 5).unwrap());
        let mut e = faulty_engine(50, 2, plan);
        e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        // Nearly everything straggles; with no loss or churn the ledger is
        // exact: attempted = delivered in-round + delayed in-flight.
        let m = e.metrics();
        assert_eq!(m.messages_delivered + m.messages_delayed, 50);
        assert_eq!(e.delayed_in_flight() as u64, m.messages_delayed);
        assert!(m.messages_delayed >= 40, "{}", m.messages_delayed);
    }

    #[test]
    fn combined_plan_matches_itself_across_thread_counts() {
        let plan = || {
            FaultPlan::none()
                .with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap())
                .with_loss(LossModel::uniform(0.2).unwrap())
                .with_stragglers(StragglerModel::uniform(0.2, 2).unwrap())
                .with_failure(FailureModel::uniform(0.1).unwrap())
        };
        let mut fingerprints = Vec::new();
        for threads in [1usize, 3, 8] {
            let mut e = faulty_engine(600, 31, plan());
            e.set_threads(threads);
            for _ in 0..6 {
                e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
            }
            let m = e.metrics();
            fingerprints.push((
                e.states().to_vec(),
                e.crashed_nodes(),
                e.delayed_in_flight(),
                m.messages_dropped,
                m.messages_delayed,
                m.crashed_operations,
                m.failed_operations,
            ));
        }
        assert_eq!(fingerprints[0], fingerprints[1]);
        assert_eq!(fingerprints[0], fingerprints[2]);
    }

    #[test]
    fn sub_engine_of_a_faulted_config_starts_with_no_crashes_or_stragglers() {
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::crash_stop(0.2).unwrap())
            .with_stragglers(StragglerModel::uniform(0.5, 4).unwrap());
        let config = EngineConfig::with_seed(19).fault(plan);
        let mut e = Engine::from_states((0..300u64).collect(), config.clone());
        for _ in 0..3 {
            e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        }
        assert!(!e.crashed_nodes().is_empty());
        // A sub-engine built from the config starts with everyone alive.
        let sub = Engine::from_states(vec![0u64; 10], config.sub(77));
        assert!(sub.crashed_nodes().is_empty());
        assert_eq!(sub.delayed_in_flight(), 0);
    }

    #[test]
    fn collect_samples_flat_under_faults_still_reports_inner_rounds() {
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::with_rejoin(0.2, 1).unwrap())
            .with_loss(LossModel::uniform(0.3).unwrap());
        let mut e = faulty_engine(400, 23, plan);
        let samples = e.collect_samples_flat(3, |_, &s| s);
        assert_eq!((samples.n(), samples.k()), (400, 3));
        assert_eq!(e.metrics().rounds, 3);
        // Faults thin the samples but cannot invent them.
        let total: usize = (0..400).map(|v| samples.count(v)).sum();
        assert!(total < 3 * 400);
        assert!(total > 0);
    }
}
