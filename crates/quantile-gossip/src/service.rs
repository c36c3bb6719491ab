//! Batched multi-query quantile service with incremental recompute.
//!
//! [`QuantileService`] answers a *vector* of `(φ, ε)` queries over the same
//! `n` holders through **shared** tournament rounds: every gossip contact
//! carries one comparison value per query ("lane"), so `q` queries cost one
//! engine round sequence of length `max_i(2·t1ᵢ) + max_i(3·t2ᵢ + K)` instead
//! of `Σᵢ (2·t1ᵢ + 3·t2ᵢ + K)` — a `~q×` round amortisation over running
//! [`crate::approx::tournament_quantile`] once per query (Theorems 1.2/1.3:
//! the per-query amortised round cost drops from `O(log log n + log 1/ε)` to
//! `O((log log n + log 1/ε)/q)` as long as the `O(q log n)`-bit payload is
//! acceptable; [`Metrics::mean_bits_per_node_round`] reports exactly that
//! payload cost).
//!
//! **Bit-identity.** Both tournament phases key every draw purely by
//! `(seed, round, node)` on dedicated RNG streams, and each solo iteration
//! occupies a fixed window of rounds (two in Phase I, three in Phase II, `K`
//! vote rounds after convergence). Lane `i` of the batched run therefore
//! replays query `i`'s solo trajectory *exactly*: the service derives the two
//! phase engines from the same [`SeedSequence`] protocol as
//! [`crate::approx::tournament_quantile`], executes the union of every lane's
//! round schedule, and applies each lane's own update rule to its component
//! of the shared state vector. The answers are bit-identical to `q`
//! independent runs on the same [`EngineConfig`] seed — the conformance
//! suite in `tests/service.rs` pins this on every topology and under a
//! disruptive [`gossip_net::FaultPlan`].
//!
//! **One window sequence.** The service builds an epoch's windows once, at
//! construction: every Phase I iteration (two rounds on the Phase I engine),
//! then every Phase II window (three rounds on the Phase II engine); the `K`
//! rounds only the vote uses follow. Each window steps every node from one
//! snapshot into the next, so Phase II continues in Phase I's last snapshot
//! and one chain of `t1max + t2max + 1` snapshots holds the whole
//! trajectory.
//!
//! **Incremental recompute.** Holders ingest new values between epochs
//! ([`QuantileService::ingest`]), summarised per holder by the
//! [`CompactorSketch`] of Appendix A (the holder gossips its sketch median).
//! Contact patterns are epoch-invariant — every draw (targets, participation
//! coins, fault outcomes) is keyed purely by `(seed, round, node)` — so the
//! full recompute records the *realised* pull source of every node in every
//! round alongside the per-iteration state snapshots. An incremental
//! [`QuantileService::epoch`] then needs no engine at all: it replays the
//! cached trajectory as a pure dataflow over that realised contact graph,
//! touching per round only the nodes whose own state or realised source is
//! dirty and pruning nodes whose recomputed state matches the cache. The
//! epoch reports the cached logical round and traffic cost (the network
//! cost of the trajectory is unchanged — only the service-side wall-clock
//! shrinks with the dirty closure). When the dirty fraction exceeds
//! [`ServiceConfig::dirty_threshold`] the service recomputes from scratch
//! instead, refreshing the cache. Either way the answers equal a
//! from-scratch [`recompute_full`] (`tests/service.rs` pins exact
//! equality).
//!
//! [`recompute_full`]: QuantileService::recompute_full

use crate::approx::MAX_TOURNAMENT_EPSILON;
use crate::schedule::{ShrinkSide, ThreeTournamentSchedule, TwoTournamentSchedule};
use crate::three_tournament::{self, median3, FinalVote};
use crate::two_tournament::{self, extremum};
use baselines::CompactorSketch;
use gossip_net::message::seq_message_bits;
use gossip_net::par::Rows;
use gossip_net::soa::prefetch_read;
use gossip_net::{
    par, ActiveSet, Engine, EngineConfig, GossipError, Metrics, NodeRng, NodeValue, Result,
    SeedSequence, WorkerPool,
};
use std::sync::Arc;
use std::time::Instant;

/// One `(φ, ε)` quantile query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileQuery {
    /// The target quantile `φ ∈ [0, 1]`.
    pub phi: f64,
    /// The rank accuracy `ε > 0` (clamped to [`MAX_TOURNAMENT_EPSILON`] like
    /// [`crate::approx::tournament_quantile`]).
    pub epsilon: f64,
}

impl QuantileQuery {
    /// Convenience constructor.
    pub fn new(phi: f64, epsilon: f64) -> Self {
        QuantileQuery { phi, epsilon }
    }
}

/// Configuration of a [`QuantileService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// The final `K`-sample vote shared by every lane (Algorithm 2, line 8).
    pub final_vote: FinalVote,
    /// Dirty-holder fraction above which [`QuantileService::epoch`] abandons
    /// incremental replay and recomputes from scratch.
    pub dirty_threshold: f64,
    /// Capacity of each holder's ingestion [`CompactorSketch`].
    pub sketch_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            final_vote: FinalVote::default(),
            dirty_threshold: 0.25,
            sketch_capacity: 32,
        }
    }
}

/// Per-query round accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// Phase I iterations of this query's solo schedule (`t` of Lemma 2.2).
    pub phase1_iterations: usize,
    /// Phase II iterations of this query's solo schedule (`t` of Lemma 2.12).
    pub phase2_iterations: usize,
    /// Rounds a solo [`crate::approx::tournament_quantile`] run would spend on
    /// this query: `2·t1 + 3·t2 + K`.
    pub solo_rounds: u64,
}

/// How an epoch was answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpochMode {
    /// Full recompute of every lane from the current inputs.
    Full,
    /// Sparse replay of the cached trajectory on the dirty closure only.
    Incremental {
        /// Holders whose effective value changed since the cached epoch.
        dirty_nodes: usize,
        /// `dirty_nodes / n`.
        dirty_fraction: f64,
    },
}

/// Wall-clock breakdown of one epoch, by pipeline stage.
///
/// Full epochs fill the collect / apply / vote stages; incremental epochs
/// fill replay (the engine-free dataflow over the cached trajectory) and
/// vote (the output patch). Purely observational — timings are never part
/// of answer equality, and the unfilled stages of a mode stay `0.0`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochTimings {
    /// Seconds drawing the epoch's rounds as realised sources only
    /// ([`Engine::pull_sources`], straight into the trajectory's source
    /// rows), including participation coins and δ-cut active sets.
    pub collect_secs: f64,
    /// Seconds in the fused gather-and-step passes: each window reads every
    /// node's samples out of snapshot `j` at its realised sources and writes
    /// its lane values into snapshot `j + 1`.
    pub apply_secs: f64,
    /// Always `0.0`: the passes above write the whole replay cache in place,
    /// so no stage records it. Kept only because perfbench reports it as
    /// `service.record_s`.
    pub record_secs: f64,
    /// Seconds deriving (full epochs) or patching (incremental epochs) the
    /// per-lane vote outputs.
    pub vote_secs: f64,
    /// Seconds replaying the cached dataflow (incremental epochs only).
    pub replay_secs: f64,
}

/// Result of one [`QuantileService::epoch`].
#[derive(Debug, Clone)]
pub struct ServiceOutcome<V> {
    /// `answers[i][v]`: node `v`'s answer to query `i` — bit-identical to the
    /// output of a solo [`crate::approx::tournament_quantile`] run for query
    /// `i` on the same seed.
    pub answers: Vec<Vec<V>>,
    /// Engine rounds executed this epoch (both phases plus the vote).
    pub rounds: u64,
    /// Aggregated communication metrics of this epoch
    /// ([`Metrics::mean_bits_per_node_round`] gives the payload cost of
    /// batching).
    pub metrics: Metrics,
    /// Per-query solo-run costs, for amortisation accounting.
    pub per_query: Vec<QueryCost>,
    /// Whether this epoch ran fully or incrementally.
    pub mode: EpochMode,
    /// Wall-clock breakdown of the epoch's pipeline stages.
    pub timings: EpochTimings,
}

impl<V> ServiceOutcome<V> {
    /// Round amortisation of batching: `Σᵢ solo_rounds(i) / rounds`. With `q`
    /// similar queries this approaches `q`.
    pub fn amortisation(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        let solo: u64 = self.per_query.iter().map(|c| c.solo_rounds).sum();
        solo as f64 / self.rounds as f64
    }
}

/// The per-query schedules (computed once at construction).
#[derive(Debug, Clone)]
struct LanePlan {
    schedule1: TwoTournamentSchedule,
    schedule2: ThreeTournamentSchedule,
}

impl LanePlan {
    fn t1(&self) -> usize {
        self.schedule1.len()
    }
    fn t2(&self) -> usize {
        self.schedule2.len()
    }
}

/// The cached trajectory of the last full epoch, the raw material of
/// incremental replay: one chain of `t1max + t2max + 1` snapshots.
/// `snaps[j][v * q + i]` is node `v`'s lane-`i` value before window `j` of
/// the epoch's window sequence: `snaps[0]` holds the inputs, Phase II starts
/// from Phase I's last snapshot `snaps[t1max]`, and the last snapshot holds
/// the final states the vote reads. `outputs[v * q + i]` is the final vote
/// output.
///
/// `sources` records the realised contact graph: the node each holder
/// actually received a pull from in every round (`u32::MAX` when nothing
/// was delivered — a failed target, a lost or straggling message, a crashed
/// node, or a round the holder sat out). Draws are keyed purely by `(seed,
/// round, node)`, so these sources are epoch-invariant: a re-run on new
/// inputs realises exactly the same graph, which is what makes the
/// engine-free incremental replay exact, faults included. It is one sheet
/// of `2·t1max + 3·t2max + K` rows of `n`: each window's rounds from its
/// first row (slots A and B of a Phase I iteration, three rounds of a Phase
/// II window), then the `K` rounds only the vote uses. `rounds`/`metrics`
/// are the logical cost of the cached trajectory, reported verbatim by
/// incremental epochs.
///
/// Snapshots are stored lane-major and flat — `snaps[j][v * q + i]` — so a
/// source read touches the one contiguous row covering every lane of the
/// source node instead of chasing a per-node `Vec` pointer. They are not
/// copies taken on the side: a full epoch steps each window straight from
/// snapshot `j` into snapshot `j + 1`, so the snapshots double as the
/// epoch's state buffers and nothing is copied between them.
#[derive(Debug, Clone)]
struct Trajectory<V> {
    snaps: Vec<Vec<V>>,
    outputs: Vec<V>,
    sources: Vec<u32>,
    rounds: u64,
    metrics: Metrics,
}

impl<V: Copy> Trajectory<V> {
    /// An unsized trajectory for the first full epoch to grow into —
    /// subsequent full epochs refill the previous epoch's buffers in place.
    fn empty() -> Self {
        Trajectory {
            snaps: Vec::new(),
            outputs: Vec::new(),
            sources: Vec::new(),
            rounds: 0,
            metrics: Metrics::new(),
        }
    }

    /// Sizes every buffer for an epoch of `n × q` lanes, `snapshots`
    /// snapshots and `rows` source rows. Returns whether any buffer had to
    /// grow. Contents are left as they are: the epoch writes every element
    /// before reading it.
    fn prepare(&mut self, n: usize, q: usize, snapshots: usize, rows: usize, fill: V) -> bool {
        let mut grew = fit(&mut self.sources, rows * n, u32::MAX);
        grew |= fit(&mut self.outputs, n * q, fill);
        if self.snaps.len() != snapshots {
            self.snaps.resize_with(snapshots, Vec::new);
            grew = true;
        }
        for snap in &mut self.snaps {
            grew |= fit(snap, n * q, fill);
        }
        grew
    }
}

/// Resizes `buf` to `len` (filled with `fill`) unless it already has that
/// length. Returns whether it had to.
fn fit<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) -> bool {
    if buf.len() == len {
        return false;
    }
    buf.clear();
    buf.resize(len, fill);
    true
}

/// Reused epoch working memory besides the [`Trajectory`]: everything a
/// steady-state epoch touches per round is allocated here once (or by the
/// first epoch) and only ever *filled* afterwards — the buffer-reuse half of
/// the service's "no per-round size-`n` allocations" guarantee (the debug
/// fingerprint in [`QuantileService::recompute_full`] asserts the other
/// half).
#[derive(Debug)]
struct EpochScratch {
    /// Participation coins of the current iteration.
    coins: Vec<f64>,
    /// Reusable δ-cut participant set.
    active: ActiveSet,
    /// Whether a full epoch has already sized every buffer.
    warmed: bool,
}

impl Default for EpochScratch {
    fn default() -> Self {
        EpochScratch {
            coins: Vec::new(),
            active: ActiveSet::from_fn(0, |_| false),
            warmed: false,
        }
    }
}

impl EpochScratch {
    /// Sizes every reusable buffer for `n` nodes. Returns whether any
    /// buffer had to grow — which must never happen once `warmed`.
    fn prepare(&mut self, n: usize) -> bool {
        let mut grew = fit(&mut self.coins, n, 0.0);
        if self.active.n() != n {
            self.active = ActiveSet::from_fn(n, |_| false);
            grew = true;
        }
        grew
    }
}

/// A multi-query quantile service over `n` value holders.
///
/// See the [module docs](self) for the design. Typical use:
///
/// ```
/// use gossip_net::EngineConfig;
/// use quantile_gossip::service::{QuantileQuery, QuantileService, ServiceConfig};
///
/// # fn main() -> gossip_net::Result<()> {
/// let readings: Vec<u64> = (0..256).map(|i| (i * 7919) % 65_536).collect();
/// let queries = [QuantileQuery::new(0.5, 0.125), QuantileQuery::new(0.9, 0.1)];
/// let mut svc = QuantileService::new(
///     &readings,
///     &queries,
///     ServiceConfig::default(),
///     EngineConfig::with_seed(7),
/// )?;
///
/// // First epoch: full batched run, one shared round sequence for both queries.
/// let out = svc.epoch()?;
/// assert_eq!(out.answers.len(), 2);
///
/// // A handful of holders observe new values; the next epoch replays only
/// // the affected part of the trajectory.
/// svc.ingest(3, 123)?;
/// svc.ingest(200, 45_000)?;
/// let out2 = svc.epoch()?;
/// assert_eq!(out2.answers.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QuantileService<V: NodeValue> {
    queries: Vec<QuantileQuery>,
    per_query: Vec<QueryCost>,
    config: ServiceConfig,
    engine_config: EngineConfig,
    n: usize,
    sketches: Vec<CompactorSketch<V>>,
    inputs: Vec<V>,
    dirty: Vec<bool>,
    cache: Option<Trajectory<V>>,
    /// The epoch's window sequence: every Phase I iteration, then every
    /// Phase II window.
    windows: Vec<Window>,
    vote: VotePlan,
    /// Worker-thread override for epoch execution (`None` = engine default).
    threads: Option<usize>,
    scratch: EpochScratch,
}

impl<V: NodeValue> QuantileService<V> {
    /// Creates a service over `values` answering `queries` each epoch.
    ///
    /// # Errors
    ///
    /// [`GossipError::TooFewNodes`] with fewer than two holders;
    /// [`GossipError::InvalidParameter`] for an empty query vector, a query
    /// with `φ ∉ [0, 1]` or `ε ≤ 0` (mirroring
    /// [`crate::approx::tournament_quantile`]), a zero-sample vote, a
    /// `dirty_threshold` outside `[0, 1]`, or a zero sketch capacity.
    pub fn new(
        values: &[V],
        queries: &[QuantileQuery],
        config: ServiceConfig,
        engine_config: EngineConfig,
    ) -> Result<Self> {
        let n = values.len();
        if n < 2 {
            return Err(GossipError::TooFewNodes { requested: n });
        }
        if queries.is_empty() {
            return Err(GossipError::InvalidParameter {
                name: "queries",
                reason: "the service needs at least one query".to_string(),
            });
        }
        if config.final_vote.samples == 0 {
            return Err(GossipError::InvalidParameter {
                name: "vote.samples",
                reason: "the final vote needs at least one sample".to_string(),
            });
        }
        if config.final_vote.samples > u16::MAX as usize {
            return Err(GossipError::InvalidParameter {
                name: "vote.samples",
                reason: format!("at most {} vote samples supported", u16::MAX),
            });
        }
        if !(config.dirty_threshold >= 0.0 && config.dirty_threshold <= 1.0) {
            return Err(GossipError::InvalidParameter {
                name: "dirty_threshold",
                reason: format!("must be in [0, 1], got {}", config.dirty_threshold),
            });
        }
        if config.sketch_capacity == 0 {
            return Err(GossipError::InvalidParameter {
                name: "sketch_capacity",
                reason: "holder sketches need a positive capacity".to_string(),
            });
        }
        let mut plans = Vec::with_capacity(queries.len());
        let mut per_query = Vec::with_capacity(queries.len());
        for query in queries {
            // Mirror tournament_quantile's validation and clamping exactly so
            // each lane's schedules equal the solo run's.
            if !(0.0..=1.0).contains(&query.phi) {
                return Err(GossipError::InvalidParameter {
                    name: "phi",
                    reason: format!("must be in [0, 1], got {}", query.phi),
                });
            }
            if query.epsilon <= 0.0 {
                return Err(GossipError::InvalidParameter {
                    name: "epsilon",
                    reason: format!("must be positive, got {}", query.epsilon),
                });
            }
            let eps = query.epsilon.min(MAX_TOURNAMENT_EPSILON);
            let schedule1 = TwoTournamentSchedule::compute(query.phi, eps)?;
            let schedule2 = ThreeTournamentSchedule::compute(eps / 4.0, n)?;
            per_query.push(QueryCost {
                phase1_iterations: schedule1.len(),
                phase2_iterations: schedule2.len(),
                solo_rounds: 2 * schedule1.len() as u64
                    + 3 * schedule2.len() as u64
                    + config.final_vote.samples as u64,
            });
            plans.push(LanePlan {
                schedule1,
                schedule2,
            });
        }
        let t1max = plans.iter().map(LanePlan::t1).max().unwrap_or(0);
        let t2max = plans.iter().map(LanePlan::t2).max().unwrap_or(0);
        let k = config.final_vote.samples;
        let windows = (0..t1max)
            .map(|j| Window::phase1(&plans, j))
            .chain((0..t2max).map(|j| Window::phase2(&plans, t1max, k, j)))
            .collect();
        let vote = VotePlan::new(&plans, t1max, k);
        let mut engine_config = engine_config;
        engine_config.ensure_pool_for(n);
        if engine_config.pool.is_none() {
            // Below the engine's parallel threshold `ensure_pool_for` is a
            // no-op, but the epochs' own passes run on the configured pool —
            // a 1-thread pool runs every dispatch inline, so results and
            // small-n wall-clock are unaffected.
            engine_config.pool = Some(Arc::new(WorkerPool::new(1)));
        }
        Ok(QuantileService {
            queries: queries.to_vec(),
            windows,
            vote,
            per_query,
            config,
            engine_config,
            n,
            sketches: values
                .iter()
                .map(|&v| CompactorSketch::singleton(v, config.sketch_capacity))
                .collect(),
            inputs: values.to_vec(),
            dirty: vec![false; n],
            cache: None,
            threads: None,
            scratch: EpochScratch::default(),
        })
    }

    /// Overrides the worker-thread count epochs run on (clamped to at least
    /// 1). Answers never depend on this — only wall-clock does — which the
    /// conformance suite pins by running identical services at 1, 2 and 8
    /// threads. Grows the shared pool if the override exceeds it, so the
    /// phase engines never swap to private pools.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        let t = threads.max(1);
        self.threads = Some(t);
        if !self
            .engine_config
            .pool
            .as_ref()
            .is_some_and(|p| p.threads() >= t)
        {
            self.engine_config.pool = Some(Arc::new(WorkerPool::new(t)));
        }
        self
    }

    /// Number of holders.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The query vector.
    pub fn queries(&self) -> &[QuantileQuery] {
        &self.queries
    }

    /// Per-query solo-run round costs.
    pub fn per_query(&self) -> &[QueryCost] {
        &self.per_query
    }

    /// Holders whose effective value changed since the last epoch.
    pub fn dirty_nodes(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// [`dirty_nodes`](Self::dirty_nodes) as a fraction of `n`.
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_nodes() as f64 / self.n as f64
    }

    /// Whether a cached trajectory from a previous epoch exists.
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// The effective (gossiped) value of each holder: its sketch median.
    pub fn effective_values(&self) -> &[V] {
        &self.inputs
    }

    /// Holder `node` observes `value`: the ingestion sketch absorbs it (one
    /// [`CompactorSketch::insert`], i.e. a singleton merge per Appendix A)
    /// and the holder's effective value becomes the sketch median. The holder
    /// is marked dirty only if that median actually moved.
    ///
    /// # Errors
    ///
    /// [`GossipError::InvalidParameter`] if `node >= n`.
    pub fn ingest(&mut self, node: usize, value: V) -> Result<()> {
        self.check_node(node)?;
        self.sketches[node].insert(value);
        let effective = self.sketches[node]
            .quantile(0.5)
            .expect("a holder sketch is never empty");
        if effective != self.inputs[node] {
            self.inputs[node] = effective;
            self.dirty[node] = true;
        }
        Ok(())
    }

    /// Replaces holder `node`'s stream outright: the sketch is reset to a
    /// singleton of `value`. Useful for deterministic dirty-set experiments.
    ///
    /// # Errors
    ///
    /// [`GossipError::InvalidParameter`] if `node >= n`.
    pub fn set_value(&mut self, node: usize, value: V) -> Result<()> {
        self.check_node(node)?;
        self.sketches[node] = CompactorSketch::singleton(value, self.config.sketch_capacity);
        if value != self.inputs[node] {
            self.inputs[node] = value;
            self.dirty[node] = true;
        }
        Ok(())
    }

    fn check_node(&self, node: usize) -> Result<()> {
        if node >= self.n {
            return Err(GossipError::InvalidParameter {
                name: "node",
                reason: format!("holder {node} out of range for {} holders", self.n),
            });
        }
        Ok(())
    }

    /// Answers every query on the current inputs: incrementally when a cached
    /// trajectory exists and the dirty fraction is at most
    /// [`ServiceConfig::dirty_threshold`], from scratch otherwise. Both paths
    /// produce identical answers.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (none under a well-formed configuration).
    pub fn epoch(&mut self) -> Result<ServiceOutcome<V>> {
        if self.cache.is_some() && self.dirty_fraction() <= self.config.dirty_threshold {
            self.recompute_incremental()
        } else {
            self.recompute_full()
        }
    }

    /// The two phase engines, derived exactly like
    /// [`crate::approx::tournament_quantile`] derives its sub-engines: one
    /// [`SeedSequence`] over the configured seed, first sub-seed to Phase I,
    /// second to Phase II. The engines carry `()` state — they are pure
    /// round/draw/metrics machines; the service owns the lane-major values
    /// and serves them from the sampling closures.
    fn engines(&self) -> [Engine<()>; 2] {
        self.phase_seeds()
            .map(|seed| Engine::from_states(vec![(); self.n], self.engine_config.sub(seed)))
    }

    /// The two phase seeds of [`engines`](Self::engines), without paying for
    /// engine construction — incremental replay needs only the coin streams.
    fn phase_seeds(&self) -> [u64; 2] {
        let mut seeds = SeedSequence::new(self.engine_config.seed);
        [seeds.next_seed(), seeds.next_seed()]
    }

    /// Runs every lane from scratch through one shared round sequence and
    /// caches the trajectory for later incremental epochs.
    ///
    /// The epoch is one pass per window of the window sequence (Phase I's
    /// iterations, then Phase II's windows): draw the window's rounds as
    /// realised sources only ([`Engine::pull_sources`], straight into the
    /// trajectory's source rows), then step every node from snapshot `j`
    /// into snapshot `j + 1`, reading each sample out of snapshot `j` at its
    /// source; after the last window the `K` vote rounds draw sources only
    /// and one node-major pass votes from the final snapshot.
    ///
    /// Steady-state epochs are **allocation-free per round**: every round
    /// buffer (coins, active set, snapshots, source rows, outputs) is
    /// reused from the service's epoch scratch and the previous trajectory;
    /// a debug fingerprint asserts no buffer moved.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (none under a well-formed configuration).
    pub fn recompute_full(&mut self) -> Result<ServiceOutcome<V>> {
        let (n, q, k) = (self.n, self.queries.len(), self.config.final_vote.samples);
        let mut engines = self.engines();
        if let Some(t) = self.threads {
            // `set_threads` pre-sized the shared pool, so these never swap
            // pools — the epoch runs on one worker set.
            for engine in &mut engines {
                engine.set_threads(t);
            }
        }
        let threads = engines[0].threads();
        let pool = Arc::clone(engines[0].pool());
        let windows = &self.windows;
        let mut timings = EpochTimings::default();

        // ---- Buffer preparation (reuse everything from last epoch) -----
        // The vote-only rounds follow the last window's rows.
        let vote_start = windows.last().map_or(0, |w| w.first_row + w.samples);
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut traj = self.cache.take().unwrap_or_else(Trajectory::empty);
        let grew = scratch.prepare(n)
            | traj.prepare(n, q, windows.len() + 1, vote_start + k, self.inputs[0]);
        debug_assert!(
            !(scratch.warmed && grew),
            "steady-state epoch grew a buffer"
        );
        #[cfg(debug_assertions)]
        let warmed_ptrs = scratch
            .warmed
            .then(|| epoch_buffer_ptrs(&traj, &scratch.coins));
        let Trajectory {
            snaps,
            outputs,
            sources,
            ..
        } = &mut traj;
        let inputs = &self.inputs;
        par::for_chunks(
            &pool,
            Rows(&mut snaps[0], q),
            threads,
            (),
            |start, Rows(rows, _)| {
                for (row, &x) in rows.chunks_exact_mut(q).zip(&inputs[start..]) {
                    row.fill(x);
                }
            },
            |(), ()| (),
        );

        // ---- The windows: Phase I's iterations, then Phase II's ---------
        run_windows(
            &mut engines,
            windows,
            snaps,
            sources,
            &mut scratch,
            &mut timings,
        );

        // ---- The vote: K rounds of sources, one pass over the nodes -----
        // Every lane has frozen by its vote window, so the values its vote
        // sources serve are their final states, the last snapshot.
        let fin = &snaps[windows.len()][..];
        let t0 = Instant::now();
        for row in sources[vote_start * n..].chunks_exact_mut(n) {
            engines[1].pull_sources(None, |t| seq_message_bits(&fin[t * q..(t + 1) * q]), row);
        }
        timings.collect_secs += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        vote_rows(&pool, threads, &self.vote, fin, sources, None, outputs);
        timings.vote_secs += t0.elapsed().as_secs_f64();

        let metrics = engines[0].metrics() + engines[1].metrics();
        let rounds = metrics.rounds;
        traj.rounds = rounds;
        traj.metrics = metrics;
        #[cfg(debug_assertions)]
        if let Some(before) = warmed_ptrs {
            debug_assert_eq!(
                before,
                epoch_buffer_ptrs(&traj, &scratch.coins),
                "steady-state epoch reallocated a round buffer"
            );
        }
        scratch.warmed = true;
        self.scratch = scratch;
        self.cache = Some(traj);
        self.dirty.iter_mut().for_each(|d| *d = false);
        Ok(self.outcome_from_cache(rounds, metrics, EpochMode::Full, timings, threads))
    }

    /// Replays the cached trajectory as a pure dataflow over the realised
    /// contact graph recorded by the last full recompute: no engine rounds
    /// run at all. Each window touches only the nodes whose own state or
    /// realised pull source is dirty, recomputed states are compared against
    /// the cache and pruned on equality, and the vote outputs are recomputed
    /// for the nodes whose own row or one of whose realised vote sources
    /// moved. All other nodes keep their cached trajectory untouched. The
    /// reported rounds/metrics are the cached logical cost of the trajectory
    /// (the network would spend the same either way — only the service-side
    /// wall-clock shrinks).
    ///
    /// The per-round dirty frontier is carved into disjoint node chunks and
    /// recomputed on the shared pool.
    fn recompute_incremental(&mut self) -> Result<ServiceOutcome<V>> {
        let mut cache = self
            .cache
            .take()
            .expect("incremental replay needs a cached trajectory");
        let (n, q) = (self.n, self.queries.len());
        let pool = Arc::clone(
            self.engine_config
                .pool
                .as_ref()
                .expect("the service constructor always installs a pool"),
        );
        let threads = self.threads.unwrap_or(if n >= Engine::<()>::PAR_MIN_NODES {
            par::num_threads()
        } else {
            1
        });
        let mut timings = EpochTimings::default();
        let t_replay = Instant::now();

        // Seed the dirty set, pruning holders whose value bounced back.
        let mut dirty_map = vec![false; n];
        let mut dirty_nodes = 0usize;
        let inputs = &mut cache.snaps[0];
        for v in 0..n {
            if self.dirty[v] && self.inputs[v] != inputs[v * q] {
                dirty_map[v] = true;
                dirty_nodes += 1;
                inputs[v * q..(v + 1) * q].fill(self.inputs[v]);
            }
        }
        let dirty_fraction = dirty_nodes as f64 / n as f64;
        if dirty_nodes == 0 {
            // Every marked holder bounced back to its cached value: the
            // cached trajectory is already current.
            let (rounds, metrics) = (cache.rounds, cache.metrics);
            self.cache = Some(cache);
            self.dirty.iter_mut().for_each(|d| *d = false);
            timings.replay_secs = t_replay.elapsed().as_secs_f64();
            return Ok(self.outcome_from_cache(
                rounds,
                metrics,
                EpochMode::Incremental {
                    dirty_nodes,
                    dirty_fraction,
                },
                timings,
                threads,
            ));
        }
        let seeds = self.phase_seeds();
        let coins = &mut self.scratch.coins;
        fit(coins, n, 0.0);
        let Trajectory {
            snaps,
            outputs,
            sources,
            ..
        } = &mut cache;

        // ---- Replay every window ---------------------------------------
        replay_windows(
            &pool,
            threads,
            &self.windows,
            seeds,
            coins,
            snaps,
            sources,
            &mut dirty_map,
        );
        timings.replay_secs = t_replay.elapsed().as_secs_f64();

        // ---- Patch the vote outputs ------------------------------------
        // Every replayed window leaves `dirty_map[v]` set exactly when some
        // component of `v`'s new row differs from the cache, so after the
        // last window it marks the rows of the final snapshot that moved. A
        // vote output can change only if its node's row or one of its
        // realised vote sources moved (the own-row test also covers the
        // empty-vote fallback to the converged value); those rows rerun the
        // full epoch's vote kernel, every other row keeps its cached output.
        let t0 = Instant::now();
        let fin = &snaps[self.windows.len()][..];
        vote_rows(
            &pool,
            threads,
            &self.vote,
            fin,
            sources,
            Some(&dirty_map),
            outputs,
        );
        timings.vote_secs = t0.elapsed().as_secs_f64();

        let rounds = cache.rounds;
        let metrics = cache.metrics;
        self.cache = Some(cache);
        self.dirty.iter_mut().for_each(|d| *d = false);
        Ok(self.outcome_from_cache(
            rounds,
            metrics,
            EpochMode::Incremental {
                dirty_nodes,
                dirty_fraction,
            },
            timings,
            threads,
        ))
    }

    /// The outcome of an epoch whose outputs are in the cache. The answers
    /// are the outputs transposed to one vector per lane, on the pool: each
    /// task walks the output rows once and appends its lanes' values.
    fn outcome_from_cache(
        &self,
        rounds: u64,
        metrics: Metrics,
        mode: EpochMode,
        timings: EpochTimings,
        threads: usize,
    ) -> ServiceOutcome<V> {
        let outputs = &self.cache.as_ref().expect("cache just written").outputs;
        let pool = self
            .engine_config
            .pool
            .as_ref()
            .expect("the service constructor always installs a pool");
        let (n, q) = (self.n, self.queries.len());
        let mut answers: Vec<Vec<V>> = (0..q).map(|_| Vec::with_capacity(n)).collect();
        par::for_chunks(
            pool,
            &mut answers[..],
            threads,
            (),
            |start, lanes| {
                for row in outputs.chunks_exact(q) {
                    for (lane, &x) in lanes.iter_mut().zip(&row[start..]) {
                        lane.push(x);
                    }
                }
            },
            |(), ()| (),
        );
        ServiceOutcome {
            answers,
            rounds,
            metrics,
            per_query: self.per_query.clone(),
            mode,
            timings,
        }
    }
}

/// How one lane updates in one window (a Phase I iteration or a Phase II
/// 3-round window).
#[derive(Debug, Clone, Copy)]
enum LaneRule {
    /// The lane's schedule has ended: its value carries over.
    Frozen,
    /// A full 2-TOURNAMENT step shrinking the given side.
    Two(ShrinkSide),
    /// A δ-truncated 2-TOURNAMENT step: only nodes with coin < δ take the
    /// second sample.
    TwoCut(ShrinkSide, f64),
    /// A full 3-TOURNAMENT step.
    Three,
    /// The δ-truncated final 3-TOURNAMENT step: only nodes with coin < δ
    /// take the second and third samples.
    ThreeCut(f64),
}

/// One window of the epoch's sequence — a Phase I iteration or a Phase II
/// 3-round window — built once at construction: where its rounds run, the
/// per-lane rules, and the node step that applies them.
#[derive(Debug)]
struct Window {
    /// The phase engine that draws its rounds: 0 in Phase I, 1 in Phase II.
    engine: usize,
    /// Its iteration within its phase, which keys its participation coins.
    iteration: u64,
    /// Its first row in the trajectory's source sheet.
    first_row: usize,
    /// `cuts[s]`: the δ cut of the participation coins its round `s` runs
    /// on, `None` where the round runs dense.
    cuts: [Option<f64>; 3],
    /// `rules[i]` is lane `i`'s update.
    rules: Vec<LaneRule>,
    /// Rounds (samples per node) in the window: 2 in Phase I, 3 in Phase II.
    samples: usize,
    /// Every lane takes a full step, so a node whose samples all arrived
    /// runs the tight `extremum` / `median3` loop instead of the rule table.
    full: bool,
}

impl Window {
    /// Phase I iteration `j`.
    fn phase1(plans: &[LanePlan], j: usize) -> Self {
        let rules = plans.iter().map(|plan| {
            let side = plan.schedule1.side;
            match plan.schedule1.steps.get(j) {
                None => LaneRule::Frozen,
                Some(step) if step.delta >= 1.0 => LaneRule::Two(side),
                Some(step) => LaneRule::TwoCut(side, step.delta),
            }
        });
        Window::new(0, j, 2 * j, rules.collect(), 2, |_| false)
    }

    /// Phase II window `j`, after `t1max` Phase I iterations, with `k` vote
    /// rounds per lane.
    fn phase2(plans: &[LanePlan], t1max: usize, k: usize, j: usize) -> Self {
        let rules = plans.iter().map(|plan| {
            let (t2, fd) = (plan.t2(), plan.schedule2.final_delta);
            if t2 <= j {
                LaneRule::Frozen
            } else if t2 == j + 1 && fd < 1.0 {
                LaneRule::ThreeCut(fd)
            } else {
                LaneRule::Three
            }
        });
        // A lane that froze after `t2` windows votes in Phase II rounds
        // `3·t2 .. 3·t2 + k`, which can fall in later windows of other
        // lanes; a vote pulls at every node.
        let voting = |s: usize| {
            let r = 3 * j + s;
            plans.iter().any(|p| 3 * p.t2() <= r && r < 3 * p.t2() + k)
        };
        Window::new(1, j, 2 * t1max + 3 * j, rules.collect(), 3, voting)
    }

    /// `voting(s)`: some lane votes in the window's round `s`.
    fn new(
        engine: usize,
        iteration: usize,
        first_row: usize,
        rules: Vec<LaneRule>,
        samples: usize,
        voting: impl Fn(usize) -> bool,
    ) -> Self {
        let full = rules
            .iter()
            .all(|r| matches!(r, LaneRule::Two(_) | LaneRule::Three));
        // The first round is dense for every lane: both tournaments take a
        // first fresh sample. A later round runs on the δ cut when no lane
        // takes a full step or votes in it — participant sets are nested
        // under the shared coins, so their union is the largest lane's cut.
        let cuts = std::array::from_fn(|s| {
            if s == 0 || s >= samples || voting(s) {
                return None;
            }
            rules.iter().try_fold(0.0, |cut: f64, rule| match *rule {
                LaneRule::Two(_) | LaneRule::Three => None,
                LaneRule::TwoCut(_, d) | LaneRule::ThreeCut(d) => Some(cut.max(d)),
                LaneRule::Frozen => Some(cut),
            })
        });
        Window {
            engine,
            iteration: iteration as u64,
            first_row,
            cuts,
            rules,
            samples,
            full,
        }
    }

    /// Some lane takes a δ-truncated step, so the iteration's
    /// participation coins are needed.
    fn needs_coins(&self) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r, LaneRule::TwoCut(..) | LaneRule::ThreeCut(_)))
    }

    /// Node `v`'s step: `out[i]` becomes lane `i`'s value after the window,
    /// from its value in `snap` and the rows of `snap` its realised sources
    /// served (`sources[r·n + v]` for the window's round `r`, `u32::MAX`
    /// where nothing arrived).
    fn step<V: NodeValue>(&self, v: usize, snap: &[V], sources: &[u32], coin: f64, out: &mut [V]) {
        let q = out.len();
        let n = snap.len() / q;
        let row = |t: usize| &snap[t * q..(t + 1) * q];
        let mut got: [Option<&[V]>; 3] = [None; 3];
        for (r, g) in got[..self.samples].iter_mut().enumerate() {
            let src = sources[r * n + v];
            if src != u32::MAX {
                *g = Some(row(src as usize));
            }
        }
        if self.full {
            match got {
                [Some(a), Some(b), Some(c)] => {
                    for (o, ((&a, &b), &c)) in out.iter_mut().zip(a.iter().zip(b).zip(c)) {
                        *o = median3(a, b, c);
                    }
                    return;
                }
                [Some(a), Some(b), None] if self.samples == 2 => {
                    for (o, (rule, (&a, &b))) in
                        out.iter_mut().zip(self.rules.iter().zip(a.iter().zip(b)))
                    {
                        if let LaneRule::Two(side) = *rule {
                            *o = extremum(side, a, b);
                        }
                    }
                    return;
                }
                _ => {}
            }
        }
        // Each lane runs its tournament's own update on its samples; a node
        // whose coin keeps it out of a δ-cut lane's step pulled only the
        // first one.
        let cur = row(v);
        for (i, o) in out.iter_mut().enumerate() {
            let s = got.map(|g| g.map(|row| row[i]));
            let cut = |d: f64| &s[..if coin < d { self.samples } else { 1 }];
            *o = match self.rules[i] {
                LaneRule::Frozen => cur[i],
                LaneRule::Two(side) => two_tournament::tournament(side, cur[i], &s[..2]),
                LaneRule::TwoCut(side, d) => two_tournament::tournament(side, cur[i], cut(d)),
                LaneRule::Three => three_tournament::tournament(cur[i], &s),
                LaneRule::ThreeCut(d) => three_tournament::tournament(cur[i], cut(d)),
            };
        }
    }
}

/// Runs a full epoch's windows in order: draw each window's rounds on its
/// phase engine as realised sources into its rows of `sources` (round `s`
/// dense when `cuts[s]` is `None`, else on that δ cut of the iteration's
/// participation coins), then step every node from `snaps[j]` into
/// `snaps[j + 1]`.
fn run_windows<V: NodeValue>(
    engines: &mut [Engine<()>; 2],
    windows: &[Window],
    snaps: &mut [Vec<V>],
    sources: &mut [u32],
    scratch: &mut EpochScratch,
    timings: &mut EpochTimings,
) {
    let (pool, threads) = (Arc::clone(engines[0].pool()), engines[0].threads());
    let EpochScratch { coins, active, .. } = scratch;
    let n = engines[0].n();
    for (j, window) in windows.iter().enumerate() {
        let engine = &mut engines[window.engine];
        let (head, tail) = snaps.split_at_mut(j + 1);
        let (snap, next) = (&head[j][..], &mut tail[0][..]);
        let q = window.rules.len();
        let bits = |t: usize| seq_message_bits(&snap[t * q..(t + 1) * q]);
        let rows = &mut sources[window.first_row * n..(window.first_row + window.samples) * n];
        let t0 = Instant::now();
        if window.needs_coins() {
            participation_coins_into(&pool, threads, engine.seed(), window.iteration, coins);
        }
        for (cut, row) in window.cuts.iter().zip(rows.chunks_exact_mut(n)) {
            match *cut {
                None => engine.pull_sources(None, bits, row),
                Some(delta) => {
                    active.reset_from_fn(|v| coins[v] < delta);
                    engine.pull_sources(Some(active), bits, row);
                }
            }
        }
        timings.collect_secs += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        step_nodes(&pool, threads, window, snap, rows, coins, next);
        timings.apply_secs += t0.elapsed().as_secs_f64();
    }
}

/// How many nodes ahead the step pass prefetches the rows its realised
/// sources serve.
const PREFETCH_NODES: usize = 4;

/// Prefetches every cache line of row `src` of the `q`-wide `rows`
/// (nothing for an undelivered `u32::MAX`).
fn prefetch_row<V>(rows: &[V], q: usize, src: u32) {
    if src != u32::MAX {
        let row = &rows[src as usize * q..(src as usize + 1) * q];
        let line = (64 / std::mem::size_of::<V>().max(1)).max(1);
        for x in row.iter().step_by(line) {
            prefetch_read(x);
        }
    }
}

/// Steps every node through `window` in one node-major pool pass: row `v`
/// of `next` becomes node `v`'s lane values after the window, read from
/// `snap` at the node's realised sources (see [`Window::step`]).
fn step_nodes<V: NodeValue>(
    pool: &WorkerPool,
    threads: usize,
    window: &Window,
    snap: &[V],
    sources: &[u32],
    coins: &[f64],
    next: &mut [V],
) {
    let q = window.rules.len();
    let n = snap.len() / q;
    par::for_chunks(
        pool,
        Rows(next, q),
        threads,
        (),
        |start, Rows(rows, _)| {
            for (j, out) in rows.chunks_exact_mut(q).enumerate() {
                let v = start + j;
                let ahead = v + PREFETCH_NODES;
                if ahead < n {
                    for r in 0..window.samples {
                        prefetch_row(snap, q, sources[r * n + ahead]);
                    }
                }
                window.step(v, snap, sources, coins[v], out);
            }
        },
        |(), ()| (),
    );
}

/// Replays the epoch's windows on the dirty frontier. In window `j` only
/// the nodes whose own row or one of whose realised sources (the window's
/// rows of `sources`) is marked in `dirty_map` are stepped again from
/// `snaps[j]`; each recomputed row is compared with the cached row of
/// `snaps[j + 1]` and written over it, and `dirty_map` ends the window
/// marking the nodes whose row moved.
#[allow(clippy::too_many_arguments)]
fn replay_windows<V: NodeValue>(
    pool: &WorkerPool,
    threads: usize,
    windows: &[Window],
    seeds: [u64; 2],
    coins: &mut [f64],
    snaps: &mut [Vec<V>],
    sources: &[u32],
    dirty_map: &mut [bool],
) {
    let n = dirty_map.len();
    for (j, window) in windows.iter().enumerate() {
        if window.needs_coins() {
            let seed = seeds[window.engine];
            participation_coins_into(pool, threads, seed, window.iteration, coins);
        }
        let (head, tail) = snaps.split_at_mut(j + 1);
        let (snap, next) = (&head[j][..], &mut tail[0][..]);
        let (q, w) = (window.rules.len(), window.samples);
        let rows = &sources[window.first_row * n..(window.first_row + w) * n];
        let (dm, coins) = (&dirty_map[..], &coins[..]);
        let cand: Vec<u32> = par::for_chunks(
            pool,
            0..n,
            threads,
            Vec::new(),
            |_, range| {
                range
                    .filter(|&v| {
                        dm[v]
                            || (0..w).any(|r| {
                                let src = rows[r * n + v];
                                src != u32::MAX && dm[src as usize]
                            })
                    })
                    .map(|v| v as u32)
                    .collect()
            },
            |mut acc, mut part| {
                acc.append(&mut part);
                acc
            },
        );
        // The candidates are disjoint rows of the next snapshot, so the
        // frontier recompute carves them into per-thread chunks.
        let still: Vec<u32> = par::for_sparse(
            pool,
            Rows(next, q),
            &cand,
            threads,
            Vec::new(),
            |_, ids, base, Rows(sub_next, _)| {
                let mut row = snap[..q].to_vec();
                let mut still = Vec::new();
                for &vu in ids {
                    let v = vu as usize;
                    window.step(v, snap, rows, coins[v], &mut row);
                    let rel = (v - base) * q;
                    let cached = &mut sub_next[rel..rel + q];
                    if cached[..] != row[..] {
                        still.push(vu);
                    }
                    cached.copy_from_slice(&row);
                }
                still
            },
            |mut acc, mut part| {
                acc.append(&mut part);
                acc
            },
        );
        // Equivalent to marking each candidate as its row is compared:
        // nothing inside the window reads `dirty_map`, so the update can be
        // deferred past the parallel pass.
        for &vu in &cand {
            dirty_map[vu as usize] = false;
        }
        for &vu in &still {
            dirty_map[vu as usize] = true;
        }
    }
}

/// The largest vote the median network takes; larger votes select per
/// lane.
const MAX_NETWORK_SAMPLES: usize = 32;

/// The final `K`-sample vote, shared by full epochs and the incremental
/// patch, built once at construction.
#[derive(Debug)]
struct VotePlan {
    /// Samples per vote (`K`).
    k: usize,
    /// Lanes per node (`q`).
    q: usize,
    /// One entry per distinct vote window: its first row in the source
    /// sheet (`2·t1max + 3·t2` of its lanes) and its lanes, ascending.
    windows: Vec<(usize, Vec<usize>)>,
    /// Compare-exchange pairs of [`median_network`]`(k)`, empty when `k`
    /// exceeds [`MAX_NETWORK_SAMPLES`].
    network: Vec<(usize, usize)>,
}

/// Per-task working memory of the vote kernel.
struct VoteScratch<V> {
    /// The `K` vote sources of the current node and window.
    sources: Vec<u32>,
    /// `K` rows of the window's lanes: one per vote source.
    tile: Vec<V>,
    /// One lane's delivered vote values.
    lane: Vec<V>,
}

impl VotePlan {
    fn new(plans: &[LanePlan], t1max: usize, k: usize) -> Self {
        let mut windows: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            let first = 2 * t1max + 3 * plan.t2();
            match windows.iter_mut().find(|(f, _)| *f == first) {
                Some((_, lanes)) => lanes.push(i),
                None => windows.push((first, vec![i])),
            }
        }
        let network = if k <= MAX_NETWORK_SAMPLES {
            median_network(k)
        } else {
            Vec::new()
        };
        VotePlan {
            k,
            q: plans.len(),
            windows,
            network,
        }
    }

    fn scratch<V>(&self) -> VoteScratch<V> {
        VoteScratch {
            sources: Vec::with_capacity(self.k),
            tile: Vec::with_capacity(self.k * self.q),
            lane: Vec::with_capacity(self.k),
        }
    }

    /// Whether node `v`'s vote reads a row marked in `dirty`: its own (the
    /// empty-vote fallback) or one of its realised vote sources'.
    fn touches(&self, v: usize, sources: &[u32], dirty: &[bool]) -> bool {
        let n = dirty.len();
        dirty[v]
            || self.windows.iter().any(|&(first, _)| {
                (first..first + self.k).any(|r| {
                    let src = sources[r * n + v];
                    src != u32::MAX && dirty[src as usize]
                })
            })
    }

    /// Node `v`'s vote: `out[i]` becomes the median of the values lane `i`'s
    /// realised vote sources serve from the final states `fin` —
    /// `sorted[c / 2]` of the `c` delivered values, or the node's own final
    /// value when none arrived. Per window, the node's `K` sources are
    /// loaded once; when all of them delivered, their rows (the window's
    /// lanes only) are copied into a `K`-row tile and sorted column-wise by
    /// the median network, whose row `K / 2` is the answer — the value
    /// `select_nth_unstable(K / 2)` returns. A window with a missing sample
    /// selects per lane over the delivered values.
    fn vote_row<V: NodeValue>(
        &self,
        v: usize,
        fin: &[V],
        sources: &[u32],
        out: &mut [V],
        scratch: &mut VoteScratch<V>,
    ) {
        let (k, q) = (self.k, self.q);
        let n = fin.len() / q;
        for (first, lanes) in &self.windows {
            let VoteScratch {
                sources: got,
                tile,
                lane,
            } = &mut *scratch;
            got.clear();
            got.extend((*first..first + k).map(|r| sources[r * n + v]));
            if !self.network.is_empty() && got.iter().all(|&s| s != u32::MAX) {
                let w = lanes.len();
                tile.clear();
                for &src in got.iter() {
                    let row = &fin[src as usize * q..(src as usize + 1) * q];
                    if w == q {
                        tile.extend_from_slice(row);
                    } else {
                        tile.extend(lanes.iter().map(|&i| row[i]));
                    }
                }
                sort_rows(&self.network, tile, w);
                for (&i, &median) in lanes.iter().zip(&tile[k / 2 * w..(k / 2 + 1) * w]) {
                    out[i] = median;
                }
                continue;
            }
            for &i in lanes {
                lane.clear();
                let delivered = got.iter().filter(|&&s| s != u32::MAX);
                lane.extend(delivered.map(|&s| fin[s as usize * q + i]));
                out[i] = if lane.is_empty() {
                    fin[v * q + i] // an empty vote keeps the converged value
                } else {
                    let c = lane.len();
                    *lane.select_nth_unstable(c / 2).1
                };
            }
        }
    }
}

/// One pool pass of the vote kernel ([`VotePlan::vote_row`]) over the rows
/// of `outputs`: every row in a full epoch (`dirty: None`), only the rows
/// whose vote reads a dirty row in the incremental patch.
fn vote_rows<V: NodeValue>(
    pool: &WorkerPool,
    threads: usize,
    plan: &VotePlan,
    fin: &[V],
    sources: &[u32],
    dirty: Option<&[bool]>,
    outputs: &mut [V],
) {
    par::for_chunks(
        pool,
        Rows(outputs, plan.q),
        threads,
        (),
        |start, Rows(rows, _)| {
            let mut scratch = plan.scratch();
            for (j, out) in rows.chunks_exact_mut(plan.q).enumerate() {
                let v = start + j;
                if dirty.map_or(true, |d| plan.touches(v, sources, d)) {
                    plan.vote_row(v, fin, sources, out, &mut scratch);
                }
            }
        },
        |(), ()| (),
    );
}

/// Batcher's odd–even merge sort for `k` inputs, as compare-exchange pairs
/// `(a, b)` with `a < b`, pruned to what output `k / 2` depends on.
///
/// The network is built for the next power of two and every comparator
/// touching an input at or past `k` is dropped: padding those inputs with
/// +∞ would make each such comparator a no-op (a finite value never moves
/// past position `k`, a padded one never moves below it). Walking the rest
/// backwards then keeps only comparators feeding the median position.
fn median_network(k: usize) -> Vec<(usize, usize)> {
    let size = k.next_power_of_two();
    let mut pairs = Vec::new();
    let mut p = 1;
    while p < size {
        let mut step = p;
        while step >= 1 {
            let mut j = step % p;
            while j + step < size {
                for i in 0..step.min(size - j - step) {
                    let (a, b) = (i + j, i + j + step);
                    if a / (2 * p) == b / (2 * p) && b < k {
                        pairs.push((a, b));
                    }
                }
                j += 2 * step;
            }
            step /= 2;
        }
        p *= 2;
    }
    let mut needed = vec![false; k];
    needed[k / 2] = true;
    let mut kept: Vec<(usize, usize)> = pairs
        .into_iter()
        .rev()
        .filter(|&(a, b)| {
            let keep = needed[a] || needed[b];
            if keep {
                needed[a] = true;
                needed[b] = true;
            }
            keep
        })
        .collect();
    kept.reverse();
    kept
}

/// Runs the compare-exchange `pairs` column-wise over the `width`-wide rows
/// of `tile`: for each pair `(a, b)`, every lane keeps the smaller value in
/// row `a` and the larger in row `b` (branchless `min`/`max`; on a tie `min`
/// keeps its first argument and `max` its second, so equal values stay in
/// place).
fn sort_rows<V: Ord + Copy>(pairs: &[(usize, usize)], tile: &mut [V], width: usize) {
    for &(a, b) in pairs {
        let (low, high) = tile.split_at_mut(b * width);
        let rows = low[a * width..(a + 1) * width]
            .iter_mut()
            .zip(&mut high[..width]);
        for (x, y) in rows {
            let (lo, hi) = ((*x).min(*y), (*x).max(*y));
            *x = lo;
            *y = hi;
        }
    }
}

/// The participation coins of one iteration, drawn exactly as the solo
/// tournaments draw them (`STREAM_PARTICIPATION`, keyed by iteration), into
/// a reused buffer in parallel — each coin depends only on `(seed,
/// iteration, node)`, so chunking is invisible in the values.
fn participation_coins_into(
    pool: &WorkerPool,
    threads: usize,
    seed: u64,
    iteration: u64,
    out: &mut [f64],
) {
    let prefix = NodeRng::key_prefix(seed, iteration, NodeRng::STREAM_PARTICIPATION);
    par::for_chunks(
        pool,
        out,
        threads,
        (),
        |start, chunk| {
            for (j, c) in chunk.iter_mut().enumerate() {
                *c = prefix.node((start + j) as u64).next_f64();
            }
        },
        |(), ()| (),
    );
}

/// The backing-store pointers of every per-epoch buffer, used by the debug
/// steady-state assertion in `recompute_full`: if any pointer moved between
/// two warmed epochs, a round buffer was reallocated.
#[cfg(debug_assertions)]
fn epoch_buffer_ptrs<V>(traj: &Trajectory<V>, coins: &[f64]) -> Vec<usize> {
    let mut ptrs = vec![
        coins.as_ptr() as usize,
        traj.sources.as_ptr() as usize,
        traj.outputs.as_ptr() as usize,
    ];
    ptrs.extend(traj.snaps.iter().map(|s| s.as_ptr() as usize));
    ptrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{tournament_quantile, TournamentConfig};

    fn inputs(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 7919) % 100_000).collect()
    }

    #[test]
    fn batched_answers_match_solo_runs_bit_for_bit() {
        let values = inputs(256);
        let queries = [
            QuantileQuery::new(0.5, 0.125),
            QuantileQuery::new(0.9, 0.1),
            QuantileQuery::new(0.1, 0.125),
        ];
        let mut svc = QuantileService::new(
            &values,
            &queries,
            ServiceConfig::default(),
            EngineConfig::with_seed(99),
        )
        .unwrap();
        let out = svc.epoch().unwrap();
        assert_eq!(out.mode, EpochMode::Full);
        for (i, query) in queries.iter().enumerate() {
            let solo = tournament_quantile(
                &values,
                query.phi,
                query.epsilon,
                &TournamentConfig::default(),
                EngineConfig::with_seed(99),
            )
            .unwrap();
            assert_eq!(out.answers[i], solo.outputs, "query {i} diverged");
        }
        // Sharing rounds across 3 queries beats the summed solo cost.
        assert!(
            out.amortisation() > 1.0,
            "amortisation {}",
            out.amortisation()
        );
    }

    #[test]
    fn incremental_epoch_equals_full_recompute() {
        let values = inputs(300);
        let queries = [QuantileQuery::new(0.5, 0.125), QuantileQuery::new(0.8, 0.1)];
        let cfg = ServiceConfig::default();
        let mut inc =
            QuantileService::new(&values, &queries, cfg, EngineConfig::with_seed(5)).unwrap();
        inc.epoch().unwrap();
        for (node, val) in [(7usize, 1u64), (123, 99_999), (250, 17)] {
            inc.set_value(node, val).unwrap();
        }
        let out = inc.epoch().unwrap();
        assert!(matches!(
            out.mode,
            EpochMode::Incremental { dirty_nodes: 3, .. }
        ));

        let mut updated = values;
        for (node, val) in [(7usize, 1u64), (123, 99_999), (250, 17)] {
            updated[node] = val;
        }
        let mut full =
            QuantileService::new(&updated, &queries, cfg, EngineConfig::with_seed(5)).unwrap();
        let fout = full.epoch().unwrap();
        assert_eq!(out.answers, fout.answers);
        assert_eq!(out.rounds, fout.rounds);
    }

    #[test]
    fn clean_incremental_epoch_reuses_the_cache() {
        let values = inputs(128);
        let queries = [QuantileQuery::new(0.5, 0.125)];
        let mut svc = QuantileService::new(
            &values,
            &queries,
            ServiceConfig::default(),
            EngineConfig::with_seed(1),
        )
        .unwrap();
        let first = svc.epoch().unwrap();
        let second = svc.epoch().unwrap();
        assert!(matches!(
            second.mode,
            EpochMode::Incremental { dirty_nodes: 0, .. }
        ));
        assert_eq!(first.answers, second.answers);
    }

    #[test]
    fn dirty_threshold_falls_back_to_full() {
        let values = inputs(64);
        let queries = [QuantileQuery::new(0.5, 0.125)];
        let cfg = ServiceConfig {
            dirty_threshold: 0.05,
            ..ServiceConfig::default()
        };
        let mut svc =
            QuantileService::new(&values, &queries, cfg, EngineConfig::with_seed(2)).unwrap();
        svc.epoch().unwrap();
        for v in 0..10 {
            svc.set_value(v, 1_000_000 + v as u64).unwrap();
        }
        let out = svc.epoch().unwrap();
        assert_eq!(out.mode, EpochMode::Full);
    }

    #[test]
    fn ingest_marks_dirty_only_when_the_sketch_median_moves() {
        let values = inputs(64);
        let queries = [QuantileQuery::new(0.5, 0.125)];
        let mut svc = QuantileService::new(
            &values,
            &queries,
            ServiceConfig::default(),
            EngineConfig::with_seed(3),
        )
        .unwrap();
        svc.epoch().unwrap();
        assert_eq!(svc.dirty_nodes(), 0);
        // The initial singleton median shifts on the first divergent insert.
        svc.ingest(0, 55).unwrap();
        assert!(svc.dirty_nodes() <= 1);
        // Re-ingesting the current effective value never dirties.
        let eff = svc.effective_values()[1];
        svc.ingest(1, eff).unwrap();
        assert_eq!(svc.effective_values()[1], eff);
    }

    #[test]
    fn constructor_rejects_bad_parameters() {
        let values = inputs(16);
        let q = [QuantileQuery::new(0.5, 0.1)];
        let ec = EngineConfig::with_seed(0);
        assert!(
            QuantileService::new(&values[..1], &q, ServiceConfig::default(), ec.clone()).is_err()
        );
        assert!(QuantileService::new(&values, &[], ServiceConfig::default(), ec.clone()).is_err());
        assert!(QuantileService::new(
            &values,
            &[QuantileQuery::new(1.5, 0.1)],
            ServiceConfig::default(),
            ec.clone()
        )
        .is_err());
        assert!(QuantileService::new(
            &values,
            &[QuantileQuery::new(0.5, 0.0)],
            ServiceConfig::default(),
            ec.clone()
        )
        .is_err());
        let bad = ServiceConfig {
            dirty_threshold: f64::NAN,
            ..ServiceConfig::default()
        };
        assert!(QuantileService::new(&values, &q, bad, ec.clone()).is_err());
        let bad = ServiceConfig {
            sketch_capacity: 0,
            ..ServiceConfig::default()
        };
        assert!(QuantileService::new(&values, &q, bad, ec).is_err());
    }

    /// SplitMix64: a deterministic value stream for the kernel tests.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn median_network_row_equals_select_nth() {
        let width = 5;
        for k in 1..=MAX_NETWORK_SAMPLES {
            let network = median_network(k);
            assert!(network.iter().all(|&(a, b)| a < b && b < k));
            // Random, all-equal and duplicate-heavy rows.
            for modulus in [u64::MAX, 1, 3] {
                for trial in 0..20u64 {
                    let mut tile: Vec<u64> = (0..(k * width) as u64)
                        .map(|x| mix((k as u64) << 40 ^ trial << 20 ^ x) % modulus)
                        .collect();
                    let columns: Vec<Vec<u64>> = (0..width)
                        .map(|i| (0..k).map(|r| tile[r * width + i]).collect())
                        .collect();
                    sort_rows(&network, &mut tile, width);
                    for (i, mut column) in columns.into_iter().enumerate() {
                        let expected = *column.select_nth_unstable(k / 2).1;
                        assert_eq!(
                            tile[k / 2 * width + i],
                            expected,
                            "k = {k}, modulus {modulus}, trial {trial}, lane {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vote_row_selects_per_lane_where_samples_are_missing() {
        // Two vote windows over q = 3 lanes (lanes 0 and 2 vote in source
        // rows 0..5, lane 1 in rows 3..8); each node misses samples with
        // a probability that varies from all delivered to none.
        let (n, q, k) = (64usize, 3usize, 5usize);
        let plan = VotePlan {
            k,
            q,
            windows: vec![(0, vec![0, 2]), (3, vec![1])],
            network: median_network(k),
        };
        let fin: Vec<u64> = (0..(n * q) as u64).map(|x| mix(x) % 50).collect();
        let sources: Vec<u32> = (0..(8 * n) as u64)
            .map(|x| {
                if mix(x ^ 1 << 32) % 8 < (x % n as u64 % 9) {
                    u32::MAX
                } else {
                    (mix(x ^ 2 << 32) % n as u64) as u32
                }
            })
            .collect();
        let (mut full, mut partial, mut empty) = (0, 0, 0);
        let mut scratch = plan.scratch();
        for v in 0..n {
            let mut out = vec![u64::MAX; q];
            plan.vote_row(v, &fin, &sources, &mut out, &mut scratch);
            for (i, &got) in out.iter().enumerate() {
                let first = if i == 1 { 3 } else { 0 };
                let mut values: Vec<u64> = (first..first + k)
                    .map(|r| sources[r * n + v])
                    .filter(|&s| s != u32::MAX)
                    .map(|s| fin[s as usize * q + i])
                    .collect();
                values.sort_unstable();
                let expected = match values.len() {
                    0 => fin[v * q + i],
                    c => values[c / 2],
                };
                assert_eq!(got, expected, "node {v}, lane {i}");
                match values.len() {
                    0 => empty += 1,
                    c if c == k => full += 1,
                    _ => partial += 1,
                }
            }
        }
        assert!(
            full > 0 && partial > 0 && empty > 0,
            "{full}/{partial}/{empty}"
        );
    }

    #[test]
    fn per_query_costs_match_the_solo_round_formula() {
        let values = inputs(512);
        let queries = [
            QuantileQuery::new(0.3, 0.125),
            QuantileQuery::new(0.5, 0.06),
        ];
        let svc = QuantileService::new(
            &values,
            &queries,
            ServiceConfig::default(),
            EngineConfig::with_seed(4),
        )
        .unwrap();
        for (query, cost) in queries.iter().zip(svc.per_query()) {
            let solo = tournament_quantile(
                &values,
                query.phi,
                query.epsilon,
                &TournamentConfig::default(),
                EngineConfig::with_seed(4),
            )
            .unwrap();
            assert_eq!(cost.solo_rounds, solo.rounds);
        }
    }
}
