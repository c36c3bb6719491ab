//! Batched multi-query quantile service with an engine-free replay.
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
//! **One epoch body.** The service builds an epoch's windows once, at
//! construction: every Phase I iteration (two rounds on the Phase I engine),
//! then every Phase II window (three rounds on the Phase II engine); the `K`
//! rounds only the vote uses follow. An epoch fills sheet 0 with the
//! holders' rank codes and steps every node through each window from one of
//! two `n·q` ping-pong sheets into the other, so Phase II continues where
//! Phase I stopped, and the vote writes into the sheet that does not hold
//! the final states. `n`, `q` and the windows are fixed from then on, so
//! construction also allocates every epoch buffer — the value table, the
//! two sheets, the source sheet, the participation coins and the δ-cut
//! active set — and epochs only fill them.
//!
//! **Rank codes.** Every kernel (`extremum`, `median3`, the vote's median
//! network) only compares lane values, and every lane value is one of the
//! `n` inputs. So a lane carries a `u32` code: the dense rank of its value
//! among the holders' distinct effective values, the `O(log n)`-bit value
//! of the paper's model. Each epoch sorts a copy of the effective values
//! into a table of distinct values before it fills sheet 0, and the pass
//! that transposes the vote sheet into per-lane answers decodes each code
//! through it. Codes order as their values do, so every step and every
//! vote picks what the solo run picks; a code decodes to one member of its
//! value's Ord-equal class, which is the value itself for every type whose
//! equal values are identical ([`gossip_net::OrderedF64`] reads `-0.0` as
//! `+0.0`). Each delivery is still charged the `Vec` message of its decoded
//! row ([`seq_message_bits`]).
//!
//! **Replay.** Holders ingest new values between epochs
//! ([`QuantileService::ingest`]), summarised per holder by the
//! [`CompactorSketch`] of Appendix A, created by the holder's first
//! `ingest` (the holder gossips its sketch median).
//! Contact patterns are epoch-invariant — every draw (targets, participation
//! coins, fault outcomes) is keyed purely by `(seed, round, node)` — so the
//! full recompute records the *realised* pull source of every node in every
//! round in the source sheet. Every later [`QuantileService::epoch`] then
//! needs no engine at all: it runs the same epoch body over that cached
//! contact graph, for every node, and reports the cached logical round and
//! traffic cost (the network would spend the same; only the draws are
//! saved). Its answers equal a from-scratch [`recompute_full`]
//! (`tests/service.rs` pins exact equality).
//!
//! [`recompute_full`]: QuantileService::recompute_full

use crate::approx::MAX_TOURNAMENT_EPSILON;
use crate::median::{median_network, median_of_delivered, sort_rows, MAX_NETWORK_SAMPLES};
use crate::ranks::{rank, sort_distinct};
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
    /// Capacity of each holder's ingestion [`CompactorSketch`].
    pub sketch_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            final_vote: FinalVote::default(),
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
    /// The phase engines drew every round into the source sheet.
    Full,
    /// The cached source sheet was replayed for every node; no engine ran.
    Incremental {
        /// Holders written with a new value since the last epoch.
        dirty_nodes: usize,
    },
}

/// Wall-clock breakdown of one epoch, by pipeline stage.
///
/// Full epochs fill the collect / apply / vote stages; a replay fills replay
/// (its participation coins and window steps) and vote. Purely
/// observational — timings are never part of answer equality, and the
/// unfilled stages of a mode stay `0.0`. The value table's sort, the fill
/// of sheet 0 with rank codes and the answers' decode run outside every
/// stage timer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochTimings {
    /// Seconds drawing the epoch's rounds as realised sources only
    /// ([`Engine::pull_sources`], straight into the source sheet), including
    /// participation coins and δ-cut active sets.
    pub collect_secs: f64,
    /// Seconds in the fused gather-and-step passes: each window reads every
    /// node's samples out of one sheet at its realised sources and writes
    /// its lane codes into the other.
    pub apply_secs: f64,
    /// Always `0.0`: no stage records anything. Kept only because perfbench
    /// reports it as `service.record_s`.
    pub record_secs: f64,
    /// Seconds in the vote pass.
    pub vote_secs: f64,
    /// Seconds a replay spends on its participation coins and its window
    /// steps (the apply of a full epoch, over the cached sources).
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
    /// Whether this epoch drew its rounds or replayed the cached ones.
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
/// // A handful of holders observe new values; the next epoch replays the
/// // first one's contact graph on them.
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
    /// Holder `v`'s ingestion sketch; `None` stands for the singleton of
    /// its current value until its first [`ingest`](Self::ingest).
    sketches: Vec<Option<CompactorSketch<V>>>,
    inputs: Vec<V>,
    /// `dirty[v]`: holder `v` was written with a new value since the last
    /// epoch.
    dirty: Vec<bool>,
    /// The epoch's window sequence: every Phase I iteration, then every
    /// Phase II window.
    windows: Vec<Window>,
    vote: VotePlan,
    /// Worker-thread override for epoch execution (`None` = engine default).
    threads: Option<usize>,
    /// The epoch's distinct effective values, ascending: lane code `c`
    /// stands for `table[c]`. Every epoch sorts it anew, within the
    /// capacity of `n` that `new` gave it.
    table: Vec<V>,
    /// The two ping-pong sheets of `n·q` lane codes. They are node-major —
    /// `sheet[v * q + i]` is node `v`'s lane-`i` code — so a source read
    /// touches one contiguous row covering every lane of the source node.
    sheets: [Vec<u32>; 2],
    /// The source sheet, the realised contact graph: the node each holder
    /// actually received a pull from in every round (`u32::MAX` when nothing
    /// was delivered — a failed target, a lost or straggling message, a
    /// crashed node, or a round the holder sat out). It has
    /// `2·t1max + 3·t2max + K` rows of `n`: each window's rounds from its
    /// first row (slots A and B of a Phase I iteration, three rounds of a
    /// Phase II window), then the `K` rounds only the vote uses. Draws are
    /// keyed purely by `(seed, round, node)`, so a full epoch on any inputs
    /// draws the same sheet, which is what makes a replay exact, faults
    /// included.
    sources: Vec<u32>,
    /// The current iteration's participation coins.
    coins: Vec<f64>,
    /// The δ-cut participant set of a cut round.
    active: ActiveSet,
    /// The metrics of the full epoch that drew `sources`; `None` until one
    /// has.
    drawn: Option<Metrics>,
}

impl<V: NodeValue> QuantileService<V> {
    /// Creates a service over `values` answering `queries` each epoch.
    ///
    /// # Errors
    ///
    /// [`GossipError::TooFewNodes`] with fewer than two holders;
    /// [`GossipError::InvalidParameter`] for an empty query vector, a query
    /// with `φ ∉ [0, 1]` or `ε ≤ 0` or NaN (mirroring
    /// [`crate::approx::tournament_quantile`]), a zero-sample vote or a
    /// sketch capacity below 2; the engine's own error from
    /// [`Engine::try_from_states`] for a topology or fault plan that does
    /// not fit `n` holders.
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
        if config.sketch_capacity < 2 {
            return Err(GossipError::InvalidParameter {
                name: "sketch_capacity",
                reason: format!("must be at least 2, got {}", config.sketch_capacity),
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
            if query.epsilon.is_nan() || query.epsilon <= 0.0 {
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
        // The phase engines differ from this one in their seed alone, so it
        // refuses now what they would refuse in the first epoch.
        Engine::try_from_states(vec![(); n], engine_config.clone())?;
        let q = queries.len();
        Ok(QuantileService {
            queries: queries.to_vec(),
            windows,
            vote,
            per_query,
            config,
            engine_config,
            n,
            sketches: vec![None; n],
            inputs: values.to_vec(),
            dirty: vec![false; n],
            threads: None,
            table: Vec::with_capacity(n),
            // One `vec!` per sheet: cloning a sheet would read it back.
            sheets: [vec![0; n * q], vec![0; n * q]],
            sources: vec![u32::MAX; (2 * t1max + 3 * t2max + k) * n],
            coins: vec![0.0; n],
            active: ActiveSet::from_fn(n, |_| false),
            drawn: None,
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

    /// Holders written with a new value since the last epoch.
    pub fn dirty_nodes(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// The effective (gossiped) value of each holder: its sketch median.
    pub fn effective_values(&self) -> &[V] {
        &self.inputs
    }

    /// Holder `node` observes `value`: the ingestion sketch absorbs it (one
    /// [`CompactorSketch::insert`], i.e. a singleton merge per Appendix A)
    /// and the holder's effective value becomes the sketch median. The holder
    /// is marked dirty only if that median actually moved. A holder's first
    /// `ingest` creates its sketch as the singleton of its current value.
    ///
    /// # Errors
    ///
    /// [`GossipError::InvalidParameter`] if `node >= n`.
    pub fn ingest(&mut self, node: usize, value: V) -> Result<()> {
        self.check_node(node)?;
        let (current, capacity) = (self.inputs[node], self.config.sketch_capacity);
        let sketch = self.sketches[node]
            .get_or_insert_with(|| CompactorSketch::singleton(current, capacity));
        sketch.insert(value);
        let effective = sketch
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
        self.sketches[node] = None;
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

    /// Answers every query on the current inputs. The first epoch is a
    /// [`recompute_full`](Self::recompute_full); every later one replays the
    /// source sheet it drew: the same epoch body, for every node, with no
    /// engine, reporting the cached rounds and metrics as
    /// [`EpochMode::Incremental`]. Both give identical answers.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (none under a configuration `new` accepted).
    pub fn epoch(&mut self) -> Result<ServiceOutcome<V>> {
        let Some(metrics) = self.drawn else {
            return self.recompute_full();
        };
        let dirty_nodes = self.dirty_nodes();
        let timings = self.run_epoch(None);
        Ok(self.outcome(metrics, EpochMode::Incremental { dirty_nodes }, timings))
    }

    /// The two phase engines, derived exactly like
    /// [`crate::approx::tournament_quantile`] derives its sub-engines: one
    /// [`SeedSequence`] over the configured seed, first sub-seed to Phase I,
    /// second to Phase II. The engines carry `()` state — they are pure
    /// round/draw/metrics machines; the service owns the lane-major values
    /// and serves them from the sampling closures.
    fn engines(&self) -> Result<[Engine<()>; 2]> {
        let [first, second] = self
            .phase_seeds()
            .map(|seed| Engine::try_from_states(vec![(); self.n], self.engine_config.sub(seed)));
        Ok([first?, second?])
    }

    /// The two phase seeds of [`engines`](Self::engines), without paying for
    /// engine construction — a replay needs only the coin streams.
    fn phase_seeds(&self) -> [u64; 2] {
        let mut seeds = SeedSequence::new(self.engine_config.seed);
        [seeds.next_seed(), seeds.next_seed()]
    }

    /// The pool every epoch pass runs on.
    fn pool(&self) -> &Arc<WorkerPool> {
        self.engine_config
            .pool
            .as_ref()
            .expect("the service constructor always installs a pool")
    }

    /// The thread count epochs run at: the phase engines' own default
    /// unless [`set_threads`](Self::set_threads) overrode it.
    fn threads(&self) -> usize {
        self.threads
            .unwrap_or(if self.n >= Engine::<()>::PAR_MIN_NODES {
                par::num_threads()
            } else {
                1
            })
    }

    /// Runs every lane from scratch through one shared round sequence: the
    /// epoch body, with each window's rounds drawn first on its phase
    /// engine as realised sources only ([`Engine::pull_sources`], straight
    /// into the window's rows of the source sheet), and the `K` vote rounds
    /// drawn after the last window. Later [`epoch`](Self::epoch)s replay
    /// that sheet.
    ///
    /// Epochs allocate no round buffer: the value table, the sheets, the
    /// source sheet, the participation coins and the δ-cut active set were
    /// all sized by [`new`](Self::new), and every epoch only fills them.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (none under a configuration `new` accepted).
    pub fn recompute_full(&mut self) -> Result<ServiceOutcome<V>> {
        let mut engines = self.engines()?;
        if let Some(t) = self.threads {
            // `set_threads` pre-sized the shared pool, so these never swap
            // pools — the epoch runs on one worker set.
            for engine in &mut engines {
                engine.set_threads(t);
            }
        }
        let timings = self.run_epoch(Some(&mut engines));
        let metrics = engines[0].metrics() + engines[1].metrics();
        self.drawn = Some(metrics);
        Ok(self.outcome(metrics, EpochMode::Full, timings))
    }

    /// The epoch body: sort the inputs into the value table, fill sheet 0
    /// with each holder's rank code, step every node through each window
    /// from one sheet into the other, reading each sample out of the first
    /// at its realised source, and vote from the final states into the
    /// other sheet. With `engines`, each window's rounds are drawn into the
    /// source sheet before it steps (round `s` dense when `cuts[s]` is
    /// `None`, else on that δ cut of the iteration's participation coins),
    /// and the vote rounds before the vote; without, the cached sheet is
    /// replayed.
    fn run_epoch(&mut self, mut engines: Option<&mut [Engine<()>; 2]>) -> EpochTimings {
        let (n, q, k) = (self.n, self.queries.len(), self.vote.k);
        let (pool, threads) = (Arc::clone(self.pool()), self.threads());
        let (drawing, seeds) = (engines.is_some(), self.phase_seeds());
        sort_distinct(&self.inputs, &mut self.table);
        let [a, b] = &mut self.sheets;
        let (mut cur, mut next) = (&mut a[..], &mut b[..]);
        let (sources, coins, active) = (&mut self.sources, &mut self.coins, &mut self.active);
        let (inputs, table) = (&self.inputs, &self.table);
        par::for_chunks(
            &pool,
            Rows(&mut *cur, q),
            threads,
            (),
            |start, Rows(rows, _)| {
                for (row, x) in rows.chunks_exact_mut(q).zip(&inputs[start..]) {
                    row.fill(rank(table, x) as u32);
                }
            },
            |(), ()| (),
        );
        // A delivery costs the `Vec` message of its decoded row: one
        // constant when every distinct value has the same width (every
        // fixed-size type), else the prefix plus each lane's own width.
        let (prefix, width) = (seq_message_bits::<V>(&[]), table[0].message_bits());
        let uniform = table
            .iter()
            .all(|x| x.message_bits() == width)
            .then_some(prefix + q as u64 * width);
        let lane_bits = |&c: &u32| table[c as usize].message_bits();
        let row_bits = |t: usize, sheet: &[u32]| {
            let row = &sheet[t * q..(t + 1) * q];
            uniform.unwrap_or_else(|| prefix + row.iter().map(lane_bits).sum::<u64>())
        };

        // ---- The windows: Phase I's iterations, then Phase II's ---------
        let (mut draw_secs, mut step_secs) = (0.0, 0.0);
        for window in &self.windows {
            let rows = &mut sources[window.first_row * n..(window.first_row + window.samples) * n];
            let t0 = Instant::now();
            if window.needs_coins() {
                let seed = seeds[window.engine];
                participation_coins_into(&pool, threads, seed, window.iteration, coins);
            }
            if let Some(engines) = engines.as_deref_mut() {
                let engine = &mut engines[window.engine];
                let snap = &*cur;
                let bits = |t: usize| row_bits(t, snap);
                for (cut, row) in window.cuts.iter().zip(rows.chunks_exact_mut(n)) {
                    match *cut {
                        None => engine.pull_sources(None, bits, row),
                        Some(delta) => {
                            active.reset_from_fn(|v| coins[v] < delta);
                            engine.pull_sources(Some(active), bits, row);
                        }
                    }
                }
            }
            draw_secs += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            step_nodes(&pool, threads, window, cur, rows, coins, next);
            step_secs += t0.elapsed().as_secs_f64();
            std::mem::swap(&mut cur, &mut next);
        }

        // ---- The vote: K rounds of sources, one pass over the nodes -----
        // Every lane has frozen by its vote window, so the values its vote
        // sources serve are their final states, now in `cur`. The vote
        // rounds are the source sheet's last `K` rows.
        let t0 = Instant::now();
        if let Some([_, engine]) = engines {
            let (fin, vote_start) = (&*cur, sources.len() - k * n);
            for row in sources[vote_start..].chunks_exact_mut(n) {
                engine.pull_sources(None, |t| row_bits(t, fin), row);
            }
        }
        draw_secs += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        vote_rows(&pool, threads, &self.vote, cur, sources, next);
        let mut timings = EpochTimings {
            vote_secs: t0.elapsed().as_secs_f64(),
            ..EpochTimings::default()
        };
        if drawing {
            timings.collect_secs = draw_secs;
            timings.apply_secs = step_secs;
        } else {
            timings.replay_secs = draw_secs + step_secs;
        }
        self.dirty.fill(false);
        timings
    }

    /// The outcome of the epoch just run: `metrics` and its rounds, and the
    /// vote outputs transposed to one vector per lane on the pool (each task
    /// walks the output rows once and appends its lanes' decoded values).
    /// The vote wrote into the sheet that does not hold the final states.
    fn outcome(
        &self,
        metrics: Metrics,
        mode: EpochMode,
        timings: EpochTimings,
    ) -> ServiceOutcome<V> {
        let (outputs, table) = (&self.sheets[(self.windows.len() + 1) % 2], &self.table);
        let (n, q) = (self.n, self.queries.len());
        let mut answers: Vec<Vec<V>> = (0..q).map(|_| Vec::with_capacity(n)).collect();
        par::for_chunks(
            self.pool(),
            &mut answers[..],
            self.threads(),
            (),
            |start, lanes| {
                for row in outputs.chunks_exact(q) {
                    for (lane, &c) in lanes.iter_mut().zip(&row[start..]) {
                        lane.push(table[c as usize]);
                    }
                }
            },
            |(), ()| (),
        );
        ServiceOutcome {
            answers,
            rounds: metrics.rounds,
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
    /// Its first row in the source sheet.
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

    /// Node `v`'s step: `out[i]` becomes lane `i`'s code after the window,
    /// from its code in `snap` and the rows of `snap` its realised sources
    /// served (`sources[r·n + v]` for the window's round `r`, `u32::MAX`
    /// where nothing arrived).
    fn step(&self, v: usize, snap: &[u32], sources: &[u32], coin: f64, out: &mut [u32]) {
        let q = out.len();
        let n = snap.len() / q;
        let row = |t: usize| &snap[t * q..(t + 1) * q];
        let mut got: [Option<&[u32]>; 3] = [None; 3];
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

/// How many nodes ahead the step pass prefetches the rows its realised
/// sources serve.
const PREFETCH_NODES: usize = 4;

/// Codes per 64-byte cache line.
const LINE_CODES: usize = 64 / std::mem::size_of::<u32>();

/// Prefetches every cache line of row `src` of the `q`-wide `rows`
/// (nothing for an undelivered `u32::MAX`).
fn prefetch_row(rows: &[u32], q: usize, src: u32) {
    if src != u32::MAX {
        let row = &rows[src as usize * q..(src as usize + 1) * q];
        for x in row.iter().step_by(LINE_CODES) {
            prefetch_read(x);
        }
    }
}

/// Steps every node through `window` in one node-major pool pass: row `v`
/// of `next` becomes node `v`'s lane codes after the window, read from
/// `snap` at the node's realised sources (see [`Window::step`]).
fn step_nodes(
    pool: &WorkerPool,
    threads: usize,
    window: &Window,
    snap: &[u32],
    sources: &[u32],
    coins: &[f64],
    next: &mut [u32],
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

/// The final `K`-sample vote, built once at construction. Like every vote
/// of the crate it picks through [`crate::median`]: column-wise over a tile
/// of lanes ([`sort_rows`]) where a node's whole vote arrived, one lane at
/// a time ([`median_of_delivered`]) where it did not.
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
struct VoteScratch {
    /// The `K` vote sources of the current node and window.
    sources: Vec<u32>,
    /// `K` rows of the window's lanes: one per vote source.
    tile: Vec<u32>,
    /// One lane's `K` vote codes, `None` where the sample did not arrive.
    lane: Vec<Option<u32>>,
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
        VotePlan {
            k,
            q: plans.len(),
            windows,
            network: median_network(k),
        }
    }

    fn scratch(&self) -> VoteScratch {
        VoteScratch {
            sources: Vec::with_capacity(self.k),
            tile: Vec::with_capacity(self.k * self.q),
            lane: Vec::with_capacity(self.k),
        }
    }

    /// Node `v`'s vote: `out[i]` becomes the median of the codes lane `i`'s
    /// realised vote sources serve from the final states `fin` —
    /// `sorted[c / 2]` of the `c` delivered codes, or the node's own final
    /// code when none arrived. Per window, the node's `K` sources are
    /// loaded once; when all of them delivered and `K` is at most
    /// [`MAX_NETWORK_SAMPLES`], their rows (the window's lanes only) are
    /// copied into a `K`-row tile and sorted column-wise by the median
    /// network, whose row `K / 2` is the answer. Otherwise each lane picks
    /// through [`median_of_delivered`], as the solo vote does.
    fn vote_row(
        &self,
        v: usize,
        fin: &[u32],
        sources: &[u32],
        out: &mut [u32],
        scratch: &mut VoteScratch,
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
            if k <= MAX_NETWORK_SAMPLES && got.iter().all(|&s| s != u32::MAX) {
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
                lane.extend(
                    got.iter()
                        .map(|&s| (s != u32::MAX).then(|| fin[s as usize * q + i])),
                );
                // An empty vote keeps the converged value.
                out[i] = median_of_delivered(&self.network, lane).unwrap_or(fin[v * q + i]);
            }
        }
    }
}

/// One pool pass of the vote kernel ([`VotePlan::vote_row`]) over every row
/// of `outputs`.
fn vote_rows(
    pool: &WorkerPool,
    threads: usize,
    plan: &VotePlan,
    fin: &[u32],
    sources: &[u32],
    outputs: &mut [u32],
) {
    par::for_chunks(
        pool,
        Rows(outputs, plan.q),
        threads,
        (),
        |start, Rows(rows, _)| {
            let mut scratch = plan.scratch();
            for (j, out) in rows.chunks_exact_mut(plan.q).enumerate() {
                plan.vote_row(start + j, fin, sources, out, &mut scratch);
            }
        },
        |(), ()| (),
    );
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
        // The epoch state is two n·q sheets and the source sheet (plus the
        // participation coins and the value table, by its capacity), and
        // every epoch keeps the allocation `new` gave each of them.
        let buffers = |svc: &QuantileService<u64>| {
            let [a, b] = &svc.sheets;
            [
                ptr_len(a),
                ptr_len(b),
                ptr_len(&svc.sources),
                ptr_len(&svc.coins),
                (svc.table.as_ptr() as usize, svc.table.capacity()),
            ]
        };
        let allocated = buffers(&inc);
        let (t1max, t2max) = inc.per_query().iter().fold((0, 0), |(t1, t2), c| {
            (t1.max(c.phase1_iterations), t2.max(c.phase2_iterations))
        });
        let rows = 2 * t1max + 3 * t2max + cfg.final_vote.samples;
        let lens = allocated.map(|(_, len)| len);
        assert_eq!(lens, [300 * 2, 300 * 2, rows * 300, 300, 300]);
        inc.epoch().unwrap();
        assert_eq!(buffers(&inc), allocated);
        for (node, val) in [(7usize, 1u64), (123, 99_999), (250, 17)] {
            inc.set_value(node, val).unwrap();
        }
        let out = inc.epoch().unwrap();
        assert_eq!(out.mode, EpochMode::Incremental { dirty_nodes: 3 });
        assert_eq!(buffers(&inc), allocated);

        let mut updated = values;
        for (node, val) in [(7usize, 1u64), (123, 99_999), (250, 17)] {
            updated[node] = val;
        }
        let mut full =
            QuantileService::new(&updated, &queries, cfg, EngineConfig::with_seed(5)).unwrap();
        let fout = full.epoch().unwrap();
        assert_eq!(out.answers, fout.answers);
        assert_eq!(out.rounds, fout.rounds);
        assert_eq!(out.metrics, fout.metrics);

        let again = inc.recompute_full().unwrap();
        assert_eq!(again.mode, EpochMode::Full);
        assert_eq!(again.answers, fout.answers);
        assert_eq!(buffers(&inc), allocated);
    }

    /// A buffer's backing-store address and length.
    fn ptr_len<T>(buf: &[T]) -> (usize, usize) {
        (buf.as_ptr() as usize, buf.len())
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
        assert_eq!(second.mode, EpochMode::Incremental { dirty_nodes: 0 });
        assert_eq!(first.answers, second.answers);
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
        // A holder's first `ingest`, untouched or after `set_value`, starts
        // from the singleton sketch of its current value. The inserted
        // value is the larger one, so the median is the previous value.
        let singleton_then = |previous: u64, value: u64| {
            let mut sketch =
                CompactorSketch::singleton(previous, ServiceConfig::default().sketch_capacity);
            sketch.insert(value);
            sketch.quantile(0.5).unwrap()
        };
        svc.ingest(2, 90_000).unwrap();
        assert_eq!(svc.effective_values()[2], singleton_then(values[2], 90_000));
        svc.set_value(3, 40_000).unwrap();
        svc.ingest(3, 90_000).unwrap();
        assert_eq!(svc.effective_values()[3], singleton_then(40_000, 90_000));
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
        for epsilon in [0.0, f64::NAN] {
            assert!(QuantileService::new(
                &values,
                &[QuantileQuery::new(0.5, epsilon)],
                ServiceConfig::default(),
                ec.clone()
            )
            .is_err());
        }
        // A compactor sketch needs room for two values.
        for sketch_capacity in [0, 1] {
            let bad = ServiceConfig {
                sketch_capacity,
                ..ServiceConfig::default()
            };
            assert!(QuantileService::new(&values, &q, bad, ec.clone()).is_err());
        }
    }

    /// SplitMix64: a deterministic value stream for the kernel tests.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
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
        let fin: Vec<u32> = (0..(n * q) as u64).map(|x| (mix(x) % 50) as u32).collect();
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
            let mut out = vec![u32::MAX; q];
            plan.vote_row(v, &fin, &sources, &mut out, &mut scratch);
            for (i, &got) in out.iter().enumerate() {
                let first = if i == 1 { 3 } else { 0 };
                let mut values: Vec<u32> = (first..first + k)
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
