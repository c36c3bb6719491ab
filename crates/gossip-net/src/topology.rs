//! Pluggable peer-sampling topologies.
//!
//! The paper's model — and the engine's default — is **complete-graph uniform
//! gossip**: each node contacts one uniformly random *other* node per round.
//! This module lifts that choice out of the round loops into a [`Topology`]
//! value carried by [`EngineConfig`](crate::EngineConfig), so the same
//! algorithms can be run on restricted communication graphs and the
//! complete-graph assumption of each theorem can be probed empirically:
//!
//! * [`Topology::Complete`] — the paper's model, bit-identical to the
//!   pre-topology engine (the golden-trajectory pins of `tests/golden.rs`
//!   hold unchanged under it);
//! * [`Topology::RandomRegular`] — a seeded, simple, connected `d`-regular
//!   random graph. Constant-degree random regular graphs are expanders with
//!   high probability, so this is the "gossip on a bounded-degree expander"
//!   scenario of Becchetti–Clementi–Natale, where complete-graph-like
//!   behaviour is expected to survive;
//! * [`Topology::Ring`] — each node talks to its `k` nearest neighbours on
//!   each side of a cycle. Diameter `Θ(n/k)`: information spreads slowly and
//!   the paper's doubly-logarithmic round counts visibly degrade;
//! * [`Topology::Torus2D`] — the 2-dimensional wrap-around grid (diameter
//!   `Θ(√n)`), between the two extremes.
//!
//! ## Sampling contract
//!
//! Peer sampling stays **counter-based**: in a round, node `v` draws a
//! uniformly random *neighbour index* from its per-round
//! [`NodeRng`] stream — one `next_below(deg(v))` draw per
//! contact, exactly the draw shape of the complete-graph engine (whose
//! implicit neighbour list of node `v` is `0..n` without `v`). Executions
//! therefore remain bit-identical at any thread count for every topology.
//!
//! ## Allocation discipline
//!
//! Non-complete topologies are materialised **once** at engine construction
//! into a flat CSR-style [`Adjacency`] (`n × degree` neighbour ids).
//! Steady-state rounds only index into it — no per-round allocation, no
//! hashing, no branching beyond the one topology-kind dispatch per draw.

use crate::error::{GossipError, Result};
use crate::rng::NodeRng;
use crate::NodeId;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Which communication graph peer sampling runs on.
///
/// Carried by [`EngineConfig::topology`](crate::EngineConfig::topology);
/// sub-engine configurations derived via
/// [`EngineConfig::sub`](crate::EngineConfig::sub) inherit it, so an
/// algorithm's sub-computations run on the same graph as its main phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// The paper's model: every node contacts one uniformly random other
    /// node (the complete graph `K_n`). The default.
    #[default]
    Complete,
    /// A seeded simple connected `degree`-regular random graph — the
    /// bounded-degree expander scenario. Construction is deterministic in
    /// `(graph_seed, degree, n)` and independent of the engine seed, so the
    /// same graph can host many differently-seeded executions.
    RandomRegular {
        /// Degree of every node (`3 ≤ degree < n`, `n·degree` even).
        degree: usize,
        /// Seed of the graph construction (not of the gossip rounds).
        graph_seed: u64,
    },
    /// A cycle where every node is adjacent to its `k` nearest neighbours on
    /// each side (degree `2k`); requires `2k + 1 ≤ n`.
    Ring {
        /// Neighbours per side (`k ≥ 1`).
        k: usize,
    },
    /// The 2-dimensional wrap-around grid (degree 4) on the most nearly
    /// square `rows × cols = n` factorisation with `rows, cols ≥ 3`; `n`
    /// without such a factorisation (e.g. a prime) is rejected.
    Torus2D,
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Topology::Complete => write!(f, "complete"),
            Topology::RandomRegular { degree, .. } => write!(f, "random-regular(d={degree})"),
            Topology::Ring { k } => write!(f, "ring(k={k})"),
            Topology::Torus2D => write!(f, "torus2d"),
        }
    }
}

impl Topology {
    /// A `degree`-regular random graph with the given construction seed.
    pub fn random_regular(degree: usize, graph_seed: u64) -> Topology {
        Topology::RandomRegular { degree, graph_seed }
    }

    /// A ring with `k` neighbours per side.
    pub fn ring(k: usize) -> Topology {
        Topology::Ring { k }
    }

    /// Builds the explicit adjacency structure of this topology for an
    /// `n`-node network, or `None` for [`Topology::Complete`] (whose
    /// neighbourhood is implicit and never materialised).
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidParameter`] when the topology cannot be
    /// realised on `n` nodes (degree out of range or of the wrong parity,
    /// ring wider than the cycle, torus on an unfactorable `n`).
    pub fn build_adjacency(&self, n: usize) -> Result<Option<Adjacency>> {
        match *self {
            Topology::Complete => Ok(None),
            Topology::RandomRegular { degree, graph_seed } => {
                Adjacency::random_regular(n, degree, graph_seed).map(Some)
            }
            Topology::Ring { k } => Adjacency::ring(n, k).map(Some),
            Topology::Torus2D => Adjacency::torus2d(n).map(Some),
        }
    }

    /// Materialises the engine-facing sampler (see [`PeerSampler`]),
    /// reusing an adjacency already built for this `(topology, n)` through
    /// `cache` — so sub-engines derived via
    /// [`EngineConfig::sub`](crate::EngineConfig::sub) share their parent's
    /// graph instead of re-running the (for random-regular, non-trivial)
    /// construction per phase.
    pub(crate) fn materialize(&self, n: usize, cache: &AdjacencyCache) -> Result<PeerSampler> {
        if matches!(self, Topology::Complete) {
            return Ok(PeerSampler::Complete { n });
        }
        let mut built = cache.built.lock().expect("adjacency cache poisoned");
        if let Some(adj) = built.get(&(*self, n)) {
            return Ok(PeerSampler::Sparse(Arc::clone(adj)));
        }
        let adj = Arc::new(
            self.build_adjacency(n)?
                .expect("non-complete topologies materialise an adjacency"),
        );
        built.insert((*self, n), Arc::clone(&adj));
        Ok(PeerSampler::Sparse(adj))
    }
}

/// A cache of materialised adjacencies, keyed by `(topology, n)`.
///
/// One lives behind the `Arc` in
/// [`EngineConfig::graph_cache`](crate::EngineConfig::graph_cache) and is
/// shared (like the worker pool) by every configuration derived via
/// [`EngineConfig::sub`](crate::EngineConfig::sub)/`clone`, so an algorithm
/// whose phases each build a fresh engine constructs its communication graph
/// once. Construction is deterministic in the key, so caching is
/// behaviour-invisible; the cache is only consulted at engine construction,
/// never in a round.
#[derive(Debug, Default)]
pub struct AdjacencyCache {
    built: Mutex<HashMap<(Topology, usize), Arc<Adjacency>>>,
}

/// The materialised per-round peer sampler the engine draws contacts from.
///
/// `Complete` keeps the implicit neighbourhood of the pre-topology engine
/// (and its exact draw), `Sparse` indexes the flat adjacency. Cloning shares
/// the adjacency.
///
/// Hot loops never match on this enum per draw: the engine's round
/// primitives dispatch **once per pass** into a body monomorphised over the
/// concrete [`Sampler`] type ([`CompleteSampler`] or [`CsrSampler`]), so the
/// complete-graph loop compiles to exactly the pre-topology code (`n` in a
/// register, no discriminant test) and the sparse loop hoists the degree and
/// neighbour-table pointer.
#[derive(Debug, Clone)]
pub(crate) enum PeerSampler {
    /// Implicit complete graph on `n` nodes.
    Complete {
        /// Network size.
        n: usize,
    },
    /// Explicit constant-degree adjacency.
    Sparse(Arc<Adjacency>),
}

impl PeerSampler {
    /// Per-draw sampling through the enum — test/diagnostic convenience;
    /// round loops use the monomorphised [`Sampler`] types instead.
    #[cfg(test)]
    pub(crate) fn sample(&self, rng: &mut NodeRng, v: NodeId) -> NodeId {
        match self {
            PeerSampler::Complete { n } => CompleteSampler { n: *n }.sample(rng, v),
            PeerSampler::Sparse(adj) => CsrSampler::new(Arc::clone(adj)).sample(rng, v),
        }
    }
}

/// One uniform neighbour draw: a single `next_below(deg(v))` against a
/// concrete topology representation. Implementors are cheap to clone (a
/// `usize` or an `Arc` bump) per round dispatch.
pub(crate) trait Sampler: Clone + Send + Sync {
    /// A uniformly random neighbour of `v`, drawn from `rng`.
    fn sample(&self, rng: &mut NodeRng, v: NodeId) -> NodeId;
}

/// The complete graph `K_n`: *the* draw of the pre-topology engine — a
/// uniform neighbour index in `[0, n − 1)` mapped around `v` — so executions
/// under the default topology are bit-identical to engines built before the
/// topology layer existed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompleteSampler {
    pub(crate) n: usize,
}

impl Sampler for CompleteSampler {
    #[inline]
    fn sample(&self, rng: &mut NodeRng, v: NodeId) -> NodeId {
        debug_assert!(self.n >= 2);
        let t = rng.next_below((self.n - 1) as u64) as usize;
        if t >= v {
            t + 1
        } else {
            t
        }
    }
}

/// A constant-degree explicit adjacency: a uniform index into node `v`'s
/// neighbour row. The degree is copied out of the `Arc` so the loop keeps it
/// in a register.
#[derive(Debug, Clone)]
pub(crate) struct CsrSampler {
    degree: usize,
    adj: Arc<Adjacency>,
}

impl CsrSampler {
    pub(crate) fn new(adj: Arc<Adjacency>) -> CsrSampler {
        CsrSampler {
            degree: adj.degree,
            adj,
        }
    }
}

impl Sampler for CsrSampler {
    #[inline]
    fn sample(&self, rng: &mut NodeRng, v: NodeId) -> NodeId {
        let j = rng.next_below(self.degree as u64) as usize;
        self.adj.neighbors[v * self.degree + j] as usize
    }
}

/// A flat, constant-degree adjacency structure: the `degree` neighbours of
/// node `v` occupy `neighbors[v·degree .. (v+1)·degree]`.
///
/// Built once per engine at construction ([`Topology::build_adjacency`]) and
/// only indexed afterwards. Also the object the topology invariants tests
/// inspect (degree regularity, simplicity, symmetry, connectivity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    n: usize,
    degree: usize,
    neighbors: Vec<u32>,
}

impl Adjacency {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Degree of every node.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The neighbours of `v`, in the builder's deterministic order.
    pub fn neighbors_of(&self, v: NodeId) -> &[u32] {
        &self.neighbors[v * self.degree..(v + 1) * self.degree]
    }

    /// Whether the graph is simple and undirected: no self-loops, no
    /// duplicate neighbours, and `u ∈ N(v) ⇔ v ∈ N(u)`.
    pub fn is_simple_undirected(&self) -> bool {
        let mut sorted: Vec<Vec<u32>> = (0..self.n)
            .map(|v| {
                let mut ns = self.neighbors_of(v).to_vec();
                ns.sort_unstable();
                ns
            })
            .collect();
        for (v, ns) in sorted.iter_mut().enumerate() {
            if ns.windows(2).any(|w| w[0] == w[1]) || ns.iter().any(|&u| u as usize == v) {
                return false;
            }
        }
        (0..self.n).all(|v| {
            self.neighbors_of(v)
                .iter()
                .all(|&u| sorted[u as usize].binary_search(&(v as u32)).is_ok())
        })
    }

    /// Whether every node is reachable from node 0 (BFS).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut reached = 1;
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors_of(v) {
                let u = u as usize;
                if !seen[u] {
                    seen[u] = true;
                    reached += 1;
                    queue.push_back(u);
                }
            }
        }
        reached == self.n
    }

    /// The `2k`-regular ring: node `v` is adjacent to `v ± 1, …, v ± k`
    /// (mod `n`). Neighbour order: `v−k, …, v−1, v+1, …, v+k`.
    fn ring(n: usize, k: usize) -> Result<Adjacency> {
        if k == 0 {
            return Err(GossipError::InvalidParameter {
                name: "k",
                reason: "ring needs at least one neighbour per side".into(),
            });
        }
        if 2 * k + 1 > n {
            return Err(GossipError::InvalidParameter {
                name: "k",
                reason: format!("ring(k={k}) needs at least {} nodes, got {n}", 2 * k + 1),
            });
        }
        let degree = 2 * k;
        let mut neighbors = Vec::with_capacity(n * degree);
        for v in 0..n {
            for d in (1..=k).rev() {
                neighbors.push(((v + n - d) % n) as u32);
            }
            for d in 1..=k {
                neighbors.push(((v + d) % n) as u32);
            }
        }
        Ok(Adjacency {
            n,
            degree,
            neighbors,
        })
    }

    /// The 4-regular 2D torus on the most nearly square factorisation
    /// `rows × cols = n` with `rows, cols ≥ 3` (so all four neighbours of a
    /// node are distinct). Neighbour order: up, down, left, right.
    fn torus2d(n: usize) -> Result<Adjacency> {
        // Integer sqrt by hand (usize::isqrt needs a newer MSRV).
        let mut root = (n as f64).sqrt() as usize;
        while root * root > n {
            root -= 1;
        }
        while (root + 1) * (root + 1) <= n {
            root += 1;
        }
        let rows = (1..=root)
            .rev()
            .find(|r| *r >= 3 && n % r == 0 && n / r >= 3)
            .ok_or_else(|| GossipError::InvalidParameter {
                name: "n",
                reason: format!("no rows×cols = {n} factorisation with rows, cols ≥ 3"),
            })?;
        let cols = n / rows;
        let mut neighbors = Vec::with_capacity(n * 4);
        for v in 0..n {
            let (r, c) = (v / cols, v % cols);
            neighbors.push((((r + rows - 1) % rows) * cols + c) as u32);
            neighbors.push((((r + 1) % rows) * cols + c) as u32);
            neighbors.push((r * cols + (c + cols - 1) % cols) as u32);
            neighbors.push((r * cols + (c + 1) % cols) as u32);
        }
        Ok(Adjacency {
            n,
            degree: 4,
            neighbors,
        })
    }

    /// A seeded simple connected `degree`-regular random graph via the
    /// configuration model with local edge-swap repair.
    ///
    /// One attempt pairs a shuffled stub list into `n·degree/2` edges, then
    /// repairs self-loops and duplicate edges by 2-opt swaps against randomly
    /// chosen partner edges (each swap preserves all degrees). If the repair
    /// budget runs out or the result is disconnected — both vanishingly rare
    /// for `degree ≥ 3` — the attempt is discarded and the construction
    /// retried on the next sub-stream of `graph_seed`. Deterministic in
    /// `(n, degree, graph_seed)`.
    fn random_regular(n: usize, degree: usize, graph_seed: u64) -> Result<Adjacency> {
        if degree < 3 || degree >= n {
            return Err(GossipError::InvalidParameter {
                name: "degree",
                reason: format!(
                    "random-regular degree must satisfy 3 ≤ degree < n, got degree {degree} at n {n}"
                ),
            });
        }
        if n * degree % 2 != 0 {
            return Err(GossipError::InvalidParameter {
                name: "degree",
                reason: format!("n·degree must be even, got n {n} × degree {degree}"),
            });
        }
        const ATTEMPTS: u64 = 32;
        for attempt in 0..ATTEMPTS {
            let mut rng = NodeRng::keyed(graph_seed, attempt, 0, NodeRng::STREAM_TOPOLOGY);
            if let Some(adj) = Self::try_random_regular(n, degree, &mut rng) {
                if adj.is_connected() {
                    return Ok(adj);
                }
            }
        }
        Err(GossipError::InvalidParameter {
            name: "graph_seed",
            reason: format!(
                "no simple connected {degree}-regular graph on {n} nodes found in {ATTEMPTS} attempts"
            ),
        })
    }

    /// One configuration-model attempt; `None` if the swap repair fails.
    fn try_random_regular(n: usize, degree: usize, rng: &mut NodeRng) -> Option<Adjacency> {
        let m = n * degree / 2;
        // Shuffled stub list (node v appears `degree` times), paired into edges.
        let mut stubs: Vec<u32> = (0..n as u32)
            .flat_map(|v| std::iter::repeat(v).take(degree))
            .collect();
        for i in (1..stubs.len()).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            stubs.swap(i, j);
        }
        let mut edges: Vec<(u32, u32)> = (0..m).map(|i| (stubs[2 * i], stubs[2 * i + 1])).collect();

        let key = |a: u32, b: u32| ((a.min(b) as u64) << 32) | a.max(b) as u64;
        let mut seen = std::collections::HashSet::with_capacity(m);
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a == b || !seen.insert(key(a, b)) {
                bad.push(i);
            }
        }
        // 2-opt repair: swap a bad edge's endpoint with a random partner
        // edge; accept only swaps whose two replacement edges are both new
        // simple edges. Expected O(degree²) bad edges, each fixed in O(1)
        // expected proposals — the budget is a generous multiple.
        let mut budget = 200 * (bad.len() + 8);
        while let Some(&i) = bad.last() {
            if budget == 0 {
                return None;
            }
            budget -= 1;
            let j = rng.next_below(m as u64) as usize;
            if j == i {
                continue;
            }
            let (a, b) = edges[i];
            let (c, d) = edges[j];
            // Propose (a,b),(c,d) → (a,c),(b,d); flip the partner's
            // orientation on odd draws so both 2-opt pairings are reachable.
            let (c, d) = if rng.next_below(2) == 1 {
                (d, c)
            } else {
                (c, d)
            };
            if a == c || b == d || seen.contains(&key(a, c)) || seen.contains(&key(b, d)) {
                continue;
            }
            // The partner edge must currently be good: bad edges own no key
            // in `seen`, so swapping two of them would corrupt the
            // bookkeeping. (This also keeps `key(a,c) == key(b,d)`
            // impossible: that would require {c,d} = {a,b}, whose key a good
            // partner would hold in `seen`, failing the checks above.)
            if bad.contains(&j) {
                continue;
            }
            // Bad edge `i` owns nothing in `seen` (self-loops are never
            // inserted; a duplicate's key is owned by its first, good
            // occurrence) — only the partner's key moves.
            seen.remove(&key(c, d));
            seen.insert(key(a, c));
            seen.insert(key(b, d));
            edges[i] = (a, c);
            edges[j] = (b, d);
            bad.pop();
        }

        let mut neighbors = vec![0u32; n * degree];
        let mut cursor = vec![0usize; n];
        for &(a, b) in &edges {
            let (a, b) = (a as usize, b as usize);
            neighbors[a * degree + cursor[a]] = b as u32;
            cursor[a] += 1;
            neighbors[b * degree + cursor[b]] = a as u32;
            cursor[b] += 1;
        }
        debug_assert!(cursor.iter().all(|&c| c == degree));
        Some(Adjacency {
            n,
            degree,
            neighbors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_sampler_matches_the_legacy_uniform_draw() {
        // The Complete arm must reproduce next_below(n-1) + shift exactly.
        let sampler = Topology::Complete
            .materialize(64, &AdjacencyCache::default())
            .unwrap();
        let mut a = NodeRng::keyed(9, 4, 17, NodeRng::STREAM_ROUND);
        let mut b = NodeRng::keyed(9, 4, 17, NodeRng::STREAM_ROUND);
        for _ in 0..1000 {
            let t = {
                let raw = b.next_below(63) as usize;
                if raw >= 17 {
                    raw + 1
                } else {
                    raw
                }
            };
            assert_eq!(sampler.sample(&mut a, 17), t);
        }
    }

    #[test]
    fn ring_neighbours_are_the_k_nearest() {
        let adj = Topology::Ring { k: 2 }
            .build_adjacency(10)
            .unwrap()
            .unwrap();
        assert_eq!(adj.degree(), 4);
        assert_eq!(adj.neighbors_of(0), &[8, 9, 1, 2]);
        assert_eq!(adj.neighbors_of(5), &[3, 4, 6, 7]);
        assert!(adj.is_simple_undirected());
        assert!(adj.is_connected());
    }

    #[test]
    fn ring_rejects_degenerate_parameters() {
        assert!(Topology::Ring { k: 0 }.build_adjacency(10).is_err());
        assert!(Topology::Ring { k: 5 }.build_adjacency(10).is_err());
        // 2k + 1 == n is the complete ring and is fine.
        assert!(Topology::Ring { k: 4 }.build_adjacency(9).is_ok());
    }

    #[test]
    fn torus_picks_the_most_square_factorisation() {
        let adj = Topology::Torus2D.build_adjacency(12).unwrap().unwrap();
        // 12 = 3 × 4.
        assert_eq!(adj.degree(), 4);
        assert_eq!(adj.neighbors_of(0), &[8, 4, 3, 1]);
        assert!(adj.is_simple_undirected());
        assert!(adj.is_connected());
        // Primes (and n with only skinny factorisations) are rejected.
        assert!(Topology::Torus2D.build_adjacency(13).is_err());
        assert!(Topology::Torus2D.build_adjacency(8).is_err());
    }

    #[test]
    fn random_regular_is_simple_regular_connected_and_deterministic() {
        let topo = Topology::random_regular(6, 42);
        let adj = topo.build_adjacency(200).unwrap().unwrap();
        assert_eq!(adj.degree(), 6);
        assert_eq!(adj.n(), 200);
        assert!(adj.is_simple_undirected());
        assert!(adj.is_connected());
        let again = topo.build_adjacency(200).unwrap().unwrap();
        assert_eq!(adj, again);
        let other = Topology::random_regular(6, 43)
            .build_adjacency(200)
            .unwrap()
            .unwrap();
        assert_ne!(adj, other);
    }

    #[test]
    fn random_regular_rejects_bad_degrees() {
        assert!(Topology::random_regular(2, 1).build_adjacency(10).is_err());
        assert!(Topology::random_regular(10, 1).build_adjacency(10).is_err());
        // odd degree × odd n has no regular graph
        assert!(Topology::random_regular(3, 1).build_adjacency(9).is_err());
        assert!(Topology::random_regular(3, 1).build_adjacency(10).is_ok());
    }

    #[test]
    fn sparse_sampler_only_returns_neighbours() {
        let adj = Topology::ring(3).build_adjacency(50).unwrap().unwrap();
        let sampler = Topology::ring(3)
            .materialize(50, &AdjacencyCache::default())
            .unwrap();
        let mut rng = NodeRng::keyed(1, 1, 7, NodeRng::STREAM_ROUND);
        for _ in 0..500 {
            let t = sampler.sample(&mut rng, 7) as u32;
            assert!(adj.neighbors_of(7).contains(&t));
        }
    }

    #[test]
    fn cache_hands_out_the_same_adjacency_per_key() {
        let cache = AdjacencyCache::default();
        let ring = Topology::ring(2);
        let (a, b) = (
            ring.materialize(50, &cache).unwrap(),
            ring.materialize(50, &cache).unwrap(),
        );
        match (a, b) {
            (PeerSampler::Sparse(x), PeerSampler::Sparse(y)) => {
                assert!(Arc::ptr_eq(&x, &y), "cache rebuilt the same graph")
            }
            _ => panic!("ring must materialise sparse"),
        }
        // A different key gets its own graph…
        match ring.materialize(60, &cache).unwrap() {
            PeerSampler::Sparse(z) => assert_eq!(z.n(), 60),
            _ => panic!("ring must materialise sparse"),
        }
        // …and invalid parameters still fail cleanly through the cache path.
        assert!(Topology::ring(40).materialize(50, &cache).is_err());
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Topology::Complete.to_string(), "complete");
        assert_eq!(
            Topology::random_regular(8, 1).to_string(),
            "random-regular(d=8)"
        );
        assert_eq!(Topology::ring(2).to_string(), "ring(k=2)");
        assert_eq!(Topology::Torus2D.to_string(), "torus2d");
    }
}
