//! Deterministic randomness: seed derivation for experiments and the
//! counter-based per-node streams that make parallel rounds reproducible.
//!
//! Two tools live here:
//!
//! * [`SeedSequence`] expands one master seed into many independent seeds —
//!   one per trial of an experiment — with a SplitMix64 stream.
//! * [`NodeRng`] is a **counter-based** generator keyed by
//!   `(seed, round, node, stream)`. Every node in every round gets its own
//!   stream whose output depends only on the key, never on how many draws
//!   other nodes made or on which thread executed them. This is what lets the
//!   [`Engine`](crate::Engine) run rounds data-parallel while staying
//!   bit-identical to a sequential run: contact selection, failure coin-flips
//!   and algorithm-local coins are all drawn from `NodeRng` streams.
//!
//! Both are built on the SplitMix64 finalizer (Steele, Lea, Flood 2014),
//! which passes BigCrush when used as a stream and is the standard way to
//! expand one 64-bit seed into many.

/// The SplitMix64 additive constant (the "golden gamma").
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a strong 64-bit mixing function.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands a master seed into an arbitrary number of independent 64-bit seeds.
///
/// ```
/// use gossip_net::SeedSequence;
/// let mut seq = SeedSequence::new(42);
/// let a = seq.next_seed();
/// let b = seq.next_seed();
/// assert_ne!(a, b);
/// // The same master seed always yields the same sequence.
/// assert_eq!(SeedSequence::new(42).next_seed(), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Creates a sequence from a master seed.
    pub fn new(master_seed: u64) -> Self {
        SeedSequence { state: master_seed }
    }

    /// Returns the next derived seed, advancing the sequence.
    pub fn next_seed(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Returns the `i`-th derived seed without mutating the sequence.
    pub fn seed_at(&self, i: u64) -> u64 {
        let mut copy = *self;
        copy.state = copy.state.wrapping_add(GOLDEN_GAMMA.wrapping_mul(i));
        copy.next_seed()
    }

    /// Derives a labelled sub-sequence (e.g. one per experiment phase), so that
    /// adding trials to one phase does not perturb another phase's randomness.
    pub fn fork(&self, label: u64) -> SeedSequence {
        let mut copy = *self;
        copy.state ^= label.wrapping_mul(0xA24B_AED4_963E_E407);
        copy.next_seed();
        copy
    }
}

/// A deterministic per-node random stream, keyed by `(seed, round, node, stream)`.
///
/// The key fully determines the stream: two `NodeRng`s with the same key
/// produce the same outputs regardless of thread count, iteration order, or
/// how much randomness any *other* node consumed. The [`Engine`](crate::Engine)
/// hands one to each node per round (for contact selection and failure coins)
/// and to each node per [`local_step`](crate::Engine::local_step) (for
/// algorithm-local coins such as the probability-δ branch of Algorithm 1).
///
/// `NodeRng` implements [`rand::RngCore`], so all of [`rand::Rng`]'s sampling
/// methods (`gen`, `gen_range`, `gen_bool`) are available on it.
///
/// ```
/// use gossip_net::rng::NodeRng;
/// use rand::Rng;
///
/// let mut a = NodeRng::keyed(7, 3, 41, NodeRng::STREAM_ROUND);
/// let mut b = NodeRng::keyed(7, 3, 41, NodeRng::STREAM_ROUND);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());           // same key, same stream
/// let mut c = NodeRng::keyed(7, 3, 42, NodeRng::STREAM_ROUND);
/// assert_ne!(a.gen::<u64>(), c.gen::<u64>());           // different node
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRng {
    state: u64,
}

impl NodeRng {
    /// Stream id for the engine's own draws in a communication round
    /// (failure coin, then contact target(s), in that order).
    pub const STREAM_ROUND: u64 = 1;
    /// Stream id for algorithm-local coins handed out by
    /// [`local_step`](crate::Engine::local_step).
    pub const STREAM_LOCAL: u64 = 2;
    /// Stream id for topology construction (the seeded random-regular graph
    /// builder of [`crate::topology`]); disjoint from the round and local
    /// streams so graph construction never perturbs round randomness.
    pub const STREAM_TOPOLOGY: u64 = 3;
    /// Stream id for **participation coins**: algorithm-level draws that
    /// decide *whether* a node takes part in a sparse phase (e.g. the
    /// probability-δ final iteration of the tournament schedules) before any
    /// round of the phase runs. Disjoint from the round/local streams so
    /// membership selection never perturbs the rounds' randomness, and keyed
    /// per `(seed, phase-index, node)` so a run replays identically at any
    /// thread count.
    pub const STREAM_PARTICIPATION: u64 = 4;
    /// Stream id for **crash coins**: the per-`(node, round)` draws of a
    /// [`ChurnModel`](crate::fault::ChurnModel) deciding whether a node
    /// crashes this round. Disjoint from every other stream so enabling churn
    /// never perturbs the algorithm's own randomness — a
    /// [`FaultPlan::none()`](crate::fault::FaultPlan::none) run is
    /// bit-identical to a run without the fault layer at all.
    pub const STREAM_FAULT_CRASH: u64 = 5;
    /// Stream id for **per-contact loss coins**: one draw per
    /// `(sender, receiver, round)` deciding whether a delivery is dropped in
    /// flight ([`LossModel`](crate::fault::LossModel)). Keyed by a packed
    /// `(sender, receiver)` pair so the two directions of a push–pull round
    /// get independent coins.
    pub const STREAM_FAULT_LOSS: u64 = 6;
    /// Stream id for **straggler coins**: the per-`(sender, round)` draws of a
    /// [`StragglerModel`](crate::fault::StragglerModel) deciding whether a
    /// push lands late and by how many rounds.
    pub const STREAM_FAULT_DELAY: u64 = 7;

    /// Creates the stream for the given key.
    ///
    /// The key words are absorbed one at a time through the SplitMix64
    /// finalizer, each multiplied by a distinct odd constant first so that
    /// structured keys (small consecutive rounds and node ids) land far apart
    /// in state space.
    #[inline]
    pub fn keyed(seed: u64, round: u64, node: u64, stream: u64) -> NodeRng {
        Self::key_prefix(seed, round, stream).node(node)
    }

    /// Precomputes the node-independent `(seed, round, stream)` part of a
    /// [`NodeRng::keyed`] key.
    ///
    /// The first two of `keyed`'s three finalizer applications depend only on
    /// the seed, the stream id and the round, so a round loop can absorb them
    /// once and derive each node's stream with [`KeyPrefix::node`] — one
    /// xor-multiply plus one finalizer per node instead of three finalizers.
    /// `NodeRng::key_prefix(s, r, st).node(v)` is `NodeRng::keyed(s, r, v,
    /// st)` *by construction* (`keyed` is implemented on top of it).
    #[inline]
    pub fn key_prefix(seed: u64, round: u64, stream: u64) -> KeyPrefix {
        let mut state = mix64(seed ^ GOLDEN_GAMMA.wrapping_mul(stream));
        state = mix64(state ^ round.wrapping_mul(0xA24B_AED4_963E_E407));
        KeyPrefix { prefix: state }
    }

    /// Returns the next 64 random bits of this stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `[0, bound)` (multiply-shift; bias `O(bound/2^64)`).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

impl rand::RngCore for NodeRng {
    fn next_u64(&mut self) -> u64 {
        NodeRng::next_u64(self)
    }
}

/// The loop-invariant `(seed, round, stream)` prefix of a [`NodeRng`] key,
/// produced by [`NodeRng::key_prefix`].
///
/// Hot round loops hold one `KeyPrefix` per round and key each node's stream
/// with [`KeyPrefix::node`], skipping the two finalizer applications that the
/// full [`NodeRng::keyed`] would redo per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPrefix {
    prefix: u64,
}

impl KeyPrefix {
    /// The per-node stream for this prefix — identical to
    /// [`NodeRng::keyed`] with the same `(seed, round, stream)` and `node`.
    #[inline]
    pub fn node(self, node: u64) -> NodeRng {
        NodeRng {
            state: mix64(self.prefix ^ node.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        }
    }
}

/// A probability-`p` coin as an integer compare: it lands when the top 53
/// bits `m` of the next draw fall below `⌈p·2⁵³⌉`. That is the coin
/// `next_f64() < p` bit for bit — `next_f64()` is `m·2⁻⁵³`, `p·2⁵³` is exact
/// in `f64`, and for an integer `m`, `m < x ⟺ m < ⌈x⌉` — without the
/// conversion and the multiply per draw. The fault plan's loss, straggler and
/// churn coins hoist one per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Coin(u64);

impl Coin {
    /// The coin of a probability `p ∈ [0, 1)`.
    pub(crate) fn new(p: f64) -> Coin {
        Coin((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// Draws the coin from `rng`: one `next_u64`, exactly as `next_f64`.
    #[inline]
    pub(crate) fn lands(self, rng: &mut NodeRng) -> bool {
        (rng.next_u64() >> 11) < self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_for_same_master_seed() {
        let mut a = SeedSequence::new(7);
        let mut b = SeedSequence::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_seed(), b.next_seed());
        }
    }

    #[test]
    fn different_master_seeds_diverge() {
        let mut a = SeedSequence::new(7);
        let mut b = SeedSequence::new(8);
        let same = (0..100).filter(|_| a.next_seed() == b.next_seed()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seq = SeedSequence::new(123);
        let seeds: HashSet<u64> = (0..10_000).map(|_| seq.next_seed()).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn seed_at_matches_sequential_advance() {
        let seq = SeedSequence::new(99);
        let mut seq2 = SeedSequence::new(99);
        let _ = seq2.next_seed(); // advance once => index 1
        assert_eq!(seq.seed_at(1), seq2.next_seed());
    }

    #[test]
    fn forks_are_independent() {
        let base = SeedSequence::new(5);
        let mut f1 = base.fork(1);
        let mut f2 = base.fork(2);
        let overlap = (0..100)
            .filter(|_| f1.next_seed() == f2.next_seed())
            .count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn key_prefix_matches_full_keying() {
        // The hoisted two-stage keying must be bit-identical to keyed() for
        // every key shape the engine uses (including extreme word values).
        for seed in [0u64, 1, 42, u64::MAX] {
            for round in [0u64, 1, 3, 1 << 40] {
                for stream in [NodeRng::STREAM_ROUND, NodeRng::STREAM_LOCAL, 77] {
                    let prefix = NodeRng::key_prefix(seed, round, stream);
                    for node in [0u64, 1, 999, u64::MAX - 1] {
                        assert_eq!(prefix.node(node), NodeRng::keyed(seed, round, node, stream));
                    }
                }
            }
        }
    }

    #[test]
    fn node_rng_depends_on_every_key_word() {
        let base = NodeRng::keyed(1, 2, 3, 4);
        for (s, r, n, st) in [(2, 2, 3, 4), (1, 3, 3, 4), (1, 2, 4, 4), (1, 2, 3, 5)] {
            assert_ne!(NodeRng::keyed(s, r, n, st), base);
        }
        assert_eq!(NodeRng::keyed(1, 2, 3, 4), base);
    }

    #[test]
    fn node_streams_have_no_pairwise_collisions_at_simulation_scale() {
        // First outputs of 100k distinct (round, node) keys are all distinct —
        // a birthday-bound sanity check on the keying.
        let mut seen = HashSet::new();
        for round in 0..10u64 {
            for node in 0..10_000u64 {
                seen.insert(NodeRng::keyed(77, round, node, NodeRng::STREAM_ROUND).next_u64());
            }
        }
        assert_eq!(seen.len(), 100_000);
    }

    #[test]
    fn next_below_is_roughly_uniform_and_in_range() {
        let mut rng = NodeRng::keyed(5, 0, 0, 1);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            let x = rng.next_below(7) as usize;
            counts[x] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "count {c}");
        }
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = NodeRng::keyed(9, 1, 2, 3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn integer_coin_is_the_float_coin() {
        // At the threshold's edges: `m·2⁻⁵³ < p ⟺ m < ⌈p·2⁵³⌉`.
        let ulp = 1.0 / (1u64 << 53) as f64;
        for p in [0.1, 0.15, 0.5, 1e-12, 1.0 - ulp] {
            let Coin(t) = Coin::new(p);
            for m in [0, t - 1, t, t + 1, (1u64 << 53) - 1] {
                assert_eq!(m < t, m as f64 * ulp < p, "p = {p}, m = {m}");
            }
            // And draw for draw on a stream.
            let (mut a, mut b) = (NodeRng::keyed(1, 2, 3, 4), NodeRng::keyed(1, 2, 3, 4));
            for _ in 0..1000 {
                assert_eq!(Coin::new(p).lands(&mut a), b.next_f64() < p, "p = {p}");
            }
        }
    }

    #[test]
    fn node_rng_works_with_the_rand_traits() {
        use rand::Rng;
        let mut rng = NodeRng::keyed(3, 1, 4, 1);
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
        let y = rng.gen_range(0..100usize);
        assert!(y < 100);
    }
}
