//! The compaction-based sketching variant of Appendix A.1.
//!
//! Instead of storing the full doubling buffer (Appendix A), every node keeps
//! a bounded *compacted* buffer of `k = Θ(1/ε · (log log n + log 1/ε))`
//! entries, all carrying the same weight `2^h` where `h` is the number of
//! compactions applied. A compaction sorts the buffer and keeps the elements
//! at the even positions, doubling the weight — the classic compactor of the
//! streaming-sketch literature (\[MRL99\], \[KLL16\]) that the appendix adapts to
//! the gossip setting.
//!
//! Corollary A.4 bounds the rank error introduced by all compactions by
//! `n'/(2k) · log(n'/k)` where `n'` is the number of values represented; the
//! property tests in this module check that bound directly.

use crate::sampling::empirical_quantile;
use gossip_net::{Engine, EngineConfig, GossipError, MessageSize, Metrics, NodeValue, Result};

/// A weighted, bounded-size summary of a multiset of values.
///
/// All entries of a sketch share the same weight, which is always a power of
/// two (the number of values represented is `weight · entries.len()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactorSketch<V> {
    entries: Vec<V>,
    weight: u64,
    capacity: usize,
}

impl<V: NodeValue> CompactorSketch<V> {
    /// A sketch holding a single value with weight 1.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (a compactor must be able to hold two values
    /// to compact).
    pub fn singleton(value: V, capacity: usize) -> Self {
        assert!(capacity >= 2, "compactor capacity must be at least 2");
        CompactorSketch {
            entries: vec![value],
            weight: 1,
            capacity,
        }
    }

    /// An empty sketch with weight 1.
    pub fn empty(capacity: usize) -> Self {
        assert!(capacity >= 2, "compactor capacity must be at least 2");
        CompactorSketch {
            entries: Vec::new(),
            weight: 1,
            capacity,
        }
    }

    /// Number of entries currently stored (≤ capacity after [`merge`](Self::merge)).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sketch stores no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The common weight of all stored entries.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Total number of (weighted) values represented by this sketch.
    pub fn represented(&self) -> u64 {
        self.weight * self.entries.len() as u64
    }

    /// Sorts the buffer and keeps the entries at the even positions
    /// (1-indexed), doubling the weight — the `Compact` operation of A.1.
    fn compact_once(&mut self) {
        self.entries.sort_unstable();
        let mut kept = Vec::with_capacity(self.entries.len() / 2 + 1);
        for (i, v) in self.entries.iter().enumerate() {
            if i % 2 == 1 {
                kept.push(*v);
            }
        }
        self.entries = kept;
        self.weight *= 2;
    }

    /// Merges `other` into `self`, compacting until the result fits in
    /// `capacity` entries.
    ///
    /// If the two sketches have different weights (which can only happen when
    /// failures made one node miss rounds), the lighter one is compacted until
    /// the weights match, so the "all entries share one weight" invariant is
    /// maintained.
    pub fn merge(&mut self, mut other: CompactorSketch<V>) {
        while self.weight < other.weight {
            self.compact_once();
        }
        while other.weight < self.weight {
            other.compact_once();
        }
        self.entries.extend_from_slice(&other.entries);
        while self.entries.len() > self.capacity {
            self.compact_once();
        }
    }

    /// The configured capacity (maximum entries after a merge).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ingests one new observation into the sketch — the streaming entry
    /// point a holder uses between gossip epochs (the `quantile-gossip`
    /// service layer feeds per-holder updates through this).
    ///
    /// Equivalent to merging a weight-1 singleton: the new value joins the
    /// buffer at the sketch's current weight semantics, compacting as needed,
    /// so a holder's local stream and gossip-merged summaries go through the
    /// identical Appendix A.1 machinery (and the Corollary A.4 error bound
    /// applies unchanged).
    pub fn insert(&mut self, value: V) {
        self.merge(CompactorSketch::singleton(value, self.capacity));
    }

    /// The (weighted) number of represented values that are `≤ z`.
    pub fn rank(&self, z: &V) -> u64 {
        self.weight * self.entries.iter().filter(|&e| e <= z).count() as u64
    }

    /// The φ-quantile of the represented multiset (approximately).
    ///
    /// Returns `None` if the sketch is empty.
    pub fn quantile(&self, phi: f64) -> Option<V> {
        if self.entries.is_empty() {
            return None;
        }
        let mut sorted = self.entries.clone();
        sorted.sort_unstable();
        Some(empirical_quantile(&sorted, phi))
    }
}

impl<V: NodeValue> MessageSize for CompactorSketch<V> {
    fn message_bits(&self) -> u64 {
        // weight (64 bits) + length prefix + entries.
        64 + self.entries.message_bits()
    }
}

/// Configuration of the gossip compactor algorithm.
#[derive(Debug, Clone)]
pub struct CompactorConfig {
    /// Target additive quantile error ε.
    pub epsilon: f64,
    /// Multiplier on the buffer capacity `⌈c/ε · (log2 log2 n + log2 1/ε)⌉`.
    pub capacity_factor: f64,
    /// Multiplier on the represented-mass target `⌈c·ln n / ε²⌉` (same target
    /// as the doubling algorithm it simulates).
    pub mass_factor: f64,
}

impl CompactorConfig {
    /// Configuration targeting additive error `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidParameter`] if `epsilon` is not in `(0, 1)`.
    pub fn new(epsilon: f64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(GossipError::InvalidParameter {
                name: "epsilon",
                reason: format!("must be in (0, 1), got {epsilon}"),
            });
        }
        Ok(CompactorConfig {
            epsilon,
            capacity_factor: 4.0,
            mass_factor: 2.0,
        })
    }

    /// Buffer capacity `k` for a network of `n` nodes.
    pub fn capacity_for(&self, n: usize) -> usize {
        let n = n.max(4) as f64;
        let loglog = n.log2().log2().max(1.0);
        let k = (self.capacity_factor / self.epsilon
            * (loglog + (1.0 / self.epsilon).log2().max(1.0)))
        .ceil() as usize;
        k.max(8)
    }

    /// Target represented mass (number of weighted samples) per node.
    pub fn target_mass(&self, n: usize) -> u64 {
        let n = n.max(2) as f64;
        (self.mass_factor * n.ln() / (self.epsilon * self.epsilon)).ceil() as u64
    }
}

/// Result of the gossip compactor algorithm.
#[derive(Debug, Clone)]
pub struct CompactorOutcome<V> {
    /// Per-node estimate of the φ-quantile.
    pub estimates: Vec<V>,
    /// Rounds executed.
    pub rounds: u64,
    /// Communication metrics (note `max_message_bits` vs the doubling algorithm).
    pub metrics: Metrics,
    /// The buffer capacity `k` that was used.
    pub capacity: usize,
}

/// Every node estimates the φ-quantile of `values` using bounded compactor
/// sketches exchanged by gossip (Appendix A.1).
///
/// # Errors
///
/// Returns [`GossipError::TooFewNodes`] if fewer than two values are given, or
/// [`GossipError::InvalidParameter`] if `phi` is not in `[0, 1]`.
/// A topology or fault plan that does not fit the network returns
/// [`gossip_net::Engine::try_from_states`]'s error.
pub fn approximate_quantile<V: NodeValue>(
    values: &[V],
    phi: f64,
    config: &CompactorConfig,
    engine_config: EngineConfig,
) -> Result<CompactorOutcome<V>> {
    if values.len() < 2 {
        return Err(GossipError::TooFewNodes {
            requested: values.len(),
        });
    }
    if !(0.0..=1.0).contains(&phi) {
        return Err(GossipError::InvalidParameter {
            name: "phi",
            reason: format!("must be in [0, 1], got {phi}"),
        });
    }
    let n = values.len();
    let capacity = config.capacity_for(n);
    let target_mass = config.target_mass(n);

    // State: (own value, sketch). Seed the sketch with one random pull.
    let states: Vec<(V, CompactorSketch<V>)> = values
        .iter()
        .map(|&v| (v, CompactorSketch::empty(capacity)))
        .collect();
    let mut engine = Engine::try_from_states(states, engine_config)?;
    engine.pull_round(
        |_, (own, _)| *own,
        |_, (own, sk), pulled| {
            sk.merge(CompactorSketch::singleton(pulled.unwrap_or(*own), capacity))
        },
    );

    let max_rounds = 2 * ((target_mass as f64).log2().ceil() as u64 + 2);
    let mut rounds = 1u64;
    while rounds < 1 + max_rounds {
        if engine
            .states()
            .iter()
            .all(|(_, sk)| sk.represented() >= target_mass)
        {
            break;
        }
        engine.pull_round(
            |_, (_, sk)| sk.clone(),
            |_, (_, sk), pulled| {
                if let Some(other) = pulled {
                    sk.merge(other);
                }
            },
        );
        rounds += 1;
    }

    let metrics = engine.metrics();
    let estimates = engine
        .into_states()
        .into_iter()
        .map(|(own, sk)| sk.quantile(phi).unwrap_or(own))
        .collect();
    Ok(CompactorOutcome {
        estimates,
        rounds,
        metrics,
        capacity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_empty_invariants() {
        let s = CompactorSketch::singleton(5u64, 8);
        assert_eq!(s.len(), 1);
        assert_eq!(s.weight(), 1);
        assert_eq!(s.represented(), 1);
        assert!(!s.is_empty());
        let e = CompactorSketch::<u64>::empty(8);
        assert!(e.is_empty());
        assert_eq!(e.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_below_two_panics() {
        let _ = CompactorSketch::singleton(1u64, 1);
    }

    #[test]
    fn insert_is_singleton_merge() {
        let cap = 16;
        let mut streamed = CompactorSketch::empty(cap);
        let mut merged = CompactorSketch::empty(cap);
        for v in 0..500u64 {
            streamed.insert(v * 7 % 101);
            merged.merge(CompactorSketch::singleton(v * 7 % 101, cap));
        }
        assert_eq!(streamed, merged);
        assert!(streamed.len() <= cap);
        assert_eq!(streamed.capacity(), cap);
        // Corollary A.4 keeps the streamed sketch's rank answers useful: the
        // median of 500 ingested values stays within the compaction error
        // bound n'/(2k)·log2(n'/k) of the true median.
        let q = streamed.quantile(0.5).expect("non-empty");
        let exact: Vec<u64> = (0..500u64).map(|v| v * 7 % 101).collect();
        let true_rank = exact.iter().filter(|&&e| e <= q).count() as f64;
        let bound = 500.0 / (2.0 * cap as f64) * (500.0f64 / cap as f64).log2();
        assert!(
            (true_rank - 250.0).abs() <= bound + 250.0 * 0.25,
            "rank {true_rank} too far from 250 (bound {bound})"
        );
    }

    #[test]
    fn merge_respects_capacity() {
        let cap = 8;
        let mut acc = CompactorSketch::empty(cap);
        for v in 0..100u64 {
            acc.merge(CompactorSketch::singleton(v, cap));
        }
        assert!(acc.len() <= cap);
        assert!(acc.represented() <= 100);
        assert!(acc.weight().is_power_of_two());
    }

    #[test]
    fn balanced_tree_merge_preserves_most_mass() {
        // The gossip process merges similarly-sized sketches (buffer sizes
        // double each round), which is where the mass bound of Appendix A.1
        // applies: each compaction drops at most one (weighted) entry.
        let k = 16;
        let n_prime = 256usize;
        let mut leaves: Vec<CompactorSketch<u64>> = (0..n_prime as u64)
            .map(|v| CompactorSketch::singleton(v, k))
            .collect();
        while leaves.len() > 1 {
            let mut next = Vec::with_capacity(leaves.len() / 2);
            for pair in leaves.chunks(2) {
                let mut a = pair[0].clone();
                if pair.len() == 2 {
                    a.merge(pair[1].clone());
                }
                next.push(a);
            }
            leaves = next;
        }
        let total = leaves[0].represented();
        assert!(total >= (n_prime / 2) as u64, "represented {total}");
        assert!(total <= n_prime as u64);
    }

    #[test]
    fn rank_error_is_within_corollary_a4_bound() {
        // Merge n' singletons pairwise-balanced through a binary tree, as the
        // gossip process does, and check |rank_sketch - rank_true| ≤
        // n'/(2k)·log2(n'/k) + k (slack for the floor effects at small k).
        let k = 32;
        let n_prime = 1024usize;
        let mut leaves: Vec<CompactorSketch<u64>> = (0..n_prime as u64)
            .map(|v| CompactorSketch::singleton(v, k))
            .collect();
        while leaves.len() > 1 {
            let mut next = Vec::with_capacity(leaves.len() / 2);
            for pair in leaves.chunks(2) {
                if pair.len() == 2 {
                    let mut a = pair[0].clone();
                    a.merge(pair[1].clone());
                    next.push(a);
                } else {
                    next.push(pair[0].clone());
                }
            }
            leaves = next;
        }
        let sketch = &leaves[0];
        let bound =
            (n_prime as f64) / (2.0 * k as f64) * ((n_prime as f64) / k as f64).log2() + k as f64;
        for &z in &[100u64, 256, 500, 512, 700, 1000] {
            let true_rank = (z + 1) as f64; // values are 0..n', so rank(z) = z+1
            let sketch_rank = sketch.rank(&z) as f64;
            assert!(
                (sketch_rank - true_rank).abs() <= bound,
                "rank({z}): sketch {sketch_rank} vs true {true_rank}, bound {bound}"
            );
        }
    }

    #[test]
    fn gossip_compactor_estimates_median() {
        let values: Vec<u64> = (0..4000).collect();
        let cfg = CompactorConfig::new(0.1).unwrap();
        let out = approximate_quantile(&values, 0.5, &cfg, EngineConfig::with_seed(5)).unwrap();
        let n = values.len() as f64;
        let mut worst = 0.0f64;
        for &e in &out.estimates {
            worst = worst.max((e as f64 / n - 0.5).abs());
        }
        // Allow 2ε of slack: ε from sampling + ε from compaction.
        assert!(worst <= 0.2, "worst rank error {worst}");
        assert!(out.rounds <= 30);
    }

    #[test]
    fn compactor_messages_are_smaller_than_doubling_messages() {
        let values: Vec<u64> = (0..2000).collect();
        let ccfg = CompactorConfig::new(0.1).unwrap();
        let dcfg = crate::doubling::DoublingConfig::new(0.1).unwrap();
        let c = approximate_quantile(&values, 0.5, &ccfg, EngineConfig::with_seed(6)).unwrap();
        let d =
            crate::doubling::approximate_quantile(&values, 0.5, &dcfg, EngineConfig::with_seed(6))
                .unwrap();
        assert!(
            c.metrics.max_message_bits < d.metrics.max_message_bits / 2,
            "compactor {} vs doubling {}",
            c.metrics.max_message_bits,
            d.metrics.max_message_bits
        );
    }

    #[test]
    fn config_scales_capacity_with_epsilon() {
        let coarse = CompactorConfig::new(0.2).unwrap();
        let fine = CompactorConfig::new(0.02).unwrap();
        assert!(coarse.capacity_for(100_000) < fine.capacity_for(100_000));
        assert!(coarse.target_mass(100_000) < fine.target_mass(100_000));
        assert!(CompactorConfig::new(0.0).is_err());
    }

    /// Merging random values in random order never violates the capacity
    /// bound, keeps the weight a power of two, and keeps every stored entry a
    /// member of the input multiset (seeded sweep).
    #[test]
    fn random_merges_preserve_invariants() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x00c0_ffee_0001);
        for _ in 0..64 {
            let len = rng.gen_range(1usize..300);
            let cap = rng.gen_range(4usize..64);
            let values: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1_000_000u64)).collect();
            let mut acc = CompactorSketch::empty(cap);
            for &v in &values {
                acc.merge(CompactorSketch::singleton(v, cap));
                assert!(acc.len() <= cap.max(2), "len={len} cap={cap}");
                assert!(acc.weight().is_power_of_two(), "len={len} cap={cap}");
            }
            for e in &acc.entries {
                assert!(values.contains(e), "len={len} cap={cap}");
            }
        }
    }

    /// The sketch rank is monotone in its argument (seeded sweep).
    #[test]
    fn random_sketch_ranks_are_monotone() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x00c0_ffee_0002);
        for _ in 0..64 {
            let len = rng.gen_range(2usize..200);
            let mut acc = CompactorSketch::empty(16);
            for _ in 0..len {
                acc.merge(CompactorSketch::singleton(rng.gen_range(0..10_000u64), 16));
            }
            let mut prev = 0;
            for z in (0..10_000u64).step_by(500) {
                let r = acc.rank(&z);
                assert!(r >= prev, "len={len} z={z}");
                prev = r;
            }
        }
    }
}
