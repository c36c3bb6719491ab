//! Active sets: which nodes participate in a sparse round.
//!
//! Several phases of the paper's algorithms are intrinsically sparse — rumor
//! spreading touches `~2^r` informed nodes in round `r`, the tournament
//! schedules end with a probabilistic iteration in which only a δ-fraction of
//! nodes participates, and the exact algorithm's token-distribution phase has
//! `o(n)` senders — yet a dense [`Engine`](crate::Engine) round always costs
//! `O(n)`. An [`ActiveSet`] names the participating subset so the engine's
//! sparse primitives ([`push_round_on`](crate::Engine::push_round_on),
//! [`local_step_on`](crate::Engine::local_step_on) and
//! [`pull_sources`](crate::Engine::pull_sources) over an active set) can
//! dispatch over the participants only, making per-round cost proportional
//! to `|active|` instead of `n`.
//!
//! The representation is a **dense bitmap plus a sorted index list**: the
//! bitmap answers `contains` in O(1), and the sorted list is the index
//! domain the sparse rounds run their round bodies over. It drives the
//! chunked sparse dispatch of [`crate::par::for_sparse`] and keeps iteration
//! order — and therefore execution — deterministic. Build one per phase and
//! reuse it across the phase's rounds; an incremental
//! [`union_sorted`](ActiveSet::union_sorted) grows it between rounds (e.g.
//! newly informed rumor receivers) without a rebuild.

use crate::error::{GossipError, Result};
use crate::NodeId;

/// A subset of the nodes `0..n`, held as a dense bitmap plus a sorted,
/// duplicate-free index list.
///
/// Construction is `O(n)` (or `O(|members| log |members|)` from an unsorted
/// list); membership tests are O(1); the sparse round primitives iterate the
/// index list only. See the [module docs](self) for when to use one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    /// Network size this set is defined against.
    n: usize,
    /// Dense membership bitmap, `n` bits in 64-bit words.
    words: Vec<u64>,
    /// The members, strictly increasing.
    indices: Vec<u32>,
}

impl ActiveSet {
    /// The set of **all** nodes of an `n`-node network. A sparse round over
    /// the full set is bit-identical to its dense counterpart (pinned by
    /// `tests/sparse.rs`).
    pub fn full(n: usize) -> ActiveSet {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = n % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        ActiveSet {
            n,
            words,
            indices: (0..n as u32).collect(),
        }
    }

    /// Builds the set containing the nodes for which `pred` holds.
    pub fn from_fn(n: usize, mut pred: impl FnMut(NodeId) -> bool) -> ActiveSet {
        let mut set = ActiveSet {
            n,
            words: vec![0; n.div_ceil(64)],
            indices: Vec::new(),
        };
        for v in 0..n {
            if pred(v) {
                set.words[v / 64] |= 1u64 << (v % 64);
                set.indices.push(v as u32);
            }
        }
        set
    }

    /// Builds the set from an arbitrary list of member ids (sorted and
    /// de-duplicated internally).
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::InvalidParameter`] if any member is `>= n`.
    pub fn from_members(n: usize, members: impl IntoIterator<Item = NodeId>) -> Result<ActiveSet> {
        let mut indices: Vec<u32> = Vec::new();
        for v in members {
            if v >= n {
                return Err(GossipError::InvalidParameter {
                    name: "active",
                    reason: format!("member {v} is out of range for an {n}-node network"),
                });
            }
            indices.push(v as u32);
        }
        indices.sort_unstable();
        indices.dedup();
        let mut words = vec![0u64; n.div_ceil(64)];
        for &v in &indices {
            words[v as usize / 64] |= 1u64 << (v % 64);
        }
        Ok(ActiveSet { n, words, indices })
    }

    /// The network size this set is defined against (**not** the member
    /// count; see [`ActiveSet::len`]).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// O(1) membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        v < self.n && (self.words[v / 64] >> (v % 64)) & 1 == 1
    }

    /// The members, strictly increasing.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.indices.iter().map(|&v| v as usize)
    }

    /// Empties the set in `O(|members|)` — only the bitmap words previously
    /// set are touched, never all `n/64` of them — so a per-round subset
    /// (e.g. "holders with a loaded outbox") can reuse one `ActiveSet`
    /// (`clear` + [`union_sorted`](ActiveSet::union_sorted)) without paying
    /// an `O(n)` rebuild each round.
    pub fn clear(&mut self) {
        for &v in &self.indices {
            self.words[v as usize / 64] = 0;
        }
        self.indices.clear();
    }

    /// Rebuilds the set in place from a membership predicate, reusing the
    /// existing bitmap and index buffers — the allocation-free counterpart
    /// of [`ActiveSet::from_fn`] for callers that re-derive an active set
    /// every round (e.g. the multi-query service's δ-truncated slots).
    ///
    /// The set keeps its domain size `n`; only membership changes.
    pub fn reset_from_fn(&mut self, mut pred: impl FnMut(NodeId) -> bool) {
        self.clear();
        for v in 0..self.n {
            if pred(v) {
                self.words[v / 64] |= 1u64 << (v % 64);
                self.indices.push(v as u32);
            }
        }
    }

    /// Adds the nodes of `ids` — which must be **sorted and duplicate-free**
    /// (e.g. the `receivers` list returned by
    /// [`push_round_on`](crate::Engine::push_round_on)) — to the set, in
    /// `O(|self| + |ids|)`.
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= n` or the list is not strictly increasing.
    pub fn union_sorted(&mut self, ids: &[NodeId]) {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "union_sorted needs a strictly increasing list"
        );
        if let Some(&last) = ids.last() {
            assert!(last < self.n, "member {last} out of range");
        }
        let fresh: Vec<u32> = ids
            .iter()
            .map(|&v| v as u32)
            .filter(|&v| !self.contains(v as usize))
            .collect();
        if fresh.is_empty() {
            return;
        }
        for &v in &fresh {
            self.words[v as usize / 64] |= 1u64 << (v % 64);
        }
        let mut merged = Vec::with_capacity(self.indices.len() + fresh.len());
        let (mut a, mut b) = (self.indices.iter().peekable(), fresh.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    if x < y {
                        merged.push(x);
                        a.next();
                    } else {
                        merged.push(y);
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    merged.push(y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.indices = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_set_contains_everyone() {
        for n in [1, 63, 64, 65, 200] {
            let s = ActiveSet::full(n);
            assert_eq!(s.len(), n);
            assert!((0..n).all(|v| s.contains(v)));
            assert!(!s.contains(n));
            assert_eq!(s.indices().len(), n);
        }
    }

    #[test]
    fn from_members_sorts_dedups_and_validates() {
        let s = ActiveSet::from_members(10, [7, 2, 2, 9, 0]).unwrap();
        assert_eq!(s.indices(), &[0, 2, 7, 9]);
        assert_eq!(s.len(), 4);
        assert!(s.contains(2) && !s.contains(3));
        assert!(ActiveSet::from_members(10, [10]).is_err());
    }

    #[test]
    fn from_fn_matches_predicate() {
        let s = ActiveSet::from_fn(100, |v| v % 7 == 0);
        assert_eq!(s.len(), 15);
        assert!((0..100).all(|v| s.contains(v) == (v % 7 == 0)));
        let collected: Vec<NodeId> = s.iter().collect();
        assert_eq!(collected[1], 7);
    }

    #[test]
    fn reset_from_fn_matches_fresh_construction() {
        let mut s = ActiveSet::from_fn(100, |v| v % 7 == 0);
        s.reset_from_fn(|v| v % 3 == 0);
        let fresh = ActiveSet::from_fn(100, |v| v % 3 == 0);
        assert_eq!(s.indices(), fresh.indices());
        assert!((0..100).all(|v| s.contains(v) == (v % 3 == 0)));
        s.reset_from_fn(|_| false);
        assert!(s.is_empty());
        assert!((0..100).all(|v| !s.contains(v)));
    }

    #[test]
    fn union_sorted_merges_and_dedups() {
        let mut s = ActiveSet::from_members(20, [1, 5, 9]).unwrap();
        s.union_sorted(&[0, 5, 10, 19]);
        assert_eq!(s.indices(), &[0, 1, 5, 9, 10, 19]);
        assert!(s.contains(19));
        // No-op union.
        s.union_sorted(&[1, 9]);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn clear_empties_and_allows_reuse() {
        let mut s = ActiveSet::from_members(200, [0, 63, 64, 130, 199]).unwrap();
        s.clear();
        assert!(s.is_empty());
        assert!((0..200).all(|v| !s.contains(v)));
        // Reusable: clear + union_sorted repopulates correctly.
        s.union_sorted(&[5, 64, 101]);
        assert_eq!(s.indices(), &[5, 64, 101]);
        assert!(s.contains(64) && !s.contains(63));
    }

    #[test]
    fn empty_set_is_well_formed() {
        let s = ActiveSet::from_members(8, std::iter::empty()).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.n(), 8);
        assert!(!s.contains(0));
    }
}
