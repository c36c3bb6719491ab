//! The memory-layout primitives of the engine's hot data path.
//!
//! Dense rounds at n = 10⁶ are **memory-bound**: one round of the pull
//! primitive streams both state buffers (a write pass over `next`, a
//! sequential read of `states` and a random gather of contact targets), so
//! throughput is set by bytes moved and by how much of the gather latency the
//! core can hide — not by RNG or dispatch cost. This module collects the
//! layout-level tools the engine uses to squeeze the per-byte cost:
//!
//! * [`SampleMatrix`] — the flat result of
//!   [`Engine::collect_samples_flat`](crate::Engine::collect_samples_flat):
//!   `k` rounds of samples for `n` nodes in **one** column-major allocation
//!   (sample `r` of node `v` at `r·n + v`), where nested per-node
//!   `Vec<Vec<M>>` buckets would cost `n` little heap allocations per call
//!   and scatter the write pass across the heap. Each sampling round writes
//!   one contiguous column.
//! * [`clone_block`] — the cache-blocked back-buffer refresh: a tight
//!   per-slot `clone_from` loop over one block, which the compiler lowers to
//!   a memcpy for `Copy` states, issued block-by-block so the freshly copied
//!   slots are still in L1/L2 when the round's `apply`/`fold` pass reads
//!   them.
//! * [`swap_runs`] — the batched copy-on-write commit of the sparse push
//!   rounds:
//!   maximal contiguous id runs are swapped with `swap_with_slice` instead
//!   of slot-by-slot `mem::swap`.
//! * [`prefetch_read`] — a best-effort software prefetch, used by the
//!   delivery gathers (pull targets' states, push receivers' back-buffer
//!   slots) to issue the random-access loads a fixed distance ahead of
//!   their use.
//!
//! ## Tuning knobs
//!
//! Engines start from [`DEFAULT_COPY_BLOCK`] slots per refresh block (so a
//! block of `u64`-sized states stays comfortably inside L2 alongside the
//! front-buffer line stream) and a prefetch lookahead of
//! [`DEFAULT_PREFETCH_DIST`] gather targets (`0` disables prefetching);
//! tests and benches override them per engine through
//! [`Engine::set_copy_block`](crate::Engine::set_copy_block) and
//! [`Engine::set_prefetch_dist`](crate::Engine::set_prefetch_dist).
//!
//! **None of these affect results.** Block sizes and prefetch distances
//! change only the order in which cache lines are touched, never the order
//! in which per-node closures observe state — the property tests pin the
//! blocked paths bit-identical to the per-slot configuration (block size 1,
//! prefetch off) for arbitrary block sizes and active sets.

/// Default refresh block: 2048 slots ≈ 16 KiB of `u64` states per buffer, so
/// one block's front + back halves fit in L1d on common cores and several
/// blocks fit in L2 for fatter states.
pub const DEFAULT_COPY_BLOCK: usize = 2048;

/// Default prefetch lookahead for the random gathers. Far enough that the
/// line arrives before use at typical DRAM latencies (~64 in-flight slots at
/// a few ns per loop iteration), near enough not to thrash L1.
pub const DEFAULT_PREFETCH_DIST: usize = 32;

/// Gather arrays at or below this size are treated as cache-resident and
/// skip the target-batch + prefetch machinery entirely: every random read
/// hits L1/L2 anyway, so the extra bookkeeping is pure overhead (measured
/// ~10% on 32 KiB state arrays). 64 KiB sits between typical L1d (32–48
/// KiB, where the overhead loses) and the 128 KiB arrays where batching
/// already wins. Like the other knobs, the gate never affects results.
pub const PREFETCH_MIN_BYTES: usize = 64 * 1024;

/// Issues a best-effort prefetch of the cache line holding `*p` into the
/// nearest cache level. A pure scheduling hint: it performs no observable
/// memory access, faults on nothing (prefetch instructions ignore invalid
/// addresses), and compiles to nothing on architectures without a hint.
///
/// This is the crate's second sanctioned `unsafe` exception (after the
/// worker pool's lifetime erasure, see [`crate::pool`]): the intrinsics are
/// `unsafe fn` only because all architecture intrinsics are; a prefetch hint
/// has no safety obligations.
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint with no architectural side effects;
    // it cannot fault and accesses no memory observably.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is the AArch64 prefetch hint; like `_mm_prefetch` it has
    // no architectural side effects and cannot fault.
    unsafe {
        std::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) p,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Refreshes one back-buffer block from the front buffer: a tight per-slot
/// `clone_from` loop that the compiler lowers to a memcpy for `Copy` states
/// (and that reuses existing heap capacity for states that own buffers).
///
/// The engine's round passes call this block-by-block (block size
/// [`crate::Engine::set_copy_block`]) instead of cloning
/// each slot immediately before serving it, so (a) the copy runs at
/// streaming bandwidth with no interleaved random reads, and (b) the block
/// is still cache-hot when the serve/apply pass comes back over it.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn clone_block<S: Clone>(dst: &mut [S], src: &[S]) {
    assert_eq!(dst.len(), src.len(), "clone_block slice length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_from(s);
    }
}

/// Swaps the slots named by the sorted id list `ids` (global ids, offset by
/// `base` into the two equal-length slices), batching maximal contiguous id
/// runs into `swap_with_slice` calls — the sparse rounds' copy-on-write
/// commit. Dense-ish active sets (the common "all ids in a range" case)
/// become a handful of block swaps at memcpy speed; a fully scattered set
/// degenerates to the per-slot swap it replaces.
///
/// `ids` must be sorted ascending and duplicate-free (the [`crate::ActiveSet`]
/// / written-set invariant), and every `id - base` must index into the
/// slices.
#[inline]
pub fn swap_runs<S>(ids: &[u32], base: usize, a: &mut [S], b: &mut [S]) {
    let mut i = 0;
    while i < ids.len() {
        let run_start = ids[i] as usize - base;
        // Singleton runs are the common case for fragmented active sets;
        // a direct swap skips the slice machinery entirely.
        if i + 1 >= ids.len() || ids[i + 1] != ids[i] + 1 {
            let (lo, hi) = (&mut a[run_start], &mut b[run_start]);
            std::mem::swap(lo, hi);
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < ids.len() && ids[j] == ids[j - 1] + 1 {
            j += 1;
        }
        let run_end = run_start + (j - i);
        a[run_start..run_end].swap_with_slice(&mut b[run_start..run_end]);
        i = j;
    }
}

/// The flat, column-major result of
/// [`Engine::collect_samples_flat`](crate::Engine::collect_samples_flat):
/// sample `r` (of `k`) for node `v` lives at index `r·n + v`, `None` marking
/// a failed pull. One allocation for the whole matrix — each of the `k`
/// sampling rounds writes one contiguous column — where nested per-node
/// `Vec<Vec<M>>` buckets would cost `n` allocations and a pointer chase per
/// access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleMatrix<M> {
    n: usize,
    k: usize,
    data: Vec<Option<M>>,
}

impl<M> SampleMatrix<M> {
    /// An empty matrix for `n` nodes and `k` sampling rounds (all entries
    /// "failed" until a round fills its column).
    pub fn empty(n: usize, k: usize) -> Self {
        let mut data = Vec::new();
        data.resize_with(n * k, || None);
        SampleMatrix { n, k, data }
    }

    /// Number of nodes (rows).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of sampling rounds (columns).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The sample node `v` collected in round `r`, if that pull succeeded.
    pub fn get(&self, v: usize, r: usize) -> Option<&M> {
        assert!(v < self.n && r < self.k, "sample index out of range");
        self.data[r * self.n + v].as_ref()
    }

    /// Node `v`'s successfully collected samples, in round order.
    pub fn row(&self, v: usize) -> impl Iterator<Item = &M> + '_ {
        assert!(v < self.n, "node id out of range");
        (0..self.k).filter_map(move |r| self.data[r * self.n + v].as_ref())
    }

    /// Number of successful samples node `v` holds.
    pub fn count(&self, v: usize) -> usize {
        self.row(v).count()
    }

    /// Mutable access to round `r`'s contiguous column (the engine's fill
    /// pass).
    pub(crate) fn column_mut(&mut self, r: usize) -> &mut [Option<M>] {
        let n = self.n;
        &mut self.data[r * n..(r + 1) * n]
    }
}

impl<M: Copy> SampleMatrix<M> {
    /// The sample node `v` collected in round `r`, by value.
    pub fn sample(&self, v: usize, r: usize) -> Option<M> {
        self.get(v, r).copied()
    }
}

/// The flat, lane-major delivery buffer of
/// [`Engine::collect_lanes`](crate::Engine::collect_lanes): one pull round in
/// which every node receives its sampled peer's `lanes`-wide row of values.
///
/// Layout: the row delivered to node `v` occupies `values[v·lanes ..
/// (v+1)·lanes]`, and the realised source id sits in a parallel width-1
/// column (`sources[v]`, with [`LaneMatrix::NO_SOURCE`] marking a failed or
/// skipped pull). Where a per-node `Vec` message would cost one heap
/// allocation per node per round, a `LaneMatrix` is two construction-time
/// allocations reused round after round.
///
/// Contract: rows whose source is `NO_SOURCE` are *undefined* — the buffer
/// is reused across rounds without clearing values, so such rows hold stale
/// data. Readers must gate every row access on the source column, which is
/// what [`LaneMatrix::row`] does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMatrix<V> {
    lanes: usize,
    values: Vec<V>,
    sources: Vec<u32>,
}

impl<V> LaneMatrix<V> {
    /// The source-column sentinel for "nothing delivered this round".
    pub const NO_SOURCE: u32 = u32::MAX;

    /// Number of nodes (rows).
    pub fn n(&self) -> usize {
        self.sources.len()
    }

    /// Number of lanes (row width).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The id of the peer whose row node `v` received, if the pull succeeded.
    pub fn source(&self, v: usize) -> Option<u32> {
        let s = self.sources[v];
        (s != Self::NO_SOURCE).then_some(s)
    }

    /// The row delivered to node `v`, if the pull succeeded.
    pub fn row(&self, v: usize) -> Option<&[V]> {
        self.source(v)
            .map(|_| &self.values[v * self.lanes..(v + 1) * self.lanes])
    }

    /// The whole value buffer, lane-major (row `v` at `v·lanes..`). Rows
    /// without a source hold stale data — gate on [`LaneMatrix::sources`].
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// The source column; [`LaneMatrix::NO_SOURCE`] marks undelivered rows.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// The value buffer and source column, mutably — the engine's fill pass.
    pub(crate) fn parts_mut(&mut self) -> (&mut [V], &mut [u32]) {
        (&mut self.values, &mut self.sources)
    }
}

impl<V: Clone> LaneMatrix<V> {
    /// An empty matrix for `n` nodes and `lanes` lanes, every row
    /// undelivered. `fill` initialises the (undefined) value slots so the
    /// buffer is fully materialised up front.
    pub fn empty(n: usize, lanes: usize, fill: V) -> Self {
        assert!(lanes > 0, "a lane matrix needs at least one lane");
        LaneMatrix {
            lanes,
            values: vec![fill; n * lanes],
            sources: vec![Self::NO_SOURCE; n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_block_matches_per_slot_clone() {
        let src: Vec<u64> = (0..1000).map(|i| i * 31).collect();
        let mut dst = vec![0u64; 1000];
        clone_block(&mut dst, &src);
        assert_eq!(dst, src);
        // Non-Copy states clone too.
        let src: Vec<Vec<u8>> = (0..50).map(|i| vec![i as u8; i]).collect();
        let mut dst: Vec<Vec<u8>> = vec![Vec::new(); 50];
        clone_block(&mut dst, &src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn clone_block_rejects_length_mismatch() {
        clone_block(&mut [0u64; 2], &[1u64; 3]);
    }

    #[test]
    fn swap_runs_matches_per_slot_swap() {
        for ids in [
            vec![],
            vec![0u32],
            vec![0, 1, 2, 3],
            vec![2, 5, 6, 7, 11],
            vec![0, 2, 4, 6, 8],
            (0..64u32).collect(),
        ] {
            let n = 64usize;
            let mut a: Vec<u64> = (0..n as u64).collect();
            let mut b: Vec<u64> = (0..n as u64).map(|i| 1000 + i).collect();
            let (mut ra, mut rb) = (a.clone(), b.clone());
            for &id in &ids {
                std::mem::swap(&mut ra[id as usize], &mut rb[id as usize]);
            }
            swap_runs(&ids, 0, &mut a, &mut b);
            assert_eq!(a, ra, "ids {ids:?}");
            assert_eq!(b, rb, "ids {ids:?}");
        }
    }

    #[test]
    fn swap_runs_honours_base_offset() {
        let ids = [10u32, 11, 13];
        let mut a = vec![1u64, 2, 3, 4];
        let mut b = vec![9u64, 8, 7, 6];
        swap_runs(&ids, 10, &mut a, &mut b);
        assert_eq!(a, vec![9, 8, 3, 6]);
        assert_eq!(b, vec![1, 2, 7, 4]);
    }

    #[test]
    fn sample_matrix_layout_and_accessors() {
        let mut m: SampleMatrix<u64> = SampleMatrix::empty(3, 2);
        assert_eq!((m.n(), m.k()), (3, 2));
        m.column_mut(0).copy_from_slice(&[Some(10), None, Some(30)]);
        m.column_mut(1).copy_from_slice(&[Some(11), Some(21), None]);
        assert_eq!(m.sample(0, 0), Some(10));
        assert_eq!(m.sample(1, 0), None);
        assert_eq!(m.row(0).copied().collect::<Vec<_>>(), vec![10, 11]);
        assert_eq!(m.row(1).copied().collect::<Vec<_>>(), vec![21]);
        assert_eq!(m.row(2).copied().collect::<Vec<_>>(), vec![30]);
        assert_eq!(m.count(1), 1);
    }

    #[test]
    fn lane_matrix_rows_are_gated_on_the_source_column() {
        let mut m = LaneMatrix::empty(3, 2, 0u64);
        assert_eq!((m.n(), m.lanes()), (3, 2));
        assert!((0..3).all(|v| m.row(v).is_none()));
        {
            let (values, sources) = m.parts_mut();
            values[2..4].copy_from_slice(&[10, 11]);
            sources[1] = 7;
        }
        assert_eq!(m.source(1), Some(7));
        assert_eq!(m.row(1), Some(&[10u64, 11][..]));
        assert_eq!(m.row(0), None);
        m.parts_mut().1.fill(LaneMatrix::<u64>::NO_SOURCE);
        assert!((0..3).all(|v| m.row(v).is_none()));
    }

    #[test]
    fn prefetch_is_a_no_op_semantically() {
        let v = [42u64; 8];
        prefetch_read(&v[7]);
        prefetch_read(std::ptr::null::<u64>()); // hints may not fault
        assert_eq!(v[7], 42);
    }
}
