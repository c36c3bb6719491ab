//! Deterministic data-parallel chunk maps, executed on a persistent
//! [`WorkerPool`].
//!
//! A gossip round is an embarrassingly parallel map over nodes (each node's
//! randomness comes from its own [`NodeRng`](crate::rng::NodeRng) stream and
//! each node only mutates its own slot), so the engine only needs two
//! primitives: cut the per-node buffers into contiguous pieces, run a closure
//! on each piece, and fold the per-piece accumulators **in piece order** — so
//! reductions are deterministic regardless of which thread finished first.
//! [`for_chunks`] cuts `threads` equal chunks of items; [`for_sparse`] cuts at
//! the runs of a sorted index list, so a round over an active set costs its
//! members, not `n`. Both cut any [`Split`] buffer: a slice, a [`Rows`] view
//! of one (so a row never straddles two tasks), a `Range<usize>` of indices
//! to scan, or a pair of these cut at the same items.
//!
//! ## Why a pool, not scoped threads
//!
//! The first cut of this module spawned scoped threads per chunk map. That is
//! correct but pays `threads` OS-thread creations per map — two maps per
//! round — which dominates the round below ~16k nodes and pushed the
//! parallel break-even point far to the right. The maps now dispatch onto
//! the long-lived workers of a [`WorkerPool`] (owned by the engine,
//! constructed once, shareable between engines): each map is one *phase* of
//! the pool's barrier — a store of the packed phase word that spinning
//! workers see at once (parked ones need a condvar wake), an atomic task
//! cursor, and a wait for the participants to retire. See [`crate::pool`]
//! for the barrier and its lifecycle.
//!
//! ## Determinism argument
//!
//! Piece boundaries depend only on the item count (or the index list) and
//! the requested `threads` value — never on the pool's size or on
//! scheduling. Piece `i` is task `i`: whichever executor claims task `i`
//! runs `map` on piece `i` and stores the result in slot `i`; after the
//! pool's quiescence barrier the *caller* folds the slots in ascending `i`.
//! The engine's stronger contract — results identical across *different*
//! `threads` values — additionally relies on per-node keyed randomness, and
//! is pinned by `tests/determinism.rs`.
//!
//! With `threads == 1` (or too few items to cut) a map runs inline on the
//! caller's thread — no hand-off, no synchronisation, no allocation — which
//! is also the engine's policy for small `n`.
//!
//! ## Memory layout inside a piece
//!
//! The maps hand each closure one *contiguous* piece precisely so the
//! engine can impose its own interior structure on it: the dense rounds
//! cache-block their back-buffer refresh and batch their target gathers
//! within the chunk ([`crate::soa`]), and the sparse commit batches
//! consecutive-id runs into block swaps. Contiguity is the contract that
//! makes those interior loops legal — a chunk map that interleaved slots
//! across threads would forfeit every blocked optimisation downstream.

use crate::pool::WorkerPool;
use std::ops::Range;
use std::sync::Mutex;

/// Number of worker threads to use, from the environment or the machine.
///
/// Priority: `GOSSIP_NUM_THREADS`, then `RAYON_NUM_THREADS` (so existing
/// rayon-style deployment configs keep working), then
/// `std::thread::available_parallelism()`. Values are clamped to `[1, 256]`.
pub fn num_threads() -> usize {
    for var in ["GOSSIP_NUM_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(value) = std::env::var(var) {
            if let Ok(parsed) = value.trim().parse::<usize>() {
                return parsed.clamp(1, 256);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, 256)
}

/// The chunk length [`for_chunks`] cuts `len` items into at `threads`
/// threads (and [`for_sparse`] a list of `len` indices): chunk `i` starts at
/// item `i · chunk_len`, and a map over `len > 0` items runs
/// `len.div_ceil(chunk_len)` tasks.
pub(crate) fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.clamp(1, len.max(1))).max(1)
}

/// A buffer the chunk maps can cut between tasks: a sequence of items, cut
/// at an item boundary.
pub trait Split: Send + Sized {
    /// The number of items.
    fn items(&self) -> usize;

    /// The first `at` items and the rest; `at` is at most [`Split::items`].
    fn split_at(self, at: usize) -> (Self, Self);
}

impl<T: Send> Split for &mut [T] {
    fn items(&self) -> usize {
        self.len()
    }

    fn split_at(self, at: usize) -> (Self, Self) {
        self.split_at_mut(at)
    }
}

/// A slice viewed as rows of `.1` elements each: an item is a row, so a cut
/// never splits one. Row `r` of `Rows(data, width)` is
/// `data[r * width..(r + 1) * width]`.
///
/// # Panics
///
/// [`Split::items`] panics if the width is zero or the slice is not whole
/// rows.
#[derive(Debug)]
pub struct Rows<'a, T>(pub &'a mut [T], pub usize);

impl<T: Send> Split for Rows<'_, T> {
    fn items(&self) -> usize {
        let Rows(data, width) = self;
        assert!(
            *width > 0 && data.len() % width == 0,
            "a rows view must hold whole rows of a positive width"
        );
        data.len() / width
    }

    fn split_at(self, at: usize) -> (Self, Self) {
        let (head, tail) = self.0.split_at_mut(at * self.1);
        (Rows(head, self.1), Rows(tail, self.1))
    }
}

/// The indices of a read-only scan: each task gets the sub-range it covers.
impl Split for Range<usize> {
    fn items(&self) -> usize {
        self.len()
    }

    fn split_at(self, at: usize) -> (Self, Self) {
        let mid = self.start + at;
        (self.start..mid, mid..self.end)
    }
}

/// Two buffers cut at the same items, so item `i` of both always lands in
/// the same task.
///
/// # Panics
///
/// [`Split::items`] panics if the halves hold different numbers of items.
impl<A: Split, B: Split> Split for (A, B) {
    fn items(&self) -> usize {
        let n = self.0.items();
        assert_eq!(n, self.1.items(), "a pair's halves must hold as many items");
        n
    }

    fn split_at(self, at: usize) -> (Self, Self) {
        let ((a, rest_a), (b, rest_b)) = (self.0.split_at(at), self.1.split_at(at));
        ((a, b), (rest_a, rest_b))
    }
}

/// Runs `map` over `threads` contiguous chunks of `data`'s items on `pool`
/// and folds the per-chunk results in chunk order.
///
/// `map` receives the chunk's first item index and the chunk itself; item
/// `j` of the chunk is item `start + j` of `data`. Chunk `i` starts at item
/// `i · ⌈n / t⌉` for `n` items and `t = threads` clamped to `1..=n`. Results
/// depend on `threads` only through these boundaries, and on `pool` not at
/// all (see the module docs); `threads == 1` (or a too-short `data`) runs
/// inline without touching the pool.
///
/// # Panics
///
/// Panics if `data` is malformed (see [`Split::items`]).
pub fn for_chunks<S, A, F, R>(
    pool: &WorkerPool,
    data: S,
    threads: usize,
    identity: A,
    map: F,
    reduce: R,
) -> A
where
    S: Split,
    A: Send,
    F: Fn(usize, S) -> A + Sync,
    R: Fn(A, A) -> A,
{
    let n = data.items();
    let chunk = chunk_len(n, threads);
    let (start, map) = (|i| i * chunk, |_, start, piece| map(start, piece));
    dispatch(pool, data, n.div_ceil(chunk), start, identity, map, reduce)
}

/// Runs `map` over `threads` contiguous runs of a **sorted, duplicate-free**
/// index list, handing each task mutable access to exactly the items of
/// `data` its indices fall in.
///
/// This is the sparse counterpart of [`for_chunks`]: the engine's round
/// bodies dispatch through it when they run over an active set's members
/// (the sparse primitives), so per-round cost is proportional to the number
/// of participants, not to `data.items()`. Safety falls out of the index
/// order: run `j` covers the items from its first index up to the next
/// run's first, and because the indices are strictly increasing these
/// pieces are disjoint — no interior mutability needed.
///
/// `map` receives `(first, ids, base, sub)`: the task's run of the index
/// list, `ids`, starts at position `first` of the whole list (the way
/// [`for_chunks`] hands `start`), and `sub` is the task's piece of `data`
/// starting at item `base`: the item of index `i ∈ ids` is item `i - base`
/// of `sub`. Results are folded in run order, exactly like [`for_chunks`];
/// run boundaries depend only on `ids.len()` and `threads`.
///
/// # Panics
///
/// Panics if `data` is malformed (see [`Split::items`]). Debug-asserts that
/// `ids` is strictly increasing and in bounds; release builds index out of
/// bounds (a panic) on a malformed list rather than corrupting memory.
pub fn for_sparse<S, A, F, R>(
    pool: &WorkerPool,
    data: S,
    ids: &[u32],
    threads: usize,
    identity: A,
    map: F,
    reduce: R,
) -> A
where
    S: Split,
    A: Send,
    F: Fn(usize, &[u32], usize, S) -> A + Sync,
    R: Fn(A, A) -> A,
{
    let n = data.items();
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]) && ids.last().map_or(true, |&l| (l as usize) < n),
        "sparse index list must be strictly increasing and in bounds"
    );
    let m = ids.len();
    let chunk = chunk_len(m, threads);
    let map = |i: usize, base: usize, piece: S| {
        let first = i * chunk;
        map(first, &ids[first..(first + chunk).min(m)], base, piece)
    };
    let start = |i: usize| ids[i * chunk] as usize;
    dispatch(pool, data, m.div_ceil(chunk), start, identity, map, reduce)
}

/// The one dispatch protocol behind both maps: cuts `data` into `tasks`
/// contiguous pieces, piece 0 starting at item 0, piece `i > 0` at item
/// `start(i)` and the last one ending at the last item, runs
/// `map(i, base, piece)` (`base` = the piece's first item) as task `i` of one
/// pool phase, and folds the results in task order. One task runs inline.
fn dispatch<S, A>(
    pool: &WorkerPool,
    data: S,
    tasks: usize,
    start: impl Fn(usize) -> usize,
    identity: A,
    map: impl Fn(usize, usize, S) -> A + Sync,
    reduce: impl Fn(A, A) -> A,
) -> A
where
    S: Split,
    A: Send,
{
    match tasks {
        0 => return identity,
        1 => return reduce(identity, map(0, 0, data)),
        _ => {}
    }
    // Hand each piece to its task through a once-takeable cell, and collect
    // each task's accumulator in its own slot — O(threads) bookkeeping, the
    // only per-map allocation.
    let mut pieces = Vec::with_capacity(tasks);
    let (mut rest, mut base) = (data, 0);
    for i in 1..tasks {
        let (piece, tail) = rest.split_at(start(i) - base);
        pieces.push(Mutex::new(Some((base, piece))));
        (rest, base) = (tail, start(i));
    }
    pieces.push(Mutex::new(Some((base, rest))));
    let slots: Vec<Mutex<Option<A>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    pool.run(tasks, &|i| {
        let piece = pieces[i].lock().expect("piece mutex poisoned").take();
        let (base, piece) = piece.expect("pool ran a task twice");
        *slots[i].lock().expect("slot mutex poisoned") = Some(map(i, base, piece));
    });
    slots.into_iter().fold(identity, |acc, slot| {
        let slot = slot.into_inner().expect("slot mutex poisoned");
        reduce(acc, slot.expect("pool skipped a task"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concat<T>(mut a: Vec<T>, b: Vec<T>) -> Vec<T> {
        a.extend(b);
        a
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn for_chunks_visits_every_element_once_with_correct_indices() {
        let pool = WorkerPool::new(4);
        for threads in [1, 2, 3, 8, 64] {
            // A slice.
            let mut data: Vec<u64> = vec![0; 100];
            let count = for_chunks(
                &pool,
                &mut data[..],
                threads,
                0usize,
                |start, chunk| {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = (start + j) as u64;
                    }
                    chunk.len()
                },
                |a, b| a + b,
            );
            assert_eq!(count, 100);
            assert_eq!(data, (0..100).collect::<Vec<u64>>());
            // A slice pair, cut at the same items.
            let (mut a, mut b) = (vec![0usize; 50], vec![0usize; 50]);
            let pair = (&mut a[..], &mut b[..]);
            for_chunks(
                &pool,
                pair,
                threads,
                (),
                |start, (ca, cb)| {
                    for (j, (x, y)) in ca.iter_mut().zip(cb).enumerate() {
                        (*x, *y) = (start + j, 2 * (start + j));
                    }
                },
                |(), ()| (),
            );
            assert_eq!(a, (0..50).collect::<Vec<usize>>());
            assert_eq!(b, (0..50).map(|i| 2 * i).collect::<Vec<usize>>());
            // A pair of rows views, 5 and 1 elements wide: cut at the same rows.
            let (n, wa) = (23usize, 5usize);
            let (mut a, mut b) = (vec![0usize; n * wa], vec![0usize; n]);
            let rows = for_chunks(
                &pool,
                (Rows(&mut a, wa), Rows(&mut b, 1)),
                threads,
                0usize,
                |start, (Rows(ca, _), Rows(cb, _))| {
                    for (j, (row, src)) in ca.chunks_exact_mut(wa).zip(cb.iter_mut()).enumerate() {
                        for (l, x) in row.iter_mut().enumerate() {
                            *x = (start + j) * wa + l;
                        }
                        *src = start + j;
                    }
                    cb.len()
                },
                |x, y| x + y,
            );
            assert_eq!(rows, n);
            assert_eq!(a, (0..n * wa).collect::<Vec<usize>>());
            assert_eq!(b, (0..n).collect::<Vec<usize>>());
            // A range: read-only scans concatenate into one ascending pass.
            let ids = for_chunks(
                &pool,
                0..97,
                threads,
                Vec::new(),
                |start, range| {
                    assert_eq!(range.start, start);
                    range.collect::<Vec<usize>>()
                },
                concat,
            );
            assert_eq!(ids, (0..97).collect::<Vec<usize>>(), "at {threads} threads");
        }
    }

    #[test]
    fn for_chunks_reduces_in_chunk_order() {
        let pool = WorkerPool::new(3);
        let mut data: Vec<u64> = vec![0; 10];
        let order = for_chunks(&pool, &mut data[..], 5, Vec::new(), |s, _| vec![s], concat);
        assert_eq!(order, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let pool = WorkerPool::new(8);
        let mut empty: Vec<u8> = Vec::new();
        let acc = for_chunks(
            &pool,
            &mut empty[..],
            8,
            7u32,
            |_, _| unreachable!(),
            |a, _| a,
        );
        assert_eq!(acc, 7);
        let acc = for_chunks(&pool, 0..0, 4, 7u32, |_, _| unreachable!(), |a, _| a);
        assert_eq!(acc, 7);
        let mut one = [1u8];
        let acc = for_chunks(&pool, &mut one[..], 8, 0, |_, c| c.len(), |a, b| a + b);
        assert_eq!(acc, 1);
    }

    #[test]
    #[should_panic(expected = "a pair's halves must hold as many items")]
    fn a_pair_of_unequal_halves_panics() {
        let pool = WorkerPool::new(2);
        let (mut a, mut b) = (vec![0u8; 10], vec![0u8; 9]);
        let pair = (&mut a[..], &mut b[..]);
        for_chunks(&pool, pair, 2, (), |_, _| (), |(), ()| ());
    }

    #[test]
    fn for_sparse_touches_exactly_the_listed_indices() {
        let pool = WorkerPool::new(4);
        let ids: Vec<u32> = vec![0, 3, 4, 9, 17, 18, 40, 49];
        let listed = |i: usize| ids.contains(&(i as u32));
        for threads in [1, 2, 3, 8, 64] {
            // A slice.
            let mut data: Vec<u64> = vec![0; 50];
            let count = for_sparse(
                &pool,
                &mut data[..],
                &ids,
                threads,
                0usize,
                |first, run, base, sub| {
                    assert_eq!(&ids[first..first + run.len()], run);
                    for &i in run {
                        sub[i as usize - base] = i as u64 + 1;
                    }
                    run.len()
                },
                |a, b| a + b,
            );
            assert_eq!(count, ids.len());
            for (i, &v) in data.iter().enumerate() {
                let expected = if listed(i) { i as u64 + 1 } else { 0 };
                assert_eq!(v, expected, "slot {i} at {threads} threads");
            }
            // A pair of rows views, 3 and 2 elements wide: exactly the listed
            // rows of both, folded in list order.
            let (n, wa, wb) = (50usize, 3usize, 2usize);
            let (mut a, mut b) = (vec![0usize; n * wa], vec![0usize; n * wb]);
            let order = for_sparse(
                &pool,
                (Rows(&mut a, wa), Rows(&mut b, wb)),
                &ids,
                threads,
                Vec::new(),
                |_, run, base, (Rows(sub_a, _), Rows(sub_b, _))| {
                    for &i in run {
                        let rel = i as usize - base;
                        sub_a[rel * wa..(rel + 1) * wa].fill((i as usize + 1) * 10);
                        sub_b[rel * wb..(rel + 1) * wb].fill((i as usize + 1) * 100);
                    }
                    run.to_vec()
                },
                concat,
            );
            assert_eq!(order, ids, "fold order at {threads} threads");
            for v in 0..n {
                let hit = usize::from(listed(v)) * (v + 1);
                assert!(a[v * wa..(v + 1) * wa].iter().all(|&x| x == hit * 10));
                assert!(b[v * wb..(v + 1) * wb].iter().all(|&x| x == hit * 100));
            }
            // The copy-on-write commit: a slice pair swapped at the listed items.
            let mut a: Vec<u64> = (0..n as u64).collect();
            let mut b: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
            let pair = (&mut a[..], &mut b[..]);
            let swap = |_, run: &[u32], base, (sa, sb): (&mut [u64], &mut [u64])| {
                crate::soa::swap_runs(run, base, sa, sb);
            };
            for_sparse(&pool, pair, &ids, threads, (), swap, |(), ()| ());
            for i in 0..n {
                let (lo, hi) = (i as u64, 100 + i as u64);
                let swapped = if listed(i) { (hi, lo) } else { (lo, hi) };
                assert_eq!((a[i], b[i]), swapped, "slot {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn for_sparse_reduces_in_chunk_order_and_handles_edges() {
        let pool = WorkerPool::new(3);
        let mut data = [0u8; 10];
        // Empty index list: identity untouched.
        let acc = for_sparse(
            &pool,
            &mut data[..],
            &[],
            4,
            7u32,
            |_, _, _, _| unreachable!(),
            |a, _b| a,
        );
        assert_eq!(acc, 7);
        // Chunk-order fold over a dense-ish list.
        let ids: Vec<u32> = (0..10).collect();
        let order = for_sparse(
            &pool,
            &mut data[..],
            &ids,
            5,
            Vec::new(),
            |first, ids, base, _| vec![(first, ids[0], base)],
            concat,
        );
        let firsts: Vec<(usize, u32, usize)> =
            (0..5).map(|c| (2 * c, 2 * c as u32, 2 * c)).collect();
        assert_eq!(order, firsts);
    }

    #[test]
    fn results_do_not_depend_on_pool_size() {
        let reference: Vec<u64> = (0..97).map(|i| i * 3 + 1).collect();
        for pool_threads in [1, 2, 4, 16] {
            let pool = WorkerPool::new(pool_threads);
            let mut data: Vec<u64> = vec![0; 97];
            let sum = for_chunks(
                &pool,
                &mut data[..],
                6,
                0u64,
                |start, chunk| {
                    let mut s = 0;
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = (start + j) as u64 * 3 + 1;
                        s += *slot;
                    }
                    s
                },
                |a, b| a + b,
            );
            assert_eq!(data, reference, "pool size {pool_threads}");
            assert_eq!(sum, reference.iter().sum::<u64>());
        }
    }
}
