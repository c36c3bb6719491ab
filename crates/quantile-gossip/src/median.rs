//! How a vote picks its median.
//!
//! Algorithm 2 ends (line 8, Lemma 2.17) with every node outputting the
//! median of the `K` values it pulled, and every vote of this crate picks
//! that median here: the final vote of [`crate::three_tournament::run`],
//! the robust driver's vote over its `K` good pulls, and the lanes of
//! [`crate::service::QuantileService`]. A vote of at most
//! [`MAX_NETWORK_SAMPLES`] samples runs the pruned sorting network
//! [`median_network`] builds once per vote: over one node's samples in
//! [`median_of_delivered`], or column-wise over a tile of lanes in
//! [`sort_rows`]. A larger vote selects with `select_nth_unstable`.
//!
//! Every pick is the **upper median** of the delivered samples:
//! `sorted[c / 2]` of the `c` that arrived.

/// The largest vote the median network takes; a larger vote selects.
pub(crate) const MAX_NETWORK_SAMPLES: usize = 32;

/// Batcher's odd–even merge sort for `k` inputs, as compare-exchange pairs
/// `(a, b)` with `a < b`, pruned to what output `k / 2` depends on; empty
/// when `k` exceeds [`MAX_NETWORK_SAMPLES`].
///
/// The network is built for the next power of two and every comparator
/// touching an input at or past `k` is dropped: padding those inputs with
/// +∞ would make each such comparator a no-op (a finite value never moves
/// past position `k`, a padded one never moves below it). Walking the rest
/// backwards then keeps only comparators feeding the median position.
pub(crate) fn median_network(k: usize) -> Vec<(usize, usize)> {
    if k > MAX_NETWORK_SAMPLES {
        return Vec::new();
    }
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
/// of `tile`: for each pair `(a, b)`, every lane keeps the smaller code in
/// row `a` and the larger in row `b` (branchless `min`/`max`).
///
/// Inlined into the service's vote loop: called out of line from this
/// module, `service_full` ran 0.90× in five interleaved pairs.
#[inline]
pub(crate) fn sort_rows(pairs: &[(usize, usize)], tile: &mut [u32], width: usize) {
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

/// The upper median of one node's vote (`None` = a sample that did not
/// arrive): `sorted[c / 2]` of the `c` delivered values, or `None` when
/// nothing arrived. `network` is [`median_network`]`(samples.len())`.
///
/// Up to [`MAX_NETWORK_SAMPLES`] samples, the values are copied into a
/// stack buffer and the network sorts its position `K / 2`. A missing
/// sample is padded first: of the `K − c` gaps, the first `⌊K/2⌋ − ⌊c/2⌋`
/// take the smallest delivered value and the rest (`⌈K/2⌉ − ⌈c/2⌉ ≥ 0`)
/// the largest, so that position holds the delivered `sorted[c / 2]`. A
/// larger vote selects over `samples`, which it reorders.
pub(crate) fn median_of_delivered<V: Ord + Copy>(
    network: &[(usize, usize)],
    samples: &mut [Option<V>],
) -> Option<V> {
    let k = samples.len();
    if k > MAX_NETWORK_SAMPLES {
        // `None` orders before every `Some`, so the delivered values occupy
        // the top ranks and their median sits `failed` places further in.
        let failed = samples.iter().filter(|s| s.is_none()).count();
        if failed == k {
            return None;
        }
        return *samples.select_nth_unstable(failed + (k - failed) / 2).1;
    }
    let first = samples.iter().flatten().next()?;
    let mut buf = [*first; MAX_NETWORK_SAMPLES];
    let mut missing = 0;
    for (slot, sample) in buf.iter_mut().zip(samples.iter()) {
        match *sample {
            Some(v) => *slot = v,
            None => missing += 1,
        }
    }
    if missing > 0 {
        let delivered = samples.iter().flatten();
        let (lo, hi) = delivered.fold((*first, *first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let mut low_pads = k / 2 - (k - missing) / 2;
        for (slot, sample) in buf.iter_mut().zip(samples.iter()) {
            if sample.is_some() {
                continue;
            }
            if low_pads > 0 {
                *slot = lo;
                low_pads -= 1;
            } else {
                *slot = hi;
            }
        }
    }
    for &(a, b) in network {
        let (x, y) = (buf[a], buf[b]);
        buf[a] = x.min(y);
        buf[b] = x.max(y);
    }
    Some(buf[k / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a deterministic value stream.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// For every vote size up to 40 and random, all-equal and
    /// duplicate-heavy values: the network's row `K / 2` of a complete vote
    /// (up to `MAX_NETWORK_SAMPLES`) is `sorted[K / 2]`, and for every count
    /// of undelivered samples, at varying positions, `median_of_delivered`
    /// is `sorted[c / 2]` of the `c` delivered values (`None` for an empty
    /// vote).
    #[test]
    fn median_network_row_equals_select_nth() {
        let width = 5;
        for k in 1..=40 {
            let network = median_network(k);
            if k > MAX_NETWORK_SAMPLES {
                assert!(network.is_empty(), "k = {k}");
            }
            assert!(network.iter().all(|&(a, b)| a < b && b < k));
            for modulus in [u64::MAX, 1, 3] {
                for trial in 0..20u64 {
                    let seed = (k as u64) << 40 ^ modulus << 32 ^ trial << 20;
                    let mut tile: Vec<u32> = (0..(k * width) as u64)
                        .map(|x| (mix(seed ^ x) % modulus) as u32)
                        .collect();
                    let columns: Vec<Vec<u32>> = (0..width)
                        .map(|i| (0..k).map(|r| tile[r * width + i]).collect())
                        .collect();
                    if k <= MAX_NETWORK_SAMPLES {
                        sort_rows(&network, &mut tile, width);
                    }
                    for (i, column) in columns.into_iter().enumerate() {
                        let at = format!("k = {k}, modulus {modulus}, trial {trial}, lane {i}");
                        let mut sorted = column.clone();
                        sorted.sort_unstable();
                        if k <= MAX_NETWORK_SAMPLES {
                            assert_eq!(tile[k / 2 * width + i], sorted[k / 2], "{at}");
                        }
                        // Lane i leaves out `missing` samples, at positions
                        // that move with the trial and the lane; `trial ·
                        // width + i` runs over 0..100, so every count from 0
                        // to k occurs for every k and modulus.
                        let missing = (trial as usize * width + i) % (k + 1);
                        let mut samples: Vec<Option<u32>> =
                            column.iter().copied().map(Some).collect();
                        let mut order: Vec<usize> = (0..k).collect();
                        order.sort_by_key(|&r| mix(seed ^ (i as u64) << 8 ^ r as u64));
                        for &r in &order[..missing] {
                            samples[r] = None;
                        }
                        let mut delivered: Vec<u32> = samples.iter().flatten().copied().collect();
                        delivered.sort_unstable();
                        assert_eq!(delivered.len(), k - missing, "{at}");
                        let expected = delivered.get(delivered.len() / 2).copied();
                        let got = median_of_delivered(&network, &mut samples);
                        assert_eq!(got, expected, "{at}, {missing} missing");
                    }
                }
            }
        }
    }
}
