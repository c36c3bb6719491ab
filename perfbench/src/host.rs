//! Host roofline: sequential copy bandwidth and dependent random-gather
//! latency, over arrays at least four times the last-level cache so that
//! both measure memory rather than cache.

use crate::stats::median;
use crate::sys::Host;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of each calibration; the median is reported.
const REPS: usize = 5;
/// Dependent loads per gather repetition.
const GATHER_STEPS: usize = 1 << 21;

#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Copy bandwidth with one thread, GB/s, counting bytes read plus bytes
    /// written (the STREAM convention).
    pub copy_gbps_t1: f64,
    /// Copy bandwidth with `threads` threads, each copying its own slice.
    pub copy_gbps_tn: f64,
    /// Nanoseconds per dependent load of a random single-cycle chase.
    pub gather_ns: f64,
    /// Size of each copy array (source and destination), in bytes.
    pub copy_bytes: u64,
    /// Size of the gather array, in bytes.
    pub gather_bytes: u64,
}

pub fn calibrate(host: &Host, threads: usize, tracer: &mut Tracer) -> Roofline {
    let (words, odd) = chase_size((4 * host.llc_bytes).div_ceil(8));
    let bytes = words * 8;
    let words = words as usize;
    let available = crate::sys::meminfo_bytes("MemAvailable").unwrap_or(0);
    if available < 2 * bytes + (1 << 30) {
        eprintln!("refusing to run: the roofline needs two {bytes}-byte arrays, {available} bytes are available");
        std::process::exit(2);
    }
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    // One untimed pass faults both arrays in.
    dst.copy_from_slice(&src);

    let copy = |tracer: &mut Tracer, name: &'static str, dst: &mut [u64], t: usize| {
        let secs: Vec<f64> = (0..REPS)
            .map(|_| {
                tracer.span(name, |_| {
                    let start = Instant::now();
                    copy_parallel(dst, &src, t);
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        black_box(&dst[words / 2]);
        2.0 * bytes as f64 / median(&secs) / 1e9
    };
    let copy_gbps_t1 = copy(tracer, "host.copy.t1", &mut dst, 1);
    let copy_gbps_tn = copy(tracer, "host.copy.tN", &mut dst, threads);
    drop(src);

    // Gather over `dst`, rewritten as the successor table of the full-period
    // linear congruential map x -> a*x + c (mod words): one cycle through
    // every word, with an address sequence no stride prefetcher can follow.
    // Hull-Dobell: c is coprime to `words` and a - 1 is divisible by 4 and by
    // every prime factor of `words` (2 and `odd`).
    let chain = &mut dst;
    let m = words as u64;
    let step = ((1 + 4 * odd as u128 * 1_591_034_055_961_698_251) % m as u128) as u64;
    let mut next = C % m;
    for slot in chain.iter_mut() {
        *slot = next;
        next += step;
        if next >= m {
            next -= m;
        }
    }
    let mut at = 0u64;
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            tracer.span("host.gather", |_| {
                let start = Instant::now();
                for _ in 0..GATHER_STEPS {
                    at = chain[at as usize];
                }
                start.elapsed().as_secs_f64()
            })
        })
        .collect();
    black_box(at);
    Roofline {
        copy_gbps_t1,
        copy_gbps_tn,
        gather_ns: median(&secs) / GATHER_STEPS as f64 * 1e9,
        copy_bytes: bytes,
        gather_bytes: bytes,
    }
}

/// Increment of the gather's congruential map: a prime, so coprime to any
/// `odd * 2^k` table size.
const C: u64 = (1 << 61) - 1;

/// The smallest table of `odd * 2^k` words (odd in {1, 3, 5, 7}, k >= 2)
/// holding at least `min_words`, so arrays overshoot 4x LLC by at most 25 %.
fn chase_size(min_words: u64) -> (u64, u64) {
    [1u64, 3, 5, 7]
        .into_iter()
        .map(|odd| {
            let mut words = odd * 4;
            while words < min_words {
                words *= 2;
            }
            (words, odd)
        })
        .min()
        .expect("four candidates")
}

/// Copies `src` into `dst` with `threads` scoped threads, one contiguous
/// slice each.
fn copy_parallel(dst: &mut [u64], src: &[u64], threads: usize) {
    if threads <= 1 {
        dst.copy_from_slice(src);
        return;
    }
    let chunk = dst.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (d, s) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
            scope.spawn(move || d.copy_from_slice(s));
        }
    });
}
