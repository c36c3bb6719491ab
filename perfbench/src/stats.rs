//! Small summary helpers.

use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0, so a layer that did no work reports 0
/// instead of a non-finite number.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The result of one timed call.
pub struct Timed<T> {
    pub out: T,
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds (every thread, user plus system).
    pub cpu: f64,
    /// Hypervisor steal seconds during the call, summed over the CPUs.
    pub steal: f64,
}

impl<T> Timed<T> {
    /// Wall seconds minus steal: how long the call took while the machine's
    /// CPUs were running. On a shared virtual machine the hypervisor can
    /// deschedule a vCPU for seconds; a barrier-synchronised round waits for
    /// it, so raw wall time measures the neighbours as much as the program.
    pub fn active(&self) -> f64 {
        self.wall - self.steal
    }
}

/// Times `f` by wall clock, process CPU time and hypervisor steal time.
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let cpu0 = crate::sys::cpu_seconds();
    let steal0 = crate::sys::steal_seconds();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    Timed {
        out,
        wall,
        cpu: crate::sys::cpu_seconds() - cpu0,
        steal: crate::sys::steal_seconds() - steal0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
