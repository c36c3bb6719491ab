//! Host facts and process counters, read from `/proc` and `/sys`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// Size assumed for the last-level cache when sysfs does not report one.
const FALLBACK_LLC_BYTES: u64 = 32 << 20;

/// What the host offers a run: cores, last-level cache and memory.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// Cores this process may run on (`available_parallelism`, which honours
    /// CPU affinity and cgroup quotas).
    pub cores: usize,
    /// Size of the largest (highest-level) CPU cache, in bytes.
    pub llc_bytes: u64,
    /// Physical memory (`MemTotal`), in bytes.
    pub ram_bytes: u64,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
            llc_bytes: llc_bytes().unwrap_or(FALLBACK_LLC_BYTES),
            ram_bytes: meminfo_bytes("MemTotal").unwrap_or(0),
        }
    }
}

/// Size of the highest-level cache of CPU 0, from
/// `/sys/devices/system/cpu/cpu0/cache/index*/{level,size}`.
fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Ok(level), Ok(size)) = (
            fs::read_to_string(format!("{dir}/level")),
            fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        best = best.max(Some((level, bytes)));
    }
    best.map(|(_, bytes)| bytes)
}

/// Parses sysfs cache sizes such as `48K`, `2048K` or `8M`.
fn parse_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// A `/proc/meminfo` entry (reported in KiB) in bytes.
pub fn meminfo_bytes(key: &str) -> Option<u64> {
    kib_field(&fs::read_to_string("/proc/meminfo").ok()?, key)
}

/// The process's peak resident set size (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| kib_field(&status, "VmHWM"))
        .unwrap_or(0)
}

fn kib_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map(|kib| kib * 1024)
}

/// User plus system CPU seconds consumed so far by every thread of this
/// process (fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis start at field 3.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Seconds the hypervisor ran something else while this machine's CPUs
/// wanted to run, summed over the CPUs (the `steal` column of the `cpu` line
/// of `/proc/stat`).
pub fn steal_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("8M"), Some(8 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn reads_kib_fields() {
        let text = "VmPeak:\t  100 kB\nVmHWM:\t    42 kB\n";
        assert_eq!(kib_field(text, "VmHWM"), Some(42 * 1024));
        assert_eq!(kib_field(text, "VmRSS"), None);
    }
}
