//! Host-noise diagnostics recorded beside every run. None of them gates
//! a result: they let a reader tell a slow host from a slow program.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop (about 10–20 ms on a current core).
const CALIB_ITERS: u64 = 4_000_000;
/// Timed repetitions of the calibration loop on each side of a workload.
const CALIB_REPS: usize = 5;

/// Time a fixed, allocation-free integer loop `CALIB_REPS` times and
/// return each duration in milliseconds. The loop's cost depends only on
/// the core's speed, so a slow window shows up as a slow probe.
pub fn calibrate() -> Vec<f64> {
    (0..CALIB_REPS)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for i in 0..CALIB_ITERS {
                x = vs_fault::mix64(x ^ i);
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// CPU, from `/proc/thread-self/schedstat` (0 where the file is absent).
pub fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
