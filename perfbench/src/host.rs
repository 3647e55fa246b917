//! Host clocks for the benchmark thread: steal-free on-CPU time, a
//! calibration loop that converts it to a fixed reference speed, wall
//! time, system-wide steal and peak RSS.
//!
//! Why not wall-clock: on a shared VM the hypervisor steals whole
//! slices of a run, and the host's speed moves between processes. The
//! thread's on-CPU time (`CLOCK_THREAD_CPUTIME_ID`, the scheduler's
//! runtime that `/proc/thread-self/schedstat` also reports, but read
//! exactly rather than as of the last tick) leaves steal out; dividing
//! it by a fixed arithmetic loop timed the same way just before each
//! measured piece of work cancels most of the speed drift. Every gated
//! time is reported as ns at the reference speed,
//! `cpu_ns * CALIB_REFERENCE_NS / calib_ns`.

use crate::oracle::DenseOracle;
use std::hint::black_box;
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux clock id of the calling thread's CPU-time clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// On-CPU time of the calling thread in ns, excluding steal.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the duration
    // of the call, and the clock id is a valid Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU-time clock is available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// System-wide jiffy counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Jiffies {
    /// Time stolen by the hypervisor, summed over CPUs.
    pub steal: u64,
    /// All accounted time, summed over CPUs.
    pub total: u64,
}

impl Jiffies {
    /// Read the current counters.
    pub fn now() -> Jiffies {
        let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable on Linux");
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted inside user/nice.
        Jiffies {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Jiffies) -> Jiffies {
        Jiffies {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }
}

/// On-CPU ns [`calibrate`] takes on the reference host (the 2-core
/// x86-64 VM the benchmark was founded on). Only a unit choice:
/// calibrated times equal raw on-CPU times at that speed.
pub const CALIB_REFERENCE_NS: f64 = 10.4e6;

/// Run the benchmark-owned calibration loops and return their combined
/// on-CPU ns: the geometric mean of an arithmetic loop and a table-driven
/// loop, ~10 ms each.
///
/// Host noise here comes in two kinds that slow different code: the
/// core's arithmetic throughput, and contention on caches and
/// predictors. Either loop alone tracks some workloads and misses others;
/// the mean tracked all four best. Range of per-process `iter_ns` over
/// four processes in one window (arithmetic / table / mean): paper-43
/// 5.0 / 8.9 / 3.5%, shape-54 10.9 / 12.7 / 9.6%, gpusim-43
/// 3.9 / 6.4 / 4.3%, fibers-43 4.1 / 1.4 / 1.7%.
pub fn calibrate() -> u64 {
    (fma_loop() as f64 * table_loop() as f64).sqrt() as u64
}

/// Eight independent multiply-add chains, no memory traffic.
fn fma_loop() -> u64 {
    let start = thread_cpu_ns();
    let mut acc = black_box([1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7]);
    let (a, b) = black_box((0.999_999_9f64, 1e-7f64));
    for _ in 0..1_000_000 {
        for v in acc.iter_mut() {
            *v = *v * a + b;
        }
        acc = black_box(acc);
    }
    black_box(acc);
    thread_cpu_ns() - start
}

/// Dense A·xᵐ by the oracle's index tables, allocating its result, over
/// 64 fixed (4,3) tensors and 64 fixed unit vectors from a fixed-seed
/// LCG; only the evaluations are timed.
fn table_loop() -> u64 {
    let oracle = DenseOracle::new(4, 3);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let tensors: Vec<Vec<f64>> = (0..64).map(|_| (0..15).map(|_| next()).collect()).collect();
    let xs: Vec<Vec<f64>> = (0..64)
        .map(|_| {
            let v: Vec<f64> = (0..3).map(|_| next()).collect();
            let norm = v.iter().map(|c| c * c).sum::<f64>().sqrt();
            v.iter().map(|c| c / norm).collect()
        })
        .collect();
    let start = thread_cpu_ns();
    let mut acc = 0.0;
    for i in 0..22_000 {
        let (lambda, y) = oracle.eval(&tensors[i % 64], &xs[(i / 64) % 64]);
        acc += lambda + y[0];
    }
    black_box(acc);
    thread_cpu_ns() - start
}

/// One measured piece of work.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// On-CPU ns of the benchmark thread.
    pub cpu_ns: u64,
    /// Wall-clock ns.
    pub wall_ns: u64,
    /// On-CPU ns of the calibration run just before the work.
    pub calib_ns: u64,
}

impl Sample {
    /// On-CPU ns scaled to the reference host speed.
    pub fn calibrated_ns(&self) -> f64 {
        self.cpu_ns as f64 * CALIB_REFERENCE_NS / self.calib_ns as f64
    }
}

/// Calibrate, then time `work` on the calling thread.
pub fn measure<R>(work: impl FnOnce() -> R) -> (R, Sample) {
    let calib_ns = calibrate();
    let (out, cpu_ns, wall_ns) = time(work);
    (
        out,
        Sample {
            cpu_ns,
            wall_ns,
            calib_ns,
        },
    )
}

/// Time `work` without calibrating: `(result, cpu_ns, wall_ns)`.
pub fn time<R>(work: impl FnOnce() -> R) -> (R, u64, u64) {
    let wall = Instant::now();
    let cpu = thread_cpu_ns();
    let out = black_box(work());
    let cpu_ns = thread_cpu_ns() - cpu;
    (out, cpu_ns, wall.elapsed().as_nanos() as u64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM is reported in /proc/self/status")
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let (_, cpu_ns, wall_ns) = time(|| (0..2_000_000u64).map(black_box).sum::<u64>());
        assert!(cpu_ns > 0 && wall_ns > 0);
    }

    #[test]
    #[ignore = "prints the calibration time on this host; run with --ignored"]
    fn calibration_time() {
        let ns: Vec<f64> = (0..50).map(|_| calibrate() as f64).collect();
        println!("calibrate: median {:.3} ms", median(&ns) / 1e6);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }
}
