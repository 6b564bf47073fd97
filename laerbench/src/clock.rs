//! Host time normalised to a reference CPU speed.
//!
//! On a shared host the CPU's speed swings by up to 1.5× within
//! seconds, and an op slows by about the same factor as any other code
//! running at that moment. A fixed kernel (sort and fold 256 KiB),
//! timed right after each op, tracks that speed, so the benchmark
//! reports host times as `measured × REF_KERNEL_MS / kernel time`:
//! milliseconds on a machine where the kernel takes [`REF_KERNEL_MS`].
//! The kernel is benchmark code, so a change to the program does not
//! move it.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in ms, that defines the reference speed (about the
/// kernel's time on a 2-vCPU Xeon cloud host).
pub const REF_KERNEL_MS: f64 = 0.7;
/// Elements the kernel sorts and folds.
const KERNEL_LEN: usize = 32 * 1024;
/// One extra kernel run per this many ms of timed work, so the speed
/// estimate for a long op averages over its whole length.
const MS_PER_EXTRA_RUN: f64 = 25.0;
/// Most kernel runs per estimate.
const MAX_RUNS: usize = 15;

/// The calibration kernel and its buffer, allocated once so page
/// faults and the allocator stay out of the measurement.
#[derive(Debug)]
pub struct Clock {
    buf: Vec<u64>,
}

impl Clock {
    /// Allocates the kernel's buffer.
    pub fn new() -> Self {
        Self {
            buf: vec![0; KERNEL_LEN],
        }
    }

    /// Times the kernel once, in ms.
    fn kernel_ms(&mut self) -> f64 {
        let start = Instant::now();
        for (i, x) in self.buf.iter_mut().enumerate() {
            *x = (black_box(i) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        }
        self.buf.sort_unstable();
        let folded = self
            .buf
            .iter()
            .enumerate()
            .fold(0.0f64, |acc, (i, &x)| acc + (x as f64).sqrt() * i as f64);
        black_box(folded);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Median kernel time, in ms, over enough runs for `work_ms` of
    /// timed work (at least one).
    pub fn sample(&mut self, work_ms: f64) -> f64 {
        let runs = (1 + (work_ms / MS_PER_EXTRA_RUN) as usize).min(MAX_RUNS);
        let mut t: Vec<f64> = (0..runs).map(|_| self.kernel_ms()).collect();
        t.sort_by(f64::total_cmp);
        t[runs / 2]
    }
}

/// `ms` measured between two kernel samples, at the reference speed.
pub fn normalise(ms: f64, kernel_before: f64, kernel_after: f64) -> f64 {
    ms * REF_KERNEL_MS / ((kernel_before + kernel_after) / 2.0)
}
