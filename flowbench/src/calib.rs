//! Host-speed calibration.
//!
//! On a shared machine the speed of the same code swings by more than
//! 1.5× between phases that last seconds to minutes (measured on a
//! 2-vCPU host: a fixed loop ran at 11 ms and at 17.5 ms per round
//! within one minute, with CPU time tracking wall time). Every run
//! therefore re-times a fixed calibration kernel about every
//! [`INTERVAL`] while it measures, and scales its timings by
//! [`REFERENCE_MS`] over the kernel's median time in the run. A
//! normalized timing reads in milliseconds of a host on which the
//! kernel takes [`REFERENCE_MS`]: program changes move it, the host's
//! speed during the run largely cancels out. The kernel is the
//! benchmark's own code, so no change to the program under test can
//! move it; raw timings are kept in the notes and the record.

use crate::{ms, Rng};
use std::time::{Duration, Instant};

/// Kernel time that defines the normalized millisecond.
pub const REFERENCE_MS: f64 = 0.5;

/// How often the kernel is re-timed while a workload runs.
pub const INTERVAL: Duration = Duration::from_millis(100);

/// The calibration kernel: sorts 8 × 4096 seeded random words on one
/// core. Allocation, branches and memory traffic, like the flow itself;
/// about 0.5 ms.
fn kernel() -> Duration {
    let started = Instant::now();
    let mut acc = 0u64;
    for round in 0..8 {
        let mut rng = Rng::new(round);
        let mut words: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        words.sort_unstable();
        acc = acc.wrapping_add(words[round as usize]);
    }
    std::hint::black_box(acc);
    started.elapsed()
}

/// Kernel timings taken during a run.
#[derive(Debug)]
pub struct Calibration {
    last: Instant,
    samples: Vec<f64>,
}

impl Calibration {
    /// A calibration with one sample taken at once.
    pub fn new() -> Calibration {
        let mut cal = Calibration { last: Instant::now(), samples: Vec::new() };
        cal.sample();
        cal
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        self.samples.push(ms(kernel()));
        self.last = Instant::now();
    }

    /// Times the kernel if the last sample is older than [`INTERVAL`].
    pub fn refresh(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Median kernel time over the run, in ms.
    pub fn kernel_ms(&self) -> f64 {
        crate::stats::median(&self.samples).expect("at least one sample")
    }

    /// Factor that turns raw time into normalized time: [`REFERENCE_MS`]
    /// over the median kernel time of the run.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.kernel_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_median_sample() {
        let samples = vec![0.5, 9.0, 1.0, 0.25, 1.0];
        let cal = Calibration { last: Instant::now(), samples };
        assert_eq!(cal.kernel_ms(), 1.0);
        assert_eq!(cal.scale(), 0.5, "a host half as fast halves every timing");
    }

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(Calibration::new().kernel_ms() > 0.0);
    }
}
