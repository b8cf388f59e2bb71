//! Host-speed calibration.
//!
//! On a shared host the same pass can take 50 % longer for minutes at a
//! time while neighbours load the memory system. Every timed unit (a
//! deployment build, a workload pass) is therefore measured between runs
//! of a fixed reference kernel, and reported as its wall time divided by
//! the kernel's wall time around it, times the kernel's nominal time. A
//! pass that got slower because the host did reads the same; a pass that
//! got slower because the library did does not, since the kernel uses
//! only the standard library and no change to the library can move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

use crate::timing::{median, timed};

/// The kernel's wall time on the reference machine (2-vCPU Intel Xeon) in
/// a quiet period. It only fixes the unit: calibrated times are seconds
/// on that machine at that speed.
pub const NOMINAL_S: f64 = 0.053;

/// The kernel: rounds of an allocation-, map- and cache-miss-heavy mix like the
/// workloads' (map-heavy reports, random table lookups, formatted
/// strings), kept under 6 MB so it stays below every workload's own peak
/// resident set and leaves `peak_rss_mb` to the workload.
pub fn kernel() -> u64 {
    (0..KERNEL_ROUNDS).fold(0, |acc, round| acc ^ kernel_round(round))
}

/// Rounds per kernel run: enough work (~60 ms on the reference machine)
/// that one kernel run's own jitter stays small.
const KERNEL_ROUNDS: u64 = 4;

fn kernel_round(round: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for i in 0..40_000u64 {
        map.insert(next() % 1_000_000, i);
    }
    let table: Vec<u64> = (0..1u64 << 18).collect();
    let mut acc = 0u64;
    for _ in 0..4_000_000 {
        acc = acc.wrapping_add(table[(next() % (1 << 18)) as usize]);
    }
    let labels: Vec<String> = (0..40_000u64)
        .map(|i| format!("{i}.{}", next() % 997))
        .collect();
    acc ^ map.len() as u64 ^ labels.iter().map(String::len).sum::<usize>() as u64
}

/// Timed units interleaved with kernel runs.
#[derive(Debug, Default)]
pub struct Calibrated {
    /// `(position, kernel wall)` of each kernel run.
    kernels: Vec<(usize, f64)>,
    /// `(position, wall)` of each unit.
    units: Vec<(usize, f64)>,
}

impl Calibrated {
    /// An empty timeline.
    pub fn new() -> Calibrated {
        Calibrated::default()
    }

    /// Runs the kernel once and records its wall time.
    pub fn kernel(&mut self) {
        let (out, wall) = timed(kernel);
        black_box(out);
        let position = self.kernels.len() + self.units.len();
        self.kernels.push((position, wall.as_secs_f64()));
    }

    /// Records a unit's wall time.
    pub fn unit(&mut self, wall: Duration) {
        let position = self.kernels.len() + self.units.len();
        self.units.push((position, wall.as_secs_f64()));
    }

    /// Raw unit wall times, in seconds.
    pub fn raw(&self) -> Vec<f64> {
        self.units.iter().map(|(_, w)| *w).collect()
    }

    /// Median raw kernel wall time, in seconds.
    pub fn kernel_median(&self) -> f64 {
        median(&self.kernels.iter().map(|(_, w)| *w).collect::<Vec<_>>())
    }

    /// Each unit's wall time over the mean of the nearest kernel runs
    /// before and after it, times [`NOMINAL_S`].
    pub fn calibrated(&self) -> Vec<f64> {
        self.units
            .iter()
            .map(|(at, wall)| {
                let before = self.kernels.iter().rev().find(|(k, _)| k < at);
                let after = self.kernels.iter().find(|(k, _)| k > at);
                let around: Vec<f64> = before.into_iter().chain(after).map(|(_, w)| *w).collect();
                let kernel = around.iter().sum::<f64>() / around.len().max(1) as f64;
                wall / kernel * NOMINAL_S
            })
            .collect()
    }
}
