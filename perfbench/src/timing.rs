//! Wall-clock spans around calls into the library, and the small
//! statistics the runner reports.
//!
//! This module is the crate's one clock reader. The workspace lint bans
//! `Instant::now` because wall-clock time breaks deterministic replay in
//! the library; here, outside any simulation, wall-clock time is the
//! measurement.
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

/// A started wall-clock timer.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Time since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Busy time and call count accumulated at one layer boundary.
///
/// A disabled span still runs the wrapped call but reads no clock, so the
/// same code path serves as its own untraced baseline.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    enabled: bool,
    /// Summed wall time of the timed calls.
    pub busy: Duration,
    /// Number of calls made through the span.
    pub calls: u64,
}

impl Span {
    /// A span that reads the clock around every call.
    pub fn on() -> Span {
        Span::new(true)
    }

    /// A span that only counts calls.
    pub fn new(enabled: bool) -> Span {
        Span {
            enabled,
            busy: Duration::ZERO,
            calls: 0,
        }
    }

    /// Runs `f`, adding its wall time (when enabled) and one call.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.busy += start.elapsed();
        out
    }

    /// Adds an externally measured call.
    pub fn add(&mut self, busy: Duration) {
        self.calls += 1;
        self.busy += busy;
    }

    /// Folds another span's totals into this one.
    pub fn absorb(&mut self, other: &Span) {
        self.calls += other.calls;
        self.busy += other.busy;
    }

    /// Busy time in seconds.
    pub fn secs(&self) -> f64 {
        self.busy.as_secs_f64()
    }

    /// Mean busy time per call, in nanoseconds.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / self.calls as f64
    }
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (0..=1) of already sorted samples, nearest rank.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Named metric values in print order.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `(name, value, unit)` triples.
    pub entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric, replacing an earlier value of the same name.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => *entry = (name.to_string(), value, unit),
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Records a span as busy seconds.
    pub fn secs(&mut self, name: &str, span: &Span) {
        self.set(name, span.secs(), "s");
    }

    /// Records a span as mean nanoseconds per call.
    pub fn ns(&mut self, name: &str, span: &Span) {
        self.set(name, span.ns_per_call(), "ns");
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, n: u64) {
        self.set(name, n as f64, "count");
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Copies in every metric of `other` that this set does not hold yet.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (name, value, unit) in &other.entries {
            if self.get(name).is_none() {
                self.entries.push((name.clone(), *value, unit));
            }
        }
    }
}
