//! What every workload shares: its arguments, the result it hands back,
//! repeated set-up, and the latency summary.

use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Every input is generated from this.
    pub seed: u64,
    /// How long the timed section measures.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Smoke scale: every workload finishes within two seconds.
    pub quick: bool,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from `metrics.rs`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (timings state their sample count).
    pub samples: u64,
}

/// One output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks; the run is correct when all hold.
    pub checks: Vec<Check>,
    /// End-to-end and native metrics (untraced run) or per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Facts worth printing that are not metrics (digests, sizes).
    pub info: Vec<(&'static str, String)>,
    /// Spans of the traced units, and the wall time they cover.
    pub trace: Option<(Tracer, u64)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// Records a fact.
    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// FNV-1a over bytes: the digests and checksums that must repeat for a
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Set-up runs at least this often, so that `setup_s` is a median.
pub const SETUP_REPEATS: usize = 3;

/// A set-up of a second or less is mostly page faults and WAL writes, and
/// as a median of three it had a quartile spread of 26 % over ten runs on
/// this box, so a short one is repeated until this many seconds are spent,
pub const SETUP_BUDGET_S: f64 = 4.0;

/// but at most this often.
pub const SETUP_REPEATS_MAX: usize = 7;

/// Whether set-up runs once more after `done` repeats that took
/// `spent_s` together.
fn set_up_again(done: usize, spent_s: f64) -> bool {
    done < SETUP_REPEATS || (done < SETUP_REPEATS_MAX && spent_s < SETUP_BUDGET_S)
}

/// Runs `build` [`SETUP_REPEATS`] to [`SETUP_REPEATS_MAX`] times (once at
/// quick scale), keeps the last state, and returns it with the median
/// set-up time in seconds and how many times it is the median of.
pub fn repeated_setup<S>(quick: bool, mut build: impl FnMut() -> S) -> (S, f64, u64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut state = None;
    while times.is_empty() || (!quick && set_up_again(times.len(), times.iter().sum())) {
        drop(state.take()); // free the previous copy before building the next
        let start = Instant::now();
        state = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        state.expect("set-up ran at least once"),
        stats::median(&times),
        times.len() as u64,
    )
}

/// Windows a latency sample is cut into for its tail (see [`Latency`]).
pub const TAIL_WINDOWS: usize = 5;

/// The highest percentile reported as a tail unless a workload caps it
/// lower. On this shared box the p99 of a memory-bound loop is mostly the
/// neighbours' doing (it moved by 36 % between runs of the same code, the
/// p95 by a third of that).
pub const TAIL_CAP: f64 = 95.0;

/// Median and tail of a latency sample in ms.
///
/// The tail is taken per window: the sample, in the order it was
/// measured, is cut into [`TAIL_WINDOWS`] equal windows, each window
/// reports the highest ladder percentile that has at least ten of its
/// samples beyond it (at most the workload's cap), and the tail is the
/// median of the windows' values. One stall of the machine then moves one window, not
/// the run's tail. A sample too small to give every window a percentile
/// above its median is one window.
pub struct Latency {
    /// Median of the whole sample, ms.
    pub p50_ms: f64,
    /// Median over windows of the window's tail percentile, ms.
    pub tail_ms: f64,
    /// Which percentile each window reports.
    pub tail_percentile: f64,
    /// Windows the tail is a median of.
    pub windows: usize,
    /// Sample count.
    pub samples: u64,
}

impl Latency {
    /// Summarises `samples_ms`, given in the order they were measured,
    /// with no tail percentile above `cap`.
    pub fn of(samples_ms: &[f64], cap: f64) -> Latency {
        let per_window = samples_ms.len() / TAIL_WINDOWS;
        let windows = if stats::highest_supported_percentile(per_window) > 50.0 {
            TAIL_WINDOWS
        } else {
            1
        };
        let window_len = (samples_ms.len() / windows).max(1);
        let tail_percentile = stats::highest_supported_percentile(window_len).min(cap);
        let tails: Vec<f64> = samples_ms
            .chunks_exact(window_len)
            .map(|w| {
                let mut w = w.to_vec();
                stats::percentile(stats::sorted(&mut w), tail_percentile)
            })
            .collect();
        let mut all = samples_ms.to_vec();
        Latency {
            p50_ms: stats::percentile(stats::sorted(&mut all), 50.0),
            tail_ms: stats::median(&tails),
            tail_percentile,
            windows,
            samples: samples_ms.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_median_of_window_tails_so_one_stall_moves_one_window() {
        // 1000 samples of 10 ms; a stall in the fourth window makes 60
        // of its 200 samples take 500 ms.
        let mut samples = vec![10.0; 1000];
        for s in &mut samples[650..710] {
            *s = 500.0;
        }
        let lat = Latency::of(&samples, TAIL_CAP);
        assert_eq!((lat.windows, lat.samples), (5, 1000));
        // 200 samples per window support p95 (ten beyond it).
        assert_eq!(lat.tail_percentile, 95.0);
        assert_eq!(lat.p50_ms, 10.0);
        assert_eq!(
            lat.tail_ms, 10.0,
            "four quiet windows outvote the stalled one"
        );
        // A tail that is there in every window shows.
        let mut slow_tail = vec![10.0; 1000];
        for (i, s) in slow_tail.iter_mut().enumerate() {
            if i % 8 == 0 {
                *s = 80.0;
            }
        }
        assert_eq!(Latency::of(&slow_tail, TAIL_CAP).tail_ms, 80.0);
        // A workload may cap the tail lower.
        let capped = Latency::of(&slow_tail, 90.0);
        assert_eq!((capped.tail_percentile, capped.tail_ms), (90.0, 80.0));
    }

    #[test]
    fn a_small_sample_is_one_window_and_its_tail_the_supported_percentile() {
        let samples: Vec<f64> = (1..=23).map(f64::from).collect();
        let lat = Latency::of(&samples, TAIL_CAP);
        assert_eq!(lat.windows, 1);
        assert_eq!(lat.tail_percentile, 50.0);
        assert_eq!(lat.tail_ms, lat.p50_ms);
        // 150 samples: five windows of 30 could only give medians, one
        // window of 150 supports p90.
        let lat = Latency::of(&(1..=150).map(f64::from).collect::<Vec<_>>(), TAIL_CAP);
        assert_eq!((lat.windows, lat.tail_percentile), (1, 90.0));
        assert_eq!(lat.tail_ms, 135.0);
    }

    #[test]
    fn set_up_runs_at_least_three_times_and_keeps_the_last_state() {
        let mut built = 0;
        let (state, median_s, repeats) = repeated_setup(false, || {
            built += 1;
            built
        });
        // An instant set-up never spends the budget: it runs the maximum.
        assert_eq!((state, built), (SETUP_REPEATS_MAX, SETUP_REPEATS_MAX));
        assert_eq!(repeats, SETUP_REPEATS_MAX as u64);
        assert!(median_s >= 0.0);
        let (_, _, repeats) = repeated_setup(true, || built += 1);
        assert_eq!((built, repeats), (SETUP_REPEATS_MAX + 1, 1));
        // A long set-up stops at three, a short one when the budget is
        // spent, none goes past the maximum.
        assert!(set_up_again(2, 100.0));
        assert!(!set_up_again(3, 7.5));
        assert!(set_up_again(4, 3.9));
        assert!(!set_up_again(5, 4.1));
        assert!(!set_up_again(SETUP_REPEATS_MAX, 0.1));
    }
}
