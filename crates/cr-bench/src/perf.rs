//! Std-only performance measurement utilities: windowed wall-clock
//! timing reported as median and quartiles, and throughput units.
//! Result files are written with [`cr_obs::json::Value`].

use std::time::{Duration, Instant};

use cr_obs::json::Value;

/// Wall time one [`time_window`] measurement covers at least. A window
/// of a second or more keeps a shared machine's scheduling noise inside
/// the quartiles instead of in the reported value.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Fewest runs a [`time_window`] measurement takes, however slow.
const MIN_RUNS: usize = 3;

/// Per-run wall seconds of a repeated closure: median, first and third
/// quartile, and the number of runs behind them.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median seconds per run.
    pub median: f64,
    /// First-quartile seconds per run.
    pub q1: f64,
    /// Third-quartile seconds per run.
    pub q3: f64,
    /// Runs taken.
    pub runs: usize,
}

impl Timing {
    /// Summarises per-run wall seconds (at least one run).
    pub fn of(mut secs: Vec<f64>) -> Timing {
        assert!(!secs.is_empty(), "a timing needs at least one run");
        secs.sort_by(f64::total_cmp);
        Timing {
            median: quantile(&secs, 0.5),
            q1: quantile(&secs, 0.25),
            q3: quantile(&secs, 0.75),
            runs: secs.len(),
        }
    }

    /// The row fields `secs` (the median), `secs_q1`, `secs_q3` and
    /// `runs`, in that order.
    pub fn fields(&self) -> Vec<(String, Value)> {
        vec![
            ("secs".into(), Value::Num(self.median)),
            ("secs_q1".into(), Value::Num(self.q1)),
            ("secs_q3".into(), Value::Num(self.q3)),
            ("runs".into(), Value::Num(self.runs as f64)),
        ]
    }
}

/// Runs `f` until at least [`WINDOW`] has passed and at least three
/// runs are done, and summarises the per-run wall times.
pub fn time_window(f: impl FnMut()) -> Timing {
    time_for(WINDOW, f)
}

fn time_for(window: Duration, mut f: impl FnMut()) -> Timing {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < MIN_RUNS || start.elapsed() < window {
        let t0 = Instant::now();
        f();
        secs.push(t0.elapsed().as_secs_f64());
    }
    Timing::of(secs)
}

/// The `p`-quantile of ascending `sorted`, interpolating linearly
/// between the two nearest samples.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match sorted.get(lo + 1) {
        Some(hi) => sorted[lo] + frac * (hi - sorted[lo]),
        None => sorted[lo],
    }
}

/// Bytes/second over megabytes (1e6 bytes, matching the paper's MB/s).
/// Delegates to the workspace-shared helper so bench output and the
/// Table 2 reproduction can never diverge on units, and so `elapsed ==
/// 0` on a coarse clock is division-safe (0 bytes → 0.0; nonzero bytes
/// → ∞ rather than NaN).
pub fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    cr_obs::units::mb_per_s(bytes as u64, secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_takes_at_least_three_runs_and_orders_quartiles() {
        let mut n = 0usize;
        let t = time_for(Duration::ZERO, || {
            n += 1;
            std::hint::black_box(n);
        });
        assert_eq!((t.runs, n), (MIN_RUNS, MIN_RUNS));
        assert!(0.0 <= t.q1 && t.q1 <= t.median && t.median <= t.q3);

        let t = time_for(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(t.runs >= MIN_RUNS && t.median >= 0.002);
    }

    #[test]
    fn quantiles_interpolate_between_samples() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&s, 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert_eq!(quantile(&[1.0, 2.0, 9.0], 0.5), 2.0);
        let t = Timing::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((t.median, t.q1, t.q3, t.runs), (2.5, 1.75, 3.25, 4));
    }

    #[test]
    fn mb_per_s_definition() {
        assert_eq!(mb_per_s(2_000_000, 2.0), 1.0);
        assert!(mb_per_s(1, 0.0).is_infinite());
        // Regression: a coarse clock can measure 0 bytes in 0 seconds;
        // that must be 0 MB/s, not NaN and not a bogus infinity.
        assert_eq!(mb_per_s(0, 0.0), 0.0);
        // Shared helper: identical semantics to the workspace converter.
        assert_eq!(mb_per_s(123_456, 0.5), cr_obs::units::mb_per_s(123_456, 0.5));
    }
}
