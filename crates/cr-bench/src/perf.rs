//! Std-only performance measurement utilities: wall-clock timing with
//! best-of-N repetition and throughput units. Result files are written
//! with [`cr_obs::json::Value`].

use std::time::Instant;

/// Times `f` once, returning seconds.
pub fn time_once(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Times `f` `reps` times and returns the *minimum* seconds — the
/// standard noise-robust estimator for a deterministic workload.
pub fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(time_once(&mut f));
    }
    best
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
    fn time_best_takes_minimum() {
        let mut n = 0u64;
        let secs = time_best(3, || {
            n += 1;
            std::hint::black_box(n);
        });
        assert_eq!(n, 3);
        assert!(secs >= 0.0 && secs.is_finite());
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
