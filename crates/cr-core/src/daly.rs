//! Daly's analytical model for single-level checkpoint/restart.
//!
//! Implements the two models the paper builds on:
//!
//! * J. T. Daly, *"A higher order estimate of the optimum checkpoint
//!   interval for restart dumps"*, FGCS 22 (2006) — the optimum compute
//!   interval between checkpoints ([`optimum_interval`]) and the expected
//!   total wall time of an application under exponential failures
//!   ([`expected_wall_time`]).
//! * J. T. Daly, *"Quantifying checkpoint efficiency"* (2007) — progress
//!   rate (efficiency) as a function of the MTTI-to-commit-time ratio
//!   `M/δ` ([`optimal_progress_rate`], Figure 1 of the SC'17 paper).
//!
//! All functions take the system MTTI `M`, the checkpoint commit time `δ`
//! (both in seconds), and where relevant a restart cost `R`. Following
//! footnote 2 of the paper, restore time is assumed equal to commit time
//! unless stated otherwise.

/// Probability that an activity of duration `a` completes without being
/// interrupted, under exponentially distributed failures with mean `mtti`.
///
/// This is `exp(-a / M)`. An `a` of zero always succeeds; an infinite
/// `mtti` means failures never occur.
pub fn survival_prob(a: f64, mtti: f64) -> f64 {
    debug_assert!(a >= 0.0, "activity duration must be non-negative");
    debug_assert!(mtti > 0.0, "MTTI must be positive");
    (-a / mtti).exp()
}

/// Expected time elapsed before the interrupt, *given* that an activity of
/// duration `a` is interrupted (exponential failures with mean `mtti`).
///
/// For `X ~ Exp(1/M)`, this is `E[X | X < a] = M - a·e^{-a/M} / (1 - e^{-a/M})`.
/// As `a → 0` the value tends to `a/2`; as `a → ∞` it tends to `M`.
pub fn expected_time_before_interrupt(a: f64, mtti: f64) -> f64 {
    debug_assert!(a >= 0.0 && mtti > 0.0);
    if a == 0.0 {
        return 0.0;
    }
    let x = a / mtti;
    if x < 1e-9 {
        // Series expansion avoids catastrophic cancellation for tiny x:
        // E = a/2 - a·x/12 + O(x^2).
        return a * (0.5 - x / 12.0);
    }
    // 1 - e^{-x} via exp_m1 avoids cancellation for small x.
    let one_minus_q = -(-x).exp_m1();
    let q = (-x).exp();
    mtti - a * q / one_minus_q
}

/// Daly's higher-order optimum checkpoint interval (FGCS 2006, eq. 37):
///
/// ```text
/// τ_opt = sqrt(2δM) · [1 + (1/3)·sqrt(δ/2M) + (1/9)·(δ/2M)] − δ    (δ < 2M)
/// τ_opt = M                                                        (δ ≥ 2M)
/// ```
pub fn optimum_interval(mtti: f64, delta: f64) -> f64 {
    debug_assert!(mtti > 0.0 && delta >= 0.0);
    if delta == 0.0 {
        // No commit cost: checkpoint continuously; any positive interval
        // works. Return M as the natural scale.
        return mtti;
    }
    if delta >= 2.0 * mtti {
        return mtti;
    }
    let half_ratio = delta / (2.0 * mtti);
    let tau = (2.0 * delta * mtti).sqrt()
        * (1.0 + half_ratio.sqrt() / 3.0 + half_ratio / 9.0)
        - delta;
    tau.max(1e-12)
}

/// Daly's expected total wall time (FGCS 2006, "complete model"):
///
/// ```text
/// T_w = M · e^{R/M} · (e^{(τ+δ)/M} − 1) · T_s / τ
/// ```
///
/// where `T_s` is the failure-free solve time, `τ` the compute interval
/// between checkpoints, `δ` the commit time, and `R` the restart cost.
pub fn expected_wall_time(
    solve_time: f64,
    mtti: f64,
    delta: f64,
    restart: f64,
    tau: f64,
) -> f64 {
    debug_assert!(solve_time >= 0.0 && mtti > 0.0 && tau > 0.0);
    debug_assert!(delta >= 0.0 && restart >= 0.0);
    mtti * (restart / mtti).exp()
        * ((tau + delta) / mtti).exp_m1()
        * (solve_time / tau)
}

/// Progress rate (efficiency) for a given compute interval `tau`:
/// `T_s / T_w`, independent of `T_s`.
pub fn progress_rate(mtti: f64, delta: f64, restart: f64, tau: f64) -> f64 {
    1.0 / (expected_wall_time(1.0, mtti, delta, restart, tau))
}

/// Progress rate at Daly's higher-order optimum interval, with restart
/// cost equal to the commit time (paper footnote 2).
pub fn optimal_progress_rate(mtti: f64, delta: f64) -> f64 {
    if delta == 0.0 {
        return 1.0;
    }
    let tau = optimum_interval(mtti, delta);
    progress_rate(mtti, delta, delta, tau)
}

/// One point of the Figure 1 curve: progress rate as a function of the
/// ratio `M/δ`. The curve is scale-free, so `M` is fixed at 1 and
/// `δ = 1/ratio`.
pub fn progress_for_ratio(m_over_delta: f64) -> f64 {
    debug_assert!(m_over_delta > 0.0);
    optimal_progress_rate(1.0, 1.0 / m_over_delta)
}

/// Generates the Figure 1 curve over logarithmically spaced `M/δ` ratios.
///
/// Returns `(ratio, progress_rate)` pairs for `points` samples between
/// `lo` and `hi` (inclusive, both must be positive).
pub fn figure1_curve(lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
    assert!(lo > 0.0 && hi > lo && points >= 2);
    let log_lo = lo.ln();
    let log_hi = hi.ln();
    (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1) as f64;
            let ratio = (log_lo + t * (log_hi - log_lo)).exp();
            (ratio, progress_for_ratio(ratio))
        })
        .collect()
}

/// Finds the `M/δ` ratio needed to reach a target progress rate, by
/// bisection on the monotone Figure 1 curve.
pub fn ratio_for_progress(target: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&target),
        "target progress must be in (0, 1)"
    );
    let (mut lo, mut hi) = (1e-3f64, 1e9f64);
    for _ in 0..200 {
        let mid = (lo * hi).sqrt();
        if progress_for_ratio(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo * hi).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Daly's first-order optimum checkpoint interval `sqrt(2 δ M) - δ`.
    ///
    /// Valid for `δ < M/2`; for larger `δ` Daly recommends `τ = M`. The
    /// tests check [`optimum_interval`] against it.
    fn optimum_interval_first_order(mtti: f64, delta: f64) -> f64 {
        debug_assert!(mtti > 0.0 && delta >= 0.0);
        if delta >= 2.0 * mtti {
            return mtti;
        }
        ((2.0 * delta * mtti).sqrt() - delta).max(delta.min(mtti))
    }

    const TOL: f64 = 1e-9;

    #[test]
    fn survival_prob_limits() {
        assert!((survival_prob(0.0, 100.0) - 1.0).abs() < TOL);
        assert!(survival_prob(1e12, 1.0) < 1e-300);
        // One MTTI of exposure -> e^{-1}.
        assert!((survival_prob(50.0, 50.0) - (-1.0f64).exp()).abs() < TOL);
    }

    #[test]
    fn expected_time_before_interrupt_limits() {
        // Tiny activity: conditional mean ~ a/2.
        let a = 1e-6;
        let e = expected_time_before_interrupt(a, 1.0);
        assert!((e - a / 2.0).abs() < 1e-12);
        // Huge activity: conditional mean -> MTTI.
        let e = expected_time_before_interrupt(1e9, 42.0);
        assert!((e - 42.0).abs() < 1e-6);
        // Must always be below both a and M.
        for &a in &[0.1, 1.0, 10.0, 100.0] {
            let e = expected_time_before_interrupt(a, 7.0);
            assert!(e < a && e < 7.0, "a={a}: e={e}");
        }
    }

    #[test]
    fn expected_time_series_matches_exact_near_crossover() {
        // The series branch and exact branch must agree at the switch point.
        let mtti = 1.0f64;
        let a = 1.001e-9 * mtti;
        let exact = {
            let q = (-(a / mtti)).exp();
            mtti - a * q / (1.0 - q)
        };
        let approx = expected_time_before_interrupt(a, mtti);
        assert!((exact - approx).abs() / exact < 1e-6);
    }

    #[test]
    fn optimum_interval_reproduces_paper_example() {
        // M = 30 min, delta = 9 s: the paper derives tau ~ 3 min (~M/10).
        // sqrt(2*9*1800) * (1 + 0.05/3 + 0.0025/9) - 9 = 174.05.
        let tau = optimum_interval(30.0 * 60.0, 9.0);
        assert!(
            (tau - 174.05).abs() < 0.05,
            "tau = {tau}, expected ~174 s (~3 min)"
        );
    }

    #[test]
    fn paper_rule_of_thumb_delta_m_over_200_gives_90pct() {
        // Paper Sec. 3.3: commit time ~ M/200 yields ~90% progress.
        let p = optimal_progress_rate(200.0, 1.0);
        assert!((p - 0.90).abs() < 0.005, "progress = {p}");
    }

    #[test]
    fn progress_monotone_in_ratio() {
        let mut last = 0.0;
        for &r in &[1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0] {
            let p = progress_for_ratio(r);
            assert!(p > last, "ratio {r}: {p} <= {last}");
            last = p;
        }
        assert!(last < 1.0);
    }

    #[test]
    fn higher_order_beats_or_ties_first_order() {
        for &(m, d) in &[(1800.0, 9.0), (1800.0, 100.0), (600.0, 60.0)] {
            let t_hi = optimum_interval(m, d);
            let t_lo = optimum_interval_first_order(m, d);
            let p_hi = progress_rate(m, d, d, t_hi);
            let p_lo = progress_rate(m, d, d, t_lo);
            assert!(
                p_hi >= p_lo - 1e-6,
                "m={m} d={d}: higher-order {p_hi} < first-order {p_lo}"
            );
        }
    }

    #[test]
    fn optimum_is_a_local_maximum_of_progress() {
        let (m, d) = (1800.0, 9.0);
        let tau = optimum_interval(m, d);
        let p = progress_rate(m, d, d, tau);
        for eps in [0.9, 0.95, 1.05, 1.1] {
            let p2 = progress_rate(m, d, d, tau * eps);
            assert!(p2 <= p + 1e-9, "perturbed {eps}: {p2} > {p}");
        }
    }

    #[test]
    fn wall_time_scales_linearly_with_solve_time() {
        let t1 = expected_wall_time(100.0, 1800.0, 9.0, 9.0, 172.0);
        let t2 = expected_wall_time(200.0, 1800.0, 9.0, 9.0, 172.0);
        assert!((t2 / t1 - 2.0).abs() < TOL);
    }

    #[test]
    fn no_failure_limit_recovers_simple_overhead() {
        // With M -> infinity, wall time -> T_s * (tau + delta) / tau.
        let wall = expected_wall_time(1000.0, 1e15, 10.0, 10.0, 100.0);
        assert!((wall - 1000.0 * 110.0 / 100.0).abs() < 1e-3);
    }

    #[test]
    fn ratio_for_progress_inverts_curve() {
        for &target in &[0.5, 0.75, 0.9, 0.95] {
            let r = ratio_for_progress(target);
            let p = progress_for_ratio(r);
            assert!((p - target).abs() < 1e-6, "target {target}: got {p}");
        }
        // Paper: 90% needs M/delta ~ 200.
        let r90 = ratio_for_progress(0.90);
        assert!((r90 - 200.0).abs() < 15.0, "r90 = {r90}");
    }

    #[test]
    fn figure1_curve_is_monotone_and_bounded() {
        let curve = figure1_curve(1.0, 1e4, 64);
        assert_eq!(curve.len(), 64);
        for win in curve.windows(2) {
            assert!(win[1].1 >= win[0].1);
        }
        for &(_, p) in &curve {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn degenerate_delta_zero_is_perfect_progress() {
        assert_eq!(optimal_progress_rate(100.0, 0.0), 1.0);
    }

    #[test]
    fn huge_delta_clamps_interval_to_mtti() {
        assert_eq!(optimum_interval(10.0, 100.0), 10.0);
        assert_eq!(optimum_interval_first_order(10.0, 100.0), 10.0);
    }
}
