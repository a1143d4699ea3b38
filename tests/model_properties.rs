//! Property tests over the model space: for arbitrary (sane) systems
//! and strategies, both backends must produce valid, consistent results
//! — no panics, no accounting leaks, sensible monotonicities.
//!
//! The parameter space is sampled with a seeded ChaCha8 stream rather
//! than a property-testing framework, so the suite is fully
//! deterministic and dependency-free; each property sweeps a few dozen
//! drawn configurations.

use cr_rand::ChaCha8;
use ndp_checkpoint::prelude::*;
// Both preludes could export a name `Strategy`; import the C/R enum
// explicitly.
use ndp_checkpoint::cr_core::params::Strategy;

/// Deterministic generator over the physically sensible model space.
struct ParamGen {
    rng: ChaCha8,
}

impl ParamGen {
    fn new(seed: u64) -> Self {
        ParamGen {
            rng: ChaCha8::seed_from_u64(seed),
        }
    }

    fn system(&mut self) -> SystemParams {
        SystemParams {
            mtti: self.rng.gen_range(600.0, 7200.0), // 10 min .. 2 h
            checkpoint_bytes: self.rng.gen_range(10e9, 200e9),
            local_bw: self.rng.gen_range(1e9, 30e9),
            io_bw_per_node: self.rng.gen_range(20e6, 500e6),
        }
    }

    fn maybe_factor(&mut self, lo: f64, hi: f64) -> Option<f64> {
        if self.rng.gen_f64() < 0.5 {
            Some(self.rng.gen_range(lo, hi))
        } else {
            None
        }
    }

    fn host_strategy(&mut self) -> Strategy {
        Strategy::LocalIoHost {
            interval: Some(150.0),
            ratio: self.rng.gen_range(1.0, 60.0) as u32,
            p_local: self.rng.gen_f64(),
            compression: self
                .maybe_factor(0.2, 0.9)
                .map(CompressionSpec::gzip1_host_with_factor),
        }
    }

    fn ndp_strategy(&mut self) -> Strategy {
        Strategy::LocalIoNdp {
            interval: Some(150.0),
            ratio: None,
            p_local: self.rng.gen_f64(),
            compression: self
                .maybe_factor(0.2, 0.9)
                .map(CompressionSpec::gzip1_ndp_with_factor),
            drain_lag: Default::default(),
        }
    }
}

fn quick_sim(sys: &SystemParams, strat: &Strategy, seed: u64) -> cr_sim::SimResult {
    let opts = SimOptions {
        seed,
        min_failures: 250,
        min_work: 0.0,
        max_wall: 1e12,
    };
    cr_sim::simulate(sys, strat, &opts)
}

#[test]
fn analytic_progress_is_valid_probability() {
    let mut g = ParamGen::new(0xA11C);
    for case in 0..24 {
        let sys = g.system();
        let strat = g.host_strategy();
        let sol = cr_core::analytic::solve_cycle(&sys, &strat).unwrap();
        let p = sol.progress_rate();
        assert!(p > 0.0 && p <= 1.0, "case {case}: progress {p}");
        assert!(sol.breakdown.validate().is_ok(), "case {case}");
        // Buckets partition the cycle.
        assert!(
            (sol.breakdown.total() - sol.cycle_time).abs()
                <= 1e-6 * sol.cycle_time,
            "case {case}"
        );
    }
}

#[test]
fn simulator_accounting_never_leaks() {
    let mut g = ParamGen::new(0xACC7);
    for case in 0..12 {
        let sys = g.system();
        let strat = g.host_strategy();
        let r = quick_sim(&sys, &strat, case);
        assert!(r.breakdown.validate().is_ok(), "case {case}");
        assert!(
            (r.breakdown.total() - r.stats.wall_time).abs()
                <= 1e-6 * r.stats.wall_time.max(1.0),
            "case {case}"
        );
        assert!(
            (r.breakdown.compute - r.stats.work_done).abs() < 1e-6,
            "case {case}"
        );
        let p = r.breakdown.progress_rate();
        assert!(p > 0.0 && p <= 1.0, "case {case}");
    }
}

#[test]
fn simulator_is_deterministic() {
    let mut g = ParamGen::new(0xDE7E);
    for case in 0..6 {
        let sys = g.system();
        let strat = g.ndp_strategy();
        let a = quick_sim(&sys, &strat, case);
        let b = quick_sim(&sys, &strat, case);
        assert_eq!(a.breakdown, b.breakdown, "case {case}");
        assert_eq!(a.stats, b.stats, "case {case}");
    }
}

#[test]
fn analytic_progress_monotone_in_mtti() {
    let mut g = ParamGen::new(0x4771);
    for case in 0..24 {
        let sys = g.system();
        let strat = g.host_strategy();
        let lo = cr_core::analytic::progress_rate(&sys, &strat);
        let better = sys.with_mtti(sys.mtti * 2.0);
        let hi = cr_core::analytic::progress_rate(&better, &strat);
        assert!(
            hi >= lo - 1e-9,
            "case {case}: progress fell when failures halved: {lo} -> {hi}"
        );
    }
}

#[test]
fn analytic_progress_monotone_in_io_bandwidth() {
    let mut g = ParamGen::new(0x10B0);
    for case in 0..24 {
        let sys = g.system();
        let strat = g.host_strategy();
        let lo = cr_core::analytic::progress_rate(&sys, &strat);
        let better = SystemParams {
            io_bw_per_node: sys.io_bw_per_node * 4.0,
            ..sys
        };
        let hi = cr_core::analytic::progress_rate(&better, &strat);
        assert!(
            hi >= lo - 1e-9,
            "case {case}: progress fell with faster I/O: {lo} -> {hi}"
        );
    }
}

#[test]
fn ndp_never_loses_to_host_at_same_settings() {
    let mut g = ParamGen::new(0x0DDB);
    for case in 0..24 {
        let sys = g.system();
        let p_local = g.rng.gen_range(0.1, 0.99);
        let factor = g.maybe_factor(0.3, 0.9);
        let host = Strategy::LocalIoHost {
            interval: Some(150.0),
            ratio: cr_core::params::derive_costs(
                &sys,
                &Strategy::LocalIoNdp {
                    interval: Some(150.0),
                    ratio: None,
                    p_local,
                    compression: factor
                        .map(CompressionSpec::gzip1_ndp_with_factor),
                    drain_lag: Default::default(),
                },
            )
            .ratio,
            p_local,
            compression: factor.map(CompressionSpec::gzip1_host_with_factor),
        };
        let ndp = Strategy::LocalIoNdp {
            interval: Some(150.0),
            ratio: None,
            p_local,
            compression: factor.map(CompressionSpec::gzip1_ndp_with_factor),
            drain_lag: cr_core::params::DrainLagModel::Ignore,
        };
        // Same ratio, same compression: offloading the I/O write can
        // only help (lag-free accounting).
        let ph = cr_core::analytic::progress_rate(&sys, &host);
        let pn = cr_core::analytic::progress_rate(&sys, &ndp);
        assert!(
            pn >= ph - 1e-9,
            "case {case}: NDP {pn} lost to host {ph} at identical settings"
        );
    }
}

#[test]
fn sim_and_analytic_agree_loosely_on_host_configs() {
    let mut g = ParamGen::new(0x57A7);
    for case in 0..8 {
        let sys = g.system();
        let ratio = g.rng.gen_range(2.0, 40.0) as u32;
        let p_local = g.rng.gen_range(0.3, 0.98);
        let strat = Strategy::local_io_host(ratio, p_local, None);
        let a = cr_core::analytic::progress_rate(&sys, &strat);
        let opts = SimOptions {
            seed: 5,
            min_failures: 800,
            min_work: 0.0,
            max_wall: 1e12,
        };
        let s = simulate_avg(&sys, &strat, &opts, 2).progress_rate();
        assert!(
            (a - s).abs() < 0.08,
            "case {case}: analytic {a} vs sim {s} (ratio {ratio}, p {p_local})"
        );
    }
}

/// The model's admission rule over a grid far wider than any
/// experiment: MTTI from 1e-6 to 1e3 minutes (10^(i/6) steps) × every
/// strategy kind × p_local × compression. In a debug build the
/// solver's `debug_assert!`s run, so each point must be a typed
/// refusal or a finite, validated solution, and never a panic.
#[test]
fn every_configuration_is_refused_or_solved_cleanly() {
    use cr_core::analytic::{solve_cycle, MIN_PROGRESS};
    let (mut points, mut refused) = (0, 0);
    for i in 0..=54 {
        let sys = SystemParams::exascale_default()
            .with_mtti(10f64.powf(-6.0 + i as f64 / 6.0) * MINUTE);
        for p_local in [0.0, 0.2, 0.8, 1.0] {
            for factor in [None, Some(0.73)] {
                let host_comp =
                    factor.map(CompressionSpec::gzip1_host_with_factor);
                let host =
                    ratio_opt::best_host_strategy(&sys, p_local, host_comp).0;
                let strategies = [
                    Strategy::IoOnly {
                        interval: None,
                        compression: host_comp,
                    },
                    Strategy::LocalOnly { interval: None },
                    host,
                    Strategy::local_io_ndp(
                        p_local,
                        factor.map(CompressionSpec::gzip1_ndp_with_factor),
                    ),
                ];
                for strat in strategies {
                    points += 1;
                    let at = format!("mtti {} s, {strat:?}", sys.mtti);
                    let Ok(sol) = solve_cycle(&sys, &strat) else {
                        refused += 1;
                        // The search settles on a refused ratio only
                        // when the model refuses every ratio.
                        if strat == host {
                            let any_ok = (1..=ratio_opt::MAX_RATIO).any(|r| {
                                let s =
                                    Strategy::local_io_host(r, p_local, host_comp);
                                solve_cycle(&sys, &s).is_ok()
                            });
                            assert!(!any_ok, "{at}: an admitted ratio exists");
                        }
                        continue;
                    };
                    let valid = sol.breakdown.validate();
                    valid.unwrap_or_else(|e| panic!("{at}: {e}"));
                    let p = sol.progress_rate();
                    assert!(
                        p.is_finite() && (MIN_PROGRESS..=1.0).contains(&p),
                        "{at}: progress {p}"
                    );
                }
            }
        }
    }
    assert_eq!(points, 1760);
    // The grid spans both sides of the rule.
    assert!(refused > 0 && refused < points, "{refused} of {points} refused");
}
