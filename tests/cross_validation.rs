//! Cross-validation of the two model backends: the Markov-renewal
//! analytic model (`cr-core::analytic`) and the discrete-event
//! simulator (`cr-sim`) must agree on progress rates across the whole
//! configuration space the paper evaluates.
//!
//! The analytic model is exact for single-level configurations (it
//! reduces to Daly's complete model) and approximate for multilevel
//! ones (documented attribution and drain-lag simplifications), so the
//! tolerance is tight for the former and looser for the latter.

use ndp_checkpoint::prelude::*;
use cr_core::params::DrainLagModel;

fn sim_progress(sys: &SystemParams, strat: &Strategy, seed: u64) -> f64 {
    let opts = SimOptions {
        seed,
        min_failures: 1500,
        min_work: 0.0,
        max_wall: 1e12,
    };
    simulate_avg(sys, strat, &opts, 4).progress_rate()
}

#[test]
fn single_level_configs_agree_tightly() {
    let sys = SystemParams::exascale_default();
    for (name, strat) in [
        (
            "io_only",
            Strategy::IoOnly {
                interval: None,
                compression: None,
            },
        ),
        (
            "io_only_comp",
            Strategy::IoOnly {
                interval: None,
                compression: Some(CompressionSpec::gzip1_host()),
            },
        ),
        ("local_only", Strategy::LocalOnly { interval: None }),
    ] {
        let a = analytic::progress_rate(&sys, &strat);
        let s = sim_progress(&sys, &strat, 101);
        assert!(
            (a - s).abs() < 0.015,
            "{name}: analytic {a} vs sim {s}"
        );
    }
}

#[test]
fn host_multilevel_agrees_across_p_local_and_ratio() {
    let sys = SystemParams::exascale_default();
    for p_local in [0.2, 0.5, 0.8, 0.96] {
        for ratio in [2u32, 10, 40] {
            for comp in [None, Some(CompressionSpec::gzip1_host())] {
                let strat = Strategy::local_io_host(ratio, p_local, comp);
                let a = analytic::progress_rate(&sys, &strat);
                let s = sim_progress(&sys, &strat, 202);
                assert!(
                    (a - s).abs() < 0.035,
                    "p={p_local} k={ratio} comp={}: analytic {a} vs sim {s}",
                    comp.is_some()
                );
            }
        }
    }
}

#[test]
fn ndp_agrees_within_lag_model_bracket() {
    // The simulator models the drain pipeline exactly; the analytic
    // model brackets it between lag-free (optimistic) and
    // bounded-pipelined (approximate). The simulated value must fall
    // near that bracket.
    let sys = SystemParams::exascale_default();
    for p_local in [0.5, 0.85, 0.96] {
        for comp in [None, Some(CompressionSpec::gzip1_ndp())] {
            let mk = |lag| Strategy::LocalIoNdp {
                interval: Some(150.0),
                ratio: None,
                p_local,
                compression: comp,
                drain_lag: lag,
            };
            let s = sim_progress(&sys, &mk(DrainLagModel::Pipelined), 303);
            let a_hi = analytic::progress_rate(&sys, &mk(DrainLagModel::Ignore));
            let a_lo =
                analytic::progress_rate(&sys, &mk(DrainLagModel::Pipelined));
            assert!(a_lo <= a_hi + 1e-9, "bracket inverted");
            // The analytic pipelined-lag model bounds the redo at one
            // cycle; in heavy-I/O regimes (low p_local, uncompressed
            // 18.7-minute drains) the simulator's durable point can lag
            // further, so allow extra slack below the bracket there.
            let slack_lo = if p_local < 0.8 && comp.is_none() {
                0.08
            } else {
                0.05
            };
            assert!(
                s > a_lo - slack_lo && s < a_hi + 0.03,
                "p={p_local} comp={}: sim {s} outside [{a_lo}, {a_hi}]",
                comp.is_some()
            );
        }
    }
}

#[test]
fn agreement_holds_across_mtti() {
    let base = SystemParams::exascale_default();
    for mtti_min in [30.0, 90.0, 150.0] {
        let sys = base.with_mtti(mtti_min * MINUTE);
        let strat = Strategy::local_io_host(20, 0.85, None);
        let a = analytic::progress_rate(&sys, &strat);
        let s = sim_progress(&sys, &strat, 404);
        assert!(
            (a - s).abs() < 0.03,
            "MTTI {mtti_min}: analytic {a} vs sim {s}"
        );
    }
}

#[test]
fn agreement_holds_across_checkpoint_size() {
    let base = SystemParams::exascale_default();
    for gb in [14.0, 56.0, 112.0] {
        let sys = base.with_checkpoint_bytes(gb * GB);
        let strat = Strategy::local_io_host(20, 0.85, None);
        let a = analytic::progress_rate(&sys, &strat);
        let s = sim_progress(&sys, &strat, 505);
        assert!(
            (a - s).abs() < 0.03,
            "ckpt {gb} GB: analytic {a} vs sim {s}"
        );
    }
}

#[test]
fn breakdown_components_agree_for_host_mode() {
    // Beyond scalar progress: the per-bucket decomposition must match.
    let sys = SystemParams::exascale_default();
    let strat = Strategy::local_io_host(25, 0.96, None);
    let a = analytic::solve_cycle(&sys, &strat).unwrap().breakdown;
    let a = a.as_fractions();
    let opts = SimOptions {
        seed: 606,
        min_failures: 3000,
        min_work: 0.0,
        max_wall: 1e12,
    };
    let s = simulate_avg(&sys, &strat, &opts, 6).fractions();
    for (name, av, sv) in [
        ("compute", a.compute, s.compute),
        ("ckpt_local", a.checkpoint_local, s.checkpoint_local),
        ("ckpt_io", a.checkpoint_io, s.checkpoint_io),
        ("restore_local", a.restore_local, s.restore_local),
        ("restore_io", a.restore_io, s.restore_io),
        ("rerun_local", a.rerun_local, s.rerun_local),
        ("rerun_io", a.rerun_io, s.rerun_io),
    ] {
        assert!(
            (av - sv).abs() < 0.03,
            "{name}: analytic {av} vs sim {sv}"
        );
    }
}
