//! Determinism of the model plane: a pinned seed reproduces the
//! engine's exact output, every thread count of the workspace executor
//! (`cr_core::par`) produces bit-identical replica results and event
//! streams — parallelism is a pure performance change, never a
//! semantic one — and the memoized cycle solver matches the direct one.

use ndp_checkpoint::cr_core::analytic;
use ndp_checkpoint::cr_core::cache::solve_cycle_cached;
use ndp_checkpoint::cr_obs::Bus;
use ndp_checkpoint::cr_sim::{
    run_engine, run_fleet_observed_in, simulate_avg_in, SimOptions,
    SimResult,
};
use ndp_checkpoint::prelude::*;

fn sys() -> SystemParams {
    SystemParams::exascale_default()
}

fn strat() -> Strategy {
    Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp()))
}

#[test]
fn simulate_avg_is_bit_identical_across_thread_counts() {
    let opts = SimOptions::quick(42);
    let one = simulate_avg_in(1, &sys(), &strat(), &opts, 12);
    for threads in [2, 3, 8] {
        let many = simulate_avg_in(threads, &sys(), &strat(), &opts, 12);
        assert_eq!(
            one.pooled, many.pooled,
            "{threads}-thread pooled breakdown diverged"
        );
        assert_eq!(one.progress_rates, many.progress_rates);
        for (i, (a, b)) in
            one.replicas.iter().zip(&many.replicas).enumerate()
        {
            assert_eq!(a.breakdown, b.breakdown, "replica {i}");
            assert_eq!(a.stats, b.stats, "replica {i}");
        }
    }
}

#[test]
fn observed_fleet_streams_are_bit_identical_across_thread_counts() {
    let opts = SimOptions::quick(7);
    let one = run_fleet_observed_in(1, &sys(), &strat(), &opts, 6);
    for threads in [2, 6] {
        let many = run_fleet_observed_in(threads, &sys(), &strat(), &opts, 6);
        assert_eq!(one.len(), many.len());
        for (i, ((ra, ea), (rb, eb))) in one.iter().zip(&many).enumerate() {
            assert_eq!(ra.breakdown, rb.breakdown, "replica {i} result");
            assert_eq!(ra.stats, rb.stats, "replica {i} stats");
            assert_eq!(ea, eb, "replica {i} event stream");
        }
    }
}

/// Field names of [`bits`], for mismatch messages.
const FIELDS: [&str; 18] = [
    "compute",
    "checkpoint_local",
    "checkpoint_io",
    "restore_local",
    "restore_io",
    "rerun_local",
    "rerun_io",
    "wall_time",
    "work_done",
    "failures",
    "recoveries_local",
    "recoveries_io",
    "restores_interrupted",
    "local_ckpts",
    "io_ckpts",
    "drains_cancelled",
    "max_drain_queue",
    "truncated",
];

/// Every `Breakdown` and `SimStats` field as raw bits (`f64` by its
/// IEEE-754 pattern), in [`FIELDS`] order.
fn bits(r: &SimResult) -> [u64; 18] {
    let (b, s) = (r.breakdown, r.stats);
    [
        b.compute.to_bits(),
        b.checkpoint_local.to_bits(),
        b.checkpoint_io.to_bits(),
        b.restore_local.to_bits(),
        b.restore_io.to_bits(),
        b.rerun_local.to_bits(),
        b.rerun_io.to_bits(),
        s.wall_time.to_bits(),
        s.work_done.to_bits(),
        s.failures,
        s.recoveries_local,
        s.recoveries_io,
        s.restores_interrupted,
        s.local_ckpts,
        s.io_ckpts,
        s.drains_cancelled,
        s.max_drain_queue as u64,
        s.truncated as u64,
    ]
}

/// The engine's exact output for seed 2024, one strategy of each kind.
/// Any change to the order or number of random
/// draws, or to the accounting arithmetic, moves these bits; such a
/// change must update them deliberately and regenerate every pinned
/// artifact in `results/`.
#[test]
fn engine_output_matches_golden_bits() {
    #[rustfmt::skip]
    const GOLDEN: [[u64; 18]; 4] = [
        // IoOnly, gzip(1) on the host.
        [0x410b500a479938e8, 0x0, 0x40f56a4290820114, 0x0, 0x40f44a4228abf02b, 0x0, 0x40fc45a6be91dd5d, 0x411f269001bc90ae, 0x410b500a479938ea, 0x12d, 0x0, 0xf9, 0x34, 0x136, 0x106, 0x0, 0x0, 0x0],
        // LocalOnly.
        [0x411c0ed5b807103f, 0x40d5216bc9bec844, 0x0, 0x40a180000000000d, 0x0, 0x40d8306ed18ddc1d, 0x0, 0x411f06f361bbdbd8, 0x411c0ed5b8071047, 0x12c, 0x12c, 0x0, 0x0, 0xb4b, 0x0, 0x0, 0x0, 0x0],
        // LocalIoHost, ratio 12, p_local 0.8.
        [0x4106deb000000000, 0x40c810b75bcaea58, 0x41046198e6af899a, 0x409880000000000f, 0x40f2e9a7f07fac17, 0x40c2e4f2654200fe, 0x40ee41526a261db7, 0x411f92e60ac4db80, 0x4106deb000000000, 0x131, 0xd2, 0x34, 0x2b, 0x66e, 0x68, 0x0, 0x0, 0x0],
        // LocalIoNdp, p_local 0.85, gzip(1) on the NDP.
        [0x411a33d000000000, 0x40d5cd07ace0a668, 0x0, 0x409d2aaaaaaaaabf, 0x40ccf9ed6a954aba, 0x40d37e32abe6be54, 0x40d4e595b0abd285, 0x411f1bd716968984, 0x411a33d000000000, 0x12d, 0xfa, 0x2e, 0x5, 0xba5, 0x3b9, 0x18, 0x1, 0x0],
    ];
    let strats = [
        Strategy::IoOnly {
            interval: None,
            compression: Some(CompressionSpec::gzip1_host()),
        },
        Strategy::LocalOnly { interval: None },
        Strategy::local_io_host(12, 0.8, None),
        Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp())),
    ];
    let opts = SimOptions::quick(2024);
    for (strat, want) in strats.iter().zip(&GOLDEN) {
        let got = bits(&run_engine(&sys(), strat, &opts, &Bus::disabled()));
        for ((name, g), w) in FIELDS.iter().zip(got).zip(want) {
            assert_eq!(
                g, *w,
                "{}: {name} is {g:#x}, pinned {w:#x}",
                strat.label()
            );
        }
    }
}

#[test]
fn cached_solver_is_bit_identical_to_direct_solver_in_sweeps() {
    // The memoized path feeding the ratio scans must agree exactly with
    // the direct analytic solver for every grid point, hit or miss.
    let s = sys();
    // Twice: first pass misses, second pass hits the cache.
    for pass in 0..2 {
        for ratio in 1..=50 {
            let strat = Strategy::local_io_host(ratio, 0.8, None);
            let want = analytic::solve_cycle(&s, &strat);
            let got = solve_cycle_cached(&s, &strat);
            assert_eq!(got.breakdown, want.breakdown, "pass {pass}");
            assert_eq!(
                got.cycle_time.to_bits(),
                want.cycle_time.to_bits(),
                "pass {pass}"
            );
            assert_eq!(
                got.work_per_cycle.to_bits(),
                want.work_per_cycle.to_bits(),
                "pass {pass}"
            );
        }
    }
}
