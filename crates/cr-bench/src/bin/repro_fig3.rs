//! Renders Figure 3 of the paper as ASCII timelines: the operational
//! difference between two-level checkpointing with the host writing to
//! global I/O (3a) and with NDP offload (3b).
//!
//! To make the structure visible at terminal width, the system is
//! scaled so activities have comparable spans (failures off: MTTI is
//! set enormous).

use cr_bench::table::pct;
use cr_core::params::{Strategy, SystemParams};
use cr_core::units::*;
use cr_obs::{Bus, VecSink};
use cr_sim::{run_engine, SimFaults, SimOptions, SimResult, Trace};

/// Runs one fault-free replica and rebuilds its timeline from the
/// event stream.
fn traced(
    sys: &SystemParams,
    strat: &Strategy,
    opts: &SimOptions,
) -> (SimResult, Trace) {
    let bus = Bus::with_sink(VecSink::new());
    let result = run_engine(sys, strat, opts, &SimFaults::default(), &bus);
    (result, Trace::from_events(&bus.drain()))
}

fn main() {
    // A demonstration system: local commits and I/O writes visible at
    // the same scale (I/O write = ~3 segments).
    let sys = SystemParams {
        mtti: 1e9, // failure-free window for the clean timeline
        checkpoint_bytes: 112.0 * GB,
        local_bw: 5.0 * GB,
        io_bw_per_node: 250.0 * MB,
    };
    let opts = SimOptions {
        seed: 3,
        min_failures: 0,
        min_work: 3600.0,
        max_wall: 1e12,
    };

    let window = 2800.0;
    println!("(a) two-level checkpointing, host writes to I/O (every 4th ckpt):\n");
    let host = Strategy::local_io_host(4, 0.85, None);
    let (res_a, trace_a) = traced(&sys, &host, &opts);
    print!("{}", trace_a.render_ascii(0.0, window, 100));
    println!(
        "progress in window: {} (host blocks on every 'W')\n",
        pct(res_a.breakdown.progress_rate())
    );

    println!("(b) two-level checkpointing with NDP drains:\n");
    let ndp = Strategy::local_io_ndp(0.85, None);
    let (res_b, trace_b) = traced(&sys, &ndp, &opts);
    print!("{}", trace_b.render_ascii(0.0, window, 100));
    println!(
        "progress in window: {} (drains 'd' run under compute; '^' marks I/O durability)\n",
        pct(res_b.breakdown.progress_rate())
    );

    // And one with failures, to show recovery.
    println!("(c) NDP timeline with failures (MTTI = 20 min):\n");
    let sys_f = SystemParams {
        mtti: 20.0 * MINUTE,
        ..sys
    };
    let opts_f = SimOptions {
        seed: 12,
        min_failures: 2,
        min_work: 0.0,
        max_wall: 1e12,
    };
    let (_, trace_c) = traced(&sys_f, &ndp, &opts_f);
    let end = trace_c
        .spans
        .iter()
        .map(|s| s.t1)
        .fold(0.0f64, f64::max)
        .min(4000.0);
    print!("{}", trace_c.render_ascii(0.0, end, 100));
}
