//! # cr-sim — discrete-event simulator for multilevel C/R with NDP
//!
//! A Monte-Carlo, discrete-event companion to `cr-core`'s analytic model.
//! Where the analytic model solves the *expected* cycle time of a
//! configuration in closed form, this crate simulates the actual timeline
//! of Figure 3 of the paper second by second:
//!
//! * the host alternates compute segments and local-NVM checkpoint
//!   commits, optionally blocking on global-I/O commits
//!   (`Local + I/O-Host`);
//! * under NDP offload, a background drain pipeline compresses and ships
//!   every k-th checkpoint to global I/O, pausing while the host owns the
//!   NVM (§4.2.1) and during recoveries (§4.2.3);
//! * failures arrive as a Poisson process and can interrupt *anything* —
//!   compute, commits, drains, and restores;
//! * recovery rolls back to the newest checkpoint durable at the
//!   recovering level and re-executes lost work.
//!
//! Every simulated second is attributed to one of the seven buckets of
//! [`cr_core::breakdown::Breakdown`], so simulator output is directly
//! comparable with the analytic model — the workspace integration tests
//! cross-validate the two backends on every paper configuration.
//!
//! ## Entry points
//!
//! A replica is run one way: [`run_engine`] builds an engine for one
//! seed, emits onto the given [`cr_obs::Bus`], and returns a
//! [`SimResult`]. [`simulate`] is its unobserved form. [`simulate_avg`] and
//! [`run_fleet_observed`] fan seeded replicas out over the
//! workspace executor in `cr_core::par`; results are keyed only by
//! seed, so every thread count gives bit-identical output. A timeline
//! for rendering is rebuilt from a recorded event stream with
//! [`Trace::from_events`].
//!
//! ## Quick start
//!
//! ```
//! use cr_core::prelude::*;
//! use cr_sim::{simulate, SimOptions};
//!
//! let sys = SystemParams::exascale_default();
//! let strat = Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp()));
//! let result = simulate(&sys, &strat, &SimOptions::quick(42));
//! assert!(result.breakdown.progress_rate() > 0.5);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod rng;
pub mod runner;
pub mod trace;

pub use engine::{run_engine, SimOptions, SimResult, SimStats};
pub use runner::{
    fleet_report, mean_sem, run_fleet_observed, run_fleet_observed_in,
    simulate, simulate_avg, simulate_avg_in, AveragedResult,
};
pub use trace::Trace;
