//! # cr-core — checkpoint/restart performance models
//!
//! Core library of the `ndp-checkpoint` workspace, reproducing the
//! analytical machinery of *"Leveraging Near Data Processing for
//! High-Performance Checkpoint/Restart"* (Agrawal, Loh & Tuck, SC'17).
//!
//! The crate provides, bottom to top:
//!
//! * [`units`] — byte/time constants and conversion helpers shared by the
//!   whole workspace.
//! * [`daly`] — Daly's first- and higher-order optimum checkpoint interval
//!   and expected-runtime model for single-level checkpoint/restart
//!   (Figure 1 of the paper).
//! * [`projection`] — the §3 scaling study: programmatic projection of an
//!   exascale system from the Titan Cray XK7 (Table 1), the MTTI
//!   projection (§3.2), and derived commit-time requirements (§3.3).
//! * [`params`] — configuration types describing a system under study and
//!   the checkpoint/restart strategy applied to it (`I/O Only`,
//!   `Local + I/O-Host`, `Local + I/O-NDP`, each with or without
//!   compression — §6.1.2).
//! * [`breakdown`] — the four-way overhead decomposition of execution time
//!   (compute / checkpoint / restore / rerun, each split by storage level —
//!   §6.2).
//! * [`analytic`] — an exact Markov-renewal analytic model of multilevel
//!   checkpointing with and without NDP offload. This is the paper's
//!   "performance model" (§6.1.1), implemented as a closed-form/numeric
//!   hybrid: activities succeed or fail under exponential failures and the
//!   expected wall time per checkpoint cycle is solved from a linear
//!   recurrence.
//! * [`ndp_sizing`] — §4.4/§5.3 equations sizing the NDP: required
//!   compression speed, number of NDP cores, smallest achievable I/O
//!   checkpoint interval (Table 3).
//! * [`ratio_opt`] — empirical optimisation of the locally-saved :
//!   I/O-saved checkpoint ratio at a fixed local interval (Figures 4
//!   and 5).
//! * [`cache`] — a thread-local memo of [`analytic::solve_cycle`] for
//!   the ratio scans, bit-identical to a direct solve.
//!
//! The sibling crate `cr-sim` implements a discrete-event Monte-Carlo
//! simulator of the same configurations; the two are cross-validated in
//! the workspace integration tests.
//!
//! ## Quick start
//!
//! ```
//! use cr_core::prelude::*;
//!
//! // The paper's projected exascale system (Table 1 / Table 4).
//! let sys = SystemParams::exascale_default();
//!
//! // Multilevel checkpointing, host writes to global I/O, 80% of
//! // failures recoverable from node-local NVM, no compression.
//! let strat = Strategy::local_io_host(12, 0.8, None);
//! let outcome = analytic::solve_cycle(&sys, &strat).expect("admitted");
//! assert!(outcome.progress_rate() > 0.0 && outcome.progress_rate() < 1.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod analytic;
pub mod breakdown;
pub mod cache;
pub mod daly;
pub mod ndp_sizing;
pub mod par;
pub mod params;
pub mod projection;
pub mod ratio_opt;
pub mod units;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::analytic;
    pub use crate::breakdown::Breakdown;
    pub use crate::cache::solve_cycle_cached;
    pub use crate::daly;
    pub use crate::par::{par_map, par_map_in};
    pub use crate::ndp_sizing::{self, NdpSizing};
    pub use crate::params::{
        CompressionSpec, DrainLagModel, Strategy, SystemParams,
    };
    pub use crate::projection::{ExascaleProjection, TitanBaseline};
    pub use crate::ratio_opt;
    pub use crate::units::*;
}
