//! # ndp-checkpoint
//!
//! A reproduction of *"Leveraging Near Data Processing for
//! High-Performance Checkpoint/Restart"* (Agrawal, Loh & Tuck, SC'17)
//! as a Rust workspace. This facade crate re-exports the member crates:
//!
//! * [`cr_core`] — Daly math, the exascale projection, configuration
//!   types, and the Markov-renewal analytic model of multilevel C/R
//!   with NDP offload.
//! * [`cr_sim`] — a discrete-event Monte-Carlo simulator of the same
//!   configurations (Figure 3's timeline, exactly).
//! * [`cr_compress`] — from-scratch codecs standing in for lz4, gzip,
//!   bzip2 and xz in the §5 compression study.
//! * [`cr_workloads`] — synthetic Mantevo-mini-app checkpoint images
//!   with calibrated compressibility.
//! * [`cr_node`] — a functional emulation of an NDP-equipped compute
//!   node: NVM circular buffers, drain engine, NIC backpressure,
//!   failure injection and recovery.
//! * [`cr_obs`] — the observability plane: a structured event bus and
//!   metrics registry shared by every crate above, zero-overhead when
//!   disabled.
//!
//! The `cr-bench` crate (not re-exported; it is a binary/bench crate)
//! regenerates every table and figure of the paper — see `DESIGN.md`
//! and `EXPERIMENTS.md`.
//!
//! ## Two-minute tour
//!
//! ```
//! use ndp_checkpoint::prelude::*;
//!
//! // The paper's projected exascale system (Table 1/4).
//! let sys = SystemParams::exascale_default();
//!
//! // Multilevel checkpointing with host-driven I/O commits...
//! let host = Strategy::local_io_host(20, 0.85, Some(CompressionSpec::gzip1_host()));
//! // ...versus NDP-offloaded drains.
//! let ndp = Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp()));
//!
//! let p_host = cr_core::analytic::progress_rate(&sys, &host);
//! let p_ndp = cr_core::analytic::progress_rate(&sys, &ndp);
//! assert!(p_ndp > p_host, "NDP offload must win: {p_ndp} vs {p_host}");
//! ```

#![deny(missing_docs)]

pub use cr_compress;
pub use cr_core;
pub use cr_node;
pub use cr_obs;
pub use cr_sim;
pub use cr_workloads;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use cr_core::prelude::*;
    pub use cr_sim::{simulate, simulate_avg, SimOptions};
}
