//! The repository's benchmark: end-to-end and per-layer measurements of
//! the NDP checkpoint node (`cr-node` + `cr-compress` + `cr-workloads`)
//! and of the model plane (`cr-core` + `cr-sim`), driven only through
//! their public functions.
//!
//! Four closed-loop workloads, each run from one caller thread:
//!
//! * `drain_full`  — checkpoint, NDP drain, node loss, remote restore
//!   of the seven mini-app images in rotation;
//! * `drain_incr`  — incremental drains of one slowly-mutating image,
//!   with a remote restore through the delta chain every 5th
//!   checkpoint;
//! * `ckpt_local`  — host commits only (no drain), partner copies,
//!   NVM eviction in steady state and local verified restores;
//! * `model_sweep` — the Figure 5 table and the Figure 6 grid from cold
//!   caches (the simulator fans out over `cr_core::par`).
//!
//! Untraced runs give the end-to-end metrics. A traced run wraps each
//! public call in a `cr_obs` span, replays the integrity, codec and
//! incremental layers on the same bytes, and derives the per-layer
//! metrics; see `README.md` beside this crate.

pub mod harness;
pub mod heap;
pub mod model;
pub mod node;
pub mod report;

pub use harness::{Config, Outcome};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["drain_full", "drain_incr", "ckpt_local", "model_sweep"];

/// Runs one workload to completion. `None` for an unknown name.
pub fn run(workload: &str, cfg: &Config) -> Option<Outcome> {
    Some(match workload {
        "drain_full" => node::drain_full(cfg),
        "drain_incr" => node::drain_incr(cfg),
        "ckpt_local" => node::ckpt_local(cfg),
        "model_sweep" => model::model_sweep(cfg),
        _ => return None,
    })
}
