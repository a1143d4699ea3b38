//! §3 scaling study: projecting an exascale system from the Titan Cray
//! XK7 (Table 1) and deriving C/R requirements (§3.2–3.3).
//!
//! The projection is implemented as *rules*, not hard-coded numbers: the
//! Titan baseline plus the cited technology-trend assumptions reproduce
//! every row of Table 1, and the derived quantities of §3.3 (required
//! commit time, commit bandwidth, per-node I/O bandwidth) follow from
//! Daly's model.

use crate::daly;
use crate::units::*;

/// The petascale baseline system being scaled (§3.1).
#[derive(Debug, Clone, Copy)]
pub struct TitanBaseline {
    /// Number of compute nodes.
    pub node_count: u32,
    /// Per-node peak performance, flop/s.
    pub node_peak: f64,
    /// Per-node memory, bytes (CPU 32 GB + GPU 6 GB).
    pub node_memory: f64,
    /// Interconnect bandwidth per node, bytes/s.
    pub interconnect_bw: f64,
    /// Aggregate file-system bandwidth, bytes/s.
    pub io_bw: f64,
    /// Observed system MTTI, seconds (9 failures/day -> 160 min).
    pub mtti: f64,
}

impl TitanBaseline {
    /// Titan Cray XK7 as described in §3.1.
    pub fn titan() -> Self {
        Self {
            node_count: 18_688,
            node_peak: 1.44 * TFLOPS,
            node_memory: 38.0 * GB,
            interconnect_bw: 20.0 * GB,
            io_bw: 1000.0 * GB,
            mtti: 160.0 * MINUTE,
        }
    }

    /// System peak performance, flop/s.
    pub fn system_peak(&self) -> f64 {
        self.node_count as f64 * self.node_peak
    }

    /// Total system memory, bytes.
    pub fn system_memory(&self) -> f64 {
        self.node_count as f64 * self.node_memory
    }
}

/// The scaling assumptions of §3.1–3.2, with the paper's values as
/// defaults. Every assumption cites a technology trend; see the paper.
#[derive(Debug, Clone, Copy)]
pub struct ScalingAssumptions {
    /// Target system peak, flop/s (1 exaflop).
    pub target_peak: f64,
    /// Projected per-node peak, flop/s (10 TF, Corona nanophotonics
    /// projection \[34\]).
    pub node_peak: f64,
    /// CPU core count per node (16 -> 64).
    pub cpu_cores: u32,
    /// Memory per CPU core maintained from Titan, bytes (2 GB/core).
    pub memory_per_core: f64,
    /// GPU memory per node, bytes (conservatively doubled to 12 GB).
    pub gpu_memory: f64,
    /// Projected interconnect bandwidth, bytes/s (50 GB/s \[28\]).
    pub interconnect_bw: f64,
    /// Factor applied to Titan's aggregate I/O bandwidth (10x,
    /// conservative vs \[35\]).
    pub io_bw_factor: f64,
    /// Per-socket mean time to failure, seconds (5 years, Schroeder &
    /// Gibson \[4\]).
    pub socket_mttf: f64,
    /// Rounded-up system MTTI actually used in the evaluation, seconds
    /// (30 min, the optimistic assumption of §3.2).
    pub assumed_mtti: f64,
    /// Fraction of physical memory that must be checkpointed (§3.3: 80%).
    pub checkpoint_fraction: f64,
    /// Target progress rate used for requirement derivations (§3.3: 90%).
    pub target_progress: f64,
}

impl Default for ScalingAssumptions {
    fn default() -> Self {
        Self {
            target_peak: 1.0 * EFLOPS,
            node_peak: 10.0 * TFLOPS,
            cpu_cores: 64,
            memory_per_core: 2.0 * GB,
            gpu_memory: 12.0 * GB,
            interconnect_bw: 50.0 * GB,
            io_bw_factor: 10.0,
            socket_mttf: 5.0 * YEAR,
            assumed_mtti: 30.0 * MINUTE,
            checkpoint_fraction: 0.8,
            target_progress: 0.9,
        }
    }
}

/// The projected exascale system (Table 1) plus §3.3 derived C/R
/// requirements.
#[derive(Debug, Clone, Copy)]
pub struct ExascaleProjection {
    /// Number of compute nodes (100 000).
    pub node_count: u32,
    /// System peak, flop/s (1 exaflop).
    pub system_peak: f64,
    /// Per-node peak, flop/s (10 TF).
    pub node_peak: f64,
    /// Per-node memory, bytes (140 GB).
    pub node_memory: f64,
    /// Total system memory, bytes (14 PB).
    pub system_memory: f64,
    /// Interconnect bandwidth, bytes/s (50 GB/s).
    pub interconnect_bw: f64,
    /// Aggregate I/O bandwidth, bytes/s (10 TB/s).
    pub io_bw: f64,
    /// System MTTF from the socket model, seconds (~26.28 min).
    pub derived_mtti: f64,
    /// Rounded MTTI used by the evaluation, seconds (30 min).
    pub mtti: f64,
    /// Checkpoint size per node, bytes (112 GB).
    pub checkpoint_bytes: f64,
    /// Required checkpoint commit time for the target progress, seconds
    /// (~9 s, from Daly: delta ~ M/200 for 90%).
    pub required_commit_time: f64,
    /// Required per-node commit bandwidth, bytes/s (~12.44 GB/s).
    pub required_commit_bw: f64,
    /// Effective per-node share of global I/O bandwidth, bytes/s
    /// (100 MB/s).
    pub io_bw_per_node: f64,
}

impl ExascaleProjection {
    /// Projects the exascale system from a baseline using the given
    /// assumptions (§3.1–3.3).
    pub fn project(
        base: &TitanBaseline,
        assume: &ScalingAssumptions,
    ) -> Self {
        // Node count: remaining factor after per-node scaling, rounded
        // to the round figure the paper uses (the 5.35x factor lands on
        // 99 573 nodes; the paper rounds to 100 000).
        let raw_nodes = assume.target_peak / assume.node_peak;
        let node_count = round_to_leading_digits(raw_nodes, 1) as u32;

        let node_memory = assume.cpu_cores as f64 * assume.memory_per_core
            + assume.gpu_memory;
        let system_memory = node_count as f64 * node_memory;
        let io_bw = base.io_bw * assume.io_bw_factor;

        // MTTI: one socket per node, failures independent.
        let derived_mtti = assume.socket_mttf / node_count as f64;
        let mtti = assume.assumed_mtti;

        let checkpoint_bytes = assume.checkpoint_fraction * node_memory;
        // Required commit time for the target progress rate: invert the
        // Figure 1 curve (delta = M / ratio).
        let ratio = daly::ratio_for_progress(assume.target_progress);
        let required_commit_time = mtti / ratio;
        let required_commit_bw = checkpoint_bytes / required_commit_time;

        Self {
            node_count,
            system_peak: node_count as f64 * assume.node_peak,
            node_peak: assume.node_peak,
            node_memory,
            system_memory,
            interconnect_bw: assume.interconnect_bw,
            io_bw,
            derived_mtti,
            mtti,
            checkpoint_bytes,
            required_commit_time,
            required_commit_bw,
            io_bw_per_node: io_bw / node_count as f64,
        }
    }

    /// The paper's projection: Titan baseline, default assumptions.
    pub fn paper_default() -> Self {
        Self::project(&TitanBaseline::titan(), &ScalingAssumptions::default())
    }

    /// System-level checkpoint commit bandwidth requirement, bytes/s
    /// (§3.3: ~1.244 PB/s).
    pub fn system_commit_bw(&self) -> f64 {
        self.required_commit_bw * self.node_count as f64
    }

    /// Time to write one node's checkpoint to its share of global I/O
    /// (§3.4: ~18.67 min).
    pub fn t_io_per_node(&self) -> f64 {
        self.checkpoint_bytes / self.io_bw_per_node
    }
}

/// Rounds `x` to `digits` significant decimal digits (used to mimic the
/// paper's round-figure node count).
fn round_to_leading_digits(x: f64, digits: u32) -> f64 {
    assert!(x > 0.0 && digits >= 1);
    let mag = x.log10().floor() as i32 - (digits as i32 - 1);
    let scale = 10f64.powi(mag);
    (x / scale).round() * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_baseline_matches_table1() {
        let t = TitanBaseline::titan();
        assert!((t.system_peak() / PFLOPS - 26.9).abs() < 0.2); // "27 PF"
        assert!((t.system_memory() / TB - 710.0).abs() < 1.0);
    }

    #[test]
    fn projection_reproduces_table1() {
        let p = ExascaleProjection::paper_default();
        assert_eq!(p.node_count, 100_000);
        assert!((p.system_peak / EFLOPS - 1.0).abs() < 1e-9);
        assert_eq!(p.node_memory, 140.0 * GB);
        assert!((p.system_memory / PB - 14.0).abs() < 1e-9);
        assert_eq!(p.io_bw, 10.0 * TB);
        assert_eq!(p.mtti, 30.0 * MINUTE);
    }

    #[test]
    fn mtti_derivation_matches_sec32() {
        // 5-year socket MTTF over 100k nodes -> ~26.28 minutes.
        let p = ExascaleProjection::paper_default();
        assert!(
            (p.derived_mtti / MINUTE - 26.28).abs() < 0.05,
            "derived MTTI = {} min",
            p.derived_mtti / MINUTE
        );
        // The evaluation rounds up to 30 minutes.
        assert!(p.mtti > p.derived_mtti);
    }

    #[test]
    fn commit_requirements_match_sec33() {
        let p = ExascaleProjection::paper_default();
        // Checkpoint size: 80% of 140 GB = 112 GB.
        assert_eq!(p.checkpoint_bytes, 112.0 * GB);
        // Commit time ~ 9 s (M/200 rule).
        assert!(
            (p.required_commit_time - 9.0).abs() < 0.7,
            "commit time = {}",
            p.required_commit_time
        );
        // Commit bandwidth ~ 12.44 GB/s per node.
        assert!(
            (p.required_commit_bw / GB - 12.44).abs() < 1.0,
            "commit bw = {}",
            p.required_commit_bw / GB
        );
        // System-wide ~1.244 PB/s, far above the 10 TB/s I/O bandwidth.
        assert!(p.system_commit_bw() > 100.0 * p.io_bw);
    }

    #[test]
    fn per_node_io_write_takes_18_minutes() {
        let p = ExascaleProjection::paper_default();
        assert_eq!(p.io_bw_per_node, 100.0 * MB);
        assert!(
            (p.t_io_per_node() / MINUTE - 18.67).abs() < 0.05,
            "t_io = {} min",
            p.t_io_per_node() / MINUTE
        );
    }

    #[test]
    fn custom_assumptions_flow_through() {
        // Halving node peak doubles node count and halves per-node I/O.
        let assume = ScalingAssumptions {
            node_peak: 5.0 * TFLOPS,
            ..Default::default()
        };
        let p = ExascaleProjection::project(&TitanBaseline::titan(), &assume);
        assert_eq!(p.node_count, 200_000);
        assert_eq!(p.io_bw_per_node, 50.0 * MB);
    }

    #[test]
    fn rounding_helper() {
        assert_eq!(round_to_leading_digits(99_573.0, 1), 100_000.0);
        assert_eq!(round_to_leading_digits(123.0, 2), 120.0);
        assert_eq!(round_to_leading_digits(0.0456, 1), 0.05);
    }
}
