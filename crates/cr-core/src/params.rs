//! Configuration types: the system under study and the C/R strategy.
//!
//! [`SystemParams`] captures the hardware-facing quantities of Table 1 /
//! Table 4 of the paper (per compute node); [`Strategy`] captures the
//! checkpoint/restart policy of §6.1.2, including compression placement.
//! Both the analytic model (`cr_core::analytic`) and the discrete-event
//! simulator (`cr-sim`) consume these types, so a single configuration
//! value can be evaluated by both backends.

use crate::units::*;

/// Hardware-facing parameters of one compute node in the system under
/// study. All values follow the paper's evaluation setup (Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    /// System mean time to interrupt, seconds (paper: 30 min).
    pub mtti: f64,
    /// Checkpoint size per compute node, bytes (paper: 112 GB = 80 % of
    /// the node's 140 GB memory).
    pub checkpoint_bytes: f64,
    /// Node-local NVM read/write bandwidth, bytes/s (paper: 15 GB/s).
    pub local_bw: f64,
    /// Effective per-node bandwidth to global I/O, bytes/s (paper:
    /// 10 TB/s system ÷ 100 000 nodes = 100 MB/s).
    pub io_bw_per_node: f64,
}

impl SystemParams {
    /// The paper's projected exascale evaluation system (Table 4).
    pub fn exascale_default() -> Self {
        Self {
            mtti: 30.0 * MINUTE,
            checkpoint_bytes: 112.0 * GB,
            local_bw: 15.0 * GB,
            io_bw_per_node: 100.0 * MB,
        }
    }

    /// Time for the host to write one uncompressed checkpoint to local
    /// NVM (`δ_local`).
    pub fn delta_local(&self) -> f64 {
        self.checkpoint_bytes / self.local_bw
    }

    /// Returns a copy with a different MTTI (sensitivity sweeps, Fig. 9).
    pub fn with_mtti(mut self, mtti: f64) -> Self {
        self.mtti = mtti;
        self
    }

    /// Returns a copy with a different checkpoint size (Fig. 8).
    pub fn with_checkpoint_bytes(mut self, bytes: f64) -> Self {
        self.checkpoint_bytes = bytes;
        self
    }
}

/// Compression behaviour attached to the I/O level of a strategy.
///
/// `factor` follows the paper's definition
/// `1 − compressed_size / uncompressed_size` (so gzip(1) averages 0.728).
/// Rates are expressed in **uncompressed** bytes per second at the site
/// doing the work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionSpec {
    /// Compression factor in `[0, 1)`.
    pub factor: f64,
    /// Compression throughput of the compressing site (host cores for
    /// `Local + I/O-Host`, NDP cores for `Local + I/O-NDP`), in
    /// uncompressed bytes/s.
    pub compress_rate: f64,
    /// Decompression throughput on restore (performed by the host,
    /// pipelined with the I/O read — §4.3), in uncompressed bytes/s.
    pub decompress_rate: f64,
}

impl CompressionSpec {
    /// gzip(1) on 4 NDP cores: 440.4 MB/s compression (Table 3/4),
    /// average factor 72.8 % (Table 2), 16 GB/s host decompression
    /// (Table 4).
    pub fn gzip1_ndp() -> Self {
        Self {
            factor: 0.728,
            compress_rate: 440.4 * MB,
            decompress_rate: 16.0 * GB,
        }
    }

    /// gzip(1) on 64 host threads: §3.5's example of 640 MB/s aggregate
    /// host-side compression, same factor and restore pipeline.
    pub fn gzip1_host() -> Self {
        Self {
            factor: 0.728,
            compress_rate: 640.0 * MB,
            decompress_rate: 16.0 * GB,
        }
    }

    /// Same rates as [`CompressionSpec::gzip1_ndp`] but with an
    /// application-specific compression factor (Table 2 column for a
    /// particular mini-app).
    pub fn gzip1_ndp_with_factor(factor: f64) -> Self {
        Self {
            factor,
            ..Self::gzip1_ndp()
        }
    }

    /// Same rates as [`CompressionSpec::gzip1_host`] but with an
    /// application-specific compression factor.
    pub fn gzip1_host_with_factor(factor: f64) -> Self {
        Self {
            factor,
            ..Self::gzip1_host()
        }
    }

    /// `compressed_size / uncompressed_size` — the residual fraction.
    pub fn residual(&self) -> f64 {
        1.0 - self.factor
    }
}

/// How the model accounts for the latency between a checkpoint being
/// written to local NVM and its compressed image being durable on global
/// I/O under NDP offload (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainLagModel {
    /// Ignore the drain pipeline latency: a checkpoint selected for I/O
    /// counts as I/O-recoverable as soon as it is selected. This matches
    /// the paper's accounting (its "Rerun I/O" of 1.2 % for
    /// `Local + I/O-N` is only reproducible without lag).
    Ignore,
    /// Model the full pipeline: a checkpoint only becomes
    /// I/O-recoverable once the NDP finishes compressing and shipping
    /// it, so I/O recoveries roll back further.
    #[default]
    Pipelined,
}

/// A checkpoint/restart strategy (§6.1.2 configurations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// All checkpoints are written synchronously to global I/O
    /// (single-level baseline). `interval` of `None` selects Daly's
    /// optimum compute interval.
    IoOnly {
        /// Compute interval between checkpoints; `None` = Daly optimum.
        interval: Option<f64>,
        /// Optional host-side compression of every checkpoint.
        compression: Option<CompressionSpec>,
    },
    /// All checkpoints are written to node-local NVM only (the 90 %
    /// reference bound of §3.4; offers no protection against local
    /// storage loss, used as an upper bound).
    LocalOnly {
        /// Compute interval between checkpoints; `None` = Daly optimum.
        interval: Option<f64>,
    },
    /// Multilevel checkpointing: every checkpoint goes to local NVM,
    /// every `ratio`-th additionally to global I/O *by the host*
    /// (blocking). Optional host-side compression of I/O checkpoints.
    LocalIoHost {
        /// Compute interval between local checkpoints (paper: 150 s);
        /// `None` = Daly optimum for the local level.
        interval: Option<f64>,
        /// Locally-saved : I/O-saved checkpoint ratio (`k ≥ 1`).
        ratio: u32,
        /// Probability that a failure is recoverable from locally-saved
        /// checkpoints (local + partner levels).
        p_local: f64,
        /// Optional compression of I/O-level checkpoints on the host.
        compression: Option<CompressionSpec>,
    },
    /// Multilevel checkpointing with NDP offload: every checkpoint goes
    /// to local NVM; the NDP asynchronously compresses (optionally) and
    /// drains every `k`-th checkpoint to global I/O off the critical
    /// path (§4.2).
    LocalIoNdp {
        /// Compute interval between local checkpoints (paper: 150 s);
        /// `None` = Daly optimum for the local level.
        interval: Option<f64>,
        /// Locally-saved : I/O-saved ratio. `None` = as frequent as the
        /// drain pipeline sustains (§6.2: "as frequently as possible").
        ratio: Option<u32>,
        /// Probability that a failure is recoverable from locally-saved
        /// checkpoints.
        p_local: f64,
        /// Optional compression of I/O-level checkpoints on the NDP.
        compression: Option<CompressionSpec>,
        /// Drain-latency accounting (see [`DrainLagModel`]).
        drain_lag: DrainLagModel,
    },
}

impl Strategy {
    /// Convenience constructor for `Local + I/O-Host`.
    pub fn local_io_host(
        ratio: u32,
        p_local: f64,
        compression: Option<CompressionSpec>,
    ) -> Self {
        Strategy::LocalIoHost {
            interval: Some(150.0),
            ratio,
            p_local,
            compression,
        }
    }

    /// Convenience constructor for `Local + I/O-NDP` with an
    /// automatically chosen (fastest sustainable) drain ratio.
    pub fn local_io_ndp(
        p_local: f64,
        compression: Option<CompressionSpec>,
    ) -> Self {
        Strategy::LocalIoNdp {
            interval: Some(150.0),
            ratio: None,
            p_local,
            compression,
            drain_lag: DrainLagModel::default(),
        }
    }

    /// The compression spec attached to the I/O level, if any.
    pub fn compression(&self) -> Option<CompressionSpec> {
        match self {
            Strategy::IoOnly { compression, .. }
            | Strategy::LocalIoHost { compression, .. }
            | Strategy::LocalIoNdp { compression, .. } => *compression,
            Strategy::LocalOnly { .. } => None,
        }
    }

    /// The configured compute interval, if fixed.
    pub fn interval(&self) -> Option<f64> {
        match self {
            Strategy::IoOnly { interval, .. }
            | Strategy::LocalOnly { interval }
            | Strategy::LocalIoHost { interval, .. }
            | Strategy::LocalIoNdp { interval, .. } => *interval,
        }
    }

    /// Short label used by the repro binaries, mirroring the paper's
    /// configuration names.
    pub fn label(&self) -> String {
        match self {
            Strategy::IoOnly { compression, .. } => {
                if compression.is_some() {
                    "I/O Only (comp)".into()
                } else {
                    "I/O Only".into()
                }
            }
            Strategy::LocalOnly { .. } => "Local Only".into(),
            Strategy::LocalIoHost {
                p_local,
                compression,
                ..
            } => {
                let c = if compression.is_some() { "C" } else { "" };
                format!("Local({:.0}%) + I/O-H{}", p_local * 100.0, c)
            }
            Strategy::LocalIoNdp {
                p_local,
                compression,
                ..
            } => {
                let c = if compression.is_some() { "C" } else { "" };
                format!("Local({:.0}%) + I/O-N{}", p_local * 100.0, c)
            }
        }
    }
}

/// Costs derived from a `(SystemParams, Strategy)` pair; shared by the
/// analytic model and the simulator so the two backends agree on the
/// meaning of every configuration.
#[derive(Debug, Clone, Copy)]
pub struct DerivedCosts {
    /// Compute interval between (local) checkpoints, seconds.
    pub interval: f64,
    /// Host time to commit one checkpoint to local NVM, seconds.
    pub delta_local: f64,
    /// Host-blocking time to commit one checkpoint to global I/O
    /// (`IoOnly` / `LocalIoHost` only; 0 under NDP), seconds.
    pub t_io_host: f64,
    /// Restore time from a locally-saved checkpoint, seconds.
    pub restore_local: f64,
    /// Restore time from an I/O-saved checkpoint (pipelined with host
    /// decompression when compressed — §4.3), seconds.
    pub restore_io: f64,
    /// NDP end-to-end drain time for one checkpoint (compression
    /// pipelined with the NIC transfer — §4.2.2), seconds. Zero for
    /// non-NDP strategies.
    pub ndp_drain_time: f64,
    /// Effective locally-saved : I/O-saved ratio actually in force.
    pub ratio: u32,
    /// Probability that a failure can be recovered from local storage.
    pub p_local: f64,
}

/// Computes the derived per-activity costs for a configuration.
///
/// The formulas implement §3.5 (host compression overlapped with the I/O
/// write), §4.2.2 (NDP compression pipelined with the NIC transfer,
/// bounded by both the NDP compression rate and the I/O bandwidth) and
/// §4.3 (restore pipelined with host decompression).
pub fn derive_costs(sys: &SystemParams, strat: &Strategy) -> DerivedCosts {
    let s = sys.checkpoint_bytes;
    let delta_local = sys.delta_local();
    let io_bw = sys.io_bw_per_node;

    let io_commit = |comp: &Option<CompressionSpec>| -> f64 {
        match comp {
            None => s / io_bw,
            // Compression overlapped with the write: bounded by the
            // slower of producing compressed bytes and shipping them.
            Some(c) => (s / c.compress_rate).max(s * c.residual() / io_bw),
        }
    };
    let io_restore = |comp: &Option<CompressionSpec>| -> f64 {
        match comp {
            None => s / io_bw,
            // Retrieval pipelined with host decompression (§4.3).
            Some(c) => {
                (s * c.residual() / io_bw).max(s / c.decompress_rate)
            }
        }
    };

    match *strat {
        Strategy::IoOnly {
            interval,
            compression,
        } => {
            let t_io = io_commit(&compression);
            let tau = interval
                .unwrap_or_else(|| crate::daly::optimum_interval(sys.mtti, t_io));
            DerivedCosts {
                interval: tau,
                delta_local: 0.0,
                t_io_host: t_io,
                restore_local: 0.0,
                restore_io: io_restore(&compression),
                ndp_drain_time: 0.0,
                ratio: 1,
                p_local: 0.0,
            }
        }
        Strategy::LocalOnly { interval } => {
            let tau = interval.unwrap_or_else(|| {
                crate::daly::optimum_interval(sys.mtti, delta_local)
            });
            DerivedCosts {
                interval: tau,
                delta_local,
                t_io_host: 0.0,
                restore_local: delta_local,
                restore_io: delta_local,
                ndp_drain_time: 0.0,
                ratio: u32::MAX,
                p_local: 1.0,
            }
        }
        Strategy::LocalIoHost {
            interval,
            ratio,
            p_local,
            compression,
        } => {
            assert!(ratio >= 1, "ratio must be at least 1");
            assert!((0.0..=1.0).contains(&p_local));
            let tau = interval.unwrap_or_else(|| {
                crate::daly::optimum_interval(sys.mtti, delta_local)
            });
            DerivedCosts {
                interval: tau,
                delta_local,
                t_io_host: io_commit(&compression),
                restore_local: delta_local,
                restore_io: io_restore(&compression),
                ndp_drain_time: 0.0,
                ratio,
                p_local,
            }
        }
        Strategy::LocalIoNdp {
            interval,
            ratio,
            p_local,
            compression,
            ..
        } => {
            assert!((0.0..=1.0).contains(&p_local));
            let tau = interval.unwrap_or_else(|| {
                crate::daly::optimum_interval(sys.mtti, delta_local)
            });
            // Drain rate in uncompressed bytes/s: limited by the NDP
            // compression speed and by the I/O bandwidth expressed in
            // uncompressed terms (§4.4).
            let drain_rate = match &compression {
                None => io_bw,
                Some(c) => c.compress_rate.min(io_bw / c.residual()),
            };
            let drain_time = s / drain_rate;
            // Smallest sustainable ratio: the NDP gets ~tau of NVM/NIC
            // time per segment (paused while the host writes), so
            // draining one checkpoint per k segments requires
            // k * tau >= drain_time.
            let min_ratio = (drain_time / tau).ceil().max(1.0) as u32;
            let ratio = match ratio {
                Some(r) => {
                    assert!(
                        r >= min_ratio,
                        "requested NDP ratio {r} cannot be sustained; \
                         minimum is {min_ratio}"
                    );
                    r
                }
                None => min_ratio,
            };
            DerivedCosts {
                interval: tau,
                delta_local,
                t_io_host: 0.0,
                restore_local: delta_local,
                restore_io: io_restore(&compression),
                ndp_drain_time: drain_time,
                ratio,
                p_local,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exascale_defaults_match_table4() {
        let s = SystemParams::exascale_default();
        assert_eq!(s.mtti, 1800.0);
        assert_eq!(s.checkpoint_bytes, 112.0 * GB);
        // delta_local = 112/15 ~ 7.47 s.
        assert!((s.delta_local() - 7.4667).abs() < 1e-3);
        // Uncompressed I/O write: 1120 s = 18.67 min (Sec. 3.4).
        let t_io = s.checkpoint_bytes / s.io_bw_per_node;
        assert!((t_io - 1120.0).abs() < 1e-9);
    }

    #[test]
    fn host_io_commit_is_overlap_bound() {
        let sys = SystemParams::exascale_default();
        let c = CompressionSpec::gzip1_host();
        let strat = Strategy::local_io_host(10, 0.8, Some(c));
        let d = derive_costs(&sys, &strat);
        // 112 GB * 0.272 / 100 MB/s = 304.6 s (I/O bound, since the host
        // compresses at 640 MB/s > the 367 MB/s needed).
        let expected = 112.0 * GB * c.residual() / (100.0 * MB);
        assert!((d.t_io_host - expected).abs() < 1e-6);
        assert!(d.t_io_host > 112.0 * GB / c.compress_rate);
    }

    #[test]
    fn ndp_uncompressed_ratio_is_eight() {
        // Sec. 6.4: NDP drains uncompressed checkpoints at the I/O
        // bandwidth; 1120 s per drain over 150 s segments -> every 8th.
        let sys = SystemParams::exascale_default();
        let strat = Strategy::local_io_ndp(0.85, None);
        let d = derive_costs(&sys, &strat);
        assert_eq!(d.ratio, 8);
        assert_eq!(d.t_io_host, 0.0);
        assert!((d.ndp_drain_time - 1120.0).abs() < 1e-9);
    }

    #[test]
    fn ndp_compressed_ratio_drops_to_three() {
        // gzip(1): drain limited by IO bw in uncompressed terms:
        // 100 MB/s / 0.272 = 367.6 MB/s < 440.4 MB/s NDP rate.
        // 112 GB / 367.6 MB/s ~ 304.6 s -> ceil(304.6/150) = 3.
        let sys = SystemParams::exascale_default();
        let strat = Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp()));
        let d = derive_costs(&sys, &strat);
        assert_eq!(d.ratio, 3);
        assert!((d.ndp_drain_time - 304.64).abs() < 0.1);
    }

    #[test]
    fn compressed_restore_is_pipelined_max() {
        let sys = SystemParams::exascale_default();
        let c = CompressionSpec::gzip1_ndp();
        let strat = Strategy::local_io_ndp(0.85, Some(c));
        let d = derive_costs(&sys, &strat);
        let io_read = 112.0 * GB * c.residual() / (100.0 * MB);
        let decomp = 112.0 * GB / (16.0 * GB);
        assert!((d.restore_io - io_read.max(decomp)).abs() < 1e-9);
        // The I/O read dominates at 100 MB/s.
        assert!(io_read > decomp);
    }

    #[test]
    #[should_panic(expected = "cannot be sustained")]
    fn unsustainable_ndp_ratio_panics() {
        let sys = SystemParams::exascale_default();
        let strat = Strategy::LocalIoNdp {
            interval: Some(150.0),
            ratio: Some(1), // needs >= 8 uncompressed
            p_local: 0.85,
            compression: None,
            drain_lag: DrainLagModel::default(),
        };
        let _ = derive_costs(&sys, &strat);
    }

    #[test]
    fn io_only_uses_daly_interval() {
        let sys = SystemParams::exascale_default();
        let strat = Strategy::IoOnly {
            interval: None,
            compression: None,
        };
        let d = derive_costs(&sys, &strat);
        let expected = crate::daly::optimum_interval(sys.mtti, 1120.0);
        assert!((d.interval - expected).abs() < 1e-9);
        assert_eq!(d.p_local, 0.0);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(
            Strategy::local_io_host(10, 0.8, None).label(),
            "Local(80%) + I/O-H"
        );
        assert_eq!(
            Strategy::local_io_ndp(0.96, Some(CompressionSpec::gzip1_ndp()))
                .label(),
            "Local(96%) + I/O-NC"
        );
    }

    #[test]
    fn sensitivity_builders_modify_single_field() {
        let s = SystemParams::exascale_default()
            .with_mtti(60.0 * MINUTE)
            .with_checkpoint_bytes(14.0 * GB);
        assert_eq!(s.mtti, 3600.0);
        assert_eq!(s.checkpoint_bytes, 14.0 * GB);
        assert_eq!(s.local_bw, 15.0 * GB);
        assert_eq!(s.io_bw_per_node, 100.0 * MB);
    }
}
