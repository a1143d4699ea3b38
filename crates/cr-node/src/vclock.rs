//! Virtual-time accounting for the functional node.
//!
//! The functional emulation executes as fast as the machine allows, but
//! each data movement is *charged* to the resource that would perform it
//! (host↔NVM, NDP compression, NIC/global-I/O link), at the paper's node
//! rates: the constants below. This keeps the mechanism tests fast
//! while still exposing the timing relationships (e.g. host-visible time
//! vs background drain time) that the paper's Figure 3 illustrates.

use cr_core::units::{GB, MB};

/// Host↔NVM bandwidth, bytes/s: 15 GB/s (Table 4's `L-15GBps`).
pub const NVM_BW: f64 = 15.0 * GB;
/// Per-node share of global-I/O bandwidth, bytes/s: 100 MB/s (Table 4).
pub const IO_BW: f64 = 100.0 * MB;
/// NDP compression throughput, bytes/s: gzip(1) on 4 NDP cores,
/// 440.4 MB/s (Tables 3–4).
pub const NDP_COMPRESS_BW: f64 = 440.4 * MB;
/// Host decompression throughput on restore, bytes/s: 16 GB/s
/// (Table 4).
pub const HOST_DECOMPRESS_BW: f64 = 16.0 * GB;
/// Node-to-partner interconnect bandwidth, bytes/s: the projected
/// 50 GB/s (Table 1).
pub const INTERCONNECT_BW: f64 = 50.0 * GB;

/// Accumulated virtual busy-time per resource, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VClock {
    /// Host writing/reading checkpoints to/from local NVM (critical
    /// path).
    pub host_nvm: f64,
    /// NDP reading + compressing checkpoint data (background).
    pub ndp_compute: f64,
    /// NIC/global-I/O link shipping compressed blocks (background).
    pub io_link: f64,
    /// Host restoring from remote I/O (critical path during recovery).
    pub restore_io: f64,
}

impl VClock {
    /// Charges a transfer of `bytes` at `bandwidth` bytes/s to a
    /// resource counter.
    pub fn charge(counter: &mut f64, bytes: usize, bandwidth: f64) {
        debug_assert!(bandwidth > 0.0);
        *counter += bytes as f64 / bandwidth;
    }

    /// Host-visible critical-path time (what blocks the application).
    pub fn critical_path(&self) -> f64 {
        self.host_nvm + self.restore_io
    }

    /// Background time hidden from the application by the NDP.
    pub fn background(&self) -> f64 {
        self.ndp_compute.max(self.io_link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_match_the_model_plane() {
        use cr_core::params::{CompressionSpec, SystemParams};
        use cr_core::projection::ExascaleProjection;
        let sys = SystemParams::exascale_default();
        let gz = CompressionSpec::gzip1_ndp();
        let proj = ExascaleProjection::paper_default();
        assert_eq!(NVM_BW, sys.local_bw);
        assert_eq!(IO_BW, sys.io_bw_per_node);
        assert_eq!(NDP_COMPRESS_BW, gz.compress_rate);
        assert_eq!(HOST_DECOMPRESS_BW, gz.decompress_rate);
        assert_eq!(INTERCONNECT_BW, proj.interconnect_bw);
    }

    #[test]
    fn charge_accumulates() {
        let mut c = VClock::default();
        VClock::charge(&mut c.host_nvm, 15_000_000_000, 15e9);
        VClock::charge(&mut c.host_nvm, 15_000_000_000, 15e9);
        assert!((c.host_nvm - 2.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_excludes_background() {
        let c = VClock {
            host_nvm: 5.0,
            ndp_compute: 100.0,
            io_link: 200.0,
            restore_io: 1.0,
        };
        assert_eq!(c.critical_path(), 6.0);
        assert_eq!(c.background(), 200.0);
    }
}
