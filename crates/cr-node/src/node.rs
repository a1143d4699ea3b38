//! The compute node: host-side checkpoint/restore API wired to the NVM
//! store, the NDP drain engine and the remote I/O node (§4.2).

use std::collections::HashMap;
use std::fmt;

use cr_compress::{registry, CodecError};

use crate::faults::{FaultPlane, FaultPlaneConfig, FaultSite};
use crate::frame;
use crate::metadata::CheckpointMeta;
use crate::ndp::{BackpressurePolicy, NdpEngine, StepOutcome};
use crate::nvm::{NvmError, NvmStore, Region, SlotId};
use crate::remote::IoNode;
use crate::vclock::VClock;

/// Node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Capacity of the NVM's uncompressed-checkpoint region, bytes.
    pub nvm_uncompressed: usize,
    /// Capacity of the NVM's compressed/spill region, bytes.
    pub nvm_compressed: usize,
    /// NIC transmit buffer depth, blocks.
    pub nic_blocks: usize,
    /// Drain/compression block size, bytes.
    pub block_size: usize,
    /// Codec for NDP compression: `(family, level)`, or `None` to drain
    /// uncompressed.
    pub codec: Option<(&'static str, u32)>,
    /// NIC backpressure policy (§4.2.2).
    pub policy: BackpressurePolicy,
    /// Every `drain_ratio`-th checkpoint is drained to global I/O.
    pub drain_ratio: u32,
    /// Incremental drains (§7 future work): `Some(policy)` makes the
    /// NDP diff consecutive drained checkpoints and ship only changed
    /// blocks.
    pub incremental: Option<crate::ndp::IncrementalPolicy>,
    /// Partner-level checkpointing (§3.4): every `n`-th checkpoint is
    /// replicated to a partner node's NVM, surviving loss of this node
    /// alone. `0` disables the partner level.
    pub partner_ratio: u32,
    /// Modeled node-to-partner interconnect bandwidth, bytes/s.
    pub interconnect_bw: f64,
    /// Modeled host↔NVM bandwidth, bytes/s.
    pub nvm_bandwidth: f64,
    /// Modeled per-node global-I/O bandwidth, bytes/s.
    pub io_bandwidth: f64,
    /// Modeled NDP compression throughput, bytes/s.
    pub ndp_compress_bw: f64,
    /// Modeled host decompression throughput on restore, bytes/s.
    pub host_decompress_bw: f64,
    /// Deterministic fault injection (`None` = no faults): the node
    /// threads this plane through NVM commits/reads, partner
    /// replication, the NDP drain engine, the NIC and the remote I/O
    /// path.
    pub faults: Option<FaultPlaneConfig>,
}

impl NodeConfig {
    /// Paper-flavoured defaults scaled down for in-memory testing:
    /// 64 MiB NVM regions, 256 KiB blocks, gzip-family level 1, drain
    /// every 2nd checkpoint.
    pub fn small_test() -> Self {
        NodeConfig {
            nvm_uncompressed: 64 << 20,
            nvm_compressed: 64 << 20,
            nic_blocks: 8,
            block_size: 256 << 10,
            codec: Some(("gz", 1)),
            policy: BackpressurePolicy::Pause,
            drain_ratio: 2,
            incremental: None,
            partner_ratio: 0,
            interconnect_bw: 50e9,
            nvm_bandwidth: 15e9,
            io_bandwidth: 100e6,
            ndp_compress_bw: 440.4e6,
            host_decompress_bw: 16e9,
            faults: None,
        }
    }
}

/// Where a restore was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreSource {
    /// Node-local NVM (fast path).
    LocalNvm,
    /// A partner node's NVM (§3.4 partner level).
    Partner,
    /// Remote I/O node (decompressed on the host, §4.3).
    RemoteIo,
}

/// A restored checkpoint.
#[derive(Debug)]
pub struct Restored {
    /// Checkpoint metadata (of the original, uncompressed checkpoint).
    pub meta: CheckpointMeta,
    /// The restored application state.
    pub data: Vec<u8>,
    /// Which level served the restore.
    pub source: RestoreSource,
}

/// Failure kinds the node can experience (§6.1: failures either are or
/// are not recoverable from locally-saved checkpoints; "locally-saved"
/// covers both the local and the partner level — §3.4 footnote 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Application/process failure: node-local state survives.
    LocalSurvivable,
    /// Node loss: NVM contents, pending drains and NIC contents are
    /// destroyed; partner-level copies and finalized remote objects
    /// survive.
    NodeLoss,
    /// Simultaneous loss of this node and its partner: only finalized
    /// remote objects survive.
    PairLoss,
}

/// Errors surfaced by node operations.
#[derive(Debug)]
pub enum NodeError {
    /// Operation referenced an unregistered application.
    UnknownApp(String),
    /// NVM store failure.
    Nvm(NvmError),
    /// No checkpoint available at any level.
    NoCheckpoint,
    /// Drain or restore codec failure.
    Codec(CodecError),
    /// Drain cannot progress (NIC blocked under `Pause`, or spill
    /// region full).
    DrainStalled,
    /// The only recoverable checkpoint failed checksum verification.
    Corrupt,
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::UnknownApp(a) => write!(f, "unknown app {a:?}"),
            NodeError::Nvm(e) => write!(f, "nvm: {e}"),
            NodeError::NoCheckpoint => write!(f, "no checkpoint available"),
            NodeError::Codec(e) => write!(f, "{e}"),
            NodeError::DrainStalled => write!(f, "drain stalled"),
            NodeError::Corrupt => {
                write!(f, "checkpoint failed integrity verification")
            }
        }
    }
}

impl std::error::Error for NodeError {}

impl From<NvmError> for NodeError {
    fn from(e: NvmError) -> Self {
        NodeError::Nvm(e)
    }
}

impl From<CodecError> for NodeError {
    fn from(e: CodecError) -> Self {
        NodeError::Codec(e)
    }
}

#[derive(Debug, Default)]
struct AppState {
    next_ckpt_id: u64,
    since_io: u32,
    since_partner: u32,
}

/// The compute node.
pub struct ComputeNode {
    cfg: NodeConfig,
    nvm: NvmStore,
    /// Replicas held on the partner node's NVM (present when
    /// `partner_ratio > 0`). Lives here for simulation convenience but
    /// is failure-domain-separate: only [`FailureKind::PairLoss`]
    /// destroys it.
    partner: Option<NvmStore>,
    ndp: NdpEngine,
    io: IoNode,
    apps: HashMap<String, AppState>,
    clock: VClock,
    faults: FaultPlane,
    host_ckpt_counter: u64,
    /// Checkpoints that failed integrity verification during restores
    /// (each one was skipped in favor of the next recovery level).
    corruptions_detected: u64,
}

impl ComputeNode {
    /// Builds a node from a configuration.
    pub fn new(cfg: NodeConfig) -> Self {
        let codec = cfg
            .codec
            .map(|(name, level)| {
                registry::by_name(name, level)
                    .unwrap_or_else(|| panic!("unknown codec {name}({level})"))
            });
        let ndp = NdpEngine::new(
            codec,
            cfg.policy,
            cfg.block_size,
            cfg.nic_blocks,
            cfg.ndp_compress_bw,
            cfg.incremental,
        );
        let partner = (cfg.partner_ratio > 0)
            .then(|| NvmStore::new(cfg.nvm_uncompressed, 0));
        let faults = cfg
            .faults
            .map(FaultPlane::new)
            .unwrap_or_else(FaultPlane::disabled);
        ComputeNode {
            nvm: NvmStore::new(cfg.nvm_uncompressed, cfg.nvm_compressed),
            partner,
            ndp,
            io: IoNode::new(cfg.io_bandwidth),
            apps: HashMap::new(),
            clock: VClock::default(),
            faults,
            host_ckpt_counter: 0,
            corruptions_detected: 0,
            cfg,
        }
    }

    /// Registers an application for checkpointing.
    pub fn register_app(&mut self, app_id: &str) {
        self.apps.entry(app_id.to_string()).or_default();
    }

    /// Takes a coordinated checkpoint of rank 0.
    pub fn checkpoint(
        &mut self,
        app_id: &str,
        data: &[u8],
    ) -> Result<SlotId, NodeError> {
        self.checkpoint_rank(app_id, 0, data)
    }

    /// Takes a checkpoint of one rank: pauses the NDP (§4.2.1), writes
    /// the image to the NVM uncompressed region, resumes the NDP, and
    /// hands every `drain_ratio`-th checkpoint to the NDP for draining
    /// (§4.2.2).
    pub fn checkpoint_rank(
        &mut self,
        app_id: &str,
        rank: u32,
        data: &[u8],
    ) -> Result<SlotId, NodeError> {
        if !self.apps.contains_key(app_id) {
            return Err(NodeError::UnknownApp(app_id.to_string()));
        }
        let taken_at = self.host_ckpt_counter + 1;
        let ckpt_id = self.apps[app_id].next_ckpt_id;

        let mut meta = CheckpointMeta::new(
            app_id,
            rank,
            ckpt_id,
            data.len() as u64,
            taken_at,
        );
        // End-to-end integrity: the original image's checksum travels
        // with the metadata through every level and encoding, so a
        // restore can verify the final reassembled bytes.
        meta.content_crc = crate::integrity::Crc64::of(data);

        // Host owns the NVM for the commit: NDP paused (§4.2.1).
        self.ndp.pause();
        let mut buf = self.nvm.take_buffer();
        buf.extend_from_slice(data);
        let result =
            self.nvm.write(Region::Uncompressed, meta.clone(), buf);
        VClock::charge(
            &mut self.clock.host_nvm,
            data.len(),
            self.cfg.nvm_bandwidth,
        );
        self.ndp.resume();
        let slot = result?;

        // Only a landed local write consumes the ID and counts towards
        // the drain and partner schedules; a refused commit leaves them
        // as they were. Errors after this point do not undo the commit.
        self.host_ckpt_counter = taken_at;
        let state = self.apps.get_mut(app_id).expect("checked above");
        state.next_ckpt_id += 1;
        state.since_io += 1;
        let drain = state.since_io >= self.cfg.drain_ratio;
        if drain {
            state.since_io = 0;
        }
        let to_partner = if self.cfg.partner_ratio > 0 {
            state.since_partner += 1;
            let due = state.since_partner >= self.cfg.partner_ratio;
            if due {
                state.since_partner = 0;
            }
            due
        } else {
            false
        };

        // Injected torn write: the commit "succeeded" but the stored
        // frame is damaged past its commit-time checksum. Detected by
        // verification at restore time, never served as fresh data.
        if self.faults.fire(FaultSite::NvmTornWrite) {
            let idx = self.faults.draw_index(data.len());
            let _ = self.nvm.tamper(slot, idx);
        }

        // Partner replication (§3.4): copy the checkpoint over the
        // interconnect to the partner node's NVM.
        if to_partner {
            if self.faults.fire(FaultSite::PartnerLoss) {
                // Replica lost in transit: the interconnect time is
                // spent but nothing lands on the partner.
                VClock::charge(
                    &mut self.clock.host_nvm,
                    data.len(),
                    self.cfg.interconnect_bw,
                );
            } else if let Some(partner) = &mut self.partner {
                let mut pbuf = partner.take_buffer();
                pbuf.extend_from_slice(data);
                partner.write(Region::Uncompressed, meta.clone(), pbuf)?;
                VClock::charge(
                    &mut self.clock.host_nvm,
                    data.len(),
                    self.cfg.interconnect_bw,
                );
            }
        }

        if drain {
            self.nvm.lock(slot)?;
            self.ndp.enqueue(slot, meta);
        }
        Ok(slot)
    }

    /// Performs one unit of NDP drain work, consulting the fault plane.
    pub fn ndp_step(&mut self) -> Result<StepOutcome, NodeError> {
        Ok(self.ndp.step(
            &mut self.nvm,
            &mut self.io,
            &mut self.clock,
            &mut self.faults,
        )?)
    }

    /// Runs the NDP until all queued drains complete.
    pub fn drain_all(&mut self) -> Result<(), NodeError> {
        loop {
            match self.ndp_step()? {
                StepOutcome::Idle => return Ok(()),
                StepOutcome::Stalled => return Err(NodeError::DrainStalled),
                StepOutcome::Paused => {
                    // drain_all is a host-driven pump; un-pause and
                    // continue.
                    self.ndp.resume();
                }
                _ => {}
            }
        }
    }

    /// Injects a failure (§4.2.3).
    pub fn inject_failure(&mut self, kind: FailureKind) {
        match kind {
            FailureKind::LocalSurvivable => {
                // Application aborted; storage intact. The NDP pauses
                // during the recovery that follows.
                self.ndp.pause();
            }
            FailureKind::NodeLoss => {
                self.nvm.wipe();
                self.ndp.reset();
                self.io.abort_incomplete();
            }
            FailureKind::PairLoss => {
                self.nvm.wipe();
                if let Some(partner) = &mut self.partner {
                    partner.wipe();
                }
                self.ndp.reset();
                self.io.abort_incomplete();
            }
        }
    }

    /// Restores the newest recoverable checkpoint of rank 0.
    pub fn restore(&mut self, app_id: &str) -> Result<Restored, NodeError> {
        self.restore_rank(app_id, 0)
    }

    /// Restores the newest recoverable checkpoint of one rank: local
    /// NVM first, falling back to the remote I/O node with host-side
    /// block decompression (§4.2.3, §4.3). Resumes the NDP afterwards.
    pub fn restore_rank(
        &mut self,
        app_id: &str,
        rank: u32,
    ) -> Result<Restored, NodeError> {
        if !self.apps.contains_key(app_id) {
            return Err(NodeError::UnknownApp(app_id.to_string()));
        }
        // The NDP pauses its I/O traffic during recovery (§4.2.3).
        self.ndp.pause();
        let result = self.restore_inner(app_id, rank);
        self.ndp.resume();
        result
    }

    fn restore_inner(
        &mut self,
        app_id: &str,
        rank: u32,
    ) -> Result<Restored, NodeError> {
        // Fast path: newest local checkpoint — verified before use, so
        // NVM bit-rot falls through to the partner/I-O levels instead
        // of restoring garbage.
        if let Some(id) = self
            .nvm
            .latest(Region::Uncompressed, app_id, rank)
            .map(|s| s.id)
        {
            // Injected silent bit-rot, surfacing exactly when the
            // restore reads the slot.
            if self.faults.fire(FaultSite::NvmReadRot) {
                let len = self.nvm.get(id).map_or(0, |s| s.data.len());
                let idx = self.faults.draw_index(len);
                let _ = self.nvm.tamper(id, idx);
            }
            let slot = self.nvm.get(id).expect("slot just listed");
            if slot.verify() {
                let data = slot.data.clone();
                let meta = slot.meta.clone();
                VClock::charge(
                    &mut self.clock.host_nvm,
                    data.len(),
                    self.cfg.nvm_bandwidth,
                );
                return Ok(Restored {
                    meta,
                    data,
                    source: RestoreSource::LocalNvm,
                });
            }
            self.corruptions_detected += 1;
        }

        // Partner level (§3.4): the partner node's replica survives
        // loss of this node alone; fetch it over the interconnect
        // (verified, falling through to I/O on corruption).
        let partner_id = self.partner.as_ref().and_then(|partner| {
            partner
                .latest(Region::Uncompressed, app_id, rank)
                .map(|s| s.id)
        });
        if let Some(pid) = partner_id {
            if self.faults.fire(FaultSite::NvmReadRot) {
                let partner = self.partner.as_mut().expect("id implies store");
                let len = partner.get(pid).map_or(0, |s| s.data.len());
                let idx = self.faults.draw_index(len);
                let _ = partner.tamper(pid, idx);
            }
        }
        let partner_hit = self.partner.as_ref().and_then(|partner| {
            partner_id.and_then(|pid| partner.get(pid)).map(|slot| {
                (slot.verify(), slot.meta.clone(), slot.data.clone())
            })
        });
        if let Some((ok, meta, data)) = partner_hit {
            if ok {
                VClock::charge(
                    &mut self.clock.restore_io,
                    data.len(),
                    self.cfg.interconnect_bw,
                );
                // Reseed the local NVM so later failures recover fast.
                let _ = self.nvm.write(
                    Region::Uncompressed,
                    meta.clone(),
                    data.clone(),
                );
                return Ok(Restored {
                    meta,
                    data,
                    source: RestoreSource::Partner,
                });
            }
            self.corruptions_detected += 1;
        }

        // Slow path: stream from remote I/O, decompressing block by
        // block on the host (pipelined restore, §4.3). Incremental
        // objects chain back to their base (§7); walk the chain to a
        // full image, then apply the deltas forward.
        let key = self
            .io
            .latest_complete(app_id, rank)
            .ok_or(NodeError::NoCheckpoint)?;
        let (meta, mut payload) = self.fetch_remote_payload(&key)?;
        let mut deltas: Vec<crate::incremental::IncrementalImage> =
            Vec::new();
        let mut cursor = meta.clone();
        while let Some(base_id) = cursor.base {
            if deltas.len() >= crate::ndp::MAX_CHAIN as usize {
                return Err(
                    CodecError::new("incremental chain too long").into()
                );
            }
            deltas.push(
                crate::incremental::IncrementalImage::decode(&payload)
                    .map_err(CodecError::new)?,
            );
            let base_key = crate::remote::ObjectKey {
                app_id: app_id.to_string(),
                rank,
                ckpt_id: base_id,
            };
            let (base_meta, base_payload) =
                self.fetch_remote_payload(&base_key)?;
            cursor = base_meta;
            payload = base_payload;
        }
        // `payload` now holds the full base image; apply deltas from
        // oldest to newest.
        if payload.len() != cursor.size as usize {
            return Err(CodecError::new("restored size mismatch").into());
        }
        let mut data = payload;
        for incr in deltas.iter().rev() {
            data = crate::incremental::apply_incremental(&data, incr)
                .map_err(CodecError::new)?;
        }
        if data.len() != meta.size as usize {
            return Err(CodecError::new("restored size mismatch").into());
        }
        // End-to-end verification of the reassembled image against the
        // checksum taken at checkpoint time: catches any corruption the
        // per-object CRCs cannot (e.g. rot that slipped into the drain
        // source before shipping).
        if meta.content_crc != 0
            && crate::integrity::Crc64::of(&data) != meta.content_crc
        {
            self.corruptions_detected += 1;
            return Err(NodeError::Corrupt);
        }
        VClock::charge(
            &mut self.clock.restore_io,
            data.len(),
            self.cfg.host_decompress_bw,
        );

        // The restored image is written back to a fresh local
        // checkpoint so subsequent failures recover locally.
        let restored_meta = CheckpointMeta {
            codec: None,
            base: None,
            ..meta.clone()
        };
        let _ = self.nvm.write(
            Region::Uncompressed,
            restored_meta.clone(),
            data.clone(),
        );

        Ok(Restored {
            meta: restored_meta,
            data,
            source: RestoreSource::RemoteIo,
        })
    }

    /// Reads one remote object and decompresses its framed blocks into
    /// the raw payload (a full image, or an encoded incremental delta).
    fn fetch_remote_payload(
        &mut self,
        key: &crate::remote::ObjectKey,
    ) -> Result<(CheckpointMeta, Vec<u8>), NodeError> {
        let (meta, blob) = match self.io.read_verified(key) {
            Ok(x) => x,
            Err(crate::remote::RemoteError::Corrupt) => {
                self.corruptions_detected += 1;
                return Err(NodeError::Corrupt);
            }
            Err(_) => return Err(NodeError::NoCheckpoint),
        };
        VClock::charge(
            &mut self.clock.restore_io,
            blob.len(),
            self.cfg.io_bandwidth,
        );
        let codec = match &meta.codec {
            None => None,
            Some(label) => Some(registry::by_label(label).ok_or_else(|| {
                CodecError::new(format!("unknown codec {label}"))
            })?),
        };
        let data = frame::decode(&blob, codec.as_deref(), meta.size as usize)?;
        Ok((meta, data))
    }

    /// Virtual-time accounting so far.
    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    /// NDP engine statistics.
    pub fn ndp_stats(&self) -> crate::ndp::NdpStats {
        self.ndp.stats
    }

    /// Checkpoints skipped during restores because they failed
    /// integrity verification.
    pub fn corruptions_detected(&self) -> u64 {
        self.corruptions_detected
    }

    /// Fault injection: flip a bit in the newest local checkpoint of a
    /// rank (NVM bit-rot drill). Returns false if none exists.
    pub fn tamper_local(&mut self, app_id: &str, rank: u32) -> bool {
        let id = self
            .nvm
            .latest(Region::Uncompressed, app_id, rank)
            .map(|s| s.id);
        match id {
            Some(id) => self.nvm.tamper(id, 17).is_ok(),
            None => false,
        }
    }

    /// Fault injection: flip a bit in the newest finalized remote
    /// object of a rank (I/O-node bit-rot drill).
    pub fn tamper_remote(&mut self, app_id: &str, rank: u32) -> bool {
        match self.io.latest_complete(app_id, rank) {
            Some(key) => self.io.tamper(&key, 1023),
            None => false,
        }
    }

    /// Immutable access to the NVM store.
    pub fn nvm(&self) -> &NvmStore {
        &self.nvm
    }

    /// Immutable access to the partner node's replica store, if the
    /// partner level is enabled.
    pub fn partner(&self) -> Option<&NvmStore> {
        self.partner.as_ref()
    }

    /// Mutable access to the NDP's NIC buffer (scenario control:
    /// blocking the network emulates application traffic contention).
    pub fn nic_blocked(&mut self, blocked: bool) {
        self.ndp.nic.blocked = blocked;
    }

    /// Blocks waiting in the NDP's NIC transmit buffer.
    pub fn nic_depth(&self) -> usize {
        self.ndp.nic.depth()
    }

    /// Immutable access to the remote I/O node.
    pub fn io(&self) -> &IoNode {
        &self.io
    }

    /// Immutable access to the fault plane (fault log, per-site counts).
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// Mutable access to the fault plane. Chaos harnesses use this to
    /// quiesce injection (`set_active(false)`) around oracle restores.
    pub fn faults_mut(&mut self) -> &mut FaultPlane {
        &mut self.faults
    }

    /// The configuration in force.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Attach one observability bus to every subsystem of this node.
    ///
    /// The NVM store, drain engine, remote I/O node and fault plane all
    /// receive clones of the same bus, so their events interleave in one
    /// stream in emission order. Observation never perturbs behaviour: a
    /// disabled bus (the default) makes every emission a no-op.
    pub fn set_observer(&mut self, bus: &cr_obs::Bus) {
        self.nvm.set_bus(bus.clone());
        self.ndp.set_bus(bus.clone());
        self.io.set_bus(bus.clone());
        self.faults.set_bus(bus.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> ComputeNode {
        let mut n = ComputeNode::new(NodeConfig::small_test());
        n.register_app("app");
        n
    }

    fn payload(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag ^ (i % 251) as u8).collect()
    }

    #[test]
    fn local_restore_round_trip() {
        let mut n = node();
        let data = payload(1, 1 << 20);
        n.checkpoint("app", &data).unwrap();
        n.inject_failure(FailureKind::LocalSurvivable);
        let r = n.restore("app").unwrap();
        assert_eq!(r.source, RestoreSource::LocalNvm);
        assert_eq!(r.data, data);
    }

    #[test]
    fn remote_restore_round_trip_after_node_loss() {
        let mut n = node();
        let d1 = payload(1, 900_000);
        let d2 = payload(2, 900_000);
        n.checkpoint("app", &d1).unwrap();
        n.checkpoint("app", &d2).unwrap(); // 2nd -> drained (ratio 2)
        n.drain_all().unwrap();
        n.inject_failure(FailureKind::NodeLoss);
        let r = n.restore("app").unwrap();
        assert_eq!(r.source, RestoreSource::RemoteIo);
        assert_eq!(r.data, d2, "must recover the drained checkpoint");
        assert_eq!(r.meta.ckpt_id, 1);
    }

    #[test]
    fn node_loss_without_drain_loses_everything() {
        let mut n = node();
        n.checkpoint("app", &payload(1, 100_000)).unwrap();
        n.inject_failure(FailureKind::NodeLoss);
        assert!(matches!(
            n.restore("app").unwrap_err(),
            NodeError::NoCheckpoint
        ));
    }

    #[test]
    fn restore_prefers_newest_local() {
        let mut n = node();
        for i in 0..5u8 {
            n.checkpoint("app", &payload(i, 200_000)).unwrap();
        }
        let r = n.restore("app").unwrap();
        assert_eq!(r.meta.ckpt_id, 4);
        assert_eq!(r.data, payload(4, 200_000));
    }

    #[test]
    fn mid_drain_node_loss_recovers_older_durable_checkpoint() {
        let mut n = node();
        let d2 = payload(2, 800_000);
        n.checkpoint("app", &payload(1, 800_000)).unwrap();
        n.checkpoint("app", &d2).unwrap(); // drained fully below
        n.drain_all().unwrap();
        n.checkpoint("app", &payload(3, 800_000)).unwrap();
        let d4 = payload(4, 800_000);
        n.checkpoint("app", &d4).unwrap(); // starts draining ...
        for _ in 0..3 {
            n.ndp_step().unwrap(); // ... but only partially
        }
        n.inject_failure(FailureKind::NodeLoss);
        // Incomplete drain of #3 (ckpt_id 3) must not be recoverable;
        // #1 (d2) is.
        let r = n.restore("app").unwrap();
        assert_eq!(r.source, RestoreSource::RemoteIo);
        assert_eq!(r.data, d2);
    }

    #[test]
    fn remote_restore_reseeds_local_nvm() {
        let mut n = node();
        let d = payload(7, 600_000);
        n.checkpoint("app", &payload(6, 600_000)).unwrap();
        n.checkpoint("app", &d).unwrap();
        n.drain_all().unwrap();
        n.inject_failure(FailureKind::NodeLoss);
        let _ = n.restore("app").unwrap();
        // A second, local-survivable failure now restores locally.
        n.inject_failure(FailureKind::LocalSurvivable);
        let r2 = n.restore("app").unwrap();
        assert_eq!(r2.source, RestoreSource::LocalNvm);
        assert_eq!(r2.data, d);
    }

    #[test]
    fn unknown_app_is_rejected() {
        let mut n = node();
        assert!(matches!(
            n.checkpoint("ghost", b"x").unwrap_err(),
            NodeError::UnknownApp(_)
        ));
        assert!(matches!(
            n.restore("ghost").unwrap_err(),
            NodeError::UnknownApp(_)
        ));
    }

    #[test]
    fn uncompressed_drain_config_works() {
        let mut n = ComputeNode::new(NodeConfig {
            codec: None,
            drain_ratio: 1,
            ..NodeConfig::small_test()
        });
        n.register_app("app");
        let d = payload(9, 500_000);
        n.checkpoint("app", &d).unwrap();
        n.drain_all().unwrap();
        n.inject_failure(FailureKind::NodeLoss);
        let r = n.restore("app").unwrap();
        assert_eq!(r.data, d);
    }

    #[test]
    fn drain_ratio_selects_every_kth() {
        let mut n = ComputeNode::new(NodeConfig {
            drain_ratio: 3,
            ..NodeConfig::small_test()
        });
        n.register_app("app");
        for i in 0..9u8 {
            n.checkpoint("app", &payload(i, 100_000)).unwrap();
        }
        n.drain_all().unwrap();
        // Checkpoints 2, 5, 8 drained.
        assert_eq!(n.ndp_stats().drains_completed, 3);
        assert_eq!(n.io().object_count(), 3);
    }

    #[test]
    fn refused_checkpoint_consumes_no_id_and_keeps_the_drain_schedule() {
        // Two slots' worth of NVM, every checkpoint drained: once both
        // slots are locked for draining, the next commit is refused.
        let mut n = ComputeNode::new(NodeConfig {
            nvm_uncompressed: 2 * 100_000,
            drain_ratio: 1,
            ..NodeConfig::small_test()
        });
        n.register_app("app");
        n.checkpoint("app", &payload(0, 100_000)).unwrap();
        n.checkpoint("app", &payload(1, 100_000)).unwrap();
        assert!(matches!(
            n.checkpoint("app", &payload(2, 100_000)).unwrap_err(),
            NodeError::Nvm(NvmError::AllLocked)
        ));
        n.drain_all().unwrap();
        n.checkpoint("app", &payload(2, 100_000)).unwrap();
        assert_eq!(n.restore("app").unwrap().meta.ckpt_id, 2);

        // drain_ratio 3: refusals in between must not shift which
        // committed checkpoints drain (the 3rd, 6th, ...).
        let mut n = ComputeNode::new(NodeConfig {
            nvm_uncompressed: 3 * 100_000,
            drain_ratio: 3,
            ..NodeConfig::small_test()
        });
        n.register_app("app");
        let mut refused = 0;
        for i in 0..12u8 {
            while n.checkpoint("app", &payload(i, 100_000)).is_err() {
                refused += 1;
                n.ndp_step().unwrap();
            }
        }
        n.drain_all().unwrap();
        assert!(refused > 0, "no checkpoint was refused");
        assert_eq!(n.ndp_stats().drains_completed, 4);
        assert_eq!(n.restore("app").unwrap().meta.ckpt_id, 11);
    }

    #[test]
    fn ranks_restore_independently() {
        let mut n = node();
        let r0 = payload(1, 300_000);
        let r1 = payload(2, 300_000);
        n.checkpoint_rank("app", 0, &r0).unwrap();
        n.checkpoint_rank("app", 1, &r1).unwrap();
        assert_eq!(n.restore_rank("app", 0).unwrap().data, r0);
        assert_eq!(n.restore_rank("app", 1).unwrap().data, r1);
    }

    #[test]
    fn virtual_clock_accumulates() {
        let mut n = node();
        n.checkpoint("app", &payload(1, 1 << 20)).unwrap();
        n.checkpoint("app", &payload(2, 1 << 20)).unwrap();
        n.drain_all().unwrap();
        let c = *n.clock();
        assert!(c.host_nvm > 0.0);
        assert!(c.ndp_compute > 0.0);
        assert!(c.io_link > 0.0);
        // NDP time dwarfs host time at these bandwidths (that is the
        // point of the offload).
        assert!(c.background() > c.critical_path());
    }

    #[test]
    fn nvm_wraparound_under_many_checkpoints() {
        // Region fits ~6 checkpoints; take 40 and keep restoring.
        let mut n = ComputeNode::new(NodeConfig {
            nvm_uncompressed: 6 * 120_000,
            drain_ratio: 4,
            ..NodeConfig::small_test()
        });
        n.register_app("app");
        for i in 0..40u8 {
            n.checkpoint("app", &payload(i, 100_000)).unwrap();
            n.drain_all().unwrap();
        }
        assert!(n.nvm().evictions > 0, "wraparound must have evicted");
        let r = n.restore("app").unwrap();
        assert_eq!(r.meta.ckpt_id, 39);
        assert_eq!(r.data, payload(39, 100_000));
    }
}
