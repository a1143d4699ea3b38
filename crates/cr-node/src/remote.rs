//! The remote I/O node: the global-I/O endpoint that receives compressed
//! checkpoint blocks from NDP drains (or whole checkpoints from host
//! writes) and serves them back during recovery.
//!
//! Objects are assembled block-by-block (§4.2.2's "multiple DMA
//! transactions on small blocks"); an object only becomes visible to
//! recovery once *finalized*, mirroring the durability point in the
//! simulator and the analytic model.

use std::collections::HashMap;

use cr_obs::{Bus, Event, EventKind, Source};

use crate::metadata::CheckpointMeta;

/// Identifies a checkpoint object on the remote store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectKey {
    /// Application identifier.
    pub app_id: String,
    /// MPI rank.
    pub rank: u32,
    /// Checkpoint ID.
    pub ckpt_id: u64,
}

impl ObjectKey {
    /// Key for a metadata record.
    pub fn of(meta: &CheckpointMeta) -> Self {
        ObjectKey {
            app_id: meta.app_id.clone(),
            rank: meta.rank,
            ckpt_id: meta.ckpt_id,
        }
    }
}

#[derive(Debug)]
struct RemoteObject {
    meta: CheckpointMeta,
    data: Vec<u8>,
    complete: bool,
    /// CRC-64 accumulated over blocks as they arrive; fixed at
    /// finalize time.
    crc: crate::integrity::Crc64,
    checksum: Option<u64>,
}

/// Errors from remote-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// Appending to or finalizing an object that was never begun.
    NoSuchObject,
    /// Beginning an object that already exists.
    AlreadyExists,
    /// Stored bytes no longer match the finalize-time checksum.
    Corrupt,
    /// Writing to an object that was already finalized (its checksum is
    /// sealed; durable bytes are immutable).
    Sealed,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::NoSuchObject => write!(f, "no such remote object"),
            RemoteError::AlreadyExists => {
                write!(f, "remote object already exists")
            }
            RemoteError::Corrupt => {
                write!(f, "remote object failed checksum verification")
            }
            RemoteError::Sealed => {
                write!(f, "remote object is finalized and immutable")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

/// The remote I/O node.
pub struct IoNode {
    objects: HashMap<ObjectKey, RemoteObject>,
    /// Modeled per-node share of global-I/O bandwidth, bytes/s (for
    /// virtual-time charging by the owner).
    pub bandwidth: f64,
    /// Total bytes received.
    pub bytes_written: u64,
    /// Total bytes served during recovery reads.
    pub bytes_read: u64,
    /// Observability bus (disabled by default; see [`IoNode::set_bus`]).
    bus: Bus,
}

impl IoNode {
    /// Creates a remote node with the given modeled bandwidth.
    pub fn new(bandwidth: f64) -> Self {
        IoNode {
            objects: HashMap::new(),
            bandwidth,
            bytes_written: 0,
            bytes_read: 0,
            bus: Bus::disabled(),
        }
    }

    /// Attaches an observability bus; object begin/seal/abort are
    /// reported on it (keyed by checkpoint id). Disabled by default.
    pub fn set_bus(&mut self, bus: Bus) {
        self.bus = bus;
    }

    /// Starts receiving a checkpoint object.
    pub fn begin(&mut self, meta: CheckpointMeta) -> Result<(), RemoteError> {
        let key = ObjectKey::of(&meta);
        if self.objects.contains_key(&key) {
            return Err(RemoteError::AlreadyExists);
        }
        self.bus.emit_with(|| Event {
            t: 0.0,
            source: Source::Remote,
            kind: EventKind::ObjectBegin { key: key.ckpt_id },
        });
        self.objects.insert(
            key,
            RemoteObject {
                meta,
                data: Vec::new(),
                complete: false,
                crc: crate::integrity::Crc64::new(),
                checksum: None,
            },
        );
        Ok(())
    }

    /// Appends one block to an in-flight object.
    pub fn append_block(
        &mut self,
        key: &ObjectKey,
        block: &[u8],
    ) -> Result<(), RemoteError> {
        let obj = self
            .objects
            .get_mut(key)
            .ok_or(RemoteError::NoSuchObject)?;
        if obj.complete {
            // A finalized object is durable and sealed; accepting more
            // bytes would corrupt it past its checksum.
            return Err(RemoteError::Sealed);
        }
        obj.data.extend_from_slice(block);
        obj.crc.update(block);
        self.bytes_written += block.len() as u64;
        Ok(())
    }

    /// Marks an object durable and recoverable, sealing its checksum.
    pub fn finalize(&mut self, key: &ObjectKey) -> Result<(), RemoteError> {
        let obj = self
            .objects
            .get_mut(key)
            .ok_or(RemoteError::NoSuchObject)?;
        obj.complete = true;
        obj.checksum = Some(obj.crc.finish());
        let bytes = obj.data.len() as u64;
        self.bus.emit_with(|| Event {
            t: 0.0,
            source: Source::Remote,
            kind: EventKind::ObjectSeal {
                key: key.ckpt_id,
                bytes,
            },
        });
        Ok(())
    }

    /// Drops an in-flight (non-finalized) object, e.g. when its drain is
    /// cancelled by a node failure. Finalized objects are durable and
    /// survive.
    pub fn abort_incomplete(&mut self) {
        // Collect-and-sort instead of `retain`: HashMap iteration order
        // is seeded per process, and the abort events must appear on
        // the bus in a reproducible order.
        let mut doomed: Vec<ObjectKey> = self
            .objects
            .iter()
            .filter(|(_, o)| !o.complete)
            .map(|(k, _)| k.clone())
            .collect();
        doomed.sort_by(|a, b| {
            (&a.app_id, a.rank, a.ckpt_id).cmp(&(&b.app_id, b.rank, b.ckpt_id))
        });
        for key in doomed {
            self.objects.remove(&key);
            self.bus.emit_with(|| Event {
                t: 0.0,
                source: Source::Remote,
                kind: EventKind::ObjectAbort { key: key.ckpt_id },
            });
        }
    }

    /// Drops one in-flight object (targeted abort, used when a single
    /// drain is re-driven or cancelled). Returns true if an incomplete
    /// object was removed; finalized objects are durable and are never
    /// touched.
    pub fn abort_object(&mut self, key: &ObjectKey) -> bool {
        match self.objects.get(key) {
            Some(o) if !o.complete => {
                self.objects.remove(key);
                self.bus.emit_with(|| Event {
                    t: 0.0,
                    source: Source::Remote,
                    kind: EventKind::ObjectAbort { key: key.ckpt_id },
                });
                true
            }
            _ => false,
        }
    }

    /// Number of in-flight (non-finalized) objects.
    pub fn incomplete_count(&self) -> usize {
        self.objects.values().filter(|o| !o.complete).count()
    }

    /// Read-only integrity probe: the object's metadata if it is
    /// finalized *and* its bytes still match the sealed checksum. Does
    /// not count as a recovery read (no counters move) — chaos oracles
    /// use this to predict what a restore will find.
    pub fn peek_verified(&self, key: &ObjectKey) -> Option<&CheckpointMeta> {
        let obj = self.objects.get(key)?;
        if !obj.complete {
            return None;
        }
        let expected = obj.checksum?;
        if crate::integrity::Crc64::of(&obj.data) != expected {
            return None;
        }
        Some(&obj.meta)
    }

    /// Reads a finalized object, verifying its checksum first — the
    /// restore path uses this so bit-rot surfaces as an error instead
    /// of silently corrupt application state.
    pub fn read_verified(
        &mut self,
        key: &ObjectKey,
    ) -> Result<(CheckpointMeta, Vec<u8>), RemoteError> {
        let obj = self.objects.get(key).ok_or(RemoteError::NoSuchObject)?;
        if !obj.complete {
            return Err(RemoteError::NoSuchObject);
        }
        let expected = obj.checksum.ok_or(RemoteError::Corrupt)?;
        if crate::integrity::Crc64::of(&obj.data) != expected {
            return Err(RemoteError::Corrupt);
        }
        self.bytes_read += obj.data.len() as u64;
        let obj = self.objects.get(key).expect("checked above");
        Ok((obj.meta.clone(), obj.data.clone()))
    }

    /// Fault injection: flips one bit of a stored object, emulating
    /// disk bit-rot on the I/O nodes.
    pub fn tamper(&mut self, key: &ObjectKey, byte_index: usize) -> bool {
        match self.objects.get_mut(key) {
            Some(obj) if !obj.data.is_empty() => {
                let idx = byte_index % obj.data.len();
                obj.data[idx] ^= 0x01;
                true
            }
            _ => false,
        }
    }

    /// The newest finalized checkpoint of an application rank.
    pub fn latest_complete(&self, app_id: &str, rank: u32) -> Option<ObjectKey> {
        self.objects
            .iter()
            .filter(|(k, o)| {
                o.complete && k.app_id == app_id && k.rank == rank
            })
            .max_by_key(|(k, _)| k.ckpt_id)
            .map(|(k, _)| k.clone())
    }

    /// Number of stored objects (any state).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64) -> CheckpointMeta {
        CheckpointMeta::new("app", 0, id, 100, id)
    }

    #[test]
    fn object_lifecycle() {
        let mut io = IoNode::new(100e6);
        let m = meta(1);
        let key = ObjectKey::of(&m);
        io.begin(m).unwrap();
        io.append_block(&key, b"hello ").unwrap();
        io.append_block(&key, b"world").unwrap();
        // Not visible before finalize.
        assert!(io.peek_verified(&key).is_none());
        assert!(io.latest_complete("app", 0).is_none());
        io.finalize(&key).unwrap();
        let (m2, data) = io.read_verified(&key).unwrap();
        assert_eq!(data, b"hello world");
        assert_eq!(m2.ckpt_id, 1);
        assert_eq!(io.bytes_written, 11);
        assert_eq!(io.bytes_read, 11);
    }

    #[test]
    fn duplicate_begin_rejected() {
        let mut io = IoNode::new(1.0);
        io.begin(meta(1)).unwrap();
        assert_eq!(io.begin(meta(1)).unwrap_err(), RemoteError::AlreadyExists);
    }

    #[test]
    fn append_to_missing_object_rejected() {
        let mut io = IoNode::new(1.0);
        let key = ObjectKey::of(&meta(9));
        assert_eq!(
            io.append_block(&key, b"x").unwrap_err(),
            RemoteError::NoSuchObject
        );
        assert_eq!(io.finalize(&key).unwrap_err(), RemoteError::NoSuchObject);
    }

    #[test]
    fn latest_complete_ignores_incomplete() {
        let mut io = IoNode::new(1.0);
        for id in 1..=3 {
            io.begin(meta(id)).unwrap();
        }
        io.finalize(&ObjectKey::of(&meta(1))).unwrap();
        io.finalize(&ObjectKey::of(&meta(2))).unwrap();
        // #3 incomplete: latest is #2.
        let latest = io.latest_complete("app", 0).unwrap();
        assert_eq!(latest.ckpt_id, 2);
    }

    #[test]
    fn abort_incomplete_keeps_durable_objects() {
        let mut io = IoNode::new(1.0);
        io.begin(meta(1)).unwrap();
        io.finalize(&ObjectKey::of(&meta(1))).unwrap();
        io.begin(meta(2)).unwrap();
        io.abort_incomplete();
        assert_eq!(io.object_count(), 1);
        assert!(io.latest_complete("app", 0).is_some());
    }

    #[test]
    fn abort_incomplete_mid_upload_forgets_partial_bytes() {
        let mut io = IoNode::new(1.0);
        let m = meta(1);
        let key = ObjectKey::of(&m);
        io.begin(m.clone()).unwrap();
        io.append_block(&key, b"half a check").unwrap();
        io.abort_incomplete();
        // The partial object is gone in every observable way...
        assert_eq!(io.object_count(), 0);
        assert_eq!(
            io.read_verified(&key).unwrap_err(),
            RemoteError::NoSuchObject
        );
        assert!(io.peek_verified(&key).is_none());
        assert!(io.latest_complete("app", 0).is_none());
        // ...and the key is reusable: the re-driven drain starts clean.
        io.begin(m).unwrap();
        io.append_block(&key, b"whole thing").unwrap();
        io.finalize(&key).unwrap();
        assert_eq!(io.read_verified(&key).unwrap().1, b"whole thing");
    }

    #[test]
    fn finalize_unknown_key_is_typed_error() {
        let mut io = IoNode::new(1.0);
        let key = ObjectKey::of(&meta(42));
        assert_eq!(io.finalize(&key).unwrap_err(), RemoteError::NoSuchObject);
    }

    #[test]
    fn double_begin_same_key_rejected_even_when_partial() {
        let mut io = IoNode::new(1.0);
        let m = meta(3);
        let key = ObjectKey::of(&m);
        io.begin(m.clone()).unwrap();
        io.append_block(&key, b"partial").unwrap();
        // Second begin must not clobber the in-flight upload.
        assert_eq!(io.begin(m.clone()).unwrap_err(), RemoteError::AlreadyExists);
        io.finalize(&key).unwrap();
        // Nor a finalized one.
        assert_eq!(io.begin(m).unwrap_err(), RemoteError::AlreadyExists);
        assert_eq!(io.read_verified(&key).unwrap().1, b"partial");
    }

    #[test]
    fn append_after_finalize_rejected() {
        let mut io = IoNode::new(1.0);
        let m = meta(4);
        let key = ObjectKey::of(&m);
        io.begin(m).unwrap();
        io.append_block(&key, b"sealed bytes").unwrap();
        io.finalize(&key).unwrap();
        assert_eq!(
            io.append_block(&key, b"junk").unwrap_err(),
            RemoteError::Sealed
        );
        // The durable object is untouched and still verifies.
        let (_, data) = io.read_verified(&key).unwrap();
        assert_eq!(data, b"sealed bytes");
    }

    #[test]
    fn partial_object_is_never_readable() {
        let mut io = IoNode::new(1.0);
        let m = meta(5);
        let key = ObjectKey::of(&m);
        io.begin(m).unwrap();
        io.append_block(&key, b"torn").unwrap();
        assert_eq!(
            io.read_verified(&key).unwrap_err(),
            RemoteError::NoSuchObject
        );
        assert!(io.peek_verified(&key).is_none());
        assert!(io.latest_complete("app", 0).is_none());
        assert_eq!(io.incomplete_count(), 1);
    }

    #[test]
    fn abort_object_is_targeted_and_spares_durable() {
        let mut io = IoNode::new(1.0);
        io.begin(meta(1)).unwrap();
        io.finalize(&ObjectKey::of(&meta(1))).unwrap();
        io.begin(meta(2)).unwrap();
        io.begin(meta(3)).unwrap();
        // Durable objects are never aborted.
        assert!(!io.abort_object(&ObjectKey::of(&meta(1))));
        // Targeted abort removes exactly the requested in-flight object.
        assert!(io.abort_object(&ObjectKey::of(&meta(2))));
        assert!(!io.abort_object(&ObjectKey::of(&meta(2))), "already gone");
        assert_eq!(io.incomplete_count(), 1);
        assert_eq!(io.object_count(), 2);
        assert!(io.peek_verified(&ObjectKey::of(&meta(1))).is_some());
    }

    #[test]
    fn peek_verified_detects_rot_without_counting_a_read() {
        let mut io = IoNode::new(1.0);
        let m = meta(7);
        let key = ObjectKey::of(&m);
        io.begin(m).unwrap();
        io.append_block(&key, b"pristine payload").unwrap();
        io.finalize(&key).unwrap();
        let reads_before = io.bytes_read;
        assert!(io.peek_verified(&key).is_some());
        io.tamper(&key, 3);
        assert!(io.peek_verified(&key).is_none());
        assert_eq!(io.bytes_read, reads_before, "peek must not count reads");
        assert_eq!(io.read_verified(&key).unwrap_err(), RemoteError::Corrupt);
    }

    #[test]
    fn ranks_are_separate() {
        let mut io = IoNode::new(1.0);
        let m0 = CheckpointMeta::new("app", 0, 5, 10, 0);
        let m1 = CheckpointMeta::new("app", 1, 9, 10, 0);
        io.begin(m0.clone()).unwrap();
        io.begin(m1.clone()).unwrap();
        io.finalize(&ObjectKey::of(&m0)).unwrap();
        io.finalize(&ObjectKey::of(&m1)).unwrap();
        assert_eq!(io.latest_complete("app", 0).unwrap().ckpt_id, 5);
        assert_eq!(io.latest_complete("app", 1).unwrap().ckpt_id, 9);
    }
}
