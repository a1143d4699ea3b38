//! The compute node's local NVM, organized as the paper describes
//! (§4.2.1, §4.3): capacity partitioned into **two circular-buffer
//! regions** — one holding uncompressed checkpoints written by the host,
//! one holding compressed checkpoints produced by the NDP. Checkpoints
//! are written FIFO; a checkpoint being drained to global I/O is
//! **locked** so a future checkpoint write cannot overwrite it, and the
//! capacity is unlocked (reusable) once the drain completes.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

use cr_obs::{Bus, Event, EventKind, Source};

use crate::integrity::{granule_crcs, Crc64, GRANULE};
use crate::metadata::CheckpointMeta;

/// Which circular-buffer region a slot lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Host-written uncompressed checkpoints.
    Uncompressed,
    /// NDP-written compressed checkpoints (§4.3's second buffer).
    Compressed,
}

/// Handle to a stored checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub u64);

/// One stored checkpoint.
#[derive(Debug)]
pub struct Slot {
    /// Stable identifier.
    pub id: SlotId,
    /// Checkpoint metadata.
    pub meta: CheckpointMeta,
    /// Payload bytes (compressed iff `meta.codec.is_some()`).
    pub data: Vec<u8>,
    /// Locked against eviction while the NDP drains it.
    pub locked: bool,
    /// CRC-64 of every [`GRANULE`] of `data`, computed at commit time
    /// ([`crate::integrity::granule_crcs`]).
    pub crcs: Vec<u64>,
}

impl Slot {
    /// True if the whole payload still matches its commit-time
    /// checksums.
    pub fn verify(&self) -> bool {
        self.verify_range(0..self.data.len())
    }

    /// True if every granule overlapping `range` still matches its
    /// commit-time checksum. The range is clamped to the payload; an
    /// empty range checks nothing and passes. A granule without a
    /// checksum fails.
    pub fn verify_range(&self, range: Range<usize>) -> bool {
        let end = range.end.min(self.data.len());
        if range.start >= end {
            return true;
        }
        let (first, last) = (range.start / GRANULE, (end - 1) / GRANULE);
        let Some(crcs) = self.crcs.get(first..=last) else {
            return false;
        };
        let stop = ((last + 1) * GRANULE).min(self.data.len());
        self.data[first * GRANULE..stop]
            .chunks(GRANULE)
            .zip(crcs)
            .all(|(granule, &crc)| Crc64::of(granule) == crc)
    }
}

/// Errors from NVM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NvmError {
    /// The payload exceeds the region capacity outright.
    TooLarge {
        /// Requested payload size.
        requested: usize,
        /// Region capacity.
        capacity: usize,
    },
    /// Eviction cannot free enough space because remaining slots are
    /// locked (drains in flight).
    AllLocked,
    /// No slot with the given ID.
    NoSuchSlot,
}

impl fmt::Display for NvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmError::TooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "checkpoint of {requested} bytes exceeds region capacity {capacity}"
            ),
            NvmError::AllLocked => {
                write!(f, "region full of locked (draining) checkpoints")
            }
            NvmError::NoSuchSlot => write!(f, "no such slot"),
        }
    }
}

impl std::error::Error for NvmError {}

/// One circular-buffer region: FIFO slots under a byte capacity.
#[derive(Debug)]
struct RegionBuf {
    capacity: usize,
    used: usize,
    slots: VecDeque<Slot>,
}

impl RegionBuf {
    fn new(capacity: usize) -> Self {
        RegionBuf {
            capacity,
            used: 0,
            slots: VecDeque::new(),
        }
    }

    /// Evicts unlocked slots FIFO until `need` bytes fit. Locked slots
    /// block eviction of everything behind them (circular-buffer
    /// semantics: space reuse is in order).
    fn make_room(&mut self, need: usize) -> Result<Vec<Slot>, NvmError> {
        if need > self.capacity {
            return Err(NvmError::TooLarge {
                requested: need,
                capacity: self.capacity,
            });
        }
        let mut evicted: Vec<Slot> = Vec::new();
        while self.capacity - self.used < need {
            match self.slots.front() {
                None => unreachable!("used > 0 implies a front slot"),
                Some(s) if s.locked => {
                    // Roll back: re-insert evicted slots at the front in
                    // original order.
                    for s in evicted.into_iter().rev() {
                        self.used += s.data.len();
                        self.slots.push_front(s);
                    }
                    return Err(NvmError::AllLocked);
                }
                Some(_) => {
                    let s = self.slots.pop_front().unwrap();
                    self.used -= s.data.len();
                    evicted.push(s);
                }
            }
        }
        Ok(evicted)
    }

    fn push(&mut self, slot: Slot) {
        self.used += slot.data.len();
        self.slots.push_back(slot);
    }
}

/// Upper bound on the buffers one thread's pool keeps for reuse.
const SPARE_CAP: usize = 16;

thread_local! {
    /// Payload buffers retired by every [`NvmStore`] on this thread, by
    /// eviction, [`NvmStore::wipe`] and dropping the store. They serve
    /// the thread's next host commit, partner copy, reseed and remote
    /// restore decode (`take_buffer`), as the paper's NVM is one fixed,
    /// pre-mapped device (§4.3) whose pages are written, not faulted
    /// in, by each checkpoint. Most recently pooled last.
    ///
    /// Measured on a 2-vCPU machine with the repository benchmark's
    /// `ckpt_local` workload (5 pairs of 8 s runs, one CRC pass per
    /// commit), removing the per-store pool this replaced raised
    /// `setup_s` from 51.9 to 60.1 ms (+16 %, higher in every pair)
    /// while lowering `peak_heap_mb` from 168.5 to 160.5 (−4.7 %) and
    /// leaving `op_ms_p50` and `cycle_ms_p50` within 1.3 %, so it stayed.
    /// A per-store pool emptied with its store, so every node a thread
    /// built, and every restore after a node loss, faulted its slots in
    /// again (620–640 minor page faults per 4 MiB commit on average,
    /// 1024 at the median, in `drain_incr`'s pattern). This thread
    /// pool, fed by `wipe` and by dropping a store too, took
    /// `drain_incr`'s `op_ms_p50` from 2.64 to 0.79 ms (10 of 10
    /// alternating 20 s pairs on a 2-vCPU Xeon, seed 1; 2.46 to 0.70 ms
    /// on seed 7) and its `peak_heap_mb` from 31.8 to 33.1.
    static SPARE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Pools a retired payload buffer on this thread, freeing the oldest
/// pooled buffer if the pool is full. During thread teardown the buffer
/// is freed instead.
fn recycle(mut data: Vec<u8>) {
    if data.capacity() == 0 {
        return;
    }
    data.clear();
    let _ = SPARE.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() == SPARE_CAP {
            pool.remove(0);
        }
        pool.push(data);
    });
}

/// Hands out a cleared buffer for an image of `len` bytes: the most
/// recently pooled buffer on this thread that holds `len` bytes without
/// growing (growing would copy its stale capacity), or a new one.
pub(crate) fn take_buffer(len: usize) -> Vec<u8> {
    let pooled = SPARE.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let i = pool.iter().rposition(|b| b.capacity() >= len)?;
        Some(pool.remove(i))
    });
    let mut buf = pooled
        .ok()
        .flatten()
        .unwrap_or_else(|| Vec::with_capacity(len));
    // `recycle` clears before pooling, but the cleared-contract is what
    // keeps stale checkpoint bytes out of a new commit, so enforce it
    // here too rather than trusting every producer.
    buf.clear();
    buf
}

/// The node-local NVM store.
pub struct NvmStore {
    uncompressed: RegionBuf,
    compressed: RegionBuf,
    next_id: u64,
    /// Total evictions performed (wraparound count).
    pub evictions: u64,
    /// Observability bus (disabled by default; see [`NvmStore::set_bus`]).
    bus: Bus,
}

impl NvmStore {
    /// Creates a store with the given per-region byte capacities.
    pub fn new(uncompressed_capacity: usize, compressed_capacity: usize) -> Self {
        NvmStore {
            uncompressed: RegionBuf::new(uncompressed_capacity),
            compressed: RegionBuf::new(compressed_capacity),
            next_id: 1,
            evictions: 0,
            bus: Bus::disabled(),
        }
    }

    /// Attaches an observability bus; evictions and lock contention are
    /// reported on it. The store starts with a disabled bus.
    pub fn set_bus(&mut self, bus: Bus) {
        self.bus = bus;
    }

    fn region_mut(&mut self, r: Region) -> &mut RegionBuf {
        match r {
            Region::Uncompressed => &mut self.uncompressed,
            Region::Compressed => &mut self.compressed,
        }
    }

    fn region(&self, r: Region) -> &RegionBuf {
        match r {
            Region::Uncompressed => &self.uncompressed,
            Region::Compressed => &self.compressed,
        }
    }

    /// Writes a checkpoint into a region, evicting oldest unlocked
    /// checkpoints as needed (circular-buffer reuse). Returns the new
    /// slot ID.
    pub fn write(
        &mut self,
        region: Region,
        meta: CheckpointMeta,
        data: Vec<u8>,
    ) -> Result<SlotId, NvmError> {
        let crcs = granule_crcs(&data);
        self.write_with_crcs(region, meta, data, crcs)
    }

    /// [`NvmStore::write`] for a caller that already holds the
    /// payload's [`granule_crcs`], so the commit does not read it again.
    pub fn write_with_crcs(
        &mut self,
        region: Region,
        meta: CheckpointMeta,
        data: Vec<u8>,
        crcs: Vec<u64>,
    ) -> Result<SlotId, NvmError> {
        assert_eq!(
            crcs.len(),
            data.len().div_ceil(GRANULE),
            "one CRC per granule"
        );
        let evicted = match self.region_mut(region).make_room(data.len()) {
            Ok(evicted) => evicted,
            Err(e) => {
                if e == NvmError::AllLocked {
                    self.bus.emit_with(|| Event {
                        t: 0.0,
                        source: Source::Nvm,
                        kind: EventKind::LockContention,
                    });
                }
                return Err(e);
            }
        };
        self.evictions += evicted.len() as u64;
        for slot in evicted {
            self.bus.emit_with(|| Event {
                t: 0.0,
                source: Source::Nvm,
                kind: EventKind::Eviction {
                    bytes: slot.data.len() as u64,
                },
            });
            recycle(slot.data);
        }
        let id = SlotId(self.next_id);
        self.next_id += 1;
        self.region_mut(region).push(Slot {
            id,
            meta,
            data,
            locked: false,
            crcs,
        });
        Ok(id)
    }

    /// [`NvmStore::write_with_crcs`] of a copy of `data`, made in a
    /// buffer from this thread's pool. The buffer is taken before the
    /// write evicts, so the slots this write evicts serve the next one.
    pub fn write_copy(
        &mut self,
        region: Region,
        meta: CheckpointMeta,
        data: &[u8],
        crcs: Vec<u64>,
    ) -> Result<SlotId, NvmError> {
        let mut buf = take_buffer(data.len());
        buf.extend_from_slice(data);
        self.write_with_crcs(region, meta, buf, crcs)
    }

    /// Looks up a slot by ID in either region.
    pub fn get(&self, id: SlotId) -> Option<&Slot> {
        self.uncompressed
            .slots
            .iter()
            .chain(self.compressed.slots.iter())
            .find(|s| s.id == id)
    }

    fn get_mut(&mut self, id: SlotId) -> Option<&mut Slot> {
        self.uncompressed
            .slots
            .iter_mut()
            .chain(self.compressed.slots.iter_mut())
            .find(|s| s.id == id)
    }

    /// Locks a slot against eviction (drain in progress — §4.2.2).
    pub fn lock(&mut self, id: SlotId) -> Result<(), NvmError> {
        self.get_mut(id)
            .map(|s| s.locked = true)
            .ok_or(NvmError::NoSuchSlot)
    }

    /// Unlocks a slot (drain complete; capacity reusable — §4.2.2).
    pub fn unlock(&mut self, id: SlotId) -> Result<(), NvmError> {
        self.get_mut(id)
            .map(|s| s.locked = false)
            .ok_or(NvmError::NoSuchSlot)
    }

    /// The newest checkpoint of an application rank in a region, by
    /// checkpoint ID.
    pub fn latest(
        &self,
        region: Region,
        app_id: &str,
        rank: u32,
    ) -> Option<&Slot> {
        self.region(region)
            .slots
            .iter()
            .filter(|s| s.meta.app_id == app_id && s.meta.rank == rank)
            .max_by_key(|s| s.meta.ckpt_id)
    }

    /// All slots of a region, oldest first.
    pub fn slots(&self, region: Region) -> impl Iterator<Item = &Slot> {
        self.region(region).slots.iter()
    }

    /// Bytes in use in a region.
    pub fn used(&self, region: Region) -> usize {
        self.region(region).used
    }

    /// Byte capacity of a region.
    pub fn capacity(&self, region: Region) -> usize {
        self.region(region).capacity
    }

    /// Removes a slot outright (used when a spilled compressed block has
    /// been shipped and its capacity can be returned immediately).
    pub fn remove(&mut self, id: SlotId) -> Result<Slot, NvmError> {
        for region in [Region::Uncompressed, Region::Compressed] {
            let buf = self.region_mut(region);
            if let Some(idx) = buf.slots.iter().position(|s| s.id == id) {
                let slot = buf.slots.remove(idx).expect("index in range");
                buf.used -= slot.data.len();
                return Ok(slot);
            }
        }
        Err(NvmError::NoSuchSlot)
    }

    /// Fault injection for tests and chaos drills: flips one bit of a
    /// stored payload, emulating NVM bit-rot. The commit-time checksums
    /// are left untouched so verification catches the damage.
    pub fn tamper(&mut self, id: SlotId, byte_index: usize) -> Result<(), NvmError> {
        let slot = self.get_mut(id).ok_or(NvmError::NoSuchSlot)?;
        let idx = byte_index % slot.data.len().max(1);
        if !slot.data.is_empty() {
            slot.data[idx] ^= 0x01;
        }
        Ok(())
    }

    /// Destroys all contents (node-loss failure). The payload buffers
    /// go to this thread's pool, the image slots last.
    pub fn wipe(&mut self) {
        for region in [&mut self.compressed, &mut self.uncompressed] {
            region.used = 0;
            region.slots.drain(..).for_each(|slot| recycle(slot.data));
        }
    }
}

impl Drop for NvmStore {
    fn drop(&mut self) {
        self.wipe();
    }
}

impl fmt::Debug for NvmStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NvmStore")
            .field("uncompressed_used", &self.uncompressed.used)
            .field("uncompressed_slots", &self.uncompressed.slots.len())
            .field("compressed_used", &self.compressed.used)
            .field("compressed_slots", &self.compressed.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64, size: u64) -> CheckpointMeta {
        CheckpointMeta::new("app", 0, id, size, id)
    }

    #[test]
    fn write_and_read_back() {
        let mut nvm = NvmStore::new(1000, 1000);
        let id = nvm
            .write(Region::Uncompressed, meta(1, 100), vec![9u8; 100])
            .unwrap();
        let slot = nvm.get(id).unwrap();
        assert_eq!(slot.data, vec![9u8; 100]);
        assert_eq!(slot.meta.ckpt_id, 1);
        assert_eq!(nvm.used(Region::Uncompressed), 100);
        assert_eq!(nvm.used(Region::Compressed), 0);
    }

    #[test]
    fn fifo_eviction_on_wraparound() {
        let mut nvm = NvmStore::new(250, 0);
        let a = nvm
            .write(Region::Uncompressed, meta(1, 100), vec![1; 100])
            .unwrap();
        let b = nvm
            .write(Region::Uncompressed, meta(2, 100), vec![2; 100])
            .unwrap();
        // Third checkpoint forces eviction of the oldest (a).
        let c = nvm
            .write(Region::Uncompressed, meta(3, 100), vec![3; 100])
            .unwrap();
        assert!(nvm.get(a).is_none());
        assert!(nvm.get(b).is_some());
        assert!(nvm.get(c).is_some());
        assert_eq!(nvm.evictions, 1);
    }

    #[test]
    fn locked_slots_survive_wraparound() {
        let mut nvm = NvmStore::new(250, 0);
        let a = nvm
            .write(Region::Uncompressed, meta(1, 100), vec![1; 100])
            .unwrap();
        nvm.lock(a).unwrap();
        let _b = nvm
            .write(Region::Uncompressed, meta(2, 100), vec![2; 100])
            .unwrap();
        // No unlocked space: front is locked, write must fail.
        let err = nvm
            .write(Region::Uncompressed, meta(3, 100), vec![3; 100])
            .unwrap_err();
        assert_eq!(err, NvmError::AllLocked);
        // Store intact after the failed write.
        assert!(nvm.get(a).is_some());
        assert_eq!(nvm.used(Region::Uncompressed), 200);
        // Unlock -> the blocked write now succeeds, evicting a.
        nvm.unlock(a).unwrap();
        let c = nvm
            .write(Region::Uncompressed, meta(3, 100), vec![3; 100])
            .unwrap();
        assert!(nvm.get(a).is_none());
        assert!(nvm.get(c).is_some());
    }

    #[test]
    fn oversized_write_rejected_without_eviction() {
        let mut nvm = NvmStore::new(100, 0);
        let a = nvm
            .write(Region::Uncompressed, meta(1, 50), vec![1; 50])
            .unwrap();
        let err = nvm
            .write(Region::Uncompressed, meta(2, 200), vec![2; 200])
            .unwrap_err();
        assert!(matches!(err, NvmError::TooLarge { .. }));
        assert!(nvm.get(a).is_some());
    }

    #[test]
    fn regions_are_independent() {
        let mut nvm = NvmStore::new(100, 100);
        nvm.write(Region::Uncompressed, meta(1, 100), vec![1; 100])
            .unwrap();
        // Compressed region still has room.
        nvm.write(Region::Compressed, meta(1, 80), vec![2; 80])
            .unwrap();
        assert_eq!(nvm.used(Region::Uncompressed), 100);
        assert_eq!(nvm.used(Region::Compressed), 80);
    }

    #[test]
    fn latest_picks_highest_ckpt_id() {
        let mut nvm = NvmStore::new(10_000, 0);
        for i in 1..=5 {
            nvm.write(Region::Uncompressed, meta(i, 10), vec![i as u8; 10])
                .unwrap();
        }
        let latest = nvm.latest(Region::Uncompressed, "app", 0).unwrap();
        assert_eq!(latest.meta.ckpt_id, 5);
        assert!(nvm.latest(Region::Uncompressed, "other", 0).is_none());
        assert!(nvm.latest(Region::Uncompressed, "app", 1).is_none());
    }

    #[test]
    fn wipe_clears_everything() {
        let mut nvm = NvmStore::new(1000, 1000);
        nvm.write(Region::Uncompressed, meta(1, 10), vec![1; 10])
            .unwrap();
        nvm.write(Region::Compressed, meta(1, 10), vec![1; 10])
            .unwrap();
        nvm.wipe();
        assert_eq!(nvm.used(Region::Uncompressed), 0);
        assert_eq!(nvm.used(Region::Compressed), 0);
        assert_eq!(nvm.slots(Region::Uncompressed).count(), 0);
    }

    #[test]
    fn lock_missing_slot_errors() {
        let mut nvm = NvmStore::new(100, 0);
        assert_eq!(nvm.lock(SlotId(99)).unwrap_err(), NvmError::NoSuchSlot);
    }

    /// Empties this thread's pool, so a test sees only what it pools.
    fn clear_pool() {
        SPARE.with(|pool| pool.borrow_mut().clear());
    }

    /// Capacity and address of each pooled buffer, oldest first.
    fn pooled() -> Vec<(usize, *const u8)> {
        SPARE.with(|pool| {
            pool.borrow().iter().map(|b| (b.capacity(), b.as_ptr())).collect()
        })
    }

    /// Pools `n` buffers of `len` bytes of 0xAB, bypassing `recycle`'s
    /// clear, as a producer that forgot to clear would.
    fn dirty_pool(n: usize, len: usize) {
        clear_pool();
        SPARE.with(|pool| pool.borrow_mut().resize(n, vec![0xAB; len]));
    }

    /// A host commit as `ComputeNode::checkpoint_rank` makes it.
    fn commit(nvm: &mut NvmStore, id: u64, data: &[u8]) -> SlotId {
        let meta = meta(id, data.len() as u64);
        nvm.write_copy(Region::Uncompressed, meta, data, granule_crcs(data))
            .unwrap()
    }

    #[test]
    fn evicted_buffers_are_recycled() {
        clear_pool();
        let mut nvm = NvmStore::new(250, 0);
        // Pool starts empty: fresh allocation.
        assert_eq!(take_buffer(0).capacity(), 0);
        nvm.write(Region::Uncompressed, meta(1, 100), vec![1; 100])
            .unwrap();
        nvm.write(Region::Uncompressed, meta(2, 100), vec![2; 100])
            .unwrap();
        // Forces eviction of slot 1; its 100-byte allocation must come
        // back out of the pool, cleared.
        nvm.write(Region::Uncompressed, meta(3, 100), vec![3; 100])
            .unwrap();
        assert_eq!(pooled().len(), 1);
        let buf = take_buffer(100);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 100, "capacity {}", buf.capacity());
        assert!(pooled().is_empty());
    }

    #[test]
    fn write_copy_takes_its_buffer_before_evicting() {
        clear_pool();
        let mut nvm = NvmStore::new(100, 0);
        let old = commit(&mut nvm, 1, &[1; 100]);
        let old = nvm.get(old).unwrap().data.as_ptr();
        // The copy is made in a fresh buffer; the slot it evicts is
        // pooled for the next write, not reused by this one.
        let new = commit(&mut nvm, 2, &[2; 100]);
        assert_ne!(nvm.get(new).unwrap().data.as_ptr(), old);
        assert_eq!(pooled().iter().map(|p| p.1).collect::<Vec<_>>(), [old]);
    }

    #[test]
    fn take_buffer_is_cleared_even_if_the_pool_was_dirtied() {
        // Regression for the documented cleared-buffer contract: a
        // recycled eviction payload must never leak prior checkpoint
        // bytes into a new commit, even if a buffer reached the pool
        // without going through `recycle`'s clear.
        dirty_pool(1, 64);
        let buf = take_buffer(64);
        assert!(buf.is_empty(), "leaked {} stale bytes", buf.len());
        assert!(buf.capacity() >= 64, "recycling lost the allocation");
    }

    #[test]
    fn wiped_and_dropped_buffers_serve_the_next_store_on_the_thread() {
        clear_pool();
        let image = vec![5u8; 1000];
        let mut lost = NvmStore::new(4000, 0);
        let id = commit(&mut lost, 1, &image);
        let slot = lost.get(id).unwrap();
        let wiped = (slot.data.capacity(), slot.data.as_ptr());
        lost.wipe();
        assert_eq!(pooled(), [wiped]);
        let mut next = NvmStore::new(4000, 0);
        let id = commit(&mut next, 1, &image);
        let slot = next.get(id).unwrap();
        assert_eq!((slot.data.capacity(), slot.data.as_ptr()), wiped);
        assert_eq!(slot.data, image);
        drop(next);
        assert_eq!(pooled(), [wiped], "dropping a store pools its slots");
        let mut after = NvmStore::new(4000, 0);
        let id = commit(&mut after, 1, &image);
        let slot = after.get(id).unwrap();
        assert_eq!((slot.data.capacity(), slot.data.as_ptr()), wiped);
        // Another thread has its own pool.
        let other = std::thread::spawn(|| pooled().len()).join().unwrap();
        assert_eq!(other, 0);
    }

    #[test]
    fn a_pooled_buffer_smaller_than_the_image_is_not_used() {
        clear_pool();
        recycle(Vec::with_capacity(1000));
        recycle(Vec::with_capacity(50));
        let pool = pooled();
        // The newest buffer is too small: the older one that fits serves.
        let buf = take_buffer(100);
        assert_eq!((buf.capacity(), buf.as_ptr()), pool[0]);
        assert_eq!(pooled(), [pool[1]]);
        // Nothing fits: a new buffer, the small one stays pooled.
        let buf = take_buffer(100);
        assert!(buf.capacity() >= 100);
        assert_ne!(buf.as_ptr(), pool[1].1);
        assert_eq!(pooled(), [pool[1]]);
        let small = take_buffer(50);
        assert_eq!((small.capacity(), small.as_ptr()), pool[1]);
    }

    #[test]
    fn the_pool_keeps_at_most_spare_cap_buffers_the_newest() {
        clear_pool();
        let mut nvm = NvmStore::new(1 << 20, 0);
        for i in 0..SPARE_CAP as u64 + 5 {
            commit(&mut nvm, i + 1, &vec![1u8; 10 + i as usize]);
        }
        nvm.wipe();
        let pool = pooled();
        assert_eq!(pool.len(), SPARE_CAP);
        // The five oldest slots were freed; the newest is taken first.
        assert_eq!(pool[0].0, 15);
        assert_eq!(pool[SPARE_CAP - 1].0, 10 + SPARE_CAP + 4);
        // Empty buffers own nothing and are not pooled.
        recycle(Vec::new());
        assert_eq!(pooled(), pool);
    }

    #[test]
    fn a_store_dropped_during_thread_teardown_frees_its_buffers() {
        thread_local! {
            static KEPT: RefCell<Option<NvmStore>> =
                const { RefCell::new(None) };
        }
        let teardown = std::thread::spawn(|| {
            KEPT.with(|kept| {
                let mut nvm = NvmStore::new(1000, 0);
                nvm.write(Region::Uncompressed, meta(1, 100), vec![7; 100])
                    .unwrap();
                *kept.borrow_mut() = Some(nvm);
            });
            // Touched after `KEPT`, the pool is torn down before it, so
            // the store's drop finds the pool gone.
            clear_pool();
        });
        assert!(teardown.join().is_ok());
    }

    #[test]
    fn a_dirty_pool_never_leaks_into_a_commit_copy_reseed_or_restore() {
        use crate::node::{
            ComputeNode, FailureKind, NodeConfig, RestoreSource,
        };
        let image: Vec<u8> = (0..300_000).map(|i| (i % 251) as u8).collect();
        let mut node = ComputeNode::new(NodeConfig {
            drain_ratio: 1,
            partner_ratio: 1,
            ..NodeConfig::small_test()
        });
        node.register_app("app");
        let newest = |nvm: &NvmStore| {
            nvm.latest(Region::Uncompressed, "app", 0).unwrap().data.clone()
        };
        // Before each step, every buffer the step can take is dirty.
        dirty_pool(4, 1 << 20);
        node.checkpoint("app", &image).unwrap();
        assert_eq!(newest(node.nvm()), image, "commit");
        assert_eq!(newest(node.partner().unwrap()), image, "partner copy");
        node.drain_all().unwrap();
        for (loss, source) in [
            (FailureKind::NodeLoss, RestoreSource::Partner),
            (FailureKind::PairLoss, RestoreSource::RemoteIo),
        ] {
            node.inject_failure(loss);
            dirty_pool(4, 1 << 20);
            let restored = node.restore("app").unwrap();
            assert_eq!(restored.source, source);
            assert_eq!(restored.data, image, "{source:?} restore");
            assert_eq!(newest(node.nvm()), image, "{source:?} reseed");
        }
    }

    #[test]
    fn failed_eviction_rolls_back_slot_order_exactly() {
        // Mid-eviction lock failure: make_room evicts a and b, then
        // hits locked c and must restore [a, b, c, d] exactly — same
        // order, same ids, same byte accounting.
        let mut nvm = NvmStore::new(400, 0);
        let ids: Vec<SlotId> = (1..=4)
            .map(|i| {
                nvm.write(
                    Region::Uncompressed,
                    meta(i, 100),
                    vec![i as u8; 100],
                )
                .unwrap()
            })
            .collect();
        nvm.lock(ids[2]).unwrap();
        // Needs 300 free: would evict a, b, then hit locked c.
        let err = nvm.uncompressed.make_room(300).unwrap_err();
        assert_eq!(err, NvmError::AllLocked);
        let order: Vec<SlotId> =
            nvm.slots(Region::Uncompressed).map(|s| s.id).collect();
        assert_eq!(order, ids, "rollback must restore FIFO order exactly");
        assert_eq!(nvm.used(Region::Uncompressed), 400);
        assert_eq!(nvm.evictions, 0);
        // Payloads survived the round trip untouched.
        for (i, id) in ids.iter().enumerate() {
            let slot = nvm.get(*id).unwrap();
            assert_eq!(slot.data, vec![(i + 1) as u8; 100]);
            assert!(slot.verify());
        }
        // And the store still works: unlock c, the big write succeeds.
        nvm.unlock(ids[2]).unwrap();
        nvm.write(Region::Uncompressed, meta(9, 300), vec![9; 300])
            .unwrap();
        assert_eq!(nvm.evictions, 3);
    }

    #[test]
    fn eviction_and_contention_events_reach_the_bus() {
        use cr_obs::VecSink;
        let mut nvm = NvmStore::new(250, 0);
        let bus = Bus::with_sink(VecSink::new());
        nvm.set_bus(bus.clone());
        let a = nvm
            .write(Region::Uncompressed, meta(1, 100), vec![1; 100])
            .unwrap();
        nvm.lock(a).unwrap();
        nvm.write(Region::Uncompressed, meta(2, 100), vec![2; 100])
            .unwrap();
        // Front locked: contention event.
        let err = nvm
            .write(Region::Uncompressed, meta(3, 100), vec![3; 100])
            .unwrap_err();
        assert_eq!(err, NvmError::AllLocked);
        nvm.unlock(a).unwrap();
        // Now the write evicts a: eviction event.
        nvm.write(Region::Uncompressed, meta(3, 100), vec![3; 100])
            .unwrap();
        let kinds: Vec<&str> =
            bus.drain().iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, ["lock_contention", "eviction"]);
    }

    #[test]
    fn verify_range_checks_only_the_overlapping_granules() {
        let len = 3 * GRANULE + 100;
        let mut nvm = NvmStore::new(4 * GRANULE, 0);
        let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        let id = nvm
            .write(Region::Uncompressed, meta(1, len as u64), data)
            .unwrap();
        nvm.tamper(id, GRANULE + 5).unwrap();
        let slot = nvm.get(id).unwrap();
        assert!(!slot.verify());
        // Outside the range: granules 0 and 2..4 pass.
        assert!(slot.verify_range(0..GRANULE));
        assert!(slot.verify_range(2 * GRANULE..len));
        assert!(slot.verify_range(GRANULE - 10..GRANULE));
        assert!(slot.verify_range(10..20), "a partial range checks whole granules");
        assert!(slot.verify_range(2 * GRANULE + 1..2 * GRANULE + 2));
        // Inside, or touching the rotten granule by one byte: fails.
        assert!(!slot.verify_range(GRANULE + 5..GRANULE + 6));
        assert!(!slot.verify_range(GRANULE - 10..GRANULE + 1));
        assert!(!slot.verify_range(2 * GRANULE - 1..3 * GRANULE));
        // Ranges past the last byte are clamped, never a panic.
        assert!(slot.verify_range(3 * GRANULE..usize::MAX));
        assert!(slot.verify_range(len..len + GRANULE));
        assert!(slot.verify_range(usize::MAX - 1..usize::MAX));
        assert!(!slot.verify_range(0..usize::MAX));
        // An empty range checks nothing.
        assert!(slot.verify_range(GRANULE + 5..GRANULE + 5));
    }

    #[test]
    fn write_with_crcs_stores_the_callers_granule_crcs() {
        let mut nvm = NvmStore::new(1 << 20, 0);
        let data = vec![7u8; GRANULE + 1];
        let crcs = granule_crcs(&data);
        let id = nvm
            .write_with_crcs(
                Region::Uncompressed,
                meta(1, 0),
                data.clone(),
                crcs.clone(),
            )
            .unwrap();
        assert_eq!(nvm.get(id).unwrap().crcs, crcs);
        assert!(nvm.get(id).unwrap().verify());
        // A CRC vector that does not describe the payload fails verify.
        let id = nvm
            .write_with_crcs(Region::Uncompressed, meta(2, 0), data, vec![0, 0])
            .unwrap();
        assert!(!nvm.get(id).unwrap().verify());
        // So does a slot whose CRC vector is short (fields are public).
        let short = Slot {
            crcs: vec![crcs[0]],
            ..nvm.remove(id).unwrap()
        };
        assert!(!short.verify());
    }

    #[test]
    fn multiple_evictions_for_one_write() {
        let mut nvm = NvmStore::new(300, 0);
        for i in 1..=3 {
            nvm.write(Region::Uncompressed, meta(i, 100), vec![i as u8; 100])
                .unwrap();
        }
        // 250-byte write evicts three 100-byte slots.
        nvm.write(Region::Uncompressed, meta(4, 250), vec![4; 250])
            .unwrap();
        assert_eq!(nvm.evictions, 3);
        assert_eq!(nvm.slots(Region::Uncompressed).count(), 1);
    }
}
