//! The NDP drain engine (§4.2.2, §4.3).
//!
//! Each queued checkpoint is a drain job in one of four phases:
//! `Prepare` (under incremental drains, diff the slot against the rank's
//! previous drain, §7), `Begin` (announce the remote object),
//! `Compress { offset }` (frame one block with [`crate::frame`] and hand
//! it to the NIC; reading the last block unlocks the slot) and `Flush`
//! (wait for the job's blocks to ship, then finalize). Each
//! [`NdpEngine::step`] does one unit of work, in priority order:
//! finalize a fully shipped object, ship the NIC's head block, move a
//! spilled block into the NIC, or compress one block (prepare and begin
//! ride along with a job's first block). Shipping thus overlaps
//! compression block by block (§4.2.2's pipelined DMA transactions).
//! The NDP has several cores (Table 3): a compress step whose job has
//! no frame ready frames the next `WINDOW` blocks at once across
//! [`cr_core::par`] workers, and the window's later steps each take one
//! ready frame. Which steps run, their fault draws and their `VClock`
//! charges are those of one block per step.
//! Under NIC backpressure the engine either stalls (`Pause`) or spills
//! blocks to the NVM's compressed region (`Spill`), the two §4.2.2
//! options. It pauses while the host owns the NVM (§4.2.1) and during
//! recoveries (§4.2.3).
//!
//! A delta is finalized only once its base has left the queue, so the
//! remote store never holds a sealed delta without its base. Transient
//! faults back a job off for `backoff_steps`; after `MAX_ATTEMPTS`
//! failures in a row the drain is cancelled. A codec fault re-drives the
//! drain uncompressed; an NDP or I/O-node crash rewinds it to `Begin`.

use std::collections::{HashMap, VecDeque};

use cr_compress::{Codec, CodecError};
use cr_core::par::{default_threads, par_map_in};
use cr_obs::{Bus, Event, EventKind, Source, SpanGuard};

use crate::faults::{FaultPlane, FaultSite};
use crate::frame;
use crate::incremental::IncrementalEncoder;
use crate::metadata::CheckpointMeta;
use crate::nvm::{NvmStore, Region, SlotId};
use crate::remote::{IoNode, ObjectKey};
use crate::vclock::{VClock, IO_BW, NDP_COMPRESS_BW};

/// Consecutive transient failures a drain job absorbs; one more cancels
/// it.
const MAX_ATTEMPTS: u32 = 4;

/// Blocks a compress step frames ahead of a job, across
/// [`cr_core::par`] workers, when the job has no frame ready. The
/// window's later steps each take one ready frame, so the steps, their
/// fault draws and their charges stay one block each; only the wall
/// time of the codec moves to the window's first step.
///
/// Eight is the smallest window within 7 % of framing a whole 4 MiB
/// image at once: gz(1) drains of the seven mini-app images, 256 KiB
/// blocks, on a 2-vCPU Xeon, took 51.3 ms per image one block at a
/// time and 48.6, 37.5, 32.2 and 30.3 ms with windows of 2, 4, 8 and
/// 16 blocks (medians of 25 rounds).
const WINDOW: usize = 8;

/// Backoff after the first failed attempt, in engine steps.
const BACKOFF_BASE: u64 = 2;

/// Backoff ceiling, in engine steps.
const BACKOFF_CAP: u64 = 64;

/// Backoff before retry number `attempt` (1-based), in engine steps:
/// `BACKOFF_BASE * 2^(attempt-1)`, capped at `BACKOFF_CAP`.
/// Deterministic — no jitter, by design.
fn backoff_steps(attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(16);
    (BACKOFF_BASE << shift).min(BACKOFF_CAP)
}

/// What the NDP does when the NIC buffer is full (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Pause compression until NIC space frees up.
    #[default]
    Pause,
    /// Keep compressing, spilling compressed blocks to the NVM's
    /// compressed region.
    Spill,
}

/// A block waiting in the NIC transmit buffer.
#[derive(Debug)]
struct NicBlock {
    key: ObjectKey,
    data: Vec<u8>,
}

/// Bounded NIC transmit buffer.
#[derive(Debug)]
pub struct NicBuffer {
    queue: VecDeque<NicBlock>,
    capacity: usize,
    /// Test/scenario hook: when true the network refuses traffic,
    /// emulating contention from the application's own communication.
    pub blocked: bool,
}

impl NicBuffer {
    fn new(capacity: usize) -> Self {
        NicBuffer {
            queue: VecDeque::new(),
            capacity,
            blocked: false,
        }
    }

    fn full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Blocks currently queued.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }
}

/// Longest delta chain a remote restore walks, and so the largest
/// [`IncrementalPolicy::max_chain`] an [`NdpEngine`] accepts: a chain
/// the restore would refuse is never drained.
pub const MAX_CHAIN: u32 = 64;

/// Incremental-drain configuration (§7 future work: the NDP diffs
/// consecutive checkpoints and ships only changed blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalPolicy {
    /// Maximum number of consecutive deltas before a full checkpoint is
    /// forced (bounds the restore chain, like video keyframes). At most
    /// [`MAX_CHAIN`].
    pub max_chain: u32,
    /// Diff granularity, bytes.
    pub diff_block: usize,
}

impl Default for IncrementalPolicy {
    fn default() -> Self {
        IncrementalPolicy {
            max_chain: 4,
            diff_block: 64 * 1024,
        }
    }
}

/// Per-(app, rank) incremental drain state.
#[derive(Debug)]
struct IncrState {
    encoder: IncrementalEncoder,
    last_drained_id: u64,
    chain_len: u32,
}

/// Where a drain job is in the protocol (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Source not yet diffed against the rank's previous drain.
    Prepare,
    /// Source prepared; the remote object is not announced yet.
    Begin,
    /// Compressing; `offset` is the next uncompressed byte to read.
    Compress { offset: usize },
    /// All input compressed; blocks ship, then the object is finalized.
    Flush,
}

/// One checkpoint being drained.
#[derive(Debug)]
struct DrainJob {
    slot: SlotId,
    key: ObjectKey,
    meta: CheckpointMeta,
    /// Delta payload when shipping an incremental; `None` streams the
    /// slot's full data.
    delta: Option<Vec<u8>>,
    phase: Phase,
    /// Frames computed ahead of `Compress { offset }`, tagged with the
    /// offset of the block each holds, in order (see [`WINDOW`]).
    ahead: VecDeque<(usize, Vec<u8>)>,
    /// Spilled compressed blocks awaiting shipment, in order.
    spilled: VecDeque<SlotId>,
    /// Number of blocks handed to NIC/spill but not yet shipped.
    unshipped: usize,
    /// Compressed bytes durably appended to the remote object so far
    /// (reported in the drain-complete event).
    shipped_bytes: u64,
    /// Consecutive transient-failure retries charged to this job.
    attempts: u32,
    /// Engine step before which this job is backing off (exclusive).
    blocked_until: u64,
    /// Codec permanently disabled for this job (degraded drain after a
    /// codec fault).
    force_uncompressed: bool,
    /// Causal leaf span covering the job's queue lifetime (enqueue to
    /// finalize/cancel). `None` on a disabled bus — and after close, so
    /// a job can never close its span twice.
    span: Option<SpanGuard>,
}

impl DrainJob {
    /// All blocks durable remotely; only `finalize` remains.
    fn fully_shipped(&self) -> bool {
        self.phase == Phase::Flush
            && self.spilled.is_empty()
            && self.unshipped == 0
    }

    /// Whether the job sits out engine step `now` on a backoff.
    fn backing_off(&self, now: u64) -> bool {
        self.blocked_until > now
    }
}

/// The unit of work one engine step performs, by queue position.
enum Work {
    /// Seal the fully shipped object of a job.
    Finalize(usize),
    /// Ship the NIC's head block, which belongs to this job.
    Ship(usize),
    /// Move this job's oldest spilled block into the NIC.
    Unspill(usize),
    /// Advance this job to `Compress` and compress one block.
    Compress(usize),
    /// Nothing runnable this step.
    Wait,
}

/// Result of one engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// No work queued.
    Idle,
    /// One unit of work done.
    Progress,
    /// A drain finished (object finalized, slot unlocked).
    CompletedDrain(SlotId),
    /// Paused by the host.
    Paused,
    /// Cannot proceed: NIC full under `Pause` policy, or NVM compressed
    /// region full under `Spill`.
    Stalled,
    /// A transient injected fault was absorbed this step: the affected
    /// drain is backing off, being re-driven, or was degraded. The
    /// engine is still live and later steps make progress.
    Retrying,
}

/// Counters for the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NdpStats {
    /// Blocks compressed.
    pub blocks_compressed: u64,
    /// Blocks shipped to the remote node.
    pub blocks_shipped: u64,
    /// Blocks spilled to NVM under backpressure.
    pub blocks_spilled: u64,
    /// Drains completed.
    pub drains_completed: u64,
    /// Drains cancelled by failures.
    pub drains_cancelled: u64,
    /// Drains shipped as incremental deltas rather than full images.
    pub incremental_drains: u64,
    /// Blocks retransmitted after a dropped NIC transfer.
    pub blocks_retransmitted: u64,
    /// Transient remote I/O errors absorbed by retry/backoff.
    pub io_retries: u64,
    /// Drains cancelled after exhausting their retry budget: the
    /// checkpoint stays recoverable locally (and at the partner), but
    /// remote-level coverage degraded for it.
    pub drains_degraded: u64,
    /// NDP engine crashes survived by re-driving in-flight drains.
    pub ndp_crashes: u64,
    /// Drains restarted uncompressed after a codec fault.
    pub codec_fallbacks: u64,
    /// Drains cancelled because their source slot failed integrity
    /// verification: silent NVM rot is never propagated into a remote
    /// object.
    pub drains_source_corrupt: u64,
}

/// Maps a storage-layer error into the engine's error type.
fn io_err(e: impl std::fmt::Display) -> CodecError {
    CodecError::new(e.to_string())
}

/// The drain engine.
pub struct NdpEngine {
    codec: Option<Box<dyn Codec>>,
    policy: BackpressurePolicy,
    block_size: usize,
    /// Blocks framed ahead per window: [`WINDOW`], or 1 in the tests'
    /// serial reference engines.
    window: usize,
    incremental: Option<IncrementalPolicy>,
    incr_state: HashMap<(String, u32), IncrState>,
    /// NIC transmit buffer.
    pub nic: NicBuffer,
    queue: VecDeque<DrainJob>,
    paused: bool,
    next_spill_id: u64,
    /// Event counters.
    pub stats: NdpStats,
    /// Monotonic step counter (the engine's clock; backoff deadlines are
    /// measured against it).
    steps: u64,
    /// Observability bus (disabled by default; see
    /// [`NdpEngine::set_bus`]). Event timestamps are engine steps.
    bus: Bus,
}

impl NdpEngine {
    /// Creates an engine. `codec: None` drains uncompressed;
    /// `incremental: Some(policy)` makes the NDP diff each drained
    /// checkpoint against the previous one of the same rank and ship
    /// only changed blocks, forcing a full image every
    /// `policy.max_chain` deltas (§7 future work).
    pub fn new(
        codec: Option<Box<dyn Codec>>,
        policy: BackpressurePolicy,
        block_size: usize,
        nic_capacity: usize,
        incremental: Option<IncrementalPolicy>,
    ) -> Self {
        assert!(block_size >= 1024, "block size unreasonably small");
        assert!(nic_capacity >= 1);
        assert!(incremental.is_none_or(|p| p.diff_block >= 64));
        assert!(
            incremental.is_none_or(|p| p.max_chain <= MAX_CHAIN),
            "max_chain above the restore bound MAX_CHAIN"
        );
        NdpEngine {
            codec,
            policy,
            block_size,
            window: WINDOW,
            incremental,
            incr_state: HashMap::new(),
            nic: NicBuffer::new(nic_capacity),
            queue: VecDeque::new(),
            paused: false,
            next_spill_id: 0,
            stats: NdpStats::default(),
            steps: 0,
            bus: Bus::disabled(),
        }
    }

    /// Attaches an observability bus; drain lifecycle events
    /// (start/pause/spill/retry/degrade/cancel/complete) are reported
    /// on it, stamped with the engine's step clock. Disabled by
    /// default.
    pub fn set_bus(&mut self, bus: Bus) {
        self.bus = bus;
    }

    /// Host is about to use the NVM: suspend drain work (§4.2.1).
    pub fn pause(&mut self) {
        if !self.paused {
            self.emit(EventKind::DrainPause);
        }
        self.paused = true;
    }

    /// Host released the NVM: drain work may proceed.
    pub fn resume(&mut self) {
        if self.paused {
            self.emit(EventKind::DrainResume);
        }
        self.paused = false;
    }

    /// Emits one event on the bus, stamped with the engine's step clock.
    fn emit(&self, kind: EventKind) {
        self.bus.emit_with(|| Event {
            t: self.steps as f64,
            source: Source::Ndp,
            kind,
        });
    }

    /// Queues a checkpoint slot for draining. The caller must have
    /// locked the slot in NVM.
    pub fn enqueue(&mut self, slot: SlotId, meta: CheckpointMeta) {
        let mut drained_meta = meta.clone();
        if let Some(c) = &self.codec {
            drained_meta = meta.compressed_with(&c.label());
        }
        // Leaf span: concurrent drain jobs are siblings under the
        // caller's scope, never ancestors of one another.
        let span = self.bus.enabled().then(|| {
            self.bus
                .span_leaf(Source::Ndp, "drain_job", self.steps as f64)
        });
        self.emit(EventKind::DrainStart {
            job: slot.0,
            bytes: meta.size,
        });
        self.queue.push_back(DrainJob {
            slot,
            key: ObjectKey::of(&meta),
            meta: drained_meta,
            delta: None,
            phase: Phase::Prepare,
            ahead: VecDeque::new(),
            spilled: VecDeque::new(),
            unshipped: 0,
            shipped_bytes: 0,
            attempts: 0,
            blocked_until: 0,
            force_uncompressed: false,
            span,
        });
    }

    /// Pending drains (including the in-flight head).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Drops all drain state (node-loss failure §4.2.3); the caller
    /// wipes the NVM and aborts incomplete remote objects. Incremental
    /// diff bases die with the node, so the next drain of every rank is
    /// a full checkpoint.
    pub fn reset(&mut self) {
        self.stats.drains_cancelled += self.queue.len() as u64;
        let t = self.steps as f64;
        for job in &mut self.queue {
            if let Some(mut sp) = job.span.take() {
                sp.close(t);
            }
        }
        self.queue.clear();
        self.nic.queue.clear();
        self.incr_state.clear();
        self.paused = false;
    }

    /// Performs one unit of drain work, consulting the fault plane at
    /// every injection site (pass [`FaultPlane::disabled`] for a
    /// fault-free step).
    pub fn step(
        &mut self,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        clock: &mut VClock,
        faults: &mut FaultPlane,
    ) -> Result<StepOutcome, CodecError> {
        if self.paused {
            return Ok(StepOutcome::Paused);
        }
        self.steps += 1;
        faults.tick();
        match self.select() {
            Work::Finalize(pos) => self.finalize(pos, nvm, io, faults),
            Work::Ship(pos) => self.ship(pos, nvm, io, clock, faults),
            Work::Unspill(pos) => self.unspill(pos, nvm),
            Work::Compress(pos) => self.compress(pos, nvm, io, clock, faults),
            Work::Wait => Ok(self.wait()),
        }
    }

    /// Picks this step's work, in priority order: finalize, ship,
    /// unspill, compress. Jobs backing off are skipped; the NIC's head
    /// block waits while its job backs off (blocks ship in order).
    fn select(&self) -> Work {
        let now = self.steps;
        if let Some(pos) = self.queue.iter().position(|j| {
            j.fully_shipped() && !j.backing_off(now) && !self.base_queued(j)
        }) {
            return Work::Finalize(pos);
        }
        let head = self.nic.queue.front().filter(|_| !self.nic.blocked);
        if let Some(head) = head {
            let pos = self
                .queue
                .iter()
                .position(|j| j.key == head.key)
                .expect("every NIC block belongs to a queued drain");
            if !self.queue[pos].backing_off(now) {
                return Work::Ship(pos);
            }
        }
        if !self.nic.full() {
            if let Some(pos) =
                self.queue.iter().position(|j| !j.spilled.is_empty())
            {
                return Work::Unspill(pos);
            }
        }
        match self
            .queue
            .iter()
            .position(|j| j.phase != Phase::Flush && !j.backing_off(now))
        {
            Some(pos) => Work::Compress(pos),
            None => Work::Wait,
        }
    }

    /// Seal-order rule: a delta's base is still queued (not yet sealed
    /// remotely), so the delta must not be sealed before it.
    fn base_queued(&self, job: &DrainJob) -> bool {
        job.meta.base.is_some_and(|base| {
            self.queue.iter().any(|b| {
                b.meta.ckpt_id == base
                    && b.meta.rank == job.meta.rank
                    && b.meta.app_id == job.meta.app_id
            })
        })
    }

    /// Nothing runnable: idle, waiting out a backoff, or stalled on the
    /// NIC.
    fn wait(&self) -> StepOutcome {
        if self.queue.is_empty() {
            StepOutcome::Idle
        } else if self.queue.iter().any(|j| j.backing_off(self.steps)) {
            StepOutcome::Retrying
        } else {
            self.emit(EventKind::DrainStall {
                cause: "nic_backpressure",
            });
            StepOutcome::Stalled
        }
    }

    /// Seals a fully shipped object. Finalization is its own step (and
    /// its own fault site): the remote may crash before the object is
    /// sealed, in which case the whole drain is re-driven idempotently
    /// from the still-locked slot.
    fn finalize(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        faults: &mut FaultPlane,
    ) -> Result<StepOutcome, CodecError> {
        for site in [FaultSite::IoCrash, FaultSite::IoFinalize] {
            if faults.fire(site) {
                return Ok(self.transient_failure(pos, nvm, io, site));
            }
        }
        io.finalize(&self.queue[pos].key).map_err(io_err)?;
        self.stats.drains_completed += 1;
        let mut job = self.queue.remove(pos).expect("finalize position valid");
        self.emit(EventKind::DrainComplete {
            job: job.slot.0,
            bytes_out: job.shipped_bytes,
        });
        if let Some(mut sp) = job.span.take() {
            sp.close(self.steps as f64);
        }
        Ok(StepOutcome::CompletedDrain(job.slot))
    }

    /// Ships the NIC's head block, owned by the job at `pos`.
    fn ship(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        clock: &mut VClock,
        faults: &mut FaultPlane,
    ) -> Result<StepOutcome, CodecError> {
        if faults.fire(FaultSite::NicStall) {
            return Ok(StepOutcome::Retrying);
        }
        if faults.fire(FaultSite::NicDrop) {
            // The transfer was lost in flight: the block stays queued for
            // retransmission, but the link time is spent.
            let len = self.nic.queue.front().map_or(0, |b| b.data.len());
            VClock::charge(&mut clock.io_link, len, IO_BW);
            self.stats.blocks_retransmitted += 1;
            return Ok(StepOutcome::Retrying);
        }
        if faults.fire(FaultSite::IoAppend) {
            let site = FaultSite::IoAppend;
            return Ok(self.transient_failure(pos, nvm, io, site));
        }
        let block = self.nic.queue.pop_front().expect("selected head block");
        let block_len = block.data.len() as u64;
        VClock::charge(&mut clock.io_link, block.data.len(), IO_BW);
        io.append_block(&block.key, &block.data).map_err(io_err)?;
        self.stats.blocks_shipped += 1;
        let job = &mut self.queue[pos];
        job.unshipped -= 1;
        job.shipped_bytes += block_len;
        job.attempts = 0;
        Ok(StepOutcome::Progress)
    }

    /// Moves the job's oldest spilled block into the NIC.
    fn unspill(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
    ) -> Result<StepOutcome, CodecError> {
        let job = &mut self.queue[pos];
        let sid = job.spilled.pop_front().expect("selected a spilled block");
        let slot = nvm.remove(sid).map_err(io_err)?;
        job.unshipped += 1;
        self.nic.queue.push_back(NicBlock {
            key: job.key.clone(),
            data: slot.data,
        });
        Ok(StepOutcome::Progress)
    }

    /// Advances the job at `pos` through `Prepare` and `Begin` (both ride
    /// along with its first block) and compresses one block.
    fn compress(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        clock: &mut VClock,
        faults: &mut FaultPlane,
    ) -> Result<StepOutcome, CodecError> {
        let nic_available = !self.nic.full();
        if !nic_available && self.policy == BackpressurePolicy::Pause {
            self.emit(EventKind::DrainStall {
                cause: "nic_backpressure",
            });
            return Ok(StepOutcome::Stalled);
        }

        // The NDP itself can crash mid-drain: every in-flight drain
        // loses its progress (NIC contents included) and is re-driven
        // from its still-locked slot — idempotently, because the partial
        // remote objects are aborted before the re-drive begins.
        if faults.fire(FaultSite::NdpCrash) {
            self.crash_restart(nvm, io);
            return Ok(StepOutcome::Retrying);
        }

        // Source-integrity gate: a drain reading its slot in place must
        // never propagate silent NVM rot into the remote object. Before
        // every read it checks the granules of the block it is about to
        // read, so every shipped byte was checked just before it was
        // read; rot in a block that has already shipped cannot affect
        // the object. An incremental job still in `Prepare` checks the
        // whole slot, because `prepare` diffs all of it. (Delta jobs
        // snapshot their payload at prepare time, so only that check
        // applies to them.)
        let job = &self.queue[pos];
        if job.delta.is_none() {
            let range = match job.phase {
                Phase::Prepare if self.incremental.is_some() => 0..usize::MAX,
                Phase::Compress { offset } => offset..offset + self.block_size,
                _ => 0..self.block_size,
            };
            if !nvm.get(job.slot).is_some_and(|s| s.verify_range(range)) {
                self.stats.drains_source_corrupt += 1;
                self.cancel_job(pos, nvm, io);
                return Ok(StepOutcome::Retrying);
            }
        }

        if self.queue[pos].phase == Phase::Prepare {
            self.prepare(pos, nvm)?;
        }
        if self.queue[pos].phase == Phase::Begin {
            if faults.fire(FaultSite::IoBegin) {
                let site = FaultSite::IoBegin;
                return Ok(self.transient_failure(pos, nvm, io, site));
            }
            let job = &mut self.queue[pos];
            io.begin(job.meta.clone()).map_err(io_err)?;
            job.phase = Phase::Compress { offset: 0 };
            job.attempts = 0;
        }
        let Phase::Compress { offset } = self.queue[pos].phase else {
            unreachable!("compress selected a {:?} job", self.queue[pos].phase)
        };

        // Codec fault: degrade this drain to uncompressed, re-driven
        // from scratch so the remote object is never mixed-codec.
        let use_codec =
            self.codec.is_some() && !self.queue[pos].force_uncompressed;
        if use_codec && faults.fire(FaultSite::CodecFault) {
            self.degrade_codec(pos, nvm, io);
            return Ok(StepOutcome::Retrying);
        }

        let codec = if use_codec { self.codec.as_deref() } else { None };
        let job = &mut self.queue[pos];
        let slot = match job.delta {
            Some(_) => None,
            None => Some(nvm.get(job.slot).ok_or_else(|| {
                CodecError::new("drain source slot vanished")
            })?),
        };
        let source: &[u8] = match (&job.delta, slot) {
            (Some(d), _) => d,
            (None, Some(slot)) => &slot.data,
            (None, None) => unreachable!("slot fetched for an in-place job"),
        };
        let end = (offset + self.block_size).min(source.len());
        let next = if end == source.len() {
            Phase::Flush
        } else {
            Phase::Compress { offset: end }
        };
        let chunk_len = end - offset;
        if job.ahead.front().map(|&(at, _)| at) != Some(offset) {
            // An uncompressed frame is a copy: nothing to run ahead.
            let depth = if codec.is_some() { self.window } else { 1 };
            let block = self.block_size;
            // The gate above checked this step's block. A later block
            // joins the window only if its granules check now, so a
            // window never reads a block that is already rotten; rot
            // that strikes after this read is caught by that block's own
            // gate before its frame ships.
            let offsets: Vec<usize> = (offset..source.len().max(offset + 1))
                .step_by(block)
                .take(depth)
                .enumerate()
                .take_while(|&(k, at)| {
                    k == 0 || slot.is_none_or(|s| s.verify_range(at..at + block))
                })
                .map(|(_, at)| at)
                .collect();
            let frames = par_map_in(default_threads(), &offsets, |&at| {
                let mut framed = Vec::new();
                let end = (at + block).min(source.len());
                frame::append(&mut framed, &source[at..end], codec);
                framed
            });
            job.ahead = offsets.into_iter().zip(frames).collect();
        }
        let (_, framed) = job.ahead.pop_front().expect("window starts here");
        VClock::charge(&mut clock.ndp_compute, chunk_len, NDP_COMPRESS_BW);

        // Blocks must ship in order: once any block of this job has been
        // spilled, later blocks go to the spill queue too.
        if nic_available && job.spilled.is_empty() {
            job.unshipped += 1;
            let key = job.key.clone();
            self.nic.queue.push_back(NicBlock { key, data: framed });
        } else {
            // Spill policy: park the compressed block in the NVM's
            // compressed region, locked so later spills cannot evict it
            // before it ships.
            self.next_spill_id += 1;
            let spill_meta = CheckpointMeta {
                app_id: format!("__spill__/{}", job.meta.app_id),
                rank: job.meta.rank,
                ckpt_id: job.meta.ckpt_id,
                size: framed.len() as u64,
                taken_at: self.next_spill_id,
                codec: job.meta.codec.clone(),
                base: job.meta.base,
                content_crc: 0,
            };
            let spill_bytes = framed.len() as u64;
            match nvm.write(Region::Compressed, spill_meta, framed) {
                Ok(sid) => {
                    nvm.lock(sid).map_err(io_err)?;
                    job.spilled.push_back(sid);
                    self.stats.blocks_spilled += 1;
                    self.emit(EventKind::DrainSpill { bytes: spill_bytes });
                }
                Err(_) => {
                    // Compressed region full too: genuine stall. The
                    // phase stays put and the frame is gone with the
                    // failed write, so the block is recompressed (with
                    // a fresh window) next time.
                    self.emit(EventKind::DrainStall { cause: "spill_full" });
                    return Ok(StepOutcome::Stalled);
                }
            }
        }
        self.stats.blocks_compressed += 1;
        let job = &mut self.queue[pos];
        job.phase = next;

        // Input fully read: the uncompressed slot may be reused
        // (§4.2.2's unlock arrow) even while blocks remain in flight.
        if next == Phase::Flush {
            nvm.unlock(job.slot).map_err(io_err)?;
        }
        Ok(StepOutcome::Progress)
    }

    /// `Prepare` → `Begin`: under incremental drains, diffs the slot
    /// against the previous drained checkpoint of this rank (§7) and
    /// keeps the delta when the chain may grow.
    fn prepare(
        &mut self,
        pos: usize,
        nvm: &NvmStore,
    ) -> Result<(), CodecError> {
        let job = &mut self.queue[pos];
        if let Some(policy) = self.incremental {
            let slot = nvm
                .get(job.slot)
                .ok_or_else(|| CodecError::new("drain source vanished"))?;
            let state = self
                .incr_state
                .entry((job.meta.app_id.clone(), job.meta.rank))
                .or_insert_with(|| IncrState {
                    encoder: IncrementalEncoder::new(policy.diff_block),
                    last_drained_id: 0,
                    chain_len: 0,
                });
            let want_delta = state.chain_len < policy.max_chain
                && state.encoder.has_base(slot.data.len());
            // The slot's commit-time granule CRCs stand in for the
            // fingerprints' first halves. That is sound only because
            // `compress` has just run `verify_range(0..usize::MAX)` on
            // this slot, in this step: the stored CRCs are the CRCs of
            // the bytes being diffed. A slot that failed that check was
            // cancelled before reaching here.
            let delta =
                state.encoder.encode_with_granule_crcs(&slot.data, &slot.crcs);
            match (want_delta, delta) {
                (true, Some(incr)) => {
                    job.meta = job.meta.incremental_over(state.last_drained_id);
                    job.delta = Some(incr.encode());
                    state.chain_len += 1;
                    self.stats.incremental_drains += 1;
                }
                _ => state.chain_len = 0,
            }
            state.last_drained_id = job.meta.ckpt_id;
        }
        job.phase = Phase::Begin;
        Ok(())
    }

    /// Drops every NIC block belonging to `key`.
    fn drop_nic_blocks(&mut self, key: &ObjectKey) {
        self.nic.queue.retain(|b| b.key != *key);
    }

    /// Charges one transient remote failure at `site` to a job: it backs
    /// off for `backoff_steps`, and is cancelled once it has failed
    /// more than `MAX_ATTEMPTS` times in a row. An I/O-node crash lost
    /// the partial object, so the drain is also re-driven from scratch;
    /// every other site is a retried I/O error.
    fn transient_failure(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        site: FaultSite,
    ) -> StepOutcome {
        let rewind = site == FaultSite::IoCrash;
        if !rewind {
            self.stats.io_retries += 1;
        }
        let job = &mut self.queue[pos];
        job.attempts += 1;
        let attempt = job.attempts;
        let backoff = backoff_steps(attempt);
        job.blocked_until = self.steps + backoff;
        self.emit(EventKind::DrainRetry {
            site: site.name(),
            attempt,
            backoff_steps: backoff,
        });
        if attempt > MAX_ATTEMPTS || (rewind && !self.rewind_job(pos, nvm, io))
        {
            self.cancel_job(pos, nvm, io);
        }
        StepOutcome::Retrying
    }

    /// Rewinds a job to `Begin` so a re-driven drain is idempotent:
    /// aborts the partial remote object and discards its NIC and spilled
    /// blocks (a job still in `Prepare` stays there). Returns false when
    /// the drain source is gone (slot evicted after unlock, no retained
    /// delta) — the caller must cancel instead.
    fn rewind_job(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
        io: &mut IoNode,
    ) -> bool {
        let key = self.queue[pos].key.clone();
        io.abort_object(&key);
        self.drop_nic_blocks(&key);
        for sid in self.queue[pos].spilled.drain(..) {
            let _ = nvm.remove(sid);
        }
        let job = &mut self.queue[pos];
        if job.phase != Phase::Prepare {
            job.phase = Phase::Begin;
        }
        job.ahead.clear();
        job.unshipped = 0;
        job.shipped_bytes = 0;
        if job.delta.is_some() {
            return true;
        }
        if nvm.get(job.slot).is_some() {
            // The slot may have been unlocked at `Flush`; re-lock it so
            // FIFO eviction cannot take the source out from under the
            // re-drive.
            let _ = nvm.lock(job.slot);
            true
        } else {
            false
        }
    }

    /// NDP crash recovery: all in-flight engine state (NIC contents,
    /// per-job progress, partial remote objects) is lost; every queued
    /// drain is re-driven from its slot, or cancelled if the source is
    /// gone.
    fn crash_restart(&mut self, nvm: &mut NvmStore, io: &mut IoNode) {
        self.stats.ndp_crashes += 1;
        self.nic.queue.clear();
        let mut pos = 0;
        while pos < self.queue.len() {
            if self.rewind_job(pos, nvm, io) {
                pos += 1;
            } else {
                // Cancellation may cascade; rescan from the start.
                self.cancel_job(pos, nvm, io);
                pos = 0;
            }
        }
    }

    /// Codec fault: restart the drain uncompressed, or cancel it when
    /// its source is gone.
    fn degrade_codec(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
        io: &mut IoNode,
    ) {
        if self.rewind_job(pos, nvm, io) {
            self.stats.codec_fallbacks += 1;
            let job = &mut self.queue[pos];
            job.force_uncompressed = true;
            job.meta.codec = None;
            let slot = job.slot.0;
            self.emit(EventKind::DrainDegrade { job: slot });
        } else {
            self.cancel_job(pos, nvm, io);
        }
    }

    /// Cancels a drain: the remote object is aborted, spilled and NIC
    /// blocks are reclaimed, and the source slot is unlocked — the
    /// checkpoint remains recoverable at the local (and partner) levels,
    /// so nothing committed is lost, but remote coverage degrades.
    ///
    /// Incremental hygiene: any queued delta prepared after the
    /// cancelled checkpoint chains through it and could never be
    /// restored, so those drains are cancelled too, and the rank's chain
    /// state is reset so its next drain ships a full image.
    fn cancel_job(&mut self, pos: usize, nvm: &mut NvmStore, io: &mut IoNode) {
        let mut job = self.queue.remove(pos).expect("cancel position valid");
        self.scrap_job(&mut job, nvm, io);
        self.incr_state
            .remove(&(job.meta.app_id.clone(), job.meta.rank));
        while let Some(dep) = self.queue.iter().position(|j| {
            j.meta.app_id == job.meta.app_id
                && j.meta.rank == job.meta.rank
                && j.meta.base.is_some()
                && j.meta.ckpt_id > job.meta.ckpt_id
        }) {
            let mut dj = self.queue.remove(dep).expect("dep position valid");
            self.scrap_job(&mut dj, nvm, io);
        }
    }

    /// Releases every resource a cancelled job holds.
    fn scrap_job(
        &mut self,
        job: &mut DrainJob,
        nvm: &mut NvmStore,
        io: &mut IoNode,
    ) {
        io.abort_object(&job.key);
        self.drop_nic_blocks(&job.key);
        for &sid in &job.spilled {
            let _ = nvm.remove(sid);
        }
        let _ = nvm.unlock(job.slot);
        self.stats.drains_cancelled += 1;
        self.stats.drains_degraded += 1;
        self.emit(EventKind::DrainCancel { job: job.slot.0 });
        if let Some(mut sp) = job.span.take() {
            sp.close(self.steps as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlaneConfig;
    use crate::incremental::IncrementalImage;
    use crate::integrity::GRANULE;
    use crate::remote::RemoteError;
    use cr_compress::registry;

    /// An engine wired to its NVM, I/O node, clock and fault plane
    /// (disabled unless a test installs one).
    struct Rig {
        engine: NdpEngine,
        nvm: NvmStore,
        io: IoNode,
        clock: VClock,
        plane: FaultPlane,
    }

    impl Rig {
        fn new(
            policy: BackpressurePolicy,
            codec: bool,
            nic_cap: usize,
        ) -> Self {
            let codec = codec.then(|| registry::by_name("gz", 1).unwrap());
            Rig {
                engine: NdpEngine::new(
                    codec, policy, 4096, nic_cap, None,
                ),
                nvm: NvmStore::new(1 << 22, 1 << 20),
                io: IoNode::new(),
                clock: VClock::default(),
                plane: FaultPlane::disabled(),
            }
        }

        fn with_faults(mut self, cfg: FaultPlaneConfig) -> Self {
            self.plane = FaultPlane::new(cfg);
            self
        }

        fn enqueue(
            &mut self,
            ckpt_id: u64,
            data: Vec<u8>,
        ) -> (SlotId, CheckpointMeta) {
            let meta = CheckpointMeta::new(
                "app",
                0,
                ckpt_id,
                data.len() as u64,
                ckpt_id,
            );
            let slot = self
                .nvm
                .write(Region::Uncompressed, meta.clone(), data)
                .unwrap();
            self.nvm.lock(slot).unwrap();
            self.engine.enqueue(slot, meta.clone());
            (slot, meta)
        }

        fn step(&mut self) -> StepOutcome {
            let Rig {
                engine,
                nvm,
                io,
                clock,
                plane,
            } = self;
            engine.step(nvm, io, clock, plane).unwrap()
        }

        /// Steps until `site` has fired once, within a step budget.
        fn step_until_fired(&mut self, site: FaultSite, budget: usize) {
            for _ in 0..budget {
                self.step();
                if self.plane.count(site) >= 1 {
                    return;
                }
            }
        }

        /// Pumps until idle; a stall is a test failure.
        fn drain(&mut self) {
            for _ in 0..1_000_000 {
                match self.step() {
                    StepOutcome::Idle => return,
                    StepOutcome::Stalled => panic!("unexpected stall"),
                    _ => {}
                }
            }
            panic!("drain did not converge");
        }

        /// The sealed remote object of a drained checkpoint.
        fn object(
            &mut self,
            meta: &CheckpointMeta,
        ) -> (CheckpointMeta, Vec<u8>) {
            let (meta, blob) =
                self.io.read_verified(&ObjectKey::of(meta)).unwrap();
            (meta.clone(), blob.to_vec())
        }
    }

    /// The raw bytes of a framed remote object.
    fn raw(blob: &[u8], codec: Option<&dyn Codec>) -> Vec<u8> {
        let mut out = Vec::new();
        frame::decode(blob, codec, &mut out).unwrap();
        out
    }

    /// A plane that fires at `site` whenever consulted.
    fn armed(seed: u64, site: FaultSite) -> FaultPlaneConfig {
        FaultPlaneConfig::disabled(seed).with(site, 1.0)
    }

    /// Remote object bytes of a fault-free drain of `data`.
    fn reference_blob(policy: BackpressurePolicy, data: Vec<u8>) -> Vec<u8> {
        let mut rig = Rig::new(policy, true, 4);
        let (_, meta) = rig.enqueue(1, data);
        rig.drain();
        rig.object(&meta).1
    }

    #[test]
    fn backoff_grows_and_caps() {
        let steps: Vec<u64> = (1..=7).map(backoff_steps).collect();
        assert_eq!(steps, [2, 4, 8, 16, 32, 64, 64]);
        assert_eq!(backoff_steps(40), 64, "shift clamped, no overflow");
    }

    #[test]
    fn drains_compressed_checkpoint_end_to_end() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        let data = b"checkpoint payload ".repeat(3000);
        let (slot, meta) = rig.enqueue(1, data.clone());
        rig.drain();

        assert_eq!(rig.engine.stats.drains_completed, 1);
        assert!(!rig.nvm.get(slot).unwrap().locked, "slot must unlock");
        let (rmeta, blob) = rig.object(&meta);
        assert_eq!(rmeta.codec.as_deref(), Some("gz(1)"));
        // Framed blocks decompress back to the original bytes.
        let gz = registry::by_name("gz", 1).unwrap();
        assert_eq!(raw(&blob, Some(gz.as_ref())), data);
        // Compressible payload: remote object smaller than input.
        assert!(blob.len() < data.len() / 2);
        assert!(rig.clock.ndp_compute > 0.0 && rig.clock.io_link > 0.0);
    }

    #[test]
    fn uncompressed_drain_preserves_bytes() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, false, 4);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let (_, meta) = rig.enqueue(1, data.clone());
        rig.drain();
        let (rmeta, blob) = rig.object(&meta);
        assert!(rmeta.codec.is_none());
        assert_eq!(raw(&blob, None), data);
    }

    #[test]
    fn pause_blocks_all_progress() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        rig.enqueue(1, vec![1u8; 10_000]);
        rig.engine.pause();
        for _ in 0..10 {
            assert_eq!(rig.step(), StepOutcome::Paused);
        }
        assert_eq!(rig.engine.stats.blocks_compressed, 0);
        rig.engine.resume();
        assert_eq!(rig.step(), StepOutcome::Progress);
    }

    #[test]
    fn nic_blockage_stalls_under_pause_policy() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 2);
        rig.enqueue(1, vec![7u8; 100_000]);
        rig.engine.nic.blocked = true;
        // Fill the NIC, then stall.
        let mut stalls = 0;
        for _ in 0..50 {
            match rig.step() {
                StepOutcome::Stalled => stalls += 1,
                StepOutcome::Progress => {}
                o => panic!("unexpected {o:?}"),
            }
        }
        assert!(stalls > 0);
        assert_eq!(rig.engine.nic.depth(), 2);
        assert_eq!(rig.engine.stats.blocks_spilled, 0);
        // Unblock: everything drains.
        rig.engine.nic.blocked = false;
        rig.drain();
        assert_eq!(rig.engine.stats.drains_completed, 1);
    }

    #[test]
    fn nic_blockage_spills_under_spill_policy() {
        let mut rig = Rig::new(BackpressurePolicy::Spill, true, 2);
        let (_, meta) = rig.enqueue(1, vec![3u8; 100_000]);
        rig.engine.nic.blocked = true;
        // Compression continues past the NIC capacity by spilling.
        for _ in 0..100 {
            if rig.step() == StepOutcome::Stalled {
                break;
            }
        }
        assert!(rig.engine.stats.blocks_spilled > 0, "no spills happened");
        assert!(rig.nvm.used(Region::Compressed) > 0);
        // Unblock: spilled blocks ship in order and the drain finishes.
        rig.engine.nic.blocked = false;
        rig.drain();
        assert_eq!(rig.engine.stats.drains_completed, 1);
        assert_eq!(rig.nvm.used(Region::Compressed), 0, "spills reclaimed");
        assert!(rig.io.peek_verified(&ObjectKey::of(&meta)).is_some());
    }

    #[test]
    fn full_spill_region_stalls_without_losing_the_block() {
        let gz = registry::by_name("gz", 1).unwrap();
        for codec in [None, Some(gz.as_ref())] {
            let mut rig = Rig::new(BackpressurePolicy::Spill, codec.is_some(), 1);
            // A spill region smaller than one framed block.
            rig.nvm = NvmStore::new(1 << 22, 100);
            let data: Vec<u8> = (0..40_000u32).map(|i| (i % 239) as u8).collect();
            let (_, meta) = rig.enqueue(1, data.clone());
            rig.engine.nic.blocked = true;
            // The first block fills the NIC; the second cannot spill, so
            // the step stalls and the job stays at the second block. Its
            // frame went with the failed write, while the frames of later
            // blocks wait in the window.
            assert_eq!(rig.step(), StepOutcome::Progress);
            assert_eq!(rig.step(), StepOutcome::Stalled);
            assert_eq!(rig.step(), StepOutcome::Stalled);
            assert_eq!(rig.engine.stats.blocks_compressed, 1);
            let phase = rig.engine.queue[0].phase;
            assert_eq!(phase, Phase::Compress { offset: 4096 });
            rig.engine.nic.blocked = false;
            rig.drain();
            assert_eq!(rig.engine.stats.blocks_compressed, 10);
            assert_eq!(raw(&rig.object(&meta).1, codec), data);
        }
    }

    #[test]
    fn spilled_blocks_are_never_evicted_by_later_spills() {
        let mut rig = Rig::new(BackpressurePolicy::Spill, false, 1);
        // Room for two framed blocks, not three.
        rig.nvm = NvmStore::new(1 << 22, 10_000);
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 233) as u8).collect();
        let (_, meta) = rig.enqueue(1, data.clone());
        rig.engine.nic.blocked = true;
        let outcomes: Vec<StepOutcome> = (0..4).map(|_| rig.step()).collect();
        assert_eq!(outcomes[3], StepOutcome::Stalled, "{outcomes:?}");
        assert_eq!(rig.engine.stats.blocks_spilled, 2);
        rig.engine.nic.blocked = false;
        rig.drain();
        assert_eq!(raw(&rig.object(&meta).1, None), data);
        assert_eq!(rig.nvm.used(Region::Compressed), 0);
    }

    #[test]
    fn multiple_queued_drains_complete_in_order() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        let metas: Vec<CheckpointMeta> = (1..=3)
            .map(|id| rig.enqueue(id, vec![id as u8; 30_000]).1)
            .collect();
        assert_eq!(rig.engine.backlog(), 3);
        rig.drain();
        assert_eq!(rig.engine.stats.drains_completed, 3);
        for meta in &metas {
            assert!(rig.io.peek_verified(&ObjectKey::of(meta)).is_some());
        }
    }

    #[test]
    fn reset_cancels_pending_drains() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        rig.enqueue(1, vec![5u8; 50_000]);
        rig.enqueue(2, vec![6u8; 50_000]);
        // A little progress, then node loss.
        for _ in 0..3 {
            rig.step();
        }
        rig.engine.reset();
        rig.nvm.wipe();
        rig.io.abort_incomplete();
        assert_eq!(rig.engine.backlog(), 0);
        assert_eq!(rig.engine.stats.drains_cancelled, 2);
        assert_eq!(rig.step(), StepOutcome::Idle);
        assert_eq!(rig.io.object_count(), 0);
    }

    #[test]
    fn idle_engine_reports_idle() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, false, 1);
        assert_eq!(rig.step(), StepOutcome::Idle);
    }

    #[test]
    fn io_crash_before_finalize_is_redriven_idempotently() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4)
            .with_faults(armed(1, FaultSite::IoCrash));
        let data = b"crashy checkpoint ".repeat(4000);
        let (slot, meta) = rig.enqueue(1, data.clone());
        // Pump until the crash-before-finalize fires (the whole drain is
        // rewound), then let the re-drive run clean.
        rig.step_until_fired(FaultSite::IoCrash, 100_000);
        assert_eq!(rig.plane.count(FaultSite::IoCrash), 1, "crash must fire");
        assert_eq!(rig.io.incomplete_count(), 0, "partial object aborted");
        rig.plane.set_active(false);
        rig.drain();
        assert_eq!(rig.engine.stats.drains_completed, 1);
        assert_eq!(rig.engine.stats.drains_cancelled, 0);
        assert!(!rig.nvm.get(slot).unwrap().locked);
        // The re-driven object is bit-identical to a fault-free drain —
        // no duplicate, torn, or double-appended frames.
        assert_eq!(
            rig.object(&meta).1,
            reference_blob(BackpressurePolicy::Pause, data)
        );
    }

    #[test]
    fn ndp_crash_mid_drain_redrives_idempotently() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        let data: Vec<u8> = (0..90_000u32).map(|i| (i % 241) as u8).collect();
        let (slot, meta) = rig.enqueue(1, data.clone());
        // A few clean steps so real progress exists to lose...
        for _ in 0..7 {
            rig.step();
        }
        assert!(rig.engine.stats.blocks_compressed > 0);
        // ...then the engine crashes (the fault fires on the next step
        // that reaches the compress phase; earlier steps may be busy
        // shipping already-compressed blocks).
        rig.plane = FaultPlane::new(armed(2, FaultSite::NdpCrash));
        rig.step_until_fired(FaultSite::NdpCrash, 100);
        assert_eq!(rig.plane.count(FaultSite::NdpCrash), 1);
        assert_eq!(rig.engine.stats.ndp_crashes, 1);
        assert_eq!(rig.io.incomplete_count(), 0, "in-flight object aborted");
        assert_eq!(rig.engine.nic.depth(), 0, "in-flight NIC blocks lost");
        assert!(rig.nvm.get(slot).unwrap().locked, "slot stays locked");
        // Re-driven drain converges to the exact fault-free object.
        rig.plane = FaultPlane::disabled();
        rig.drain();
        assert_eq!(rig.engine.stats.drains_completed, 1);
        assert_eq!(
            rig.object(&meta).1,
            reference_blob(BackpressurePolicy::Pause, data)
        );
    }

    #[test]
    fn append_retry_exhaustion_cancels_gracefully() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4)
            .with_faults(armed(3, FaultSite::IoAppend));
        let (slot, meta) = rig.enqueue(1, vec![9u8; 40_000]);
        // Must degrade, not stall: the pump panics on a stall.
        rig.drain();
        assert_eq!(rig.engine.stats.drains_completed, 0);
        assert_eq!(rig.engine.stats.drains_cancelled, 1);
        assert_eq!(rig.engine.stats.drains_degraded, 1);
        assert_eq!(rig.engine.stats.io_retries, u64::from(MAX_ATTEMPTS) + 1);
        // Graceful: slot unlocked and intact locally, nothing partial
        // left remotely, NIC and spill space reclaimed.
        let s = rig.nvm.get(slot).unwrap();
        assert!(!s.locked);
        assert!(s.verify(), "local copy still pristine");
        assert_eq!(rig.io.incomplete_count(), 0);
        assert_eq!(
            rig.io.read_verified(&ObjectKey::of(&meta)).unwrap_err(),
            RemoteError::NoSuchObject
        );
        assert_eq!(rig.engine.nic.depth(), 0);
        assert_eq!(rig.nvm.used(Region::Compressed), 0);
    }

    #[test]
    fn codec_fault_degrades_to_uncompressed_drain() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4)
            .with_faults(armed(4, FaultSite::CodecFault));
        let data = b"degradable payload ".repeat(2500);
        let (_, meta) = rig.enqueue(1, data.clone());
        // The codec faults once; the drain restarts uncompressed and,
        // with the codec out of the path, completes even though the
        // plane stays armed.
        rig.drain();
        assert_eq!(rig.engine.stats.codec_fallbacks, 1);
        assert_eq!(rig.engine.stats.drains_completed, 1);
        assert_eq!(rig.engine.stats.drains_cancelled, 0);
        let (rmeta, blob) = rig.object(&meta);
        assert!(rmeta.codec.is_none(), "degraded object is uncompressed");
        assert_eq!(raw(&blob, None), data);
    }

    #[test]
    fn nic_drops_force_retransmits_but_bytes_survive() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4).with_faults(
            FaultPlaneConfig::disabled(5)
                .with(FaultSite::NicDrop, 0.4)
                .with(FaultSite::NicStall, 0.2),
        );
        let data = b"lossy link payload ".repeat(3000);
        let (_, meta) = rig.enqueue(1, data.clone());
        rig.drain();
        assert!(rig.engine.stats.blocks_retransmitted > 0, "drops must fire");
        assert_eq!(rig.engine.stats.drains_completed, 1);
        assert_eq!(
            rig.object(&meta).1,
            reference_blob(BackpressurePolicy::Pause, data)
        );
    }

    #[test]
    fn rotten_source_slot_is_never_drained_to_remote() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        let (slot, meta) = rig.enqueue(1, vec![3u8; 50_000]);
        rig.nvm.tamper(slot, 1234).unwrap();
        rig.drain();
        assert_eq!(rig.engine.stats.drains_source_corrupt, 1);
        assert_eq!(rig.engine.stats.drains_completed, 0);
        assert_eq!(
            rig.io.read_verified(&ObjectKey::of(&meta)).unwrap_err(),
            RemoteError::NoSuchObject
        );
        assert_eq!(rig.io.incomplete_count(), 0);
        assert!(!rig.nvm.get(slot).unwrap().locked);
    }

    #[test]
    fn mid_drain_rot_aborts_instead_of_shipping_torn_object() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        let (slot, meta) = rig.enqueue(1, vec![7u8; 90_000]);
        // Let real progress happen, then rot the source mid-drain.
        for _ in 0..5 {
            rig.step();
        }
        assert!(rig.engine.stats.blocks_compressed > 0);
        assert!(
            matches!(rig.engine.queue[0].phase, Phase::Compress { .. }),
            "rot must strike mid-read"
        );
        rig.nvm.tamper(slot, 80_000).unwrap();
        rig.drain();
        assert_eq!(rig.engine.stats.drains_source_corrupt, 1);
        assert_eq!(
            rig.io.read_verified(&ObjectKey::of(&meta)).unwrap_err(),
            RemoteError::NoSuchObject,
            "no torn object"
        );
        assert_eq!(rig.io.incomplete_count(), 0);
    }

    /// `GRANULE`-aligned test image of `granules` granules plus a short
    /// tail, varied enough that every block compresses differently.
    fn granule_image(granules: usize) -> Vec<u8> {
        (0..granules * GRANULE + 1000)
            .map(|i| ((i / 7) % 251) as u8 ^ (i >> 12) as u8)
            .collect()
    }

    /// Steps until the head job reads from at least `offset`.
    fn step_past(rig: &mut Rig, offset: usize) {
        for _ in 0..10_000 {
            if let Phase::Compress { offset: at } = rig.engine.queue[0].phase {
                if at >= offset {
                    return;
                }
            }
            rig.step();
        }
        panic!("drain never reached offset {offset}");
    }

    #[test]
    fn rot_in_an_already_shipped_block_no_longer_cancels() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        let data = granule_image(4);
        let (slot, meta) = rig.enqueue(1, data.clone());
        step_past(&mut rig, 2 * GRANULE);
        // Granule 0 has been read, framed and handed on; rot there can
        // no longer reach the object, so the drain runs to the end.
        rig.nvm.tamper(slot, 100).unwrap();
        rig.drain();
        assert_eq!(rig.engine.stats.drains_source_corrupt, 0);
        assert_eq!(rig.engine.stats.drains_completed, 1);
        assert!(!rig.nvm.get(slot).unwrap().verify(), "the rot is real");
        let gz = registry::by_name("gz", 1).unwrap();
        let (_, blob) = rig.object(&meta);
        assert_eq!(raw(&blob, Some(gz.as_ref())), data, "pre-rot image");
    }

    #[test]
    fn rot_in_a_block_not_yet_read_still_cancels() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        // Blocks of two granules: rot in the second granule of the next
        // block must be caught too.
        rig.engine = NdpEngine::new(
            Some(registry::by_name("gz", 1).unwrap()),
            BackpressurePolicy::Pause,
            2 * GRANULE,
            4,
            None,
        );
        let (slot, meta) = rig.enqueue(1, granule_image(6));
        step_past(&mut rig, 2 * GRANULE);
        rig.nvm.tamper(slot, 3 * GRANULE + 10).unwrap();
        rig.drain();
        assert_eq!(rig.engine.stats.drains_source_corrupt, 1);
        assert_eq!(rig.engine.stats.drains_completed, 0);
        assert_eq!(
            rig.io.read_verified(&ObjectKey::of(&meta)).unwrap_err(),
            RemoteError::NoSuchObject,
            "no torn object"
        );
        assert_eq!(rig.io.incomplete_count(), 0);
        assert!(!rig.nvm.get(slot).unwrap().locked, "slot unlocked");
    }

    #[test]
    fn incremental_prepare_checks_the_whole_slot() {
        let last = 3 * GRANULE + 999;
        for (keyframe, at) in [(false, 0), (false, last), (true, last)] {
            let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
            rig.engine = NdpEngine::new(
                Some(registry::by_name("gz", 1).unwrap()),
                BackpressurePolicy::Pause,
                4096,
                4,
                Some(IncrementalPolicy::default()),
            );
            let mut data = granule_image(3);
            if !keyframe {
                // A drained base, so the rotten checkpoint would be a
                // delta that reads every granule at prepare.
                rig.enqueue(1, data.clone());
                rig.drain();
                data[5] ^= 0xFF;
            }
            let (slot, meta) = rig.enqueue(2, data);
            rig.nvm.tamper(slot, at).unwrap();
            rig.drain();
            let case = format!("keyframe {keyframe}, rot at {at}");
            assert_eq!(rig.engine.stats.drains_source_corrupt, 1, "{case}");
            assert_eq!(rig.engine.stats.incremental_drains, 0, "{case}");
            assert_eq!(
                rig.io.read_verified(&ObjectKey::of(&meta)).unwrap_err(),
                RemoteError::NoSuchObject,
                "{case}"
            );
            assert!(!rig.nvm.get(slot).unwrap().locked, "{case}");
        }
    }

    #[test]
    fn rot_before_prepare_never_reaches_the_fingerprints() {
        let gz = registry::by_name("gz", 1).unwrap();
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        rig.engine = NdpEngine::new(
            Some(registry::by_name("gz", 1).unwrap()),
            BackpressurePolicy::Pause,
            4096,
            4,
            Some(IncrementalPolicy::default()),
        );
        let base = granule_image(3);
        rig.enqueue(1, base.clone());
        rig.drain();
        let mut next = base.clone();
        next[GRANULE + 5] ^= 0xFF;
        // Rot in granule 2, which did not change: its stored CRC, now
        // stale, still equals the base's.
        let (slot, meta) = rig.enqueue(2, next.clone());
        rig.nvm.tamper(slot, 2 * GRANULE + 7).unwrap();
        rig.drain();
        assert_eq!(rig.engine.stats.drains_source_corrupt, 1);
        assert_eq!(rig.engine.stats.incremental_drains, 0);
        assert_eq!(
            rig.io.read_verified(&ObjectKey::of(&meta)).unwrap_err(),
            RemoteError::NoSuchObject,
            "no delta object"
        );
        // Nothing of the rotten slot reached the rank's encoder: the
        // cancel dropped its state, so a clean copy drains as a keyframe,
        // and the next delta matches a fresh encoder's.
        assert!(rig.engine.incr_state.is_empty());
        let (_, meta) = rig.enqueue(3, next.clone());
        rig.drain();
        let (rmeta, blob) = rig.object(&meta);
        assert_eq!(rmeta.base, None);
        assert_eq!(raw(&blob, Some(gz.as_ref())), next);
        let mut last = next.clone();
        last[2 * GRANULE + 7] ^= 0x01;
        let (_, meta) = rig.enqueue(4, last.clone());
        rig.drain();
        assert_eq!(rig.engine.stats.incremental_drains, 1);
        let mut reference = IncrementalEncoder::new(GRANULE);
        reference.encode(&next);
        let want = reference.encode(&last).unwrap();
        let (rmeta, blob) = rig.object(&meta);
        assert_eq!(rmeta.base, Some(3));
        let got = IncrementalImage::decode(&raw(&blob, Some(gz.as_ref())));
        assert_eq!(got.unwrap(), want);
    }

    #[test]
    fn faulty_drains_are_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let mut rig = Rig::new(BackpressurePolicy::Spill, true, 2)
                .with_faults(FaultPlaneConfig::uniform(seed, 0.05));
            let data = b"deterministic chaos ".repeat(2000);
            let (_, meta) = rig.enqueue(1, data);
            rig.drain();
            let blob = rig
                .io
                .read_verified(&ObjectKey::of(&meta))
                .map(|(_, b)| b.to_vec())
                .unwrap_or_default();
            (rig.plane.render_log(), rig.engine.stats, blob)
        };
        let a = run(77);
        let b = run(77);
        assert_eq!(a.0, b.0, "fault logs must replay bit-exactly");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        let c = run(78);
        assert_ne!(a.0, c.0, "different seed, different fault history");
    }

    /// Drain block of the lookahead tests: several windows per image,
    /// and a short last block.
    const LOOKAHEAD_BLOCK: usize = 32 << 10;

    /// Everything a run of drains makes observable: the step outcomes,
    /// the counters, the virtual clock and each sealed object (empty if
    /// none was sealed).
    type Trace = (Vec<StepOutcome>, NdpStats, VClock, Vec<Vec<u8>>);

    /// Drains `images` one after another, as checkpoints 1, 2, ..., on an
    /// engine framing `window` blocks ahead.
    fn drain_trace(
        codec: Option<(&str, u32)>,
        policy: BackpressurePolicy,
        incremental: Option<IncrementalPolicy>,
        faults: FaultPlaneConfig,
        window: usize,
        images: &[Vec<u8>],
    ) -> Trace {
        let mut rig = Rig::new(policy, false, 2).with_faults(faults);
        let codec = codec.map(|(name, level)| registry::by_name(name, level).unwrap());
        rig.engine =
            NdpEngine::new(codec, policy, LOOKAHEAD_BLOCK, 2, incremental);
        rig.engine.window = window;
        rig.nvm = NvmStore::new(16 << 20, 1 << 20);
        let (mut outcomes, mut blobs) = (Vec::new(), Vec::new());
        for (id, image) in (1..).zip(images) {
            let (_, meta) = rig.enqueue(id, image.clone());
            while outcomes.len() < 1_000_000 {
                let outcome = rig.step();
                outcomes.push(outcome);
                if outcome == StepOutcome::Idle {
                    break;
                }
            }
            let sealed = rig.io.read_verified(&ObjectKey::of(&meta));
            blobs.push(sealed.map(|(_, b)| b.to_vec()).unwrap_or_default());
        }
        (outcomes, rig.engine.stats, rig.clock, blobs)
    }

    /// The seven mini-app images, each a few windows long.
    fn mini_app_images() -> Vec<Vec<u8>> {
        use cr_workloads::{all_mini_apps, CheckpointGenerator};
        all_mini_apps()
            .iter()
            .zip(11..)
            .map(|(app, seed)| app.generate(10 * LOOKAHEAD_BLOCK + 777, seed))
            .collect()
    }

    #[test]
    fn lookahead_drains_match_the_serial_engine() {
        let images = mini_app_images();
        let pause = BackpressurePolicy::Pause;
        for codec in [Some(("gz", 1)), Some(("lzf", 1)), None] {
            let clean = FaultPlaneConfig::disabled(0);
            let run = |w| drain_trace(codec, pause, None, clean, w, &images);
            let ahead = run(WINDOW);
            assert_eq!(ahead, run(1), "{codec:?}");
            // The objects are the blocks framed one by one.
            let c = codec.map(|(name, level)| registry::by_name(name, level).unwrap());
            for (image, blob) in images.iter().zip(&ahead.3) {
                let mut want = Vec::new();
                for block in image.chunks(LOOKAHEAD_BLOCK) {
                    frame::append(&mut want, block, c.as_deref());
                }
                assert_eq!(*blob, want, "{codec:?}");
            }
            assert_eq!(ahead.1.drains_completed, 7, "{codec:?}");
        }
        // Under faults and both backpressure policies the engines draw
        // the same faults at the same steps, so everything still agrees.
        for (policy, seed) in [(pause, 21), (BackpressurePolicy::Spill, 22)] {
            let faults = FaultPlaneConfig::uniform(seed, 0.03);
            let gz = Some(("gz", 1));
            let run = |w| drain_trace(gz, policy, None, faults, w, &images);
            let ahead = run(WINDOW);
            assert_eq!(ahead, run(1), "{policy:?}");
            assert!(ahead.1.codec_fallbacks + ahead.1.ndp_crashes > 0);
        }
    }

    #[test]
    fn lookahead_incremental_chain_matches_the_serial_engine() {
        let mut image = mini_app_images().swap_remove(2);
        let mut chain = vec![image.clone()];
        for round in 0..5u8 {
            let at = (usize::from(round) * 7 + 3) * 4096 % image.len();
            image[at] ^= 0xA5;
            chain.push(image.clone());
        }
        let policy = IncrementalPolicy {
            max_chain: 3,
            diff_block: 4096,
        };
        let clean = FaultPlaneConfig::disabled(0);
        let pause = BackpressurePolicy::Pause;
        let run = |w| {
            drain_trace(Some(("lzf", 1)), pause, Some(policy), clean, w, &chain)
        };
        let ahead = run(WINDOW);
        assert_eq!(ahead, run(1));
        assert_eq!(ahead.1.incremental_drains, 4, "a keyframe after three deltas");
    }

    /// Drains `granule_image(12)` in blocks of one granule, rotting
    /// `rot_at` once the engine has taken `steps_before` steps; returns
    /// the outcomes, the counters, the frames the job holds ahead just
    /// after the rot, and the engine step that cancelled the drain.
    fn rotten_drain(
        window: usize,
        steps_before: usize,
        rot_at: usize,
    ) -> (Vec<StepOutcome>, NdpStats, Vec<usize>, u64) {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        let gz = registry::by_name("gz", 1).unwrap();
        rig.engine = NdpEngine::new(
            Some(gz),
            BackpressurePolicy::Pause,
            GRANULE,
            4,
            None,
        );
        rig.engine.window = window;
        let (slot, meta) = rig.enqueue(1, granule_image(12));
        let mut outcomes: Vec<StepOutcome> =
            (0..steps_before).map(|_| rig.step()).collect();
        rig.nvm.tamper(slot, rot_at).unwrap();
        let ahead = rig.engine.queue[0].ahead.iter().map(|&(at, _)| at).collect();
        let mut cancelled_at = None;
        while outcomes.last() != Some(&StepOutcome::Idle) {
            outcomes.push(rig.step());
            if rig.engine.stats.drains_source_corrupt == 1 {
                cancelled_at.get_or_insert(rig.engine.steps);
            }
        }
        assert_eq!(
            rig.io.read_verified(&ObjectKey::of(&meta)).unwrap_err(),
            RemoteError::NoSuchObject,
            "no torn object"
        );
        let cancelled_at = cancelled_at.expect("the rot cancels the drain");
        (outcomes, rig.engine.stats, ahead, cancelled_at)
    }

    #[test]
    fn rot_after_its_window_is_framed_cancels_at_the_serial_step() {
        // One step frames blocks 0 to 7 and hands block 0 on; block 3
        // then rots while its frame waits in the window.
        let rot_at = 3 * GRANULE + 10;
        let (outcomes, stats, ahead, at) = rotten_drain(WINDOW, 1, rot_at);
        let want: Vec<usize> = (1..WINDOW).map(|k| k * GRANULE).collect();
        assert_eq!(ahead, want);
        let serial = rotten_drain(1, 1, rot_at);
        assert_eq!((&outcomes, stats, at), (&serial.0, serial.1, serial.3));
        // Blocks 0 to 2 shipped; the stale frame of block 3 never did.
        assert_eq!(stats.blocks_shipped, 3);
        assert_eq!(stats.blocks_compressed, 3);
    }

    #[test]
    fn rot_before_its_window_is_framed_stops_the_window() {
        let rot_at = 5 * GRANULE + 10;
        let (outcomes, stats, ahead, at) = rotten_drain(WINDOW, 0, rot_at);
        assert!(ahead.is_empty(), "nothing framed before the first step");
        let serial = rotten_drain(1, 0, rot_at);
        assert_eq!((&outcomes, stats, at), (&serial.0, serial.1, serial.3));
        assert_eq!(stats.blocks_shipped, 5);
        // After the first step the window holds blocks 1 to 4: it stops
        // before the rotten block 5.
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        rig.engine = NdpEngine::new(
            Some(registry::by_name("gz", 1).unwrap()),
            BackpressurePolicy::Pause,
            GRANULE,
            4,
            None,
        );
        let (slot, _) = rig.enqueue(1, granule_image(12));
        rig.nvm.tamper(slot, rot_at).unwrap();
        assert_eq!(rig.step(), StepOutcome::Progress);
        let ahead: Vec<usize> =
            rig.engine.queue[0].ahead.iter().map(|&(at, _)| at).collect();
        assert_eq!(ahead, [1, 2, 3, 4].map(|k| k * GRANULE));
    }

    #[test]
    fn rewinds_and_degrades_clear_the_window() {
        let mut rig = Rig::new(BackpressurePolicy::Pause, true, 4);
        let data = granule_image(2);
        let (_, meta) = rig.enqueue(1, data.clone());
        assert_eq!(rig.step(), StepOutcome::Progress);
        assert!(!rig.engine.queue[0].ahead.is_empty());
        // The codec faults on the next compress step: the drain restarts
        // uncompressed, so no gz frame of the old window may ship.
        rig.plane = FaultPlane::new(armed(6, FaultSite::CodecFault));
        rig.step_until_fired(FaultSite::CodecFault, 10);
        assert_eq!(rig.engine.stats.codec_fallbacks, 1);
        assert!(rig.engine.queue[0].ahead.is_empty());
        rig.plane = FaultPlane::disabled();
        rig.drain();
        let (rmeta, blob) = rig.object(&meta);
        assert!(rmeta.codec.is_none());
        assert_eq!(raw(&blob, None), data);
    }
}
