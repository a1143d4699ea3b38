//! Global, lock-free per-stage profiling for the checkpoint hot path.
//!
//! The codec pipeline the paper cares about has four stages:
//! **tokenize** (LZ matching), **entropy** (Huffman coding), **frame**
//! (building `[raw][comp][payload]` NDP frames), and **ship** (NIC →
//! I/O node). This module accumulates wall time and byte counts per
//! stage into process-global atomics, so instrumentation works
//! unchanged from `ParallelCodec` worker threads, and costs one relaxed
//! atomic load when disabled (the default). The model plane (analytic
//! solver, simulator) is not profiled here.
//!
//! Timing is observational only — nothing in the workspace reads these
//! counters to make a decision — so enabling the profiler cannot
//! change any computed result.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A hot-path pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// LZ match-finding over an input block.
    Tokenize,
    /// Entropy (Huffman) coding of the token stream.
    Entropy,
    /// Building framed NDP output (`[u32 raw][u32 comp][payload]`).
    Frame,
    /// Shipping frames over the NIC to the I/O node.
    Ship,
}

/// Total number of stages tracked.
pub const STAGE_COUNT: usize = 4;

/// All stages, in pipeline order.
pub const STAGES: [Stage; STAGE_COUNT] =
    [Stage::Tokenize, Stage::Entropy, Stage::Frame, Stage::Ship];

impl Stage {
    /// Stable lower-case name (JSON key in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Tokenize => "tokenize",
            Stage::Entropy => "entropy",
            Stage::Frame => "frame",
            Stage::Ship => "ship",
        }
    }

    fn idx(self) -> usize {
        match self {
            Stage::Tokenize => 0,
            Stage::Entropy => 1,
            Stage::Frame => 2,
            Stage::Ship => 3,
        }
    }
}

struct Profile {
    enabled: AtomicBool,
    calls: [AtomicU64; STAGE_COUNT],
    nanos: [AtomicU64; STAGE_COUNT],
    bytes: [AtomicU64; STAGE_COUNT],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static PROFILE: Profile = Profile {
    enabled: AtomicBool::new(false),
    calls: [ZERO; STAGE_COUNT],
    nanos: [ZERO; STAGE_COUNT],
    bytes: [ZERO; STAGE_COUNT],
};

/// Turns the profiler on or off (process-global).
pub fn set_enabled(on: bool) {
    PROFILE.enabled.store(on, Ordering::Relaxed);
}

/// True if the profiler is on.
pub fn is_enabled() -> bool {
    PROFILE.enabled.load(Ordering::Relaxed)
}

/// Zeroes every stage counter (leaves the enable flag alone).
pub fn reset() {
    for i in 0..STAGE_COUNT {
        PROFILE.calls[i].store(0, Ordering::Relaxed);
        PROFILE.nanos[i].store(0, Ordering::Relaxed);
        PROFILE.bytes[i].store(0, Ordering::Relaxed);
    }
}

/// Records a completed stage execution directly (used by [`StageTimer`]
/// and by call sites that already know the elapsed time).
pub fn record(stage: Stage, nanos: u64, bytes: u64) {
    let i = stage.idx();
    PROFILE.calls[i].fetch_add(1, Ordering::Relaxed);
    PROFILE.nanos[i].fetch_add(nanos, Ordering::Relaxed);
    PROFILE.bytes[i].fetch_add(bytes, Ordering::Relaxed);
}

/// Starts a scoped timer for `stage`, or `None` when the profiler is
/// disabled — the disabled path is a single relaxed load. Attribute
/// bytes with [`StageTimer::add_bytes`]; the elapsed time is recorded
/// on drop.
pub fn timer(stage: Stage) -> Option<StageTimer> {
    if !is_enabled() {
        return None;
    }
    Some(StageTimer {
        stage,
        start: Instant::now(),
        bytes: 0,
    })
}

/// A scoped stage timer: measures from construction to drop.
#[derive(Debug)]
pub struct StageTimer {
    stage: Stage,
    start: Instant,
    bytes: u64,
}

impl StageTimer {
    /// Attributes `n` processed bytes to this stage execution.
    pub fn add_bytes(&mut self, n: u64) {
        self.bytes += n;
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        record(self.stage, nanos, self.bytes);
    }
}

/// A point-in-time copy of one stage's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSnap {
    /// Which stage.
    pub stage: Stage,
    /// Completed executions.
    pub calls: u64,
    /// Total wall nanoseconds across executions (summed over threads,
    /// so overlapping workers can exceed wall time).
    pub nanos: u64,
    /// Total bytes attributed.
    pub bytes: u64,
}

impl StageSnap {
    /// Decimal-MB/s throughput of this stage (division-safe).
    pub fn mb_per_s(&self) -> f64 {
        crate::units::mb_per_s(self.bytes, self.nanos as f64 / 1e9)
    }
}

/// Snapshot of all stages, in [`STAGES`] order.
pub fn snapshot() -> [StageSnap; STAGE_COUNT] {
    let mut out = [StageSnap {
        stage: Stage::Tokenize,
        calls: 0,
        nanos: 0,
        bytes: 0,
    }; STAGE_COUNT];
    for (slot, stage) in out.iter_mut().zip(STAGES) {
        let i = stage.idx();
        *slot = StageSnap {
            stage,
            calls: PROFILE.calls[i].load(Ordering::Relaxed),
            nanos: PROFILE.nanos[i].load(Ordering::Relaxed),
            bytes: PROFILE.bytes[i].load(Ordering::Relaxed),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global, so the tests that mutate it run
    // under one lock to stay independent of test-thread scheduling.
    use std::sync::Mutex;
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_profiler_hands_out_no_timers() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        assert!(timer(Stage::Tokenize).is_none());
    }

    #[test]
    fn timer_records_calls_bytes_and_time() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        {
            let mut t = timer(Stage::Frame).expect("enabled");
            t.add_bytes(100);
        }
        record(Stage::Frame, 500, 50);
        set_enabled(false);
        let snap = snapshot();
        let frame = snap.iter().find(|s| s.stage == Stage::Frame).unwrap();
        assert_eq!(frame.calls, 2);
        assert_eq!(frame.bytes, 150);
        assert!(frame.nanos >= 500);
        // Untouched stages stay zero.
        let ship = snap.iter().find(|s| s.stage == Stage::Ship).unwrap();
        assert_eq!(ship.calls, 0);
    }

    #[test]
    fn snapshot_throughput_is_division_safe() {
        let s = StageSnap {
            stage: Stage::Ship,
            calls: 0,
            nanos: 0,
            bytes: 0,
        };
        assert_eq!(s.mb_per_s(), 0.0);
        let s2 = StageSnap {
            stage: Stage::Ship,
            calls: 1,
            nanos: 0,
            bytes: 10,
        };
        assert!(s2.mb_per_s().is_infinite());
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["tokenize", "entropy", "frame", "ship"]);
    }
}
