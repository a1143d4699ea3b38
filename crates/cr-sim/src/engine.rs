//! The discrete-event engine: host timeline, NDP drain pipeline, failure
//! injection, and per-second bucket accounting.
//!
//! The engine executes the operational rules of §4.2 of the paper:
//!
//! * All checkpoints are committed to local NVM on the host's critical
//!   path (`δ_local`); every k-th is additionally made durable on global
//!   I/O — synchronously by the host (`Local + I/O-Host`) or
//!   asynchronously by the NDP drain pipeline (`Local + I/O-NDP`).
//! * The NDP drain progresses only while the host computes: it pauses
//!   while the host owns the NVM for a commit (§4.2.1) and during any
//!   recovery (§4.2.3).
//! * A failure destroys in-flight work. With probability `p_local` the
//!   failure is survivable from locally-saved checkpoints; otherwise
//!   node-local state (including pending drains) is lost and recovery
//!   must restore from the last I/O-durable checkpoint.
//! * Restores are interruptible activities; a failure during a restore is
//!   a fresh failure with a fresh survivability draw.
//!
//! Time accounting: every simulated second lands in exactly one bucket of
//! [`Breakdown`]. Compute seconds that re-execute previously completed
//! work are *rerun*, attributed to the recovery level that caused the
//! deficit (proportionally, when deficits from both levels overlap).

use std::collections::VecDeque;

use cr_core::breakdown::Breakdown;
use cr_core::params::{derive_costs, DerivedCosts, Strategy, SystemParams};

use cr_obs::stage::{self, Stage};
use cr_obs::{Bus, Event, EventKind, Source};

use crate::rng::{Stream, StreamKind};
use crate::trace::{Lane, MarkKind, SpanKind};

/// Controls simulation length and reproducibility.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Replica seed; equal seeds give identical runs.
    pub seed: u64,
    /// Keep simulating until at least this many failures were injected.
    pub min_failures: u64,
    /// ... and at least this much useful work completed, seconds.
    pub min_work: f64,
    /// Safety stop: never simulate past this much wall-clock time.
    pub max_wall: f64,
}

impl SimOptions {
    /// Short run for unit tests and smoke checks (~300 failures).
    pub fn quick(seed: u64) -> Self {
        SimOptions {
            seed,
            min_failures: 300,
            min_work: 0.0,
            max_wall: 1e12,
        }
    }

    /// Standard run giving tight estimates (~3000 failures).
    pub fn standard(seed: u64) -> Self {
        SimOptions {
            seed,
            min_failures: 3000,
            min_work: 0.0,
            max_wall: 1e12,
        }
    }
}

/// Injected-fault configuration for a simulation replica.
///
/// This mirrors the functional emulation's `FaultPlane` at the analytic
/// granularity the discrete sim works in: instead of torn frames and NIC
/// drops it models their *observable consequences* — a survivable failure
/// whose local copy turns out to be corrupt (so recovery escalates to the
/// I/O level, tying the effective §6.1.1 `p_local` to a mechanism), and
/// drain commits that hit transient I/O errors (bounded retries, then the
/// drain is abandoned and coverage degrades to the local level).
///
/// The default is all-zero probabilities, and zero-probability sites draw
/// **no** random numbers, so a default `SimFaults` run is bit-identical
/// to a fault-free [`crate::simulate`] with the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFaults {
    /// Probability that a survivable failure finds its local checkpoint
    /// corrupted on read (detected by verification, recovery escalates
    /// to the I/O level).
    pub p_local_corrupt: f64,
    /// Probability that a completing NDP drain hits a transient I/O
    /// error and must retry.
    pub p_drain_error: f64,
    /// Extra drain time (seconds) charged per retry.
    pub drain_retry_penalty: f64,
    /// Retries after which an erroring drain is abandoned (the
    /// checkpoint stays covered by the local level only).
    pub max_drain_retries: u32,
}

impl Default for SimFaults {
    fn default() -> Self {
        SimFaults {
            p_local_corrupt: 0.0,
            p_drain_error: 0.0,
            drain_retry_penalty: 5.0,
            max_drain_retries: 3,
        }
    }
}

/// Counters describing what happened during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated wall-clock time, seconds.
    pub wall_time: f64,
    /// Net useful work completed, seconds.
    pub work_done: f64,
    /// Failures injected.
    pub failures: u64,
    /// Recoveries that completed from locally-saved checkpoints.
    pub recoveries_local: u64,
    /// Recoveries that completed from I/O-saved checkpoints.
    pub recoveries_io: u64,
    /// Restore attempts interrupted by further failures.
    pub restores_interrupted: u64,
    /// Local checkpoint commits completed.
    pub local_ckpts: u64,
    /// I/O checkpoint commits completed (host writes or NDP drains).
    pub io_ckpts: u64,
    /// NDP drain jobs cancelled by node-loss failures.
    pub drains_cancelled: u64,
    /// Survivable failures whose local copy was injected-corrupt, forcing
    /// an I/O-level recovery.
    pub local_corruptions: u64,
    /// Transient drain-commit errors that were retried.
    pub drain_retries: u64,
    /// Drains abandoned after exhausting their retry budget.
    pub drains_degraded: u64,
    /// Largest NDP drain backlog observed.
    pub max_drain_queue: usize,
    /// True if the run hit `max_wall` before meeting its targets.
    pub truncated: bool,
}

/// Result of one simulation replica.
#[derive(Debug, Clone, Copy)]
pub struct SimResult {
    /// Wall-time decomposition (sums to `stats.wall_time`).
    pub breakdown: Breakdown,
    /// Event counters.
    pub stats: SimStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Completed,
    Interrupted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    CkptLocal,
    CkptIo,
    RestoreLocal,
    RestoreIo,
}

/// A checkpoint queued for NDP drain: its work content and the drain
/// time still needed.
#[derive(Debug, Clone, Copy)]
struct DrainJob {
    content: f64,
    remaining: f64,
    retries: u32,
}

struct Engine {
    // Configuration.
    d: DerivedCosts,
    k: u64,
    ndp: bool,
    // Clock and failure process. Each stream serves one purpose, so
    // enabling faults never perturbs the failure or level sequences.
    mtti: f64,
    now: f64,
    next_failure: f64,
    failures: Stream,
    levels: Stream,
    faults: SimFaults,
    fault_stream: Stream,
    // Application progress.
    work: f64,
    work_max: f64,
    deficit_local: f64,
    deficit_io: f64,
    // Durable checkpoints.
    last_local: Option<f64>,
    last_io: f64,
    ckpts_since_io: u64,
    drain_queue: VecDeque<DrainJob>,
    // Output.
    acc: Breakdown,
    stats: SimStats,
    bus: Bus,
}

impl Engine {
    fn new(
        sys: &SystemParams,
        strat: &Strategy,
        seed: u64,
        faults: SimFaults,
        bus: Bus,
    ) -> Self {
        let d = derive_costs(sys, strat);
        let k = match strat {
            Strategy::LocalOnly { .. } => u64::MAX,
            _ => d.ratio as u64,
        };
        let mut failures = Stream::new(seed, StreamKind::Failures);
        Engine {
            d,
            k,
            ndp: matches!(strat, Strategy::LocalIoNdp { .. }),
            mtti: sys.mtti,
            now: 0.0,
            next_failure: failures.exp(sys.mtti),
            failures,
            levels: Stream::new(seed, StreamKind::RecoveryLevel),
            faults,
            fault_stream: Stream::new(seed, StreamKind::Faults),
            work: 0.0,
            work_max: 0.0,
            deficit_local: 0.0,
            deficit_io: 0.0,
            last_local: Some(0.0),
            last_io: 0.0,
            ckpts_since_io: 0,
            drain_queue: VecDeque::new(),
            acc: Breakdown::zero(),
            stats: SimStats::default(),
            bus,
        }
    }

    #[inline]
    fn emit_span(
        &self,
        lane: Lane,
        kind: SpanKind,
        t0: f64,
        t1: f64,
        interrupted: bool,
    ) {
        if t1 > t0 {
            self.bus.emit_with(|| Event {
                t: t0,
                source: Source::Sim,
                kind: EventKind::Span {
                    lane: lane.name(),
                    span: kind.name(),
                    t0,
                    t1,
                    interrupted,
                },
            });
        }
    }

    #[inline]
    fn emit_mark(&self, t: f64, kind: MarkKind) {
        self.bus.emit_with(|| Event {
            t,
            source: Source::Sim,
            kind: EventKind::Mark { mark: kind.name() },
        });
    }

    /// Advances the NDP drain pipeline by `dt` seconds of eligible time
    /// starting at wall-clock `base_t`.
    fn progress_drains(&mut self, mut dt: f64, base_t: f64) {
        let had_work = !self.drain_queue.is_empty();
        let mut consumed = 0.0;
        while dt > 0.0 {
            let Some(job) = self.drain_queue.front_mut() else {
                break;
            };
            if job.remaining > dt {
                job.remaining -= dt;
                consumed += dt;
                dt = 0.0;
                continue;
            }
            dt -= job.remaining;
            consumed += job.remaining;
            let (content, retries) = (job.content, job.retries);
            if self.faults.p_drain_error > 0.0
                && self.fault_stream.bernoulli(self.faults.p_drain_error)
            {
                // Transient I/O error at commit time: retry with a time
                // penalty until the budget runs out, then abandon the
                // drain (the checkpoint stays covered locally).
                if retries >= self.faults.max_drain_retries {
                    self.drain_queue.pop_front();
                    self.stats.drains_degraded += 1;
                } else {
                    let job = self
                        .drain_queue
                        .front_mut()
                        .expect("erroring job still queued");
                    job.retries += 1;
                    job.remaining = self.faults.drain_retry_penalty;
                    self.stats.drain_retries += 1;
                }
                continue;
            }
            self.last_io = content;
            self.drain_queue.pop_front();
            self.stats.io_ckpts += 1;
            self.emit_mark(base_t + consumed, MarkKind::IoDurable);
        }
        if had_work {
            self.emit_span(
                Lane::Ndp,
                SpanKind::Drain,
                base_t,
                base_t + consumed,
                false,
            );
        }
    }

    /// Runs a compute interval of at most `dur` seconds; accounts
    /// rerun/compute split and drives the drain pipeline.
    fn advance_compute(&mut self, dur: f64) -> Outcome {
        let (dt, outcome) = if self.now + dur <= self.next_failure {
            (dur, Outcome::Completed)
        } else {
            (self.next_failure - self.now, Outcome::Interrupted)
        };
        if self.ndp {
            self.progress_drains(dt, self.now);
        }
        // Split the slice into deficit repayment (rerun) and fresh work.
        let deficit = self.deficit_local + self.deficit_io;
        let rerun_dt = dt.min(deficit);
        if rerun_dt > 0.0 {
            let io_share = self.deficit_io / deficit;
            let rerun_io = rerun_dt * io_share;
            let rerun_local = rerun_dt - rerun_io;
            self.acc.rerun_io += rerun_io;
            self.acc.rerun_local += rerun_local;
            self.deficit_io = (self.deficit_io - rerun_io).max(0.0);
            self.deficit_local = (self.deficit_local - rerun_local).max(0.0);
        }
        self.acc.compute += dt - rerun_dt;
        self.work += dt;
        self.work_max = self.work_max.max(self.work);
        self.emit_span(
            Lane::Host,
            SpanKind::Compute,
            self.now,
            self.now + dt,
            outcome == Outcome::Interrupted,
        );
        self.now += dt;
        outcome
    }

    /// Runs a non-compute activity (checkpoint commit or restore).
    fn advance_plain(&mut self, dur: f64, bucket: Bucket) -> Outcome {
        let (dt, outcome) = if self.now + dur <= self.next_failure {
            (dur, Outcome::Completed)
        } else {
            (self.next_failure - self.now, Outcome::Interrupted)
        };
        match bucket {
            Bucket::CkptLocal => self.acc.checkpoint_local += dt,
            Bucket::CkptIo => self.acc.checkpoint_io += dt,
            Bucket::RestoreLocal => self.acc.restore_local += dt,
            Bucket::RestoreIo => self.acc.restore_io += dt,
        }
        let kind = match bucket {
            Bucket::CkptLocal => SpanKind::CkptLocal,
            Bucket::CkptIo => SpanKind::CkptIo,
            Bucket::RestoreLocal => SpanKind::RestoreLocal,
            Bucket::RestoreIo => SpanKind::RestoreIo,
        };
        self.emit_span(
            Lane::Host,
            kind,
            self.now,
            self.now + dt,
            outcome == Outcome::Interrupted,
        );
        self.now += dt;
        outcome
    }

    /// Samples the survivability of a fresh failure and applies its
    /// immediate consequences (node loss destroys local state).
    fn sample_failure_level(&mut self) -> bool {
        self.stats.failures += 1;
        self.emit_mark(self.now, MarkKind::Failure);
        self.next_failure = self.now + self.failures.exp(self.mtti);
        let mut local_ok = self.levels.uniform() < self.d.p_local
            && self.last_local.is_some();
        if local_ok
            && self.faults.p_local_corrupt > 0.0
            && self.fault_stream.bernoulli(self.faults.p_local_corrupt)
        {
            // The failure was survivable, but the local copy fails
            // verification on read: the recovery escalates to the I/O
            // level. This ties the *effective* §6.1.1 p_local to an
            // injected corruption mechanism shared with the functional
            // emulation's fault plane.
            self.stats.local_corruptions += 1;
            local_ok = false;
        }
        if !local_ok {
            // Node-level loss: local NVM contents and pending drains are
            // gone.
            self.last_local = None;
            self.stats.drains_cancelled += self.drain_queue.len() as u64;
            self.drain_queue.clear();
        }
        // Level 1 = survivable locally, level 2 = escalated to I/O.
        self.bus.emit_with(|| Event {
            t: self.now,
            source: Source::Sim,
            kind: EventKind::Failure {
                level: if local_ok { 1 } else { 2 },
            },
        });
        local_ok
    }

    /// Full recovery process after a failure: repeated restore attempts
    /// until one completes, then rollback.
    fn recover(&mut self) {
        let mut span = self.bus.span(Source::Sim, "recovery", self.now);
        let mut local = self.sample_failure_level();
        loop {
            let (dur, bucket) = if local {
                (self.d.restore_local, Bucket::RestoreLocal)
            } else {
                (self.d.restore_io, Bucket::RestoreIo)
            };
            match self.advance_plain(dur, bucket) {
                Outcome::Completed => {
                    let target = if local {
                        self.last_local.expect("local restore without ckpt")
                    } else {
                        self.last_io
                    };
                    let lost = (self.work - target).max(0.0);
                    if local {
                        self.deficit_local += lost;
                        self.stats.recoveries_local += 1;
                    } else {
                        self.deficit_io += lost;
                        self.stats.recoveries_io += 1;
                        self.ckpts_since_io = 0;
                    }
                    self.work = target;
                    self.bus.emit_with(|| Event {
                        t: self.now,
                        source: Source::Sim,
                        kind: EventKind::Recovery {
                            level: if local { 1 } else { 2 },
                        },
                    });
                    span.close(self.now);
                    return;
                }
                Outcome::Interrupted => {
                    self.stats.restores_interrupted += 1;
                    local = self.sample_failure_level();
                }
            }
        }
    }

    /// True once the run has met its targets (checked at renewal-ish
    /// points: right after a successful local commit with no outstanding
    /// deficit).
    fn done(&self, opts: &SimOptions) -> bool {
        (self.stats.failures >= opts.min_failures
            && self.work >= opts.min_work
            && self.deficit_local + self.deficit_io == 0.0)
            || self.now >= opts.max_wall
    }

    fn run(mut self, opts: &SimOptions) -> SimResult {
        let _stage = stage::timer(Stage::Engine);
        let mut replica = self.bus.span(Source::Sim, "replica", 0.0);
        let tau = self.d.interval;
        'outer: loop {
            // 1. Compute segment.
            if self.advance_compute(tau) == Outcome::Interrupted {
                self.recover();
                continue;
            }
            // 2. Local commit (zero-length under IoOnly).
            if self.d.delta_local > 0.0
                && self.advance_plain(self.d.delta_local, Bucket::CkptLocal)
                    == Outcome::Interrupted
            {
                self.recover();
                continue;
            }
            self.stats.local_ckpts += 1;
            self.last_local = Some(self.work);
            self.ckpts_since_io += 1;

            // 3. I/O-level commit every k-th checkpoint.
            if self.ckpts_since_io >= self.k {
                if self.ndp {
                    self.drain_queue.push_back(DrainJob {
                        content: self.work,
                        remaining: self.d.ndp_drain_time,
                        retries: 0,
                    });
                    self.stats.max_drain_queue =
                        self.stats.max_drain_queue.max(self.drain_queue.len());
                    self.ckpts_since_io = 0;
                } else if self.d.t_io_host > 0.0 {
                    // Host-blocking write; retried after local recoveries,
                    // abandoned if an I/O recovery already rewound us.
                    let mut io_span =
                        self.bus.span(Source::Sim, "io_commit", self.now);
                    loop {
                        match self.advance_plain(self.d.t_io_host, Bucket::CkptIo)
                        {
                            Outcome::Completed => {
                                self.last_io = self.work;
                                self.stats.io_ckpts += 1;
                                self.ckpts_since_io = 0;
                                self.emit_mark(self.now, MarkKind::IoDurable);
                                io_span.close(self.now);
                                break;
                            }
                            Outcome::Interrupted => {
                                self.recover();
                                if self.ckpts_since_io == 0 {
                                    // I/O recovery rewound to an
                                    // I/O-consistent point; no commit due.
                                    io_span.close(self.now);
                                    continue 'outer;
                                }
                            }
                        }
                    }
                } else {
                    self.ckpts_since_io = 0;
                }
            }

            if self.done(opts) {
                break;
            }
        }

        self.stats.wall_time = self.now;
        self.stats.work_done = self.work;
        self.stats.truncated = self.now >= opts.max_wall;
        replica.close(self.now);
        debug_assert!(self.acc.validate().is_ok());
        debug_assert!(
            (self.acc.total() - self.now).abs() < 1e-6 * self.now.max(1.0),
            "accounting leak: buckets {} vs clock {}",
            self.acc.total(),
            self.now
        );
        SimResult {
            breakdown: self.acc,
            stats: self.stats,
        }
    }
}

/// Runs one simulation replica of a configuration.
///
/// `faults` injects local-copy corruption and drain-commit errors; with
/// [`SimFaults::default`] no fault site draws a random number. Every
/// span, mark, failure and recovery-level choice is emitted onto `bus`.
/// Observation never draws random numbers and never perturbs the
/// simulated timeline, so the result is bit-identical for any sink,
/// including [`Bus::disabled`].
pub fn run_engine(
    sys: &SystemParams,
    strat: &Strategy,
    opts: &SimOptions,
    faults: &SimFaults,
    bus: &Bus,
) -> SimResult {
    Engine::new(sys, strat, opts.seed, *faults, bus.clone()).run(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::params::CompressionSpec;

    fn sys() -> SystemParams {
        SystemParams::exascale_default()
    }

    fn run(strat: &Strategy, opts: &SimOptions) -> SimResult {
        run_faulty(strat, opts, &SimFaults::default())
    }

    fn run_faulty(
        strat: &Strategy,
        opts: &SimOptions,
        faults: &SimFaults,
    ) -> SimResult {
        run_engine(&sys(), strat, opts, faults, &Bus::disabled())
    }

    #[test]
    fn accounting_is_leak_free() {
        let r = run(
            &Strategy::local_io_host(12, 0.8, None),
            &SimOptions::quick(1),
        );
        let b = r.breakdown;
        assert!(
            (b.total() - r.stats.wall_time).abs() < 1e-6 * r.stats.wall_time
        );
        b.validate().unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let strat = Strategy::local_io_ndp(0.85, None);
        let a = run(&strat, &SimOptions::quick(7));
        let b = run(&strat, &SimOptions::quick(7));
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.stats, b.stats);
        let c = run(&strat, &SimOptions::quick(8));
        assert_ne!(a.breakdown, c.breakdown);
    }

    #[test]
    fn compute_equals_net_work() {
        let r = run(
            &Strategy::local_io_host(12, 0.8, None),
            &SimOptions::quick(3),
        );
        assert!(
            (r.breakdown.compute - r.stats.work_done).abs() < 1e-6,
            "compute {} vs work {}",
            r.breakdown.compute,
            r.stats.work_done
        );
    }

    #[test]
    fn failure_count_meets_target() {
        let opts = SimOptions::quick(11);
        let r = run(&Strategy::local_io_ndp(0.85, None), &opts);
        assert!(r.stats.failures >= opts.min_failures);
        assert!(!r.stats.truncated);
    }

    #[test]
    fn recovery_split_matches_p_local() {
        let r = run(
            &Strategy::local_io_host(12, 0.8, None),
            &SimOptions::standard(5),
        );
        let total = (r.stats.recoveries_local + r.stats.recoveries_io) as f64;
        let frac_local = r.stats.recoveries_local as f64 / total;
        // Not exactly 0.8: consecutive non-local failures and interrupted
        // restores shift it slightly, but it must be in the vicinity.
        assert!(
            (frac_local - 0.8).abs() < 0.06,
            "local recovery fraction = {frac_local}"
        );
    }

    #[test]
    fn ndp_has_no_host_io_time() {
        let r = run(
            &Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp())),
            &SimOptions::quick(2),
        );
        assert_eq!(r.breakdown.checkpoint_io, 0.0);
        assert!(r.stats.io_ckpts > 0, "drains must complete");
    }

    #[test]
    fn host_mode_pays_io_checkpoint_time() {
        let r = run(
            &Strategy::local_io_host(12, 0.8, None),
            &SimOptions::quick(2),
        );
        assert!(r.breakdown.checkpoint_io > 0.0);
        assert!(r.stats.io_ckpts > 0);
    }

    #[test]
    fn local_only_never_touches_io() {
        let r = run(
            &Strategy::LocalOnly { interval: None },
            &SimOptions::quick(4),
        );
        assert_eq!(r.breakdown.checkpoint_io, 0.0);
        assert_eq!(r.breakdown.restore_io, 0.0);
        assert_eq!(r.breakdown.rerun_io, 0.0);
        assert_eq!(r.stats.recoveries_io, 0);
        // Progress near the 90% design point.
        let p = r.breakdown.progress_rate();
        assert!((p - 0.90).abs() < 0.02, "progress = {p}");
    }

    #[test]
    fn io_only_matches_daly_roughly() {
        let strat = Strategy::IoOnly {
            interval: None,
            compression: None,
        };
        let r = run(&strat, &SimOptions::standard(6));
        let analytic = cr_core::analytic::progress_rate(&sys(), &strat);
        let simulated = r.breakdown.progress_rate();
        assert!(
            (simulated - analytic).abs() < 0.02,
            "sim {simulated} vs analytic {analytic}"
        );
    }

    #[test]
    fn ndp_beats_host_in_simulation() {
        let host = run(
            &Strategy::local_io_host(20, 0.8, None),
            &SimOptions::quick(9),
        );
        let ndp =
            run(&Strategy::local_io_ndp(0.8, None), &SimOptions::quick(9));
        assert!(ndp.breakdown.progress_rate() > host.breakdown.progress_rate());
    }

    #[test]
    fn drain_queue_stays_bounded() {
        let r = run(
            &Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp())),
            &SimOptions::standard(10),
        );
        // Sustainable ratio: backlog should stay small.
        assert!(
            r.stats.max_drain_queue <= 4,
            "drain backlog grew to {}",
            r.stats.max_drain_queue
        );
    }

    #[test]
    fn io_failures_cancel_drains() {
        let r = run(&Strategy::local_io_ndp(0.5, None), &SimOptions::quick(13));
        assert!(r.stats.drains_cancelled > 0);
    }

    #[test]
    fn local_corruption_escalates_recoveries_to_io() {
        let strat = Strategy::local_io_host(12, 0.8, None);
        let opts = SimOptions::standard(22);
        let faults = SimFaults {
            p_local_corrupt: 0.5,
            ..SimFaults::default()
        };
        let r = run_faulty(&strat, &opts, &faults);
        assert!(r.stats.local_corruptions > 0);
        let total = (r.stats.recoveries_local + r.stats.recoveries_io) as f64;
        let frac_local = r.stats.recoveries_local as f64 / total;
        // Effective p_local ≈ 0.8 * (1 - 0.5) = 0.4.
        assert!(
            (frac_local - 0.4).abs() < 0.06,
            "effective local recovery fraction = {frac_local}"
        );
        // The baseline (no injection) sits near the configured 0.8.
        let base = run(&strat, &opts);
        let base_total =
            (base.stats.recoveries_local + base.stats.recoveries_io) as f64;
        let base_frac = base.stats.recoveries_local as f64 / base_total;
        assert!(frac_local < base_frac - 0.2);
    }

    #[test]
    fn drain_errors_retry_then_degrade() {
        let strat = Strategy::local_io_ndp(0.85, None);
        let opts = SimOptions::standard(23);
        let faults = SimFaults {
            p_drain_error: 0.5,
            drain_retry_penalty: 2.0,
            max_drain_retries: 1,
            ..SimFaults::default()
        };
        let r = run_faulty(&strat, &opts, &faults);
        assert!(r.stats.drain_retries > 0, "transient errors must retry");
        assert!(
            r.stats.drains_degraded > 0,
            "exhausted retries must degrade"
        );
        assert!(r.stats.io_ckpts > 0, "most drains still commit");
        // Accounting stays leak-free under fault injection.
        assert!(
            (r.breakdown.total() - r.stats.wall_time).abs()
                < 1e-6 * r.stats.wall_time
        );
    }

    #[test]
    fn faulty_runs_are_deterministic_in_the_seed() {
        let strat = Strategy::local_io_ndp(0.85, None);
        let faults = SimFaults {
            p_local_corrupt: 0.1,
            p_drain_error: 0.3,
            ..SimFaults::default()
        };
        let a = run_faulty(&strat, &SimOptions::quick(31), &faults);
        let b = run_faulty(&strat, &SimOptions::quick(31), &faults);
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.stats, b.stats);
        let c = run_faulty(&strat, &SimOptions::quick(32), &faults);
        assert_ne!(a.stats, c.stats);
    }

    #[test]
    fn truncation_respects_max_wall() {
        let opts = SimOptions {
            seed: 1,
            min_failures: u64::MAX,
            min_work: f64::INFINITY,
            max_wall: 500_000.0,
        };
        let r = run(&Strategy::local_io_ndp(0.85, None), &opts);
        assert!(r.stats.truncated);
        assert!(r.stats.wall_time >= 500_000.0);
        // Still only modestly past the limit (one activity).
        assert!(r.stats.wall_time < 600_000.0);
    }
}
