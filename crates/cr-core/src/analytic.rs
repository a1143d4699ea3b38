//! Exact Markov-renewal analytic model of multilevel checkpoint/restart.
//!
//! This is the paper's "performance model" (§6.1.1): Daly's analytical
//! model extended to model multilevel checkpointing faithfully (distinct
//! bandwidths and frequencies per level, configurable probability of
//! local-recovery success) and to model NDP offload (I/O checkpointing
//! and compression off the critical path).
//!
//! ## Model
//!
//! Execution is a renewal process over *checkpoint cycles*. One cycle is
//! `k` *segments* (τ of compute followed by a local-NVM commit δ_L), plus —
//! for `Local + I/O-Host` — a host-blocking global-I/O commit at the end.
//! Failures arrive as a Poisson process with mean `M` (the system MTTI)
//! and can interrupt **any** activity, including restores.
//!
//! On a failure the system recovers: with probability `p_local` the
//! failure is survivable from locally-saved checkpoints (local/partner
//! level), otherwise recovery must come from the last checkpoint durable
//! on global I/O. A restore is itself an activity that can be
//! interrupted, in which case the recovery level is re-sampled
//! (memorylessness).
//!
//! * Local recovery returns execution to the start of the interrupted
//!   activity (the newest local checkpoint is always the previous
//!   segment's).
//! * I/O recovery returns execution to the last I/O-durable checkpoint —
//!   the cycle boundary, possibly the *previous* cycle boundary under the
//!   pipelined NDP drain-lag model.
//!
//! The expected wall time from each cycle state to cycle completion obeys
//! a linear recurrence; solving it yields the *exact* expected cycle time
//! under the model above (for single-level configurations it reduces
//! algebraically to Daly's complete model — see the tests). Bucket
//! decompositions (checkpoint/restore by level) are exact expectations;
//! the rerun split between levels uses a proportional attribution
//! documented on [`solve_cycle`].

use std::fmt;

use crate::breakdown::Breakdown;
use crate::daly::{expected_time_before_interrupt, survival_prob};
use crate::params::{derive_costs, DrainLagModel, Strategy, SystemParams};
use crate::ratio_opt::MAX_RATIO;

/// Lowest progress rate [`solve_cycle`] admits: a simulation stops
/// only after a successful commit, so one far slower would not end.
pub const MIN_PROGRESS: f64 = 1e-6;

/// Why [`solve_cycle`] refuses a configuration. Each variant's doc and
/// `Display` start with the parameter at fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Refusal {
    /// `interval`: a cycle would need more than [`MAX_RATIO`] segments
    /// (an NDP drain far longer than the interval).
    ChainTooLong,
    /// `mtti`: no restore can finish between two failures.
    RestoreNeverFinishes,
    /// `mtti`: the cycle time is not finite, or the progress rate it
    /// carries (0 for NaN) is below [`MIN_PROGRESS`].
    NoProgress(f64),
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::ChainTooLong => write!(
                f,
                "interval: too short: over {MAX_RATIO} segments per cycle"
            ),
            Refusal::RestoreNeverFinishes => f.write_str(
                "mtti: too short: no restore can finish between two failures",
            ),
            Refusal::NoProgress(p) => write!(
                f,
                "mtti: too short: progress {p:.2e} is below {MIN_PROGRESS:e}"
            ),
        }
    }
}

/// Expected time spent in the *compute prefix* of an interrupted
/// activity: `E[min(X, exec) | X < a]` for `X ~ Exp(1/M)`.
///
/// An activity of duration `a` starts with `exec` seconds of computation
/// (possibly 0) followed by checkpoint writing; given the activity is
/// interrupted, this is the expected share of the wasted time that was
/// computation.
fn expected_exec_overlap(a: f64, exec: f64, mtti: f64) -> f64 {
    debug_assert!((0.0..=a).contains(&exec));
    if a == 0.0 || exec == 0.0 {
        return 0.0;
    }
    let q_a = survival_prob(a, mtti);
    let denom = 1.0 - q_a;
    if denom < 1e-300 {
        return exec.min(mtti); // a << M: failure density ~uniform prefix
    }
    let q_e = survival_prob(exec, mtti);
    (mtti * (1.0 - q_e) - exec * q_a) / denom
}

/// Outcome of the per-failure recovery sub-process.
///
/// A recovery *episode* starts with a failure whose survivability is
/// sampled (`p_local`). Local restores can themselves be interrupted;
/// a new failure re-samples survivability — but once any failure in the
/// episode is *not* locally survivable, node-local state is gone and
/// every further attempt must restore from I/O (**absorbing I/O
/// mode**). This matters: with long I/O restore times a large fraction
/// of episodes are dragged into I/O mode by secondary failures.
#[derive(Debug, Clone, Copy)]
struct Recovery {
    /// Probability that the episode ends with a local restore.
    pi_local: f64,
    /// Expected time per episode spent in local-restore attempts.
    restore_local: f64,
    /// Expected time per episode spent in I/O-restore attempts.
    restore_io: f64,
    /// Expected duration of an all-I/O episode (used when no local
    /// checkpoint exists at failure time).
    io_only_time: f64,
}

impl Recovery {
    /// Total expected episode duration.
    fn total(&self) -> f64 {
        self.restore_local + self.restore_io
    }
}

/// Solves the recovery episode (see [`Recovery`]).
fn solve_recovery(p_local: f64, r_local: f64, r_io: f64, mtti: f64) -> Recovery {
    let q_l = survival_prob(r_local, mtti);
    let w_l = expected_time_before_interrupt(r_local, mtti);

    // Absorbing I/O mode: repeat the I/O restore until it completes
    // (Daly's restart factor): E = M (e^{r_io/M} - 1).
    let io_only_time = if p_local >= 1.0 && r_io == 0.0 {
        0.0
    } else {
        mtti * (r_io / mtti).exp_m1()
    };

    // Local mode: attempt the local restore; interruption re-samples
    // survivability — stay local with prob p_local, fall into I/O mode
    // otherwise. The denominator is 1 − (1 − q_l)·p_local, written
    // without the cancellation that rounds it to 0 when q_l is tiny.
    let denom = q_l + (1.0 - q_l) * (1.0 - p_local);
    // P(episode in local mode ends locally).
    let p_ends_local = q_l / denom;
    // E[local-restore time while in local mode].
    let local_time = (q_l * r_local + (1.0 - q_l) * w_l) / denom;
    // E[I/O time after falling out of local mode].
    let io_after_local =
        (1.0 - q_l) * (1.0 - p_local) * io_only_time / denom;

    Recovery {
        pi_local: p_local * p_ends_local,
        restore_local: p_local * local_time,
        restore_io: p_local * io_after_local
            + (1.0 - p_local) * io_only_time,
        io_only_time,
    }
}

/// Which bucket the non-compute tail of an activity belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TailBucket {
    /// Local-NVM checkpoint commit.
    CkptLocal,
    /// Host-blocking global-I/O checkpoint commit.
    CkptIo,
}

/// One state of the cycle chain: a single interruptible activity.
#[derive(Debug, Clone, Copy)]
struct StateSpec {
    /// Total activity duration.
    a: f64,
    /// Compute prefix duration (0 for a pure I/O-write state).
    exec: f64,
    /// Bucket of the `a - exec` checkpoint tail.
    tail: TailBucket,
    /// Net completed work lost if a failure here is recovered from I/O,
    /// in seconds of compute.
    lost_on_io: f64,
    /// Number of *extra full cycles* that must be re-executed after an
    /// I/O recovery here (pipelined NDP drain lag rolling into the
    /// previous cycle). Charged as a bounded redo constant — after an
    /// I/O restore the restore point itself is durable, so the redo
    /// cannot recursively roll back further; the redo cost is therefore
    /// approximated by a cycle re-executed under local-only retries
    /// (the discrete-event simulator models the pipeline exactly).
    extra_cycles: f64,
}

/// Per-bucket expected values accumulated from cycle start to completion.
#[derive(Debug, Clone, Copy, Default)]
struct BucketTotals {
    total: f64,
    exec: f64,
    ckpt_local: f64,
    ckpt_io: f64,
    restore_local: f64,
    restore_io: f64,
    /// Net work lost to failures recovered locally (partial attempts).
    raw_lost_local: f64,
    /// Net work lost to failures recovered from I/O (partial attempts
    /// plus rolled-back completed segments).
    raw_lost_io: f64,
}

const N_BUCKETS: usize = 8;

impl BucketTotals {
    fn from_array(v: [f64; N_BUCKETS]) -> Self {
        BucketTotals {
            total: v[0],
            exec: v[1],
            ckpt_local: v[2],
            ckpt_io: v[3],
            restore_local: v[4],
            restore_io: v[5],
            raw_lost_local: v[6],
            raw_lost_io: v[7],
        }
    }
}

/// Full solution of the cycle chain for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleSolution {
    /// Expected breakdown per cycle (compute = work_per_cycle exactly).
    pub breakdown: Breakdown,
    /// Expected wall-clock time per completed cycle.
    pub cycle_time: f64,
    /// Net useful work per cycle (`k · τ`).
    pub work_per_cycle: f64,
    /// Locally-saved : I/O-saved checkpoint ratio in force.
    pub ratio: u32,
    /// Compute interval between local checkpoints in force.
    pub interval: f64,
}

impl CycleSolution {
    /// Progress rate (efficiency) of the configuration.
    pub fn progress_rate(&self) -> f64 {
        self.breakdown.progress_rate()
    }
}

/// Solves the Markov-renewal chain for a `(system, strategy)` pair.
///
/// Returns exact expected per-cycle wall time and bucket decomposition.
/// The split of rerun time between "caused by local recovery" and
/// "caused by I/O recovery" attributes the total re-execution time
/// (`exec − k·τ`, an exact expectation) proportionally to the expected
/// net work lost to each recovery level; this matches the
/// discrete-event simulator's per-second labeling to within a few
/// percent in all evaluated regimes (see the cross-validation
/// integration tests).
///
/// # Errors
///
/// Refuses a configuration outside the model's domain, checking the
/// [`Refusal`] variants in order. An admitted one has a finite,
/// validated breakdown.
///
/// # Panics
///
/// Panics on a malformed strategy (see [`derive_costs`]).
pub fn solve_cycle(
    sys: &SystemParams,
    strat: &Strategy,
) -> Result<CycleSolution, Refusal> {
    let d = derive_costs(sys, strat);
    let mtti = sys.mtti;
    let tau = d.interval;
    let k = effective_k(strat, d.ratio);
    if k > MAX_RATIO {
        return Err(Refusal::ChainTooLong);
    }
    // A recovery ends only if its last-resort restore (the local one
    // when every failure recovers locally) can finish between failures.
    let last_resort = if d.p_local >= 1.0 { d.restore_local } else { d.restore_io };
    if survival_prob(last_resort, mtti) == 0.0 {
        return Err(Refusal::RestoreNeverFinishes);
    }

    let recovery = solve_recovery(d.p_local, d.restore_local, d.restore_io, mtti);

    // Build the chain states.
    let mut states: Vec<StateSpec> = Vec::with_capacity(k as usize + 1);
    let drain_lag_segments = drain_lag_segments(strat, &d);
    for i in 0..k {
        let rolled_back_cycles =
            if i < drain_lag_segments { 1.0 } else { 0.0 };
        states.push(StateSpec {
            a: tau + d.delta_local,
            exec: tau,
            tail: TailBucket::CkptLocal,
            lost_on_io: (i as f64 + rolled_back_cycles * k as f64) * tau,
            extra_cycles: rolled_back_cycles,
        });
    }
    if d.t_io_host > 0.0 {
        // Host-blocking I/O commit at end of cycle (IoOnly folds the I/O
        // write into the single segment's tail instead).
        states.push(StateSpec {
            a: d.t_io_host,
            exec: 0.0,
            tail: TailBucket::CkptIo,
            lost_on_io: k as f64 * tau,
            extra_cycles: 0.0,
        });
    }

    let redo_cycle = if drain_lag_segments > 0 {
        local_only_cycle_costs(
            k,
            tau + d.delta_local,
            tau,
            mtti,
            d.restore_local,
        )
    } else {
        [0.0; N_BUCKETS]
    };
    let totals = solve_chain(&states, mtti, recovery, redo_cycle);
    let work_per_cycle = k as f64 * tau;

    let rerun_total = (totals.exec - work_per_cycle).max(0.0);
    let lost_sum = totals.raw_lost_local + totals.raw_lost_io;
    let (rerun_local, rerun_io) = if lost_sum > 0.0 {
        let io_share = totals.raw_lost_io / lost_sum;
        (rerun_total * (1.0 - io_share), rerun_total * io_share)
    } else {
        (rerun_total, 0.0)
    };

    let breakdown = Breakdown {
        compute: work_per_cycle,
        checkpoint_local: totals.ckpt_local,
        checkpoint_io: totals.ckpt_io,
        restore_local: totals.restore_local,
        restore_io: totals.restore_io,
        rerun_local,
        rerun_io,
    };
    let progress = breakdown.progress_rate();
    if !(totals.total.is_finite() && progress >= MIN_PROGRESS) {
        return Err(Refusal::NoProgress(progress.max(0.0)));
    }

    // Exact identity check: buckets partition total time.
    let bucket_sum = totals.exec
        + totals.ckpt_local
        + totals.ckpt_io
        + totals.restore_local
        + totals.restore_io;
    debug_assert!(
        (bucket_sum - totals.total).abs() <= 1e-6 * totals.total.max(1.0),
        "bucket accounting mismatch: {bucket_sum} vs {}",
        totals.total
    );
    debug_assert!(breakdown.validate().is_ok());

    Ok(CycleSolution {
        breakdown,
        cycle_time: totals.total,
        work_per_cycle,
        ratio: k,
        interval: tau,
    })
}

/// Progress rate (efficiency) of a configuration under the analytic
/// model.
///
/// # Panics
///
/// Panics on a configuration [`solve_cycle`] refuses.
pub fn progress_rate(sys: &SystemParams, strat: &Strategy) -> f64 {
    solve_cycle(sys, strat).expect("refused configuration").progress_rate()
}

/// The number of segments per cycle for the chain.
fn effective_k(strat: &Strategy, derived_ratio: u32) -> u32 {
    match strat {
        // Single-level strategies have one segment per cycle.
        Strategy::IoOnly { .. } | Strategy::LocalOnly { .. } => 1,
        _ => derived_ratio,
    }
}

/// How many segments of drain-pipeline lag apply to I/O rollback targets.
fn drain_lag_segments(strat: &Strategy, d: &crate::params::DerivedCosts) -> u32 {
    match strat {
        Strategy::LocalIoNdp {
            drain_lag: DrainLagModel::Pipelined,
            ..
        } => {
            // The cycle-start checkpoint finishes draining after
            // ceil(drain_time / tau) segments of the cycle; failures
            // before that roll back to the previous cycle's checkpoint.
            ((d.ndp_drain_time / d.interval).ceil() as u32).min(d.ratio)
        }
        _ => 0,
    }
}

/// Backward pass over the chain, solving all buckets simultaneously.
///
/// Two linked unknowns describe a cycle:
///
/// * `E_0` — expected remaining cost from a *normal* cycle start (a
///   local checkpoint exists);
/// * `X` (= `E_0io`) — expected remaining cost from a cycle start
///   reached by an **I/O recovery**: the restored image is the only
///   durable copy, so until the first local commit completes every
///   failure must recover from I/O again, whatever its survivability.
///
/// For state `i` with duration `a_i`, survival `q_i`, episode outcome
/// `π_l` (local: retry in place) and `1 − π_l` (I/O: restart the cycle
/// in the exposed state, plus a bounded `extra_i`-cycle redo constant
/// under pipelined drain lag):
///
/// ```text
/// E_i = c_i + q_i·E_{i+1} + (1−q_i)·π_l·E_i
///           + (1−q_i)·(1−π_l)·(X + extra_i·REDO)
/// X   = c_x + q_0·E_1 + (1−q_0)·X
/// ```
///
/// Writing `E_i = α_i + β_i·X` and eliminating backwards leaves a
/// linear system in `(E_0, X)` per bucket; the coefficient scalars are
/// bucket-independent, so a single pass carries one `α` vector per
/// bucket.
fn solve_chain(
    states: &[StateSpec],
    mtti: f64,
    rec: Recovery,
    redo_cycle: [f64; N_BUCKETS],
) -> BucketTotals {
    assert!(!states.is_empty());
    let pi_l = rec.pi_local;

    let mut alpha = [0.0f64; N_BUCKETS];
    let mut beta = 0.0f64;
    // Coefficients of E_1 (the state after states[0]), captured during
    // the backward pass for the X equation.
    let mut alpha1 = [0.0f64; N_BUCKETS];
    let mut beta1 = 0.0f64;

    for (idx, spec) in states.iter().enumerate().rev() {
        let q = survival_prob(spec.a, mtti);
        let fail = 1.0 - q;
        let w_fail = expected_time_before_interrupt(spec.a, mtti);
        let exec_overlap = expected_exec_overlap(spec.a, spec.exec, mtti);
        let tail_fail = (w_fail - exec_overlap).max(0.0);

        // Per-visit constant cost for each bucket.
        let mut c = [0.0f64; N_BUCKETS];
        // total
        c[0] = q * spec.a + fail * (w_fail + rec.total());
        // exec
        c[1] = q * spec.exec + fail * exec_overlap;
        // ckpt tails
        let tail_cost = q * (spec.a - spec.exec) + fail * tail_fail;
        match spec.tail {
            TailBucket::CkptLocal => c[2] = tail_cost,
            TailBucket::CkptIo => c[3] = tail_cost,
        }
        // restores
        c[4] = fail * rec.restore_local;
        c[5] = fail * rec.restore_io;
        // raw lost work by recovery level
        c[6] = fail * pi_l * exec_overlap;
        c[7] = fail * (1.0 - pi_l) * (exec_overlap + spec.lost_on_io);
        // Bounded extra-cycle redo under pipelined drain lag.
        if spec.extra_cycles > 0.0 {
            let w = fail * (1.0 - pi_l) * spec.extra_cycles;
            for b in 0..N_BUCKETS {
                c[b] += w * redo_cycle[b];
            }
        }

        // 0 when a state never finishes and every failure recovers
        // locally: the cycle time is not finite, and `solve_cycle` refuses.
        let a_coef = 1.0 - fail * pi_l;
        let bx_coef = fail * (1.0 - pi_l);

        for b in 0..N_BUCKETS {
            alpha[b] = (c[b] + q * alpha[b]) / a_coef;
        }
        beta = (q * beta + bx_coef) / a_coef;
        if idx == 1 {
            alpha1 = alpha;
            beta1 = beta;
        }
    }
    // (For single-state chains E_1 is completion: zero coefficients.)

    // X's own state: the states[0] activity under all-I/O recovery,
    // rolling back to itself (the restore point is I/O-durable), no
    // completed work lost.
    let spec0 = states[0];
    let q0 = survival_prob(spec0.a, mtti);
    let fail0 = 1.0 - q0;
    let w_fail0 = expected_time_before_interrupt(spec0.a, mtti);
    let ov0 = expected_exec_overlap(spec0.a, spec0.exec, mtti);
    let mut cx = [0.0f64; N_BUCKETS];
    cx[0] = q0 * spec0.a + fail0 * (w_fail0 + rec.io_only_time);
    cx[1] = q0 * spec0.exec + fail0 * ov0;
    let tail0 = q0 * (spec0.a - spec0.exec) + fail0 * (w_fail0 - ov0).max(0.0);
    match spec0.tail {
        TailBucket::CkptLocal => cx[2] = tail0,
        TailBucket::CkptIo => cx[3] = tail0,
    }
    cx[5] = fail0 * rec.io_only_time;
    cx[7] = fail0 * ov0;

    // Solve:
    //   E_0 = α_0 + β_0 X
    //   X (q0 (1 - β_1)) = c_x + q0 α_1
    //
    // β_1 is the probability of re-entering the exposed state before
    // completing the cycle; it approaches (but never reaches) 1 for
    // configurations whose completion probability underflows. Clamp so
    // such configurations report astronomically large — but finite —
    // cycle times instead of dividing by 0. Past the clamp the cycle
    // time no longer grows with the work per cycle, so progress rises
    // with the ratio (by ~1e-15, e.g. 1.7e-15 at ratio 133 and 5.2e-15
    // at 400 for `exascale_default`, p_local 0.2, 600 s interval).
    // `solve_cycle` refuses that tail, far below `MIN_PROGRESS`, but the
    // refusal carries the rate, and `ratio_opt`'s search must not
    // follow it.
    let x_coef = (q0 * (1.0 - beta1)).max(1e-300);

    let mut out = [0.0f64; N_BUCKETS];
    for b in 0..N_BUCKETS {
        let x = (cx[b] + q0 * alpha1[b]) / x_coef;
        out[b] = alpha[b] + beta * x;
    }
    BucketTotals::from_array(out)
}

/// Expected per-cycle bucket costs of re-executing one full cycle of
/// `k` segments under local-only retries (the bounded pipelined-lag
/// redo constant).
fn local_only_cycle_costs(
    k: u32,
    a: f64,
    exec: f64,
    mtti: f64,
    r_local: f64,
) -> [f64; N_BUCKETS] {
    let q = survival_prob(a, mtti);
    let fail = 1.0 - q;
    let w_fail = expected_time_before_interrupt(a, mtti);
    let ov = expected_exec_overlap(a, exec, mtti);
    // Per-failure local recovery (Daly restart factor).
    let r_cost = mtti * (r_local / mtti).exp_m1();
    let mut c = [0.0f64; N_BUCKETS];
    c[0] = q * a + fail * (w_fail + r_cost);
    c[1] = q * exec + fail * ov;
    c[2] = q * (a - exec) + fail * (w_fail - ov).max(0.0);
    c[4] = fail * r_cost;
    // Lost-work attribution stays with the triggering I/O recovery.
    let scale = k as f64 / q;
    c.map(|v| v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CompressionSpec;
    use crate::units::MINUTE;


    fn sys() -> SystemParams {
        SystemParams::exascale_default()
    }

    #[test]
    fn exec_overlap_limits() {
        // No exec prefix -> 0.
        assert_eq!(expected_exec_overlap(10.0, 0.0, 100.0), 0.0);
        // Whole activity is exec -> equals conditional interrupt time.
        let a = 7.0;
        let m = 50.0;
        let full = expected_exec_overlap(a, a, m);
        let wf = expected_time_before_interrupt(a, m);
        assert!((full - wf).abs() < 1e-12);
        // Overlap is monotone in the prefix and bounded by it.
        let mut last = 0.0;
        for exec in [1.0, 2.0, 4.0, 6.0] {
            let e = expected_exec_overlap(a, exec, m);
            assert!(e >= last && e <= exec);
            last = e;
        }
    }

    #[test]
    fn recovery_needs_a_restore_that_can_finish() {
        // A 7.5 s local restore at a 6 ms MTTI never finishes; with
        // every failure local, nothing else can end the episode.
        let tiny = SystemParams {
            mtti: 0.006,
            ..sys()
        };
        let never = Refusal::RestoreNeverFinishes;
        let local = Strategy::LocalOnly { interval: None };
        assert_eq!(solve_cycle(&tiny, &local), Err(never));
        assert!(solve_cycle(&sys(), &local).is_ok());
        // The I/O restore decides once some failures are not local.
        let host = Strategy::local_io_host(4, 0.85, None);
        assert_eq!(solve_cycle(&tiny, &host), Err(never));
        assert!(solve_cycle(&sys(), &host).is_ok());
        assert!(never.to_string().starts_with("mtti: "));
    }

    #[test]
    fn refusals_name_the_parameter_at_fault() {
        // An NDP drain of 1120 s at a 1 s interval needs 1120 segments.
        let ndp = Strategy::LocalIoNdp {
            interval: Some(1.0),
            ratio: None,
            p_local: 0.85,
            compression: None,
            drain_lag: DrainLagModel::Pipelined,
        };
        let r = solve_cycle(&sys(), &ndp).unwrap_err();
        assert_eq!(r, Refusal::ChainTooLong);
        assert!(r.to_string().starts_with("interval: "), "{r}");
        // A 0.6 s MTTI: the local restore can finish, but progress is
        // ~e^-12 of a cycle.
        let short = SystemParams { mtti: 0.6, ..sys() };
        let local = Strategy::LocalOnly { interval: None };
        let r = solve_cycle(&short, &local).unwrap_err();
        assert!(
            matches!(r, Refusal::NoProgress(p) if (0.0..1e-9).contains(&p)),
            "{r:?}"
        );
        assert!(r.to_string().starts_with("mtti: "), "{r}");
    }

    #[test]
    fn local_only_near_the_progress_floor_validates() {
        // At 10^(-5/3) min the local-only progress rate is ~3.5e-6 and
        // q_l is tiny: the recovery denominator 1 - (1 - q_l)·p_local,
        // computed by subtraction, loses q_l to rounding here and gives
        // negative restore and rerun times.
        let s = SystemParams {
            mtti: 10f64.powf(-5.0 / 3.0) * MINUTE,
            ..sys()
        };
        let sol =
            solve_cycle(&s, &Strategy::LocalOnly { interval: None }).unwrap();
        sol.breakdown.validate().unwrap();
        let p = sol.progress_rate();
        assert!((MIN_PROGRESS..1e-5).contains(&p), "progress {p}");
    }

    #[test]
    fn recovery_reduces_to_daly_restart_factor() {
        // With p_local = 1, E_rec = M(e^{R/M} - 1) (derived in the module
        // docs; this is the source of Daly's e^{R/M} factor).
        let m = 1800.0;
        let r = 9.0;
        let rec = solve_recovery(1.0, r, 0.0, m);
        let expected = m * ((r / m).exp() - 1.0);
        assert!((rec.total() - expected).abs() < 1e-9 * expected);
        assert_eq!(rec.pi_local, 1.0);
        assert_eq!(rec.restore_io, 0.0);
    }

    #[test]
    fn single_level_matches_daly_exactly() {
        // LocalOnly with a fixed interval must reproduce Daly's complete
        // model: E_cycle = M e^{R/M} (e^{(tau+delta)/M} - 1).
        let sys = sys();
        let tau = 150.0;
        let strat = Strategy::LocalOnly {
            interval: Some(tau),
        };
        let sol = solve_cycle(&sys, &strat).unwrap();
        let delta = sys.delta_local();
        let m = sys.mtti;
        let daly =
            m * (delta / m).exp() * (((tau + delta) / m).exp() - 1.0);
        assert!(
            (sol.cycle_time - daly).abs() < 1e-6 * daly,
            "chain {} vs daly {}",
            sol.cycle_time,
            daly
        );
    }

    #[test]
    fn io_only_matches_daly_exactly() {
        let sys = sys();
        let strat = Strategy::IoOnly {
            interval: None,
            compression: None,
        };
        let sol = solve_cycle(&sys, &strat).unwrap();
        let t_io = sys.checkpoint_bytes / sys.io_bw_per_node;
        let tau = sol.interval;
        let m = sys.mtti;
        let daly = m * (t_io / m).exp() * (((tau + t_io) / m).exp() - 1.0);
        assert!(
            (sol.cycle_time - daly).abs() < 1e-6 * daly,
            "chain {} vs daly {}",
            sol.cycle_time,
            daly
        );
        // IoOnly on the exascale system is catastrophically slow
        // (Sec. 3.3: required bandwidth outpaces I/O by >100x).
        assert!(sol.progress_rate() < 0.35, "{}", sol.progress_rate());
    }

    #[test]
    fn local_only_hits_ninety_percent_bound() {
        // Sec. 3.4/6.4: the system is sized for ~90% progress when all
        // checkpoints go to local NVM at 15 GB/s.
        let strat = Strategy::LocalOnly { interval: None };
        let p = progress_rate(&sys(), &strat);
        assert!((p - 0.90).abs() < 0.01, "progress = {p}");
    }

    #[test]
    fn multilevel_between_io_only_and_local_only() {
        let s = sys();
        let io_only = progress_rate(
            &s,
            &Strategy::IoOnly {
                interval: None,
                compression: None,
            },
        );
        let local_only =
            progress_rate(&s, &Strategy::LocalOnly { interval: None });
        let multi =
            progress_rate(&s, &Strategy::local_io_host(20, 0.8, None));
        assert!(
            io_only < multi && multi < local_only,
            "io={io_only} multi={multi} local={local_only}"
        );
    }

    #[test]
    fn ndp_beats_host_at_same_settings() {
        let s = sys();
        for p_local in [0.2, 0.5, 0.8, 0.96] {
            let host = progress_rate(
                &s,
                &Strategy::local_io_host(20, p_local, None),
            );
            let ndp =
                progress_rate(&s, &Strategy::local_io_ndp(p_local, None));
            assert!(
                ndp > host,
                "p_local={p_local}: ndp {ndp} <= host {host}"
            );
        }
    }

    #[test]
    fn compression_helps_host_io() {
        let s = sys();
        let plain = progress_rate(&s, &Strategy::local_io_host(20, 0.8, None));
        let comp = progress_rate(
            &s,
            &Strategy::local_io_host(
                20,
                0.8,
                Some(CompressionSpec::gzip1_host()),
            ),
        );
        assert!(comp > plain, "comp {comp} <= plain {plain}");
    }

    #[test]
    fn ndp_with_compression_approaches_local_bound() {
        // Sec. 6.4: with NDP + compression the progress rate approaches
        // the 90% single-level bound.
        let s = sys();
        let strat = Strategy::LocalIoNdp {
            interval: Some(150.0),
            ratio: None,
            p_local: 0.96,
            compression: Some(CompressionSpec::gzip1_ndp()),
            drain_lag: DrainLagModel::Ignore,
        };
        let sol = solve_cycle(&s, &strat).unwrap();
        let p = sol.progress_rate();
        assert!(p > 0.86 && p < 0.91, "progress = {p}");
        // No host-blocking I/O checkpoint time at all.
        assert_eq!(sol.breakdown.checkpoint_io, 0.0);
    }

    #[test]
    fn paper_rerun_io_for_ndp_no_compression() {
        // Sec. 6.4: for Local + I/O-N at 4% I/O recoveries, "Rerun I/O"
        // is ~1.2% of execution time under the paper's (lag-free)
        // accounting.
        let s = sys();
        let strat = Strategy::LocalIoNdp {
            interval: Some(150.0),
            ratio: None,
            p_local: 0.96,
            compression: None,
            drain_lag: DrainLagModel::Ignore,
        };
        let b = solve_cycle(&s, &strat).unwrap().breakdown;
        let f = b.as_fractions();
        assert!(
            (f.rerun_io - 0.012).abs() < 0.006,
            "rerun_io fraction = {}",
            f.rerun_io
        );
    }

    #[test]
    fn pipelined_lag_costs_more_than_ignored_lag() {
        let s = sys();
        let mk = |lag| Strategy::LocalIoNdp {
            interval: Some(150.0),
            ratio: None,
            p_local: 0.85,
            compression: None,
            drain_lag: lag,
        };
        let ignore = progress_rate(&s, &mk(DrainLagModel::Ignore));
        let pipe = progress_rate(&s, &mk(DrainLagModel::Pipelined));
        assert!(pipe < ignore, "pipelined {pipe} >= ignored {ignore}");
        // ... but only modestly: the drain lag is bounded by one cycle.
        assert!(ignore - pipe < 0.09, "gap {}", ignore - pipe);
    }

    #[test]
    fn progress_improves_with_p_local() {
        let s = sys();
        let mut last = 0.0;
        for p_local in [0.2, 0.5, 0.8, 0.96] {
            let p =
                progress_rate(&s, &Strategy::local_io_host(30, p_local, None));
            assert!(p > last, "p_local {p_local}: {p} <= {last}");
            last = p;
        }
    }

    #[test]
    fn breakdown_buckets_partition_cycle_time() {
        let s = sys();
        for strat in [
            Strategy::local_io_host(12, 0.8, None),
            Strategy::local_io_host(12, 0.5, Some(CompressionSpec::gzip1_host())),
            Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp())),
            Strategy::IoOnly {
                interval: None,
                compression: None,
            },
            Strategy::LocalOnly { interval: None },
        ] {
            let sol = solve_cycle(&s, &strat).unwrap();
            let b = sol.breakdown;
            assert!(
                (b.total() - sol.cycle_time).abs()
                    < 1e-6 * sol.cycle_time,
                "{strat:?}: total {} != cycle {}",
                b.total(),
                sol.cycle_time
            );
            b.validate().unwrap();
        }
    }

    #[test]
    fn no_failures_limit_is_pure_overhead_ratio() {
        // With an enormous MTTI the model reduces to
        // progress = k·tau / (k·(tau+delta) + t_io).
        let s = SystemParams {
            mtti: 1e12,
            ..sys()
        };
        let k = 10;
        let sol =
            solve_cycle(&s, &Strategy::local_io_host(k, 0.8, None)).unwrap();
        let tau = 150.0;
        let delta = s.delta_local();
        let t_io = s.checkpoint_bytes / s.io_bw_per_node;
        let expected =
            (k as f64 * tau) / (k as f64 * (tau + delta) + t_io);
        assert!(
            (sol.progress_rate() - expected).abs() < 1e-6,
            "{} vs {}",
            sol.progress_rate(),
            expected
        );
    }

    #[test]
    fn headline_claim_shape_51_to_78() {
        // Sec. 6.3: averaged over p_local in {20,50,80,96}%, multilevel
        // with compression ~51% -> NDP with compression ~78%.
        // We reproduce the *shape*: a gap of tens of percentage points.
        let s = sys();
        let p_locals = [0.2, 0.5, 0.8, 0.96];
        let avg = |mk: &dyn Fn(f64) -> Strategy| -> f64 {
            p_locals
                .iter()
                .map(|&p| {
                    // Use each configuration's empirically optimal ratio
                    // for the host, as the paper does.
                    progress_rate(&s, &mk(p))
                })
                .sum::<f64>()
                / p_locals.len() as f64
        };
        let host_c = avg(&|p| {
            crate::ratio_opt::best_host_strategy(
                &s,
                p,
                Some(CompressionSpec::gzip1_host()),
            )
            .0
        });
        let ndp_c = avg(&|p| {
            Strategy::local_io_ndp(p, Some(CompressionSpec::gzip1_ndp()))
        });
        assert!(
            host_c > 0.35 && host_c < 0.68,
            "host+comp avg = {host_c}"
        );
        assert!(ndp_c > 0.70, "ndp+comp avg = {ndp_c}");
        assert!(
            ndp_c - host_c > 0.10,
            "gap too small: {host_c} -> {ndp_c}"
        );
    }
}
