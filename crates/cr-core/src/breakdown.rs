//! Execution-time breakdown of an application running under C/R.
//!
//! §6.2 of the paper decomposes total execution time into *compute*,
//! *checkpoint*, *restore* and *rerun* components; §6.4 further splits
//! the overhead components by the storage level involved (local NVM vs
//! global I/O). [`Breakdown`] is that seven-way decomposition, produced
//! by both the analytic model and the discrete-event simulator.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Seven-way decomposition of application wall-clock time, in seconds.
///
/// Invariant: every field is non-negative, and
/// `total() = compute + checkpoint + restore + rerun` accounts for all
/// wall time. `progress_rate()` is `compute / total()`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Useful (first-time) computation.
    pub compute: f64,
    /// Writing checkpoints to node-local storage (incl. interrupted
    /// attempts).
    pub checkpoint_local: f64,
    /// Host-blocking time writing checkpoints to global I/O (incl.
    /// interrupted attempts). Zero under NDP offload.
    pub checkpoint_io: f64,
    /// Restoring from locally-saved checkpoints (incl. interrupted
    /// attempts).
    pub restore_local: f64,
    /// Restoring from I/O-saved checkpoints (incl. interrupted
    /// attempts).
    pub restore_io: f64,
    /// Re-executing lost work after recoveries from local checkpoints.
    pub rerun_local: f64,
    /// Re-executing lost work after recoveries from I/O checkpoints.
    pub rerun_io: f64,
}

impl Breakdown {
    /// A zeroed breakdown.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total checkpoint time across levels.
    pub fn checkpoint(&self) -> f64 {
        self.checkpoint_local + self.checkpoint_io
    }

    /// Total restore time across levels.
    pub fn restore(&self) -> f64 {
        self.restore_local + self.restore_io
    }

    /// Total rerun time across levels.
    pub fn rerun(&self) -> f64 {
        self.rerun_local + self.rerun_io
    }

    /// Total C/R overhead (everything except useful compute).
    pub fn overhead(&self) -> f64 {
        self.checkpoint() + self.restore() + self.rerun()
    }

    /// Total wall-clock time.
    pub fn total(&self) -> f64 {
        self.compute + self.overhead()
    }

    /// Progress rate / efficiency: fraction of wall time doing useful
    /// work. Returns 0 for an empty breakdown.
    pub fn progress_rate(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.compute / t
        }
    }

    /// All components scaled so that `compute == 1` (Figure 4a / 7-left
    /// normalization). Panics if compute is zero.
    pub fn normalized_to_compute(&self) -> Self {
        assert!(self.compute > 0.0, "cannot normalize: compute time is 0");
        self.scaled(1.0 / self.compute)
    }

    /// All components scaled so that `total() == 1` (Figure 4b / 7-right
    /// percentage view). Panics if total is zero.
    pub fn as_fractions(&self) -> Self {
        let t = self.total();
        assert!(t > 0.0, "cannot take fractions of an empty breakdown");
        self.scaled(1.0 / t)
    }

    /// Every component multiplied by `s`.
    pub fn scaled(&self, s: f64) -> Self {
        Self {
            compute: self.compute * s,
            checkpoint_local: self.checkpoint_local * s,
            checkpoint_io: self.checkpoint_io * s,
            restore_local: self.restore_local * s,
            restore_io: self.restore_io * s,
            rerun_local: self.rerun_local * s,
            rerun_io: self.rerun_io * s,
        }
    }

    /// The seven buckets as `(field name, value)`, in declaration order.
    pub fn buckets(&self) -> [(&'static str, f64); 7] {
        [
            ("compute", self.compute),
            ("checkpoint_local", self.checkpoint_local),
            ("checkpoint_io", self.checkpoint_io),
            ("restore_local", self.restore_local),
            ("restore_io", self.restore_io),
            ("rerun_local", self.rerun_local),
            ("rerun_io", self.rerun_io),
        ]
    }

    /// Checks internal sanity: all fields finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in self.buckets() {
            if !v.is_finite() {
                return Err(format!("{name} is not finite: {v}"));
            }
            if v < -1e-9 {
                return Err(format!("{name} is negative: {v}"));
            }
        }
        Ok(())
    }
}

impl Add for Breakdown {
    type Output = Breakdown;
    fn add(self, rhs: Breakdown) -> Breakdown {
        Breakdown {
            compute: self.compute + rhs.compute,
            checkpoint_local: self.checkpoint_local + rhs.checkpoint_local,
            checkpoint_io: self.checkpoint_io + rhs.checkpoint_io,
            restore_local: self.restore_local + rhs.restore_local,
            restore_io: self.restore_io + rhs.restore_io,
            rerun_local: self.rerun_local + rhs.rerun_local,
            rerun_io: self.rerun_io + rhs.rerun_io,
        }
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.as_fractions();
        write!(
            f,
            "progress {:5.1}% | ckpt L {:4.1}% IO {:4.1}% | restore L {:4.1}% IO {:4.1}% | rerun L {:4.1}% IO {:4.1}%",
            self.progress_rate() * 100.0,
            p.checkpoint_local * 100.0,
            p.checkpoint_io * 100.0,
            p.restore_local * 100.0,
            p.restore_io * 100.0,
            p.rerun_local * 100.0,
            p.rerun_io * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Breakdown {
        Breakdown {
            compute: 100.0,
            checkpoint_local: 10.0,
            checkpoint_io: 5.0,
            restore_local: 2.0,
            restore_io: 3.0,
            rerun_local: 4.0,
            rerun_io: 6.0,
        }
    }

    #[test]
    fn totals_and_progress() {
        let b = sample();
        assert_eq!(b.checkpoint(), 15.0);
        assert_eq!(b.restore(), 5.0);
        assert_eq!(b.rerun(), 10.0);
        assert_eq!(b.overhead(), 30.0);
        assert_eq!(b.total(), 130.0);
        assert!((b.progress_rate() - 100.0 / 130.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_progress_is_zero() {
        assert_eq!(Breakdown::zero().progress_rate(), 0.0);
    }

    #[test]
    fn normalization_invariants() {
        let b = sample();
        let n = b.normalized_to_compute();
        assert!((n.compute - 1.0).abs() < 1e-12);
        assert!((n.total() - 1.3).abs() < 1e-12);
        let f = b.as_fractions();
        assert!((f.total() - 1.0).abs() < 1e-12);
        // Progress rate is scale-invariant.
        assert!((f.progress_rate() - b.progress_rate()).abs() < 1e-12);
    }

    #[test]
    fn add_accumulates_componentwise() {
        let mut a = sample();
        a += sample();
        assert_eq!(a.compute, 200.0);
        assert_eq!(a.total(), 260.0);
    }

    #[test]
    fn validate_rejects_nan_and_negative() {
        let mut b = sample();
        b.rerun_io = f64::NAN;
        assert!(b.validate().is_err());
        let mut b = sample();
        b.compute = -1.0;
        assert!(b.validate().is_err());
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn display_contains_progress() {
        let s = format!("{}", sample());
        assert!(s.contains("progress"), "{s}");
        assert!(s.contains("76.9%"), "{s}");
    }
}
