//! Empirical optimisation of the locally-saved : I/O-saved checkpoint
//! ratio (§6.2, Figures 4 and 5).
//!
//! For `Local + I/O-Host`, saving I/O checkpoints more often raises
//! checkpoint time but lowers rerun time after I/O recoveries; the
//! optimum ratio is found by a bracketed search over `1..=MAX_RATIO`
//! that returns what a full scan would. For `Local + I/O-NDP`, writing to
//! I/O more often costs the host nothing, so the best ratio is simply the
//! smallest sustainable one (computed in [`crate::params::derive_costs`]).

use crate::breakdown::Breakdown;
use crate::analytic::{solve_cycle, CycleSolution, Refusal};
use crate::cache::solve_cycle_cached;
use crate::params::{CompressionSpec, Strategy, SystemParams};

/// Upper bound of the ratio search. At the paper's 150 s local
/// interval this corresponds to I/O checkpoints over 8 hours apart —
/// far beyond any useful operating point.
pub const MAX_RATIO: u32 = 400;

/// Progress rate of `Local + I/O-Host` for every ratio in `1..=max`
/// (Figure 4's x-axis sweep). Returns `(ratio, breakdown)` pairs; the
/// ratios the model refuses are left out.
pub fn host_overhead_sweep(
    sys: &SystemParams,
    p_local: f64,
    compression: Option<CompressionSpec>,
    max: u32,
) -> Vec<(u32, Breakdown)> {
    (1..=max)
        .filter_map(|ratio| {
            let strat = Strategy::local_io_host(ratio, p_local, compression);
            Some((ratio, solve_cycle(sys, &strat).ok()?.breakdown))
        })
        .collect()
}

/// A solve's score in the search: its progress rate, which a refusal
/// for too little progress carries too, else 0. Refused ratios rank
/// below every admitted one, yet still rise towards an admitted peak.
fn score(sol: Result<CycleSolution, Refusal>) -> f64 {
    match sol {
        Ok(s) => s.progress_rate(),
        Err(Refusal::NoProgress(progress)) => progress,
        Err(_) => 0.0,
    }
}

/// Finds the ratio maximising progress rate for `Local + I/O-Host` with
/// an explicit local interval (`None` = Daly optimum for the local
/// level, used by the §6.5 sensitivity sweeps where the hardware
/// varies). Returns `(best_ratio, best_progress)`: the first maximum
/// over `1..=MAX_RATIO`, exactly as a full scan would find it, from
/// about 12 solves instead of 400. A refused ratio ranks below every
/// admitted one, so the best is refused only if every ratio is.
pub fn best_host_ratio_at(
    sys: &SystemParams,
    p_local: f64,
    compression: Option<CompressionSpec>,
    interval: Option<f64>,
) -> (u32, f64) {
    first_max(|ratio| {
        let strat = Strategy::LocalIoHost {
            interval,
            ratio,
            p_local,
            compression,
        };
        score(solve_cycle_cached(sys, &strat))
    })
}

/// Ratios left for the final scan of [`first_max`].
const WINDOW: u32 = 9;

/// The first maximum of `f` over `1..=MAX_RATIO` as `(ratio, f(ratio))`,
/// with each ratio evaluated at most once.
///
/// Progress over ratio rises to one peak and then falls, up to
/// reversals of a few 1e-16 near the peak. Past the point where a
/// configuration becomes hopeless the model refuses it, and the rate
/// the refusal carries rises again, by ~1e-15, as the solver clamps the
/// cycle time (see `analytic::solve_cycle`), so a plain ternary search
/// over the whole range can land on `MAX_RATIO`. The search therefore:
///
/// 1. gallops from 1 (1, 2, 4, …, capped at `MAX_RATIO`) to the first
///    step that does not improve, which stops well before that tail;
/// 2. narrows the bracket `(a, b, c)` around the best ratio seen, `b`,
///    by golden-section probes until at most [`WINDOW`] ratios remain;
///    `b` only moves to a strictly better ratio, or to an equal one on
///    its left, so the tail can never win;
/// 3. scans `a..=c` with the full scan's own `>` rule.
fn first_max(mut f: impl FnMut(u32) -> f64) -> (u32, f64) {
    let mut seen: Vec<(u32, f64)> = Vec::with_capacity(32);
    let mut eval = |r: u32| match seen.iter().find(|(x, _)| *x == r) {
        Some(&(_, v)) => v,
        None => {
            let v = f(r);
            seen.push((r, v));
            v
        }
    };

    // 1. Gallop: `b` is the last improving step, `a` the one before it.
    let (mut a, mut b) = (1, 1);
    let mut fb = eval(1);
    let mut c = b;
    while b < MAX_RATIO {
        c = (2 * b).min(MAX_RATIO);
        let fc = eval(c);
        if fc <= fb {
            break;
        }
        (a, b, fb) = (b, c, fc);
        c = b;
    }

    // 2. Narrow: f(b) >= f(a) and f(b) >= f(c) throughout.
    while c - a + 1 > WINDOW {
        let x = if c - b >= b - a {
            b + ((c - b) as f64 * 0.382).ceil() as u32
        } else {
            b - ((b - a) as f64 * 0.382).ceil() as u32
        };
        let fx = eval(x);
        if x > b {
            if fx > fb {
                (a, b, fb) = (b, x, fx);
            } else {
                c = x;
            }
        } else if fx >= fb {
            (c, b, fb) = (b, x, fx);
        } else {
            a = x;
        }
    }

    // 3. Scan the window.
    let mut best = (a, eval(a));
    for r in a + 1..=c {
        let v = eval(r);
        if v > best.1 {
            best = (r, v);
        }
    }
    best
}

/// [`best_host_ratio_at`] with the paper's Table 4 interval (150 s).
pub fn best_host_ratio(
    sys: &SystemParams,
    p_local: f64,
    compression: Option<CompressionSpec>,
) -> (u32, f64) {
    best_host_ratio_at(sys, p_local, compression, Some(150.0))
}

/// Builds the empirically-optimal `Local + I/O-Host` strategy with an
/// explicit local interval. Returns the strategy and its progress rate.
pub fn best_host_strategy_at(
    sys: &SystemParams,
    p_local: f64,
    compression: Option<CompressionSpec>,
    interval: Option<f64>,
) -> (Strategy, f64) {
    let (ratio, progress) =
        best_host_ratio_at(sys, p_local, compression, interval);
    (
        Strategy::LocalIoHost {
            interval,
            ratio,
            p_local,
            compression,
        },
        progress,
    )
}

/// Builds the empirically-optimal `Local + I/O-Host` strategy for a
/// configuration at the paper's 150 s local interval, as the paper does
/// for all `Local + I/O-Host` data points. Returns the strategy and its
/// progress rate.
pub fn best_host_strategy(
    sys: &SystemParams,
    p_local: f64,
    compression: Option<CompressionSpec>,
) -> (Strategy, f64) {
    best_host_strategy_at(sys, p_local, compression, Some(150.0))
}

/// The NDP drain ratio in force for a `Local + I/O-NDP` configuration
/// (Figure 5's NDP series: one value per compression factor, independent
/// of `p_local`).
pub fn ndp_ratio(
    sys: &SystemParams,
    compression: Option<CompressionSpec>,
) -> u32 {
    let strat = Strategy::local_io_ndp(0.5, compression);
    crate::params::derive_costs(sys, &strat).ratio
}

/// One row of the Figure 5 data: optimal ratios for a compression factor
/// across recovery probabilities, plus the (probability-independent) NDP
/// ratio.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Compression factor this row was computed for (`None` = no
    /// compression).
    pub factor: Option<f64>,
    /// `(p_local, optimal host ratio)` pairs.
    pub host: Vec<(f64, u32)>,
    /// NDP drain ratio.
    pub ndp: u32,
}

/// Computes the Figure 5 table: optimal locally-saved : I/O-saved ratios
/// for host configurations at each `p_local`, and the NDP ratio, for a
/// set of compression factors (use `None` for the uncompressed column).
pub fn figure5_table(
    sys: &SystemParams,
    p_locals: &[f64],
    factors: &[Option<f64>],
) -> Vec<RatioRow> {
    factors
        .iter()
        .map(|&factor| {
            let host_comp =
                factor.map(CompressionSpec::gzip1_host_with_factor);
            let ndp_comp =
                factor.map(CompressionSpec::gzip1_ndp_with_factor);
            RatioRow {
                factor,
                host: p_locals
                    .iter()
                    .map(|&p| (p, best_host_ratio(sys, p, host_comp).0))
                    .collect(),
                ndp: ndp_ratio(sys, ndp_comp),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemParams {
        SystemParams::exascale_default()
    }

    #[test]
    fn overhead_sweep_has_interior_optimum() {
        // Fig. 4: total overhead decreases, reaches a minimum, then
        // increases again as I/O checkpoints become rarer.
        let sweep = host_overhead_sweep(&sys(), 0.8, None, 200);
        let progresses: Vec<f64> =
            sweep.iter().map(|(_, b)| b.progress_rate()).collect();
        let (best_idx, _) = progresses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!(
            best_idx > 0 && best_idx < progresses.len() - 1,
            "optimum at boundary: idx {best_idx}"
        );
        // Clearly better than both extremes.
        assert!(progresses[best_idx] > progresses[0] + 0.02);
        assert!(
            progresses[best_idx]
                > progresses[progresses.len() - 1] + 0.01
        );
    }

    /// The full scan the search replaces: the first maximum of `f` over
    /// `1..=MAX_RATIO`.
    fn scan(f: impl Fn(u32) -> f64) -> (u32, f64) {
        let mut best = (1u32, f64::MIN);
        for ratio in 1..=MAX_RATIO {
            let p = f(ratio);
            if p > best.1 {
                best = (ratio, p);
            }
        }
        best
    }

    /// Runs [`first_max`] on `f`, checks it against [`scan`] bit for
    /// bit, and returns the number of calls it made.
    fn search_matches_scan(f: impl Fn(u32) -> f64, cell: &str) -> usize {
        let mut calls = 0;
        let got = first_max(|r| {
            calls += 1;
            f(r)
        });
        let want = scan(&f);
        assert_eq!(got.0, want.0, "{cell}");
        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{cell}");
        assert!(calls <= 40, "{cell}: {calls} calls");
        calls
    }

    #[test]
    fn search_finds_first_maximum_of_synthetic_curves() {
        let quad =
            |peak: f64| move |r: u32| 0.8 - 1e-6 * (r as f64 - peak).powi(2);
        // Near-ties at a peak: a reversal of 1e-16 and an exact tie;
        // the first of the two equal maxima wins.
        let near_ties = |r: u32| match r {
            135 | 139 => 0.8 - 2e-16,
            136 | 138 => 0.8,
            137 => 0.8 - 1e-16,
            _ => quad(137.0)(r),
        };
        // A peak at 3, nothing in between, then a clamped tail that
        // rises with ratio and outranks the middle (as the rates of
        // `solve_cycle`'s refusals do at a 600 s interval).
        let clamped_tail = |r: u32| {
            if r < 133 {
                0.159 * (-((r as f64 - 3.0).powi(2)) / 50.0).exp()
            } else {
                1.7e-15 + (r - 133) as f64 * 1.3e-17
            }
        };
        let check = |name: &str, f: &dyn Fn(u32) -> f64, want: u32| {
            search_matches_scan(f, name);
            assert_eq!(first_max(f).0, want, "{name}");
        };
        check("maximum at 1", &|r| 1.0 / r as f64, 1);
        check("maximum at MAX_RATIO", &|r| r as f64, MAX_RATIO);
        let flat_start = |r: u32| 0.5 - r.saturating_sub(10) as f64 * 1e-3;
        check("flat start", &flat_start, 1);
        check("flat top", &|r| r.min(37) as f64, 37);
        check("interior peak", &quad(137.0), 137);
        check("peak past the last gallop step", &quad(300.0), 300);
        check("near-ties", &near_ties, 136);
        check("rising clamped tail", &clamped_tail, 3);
    }

    /// Every `(system, p_local, compression, interval)` cell of the
    /// oracle grid: the Figure 5 grid, the §6.5 sensitivity systems at
    /// the Daly interval, a 600 s interval at p_local <= 0.2 (where
    /// the model refuses every ratio past the optimum), and a mixed fill.
    fn oracle_grid() -> Vec<(SystemParams, f64, Option<f64>, Option<f64>)> {
        let base = sys();
        let mut cells = Vec::new();
        let fig5 = [None, Some(0.35), Some(0.57), Some(0.728), Some(0.842)];
        for p in [0.2, 0.5, 0.8, 0.96] {
            for f in fig5 {
                cells.push((base, p, f, Some(150.0)));
            }
        }
        let mut sensitivity = Vec::new();
        for frac in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8] {
            sensitivity.push(SystemParams {
                checkpoint_bytes: frac * 140e9,
                ..base
            });
        }
        for mtti in [60.0, 90.0, 120.0, 150.0] {
            sensitivity.push(SystemParams {
                mtti: mtti * 60.0,
                ..base
            });
        }
        for s in sensitivity {
            for local_bw in [15e9, 2e9] {
                for p in [0.5, 0.85, 0.96] {
                    for f in [None, Some(0.73)] {
                        let s = SystemParams { local_bw, ..s };
                        cells.push((s, p, f, None));
                    }
                }
            }
        }
        let varied = [
            base,
            SystemParams { mtti: 15.0 * 60.0, ..base },
            SystemParams { mtti: 60.0 * 60.0, ..base },
            SystemParams {
                checkpoint_bytes: 56e9,
                io_bw_per_node: 50e6,
                ..base
            },
        ];
        for s in varied {
            for p in [0.0, 0.1, 0.2] {
                for f in fig5 {
                    cells.push((s, p, f, Some(600.0)));
                }
            }
            for p in [0.2, 0.5, 0.8, 0.96] {
                for f in [None, Some(0.35), Some(0.57), Some(0.842)] {
                    for interval in [Some(60.0), Some(150.0), None] {
                        cells.push((s, p, f, interval));
                    }
                }
            }
        }
        cells
    }

    #[test]
    fn best_ratio_is_first_maximum_of_overhead_sweep() {
        // Fig. 5's ratio is the first maximum of Fig. 4's sweep, with a
        // bit-equal progress rate: the memoized search and the full
        // scan of the direct solver over every ratio (what
        // `host_overhead_sweep` maps) must agree on every cell, the
        // search in at most 40 solves.
        let grid = oracle_grid();
        let cells = grid.len();
        assert!(cells >= 400, "{cells} cells");
        let (mut calls, mut tails) = (0, 0);
        for (s, p_local, factor, interval) in grid {
            let comp = factor.map(CompressionSpec::gzip1_host_with_factor);
            let cell = format!(
                "{s:?} p_local {p_local} factor {factor:?} interval {interval:?}"
            );
            let solves: Vec<_> = (1..=MAX_RATIO)
                .map(|ratio| {
                    let strat = Strategy::LocalIoHost {
                        interval,
                        ratio,
                        p_local,
                        compression: comp,
                    };
                    solve_cycle(&s, &strat)
                })
                .collect();
            let curve: Vec<f64> = solves.iter().map(|&s| score(s)).collect();
            let at = |r: u32| curve[r as usize - 1];
            calls += search_matches_scan(at, &cell);
            let want = scan(at);
            let best = best_host_ratio_at(&s, p_local, comp, interval);
            assert_eq!(best.0, want.0, "{cell}");
            assert_eq!(best.1.to_bits(), want.1.to_bits(), "{cell}");
            // Progress falls past the optimum, then the rate its
            // refusals carry rises again to the last ratio: the clamped
            // tail a plain ternary search follows. The model refuses
            // all of it.
            if want.0 < MAX_RATIO / 2 && at(MAX_RATIO) > at(MAX_RATIO / 2) {
                let tail = &solves[MAX_RATIO as usize / 2 - 1..];
                assert!(tail.iter().all(Result::is_err), "{cell}");
                tails += 1;
            }
        }
        assert!(tails >= 20, "only {tails} clamped-tail cells");
        // The scan made 400 solves per cell; the search about 12.
        assert!(calls <= 20 * cells, "{calls} calls over {cells} cells");
    }

    #[test]
    fn search_climbs_refused_ratios_to_an_admitted_peak() {
        // A 1 min MTTI with every failure local: the I/O commit is pure
        // cost, and ratios 1 to 57 make too little progress to admit.
        let s = sys().with_mtti(60.0);
        let one = Strategy::local_io_host(1, 1.0, None);
        assert!(solve_cycle(&s, &one).is_err());
        let (ratio, progress) = best_host_ratio(&s, 1.0, None);
        let best = Strategy::local_io_host(ratio, 1.0, None);
        let sol = solve_cycle(&s, &best).unwrap();
        assert_eq!(sol.progress_rate(), progress);
    }

    #[test]
    fn best_ratio_increases_with_p_local() {
        // Fig. 5: the more failures recover locally, the rarer I/O
        // checkpoints should be.
        let r20 = best_host_ratio(&sys(), 0.2, None).0;
        let r96 = best_host_ratio(&sys(), 0.96, None).0;
        assert!(
            r96 > r20,
            "ratio at 96% ({r96}) should exceed ratio at 20% ({r20})"
        );
    }

    #[test]
    fn best_ratio_decreases_with_compression() {
        // Fig. 5: higher compression factor -> cheaper I/O checkpoints
        // -> lower optimal ratio.
        let plain = best_host_ratio(&sys(), 0.8, None).0;
        let comp = best_host_ratio(
            &sys(),
            0.8,
            Some(CompressionSpec::gzip1_host()),
        )
        .0;
        assert!(
            comp < plain,
            "compressed ratio {comp} should be below plain {plain}"
        );
    }

    #[test]
    fn ndp_ratio_is_independent_of_p_local_and_small() {
        let s = sys();
        let plain = ndp_ratio(&s, None);
        let comp = ndp_ratio(&s, Some(CompressionSpec::gzip1_ndp()));
        assert_eq!(plain, 8);
        assert_eq!(comp, 3);
        // NDP writes to I/O much more often than the host optimum.
        let host = best_host_ratio(&s, 0.8, None).0;
        assert!(plain < host);
    }

    #[test]
    fn figure5_table_shape() {
        let rows = figure5_table(
            &sys(),
            &[0.2, 0.8],
            &[None, Some(0.728)],
        );
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.host.len(), 2);
            assert!(row.ndp >= 1);
        }
        // Compressed row has uniformly lower-or-equal host ratios.
        for (a, b) in rows[0].host.iter().zip(rows[1].host.iter()) {
            assert!(b.1 <= a.1);
        }
    }
}
