//! Empirical optimisation of the locally-saved : I/O-saved checkpoint
//! ratio (§6.2, Figures 4 and 5).
//!
//! For `Local + I/O-Host`, saving I/O checkpoints more often raises
//! checkpoint time but lowers rerun time after I/O recoveries; the
//! optimum ratio is found by scanning. For `Local + I/O-NDP`, writing to
//! I/O more often costs the host nothing, so the best ratio is simply the
//! smallest sustainable one (computed in [`crate::params::derive_costs`]).

use crate::breakdown::Breakdown;
use crate::analytic::solve_cycle;
use crate::cache::solve_cycle_cached;
use crate::params::{CompressionSpec, Strategy, SystemParams};

/// Default upper bound of the ratio scan. At the paper's 150 s local
/// interval this corresponds to I/O checkpoints over 8 hours apart —
/// far beyond any useful operating point.
pub const MAX_RATIO: u32 = 400;

/// Progress rate of `Local + I/O-Host` for every ratio in `1..=max`
/// (Figure 4's x-axis sweep). Returns `(ratio, breakdown)` pairs.
pub fn host_overhead_sweep(
    sys: &SystemParams,
    p_local: f64,
    compression: Option<CompressionSpec>,
    max: u32,
) -> Vec<(u32, Breakdown)> {
    (1..=max)
        .map(|ratio| {
            let strat = Strategy::local_io_host(ratio, p_local, compression);
            (ratio, solve_cycle(sys, &strat).breakdown)
        })
        .collect()
}

/// Finds the ratio maximising progress rate for `Local + I/O-Host` with
/// an explicit local interval (`None` = Daly optimum for the local
/// level, used by the §6.5 sensitivity sweeps where the hardware
/// varies). Returns `(best_ratio, best_progress)`.
pub fn best_host_ratio_at(
    sys: &SystemParams,
    p_local: f64,
    compression: Option<CompressionSpec>,
    interval: Option<f64>,
) -> (u32, f64) {
    let mut best = (1u32, f64::MIN);
    for ratio in 1..=MAX_RATIO {
        let strat = Strategy::LocalIoHost {
            interval,
            ratio,
            p_local,
            compression,
        };
        let p = solve_cycle_cached(sys, &strat).progress_rate();
        if p > best.1 {
            best = (ratio, p);
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

    #[test]
    fn best_ratio_is_first_maximum_of_overhead_sweep() {
        // Fig. 5's ratio is the first maximum of Fig. 4's sweep, with a
        // bit-equal progress rate: the memoized scan and the plain map
        // over the direct solver must agree on every cell.
        let factors = [None, Some(0.35), Some(0.57), Some(0.728), Some(0.842)];
        for p_local in [0.2, 0.5, 0.8, 0.96] {
            for factor in factors {
                let comp = factor.map(CompressionSpec::gzip1_host_with_factor);
                let mut first_max = (0u32, f64::MIN);
                for (ratio, b) in
                    host_overhead_sweep(&sys(), p_local, comp, MAX_RATIO)
                {
                    if b.progress_rate() > first_max.1 {
                        first_max = (ratio, b.progress_rate());
                    }
                }
                let best = best_host_ratio(&sys(), p_local, comp);
                let cell = format!("p_local {p_local} factor {factor:?}");
                assert_eq!(best.0, first_max.0, "{cell}");
                assert_eq!(best.1.to_bits(), first_max.1.to_bits(), "{cell}");
            }
        }
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
