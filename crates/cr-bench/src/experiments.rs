//! One function per table/figure of the paper's evaluation section.
//!
//! Every function returns plain data; the `repro_*` binaries render it
//! and the integration tests assert the paper's qualitative claims on
//! it. Simulation-backed experiments take [`crate::ReproOpts`] so tests
//! can run them at reduced fidelity.

use cr_core::breakdown::Breakdown;
use cr_core::ndp_sizing::{self, NdpSizing, UtilityProfile, PAPER_TABLE2};
use cr_core::params::{CompressionSpec, Strategy, SystemParams};
use cr_core::ratio_opt;
use cr_core::units::*;
use cr_core::{analytic, daly};
use cr_sim::simulate_avg;
use cr_workloads::CheckpointGenerator;

use crate::ReproOpts;

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

/// Figure 1: progress rate of optimally-checkpointed single-level C/R
/// as a function of `M/δ`.
pub fn fig1(points: usize) -> Vec<(f64, f64)> {
    daly::figure1_curve(1.0, 1e4, points)
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One row of the Table 1 rendering.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Parameter name.
    pub parameter: &'static str,
    /// Titan value (rendered).
    pub titan: String,
    /// Exascale projection value (rendered).
    pub exascale: String,
    /// Change factor (rendered).
    pub factor: String,
}

/// Table 1: the exascale projection, regenerated from the scaling rules.
pub fn table1() -> Vec<Table1Row> {
    use cr_core::projection::{ExascaleProjection, TitanBaseline};
    let t = TitanBaseline::titan();
    let p = ExascaleProjection::paper_default();
    let f = |a: f64, b: f64| format!("{:.2}x", b / a);
    vec![
        Table1Row {
            parameter: "Node Count",
            titan: format!("{}", t.node_count),
            exascale: format!("{}", p.node_count),
            factor: f(t.node_count as f64, p.node_count as f64),
        },
        Table1Row {
            parameter: "System Peak",
            titan: format!("{:.0} PF", t.system_peak() / PFLOPS),
            exascale: format!("{:.0} EF", p.system_peak / EFLOPS),
            factor: f(t.system_peak(), p.system_peak),
        },
        Table1Row {
            parameter: "Node Peak",
            titan: format!("{:.2} TF", t.node_peak / TFLOPS),
            exascale: format!("{:.0} TF", p.node_peak / TFLOPS),
            factor: f(t.node_peak, p.node_peak),
        },
        Table1Row {
            parameter: "System Memory",
            titan: format!("{:.0} TB", t.system_memory() / TB),
            exascale: format!("{:.0} PB", p.system_memory / PB),
            factor: f(t.system_memory(), p.system_memory),
        },
        Table1Row {
            parameter: "Node Memory",
            titan: fmt_bytes(t.node_memory),
            exascale: fmt_bytes(p.node_memory),
            factor: f(t.node_memory, p.node_memory),
        },
        Table1Row {
            parameter: "Interconnect BW",
            titan: fmt_rate(t.interconnect_bw),
            exascale: fmt_rate(p.interconnect_bw),
            factor: f(t.interconnect_bw, p.interconnect_bw),
        },
        Table1Row {
            parameter: "I/O Bandwidth",
            titan: fmt_rate(t.io_bw),
            exascale: fmt_rate(p.io_bw),
            factor: f(t.io_bw, p.io_bw),
        },
        Table1Row {
            parameter: "System MTTI",
            titan: format!("{:.0} min", t.mtti / MINUTE),
            exascale: format!("{:.0} min", p.mtti / MINUTE),
            factor: format!("(1/{:.2})x", t.mtti / p.mtti),
        },
    ]
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// Measured compression of one codec on one mini-app.
#[derive(Debug, Clone, Copy)]
pub struct Table2Cell {
    /// Measured compression factor.
    pub factor: f64,
    /// Measured single-thread compression speed, bytes/s.
    pub speed: f64,
    /// Paper's factor for the corresponding utility (reference).
    pub paper_factor: f64,
    /// Paper's speed, bytes/s (reference).
    pub paper_speed: f64,
}

/// One mini-app row of the reproduced Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Mini-app name.
    pub app: &'static str,
    /// Cells in `study_codecs()` column order.
    pub cells: Vec<Table2Cell>,
}

/// Table 2: runs the in-crate codec of each utility family on a
/// synthetic checkpoint image of each mini-app.
pub fn table2(opts: &ReproOpts) -> Vec<Table2Row> {
    use cr_compress::measure::measure;
    use cr_compress::registry::study_codecs;
    let codecs = study_codecs();
    cr_workloads::all_mini_apps()
        .iter()
        .enumerate()
        .map(|(row_idx, app)| {
            let image = app.generate(opts.image_mb << 20, opts.seed);
            let cells = codecs
                .iter()
                .enumerate()
                .map(|(col, codec)| {
                    let m = measure(codec.as_ref(), &image);
                    let paper = PAPER_TABLE2[row_idx].data[col];
                    Table2Cell {
                        factor: m.factor,
                        speed: m.compress_rate,
                        paper_factor: paper.factor,
                        paper_speed: paper.speed,
                    }
                })
                .collect();
            Table2Row {
                app: app.name(),
                cells,
            }
        })
        .collect()
}

/// Column-wise averages of a reproduced Table 2 (the paper's "Average"
/// row): `(factor, speed)` per codec column.
pub fn table2_averages(rows: &[Table2Row]) -> Vec<(f64, f64)> {
    let cols = rows[0].cells.len();
    (0..cols)
        .map(|c| {
            let n = rows.len() as f64;
            let f = rows.iter().map(|r| r.cells[c].factor).sum::<f64>() / n;
            let s = rows.iter().map(|r| r.cells[c].speed).sum::<f64>() / n;
            (f, s)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

/// Table 3 from the paper's measured utility profiles.
pub fn table3_paper() -> Vec<(UtilityProfile, NdpSizing)> {
    ndp_sizing::table3(&SystemParams::exascale_default())
}

/// Table 3 recomputed from *our* codecs' measured averages (feeding the
/// reproduced Table 2 into the §4.4 sizing equations).
pub fn table3_measured(rows: &[Table2Row]) -> Vec<(String, NdpSizing)> {
    let sys = SystemParams::exascale_default();
    let labels = cr_compress::registry::study_paper_labels();
    table2_averages(rows)
        .iter()
        .zip(labels.iter())
        .map(|(&(factor, speed), label)| {
            // Guard degenerate factors (incompressible synthetic data
            // would divide by zero).
            let f = factor.clamp(0.0, 0.99);
            (label.to_string(), ndp_sizing::size_ndp(&sys, f, speed))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// Figure 4: C/R overhead breakdown of `Local + I/O-Host` as the
/// locally-saved : I/O-saved ratio sweeps. Analytic model (smooth), as
/// in the paper.
pub fn fig4(
    p_local: f64,
    compression: Option<CompressionSpec>,
    max_ratio: u32,
) -> Vec<(u32, Breakdown)> {
    let sys = SystemParams::exascale_default();
    ratio_opt::host_overhead_sweep(&sys, p_local, compression, max_ratio)
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// Figure 5: optimal locally-saved : I/O-saved checkpoint ratios.
pub fn fig5() -> Vec<ratio_opt::RatioRow> {
    let sys = SystemParams::exascale_default();
    ratio_opt::figure5_table(
        &sys,
        &[0.2, 0.5, 0.8, 0.96],
        &[None, Some(0.35), Some(0.57), Some(0.728), Some(0.842)],
    )
}

// ---------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------

/// One data point of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Cell {
    /// Pooled simulated progress rate.
    pub sim: f64,
    /// Analytic-model progress rate.
    pub analytic: f64,
}

/// Figure 6 data: progress-rate comparison across configurations.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// Column labels: "No comp", three mini-apps, "Average".
    pub columns: Vec<String>,
    /// Row labels: configuration names.
    pub rows: Vec<String>,
    /// `values[row][col]`.
    pub values: Vec<Vec<Fig6Cell>>,
}

/// The three mini-apps Figure 6 displays individually.
pub const FIG6_APPS: [&str; 3] = ["CoMD", "miniMD", "miniSmac"];

fn host_strategy(
    sys: &SystemParams,
    p_local: f64,
    comp: Option<CompressionSpec>,
) -> Strategy {
    ratio_opt::best_host_strategy(sys, p_local, comp).0
}

/// Evaluates one configuration under sim + analytic.
fn eval_cell(
    sys: &SystemParams,
    strat: &Strategy,
    opts: &ReproOpts,
) -> Fig6Cell {
    let avg = simulate_avg(sys, strat, &opts.sim_options(), opts.replicas);
    Fig6Cell {
        sim: avg.progress_rate(),
        analytic: analytic::progress_rate(sys, strat),
    }
}

/// Figure 6: progress rates for `I/O Only`, `Local(x%) + I/O-Host` and
/// `Local(x%) + I/O-NDP` (x ∈ {20, 50, 80}), without compression and
/// with each app's gzip(1) factor, plus the 7-app average.
pub fn fig6(opts: &ReproOpts) -> Fig6Data {
    let sys = SystemParams::exascale_default();
    let p_locals = [0.2, 0.5, 0.8];

    let mut columns = vec!["No comp".to_string()];
    columns.extend(FIG6_APPS.iter().map(|s| s.to_string()));
    columns.push("Average".to_string());

    // Factors per column: None, app-specific, and the list for Average.
    let all_factors: Vec<f64> = PAPER_TABLE2
        .iter()
        .map(|r| r.data[0].factor) // gzip(1) column
        .collect();

    let mut rows = Vec::new();
    let mut values = Vec::new();

    // Build the row list: IoOnly + host configs + ndp configs.
    enum RowKind {
        IoOnly,
        Host(f64),
        Ndp(f64),
    }
    let row_kinds: Vec<(String, RowKind)> = std::iter::once((
        "I/O Only".to_string(),
        RowKind::IoOnly,
    ))
    .chain(p_locals.iter().map(|&p| {
        (
            format!("Local({:.0}%) + I/O-H", p * 100.0),
            RowKind::Host(p),
        )
    }))
    .chain(p_locals.iter().map(|&p| {
        (
            format!("Local({:.0}%) + I/O-N", p * 100.0),
            RowKind::Ndp(p),
        )
    }))
    .collect();

    for (label, kind) in row_kinds {
        let mut row_vals = Vec::new();
        // Helper evaluating this row for one compression factor
        // (None = no compression).
        let eval_for = |factor: Option<f64>, opts: &ReproOpts| -> Fig6Cell {
            let (host_comp, ndp_comp) = match factor {
                None => (None, None),
                Some(f) => (
                    Some(CompressionSpec::gzip1_host_with_factor(f)),
                    Some(CompressionSpec::gzip1_ndp_with_factor(f)),
                ),
            };
            let strat = match &kind {
                RowKind::IoOnly => Strategy::IoOnly {
                    interval: None,
                    compression: host_comp,
                },
                RowKind::Host(p) => host_strategy(&sys, *p, host_comp),
                RowKind::Ndp(p) => Strategy::local_io_ndp(*p, ndp_comp),
            };
            eval_cell(&sys, &strat, opts)
        };

        // Column 1: no compression.
        row_vals.push(eval_for(None, opts));
        // Columns 2..4: the three displayed apps.
        for app in FIG6_APPS {
            let f = ndp_sizing::gzip1_factor(app).expect("known app");
            row_vals.push(eval_for(Some(f), opts));
        }
        // Column 5: average over all seven apps.
        let per_app: Vec<Fig6Cell> = all_factors
            .iter()
            .map(|&f| eval_for(Some(f), opts))
            .collect();
        let n = per_app.len() as f64;
        row_vals.push(Fig6Cell {
            sim: per_app.iter().map(|c| c.sim).sum::<f64>() / n,
            analytic: per_app.iter().map(|c| c.analytic).sum::<f64>() / n,
        });

        rows.push(label);
        values.push(row_vals);
    }

    Fig6Data {
        columns,
        rows,
        values,
    }
}

/// The headline §6.3 averages: `(multilevel+compression, NDP+compression)`
/// progress averaged over `p_local ∈ {20, 50, 80, 96}%` at the average
/// compression factor (paper: 51% → 78%).
pub fn headline_averages(opts: &ReproOpts) -> (f64, f64) {
    let sys = SystemParams::exascale_default();
    let p_locals = [0.2, 0.5, 0.8, 0.96];
    let host: f64 = p_locals
        .iter()
        .map(|&p| {
            let s = host_strategy(&sys, p, Some(CompressionSpec::gzip1_host()));
            simulate_avg(&sys, &s, &opts.sim_options(), opts.replicas)
                .progress_rate()
        })
        .sum::<f64>()
        / p_locals.len() as f64;
    let ndp: f64 = p_locals
        .iter()
        .map(|&p| {
            let s = Strategy::local_io_ndp(p, Some(CompressionSpec::gzip1_ndp()));
            simulate_avg(&sys, &s, &opts.sim_options(), opts.replicas)
                .progress_rate()
        })
        .sum::<f64>()
        / p_locals.len() as f64;
    (host, ndp)
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

/// One configuration of Figure 7 with simulated and analytic
/// breakdowns.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Configuration label (paper notation).
    pub label: String,
    /// Pooled simulated breakdown.
    pub sim: Breakdown,
    /// Analytic breakdown (lag-free NDP accounting, matching the
    /// paper).
    pub analytic: Breakdown,
}

/// Figure 7: C/R overhead breakdown of the four multilevel
/// configurations at 4% I/O-recovery probability and 73% compression
/// factor.
pub fn fig7(opts: &ReproOpts) -> Vec<Fig7Row> {
    use cr_core::params::DrainLagModel;
    let sys = SystemParams::exascale_default();
    let p_local = 0.96;
    let host_c = CompressionSpec::gzip1_host_with_factor(0.73);
    let ndp_c = CompressionSpec::gzip1_ndp_with_factor(0.73);

    let ndp_strat = |comp: Option<CompressionSpec>, lag| Strategy::LocalIoNdp {
        interval: Some(150.0),
        ratio: None,
        p_local,
        compression: comp,
        drain_lag: lag,
    };

    let configs: Vec<(String, Strategy, Strategy)> = vec![
        {
            let s = host_strategy(&sys, p_local, None);
            ("Local + I/O-H".to_string(), s, s)
        },
        {
            let s = host_strategy(&sys, p_local, Some(host_c));
            ("Local + I/O-HC".to_string(), s, s)
        },
        (
            "Local + I/O-N".to_string(),
            ndp_strat(None, DrainLagModel::Pipelined),
            ndp_strat(None, DrainLagModel::Ignore),
        ),
        (
            "Local + I/O-NC".to_string(),
            ndp_strat(Some(ndp_c), DrainLagModel::Pipelined),
            ndp_strat(Some(ndp_c), DrainLagModel::Ignore),
        ),
    ];

    configs
        .into_iter()
        .map(|(label, sim_strat, analytic_strat)| {
            let avg =
                simulate_avg(&sys, &sim_strat, &opts.sim_options(), opts.replicas);
            Fig7Row {
                label,
                sim: avg.pooled,
                analytic: analytic::solve_cycle(&sys, &analytic_strat)
                    .expect("admitted")
                    .breakdown,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 8 and 9 (sensitivity)
// ---------------------------------------------------------------------

/// A sweep result: x-axis values and one progress series per
/// configuration.
#[derive(Debug, Clone)]
pub struct SweepData {
    /// X-axis label.
    pub x_label: &'static str,
    /// X-axis values.
    pub xs: Vec<f64>,
    /// `(config label, progress per x)` series.
    pub series: Vec<(String, Vec<f64>)>,
}

/// The five §6.5 sensitivity configurations, parameterized by local
/// bandwidth: `L-15GBps + I/O-HC`, `L-15GBps + I/O-N(C)`,
/// `L-2GBps + I/O-N(C)`.
///
/// Unlike the Figure 6/7 experiments (which use the Table 4 interval of
/// 150 s for the fixed default system), the sensitivity sweeps let the
/// local checkpoint interval follow Daly's optimum per configuration:
/// a 2 GB/s NVM with a 56 s commit needs a ~410 s interval, not 150 s.
fn sensitivity_configs(
    sys_at: &dyn Fn(f64) -> SystemParams,
) -> Vec<(String, SystemParams, Strategy)> {
    let p_local = 0.85;
    let cf = 0.73;
    let host_c = CompressionSpec::gzip1_host_with_factor(cf);
    let ndp_c = CompressionSpec::gzip1_ndp_with_factor(cf);
    let fast = sys_at(15.0 * GB);
    let slow = sys_at(2.0 * GB);
    let ndp = |comp: Option<CompressionSpec>| Strategy::LocalIoNdp {
        interval: None,
        ratio: None,
        p_local,
        compression: comp,
        drain_lag: Default::default(),
    };
    vec![
        (
            "L-15GBps + I/O-HC".to_string(),
            fast,
            ratio_opt::best_host_strategy_at(&fast, p_local, Some(host_c), None)
                .0,
        ),
        ("L-15GBps + I/O-N".to_string(), fast, ndp(None)),
        ("L-15GBps + I/O-NC".to_string(), fast, ndp(Some(ndp_c))),
        ("L-2GBps + I/O-N".to_string(), slow, ndp(None)),
        ("L-2GBps + I/O-NC".to_string(), slow, ndp(Some(ndp_c))),
    ]
}

/// Figure 8: progress vs checkpoint size (10–80% of node memory) for
/// the five sensitivity configurations. MTTI fixed at 30 minutes.
pub fn fig8(opts: &ReproOpts) -> SweepData {
    let node_memory = 140.0 * GB;
    let fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for &frac in &fractions {
        let size = frac * node_memory;
        let sys_at = move |local_bw: f64| SystemParams {
            checkpoint_bytes: size,
            local_bw,
            ..SystemParams::exascale_default()
        };
        for (i, (label, sys, strat)) in
            sensitivity_configs(&sys_at).into_iter().enumerate()
        {
            if series.len() <= i {
                series.push((label, Vec::new()));
            }
            let p = simulate_avg(&sys, &strat, &opts.sim_options(), opts.replicas)
                .progress_rate();
            series[i].1.push(p);
        }
    }
    SweepData {
        x_label: "checkpoint size (% of memory)",
        xs: fractions.iter().map(|f| f * 100.0).collect(),
        series,
    }
}

/// Figure 9: progress vs MTTI (30–150 minutes) for the five sensitivity
/// configurations. Checkpoint size fixed at 112 GB.
pub fn fig9(opts: &ReproOpts) -> SweepData {
    let mttis = [30.0, 60.0, 90.0, 120.0, 150.0];
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for &mtti_min in &mttis {
        let sys_at = move |local_bw: f64| SystemParams {
            mtti: mtti_min * MINUTE,
            local_bw,
            ..SystemParams::exascale_default()
        };
        for (i, (label, sys, strat)) in
            sensitivity_configs(&sys_at).into_iter().enumerate()
        {
            if series.len() <= i {
                series.push((label, Vec::new()));
            }
            let p = simulate_avg(&sys, &strat, &opts.sim_options(), opts.replicas)
                .progress_rate();
            series[i].1.push(p);
        }
    }
    SweepData {
        x_label: "MTTI (minutes)",
        xs: mttis.to_vec(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reaches_90_around_200() {
        let curve = fig1(128);
        // Find where the curve crosses 0.9.
        let cross = curve
            .windows(2)
            .find(|w| w[0].1 < 0.9 && w[1].1 >= 0.9)
            .expect("curve must cross 90%");
        assert!(
            cross[1].0 > 120.0 && cross[1].0 < 320.0,
            "90% crossing at M/delta = {}",
            cross[1].0
        );
    }

    #[test]
    fn table1_has_eight_rows() {
        let rows = table1();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].exascale, "100000");
        assert!(rows[3].exascale.contains("14 PB"));
    }

    #[test]
    fn table3_paper_matches_published() {
        let t = table3_paper();
        assert_eq!(t.len(), 7);
        assert_eq!(t[0].1.cores, 4); // gzip(1)
        assert_eq!(t[6].1.cores, 1); // lz4(1)
    }

    #[test]
    fn fig5_rows_cover_factors() {
        let rows = fig5();
        assert_eq!(rows.len(), 5);
        // NDP ratio for no compression is 8 (Sec. 6.4).
        assert_eq!(rows[0].ndp, 8);
    }

    #[test]
    fn fig4_has_interior_optimum() {
        let sweep = fig4(0.85, None, 120);
        let best = sweep
            .iter()
            .map(|(_, b)| b.progress_rate())
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
        assert!(best > 0 && best < sweep.len() - 1);
    }
}
