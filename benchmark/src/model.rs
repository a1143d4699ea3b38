//! The `model_sweep` workload: the Figure 5 table and the Figure 6 grid,
//! driven through the public calls `cr_bench::experiments::fig6` makes
//! (`ratio_opt::best_host_strategy`, `analytic::progress_rate`,
//! `simulate_avg`). Each sweep runs on a fresh thread, so the
//! thread-local cycle cache starts cold as it does in every `repro_*`
//! process; the simulator fans replicas out over `cr_core::par` with
//! one worker per core.

use cr_core::ndp_sizing::{gzip1_factor, PAPER_TABLE2};
use cr_core::params::{CompressionSpec, DrainLagModel, Strategy, SystemParams};
use cr_core::{analytic, cache, ratio_opt};
use cr_sim::{simulate_avg, SimOptions};

use crate::harness::{drive, ratio, Config, Ctx, Outcome};
use crate::report::{outcome, timing, Readings};

/// Simulator fidelity per cell: the `repro_fig6` defaults
/// (`REPRO_REPLICAS`, `REPRO_FAILURES`).
pub const SIM_REPLICAS: u64 = 4;
pub const SIM_FAILURES: u64 = 2000;
/// The Figure 5 axes (`cr_bench::experiments::fig5`).
const FIG5_P_LOCAL: [f64; 4] = [0.2, 0.5, 0.8, 0.96];
const FIG5_FACTORS: [Option<f64>; 5] = [None, Some(0.35), Some(0.57), Some(0.728), Some(0.842)];
/// The Figure 6 rows' locally-recoverable shares and displayed apps.
const FIG6_P_LOCAL: [f64; 3] = [0.2, 0.5, 0.8];
const FIG6_APPS: [&str; 3] = ["CoMD", "miniMD", "miniSmac"];

/// A Figure 6 row's configuration family.
#[derive(Debug, Clone, Copy)]
enum Row {
    /// `I/O Only`.
    IoOnly,
    /// `Local(x%) + I/O-Host` at its best ratio.
    Host(f64),
    /// `Local(x%) + I/O-NDP`.
    Ndp(f64),
}

/// One evaluated configuration, kept for the agreement check.
struct Cell {
    row: Row,
    sim: f64,
    analytic: f64,
    /// The lag-free analytic rate (NDP rows only; `NAN` elsewhere).
    ceiling: f64,
}

/// The Figure 6 grid: `values[row][col] = (simulated, analytic)`
/// progress rates, in `cr_bench::experiments::fig6` order.
pub type Grid = Vec<Vec<(f64, f64)>>;

/// Figure 6 cells per row: uncompressed, the three displayed apps, and
/// the seven apps the last column averages.
const FIG6_CELLS: usize = 1 + FIG6_APPS.len() + PAPER_TABLE2.len();

/// What a sweep evaluates: the system, the Figure 6 rows, and the
/// compression factor of each cell of a row (`None` = uncompressed);
/// plus the oracle's reference for each NDP cell.
struct Plan {
    sys: SystemParams,
    rows: [Row; 1 + 2 * FIG6_P_LOCAL.len()],
    factors: [Option<f64>; FIG6_CELLS],
    /// Per row, the lag-free analytic rate of each cell (empty for the
    /// non-NDP rows).
    ceilings: Vec<Vec<f64>>,
}

/// The strategy with its NDP drain lag ignored.
fn lag_free(strat: Strategy) -> Strategy {
    match strat {
        Strategy::LocalIoNdp {
            interval,
            ratio,
            p_local,
            compression,
            ..
        } => Strategy::LocalIoNdp {
            interval,
            ratio,
            p_local,
            compression,
            drain_lag: DrainLagModel::Ignore,
        },
        other => other,
    }
}

impl Plan {
    fn new() -> Self {
        let mut factors = [None; FIG6_CELLS];
        for (slot, app) in factors[1..].iter_mut().zip(FIG6_APPS) {
            *slot = Some(gzip1_factor(app).expect("known app"));
        }
        for (slot, r) in factors[1 + FIG6_APPS.len()..].iter_mut().zip(&PAPER_TABLE2) {
            *slot = Some(r.data[0].factor);
        }
        let [p0, p1, p2] = FIG6_P_LOCAL;
        let sys = SystemParams::exascale_default();
        let rows = [
            Row::IoOnly,
            Row::Host(p0),
            Row::Host(p1),
            Row::Host(p2),
            Row::Ndp(p0),
            Row::Ndp(p1),
            Row::Ndp(p2),
        ];
        // `progress_rate` bypasses the cycle cache, which is
        // thread-local anyway: the sweep's own thread starts it cold.
        let ceilings = rows
            .iter()
            .map(|row| match *row {
                Row::Ndp(p) => factors
                    .iter()
                    .map(|&f| {
                        let comp = f.map(CompressionSpec::gzip1_ndp_with_factor);
                        analytic::progress_rate(&sys, &lag_free(Strategy::local_io_ndp(p, comp)))
                    })
                    .collect(),
                _ => Vec::new(),
            })
            .collect();
        Plan {
            sys,
            rows,
            factors,
            ceilings,
        }
    }
}

/// Runs one sweep: the Figure 5 table, then every Figure 6 cell. Each
/// cell (strategy search, analytic rate, replicated simulation) is one
/// operation; its wall time is sampled as `cell_ms`.
fn sweep(ctx: &mut Ctx, plan: &Plan, seed: u64, cells: &mut Vec<Cell>) -> Grid {
    let sys = &plan.sys;
    let opts = SimOptions {
        seed,
        min_failures: SIM_FAILURES,
        min_work: 0.0,
        max_wall: 1e12,
    };
    let (table, _) = ctx.call("solve.figure5_table", || {
        ratio_opt::figure5_table(sys, &FIG5_P_LOCAL, &FIG5_FACTORS)
    });
    std::hint::black_box(table);
    let mut grid = Grid::new();
    for (&row, ceilings) in plan.rows.iter().zip(&plan.ceilings) {
        let mut values: Vec<(f64, f64)> = plan
            .factors
            .iter()
            .enumerate()
            .map(|(col, &factor)| {
                let host_comp = factor.map(CompressionSpec::gzip1_host_with_factor);
                let ndp_comp = factor.map(CompressionSpec::gzip1_ndp_with_factor);
                let (strat, s_strat) = match row {
                    Row::IoOnly => (
                        Strategy::IoOnly {
                            interval: None,
                            compression: host_comp,
                        },
                        0.0,
                    ),
                    Row::Host(p) => ctx.call("solve.best_host_strategy", || {
                        ratio_opt::best_host_strategy(sys, p, host_comp).0
                    }),
                    Row::Ndp(p) => (Strategy::local_io_ndp(p, ndp_comp), 0.0),
                };
                let (avg, s_sim) = ctx.call("sim.simulate_avg", || {
                    simulate_avg(sys, &strat, &opts, SIM_REPLICAS)
                });
                let (analytic, s_an) = ctx.call("solve.progress_rate", || {
                    analytic::progress_rate(sys, &strat)
                });
                ctx.sample("cell_ms", (s_strat + s_sim + s_an) * 1e3);
                ctx.add("replicas", SIM_REPLICAS as f64);
                ctx.add("sim_s", s_sim);
                let sim = avg.progress_rate();
                cells.push(Cell {
                    row,
                    sim,
                    analytic,
                    ceiling: ceilings.get(col).copied().unwrap_or(f64::NAN),
                });
                (sim, analytic)
            })
            .collect();
        // The last column averages the seven per-app cells, summed in
        // the order `experiments::fig6` sums them.
        let per_app = values.split_off(1 + FIG6_APPS.len());
        let n = per_app.len() as f64;
        values.push((
            per_app.iter().map(|c| c.0).sum::<f64>() / n,
            per_app.iter().map(|c| c.1).sum::<f64>() / n,
        ));
        grid.push(values);
    }
    grid
}

/// Simulated against analytic progress, within the brackets
/// `tests/cross_validation.rs` asserts for each configuration family:
/// 0.015 for I/O only, 0.035 for `Local + I/O-Host`, and for
/// `Local + I/O-NDP` the band from the pipelined-lag model (less a
/// slack) to the lag-free model (plus 0.03), which the plan holds.
/// Figure 6 has NDP cells that test does not cover (20 % local
/// recovery, low compression factors): there the simulated drain lags
/// further behind the pipelined model (down to 0.082 below it over 40
/// seeds), so every cell under 80 % local recovery gets 0.10 of slack.
fn agrees(c: &Cell) -> Result<(), String> {
    let (s, a, a_hi) = (c.sim, c.analytic, c.ceiling);
    match c.row {
        Row::IoOnly if (a - s).abs() >= 0.015 => Err(format!("I/O only: analytic {a} vs sim {s}")),
        Row::Host(p) if (a - s).abs() >= 0.035 => {
            Err(format!("host p={p}: analytic {a} vs sim {s}"))
        }
        Row::Ndp(p) => {
            let slack = if p < 0.8 { 0.10 } else { 0.05 };
            if s > a - slack && s < a_hi + 0.03 {
                Ok(())
            } else {
                Err(format!("NDP p={p}: sim {s} outside [{a}, {a_hi}]"))
            }
        }
        _ => Ok(()),
    }
}

/// Runs the Figure 6 grid once through the benchmark's own harness, with
/// no timing kept; the self-test compares it with
/// `cr_bench::experiments::fig6`.
pub fn fig6_grid(seed: u64) -> Grid {
    let cfg = Config {
        min_rounds: 1,
        max_rounds: 1,
        ..Config::tiny(seed, false)
    };
    let mut grid = Grid::new();
    drive(&cfg, Plan::new, |plan, ctx| {
        grid = sweep(ctx, plan, seed, &mut Vec::new());
    });
    grid
}

/// Each round is one cold sweep on a fresh thread, then the agreement
/// check of every cell it evaluated.
pub fn model_sweep(cfg: &Config) -> Outcome {
    let run = drive(cfg, Plan::new, |plan, ctx| {
        let mut cells = Vec::new();
        let sweep_s = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let sec = ctx.begin("bench.sweep");
                    sweep(ctx, plan, cfg.seed, &mut cells);
                    let s = ctx.end(sec);
                    let (hits, misses) = cache::global_cache_stats();
                    ctx.add("cache_hits", hits as f64);
                    ctx.add("cache_lookups", (hits + misses) as f64);
                    s
                })
                .join()
                .expect("sweep thread panicked")
        });
        ctx.sample("cycle_ms", sweep_s * 1e3);
        for c in &cells {
            let verdict = agrees(c);
            ctx.check(verdict.is_ok(), || {
                verdict.clone().err().unwrap_or_default()
            });
        }
    });
    let s = &run.ctx.traced;
    let layers = vec![
        (
            "sim.replicas_per_s",
            ratio(s.sum("replicas"), s.sum("sim_s")),
        ),
        (
            "sim.share",
            run.layers.as_ref().map_or(0.0, |l| l.share("sim")),
        ),
        (
            "solve.share",
            run.layers.as_ref().map_or(0.0, |l| l.share("solve")),
        ),
        (
            "solve.cache_hit_rate",
            ratio(s.sum("cache_hits"), s.sum("cache_lookups")),
        ),
    ];
    let mut readings = Readings::new();
    let plain = &run.ctx.plain;
    let sweeps: Vec<f64> = plain.get("cycle_ms").iter().map(|ms| ms / 1e3).collect();
    timing(&mut readings, "sweep_s", None, &sweeps);
    timing(
        &mut readings,
        "cell_ms_p50",
        Some("cell_ms_p90"),
        plain.get("cell_ms"),
    );
    let meta = vec![
        ("system", "SystemParams::exascale_default".to_string()),
        ("sim_replicas", SIM_REPLICAS.to_string()),
        ("sim_min_failures", SIM_FAILURES.to_string()),
        ("threads", cr_core::par::default_threads().to_string()),
    ];
    outcome(cfg, "model_sweep", run, "cell_ms", readings, layers, meta)
}
