//! `bench_sim` — reproducible throughput harness for the simulation
//! plane.
//!
//! Measures:
//!
//! 1. **Engine throughput** — replicas/sec through the discrete-event
//!    engine at 1..N worker threads on the workspace executor,
//!    asserting that every thread count reproduces the 1-thread results
//!    bit for bit.
//! 2. **Observed fleet** — replicas/sec with per-replica event streams
//!    attached, again bit-identical (results *and* streams) across
//!    thread counts.
//! 3. **Solver** — analytic `solve_cycle` solves/s over every ratio of
//!    one `Local + I/O-Host` configuration, and the wall time of one
//!    cold `ratio_opt::figure5_table` (the best-ratio search). Recorded
//!    only; nothing gates them.
//! 4. **Indicators** — machine-independent pinned-seed values, also
//!    written to a separate file so CI can `crx obs diff` them against
//!    a checked-in baseline.
//!
//! Each timed row repeats its run for at least one second
//! ([`cr_bench::perf::time_window`]) and reports the median seconds
//! per run as `secs`, next to the quartiles `secs_q1`/`secs_q3` and
//! the number of `runs`. Results go to stdout and a JSON file (schema
//! `bench_sim/v1`). Knobs, via environment and argv:
//!
//! * `BENCH_SIM_REPLICAS` — replicas per engine measurement (default 256)
//! * `BENCH_MAX_THREADS`  — cap on the thread sweep (default 8)
//! * `BENCH_OUT`          — output path (default `results/BENCH_sim.json`)
//! * `BENCH_IND_OUT`      — indicators path
//!   (default `results/BENCH_sim_indicators.json`)
//! * `--quick`            — CI smoke settings (fewer replicas)

use std::path::PathBuf;

use cr_bench::perf::time_window;
use cr_bench::{env_or, write_report};
use cr_core::analytic::solve_cycle;
use cr_core::params::{CompressionSpec, Strategy, SystemParams};
use cr_core::ratio_opt::MAX_RATIO;
use cr_obs::json::Value;
use cr_sim::{
    run_fleet_observed_in, simulate_avg_in, AveragedResult, SimOptions,
};

const SEED: u64 = 42;
/// Fixed settings for the machine-independent indicator runs, so the
/// gated values never depend on `--quick` or the env knobs.
const IND_SEED: u64 = 42;
const IND_REPLICAS: u64 = 8;

struct Opts {
    replicas: u64,
    max_threads: usize,
    out: PathBuf,
    ind_out: PathBuf,
    quick: bool,
}

impl Opts {
    fn from_env() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        let default_replicas: usize = if quick { 64 } else { 256 };
        Opts {
            replicas: env_or("BENCH_SIM_REPLICAS", default_replicas)
                .max(2) as u64,
            max_threads: env_or("BENCH_MAX_THREADS", 8usize).max(1),
            out: std::env::var("BENCH_OUT")
                .unwrap_or_else(|_| "results/BENCH_sim.json".into())
                .into(),
            ind_out: std::env::var("BENCH_IND_OUT")
                .unwrap_or_else(|_| {
                    "results/BENCH_sim_indicators.json".into()
                })
                .into(),
            quick,
        }
    }
}

fn sys() -> SystemParams {
    SystemParams::exascale_default()
}

fn bench_strategy() -> Strategy {
    Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp()))
}

/// Panics unless two averaged runs are bit-identical, replica by
/// replica (breakdown fields compare with `==`, i.e. exact f64 bits).
fn assert_identical(label: &str, a: &AveragedResult, b: &AveragedResult) {
    assert_eq!(a.pooled, b.pooled, "{label}: pooled breakdown diverged");
    assert_eq!(
        a.progress_rates, b.progress_rates,
        "{label}: progress rates diverged"
    );
    assert_eq!(a.replicas.len(), b.replicas.len());
    for (i, (x, y)) in a.replicas.iter().zip(&b.replicas).enumerate() {
        assert_eq!(
            x.breakdown, y.breakdown,
            "{label}: replica {i} breakdown diverged"
        );
        assert_eq!(x.stats, y.stats, "{label}: replica {i} stats diverged");
    }
}

/// Thread sweep over the engine. Every thread count's output is
/// asserted bit-identical to the 1-thread run before its timing is
/// reported.
fn engine_section(opts: &Opts) -> Value {
    println!(
        "== engine throughput ({} replicas, quick runs) ==",
        opts.replicas
    );
    let system = sys();
    let strat = bench_strategy();
    let sim_opts = SimOptions::quick(SEED);

    let mut threads_list = vec![1usize];
    let mut t = 2;
    while t <= opts.max_threads {
        threads_list.push(t);
        t *= 2;
    }

    let reference =
        simulate_avg_in(1, &system, &strat, &sim_opts, opts.replicas);
    let mut rows = Vec::new();
    let mut base_secs = None;
    for &threads in &threads_list {
        let run = simulate_avg_in(
            threads,
            &system,
            &strat,
            &sim_opts,
            opts.replicas,
        );
        assert_identical(&format!("{threads} threads"), &reference, &run);
        let timing = time_window(|| {
            std::hint::black_box(simulate_avg_in(
                threads,
                &system,
                &strat,
                &sim_opts,
                opts.replicas,
            ));
        });
        let secs = timing.median;
        let rate = opts.replicas as f64 / secs;
        let base = *base_secs.get_or_insert(secs);
        let speedup = base / secs;
        println!(
            "engine x{threads:<2}  {rate:>10.0} replicas/s  speedup {speedup:>5.2}  (bit-identical)"
        );
        let mut row = vec![("threads".into(), Value::Num(threads as f64))];
        row.extend(timing.fields());
        row.extend([
            ("replicas_per_s".into(), Value::Num(rate)),
            ("speedup".into(), Value::Num(speedup)),
            ("bit_identical".into(), Value::Bool(true)),
        ]);
        rows.push(Value::Obj(row));
    }

    Value::Obj(vec![("threads".into(), Value::Arr(rows))])
}

/// Observed fleet at 1 thread vs the widest thread count: results and
/// event streams must match exactly; throughput is reported for both.
fn fleet_section(opts: &Opts) -> Value {
    let system = sys();
    let strat = bench_strategy();
    let sim_opts = SimOptions::quick(SEED);
    let replicas = (opts.replicas / 4).max(2);
    let wide = opts.max_threads;
    println!("== observed fleet ({replicas} replicas, private buses) ==");

    let one = run_fleet_observed_in(1, &system, &strat, &sim_opts, replicas);
    let many =
        run_fleet_observed_in(wide, &system, &strat, &sim_opts, replicas);
    assert_eq!(one.len(), many.len());
    for (i, ((ra, ea), (rb, eb))) in one.iter().zip(&many).enumerate() {
        assert_eq!(
            ra.breakdown, rb.breakdown,
            "fleet replica {i} breakdown diverged across thread counts"
        );
        assert_eq!(ra.stats, rb.stats, "fleet replica {i} stats diverged");
        assert_eq!(
            ea, eb,
            "fleet replica {i} event stream diverged across thread counts"
        );
    }
    let events_total: u64 = one.iter().map(|(_, e)| e.len() as u64).sum();

    let mut rows = Vec::new();
    for &threads in &[1usize, wide] {
        let timing = time_window(|| {
            std::hint::black_box(run_fleet_observed_in(
                threads, &system, &strat, &sim_opts, replicas,
            ));
        });
        let secs = timing.median;
        println!(
            "fleet x{threads:<2}  {:>9.0} replicas/s  {:>11.0} events/s",
            replicas as f64 / secs,
            events_total as f64 / secs,
        );
        let mut row = vec![("threads".into(), Value::Num(threads as f64))];
        row.extend(timing.fields());
        row.extend([
            (
                "replicas_per_s".into(),
                Value::Num(replicas as f64 / secs),
            ),
            (
                "events_per_s".into(),
                Value::Num(events_total as f64 / secs),
            ),
            ("bit_identical".into(), Value::Bool(true)),
        ]);
        rows.push(Value::Obj(row));
    }
    Value::Obj(vec![
        ("replicas".into(), Value::Num(replicas as f64)),
        ("events_total".into(), Value::Num(events_total as f64)),
        ("threads".into(), Value::Arr(rows)),
    ])
}

/// Analytic solver speed: `solve_cycle` over ratios `1..=MAX_RATIO`
/// of `Local(80%) + I/O-Host` (a solve's cost grows with its ratio, so
/// this is a full scan's mix), and one Figure 5 table on a fresh
/// thread, so the cycle cache starts cold as in `repro_fig5`.
fn solve_section() -> Value {
    println!("== analytic solver ==");
    let system = sys();
    let scan = time_window(|| {
        for ratio in 1..=MAX_RATIO {
            let strat = Strategy::local_io_host(ratio, 0.8, None);
            let _ = std::hint::black_box(solve_cycle(&system, &strat));
        }
    });
    let solves_per_s = MAX_RATIO as f64 / scan.median;
    let fig5 = time_window(|| {
        let table = std::thread::spawn(cr_bench::experiments::fig5);
        std::hint::black_box(table.join().expect("figure5_table panicked"));
    });
    println!(
        "solve_cycle {solves_per_s:>10.0} solves/s | cold figure5_table {:.2} ms",
        fig5.median * 1e3
    );
    let mut cycle = vec![("solves".into(), Value::Num(MAX_RATIO as f64))];
    cycle.extend(scan.fields());
    cycle.push(("solves_per_s".into(), Value::Num(solves_per_s)));
    Value::Obj(vec![
        ("solve_cycle".into(), Value::Obj(cycle)),
        ("figure5_table_cold".into(), Value::Obj(fig5.fields())),
    ])
}

/// Machine-independent pinned-seed values: simulated progress rates,
/// model divergence, and per-replica event counts. Everything here is
/// derived from simulated time and event counts — never wall-clock — so
/// CI diffs it against a checked-in baseline at tight tolerance.
fn indicators_section() -> Value {
    let system = sys();
    let opts = SimOptions::quick(IND_SEED);
    let configs = [
        ("ndp", bench_strategy()),
        ("host", Strategy::local_io_host(12, 0.8, None)),
        ("local", Strategy::LocalOnly { interval: None }),
    ];
    let mut fields = Vec::new();
    for (name, strat) in &configs {
        let avg = simulate_avg_in(1, &system, strat, &opts, IND_REPLICAS);
        fields.push((
            format!("sim_progress_{name}"),
            Value::Num(avg.progress_rate()),
        ));
        fields.push((
            format!("sim_failures_{name}"),
            Value::Num(
                avg.replicas
                    .iter()
                    .map(|r| r.stats.failures as f64)
                    .sum::<f64>(),
            ),
        ));
    }
    let strat = bench_strategy();
    let analytic = cr_core::analytic::progress_rate(&system, &strat);
    let simulated = simulate_avg_in(1, &system, &strat, &opts, IND_REPLICAS)
        .progress_rate();
    fields.push(("analytic_progress_ndp".into(), Value::Num(analytic)));
    fields.push((
        "model_divergence_ndp".into(),
        Value::Num((simulated - analytic).abs() / analytic),
    ));
    // Events per replica from a fixed-size observed fleet (independent
    // of the bench knobs, like everything else in this section).
    let fleet =
        run_fleet_observed_in(1, &system, &strat, &opts, IND_REPLICAS);
    let events_total: u64 = fleet.iter().map(|(_, e)| e.len() as u64).sum();
    fields.push((
        "fleet_events_per_replica".into(),
        Value::Num((events_total / IND_REPLICAS) as f64),
    ));
    // The thread-identity asserts ran before this point; reaching here
    // means they held.
    fields.push(("threads_bit_identical".into(), Value::Num(1.0)));
    Value::Obj(fields)
}

fn main() {
    let opts = Opts::from_env();
    let effective_cores = cr_core::par::default_threads();

    let engine = engine_section(&opts);
    let fleet = fleet_section(&opts);
    let solve = solve_section();
    let indicators = indicators_section();

    let doc = Value::Obj(vec![
        ("schema".into(), Value::str("bench_sim/v1")),
        (
            "config".into(),
            Value::Obj(vec![
                ("replicas".into(), Value::Num(opts.replicas as f64)),
                ("max_threads".into(), Value::Num(opts.max_threads as f64)),
                (
                    "effective_cores".into(),
                    Value::Num(effective_cores as f64),
                ),
                ("seed".into(), Value::Num(SEED as f64)),
                ("quick".into(), Value::Bool(opts.quick)),
            ]),
        ),
        ("engine".into(), engine),
        ("fleet".into(), fleet),
        ("solve".into(), solve),
        ("indicators".into(), indicators.clone()),
    ]);
    write_report(&opts.out, &doc.render());

    // The indicators alone, in a small file CI can `crx obs diff`
    // against the checked-in pinned-seed baseline.
    let ind_doc = Value::Obj(vec![
        ("schema".into(), Value::str("bench_sim_indicators/v1")),
        ("source".into(), Value::str("bench_sim")),
        ("indicators".into(), indicators),
    ]);
    write_report(&opts.ind_out, &ind_doc.render());
}
