//! `bench_sim` — reproducible throughput harness for the simulation and
//! sweep plane.
//!
//! Measures:
//!
//! 1. **Engine throughput** — replicas/sec through the discrete-event
//!    engine at 1..N worker threads on the work-stealing executor,
//!    asserting that every thread count reproduces the 1-thread results
//!    bit for bit.
//! 2. **Observed fleet** — replicas/sec with per-replica event streams
//!    attached, again bit-identical (results *and* streams) across
//!    thread counts.
//! 3. **Sweep throughput** — the memoized cycle solver: cold-cache vs
//!    warm-cache joint policy search, and batched `solve_cycle_many`
//!    points/sec over a Figure-4-sized ratio grid.
//! 4. **Stages** — per-stage profiler breakdown (`engine` / `solve`).
//! 5. **Indicators** — machine-independent pinned-seed values, also
//!    written to a separate file so CI can `crx obs diff` them against
//!    a checked-in baseline.
//!
//! Results go to stdout and a JSON file (schema `bench_sim/v1`).
//! Knobs, via environment and argv:
//!
//! * `BENCH_SIM_REPLICAS` — replicas per engine measurement (default 256)
//! * `BENCH_REPS`         — best-of repetitions per measurement (default 3)
//! * `BENCH_MAX_THREADS`  — cap on the thread sweep (default 8)
//! * `BENCH_OUT`          — output path (default `results/BENCH_sim.json`)
//! * `BENCH_IND_OUT`      — indicators path
//!   (default `results/BENCH_sim_indicators.json`)
//! * `--quick`            — CI smoke settings (fewer replicas, 1 rep)

use std::path::PathBuf;

use cr_bench::perf::{time_best, time_once};
use cr_core::cache::{global_cache_stats, solve_cycle_many};
use cr_core::optimize;
use cr_core::params::{CompressionSpec, Strategy, SystemParams};
use cr_obs::json::Value;
use cr_obs::stage::{self, Stage};
use cr_sim::{
    run_fleet_observed_in, simulate_avg_in, AveragedResult, SimFaults,
    SimOptions,
};

const SEED: u64 = 42;
/// Fixed settings for the machine-independent indicator runs, so the
/// gated values never depend on `--quick` or the env knobs.
const IND_SEED: u64 = 42;
const IND_REPLICAS: u64 = 8;

struct Opts {
    replicas: u64,
    reps: usize,
    max_threads: usize,
    out: PathBuf,
    ind_out: PathBuf,
    quick: bool,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Opts {
    fn from_env() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        let default_replicas = if quick { 64 } else { 256 };
        let default_reps = if quick { 1 } else { 3 };
        Opts {
            replicas: env_usize("BENCH_SIM_REPLICAS", default_replicas)
                .max(2) as u64,
            reps: env_usize("BENCH_REPS", default_reps).max(1),
            max_threads: env_usize("BENCH_MAX_THREADS", 8).max(1),
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
        let secs = time_best(opts.reps, || {
            std::hint::black_box(simulate_avg_in(
                threads,
                &system,
                &strat,
                &sim_opts,
                opts.replicas,
            ));
        });
        let rate = opts.replicas as f64 / secs;
        let base = *base_secs.get_or_insert(secs);
        let speedup = base / secs;
        println!(
            "engine x{threads:<2}  {rate:>10.0} replicas/s  speedup {speedup:>5.2}  (bit-identical)"
        );
        rows.push(Value::Obj(vec![
            ("threads".into(), Value::Num(threads as f64)),
            ("secs".into(), Value::Num(secs)),
            ("replicas_per_s".into(), Value::Num(rate)),
            ("speedup".into(), Value::Num(speedup)),
            ("bit_identical".into(), Value::Bool(true)),
        ]));
    }

    Value::Obj(vec![("threads".into(), Value::Arr(rows))])
}

/// Observed fleet at 1 thread vs the widest thread count: results and
/// event streams must match exactly; throughput is reported for both.
fn fleet_section(opts: &Opts) -> Value {
    let system = sys();
    let strat = bench_strategy();
    let sim_opts = SimOptions::quick(SEED);
    let faults = SimFaults::default();
    let replicas = (opts.replicas / 4).max(2);
    let wide = opts.max_threads;
    println!("== observed fleet ({replicas} replicas, private buses) ==");

    let one =
        run_fleet_observed_in(1, &system, &strat, &sim_opts, &faults, replicas);
    let many = run_fleet_observed_in(
        wide, &system, &strat, &sim_opts, &faults, replicas,
    );
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
        let secs = time_best(opts.reps, || {
            std::hint::black_box(run_fleet_observed_in(
                threads, &system, &strat, &sim_opts, &faults, replicas,
            ));
        });
        println!(
            "fleet x{threads:<2}  {:>9.0} replicas/s  {:>11.0} events/s",
            replicas as f64 / secs,
            events_total as f64 / secs,
        );
        rows.push(Value::Obj(vec![
            ("threads".into(), Value::Num(threads as f64)),
            ("secs".into(), Value::Num(secs)),
            (
                "replicas_per_s".into(),
                Value::Num(replicas as f64 / secs),
            ),
            (
                "events_per_s".into(),
                Value::Num(events_total as f64 / secs),
            ),
            ("bit_identical".into(), Value::Bool(true)),
        ]));
    }
    Value::Obj(vec![
        ("replicas".into(), Value::Num(replicas as f64)),
        ("events_total".into(), Value::Num(events_total as f64)),
        ("threads".into(), Value::Arr(rows)),
    ])
}

/// Memoized-solver sweep: cold vs warm joint policy search and batched
/// grid solving. The cold measurement runs on a fresh thread so it sees
/// an empty thread-local cycle cache.
fn sweep_section(opts: &Opts) -> Value {
    println!("== sweep throughput (memoized cycle solver) ==");
    let system = sys();

    // Cold: fresh thread = empty cache; one-shot timing (that's the
    // point of measuring cold).
    let cold_secs = std::thread::spawn(move || {
        time_once(|| {
            std::hint::black_box(optimize::best_host_policy(
                &system, 0.85, None,
            ));
        })
    })
    .join()
    .expect("cold-cache search thread");

    // Warm: populate this thread's cache once, then best-of.
    std::hint::black_box(optimize::best_host_policy(&system, 0.85, None));
    let warm_secs = time_best(opts.reps, || {
        std::hint::black_box(optimize::best_host_policy(&system, 0.85, None));
    });
    let warm_speedup = cold_secs / warm_secs;
    println!(
        "joint host search: cold {:>8.2} ms  warm {:>8.3} ms  speedup {warm_speedup:.1}",
        cold_secs * 1e3,
        warm_secs * 1e3
    );

    // Batched grid: a Figure-4-sized ratio sweep at several recovery
    // probabilities, solved through `solve_cycle_many` (deduped and,
    // above its threshold, fanned out across the executor).
    let pairs: Vec<(SystemParams, Strategy)> = [0.5, 0.85, 0.96]
        .iter()
        .flat_map(|&p| {
            (1..=400).map(move |ratio| {
                (system, Strategy::local_io_host(ratio, p, None))
            })
        })
        .collect();
    let batch_secs = time_best(opts.reps, || {
        std::hint::black_box(solve_cycle_many(&pairs));
    });
    let points_per_s = pairs.len() as f64 / batch_secs;
    println!(
        "batched solve: {} points in {:.2} ms  ({points_per_s:.0} points/s)",
        pairs.len(),
        batch_secs * 1e3
    );

    let (hits, misses) = global_cache_stats();
    println!("cycle cache (this thread): {hits} hits, {misses} misses");

    Value::Obj(vec![
        ("cold_search_secs".into(), Value::Num(cold_secs)),
        ("warm_search_secs".into(), Value::Num(warm_secs)),
        ("warm_speedup".into(), Value::Num(warm_speedup)),
        ("batch_points".into(), Value::Num(pairs.len() as f64)),
        ("batch_secs".into(), Value::Num(batch_secs)),
        ("batch_points_per_s".into(), Value::Num(points_per_s)),
        ("cache_hits".into(), Value::Num(hits as f64)),
        ("cache_misses".into(), Value::Num(misses as f64)),
    ])
}

/// One profiled pass: a widest-thread replica fan-out (records the
/// `engine` stage from every worker) and a batched grid solve wrapped
/// in the `solve` stage.
fn stages_section(opts: &Opts) -> Value {
    println!("== per-stage breakdown (profiled pass) ==");
    let system = sys();
    let strat = bench_strategy();
    stage::reset();
    stage::set_enabled(true);
    std::hint::black_box(simulate_avg_in(
        opts.max_threads,
        &system,
        &strat,
        &SimOptions::quick(SEED),
        opts.replicas,
    ));
    {
        let _solve = stage::timer(Stage::Solve);
        let pairs: Vec<(SystemParams, Strategy)> = (1..=400)
            .map(|ratio| {
                (system, Strategy::local_io_host(ratio, 0.85, None))
            })
            .collect();
        std::hint::black_box(solve_cycle_many(&pairs));
    }
    stage::set_enabled(false);

    let mut rows = Vec::new();
    for snap in stage::snapshot() {
        if snap.calls == 0 {
            continue; // codec stages don't run in the sim plane
        }
        println!(
            "{:9} calls {:>7}  {:>9.3} ms",
            snap.stage.name(),
            snap.calls,
            snap.nanos as f64 / 1e6,
        );
        rows.push(Value::Obj(vec![
            ("stage".into(), Value::str(snap.stage.name())),
            ("calls".into(), Value::Num(snap.calls as f64)),
            ("nanos".into(), Value::Num(snap.nanos as f64)),
        ]));
    }
    stage::reset();
    Value::Arr(rows)
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
    let fleet = run_fleet_observed_in(
        1,
        &system,
        &strat,
        &opts,
        &SimFaults::default(),
        IND_REPLICAS,
    );
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

fn write_json(path: &PathBuf, doc: &Value) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(path, doc.render()).expect("write results");
    println!("wrote {}", path.display());
}

fn main() {
    let opts = Opts::from_env();
    let effective_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let engine = engine_section(&opts);
    let fleet = fleet_section(&opts);
    let sweep = sweep_section(&opts);
    let stages = stages_section(&opts);
    let indicators = indicators_section();

    let doc = Value::Obj(vec![
        ("schema".into(), Value::str("bench_sim/v1")),
        (
            "config".into(),
            Value::Obj(vec![
                ("replicas".into(), Value::Num(opts.replicas as f64)),
                ("reps".into(), Value::Num(opts.reps as f64)),
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
        ("sweep".into(), sweep),
        ("stages".into(), stages),
        ("indicators".into(), indicators.clone()),
    ]);
    write_json(&opts.out, &doc);

    // The indicators alone, in a small file CI can `crx obs diff`
    // against the checked-in pinned-seed baseline.
    let ind_doc = Value::Obj(vec![
        ("schema".into(), Value::str("bench_sim_indicators/v1")),
        ("source".into(), Value::str("bench_sim")),
        ("indicators".into(), indicators),
    ]);
    write_json(&opts.ind_out, &ind_doc);
}
