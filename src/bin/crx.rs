//! `crx` — checkpoint/restart explorer.
//!
//! A command-line front end over the workspace: project exascale
//! systems, evaluate C/R strategies with the analytic model and the
//! simulator, find optimal checkpoint ratios, sweep parameters, and run
//! the compression study.
//!
//! ```sh
//! crx project
//! crx evaluate --strategy ndp --p-local 0.85 --compress 0.73
//! crx ratio --p-local 0.8
//! crx sweep --param mtti --from 30 --to 150 --steps 5 --strategy ndp
//! crx study --mb 4
//! crx --help
//! ```

use ndp_checkpoint::cr_core::{analytic, daly, ndp_sizing, ratio_opt};
use ndp_checkpoint::prelude::*;

// ---------------------------------------------------------------------
// Tiny flag parser
// ---------------------------------------------------------------------

/// Parsed `--key value` flags plus positional arguments.
struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut named = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key == "help" {
                    named.push(("help".into(), "1".into()));
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                named.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { positional, named })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: not a number: {v}")),
        }
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: not an integer: {v}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

/// Builds `SystemParams` from common flags (`--mtti` minutes, `--size`
/// GB, `--nvm` GB/s, `--io` MB/s per node).
fn system_from(flags: &Flags) -> Result<SystemParams, String> {
    Ok(SystemParams {
        mtti: flags.get_f64("mtti", 30.0)? * MINUTE,
        checkpoint_bytes: flags.get_f64("size", 112.0)? * GB,
        local_bw: flags.get_f64("nvm", 15.0)? * GB,
        io_bw_per_node: flags.get_f64("io", 100.0)? * MB,
    })
}

/// Builds a strategy from `--strategy`, `--p-local`, `--compress`,
/// `--ratio`, `--interval`.
fn strategy_from(
    flags: &Flags,
    sys: &SystemParams,
) -> Result<Strategy, String> {
    let p_local = flags.get_f64("p-local", 0.85)?;
    let interval = if flags.has("interval") {
        Some(flags.get_f64("interval", 150.0)?)
    } else {
        Some(150.0)
    };
    let factor = if flags.has("compress") {
        Some(flags.get_f64("compress", 0.73)?)
    } else {
        None
    };
    let name = flags.get("strategy").unwrap_or("ndp");
    let strat = match name {
        "io-only" => Strategy::IoOnly {
            interval: None,
            compression: factor.map(CompressionSpec::gzip1_host_with_factor),
        },
        "local" => Strategy::LocalOnly { interval: None },
        "host" => {
            let comp = factor.map(CompressionSpec::gzip1_host_with_factor);
            match flags.get("ratio") {
                Some(r) => Strategy::LocalIoHost {
                    interval,
                    ratio: r
                        .parse()
                        .map_err(|_| format!("--ratio: bad value {r}"))?,
                    p_local,
                    compression: comp,
                },
                None => ratio_opt::best_host_strategy_at(
                    sys, p_local, comp, interval,
                )
                .0,
            }
        }
        "ndp" => Strategy::LocalIoNdp {
            interval,
            ratio: None,
            p_local,
            compression: factor.map(CompressionSpec::gzip1_ndp_with_factor),
            drain_lag: Default::default(),
        },
        other => {
            return Err(format!(
                "unknown --strategy {other} (io-only|local|host|ndp)"
            ))
        }
    };
    Ok(strat)
}

const USAGE: &str = "\
crx — checkpoint/restart explorer

USAGE: crx <command> [flags]

COMMANDS:
  project    print the exascale projection (Table 1) and derived C/R needs
  evaluate   evaluate one strategy on a system (analytic + simulation)
  ratio      find the optimal locally-saved:I/O-saved checkpoint ratio
  sweep      sweep mtti|size|p-local and print CSV progress rates
  study      run the compression study on synthetic mini-app images
  sizing     NDP sizing table for the paper's utilities (Table 3)
  trace      run one observed replica and render its Fig. 3 timeline
  report     run an observed fleet and print derived C/R indicators
  export     export an observed fleet as a Chrome trace (Perfetto) JSON
  obs diff   compare two metrics/indicators JSON snapshots (gate)

SYSTEM FLAGS (evaluate/ratio/sweep):
  --mtti MIN     system MTTI in minutes        [30]
  --size GB      checkpoint size per node      [112]
  --nvm GBPS     local NVM bandwidth           [15]
  --io MBPS      per-node global-I/O share     [100]

STRATEGY FLAGS:
  --strategy S   io-only | local | host | ndp  [ndp]
  --p-local F    P(recover from local levels)  [0.85]
  --compress F   compression factor 0..1       [off]
  --ratio K      host local:IO ratio           [optimal]
  --interval S   local checkpoint interval     [150]

TRACE FLAGS:
  --seed N       replica seed                  [42]
  --failures N   failures to simulate          [25]
  --sink S       off | vec | json              [vec]
  --from S       render window start, seconds  [0]
  --to S         render window end, seconds    [wall time]
  --width N      render width in columns       [100]
  --result-out F write the SimResult debug dump to F
  --metrics-out F write a metrics/v1 JSON snapshot to F

REPORT / EXPORT FLAGS:
  --seed N       base replica seed             [42]
  --replicas N   observed replicas (fleet)     [report 4, export 2]
  --failures N   failures per replica          [report 400, export 25]
  --out F        write JSON to F instead of stdout summary only

OBS DIFF (crx obs diff <baseline.json> <current.json>):
  --tol F        default relative tolerance    [0.05]
  --tol-key K=F  per-key override (repeatable, flattened dotted key)

OTHER:
  --replicas N   simulation replicas           [4]
  --failures N   failures per replica          [2000]
  --mb N         study image size in MiB       [4]
";

/// Creates the parent directory of `path` if needed.
fn ensure_parent_dir(path: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
}

fn cmd_project(_flags: &Flags) -> Result<(), String> {
    use ndp_checkpoint::cr_core::projection::ExascaleProjection;
    let p = ExascaleProjection::paper_default();
    println!("exascale projection (scaled from Titan Cray XK7):");
    println!("  nodes                : {}", p.node_count);
    println!("  node peak            : {:.0} TF", p.node_peak / TFLOPS);
    println!("  node memory          : {}", fmt_bytes(p.node_memory));
    println!("  system memory        : {}", fmt_bytes(p.system_memory));
    println!("  I/O bandwidth        : {}", fmt_rate(p.io_bw));
    println!(
        "  system MTTI          : {:.0} min (socket model: {:.1} min)",
        p.mtti / MINUTE,
        p.derived_mtti / MINUTE
    );
    println!("derived C/R requirements for 90% progress:");
    println!(
        "  checkpoint size      : {} per node",
        fmt_bytes(p.checkpoint_bytes)
    );
    println!(
        "  commit time          : {:.1} s  (bandwidth {})",
        p.required_commit_time,
        fmt_rate(p.required_commit_bw)
    );
    println!(
        "  per-node I/O share   : {} -> {} per checkpoint",
        fmt_rate(p.io_bw_per_node),
        fmt_secs(p.t_io_per_node())
    );
    Ok(())
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let sys = system_from(flags)?;
    let strat = strategy_from(flags, &sys)?;
    let replicas = flags.get_usize("replicas", 4)? as u64;
    let failures = flags.get_usize("failures", 2000)? as u64;

    let sol = analytic::solve_cycle(&sys, &strat);
    let opts = SimOptions {
        seed: 42,
        min_failures: failures,
        min_work: 0.0,
        max_wall: 1e12,
    };
    let sim = simulate_avg(&sys, &strat, &opts, replicas);

    println!("strategy: {}", strat.label());
    println!(
        "  interval {} | local:IO ratio {}",
        fmt_secs(sol.interval),
        sol.ratio
    );
    println!(
        "  analytic : progress {:.1}%",
        sol.progress_rate() * 100.0
    );
    println!(
        "  simulated: progress {:.1}% (+-{:.2} s.e. over {replicas} replicas)",
        sim.progress_rate() * 100.0,
        sim.sem_progress() * 100.0
    );
    let f = sim.fractions();
    println!(
        "  breakdown: ckpt L {:.1}% IO {:.1}% | restore L {:.1}% IO {:.1}% | rerun L {:.1}% IO {:.1}%",
        f.checkpoint_local * 100.0,
        f.checkpoint_io * 100.0,
        f.restore_local * 100.0,
        f.restore_io * 100.0,
        f.rerun_local * 100.0,
        f.rerun_io * 100.0
    );
    Ok(())
}

fn cmd_ratio(flags: &Flags) -> Result<(), String> {
    let sys = system_from(flags)?;
    let p_local = flags.get_f64("p-local", 0.85)?;
    let factor = if flags.has("compress") {
        Some(flags.get_f64("compress", 0.73)?)
    } else {
        None
    };
    let comp = factor.map(CompressionSpec::gzip1_host_with_factor);
    let (ratio, progress) = ratio_opt::best_host_ratio(&sys, p_local, comp);
    println!(
        "optimal host ratio: {ratio} (progress {:.1}%)",
        progress * 100.0
    );
    let ndp_comp = factor.map(CompressionSpec::gzip1_ndp_with_factor);
    let ndp = ratio_opt::ndp_ratio(&sys, ndp_comp);
    println!("NDP drain ratio   : {ndp} (fastest sustainable)");
    Ok(())
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let param = flags.get("param").unwrap_or("mtti").to_string();
    let (lo, hi) = (
        flags.get_f64("from", 30.0)?,
        flags.get_f64("to", 150.0)?,
    );
    let steps = flags.get_usize("steps", 5)?.max(2);
    let replicas = flags.get_usize("replicas", 3)? as u64;
    let failures = flags.get_usize("failures", 1500)? as u64;

    println!("{param},analytic,simulated");
    for i in 0..steps {
        let x = lo + (hi - lo) * i as f64 / (steps - 1) as f64;
        let mut sys = system_from(flags)?;
        let mut flags_p = String::new();
        match param.as_str() {
            "mtti" => sys.mtti = x * MINUTE,
            "size" => sys.checkpoint_bytes = x * GB,
            "p-local" => flags_p = format!("{x}"),
            other => return Err(format!("unknown --param {other}")),
        }
        let strat = if flags_p.is_empty() {
            strategy_from(flags, &sys)?
        } else {
            // p-local sweep: override.
            let mut named = flags.named.clone();
            named.push(("p-local".into(), flags_p));
            let f2 = Flags {
                positional: flags.positional.clone(),
                named,
            };
            strategy_from(&f2, &sys)?
        };
        let a = analytic::progress_rate(&sys, &strat);
        let opts = SimOptions {
            seed: 7,
            min_failures: failures,
            min_work: 0.0,
            max_wall: 1e12,
        };
        let s = simulate_avg(&sys, &strat, &opts, replicas).progress_rate();
        println!("{x},{a:.4},{s:.4}");
    }
    Ok(())
}

fn cmd_study(flags: &Flags) -> Result<(), String> {
    use ndp_checkpoint::cr_compress::measure::measure;
    use ndp_checkpoint::cr_compress::registry::study_codecs;
    use ndp_checkpoint::cr_workloads::{all_mini_apps, CheckpointGenerator};
    let mb = flags.get_usize("mb", 4)?;
    println!("app,codec,factor,compress_mbps,decompress_mbps");
    for app in all_mini_apps() {
        let image = app.generate(mb << 20, 1);
        for codec in study_codecs() {
            let m = measure(codec.as_ref(), &image);
            println!(
                "{},{},{:.4},{:.1},{:.1}",
                app.name(),
                codec.label(),
                m.factor,
                m.compress_rate / 1e6,
                m.decompress_rate / 1e6
            );
        }
    }
    Ok(())
}

fn cmd_sizing(flags: &Flags) -> Result<(), String> {
    let sys = system_from(flags)?;
    println!("utility,required_mbps,ndp_cores,min_interval_s");
    for (util, s) in ndp_sizing::table3(&sys) {
        println!(
            "{},{:.0},{},{:.0}",
            util.label(),
            s.required_rate / 1e6,
            s.cores,
            s.min_interval
        );
    }
    let r90 = daly::ratio_for_progress(0.90);
    println!(
        "# 90% progress requires M/delta >= {r90:.0} -> commit <= {}",
        fmt_secs(sys.mtti / r90)
    );
    Ok(())
}

fn cmd_trace(flags: &Flags) -> Result<(), String> {
    use ndp_checkpoint::cr_obs::metrics::Metrics;
    use ndp_checkpoint::cr_obs::{Bus, EventKind, VecSink};
    use ndp_checkpoint::cr_sim::{run_engine, SimFaults, Trace};

    let sys = system_from(flags)?;
    let strat = strategy_from(flags, &sys)?;
    let opts = SimOptions {
        seed: flags.get_usize("seed", 42)? as u64,
        min_failures: flags.get_usize("failures", 25)? as u64,
        min_work: 0.0,
        max_wall: 1e12,
    };

    // `vec` and `json` record the same events; they differ only in
    // what stdout shows after the header: a timeline or JSON lines.
    let sink = flags.get("sink").unwrap_or("vec");
    let bus = match sink {
        "off" => Bus::disabled(),
        "vec" | "json" => Bus::with_sink(VecSink::new()),
        other => return Err(format!("unknown --sink {other} (off|vec|json)")),
    };
    let json = sink == "json";

    let result = run_engine(&sys, &strat, &opts, &SimFaults::default(), &bus);
    let rendered = if json { bus.render() } else { String::new() };
    let events = bus.drain();

    println!("strategy: {} | seed {}", strat.label(), opts.seed);
    println!(
        "wall {:.0} s | work {:.0} s | failures {} | events {}",
        result.stats.wall_time,
        result.stats.work_done,
        result.stats.failures,
        events.len(),
    );
    if json {
        print!("{rendered}");
    } else if !events.is_empty() {
        let from = flags.get_f64("from", 0.0)?;
        let to = flags.get_f64("to", result.stats.wall_time)?;
        let width = flags.get_usize("width", 100)?.max(10);
        if to <= from {
            return Err(format!("--to ({to}) must exceed --from ({from})"));
        }
        let trace = Trace::from_events(&events);
        print!("{}", trace.render_ascii(from, to, width));
    }

    if let Some(path) = flags.get("result-out") {
        ensure_parent_dir(path);
        let dump = format!("{result:?}\n");
        std::fs::write(path, dump)
            .map_err(|e| format!("--result-out {path}: {e}"))?;
    }
    if let Some(path) = flags.get("metrics-out") {
        ensure_parent_dir(path);
        let mut m = Metrics::new();
        m.inc("events_total", events.len() as u64);
        for e in &events {
            m.inc(&format!("events_{}", e.kind.name()), 1);
            if let EventKind::Span { t0, t1, .. } = e.kind {
                m.observe("span_us", ((t1 - t0) * 1e6) as u64);
            }
        }
        m.gauge("wall_time_s", result.stats.wall_time);
        m.gauge("work_done_s", result.stats.work_done);
        std::fs::write(path, m.to_json("crx_trace"))
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }
    Ok(())
}

/// Per-replica result and event stream from an observed fleet run.
type FleetRuns =
    Vec<(ndp_checkpoint::cr_sim::SimResult, Vec<ndp_checkpoint::cr_obs::Event>)>;

/// Runs an observed fleet with the report/export flag conventions.
fn observed_fleet(
    flags: &Flags,
    default_replicas: usize,
    default_failures: usize,
) -> Result<(SystemParams, Strategy, SimOptions, FleetRuns), String> {
    use ndp_checkpoint::cr_sim::{run_fleet_observed, SimFaults};
    let sys = system_from(flags)?;
    let strat = strategy_from(flags, &sys)?;
    let replicas = flags.get_usize("replicas", default_replicas)?.max(1) as u64;
    let opts = SimOptions {
        seed: flags.get_usize("seed", 42)? as u64,
        min_failures: flags.get_usize("failures", default_failures)? as u64,
        min_work: 0.0,
        max_wall: 1e12,
    };
    let fleet = run_fleet_observed(
        &sys,
        &strat,
        &opts,
        &SimFaults::default(),
        replicas,
    );
    Ok((sys, strat, opts, fleet))
}

fn cmd_report(flags: &Flags) -> Result<(), String> {
    use ndp_checkpoint::cr_obs::analyze::{analyze, merge_percentiles};

    let (sys, strat, opts, fleet) = observed_fleet(flags, 4, 400)?;
    let per_node: Vec<_> = fleet
        .iter()
        .enumerate()
        .map(|(i, (_, events))| analyze(&format!("node{i}"), events))
        .collect();
    let label = format!(
        "{} seed {} x{}",
        strat.label(),
        opts.seed,
        fleet.len()
    );
    let mut report = if per_node.len() > 1 {
        merge_percentiles(&label, &per_node)
    } else {
        let mut r = per_node[0].clone();
        r.label = label;
        r
    };

    // Analytic-model-vs-sim divergence: predicted progress rate from
    // the Markov-renewal solution against the pooled simulated rate.
    let sol = analytic::solve_cycle(&sys, &strat);
    let predicted = sol.progress_rate();
    let (mut compute, mut wall) = (0.0, 0.0);
    for (r, _) in &fleet {
        compute += r.breakdown.compute;
        wall += r.breakdown.total();
    }
    let observed = if wall > 0.0 { compute / wall } else { 0.0 };
    report.set("model_progress_predicted", predicted);
    report.set("model_progress_observed", observed);
    report.set(
        "model_divergence",
        if predicted > 0.0 {
            (observed - predicted).abs() / predicted
        } else {
            0.0
        },
    );

    println!("indicators: {}", report.label);
    for (k, v) in report.values() {
        println!("  {k:<34} {v}");
    }
    if let Some(path) = flags.get("out") {
        ensure_parent_dir(path);
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("--out {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_export(flags: &Flags) -> Result<(), String> {
    use ndp_checkpoint::cr_obs::export::{
        chrome_trace_merged, validate_chrome_trace,
    };

    let (_sys, strat, opts, fleet) = observed_fleet(flags, 2, 25)?;
    let streams: Vec<&[ndp_checkpoint::cr_obs::Event]> =
        fleet.iter().map(|(_, e)| e.as_slice()).collect();
    let text = chrome_trace_merged(&streams);
    validate_chrome_trace(&text)
        .map_err(|e| format!("exporter produced an invalid trace: {e}"))?;
    match flags.get("out") {
        Some(path) => {
            ensure_parent_dir(path);
            std::fs::write(path, &text)
                .map_err(|e| format!("--out {path}: {e}"))?;
            println!(
                "wrote {path}: {} nodes, {} events ({} | seed {})",
                fleet.len(),
                fleet.iter().map(|(_, e)| e.len()).sum::<usize>(),
                strat.label(),
                opts.seed
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_obs_diff(flags: &Flags) -> Result<(), String> {
    use ndp_checkpoint::cr_obs::analyze::{diff_flat, flatten_numbers};
    use ndp_checkpoint::cr_obs::json;

    if flags.positional.len() < 4 {
        return Err(format!(
            "usage: crx obs diff <baseline.json> <current.json>\n\n{USAGE}"
        ));
    }
    let (base_path, cur_path) =
        (&flags.positional[2], &flags.positional[3]);
    let load = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(flatten_numbers(&doc))
    };
    let base = load(base_path)?;
    let current = load(cur_path)?;

    let tol = flags.get_f64("tol", 0.05)?;
    let mut per_key = std::collections::BTreeMap::new();
    for (k, v) in &flags.named {
        if k == "tol-key" {
            let (key, t) = v.split_once('=').ok_or_else(|| {
                format!("--tol-key wants key=tolerance, got {v}")
            })?;
            let t: f64 = t
                .parse()
                .map_err(|_| format!("--tol-key {key}: bad tolerance {t}"))?;
            per_key.insert(key.to_string(), t);
        }
    }

    let diff = diff_flat(&base, &current, tol, &per_key);
    println!(
        "compared {} keys ({} added in current), default tol {:.1}%",
        diff.compared,
        diff.added.len(),
        tol * 100.0
    );
    for m in &diff.missing {
        println!("  MISSING  {m} (in baseline, absent from current)");
    }
    for r in &diff.regressions {
        println!(
            "  REGRESSED {} : {} -> {} ({:+.2}% vs tol {:.1}%)",
            r.key,
            r.base,
            r.current,
            (r.current - r.base) / r.base.abs().max(1e-9) * 100.0,
            per_key.get(&r.key).copied().unwrap_or(tol) * 100.0
        );
    }
    if diff.ok() {
        println!("OK: within tolerance");
        Ok(())
    } else {
        Err(format!(
            "{} regression(s), {} missing key(s)",
            diff.regressions.len(),
            diff.missing.len()
        ))
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args)?;
    if flags.has("help") || flags.positional.is_empty() {
        print!("{USAGE}");
        return Ok(());
    }
    match flags.positional[0].as_str() {
        "project" => cmd_project(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "ratio" => cmd_ratio(&flags),
        "sweep" => cmd_sweep(&flags),
        "study" => cmd_study(&flags),
        "sizing" => cmd_sizing(&flags),
        "trace" => cmd_trace(&flags),
        "report" => cmd_report(&flags),
        "export" => cmd_export(&flags),
        "obs" => match flags.positional.get(1).map(String::as_str) {
            Some("diff") => cmd_obs_diff(&flags),
            other => Err(format!(
                "unknown obs subcommand {other:?} (expected: diff)\n\n{USAGE}"
            )),
        },
        other => Err(format!("unknown command {other}\n\n{USAGE}")),
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn flag_parsing() {
        let f = flags(&["evaluate", "--mtti", "60", "--strategy", "host"]);
        assert_eq!(f.positional, vec!["evaluate"]);
        assert_eq!(f.get("mtti"), Some("60"));
        assert_eq!(f.get_f64("mtti", 30.0).unwrap(), 60.0);
        assert_eq!(f.get_f64("size", 112.0).unwrap(), 112.0);
        assert!(!f.has("compress"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let args: Vec<String> = vec!["x".into(), "--mtti".into()];
        assert!(Flags::parse(&args).is_err());
    }

    #[test]
    fn system_and_strategy_construction() {
        let f = flags(&[
            "evaluate", "--mtti", "60", "--size", "56", "--strategy",
            "ndp", "--compress", "0.8",
        ]);
        let sys = system_from(&f).unwrap();
        assert_eq!(sys.mtti, 3600.0);
        assert_eq!(sys.checkpoint_bytes, 56.0 * GB);
        let strat = strategy_from(&f, &sys).unwrap();
        assert!(matches!(strat, Strategy::LocalIoNdp { .. }));
        assert!(strat.compression().is_some());
    }

    #[test]
    fn host_strategy_with_explicit_ratio() {
        let f = flags(&["evaluate", "--strategy", "host", "--ratio", "12"]);
        let sys = system_from(&f).unwrap();
        let strat = strategy_from(&f, &sys).unwrap();
        match strat {
            Strategy::LocalIoHost { ratio, .. } => assert_eq!(ratio, 12),
            other => panic!("wrong strategy {other:?}"),
        }
    }

    #[test]
    fn unknown_strategy_rejected() {
        let f = flags(&["evaluate", "--strategy", "wat"]);
        let sys = system_from(&f).unwrap();
        assert!(strategy_from(&f, &sys).is_err());
    }

    #[test]
    fn last_flag_wins() {
        let f = flags(&["x", "--mtti", "30", "--mtti", "90"]);
        assert_eq!(f.get_f64("mtti", 0.0).unwrap(), 90.0);
    }
}
