//! `crx` — checkpoint/restart explorer.
//!
//! A command-line front end for what the `repro_*` binaries cannot do:
//! evaluate one custom configuration with the analytic model and the
//! simulator, observe a simulated run (`trace`, `report`, `export`),
//! and gate two JSON snapshots against each other (`obs diff`).
//!
//! ```sh
//! crx evaluate --strategy ndp --p-local 0.85 --compress 0.73
//! crx trace --failures 10
//! crx obs diff results/INDICATORS_sim.json current.json --tol 0.01
//! crx --help
//! ```

use ndp_checkpoint::cr_core::{analytic, ratio_opt};
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

    /// Reads `--key` as a finite number that passes `valid`; the error
    /// names the flag and says what it wants.
    fn get_checked(
        &self,
        key: &str,
        default: f64,
        want: &str,
        valid: fn(f64) -> bool,
    ) -> Result<f64, String> {
        let v = self.get_f64(key, default)?;
        if v.is_finite() && valid(v) {
            Ok(v)
        } else {
            Err(format!("--{key}: {v} is not {want}"))
        }
    }

    fn get_positive(&self, key: &str, default: f64) -> Result<f64, String> {
        self.get_checked(key, default, "a positive number", |v| v > 0.0)
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

/// Builds `SystemParams` from common flags (`--mtti` minutes, `--size`
/// GB, `--nvm` GB/s, `--io` MB/s per node), each a positive number.
fn system_from(flags: &Flags) -> Result<SystemParams, String> {
    Ok(SystemParams {
        mtti: flags.get_positive("mtti", 30.0)? * MINUTE,
        checkpoint_bytes: flags.get_positive("size", 112.0)? * GB,
        local_bw: flags.get_positive("nvm", 15.0)? * GB,
        io_bw_per_node: flags.get_positive("io", 100.0)? * MB,
    })
}

/// Builds a strategy from `--strategy`, `--p-local` (in [0, 1]),
/// `--compress` (in (0, 1]), `--ratio` (at least 1) and `--interval`
/// (positive seconds). Refuses a configuration whose recovery could
/// never end on `sys` (the analytic model would panic on it).
fn strategy_from(
    flags: &Flags,
    sys: &SystemParams,
) -> Result<Strategy, String> {
    let p_local = flags.get_checked("p-local", 0.85, "in [0, 1]", |v| {
        (0.0..=1.0).contains(&v)
    })?;
    let interval = Some(flags.get_positive("interval", 150.0)?);
    let factor = if flags.has("compress") {
        Some(flags.get_checked("compress", 0.73, "in (0, 1]", |v| {
            v > 0.0 && v <= 1.0
        })?)
    } else {
        None
    };
    let name = flags.get("strategy").unwrap_or("ndp");
    let mut strat = match name {
        "io-only" => Strategy::IoOnly {
            interval: None,
            compression: factor.map(CompressionSpec::gzip1_host_with_factor),
        },
        "local" => Strategy::LocalOnly { interval: None },
        "host" => Strategy::LocalIoHost {
            interval,
            // Without `--ratio`, the best ratio replaces this 1 once the
            // recovery check below has passed: the search runs the model.
            ratio: match flags.get("ratio") {
                None => 1,
                Some(r) => match r.parse::<u32>() {
                    Ok(k) if k >= 1 => k,
                    _ => {
                        return Err(format!(
                            "--ratio: {r} is not an integer >= 1"
                        ))
                    }
                },
            },
            p_local,
            compression: factor.map(CompressionSpec::gzip1_host_with_factor),
        },
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
    if !analytic::recovery_can_succeed(sys, &strat) {
        return Err(format!(
            "--mtti: {} min is too short: an I/O restore could never \
             finish between two failures",
            sys.mtti / MINUTE
        ));
    }
    if let Strategy::LocalIoHost {
        interval,
        ratio,
        p_local,
        compression,
    } = &mut strat
    {
        if !flags.has("ratio") {
            *ratio = ratio_opt::best_host_ratio_at(
                sys,
                *p_local,
                *compression,
                *interval,
            )
            .0;
        }
    }
    Ok(strat)
}

/// Reads `--replicas` or `--failures` where a simulated mean is
/// printed: it must be at least 1, since a run with no replica or no
/// failure measures nothing.
fn count_from(flags: &Flags, key: &str, default: usize) -> Result<u64, String> {
    match flags.get_usize(key, default)? {
        0 => Err(format!("--{key}: 0 is not an integer >= 1")),
        n => Ok(n as u64),
    }
}

const USAGE: &str = "\
crx — checkpoint/restart explorer

USAGE: crx <command> [flags]

COMMANDS:
  evaluate   evaluate one strategy on a system (analytic + simulation)
  trace      run one observed replica and render its Fig. 3 timeline
  report     run an observed fleet and print derived C/R indicators
  export     export an observed fleet as a Chrome trace (Perfetto) JSON
  obs diff   compare the numbers of two JSON snapshots (gate)

The paper's tables and figures have their own binaries (repro_table1,
repro_fig5, ...; see README).

SYSTEM FLAGS (each > 0):
  --mtti MIN     system MTTI in minutes        [30]
  --size GB      checkpoint size per node      [112]
  --nvm GBPS     local NVM bandwidth           [15]
  --io MBPS      per-node global-I/O share     [100]

STRATEGY FLAGS:
  --strategy S   io-only | local | host | ndp  [ndp]
  --p-local F    P(recover from local levels)  [0.85]
  --compress F   compression factor in (0, 1]  [off]
  --ratio K      host local:IO ratio, >= 1     [optimal]
  --interval S   local checkpoint interval     [150]

EVALUATE FLAGS:
  --replicas N   simulation replicas, >= 1     [4]
  --failures N   failures per replica, >= 1    [2000]

TRACE FLAGS:
  --seed N       replica seed                  [42]
  --failures N   failures to simulate          [25]
  --sink S       off | vec | json              [vec]
  --from S       render window start, seconds  [0]
  --to S         render window end, seconds    [wall time]
  --width N      render width in columns       [100]
  --result-out F write the SimResult debug dump to F
  --metrics-out F write an indicators/v1 event-count snapshot to F
                 (needs --sink vec or json)

REPORT / EXPORT FLAGS:
  --seed N       base replica seed             [42]
  --replicas N   observed replicas (fleet)     [report 4, export 2]
  --failures N   failures per replica          [report 400, export 25]
                 (report needs >= 1)
  --out F        write JSON to F instead of stdout summary only

OBS DIFF (crx obs diff <baseline.json> <current.json>):
  --tol F        default relative tolerance    [0.05]
  --tol-key K=F  per-key override (repeatable, flattened dotted key)
";

/// Creates the parent directory of `path` if needed.
fn ensure_parent_dir(path: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let sys = system_from(flags)?;
    let strat = strategy_from(flags, &sys)?;
    let replicas = count_from(flags, "replicas", 4)?;
    let failures = count_from(flags, "failures", 2000)?;

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

fn cmd_trace(flags: &Flags) -> Result<(), String> {
    use ndp_checkpoint::cr_obs::analyze::IndicatorReport;
    use ndp_checkpoint::cr_obs::{Bus, VecSink};
    use ndp_checkpoint::cr_sim::{run_engine, Trace};

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
    if sink == "off" && flags.get("metrics-out").is_some() {
        return Err("--metrics-out needs a recording sink (vec|json), \
                    not --sink off"
            .into());
    }
    let bus = match sink {
        "off" => Bus::disabled(),
        "vec" | "json" => Bus::with_sink(VecSink::new()),
        other => return Err(format!("unknown --sink {other} (off|vec|json)")),
    };
    let json = sink == "json";

    let result = run_engine(&sys, &strat, &opts, &bus);
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
        let mut m = IndicatorReport::new("crx_trace");
        m.set("events_total", events.len() as f64);
        for e in &events {
            m.add(&format!("events_{}", e.kind.name()), 1.0);
        }
        m.set("wall_time_s", result.stats.wall_time);
        m.set("work_done_s", result.stats.work_done);
        std::fs::write(path, m.to_json())
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }
    Ok(())
}

/// Per-replica result and event stream from an observed fleet run.
type FleetRuns =
    Vec<(ndp_checkpoint::cr_sim::SimResult, Vec<ndp_checkpoint::cr_obs::Event>)>;

/// Runs an observed fleet of replicas of at least `failures` failures
/// each, with the report/export flag conventions.
fn observed_fleet(
    flags: &Flags,
    default_replicas: usize,
    failures: u64,
) -> Result<(SystemParams, Strategy, SimOptions, FleetRuns), String> {
    use ndp_checkpoint::cr_sim::run_fleet_observed;
    let sys = system_from(flags)?;
    let strat = strategy_from(flags, &sys)?;
    let replicas = count_from(flags, "replicas", default_replicas)?;
    let opts = SimOptions {
        seed: flags.get_usize("seed", 42)? as u64,
        min_failures: failures,
        min_work: 0.0,
        max_wall: 1e12,
    };
    let fleet = run_fleet_observed(&sys, &strat, &opts, replicas);
    Ok((sys, strat, opts, fleet))
}

fn cmd_report(flags: &Flags) -> Result<(), String> {
    use ndp_checkpoint::cr_obs::analyze::{analyze, merge_percentiles};

    let (sys, strat, opts, fleet) =
        observed_fleet(flags, 4, count_from(flags, "failures", 400)?)?;
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

    let failures = flags.get_usize("failures", 25)? as u64;
    let (_sys, strat, opts, fleet) = observed_fleet(flags, 2, failures)?;
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

    // A NaN tolerance would pass every key (`rel > NaN` is false), so
    // the gate takes only finite, non-negative tolerances.
    const WANT: &str = "a finite tolerance >= 0";
    let tol = flags.get_checked("tol", 0.05, WANT, |t| t >= 0.0)?;
    let mut per_key = std::collections::BTreeMap::new();
    for (k, v) in &flags.named {
        if k == "tol-key" {
            let (key, t) = v.split_once('=').ok_or_else(|| {
                format!("--tol-key wants key=tolerance, got {v}")
            })?;
            let t = t
                .parse::<f64>()
                .ok()
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| format!("--tol-key {key}: {t} is not {WANT}"))?;
            per_key.insert(key.to_string(), t);
        }
    }
    let base = load(base_path)?;
    let current = load(cur_path)?;

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

/// A subcommand: runs with the parsed flags.
type Handler = fn(&Flags) -> Result<(), String>;

/// The handler for a COMMANDS entry of `USAGE` (`obs diff` is one
/// name), or `None` for an unknown command.
fn command(name: &str) -> Option<Handler> {
    Some(match name {
        "evaluate" => cmd_evaluate,
        "trace" => cmd_trace,
        "report" => cmd_report,
        "export" => cmd_export,
        "obs diff" => cmd_obs_diff,
        _ => return None,
    })
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args)?;
    if flags.has("help") || flags.positional.is_empty() {
        print!("{USAGE}");
        return Ok(());
    }
    let name = match flags.positional.as_slice() {
        [obs, sub, ..] if obs == "obs" => format!("obs {sub}"),
        _ => flags.positional[0].clone(),
    };
    let handler = command(&name)
        .ok_or_else(|| format!("unknown command {name}\n\n{USAGE}"))?;
    handler(&flags)
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

    /// Out-of-range model flags come back as an error that names the
    /// flag, before any library assert or allocation sees them.
    #[test]
    fn model_flags_are_validated() {
        let cases: &[(&[&str], &str)] = &[
            (&["--interval", "0"], "--interval"),
            (&["--interval", "inf"], "--interval"),
            (&["--p-local", "1.5"], "--p-local"),
            (&["--p-local", "-0.1"], "--p-local"),
            (&["--p-local", "nan"], "--p-local"),
            (&["--mtti", "0"], "--mtti"),
            (&["--size", "-1"], "--size"),
            (&["--nvm", "nan"], "--nvm"),
            (&["--io", "0"], "--io"),
            (&["--compress", "1.5"], "--compress"),
            (&["--compress", "0"], "--compress"),
            (&["--compress", "nan"], "--compress"),
            (&["--strategy", "host", "--ratio", "0"], "--ratio"),
            (&["--mtti", "0.01"], "--mtti"),
            (&["--mtti", "0.01", "--strategy", "host"], "--mtti"),
            (&["--mtti", "0.01", "--strategy", "io-only"], "--mtti"),
        ];
        for (args, flag) in cases {
            let f = flags(&[&["evaluate"], *args].concat());
            let err = system_from(&f)
                .and_then(|sys| strategy_from(&f, &sys))
                .expect_err(&format!("{args:?} must be rejected"));
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
        for key in ["replicas", "failures"] {
            let flag = format!("--{key}");
            let err = count_from(&flags(&["evaluate", &flag, "0"]), key, 4);
            assert!(err.unwrap_err().starts_with(&flag));
        }
        // Every failure recovers locally: no I/O restore has to finish.
        let f = flags(&["evaluate", "--mtti", "0.01", "--strategy", "local"]);
        assert!(strategy_from(&f, &system_from(&f).unwrap()).is_ok());

        let edges = flags(&[
            "evaluate", "--p-local", "1", "--compress", "1", "--interval",
            "0.5",
        ]);
        let sys = system_from(&edges).unwrap();
        assert!(strategy_from(&edges, &sys).is_ok());
        let f = flags(&["evaluate", "--p-local", "0", "--replicas", "1"]);
        assert!(strategy_from(&f, &sys).is_ok());
        assert_eq!(count_from(&f, "replicas", 4), Ok(1));
    }

    /// `rel > NaN` is always false, so a NaN tolerance would pass any
    /// change; the gate refuses it (and negative or infinite ones)
    /// before reading either file.
    #[test]
    fn obs_diff_rejects_bad_tolerances() {
        let cases: &[(&[&str], &str)] = &[
            (&["--tol", "nan"], "--tol"),
            (&["--tol", "-0.01"], "--tol"),
            (&["--tol", "inf"], "--tol"),
            (&["--tol-key", "k=nan"], "--tol-key k"),
            (&["--tol-key", "k=-1"], "--tol-key k"),
        ];
        for (args, flag) in cases {
            let f = flags(&[&["obs", "diff", "a.json", "b.json"], *args].concat());
            let err = cmd_obs_diff(&f).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }

    /// Every entry of USAGE's COMMANDS block reaches a handler.
    #[test]
    fn every_usage_command_has_a_handler() {
        let names: Vec<&str> = USAGE
            .split("COMMANDS:\n")
            .nth(1)
            .unwrap()
            .lines()
            .take_while(|l| !l.trim().is_empty())
            .map(|l| l.trim().split("  ").next().unwrap())
            .collect();
        assert_eq!(names.len(), 5, "{names:?}");
        for name in names {
            assert!(command(name).is_some(), "{name} has no handler");
        }
        assert!(command("sweep").is_none());
    }
}
