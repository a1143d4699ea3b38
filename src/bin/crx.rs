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

use std::io::{self, Write};

use ndp_checkpoint::cr_core::analytic::{self, CycleSolution};
use ndp_checkpoint::cr_core::ratio_opt;
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

/// Why a command stopped early: an error to report (exit 1), or a
/// reader that closed stdout, which ends the output (exit 0).
enum Stop {
    Error(String),
    Closed,
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Error(e)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Stop::Closed,
            _ => Stop::Error(format!("stdout: {e}")),
        }
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
/// `--compress` (in (0, 1]), `--ratio` (in [1, MAX_RATIO]; the best
/// ratio without it) and `--interval` (positive seconds), and solves it
/// on `sys`. A flag the strategy does not use, or a configuration the
/// analytic model refuses, is an error that names the flag at fault.
fn strategy_from(
    flags: &Flags,
    sys: &SystemParams,
) -> Result<(Strategy, CycleSolution), String> {
    let name = flags.get("strategy").unwrap_or("ndp");
    let unused: &[&str] = match name {
        "io-only" => &["p-local", "ratio", "interval"],
        "local" => &["p-local", "compress", "ratio", "interval"],
        "ndp" => &["ratio"],
        _ => &[],
    };
    if let Some(key) = unused.iter().find(|k| flags.has(k)) {
        return Err(format!("--{key}: not used by --strategy {name}"));
    }
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
    let strat = match name {
        "io-only" => Strategy::IoOnly {
            interval: None,
            compression: factor.map(CompressionSpec::gzip1_host_with_factor),
        },
        "local" => Strategy::LocalOnly { interval: None },
        "host" => {
            let comp = factor.map(CompressionSpec::gzip1_host_with_factor);
            let ratio = match flags.get("ratio") {
                None => {
                    ratio_opt::best_host_ratio_at(sys, p_local, comp, interval).0
                }
                Some(r) => r
                    .parse()
                    .ok()
                    .filter(|k| (1..=ratio_opt::MAX_RATIO).contains(k))
                    .ok_or_else(|| {
                        format!(
                            "--ratio: {r} is not an integer in [1, {}]",
                            ratio_opt::MAX_RATIO
                        )
                    })?,
            };
            Strategy::LocalIoHost { interval, ratio, p_local, compression: comp }
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
    let sol = analytic::solve_cycle(sys, &strat).map_err(|r| format!("--{r}"))?;
    Ok((strat, sol))
}

/// Reads `--replicas` or `--failures` where a simulated mean is
/// printed: it must be at least `min` (1 at least, since a run with no
/// replica or no failure measures nothing).
fn count_from(
    flags: &Flags,
    key: &str,
    default: usize,
    min: usize,
) -> Result<u64, String> {
    match flags.get_usize(key, default)? {
        n if n < min => Err(format!("--{key}: {n} is not an integer >= {min}")),
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

Each command takes only the flags listed for it below (and --help).

SYSTEM FLAGS (evaluate, trace, report, export; each > 0):
  --mtti MIN     system MTTI in minutes        [30]
  --size GB      checkpoint size per node      [112]
  --nvm GBPS     local NVM bandwidth           [15]
  --io MBPS      per-node global-I/O share     [100]

STRATEGY FLAGS (evaluate, trace, report, export):
  --strategy S   io-only | local | host | ndp  [ndp]
  --p-local F    P(recover from local levels)  [0.85]
  --compress F   compression factor in (0, 1]  [off]
  --ratio K      host local:IO ratio, >= 1     [optimal]
  --interval S   local checkpoint interval     [150]
                 (a flag the strategy does not use is refused)

EVALUATE FLAGS:
  --replicas N   simulation replicas, >= 1     [4]
  --failures N   failures per replica, >= 1    [2000]

TRACE FLAGS:
  --seed N       replica seed                  [42]
  --failures N   failures to simulate          [25]
  --sink S       off | vec | json              [vec]
  --from S       render window start, seconds  [0]
  --to S         render window end, seconds    [wall time]
                 (--from and --to finite)
  --width N      render width, 10..=10000      [100]
  --result-out F write the SimResult debug dump to F

REPORT / EXPORT FLAGS:
  --seed N       base replica seed             [42]
  --replicas N   observed replicas (fleet)     [report 4, export 2]
                 (report needs >= 2: one replica has no SEM)
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

fn cmd_evaluate(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let sys = system_from(flags)?;
    let (strat, sol) = strategy_from(flags, &sys)?;
    let replicas = count_from(flags, "replicas", 4, 1)?;
    let failures = count_from(flags, "failures", 2000, 1)?;

    let opts = SimOptions {
        seed: 42,
        min_failures: failures,
        min_work: 0.0,
        max_wall: 1e12,
    };
    let sim = simulate_avg(&sys, &strat, &opts, replicas);

    writeln!(out, "strategy: {}", strat.label())?;
    // Only the two-level strategies keep a local:IO ratio.
    match strat {
        Strategy::LocalIoHost { .. } | Strategy::LocalIoNdp { .. } => writeln!(
            out,
            "  interval {} | local:IO ratio {}",
            fmt_secs(sol.interval),
            sol.ratio
        )?,
        Strategy::IoOnly { .. } | Strategy::LocalOnly { .. } => {
            writeln!(out, "  interval {}", fmt_secs(sol.interval))?
        }
    }
    writeln!(
        out,
        "  analytic : progress {:.1}%",
        sol.progress_rate() * 100.0
    )?;
    let spread = if replicas > 1 {
        format!("+-{:.2} s.e. over {replicas} replicas", sim.sem_progress() * 100.0)
    } else {
        "1 replica".into()
    };
    writeln!(
        out,
        "  simulated: progress {:.1}% ({spread})",
        sim.progress_rate() * 100.0
    )?;
    let f = sim.fractions();
    writeln!(
        out,
        "  breakdown: ckpt L {:.1}% IO {:.1}% | restore L {:.1}% IO {:.1}% | rerun L {:.1}% IO {:.1}%",
        f.checkpoint_local * 100.0,
        f.checkpoint_io * 100.0,
        f.restore_local * 100.0,
        f.restore_io * 100.0,
        f.rerun_local * 100.0,
        f.rerun_io * 100.0
    )?;
    Ok(())
}

fn cmd_trace(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    use ndp_checkpoint::cr_obs::{Bus, VecSink};
    use ndp_checkpoint::cr_sim::{run_engine, Trace};

    let sys = system_from(flags)?;
    let (strat, _) = strategy_from(flags, &sys)?;
    let opts = SimOptions {
        seed: flags.get_usize("seed", 42)? as u64,
        min_failures: flags.get_usize("failures", 25)? as u64,
        min_work: 0.0,
        max_wall: 1e12,
    };
    // The render window, read before the run: a NaN or infinite edge
    // has no column, and the width sizes three row buffers.
    let finite = |key| flags.get_checked(key, 0.0, "a finite number", |_| true);
    let from = finite("from")?;
    let to = if flags.has("to") { Some(finite("to")?) } else { None };
    if let Some(to) = to.filter(|&to| to <= from) {
        return Err(format!("--to ({to}) must exceed --from ({from})").into());
    }
    let width = match flags.get_usize("width", 100)? {
        w @ 10..=10_000 => w,
        w => {
            let want = "an integer in [10, 10000]";
            return Err(format!("--width: {w} is not {want}").into());
        }
    };

    // `vec` and `json` record the same events; they differ only in
    // what stdout shows after the header: a timeline or JSON lines.
    let sink = flags.get("sink").unwrap_or("vec");
    let bus = match sink {
        "off" => Bus::disabled(),
        "vec" | "json" => Bus::with_sink(VecSink::new()),
        other => {
            return Err(format!("unknown --sink {other} (off|vec|json)").into())
        }
    };
    let json = sink == "json";

    let result = run_engine(&sys, &strat, &opts, &bus);
    let rendered = if json { bus.render() } else { String::new() };
    let events = bus.drain();

    writeln!(out, "strategy: {} | seed {}", strat.label(), opts.seed)?;
    writeln!(
        out,
        "wall {:.0} s | work {:.0} s | failures {} | events {}",
        result.stats.wall_time,
        result.stats.work_done,
        result.stats.failures,
        events.len(),
    )?;
    if json {
        write!(out, "{rendered}")?;
    } else if !events.is_empty() {
        // Without --to the window ends at the wall time, which only
        // the run knows.
        let to = to.unwrap_or(result.stats.wall_time);
        if to <= from {
            return Err(format!("--from ({from}) is past the wall time").into());
        }
        let trace = Trace::from_events(&events);
        write!(out, "{}", trace.render_ascii(from, to, width))?;
    }

    if let Some(path) = flags.get("result-out") {
        ensure_parent_dir(path);
        let dump = format!("{result:?}\n");
        std::fs::write(path, dump)
            .map_err(|e| format!("--result-out {path}: {e}"))?;
    }
    Ok(())
}

/// Per-replica result and event stream from an observed fleet run.
type FleetRuns =
    Vec<(ndp_checkpoint::cr_sim::SimResult, Vec<ndp_checkpoint::cr_obs::Event>)>;

/// Runs an observed fleet of `replicas` replicas of at least
/// `failures` failures each, with the report/export flag conventions.
fn observed_fleet(
    flags: &Flags,
    replicas: u64,
    failures: u64,
) -> Result<(CycleSolution, Strategy, SimOptions, FleetRuns), String> {
    use ndp_checkpoint::cr_sim::run_fleet_observed;
    let sys = system_from(flags)?;
    let (strat, sol) = strategy_from(flags, &sys)?;
    let opts = SimOptions {
        seed: flags.get_usize("seed", 42)? as u64,
        min_failures: failures,
        min_work: 0.0,
        max_wall: 1e12,
    };
    let fleet = run_fleet_observed(&sys, &strat, &opts, replicas);
    Ok((sol, strat, opts, fleet))
}

/// Writes the model-plane snapshot of `cr_sim::fleet_report`: each of
/// the seven time buckets as the analytic fraction next to the mean and
/// SEM of the per-replica simulated fractions, the fleet's event counts
/// and run counters, and the progress divergence.
fn cmd_report(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    use ndp_checkpoint::cr_sim::fleet_report;

    let replicas = count_from(flags, "replicas", 4, 2)?;
    let failures = count_from(flags, "failures", 400, 1)?;
    let (sol, strat, opts, fleet) = observed_fleet(flags, replicas, failures)?;
    let label = format!(
        "{} seed {} x{}",
        strat.label(),
        opts.seed,
        fleet.len()
    );
    let report = fleet_report(&label, &sol, &fleet);

    writeln!(out, "indicators: {}", report.label)?;
    for (k, v) in report.values() {
        writeln!(out, "  {k:<34} {v}")?;
    }
    if let Some(path) = flags.get("out") {
        ensure_parent_dir(path);
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("--out {path}: {e}"))?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

fn cmd_export(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    use ndp_checkpoint::cr_obs::export::{
        chrome_trace_merged, validate_chrome_trace,
    };

    let replicas = count_from(flags, "replicas", 2, 1)?;
    let failures = flags.get_usize("failures", 25)? as u64;
    let (_, strat, opts, fleet) = observed_fleet(flags, replicas, failures)?;
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
            writeln!(
                out,
                "wrote {path}: {} nodes, {} events ({} | seed {})",
                fleet.len(),
                fleet.iter().map(|(_, e)| e.len()).sum::<usize>(),
                strat.label(),
                opts.seed
            )?;
        }
        None => write!(out, "{text}")?,
    }
    Ok(())
}

fn cmd_obs_diff(flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    use ndp_checkpoint::cr_obs::analyze::{diff_flat, flatten_numbers};
    use ndp_checkpoint::cr_obs::json;

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
    writeln!(
        out,
        "compared {} keys ({} added in current), default tol {:.1}%",
        diff.compared,
        diff.added.len(),
        tol * 100.0
    )?;
    for m in &diff.missing {
        writeln!(out, "  MISSING  {m} (in baseline, absent from current)")?;
    }
    for r in &diff.regressions {
        writeln!(
            out,
            "  REGRESSED {} : {} -> {} ({:+.2}% vs tol {:.1}%)",
            r.key,
            r.base,
            r.current,
            (r.current - r.base) / r.base.abs().max(1e-9) * 100.0,
            per_key.get(&r.key).copied().unwrap_or(tol) * 100.0
        )?;
    }
    if diff.ok() {
        writeln!(out, "OK: within tolerance")?;
        Ok(())
    } else {
        Err(Stop::Error(format!(
            "{} regression(s), {} missing key(s)",
            diff.regressions.len(),
            diff.missing.len()
        )))
    }
}

/// A subcommand: runs with the parsed flags, writing to `out`.
type Handler = fn(&Flags, &mut dyn Write) -> Result<(), Stop>;

/// The SYSTEM and STRATEGY flags of `USAGE`, taken by every command
/// that builds a system and a strategy.
const MODEL_FLAGS: [&str; 9] = [
    "mtti", "size", "nvm", "io", "strategy", "p-local", "compress", "ratio",
    "interval",
];

/// What a command takes: the positional arguments after its name, and
/// its flags.
type Takes = (&'static [&'static str], Vec<&'static str>);

/// A COMMANDS entry of `USAGE` (`obs diff` is one name): its handler
/// and what it takes; `None` for an unknown command.
fn command(name: &str) -> Option<(Handler, Takes)> {
    const FLEET: [&str; 4] = ["seed", "replicas", "failures", "out"];
    let (run, own): (Handler, &[&str]) = match name {
        "evaluate" => (cmd_evaluate, &["replicas", "failures"]),
        "trace" => (
            cmd_trace,
            &["seed", "failures", "sink", "from", "to", "width", "result-out"],
        ),
        "report" => (cmd_report, &FLEET),
        "export" => (cmd_export, &FLEET),
        "obs diff" => {
            let files = &["<baseline.json>", "<current.json>"];
            return Some((cmd_obs_diff, (files, vec!["tol", "tol-key"])));
        }
        _ => return None,
    };
    Some((run, (&[], [&MODEL_FLAGS[..], own].concat())))
}

fn run(out: &mut dyn Write) -> Result<(), Stop> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args)?;
    if flags.has("help") || flags.positional.is_empty() {
        write!(out, "{USAGE}")?;
        return Ok(());
    }
    let name = match flags.positional.as_slice() {
        [obs, sub, ..] if obs == "obs" => format!("obs {sub}"),
        _ => flags.positional[0].clone(),
    };
    let (handler, (wants, takes)) = command(&name)
        .ok_or_else(|| format!("unknown command {name}\n\n{USAGE}"))?;
    // An argument the command does not read would otherwise be
    // ignored, and a mistyped or retired flag would run with the
    // default it meant to override.
    let given = &flags.positional[name.split(' ').count()..];
    if let Some(extra) = given.get(wants.len()) {
        return Err(format!("{extra}: not an argument of crx {name}").into());
    }
    if given.len() < wants.len() {
        let usage = wants.join(" ");
        return Err(format!("usage: crx {name} {usage}\n\n{USAGE}").into());
    }
    let unknown = flags.named.iter().find(|(k, _)| !takes.contains(&&k[..]));
    if let Some((key, _)) = unknown {
        return Err(format!(
            "--{key}: not a flag of crx {name} (see crx --help)"
        )
        .into());
    }
    handler(&flags, out)
}

fn main() {
    let mut out = io::BufWriter::new(io::stdout().lock());
    let result = run(&mut out).and_then(|()| out.flush().map_err(Stop::from));
    if let Err(Stop::Error(e)) = result {
        // What the command wrote before failing still goes out.
        let _ = out.flush();
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
        let (strat, _) = strategy_from(&f, &sys).unwrap();
        assert!(matches!(strat, Strategy::LocalIoNdp { .. }));
        assert!(strat.compression().is_some());
    }

    #[test]
    fn host_strategy_with_explicit_ratio() {
        let f = flags(&["evaluate", "--strategy", "host", "--ratio", "12"]);
        let sys = system_from(&f).unwrap();
        let (strat, sol) = strategy_from(&f, &sys).unwrap();
        assert_eq!(sol.ratio, 12);
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
            (&["--strategy", "host", "--ratio", "401"], "--ratio"),
            (&["--mtti", "0.01"], "--mtti"),
            (&["--mtti", "0.01", "--strategy", "host"], "--mtti"),
            (&["--mtti", "0.01", "--strategy", "io-only"], "--mtti"),
            // The drain ratio (drain time over interval) sizes the
            // model's state chain.
            (&["--strategy", "ndp", "--interval", "1e-7"], "--interval"),
            (&["--strategy", "ndp", "--interval", "2"], "--interval"),
            // Progress rate ~6e-12: the simulation would never end.
            (&["--mtti", "0.01", "--strategy", "local"], "--mtti"),
            // Not even a local restore can finish.
            (&["--mtti", "0.0001", "--strategy", "local"], "--mtti"),
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
            let err = count_from(&flags(&["evaluate", &flag, "0"]), key, 4, 1);
            assert!(err.unwrap_err().starts_with(&flag));
        }
        // Every failure recovers locally: no I/O restore has to finish
        // (a 10 s one at a 12 ms MTTI never does).
        let args = ["--mtti", "0.0002", "--size", "1"];
        let f = flags(&[&["evaluate", "--strategy", "local"], &args[..]].concat());
        assert!(strategy_from(&f, &system_from(&f).unwrap()).is_ok());
        let f = flags(&[&["evaluate", "--strategy", "ndp"], &args[..]].concat());
        let err = strategy_from(&f, &system_from(&f).unwrap()).unwrap_err();
        assert!(err.starts_with("--mtti"), "{err}");
        // Ratio 374: the longest drain that fits.
        let f = flags(&["evaluate", "--strategy", "ndp", "--interval", "3"]);
        assert!(strategy_from(&f, &system_from(&f).unwrap()).is_ok());

        // Drain ratio 254 (a 0.5 s interval would need 508).
        let edges = flags(&[
            "evaluate", "--p-local", "1", "--compress", "1", "--interval",
            "1",
        ]);
        let sys = system_from(&edges).unwrap();
        assert!(strategy_from(&edges, &sys).is_ok());
        let f = flags(&["evaluate", "--p-local", "0", "--replicas", "1"]);
        assert!(strategy_from(&f, &sys).is_ok());
        assert_eq!(count_from(&f, "replicas", 4, 1), Ok(1));
        let err = count_from(&f, "replicas", 4, 2).unwrap_err();
        assert!(err.starts_with("--replicas: 1 "), "{err}");
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
            let Err(Stop::Error(err)) = cmd_obs_diff(&f, &mut io::sink()) else {
                panic!("{args:?} must be rejected");
            };
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

    /// Each command accepts exactly the flags of the USAGE blocks that
    /// name it: every listed flag, and no flag USAGE does not list.
    #[test]
    fn every_usage_flag_is_accepted_by_its_commands() {
        const MODEL: &[&str] = &["evaluate", "trace", "report", "export"];
        let blocks: [(&str, &[&str]); 6] = [
            ("SYSTEM FLAGS", MODEL),
            ("STRATEGY FLAGS", MODEL),
            ("EVALUATE FLAGS", &["evaluate"]),
            ("TRACE FLAGS", &["trace"]),
            ("REPORT / EXPORT FLAGS", &["report", "export"]),
            ("OBS DIFF", &["obs diff"]),
        ];
        let mut listed: Vec<(&str, &str)> = Vec::new();
        for (heading, commands) in blocks {
            let block = USAGE
                .split(&format!("\n{heading}"))
                .nth(1)
                .unwrap_or_else(|| panic!("USAGE has no {heading} block"));
            let flags: Vec<&str> = block
                .lines()
                .skip(1)
                .take_while(|l| !l.trim().is_empty())
                .filter_map(|l| l.trim().strip_prefix("--"))
                .map(|l| l.split(' ').next().unwrap())
                .collect();
            assert!(!flags.is_empty(), "{heading} lists no flag");
            for &name in commands {
                let (_, (_, takes)) = command(name).unwrap();
                for &flag in &flags {
                    assert!(takes.contains(&flag), "{name} refuses --{flag}");
                    listed.push((name, flag));
                }
            }
        }
        for name in ["evaluate", "trace", "report", "export", "obs diff"] {
            let (_, (_, takes)) = command(name).unwrap();
            for flag in takes {
                assert!(
                    listed.contains(&(name, flag)),
                    "{name} takes --{flag}, which USAGE does not list for it"
                );
            }
        }
        let (_, (_, evaluate)) = command("evaluate").unwrap();
        assert!(!evaluate.contains(&"mtt"));
        let (_, (_, obs_diff)) = command("obs diff").unwrap();
        assert!(!obs_diff.contains(&"mtti"));
    }
}
