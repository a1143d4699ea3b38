//! Command-line entry point:
//!
//! ```text
//! ndp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one detail object (`{"detail": ...}`), then, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}`. A traced run
//! also writes its Chrome trace under `.bench_out/`. Exits nonzero when
//! any operation failed its check.

use std::process::ExitCode;

use ndp_benchmark::{heap, report, run, Config, WORKLOADS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ndp-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = Config::standard(args.seed, args.seconds, args.trace);
    let Some(outcome) = run(&args.workload, &cfg) else {
        eprintln!(
            "error: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Some(trace) = &outcome.chrome_trace {
        let path = format!(".bench_out/{}-seed{}.trace.json", args.workload, args.seed);
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, trace));
        if let Err(e) = written {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    println!("{{\"detail\": {}}}", outcome.detail);
    println!("{}", report::result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        for f in &outcome.failures {
            eprintln!("check failed: {f}");
        }
        ExitCode::FAILURE
    }
}
