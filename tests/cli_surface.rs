//! The command-line surface the README documents, held against the real
//! `crx` binary and the `examples/` directory. Most of these tests read
//! `--help`, or feed `crx` flags it must reject before any simulation
//! starts; one runs a single short replica.

use std::path::Path;
use std::process::{Command, Output};

fn crx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_crx"))
        .args(args)
        .output()
        .expect("run crx")
}

/// The command names in the COMMANDS block of `crx --help`.
fn help_commands() -> Vec<String> {
    let out = crx(&["--help"]);
    assert!(out.status.success(), "crx --help must succeed");
    let help = String::from_utf8(out.stdout).unwrap();
    let block = help
        .split("COMMANDS:\n")
        .nth(1)
        .expect("crx --help has a COMMANDS block");
    block
        .lines()
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.trim().split("  ").next().unwrap().to_string())
        .collect()
}

/// Each word that follows `marker` in `text`.
fn words_after<'a>(text: &'a str, marker: &str) -> Vec<&'a str> {
    text.match_indices(marker)
        .filter_map(|(i, _)| text[i + marker.len()..].split_whitespace().next())
        .collect()
}

/// Every `--example NAME` in the README is a file under `examples/`, and
/// every `--bin crx -- CMD` is a command `crx --help` lists.
#[test]
fn readme_commands_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();

    let examples = words_after(&readme, "--example ");
    assert!(!examples.is_empty(), "the README names no example");
    for name in examples {
        let path = root.join("examples").join(format!("{name}.rs"));
        assert!(path.exists(), "README runs --example {name}: no {path:?}");
    }

    let commands = help_commands();
    let invoked = words_after(&readme, "--bin crx -- ");
    assert!(!invoked.is_empty(), "the README runs no crx command");
    for cmd in invoked.into_iter().filter(|c| !c.starts_with('-')) {
        assert!(
            commands.iter().any(|c| c.split(' ').next() == Some(cmd)),
            "README runs `crx {cmd}`, which `crx --help` does not list \
             ({commands:?})"
        );
    }
}

/// Out-of-range flags exit 1 with an error that names the flag: no
/// panic (exit 101) and no abort (exit 134) from a library assert or an
/// allocation sized from the bad value, and no `obs diff` that passes
/// any change because its tolerance is NaN.
#[test]
fn crx_rejects_out_of_range_flags() {
    let snapshot = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results/INDICATORS_sim.json");
    let snapshot = snapshot.to_str().unwrap();
    let self_diff = ["obs", "diff", snapshot, snapshot];
    let ndp = ["evaluate", "--strategy", "ndp"];
    let local = [
        "evaluate", "--strategy", "local", "--replicas", "1", "--failures", "50",
    ];
    let io_only = ["evaluate", "--strategy", "io-only"];
    let cases: &[(&[&str], &str)] = &[
        (&["evaluate", "--interval", "0"], "--interval"),
        (&["evaluate", "--p-local", "1.5"], "--p-local"),
        (&["evaluate", "--mtti", "0"], "--mtti"),
        (&["evaluate", "--mtti", "0.01"], "--mtti"),
        (&[&ndp[..], &["--interval", "1e-7"]].concat(), "--interval"),
        (&["evaluate", "--strategy", "host", "--ratio", "4000000000"], "--ratio"),
        // Progress rates far below 1e-6: the simulations would not end.
        (&[&local[..], &["--mtti", "0.01"]].concat(), "--mtti"),
        (&[&local[..], &["--mtti", "0.0001"]].concat(), "--mtti"),
        (&["trace", "--strategy", "local", "--mtti", "0.01"], "--mtti"),
        (&["report", "--strategy", "local", "--mtti", "0.01"], "--mtti"),
        (&["export", "--strategy", "local", "--mtti", "0.01"], "--mtti"),
        // Past the restore rule, refused by the progress floor before
        // the solver's debug asserts run.
        (&[&ndp[..], &["--mtti", "0.1"]].concat(), "--mtti"),
        (&["evaluate", "--strategy", "host", "--mtti", "0.3"], "--mtti"),
        (&["evaluate", "--strategy", "io-only", "--mtti", "0.1"], "--mtti"),
        (&["evaluate", "--failures", "0"], "--failures"),
        (&["report", "--failures", "0"], "--failures"),
        (&["evaluate", "--replicas", "0"], "--replicas"),
        (&["evaluate", "--compress", "nan"], "--compress"),
        (&["trace", "--size", "-5"], "--size"),
        (&["report", "--replicas", "0"], "--replicas"),
        (&[&self_diff[..], &["--tol", "nan"]].concat(), "--tol"),
        (&[&self_diff[..], &["--tol-key", "k=nan"]].concat(), "--tol-key"),
        // A flag the command does not list would otherwise run with the
        // default it meant to override, or write nothing.
        (&["evaluate", "--mtt", "5"], "--mtt"),
        (&["trace", "--metrics-out", "x"], "--metrics-out"),
        (&["report", "--sink", "vec"], "--sink"),
        (&[&self_diff[..], &["--seed", "1"]].concat(), "--seed"),
        // One replica has no standard error to report.
        (&["report", "--replicas", "1"], "--replicas"),
        // The render window: a NaN edge trips the renderer's assert,
        // an infinite one draws the run into one column, and the width
        // sizes the row buffers.
        (&["trace", "--from", "nan"], "--from"),
        (&["trace", "--to", "nan"], "--to"),
        (&["trace", "--to", "inf"], "--to"),
        (&["trace", "--width", "100000000000"], "--width"),
        (&["trace", "--width", "9"], "--width"),
        // A reversed window is refused before the run, whatever the
        // sink renders.
        (&["trace", "--sink", "json", "--from", "5", "--to", "1"], "--to"),
        (&["trace", "--sink", "off", "--from", "5", "--to", "1"], "--to"),
        // Each command reads a fixed number of positional arguments.
        (&[&self_diff[..], &["extra.json"]].concat(), "extra.json"),
        (&["evaluate", "5", "--replicas", "2"], "5"),
        (&["obs", "diff", snapshot], "usage: crx obs diff"),
        // A strategy flag the chosen strategy does not use would print
        // the run without it.
        (&["trace", "--strategy", "ndp", "--ratio", "7"], "--ratio"),
        (&[&local[..], &["--interval", "20000"]].concat(), "--interval"),
        (&[&local[..], &["--compress", "0.3"]].concat(), "--compress"),
        (&[&local[..], &["--p-local", "0.1"]].concat(), "--p-local"),
        (&[&io_only[..], &["--p-local", "0.1"]].concat(), "--p-local"),
        (&[&io_only[..], &["--interval", "600"]].concat(), "--interval"),
        (&[&io_only[..], &["--ratio", "2"]].concat(), "--ratio"),
    ];
    for (args, flag) in cases {
        let out = crx(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag}")),
            "{args:?}: {stderr}"
        );
    }
}

/// A reader that stops early ends the output: `crx` exits 0 with
/// nothing on stderr, rather than panicking on the broken pipe. The
/// JSON stream of 300 failures is far larger than a pipe buffer, so
/// `crx` is still writing when the reader goes.
#[test]
fn crx_exits_quietly_when_stdout_closes() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_crx"))
        .args(["trace", "--failures", "300", "--sink", "json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run crx");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    for _ in 0..2 {
        lines.next().expect("a line").expect("readable");
    }
    drop(lines);
    let out = child.wait_with_output().expect("crx exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

/// One replica has no standard error, so `evaluate` prints none rather
/// than a NaN.
#[test]
fn evaluate_prints_no_nan_for_one_replica() {
    let out = crx(&[
        "evaluate", "--strategy", "local", "--replicas", "1", "--failures",
        "50",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("simulated: progress"), "{stdout}");
    assert!(!stdout.contains("NaN"), "{stdout}");
}

/// `evaluate` prints a local:IO ratio only for the strategies that keep
/// one: Local + I/O on the host or the NDP.
#[test]
fn evaluate_prints_a_ratio_only_for_two_level_strategies() {
    for (strategy, has_ratio) in
        [("host", true), ("ndp", true), ("local", false), ("io-only", false)]
    {
        let out = crx(&[
            "evaluate", "--strategy", strategy, "--replicas", "1",
            "--failures", "50",
        ]);
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(out.status.success(), "{strategy}: {stdout}");
        assert!(stdout.contains("  interval "), "{strategy}: {stdout}");
        assert_eq!(
            stdout.contains("local:IO ratio"),
            has_ratio,
            "{strategy}: {stdout}"
        );
    }
}
