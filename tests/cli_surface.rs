//! The command-line surface the README documents, held against the real
//! `crx` binary and the `examples/` directory. None of these tests runs
//! a simulation: they read `--help`, or feed `crx` flags it must reject
//! before any model code runs.

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
    let cases: &[(&[&str], &str)] = &[
        (&["evaluate", "--interval", "0"], "--interval"),
        (&["evaluate", "--p-local", "1.5"], "--p-local"),
        (&["evaluate", "--mtti", "0"], "--mtti"),
        (&["evaluate", "--mtti", "0.01"], "--mtti"),
        (&["evaluate", "--failures", "0"], "--failures"),
        (&["report", "--failures", "0"], "--failures"),
        (&["evaluate", "--replicas", "0"], "--replicas"),
        (&["evaluate", "--compress", "nan"], "--compress"),
        (&["trace", "--size", "-5"], "--size"),
        (&["report", "--replicas", "0"], "--replicas"),
        (&[&self_diff[..], &["--tol", "nan"]].concat(), "--tol"),
        (&[&self_diff[..], &["--tol-key", "k=nan"]].concat(), "--tol-key"),
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
