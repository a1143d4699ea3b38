//! Trace analytics end-to-end: causal spans emitted by a real fleet
//! run, the `indicators/v1` fold, the Chrome trace exporter, and the
//! `crx obs diff` regression gate (exercised both through the library
//! and through the real binary's exit codes).

use std::collections::BTreeMap;
use std::process::Command;

use ndp_checkpoint::cr_obs::analyze::{
    analyze, diff_flat, flatten_numbers, merge_percentiles, IndicatorReport,
};
use ndp_checkpoint::cr_obs::export::{
    chrome_trace_merged, validate_chrome_trace,
};
use ndp_checkpoint::cr_obs::json::parse as parse_json;
use ndp_checkpoint::cr_obs::{Event, EventKind};
use ndp_checkpoint::cr_sim::{run_fleet_observed, SimOptions};
use ndp_checkpoint::prelude::*;

fn fleet(seed: u64, replicas: u64) -> Vec<(ndp_checkpoint::cr_sim::SimResult, Vec<Event>)> {
    let sys = SystemParams::exascale_default();
    let strat = Strategy::local_io_ndp(0.85, None);
    let opts = SimOptions::quick(seed);
    run_fleet_observed(&sys, &strat, &opts, replicas)
}

fn fleet_report(seed: u64, replicas: u64) -> IndicatorReport {
    let fleet = fleet(seed, replicas);
    let per_node: Vec<IndicatorReport> = fleet
        .iter()
        .enumerate()
        .map(|(i, (_, events))| analyze(&format!("node{i}"), events))
        .collect();
    merge_percentiles("fleet", &per_node)
}

/// Same seed, same fleet size — the indicator report must be
/// byte-identical across runs (the determinism the diff gate relies
/// on).
#[test]
fn indicator_report_is_byte_deterministic() {
    let a = fleet_report(20260807, 3).to_json();
    let b = fleet_report(20260807, 3).to_json();
    assert_eq!(a, b, "same seed must give a byte-identical report");
    let c = fleet_report(20260808, 3).to_json();
    assert_ne!(a, c, "different seed should move the indicators");
}

/// to_json -> from_json is lossless for every indicator value.
#[test]
fn indicator_report_round_trips_through_json() {
    let report = fleet_report(7, 2);
    let back = IndicatorReport::from_json(&report.to_json())
        .expect("well-formed report must re-parse");
    assert_eq!(report.label, back.label);
    assert_eq!(report.values(), back.values());
}

/// A real fleet run emits the causal span graph: every replica gets a
/// root `replica` span, and any recovery spans are parented inside it.
#[test]
fn fleet_runs_emit_nested_causal_spans() {
    let fleet = fleet(20260807, 2);
    for (i, (result, events)) in fleet.iter().enumerate() {
        let mut roots = Vec::new();
        let mut parents: BTreeMap<u64, u64> = BTreeMap::new();
        let mut opens = 0u64;
        let mut closes = 0u64;
        for e in events {
            match e.kind {
                EventKind::SpanOpen { id, parent, name } => {
                    opens += 1;
                    parents.insert(id, parent);
                    if name == "replica" {
                        roots.push((id, parent));
                    }
                    if name == "recovery" {
                        assert_ne!(
                            parent, 0,
                            "node {i}: recovery span must have a parent"
                        );
                    }
                }
                EventKind::SpanClose { .. } => closes += 1,
                _ => {}
            }
        }
        assert_eq!(
            roots.len(),
            1,
            "node {i}: exactly one replica root span"
        );
        assert_eq!(roots[0].1, 0, "node {i}: replica span is a root");
        assert_eq!(
            opens, closes,
            "node {i}: every span opened must be closed"
        );
        // Every non-root parent must itself be a known span.
        for (&id, &parent) in &parents {
            assert!(
                parent == 0 || parents.contains_key(&parent),
                "node {i}: span {id} has unknown parent {parent}"
            );
        }
        assert!(result.breakdown.total() > 0.0);
    }
}

/// The merged Chrome trace from a real fleet run passes the structural
/// validator: valid JSON, monotone timestamps per track, balanced
/// B/E and async b/e pairs.
#[test]
fn merged_chrome_trace_is_valid() {
    let fleet = fleet(20260807, 3);
    let streams: Vec<&[Event]> =
        fleet.iter().map(|(_, e)| e.as_slice()).collect();
    let trace = chrome_trace_merged(&streams);
    validate_chrome_trace(&trace).expect("exporter output must validate");
    // Spot-check shape: one process per node, causal span events
    // present.
    assert!(trace.contains("\"pid\":2"), "three nodes => pid 2 exists");
    assert!(trace.contains("\"cat\":\"causal\""));
}

/// The diff gate catches a synthetic ~10% utilization regression while
/// accepting an identical rerun (library-level).
#[test]
fn diff_gate_flags_synthetic_regression() {
    let base = fleet_report(20260807, 2);
    let same = fleet_report(20260807, 2);

    let flat = |r: &IndicatorReport| {
        let doc = parse_json(&r.to_json()).expect("report parses");
        flatten_numbers(&doc)
    };
    let tols = BTreeMap::new();

    let identical = diff_flat(&flat(&base), &flat(&same), 0.05, &tols);
    assert!(identical.ok(), "identical reports must pass the gate");

    // Degrade one indicator by 10% past a 5% tolerance.
    let mut current = base.clone();
    let key = "ndp_utilization_mean";
    let v = current.get(key).expect("fleet report has utilization");
    current.set(key, v * 0.9);
    let report = diff_flat(&flat(&base), &flat(&current), 0.05, &tols);
    assert!(!report.ok(), "10% drop must fail a 5% gate");
    assert!(report
        .regressions
        .iter()
        .any(|r| r.key == format!("indicators.{key}")));
}

/// The real `crx` binary: `obs diff` exits 0 on a self-diff and
/// nonzero on a different-seed report, and `report` is
/// byte-deterministic on disk.
#[test]
fn crx_obs_diff_exit_codes() {
    let crx = env!("CARGO_BIN_EXE_crx");
    let dir = std::env::temp_dir().join(format!(
        "trace_analytics_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = dir.join("base.json");
    let again = dir.join("again.json");
    let other = dir.join("other.json");

    let gen = |seed: &str, out: &std::path::Path| {
        let st = Command::new(crx)
            .args([
                "report", "--seed", seed, "--replicas", "2", "--failures",
                "120", "--out",
            ])
            .arg(out)
            .status()
            .expect("run crx report");
        assert!(st.success(), "crx report must succeed");
    };
    gen("42", &base);
    gen("42", &again);
    gen("43", &other);

    let base_bytes = std::fs::read(&base).unwrap();
    assert_eq!(
        base_bytes,
        std::fs::read(&again).unwrap(),
        "crx report must be byte-deterministic for a pinned seed"
    );

    let diff = |a: &std::path::Path, b: &std::path::Path| {
        Command::new(crx)
            .args(["obs", "diff"])
            .arg(a)
            .arg(b)
            .args(["--tol", "0.05"])
            .output()
            .expect("run crx obs diff")
    };
    let ok = diff(&base, &again);
    assert!(
        ok.status.success(),
        "self-diff must pass: {}",
        String::from_utf8_lossy(&ok.stdout)
    );
    let bad = diff(&base, &other);
    assert!(
        !bad.status.success(),
        "different-seed diff must exit nonzero"
    );
    assert!(String::from_utf8_lossy(&bad.stdout).contains("REGRESSED"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// `crx trace --sink json` records into the same bus as `--sink vec`:
/// both write byte-equal `--metrics-out` snapshots, and the json run's
/// stdout is two header lines followed by one JSON document per event.
#[test]
fn crx_trace_json_sink_snapshots_match_vec() {
    let crx = env!("CARGO_BIN_EXE_crx");
    let dir = std::env::temp_dir().join(format!(
        "trace_json_sink_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let trace = |sink: &str| {
        let metrics = dir.join(format!("metrics_{sink}.json"));
        let out = Command::new(crx)
            .args([
                "trace", "--seed", "42", "--failures", "50", "--sink", sink,
                "--metrics-out",
            ])
            .arg(&metrics)
            .output()
            .expect("run crx trace");
        assert!(out.status.success(), "crx trace --sink {sink} must succeed");
        let snapshot = std::fs::read_to_string(&metrics).unwrap();
        (String::from_utf8(out.stdout).unwrap(), snapshot)
    };
    let (_, vec_snapshot) = trace("vec");
    let (json_stdout, json_snapshot) = trace("json");
    assert_eq!(json_snapshot, vec_snapshot, "json and vec sinks disagree");

    let report = IndicatorReport::from_json(&json_snapshot)
        .expect("metrics snapshot parses as indicators/v1");
    let total = report.get("events_total").expect("events_total count");
    assert!(total > 0.0, "the json sink must count its events");

    let lines: Vec<&str> = json_stdout.lines().collect();
    assert!(lines[0].starts_with("strategy: "), "{}", lines[0]);
    assert!(lines[1].ends_with(&format!("events {total}")), "{}", lines[1]);
    assert_eq!(lines.len() - 2, total as usize, "one line per event");
    for line in &lines[2..] {
        parse_json(line)
            .unwrap_or_else(|e| panic!("invalid event line {line}: {e}"));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--sink off` records nothing, so a `--metrics-out` snapshot from it
/// would report zero events as if that were data: the flag combination
/// is an error, and no file is written.
#[test]
fn crx_trace_rejects_metrics_out_without_a_sink() {
    let crx = env!("CARGO_BIN_EXE_crx");
    let dir = std::env::temp_dir().join(format!(
        "trace_sink_off_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics_off.json");
    let out = Command::new(crx)
        .args([
            "trace", "--seed", "42", "--failures", "5", "--sink", "off",
            "--metrics-out",
        ])
        .arg(&metrics)
        .output()
        .expect("run crx trace");
    assert!(!out.status.success(), "--sink off --metrics-out must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--metrics-out"),
        "the error names the flag: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!metrics.exists(), "no snapshot may be written");

    let _ = std::fs::remove_dir_all(&dir);
}
