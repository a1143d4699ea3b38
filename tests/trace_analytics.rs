//! Trace analytics end-to-end: causal spans emitted by a real fleet
//! run, the `indicators/v1` fold, the Chrome trace exporter, and the
//! `crx obs diff` regression gate (exercised both through the library
//! and through the real binary's exit codes).

use std::collections::BTreeMap;
use std::process::Command;

use ndp_checkpoint::cr_core::analytic::solve_cycle;
use ndp_checkpoint::cr_obs::analyze::{
    diff_flat, flatten_numbers, IndicatorReport,
};
use ndp_checkpoint::cr_obs::export::{
    chrome_trace_merged, validate_chrome_trace,
};
use ndp_checkpoint::cr_obs::json::parse as parse_json;
use ndp_checkpoint::cr_obs::{Event, EventKind};
use ndp_checkpoint::cr_sim::{self, run_fleet_observed, SimOptions};
use ndp_checkpoint::prelude::*;

fn config() -> (SystemParams, Strategy) {
    (SystemParams::exascale_default(), Strategy::local_io_ndp(0.85, None))
}

fn fleet(seed: u64, replicas: u64) -> Vec<(cr_sim::SimResult, Vec<Event>)> {
    let (sys, strat) = config();
    run_fleet_observed(&sys, &strat, &SimOptions::quick(seed), replicas)
}

fn fleet_report(seed: u64, replicas: u64) -> IndicatorReport {
    let (sys, strat) = config();
    let sol = solve_cycle(&sys, &strat).expect("admitted configuration");
    cr_sim::fleet_report("fleet", &sol, &fleet(seed, replicas))
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
/// both headers count the same events, and the json run's stdout is two
/// header lines followed by one JSON document per event.
#[test]
fn crx_trace_json_sink_snapshots_match_vec() {
    let trace = |sink: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_crx"))
            .args(["trace", "--seed", "42", "--failures", "50", "--sink", sink])
            .output()
            .expect("run crx trace");
        assert!(out.status.success(), "crx trace --sink {sink} must succeed");
        String::from_utf8(out.stdout).unwrap()
    };
    // The event count that ends the second header line.
    let events = |stdout: &str| -> usize {
        let header = stdout.lines().nth(1).expect("two header lines");
        let n = header.rsplit("events ").next().unwrap();
        n.parse().unwrap_or_else(|_| panic!("no event count: {header}"))
    };
    let vec_stdout = trace("vec");
    let json_stdout = trace("json");
    let total = events(&json_stdout);
    assert_eq!(total, events(&vec_stdout), "json and vec sinks disagree");
    assert!(total > 0, "the json sink must count its events");

    let lines: Vec<&str> = json_stdout.lines().collect();
    assert!(lines[0].starts_with("strategy: "), "{}", lines[0]);
    assert_eq!(lines.len() - 2, total, "one line per event");
    for line in &lines[2..] {
        parse_json(line)
            .unwrap_or_else(|e| panic!("invalid event line {line}: {e}"));
    }
}

/// A pinned-seed `crx report` snapshot holds every time bucket as an
/// analytic fraction next to the simulated mean and SEM: no key is
/// missing or `null`, each side's fractions sum to 1, and the analytic
/// compute fraction is the predicted progress rate.
#[test]
fn crx_report_pins_every_bucket_analytic_against_simulated() {
    const BUCKETS: [&str; 7] = [
        "compute",
        "checkpoint_local",
        "checkpoint_io",
        "restore_local",
        "restore_io",
        "rerun_local",
        "rerun_io",
    ];
    let dir = std::env::temp_dir()
        .join(format!("trace_report_buckets_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("report.json");
    let st = Command::new(env!("CARGO_BIN_EXE_crx"))
        .args(["report", "--seed", "42", "--replicas", "3", "--failures"])
        .args(["100", "--out"])
        .arg(&path)
        .output()
        .expect("run crx report");
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let doc = parse_json(&text).expect("snapshot parses");
    let indicators = doc.get("indicators").expect("indicators object");
    let num = |key: &str| -> f64 {
        indicators
            .get(key)
            .unwrap_or_else(|| panic!("{key} missing"))
            .as_f64()
            .unwrap_or_else(|| panic!("{key} is not a number"))
    };
    let (mut analytic, mut simulated) = (0.0, 0.0);
    for b in BUCKETS {
        analytic += num(&format!("bucket_{b}_analytic"));
        simulated += num(&format!("bucket_{b}_sim_mean"));
        let sem = num(&format!("bucket_{b}_sim_sem"));
        assert!(sem.is_finite() && sem >= 0.0, "bucket {b}: SEM {sem}");
    }
    assert!((analytic - 1.0).abs() < 1e-12, "analytic sum {analytic}");
    assert!((simulated - 1.0).abs() < 1e-12, "simulated sum {simulated}");
    let predicted = num("model_progress_predicted");
    let compute = num("bucket_compute_analytic");
    assert!((compute - predicted).abs() < 1e-15, "{compute} vs {predicted}");
    assert!(num("events_total") > 0.0);
    assert_eq!(num("nodes"), 3.0);
}
