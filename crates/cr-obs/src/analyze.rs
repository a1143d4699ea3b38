//! Derived indicators: folds an event stream into the quantities the
//! paper argues about — NDP utilization, compress↔DMA overlap with host
//! compute, stall time attributable to NIC backpressure vs lock
//! contention, and per-level recovery-time breakdown — plus the
//! machinery behind the `crx obs diff` regression gate.
//!
//! Everything here is a pure fold over an event slice: same stream in,
//! same `indicators/v1` bytes out, so reports are directly comparable
//! across runs, machines, and CI.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::{Event, EventKind, Source};

/// A flat, sorted map of named indicator values with an
/// `indicators/v1` JSON rendering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndicatorReport {
    /// Free-form label identifying the run (seed, config, node).
    pub label: String,
    values: BTreeMap<String, f64>,
}

impl IndicatorReport {
    /// New empty report.
    pub fn new(label: &str) -> Self {
        IndicatorReport {
            label: label.to_string(),
            values: BTreeMap::new(),
        }
    }

    /// Sets indicator `key` (last write wins).
    pub fn set(&mut self, key: &str, v: f64) {
        self.values.insert(key.to_string(), v);
    }

    /// Adds `by` to indicator `key` (created at zero on first use).
    pub fn add(&mut self, key: &str, by: f64) {
        *self.values.entry(key.to_string()).or_insert(0.0) += by;
    }

    /// Indicator value, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// All values, sorted by key.
    pub fn values(&self) -> &BTreeMap<String, f64> {
        &self.values
    }

    /// Renders the report as an `indicators/v1` JSON document:
    ///
    /// ```json
    /// {
    ///   "schema": "indicators/v1",
    ///   "label": "...",
    ///   "indicators": { "name": 1.5, ... }
    /// }
    /// ```
    ///
    /// Keys are sorted and floats use Rust's shortest-roundtrip
    /// formatting (`null` for non-finite), so the same report always
    /// renders the same bytes.
    pub fn to_json(&self) -> String {
        let indicators = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v)))
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::str("indicators/v1")),
            ("label".into(), Value::str(self.label.clone())),
            ("indicators".into(), Value::Obj(indicators)),
        ])
        .render()
    }

    /// Parses an `indicators/v1` document (non-finite values render as
    /// `null` and are skipped on the way back in).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        match doc.get("schema").and_then(Value::as_str) {
            Some("indicators/v1") => {}
            other => return Err(format!("not indicators/v1: {other:?}")),
        }
        let label = doc
            .get("label")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let mut report = IndicatorReport::new(&label);
        let members = doc
            .get("indicators")
            .and_then(Value::as_obj)
            .ok_or("missing indicators object")?;
        for (k, v) in members {
            if let Some(n) = v.as_f64() {
                report.set(k, n);
            }
        }
        Ok(report)
    }
}

/// Merges per-node reports into one deterministic summary: for every
/// key present in any input, the merged report carries
/// `<key>_p10` / `<key>_p50` / `<key>_p90` (nearest-rank percentiles
/// over the nodes that have the key) and `<key>_mean`, plus a `nodes`
/// count. Input order does not matter — values are sorted before
/// ranking.
pub fn merge_percentiles(
    label: &str,
    reports: &[IndicatorReport],
) -> IndicatorReport {
    let mut merged = IndicatorReport::new(label);
    merged.set("nodes", reports.len() as f64);
    let mut keys: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in reports {
        for (k, v) in r.values() {
            keys.entry(k.as_str()).or_default().push(*v);
        }
    }
    for (k, mut vs) in keys {
        vs.sort_by(f64::total_cmp);
        let n = vs.len();
        let pick = |q: f64| vs[(((n - 1) as f64) * q).round() as usize];
        merged.set(&format!("{k}_p10"), pick(0.10));
        merged.set(&format!("{k}_p50"), pick(0.50));
        merged.set(&format!("{k}_p90"), pick(0.90));
        merged.set(
            &format!("{k}_mean"),
            vs.iter().sum::<f64>() / n as f64,
        );
    }
    merged
}

/// Folds an event stream into an [`IndicatorReport`].
///
/// Indicator groups are gated on the sources present in the stream, and
/// every key of a present group is emitted (zeros included) so a
/// pinned-seed report has a stable key set:
///
/// * **Simulator** (any [`Source::Sim`] event): wall time, per-kind
///   span time, `ndp_utilization` (drain time / wall), the compress↔DMA
///   `overlap_fraction` (drain activity overlapping host compute —
///   that overlap is exactly what the NDP offload buys), failure and
///   per-level recovery counts, and the per-level recovery-time
///   breakdown.
/// * **Node plane** (any `Ndp`/`Nvm`/`Remote`/`Faults` event): drain
///   job/byte/spill/retry counters, stall steps split by cause (NIC
///   backpressure vs spill exhaustion) with `lock_contention` counted
///   separately, pause windows, eviction and fault counts.
/// * **Causal spans** (any `SpanOpen`): open/close/unclosed counts and
///   the maximum graph depth.
pub fn analyze(label: &str, events: &[Event]) -> IndicatorReport {
    let mut report = IndicatorReport::new(label);
    let has_sim = events.iter().any(|e| e.source == Source::Sim);
    let has_node = events.iter().any(|e| {
        matches!(
            e.source,
            Source::Ndp | Source::Nvm | Source::Remote | Source::Faults
        )
    });
    let has_spans = events
        .iter()
        .any(|e| matches!(e.kind, EventKind::SpanOpen { .. }));
    if has_sim {
        analyze_sim(&mut report, events);
    }
    if has_node {
        analyze_node(&mut report, events);
    }
    if has_spans {
        analyze_spans(&mut report, events);
    }
    report
}

fn analyze_sim(report: &mut IndicatorReport, events: &[Event]) {
    let mut wall = 0f64;
    let mut compute = 0f64;
    let mut ckpt_local = 0f64;
    let mut ckpt_io = 0f64;
    let mut restore_local = 0f64;
    let mut restore_io = 0f64;
    let mut drain = 0f64;
    let mut interrupted = 0u64;
    let mut failures = [0u64; 2];
    let mut recoveries = [0u64; 2];
    let mut compute_iv: Vec<(f64, f64)> = Vec::new();
    let mut drain_iv: Vec<(f64, f64)> = Vec::new();
    for e in events {
        if e.source != Source::Sim {
            continue;
        }
        wall = wall.max(e.t);
        match e.kind {
            EventKind::Span {
                lane,
                span,
                t0,
                t1,
                interrupted: intr,
            } => {
                wall = wall.max(t1);
                let dt = t1 - t0;
                if intr {
                    interrupted += 1;
                }
                match (lane, span) {
                    ("host", "compute") => {
                        compute += dt;
                        compute_iv.push((t0, t1));
                    }
                    ("host", "ckpt_local") => ckpt_local += dt,
                    ("host", "ckpt_io") => ckpt_io += dt,
                    ("host", "restore_local") => restore_local += dt,
                    ("host", "restore_io") => restore_io += dt,
                    ("ndp", "drain") => {
                        drain += dt;
                        drain_iv.push((t0, t1));
                    }
                    _ => {}
                }
            }
            EventKind::Failure { level } => {
                failures[(level.clamp(1, 2) - 1) as usize] += 1;
            }
            EventKind::Recovery { level } => {
                recoveries[(level.clamp(1, 2) - 1) as usize] += 1;
            }
            _ => {}
        }
    }
    let overlap = interval_overlap(&mut compute_iv, &mut drain_iv);
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    report.set("wall_time_s", wall);
    report.set("host_compute_s", compute);
    report.set("ckpt_local_s", ckpt_local);
    report.set("ckpt_io_s", ckpt_io);
    report.set("restore_local_s", restore_local);
    report.set("restore_io_s", restore_io);
    report.set("ndp_drain_s", drain);
    report.set("ndp_utilization", frac(drain, wall));
    report.set("overlap_s", overlap);
    report.set("overlap_fraction", frac(overlap, drain));
    report.set("spans_interrupted", interrupted as f64);
    report.set("failures", (failures[0] + failures[1]) as f64);
    report.set("failures_l2", failures[1] as f64);
    report.set("recoveries_l1", recoveries[0] as f64);
    report.set("recoveries_l2", recoveries[1] as f64);
    // Per-level recovery-time breakdown: restore time at each level,
    // total and mean per completed recovery.
    report.set("recovery_time_l1_s", restore_local);
    report.set("recovery_time_l2_s", restore_io);
    report.set(
        "recovery_mean_l1_s",
        frac(restore_local, recoveries[0] as f64),
    );
    report.set(
        "recovery_mean_l2_s",
        frac(restore_io, recoveries[1] as f64),
    );
}

/// Total overlap between two interval sets (sorted in place; a
/// two-pointer sweep after sorting, so emission order does not matter).
fn interval_overlap(a: &mut [(f64, f64)], b: &mut [(f64, f64)]) -> f64 {
    a.sort_by(|x, y| x.0.total_cmp(&y.0));
    b.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (mut i, mut j, mut total) = (0usize, 0usize, 0f64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

fn analyze_node(report: &mut IndicatorReport, events: &[Event]) {
    let mut steps = 0f64;
    let mut started = 0u64;
    let mut completed = 0u64;
    let mut bytes_in = 0u64;
    let mut bytes_out = 0u64;
    let mut spills = 0u64;
    let mut spill_bytes = 0u64;
    let mut retries = 0u64;
    let mut degrades = 0u64;
    let mut cancels = 0u64;
    let mut stalls_nic = 0u64;
    let mut stalls_spill = 0u64;
    let mut pauses = 0u64;
    let mut pause_steps = 0f64;
    let mut pause_open: Option<f64> = None;
    let mut lock_contention = 0u64;
    let mut evictions = 0u64;
    let mut eviction_bytes = 0u64;
    let mut sealed = 0u64;
    let mut aborted = 0u64;
    let mut faults = 0u64;
    for e in events {
        if e.source == Source::Ndp {
            steps = steps.max(e.t);
        }
        match e.kind {
            EventKind::DrainStart { bytes, .. } => {
                started += 1;
                bytes_in += bytes;
            }
            EventKind::DrainComplete { bytes_out: b, .. } => {
                completed += 1;
                bytes_out += b;
            }
            EventKind::DrainSpill { bytes } => {
                spills += 1;
                spill_bytes += bytes;
            }
            EventKind::DrainRetry { .. } => retries += 1,
            EventKind::DrainDegrade { .. } => degrades += 1,
            EventKind::DrainCancel { .. } => cancels += 1,
            EventKind::DrainStall { cause } => match cause {
                "spill_full" => stalls_spill += 1,
                _ => stalls_nic += 1,
            },
            EventKind::DrainPause => {
                pauses += 1;
                pause_open.get_or_insert(e.t);
            }
            EventKind::DrainResume => {
                if let Some(t0) = pause_open.take() {
                    pause_steps += (e.t - t0).max(0.0);
                }
            }
            EventKind::LockContention => lock_contention += 1,
            EventKind::Eviction { bytes } => {
                evictions += 1;
                eviction_bytes += bytes;
            }
            EventKind::ObjectSeal { .. } => sealed += 1,
            EventKind::ObjectAbort { .. } => aborted += 1,
            EventKind::Fault { .. } => faults += 1,
            _ => {}
        }
    }
    if let Some(t0) = pause_open {
        // Unclosed pause: charge it up to the step horizon.
        pause_steps += (steps - t0).max(0.0);
    }
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    report.set("ndp_steps", steps);
    report.set("drain_jobs_started", started as f64);
    report.set("drain_jobs_completed", completed as f64);
    report.set("drain_bytes_in", bytes_in as f64);
    report.set("drain_bytes_out", bytes_out as f64);
    report.set("drain_spills", spills as f64);
    report.set("drain_spill_bytes", spill_bytes as f64);
    report.set("drain_retries", retries as f64);
    report.set("drain_degrades", degrades as f64);
    report.set("drain_cancels", cancels as f64);
    // Stall attribution: NIC backpressure vs spill-region exhaustion,
    // with NVM allocation lock contention counted on its own axis.
    report.set("drain_stalls_nic", stalls_nic as f64);
    report.set("drain_stalls_spill", stalls_spill as f64);
    report.set("drain_stall_nic_fraction", frac(stalls_nic as f64, steps));
    report.set("drain_pauses", pauses as f64);
    report.set("drain_pause_steps", pause_steps);
    report.set("lock_contention", lock_contention as f64);
    report.set("evictions", evictions as f64);
    report.set("eviction_bytes", eviction_bytes as f64);
    report.set("objects_sealed", sealed as f64);
    report.set("objects_aborted", aborted as f64);
    report.set("faults_injected", faults as f64);
}

fn analyze_spans(report: &mut IndicatorReport, events: &[Event]) {
    let mut opened = 0u64;
    let mut closed = 0u64;
    let mut depth: BTreeMap<u64, u64> = BTreeMap::new();
    let mut max_depth = 0u64;
    for e in events {
        match e.kind {
            EventKind::SpanOpen { id, parent, .. } => {
                opened += 1;
                let d = depth.get(&parent).copied().unwrap_or(0) + 1;
                depth.insert(id, d);
                max_depth = max_depth.max(d);
            }
            EventKind::SpanClose { .. } => closed += 1,
            _ => {}
        }
    }
    report.set("spans_opened", opened as f64);
    report.set("spans_closed", closed as f64);
    report.set("spans_unclosed", opened.saturating_sub(closed) as f64);
    report.set("span_max_depth", max_depth as f64);
}

// ---------------------------------------------------------------------
// Regression diffing (the `crx obs diff` gate)
// ---------------------------------------------------------------------

/// Flattens every numeric leaf of a parsed JSON document into
/// dotted-key → value form (`histograms.lat.buckets[0].le`), booleans
/// as 0/1. Strings and nulls carry no numeric information and are
/// skipped — which also drops `schema`/`label` headers.
pub fn flatten_numbers(doc: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    flatten_into(doc, String::new(), &mut out);
    out
}

fn flatten_into(v: &Value, prefix: String, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Num(n) => {
            out.insert(prefix, *n);
        }
        Value::Bool(b) => {
            out.insert(prefix, if *b { 1.0 } else { 0.0 });
        }
        Value::Obj(members) => {
            for (k, child) in members {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_into(child, key, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten_into(child, format!("{prefix}[{i}]"), out);
            }
        }
        Value::Null | Value::Str(_) => {}
    }
}

/// One key that moved beyond tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Flattened key.
    pub key: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub current: f64,
    /// Relative deviation `|current − base| / max(|base|, ε)`.
    pub rel: f64,
}

/// Outcome of comparing two flattened snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Keys beyond tolerance, in key order.
    pub regressions: Vec<DiffEntry>,
    /// Baseline keys absent from the current snapshot (always a
    /// failure: a vanished metric is a silent regression).
    pub missing: Vec<String>,
    /// Current keys absent from the baseline (informational).
    pub added: Vec<String>,
    /// Keys compared.
    pub compared: usize,
}

impl DiffReport {
    /// True when the current snapshot passes the gate.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares `current` against `base` key by key. A key regresses when
/// its relative deviation exceeds its tolerance — `per_key` overrides
/// (longest exact match wins: an entry keyed `"indicators.ndp_utilization"`
/// applies to that key only), else `default_tol`.
pub fn diff_flat(
    base: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    default_tol: f64,
    per_key: &BTreeMap<String, f64>,
) -> DiffReport {
    let mut report = DiffReport::default();
    for (k, &b) in base {
        let Some(&c) = current.get(k) else {
            report.missing.push(k.clone());
            continue;
        };
        report.compared += 1;
        let tol = per_key.get(k).copied().unwrap_or(default_tol);
        let rel = (c - b).abs() / b.abs().max(1e-9);
        if rel > tol {
            report.regressions.push(DiffEntry {
                key: k.clone(),
                base: b,
                current: c,
                rel,
            });
        }
    }
    for k in current.keys() {
        if !base.contains_key(k) {
            report.added.push(k.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Source;

    fn sim_span(
        lane: &'static str,
        span: &'static str,
        t0: f64,
        t1: f64,
    ) -> Event {
        Event {
            t: t0,
            source: Source::Sim,
            kind: EventKind::Span {
                lane,
                span,
                t0,
                t1,
                interrupted: false,
            },
        }
    }

    #[test]
    fn sim_indicators_fold_utilization_and_overlap() {
        let events = vec![
            sim_span("host", "compute", 0.0, 100.0),
            sim_span("ndp", "drain", 50.0, 150.0),
            sim_span("host", "restore_local", 150.0, 160.0),
            Event {
                t: 150.0,
                source: Source::Sim,
                kind: EventKind::Failure { level: 1 },
            },
            Event {
                t: 160.0,
                source: Source::Sim,
                kind: EventKind::Recovery { level: 1 },
            },
        ];
        let r = analyze("t", &events);
        assert_eq!(r.get("wall_time_s"), Some(160.0));
        assert_eq!(r.get("ndp_drain_s"), Some(100.0));
        assert_eq!(r.get("ndp_utilization"), Some(100.0 / 160.0));
        // Drain [50,150] ∩ compute [0,100] = [50,100] → 50 s, half the
        // drain time.
        assert_eq!(r.get("overlap_s"), Some(50.0));
        assert_eq!(r.get("overlap_fraction"), Some(0.5));
        assert_eq!(r.get("recoveries_l1"), Some(1.0));
        assert_eq!(r.get("recovery_mean_l1_s"), Some(10.0));
        // No node events → no node keys.
        assert_eq!(r.get("drain_jobs_started"), None);
    }

    #[test]
    fn node_indicators_split_stall_causes() {
        let ev = |t: f64, kind: EventKind| Event {
            t,
            source: Source::Ndp,
            kind,
        };
        let events = vec![
            ev(1.0, EventKind::DrainStart { job: 1, bytes: 100 }),
            ev(
                2.0,
                EventKind::DrainStall {
                    cause: "nic_backpressure",
                },
            ),
            ev(
                3.0,
                EventKind::DrainStall {
                    cause: "spill_full",
                },
            ),
            ev(4.0, EventKind::DrainPause),
            ev(6.0, EventKind::DrainResume),
            ev(
                8.0,
                EventKind::DrainComplete {
                    job: 1,
                    bytes_out: 60,
                },
            ),
            Event {
                t: 0.0,
                source: Source::Nvm,
                kind: EventKind::LockContention,
            },
        ];
        let r = analyze("n", &events);
        assert_eq!(r.get("ndp_steps"), Some(8.0));
        assert_eq!(r.get("drain_stalls_nic"), Some(1.0));
        assert_eq!(r.get("drain_stalls_spill"), Some(1.0));
        assert_eq!(r.get("drain_stall_nic_fraction"), Some(1.0 / 8.0));
        assert_eq!(r.get("drain_pause_steps"), Some(2.0));
        assert_eq!(r.get("lock_contention"), Some(1.0));
        assert_eq!(r.get("drain_bytes_in"), Some(100.0));
        assert_eq!(r.get("drain_bytes_out"), Some(60.0));
    }

    #[test]
    fn span_indicators_track_depth_and_leaks() {
        let ev = |kind: EventKind| Event {
            t: 0.0,
            source: Source::Sim,
            kind,
        };
        let events = vec![
            ev(EventKind::SpanOpen {
                id: 1,
                parent: 0,
                name: "a",
            }),
            ev(EventKind::SpanOpen {
                id: 2,
                parent: 1,
                name: "b",
            }),
            ev(EventKind::SpanOpen {
                id: 3,
                parent: 2,
                name: "c",
            }),
            ev(EventKind::SpanClose { id: 3 }),
            ev(EventKind::SpanClose { id: 2 }),
        ];
        let r = analyze("s", &events);
        assert_eq!(r.get("spans_opened"), Some(3.0));
        assert_eq!(r.get("spans_closed"), Some(2.0));
        assert_eq!(r.get("spans_unclosed"), Some(1.0));
        assert_eq!(r.get("span_max_depth"), Some(3.0));
    }

    #[test]
    fn report_json_round_trips() {
        let mut r = IndicatorReport::new("node\"0");
        r.set("ndp_utilization", 0.75);
        r.set("weird", f64::NAN);
        r.set("drain_stalls_nic", 12.0);
        let text = r.to_json();
        assert_eq!(text, r.to_json(), "rendering is deterministic");
        let back = IndicatorReport::from_json(&text).unwrap();
        assert_eq!(back.label, "node\"0");
        assert_eq!(back.get("ndp_utilization"), Some(0.75));
        assert_eq!(back.get("drain_stalls_nic"), Some(12.0));
        // NaN rendered as null, skipped on re-read.
        assert_eq!(back.get("weird"), None);
    }

    #[test]
    fn add_counts_from_zero_and_renders_integers() {
        let mut r = IndicatorReport::new("counts");
        r.add("events_span", 1.0);
        r.add("events_span", 2.0);
        r.add("events_mark", 5.0);
        assert_eq!(r.get("events_span"), Some(3.0));
        assert!(r.to_json().contains("\"events_mark\": 5,"));
    }

    #[test]
    fn merge_percentiles_is_order_independent() {
        let mk = |u: f64| {
            let mut r = IndicatorReport::new("n");
            r.set("ndp_utilization", u);
            r
        };
        let nodes = vec![mk(0.5), mk(0.9), mk(0.7)];
        let rev: Vec<_> = nodes.iter().rev().cloned().collect();
        let a = merge_percentiles("m", &nodes);
        let b = merge_percentiles("m", &rev);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.get("nodes"), Some(3.0));
        assert_eq!(a.get("ndp_utilization_p50"), Some(0.7));
        assert_eq!(a.get("ndp_utilization_p10"), Some(0.5));
        assert_eq!(a.get("ndp_utilization_p90"), Some(0.9));
        let mean = a.get("ndp_utilization_mean").unwrap();
        assert!((mean - 0.7).abs() < 1e-12);
    }

    #[test]
    fn diff_catches_a_ten_percent_utilization_regression() {
        let mut base = IndicatorReport::new("base");
        base.set("ndp_utilization", 0.80);
        base.set("wall_time_s", 1000.0);
        let mut cur = IndicatorReport::new("cur");
        cur.set("ndp_utilization", 0.72); // −10%
        cur.set("wall_time_s", 1000.0);
        let b = flatten_numbers(&json::parse(&base.to_json()).unwrap());
        let c = flatten_numbers(&json::parse(&cur.to_json()).unwrap());
        let d = diff_flat(&b, &c, 0.05, &BTreeMap::new());
        assert!(!d.ok());
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].key, "indicators.ndp_utilization");
        assert!((d.regressions[0].rel - 0.10).abs() < 1e-9);
        // Identical snapshots pass.
        let d2 = diff_flat(&b, &b.clone(), 0.05, &BTreeMap::new());
        assert!(d2.ok());
        assert_eq!(d2.compared, 2);
    }

    #[test]
    fn diff_flags_missing_keys_and_honors_overrides() {
        let mut base = BTreeMap::new();
        base.insert("a".to_string(), 1.0);
        base.insert("b".to_string(), 10.0);
        let mut cur = BTreeMap::new();
        cur.insert("b".to_string(), 13.0); // +30%
        cur.insert("c".to_string(), 5.0);
        let d = diff_flat(&base, &cur, 0.05, &BTreeMap::new());
        assert_eq!(d.missing, vec!["a"]);
        assert_eq!(d.added, vec!["c"]);
        assert_eq!(d.regressions.len(), 1);
        // Per-key tolerance loosens the gate for a noisy key.
        let mut tol = BTreeMap::new();
        tol.insert("b".to_string(), 0.5);
        let d2 = diff_flat(&base, &cur, 0.05, &tol);
        assert!(d2.regressions.is_empty());
        assert!(!d2.ok(), "missing key still fails");
    }

    #[test]
    fn flatten_handles_nested_docs() {
        let doc = json::parse(
            "{\"schema\":\"x\",\"a\":{\"b\":[{\"c\":1},{\"c\":2}]},\"d\":true}",
        )
        .unwrap();
        let flat = flatten_numbers(&doc);
        assert_eq!(flat.get("a.b[0].c"), Some(&1.0));
        assert_eq!(flat.get("a.b[1].c"), Some(&2.0));
        assert_eq!(flat.get("d"), Some(&1.0));
        assert!(!flat.contains_key("schema"));
    }
}
