//! Chrome trace-event export: renders an event stream (or several
//! per-node streams) as a JSON document loadable in `chrome://tracing`
//! and Perfetto.
//!
//! Mapping:
//!
//! * Simulator timeline spans ([`EventKind::Span`]) become duration
//!   pairs (`"B"`/`"E"`, cat `"sim"`) on a host or NDP track.
//! * Point events (marks, failures, recoveries, drain/NVM/remote/fault
//!   activity) become instants (`"i"`) on per-source tracks.
//! * Causal spans ([`EventKind::SpanOpen`]/[`EventKind::SpanClose`])
//!   become async pairs (`"b"`/`"e"`, cat `"causal"`) so overlapping
//!   spans (concurrent drain jobs) render as parallel arrows. A span
//!   still open at end of stream gets a synthetic close at the last
//!   timestamp, so the document is always balanced.
//!
//! In the merged multi-node view each input stream becomes one `pid`.
//! Rows are sorted by `(pid, tid, ts, phase)` with closes before opens
//! at equal timestamps, and the sort is stable on emission order — the
//! same streams always render the same bytes.

use crate::json::{self, Value};
use crate::{Event, EventKind, Source};
use std::collections::BTreeMap;

/// Track (tid) layout inside one process (node).
fn source_tid(source: Source) -> u32 {
    match source {
        Source::Sim => 3, // instants; sim spans use tids 1/2 per lane
        Source::Ndp => 4,
        Source::Nvm => 5,
        Source::Remote => 6,
        Source::Faults => 7,
        Source::Bench => 8,
    }
}

/// Async (causal) spans get their own track block per source so the
/// arrows do not overprint the instant tracks.
fn causal_tid(source: Source) -> u32 {
    10 + source_tid(source)
}

const HOST_TID: u32 = 1;
const NDP_TID: u32 = 2;

struct Row {
    pid: usize,
    tid: u32,
    ts: f64,
    /// `b'B'`, `b'E'`, `b'b'`, `b'e'`, or `b'i'`.
    phase: u8,
    name: String,
    cat: &'static str,
    /// Async pair id (`0` = none; made unique across pids).
    id: u64,
    /// `Some(interrupted)` on sim-span `B` rows.
    interrupted: Option<bool>,
    seq: usize,
}

fn phase_rank(phase: u8) -> u8 {
    match phase {
        b'E' | b'e' => 0,
        b'B' | b'b' => 1,
        _ => 2,
    }
}

/// Exports one event stream (single-node view). See the module docs
/// for the mapping.
pub fn chrome_trace(events: &[Event]) -> String {
    chrome_trace_merged(&[events])
}

/// Exports several per-node event streams into one merged trace;
/// stream `i` renders as process `i`. Deterministic: same streams,
/// same bytes.
pub fn chrome_trace_merged(nodes: &[&[Event]]) -> String {
    let mut rows: Vec<Row> = Vec::new();
    let mut seq = 0usize;
    for (pid, events) in nodes.iter().enumerate() {
        // Open causal spans: unique id → (name, source) for the
        // matching close.
        let mut open: BTreeMap<u64, (String, Source)> = BTreeMap::new();
        let mut max_ts = 0f64;
        for e in *events {
            let ts = e.t * 1e6;
            max_ts = max_ts.max(ts);
            seq += 1;
            match e.kind {
                EventKind::Span {
                    lane,
                    span,
                    t0,
                    t1,
                    interrupted,
                } => {
                    let tid = if lane == "ndp" { NDP_TID } else { HOST_TID };
                    let (ts0, ts1) = (t0 * 1e6, t1 * 1e6);
                    max_ts = max_ts.max(ts1);
                    rows.push(Row {
                        pid,
                        tid,
                        ts: ts0,
                        phase: b'B',
                        name: span.to_string(),
                        cat: "sim",
                        id: 0,
                        interrupted: Some(interrupted),
                        seq,
                    });
                    rows.push(Row {
                        pid,
                        tid,
                        ts: ts1,
                        phase: b'E',
                        name: span.to_string(),
                        cat: "sim",
                        id: 0,
                        interrupted: None,
                        seq,
                    });
                }
                EventKind::SpanOpen { id, name, .. } => {
                    let uid = unique_async_id(pid, id);
                    open.insert(uid, (name.to_string(), e.source));
                    rows.push(Row {
                        pid,
                        tid: causal_tid(e.source),
                        ts,
                        phase: b'b',
                        name: name.to_string(),
                        cat: "causal",
                        id: uid,
                        interrupted: None,
                        seq,
                    });
                }
                EventKind::SpanClose { id } => {
                    let uid = unique_async_id(pid, id);
                    // An unmatched close (its open is missing from a
                    // truncated stream) has no name to pair with; drop
                    // it rather than emit an unbalanced "e".
                    if let Some((name, source)) = open.remove(&uid) {
                        rows.push(Row {
                            pid,
                            tid: causal_tid(source),
                            ts,
                            phase: b'e',
                            name,
                            cat: "causal",
                            id: uid,
                            interrupted: None,
                            seq,
                        });
                    }
                }
                _ => {
                    rows.push(Row {
                        pid,
                        tid: source_tid(e.source),
                        ts,
                        phase: b'i',
                        name: e.kind.name().to_string(),
                        cat: e.source.name(),
                        id: 0,
                        interrupted: None,
                        seq,
                    });
                }
            }
        }
        // Balance: close every still-open causal span at the horizon.
        for (uid, (name, source)) in open {
            seq += 1;
            rows.push(Row {
                pid,
                tid: causal_tid(source),
                ts: max_ts,
                phase: b'e',
                name,
                cat: "causal",
                id: uid,
                interrupted: None,
                seq,
            });
        }
    }
    rows.sort_by(|a, b| {
        (a.pid, a.tid)
            .cmp(&(b.pid, b.tid))
            .then(a.ts.total_cmp(&b.ts))
            .then(phase_rank(a.phase).cmp(&phase_rank(b.phase)))
            .then(a.seq.cmp(&b.seq))
    });
    render(&rows)
}

/// Async pair ids must be unique across the whole document (Chrome
/// matches `b`/`e` on `(cat, id)` regardless of pid), so fold the pid
/// into the high bits.
fn unique_async_id(pid: usize, span_id: u64) -> u64 {
    ((pid as u64) << 32) | (span_id & 0xFFFF_FFFF)
}

fn render(rows: &[Row]) -> String {
    let mut s = String::with_capacity(rows.len() * 96 + 64);
    s.push_str("{\"traceEvents\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n{\"name\":\"");
        json::escape_into(&mut s, &r.name);
        s.push_str("\",\"cat\":\"");
        s.push_str(r.cat);
        s.push_str("\",\"ph\":\"");
        s.push(r.phase as char);
        s.push_str("\",\"ts\":");
        if r.ts.is_finite() {
            s.push_str(&format!("{}", r.ts));
        } else {
            s.push('0');
        }
        s.push_str(&format!(",\"pid\":{},\"tid\":{}", r.pid, r.tid));
        if r.id != 0 {
            s.push_str(&format!(",\"id\":{}", r.id));
        }
        if r.phase == b'i' {
            s.push_str(",\"s\":\"t\"");
        }
        if let Some(intr) = r.interrupted {
            s.push_str(",\"args\":{\"interrupted\":");
            s.push_str(if intr { "true" } else { "false" });
            s.push('}');
        }
        s.push('}');
    }
    s.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    s
}

/// Structural validity check used by the tests and the `crx export`
/// smoke path: the document must parse, every `(pid, tid)` track must
/// have non-decreasing timestamps, duration (`B`/`E`) events must
/// balance as a stack per track, and async (`b`/`e`) events must
/// balance per `(cat, id)`.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut dur_stack: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut async_open: BTreeMap<(String, u64), u64> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let field = |k: &str| {
            e.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing {k}"))
        };
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?
            .to_string();
        let ts = field("ts")?;
        let pid = field("pid")? as u64;
        let tid = field("tid")? as u64;
        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} < {prev} on track {track:?}"
                ));
            }
        }
        last_ts.insert(track, ts);
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        match ph.as_str() {
            "B" => dur_stack.entry(track).or_default().push(name),
            "E" => {
                let top = dur_stack
                    .entry(track)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: E without B"))?;
                if top != name {
                    return Err(format!(
                        "event {i}: E \"{name}\" closes B \"{top}\""
                    ));
                }
            }
            "b" | "e" => {
                let cat = e
                    .get("cat")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                let id = field("id")? as u64;
                let slot = async_open.entry((cat, id)).or_insert(0);
                if ph == "b" {
                    *slot += 1;
                } else if *slot == 0 {
                    return Err(format!("event {i}: e without b (id {id})"));
                } else {
                    *slot -= 1;
                }
            }
            "i" => {}
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    for (track, stack) in dur_stack {
        if !stack.is_empty() {
            return Err(format!(
                "unbalanced B/E on track {track:?}: {stack:?}"
            ));
        }
    }
    for ((cat, id), open) in async_open {
        if open != 0 {
            return Err(format!("unclosed async span {cat}/{id}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_span(t0: f64, t1: f64, span: &'static str) -> Event {
        Event {
            t: t0,
            source: Source::Sim,
            kind: EventKind::Span {
                lane: "host",
                span,
                t0,
                t1,
                interrupted: false,
            },
        }
    }

    #[test]
    fn sim_spans_export_balanced_duration_pairs() {
        let events = vec![
            sim_span(0.0, 2.0, "compute"),
            sim_span(2.0, 2.5, "ckpt_local"),
            Event {
                t: 2.5,
                source: Source::Sim,
                kind: EventKind::Mark { mark: "io_durable" },
            },
        ];
        let text = chrome_trace(&events);
        validate_chrome_trace(&text).unwrap();
        assert_eq!(text, chrome_trace(&events), "deterministic bytes");
        let doc = json::parse(&text).unwrap();
        let rows = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 spans × (B+E) + 1 instant.
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn causal_spans_export_async_pairs_with_unique_ids() {
        let ev = |t: f64, kind: EventKind| Event {
            t,
            source: Source::Ndp,
            kind,
        };
        let node = vec![
            ev(
                1.0,
                EventKind::SpanOpen {
                    id: 1,
                    parent: 0,
                    name: "drain_job",
                },
            ),
            ev(5.0, EventKind::SpanClose { id: 1 }),
        ];
        // Two nodes with the *same* span id: merged ids must not
        // collide.
        let text = chrome_trace_merged(&[&node, &node]);
        validate_chrome_trace(&text).unwrap();
        let doc = json::parse(&text).unwrap();
        let rows = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ids: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.get("id").and_then(Value::as_f64))
            .collect();
        assert_eq!(ids.len(), 4);
        assert_ne!(ids[0], ids[2], "per-node ids are disambiguated");
        let pids: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.get("pid").and_then(Value::as_f64))
            .collect();
        assert!(pids.contains(&0.0) && pids.contains(&1.0));
    }

    #[test]
    fn unclosed_spans_get_synthetic_closes() {
        let events = vec![
            Event {
                t: 1.0,
                source: Source::Sim,
                kind: EventKind::SpanOpen {
                    id: 1,
                    parent: 0,
                    name: "replica",
                },
            },
            Event {
                t: 9.0,
                source: Source::Sim,
                kind: EventKind::Mark { mark: "failure" },
            },
        ];
        let text = chrome_trace(&events);
        validate_chrome_trace(&text).unwrap();
        // The synthetic close lands at the horizon (9 s → 9e6 µs).
        assert!(text.contains("\"ph\":\"e\""));
        assert!(text.contains("\"ts\":9000000"));
    }

    #[test]
    fn orphan_closes_are_dropped_not_unbalanced() {
        let events = vec![Event {
            t: 2.0,
            source: Source::Ndp,
            kind: EventKind::SpanClose { id: 77 },
        }];
        let text = chrome_trace(&events);
        validate_chrome_trace(&text).unwrap();
        assert!(!text.contains("\"ph\":\"e\""));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // E without B.
        let bad = "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"sim\",\
                   \"ph\":\"E\",\"ts\":1,\"pid\":0,\"tid\":1}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Non-monotone track.
        let bad2 = "{\"traceEvents\":[\
            {\"name\":\"a\",\"cat\":\"s\",\"ph\":\"i\",\"ts\":5,\"pid\":0,\"tid\":1},\
            {\"name\":\"b\",\"cat\":\"s\",\"ph\":\"i\",\"ts\":4,\"pid\":0,\"tid\":1}]}";
        assert!(validate_chrome_trace(bad2).is_err());
    }

    #[test]
    fn hostile_span_names_stay_valid_json() {
        let events = vec![Event {
            t: 0.0,
            source: Source::Sim,
            kind: EventKind::Span {
                lane: "host",
                span: "we\"ird\\name",
                t0: 0.0,
                t1: 1.0,
                interrupted: true,
            },
        }];
        let text = chrome_trace(&events);
        validate_chrome_trace(&text).unwrap();
    }
}
