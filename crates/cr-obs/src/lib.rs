//! Deterministic observability plane for the checkpoint/restart stack.
//!
//! The paper's argument is about *where time goes* (the Fig. 3
//! timelines and the Figs. 4/7 overhead breakdowns), so the runtime
//! crates need a way to narrate what they are doing — failures, drain
//! stalls, NIC backpressure, retries — without perturbing the thing
//! being observed. This crate provides two small, dependency-free
//! pieces:
//!
//! 1. A structured **event bus** ([`Bus`]): producers emit [`Event`]s
//!    and causal spans ([`Bus::span`]) into one [`VecSink`] that keeps
//!    every event in emission order; consumers [`Bus::drain`] them or
//!    [`Bus::render`] them as JSON lines. The bus is the only recorder:
//!    profiling belongs to the run that owns the bus, not to the
//!    process. A disabled bus is the default and costs one branch per
//!    emission site; event construction is wrapped in a closure
//!    ([`Bus::emit_with`]) so a disabled bus never allocates.
//! 2. A flat **indicator report** ([`analyze::IndicatorReport`]): a
//!    sorted map of named values, rendered as `indicators/v1` JSON.
//!    [`analyze::analyze`] folds a node-plane event stream and its
//!    causal spans into one, [`analyze::merge_means`] averages a
//!    fleet's into one, and the event-count snapshot of `bench_chaos`
//!    is one too. The model-plane snapshot of `crx report`
//!    (`cr_sim::fleet_report`) reads a simulated run's time buckets and
//!    counters from the simulator's own result, not from its spans.
//!
//! Everything here is observational: emitting an event never draws
//! randomness, never changes control flow, and never feeds back into
//! the simulation or the drain engine, so enabled and disabled runs of
//! the same seed are bit-identical (a property the workspace tests
//! enforce).

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::fmt;
use std::sync::{Arc, Mutex};

pub mod analyze;
pub mod export;
pub mod json;
pub mod span;
pub mod units;

pub use span::SpanGuard;

/// Where an [`Event`] was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The discrete-event simulator (`cr-sim::engine`).
    Sim,
    /// The NDP drain engine (`cr-node::ndp`).
    Ndp,
    /// The NVM store (`cr-node::nvm`).
    Nvm,
    /// The remote I/O node (`cr-node::remote`).
    Remote,
    /// The fault-injection plane (`cr-node::faults`).
    Faults,
    /// A bench harness or CLI driver.
    Bench,
}

impl Source {
    /// Stable lower-case name used in the JSON rendering.
    pub fn name(self) -> &'static str {
        match self {
            Source::Sim => "sim",
            Source::Ndp => "ndp",
            Source::Nvm => "nvm",
            Source::Remote => "remote",
            Source::Faults => "faults",
            Source::Bench => "bench",
        }
    }
}

/// What happened. The taxonomy is closed on purpose: every producer in
/// the workspace emits one of these, so sinks and renderers can be
/// exhaustive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A simulator phase span on a timeline lane (Fig. 3 material).
    /// `lane` is `"host"` or `"ndp"`; `span` is one of `"compute"`,
    /// `"ckpt_local"`, `"ckpt_io"`, `"restore_local"`,
    /// `"restore_io"`, `"drain"`.
    Span {
        /// Timeline lane (`"host"` or `"ndp"`).
        lane: &'static str,
        /// Span kind name.
        span: &'static str,
        /// Span start (sim seconds).
        t0: f64,
        /// Span end (sim seconds).
        t1: f64,
        /// True if a failure cut the span short.
        interrupted: bool,
    },
    /// A point-in-time simulator mark (`"failure"`, `"io_durable"`).
    Mark {
        /// Mark kind name.
        mark: &'static str,
    },
    /// A failure fired in the simulator; `level` is the deepest
    /// checkpoint level the failure destroyed (1-based).
    Failure {
        /// Failure severity level.
        level: u32,
    },
    /// The simulator restored from checkpoint `level` after a failure.
    Recovery {
        /// Recovery level chosen (1-based).
        level: u32,
    },
    /// A drain job entered the NDP queue.
    DrainStart {
        /// Job (slot) id.
        job: u64,
        /// Raw bytes to drain.
        bytes: u64,
    },
    /// The drain engine was paused (host checkpoint in progress).
    DrainPause,
    /// The drain engine resumed.
    DrainResume,
    /// A compressed frame spilled to the side queue on NIC
    /// backpressure.
    DrainSpill {
        /// Spilled frame bytes.
        bytes: u64,
    },
    /// A transient fault triggered a bounded retry with backoff.
    DrainRetry {
        /// Fault site name (stable, from the fault plane taxonomy).
        site: &'static str,
        /// Attempt number (1-based).
        attempt: u32,
        /// Backoff before the retry, in drain steps.
        backoff_steps: u64,
    },
    /// The codec was degraded (e.g. to uncompressed frames) after
    /// repeated codec faults.
    DrainDegrade {
        /// Job (slot) id being degraded.
        job: u64,
    },
    /// A drain job was cancelled and its partial output discarded.
    DrainCancel {
        /// Job (slot) id cancelled.
        job: u64,
    },
    /// A drain job finished: the remote object is sealed.
    DrainComplete {
        /// Job (slot) id completed.
        job: u64,
        /// Compressed bytes shipped.
        bytes_out: u64,
    },
    /// The NVM store evicted a slot to make room.
    Eviction {
        /// Bytes freed by the eviction.
        bytes: u64,
    },
    /// An allocation failed because every slot was locked.
    LockContention,
    /// A remote object upload began.
    ObjectBegin {
        /// Remote object checkpoint id.
        key: u64,
    },
    /// A remote object was sealed (complete and CRC-stamped).
    ObjectSeal {
        /// Remote object checkpoint id.
        key: u64,
        /// Sealed payload bytes.
        bytes: u64,
    },
    /// A partial remote object was aborted and discarded.
    ObjectAbort {
        /// Remote object checkpoint id.
        key: u64,
    },
    /// A fault-plane site fired.
    Fault {
        /// Fault site name (stable).
        site: &'static str,
        /// Fault-plane step counter at the firing.
        step: u64,
    },
    /// A causal span opened (see [`span::SpanGuard`]). `parent` is the
    /// ID of the enclosing open span, `0` at the root.
    SpanOpen {
        /// Span ID (per-bus, dense from 1).
        id: u64,
        /// Enclosing span ID (`0` = root).
        parent: u64,
        /// Stable span name.
        name: &'static str,
    },
    /// A causal span closed.
    SpanClose {
        /// Span ID from the matching [`EventKind::SpanOpen`].
        id: u64,
    },
    /// The drain engine could not make progress this step.
    DrainStall {
        /// Stall cause: `"nic_backpressure"` (NIC full under the
        /// `Pause` policy) or `"spill_full"` (NVM compressed region
        /// exhausted).
        cause: &'static str,
    },
}

impl EventKind {
    /// Stable snake_case name of the event kind (used as the JSON
    /// `kind` field and in `events_<kind>` count keys).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Span { .. } => "span",
            EventKind::Mark { .. } => "mark",
            EventKind::Failure { .. } => "failure",
            EventKind::Recovery { .. } => "recovery",
            EventKind::DrainStart { .. } => "drain_start",
            EventKind::DrainPause => "drain_pause",
            EventKind::DrainResume => "drain_resume",
            EventKind::DrainSpill { .. } => "drain_spill",
            EventKind::DrainRetry { .. } => "drain_retry",
            EventKind::DrainDegrade { .. } => "drain_degrade",
            EventKind::DrainCancel { .. } => "drain_cancel",
            EventKind::DrainComplete { .. } => "drain_complete",
            EventKind::Eviction { .. } => "eviction",
            EventKind::LockContention => "lock_contention",
            EventKind::ObjectBegin { .. } => "object_begin",
            EventKind::ObjectSeal { .. } => "object_seal",
            EventKind::ObjectAbort { .. } => "object_abort",
            EventKind::Fault { .. } => "fault",
            EventKind::SpanOpen { .. } => "span_open",
            EventKind::SpanClose { .. } => "span_close",
            EventKind::DrainStall { .. } => "drain_stall",
        }
    }
}

/// One observability event.
///
/// `t` is the producer's native clock: simulated seconds for
/// `cr-sim`, drain steps for the NDP engine, the fault-plane step
/// counter for faults, and `0.0` for unclocked components (NVM,
/// remote). Sinks preserve emission order, which is the authoritative
/// interleaving; `t` is for rendering, not ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Producer-native timestamp (see type docs).
    pub t: f64,
    /// Producing subsystem.
    pub source: Source,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one line of JSON (no trailing newline).
    /// Field order is fixed, so same event stream ⇒ same bytes.
    pub fn json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"t\":");
        push_f64(&mut s, self.t);
        s.push_str(",\"source\":\"");
        s.push_str(self.source.name());
        s.push_str("\",\"kind\":\"");
        s.push_str(self.kind.name());
        s.push('"');
        match &self.kind {
            EventKind::Span {
                lane,
                span,
                t0,
                t1,
                interrupted,
            } => {
                push_str_field(&mut s, "lane", lane);
                push_str_field(&mut s, "span", span);
                s.push_str(",\"t0\":");
                push_f64(&mut s, *t0);
                s.push_str(",\"t1\":");
                push_f64(&mut s, *t1);
                s.push_str(",\"interrupted\":");
                s.push_str(if *interrupted { "true" } else { "false" });
            }
            EventKind::Mark { mark } => {
                push_str_field(&mut s, "mark", mark);
            }
            EventKind::Failure { level } | EventKind::Recovery { level } => {
                s.push_str(",\"level\":");
                s.push_str(&level.to_string());
            }
            EventKind::DrainStart { job, bytes } => {
                push_u64(&mut s, "job", *job);
                push_u64(&mut s, "bytes", *bytes);
            }
            EventKind::DrainPause
            | EventKind::DrainResume
            | EventKind::LockContention => {}
            EventKind::DrainSpill { bytes } | EventKind::Eviction { bytes } => {
                push_u64(&mut s, "bytes", *bytes);
            }
            EventKind::DrainRetry {
                site,
                attempt,
                backoff_steps,
            } => {
                push_str_field(&mut s, "site", site);
                push_u64(&mut s, "attempt", *attempt as u64);
                push_u64(&mut s, "backoff_steps", *backoff_steps);
            }
            EventKind::DrainDegrade { job } | EventKind::DrainCancel { job } => {
                push_u64(&mut s, "job", *job);
            }
            EventKind::DrainComplete { job, bytes_out } => {
                push_u64(&mut s, "job", *job);
                push_u64(&mut s, "bytes_out", *bytes_out);
            }
            EventKind::ObjectBegin { key } | EventKind::ObjectAbort { key } => {
                push_u64(&mut s, "key", *key);
            }
            EventKind::ObjectSeal { key, bytes } => {
                push_u64(&mut s, "key", *key);
                push_u64(&mut s, "bytes", *bytes);
            }
            EventKind::Fault { site, step } => {
                push_str_field(&mut s, "site", site);
                push_u64(&mut s, "step", *step);
            }
            EventKind::SpanOpen { id, parent, name } => {
                push_u64(&mut s, "id", *id);
                push_u64(&mut s, "parent", *parent);
                push_str_field(&mut s, "name", name);
            }
            EventKind::SpanClose { id } => {
                push_u64(&mut s, "id", *id);
            }
            EventKind::DrainStall { cause } => {
                push_str_field(&mut s, "cause", cause);
            }
        }
        s.push('}');
        s
    }
}

fn push_u64(s: &mut String, key: &str, v: u64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    s.push_str(&v.to_string());
}

/// Appends `,"key":"value"` with the value JSON-escaped — string
/// payloads (span/mark/site names) must never break the JSON-lines
/// stream, whatever characters they carry.
fn push_str_field(s: &mut String, key: &str, value: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":\"");
    json::escape_into(s, value);
    s.push('"');
}

/// Appends a JSON-safe rendering of `v`: Rust's shortest-roundtrip
/// formatting for finite values, `null` otherwise (JSON has no
/// infinities).
fn push_f64(s: &mut String, v: f64) {
    if v.is_finite() {
        s.push_str(&format!("{v}"));
    } else {
        s.push_str("null");
    }
}

/// The bus's event store: every event, in emission order. It is
/// driven under the bus's mutex, so it needs no interior
/// synchronization, and it never drops an event.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<Event>,
}

impl VecSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The event bus handed to producers.
///
/// A `Bus` is a cheap clone-able handle: clones share the same sink,
/// so one sink can collect a unified, ordered stream from every
/// subsystem of a node (NVM, drain engine, remote, faults). The
/// default bus is *disabled* — `emit_with` is one `Option` check and
/// the event closure never runs — which is what keeps instrumented
/// and uninstrumented runs bit-identical and nearly free.
#[derive(Clone, Default)]
pub struct Bus {
    inner: Option<Arc<BusInner>>,
}

/// State shared by all clones of one bus: the sink and the causal-span
/// bookkeeping. The two locks are disjoint and never held together
/// (span IDs are allocated before the open event is recorded).
struct BusInner {
    sink: Mutex<VecSink>,
    spans: Mutex<span::SpanState>,
}

impl BusInner {
    /// Kept out of line so that producers' hot loops inline only the
    /// disabled-bus branch of [`Bus::emit_with`].
    #[inline(never)]
    fn record(&self, ev: Event) {
        self.sink.lock().unwrap().events.push(ev);
    }
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Bus(enabled)"
        } else {
            "Bus(disabled)"
        })
    }
}

impl Bus {
    /// The disabled bus: emissions are a branch and nothing more.
    pub fn disabled() -> Self {
        Bus { inner: None }
    }

    /// A bus recording into `sink`.
    pub fn with_sink(sink: VecSink) -> Self {
        Bus {
            inner: Some(Arc::new(BusInner {
                sink: Mutex::new(sink),
                spans: Mutex::new(span::SpanState::default()),
            })),
        }
    }

    pub(crate) fn inner(&self) -> Option<&Arc<BusInner>> {
        self.inner.as_ref()
    }

    /// True if a sink is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits an already-built event.
    pub fn emit(&self, ev: Event) {
        if let Some(inner) = &self.inner {
            inner.record(ev);
        }
    }

    /// Emits the event produced by `f`, but only if the bus is
    /// enabled — the closure (and any allocation inside it) is never
    /// evaluated on a disabled bus. This is the form every hot-path
    /// producer uses.
    pub fn emit_with(&self, f: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner.record(f());
        }
    }

    /// Opens a *scoped* causal span: spans opened on this bus before
    /// the guard closes become its children. Returns a no-op guard on
    /// a disabled bus.
    #[inline]
    pub fn span(
        &self,
        source: Source,
        name: &'static str,
        t: f64,
    ) -> SpanGuard {
        SpanGuard::open(self, source, name, t, false)
    }

    /// Opens a *leaf* causal span: parented under the current scope but
    /// never itself a parent — the right shape for overlapping
    /// activities (concurrent drain jobs are siblings, not nested).
    #[inline]
    pub fn span_leaf(
        &self,
        source: Source,
        name: &'static str,
        t: f64,
    ) -> SpanGuard {
        SpanGuard::open(self, source, name, t, true)
    }

    /// Takes every recorded event out of the sink, in emission order
    /// (empty for a disabled bus).
    pub fn drain(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => {
                std::mem::take(&mut inner.sink.lock().unwrap().events)
            }
            None => Vec::new(),
        }
    }

    /// Renders the recorded events as JSON lines, one per event,
    /// without taking them (empty for a disabled bus).
    pub fn render(&self) -> String {
        match &self.inner {
            Some(inner) => {
                let sink = inner.sink.lock().unwrap();
                sink.events.iter().map(|ev| ev.json_line() + "\n").collect()
            }
            None => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, kind: EventKind) -> Event {
        Event {
            t,
            source: Source::Ndp,
            kind,
        }
    }

    #[test]
    fn disabled_bus_never_runs_the_closure() {
        let bus = Bus::disabled();
        let mut ran = false;
        bus.emit_with(|| {
            ran = true;
            ev(0.0, EventKind::DrainPause)
        });
        assert!(!ran);
        assert!(!bus.enabled());
        assert!(bus.drain().is_empty());
        assert!(bus.render().is_empty());
    }

    #[test]
    fn clones_share_one_sink_in_emission_order() {
        let bus = Bus::with_sink(VecSink::new());
        let clone = bus.clone();
        bus.emit(ev(1.0, EventKind::DrainStart { job: 1, bytes: 10 }));
        clone.emit(ev(2.0, EventKind::DrainComplete { job: 1, bytes_out: 4 }));
        bus.emit(ev(3.0, EventKind::DrainPause));
        let got = bus.drain();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].kind.name(), "drain_start");
        assert_eq!(got[1].kind.name(), "drain_complete");
        assert_eq!(got[2].kind.name(), "drain_pause");
        // Drained: a second drain is empty, even through the clone.
        assert!(clone.drain().is_empty());
    }

    #[test]
    fn hostile_names_round_trip_through_json() {
        // String payloads can carry quotes, backslashes and control
        // characters; every rendered line must stay one valid JSON
        // document that parses back to the original payload.
        let hostile: &'static str = "we\"ird\\lane\nname\t\u{1}";
        let cases = vec![
            EventKind::Span {
                lane: hostile,
                span: hostile,
                t0: 0.0,
                t1: 1.0,
                interrupted: true,
            },
            EventKind::Mark { mark: hostile },
            EventKind::DrainRetry {
                site: hostile,
                attempt: 1,
                backoff_steps: 2,
            },
            EventKind::Fault {
                site: hostile,
                step: 3,
            },
            EventKind::SpanOpen {
                id: 1,
                parent: 0,
                name: hostile,
            },
            EventKind::DrainStall { cause: hostile },
        ];
        for kind in cases {
            let line = ev(1.5, kind).json_line();
            let doc = json::parse(&line)
                .unwrap_or_else(|e| panic!("invalid JSON {line}: {e}"));
            // Whichever field carries the hostile payload must decode
            // back to the original string.
            let fields = ["lane", "span", "mark", "site", "name", "cause"];
            let decoded = fields
                .iter()
                .filter_map(|f| doc.get(f).and_then(|v| v.as_str()))
                .find(|s| *s == hostile);
            assert!(decoded.is_some(), "payload lost in {line}");
        }
    }

    #[test]
    fn span_events_render_ids_and_parents() {
        let line = ev(
            2.0,
            EventKind::SpanOpen {
                id: 7,
                parent: 3,
                name: "recovery",
            },
        )
        .json_line();
        assert!(line.contains("\"id\":7"));
        assert!(line.contains("\"parent\":3"));
        assert!(line.contains("\"name\":\"recovery\""));
        let close = ev(3.0, EventKind::SpanClose { id: 7 }).json_line();
        assert!(close.contains("\"kind\":\"span_close\""));
        let stall = ev(
            4.0,
            EventKind::DrainStall {
                cause: "nic_backpressure",
            },
        )
        .json_line();
        assert!(stall.contains("\"cause\":\"nic_backpressure\""));
    }

    #[test]
    fn json_lines_are_deterministic_and_well_formed() {
        let e = ev(
            1.5,
            EventKind::DrainRetry {
                site: "nic_stall",
                attempt: 2,
                backoff_steps: 4,
            },
        );
        assert_eq!(
            e.json_line(),
            "{\"t\":1.5,\"source\":\"ndp\",\"kind\":\"drain_retry\",\
             \"site\":\"nic_stall\",\"attempt\":2,\"backoff_steps\":4}"
        );
        // Rendering twice gives identical bytes.
        assert_eq!(e.json_line(), e.json_line());
        // Non-finite timestamps degrade to null rather than invalid JSON.
        let bad = Event {
            t: f64::INFINITY,
            source: Source::Sim,
            kind: EventKind::Mark { mark: "failure" },
        };
        assert!(bad.json_line().starts_with("{\"t\":null,"));
    }

    #[test]
    fn every_kind_renders_its_payload_fields() {
        let kinds: Vec<(EventKind, &str)> = vec![
            (
                EventKind::Span {
                    lane: "host",
                    span: "compute",
                    t0: 0.0,
                    t1: 2.0,
                    interrupted: false,
                },
                "\"span\":\"compute\"",
            ),
            (EventKind::Mark { mark: "io_durable" }, "\"mark\":\"io_durable\""),
            (EventKind::Failure { level: 2 }, "\"level\":2"),
            (EventKind::Recovery { level: 1 }, "\"level\":1"),
            (EventKind::DrainSpill { bytes: 7 }, "\"bytes\":7"),
            (EventKind::DrainDegrade { job: 3 }, "\"job\":3"),
            (EventKind::DrainCancel { job: 4 }, "\"job\":4"),
            (EventKind::ObjectBegin { key: 9 }, "\"key\":9"),
            (EventKind::ObjectSeal { key: 9, bytes: 12 }, "\"bytes\":12"),
            (EventKind::ObjectAbort { key: 9 }, "\"key\":9"),
            (
                EventKind::Fault {
                    site: "nvm_torn_write",
                    step: 11,
                },
                "\"site\":\"nvm_torn_write\"",
            ),
        ];
        for (kind, needle) in kinds {
            let line = ev(0.0, kind).json_line();
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }
}
