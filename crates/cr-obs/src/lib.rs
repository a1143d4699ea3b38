//! Deterministic observability plane for the checkpoint/restart stack.
//!
//! The paper's argument is about *where time goes* (the Fig. 3
//! timelines and the Figs. 4/7 overhead breakdowns), so the runtime
//! crates need a way to narrate what they are doing — failures, drain
//! stalls, NIC backpressure, retries — without perturbing the thing
//! being observed. This crate provides three small, dependency-free
//! pieces:
//!
//! 1. A structured **event bus** ([`Bus`]): producers emit [`Event`]s
//!    into a pluggable [`EventSink`] ([`VecSink`], bounded
//!    [`RingSink`], or eagerly-rendering [`JsonLinesSink`]). A
//!    disabled bus is the default and costs one branch per emission
//!    site; event construction is wrapped in a closure
//!    ([`Bus::emit_with`]) so a disabled bus never allocates.
//! 2. A **metrics registry** ([`metrics::Metrics`]): counters, gauges
//!    and log2-bucketed histograms, snapshotted to the `metrics/v1`
//!    JSON schema.
//! 3. A **stage profiler** ([`stage`]): global, lock-free
//!    tokenize/entropy/frame/ship timers the codec and drain hot path
//!    can feed from any worker thread, off by default.
//!
//! Everything here is observational: emitting an event never draws
//! randomness, never changes control flow, and never feeds back into
//! the simulation or the drain engine, so enabled and disabled runs of
//! the same seed are bit-identical (a property the workspace tests
//! enforce).

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

pub mod analyze;
pub mod export;
pub mod json;
pub mod metrics;
pub mod span;
pub mod stage;
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
    /// A compression codec (`cr-compress`).
    Codec,
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
            Source::Codec => "codec",
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
    /// `kind` field and as a metrics counter key).
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

/// A destination for events. Sinks are driven under the bus's mutex,
/// so implementations need no interior synchronization.
pub trait EventSink: Send {
    /// Record one event.
    fn record(&mut self, ev: &Event);
    /// Take back whatever events the sink retained, clearing it.
    /// Sinks that render eagerly (e.g. [`JsonLinesSink`]) return an
    /// empty vector.
    fn drain(&mut self) -> Vec<Event>;
    /// Render the sink's retained content as JSON lines (one event
    /// per line). Does not clear the sink.
    fn render(&self) -> String;
    /// Events this sink discarded (bounded sinks overwrite under
    /// pressure). `0` for lossless sinks.
    fn dropped(&self) -> u64 {
        0
    }
}

/// An unbounded sink retaining every event, in order.
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

impl EventSink for VecSink {
    fn record(&mut self, ev: &Event) {
        self.events.push(*ev);
    }

    fn drain(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    fn render(&self) -> String {
        render_lines(self.events.iter())
    }
}

/// A bounded ring sink keeping the most recent `cap` events — the
/// flight-recorder shape: always on, bounded memory, drained after the
/// interesting thing happened.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<Event>,
    /// Total events ever recorded (including overwritten ones).
    seen: u64,
    /// Events overwritten (lost) because the ring was full.
    dropped: u64,
}

impl RingSink {
    /// New ring keeping at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "ring capacity must be at least 1");
        RingSink {
            cap,
            buf: VecDeque::with_capacity(cap),
            seen: 0,
            dropped: 0,
        }
    }

    /// Total events recorded over the sink's lifetime, including those
    /// already overwritten.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events lost to overwriting — the ring's flight-recorder shape
    /// means the *oldest* events go first; a nonzero count tells a
    /// consumer the retained window is not the whole story.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl EventSink for RingSink {
    fn record(&mut self, ev: &Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*ev);
        self.seen += 1;
    }

    fn drain(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }

    fn render(&self) -> String {
        render_lines(self.buf.iter())
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A sink that renders each event to a JSON line eagerly and keeps
/// only the text — the shape you want when the events are headed for
/// a file and need not be queried.
#[derive(Debug, Default)]
pub struct JsonLinesSink {
    lines: String,
    count: u64,
}

impl JsonLinesSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events rendered.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl EventSink for JsonLinesSink {
    fn record(&mut self, ev: &Event) {
        self.lines.push_str(&ev.json_line());
        self.lines.push('\n');
        self.count += 1;
    }

    fn drain(&mut self) -> Vec<Event> {
        Vec::new()
    }

    fn render(&self) -> String {
        self.lines.clone()
    }
}

fn render_lines<'a>(events: impl Iterator<Item = &'a Event>) -> String {
    let mut s = String::new();
    for ev in events {
        s.push_str(&ev.json_line());
        s.push('\n');
    }
    s
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
    sink: Mutex<Box<dyn EventSink>>,
    spans: Mutex<span::SpanState>,
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

    /// A bus writing into `sink`.
    pub fn with_sink(sink: impl EventSink + 'static) -> Self {
        Bus {
            inner: Some(Arc::new(BusInner {
                sink: Mutex::new(Box::new(sink)),
                spans: Mutex::new(span::SpanState::default()),
            })),
        }
    }

    pub(crate) fn inner(&self) -> Option<&Arc<BusInner>> {
        self.inner.as_ref()
    }

    /// True if a sink is attached.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits an already-built event.
    pub fn emit(&self, ev: Event) {
        if let Some(inner) = &self.inner {
            inner.sink.lock().unwrap().record(&ev);
        }
    }

    /// Emits the event produced by `f`, but only if the bus is
    /// enabled — the closure (and any allocation inside it) is never
    /// evaluated on a disabled bus. This is the form every hot-path
    /// producer uses.
    pub fn emit_with(&self, f: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner.sink.lock().unwrap().record(&f());
        }
    }

    /// Opens a *scoped* causal span: spans opened on this bus before
    /// the guard closes become its children. Returns a no-op guard on
    /// a disabled bus.
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
    pub fn span_leaf(
        &self,
        source: Source,
        name: &'static str,
        t: f64,
    ) -> SpanGuard {
        SpanGuard::open(self, source, name, t, true)
    }

    /// Drains retained events out of the sink (empty for a disabled
    /// bus or an eagerly-rendering sink).
    pub fn drain(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.sink.lock().unwrap().drain(),
            None => Vec::new(),
        }
    }

    /// Renders the sink's retained content as JSON lines (empty for a
    /// disabled bus).
    pub fn render(&self) -> String {
        match &self.inner {
            Some(inner) => inner.sink.lock().unwrap().render(),
            None => String::new(),
        }
    }

    /// Events the sink discarded under pressure (`0` for lossless
    /// sinks or a disabled bus).
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.sink.lock().unwrap().dropped(),
            None => 0,
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
    fn ring_sink_keeps_the_most_recent_events() {
        let mut ring = RingSink::new(2);
        for i in 0..5u64 {
            ring.record(&ev(i as f64, EventKind::Eviction { bytes: i }));
        }
        assert_eq!(ring.seen(), 5);
        assert_eq!(ring.dropped(), 3);
        let got = ring.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind, EventKind::Eviction { bytes: 3 });
        assert_eq!(got[1].kind, EventKind::Eviction { bytes: 4 });
        // Draining empties the window but the loss record stays.
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn bus_surfaces_ring_drop_counts() {
        let bus = Bus::with_sink(RingSink::new(1));
        assert_eq!(bus.dropped(), 0);
        bus.emit(ev(0.0, EventKind::DrainPause));
        bus.emit(ev(1.0, EventKind::DrainResume));
        bus.emit(ev(2.0, EventKind::LockContention));
        assert_eq!(bus.dropped(), 2);
        // Lossless sinks report zero.
        let vec_bus = Bus::with_sink(VecSink::new());
        vec_bus.emit(ev(0.0, EventKind::DrainPause));
        assert_eq!(vec_bus.dropped(), 0);
        assert_eq!(Bus::disabled().dropped(), 0);
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
    fn json_sink_renders_eagerly_and_retains_nothing() {
        let bus = Bus::with_sink(JsonLinesSink::new());
        bus.emit(ev(0.0, EventKind::LockContention));
        bus.emit(ev(1.0, EventKind::DrainResume));
        let text = bus.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"kind\":\"lock_contention\""));
        assert!(bus.drain().is_empty());
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
