//! Timeline tracing: optional per-activity event capture for rendering
//! Figure 3-style timelines (host lane, NDP lane, I/O durability
//! marks).

/// Which lane of the Figure 3 timeline a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The host processor (compute + commits + restores).
    Host,
    /// The NDP drain pipeline.
    Ndp,
}

/// What happened during a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Useful computation.
    Compute,
    /// Local NVM checkpoint commit.
    CkptLocal,
    /// Host-blocking global-I/O commit.
    CkptIo,
    /// Restore from local storage.
    RestoreLocal,
    /// Restore from global I/O.
    RestoreIo,
    /// NDP draining a checkpoint to global I/O.
    Drain,
}

/// One traced interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpan {
    /// Lane the span belongs to.
    pub lane: Lane,
    /// Activity kind.
    pub kind: SpanKind,
    /// Start time, seconds.
    pub t0: f64,
    /// End time, seconds.
    pub t1: f64,
    /// True if the activity was cut short by a failure.
    pub interrupted: bool,
}

/// One instantaneous event (failures, drain completions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceMark {
    /// Time, seconds.
    pub t: f64,
    /// Label.
    pub kind: MarkKind,
}

/// Kinds of instantaneous marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// A failure struck.
    Failure,
    /// A checkpoint became durable on global I/O.
    IoDurable,
}

impl Lane {
    /// Stable wire name used in observability events.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Host => "host",
            Lane::Ndp => "ndp",
        }
    }

    /// Inverse of [`Lane::name`].
    pub fn from_name(s: &str) -> Option<Lane> {
        match s {
            "host" => Some(Lane::Host),
            "ndp" => Some(Lane::Ndp),
            _ => None,
        }
    }
}

impl SpanKind {
    /// Stable wire name used in observability events.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::CkptLocal => "ckpt_local",
            SpanKind::CkptIo => "ckpt_io",
            SpanKind::RestoreLocal => "restore_local",
            SpanKind::RestoreIo => "restore_io",
            SpanKind::Drain => "drain",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn from_name(s: &str) -> Option<SpanKind> {
        match s {
            "compute" => Some(SpanKind::Compute),
            "ckpt_local" => Some(SpanKind::CkptLocal),
            "ckpt_io" => Some(SpanKind::CkptIo),
            "restore_local" => Some(SpanKind::RestoreLocal),
            "restore_io" => Some(SpanKind::RestoreIo),
            "drain" => Some(SpanKind::Drain),
            _ => None,
        }
    }
}

impl MarkKind {
    /// Stable wire name used in observability events.
    pub fn name(self) -> &'static str {
        match self {
            MarkKind::Failure => "failure",
            MarkKind::IoDurable => "io_durable",
        }
    }

    /// Inverse of [`MarkKind::name`].
    pub fn from_name(s: &str) -> Option<MarkKind> {
        match s {
            "failure" => Some(MarkKind::Failure),
            "io_durable" => Some(MarkKind::IoDurable),
            _ => None,
        }
    }
}

/// Collected trace of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Activity spans, in emission order.
    pub spans: Vec<TraceSpan>,
    /// Instantaneous marks.
    pub marks: Vec<TraceMark>,
}

impl Trace {
    /// Rebuilds a timeline from an observability event stream.
    ///
    /// Only [`cr_obs::EventKind::Span`] and [`cr_obs::EventKind::Mark`]
    /// events contribute; everything else (drain engine, NVM, fault
    /// plane traffic sharing the same bus) is skipped. Unknown lane or
    /// kind names are skipped too, so a trace can always be rebuilt
    /// from a stream containing events from a newer producer.
    pub fn from_events(events: &[cr_obs::Event]) -> Trace {
        let mut out = Trace::default();
        for e in events {
            match e.kind {
                cr_obs::EventKind::Span {
                    lane,
                    span,
                    t0,
                    t1,
                    interrupted,
                } => {
                    if let (Some(lane), Some(kind)) =
                        (Lane::from_name(lane), SpanKind::from_name(span))
                    {
                        out.spans.push(TraceSpan {
                            lane,
                            kind,
                            t0,
                            t1,
                            interrupted,
                        });
                    }
                }
                cr_obs::EventKind::Mark { mark } => {
                    if let Some(kind) = MarkKind::from_name(mark) {
                        out.marks.push(TraceMark { t: e.t, kind });
                    }
                }
                _ => {}
            }
        }
        out
    }
    /// Renders an ASCII timeline between `from` and `to` seconds with
    /// `width` columns — the textual cousin of the paper's Figure 3.
    pub fn render_ascii(&self, from: f64, to: f64, width: usize) -> String {
        assert!(to > from && width >= 10);
        let scale = width as f64 / (to - from);
        let col = |t: f64| -> usize {
            (((t - from) * scale) as usize).min(width - 1)
        };
        let mut host = vec![b' '; width];
        let mut ndp = vec![b' '; width];
        let mut marks_row = vec![b' '; width];

        for s in &self.spans {
            if s.t1 < from || s.t0 > to {
                continue;
            }
            let (a, b) = (col(s.t0.max(from)), col(s.t1.min(to)));
            let ch = match s.kind {
                SpanKind::Compute => b'=',
                SpanKind::CkptLocal => b'L',
                SpanKind::CkptIo => b'W',
                SpanKind::RestoreLocal => b'r',
                SpanKind::RestoreIo => b'R',
                SpanKind::Drain => b'd',
            };
            let row = match s.lane {
                Lane::Host => &mut host,
                Lane::Ndp => &mut ndp,
            };
            for c in row.iter_mut().take(b + 1).skip(a) {
                *c = ch;
            }
        }
        for m in &self.marks {
            if m.t < from || m.t > to {
                continue;
            }
            marks_row[col(m.t)] = match m.kind {
                MarkKind::Failure => b'X',
                MarkKind::IoDurable => b'^',
            };
        }

        let legend = "legend: = compute | L local ckpt | W host I/O write | \
                      r/R restore local/IO | d NDP drain | X failure | ^ I/O durable";
        format!(
            "HOST |{}|\nNDP  |{}|\n     |{}|\n{}\n",
            String::from_utf8_lossy(&host),
            String::from_utf8_lossy(&ndp),
            String::from_utf8_lossy(&marks_row),
            legend
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            spans: vec![
                TraceSpan {
                    lane: Lane::Host,
                    kind: SpanKind::Compute,
                    t0: 0.0,
                    t1: 100.0,
                    interrupted: false,
                },
                TraceSpan {
                    lane: Lane::Host,
                    kind: SpanKind::CkptLocal,
                    t0: 100.0,
                    t1: 110.0,
                    interrupted: false,
                },
                TraceSpan {
                    lane: Lane::Ndp,
                    kind: SpanKind::Drain,
                    t0: 20.0,
                    t1: 90.0,
                    interrupted: false,
                },
            ],
            marks: vec![TraceMark {
                t: 50.0,
                kind: MarkKind::Failure,
            }],
        }
    }

    #[test]
    fn ascii_render_contains_lanes_and_marks() {
        let s = sample().render_ascii(0.0, 120.0, 60);
        assert!(s.contains("HOST |"));
        assert!(s.contains("NDP  |"));
        assert!(s.contains('='));
        assert!(s.contains('L'));
        assert!(s.contains('d'));
        assert!(s.contains('X'));
        assert!(s.contains("legend"));
    }

    #[test]
    fn out_of_window_spans_are_clipped() {
        let s = sample().render_ascii(200.0, 300.0, 40);
        // Nothing in window: lanes blank.
        let host_line = s.lines().next().unwrap();
        assert!(!host_line.contains('='));
    }

    #[test]
    fn adversarial_streams_never_panic() {
        use cr_obs::{Event, EventKind, Source};
        let ev = |t: f64, source: Source, kind: EventKind| Event {
            t,
            source,
            kind,
        };
        // Unclosed causal spans, out-of-order timestamps, orphan
        // closes, unknown span/lane/mark names, events from every
        // source — a hostile stream must produce a (possibly empty)
        // trace, never a panic.
        let events = vec![
            ev(
                9.0,
                Source::Sim,
                EventKind::SpanOpen {
                    id: 5,
                    parent: 99,
                    name: "never_closed",
                },
            ),
            ev(3.0, Source::Sim, EventKind::SpanClose { id: 777 }),
            ev(
                5.0,
                Source::Sim,
                EventKind::Span {
                    lane: "submarine",
                    span: "snorkel",
                    t0: 8.0,
                    t1: 2.0, // t1 < t0
                    interrupted: true,
                },
            ),
            ev(
                1.0, // timestamps regress
                Source::Sim,
                EventKind::Mark {
                    mark: "not_a_known_mark",
                },
            ),
            ev(0.5, Source::Faults, EventKind::LockContention),
            ev(
                0.0,
                Source::Ndp,
                EventKind::DrainStall {
                    cause: "nic_backpressure",
                },
            ),
            ev(
                -4.0,
                Source::Sim,
                EventKind::Span {
                    lane: "host",
                    span: "compute",
                    t0: -4.0,
                    t1: -1.0,
                    interrupted: false,
                },
            ),
        ];
        let trace = Trace::from_events(&events);
        // Unknown names are skipped, known ones kept (even with odd
        // timestamps).
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.marks.len(), 0);
        let s = &trace.spans[0];
        assert_eq!((s.kind, s.t0, s.t1), (SpanKind::Compute, -4.0, -1.0));
        // Rendering a window over the weird span must not panic either.
        let _ = trace.render_ascii(-5.0, 1.0, 30);
    }

    #[test]
    fn empty_and_unknown_only_streams_yield_empty_traces() {
        use cr_obs::{Event, EventKind, Source};
        assert!(Trace::from_events(&[]).spans.is_empty());
        let events = vec![Event {
            t: 1.0,
            source: Source::Bench,
            kind: EventKind::Mark { mark: "mystery" },
        }];
        let trace = Trace::from_events(&events);
        assert!(trace.spans.is_empty() && trace.marks.is_empty());
    }
}
