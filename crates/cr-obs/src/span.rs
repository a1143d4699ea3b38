//! Causal spans: deterministic span IDs with parent/child links, so an
//! event stream forms a span *graph* instead of flat marks.
//!
//! Producers open a span with [`crate::Bus::span`] (scoped: subsequent
//! spans opened on the same bus become children) or
//! [`crate::Bus::span_leaf`] (a leaf: it is parented under the current
//! scope but cannot itself acquire children — the right shape for
//! overlapping activities such as concurrent drain jobs, which are
//! siblings, not ancestors of one another). Both return a
//! [`SpanGuard`]; closing the guard emits the matching
//! [`crate::EventKind::SpanClose`].
//!
//! IDs are allocated from a per-bus counter starting at 1 (`0` means
//! "no parent" / "disabled"), so the same sequence of opens on the same
//! seed yields the same graph — the IDs are part of the deterministic
//! event stream, not wall-clock artifacts.

use crate::{Bus, Event, EventKind, Source};

/// Span bookkeeping shared by all clones of a [`Bus`]: the next ID and
/// the stack of currently-open *scoped* spans.
#[derive(Debug, Default)]
pub(crate) struct SpanState {
    next_id: u64,
    stack: Vec<u64>,
}

impl SpanState {
    /// Allocates an ID parented under the current scope and pushes it
    /// (scoped open).
    pub(crate) fn open_scoped(&mut self) -> (u64, u64) {
        let (id, parent) = self.open_leaf();
        self.stack.push(id);
        (id, parent)
    }

    /// Allocates an ID parented under the current scope without
    /// entering the scope stack (leaf open).
    pub(crate) fn open_leaf(&mut self) -> (u64, u64) {
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.stack.last().copied().unwrap_or(0);
        (id, parent)
    }

    /// Removes `id` from the scope stack (no-op for leaf spans). Spans
    /// closed out of order are removed from the middle, so a straggling
    /// close can never corrupt an unrelated scope.
    pub(crate) fn close(&mut self, id: u64) {
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.remove(pos);
        }
    }
}

/// An open causal span. Close it explicitly with [`SpanGuard::close`]
/// at the producer's clock; a guard dropped while still open closes
/// itself at its opening timestamp (a zero-length span — visible in
/// the stream, never a leak).
///
/// Guards from a disabled bus carry ID `0` and do nothing.
#[derive(Debug)]
pub struct SpanGuard {
    bus: Bus,
    source: Source,
    id: u64,
    t_open: f64,
}

impl SpanGuard {
    pub(crate) fn noop() -> Self {
        SpanGuard {
            bus: Bus::disabled(),
            source: Source::Sim,
            id: 0,
            t_open: 0.0,
        }
    }

    /// Inlined down to one branch on a disabled bus, so a producer's
    /// hot loop makes no call for it.
    #[inline]
    pub(crate) fn open(
        bus: &Bus,
        source: Source,
        name: &'static str,
        t: f64,
        leaf: bool,
    ) -> Self {
        if bus.enabled() {
            Self::open_recorded(bus, source, name, t, leaf)
        } else {
            SpanGuard::noop()
        }
    }

    #[cold]
    #[inline(never)]
    fn open_recorded(
        bus: &Bus,
        source: Source,
        name: &'static str,
        t: f64,
        leaf: bool,
    ) -> Self {
        let Some(inner) = bus.inner() else {
            return SpanGuard::noop();
        };
        let (id, parent) = {
            let mut spans = inner.spans.lock().unwrap();
            if leaf {
                spans.open_leaf()
            } else {
                spans.open_scoped()
            }
        };
        bus.emit(Event {
            t,
            source,
            kind: EventKind::SpanOpen { id, parent, name },
        });
        SpanGuard {
            bus: bus.clone(),
            source,
            id,
            t_open: t,
        }
    }

    /// The span's ID (`0` for a guard from a disabled bus).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span at time `t`, emitting the
    /// [`EventKind::SpanClose`]. Idempotent: only the first close
    /// emits.
    #[inline]
    pub fn close(&mut self, t: f64) {
        if self.id != 0 {
            self.close_recorded(t);
        }
    }

    #[cold]
    #[inline(never)]
    fn close_recorded(&mut self, t: f64) {
        if let Some(inner) = self.bus.inner() {
            inner.spans.lock().unwrap().close(self.id);
        }
        self.bus.emit(Event {
            t,
            source: self.source,
            kind: EventKind::SpanClose { id: self.id },
        });
        self.id = 0;
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let t = self.t_open;
        self.close(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSink;

    fn open_close_pairs(events: &[Event]) -> Vec<(u64, u64, &'static str)> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanOpen { id, parent, name } => {
                    Some((id, parent, name))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn scoped_spans_nest() {
        let bus = Bus::with_sink(VecSink::new());
        let mut outer = bus.span(Source::Sim, "outer", 0.0);
        let mut inner = bus.span(Source::Sim, "inner", 1.0);
        inner.close(2.0);
        outer.close(3.0);
        let events = bus.drain();
        let opens = open_close_pairs(&events);
        assert_eq!(opens, vec![(1, 0, "outer"), (2, 1, "inner")]);
        // Closes in stream order, matching IDs.
        let closes: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanClose { id } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(closes, vec![2, 1]);
    }

    #[test]
    fn leaf_spans_do_not_become_parents() {
        let bus = Bus::with_sink(VecSink::new());
        let _outer = bus.span(Source::Sim, "outer", 0.0);
        let mut job_a = bus.span_leaf(Source::Ndp, "job", 1.0);
        let mut job_b = bus.span_leaf(Source::Ndp, "job", 2.0);
        job_a.close(5.0);
        job_b.close(6.0);
        drop(_outer);
        let events = bus.drain();
        let opens = open_close_pairs(&events);
        // Both jobs are siblings under "outer" — overlapping leaves
        // never parent each other.
        assert_eq!(opens, vec![(1, 0, "outer"), (2, 1, "job"), (3, 1, "job")]);
    }

    #[test]
    fn dropped_guard_closes_at_open_time() {
        let bus = Bus::with_sink(VecSink::new());
        {
            let _g = bus.span(Source::Sim, "leaky", 7.5);
        }
        let events = bus.drain();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1].kind, EventKind::SpanClose { id: 1 }));
        assert_eq!(events[1].t, 7.5);
    }

    #[test]
    fn close_is_idempotent() {
        let bus = Bus::with_sink(VecSink::new());
        let mut g = bus.span(Source::Sim, "once", 0.0);
        g.close(1.0);
        g.close(2.0);
        drop(g);
        assert_eq!(bus.drain().len(), 2);
    }

    #[test]
    fn disabled_bus_yields_noop_guards() {
        let bus = Bus::disabled();
        let mut g = bus.span(Source::Sim, "ghost", 0.0);
        assert_eq!(g.id(), 0);
        g.close(1.0);
        assert!(bus.drain().is_empty());
    }

    #[test]
    fn out_of_order_close_cannot_corrupt_the_scope() {
        let bus = Bus::with_sink(VecSink::new());
        let mut a = bus.span(Source::Sim, "a", 0.0);
        let mut b = bus.span(Source::Sim, "b", 1.0);
        // Close the *outer* first (out of order): the inner scope must
        // survive, and the next open parents under it.
        a.close(2.0);
        let c = bus.span(Source::Sim, "c", 3.0);
        b.close(4.0);
        let events = bus.drain();
        let opens = open_close_pairs(&events);
        assert_eq!(opens[2], (3, 2, "c"), "c parents under still-open b");
        drop(c);
    }

    #[test]
    fn ids_are_deterministic_per_bus() {
        let make = || {
            let bus = Bus::with_sink(VecSink::new());
            let mut x = bus.span(Source::Sim, "x", 0.0);
            let mut y = bus.span_leaf(Source::Ndp, "y", 1.0);
            y.close(2.0);
            x.close(3.0);
            let rendered: Vec<String> =
                bus.drain().iter().map(|e| e.json_line()).collect();
            rendered
        };
        assert_eq!(make(), make());
    }
}
