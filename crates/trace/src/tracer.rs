//! The [`Tracer`] trait and its two implementations: the zero-cost
//! [`NoopTracer`] and the bounded-ring [`RingTracer`].

use crate::event::{EventKind, TraceEvent, EVENT_KIND_COUNT};
use crate::timeline::Timeline;

/// A sink for [`TraceEvent`]s.
///
/// Hot paths are generic over this trait; emit sites guard event
/// construction with `if T::ENABLED { ... }` so that with the
/// [`NoopTracer`] the compiler removes the entire branch.
pub trait Tracer {
    /// Whether this tracer records anything. Emit sites branch on this
    /// *constant*, so a disabled tracer costs nothing at runtime.
    const ENABLED: bool;

    /// Record one event at the current cycle.
    fn emit(&mut self, event: TraceEvent);

    /// Advance the tracer's notion of the current cycle. Called once
    /// per simulated cycle by the owner of the clock.
    fn set_cycle(&mut self, cycle: u64);

    /// Fold the tracer's aggregates into a [`TraceSummary`], if it
    /// keeps any.
    fn summary(&self) -> Option<TraceSummary> {
        None
    }
}

/// The disabled path: a zero-sized tracer whose methods are empty
/// inline functions. This is the default tracer everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: TraceEvent) {}

    #[inline(always)]
    fn set_cycle(&mut self, _cycle: u64) {}
}

/// One stored event, stamped with its global sequence number and the
/// cycle it was emitted on.
///
/// Sequence numbers count *emitted* events, so a filtered or dropped
/// event leaves a visible gap in the recorded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global emit-order sequence number (0-based).
    pub seq: u64,
    /// Cycle the event was emitted on.
    pub cycle: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// Aggregate trace statistics, folded at emit time and therefore exact
/// even when the ring buffer dropped events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events emitted by the instrumented machine.
    pub emitted: u64,
    /// Events stored in the ring buffer.
    pub recorded: u64,
    /// Events that passed the filter but arrived after the ring was
    /// full.
    pub dropped: u64,
    /// Events rejected by the event filter.
    pub filtered: u64,
    /// Per-[`EventKind`] emit counts, indexed by [`EventKind::index`].
    pub counts: [u64; EVENT_KIND_COUNT],
}

impl TraceSummary {
    /// The four ring-accounting totals as `(name, count)`, in report
    /// order.
    #[must_use]
    pub fn totals(&self) -> [(&'static str, u64); 4] {
        [
            ("emitted", self.emitted),
            ("recorded", self.recorded),
            ("dropped", self.dropped),
            ("filtered", self.filtered),
        ]
    }

    /// Emit count for one event kind.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }
}

/// A selection of event kinds, parsed from CLI tokens like
/// `tc,promotion,mispredict`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFilter {
    mask: u32,
}

impl EventFilter {
    /// A filter that accepts every event kind.
    #[must_use]
    pub fn all() -> EventFilter {
        EventFilter {
            mask: (1u32 << EVENT_KIND_COUNT) - 1,
        }
    }

    /// A filter that accepts nothing (build it up with [`Self::with`]).
    #[must_use]
    pub fn none() -> EventFilter {
        EventFilter { mask: 0 }
    }

    /// This filter, additionally accepting `kind`.
    #[must_use]
    pub fn with(self, kind: EventKind) -> EventFilter {
        EventFilter {
            mask: self.mask | (1u32 << kind.index()),
        }
    }

    /// Whether `kind` passes the filter.
    #[must_use]
    pub fn allows(self, kind: EventKind) -> bool {
        self.mask & (1u32 << kind.index()) != 0
    }

    /// Parses a comma-separated list of event-kind names (`tc_hit`),
    /// category names (`tc`, `fill`, `promote`, `mispredict`, `cache`,
    /// `machine`, `retire`), or `all`.
    ///
    /// # Errors
    ///
    /// Returns the offending token if it matches neither a kind nor a
    /// category.
    pub fn parse(spec: &str) -> Result<EventFilter, String> {
        let mut filter = EventFilter::none();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            if token == "all" {
                return Ok(EventFilter::all());
            }
            let mut matched = false;
            for kind in EventKind::ALL {
                if kind.name() == token || kind.category() == token {
                    filter = filter.with(kind);
                    matched = true;
                }
            }
            if !matched {
                return Err(format!("unknown event or category `{token}`"));
            }
        }
        Ok(filter)
    }
}

impl Default for EventFilter {
    fn default() -> EventFilter {
        EventFilter::all()
    }
}

/// The enabled path: records events into a **preallocated bounded
/// buffer** with keep-first semantics — once full, later events are
/// counted in `dropped` rather than stored, so a long run can never
/// grow memory without bound.
///
/// Per-kind counts and the optional interval [`Timeline`] are folded at
/// emit time, *before* the filter or the capacity check, so they stay
/// exact regardless of what the buffer kept.
#[derive(Debug, Clone)]
pub struct RingTracer {
    capacity: usize,
    records: Vec<TraceRecord>,
    filter: EventFilter,
    timeline: Option<Timeline>,
    now: u64,
    emitted: u64,
    dropped: u64,
    filtered: u64,
    counts: [u64; EVENT_KIND_COUNT],
}

impl RingTracer {
    /// Creates a tracer that stores at most `capacity` events. The
    /// buffer is allocated once, up front.
    #[must_use]
    pub fn new(capacity: usize) -> RingTracer {
        RingTracer {
            capacity,
            records: Vec::with_capacity(capacity),
            filter: EventFilter::all(),
            timeline: None,
            now: 0,
            emitted: 0,
            dropped: 0,
            filtered: 0,
            counts: [0; EVENT_KIND_COUNT],
        }
    }

    /// Restricts which events are stored (aggregates still see all).
    #[must_use]
    pub fn with_filter(mut self, filter: EventFilter) -> RingTracer {
        self.filter = filter;
        self
    }

    /// Additionally folds an interval timeline with `interval`-cycle
    /// windows.
    #[must_use]
    pub fn with_interval(mut self, interval: u64) -> RingTracer {
        self.timeline = Some(Timeline::new(interval));
        self
    }

    /// The stored events, in emit order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Events that passed the filter but found the buffer full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The interval timeline, if one was requested.
    #[must_use]
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }
}

impl Tracer for RingTracer {
    const ENABLED: bool = true;

    fn emit(&mut self, event: TraceEvent) {
        let kind = event.kind();
        let seq = self.emitted;
        self.emitted += 1;
        self.counts[kind.index()] += 1;
        if let Some(timeline) = &mut self.timeline {
            timeline.fold(self.now, &event);
        }
        if !self.filter.allows(kind) {
            self.filtered += 1;
            return;
        }
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push(TraceRecord {
            seq,
            cycle: self.now,
            event,
        });
    }

    fn set_cycle(&mut self, cycle: u64) {
        self.now = cycle;
    }

    fn summary(&self) -> Option<TraceSummary> {
        Some(TraceSummary {
            emitted: self.emitted,
            recorded: self.records.len() as u64,
            dropped: self.dropped,
            filtered: self.filtered,
            counts: self.counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_isa::Addr;

    fn miss(i: u32) -> TraceEvent {
        TraceEvent::TcMiss { pc: Addr::new(i) }
    }

    #[test]
    fn ring_keeps_first_and_counts_drops() {
        let mut t = RingTracer::new(3);
        for i in 0..10 {
            t.set_cycle(u64::from(i));
            t.emit(miss(i));
        }
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.dropped(), 7);
        let cycles: Vec<u64> = t.records().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, [0, 1, 2]);
        let summary = t.summary().unwrap();
        assert_eq!(summary.emitted, 10);
        assert_eq!(summary.recorded, 3);
        // Aggregates fold before the capacity check: all ten misses
        // counted even though seven were dropped.
        assert_eq!(summary.count(EventKind::TcMiss), 10);
    }

    #[test]
    fn filter_rejects_without_consuming_capacity() {
        let filter = EventFilter::none().with(EventKind::Promotion);
        let mut t = RingTracer::new(2).with_filter(filter);
        t.emit(miss(0));
        t.emit(TraceEvent::Promotion {
            pc: Addr::new(1),
            dir: true,
        });
        t.emit(miss(2));
        let summary = t.summary().unwrap();
        assert_eq!(summary.filtered, 2);
        assert_eq!(summary.recorded, 1);
        assert_eq!(summary.dropped, 0);
        // The stored record keeps its global sequence number, so the
        // filtered events leave a visible gap.
        assert_eq!(t.records()[0].seq, 1);
        assert_eq!(summary.count(EventKind::TcMiss), 2);
    }

    #[test]
    fn filter_parse_accepts_kinds_categories_and_all() {
        let f = EventFilter::parse("tc,promotion").unwrap();
        assert!(f.allows(EventKind::TcHit));
        assert!(f.allows(EventKind::TcMiss));
        assert!(f.allows(EventKind::TcFill));
        assert!(f.allows(EventKind::Promotion));
        assert!(!f.allows(EventKind::Demotion));
        assert!(!f.allows(EventKind::Fetch));

        let all = EventFilter::parse("all").unwrap();
        for kind in EventKind::ALL {
            assert!(all.allows(kind));
        }

        assert!(EventFilter::parse("bogus").is_err());
    }

    #[test]
    fn every_kind_has_unique_name_and_index() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            for other in &EventKind::ALL[i + 1..] {
                assert_ne!(kind.name(), other.name());
            }
        }
    }
}
