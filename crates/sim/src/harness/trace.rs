//! The event-trace sink: traced runs, the Chrome/Perfetto export, and
//! the interval-timeline renderers behind `tw trace` / `--timeline`.
//!
//! A traced run attaches a [`RingTracer`] to the processor and, after
//! the simulation, carries away three things: the bounded event stream
//! (with drop accounting), the exact per-kind [`TraceSummary`], and the
//! optional interval [`Timeline`]. [`chrome_trace_json`] serializes the
//! stream into the Chrome `trace_event` JSON format — one instant event
//! (`"ph": "i"`) per record with the simulated cycle as its timestamp,
//! plus one counter track (`"ph": "C"`) per timeline metric — which
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly.

use std::fmt::Write as _;

use tc_trace::{
    EventFilter, IntervalStats, RingTracer, Timeline, TraceEvent, TraceRecord, TraceSummary, Tracer,
};
use tc_workloads::Workload;

use crate::config::SimConfig;
use crate::harness::json::Value;
use crate::processor::Processor;
use crate::report::SimReport;

/// Default ring-buffer capacity for `tw trace` (`--limit` overrides).
pub const DEFAULT_TRACE_LIMIT: usize = 100_000;

/// Default timeline window width in cycles (`--interval` overrides).
pub const DEFAULT_TRACE_INTERVAL: u64 = 10_000;

/// How a traced run is instrumented.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Which event kinds the ring buffer stores (aggregates always see
    /// everything).
    pub filter: EventFilter,
    /// Timeline window width in cycles; `None` folds no timeline.
    pub interval: Option<u64>,
    /// Ring-buffer capacity in events.
    pub limit: usize,
}

impl Default for TraceOptions {
    fn default() -> TraceOptions {
        TraceOptions {
            filter: EventFilter::all(),
            interval: Some(DEFAULT_TRACE_INTERVAL),
            limit: DEFAULT_TRACE_LIMIT,
        }
    }
}

/// Everything a traced simulation produced.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The ordinary simulation report (its `trace` field is populated).
    pub report: SimReport,
    /// The recorded event stream, in emit order.
    pub records: Vec<TraceRecord>,
    /// Exact aggregate accounting (drop-immune).
    pub summary: TraceSummary,
    /// The interval timeline, when one was requested.
    pub timeline: Option<Timeline>,
}

/// Runs `workload` under `config` with a recording tracer attached.
#[must_use]
pub fn run_traced(config: SimConfig, workload: &Workload, options: &TraceOptions) -> TracedRun {
    let mut tracer = RingTracer::new(options.limit).with_filter(options.filter);
    if let Some(interval) = options.interval {
        tracer = tracer.with_interval(interval);
    }
    let mut processor = Processor::with_tracer(config, tracer);
    let report = processor.run(workload);
    let tracer = processor.tracer();
    TracedRun {
        // `RingTracer::summary` always returns `Some`; an all-zero
        // summary beats a panic if that invariant ever slips.
        summary: tracer.summary().unwrap_or_default(),
        records: tracer.records().to_vec(),
        timeline: tracer.timeline().cloned(),
        report,
    }
}

/// Serializes a traced run into Chrome `trace_event` JSON.
///
/// The document shape is `{"traceEvents": [...], "otherData": {...}}`:
/// process/thread-name metadata first, then the recorded instant
/// events, then the timeline counter tracks. Timestamps are simulated
/// cycles (the viewer's "µs" axis reads as cycles).
#[must_use]
pub fn chrome_trace_json(run: &TracedRun) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(run.records.len() + 8);
    events.push(metadata_event(
        "process_name",
        format!(
            "trace-weave: {} / {}",
            run.report.benchmark, run.report.config
        ),
    ));
    events.push(metadata_event("thread_name", "front end".to_string()));
    for record in &run.records {
        events.push(instant_event(record));
    }
    if let Some(timeline) = &run.timeline {
        push_counter_tracks(&mut events, timeline);
    }
    Value::object([
        ("traceEvents", Value::Array(events)),
        (
            "otherData",
            Value::object(
                [
                    ("benchmark", Value::Str(run.report.benchmark.clone())),
                    ("config", Value::Str(run.report.config.clone())),
                    ("cycles", Value::UInt(run.report.cycles)),
                ]
                .into_iter()
                .chain(run.summary.totals().map(|(name, n)| (name, Value::UInt(n)))),
            ),
        ),
    ])
}

fn metadata_event(name: &'static str, value: String) -> Value {
    Value::object([
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(0)),
        ("args", Value::object([("name", Value::Str(value))])),
    ])
}

fn instant_event(record: &TraceRecord) -> Value {
    let kind = record.event.kind();
    let mut args = event_args(&record.event);
    args.push(("seq", Value::UInt(record.seq)));
    Value::object([
        ("name", Value::Str(kind.name().to_string())),
        ("cat", Value::Str(kind.category().to_string())),
        ("ph", Value::Str("i".to_string())),
        ("ts", Value::UInt(record.cycle)),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(0)),
        ("s", Value::Str("t".to_string())),
        ("args", Value::object(args)),
    ])
}

fn hex(addr: tc_isa::Addr) -> Value {
    Value::Str(format!("0x{:x}", addr.byte_addr()))
}

fn event_args(event: &TraceEvent) -> Vec<(&'static str, Value)> {
    match *event {
        TraceEvent::TcHit {
            pc,
            active,
            total,
            full,
        } => vec![
            ("pc", hex(pc)),
            ("active", Value::UInt(u64::from(active))),
            ("total", Value::UInt(u64::from(total))),
            ("full", Value::Bool(full)),
        ],
        TraceEvent::TcMiss { pc }
        | TraceEvent::PromotedFault { pc }
        | TraceEvent::IndirectMispredict { pc }
        | TraceEvent::ReturnMispredict { pc }
        | TraceEvent::Misfetch { pc }
        | TraceEvent::L2Miss { pc }
        | TraceEvent::Retire { pc } => vec![("pc", hex(pc))],
        TraceEvent::TcFill {
            start,
            len,
            evicted,
            duplicate,
        } => vec![
            ("start", hex(start)),
            ("len", Value::UInt(u64::from(len))),
            ("evicted", Value::Bool(evicted)),
            ("duplicate", Value::Bool(duplicate)),
        ],
        TraceEvent::FillFinalize {
            start,
            len,
            dynamic_branches,
            promoted,
            reason,
        } => vec![
            ("start", hex(start)),
            ("len", Value::UInt(u64::from(len))),
            ("dynamic_branches", Value::UInt(u64::from(dynamic_branches))),
            ("promoted", Value::UInt(u64::from(promoted))),
            ("reason", Value::Str(reason.label().to_string())),
        ],
        TraceEvent::PackPerformed {
            head,
            tail,
            verdict,
        } => vec![
            ("head", Value::UInt(u64::from(head))),
            ("tail", Value::UInt(u64::from(tail))),
            ("verdict", Value::Str(verdict.label().to_string())),
        ],
        TraceEvent::PackRefused {
            pending,
            block,
            verdict,
        } => vec![
            ("pending", Value::UInt(u64::from(pending))),
            ("block", Value::UInt(u64::from(block))),
            ("verdict", Value::Str(verdict.label().to_string())),
        ],
        TraceEvent::Promotion { pc, dir } => vec![
            ("pc", hex(pc)),
            (
                "dir",
                Value::Str(if dir { "taken" } else { "not_taken" }.to_string()),
            ),
        ],
        TraceEvent::Demotion { pc, cause } => vec![
            ("pc", hex(pc)),
            ("cause", Value::Str(cause.label().to_string())),
        ],
        TraceEvent::CondMispredict { pc, taken } => {
            vec![("pc", hex(pc)), ("taken", Value::Bool(taken))]
        }
        TraceEvent::Repair { redirect_pc, lost } => vec![
            ("redirect_pc", hex(redirect_pc)),
            ("lost", Value::UInt(u64::from(lost))),
        ],
        TraceEvent::IcacheMiss { pc, latency } => {
            vec![
                ("pc", hex(pc)),
                ("latency", Value::UInt(u64::from(latency))),
            ]
        }
        TraceEvent::Fetch {
            pc,
            size,
            source,
            cond_branches,
            promoted,
            mispredicted,
        } => vec![
            ("pc", hex(pc)),
            ("size", Value::UInt(u64::from(size))),
            (
                "source",
                Value::Str(
                    match source {
                        tc_trace::FetchOrigin::TraceCache => "trace_cache",
                        tc_trace::FetchOrigin::ICache => "icache",
                    }
                    .to_string(),
                ),
            ),
            ("cond_branches", Value::UInt(u64::from(cond_branches))),
            ("promoted", Value::UInt(u64::from(promoted))),
            ("mispredicted", Value::Bool(mispredicted)),
        ],
        TraceEvent::WindowStall { wait, occupancy } => vec![
            ("wait", Value::UInt(u64::from(wait))),
            ("occupancy", Value::UInt(u64::from(occupancy))),
        ],
        TraceEvent::FaultInjected { locus, pc } => vec![
            ("locus", Value::Str(locus.name().to_string())),
            ("pc", hex(pc)),
        ],
        TraceEvent::FaultDetected { pc }
        | TraceEvent::FaultQuarantined { pc }
        | TraceEvent::FaultRecovered { pc } => vec![("pc", hex(pc))],
        TraceEvent::ModeBoundary { phase, insts } => vec![
            ("phase", Value::Str(phase.label().to_string())),
            ("insts", Value::UInt(insts)),
        ],
    }
}

/// Extracts one timeline metric from a window's tallies.
type MetricFn = fn(&IntervalStats) -> f64;

/// The four timeline rates, as (name, extractor) pairs: the Chrome
/// counter tracks and the derived fields of [`timeline_to_json`].
const TIMELINE_TRACKS: [(&str, MetricFn); 4] = [
    ("fetch_rate", IntervalStats::fetch_rate),
    ("tc_hit_rate", IntervalStats::tc_hit_rate),
    ("mispredict_rate", IntervalStats::mispredict_rate),
    ("promotion_coverage", IntervalStats::promotion_coverage),
];

fn push_counter_tracks(events: &mut Vec<Value>, timeline: &Timeline) {
    for (name, metric) in TIMELINE_TRACKS {
        for (i, window) in timeline.windows().iter().enumerate() {
            events.push(Value::object([
                ("name", Value::Str(name.to_string())),
                ("ph", Value::Str("C".to_string())),
                ("ts", Value::UInt(i as u64 * timeline.interval())),
                ("pid", Value::UInt(0)),
                (
                    "args",
                    Value::object([("value", Value::Float(metric(window)))]),
                ),
            ]));
        }
    }
}

/// Serializes a timeline as an array of per-window objects (raw tallies
/// plus the derived rates).
#[must_use]
pub fn timeline_to_json(timeline: &Timeline) -> Value {
    Value::object([
        ("interval", Value::UInt(timeline.interval())),
        (
            "windows",
            Value::Array(
                timeline
                    .windows()
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        Value::object(
                            [
                                ("start_cycle", Value::UInt(i as u64 * timeline.interval())),
                                ("fetches", Value::UInt(w.fetches)),
                                ("insts", Value::UInt(w.insts)),
                                ("tc_lookups", Value::UInt(w.tc_lookups)),
                                ("tc_hits", Value::UInt(w.tc_hits)),
                                ("cond_branches", Value::UInt(w.cond_branches)),
                                ("promoted", Value::UInt(w.promoted)),
                                ("mispredicts", Value::UInt(w.mispredicts)),
                            ]
                            .into_iter()
                            .chain(
                                TIMELINE_TRACKS
                                    .map(|(name, metric)| (name, Value::Float(metric(w)))),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders a timeline as the plain-text table `--timeline` prints.
#[must_use]
pub fn timeline_table(timeline: &Timeline) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>9} {:>9} {:>9}",
        "cycle", "fetch rate", "tc hit%", "mispred%", "promo%"
    );
    for (i, w) in timeline.windows().iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>12} {:>10.2} {:>8.1}% {:>8.2}% {:>8.1}%",
            i as u64 * timeline.interval(),
            w.fetch_rate(),
            w.tc_hit_rate() * 100.0,
            w.mispredict_rate() * 100.0,
            w.promotion_coverage() * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::parse::parse_json;
    use tc_workloads::Benchmark;

    fn small_traced() -> TracedRun {
        let workload = Benchmark::Compress.build_scaled(2);
        let config = SimConfig::headline_perf().with_max_insts(10_000);
        run_traced(
            config,
            &workload,
            &TraceOptions {
                filter: EventFilter::all(),
                interval: Some(1_000),
                limit: 2_000,
            },
        )
    }

    #[test]
    fn traced_run_records_events_and_timeline() {
        let run = small_traced();
        assert!(!run.records.is_empty());
        assert!(run.summary.emitted > 0);
        assert_eq!(run.summary.recorded, run.records.len() as u64);
        assert_eq!(
            run.report.trace.as_ref().map(|t| t.emitted),
            Some(run.summary.emitted)
        );
        let timeline = run.timeline.as_ref().expect("interval requested");
        assert!(!timeline.windows().is_empty());
        // Records arrive in emit order with strictly increasing seq.
        for pair in run.records.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].cycle <= pair[1].cycle);
        }
    }

    #[test]
    fn chrome_export_is_well_formed_and_accounts_drops() {
        let run = small_traced();
        assert!(run.summary.dropped > 0, "2k ring must overflow");
        let text = chrome_trace_json(&run).pretty();
        parse_json(&text).expect("chrome export parses");
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\": \"i\""));
        assert!(text.contains("\"ph\": \"C\""));
        assert!(text.contains("\"dropped\""));
    }

    #[test]
    fn timeline_renderers_cover_every_window() {
        let run = small_traced();
        let timeline = run.timeline.as_ref().unwrap();
        let table = timeline_table(timeline);
        assert_eq!(table.lines().count(), timeline.windows().len() + 1);
        let json = timeline_to_json(timeline).pretty();
        parse_json(&json).expect("timeline json parses");
        assert_eq!(
            json.matches("\"start_cycle\"").count(),
            timeline.windows().len()
        );
    }
}
