//! The `timing` and `sampled` workloads: simulation cells run one at a
//! time through `Processor::run`, each report checked against its pin.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use tc_sim::harness::report_to_json;
use tc_sim::{Processor, SimConfig, SimReport};
use tc_trace::NoopTracer;
use tc_workloads::{Workload, WorkloadId};

use crate::cells::{self, Cell};
use crate::layers::{self, Layers};
use crate::metrics::Outcome;
use crate::pins::Pins;
use crate::replay::{attribute, replay_cell, CrateShares, LayerCosts};
use crate::spans::Spans;
use crate::util::{digest, median, ms, quantile};
use crate::Options;

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// Stream instructions each sampled cell replays per layer.
const SAMPLED_REPLAY: u64 = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Timing,
    Sampled,
}

/// One cell run: the report, its digest and host times.
pub struct CellRun {
    pub report: SimReport,
    pub digest: u64,
    pub start: Instant,
    pub ran: Instant,
    pub end: Instant,
}

/// Runs one cell on a fresh processor (constructed before the clock
/// starts) and renders its report.
#[must_use]
pub fn run_cell(workload: &Workload, config: &SimConfig) -> CellRun {
    let mut processor = Processor::with_tracer(config.clone(), NoopTracer);
    let start = Instant::now();
    let report = processor.run(workload);
    let ran = Instant::now();
    let body = report_to_json(&report).render();
    let end = Instant::now();
    CellRun {
        digest: digest(body.as_bytes()),
        report,
        start,
        ran,
        end,
    }
}

/// Builds every workload the cells use and constructs each cell's
/// processor, returning the workloads, the whole set-up time and the
/// build part of it. The processors all live until the clock stops:
/// freed one by one, the allocator hands each next one fresh or reused
/// pages by turns, and the set-up time jumps between two levels.
fn setup(cells: &[Cell]) -> (BTreeMap<WorkloadId, Workload>, Duration, Duration) {
    let start = Instant::now();
    let mut built = BTreeMap::new();
    for cell in cells {
        built
            .entry(cell.workload)
            .or_insert_with(|| cell.workload.build());
    }
    let after_build = Instant::now();
    let processors: Vec<_> = cells
        .iter()
        .map(|cell| Processor::with_tracer(cell.config.clone(), NoopTracer))
        .collect();
    black_box(&processors);
    let took = start.elapsed();
    drop(processors);
    (built, took, after_build - start)
}

/// Instructions a run covers: timed ones on `timing`, the traversed
/// stream on `sampled`.
fn counted(kind: SimKind, report: &SimReport) -> u64 {
    match (kind, &report.sampling) {
        (SimKind::Sampled, Some(s)) => s.total_stream,
        _ => report.instructions,
    }
}

/// Runs the `timing` or `sampled` workload.
///
/// # Panics
///
/// Panics if a committed workload faults (a program bug the benchmark
/// does not hide).
pub fn run(kind: SimKind, opts: &Options, pins: &Pins, spans: &mut Spans) -> Outcome {
    let plans: Vec<Vec<Cell>> = (0..cells::ROTATION)
        .map(|round| match kind {
            SimKind::Timing => cells::timing_cells(opts.seed, round),
            SimKind::Sampled => cells::sampled_cells(opts.seed, round),
        })
        .collect();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut workloads = BTreeMap::new();
    for _ in 0..SETUP_REPS {
        let (w, total, build) = setup(&plans[0]);
        setups.push(total.as_secs_f64());
        builds.push(ms(build));
        workloads = w;
    }

    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut round_mips = Vec::new();
    // Traced runs run every rotation twice, untraced then traced; the
    // time ratio of the pairs is the tracing overhead.
    let mut plain_round_s = Vec::new();
    let mut traced_round_s = Vec::new();
    let mut replayed: Vec<Option<(Cell, CellRun)>> = (0..plans[0].len()).map(|_| None).collect();
    let deadline = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut round = 0usize;
    loop {
        let traced_round = spans.enabled() && round % 2 == 1;
        let rotation = if spans.enabled() { round / 2 } else { round };
        let round_start = Instant::now();
        let (mut insts, mut busy) = (0u64, 0.0f64);
        for (i, cell) in plans[rotation % cells::ROTATION].iter().enumerate() {
            let run = run_cell(&workloads[&cell.workload], &cell.config);
            let ok = pins.matches(&cell.id, run.digest);
            out.absorb(1, u64::from(!ok));
            if !ok {
                eprintln!(
                    "perfbench: {} report digest {:016x} does not match its pin",
                    cell.id, run.digest
                );
            }
            let secs = (run.end - run.start).as_secs_f64();
            latencies.push(secs * 1e3);
            busy += secs;
            insts += counted(kind, &run.report);
            if traced_round {
                let root = spans.record(0, "cell", &cell.id, run.start, run.end, 1);
                spans.record(root, "sim.run", &cell.id, run.start, run.ran, 1);
                spans.record(root, "sim.report_json", &cell.id, run.ran, run.end, 1);
            }
            // The replays and counts use the first rotation's traced
            // runs, so they repeat exactly whatever the host's speed.
            if traced_round && rotation % cells::ROTATION == 0 {
                replayed[i] = Some((cell.clone(), run));
            }
        }
        round_mips.push(insts as f64 / busy / 1e6);
        let round_s = round_start.elapsed().as_secs_f64();
        if traced_round {
            traced_round_s.push(round_s);
        } else {
            plain_round_s.push(round_s);
        }
        round += 1;
        // A traced run stops only after a traced round, so that both
        // halves ran the same rotations.
        let enough_rounds = !spans.enabled() || round.is_multiple_of(2);
        if started.elapsed() >= deadline && enough_rounds {
            break;
        }
    }

    if !spans.enabled() {
        out.set("mips", median(&round_mips));
        out.set("p50_ms", median(&latencies));
        out.set("p99_ms", quantile(&latencies, 0.99));
        out.set("setup_s", median(&setups));
        out.set("peak_rss_mb", crate::util::peak_rss_mb());
        return out;
    }

    // --- Traced run: layer replays over every cell's stream. ---
    let (cells, runs): (Vec<Cell>, Vec<CellRun>) = replayed
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .unzip();
    let mut costs = LayerCosts::default();
    let mut shares = CrateShares::default();
    let (mut timed, mut traversed) = (0.0, 0.0);
    for (cell, run) in cells.iter().zip(&runs) {
        let workload = &workloads[&cell.workload];
        let root = spans.record(0, "replay", &cell.id, Instant::now(), Instant::now(), 1);
        let (skip, n) = match kind {
            SimKind::Timing => (cell.skip, run.report.instructions),
            SimKind::Sampled => (0, SAMPLED_REPLAY),
        };
        let c = replay_cell(workload, &cell.config, skip, n, spans, root, &cell.id);
        spans.finish(root, Instant::now());
        let (ff, warmed, measured) = match &run.report.sampling {
            Some(s) if kind == SimKind::Sampled => {
                (s.fast_forwarded as f64, s.warmed as f64, s.measured as f64)
            }
            _ => (cell.skip as f64, 0.0, run.report.instructions as f64),
        };
        let run_ns = (run.ran - run.start).as_secs_f64() * 1e9;
        shares.add(&attribute(&c, run_ns, ff, warmed, measured));
        costs.add(&c);
        timed += measured;
        traversed += ff + warmed + measured;
    }

    let reports: Vec<&SimReport> = runs.iter().map(|r| &r.report).collect();
    let sampling_err = match kind {
        SimKind::Sampled => pinned_sampling_error(&cells, &reports, pins),
        SimKind::Timing => {
            let programs: Vec<&Workload> = cells::TIMING_WORKLOADS
                .iter()
                .map(|w| &workloads[w])
                .collect();
            layers::sampling_error(&programs)
        }
    };
    let jobs: Vec<(WorkloadId, &str)> = cells.iter().map(|c| (c.workload, c.preset)).collect();
    let probe = crate::service::probe(&jobs, spans);
    out.absorb(probe.attempted, probe.failed);

    let report_json_us: Vec<f64> = runs
        .iter()
        .map(|r| (r.end - r.ran).as_secs_f64() * 1e6)
        .collect();
    let run_s: Vec<f64> = runs
        .iter()
        .map(|r| (r.ran - r.start).as_secs_f64())
        .collect();
    let plain: f64 = plain_round_s.iter().sum();
    let traced: f64 = traced_round_s.iter().sum();
    layers::set(
        &mut out,
        &Layers {
            costs,
            shares,
            timed_insts: timed,
            reports,
            run_s,
            report_json_us,
            build_ms: median(&builds),
            timed_fraction: crate::util::ratio(timed, traversed),
            sampling_err,
            serve: probe.figures,
            serve_layers: probe.layers,
            overhead_pct: (traced / plain - 1.0) * 100.0,
        },
    );
    out
}

/// Mean relative error (%) of the sampled cells' fetch rate and
/// conditional mispredict rate against their pinned full-timing
/// references.
fn pinned_sampling_error(cells: &[Cell], reports: &[&SimReport], pins: &Pins) -> (f64, f64) {
    let mut fetch = Vec::new();
    let mut mispredict = Vec::new();
    for (cell, report) in cells.iter().zip(reports) {
        let Some(r) = pins.reference(cell.workload.name()) else {
            continue;
        };
        fetch.push(layers::rel_err_pct(
            report.effective_fetch_rate(),
            r.fetch_rate,
        ));
        mispredict.push(layers::rel_err_pct(
            report.cond_mispredict_rate(),
            r.mispredict_rate,
        ));
    }
    (crate::util::mean(&fetch), crate::util::mean(&mispredict))
}
