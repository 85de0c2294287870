//! The `serve` workload run, and the serve probe that gives the
//! `timing` and `sampled` traced runs their serve-layer figures for
//! their own jobs.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tc_sim::harness::serve::JobKind;
use tc_sim::{SimConfig, SimReport};
use tc_workloads::{Workload, WorkloadId};

use crate::layers::{self, Layers};
use crate::metrics::Outcome;
use crate::pins::Pins;
use crate::replay::{attribute, replay_cell, CrateShares, LayerCosts};
use crate::serve::{
    compute, drive, figures, hit_requests, miss_pool, record_phases, replay_serve_layers, schedule,
    windowed, Class, Expect, Request, Running, Sample, Scheduled, ServeFigures, ServeLayers,
};
use crate::spans::Spans;
use crate::util::{median, ratio};
use crate::Options;

/// Server set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Miss jobs recomputed in-process by a traced run.
const COMPUTE_SAMPLES: usize = 6;
/// The window the end-to-end serve figures are taken over.
const WINDOW: Duration = Duration::from_secs(1);
/// Replay rounds of the serve-layer replays.
const LAYER_ROUNDS: usize = 200;
/// The probe's request rate and job budget.
const PROBE_RATE: f64 = 40.0;
const PROBE_INSTS: u64 = 20_000;

fn failures(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| !s.ok).count() as u64
}

/// Pairs each request with the 200 body the server sent for it, for
/// the layer replays; requests without one are left out.
fn with_bodies(
    requests: &[Arc<Request>],
    bodies: &HashMap<String, String>,
) -> Vec<(Arc<Request>, String)> {
    requests
        .iter()
        .filter_map(|r| Some((Arc::clone(r), bodies.get(&r.id())?.clone())))
        .collect()
}

/// What a probe measured.
pub struct Probe {
    pub figures: ServeFigures,
    pub layers: ServeLayers,
    pub attempted: u64,
    pub failed: u64,
}

/// Serves each distinct (workload, preset) of `jobs` as a small `sim`
/// request, then again as a hit, with a malformed request after every
/// fourth job, on a fresh server; every request is traced.
pub fn probe(jobs: &[(WorkloadId, &str)], spans: &mut Spans) -> Probe {
    let mut distinct: Vec<(WorkloadId, &str)> = jobs.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let requests: Vec<Arc<Request>> = distinct
        .iter()
        .map(|(w, p)| {
            Arc::new(Request::job(
                Class::Miss,
                JobKind::Sim,
                w.name(),
                Some(p),
                PROBE_INSTS,
            ))
        })
        .collect();
    let mut stream = Vec::new();
    let due = |n: usize| Duration::from_secs_f64(n as f64 / PROBE_RATE);
    for (i, r) in requests.iter().enumerate() {
        let mut hit = Request::clone(r);
        hit.class = Class::Hit;
        for (request, expect) in [
            (Arc::clone(r), Expect::Ok(None)),
            (Arc::new(hit), Expect::Ok(None)),
        ] {
            stream.push(Scheduled {
                due: due(stream.len()),
                request,
                expect,
            });
        }
        if i % 4 == 3 {
            stream.push(Scheduled {
                due: due(stream.len()),
                request: Arc::new(Request {
                    class: Class::Malformed,
                    path: "/v1/sim",
                    body: "{\"bench\":".to_string(),
                    insts: 0,
                }),
                expect: Expect::ClientError,
            });
        }
    }
    let server = Running::start();
    let driven = drive(server.addr, vec![stream], Some(Duration::ZERO));
    let stats = server.stats();
    server.stop();
    record_phases(spans, driven.phases);
    let samples = driven.samples;

    let computed = computed_pairs(&samples, &requests, COMPUTE_SAMPLES);
    let bodies = with_bodies(&requests, &driven.bodies);
    Probe {
        figures: figures(&samples, stats, &computed),
        layers: replay_serve_layers(&bodies, LAYER_ROUNDS, spans, "probe"),
        attempted: samples.len() as u64,
        failed: failures(&samples),
    }
}

/// (server ms, in-process compute ms) for up to `n` miss samples. The
/// probe sends its misses in `requests` order, so the k-th miss sample
/// is the k-th request.
fn computed_pairs(samples: &[Sample], requests: &[Arc<Request>], n: usize) -> Vec<(f64, f64)> {
    samples
        .iter()
        .filter(|s| s.class == Class::Miss)
        .zip(requests)
        .take(n)
        .map(|(s, r)| (s.server_ms(), crate::util::ms(compute(r).0)))
        .collect()
}

/// Runs the `serve` workload.
///
/// # Panics
///
/// Panics when loopback cannot be bound.
pub fn run(opts: &Options, pins: &Pins, spans: &mut Spans) -> Outcome {
    let hits: Vec<Arc<Request>> = hit_requests().into_iter().map(Arc::new).collect();
    let pool: Vec<Arc<Request>> = miss_pool().into_iter().map(Arc::new).collect();
    let pin = |r: &Request| pins.digest(&r.id());
    let mut out = Outcome::default();

    // Set-up: bind, start and pre-compute every hit key, several times
    // over; the last server is the one measured.
    let mut setups = Vec::new();
    let mut running = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let server = Running::start();
        let warm: Vec<Scheduled> = hits
            .iter()
            .map(|h| Scheduled {
                due: Duration::ZERO,
                request: Arc::clone(h),
                expect: Expect::Ok(pin(h)),
            })
            .collect();
        let driven = drive(server.addr, vec![warm], None);
        setups.push(start.elapsed().as_secs_f64());
        out.absorb(driven.samples.len() as u64, failures(&driven.samples));
        if rep + 1 < SETUP_REPS {
            server.stop();
        } else {
            running = Some((server, driven.bodies));
        }
    }
    let (server, hit_bodies) = running.expect("at least one set-up");

    // Traced runs trace the second half; the first half is the
    // untraced baseline for the overhead figure.
    let half = Duration::from_secs_f64(opts.seconds / 2.0);
    let trace_from = spans.enabled().then_some(half);
    let streams = schedule(opts.seed, opts.seconds, &hits, &pool, &pin);
    let miss_stream: Vec<Arc<Request>> =
        streams[1].iter().map(|x| Arc::clone(&x.request)).collect();
    let driven = drive(server.addr, streams, trace_from);
    let stats = server.stats();
    server.stop();
    let samples = driven.samples;
    out.absorb(samples.len() as u64, failures(&samples));

    if !spans.enabled() {
        let (p50, p99, mips) = windowed(&samples, WINDOW);
        out.set("mips", mips);
        out.set("p50_ms", p50);
        out.set("p99_ms", p99);
        out.set("setup_s", median(&setups));
        out.set("peak_rss_mb", crate::util::peak_rss_mb());
        return out;
    }

    record_phases(spans, driven.phases);
    let epoch = samples
        .iter()
        .map(|s| s.due)
        .min()
        .unwrap_or_else(Instant::now);
    let (first, second): (Vec<&Sample>, Vec<&Sample>) = samples
        .iter()
        .partition(|s| s.due.saturating_duration_since(epoch) < half);
    let p50 = |v: &[&Sample]| median(&v.iter().map(|s| s.latency_ms()).collect::<Vec<_>>());
    let overhead_pct = (p50(&second) / p50(&first) - 1.0) * 100.0;

    // In-process recomputation of traced miss jobs: compute time, the
    // reports' counts and the simulator-layer replays.
    let traced_misses: Vec<(&Sample, &Arc<Request>)> = samples
        .iter()
        .filter(|s| s.class == Class::Miss && s.due.saturating_duration_since(epoch) >= half)
        .map(|s| (s, &miss_stream[s.seq]))
        .take(COMPUTE_SAMPLES)
        .collect();
    let mut computed = Vec::new();
    let mut reports: Vec<SimReport> = Vec::new();
    let mut costs = LayerCosts::default();
    let mut shares = CrateShares::default();
    let mut run_s = Vec::new();
    let mut builds = Vec::new();
    let mut programs: Vec<Workload> = Vec::new();
    for (sample, request) in &traced_misses {
        let (took, report) = compute(request);
        computed.push((sample.server_ms(), crate::util::ms(took)));
        let Some(report) = report else { continue };
        let (workload, config) = sim_job(request, &mut builds);
        let op = request.id();
        let root = spans.record(0, "replay", &op, Instant::now(), Instant::now(), 1);
        let c = replay_cell(&workload, &config, 0, report.instructions, spans, root, &op);
        spans.finish(root, Instant::now());
        let insts = report.instructions as f64;
        shares.add(&attribute(&c, took.as_secs_f64() * 1e9, 0.0, 0.0, insts));
        costs.add(&c);
        run_s.push(took.as_secs_f64());
        reports.push(report);
        if !programs.iter().any(|w| w.name() == workload.name()) {
            programs.push(workload);
        }
    }
    let sampling_err = layers::sampling_error(&programs.iter().collect::<Vec<_>>());
    let layer_bodies = with_bodies(&hits, &hit_bodies);
    let serve_layers = replay_serve_layers(&layer_bodies, LAYER_ROUNDS, spans, "serve");
    let timed: f64 = reports.iter().map(|r| r.instructions as f64).sum();
    let report_refs: Vec<&SimReport> = reports.iter().collect();
    layers::set(
        &mut out,
        &Layers {
            costs,
            shares,
            timed_insts: timed,
            reports: report_refs,
            run_s,
            report_json_us: vec![report_json_us(&reports)],
            build_ms: median(&builds),
            timed_fraction: 1.0,
            sampling_err,
            serve: figures(&samples, stats, &computed),
            serve_layers,
            overhead_pct,
        },
    );
    out
}

/// The workload (timing its build) and configuration a `sim` job runs.
fn sim_job(request: &Request, builds: &mut Vec<f64>) -> (Workload, SimConfig) {
    let spec = request.spec();
    let start = Instant::now();
    let workload = spec.bench.build();
    builds.push(crate::util::ms(start.elapsed()));
    (workload, crate::serve::job_config(&spec))
}

/// Mean microseconds `report_to_json` takes over `reports`.
fn report_json_us(reports: &[SimReport]) -> f64 {
    let start = Instant::now();
    for r in reports {
        std::hint::black_box(tc_sim::harness::report_to_json(r).render());
    }
    ratio(start.elapsed().as_secs_f64() * 1e6, reports.len() as f64)
}
