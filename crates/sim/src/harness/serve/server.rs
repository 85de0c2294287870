//! The `tw serve` daemon: accept loop, router, worker pool, and
//! graceful shutdown.
//!
//! One thread per connection reads a single request (bounded by
//! [`HttpLimits`]), routes it, and answers; simulation jobs go through
//! the single-flight [`ResultCache`] and the bounded [`JobQueue`] to a
//! fixed pool of worker threads. Every failure path — malformed HTTP,
//! bad JSON, a full queue, even a panicking job — turns into a
//! structured JSON error with the right status code; the daemon itself
//! never panics and never grows without bound.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tc_fault::chaos::IoFaultPlan;
use tc_workloads::{Workload, WorkloadId};

use crate::config::SimConfig;
use crate::processor::Processor;

use crate::harness::analyze::{build_plan, plan_to_json};
use crate::harness::error::TwError;
use crate::harness::json::{report_to_json, reports_to_json, trace_summary_to_json, Value};
use crate::harness::registry;
use crate::harness::runner::run_matrix;
use crate::harness::trace::{chrome_trace_json, run_traced, timeline_to_json, TraceOptions};

use super::cache::{Lookup, ResultCache};
use super::disk::DiskTier;
use super::http::{read_request, write_response, HttpError, HttpLimits, Request, Response};
use super::queue::JobQueue;
use super::wire::{
    error_body, error_status, parse_job, JobKind, JobLimits, JobSpec, StoredError, WIRE_SCHEMA,
};

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Most jobs queued before pushes shed with 503.
    pub queue_depth: usize,
    /// Most cached result bodies resident at once.
    pub cache_entries: usize,
    /// Most simultaneous connections before new ones shed with 503.
    pub max_conns: usize,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Largest accepted per-job `insts`.
    pub max_insts: u64,
    /// `insts` when a job omits it.
    pub default_insts: u64,
    /// Directory for the persistent cache tier (`--cache-dir`);
    /// `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Most entry files the persistent tier keeps before sweeping the
    /// oldest.
    pub cache_disk_entries: usize,
    /// Per-connection socket read deadline.
    pub read_timeout: Duration,
    /// Per-connection socket write deadline.
    pub write_timeout: Duration,
    /// Injected persistent-tier store failures (degraded-mode tests).
    pub disk_faults: IoFaultPlan,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: crate::harness::runner::default_jobs(),
            queue_depth: 256,
            cache_entries: 512,
            max_conns: 256,
            max_body: 1024 * 1024,
            max_insts: 100_000_000,
            default_insts: 2_000_000,
            cache_dir: None,
            cache_disk_entries: 65_536,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
            disk_faults: IoFaultPlan::none(),
        }
    }
}

/// End-of-run accounting, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Requests answered (all routes, all statuses).
    pub requests: u64,
    /// Responses in the 4xx class.
    pub client_errors: u64,
    /// Responses in the 5xx class.
    pub server_errors: u64,
    /// Jobs whose execution panicked (answered as 500s).
    pub job_panics: u64,
    /// Connections shed at the accept gate.
    pub conns_shed: u64,
}

/// One queued unit of work: the validated spec plus its cache key.
struct Job {
    spec: JobSpec,
    key: String,
}

/// State shared by the accept loop, connection handlers, and workers.
struct ServeState {
    config: ServeConfig,
    /// The resolved bound address (`:0` resolved to the real port);
    /// used by the shutdown path to wake the accept loop.
    bound: SocketAddr,
    queue: JobQueue<Job>,
    cache: ResultCache,
    /// The persistent tier, when `--cache-dir` is set.
    disk: Option<DiskTier>,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    requests: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
    job_panics: AtomicU64,
    conns_shed: AtomicU64,
    /// Socket deadline arms that failed (logged once, counted here).
    deadline_errors: AtomicU64,
    deadline_logged: AtomicBool,
    /// Workloads are immutable once built; build each at most once and
    /// share it across jobs.
    workloads: Mutex<HashMap<&'static str, Arc<Workload>>>,
}

impl ServeState {
    fn workload(&self, bench: WorkloadId) -> Arc<Workload> {
        // Build outside the lock would race duplicate builds; builds
        // are fast (program assembly, no simulation), so holding the
        // lock across the miss is the simpler correct choice.
        let mut map = match self.workloads.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Arc::clone(
            map.entry(bench.name())
                .or_insert_with(|| Arc::new(bench.build())),
        )
    }

    fn job_limits(&self) -> JobLimits {
        JobLimits {
            max_insts: self.config.max_insts,
            default_insts: self.config.default_insts,
        }
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the listener. The server is not serving until
    /// [`Server::run`] is called.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskTier::open_with(
                dir,
                config.cache_disk_entries,
                config.disk_faults,
            )?),
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        let bound = listener.local_addr()?;
        let state = Arc::new(ServeState {
            bound,
            queue: JobQueue::new(config.workers.clamp(1, 16), config.queue_depth),
            cache: ResultCache::new(config.cache_entries),
            disk,
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            job_panics: AtomicU64::new(0),
            conns_shed: AtomicU64::new(0),
            deadline_errors: AtomicU64::new(0),
            deadline_logged: AtomicBool::new(false),
            workloads: Mutex::new(HashMap::new()),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves `:0` to the real port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `POST /v1/shutdown` arrives, then drains: open
    /// connections finish, queued jobs complete, workers exit.
    #[must_use]
    pub fn run(self) -> ServeSummary {
        let state = &self.state;
        let workers: Vec<_> = (0..state.config.workers.max(1))
            .map(|home| {
                let state = Arc::clone(state);
                std::thread::spawn(move || worker_loop(&state, home))
            })
            .collect();

        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if state.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Opportunistically reap finished handlers so the handle
            // list tracks live connections, not connection history.
            handlers.retain(|h| !h.is_finished());
            let active = state.active_conns.fetch_add(1, Ordering::AcqRel);
            if active >= state.config.max_conns {
                state.active_conns.fetch_sub(1, Ordering::AcqRel);
                state.conns_shed.fetch_add(1, Ordering::Relaxed);
                shed_connection(stream, state);
                continue;
            }
            let state = Arc::clone(state);
            handlers.push(std::thread::spawn(move || {
                // A panicking handler must not take the daemon down;
                // the connection just drops.
                let _ = catch_unwind(AssertUnwindSafe(|| handle_connection(stream, &state)));
                state.active_conns.fetch_sub(1, Ordering::AcqRel);
            }));
        }

        // Drain: finish open connections (their queued jobs are served
        // by the still-running workers), then retire the workers.
        for h in handlers {
            let _ = h.join();
        }
        state.queue.close();
        for w in workers {
            let _ = w.join();
        }
        ServeSummary {
            requests: state.requests.load(Ordering::Relaxed),
            client_errors: state.client_errors.load(Ordering::Relaxed),
            server_errors: state.server_errors.load(Ordering::Relaxed),
            job_panics: state.job_panics.load(Ordering::Relaxed),
            conns_shed: state.conns_shed.load(Ordering::Relaxed),
        }
    }
}

/// Records a failed socket-deadline arm: logged to stderr once per
/// process (not per connection), counted in `/v1/stats` every time.
/// A connection whose deadline did not arm still gets served — but an
/// operator can see the regression instead of it being swallowed.
fn note_deadline_failure(state: &ServeState, what: &str, result: std::io::Result<()>) {
    if let Err(e) = result {
        state.deadline_errors.fetch_add(1, Ordering::Relaxed);
        if !state.deadline_logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "tw serve: failed to arm {what} deadline ({e}); \
                 counting further failures in /v1/stats"
            );
        }
    }
}

/// Answers an over-capacity connection with a 503 without spawning a
/// handler for it.
fn shed_connection(mut stream: TcpStream, state: &ServeState) {
    note_deadline_failure(
        state,
        "shed-write",
        stream.set_write_timeout(Some(Duration::from_secs(2))),
    );
    let response = Response::json(
        503,
        error_body(503, "connection limit reached; retry shortly"),
    )
    .with_header("X-Cache", "shed");
    count_response(state, response.status);
    let _ = write_response(&mut stream, &response);
}

fn count_response(state: &ServeState, status: u16) {
    state.requests.fetch_add(1, Ordering::Relaxed);
    if (400..500).contains(&status) {
        state.client_errors.fetch_add(1, Ordering::Relaxed);
    } else if status >= 500 {
        state.server_errors.fetch_add(1, Ordering::Relaxed);
    }
}

fn handle_connection(stream: TcpStream, state: &ServeState) {
    note_deadline_failure(
        state,
        "read",
        stream.set_read_timeout(Some(state.config.read_timeout)),
    );
    note_deadline_failure(
        state,
        "write",
        stream.set_write_timeout(Some(state.config.write_timeout)),
    );
    let limits = HttpLimits {
        max_body: state.config.max_body,
        ..HttpLimits::default()
    };
    let mut reader = BufReader::new(stream);
    let (response, rejected) = match read_request(&mut reader, &limits) {
        Ok(request) => (route(&request, state), false),
        // Nothing arrived, or the socket died: nobody to answer.
        Err(HttpError::Closed | HttpError::Io(_)) => return,
        Err(HttpError::Malformed { status, reason }) => {
            (Response::json(status, error_body(status, &reason)), true)
        }
    };
    count_response(state, response.status);
    let mut stream = reader.into_inner();
    let _ = write_response(&mut stream, &response);
    let _ = stream.flush();
    if rejected {
        linger(&mut stream);
    }
}

/// How long a rejected connection is drained before it is closed.
const LINGER: Duration = Duration::from_secs(2);

/// Half-closes a connection whose request was rejected unread (an
/// oversized body, say) and drains what the peer is still sending.
/// Closing with input unread makes the kernel reset the connection,
/// which can destroy the response before the client reads it.
fn linger(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut buf = [0u8; 8192];
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn route(request: &Request, state: &ServeState) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Response::json(
            200,
            Value::object([
                ("schema", Value::Str(WIRE_SCHEMA.to_string())),
                ("ok", Value::Bool(true)),
            ])
            .render(),
        ),
        ("GET", "/v1/stats") => Response::json(200, stats_body(state)),
        ("GET", "/v1/presets") => Response::json(200, presets_body()),
        ("GET", "/v1/workloads") => Response::json(200, workloads_body()),
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            // The accept loop is parked in `accept`; a throwaway
            // connection to ourselves wakes it to observe the flag.
            let _ = TcpStream::connect_timeout(&state.bound, Duration::from_secs(2));
            Response::json(
                200,
                Value::object([
                    ("schema", Value::Str(WIRE_SCHEMA.to_string())),
                    ("ok", Value::Bool(true)),
                    (
                        "draining",
                        Value::UInt(u64::try_from(state.queue.stats().depth).unwrap_or(u64::MAX)),
                    ),
                ])
                .render(),
            )
        }
        ("POST", "/v1/sim") => job_response(JobKind::Sim, request, state),
        ("POST", "/v1/compare") => job_response(JobKind::Compare, request, state),
        ("POST", "/v1/faults") => job_response(JobKind::Faults, request, state),
        ("POST", "/v1/trace") => job_response(JobKind::Trace, request, state),
        ("POST", "/v1/analyze") => job_response(JobKind::Analyze, request, state),
        (
            _,
            "/healthz" | "/v1/stats" | "/v1/presets" | "/v1/workloads" | "/v1/shutdown" | "/v1/sim"
            | "/v1/compare" | "/v1/faults" | "/v1/trace" | "/v1/analyze",
        ) => Response::json(
            405,
            error_body(405, &format!("{} does not accept {}", path, request.method)),
        ),
        _ => Response::json(404, error_body(404, &format!("no route {path:?}"))),
    }
}

fn job_response(kind: JobKind, request: &Request, state: &ServeState) -> Response {
    let spec = match parse_job(kind, &request.body, &state.job_limits()) {
        Ok(spec) => spec,
        Err(e) => {
            let status = error_status(&e);
            return Response::json(status, error_body(status, e.message()));
        }
    };
    let key = spec.cache_key();
    let hash = spec.key_hash();
    match state.cache.lookup(&key) {
        Lookup::Hit(body) => ok_cached(&body, "hit", &hash),
        Lookup::Join => match state.cache.wait(&key) {
            Ok(body) => ok_cached(&body, "join", &hash),
            Err(e) => Response::json(e.status, error_body(e.status, &e.message))
                .with_header("X-Cache", "join"),
        },
        Lookup::Owner => {
            // The single-flight slot is held; probe the persistent tier
            // before paying for a simulation. A valid entry fulfills
            // the slot (joiners get the same bytes) without touching
            // the queue.
            if let Some(disk) = &state.disk {
                if let Some(body) = disk.load(&key) {
                    let body = Arc::new(body);
                    state.cache.fulfill(&key, Arc::clone(&body));
                    return ok_cached(&body, "disk", &hash);
                }
            }
            if state.shutdown.load(Ordering::Acquire) {
                let e = StoredError {
                    status: 503,
                    message: "server is draining".to_string(),
                };
                state.cache.fail(&key, e.clone());
                return Response::json(e.status, error_body(e.status, &e.message));
            }
            if state
                .queue
                .push(Job {
                    spec,
                    key: key.clone(),
                })
                .is_err()
            {
                let e = StoredError {
                    status: 503,
                    message: "job queue is full; retry shortly".to_string(),
                };
                state.cache.fail(&key, e.clone());
                return Response::json(e.status, error_body(e.status, &e.message))
                    .with_header("X-Cache", "shed");
            }
            match state.cache.wait(&key) {
                Ok(body) => ok_cached(&body, "miss", &hash),
                Err(e) => Response::json(e.status, error_body(e.status, &e.message))
                    .with_header("X-Cache", "miss"),
            }
        }
    }
}

fn ok_cached(body: &Arc<String>, disposition: &'static str, hash: &str) -> Response {
    Response::json(200, String::clone(body))
        .with_header("X-Cache", disposition)
        .with_header("X-Key", hash.to_string())
}

fn worker_loop(state: &ServeState, home: usize) {
    while let Some(job) = state.queue.pop(home) {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(state, &job.spec)));
        match outcome {
            Ok(Ok(body)) => {
                // Persist before publishing: once a client can see the
                // body, a crash must not lose it.
                if let Some(disk) = &state.disk {
                    disk.store(&job.key, &body);
                }
                state.cache.fulfill(&job.key, Arc::new(body));
            }
            Ok(Err(e)) => state.cache.fail(
                &job.key,
                StoredError {
                    status: error_status(&e),
                    message: e.message().to_string(),
                },
            ),
            Err(_panic) => {
                state.job_panics.fetch_add(1, Ordering::Relaxed);
                state.cache.fail(
                    &job.key,
                    StoredError {
                        status: 500,
                        message: "internal error: job panicked".to_string(),
                    },
                );
            }
        }
    }
}

fn preset_config(spec: &JobSpec) -> Result<SimConfig, TwError> {
    registry::lookup(spec.preset)
        .ok_or_else(|| TwError::runtime(format!("registry is missing {:?}", spec.preset)))
}

fn envelope(kind: JobKind, spec: &JobSpec, fields: Vec<(&'static str, Value)>) -> String {
    let mut members = vec![
        ("schema", Value::Str(WIRE_SCHEMA.to_string())),
        ("kind", Value::Str(kind.name().to_string())),
        ("key", Value::Str(spec.key_hash())),
    ];
    members.extend(fields);
    Value::object(members).render()
}

/// Executes one validated job. Runs on a worker thread; any panic is
/// caught by the caller and reported as a 500.
fn run_job(state: &ServeState, spec: &JobSpec) -> Result<String, TwError> {
    let workload = state.workload(spec.bench);
    match spec.kind {
        JobKind::Sim => {
            let mut config = preset_config(spec)?.with_max_insts(spec.insts);
            if spec.perfect {
                config = config.with_perfect_disambiguation();
            }
            if spec.auto_plan {
                // Worker threads are the parallelism; the plan profiler
                // runs serially within one.
                config = config.with_promotion_plan(build_plan(&workload, spec.insts, 1)?);
            }
            if spec.timeline {
                let options = TraceOptions {
                    filter: tc_trace::EventFilter::none(),
                    interval: Some(crate::harness::trace::DEFAULT_TRACE_INTERVAL),
                    limit: 0,
                };
                let run = run_traced(config, &workload, &options);
                let timeline = run.timeline.as_ref().map_or(Value::Null, timeline_to_json);
                return Ok(envelope(
                    spec.kind,
                    spec,
                    vec![
                        ("report", report_to_json(&run.report)),
                        ("timeline", timeline),
                    ],
                ));
            }
            let report = Processor::new(config).run(&workload);
            Ok(envelope(
                spec.kind,
                spec,
                vec![("report", report_to_json(&report))],
            ))
        }
        JobKind::Compare => {
            let cells: Vec<(WorkloadId, SimConfig)> = registry::standard_five()
                .into_iter()
                .map(|(_, config)| {
                    let config = if spec.perfect {
                        config.with_perfect_disambiguation()
                    } else {
                        config
                    };
                    (spec.bench, config.with_max_insts(spec.insts))
                })
                .collect();
            // Serial within the job: the worker pool is the fan-out.
            let reports = run_matrix(&cells, 1);
            let configs = Value::Array(
                registry::STANDARD_FIVE
                    .iter()
                    .map(|name| Value::Str((*name).to_string()))
                    .collect(),
            );
            Ok(envelope(
                spec.kind,
                spec,
                vec![("configs", configs), ("reports", reports_to_json(&reports))],
            ))
        }
        JobKind::Faults => {
            let fault = spec
                .fault
                .as_ref()
                .ok_or_else(|| TwError::runtime("internal error: faults job without a plan"))?;
            let config = preset_config(spec)?
                .with_max_insts(spec.insts)
                .with_fault_plan(fault.plan());
            let report = Processor::new(config).run(&workload);
            Ok(envelope(
                spec.kind,
                spec,
                vec![("report", report_to_json(&report))],
            ))
        }
        JobKind::Trace => {
            let trace = spec
                .trace
                .as_ref()
                .ok_or_else(|| TwError::runtime("internal error: trace job without options"))?;
            let options = TraceOptions {
                filter: trace.filter(),
                interval: Some(trace.interval),
                limit: trace.limit,
            };
            let config = preset_config(spec)?.with_max_insts(spec.insts);
            let run = run_traced(config, &workload, &options);
            Ok(envelope(
                spec.kind,
                spec,
                vec![
                    ("summary", trace_summary_to_json(&run.summary)),
                    ("chrome_trace", chrome_trace_json(&run)),
                ],
            ))
        }
        JobKind::Analyze => {
            let plan = build_plan(&workload, spec.insts, 1)?;
            Ok(envelope(
                spec.kind,
                spec,
                vec![("plan", plan_to_json(&plan))],
            ))
        }
    }
}

fn stats_body(state: &ServeState) -> String {
    let queue = state.queue.stats();
    let cache = state.cache.stats();
    Value::object([
        ("schema", Value::Str(WIRE_SCHEMA.to_string())),
        (
            "requests",
            Value::UInt(state.requests.load(Ordering::Relaxed)),
        ),
        (
            "active_conns",
            Value::UInt(
                u64::try_from(state.active_conns.load(Ordering::Relaxed)).unwrap_or(u64::MAX),
            ),
        ),
        (
            "client_errors",
            Value::UInt(state.client_errors.load(Ordering::Relaxed)),
        ),
        (
            "server_errors",
            Value::UInt(state.server_errors.load(Ordering::Relaxed)),
        ),
        (
            "job_panics",
            Value::UInt(state.job_panics.load(Ordering::Relaxed)),
        ),
        (
            "conns_shed",
            Value::UInt(state.conns_shed.load(Ordering::Relaxed)),
        ),
        (
            "deadline_errors",
            Value::UInt(state.deadline_errors.load(Ordering::Relaxed)),
        ),
        (
            "queue",
            Value::object([
                ("pushed", Value::UInt(queue.pushed)),
                ("shed", Value::UInt(queue.shed)),
                ("stolen", Value::UInt(queue.stolen)),
                (
                    "depth",
                    Value::UInt(u64::try_from(queue.depth).unwrap_or(u64::MAX)),
                ),
            ]),
        ),
        (
            "cache",
            Value::object([
                ("hits", Value::UInt(cache.hits)),
                ("joined", Value::UInt(cache.joined)),
                ("computed", Value::UInt(cache.computed)),
                ("evicted", Value::UInt(cache.evicted)),
                (
                    "entries",
                    Value::UInt(u64::try_from(cache.entries).unwrap_or(u64::MAX)),
                ),
            ]),
        ),
        (
            "disk",
            match &state.disk {
                None => Value::Null,
                Some(disk) => {
                    let d = disk.stats();
                    Value::object([
                        ("scanned", Value::UInt(d.scanned)),
                        ("entries", Value::UInt(d.entries)),
                        ("hits", Value::UInt(d.hits)),
                        ("stored", Value::UInt(d.stored)),
                        ("store_errors", Value::UInt(d.store_errors)),
                        ("quarantined", Value::UInt(d.quarantined)),
                        ("evicted", Value::UInt(d.evicted)),
                        ("degraded", Value::Bool(d.degraded)),
                    ])
                }
            },
        ),
    ])
    .render()
}

fn presets_body() -> String {
    Value::object([
        ("schema", Value::Str(WIRE_SCHEMA.to_string())),
        (
            "presets",
            Value::Array(
                registry::presets()
                    .iter()
                    .map(|p| {
                        Value::object([
                            ("name", Value::Str(p.name.to_string())),
                            (
                                "aliases",
                                Value::Array(
                                    p.aliases
                                        .iter()
                                        .map(|a| Value::Str((*a).to_string()))
                                        .collect(),
                                ),
                            ),
                            ("summary", Value::Str(p.summary.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

fn workloads_body() -> String {
    Value::object([
        ("schema", Value::Str(WIRE_SCHEMA.to_string())),
        (
            "workloads",
            Value::Array(
                WorkloadId::all()
                    .into_iter()
                    .map(|b| {
                        Value::object([
                            ("name", Value::Str(b.name().to_string())),
                            ("short", Value::Str(b.short_name().to_string())),
                            ("family", Value::Str(b.family().to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}
