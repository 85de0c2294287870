//! The `serve` workload: an in-process `Server` on loopback driven
//! open-loop, plus the serve-layer replays of the traced run.
//!
//! Two client threads each issue their own stream at a fixed rate with
//! seeded jitter: a hit stream of pre-computed keys with a share of
//! malformed bodies, and a miss stream of distinct small `sim` and
//! `analyze` jobs. Each request is timed from when it was due, so a
//! stall also charges the requests queued behind it; how late the
//! generator ran is recorded separately.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tc_sim::harness::serve::http::{read_request, write_response, HttpLimits, Response};
use tc_sim::harness::serve::{
    parse_job, JobKind, JobLimits, JobQueue, JobSpec, Lookup, ResultCache,
};
use tc_sim::harness::{build_plan, parse_json, plan_to_json, report_to_json, ServeConfig, Server};
use tc_sim::{Processor, SimConfig, SimReport};
use tc_workloads::WorkloadId;

use crate::spans::Spans;
use crate::util::{digest, median, quantile, ratio, Rng};

/// Simulation worker threads of the server under test.
pub const WORKERS: usize = 2;
/// Mean latency of a miss-pool job sent back to back by one client:
/// `tw-perfbench service-time`, release build, on the 2-vCPU x86-64 VM
/// of the README's baseline.
pub const MISS_SERVICE_MS: f64 = 32.0;
/// Share of its time the miss client spends waiting on a response. It
/// sends one request at a time, so this is also the busy share of the
/// one worker its misses can occupy; much above half, the client falls
/// behind its schedule.
pub const MISS_CLIENT_LOAD: f64 = 0.5;
/// Requests per second of the miss stream.
pub const MISS_RATE: f64 = MISS_CLIENT_LOAD * 1e3 / MISS_SERVICE_MS;
/// Requests per second of the hit stream: 200 latency samples in each
/// 1 s window, so that a window's 99th percentile rests on two of them.
pub const HIT_RATE: f64 = 200.0;
/// Share of hit-stream requests sent with a malformed body: about ten
/// 4xx checks per window, too few to move the window's median.
pub const MALFORMED_SHARE: f64 = 0.05;
/// The longest run the miss pool covers without repeating a key.
pub const MAX_SECONDS: f64 = 60.0;

/// Pre-computed hit keys: one small `sim` job per (workload, preset).
const HIT_JOBS: [(&str, &str); 12] = [
    ("compress", "baseline"),
    ("gcc", "headline"),
    ("go", "icache"),
    ("li", "baseline"),
    ("perl", "headline"),
    ("vortex", "icache"),
    ("rv/qsort", "baseline"),
    ("rv/crc", "headline"),
    ("ijpeg", "icache"),
    ("m88ksim", "baseline"),
    ("tex", "headline"),
    ("rv/sieve", "icache"),
];
const HIT_INSTS: u64 = 30_000;

/// The miss pool draws `sim` jobs over every workload and these
/// presets and budgets, and `analyze` jobs over every workload and
/// [`ANALYZE_INSTS`]; hit keys use budgets outside both. The budgets
/// set the pool's mean job cost, [`MISS_SERVICE_MS`].
const MISS_PRESETS: [&str; 3] = ["icache", "baseline", "headline"];
const MISS_INSTS: [u64; 12] = [
    147_000, 151_000, 155_000, 159_000, 163_000, 167_000, 171_000, 175_000, 179_000, 183_000,
    187_000, 191_000,
];
const ANALYZE_INSTS: [u64; 4] = [250_000, 300_000, 350_000, 400_000];

/// Bodies that must be answered with a 4xx.
const MALFORMED: [(&str, &str); 5] = [
    ("/v1/sim", "{\"bench\":\"gcc\",\"insts\":"),
    ("/v1/sim", "{\"bench\":\"no-such-workload\"}"),
    ("/v1/sim", "{\"bench\":\"gcc\",\"bogus\":1}"),
    ("/v1/sim", "{\"bench\":\"gcc\",\"insts\":0}"),
    ("/v1/analyze", "[1,2,3]"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Miss,
    Malformed,
}

/// One request the generator can send.
#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    pub path: &'static str,
    pub body: String,
    /// The job's instruction budget (0 for malformed requests).
    pub insts: u64,
}

impl Request {
    #[must_use]
    pub fn job(
        class: Class,
        kind: JobKind,
        bench: &str,
        preset: Option<&str>,
        insts: u64,
    ) -> Request {
        let (path, body) = match (kind, preset) {
            (JobKind::Analyze, _) | (_, None) => (
                "/v1/analyze",
                format!("{{\"bench\":\"{bench}\",\"insts\":{insts}}}"),
            ),
            (_, Some(p)) => (
                "/v1/sim",
                format!("{{\"bench\":\"{bench}\",\"preset\":\"{p}\",\"insts\":{insts}}}"),
            ),
        };
        Request {
            class,
            path,
            body,
            insts,
        }
    }

    /// The id that keys the pinned body digest.
    #[must_use]
    pub fn id(&self) -> String {
        format!("serve {} {}", self.path, self.body)
    }

    /// The validated job, as the server parses it.
    ///
    /// # Panics
    ///
    /// Panics on a body the server would reject (a benchmark bug).
    #[must_use]
    pub fn spec(&self) -> JobSpec {
        let limits = JobLimits {
            max_insts: 100_000_000,
            default_insts: 2_000_000,
        };
        parse_job(self.kind(), self.body.as_bytes(), &limits).expect("valid job")
    }

    #[must_use]
    pub fn kind(&self) -> JobKind {
        if self.path == "/v1/analyze" {
            JobKind::Analyze
        } else {
            JobKind::Sim
        }
    }

    fn wire(&self) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
            self.path,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

#[must_use]
pub fn hit_requests() -> Vec<Request> {
    HIT_JOBS
        .iter()
        .map(|(b, p)| Request::job(Class::Hit, JobKind::Sim, b, Some(p), HIT_INSTS))
        .collect()
}

/// Every distinct miss job, in a fixed order.
#[must_use]
pub fn miss_pool() -> Vec<Request> {
    let mut pool = Vec::new();
    for w in WorkloadId::all() {
        for p in MISS_PRESETS {
            for n in MISS_INSTS {
                pool.push(Request::job(
                    Class::Miss,
                    JobKind::Sim,
                    w.name(),
                    Some(p),
                    n,
                ));
            }
        }
        for n in ANALYZE_INSTS {
            pool.push(Request::job(
                Class::Miss,
                JobKind::Analyze,
                w.name(),
                None,
                n,
            ));
        }
    }
    pool
}

fn malformed(i: usize) -> Request {
    let (path, body) = MALFORMED[i % MALFORMED.len()];
    Request {
        class: Class::Malformed,
        path,
        body: body.to_string(),
        insts: 0,
    }
}

/// A parsed response with client-side phase times.
#[derive(Debug, Clone)]
pub struct Sample {
    pub class: Class,
    /// Index of the request in its stream.
    pub seq: usize,
    pub due: Instant,
    pub sent_at: Instant,
    pub connected: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub done: Instant,
    pub digest: u64,
    pub ok: bool,
    pub insts: u64,
}

impl Sample {
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        crate::util::ms(self.done.saturating_duration_since(self.due))
    }

    #[must_use]
    pub fn lag_ms(&self) -> f64 {
        crate::util::ms(self.sent_at.saturating_duration_since(self.due))
    }

    /// From the request's last byte to the response's first.
    #[must_use]
    pub fn server_ms(&self) -> f64 {
        crate::util::ms(self.first_byte.saturating_duration_since(self.written))
    }
}

/// What a response must be for the request to count as served.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// 200 with this body digest; `None` accepts any body that matches
    /// every other 200 body of the same key.
    Ok(Option<u64>),
    ClientError,
}

/// Whether a response passes its check. 200 bodies of one key must be
/// bit-identical (tracked in `seen`) and match the pin when there is one.
#[must_use]
pub fn check(
    expect: Expect,
    id: &str,
    status: u16,
    body_digest: u64,
    seen: &mut HashMap<String, u64>,
) -> bool {
    match expect {
        Expect::ClientError => (400..500).contains(&status),
        Expect::Ok(pin) => {
            let first = *seen.entry(id.to_string()).or_insert(body_digest);
            status == 200 && first == body_digest && pin.is_none_or(|p| p == body_digest)
        }
    }
}

struct Reply {
    status: u16,
    body: Vec<u8>,
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut chunked = false;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.trim().eq_ignore_ascii_case("chunked");
        }
    }
    let rest = &raw[split + 4..];
    let body = if chunked {
        dechunk(rest)?
    } else {
        rest.to_vec()
    };
    Some(Reply { status, body })
}

fn dechunk(mut rest: &[u8]) -> Option<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let eol = rest.windows(2).position(|w| w == b"\r\n")?;
        let len = usize::from_str_radix(std::str::from_utf8(&rest[..eol]).ok()?.trim(), 16).ok()?;
        rest = &rest[eol + 2..];
        if len == 0 {
            return Some(body);
        }
        body.extend_from_slice(rest.get(..len)?);
        rest = rest.get(len + 2..)?;
    }
}

/// Sends one request on a fresh connection, recording phase times.
fn exchange(addr: SocketAddr, wire: &[u8]) -> (Instant, Instant, Instant, Option<Reply>) {
    let fail = |t: Instant| (t, t, t, None);
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return fail(Instant::now());
    };
    let connected = Instant::now();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    if stream.write_all(wire).is_err() {
        return fail(connected);
    }
    let written = Instant::now();
    let mut raw = Vec::with_capacity(16 * 1024);
    let mut buf = [0u8; 16 * 1024];
    let first = match stream.read(&mut buf) {
        Ok(n) if n > 0 => {
            raw.extend_from_slice(&buf[..n]);
            Instant::now()
        }
        _ => return (connected, written, Instant::now(), None),
    };
    if stream.read_to_end(&mut raw).is_err() {
        return (connected, written, first, None);
    }
    (connected, written, first, parse_reply(&raw))
}

/// One scheduled send: when it is due (from the stream's epoch), what
/// to send and what must come back.
#[derive(Debug, Clone)]
pub struct Scheduled {
    pub due: Duration,
    pub request: Arc<Request>,
    pub expect: Expect,
}

/// A client-side phase span, kept by the client thread until the run
/// ends.
pub type PhaseSpan = (&'static str, String, Instant, Instant);

/// What the client threads of [`drive`] brought back.
#[derive(Debug, Default)]
pub struct Driven {
    pub samples: Vec<Sample>,
    /// Phase spans of each traced request.
    pub phases: Vec<Vec<PhaseSpan>>,
    /// The 200 body of each hit key, by request id.
    pub bodies: HashMap<String, String>,
}

/// Drives each stream from its own thread, open-loop, and returns the
/// samples of all streams. Requests due at or after `trace_from` also
/// record their phase spans (request, connect, send, first byte, body).
#[must_use]
pub fn drive(
    addr: SocketAddr,
    streams: Vec<Vec<Scheduled>>,
    trace_from: Option<Duration>,
) -> Driven {
    let epoch = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut seen = HashMap::new();
                    let mut out = Vec::with_capacity(stream.len());
                    let mut traced = Vec::new();
                    let mut bodies = HashMap::new();
                    for (seq, s) in stream.iter().enumerate() {
                        let due = epoch + s.due;
                        let wire = s.request.wire();
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent_at = Instant::now();
                        let (connected, written, first_byte, reply) = exchange(addr, &wire);
                        let done = Instant::now();
                        let (status, body_digest) = reply
                            .as_ref()
                            .map_or((0, 0), |r| (r.status, digest(&r.body)));
                        let ok = reply.is_some()
                            && check(s.expect, &s.request.id(), status, body_digest, &mut seen);
                        if let (true, Class::Hit, Some(r)) = (ok, s.request.class, &reply) {
                            bodies
                                .entry(s.request.id())
                                .or_insert_with(|| String::from_utf8_lossy(&r.body).into_owned());
                        }
                        if !ok {
                            eprintln!(
                                "perfbench: serve check failed: {} {} -> status {status}",
                                s.request.path, s.request.body
                            );
                        }
                        if trace_from.is_some_and(|t| s.due >= t) {
                            let op = format!("{:?}-{seq}", s.request.class);
                            traced.push(vec![
                                ("request", op.clone(), due, done),
                                ("serve.connect", op.clone(), sent_at, connected),
                                ("serve.send", op.clone(), connected, written),
                                ("serve.first_byte", op.clone(), written, first_byte),
                                ("serve.body", op, first_byte, done),
                            ]);
                        }
                        out.push(Sample {
                            class: s.request.class,
                            seq,
                            due,
                            sent_at,
                            connected,
                            written,
                            first_byte,
                            done,
                            digest: body_digest,
                            ok,
                            insts: s.request.insts,
                        });
                    }
                    Driven {
                        samples: out,
                        phases: traced,
                        bodies,
                    }
                })
            })
            .collect();
        let mut all = Driven::default();
        for h in handles {
            let d = h.join().expect("client thread panicked");
            all.samples.extend(d.samples);
            all.phases.extend(d.phases);
            all.bodies.extend(d.bodies);
        }
        all
    })
}

/// Mean latency in ms of `jobs` miss-pool jobs, spread over the pool,
/// sent back to back by one client to a fresh server.
#[must_use]
pub fn service_time_ms(jobs: usize) -> f64 {
    let pool: Vec<Arc<Request>> = miss_pool().into_iter().map(Arc::new).collect();
    let step = (pool.len() / jobs.max(1)).max(1);
    let stream: Vec<Scheduled> = pool
        .iter()
        .step_by(step)
        .map(|r| Scheduled {
            due: Duration::ZERO,
            request: Arc::clone(r),
            expect: Expect::Ok(None),
        })
        .collect();
    let server = Running::start();
    let samples = drive(server.addr, vec![stream], None).samples;
    server.stop();
    let took: Vec<f64> = samples
        .iter()
        .map(|s| crate::util::ms(s.done.saturating_duration_since(s.sent_at)))
        .collect();
    crate::util::mean(&took)
}

/// Stores client-side phase spans: one root per request, its phases
/// as children.
pub fn record_phases(spans: &mut Spans, traced: Vec<Vec<PhaseSpan>>) {
    for phases in traced {
        let mut parent = 0;
        for (i, (name, op, start, end)) in phases.into_iter().enumerate() {
            let id = spans.record(if i == 0 { 0 } else { parent }, name, &op, start, end, 1);
            if i == 0 {
                parent = id;
            }
        }
    }
}

/// A running in-process server.
pub struct Running {
    pub addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl Running {
    /// Binds a memory-only server with [`WORKERS`] workers and starts it.
    ///
    /// # Panics
    ///
    /// Panics when loopback cannot be bound.
    #[must_use]
    pub fn start() -> Running {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue_depth: 256,
            cache_entries: 4096,
            max_conns: 64,
            cache_dir: None,
            ..ServeConfig::default()
        };
        let server = Server::bind(config).expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address");
        let thread = std::thread::spawn(move || {
            let _ = server.run();
        });
        Running { addr, thread }
    }

    /// `GET /v1/stats` as (cache hits, computed, joined, queue shed,
    /// conns shed).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let wire = b"GET /v1/stats HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n";
        let (_, _, _, reply) = exchange(self.addr, wire);
        let doc = reply
            .and_then(|r| String::from_utf8(r.body).ok())
            .and_then(|b| parse_json(&b).ok());
        let get = |a: &str, b: &str| {
            doc.as_ref()
                .and_then(|d| d.get(a))
                .and_then(|v| if b.is_empty() { Some(v) } else { v.get(b) })
                .and_then(tc_sim::harness::Value::as_f64)
                .unwrap_or(0.0)
        };
        ServerStats {
            hits: get("cache", "hits"),
            computed: get("cache", "computed"),
            joined: get("cache", "joined"),
            queue_shed: get("queue", "shed"),
            conns_shed: get("conns_shed", ""),
        }
    }

    /// Asks the server to drain and waits for it to exit.
    pub fn stop(self) {
        let wire = b"POST /v1/shutdown HTTP/1.1\r\nhost: bench\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
        let _ = exchange(self.addr, wire);
        let _ = self.thread.join();
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub hits: f64,
    pub computed: f64,
    pub joined: f64,
    pub queue_shed: f64,
    pub conns_shed: f64,
}

/// Host time per call of each serve layer, replayed in isolation over
/// the given requests and 200 bodies.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayers {
    pub http_read_us: f64,
    pub wire_parse_us: f64,
    pub cache_lookup_us: f64,
    pub queue_push_pop_us: f64,
    pub http_write_us: f64,
}

/// Replays `requests` (valid jobs) through `http::read_request`,
/// `wire::parse_job`, a filled `ResultCache`, a `JobQueue` and
/// `http::write_response`, `rounds` times each.
pub fn replay_serve_layers(
    requests: &[(Arc<Request>, String)],
    rounds: usize,
    spans: &mut Spans,
    op: &str,
) -> ServeLayers {
    let limits = HttpLimits::default();
    let wires: Vec<Vec<u8>> = requests.iter().map(|(r, _)| r.wire()).collect();
    let calls = (requests.len() * rounds) as u64;
    let per_call = |t: Duration| ratio(t.as_secs_f64() * 1e6, calls as f64);
    let mut span = |name: &'static str, start: Instant| {
        let end = Instant::now();
        spans.record(0, name, op, start, end, calls);
        per_call(end - start)
    };

    let start = Instant::now();
    for _ in 0..rounds {
        for w in &wires {
            let req = read_request(&mut BufReader::new(w.as_slice()), &limits);
            std::hint::black_box(req.is_ok());
        }
    }
    let http_read_us = span("serve.http_read", start);

    let start = Instant::now();
    let mut keys = Vec::new();
    for round in 0..rounds {
        for (r, _) in requests {
            let spec = r.spec();
            if round == 0 {
                keys.push(spec.cache_key());
            }
        }
    }
    let wire_parse_us = span("serve.wire_parse", start);

    let cache = ResultCache::new(4096);
    for (key, (_, body)) in keys.iter().zip(requests) {
        if matches!(cache.lookup(key), Lookup::Owner) {
            cache.fulfill(key, Arc::new(body.clone()));
        }
    }
    let start = Instant::now();
    for _ in 0..rounds {
        for key in &keys {
            std::hint::black_box(matches!(cache.lookup(key), Lookup::Hit(_)));
        }
    }
    let cache_lookup_us = span("serve.cache_lookup", start);

    let queue: JobQueue<usize> = JobQueue::new(WORKERS, 256);
    let start = Instant::now();
    for _ in 0..rounds {
        for i in 0..requests.len() {
            let _ = queue.push(i);
            std::hint::black_box(queue.pop(i % WORKERS));
        }
    }
    let queue_push_pop_us = span("serve.queue_push_pop", start);

    let mut sink = Vec::with_capacity(64 * 1024);
    let start = Instant::now();
    for _ in 0..rounds {
        for (_, body) in requests {
            sink.clear();
            let response = Response::json(200, body.clone())
                .with_header("X-Cache", "hit")
                .with_header("X-Key", "0000000000000000");
            let _ = write_response(&mut sink, &response);
        }
    }
    let http_write_us = span("serve.http_write", start);

    ServeLayers {
        http_read_us,
        wire_parse_us,
        cache_lookup_us,
        queue_push_pop_us,
        http_write_us,
    }
}

/// The configuration a server worker runs a `sim` job under.
///
/// # Panics
///
/// Panics if the registry lacks the job's preset (the wire layer only
/// accepts registry presets).
#[must_use]
pub fn job_config(spec: &JobSpec) -> SimConfig {
    tc_sim::harness::lookup(spec.preset)
        .expect("the wire layer accepts only registry presets")
        .with_max_insts(spec.insts)
}

/// Runs a job in-process exactly as a server worker would (minus the
/// envelope), returning the host time, rendering included, and the
/// report of a `sim` job.
#[must_use]
pub fn compute(request: &Request) -> (Duration, Option<SimReport>) {
    let spec = request.spec();
    let workload = spec.bench.build();
    let start = Instant::now();
    match spec.kind {
        JobKind::Analyze => {
            let plan = build_plan(&workload, spec.insts, 1).expect("plan builds");
            std::hint::black_box(plan_to_json(&plan).render());
            (start.elapsed(), None)
        }
        _ => {
            let report = Processor::new(job_config(&spec)).run(&workload);
            std::hint::black_box(report_to_json(&report).render());
            (start.elapsed(), Some(report))
        }
    }
}

/// The streams of the `serve` workload for `seed` over `seconds`.
#[must_use]
pub fn schedule(
    seed: u64,
    seconds: f64,
    hits: &[Arc<Request>],
    pool: &[Arc<Request>],
    pin: &dyn Fn(&Request) -> Option<u64>,
) -> Vec<Vec<Scheduled>> {
    let mut rng = Rng::new(seed ^ 0x5E7E);
    let n_hit = (HIT_RATE * seconds).ceil() as usize;
    let hit_stream = (0..n_hit)
        .map(|i| {
            let due = Duration::from_secs_f64((i as f64 + rng.unit()) / HIT_RATE);
            if rng.unit() < MALFORMED_SHARE {
                Scheduled {
                    due,
                    request: Arc::new(malformed(rng.below(MALFORMED.len()))),
                    expect: Expect::ClientError,
                }
            } else {
                let request = Arc::clone(&hits[rng.below(hits.len())]);
                let expect = Expect::Ok(pin(&request));
                Scheduled {
                    due,
                    request,
                    expect,
                }
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let n_miss = ((MISS_RATE * seconds).ceil() as usize).min(pool.len());
    let miss_stream = order[..n_miss]
        .iter()
        .enumerate()
        .map(|(i, &k)| Scheduled {
            due: Duration::from_secs_f64((i as f64 + rng.unit()) / MISS_RATE),
            request: Arc::clone(&pool[k]),
            expect: Expect::Ok(pin(&pool[k])),
        })
        .collect();
    vec![hit_stream, miss_stream]
}

/// The end-to-end figures of the `serve` workload, as medians over
/// fixed windows of due time: each window's median and 99th-percentile
/// latency over all requests, and its miss-job instructions per second
/// of miss latency. Windows without a miss are skipped.
#[must_use]
pub fn windowed(samples: &[Sample], window: Duration) -> (f64, f64, f64) {
    let Some(epoch) = samples.iter().map(|s| s.due).min() else {
        return (0.0, 0.0, 0.0);
    };
    let mut windows: Vec<Vec<&Sample>> = Vec::new();
    for s in samples {
        let w =
            (s.due.saturating_duration_since(epoch).as_secs_f64() / window.as_secs_f64()) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(s);
    }
    let (mut p50, mut p99, mut mips) = (Vec::new(), Vec::new(), Vec::new());
    for w in windows
        .iter()
        .filter(|w| w.iter().any(|s| s.class == Class::Miss))
    {
        let lat: Vec<f64> = w.iter().map(|s| s.latency_ms()).collect();
        p50.push(median(&lat));
        p99.push(quantile(&lat, 0.99));
        let misses = w.iter().filter(|s| s.class == Class::Miss);
        let (insts, secs) = misses.fold((0.0, 0.0), |(i, t), s| {
            (i + s.insts as f64, t + s.latency_ms() / 1e3)
        });
        mips.push(ratio(insts, secs) / 1e6);
    }
    (median(&p50), median(&p99), median(&mips))
}

/// The latencies of one class of request.
#[must_use]
pub fn latencies(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(Sample::latency_ms)
        .collect()
}

/// Per-layer serve figures from samples, server stats and in-process
/// compute replays of some of the miss jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeFigures {
    pub connect_us: f64,
    pub compute_ms: f64,
    pub queue_wait_ms: f64,
    pub hit_p50_ms: f64,
    pub hit_p99_ms: f64,
    pub miss_p50_ms: f64,
    pub miss_p99_ms: f64,
    pub gen_lag_ms: f64,
    pub cache_hit_ratio: f64,
    pub queue_shed: f64,
    pub conns_shed: f64,
}

/// `computed` pairs a miss sample's server time with the in-process
/// compute time of the same job.
#[must_use]
pub fn figures(samples: &[Sample], stats: ServerStats, computed: &[(f64, f64)]) -> ServeFigures {
    let hit = latencies(samples, Class::Hit);
    let miss = latencies(samples, Class::Miss);
    let connect: Vec<f64> = samples
        .iter()
        .map(|s| {
            s.connected
                .saturating_duration_since(s.sent_at)
                .as_secs_f64()
                * 1e6
        })
        .collect();
    let hit_server: Vec<f64> = samples
        .iter()
        .filter(|s| s.class == Class::Hit)
        .map(Sample::server_ms)
        .collect();
    let hit_server = median(&hit_server);
    let waits: Vec<f64> = computed
        .iter()
        .map(|(server, compute)| (server - compute - hit_server).max(0.0))
        .collect();
    let lags: Vec<f64> = samples.iter().map(Sample::lag_ms).collect();
    ServeFigures {
        connect_us: median(&connect),
        compute_ms: crate::util::mean(&computed.iter().map(|c| c.1).collect::<Vec<_>>()),
        queue_wait_ms: crate::util::mean(&waits),
        hit_p50_ms: median(&hit),
        hit_p99_ms: quantile(&hit, 0.99),
        miss_p50_ms: median(&miss),
        miss_p99_ms: quantile(&miss, 0.99),
        gen_lag_ms: quantile(&lags, 0.99),
        cache_hit_ratio: ratio(stats.hits, stats.hits + stats.computed + stats.joined),
        queue_shed: stats.queue_shed,
        conns_shed: stats.conns_shed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_miss_pool_covers_the_longest_run_without_repeats() {
        let pool = miss_pool();
        assert!(pool.len() as f64 >= MISS_RATE * MAX_SECONDS);
        let mut ids: Vec<String> = pool.iter().map(Request::id).collect();
        ids.extend(hit_requests().iter().map(Request::id));
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "miss and hit keys are all distinct");
    }
}
