//! `tw`: the trace-weave command-line simulator.
//!
//! ```text
//! tw list
//! tw sim --bench gcc --config promo-pack [--insts 2000000] [--perfect-mem] [--json] [--timeline]
//!        [--fast-forward N | --sample M/K [--warmup W]]
//! tw checkpoint save --workload gcc [--insts N] [--out FILE]
//! tw checkpoint restore --from FILE --config promo-pack [--insts N] [--json]
//! tw compare --bench gcc [--insts N] [--jobs N] [--json] [--timeline]
//!            [--fault-rate R --fault-seed S] [--timeout-secs N]
//! tw faults --workload gcc --preset headline --seed 1 --rate 1e-4
//!           [--at-cycles LIST] [--targets LIST] [--insts N] [--json]
//! tw trace --workload gcc --preset headline [--events F] [--interval N] [--limit N] [--out FILE]
//! tw lint [--bench gcc] [--asm FILE] [--json]
//! tw analyze --workload gcc [--insts N] [--jobs N] [--json] [--out FILE]
//! tw analyze --check PLAN.json
//! tw serve [--addr HOST:PORT | --port N] [--jobs N] [--queue-depth N]
//!          [--cache-entries N] [--cache-dir DIR] [--max-conns N]
//!          [--max-body BYTES] [--max-insts N] [--insts N]
//! ```
//!
//! `sim` honors the execution modes: `--fast-forward N` skips the
//! first N instructions at functional-interpreter speed before timing
//! attaches, and `--sample M/K` times M instructions out of every K
//! (with `--warmup W` functional-warming instructions before each
//! measured window; default `min(K-M, 2*M)`). `checkpoint save`
//! fast-forwards a workload and writes its full architectural state as
//! a `tw-ckpt/v1` JSON file; `checkpoint restore` resumes a saved
//! state under a configuration and reports — bit-identical to running
//! `tw sim --fast-forward` to the same position.
//!
//! Configuration names come from the experiment harness's registry
//! (`tc_sim::harness`); `tw list` prints it. `compare` runs Figure 10's
//! five standard front ends in parallel (`--jobs`, or the `TW_JOBS`
//! environment variable, caps the worker threads; `--timeout-secs`
//! arms a progress watchdog that reports wedged cells instead of
//! hanging). `analyze` profiles a workload functionally, classifies
//! every static conditional branch into the four-class predictability
//! taxonomy, and emits a `tw-plan/v1` promotion plan; `--plan FILE` on
//! `sim`/`compare` (or `--plan auto`, which builds the plan on the
//! fly) attaches the plan's per-branch promotion overrides to the run.
//! `faults` runs one cell with a deterministic fault plan attached and
//! reports the injected/detected/recovered/escaped counters. `trace`
//! runs one cell with the event tracer attached and writes a
//! Chrome/Perfetto `trace_event` JSON file; `--timeline` on
//! `sim`/`compare` prints the interval timeline. `lint` runs
//! `tc-analyze`'s five-pass static verifier over the workload programs
//! (or, with `--asm`, over a text-assembly file) and exits non-zero on
//! any error-severity finding. The simulator's own speed is measured
//! by the standalone `perfbench/` package, not by `tw`.
//!
//! `serve` runs the same job kinds as a long-lived HTTP/JSON service
//! with a content-addressed result cache (see
//! `tc_sim::harness::serve`); repeated queries are answered from the
//! cache without re-simulating.
//!
//! Every failure path returns a [`TwError`]: one `tw: <message>` line
//! on stderr, exit code 2 for usage errors and 1 for runtime errors.
//! Output goes through one locked stdout; a reader that closes the pipe
//! early (`tw list | head`) ends the run quietly with exit code 0.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::env;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

use trace_weave::fault::{FaultLocus, FaultPlan};
use trace_weave::sim::harness::{
    self, presets, report_to_json, reports_to_json, run_matrix, run_matrix_watchdog, run_traced,
    timeline_table, TraceOptions, TwError,
};
use trace_weave::sim::{SimConfig, SimReport};
use trace_weave::trace::EventFilter;
use trace_weave::workloads::{Benchmark, RvBench, WorkloadId};

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  tw list
      list benchmarks and configurations
  tw sim --bench <name> --config <name> [--insts N] [--perfect-mem] [--json]
         [--timeline] [--interval N] [--plan FILE|auto]
         [--fast-forward N | --sample M/K [--warmup W]]
      simulate one benchmark under one configuration;
      --fast-forward skips N instructions functionally before timing,
      --sample times M of every K instructions (SMARTS-style), warming
      the front end for W instructions before each window;
      --plan attaches a tw-plan/v1 promotion plan (auto = build it now)
  tw checkpoint save --workload <name> [--insts N] [--out FILE]
      fast-forward N instructions (default 2000000) functionally and
      write the machine's architectural state as a tw-ckpt/v1 JSON
      file (default <name>.ckpt.json)
  tw checkpoint restore --from FILE --config <name> [--insts N] [--json]
      resume a saved machine state under a configuration and report;
      bit-identical to tw sim --fast-forward at the saved position
  tw compare --bench <name> [--insts N] [--jobs N] [--json] [--timeline]
             [--plan FILE|auto] [--fault-rate R] [--fault-seed S]
             [--timeout-secs N]
      compare the five standard configurations on one benchmark;
      --plan attaches a promotion plan to every cell; --fault-rate
      attaches a per-cycle fault plan to every cell and adds the
      injected/escaped column; --timeout-secs abandons cells that stop
      making progress instead of hanging
  tw analyze --workload <name> [--insts N] [--jobs N] [--json] [--out FILE]
      functionally profile a workload, classify every static
      conditional branch (strongly-biased / phase-biased /
      history-predictable / data-dependent), and emit a tw-plan/v1
      promotion plan consumable via --plan
  tw analyze --check FILE
      parse and validate a tw-plan/v1 file without running anything
  tw faults --workload <name> [--preset <name>] [--seed S]
            (--rate R | --at-cycles C1,C2,...) [--targets LIST]
            [--insts N] [--json]
      simulate one cell under a deterministic fault-injection plan and
      report the fault counters; <LIST> is a comma list of loci
      (tc-segment, tc-evict, bias, predictor, ras, fill-stall)
  tw trace --workload <name> --preset <name> [--insts N] [--events <filter>]
           [--interval N] [--limit N] [--out FILE]
      run one cell with the event tracer attached and write a
      Chrome/Perfetto trace_event JSON file (default trace.json);
      <filter> is a comma list of event kinds or categories (tc, fill,
      promote, mispredict, cache, machine, retire, fault, or all)
  tw lint [--workload <name> | --all | --asm FILE] [--json]
      statically verify workload programs (both families by default)
      or assemble and verify a text-assembly file; exits 1 on
      error-severity findings
  tw rv FILE
      decode and translate a flat RV32I image (.rv.bin) and print a
      front-end summary; malformed or untranslatable images are
      reported as one-line usage errors
  tw serve [--addr HOST:PORT | --port N] [--jobs N] [--queue-depth N]
           [--cache-entries N] [--cache-dir DIR] [--max-conns N]
           [--max-body BYTES] [--max-insts N] [--insts N]
      run the simulation service: POST /v1/{{sim,compare,faults,trace,
      analyze}} with JSON bodies, GET /healthz /v1/stats /v1/presets
      /v1/workloads, POST /v1/shutdown; results are cached by content
      address, repeated queries answer without re-simulating
      (default 127.0.0.1:0 - the chosen port is printed at startup);
      --cache-dir persists results across restarts (CRC-validated,
      crash-safe: a killed daemon restarted on the same directory
      serves previously computed keys bit-identically from disk)

configurations: {}

workloads are named bare for the synthetic suite (compress, gcc, ...)
and rv/<name> for compiled RV32I programs (rv/qsort, rv/dispatch, ...);
`tw list` prints both families",
        harness::STANDARD_FIVE.join(", ")
    );
    ExitCode::from(2)
}

/// `tw rv FILE`: parse, decode, and translate a flat RV32I image, then
/// print what the front end would hand the simulator. Malformed images
/// are *usage* errors (exit 2): the input contract, not the runtime,
/// was violated.
fn cmd_rv(out: &mut Out, path: &str) -> Result<ExitCode, TwError> {
    let bytes = std::fs::read(path).map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
    let image = trace_weave::rv::RvImage::parse(&bytes)
        .map_err(|e| TwError::usage(format!("{path}: {e}")))?;
    let t =
        trace_weave::rv::translate(&image).map_err(|e| TwError::usage(format!("{path}: {e}")))?;
    let expanded = t.program.len();
    writeln!(out, "image              {path}")?;
    writeln!(out, "rv instructions    {}", image.text.len())?;
    writeln!(out, "translated instrs  {expanded}")?;
    writeln!(
        out,
        "expansion          {:.3}x",
        expanded as f64 / image.text.len().max(1) as f64
    )?;
    writeln!(
        out,
        "entry              rv byte {:#x} -> index {}",
        image.entry,
        t.program.entry()
    )?;
    writeln!(
        out,
        "data bytes         {} at base {:#x}",
        image.data.len(),
        image.data_base
    )?;
    writeln!(
        out,
        "memory             {} bytes ({} words)",
        image.mem_bytes, t.mem_words
    )?;
    writeln!(out, "address-taken      {} target(s)", image.indirect.len())?;
    Ok(ExitCode::SUCCESS)
}

fn parse_bench(name: &str) -> Option<WorkloadId> {
    WorkloadId::all()
        .into_iter()
        .find(|b| b.name() == name || b.short_name() == name)
}

fn print_report(out: &mut Out, r: &SimReport) -> io::Result<()> {
    writeln!(out, "benchmark          {}", r.benchmark)?;
    writeln!(out, "configuration      {}", r.config)?;
    writeln!(out, "instructions       {}", r.instructions)?;
    writeln!(out, "cycles             {}", r.cycles)?;
    writeln!(out, "IPC                {:.3}", r.ipc())?;
    writeln!(out, "eff fetch rate     {:.2}", r.effective_fetch_rate())?;
    writeln!(
        out,
        "cond mispredict    {:.2}%",
        r.cond_mispredict_rate() * 100.0
    )?;
    writeln!(out, "promoted executed  {}", r.promoted_executed)?;
    writeln!(out, "promoted faults    {}", r.promoted_faults)?;
    writeln!(
        out,
        "avg resolution     {:.1} cycles",
        r.avg_resolution_time()
    )?;
    if let Some(tc) = &r.trace_cache {
        writeln!(
            out,
            "trace cache        {:.1}% miss",
            tc.miss_ratio() * 100.0
        )?;
    }
    if let Some(s) = &r.sampling {
        writeln!(out, "stream division:")?;
        writeln!(out, "  fast-forwarded   {}", s.fast_forwarded)?;
        writeln!(out, "  warmed           {}", s.warmed)?;
        writeln!(out, "  measured         {}", s.measured)?;
        writeln!(out, "  windows          {}", s.windows)?;
        writeln!(out, "  total stream     {}", s.total_stream)?;
        writeln!(out, "  timed fraction   {:.2}%", s.timed_fraction() * 100.0)?;
    }
    if let Some(f) = &r.fault {
        writeln!(out, "fault injection:")?;
        writeln!(out, "  injected         {}", f.injected)?;
        writeln!(out, "  detected         {}", f.detected)?;
        writeln!(out, "  recovered        {}", f.recovered)?;
        writeln!(out, "  escaped          {}", f.escaped)?;
        writeln!(out, "  recovery cycles  {}", f.recovery_cycles)?;
    }
    if let Some(p) = &r.plan {
        writeln!(
            out,
            "promotion plan     {} ({} branches, {} never-promote, {} insts profiled)",
            p.workload, p.entries, p.never_promote, p.profiled_insts
        )?;
        for class in trace_weave::predict::BranchClass::ALL {
            let i = class.index();
            if p.class_branches[i] == 0 {
                continue;
            }
            writeln!(
                out,
                "  {:19} {:3} branches, {:9} execs, {:5.1}% promoted",
                class.name(),
                p.class_branches[i],
                p.class_execs[i],
                p.coverage(class) * 100.0
            )?;
        }
    }
    writeln!(out, "cycle accounting:")?;
    for (_, label, cycles) in r.accounting.categories() {
        writeln!(
            out,
            "  {label:14} {:5.1}%",
            cycles as f64 / r.cycles.max(1) as f64 * 100.0
        )?;
    }
    Ok(())
}

/// Parses a comma-separated `--targets` list into fault loci.
fn parse_targets(spec: &str) -> Result<Vec<FaultLocus>, TwError> {
    let mut loci = Vec::new();
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        loci.push(FaultLocus::parse(token).map_err(TwError::usage)?);
    }
    if loci.is_empty() {
        return Err(TwError::usage("--targets: empty locus list"));
    }
    Ok(loci)
}

/// Resolves `--plan FILE|auto` for one benchmark: `auto` builds the
/// plan by profiling the benchmark now; a path loads and validates a
/// `tw-plan/v1` file, insisting it was derived for the same workload.
fn load_plan(
    f: &Flags,
    bench: WorkloadId,
) -> Result<Option<trace_weave::sim::PromotionPlan>, TwError> {
    match f.plan.as_deref() {
        None => Ok(None),
        Some("auto") => {
            let workload = bench.build();
            Ok(Some(harness::build_plan(
                &workload,
                f.insts_or(DEFAULT_INSTS),
                f.jobs,
            )?))
        }
        Some(path) => {
            let text = harness::read_verified(path)?;
            let plan = harness::parse_plan(&text)?;
            if plan.workload != bench.name() {
                return Err(TwError::runtime(format!(
                    "{path}: plan was derived for {:?}, not {:?}",
                    plan.workload,
                    bench.name()
                )));
            }
            Ok(Some(plan))
        }
    }
}

/// All parsed command-line state; one instance per invocation.
#[derive(Default)]
struct Flags {
    bench: Option<String>,
    config_name: Option<String>,
    insts: Option<u64>,
    perfect: bool,
    json: bool,
    all: bool,
    out: Option<String>,
    check: Option<String>,
    events: Option<String>,
    interval: Option<u64>,
    limit: usize,
    timeline: bool,
    jobs: usize,
    fault_seed: u64,
    fault_rate: Option<f64>,
    at_cycles: Option<Vec<u64>>,
    targets: Option<String>,
    timeout_secs: Option<u64>,
    asm: Option<String>,
    fast_forward: Option<u64>,
    /// `--sample M/K`: (measure, period).
    sample: Option<(u64, u64)>,
    warmup: Option<u64>,
    from: Option<String>,
    /// `--plan FILE|auto`: promotion plan to attach.
    plan: Option<String>,
    addr: Option<String>,
    port: Option<u16>,
    queue_depth: Option<usize>,
    cache_entries: Option<usize>,
    max_conns: Option<usize>,
    max_body: Option<usize>,
    max_insts: Option<u64>,
    /// `--cache-dir DIR`: persistent result-cache tier for `serve`.
    cache_dir: Option<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, TwError> {
        let mut f = Flags {
            limit: harness::DEFAULT_TRACE_LIMIT,
            // Strict: a set-but-malformed TW_JOBS is a usage error, not
            // a silent fallback.
            jobs: harness::try_default_jobs().map_err(TwError::usage)?,
            fault_seed: 1,
            ..Flags::default()
        };
        let mut i = 1;
        // One value-bearing flag: `--flag <value>` with a typed parse.
        fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, TwError> {
            *i += 1;
            args.get(*i)
                .map(String::as_str)
                .ok_or_else(|| TwError::usage(format!("{flag}: missing value")))
        }
        fn number<T: std::str::FromStr>(
            args: &[String],
            i: &mut usize,
            flag: &str,
        ) -> Result<T, TwError> {
            let raw = value(args, i, flag)?;
            raw.parse()
                .map_err(|_| TwError::usage(format!("{flag}: bad value {raw:?}")))
        }
        while i < args.len() {
            match args[i].as_str() {
                "--bench" | "--workload" => {
                    f.bench = Some(value(args, &mut i, "--bench")?.to_string());
                }
                "--config" | "--preset" => {
                    f.config_name = Some(value(args, &mut i, "--config")?.to_string());
                }
                "--insts" => f.insts = Some(number(args, &mut i, "--insts")?),
                "--jobs" => {
                    let n: usize = number(args, &mut i, "--jobs")?;
                    f.jobs = harness::validate_jobs(n)
                        .map_err(|e| TwError::usage(format!("--jobs: {e}")))?;
                }
                "--out" => f.out = Some(value(args, &mut i, "--out")?.to_string()),
                "--check" => f.check = Some(value(args, &mut i, "--check")?.to_string()),
                "--events" => f.events = Some(value(args, &mut i, "--events")?.to_string()),
                "--interval" => {
                    let n: u64 = number(args, &mut i, "--interval")?;
                    if n == 0 {
                        return Err(TwError::usage("--interval: must be at least 1"));
                    }
                    f.interval = Some(n);
                }
                "--limit" => f.limit = number(args, &mut i, "--limit")?,
                "--seed" | "--fault-seed" => f.fault_seed = number(args, &mut i, "--seed")?,
                "--rate" | "--fault-rate" => {
                    let r: f64 = number(args, &mut i, "--rate")?;
                    if r.is_nan() || r <= 0.0 {
                        return Err(TwError::usage("--rate: must be positive"));
                    }
                    f.fault_rate = Some(r);
                }
                "--at-cycles" => {
                    let spec = value(args, &mut i, "--at-cycles")?;
                    let mut cycles = Vec::new();
                    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                        cycles.push(token.parse().map_err(|_| {
                            TwError::usage(format!("--at-cycles: bad cycle {token:?}"))
                        })?);
                    }
                    if cycles.is_empty() {
                        return Err(TwError::usage("--at-cycles: empty cycle list"));
                    }
                    f.at_cycles = Some(cycles);
                }
                "--targets" => f.targets = Some(value(args, &mut i, "--targets")?.to_string()),
                "--timeout-secs" => {
                    let n: u64 = number(args, &mut i, "--timeout-secs")?;
                    if n == 0 {
                        return Err(TwError::usage("--timeout-secs: must be at least 1"));
                    }
                    f.timeout_secs = Some(n);
                }
                "--asm" => f.asm = Some(value(args, &mut i, "--asm")?.to_string()),
                "--fast-forward" => {
                    f.fast_forward = Some(number(args, &mut i, "--fast-forward")?);
                }
                "--sample" => {
                    let spec = value(args, &mut i, "--sample")?;
                    let Some((m, k)) = spec.split_once('/') else {
                        return Err(TwError::usage(format!(
                            "--sample: expected MEASURE/PERIOD, got {spec:?}"
                        )));
                    };
                    let parse = |raw: &str| {
                        raw.trim()
                            .parse::<u64>()
                            .map_err(|_| TwError::usage(format!("--sample: bad value {raw:?}")))
                    };
                    let (measure, period) = (parse(m)?, parse(k)?);
                    if measure == 0 || measure > period {
                        return Err(TwError::usage("--sample: needs 0 < MEASURE <= PERIOD"));
                    }
                    f.sample = Some((measure, period));
                }
                "--warmup" => f.warmup = Some(number(args, &mut i, "--warmup")?),
                "--from" => f.from = Some(value(args, &mut i, "--from")?.to_string()),
                "--plan" => f.plan = Some(value(args, &mut i, "--plan")?.to_string()),
                "--addr" => f.addr = Some(value(args, &mut i, "--addr")?.to_string()),
                "--port" => f.port = Some(number(args, &mut i, "--port")?),
                "--queue-depth" => {
                    let n: usize = number(args, &mut i, "--queue-depth")?;
                    if n == 0 {
                        return Err(TwError::usage("--queue-depth: must be at least 1"));
                    }
                    f.queue_depth = Some(n);
                }
                "--cache-entries" => {
                    let n: usize = number(args, &mut i, "--cache-entries")?;
                    if n == 0 {
                        return Err(TwError::usage("--cache-entries: must be at least 1"));
                    }
                    f.cache_entries = Some(n);
                }
                "--max-conns" => {
                    let n: usize = number(args, &mut i, "--max-conns")?;
                    if n == 0 {
                        return Err(TwError::usage("--max-conns: must be at least 1"));
                    }
                    f.max_conns = Some(n);
                }
                "--max-body" => {
                    let n: usize = number(args, &mut i, "--max-body")?;
                    if n == 0 {
                        return Err(TwError::usage("--max-body: must be at least 1"));
                    }
                    f.max_body = Some(n);
                }
                "--max-insts" => {
                    let n: u64 = number(args, &mut i, "--max-insts")?;
                    if n == 0 {
                        return Err(TwError::usage("--max-insts: must be at least 1"));
                    }
                    f.max_insts = Some(n);
                }
                "--cache-dir" => {
                    f.cache_dir = Some(value(args, &mut i, "--cache-dir")?.to_string());
                }
                "--perfect-mem" => f.perfect = true,
                "--json" => f.json = true,
                "--all" => f.all = true,
                "--timeline" => f.timeline = true,
                other => return Err(TwError::usage(format!("unknown flag `{other}`"))),
            }
            i += 1;
        }
        Ok(f)
    }

    fn insts_or(&self, default: u64) -> u64 {
        self.insts.unwrap_or(default)
    }

    fn bench_required(&self, flag: &str) -> Result<WorkloadId, TwError> {
        let name = self
            .bench
            .as_deref()
            .ok_or_else(|| TwError::usage(format!("missing {flag}")))?;
        parse_bench(name).ok_or_else(|| TwError::usage(format!("unknown workload {name:?}")))
    }

    fn config_required(&self, flag: &str) -> Result<SimConfig, TwError> {
        let name = self
            .config_name
            .as_deref()
            .ok_or_else(|| TwError::usage(format!("missing {flag}")))?;
        harness::lookup(name)
            .ok_or_else(|| TwError::usage(format!("unknown configuration {name:?}")))
    }

    /// Applies `--fast-forward` / `--sample` / `--warmup` to a
    /// configuration, validating the combination.
    fn apply_mode(&self, config: SimConfig) -> Result<SimConfig, TwError> {
        match (self.fast_forward, self.sample) {
            (Some(_), Some(_)) => Err(TwError::usage(
                "--fast-forward and --sample are mutually exclusive",
            )),
            (Some(skip), None) => {
                if self.warmup.is_some() {
                    return Err(TwError::usage("--warmup requires --sample"));
                }
                Ok(config.with_fast_forward(skip))
            }
            (None, Some((measure, period))) => {
                let warmup = self
                    .warmup
                    .unwrap_or_else(|| (period - measure).min(2 * measure));
                if warmup.checked_add(measure).is_none_or(|used| used > period) {
                    return Err(TwError::usage(format!(
                        "--warmup {warmup} + measure {measure} exceeds the {period}-instruction period"
                    )));
                }
                Ok(config.with_sampling(warmup, measure, period))
            }
            (None, None) => {
                if self.warmup.is_some() {
                    return Err(TwError::usage("--warmup requires --sample"));
                }
                Ok(config)
            }
        }
    }

    /// The fault plan requested by `--rate`/`--at-cycles`/`--targets`,
    /// or an error if the combination is inconsistent.
    fn fault_plan(&self) -> Result<FaultPlan, TwError> {
        let plan = match (self.fault_rate, &self.at_cycles) {
            (Some(rate), None) => FaultPlan::with_rate(self.fault_seed, rate),
            (None, Some(cycles)) => FaultPlan::at_cycles(self.fault_seed, cycles.clone()),
            (None, None) => {
                return Err(TwError::usage(
                    "faults: one of --rate or --at-cycles is required",
                ))
            }
            (Some(_), Some(_)) => {
                return Err(TwError::usage(
                    "--rate and --at-cycles are mutually exclusive",
                ))
            }
        };
        match &self.targets {
            Some(spec) => Ok(plan.targeting(&parse_targets(spec)?)),
            None => Ok(plan),
        }
    }
}

const DEFAULT_INSTS: u64 = 2_000_000;

/// Standard output, locked once for the whole run. Every report line
/// goes through it, so a failed write becomes a [`TwError`] instead of
/// the panic `println!` raises; `closed` records whether the failure was
/// the reader closing the pipe.
struct Out {
    inner: io::StdoutLock<'static>,
    closed: bool,
}

impl Out {
    fn note<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            self.closed |= e.kind() == io::ErrorKind::BrokenPipe;
        }
        result
    }
}

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let result = self.inner.write(buf);
        self.note(result)
    }

    fn flush(&mut self) -> io::Result<()> {
        let result = self.inner.flush();
        self.note(result)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut out = Out {
        inner: io::stdout().lock(),
        closed: false,
    };
    let result = run(&args, &mut out).and_then(|code| {
        out.flush()?;
        Ok(code)
    });
    match result {
        Ok(code) => code,
        // The reader stopped listening (`tw list | head`); it has what
        // it wanted, so this is not a failure of `tw`.
        Err(_) if out.closed => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tw: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run(args: &[String], out: &mut Out) -> Result<ExitCode, TwError> {
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        let _ = usage();
        return Ok(ExitCode::SUCCESS);
    }
    // `rv` takes one positional path, not the shared flag grammar.
    if cmd == "rv" {
        let [_, path] = args else {
            return Err(TwError::usage("rv: expected exactly one image path"));
        };
        return cmd_rv(out, path);
    }
    // `checkpoint` carries a save/restore subcommand before its flags.
    let f = if cmd == "checkpoint" {
        Flags::parse(&args[1..])?
    } else {
        Flags::parse(args)?
    };

    match cmd.as_str() {
        "list" => {
            writeln!(out, "benchmarks (the paper's Table 1):")?;
            for b in Benchmark::ALL {
                writeln!(out, "  {:12} ({})", b.name(), b.short_name())?;
            }
            writeln!(
                out,
                "\nrv32i workloads (compiled code via the tc-rv front end):"
            )?;
            for r in RvBench::ALL {
                writeln!(out, "  {:12} ({})", r.name(), r.short_name())?;
            }
            writeln!(out, "\nconfigurations:")?;
            for p in presets() {
                let aliases = if p.aliases.is_empty() {
                    String::new()
                } else {
                    format!("  (aliases: {})", p.aliases.join(", "))
                };
                writeln!(out, "  {:12} {}{aliases}", p.name, p.summary)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let mut config = harness::ServeConfig {
                workers: f.jobs,
                default_insts: f.insts_or(DEFAULT_INSTS),
                ..harness::ServeConfig::default()
            };
            match (&f.addr, f.port) {
                (Some(_), Some(_)) => {
                    return Err(TwError::usage("--addr and --port are mutually exclusive"))
                }
                (Some(addr), None) => config.addr = addr.clone(),
                (None, Some(port)) => config.addr = format!("127.0.0.1:{port}"),
                (None, None) => {}
            }
            if let Some(n) = f.queue_depth {
                config.queue_depth = n;
            }
            if let Some(n) = f.cache_entries {
                config.cache_entries = n;
            }
            if let Some(n) = f.max_conns {
                config.max_conns = n;
            }
            if let Some(n) = f.max_body {
                config.max_body = n;
            }
            if let Some(n) = f.max_insts {
                config.max_insts = n;
            }
            config.cache_dir = f.cache_dir.as_ref().map(std::path::PathBuf::from);
            if config.default_insts > config.max_insts {
                return Err(TwError::usage(format!(
                    "--insts {} exceeds --max-insts {}",
                    config.default_insts, config.max_insts
                )));
            }
            let bind_addr = config.addr.clone();
            let cache_dir = config.cache_dir.clone();
            let workers = config.workers;
            let server = harness::Server::bind(config).map_err(|e| {
                // Startup touches two resources: the cache directory
                // (when configured) opens first, then the socket binds.
                match &cache_dir {
                    Some(dir) => TwError::runtime(format!(
                        "bind {bind_addr} (cache-dir {}): {e}",
                        dir.display()
                    )),
                    None => TwError::runtime(format!("bind {bind_addr}: {e}")),
                }
            })?;
            let addr = server
                .local_addr()
                .map_err(|e| TwError::runtime(format!("local_addr: {e}")))?;
            // Scripts (verify.sh, the load helper) parse this line for
            // the resolved address; keep its shape stable.
            writeln!(
                out,
                "tw serve listening on http://{addr} ({workers} worker(s))"
            )?;
            let summary = server.run();
            writeln!(
                out,
                "tw serve: {} request(s) ({} client error(s), {} server error(s)), \
                 {} job panic(s), {} connection(s) shed",
                summary.requests,
                summary.client_errors,
                summary.server_errors,
                summary.job_panics,
                summary.conns_shed
            )?;
            if summary.job_panics > 0 {
                return Err(TwError::runtime(format!(
                    "{} job(s) panicked during this run",
                    summary.job_panics
                )));
            }
            Ok(ExitCode::SUCCESS)
        }
        "sim" => {
            let bench = f.bench_required("--bench")?;
            let mut config = f.config_required("--config")?;
            if f.perfect {
                config = config.with_perfect_disambiguation();
            }
            let workload = bench.build();
            let mut config = f.apply_mode(config.with_max_insts(f.insts_or(DEFAULT_INSTS)))?;
            if let Some(plan) = load_plan(&f, bench)? {
                config = config.with_promotion_plan(plan);
            }
            if f.timeline {
                // Timeline-only instrumentation: aggregates fold at emit
                // time, so no events need to be stored.
                let options = TraceOptions {
                    filter: EventFilter::none(),
                    interval: Some(f.interval.unwrap_or(harness::DEFAULT_TRACE_INTERVAL)),
                    limit: 0,
                };
                let run = run_traced(config, &workload, &options);
                let Some(tl) = run.timeline.as_ref() else {
                    return Err(TwError::runtime(
                        "internal error: traced run produced no timeline",
                    ));
                };
                if f.json {
                    writeln!(
                        out,
                        "{}",
                        harness::Value::object([
                            ("report", report_to_json(&run.report)),
                            ("timeline", harness::timeline_to_json(tl)),
                        ])
                        .pretty()
                    )?;
                } else {
                    print_report(out, &run.report)?;
                    writeln!(
                        out,
                        "\ninterval timeline ({} cycles/window):",
                        tl.interval()
                    )?;
                    write!(out, "{}", timeline_table(tl))?;
                }
                return Ok(ExitCode::SUCCESS);
            }
            let report = trace_weave::sim::Processor::new(config).run(&workload);
            if f.json {
                writeln!(out, "{}", report_to_json(&report).pretty())?;
            } else {
                print_report(out, &report)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "checkpoint" => {
            match args.get(1).map(String::as_str) {
                Some("save") => {
                    let bench = f.bench_required("--workload")?;
                    let workload = bench.build();
                    let at = f.insts_or(DEFAULT_INSTS);
                    let mut machine = workload.machine();
                    let blocks = trace_weave::isa::BlockCache::new(workload.program());
                    let ran = machine
                        .fast_forward(workload.program(), &blocks, at)
                        .map_err(|e| {
                            TwError::runtime(format!(
                                "{}: workload faulted during fast-forward: {e:?}",
                                bench.name()
                            ))
                        })?;
                    let ckpt = harness::Checkpoint::capture(&workload, &machine);
                    let path = f
                        .out
                        .unwrap_or_else(|| format!("{}.ckpt.json", bench.name()));
                    let text = harness::stamp(&format!("{}\n", ckpt.to_json().pretty()));
                    harness::write_atomic(std::path::Path::new(&path), &text)
                        .map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
                    writeln!(
                        out,
                        "wrote {path}: {} at instruction {} ({} memory run(s){})",
                        bench.name(),
                        machine.retired(),
                        ckpt.mem.len(),
                        if machine.is_halted() { ", halted" } else { "" }
                    )?;
                    if ran < at {
                        writeln!(out, "note: workload completed after {ran} instructions")?;
                    }
                    Ok(ExitCode::SUCCESS)
                }
                Some("restore") => {
                    let path = f
                        .from
                        .as_deref()
                        .ok_or_else(|| TwError::usage("checkpoint restore: missing --from"))?;
                    let text = harness::read_verified(path)?;
                    let ckpt = harness::parse_checkpoint(&text)?;
                    let bench = parse_bench(&ckpt.workload).ok_or_else(|| {
                        TwError::runtime(format!(
                            "{path}: checkpoint names unknown workload {:?}",
                            ckpt.workload
                        ))
                    })?;
                    let workload = bench.build();
                    let machine = ckpt.restore(&workload)?;
                    // Resuming at position n under FastForward{n} skips
                    // nothing and reports identically to an unresumed
                    // `tw sim --fast-forward n` run.
                    let config = f
                        .config_required("--config")?
                        .with_max_insts(f.insts_or(DEFAULT_INSTS))
                        .with_fast_forward(ckpt.retired);
                    let report =
                        trace_weave::sim::Processor::new(config).run_from(&workload, machine);
                    if f.json {
                        writeln!(out, "{}", report_to_json(&report).pretty())?;
                    } else {
                        print_report(out, &report)?;
                    }
                    Ok(ExitCode::SUCCESS)
                }
                _ => Err(TwError::usage(
                    "checkpoint: expected `save` or `restore` subcommand",
                )),
            }
        }
        "faults" => {
            let bench = f.bench_required("--workload")?;
            // Fault campaigns default to the paper's headline front end.
            let config = match f.config_name.as_deref() {
                Some(name) => harness::lookup(name)
                    .ok_or_else(|| TwError::usage(format!("unknown configuration {name:?}")))?,
                None => harness::lookup("headline")
                    .ok_or_else(|| TwError::runtime("registry is missing `headline`"))?,
            };
            let plan = f.fault_plan()?;
            let config = config
                .with_max_insts(f.insts_or(DEFAULT_INSTS))
                .with_fault_plan(plan);
            let workload = bench.build();
            let report = trace_weave::sim::Processor::new(config).run(&workload);
            if f.json {
                writeln!(out, "{}", report_to_json(&report).pretty())?;
            } else {
                print_report(out, &report)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "trace" => {
            let bench = f.bench_required("--workload")?;
            let config = f.config_required("--preset")?;
            let filter = match f.events.as_deref().map(EventFilter::parse) {
                Some(Ok(filter)) => filter,
                Some(Err(e)) => return Err(TwError::usage(format!("--events: {e}"))),
                None => EventFilter::all(),
            };
            let options = TraceOptions {
                filter,
                interval: Some(f.interval.unwrap_or(harness::DEFAULT_TRACE_INTERVAL)),
                limit: f.limit,
            };
            let workload = bench.build();
            let run = run_traced(
                config.with_max_insts(f.insts_or(DEFAULT_INSTS)),
                &workload,
                &options,
            );
            let text = harness::chrome_trace_json(&run).pretty();
            if let Err(e) = harness::parse_json(&text) {
                return Err(TwError::runtime(format!(
                    "internal error: emitted trace is malformed: {e}"
                )));
            }
            let path = f.out.unwrap_or_else(|| "trace.json".to_string());
            // Chrome/Perfetto consume this file directly, so it gets
            // the atomic write but not the CRC stamp.
            harness::write_atomic(std::path::Path::new(&path), &format!("{text}\n"))
                .map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
            // "<out>: N events emitted, N recorded, N dropped, N filtered"
            let totals: Vec<String> = run
                .summary
                .totals()
                .iter()
                .map(|(name, n)| format!("{n} {name}"))
                .collect();
            writeln!(
                out,
                "{path}: {}",
                totals.join(", ").replacen(' ', " events ", 1)
            )?;
            writeln!(
                out,
                "load it in chrome://tracing or https://ui.perfetto.dev ({} cycles simulated)",
                run.report.cycles
            )?;
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let bench = f.bench_required("--bench")?;
            let fault_plan = match (f.fault_rate, &f.at_cycles) {
                (None, None) => None,
                _ => Some(f.fault_plan()?),
            };
            let insts = f.insts_or(DEFAULT_INSTS);
            let promotion_plan = load_plan(&f, bench)?;
            let cells: Vec<(WorkloadId, SimConfig)> = harness::standard_five()
                .into_iter()
                .map(|(_, config)| {
                    let config = if f.perfect {
                        config.with_perfect_disambiguation()
                    } else {
                        config
                    };
                    let config = match &fault_plan {
                        Some(plan) => config.with_fault_plan(plan.clone()),
                        None => config,
                    };
                    let config = match &promotion_plan {
                        Some(plan) => config.with_promotion_plan(plan.clone()),
                        None => config,
                    };
                    (bench, config.with_max_insts(insts))
                })
                .collect();
            let mut timelines = Vec::new();
            let reports: Vec<Option<SimReport>> = if f.timeline {
                // Traced runs are serial; the timeline rides on the same
                // simulation that produces the report.
                let options = TraceOptions {
                    filter: EventFilter::none(),
                    interval: Some(f.interval.unwrap_or(harness::DEFAULT_TRACE_INTERVAL)),
                    limit: 0,
                };
                let mut reports = Vec::new();
                for (bench, config) in &cells {
                    let run = run_traced(config.clone(), &bench.build(), &options);
                    let Some(tl) = run.timeline else {
                        return Err(TwError::runtime(
                            "internal error: traced run produced no timeline",
                        ));
                    };
                    timelines.push(tl);
                    reports.push(Some(run.report));
                }
                reports
            } else if f.timeout_secs.is_some() {
                run_matrix_watchdog(&cells, f.jobs, f.timeout_secs.map(Duration::from_secs))
            } else {
                run_matrix(&cells, f.jobs).into_iter().map(Some).collect()
            };
            let hung: Vec<&str> = harness::STANDARD_FIVE
                .iter()
                .zip(&reports)
                .filter(|(_, r)| r.is_none())
                .map(|(name, _)| *name)
                .collect();
            if f.json {
                if !hung.is_empty() {
                    return Err(TwError::runtime(format!(
                        "{} cell(s) timed out: {}",
                        hung.len(),
                        hung.join(", ")
                    )));
                }
                let completed: Vec<SimReport> = reports.into_iter().flatten().collect();
                if f.timeline {
                    writeln!(
                        out,
                        "{}",
                        harness::Value::object([
                            ("reports", reports_to_json(&completed)),
                            (
                                "timelines",
                                harness::Value::Array(
                                    timelines.iter().map(harness::timeline_to_json).collect()
                                )
                            ),
                        ])
                        .pretty()
                    )?;
                } else {
                    writeln!(out, "{}", reports_to_json(&completed).pretty())?;
                }
                return Ok(ExitCode::SUCCESS);
            }
            let with_faults = fault_plan.is_some();
            if with_faults {
                writeln!(
                    out,
                    "{:12} {:>10} {:>8} {:>10} {:>12} {:>10}",
                    "config", "eff fetch", "IPC", "mispred%", "resolution", "inj/esc"
                )?;
            } else {
                writeln!(
                    out,
                    "{:12} {:>10} {:>8} {:>10} {:>12}",
                    "config", "eff fetch", "IPC", "mispred%", "resolution"
                )?;
            }
            for (name, r) in harness::STANDARD_FIVE.iter().zip(&reports) {
                let Some(r) = r else {
                    writeln!(out, "{name:12} {:>10}", "timed out")?;
                    continue;
                };
                let faults = match &r.fault {
                    Some(fs) if with_faults => format!(" {:>6}/{:<3}", fs.injected, fs.escaped),
                    _ => String::new(),
                };
                writeln!(
                    out,
                    "{:12} {:>10.2} {:>8.2} {:>9.2}% {:>11.1}c{faults}",
                    name,
                    r.effective_fetch_rate(),
                    r.ipc(),
                    r.cond_mispredict_rate() * 100.0,
                    r.avg_resolution_time()
                )?;
            }
            for (name, tl) in harness::STANDARD_FIVE.iter().zip(&timelines) {
                writeln!(
                    out,
                    "\n{name} interval timeline ({} cycles/window):",
                    tl.interval()
                )?;
                write!(out, "{}", timeline_table(tl))?;
            }
            if hung.is_empty() {
                Ok(ExitCode::SUCCESS)
            } else {
                Err(TwError::runtime(format!(
                    "{} cell(s) timed out: {}",
                    hung.len(),
                    hung.join(", ")
                )))
            }
        }
        "lint" => {
            if let Some(path) = &f.asm {
                if f.all || f.bench.is_some() {
                    return Err(TwError::usage(
                        "--asm is mutually exclusive with --workload/--all",
                    ));
                }
                let source = std::fs::read_to_string(path)
                    .map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
                let program = trace_weave::isa::assemble(&source)
                    .map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
                let report = trace_weave::analyze::analyze(&program);
                if f.json {
                    writeln!(
                        out,
                        "{}",
                        harness::Value::object([
                            ("file", harness::Value::Str(path.clone())),
                            ("instructions", harness::Value::UInt(program.len() as u64)),
                            ("errors", harness::Value::UInt(report.errors() as u64)),
                            ("warnings", harness::Value::UInt(report.warnings() as u64)),
                        ])
                        .pretty()
                    )?;
                } else {
                    for finding in &report.findings {
                        writeln!(out, "{path}: {finding}")?;
                    }
                    writeln!(
                        out,
                        "{path}: {} instruction(s), {} error(s), {} warning(s)",
                        program.len(),
                        report.errors(),
                        report.warnings()
                    )?;
                }
                return Ok(if report.errors() > 0 {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                });
            }
            if f.all && f.bench.is_some() {
                return Err(TwError::usage(
                    "--all and --workload are mutually exclusive",
                ));
            }
            let entries = match f.bench.as_deref() {
                Some(name) => {
                    let Some(bench) = parse_bench(name) else {
                        return Err(TwError::usage(format!("unknown workload {name:?}")));
                    };
                    vec![harness::lint_benchmark(bench)]
                }
                None => harness::lint_all(),
            };
            let errors = harness::lint_errors(&entries);
            if f.json {
                writeln!(out, "{}", harness::lint_to_json(&entries).pretty())?;
            } else {
                write!(out, "{}", harness::lint_table(&entries))?;
                for entry in &entries {
                    for finding in &entry.report.findings {
                        writeln!(out, "{}: {finding}", entry.benchmark)?;
                    }
                }
                writeln!(
                    out,
                    "{} workload(s), {errors} error(s), {} warning(s)",
                    entries.len(),
                    entries.iter().map(|e| e.report.warnings()).sum::<usize>()
                )?;
            }
            if errors > 0 {
                Ok(ExitCode::FAILURE)
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "analyze" => {
            if let Some(path) = &f.check {
                let text = harness::read_verified(path)?;
                let plan = harness::parse_plan(&text)?;
                writeln!(
                    out,
                    "{path}: valid {} plan for {} ({} branches, {} never-promote)",
                    harness::PLAN_SCHEMA,
                    plan.workload,
                    plan.len(),
                    plan.never_promote()
                )?;
                return Ok(ExitCode::SUCCESS);
            }
            let bench = f.bench_required("--workload")?;
            let workload = bench.build();
            let plan = harness::build_plan(&workload, f.insts_or(DEFAULT_INSTS), f.jobs)?;
            let text = harness::plan_to_json(&plan).pretty();
            if let Err(e) = harness::parse_json(&text) {
                return Err(TwError::runtime(format!(
                    "internal error: emitted plan is malformed: {e}"
                )));
            }
            if let Some(path) = &f.out {
                let stamped = harness::stamp(&format!("{text}\n"));
                harness::write_atomic(std::path::Path::new(path), &stamped)
                    .map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
            }
            if f.json {
                writeln!(out, "{text}")?;
            } else {
                writeln!(
                    out,
                    "{}: {} static conditional branches, {} instructions profiled",
                    plan.workload,
                    plan.len(),
                    plan.profiled_insts
                )?;
                let counts = plan.class_counts();
                for class in trace_weave::predict::BranchClass::ALL {
                    writeln!(out, "  {:19} {}", class.name(), counts[class.index()])?;
                }
                writeln!(out, "  {:19} {}", "never-promote", plan.never_promote())?;
                write!(out, "{}", harness::plan_table(&plan))?;
                if let Some(path) = &f.out {
                    writeln!(out, "wrote {path}")?;
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(TwError::usage(format!("unknown command `{other}`"))),
    }
}
