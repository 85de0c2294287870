//! The parallel matrix runner.
//!
//! Every multi-cell experiment is a set of independent `(benchmark,
//! configuration)` cells; the simulator is single-threaded and
//! deterministic, so the cells can run on worker threads with results
//! collected back into caller order — parallel output is bit-identical
//! to serial output (asserted by the `harness` integration tests).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tc_workloads::{Benchmark, Workload, WorkloadId};

use crate::config::SimConfig;
use crate::processor::Processor;
use crate::report::SimReport;

/// Upper bound on any requested worker-thread count. Values past this
/// are typos or hostile input, not machines: spawning a million scoped
/// threads aborts the process long before it simulates anything.
pub const MAX_JOBS: usize = 1024;

/// The worker-thread count: an explicit request, else the `TW_JOBS`
/// environment variable, else the machine's available parallelism.
///
/// Library fallback form: a malformed `TW_JOBS` is ignored. Drivers
/// that own a user-facing contract (the `tw` binary) should call
/// [`try_default_jobs`] instead, which reports the malformation.
#[must_use]
pub fn default_jobs() -> usize {
    try_default_jobs().unwrap_or_else(|_| available_jobs())
}

/// Strict form of [`default_jobs`]: a `TW_JOBS` that is set but
/// malformed — unparseable, zero, or past [`MAX_JOBS`] — is an error
/// instead of a silent fallback.
///
/// # Errors
///
/// Returns a one-line description of the malformed `TW_JOBS` value.
pub fn try_default_jobs() -> Result<usize, String> {
    match std::env::var("TW_JOBS") {
        Err(std::env::VarError::NotPresent) => Ok(available_jobs()),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("TW_JOBS: value is not valid UTF-8".to_string())
        }
        Ok(raw) => {
            validate_jobs(raw.trim().parse().map_err(|_| {
                format!("TW_JOBS: bad value {:?} (want a thread count)", raw.trim())
            })?)
            .map_err(|e| format!("TW_JOBS: {e}"))
        }
    }
}

/// Validates a requested worker count against the `1..=MAX_JOBS`
/// contract shared by `--jobs` and `TW_JOBS`.
///
/// # Errors
///
/// Returns the reason the count is outside the accepted range.
pub fn validate_jobs(jobs: usize) -> Result<usize, String> {
    if jobs == 0 {
        Err("must be at least 1".to_string())
    } else if jobs > MAX_JOBS {
        Err(format!("{jobs} exceeds the {MAX_JOBS}-thread cap"))
    } else {
        Ok(jobs)
    }
}

fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs every cell on up to `jobs` worker threads and returns the
/// reports in the order the cells were given.
///
/// Cells name workloads from either family — anything convertible to a
/// [`WorkloadId`] (a bare [`Benchmark`] still works). Each distinct
/// workload is built once and shared (read-only) across threads.
/// `jobs == 1` degenerates to a serial loop over the same code path.
#[must_use]
pub fn run_matrix<W: Into<WorkloadId> + Copy>(
    cells: &[(W, SimConfig)],
    jobs: usize,
) -> Vec<SimReport> {
    let cells: Vec<(WorkloadId, SimConfig)> = cells
        .iter()
        .map(|(w, c)| ((*w).into(), c.clone()))
        .collect();
    let mut workloads: HashMap<&'static str, Workload> = HashMap::new();
    for (bench, _) in &cells {
        workloads
            .entry(bench.name())
            .or_insert_with(|| bench.build());
    }
    run_matrix_shared(&cells, &workloads, jobs, false)
}

/// [`run_matrix`] against pre-built workloads (every cell's workload
/// must be present in `workloads`).
fn run_matrix_shared(
    cells: &[(WorkloadId, SimConfig)],
    workloads: &HashMap<&'static str, Workload>,
    jobs: usize,
    verbose: bool,
) -> Vec<SimReport> {
    par_map(cells, jobs, |(bench, config)| {
        if verbose {
            eprintln!("  running {} under {} ...", bench.name(), config.label());
        }
        Processor::new(config.clone()).run(&workloads[bench.name()])
    })
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads and
/// returns the results in `items` order. Workers pull the next index
/// from a shared counter, so the output is identical for every
/// `jobs ≥ 1` whenever `f` is deterministic; `jobs == 1` degenerates
/// to a serial loop over the same code path.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let result = f(item);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot.into_inner() {
            Ok(Some(result)) => result,
            // Scoped workers fill every slot or propagate their panic
            // before the scope returns.
            _ => unreachable!("scoped worker left its result slot empty"),
        })
        .collect()
}

/// [`run_matrix`] with a progress watchdog.
///
/// With `timeout == None` this is exactly `run_matrix` (same threads,
/// same order, bit-identical reports), each cell wrapped in `Some`.
/// With a timeout, cells run on *detached* workers and completed
/// reports stream back over a channel; whenever no cell completes for
/// `timeout`, the remaining cells are declared hung and returned as
/// `None` — a wedged simulation can no longer pin the whole matrix
/// (the stuck threads are abandoned; they die with the process).
#[must_use]
pub fn run_matrix_watchdog<W: Into<WorkloadId> + Copy>(
    cells: &[(W, SimConfig)],
    jobs: usize,
    timeout: Option<Duration>,
) -> Vec<Option<SimReport>> {
    let Some(timeout) = timeout else {
        return run_matrix(cells, jobs).into_iter().map(Some).collect();
    };
    let cells: Vec<(WorkloadId, SimConfig)> = cells
        .iter()
        .map(|(w, c)| ((*w).into(), c.clone()))
        .collect();
    let jobs = jobs.clamp(1, cells.len().max(1));
    let mut workloads: HashMap<&'static str, Workload> = HashMap::new();
    for (bench, _) in &cells {
        workloads
            .entry(bench.name())
            .or_insert_with(|| bench.build());
    }
    let cells: Arc<Vec<(WorkloadId, SimConfig)>> = Arc::new(cells);
    let workloads = Arc::new(workloads);
    let next = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = std::sync::mpsc::channel::<(usize, SimReport)>();
    for _ in 0..jobs {
        let cells = Arc::clone(&cells);
        let workloads = Arc::clone(&workloads);
        let next = Arc::clone(&next);
        let tx = tx.clone();
        std::thread::spawn(move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((bench, config)) = cells.get(i) else {
                break;
            };
            let report = Processor::new(config.clone()).run(&workloads[bench.name()]);
            if tx.send((i, report)).is_err() {
                break;
            }
        });
    }
    drop(tx);
    let mut out: Vec<Option<SimReport>> = cells.iter().map(|_| None).collect();
    let mut received = 0usize;
    while received < out.len() {
        match rx.recv_timeout(timeout) {
            Ok((i, report)) => {
                out[i] = Some(report);
                received += 1;
            }
            // Timed out with cells outstanding, or every worker exited
            // without delivering them (a worker panic closes its
            // sender): the missing cells stay `None`.
            Err(_) => break,
        }
    }
    out
}

/// The memoizing experiment runner: many figures share configurations,
/// so each `(benchmark, configuration, budget)` cell simulates once per
/// process; cache misses within one request execute in parallel.
///
/// This is the engine behind the `paper` binary and `tw compare`. The
/// per-runner instruction budget is applied to every cell, and results
/// are keyed by `(benchmark, SimConfig::label())` — the label uniquely
/// identifies a configuration.
pub struct MatrixRunner {
    insts: u64,
    jobs: usize,
    verbose: bool,
    workloads: HashMap<&'static str, Workload>,
    cache: HashMap<(&'static str, String), SimReport>,
}

impl MatrixRunner {
    /// Creates a runner with a per-cell dynamic instruction budget and
    /// the default worker count ([`default_jobs`]).
    #[must_use]
    pub fn new(insts: u64, verbose: bool) -> MatrixRunner {
        MatrixRunner {
            insts,
            jobs: default_jobs(),
            verbose,
            workloads: HashMap::new(),
            cache: HashMap::new(),
        }
    }

    /// Overrides the worker-thread count (minimum 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> MatrixRunner {
        self.jobs = jobs.max(1);
        self
    }

    /// The instruction budget per simulation.
    #[must_use]
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// The worker-thread count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Ensures every cell is simulated, running the misses in parallel.
    pub fn prefetch<W: Into<WorkloadId> + Copy>(&mut self, cells: &[(W, SimConfig)]) {
        let mut missing: Vec<(WorkloadId, SimConfig)> = Vec::new();
        let mut queued: std::collections::HashSet<(&'static str, String)> =
            std::collections::HashSet::new();
        for (bench, config) in cells {
            let bench: WorkloadId = (*bench).into();
            let key = (bench.name(), config.label());
            if !self.cache.contains_key(&key) && queued.insert(key) {
                missing.push((bench, config.clone().with_max_insts(self.insts)));
            }
        }
        if missing.is_empty() {
            return;
        }
        for (bench, _) in &missing {
            self.workloads
                .entry(bench.name())
                .or_insert_with(|| bench.build());
        }
        let reports = run_matrix_shared(&missing, &self.workloads, self.jobs, self.verbose);
        for ((bench, config), report) in missing.into_iter().zip(reports) {
            self.cache.insert((bench.name(), config.label()), report);
        }
    }

    /// Runs (or recalls) one cell.
    pub fn run<W: Into<WorkloadId> + Copy>(&mut self, bench: W, config: &SimConfig) -> &SimReport {
        let bench: WorkloadId = bench.into();
        let key = (bench.name(), config.label());
        if !self.cache.contains_key(&key) {
            self.prefetch(std::slice::from_ref(&(bench, config.clone())));
        }
        &self.cache[&key]
    }

    /// Runs the given cells (in parallel where uncached) and returns
    /// cloned reports in the given order.
    pub fn run_cells<W: Into<WorkloadId> + Copy>(
        &mut self,
        cells: &[(W, SimConfig)],
    ) -> Vec<SimReport> {
        self.prefetch(cells);
        cells
            .iter()
            .map(|(bench, config)| {
                let bench: WorkloadId = (*bench).into();
                self.cache[&(bench.name(), config.label())].clone()
            })
            .collect()
    }

    /// Runs the whole suite under one configuration, returning cloned
    /// reports in suite order.
    pub fn run_suite(&mut self, config: &SimConfig) -> Vec<SimReport> {
        let cells: Vec<(Benchmark, SimConfig)> = Benchmark::ALL
            .iter()
            .map(|&b| (b, config.clone()))
            .collect();
        self.run_cells(&cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_validation_enforces_the_range_contract() {
        assert!(validate_jobs(0).is_err());
        assert_eq!(validate_jobs(1), Ok(1));
        assert_eq!(validate_jobs(MAX_JOBS), Ok(MAX_JOBS));
        let over = validate_jobs(MAX_JOBS + 1).unwrap_err();
        assert!(over.contains("cap"), "{over}");
    }

    // `TW_JOBS` environment handling is contract-tested end-to-end in
    // the root `tests/cli.rs` (subprocess isolation); mutating the
    // process environment here would race the other harness tests.
}
