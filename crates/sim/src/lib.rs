//! Whole-processor simulation: front end + execution engine + memory.
//!
//! This crate drives the `tc-core` fetch mechanism and the `tc-engine`
//! out-of-order core against the `tc-workloads` benchmarks, reproducing
//! the paper's experimental machine:
//!
//! * 16-wide fetch from a 2K-entry trace cache (or the 128 KB reference
//!   i-cache), 4 KB supporting i-cache, 1 MB L2, 50-cycle memory;
//! * a gshare multiple-branch predictor (or hybrid for the icache front
//!   end) with speculative history and repair;
//! * wrong-path fetch modeling (cache pollution during misprediction
//!   shadows);
//! * inactive issue with salvage: instructions issued inactively from a
//!   partially matched trace segment become useful when the prediction
//!   proves wrong;
//! * ideal return-address prediction, last-target indirect prediction;
//! * six-way fetch-cycle accounting (Figure 12): useful fetch, branch
//!   misses, cache misses, full window, traps, misfetches.
//!
//! Entry point: [`Processor::run`] (or the [`simulate`] convenience
//! wrapper), producing a [`SimReport`]. Attaching a
//! `tc_fault::FaultPlan` via [`SimConfig::with_fault_plan`] turns a run
//! into a deterministic fault-injection experiment (see the `fault`
//! counters in the report).
//!
//! # Example
//!
//! ```
//! use tc_sim::{simulate, SimConfig};
//! use tc_workloads::Benchmark;
//!
//! let config = SimConfig::baseline().with_max_insts(20_000);
//! let report = simulate(Benchmark::Compress, &config);
//! assert!(report.ipc() > 0.5);
//! assert!(report.effective_fetch_rate() > 1.0);
//! ```
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod config;
mod plan;
mod processor;
mod report;

pub mod harness;

pub use config::{ExecutionMode, SimConfig};
pub use harness::MatrixRunner;
pub use plan::{PlanEntry, PlanStats, PromotionPlan};
pub use processor::Processor;
pub use report::{CycleAccounting, SamplingStats, SimReport};
pub use tc_fault::{FaultLocus, FaultPlan, FaultStats};

use tc_workloads::WorkloadId;

/// Builds the workload (either family) at its default scale and
/// simulates it under `config`.
#[must_use]
pub fn simulate<W: Into<WorkloadId>>(benchmark: W, config: &SimConfig) -> SimReport {
    let workload = benchmark.into().build();
    Processor::new(config.clone()).run(&workload)
}
