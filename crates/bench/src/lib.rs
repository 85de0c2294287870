//! Home of the `paper` harness and the microbenchmarks.
//!
//! The experiment machinery (memoizing parallel runner, table renderer,
//! statistics helpers) lives in `tc_sim::harness`. This crate adds the
//! dependency-free timing harness [`micro`], which backs the `benches/`
//! targets (the workspace builds offline, so Criterion is not
//! available). Whole-simulator throughput is measured by the standalone
//! `perfbench/` package.
//!
//! The binary `paper` (see `src/bin/paper.rs`) regenerates every table
//! and figure of the paper's evaluation:
//!
//! ```text
//! cargo run --release -p tc-bench --bin paper -- all
//! cargo run --release -p tc-bench --bin paper -- fig10 --insts 2000000 --jobs 8
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod micro;
