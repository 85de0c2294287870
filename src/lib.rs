//! Facade crate for the trace-weave workspace.
//!
//! Re-exports the sub-crates so examples and integration tests can use a
//! single dependency. See the individual crates for full documentation:
//!
//! * [`isa`] — the RISC-like ISA, assembler, and functional interpreter
//! * [`analyze`] — CFG-based static verification passes (`tw lint`)
//! * [`rv`] — the RV32I decode/translate front end (`tw rv`, `rv/` suite)
//! * [`workloads`] — the 15 synthetic Table-1 benchmarks plus the
//!   compiled `rv/` family
//! * [`cache`] — set-associative caches and the memory hierarchy
//! * [`predict`] — branch predictors and the branch bias table
//! * [`core`] — trace cache, fill unit, branch promotion, trace packing
//! * [`engine`] — the out-of-order execution engine model
//! * [`trace`] — the cycle-level event-tracing layer (`tw trace`)
//! * [`fault`] — deterministic fault plans and the injector (`tw faults`)
//! * [`sim`] — whole-processor simulation driver and reports

pub use tc_analyze as analyze;
pub use tc_cache as cache;
pub use tc_core as core;
pub use tc_engine as engine;
pub use tc_fault as fault;
pub use tc_isa as isa;
pub use tc_predict as predict;
pub use tc_rv as rv;
pub use tc_sim as sim;
pub use tc_trace as trace;
pub use tc_workloads as workloads;
