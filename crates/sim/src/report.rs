//! Simulation results.

use tc_cache::CacheStats;
use tc_core::{FetchStats, SanitizerStats, TraceCacheStats};
use tc_engine::EngineStats;
use tc_fault::FaultStats;
use tc_trace::TraceSummary;

/// Where every fetch cycle went — the six categories of the paper's
/// Figure 12.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAccounting {
    /// Cycles whose fetch returned correct-path instructions.
    pub useful_fetch: u64,
    /// Cycles fetching off the correct path or waiting for a
    /// misprediction to resolve.
    pub branch_misses: u64,
    /// Cycles stalled on instruction-cache / L2 misses.
    pub cache_misses: u64,
    /// Cycles stalled because the instruction window was full.
    pub full_window: u64,
    /// Cycles stalled draining serializing traps.
    pub traps: u64,
    /// Cycles lost generating a fetch address the predictor could not
    /// supply (indirect-target misses).
    pub misfetches: u64,
}

impl CycleAccounting {
    /// Total accounted cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.categories().iter().map(|&(_, _, cycles)| cycles).sum()
    }

    /// The six categories as `(JSON key, paper label, cycles)`, in the
    /// paper's legend order.
    #[must_use]
    pub fn categories(&self) -> [(&'static str, &'static str, u64); 6] {
        [
            ("useful_fetch", "Useful Fetch", self.useful_fetch),
            ("branch_misses", "Branch Misses", self.branch_misses),
            ("cache_misses", "Cache Misses", self.cache_misses),
            ("full_window", "Full Window", self.full_window),
            ("traps", "Traps", self.traps),
            ("misfetches", "Misfetches", self.misfetches),
        ]
    }
}

/// How a non-full-timing run divided the dynamic instruction stream
/// between the functional interpreter and the timing model.
///
/// All counts are instructions. `total_stream` is the stream position
/// reached (`fast_forwarded + warmed + measured`); for a fast-forward
/// run resumed from a checkpoint, `fast_forwarded` includes the
/// instructions the checkpointed machine had already retired, so the
/// resumed report is bit-identical to the unresumed one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplingStats {
    /// Instructions executed functionally with no timing and no warming.
    pub fast_forwarded: u64,
    /// Instructions that functionally warmed the front end (bias table,
    /// predictors, trace cache) without being timed.
    pub warmed: u64,
    /// Instructions issued through the full timing model.
    pub measured: u64,
    /// Timed measurement windows (1 for a plain fast-forward run).
    pub windows: u64,
    /// Total dynamic instructions traversed.
    pub total_stream: u64,
}

impl SamplingStats {
    /// Fraction of the traversed stream that ran through the timing
    /// model (`0.0` for an empty run).
    #[must_use]
    pub fn timed_fraction(&self) -> f64 {
        if self.total_stream == 0 {
            0.0
        } else {
            (self.measured + self.warmed) as f64 / self.total_stream as f64
        }
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Workload name.
    pub benchmark: String,
    /// Configuration label.
    pub config: String,
    /// Correct-path instructions completed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Fetch-cycle accounting.
    pub accounting: CycleAccounting,
    /// Front-end fetch statistics (histograms, effective fetch rate,
    /// prediction demand).
    pub fetch: FetchStats,
    /// Dynamic conditional branches on the correct path.
    pub cond_branches: u64,
    /// Mispredicted non-promoted conditional branches.
    pub cond_mispredicts: u64,
    /// Promoted branches that faulted (count as mispredictions, §4).
    pub promoted_faults: u64,
    /// Promoted branches executed on the correct path.
    pub promoted_executed: u64,
    /// Indirect jumps/calls whose predicted target was wrong.
    pub indirect_mispredicts: u64,
    /// Indirect jumps/calls executed.
    pub indirect_executed: u64,
    /// Returns whose RAS prediction was wrong (always 0 with the
    /// paper's ideal-return model).
    pub return_mispredicts: u64,
    /// Sum of misprediction resolution times (prediction to redirect).
    pub resolution_cycles: u64,
    /// Number of resolved mispredictions.
    pub resolution_events: u64,
    /// Trace-cache statistics, when a trace cache is configured.
    pub trace_cache: Option<TraceCacheStats>,
    /// Bias-table promotions/demotions, when promotion is configured.
    pub promotions: Option<(u64, u64)>,
    /// L1 instruction cache statistics.
    pub icache: CacheStats,
    /// L1 data cache statistics.
    pub dcache: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Execution-engine statistics.
    pub engine: EngineStats,
    /// Salvaged (inactive-issue) instructions that became useful.
    pub salvaged: u64,
    /// Runtime invariant-sanitizer activity (all-zero counters when the
    /// sanitizer is disabled).
    pub sanitizer: SanitizerStats,
    /// Fault-injection outcome counters; `None` when no fault plan was
    /// attached, so plain reports — and their JSON — stay bit-identical
    /// to pre-fault builds.
    pub fault: Option<FaultStats>,
    /// Event-tracing summary; `None` when the run was untraced (the
    /// default), so untraced reports — and their JSON — are bit-
    /// identical to pre-tracing builds.
    pub trace: Option<TraceSummary>,
    /// Stream division for fast-forward/sampled runs; `None` in
    /// full-timing mode, so full-timing reports — and the golden
    /// fixtures — keep the exact pre-mode key set.
    pub sampling: Option<SamplingStats>,
    /// Promotion-plan provenance and per-class coverage; `None` when no
    /// plan was attached, so plan-free reports — and their JSON — stay
    /// bit-identical to pre-plan builds.
    pub plan: Option<crate::plan::PlanStats>,
}

impl SimReport {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// The effective fetch rate (paper definition).
    #[must_use]
    pub fn effective_fetch_rate(&self) -> f64 {
        self.fetch.effective_fetch_rate()
    }

    /// All mispredicted branches: conditional + promoted faults +
    /// indirect (the paper's Figure 14 metric; returns are ideal).
    #[must_use]
    pub fn mispredicted_branches(&self) -> u64 {
        self.cond_mispredicts + self.promoted_faults + self.indirect_mispredicts
    }

    /// Conditional mispredictions including promoted faults (the
    /// paper's Figure 7 metric).
    #[must_use]
    pub fn cond_mispredicted_branches(&self) -> u64 {
        self.cond_mispredicts + self.promoted_faults
    }

    /// Conditional misprediction rate in `[0, 1]` (promoted faults
    /// included, per §4).
    #[must_use]
    pub fn cond_mispredict_rate(&self) -> f64 {
        let total = self.cond_branches + self.promoted_executed + self.promoted_faults;
        if total == 0 {
            0.0
        } else {
            self.cond_mispredicted_branches() as f64 / total as f64
        }
    }

    /// Average misprediction resolution time in cycles (Figure 15).
    #[must_use]
    pub fn avg_resolution_time(&self) -> f64 {
        if self.resolution_events == 0 {
            0.0
        } else {
            self.resolution_cycles as f64 / self.resolution_events as f64
        }
    }

    /// Cycles lost to branch mispredictions (Figure 13 metric).
    #[must_use]
    pub fn mispredict_lost_cycles(&self) -> u64 {
        self.accounting.branch_misses
    }

    /// Fetch-side cache-miss cycles (Table 4 metric).
    #[must_use]
    pub fn cache_miss_cycles(&self) -> u64 {
        self.accounting.cache_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> SimReport {
        SimReport {
            instructions: 100,
            cycles: 50,
            accounting: CycleAccounting {
                useful_fetch: 30,
                branch_misses: 10,
                cache_misses: 5,
                full_window: 3,
                traps: 1,
                misfetches: 1,
            },
            cond_branches: 20,
            cond_mispredicts: 2,
            promoted_faults: 1,
            promoted_executed: 9,
            indirect_mispredicts: 1,
            indirect_executed: 4,
            resolution_cycles: 30,
            resolution_events: 3,
            ..SimReport::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let r = empty_report();
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        assert_eq!(r.mispredicted_branches(), 4);
        assert_eq!(r.cond_mispredicted_branches(), 3);
        assert!((r.cond_mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((r.avg_resolution_time() - 10.0).abs() < 1e-12);
        assert_eq!(r.accounting.total(), 50);
    }
}
