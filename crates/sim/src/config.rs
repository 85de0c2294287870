//! Simulation configuration presets for every machine the paper
//! evaluates.

use tc_cache::HierarchyConfig;
use tc_core::{FrontEndConfig, PackingPolicy, StaticPromotionTable};
use tc_engine::EngineConfig;
use tc_fault::FaultPlan;

use crate::plan::PromotionPlan;

/// How a run divides the dynamic instruction stream between the
/// functional interpreter and the timing model.
///
/// The functional interpreter alone runs orders of magnitude faster
/// than the timing front end; these modes let long streams be traversed
/// at interpreter speed while timing only the regions of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Every instruction runs through the timing front end (default;
    /// bit-identical to the pre-mode simulator).
    FullTiming,
    /// Fast-forward the first `skip` instructions functionally
    /// (predecoded block dispatch, no timing, no warming), then time up
    /// to the configured `max_insts` budget. Resuming from a checkpoint
    /// taken at instruction `skip` is bit-identical to this mode.
    FastForward {
        /// Instructions to execute functionally before timing attaches.
        skip: u64,
    },
    /// SMARTS-style sampled simulation. The stream is traversed in
    /// repeating `period`-instruction windows: each window fast-forwards
    /// `period - warmup - measure` instructions, functionally warms the
    /// front end (bias table, predictors, trace cache) for `warmup`
    /// instructions, then times `measure` instructions. `max_insts`
    /// bounds the *total* stream traversed, so a sampled run covers the
    /// same dynamic region as a full-timing run with the same budget.
    Sample {
        /// Functional-warming instructions per window.
        warmup: u64,
        /// Timed instructions per window.
        measure: u64,
        /// Total window length (`warmup + measure <= period`).
        period: u64,
    },
}

/// Complete machine + run configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Front-end structure.
    pub front_end: FrontEndConfig,
    /// Execution-core parameters.
    pub engine: EngineConfig,
    /// Memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Dynamic-instruction budget (the paper ran 41M–500M; scaled runs
    /// default to 2M).
    pub max_insts: u64,
    /// Static (profile-guided) promotion table; replaces the dynamic
    /// bias table when set (§4's static-promotion alternative).
    pub static_promotion: Option<StaticPromotionTable>,
    /// Deterministic fault-injection plan; `None` (the default) leaves
    /// every fault path untouched and keeps reports bit-identical to a
    /// plain run.
    pub fault_plan: Option<FaultPlan>,
    /// How functional execution and timing divide the stream
    /// ([`ExecutionMode::FullTiming`] by default, which is bit-identical
    /// to the pre-mode simulator).
    pub mode: ExecutionMode,
    /// Per-branch promotion plan (`tw analyze` output); `None` (the
    /// default) keeps the table-wide bias threshold for every branch
    /// and reports bit-identical to pre-plan builds.
    pub promotion_plan: Option<PromotionPlan>,
}

/// Default dynamic-instruction budget.
pub const DEFAULT_MAX_INSTS: u64 = 2_000_000;

impl SimConfig {
    fn with_front_end(front_end: FrontEndConfig, hierarchy: HierarchyConfig) -> SimConfig {
        SimConfig {
            front_end,
            engine: EngineConfig::paper_realistic(),
            hierarchy,
            max_insts: DEFAULT_MAX_INSTS,
            static_promotion: None,
            fault_plan: None,
            mode: ExecutionMode::FullTiming,
            promotion_plan: None,
        }
    }

    /// The icache-only reference machine (128 KB i-cache, hybrid
    /// predictor, one fetch block per cycle).
    #[must_use]
    pub fn icache() -> SimConfig {
        SimConfig::with_front_end(
            FrontEndConfig::icache_only(),
            HierarchyConfig::paper_icache_only(),
        )
    }

    /// The baseline trace-cache machine (§3).
    #[must_use]
    pub fn baseline() -> SimConfig {
        SimConfig::with_front_end(
            FrontEndConfig::baseline(),
            HierarchyConfig::paper_trace_cache(),
        )
    }

    /// Baseline + branch promotion at `threshold` (§4).
    #[must_use]
    pub fn promotion(threshold: u32) -> SimConfig {
        SimConfig::with_front_end(
            FrontEndConfig::promotion(threshold),
            HierarchyConfig::paper_trace_cache(),
        )
    }

    /// Promotion with a single-prediction hybrid predictor driving the
    /// trace cache (§4's suggestion for near-term designs).
    #[must_use]
    pub fn promotion_hybrid(threshold: u32) -> SimConfig {
        SimConfig::with_front_end(
            FrontEndConfig::promotion_hybrid(threshold),
            HierarchyConfig::paper_trace_cache(),
        )
    }

    /// Baseline + trace packing under `policy` (§5).
    #[must_use]
    pub fn packing(policy: PackingPolicy) -> SimConfig {
        SimConfig::with_front_end(
            FrontEndConfig::packing(policy),
            HierarchyConfig::paper_trace_cache(),
        )
    }

    /// Promotion + packing combined.
    #[must_use]
    pub fn promotion_packing(threshold: u32, policy: PackingPolicy) -> SimConfig {
        SimConfig::with_front_end(
            FrontEndConfig::promotion_packing(threshold, policy),
            HierarchyConfig::paper_trace_cache(),
        )
    }

    /// The paper's headline fetch-rate configuration: promotion at 64
    /// with unregulated packing.
    #[must_use]
    pub fn headline_fetch() -> SimConfig {
        SimConfig::promotion_packing(64, PackingPolicy::Unregulated)
    }

    /// The paper's headline performance configuration: promotion at 64
    /// with cost-regulated packing (Figure 11).
    #[must_use]
    pub fn headline_perf() -> SimConfig {
        SimConfig::promotion_packing(64, PackingPolicy::CostRegulated)
    }

    /// Switches to the perfect-memory-disambiguation core (§6).
    #[must_use]
    pub fn with_perfect_disambiguation(mut self) -> SimConfig {
        self.engine = EngineConfig::paper_perfect();
        self
    }

    /// Overrides the dynamic-instruction budget.
    #[must_use]
    pub fn with_max_insts(mut self, max_insts: u64) -> SimConfig {
        self.max_insts = max_insts;
        self
    }

    /// Replaces dynamic promotion with a static (profile-guided) table.
    #[must_use]
    pub fn with_static_promotion(mut self, table: StaticPromotionTable) -> SimConfig {
        self.front_end.promotion = None;
        self.static_promotion = Some(table);
        self
    }

    /// Uses a finite return-address stack and real return prediction
    /// instead of the paper's ideal RAS.
    #[must_use]
    pub fn with_finite_ras(mut self, depth: usize) -> SimConfig {
        self.front_end.ras_depth = Some(depth);
        self
    }

    /// Disables partial matching (a diverging trace line supplies only
    /// its first fetch block).
    #[must_use]
    pub fn without_partial_matching(mut self) -> SimConfig {
        self.front_end.partial_matching = false;
        self
    }

    /// Disables inactive issue (off-path blocks are discarded instead of
    /// issued and salvaged).
    #[must_use]
    pub fn without_inactive_issue(mut self) -> SimConfig {
        self.front_end.inactive_issue = false;
        self
    }

    /// Enables trace-cache path associativity.
    #[must_use]
    pub fn with_path_associativity(mut self) -> SimConfig {
        if let Some(tc) = &mut self.front_end.trace_cache {
            *tc = tc.with_path_assoc();
        }
        self
    }

    /// Attaches a fault-injection plan. The sanitizer is forced on —
    /// it is the detection half of the quarantine/recovery machinery —
    /// so fault runs behave identically in debug and release builds.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> SimConfig {
        // A no-fault plan must leave the configuration (label, sanitizer
        // setting, report shape) bit-identical to never attaching one.
        if plan.is_none() {
            self.fault_plan = None;
            return self;
        }
        self.front_end.sanitize = true;
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a per-branch promotion plan (`tw analyze` output). The
    /// plan's threshold overrides and never-promote verdicts are
    /// installed into the bias table at run start; configurations
    /// without dynamic promotion ignore the plan (the report still
    /// records its provenance). The label gains a `+plan` suffix so
    /// result caches keyed on labels never conflate planned and
    /// unplanned runs.
    #[must_use]
    pub fn with_promotion_plan(mut self, plan: PromotionPlan) -> SimConfig {
        self.promotion_plan = Some(plan);
        self
    }

    /// Fast-forwards `skip` instructions functionally before timing
    /// attaches (see [`ExecutionMode::FastForward`]).
    #[must_use]
    pub fn with_fast_forward(mut self, skip: u64) -> SimConfig {
        self.mode = ExecutionMode::FastForward { skip };
        self
    }

    /// Enables SMARTS-style sampling (see [`ExecutionMode::Sample`]).
    ///
    /// # Panics
    ///
    /// Panics if `measure` is zero or `warmup + measure` exceeds
    /// `period`; the CLI validates user input before calling this.
    #[must_use]
    pub fn with_sampling(mut self, warmup: u64, measure: u64, period: u64) -> SimConfig {
        assert!(measure > 0, "sampling measure window must be non-zero");
        assert!(
            warmup
                .checked_add(measure)
                .is_some_and(|used| used <= period),
            "sampling window overflows the period: warmup {warmup} + measure {measure} > period {period}"
        );
        self.mode = ExecutionMode::Sample {
            warmup,
            measure,
            period,
        };
        self
    }

    /// A short label for tables ("icache", "tc", "tc+promo64+unreg", …).
    ///
    /// The label uniquely identifies the configuration (non-default
    /// geometries are spelled out) — experiment runners key result
    /// caches on it.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = self.front_end.label();
        if let Some(tc) = &self.front_end.trace_cache {
            if tc.entries != 2048 {
                label.push_str(&format!("+tc{}", tc.entries));
            }
        }
        if let Some(p) = &self.front_end.promotion {
            if p.bias.entries != 8192 || !p.bias.tagged {
                label.push_str(&format!(
                    "+bias{}{}",
                    p.bias.entries,
                    if p.bias.tagged { "" } else { "u" }
                ));
            }
        }
        if self.static_promotion.is_some() {
            label.push_str("+static");
        }
        if !self.front_end.partial_matching {
            label.push_str("+nopm");
        }
        if !self.front_end.inactive_issue {
            label.push_str("+noii");
        }
        if self.front_end.trace_cache.is_some_and(|tc| tc.path_assoc) {
            label.push_str("+passoc");
        }
        if let Some(d) = self.front_end.ras_depth {
            label.push_str(&format!("+ras{d}"));
        }
        if self.engine.perfect_disambiguation {
            label.push_str("+perfmem");
        }
        if let Some(plan) = &self.fault_plan {
            label.push('+');
            label.push_str(&plan.label());
        }
        if self.promotion_plan.is_some() {
            label.push_str("+plan");
        }
        match self.mode {
            ExecutionMode::FullTiming => {}
            ExecutionMode::FastForward { skip } => {
                label.push_str(&format!("+ff{skip}"));
            }
            ExecutionMode::Sample {
                warmup,
                measure,
                period,
            } => {
                label.push_str(&format!("+sample{measure}/{period}w{warmup}"));
            }
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_select_consistent_hierarchies() {
        assert_eq!(
            SimConfig::icache().hierarchy.icache.capacity_bytes(),
            128 * 1024
        );
        assert_eq!(
            SimConfig::baseline().hierarchy.icache.capacity_bytes(),
            4 * 1024
        );
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::headline_perf()
            .with_perfect_disambiguation()
            .with_max_insts(5);
        assert!(c.engine.perfect_disambiguation);
        assert_eq!(c.max_insts, 5);
        assert!(c.label().contains("perfmem"));
    }
}
