//! Static lint runs over the workload suite (`tw lint`).
//!
//! Thin glue between `tc-analyze` and the harness's report machinery:
//! runs the eight-pass pipeline over registered benchmarks and renders
//! the results through [`Table`] and [`Value`] like every other driver.

use tc_analyze::{analyze, AnalysisReport, Severity, PASS_NAMES};
use tc_workloads::WorkloadId;

use crate::harness::json::Value;
use crate::harness::table::Table;

/// One benchmark's lint result.
#[derive(Debug, Clone)]
pub struct LintEntry {
    /// The benchmark's name.
    pub benchmark: &'static str,
    /// The analysis report.
    pub report: AnalysisReport,
}

/// Lints one workload (either family) at its default scale.
#[must_use]
pub fn lint_benchmark<W: Into<WorkloadId>>(bench: W) -> LintEntry {
    let bench: WorkloadId = bench.into();
    let workload = bench.build();
    LintEntry {
        benchmark: bench.name(),
        report: analyze(workload.program()),
    }
}

/// Lints every workload of both families: the synthetic suite in
/// `Benchmark::ALL` order, then the RV32I programs.
#[must_use]
pub fn lint_all() -> Vec<LintEntry> {
    WorkloadId::all().into_iter().map(lint_benchmark).collect()
}

/// Total error-severity findings across entries.
#[must_use]
pub fn lint_errors(entries: &[LintEntry]) -> usize {
    entries.iter().map(|e| e.report.errors()).sum()
}

/// The structured form of one lint entry. Like `report_to_json`, the
/// key set is pinned by a golden test; extend it additively.
#[must_use]
pub fn lint_entry_to_json(entry: &LintEntry) -> Value {
    let r = &entry.report;
    let t = &r.taxonomy;
    let findings = r
        .findings
        .iter()
        .map(|f| {
            Value::object([
                ("pass", Value::Str(f.pass.name().to_owned())),
                ("severity", Value::Str(f.severity.to_string())),
                (
                    "at",
                    f.at.map_or(Value::Null, |a| Value::UInt(a.byte_addr())),
                ),
                ("message", Value::Str(f.message.clone())),
            ])
        })
        .collect();
    Value::object([
        ("benchmark", Value::Str(entry.benchmark.to_owned())),
        (
            "passes",
            Value::Array(
                PASS_NAMES
                    .iter()
                    .map(|p| Value::Str((*p).to_owned()))
                    .collect(),
            ),
        ),
        ("instructions", Value::UInt(r.instructions as u64)),
        ("blocks", Value::UInt(r.blocks as u64)),
        ("reachable_blocks", Value::UInt(r.reachable_blocks as u64)),
        ("errors", Value::UInt(r.errors() as u64)),
        ("warnings", Value::UInt(r.warnings() as u64)),
        ("infos", Value::UInt(r.at_severity(Severity::Info) as u64)),
        (
            "taxonomy",
            Value::object([
                ("cond_branches", Value::UInt(t.cond_branches() as u64)),
                ("cond_backward", Value::UInt(t.cond_backward() as u64)),
                (
                    "cond_short_backward",
                    Value::UInt(t.cond_short_backward() as u64),
                ),
                (
                    "promotion_candidates",
                    Value::UInt(t.promotion_candidates() as u64),
                ),
                ("jumps", Value::UInt(t.jumps() as u64)),
                ("calls", Value::UInt(t.calls() as u64)),
                ("returns", Value::UInt(t.returns() as u64)),
                ("indirect_jumps", Value::UInt(t.indirect_jumps() as u64)),
                ("indirect_calls", Value::UInt(t.indirect_calls() as u64)),
                ("traps", Value::UInt(t.traps() as u64)),
                ("back_edges", Value::UInt(t.back_edges() as u64)),
            ]),
        ),
        (
            "loops",
            Value::Array(
                r.loops
                    .iter()
                    .map(|l| {
                        Value::object([
                            ("header", Value::UInt(l.header.byte_addr())),
                            ("latch", Value::UInt(l.latch.byte_addr())),
                            ("blocks", Value::UInt(l.blocks as u64)),
                            ("instructions", Value::UInt(l.instructions as u64)),
                            ("depth", Value::UInt(l.depth as u64)),
                            ("trip_count", l.trip_count.map_or(Value::Null, Value::UInt)),
                            (
                                "static_taken_prob",
                                l.static_taken_prob.map_or(Value::Null, Value::Float),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("findings", Value::Array(findings)),
    ])
}

/// A JSON array of lint entries, in the given order.
#[must_use]
pub fn lint_to_json(entries: &[LintEntry]) -> Value {
    Value::Array(entries.iter().map(lint_entry_to_json).collect())
}

/// A summary table of lint results, one row per benchmark.
#[must_use]
pub fn lint_table(entries: &[LintEntry]) -> String {
    let mut table = Table::new(&[
        "benchmark",
        "insts",
        "blocks",
        "dead",
        "cond",
        "loops",
        "back<=32",
        "promo",
        "errors",
        "warns",
    ]);
    for e in entries {
        let r = &e.report;
        table.row(vec![
            e.benchmark.to_owned(),
            r.instructions.to_string(),
            r.blocks.to_string(),
            (r.blocks - r.reachable_blocks).to_string(),
            r.taxonomy.cond_branches().to_string(),
            r.loops.len().to_string(),
            r.taxonomy.cond_short_backward().to_string(),
            r.taxonomy.promotion_candidates().to_string(),
            r.errors().to_string(),
            r.warnings().to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_workloads::Benchmark;

    #[test]
    fn lint_table_has_one_row_per_entry() {
        let entries = vec![
            lint_benchmark(Benchmark::Compress),
            lint_benchmark(Benchmark::Li),
        ];
        let text = lint_table(&entries);
        assert_eq!(text.lines().count(), 2 + entries.len());
        assert!(text.contains("compress"));
    }
}
