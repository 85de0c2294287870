//! Golden tests for `tw lint`: the JSON schema is pinned (like the
//! simulation report's), the whole workload suite is clean at error
//! severity, and the table renderer covers every benchmark.

use tc_sim::harness::{
    lint_all, lint_benchmark, lint_entry_to_json, lint_errors, lint_table, Value,
};
use tc_workloads::{Benchmark, RvBench, WorkloadId};

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_ref()).collect(),
        _ => panic!("expected object"),
    }
}

/// Golden test: the key set of one lint entry is stable. Extend it
/// additively — downstream scripts consume `tw lint --json`.
#[test]
fn lint_json_schema_is_stable() {
    let entry = lint_benchmark(Benchmark::Compress);
    let json = lint_entry_to_json(&entry);

    assert_eq!(
        keys(&json),
        [
            "benchmark",
            "passes",
            "instructions",
            "blocks",
            "reachable_blocks",
            "errors",
            "warnings",
            "infos",
            "taxonomy",
            "loops",
            "findings",
        ]
    );
    assert_eq!(
        keys(json.get("taxonomy").expect("taxonomy object")),
        [
            "cond_branches",
            "cond_backward",
            "cond_short_backward",
            "promotion_candidates",
            "jumps",
            "calls",
            "returns",
            "indirect_jumps",
            "indirect_calls",
            "traps",
            "back_edges",
        ]
    );
    match json.get("loops").expect("loops array") {
        Value::Array(loops) => {
            assert!(!loops.is_empty(), "compress has natural loops");
            for l in loops {
                assert_eq!(
                    keys(l),
                    [
                        "header",
                        "latch",
                        "blocks",
                        "instructions",
                        "depth",
                        "trip_count",
                        "static_taken_prob",
                    ]
                );
            }
        }
        _ => panic!("expected array"),
    }
    // The pass list names the eight-pass pipeline, in execution order.
    match json.get("passes").expect("passes array") {
        Value::Array(passes) => {
            let names: Vec<&str> = passes
                .iter()
                .map(|p| match p {
                    Value::Str(s) => s.as_str(),
                    _ => panic!("pass names are strings"),
                })
                .collect();
            assert_eq!(
                names,
                [
                    "well-formed",
                    "reachability",
                    "def-use",
                    "call-return",
                    "dominators",
                    "loops",
                    "trip-count",
                    "taxonomy"
                ]
            );
        }
        _ => panic!("expected array"),
    }
}

/// Findings serialize with pass, severity, location, and message.
#[test]
fn lint_findings_carry_structured_fields() {
    // li is known to carry def-use warnings (stack-pointer reads before
    // any write — benign zero-register idiom), so its findings list is
    // non-empty.
    let entry = lint_benchmark(Benchmark::Li);
    assert!(entry.report.warnings() > 0, "li carries def-use warnings");
    let json = lint_entry_to_json(&entry);
    match json.get("findings").expect("findings array") {
        Value::Array(findings) => {
            assert!(!findings.is_empty());
            for f in findings {
                assert_eq!(keys(f), ["pass", "severity", "at", "message"]);
            }
        }
        _ => panic!("expected array"),
    }
}

/// The RV family goes through the same pinned schema: a translated
/// program lints like a synthetic one, with the `rv/` name in the
/// benchmark field.
#[test]
fn lint_json_schema_covers_rv_workloads() {
    let entry = lint_benchmark(RvBench::Crc);
    assert_eq!(entry.benchmark, "rv/crc");
    let json = lint_entry_to_json(&entry);
    assert_eq!(
        keys(&json),
        [
            "benchmark",
            "passes",
            "instructions",
            "blocks",
            "reachable_blocks",
            "errors",
            "warnings",
            "infos",
            "taxonomy",
            "loops",
            "findings",
        ]
    );
    match json.get("loops").expect("loops array") {
        Value::Array(loops) => assert!(!loops.is_empty(), "crc is loop-structured"),
        _ => panic!("expected array"),
    }
}

/// The entire workload suite — both families — lints clean at error
/// severity: every target in bounds, no fallthrough off the end, Halt
/// reachable — the invariant `scripts/verify.sh` gates on.
#[test]
fn whole_suite_is_error_clean() {
    let entries = lint_all();
    assert_eq!(entries.len(), WorkloadId::COUNT);
    for e in &entries {
        assert_eq!(
            e.report.errors(),
            0,
            "{} has error-severity findings: {:?}",
            e.benchmark,
            e.report.findings
        );
        assert!(e.report.instructions > 0);
        assert_eq!(
            e.report.blocks, e.report.reachable_blocks,
            "{} has unreachable blocks",
            e.benchmark
        );
    }
    assert_eq!(lint_errors(&entries), 0);
}

/// The summary table renders one row per workload plus the header,
/// covering both families.
#[test]
fn lint_table_covers_the_suite() {
    let entries = lint_all();
    let text = lint_table(&entries);
    assert_eq!(text.lines().count(), 2 + entries.len());
    for w in WorkloadId::all() {
        assert!(text.contains(w.name()), "missing row for {}", w.name());
    }
}
