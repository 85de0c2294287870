//! The harness's one JSON value type: every report, artifact and wire
//! body is built as a [`Value`] and rendered here, and every document
//! read back is parsed into the same type ([`super::parse`]).
//!
//! The workspace builds offline with no external crates, so this is a
//! small hand-rolled layer. Object keys keep insertion order, making the
//! schema stable and goldenable; non-finite floats are emitted as `null`
//! (JSON has no NaN/Inf), and a test asserts every numeric field of a
//! real report is finite.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::report::SimReport;

/// A JSON value with order-preserving objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer: every counter the harness emits, and
    /// every non-negative integer literal that fits when parsing.
    UInt(u64),
    /// Any other number; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object whose keys keep insertion order (parsed duplicates are
    /// kept as-is). Emitters use static keys; parsed keys are owned.
    Object(Vec<(Cow<'static, str>, Value)>),
}

impl Value {
    /// An object with static keys, in the given order.
    #[must_use]
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// Renders compact JSON (no insignificant whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation for human consumption.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Member lookup on objects; `None` elsewhere or when absent.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: `Some` only for an
    /// integer, never for a float that merely looks whole.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is `true` or `false`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => write_f64(out, *x),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{}` prints the shortest representation that round-trips,
        // which is always a valid JSON number for finite values.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The structured form of one [`SimReport`].
///
/// The key set is part of the tool's public interface: the `harness`
/// golden test pins it, so extend it additively.
#[must_use]
pub fn report_to_json(r: &SimReport) -> Value {
    let (p01, p2, p3) = r.fetch.prediction_demand();
    let trace_cache = match &r.trace_cache {
        None => Value::Null,
        Some(tc) => Value::object([
            ("hits", Value::UInt(tc.hits)),
            ("misses", Value::UInt(tc.misses)),
            ("fills", Value::UInt(tc.fills)),
            ("evictions", Value::UInt(tc.evictions)),
            ("duplicate_fills", Value::UInt(tc.duplicate_fills)),
            ("miss_ratio", Value::Float(tc.miss_ratio())),
        ]),
    };
    let promotions = match r.promotions {
        None => Value::Null,
        Some((promoted, demoted)) => Value::object([
            ("promotions", Value::UInt(promoted)),
            ("demotions", Value::UInt(demoted)),
        ]),
    };
    let cache = |s: &tc_cache::CacheStats| {
        Value::object([
            ("hits", Value::UInt(s.hits)),
            ("misses", Value::UInt(s.misses)),
            ("evictions", Value::UInt(s.evictions)),
            ("miss_ratio", Value::Float(s.miss_ratio())),
        ])
    };
    let mut fields = vec![
        ("benchmark", Value::Str(r.benchmark.clone())),
        ("config", Value::Str(r.config.clone())),
        ("instructions", Value::UInt(r.instructions)),
        ("cycles", Value::UInt(r.cycles)),
        ("ipc", Value::Float(r.ipc())),
        (
            "effective_fetch_rate",
            Value::Float(r.effective_fetch_rate()),
        ),
        (
            "cond_mispredict_rate",
            Value::Float(r.cond_mispredict_rate()),
        ),
        ("avg_resolution_time", Value::Float(r.avg_resolution_time())),
        ("cond_branches", Value::UInt(r.cond_branches)),
        ("cond_mispredicts", Value::UInt(r.cond_mispredicts)),
        ("promoted_executed", Value::UInt(r.promoted_executed)),
        ("promoted_faults", Value::UInt(r.promoted_faults)),
        ("indirect_executed", Value::UInt(r.indirect_executed)),
        ("indirect_mispredicts", Value::UInt(r.indirect_mispredicts)),
        ("return_mispredicts", Value::UInt(r.return_mispredicts)),
        ("salvaged", Value::UInt(r.salvaged)),
        (
            "accounting",
            Value::object(
                r.accounting
                    .categories()
                    .map(|(key, _, cycles)| (key, Value::UInt(cycles)))
                    .into_iter()
                    .chain([(
                        "unaccounted",
                        Value::UInt(r.cycles.saturating_sub(r.accounting.total())),
                    )]),
            ),
        ),
        (
            "fetch",
            Value::object([
                (
                    "productive_fetches",
                    Value::UInt(r.fetch.productive_fetches),
                ),
                (
                    "correct_instructions",
                    Value::UInt(r.fetch.correct_instructions),
                ),
                ("tc_fetches", Value::UInt(r.fetch.tc_fetches)),
                ("icache_fetches", Value::UInt(r.fetch.icache_fetches)),
                ("promoted_fetched", Value::UInt(r.fetch.promoted_fetched)),
                (
                    "prediction_demand",
                    Value::Array(vec![Value::Float(p01), Value::Float(p2), Value::Float(p3)]),
                ),
            ]),
        ),
        ("trace_cache", trace_cache),
        ("promotions", promotions),
        (
            "caches",
            Value::object([
                ("icache", cache(&r.icache)),
                ("dcache", cache(&r.dcache)),
                ("l2", cache(&r.l2)),
            ]),
        ),
        (
            "engine",
            Value::object([
                ("issued", Value::UInt(r.engine.issued)),
                ("loads", Value::UInt(r.engine.loads)),
                ("stores", Value::UInt(r.engine.stores)),
                ("wait_cycles", Value::UInt(r.engine.wait_cycles)),
            ]),
        ),
        (
            "sanitizer",
            Value::object([
                ("enabled", Value::Bool(r.sanitizer.enabled)),
                ("checked_fills", Value::UInt(r.sanitizer.checked_fills)),
                ("checked_hits", Value::UInt(r.sanitizer.checked_hits)),
                ("errors", Value::UInt(r.sanitizer.errors)),
                ("warnings", Value::UInt(r.sanitizer.warnings)),
            ]),
        ),
    ];
    // Appended only for traced runs: untraced reports — and the 30
    // golden fixtures — keep the exact pre-tracing key set.
    // Likewise for fault runs: without a fault plan the key set is
    // unchanged.
    if let Some(f) = &r.fault {
        fields.push((
            "fault",
            Value::object([
                ("injected", Value::UInt(f.injected)),
                ("detected", Value::UInt(f.detected)),
                ("recovered", Value::UInt(f.recovered)),
                ("escaped", Value::UInt(f.escaped)),
                ("recovery_cycles", Value::UInt(f.recovery_cycles)),
            ]),
        ));
    }
    if let Some(t) = &r.trace {
        fields.push(("trace", trace_summary_to_json(t)));
    }
    // Appended only for fast-forward/sampled runs: full-timing reports
    // keep the exact pre-mode key set.
    if let Some(s) = &r.sampling {
        fields.push((
            "sampling",
            Value::object([
                ("fast_forwarded", Value::UInt(s.fast_forwarded)),
                ("warmed", Value::UInt(s.warmed)),
                ("measured", Value::UInt(s.measured)),
                ("windows", Value::UInt(s.windows)),
                ("total_stream", Value::UInt(s.total_stream)),
                ("timed_fraction", Value::Float(s.timed_fraction())),
            ]),
        ));
    }
    // Appended only when a promotion plan was attached: plan-free
    // reports keep the exact pre-plan key set.
    if let Some(p) = &r.plan {
        let class = |counts: &[u64; 4]| {
            Value::object(
                tc_predict::BranchClass::ALL
                    .into_iter()
                    .map(|c| (c.name(), Value::UInt(counts[c.index()]))),
            )
        };
        fields.push((
            "plan",
            Value::object([
                ("workload", Value::Str(p.workload.clone())),
                ("profiled_instructions", Value::UInt(p.profiled_insts)),
                ("entries", Value::UInt(p.entries)),
                ("never_promote", Value::UInt(p.never_promote)),
                ("class_branches", class(&p.class_branches)),
                ("class_execs", class(&p.class_execs)),
                ("class_promoted", class(&p.class_promoted)),
                ("class_faults", class(&p.class_faults)),
                ("class_promotions", class(&p.class_promotions)),
            ]),
        ));
    }
    Value::object(fields)
}

/// The structured form of a [`tc_trace::TraceSummary`]: overall ring
/// accounting plus non-zero per-kind event counts.
#[must_use]
pub fn trace_summary_to_json(t: &tc_trace::TraceSummary) -> Value {
    let counts = tc_trace::EventKind::ALL
        .iter()
        .filter(|k| t.count(**k) > 0)
        .map(|k| (k.name(), Value::UInt(t.count(*k))));
    Value::object(
        t.totals()
            .map(|(name, n)| (name, Value::UInt(n)))
            .into_iter()
            .chain([("counts", Value::object(counts))]),
    )
}

/// A JSON array of reports, in the given order.
#[must_use]
pub fn reports_to_json(reports: &[SimReport]) -> Value {
    Value::Array(reports.iter().map(report_to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escapes() {
        assert_eq!(Value::Null.render(), "null");
        assert_eq!(Value::Bool(true).render(), "true");
        assert_eq!(Value::UInt(42).render(), "42");
        assert_eq!(Value::Float(1.5).render(), "1.5");
        assert_eq!(Value::Float(f64::NAN).render(), "null");
        assert_eq!(
            Value::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(Value::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn renders_composites_in_order() {
        let v = Value::object([
            ("b", Value::UInt(1)),
            ("a", Value::Array(vec![Value::UInt(2), Value::Null])),
        ]);
        assert_eq!(v.render(), "{\"b\":1,\"a\":[2,null]}");
        assert!(v.pretty().contains("\"a\": [\n"));
        assert_eq!(v.get("b"), Some(&Value::UInt(1)));
        assert_eq!(v.get("missing"), None);
    }
}
