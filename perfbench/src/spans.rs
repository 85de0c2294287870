//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers, written out once when the run ends.
//!
//! A span has a name, a start and end (ns since the run's epoch), a
//! parent span, the id of the cell or request it belongs to, and a call
//! count: per-instruction layer calls are batched into one span per
//! (cell, layer).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    /// The cell or request the span belongs to.
    pub op: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

/// The span store. A disabled store records nothing, so the untraced
/// path pays one branch per call site.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    #[must_use]
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the store's epoch.
    #[must_use]
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span from `start` to `end`; returns its id (0 when
    /// disabled).
    pub fn record(
        &mut self,
        parent: u32,
        name: &'static str,
        op: &str,
        start: Instant,
        end: Instant,
        calls: u64,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = u32::try_from(self.spans.len() + 1).unwrap_or(u32::MAX);
        let span = Span {
            id,
            parent,
            name,
            op: op.to_string(),
            start_ns: self.at(start),
            end_ns: self.at(end),
            calls,
        };
        self.spans.push(span);
        id
    }

    /// Moves a recorded span's end (for a parent recorded before its
    /// children ran).
    pub fn finish(&mut self, id: u32, end: Instant) {
        let end_ns = self.at(end);
        if let Some(span) = self.spans.iter_mut().find(|s| s.id == id) {
            span.end_ns = end_ns;
        }
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"op\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}",
                s.id,
                s.parent,
                escape(s.name),
                escape(&s.op),
                s.start_ns,
                s.end_ns,
                s.calls
            );
        }
        out
    }

    /// Writes [`Spans::render`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-system error.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.render())
    }
}

/// `text` as the inside of a JSON string.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_line_is_json_whatever_the_op() {
        let mut spans = Spans::new(true);
        let t = Instant::now();
        let op = "serve /v1/sim {\"bench\":\"gcc\"} \\ \n";
        let root = spans.record(0, "replay", op, t, t, 1);
        spans.record(root, "isa.interp", op, t, t, 7);
        let text = spans.render();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let doc = tc_sim::harness::parse_json(line).expect("span line parses");
            let field = doc.get("op").and_then(tc_sim::harness::Value::as_str);
            assert_eq!(field, Some(op));
        }
    }
}
