//! `tw bench --compare`: diff two `tw-bench/v1` artifacts.
//!
//! Matches cells by `(benchmark, config)` and compares `ns_per_cycle`
//! (host nanoseconds per simulated cycle — the suite's primary
//! throughput metric, lower is better). A cell whose new value exceeds
//! the old by more than the tolerance is a **regression**; `tw` exits
//! non-zero when any exist, which is how `scripts/verify.sh` and CI
//! gate simulator performance. Cells present in only one artifact are
//! reported but never fail the comparison — matrices legitimately grow
//! when presets are added.
//!
//! When both artifacts carry the fidelity columns (`fetch_rate`,
//! `mispredict_rate`, `promo_coverage`), the comparison additionally
//! gates on effective fetch rate: a cell whose fetch rate *dropped* by
//! more than the tolerance is a fidelity regression. This is the gate
//! the promotion-plan ablation runs under — a plan is only accepted if
//! promotion coverage improves without costing fetch bandwidth.

use tc_sim::harness::{parse_json, Value};

use crate::suite::SCHEMA;

/// One matched cell's old-vs-new throughput.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// Benchmark name.
    pub benchmark: String,
    /// Configuration preset name.
    pub config: String,
    /// Old artifact's ns/cycle.
    pub old_ns_per_cycle: f64,
    /// New artifact's ns/cycle.
    pub new_ns_per_cycle: f64,
    /// Old artifact's effective MIPS (absent in pre-MIPS artifacts).
    pub old_mips: Option<f64>,
    /// New artifact's effective MIPS (absent in pre-MIPS artifacts).
    pub new_mips: Option<f64>,
    /// Old effective fetch rate (absent in pre-fidelity artifacts).
    pub old_fetch_rate: Option<f64>,
    /// New effective fetch rate (absent in pre-fidelity artifacts).
    pub new_fetch_rate: Option<f64>,
    /// Old conditional misprediction rate, `[0, 1]`.
    pub old_mispredict_rate: Option<f64>,
    /// New conditional misprediction rate, `[0, 1]`.
    pub new_mispredict_rate: Option<f64>,
    /// Old promoted fraction of conditional-branch executions.
    pub old_promo_coverage: Option<f64>,
    /// New promoted fraction of conditional-branch executions.
    pub new_promo_coverage: Option<f64>,
}

impl CellDelta {
    /// Percent change, positive = slower (a potential regression).
    #[must_use]
    pub fn delta_pct(&self) -> f64 {
        if self.old_ns_per_cycle == 0.0 {
            0.0
        } else {
            (self.new_ns_per_cycle - self.old_ns_per_cycle) / self.old_ns_per_cycle * 100.0
        }
    }

    /// Fetch-rate percent change, negative = lost fetch bandwidth (a
    /// potential fidelity regression). `None` when either artifact
    /// predates the fidelity columns.
    #[must_use]
    pub fn fetch_delta_pct(&self) -> Option<f64> {
        match (self.old_fetch_rate, self.new_fetch_rate) {
            (Some(old), Some(new)) if old != 0.0 => Some((new - old) / old * 100.0),
            _ => None,
        }
    }

    /// Promotion-coverage change in percentage points, positive = more
    /// branch executions ran promoted.
    #[must_use]
    pub fn promo_delta_pp(&self) -> Option<f64> {
        match (self.old_promo_coverage, self.new_promo_coverage) {
            (Some(old), Some(new)) => Some((new - old) * 100.0),
            _ => None,
        }
    }

    /// Misprediction-rate change in percentage points, negative = fewer
    /// mispredicts.
    #[must_use]
    pub fn mispredict_delta_pp(&self) -> Option<f64> {
        match (self.old_mispredict_rate, self.new_mispredict_rate) {
            (Some(old), Some(new)) => Some((new - old) * 100.0),
            _ => None,
        }
    }
}

/// One preset's sampled-vs-full accuracy summary, read from an
/// artifact's `sampling_probes` section (empty for pre-probe artifacts).
#[derive(Debug, Clone)]
pub struct ProbeSummary {
    /// Configuration preset name.
    pub config: String,
    /// Wall-clock speedup of sampling over full timing.
    pub speedup: f64,
    /// Sampled effective MIPS.
    pub sampled_mips: f64,
    /// Sampled-vs-full effective-fetch-rate delta, percent.
    pub fetch_rate_delta_pct: f64,
    /// Sampled-vs-full misprediction-rate delta, percentage points.
    pub mispredict_delta_pp: f64,
    /// Sampled-vs-full promotion-coverage delta, percentage points.
    pub promo_coverage_delta_pp: f64,
}

/// A completed artifact comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Regression threshold, in percent slower.
    pub tolerance_pct: f64,
    /// Matched cells, in the old artifact's order.
    pub deltas: Vec<CellDelta>,
    /// `benchmark/config` labels present only in the old artifact.
    pub only_old: Vec<String>,
    /// `benchmark/config` labels present only in the new artifact.
    pub only_new: Vec<String>,
    /// The new artifact's per-preset sampling probes, if it has any.
    pub probes: Vec<ProbeSummary>,
}

impl Comparison {
    /// The cells slower than the tolerance allows.
    #[must_use]
    pub fn regressions(&self) -> Vec<&CellDelta> {
        self.deltas
            .iter()
            .filter(|d| d.delta_pct() > self.tolerance_pct)
            .collect()
    }

    /// The cells whose effective fetch rate dropped by more than the
    /// tolerance (cells without fidelity columns never qualify).
    #[must_use]
    pub fn fetch_regressions(&self) -> Vec<&CellDelta> {
        self.deltas
            .iter()
            .filter(|d| {
                d.fetch_delta_pct()
                    .is_some_and(|pct| -pct > self.tolerance_pct)
            })
            .collect()
    }
}

/// One parsed artifact cell row.
pub(crate) struct CellRow {
    benchmark: String,
    config: String,
    ns_per_cycle: f64,
    /// Absent in artifacts written before the MIPS column existed.
    effective_mips: Option<f64>,
    /// Absent in artifacts written before the fidelity columns existed.
    fetch_rate: Option<f64>,
    mispredict_rate: Option<f64>,
    promo_coverage: Option<f64>,
}

/// Reads the cell rows of a `tw-bench/v1` artifact.
///
/// # Errors
///
/// Describes the first problem: bad JSON, a wrong schema, a missing or
/// mistyped cell field, or no cells at all.
pub(crate) fn artifact_cells(text: &str) -> Result<Vec<CellRow>, String> {
    let doc = parse_json(text)?;
    let schema = doc.get("schema").and_then(Value::as_str);
    if schema != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} artifact (schema {schema:?})"));
    }
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("missing cells array")?;
    let mut rows = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let field = |name: &str| {
            cell.get(name)
                .ok_or_else(|| format!("cell {i} missing {name:?}"))
        };
        let benchmark = field("benchmark")?
            .as_str()
            .ok_or_else(|| format!("cell {i} benchmark is not a string"))?
            .to_string();
        let config = field("config")?
            .as_str()
            .ok_or_else(|| format!("cell {i} config is not a string"))?
            .to_string();
        let ns = field("ns_per_cycle")?
            .as_f64()
            .ok_or_else(|| format!("cell {i} ns_per_cycle is not a number"))?;
        rows.push(CellRow {
            benchmark,
            config,
            ns_per_cycle: ns,
            effective_mips: cell.get("effective_mips").and_then(Value::as_f64),
            fetch_rate: cell.get("fetch_rate").and_then(Value::as_f64),
            mispredict_rate: cell.get("mispredict_rate").and_then(Value::as_f64),
            promo_coverage: cell.get("promo_coverage").and_then(Value::as_f64),
        });
    }
    if rows.is_empty() {
        return Err("artifact has no cells".to_string());
    }
    Ok(rows)
}

/// Reads an artifact's `sampling_probes` section; artifacts written
/// before the section existed yield an empty list, and individually
/// malformed probe entries are skipped rather than failing the compare.
fn artifact_probes(doc: &Value) -> Vec<ProbeSummary> {
    let Some(probes) = doc.get("sampling_probes").and_then(Value::as_array) else {
        return Vec::new();
    };
    probes
        .iter()
        .filter_map(|p| {
            let num = |name: &str| p.get(name).and_then(Value::as_f64);
            Some(ProbeSummary {
                config: p.get("config")?.as_str()?.to_string(),
                speedup: num("speedup")?,
                sampled_mips: num("sampled_mips")?,
                fetch_rate_delta_pct: num("fetch_rate_delta_pct")?,
                mispredict_delta_pp: num("mispredict_delta_pp")?,
                promo_coverage_delta_pp: num("promo_coverage_delta_pp")?,
            })
        })
        .collect()
}

/// Compares two `tw-bench/v1` artifacts.
///
/// # Errors
///
/// Returns a description of the first structural problem in either
/// artifact (bad JSON, wrong schema, missing cell fields, no cells, or
/// zero matching cells).
pub fn compare_artifacts(
    old_text: &str,
    new_text: &str,
    tolerance_pct: f64,
) -> Result<Comparison, String> {
    let old = artifact_cells(old_text).map_err(|e| format!("old: {e}"))?;
    let new = artifact_cells(new_text).map_err(|e| format!("new: {e}"))?;
    let probes = parse_json(new_text).map_or_else(|_| Vec::new(), |doc| artifact_probes(&doc));
    let mut deltas = Vec::new();
    let mut only_old = Vec::new();
    for o in &old {
        match new
            .iter()
            .find(|n| n.benchmark == o.benchmark && n.config == o.config)
        {
            Some(n) => deltas.push(CellDelta {
                benchmark: o.benchmark.clone(),
                config: o.config.clone(),
                old_ns_per_cycle: o.ns_per_cycle,
                new_ns_per_cycle: n.ns_per_cycle,
                old_mips: o.effective_mips,
                new_mips: n.effective_mips,
                old_fetch_rate: o.fetch_rate,
                new_fetch_rate: n.fetch_rate,
                old_mispredict_rate: o.mispredict_rate,
                new_mispredict_rate: n.mispredict_rate,
                old_promo_coverage: o.promo_coverage,
                new_promo_coverage: n.promo_coverage,
            }),
            None => only_old.push(format!("{}/{}", o.benchmark, o.config)),
        }
    }
    let only_new = new
        .iter()
        .filter(|n| {
            !old.iter()
                .any(|o| o.benchmark == n.benchmark && o.config == n.config)
        })
        .map(|n| format!("{}/{}", n.benchmark, n.config))
        .collect();
    if deltas.is_empty() {
        return Err("no matching cells between the two artifacts".to_string());
    }
    Ok(Comparison {
        tolerance_pct,
        deltas,
        only_old,
        only_new,
        probes,
    })
}

/// Renders the comparison as the table `tw bench --compare` prints.
#[must_use]
pub fn render(comparison: &Comparison) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:12} {:12} {:>12} {:>12} {:>9} {:>16} {:>9} {:>10}",
        "benchmark",
        "config",
        "old ns/cyc",
        "new ns/cyc",
        "delta",
        "eff MIPS o->n",
        "fetch d%",
        "promo dpp"
    );
    for d in &comparison.deltas {
        let fetch_regressed = d
            .fetch_delta_pct()
            .is_some_and(|pct| -pct > comparison.tolerance_pct);
        let flag = if d.delta_pct() > comparison.tolerance_pct {
            "  REGRESSION"
        } else if fetch_regressed {
            "  FETCH REGRESSION"
        } else {
            ""
        };
        let mips = match (d.old_mips, d.new_mips) {
            (Some(o), Some(n)) => format!("{o:.1}->{n:.1}"),
            (None, Some(n)) => format!("-->{n:.1}"),
            (Some(o), None) => format!("{o:.1}->-"),
            (None, None) => "-".to_string(),
        };
        let fetch = d
            .fetch_delta_pct()
            .map_or_else(|| "-".to_string(), |pct| format!("{pct:+.2}%"));
        let promo = d
            .promo_delta_pp()
            .map_or_else(|| "-".to_string(), |pp| format!("{pp:+.2}"));
        let _ = writeln!(
            out,
            "{:12} {:12} {:>12.1} {:>12.1} {:>+8.1}% {mips:>16} {fetch:>9} {promo:>10}{flag}",
            d.benchmark,
            d.config,
            d.old_ns_per_cycle,
            d.new_ns_per_cycle,
            d.delta_pct()
        );
    }
    for label in &comparison.only_old {
        let _ = writeln!(out, "{label}: only in old artifact");
    }
    for label in &comparison.only_new {
        let _ = writeln!(out, "{label}: only in new artifact");
    }
    if !comparison.probes.is_empty() {
        let _ = writeln!(out, "\nsampling accuracy (new artifact):");
        let _ = writeln!(
            out,
            "{:12} {:>8} {:>10} {:>11} {:>11} {:>11}",
            "config", "speedup", "eff MIPS", "fetch d%", "mispred dpp", "promo dpp"
        );
        for p in &comparison.probes {
            let _ = writeln!(
                out,
                "{:12} {:>7.1}x {:>10.1} {:>+10.2}% {:>+11.3} {:>+11.3}",
                p.config,
                p.speedup,
                p.sampled_mips,
                p.fetch_rate_delta_pct,
                p.mispredict_delta_pp,
                p.promo_coverage_delta_pp
            );
        }
    }
    let regressions = comparison.regressions().len();
    let fetch_regressions = comparison.fetch_regressions().len();
    let _ = writeln!(
        out,
        "{} cell(s) compared, {regressions} throughput + {fetch_regressions} fetch-rate \
         regression(s) beyond {:.0}%",
        comparison.deltas.len(),
        comparison.tolerance_pct
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(cells: &[(&str, &str, u64, u64)]) -> String {
        use std::fmt::Write as _;
        let mut out =
            format!("{{\"schema\":\"{SCHEMA}\",\"insts_per_cell\":1000,\"samples\":1,\"cells\":[");
        for (i, (b, c, cycles, wall_ns)) in cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"benchmark\":\"{b}\",\"config\":\"{c}\",\"instructions\":1000,\
                 \"cycles\":{cycles},\"wall_ns\":{wall_ns},\"ns_per_cycle\":{},\
                 \"instrs_per_sec\":1.0}}",
                *wall_ns as f64 / *cycles as f64
            );
        }
        out.push_str("]}");
        out
    }

    #[test]
    fn detects_an_injected_regression() {
        let old = artifact(&[
            ("compress", "icache", 500, 50_000),
            ("gcc", "headline", 500, 60_000),
        ]);
        // Doctored: gcc/headline got twice as slow; compress unchanged.
        let new = artifact(&[
            ("compress", "icache", 500, 50_000),
            ("gcc", "headline", 500, 120_000),
        ]);
        let cmp = compare_artifacts(&old, &new, 10.0).unwrap();
        assert_eq!(cmp.deltas.len(), 2);
        let regressions = cmp.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].benchmark, "gcc");
        assert!((regressions[0].delta_pct() - 100.0).abs() < 1e-9);
        assert!(render(&cmp).contains("REGRESSION"));
    }

    #[test]
    fn improvement_and_within_tolerance_pass() {
        let old = artifact(&[("compress", "icache", 500, 50_000)]);
        let faster = artifact(&[("compress", "icache", 500, 40_000)]);
        assert!(compare_artifacts(&old, &faster, 10.0)
            .unwrap()
            .regressions()
            .is_empty());
        let slightly_slower = artifact(&[("compress", "icache", 500, 52_000)]);
        assert!(compare_artifacts(&old, &slightly_slower, 10.0)
            .unwrap()
            .regressions()
            .is_empty());
    }

    #[test]
    fn unmatched_cells_are_reported_not_failed() {
        let old = artifact(&[
            ("compress", "icache", 500, 50_000),
            ("go", "baseline", 500, 50_000),
        ]);
        let new = artifact(&[
            ("compress", "icache", 500, 50_000),
            ("perl", "headline", 500, 50_000),
        ]);
        let cmp = compare_artifacts(&old, &new, 10.0).unwrap();
        assert_eq!(cmp.deltas.len(), 1);
        assert_eq!(cmp.only_old, ["go/baseline"]);
        assert_eq!(cmp.only_new, ["perl/headline"]);
        assert!(cmp.regressions().is_empty());
    }

    #[test]
    fn old_artifacts_without_mips_or_probes_still_compare() {
        let old = artifact(&[("compress", "icache", 500, 50_000)]);
        let cmp = compare_artifacts(&old, &old, 10.0).unwrap();
        assert_eq!(cmp.deltas[0].old_mips, None);
        assert_eq!(cmp.deltas[0].new_mips, None);
        assert!(cmp.probes.is_empty());
        assert!(!render(&cmp).contains("sampling accuracy"));
    }

    #[test]
    fn mips_and_probes_are_parsed_and_rendered_when_present() {
        let old = artifact(&[("compress", "icache", 500, 50_000)]);
        let new = format!(
            "{{\"schema\":\"{SCHEMA}\",\"insts_per_cell\":1000,\"samples\":1,\"cells\":[\
             {{\"benchmark\":\"compress\",\"config\":\"icache\",\"instructions\":1000,\
             \"cycles\":500,\"wall_ns\":50000,\"ns_per_cycle\":100.0,\
             \"instrs_per_sec\":1.0,\"stream_insts\":1000,\"effective_mips\":20.0}}],\
             \"sampling_probes\":[{{\"config\":\"icache\",\"speedup\":12.5,\
             \"sampled_mips\":250.0,\"fetch_rate_delta_pct\":1.6,\
             \"mispredict_delta_pp\":-0.12,\"promo_coverage_delta_pp\":0.0}}]}}"
        );
        let cmp = compare_artifacts(&old, &new, 10.0).unwrap();
        assert_eq!(cmp.deltas[0].old_mips, None);
        assert_eq!(cmp.deltas[0].new_mips, Some(20.0));
        assert_eq!(cmp.probes.len(), 1);
        assert!((cmp.probes[0].speedup - 12.5).abs() < 1e-9);
        let rendered = render(&cmp);
        assert!(rendered.contains("sampling accuracy"));
        assert!(rendered.contains("12.5x"));
    }

    fn fidelity_artifact(cells: &[(&str, &str, f64, f64)]) -> String {
        use std::fmt::Write as _;
        let mut out =
            format!("{{\"schema\":\"{SCHEMA}\",\"insts_per_cell\":1000,\"samples\":1,\"cells\":[");
        for (i, (b, c, fetch, promo)) in cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"benchmark\":\"{b}\",\"config\":\"{c}\",\"instructions\":1000,\
                 \"cycles\":500,\"wall_ns\":50000,\"ns_per_cycle\":100.0,\
                 \"instrs_per_sec\":1.0,\"fetch_rate\":{fetch},\
                 \"mispredict_rate\":0.05,\"promo_coverage\":{promo}}}"
            );
        }
        out.push_str("]}");
        out
    }

    #[test]
    fn fetch_rate_drops_beyond_tolerance_are_fidelity_regressions() {
        let old = fidelity_artifact(&[
            ("compress", "headline", 10.0, 0.50),
            ("gcc", "headline", 8.0, 0.40),
        ]);
        // Doctored: gcc lost 25% of its fetch rate; compress's promotion
        // coverage improved with fetch bandwidth intact.
        let new = fidelity_artifact(&[
            ("compress", "headline", 10.1, 0.70),
            ("gcc", "headline", 6.0, 0.40),
        ]);
        let cmp = compare_artifacts(&old, &new, 10.0).unwrap();
        assert!(cmp.regressions().is_empty(), "throughput is unchanged");
        let fetch = cmp.fetch_regressions();
        assert_eq!(fetch.len(), 1);
        assert_eq!(fetch[0].benchmark, "gcc");
        assert!((fetch[0].fetch_delta_pct().unwrap() + 25.0).abs() < 1e-9);
        assert!((cmp.deltas[0].promo_delta_pp().unwrap() - 20.0).abs() < 1e-9);
        let rendered = render(&cmp);
        assert!(rendered.contains("FETCH REGRESSION"));
        assert!(rendered.contains("fetch-rate"));
    }

    #[test]
    fn artifacts_without_fidelity_columns_never_fetch_regress() {
        let old = artifact(&[("compress", "icache", 500, 50_000)]);
        let cmp = compare_artifacts(&old, &old, 10.0).unwrap();
        assert_eq!(cmp.deltas[0].fetch_delta_pct(), None);
        assert_eq!(cmp.deltas[0].promo_delta_pp(), None);
        assert_eq!(cmp.deltas[0].mispredict_delta_pp(), None);
        assert!(cmp.fetch_regressions().is_empty());
    }

    #[test]
    fn rejects_foreign_or_disjoint_artifacts() {
        let good = artifact(&[("compress", "icache", 500, 50_000)]);
        assert!(compare_artifacts("{\"schema\":\"other/v1\"}", &good, 10.0).is_err());
        assert!(compare_artifacts(&good, "not json", 10.0).is_err());
        let disjoint = artifact(&[("go", "baseline", 500, 50_000)]);
        assert!(compare_artifacts(&good, &disjoint, 10.0).is_err());
    }
}
