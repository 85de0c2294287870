//! Metric names, units and the one-line JSON result.
//!
//! Every workload reports every name: the end-to-end set on an
//! untraced run, the per-layer set on a traced run. README.md maps each
//! name to the layer it measures and the workload it should move on.

use std::collections::BTreeMap;

/// End-to-end metrics, seen by a user of the simulator or the service.
pub const END_TO_END: &[(&str, &str)] = &[
    ("mips", "Minst/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named `<crate or layer>.<quantity>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Set-up layers.
    ("workloads.build_ms", "ms"),
    ("isa.blockcache_build_ms", "ms"),
    // Host time per call, from the layer replays.
    ("isa.interp_ns_per_inst", "ns"),
    ("isa.fastpath_ns_per_inst", "ns"),
    ("core.fetch_ns_per_call", "ns"),
    ("core.fill_ns_per_inst", "ns"),
    ("core.warm_ns_per_inst", "ns"),
    ("predict.ns_per_branch", "ns"),
    ("cache.ns_per_access", "ns"),
    ("engine.ns_per_issue", "ns"),
    ("sim.run_s", "s"),
    ("sim.loop_self_ns_per_inst", "ns"),
    ("sim.report_json_us", "us"),
    // Estimated share of simulation host time per crate.
    ("share.isa_pct", "%"),
    ("share.core_pct", "%"),
    ("share.predict_pct", "%"),
    ("share.cache_pct", "%"),
    ("share.engine_pct", "%"),
    ("share.sim_pct", "%"),
    // Simulated counts; they repeat exactly for a seed.
    ("core.tc_hit_ratio", "ratio"),
    ("core.fetch_rate", "inst/fetch"),
    ("core.promo_coverage", "ratio"),
    ("core.avg_segment_len", "inst"),
    ("core.split_refused_ratio", "ratio"),
    ("predict.cond_mispredict_rate", "ratio"),
    ("cache.icache_miss_ratio", "ratio"),
    ("cache.dcache_miss_ratio", "ratio"),
    ("engine.full_window_share", "ratio"),
    ("sim.branch_miss_share", "ratio"),
    ("sim.timed_fraction", "ratio"),
    ("sampled.fetch_err_pct", "%"),
    ("sampled.mispredict_err_pct", "%"),
    // The service layers.
    ("serve.connect_us", "us"),
    ("serve.http_read_us", "us"),
    ("serve.wire_parse_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.queue_push_pop_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.compute_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_shed", "count"),
    ("serve.conns_shed", "count"),
    // Whole run.
    ("fail_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// What one run prints as its last line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts operations attempted and failed.
    pub fn absorb(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The names this run must report.
    #[must_use]
    pub fn schema(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Renders the result line, or names the first metric that is
    /// missing or not a finite number.
    ///
    /// # Errors
    ///
    /// A metric of the schema was not measured.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in Outcome::schema(traced) {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}
