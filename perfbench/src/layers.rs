//! Turns a traced run's replays, reports and serve figures into the
//! per-layer metrics.

use tc_sim::SimReport;
use tc_workloads::Workload;

use crate::metrics::Outcome;
use crate::replay::{CrateShares, LayerCosts};
use crate::serve::{ServeFigures, ServeLayers};
use crate::util::{mean, ratio};

/// Stream and window spec of the sampling-accuracy probe on workloads
/// whose own cells are full-timing: (budget, warmup, measure, period).
pub const ACCURACY_PROBE: (u64, u64, u64, u64) = (200_000, 4_000, 2_000, 20_000);

/// Everything a traced run measured.
pub struct Layers<'a> {
    pub costs: LayerCosts,
    pub shares: CrateShares,
    /// Instructions the runs timed through the full model.
    pub timed_insts: f64,
    pub reports: Vec<&'a SimReport>,
    pub run_s: Vec<f64>,
    pub report_json_us: Vec<f64>,
    pub build_ms: f64,
    pub timed_fraction: f64,
    /// Sampled-vs-full relative error (%) of fetch rate and mispredict
    /// rate.
    pub sampling_err: (f64, f64),
    pub serve: ServeFigures,
    pub serve_layers: ServeLayers,
    pub overhead_pct: f64,
}

#[must_use]
pub fn rel_err_pct(estimate: f64, reference: f64) -> f64 {
    ratio((estimate - reference).abs(), reference) * 100.0
}

/// Mean relative error (%) of a sampled run against a full-timing run
/// of the same stream under `headline`, per [`ACCURACY_PROBE`], over
/// `workloads`.
#[must_use]
pub fn sampling_error(workloads: &[&Workload]) -> (f64, f64) {
    let (budget, warmup, measure, period) = ACCURACY_PROBE;
    let config = crate::cells::preset_config("headline").with_max_insts(budget);
    let mut fetch = Vec::new();
    let mut mispredict = Vec::new();
    for workload in workloads {
        let full = crate::sim::run_cell(workload, &config).report;
        let sampled_config = config.clone().with_sampling(warmup, measure, period);
        let sampled = crate::sim::run_cell(workload, &sampled_config).report;
        fetch.push(rel_err_pct(
            sampled.effective_fetch_rate(),
            full.effective_fetch_rate(),
        ));
        mispredict.push(rel_err_pct(
            sampled.cond_mispredict_rate(),
            full.cond_mispredict_rate(),
        ));
    }
    (mean(&fetch), mean(&mispredict))
}

fn sum(reports: &[&SimReport], f: impl Fn(&SimReport) -> u64) -> f64 {
    reports.iter().map(|r| f(r) as f64).sum()
}

/// Sets every per-layer metric of `out`.
pub fn set(out: &mut Outcome, l: &Layers<'_>) {
    let c = &l.costs;
    let per = |ns: u64, calls: u64| ratio(ns as f64, calls as f64);
    out.set("workloads.build_ms", l.build_ms);
    out.set("isa.blockcache_build_ms", c.blockcache_ns as f64 / 1e6);
    out.set("isa.interp_ns_per_inst", per(c.interp_ns, c.insts));
    out.set("isa.fastpath_ns_per_inst", per(c.fastpath_ns, c.insts));
    out.set("core.fetch_ns_per_call", per(c.fetch_ns, c.fetch_calls));
    out.set("core.fill_ns_per_inst", per(c.fill_ns, c.fill_insts));
    out.set("core.warm_ns_per_inst", per(c.warm_ns, c.insts));
    out.set("predict.ns_per_branch", per(c.predict_ns, c.branches));
    out.set(
        "cache.ns_per_access",
        per(
            c.icache_ns + c.dcache_ns,
            c.icache_accesses + c.dcache_accesses,
        ),
    );
    out.set("engine.ns_per_issue", per(c.engine_ns, c.insts));
    out.set("sim.run_s", mean(&l.run_s));
    out.set(
        "sim.loop_self_ns_per_inst",
        ratio(l.shares.sim, l.timed_insts),
    );
    out.set("sim.report_json_us", mean(&l.report_json_us));

    let s = &l.shares;
    let total = s.total();
    for (name, part) in [
        ("share.isa_pct", s.isa),
        ("share.core_pct", s.core),
        ("share.predict_pct", s.predict),
        ("share.cache_pct", s.cache),
        ("share.engine_pct", s.engine),
        ("share.sim_pct", s.sim),
    ] {
        out.set(name, ratio(part, total) * 100.0);
    }

    let r = &l.reports;
    let tc_hits = sum(r, |r| r.trace_cache.as_ref().map_or(0, |t| t.hits));
    let tc_lookups = sum(r, |r| r.trace_cache.as_ref().map_or(0, |t| t.lookups()));
    let cond = sum(r, |r| {
        r.cond_branches + r.promoted_executed + r.promoted_faults
    });
    let cycles = sum(r, |r| r.accounting.total());
    out.set("core.tc_hit_ratio", ratio(tc_hits, tc_lookups));
    out.set(
        "core.fetch_rate",
        ratio(
            sum(r, |r| r.fetch.correct_instructions),
            sum(r, |r| r.fetch.productive_fetches),
        ),
    );
    out.set(
        "core.promo_coverage",
        ratio(sum(r, |r| r.promoted_executed), cond),
    );
    out.set(
        "core.avg_segment_len",
        ratio(c.segment_insts as f64, c.segments as f64),
    );
    out.set(
        "core.split_refused_ratio",
        ratio(
            c.splits_refused as f64,
            (c.splits_refused + c.blocks_split) as f64,
        ),
    );
    out.set(
        "predict.cond_mispredict_rate",
        ratio(sum(r, SimReport::cond_mispredicted_branches), cond),
    );
    out.set(
        "cache.icache_miss_ratio",
        ratio(sum(r, |r| r.icache.misses), sum(r, |r| r.icache.accesses())),
    );
    out.set(
        "cache.dcache_miss_ratio",
        ratio(sum(r, |r| r.dcache.misses), sum(r, |r| r.dcache.accesses())),
    );
    out.set(
        "engine.full_window_share",
        ratio(sum(r, |r| r.accounting.full_window), cycles),
    );
    out.set(
        "sim.branch_miss_share",
        ratio(sum(r, |r| r.accounting.branch_misses), cycles),
    );
    out.set("sim.timed_fraction", l.timed_fraction);
    out.set("sampled.fetch_err_pct", l.sampling_err.0);
    out.set("sampled.mispredict_err_pct", l.sampling_err.1);

    let v = &l.serve;
    let sl = &l.serve_layers;
    out.set("serve.connect_us", v.connect_us);
    out.set("serve.http_read_us", sl.http_read_us);
    out.set("serve.wire_parse_us", sl.wire_parse_us);
    out.set("serve.cache_lookup_us", sl.cache_lookup_us);
    out.set("serve.queue_push_pop_us", sl.queue_push_pop_us);
    out.set("serve.http_write_us", sl.http_write_us);
    out.set("serve.compute_ms", v.compute_ms);
    out.set("serve.queue_wait_ms", v.queue_wait_ms);
    out.set("serve.hit_p50_ms", v.hit_p50_ms);
    out.set("serve.hit_p99_ms", v.hit_p99_ms);
    out.set("serve.miss_p50_ms", v.miss_p50_ms);
    out.set("serve.miss_p99_ms", v.miss_p99_ms);
    out.set("serve.gen_lag_ms", v.gen_lag_ms);
    out.set("serve.cache_hit_ratio", v.cache_hit_ratio);
    out.set("serve.queue_shed", v.queue_shed);
    out.set("serve.conns_shed", v.conns_shed);

    out.set("fail_ratio", ratio(out.failed as f64, out.attempted as f64));
    out.set("trace.overhead_pct", l.overhead_pct);
}
