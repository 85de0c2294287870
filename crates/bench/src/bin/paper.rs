//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! paper <experiment> [--insts N] [--quick] [--jobs N] [--verbose]
//!
//! experiments:
//!   fig4 table2 fig6 fig7 table3 fig9 fig10 table4
//!   fig11 fig12 fig13 fig14 fig15 fig16
//!   ablation-grid ablation-tcsize ablation-bias
//!   all        — everything above, in paper order
//! ```
//!
//! Independent `(benchmark, configuration)` cells run in parallel;
//! `--jobs N` (or the `TW_JOBS` environment variable) caps the worker
//! threads. Configurations come from the experiment harness's registry
//! (`tc_sim::harness`), the same names `tw` accepts.

use std::env;

use tc_core::{PackingPolicy, TerminationReason};
use tc_sim::harness::{f2, mean, pct, percent_change, standard_five, MatrixRunner, Table};
use tc_sim::{CycleAccounting, SimConfig, SimReport};
use tc_workloads::Benchmark;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut insts: u64 = 2_000_000;
    let mut verbose = false;
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--insts" => {
                i += 1;
                insts = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--insts requires a number");
                    std::process::exit(2);
                });
            }
            "--jobs" => {
                i += 1;
                jobs = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--jobs requires a number >= 1");
                    std::process::exit(2);
                }));
            }
            "--quick" => insts = 500_000,
            "--verbose" | "-v" => verbose = true,
            other if !other.starts_with('-') => experiment = other.to_owned(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut runner = MatrixRunner::new(insts, verbose);
    if let Some(jobs) = jobs {
        runner = runner.with_jobs(jobs);
    }
    let all = [
        "fig4", "table2", "fig6", "fig7", "table3", "fig9", "fig10", "table4", "fig11", "fig12",
        "fig13", "fig14", "fig15", "fig16",
    ];
    match experiment.as_str() {
        "all" => {
            for e in all {
                run_experiment(e, &mut runner);
            }
        }
        "ablations" => {
            for e in [
                "ablation-grid",
                "ablation-tcsize",
                "ablation-bias",
                "ablation-issue",
                "ablation-static",
                "ablation-passoc",
                "ablation-ras",
                "ablation-hybrid",
            ] {
                run_experiment(e, &mut runner);
            }
        }
        e => run_experiment(e, &mut runner),
    }
}

fn run_experiment(name: &str, r: &mut MatrixRunner) {
    println!("\n================================================================");
    match name {
        "fig4" => fig4_6(r, false),
        "fig6" => fig4_6(r, true),
        "table2" => table2(r),
        "fig7" => fig7(r),
        "table3" => table3(r),
        "fig9" => fig9(r),
        "fig10" => fig10(r),
        "table4" => table4(r),
        "fig11" => fig11_16(r, false),
        "fig16" => fig11_16(r, true),
        "fig12" => fig12(r),
        "fig13" => fig13(r),
        "fig14" => fig14(r),
        "fig15" => fig15(r),
        "ablation-grid" => ablation_grid(r),
        "ablation-tcsize" => ablation_tcsize(r),
        "ablation-bias" => ablation_bias(r),
        "ablation-issue" => ablation_issue(r),
        "ablation-static" => ablation_static(r),
        "ablation-passoc" => ablation_passoc(r),
        "ablation-ras" => ablation_ras(r),
        "ablation-hybrid" => ablation_hybrid(r),
        other => {
            eprintln!("unknown experiment `{other}`");
            std::process::exit(2);
        }
    }
}

/// Every benchmark crossed with each of `configs`, for prefetching.
fn cross(configs: &[SimConfig]) -> Vec<(Benchmark, SimConfig)> {
    Benchmark::ALL
        .iter()
        .flat_map(|&bench| configs.iter().map(move |c| (bench, c.clone())))
        .collect()
}

// --- Figures 4 and 6: fetch-size histograms for gcc -------------------

fn fig4_6(r: &mut MatrixRunner, promoted: bool) {
    let (fig, config) = if promoted {
        (
            "Figure 6: fetch-size breakdown, gcc, 128KB trace cache + promotion (t=64)",
            SimConfig::promotion(64),
        )
    } else {
        (
            "Figure 4: fetch-size breakdown, gcc, baseline 128KB trace cache",
            SimConfig::baseline(),
        )
    };
    println!("{fig}\n(columns: fraction of all fetches ending for each reason)\n");
    let rep = r.run(Benchmark::Gcc, &config).clone();
    let hist = &rep.fetch.histogram;
    let total: u64 = hist.iter().flatten().sum();
    let mut header = vec!["size"];
    header.extend(TerminationReason::ALL.iter().map(|r| r.label()));
    header.push("all");
    let mut t = Table::new(&header);
    for size in 0..=16usize {
        let mut cells = vec![size.to_string()];
        let mut row_total = 0u64;
        for reason_hist in hist {
            let c = reason_hist[size];
            row_total += c;
            cells.push(format!("{:.3}", c as f64 / total.max(1) as f64));
        }
        cells.push(format!("{:.3}", row_total as f64 / total.max(1) as f64));
        t.row(cells);
    }
    println!("{}", t.render());
    let avg = rep.effective_fetch_rate();
    let paper = if promoted { 10.24 } else { 9.64 };
    println!("Average fetch size (effective fetch rate): {avg:.2}   [paper: {paper}]");
    let mut reasons = Table::new(&["reason", "fraction"]);
    for (reason, count) in rep.fetch.reason_counts() {
        reasons.row(vec![
            reason.label().to_owned(),
            format!("{:.3}", count as f64 / total.max(1) as f64),
        ]);
    }
    println!("{}", reasons.render());
}

// --- Table 2: effective fetch rate vs promotion threshold -------------

fn table2(r: &mut MatrixRunner) {
    println!("Table 2: average effective fetch rate with and without branch promotion\n");
    let paper = [
        ("icache", 5.11),
        ("baseline", 10.67),
        ("threshold=8", 11.35),
        ("threshold=16", 11.38),
        ("threshold=32", 11.39),
        ("threshold=64", 11.40),
        ("threshold=128", 11.35),
        ("threshold=256", 11.33),
    ];
    let mut t = Table::new(&["configuration", "eff fetch rate", "paper"]);
    let configs: Vec<(String, SimConfig)> =
        std::iter::once(("icache".to_owned(), SimConfig::icache()))
            .chain(std::iter::once((
                "baseline".to_owned(),
                SimConfig::baseline(),
            )))
            .chain(
                [8u32, 16, 32, 64, 128, 256]
                    .into_iter()
                    .map(|th| (format!("threshold={th}"), SimConfig::promotion(th))),
            )
            .collect();
    r.prefetch(&cross(
        &configs.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>(),
    ));
    for ((label, config), (_, paper_v)) in configs.iter().zip(paper) {
        let reports = r.run_suite(config);
        let avg = mean(reports.iter().map(SimReport::effective_fetch_rate));
        t.row(vec![label.clone(), f2(avg), format!("{paper_v}")]);
    }
    println!("{}", t.render());
}

// --- Figure 7: change in conditional mispredictions -------------------

fn fig7(r: &mut MatrixRunner) {
    println!("Figure 7: % change vs baseline in mispredicted conditional branches");
    println!("(promotion thresholds 64 / 128 / 256; negative = fewer mispredicts)\n");
    r.prefetch(&cross(&[
        SimConfig::baseline(),
        SimConfig::promotion(64),
        SimConfig::promotion(128),
        SimConfig::promotion(256),
    ]));
    let base = r.run_suite(&SimConfig::baseline());
    let mut t = Table::new(&["bench", "t=64", "t=128", "t=256"]);
    let mut sums = [0.0f64; 3];
    for (bi, &bench) in Benchmark::ALL.iter().enumerate() {
        let mut cells = vec![bench.short_name().to_owned()];
        for (ti, th) in [64u32, 128, 256].into_iter().enumerate() {
            let rep = r.run(bench, &SimConfig::promotion(th));
            let change = percent_change(
                base[bi].cond_mispredicted_branches() as f64,
                rep.cond_mispredicted_branches() as f64,
            );
            sums[ti] += change;
            cells.push(pct(change));
        }
        t.row(cells);
    }
    t.row(vec![
        "AVG".into(),
        pct(sums[0] / 15.0),
        pct(sums[1] / 15.0),
        pct(sums[2] / 15.0),
    ]);
    println!("{}", t.render());
    let base_rate = mean(base.iter().map(SimReport::cond_mispredict_rate)) * 100.0;
    let promo = r.run_suite(&SimConfig::promotion(64));
    let promo_rate = mean(promo.iter().map(SimReport::cond_mispredict_rate)) * 100.0;
    println!("Average cond misprediction rate: baseline {base_rate:.2}% -> t=64 {promo_rate:.2}%");
    println!("[paper: 8% -> 7%]");
}

// --- Table 3: predictions required per fetch --------------------------

fn table3(r: &mut MatrixRunner) {
    println!("Table 3: dynamic predictions required per fetch cycle (suite average)\n");
    let mut t = Table::new(&["configuration", "0 or 1", "2", "3", "paper"]);
    for (label, config, paper) in [
        ("baseline", SimConfig::baseline(), "54% / 18% / 28%"),
        ("threshold=64", SimConfig::promotion(64), "85% / 12% / 3%"),
    ] {
        let reports = r.run_suite(&config);
        let demand: Vec<(f64, f64, f64)> = reports
            .iter()
            .map(|rep| rep.fetch.prediction_demand())
            .collect();
        let a = mean(demand.iter().map(|d| d.0)) * 100.0;
        let b = mean(demand.iter().map(|d| d.1)) * 100.0;
        let c = mean(demand.iter().map(|d| d.2)) * 100.0;
        t.row(vec![
            label.to_owned(),
            format!("{a:.0}%"),
            format!("{b:.0}%"),
            format!("{c:.0}%"),
            paper.to_owned(),
        ]);
    }
    println!("{}", t.render());
}

// --- Figure 9: packing vs baseline fetch rates -------------------------

fn fig9(r: &mut MatrixRunner) {
    println!("Figure 9: effective fetch rates with and without trace packing\n");
    r.prefetch(&cross(&[
        SimConfig::baseline(),
        SimConfig::packing(PackingPolicy::Unregulated),
    ]));
    let mut t = Table::new(&["bench", "baseline", "packing", "change"]);
    let mut base_sum = 0.0;
    let mut pack_sum = 0.0;
    for &bench in &Benchmark::ALL {
        let b = r.run(bench, &SimConfig::baseline()).effective_fetch_rate();
        let p = r
            .run(bench, &SimConfig::packing(PackingPolicy::Unregulated))
            .effective_fetch_rate();
        base_sum += b;
        pack_sum += p;
        t.row(vec![
            bench.short_name().into(),
            f2(b),
            f2(p),
            pct(percent_change(b, p)),
        ]);
    }
    t.row(vec![
        "AVG".into(),
        f2(base_sum / 15.0),
        f2(pack_sum / 15.0),
        pct(percent_change(base_sum, pack_sum)),
    ]);
    println!("{}", t.render());
    println!("[paper: packing alone raises the average ~7%]");
}

// --- Figure 10: all five configurations --------------------------------

fn fig10(r: &mut MatrixRunner) {
    println!("Figure 10: effective fetch rates for all techniques\n");
    // The five standard front ends, straight from the harness registry.
    let configs = standard_five();
    r.prefetch(&cross(
        &configs.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>(),
    ));
    let mut headers: Vec<&str> = vec!["bench"];
    headers.extend(configs.iter().map(|(name, _)| *name));
    headers.push("both vs base");
    let mut t = Table::new(&headers);
    let mut sums = [0.0f64; 5];
    for &bench in &Benchmark::ALL {
        let mut cells = vec![bench.short_name().to_owned()];
        let mut vals = [0.0f64; 5];
        for (i, (_, c)) in configs.iter().enumerate() {
            vals[i] = r.run(bench, c).effective_fetch_rate();
            sums[i] += vals[i];
            cells.push(f2(vals[i]));
        }
        cells.push(pct(percent_change(vals[1], vals[4])));
        t.row(cells);
    }
    let mut avg = vec!["AVG".to_owned()];
    for s in sums {
        avg.push(f2(s / 15.0));
    }
    avg.push(pct(percent_change(sums[1], sums[4])));
    t.row(avg);
    println!("{}", t.render());
    println!(
        "[paper: promotion+packing raises the average effective fetch rate 17% over baseline]"
    );
}

// --- Table 4: packing's cache-miss cost --------------------------------

fn table4(r: &mut MatrixRunner) {
    println!("Table 4: % increase in fetch cache-miss cycles of packing schemes");
    println!("over the promotion-only configuration (threshold 64)\n");
    let six = [
        Benchmark::Gcc,
        Benchmark::Go,
        Benchmark::Vortex,
        Benchmark::Ghostscript,
        Benchmark::Python,
        Benchmark::Tex,
    ];
    let paper_rows = [
        ("gcc", [26.9, 13.2, 22.3, 15.8]),
        ("go", [28.4, 11.6, 23.9, 15.9]),
        ("vortex", [18.1, 15.0, 11.1, 4.5]),
        ("gs", [29.5, 16.2, 22.8, 14.1]),
        ("python", [38.9, 1.5, 18.2, 13.0]),
        ("tex", [95.6, 39.5, 74.6, 52.8]),
    ];
    let schemes = [
        ("unreg", PackingPolicy::Unregulated),
        ("cost-reg", PackingPolicy::CostRegulated),
        ("n=2", PackingPolicy::Chunk(2)),
        ("n=4", PackingPolicy::Chunk(4)),
    ];
    r.prefetch(&cross(
        &std::iter::once(SimConfig::promotion(64))
            .chain(
                schemes
                    .iter()
                    .map(|(_, p)| SimConfig::promotion_packing(64, *p)),
            )
            .collect::<Vec<_>>(),
    ));
    let mut t = Table::new(&[
        "bench",
        "unreg",
        "cost-reg",
        "n=2",
        "n=4",
        "paper(unreg/cost/n2/n4)",
    ]);
    for (&bench, (pname, pvals)) in six.iter().zip(paper_rows) {
        let promo_miss = r.run(bench, &SimConfig::promotion(64)).cache_miss_cycles() as f64;
        let mut cells = vec![bench.short_name().to_owned()];
        for (_, policy) in schemes {
            let miss = r
                .run(bench, &SimConfig::promotion_packing(64, policy))
                .cache_miss_cycles() as f64;
            cells.push(pct(percent_change(promo_miss, miss)));
        }
        cells.push(format!(
            "{pname}: {:.1}/{:.1}/{:.1}/{:.1}",
            pvals[0], pvals[1], pvals[2], pvals[3]
        ));
        t.row(cells);
    }
    println!("{}", t.render());
    // The average effective fetch rate row, over the whole suite.
    let mut t2 = Table::new(&["scheme", "avg eff fetch rate", "paper"]);
    let paper_effr = [
        ("unreg", 12.47),
        ("cost-reg", 12.23),
        ("n=2", 12.42),
        ("n=4", 12.18),
    ];
    for ((label, policy), (_, pv)) in schemes.iter().zip(paper_effr) {
        let reports = r.run_suite(&SimConfig::promotion_packing(64, *policy));
        let avg = mean(reports.iter().map(SimReport::effective_fetch_rate));
        t2.row(vec![(*label).to_owned(), f2(avg), format!("{pv}")]);
    }
    println!("{}", t2.render());

    // Scaled sub-table: our synthetic kernels have ~100x smaller code
    // footprints than SPECint95, so the 128KB trace cache rarely misses
    // and packing's redundancy cost barely registers above. At a
    // footprint-proportional 16KB trace cache the paper's trade-off
    // reappears.
    // Our kernels' code footprints fit the supporting i-cache, so a
    // trace-cache miss rarely stalls — the paper's miss-cycle metric
    // barely moves above. The redundancy cost packing introduces shows
    // directly in *trace-cache misses* at a footprint-proportional
    // 16KB trace cache:
    println!("Scaled variant: % increase in trace-cache MISSES over promotion-only");
    println!("(256-entry / 16KB trace cache — footprint-proportional):\n");
    let small = |policy: Option<PackingPolicy>| {
        let mut config = match policy {
            None => SimConfig::promotion(64),
            Some(p) => SimConfig::promotion_packing(64, p),
        };
        config.front_end.trace_cache = Some(tc_core::TraceCacheConfig::with_entries(256));
        config
    };
    let small_cells: Vec<(Benchmark, SimConfig)> = six
        .iter()
        .flat_map(|&bench| {
            std::iter::once((bench, small(None)))
                .chain(schemes.iter().map(move |(_, p)| (bench, small(Some(*p)))))
        })
        .collect();
    r.prefetch(&small_cells);
    let tc_misses = |rep: &SimReport| rep.trace_cache.map_or(0, |tc| tc.misses) as f64;
    let mut t3 = Table::new(&["bench", "unreg", "cost-reg", "n=2", "n=4"]);
    for &bench in &six {
        let promo_miss = tc_misses(r.run(bench, &small(None)));
        let mut cells = vec![bench.short_name().to_owned()];
        for (_, policy) in schemes {
            let miss = tc_misses(r.run(bench, &small(Some(policy))));
            cells.push(pct(percent_change(promo_miss, miss)));
        }
        t3.row(cells);
    }
    println!("{}", t3.render());
    println!("[paper: unregulated packing costs the most; chunked and cost-regulated");
    println!(" packing recover much of the loss]");
}

// --- Figures 11 and 16: overall performance ----------------------------

fn fig11_16(r: &mut MatrixRunner, perfect: bool) {
    let (fig, note) = if perfect {
        (
            "Figure 16: IPC with an ideal, aggressive execution engine (perfect memory disambiguation)",
            "[paper: promo+packing +11% over baseline, +63% over icache]",
        )
    } else {
        (
            "Figure 11: overall performance (IPC), realistic execution engine",
            "[paper: promo+packing +4% over baseline, +36% over icache]",
        )
    };
    println!("{fig}\n");
    let mk = |c: SimConfig| {
        if perfect {
            c.with_perfect_disambiguation()
        } else {
            c
        }
    };
    let configs = [
        ("icache", mk(SimConfig::icache())),
        ("baseline", mk(SimConfig::baseline())),
        ("promo+pack", mk(SimConfig::headline_perf())),
    ];
    r.prefetch(&cross(
        &configs.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>(),
    ));
    let mut t = Table::new(&[
        "bench",
        "icache",
        "baseline",
        "promo+pack",
        "vs base",
        "vs icache",
    ]);
    let mut sums = [0.0f64; 3];
    for &bench in &Benchmark::ALL {
        let mut vals = [0.0f64; 3];
        let mut cells = vec![bench.short_name().to_owned()];
        for (i, (_, c)) in configs.iter().enumerate() {
            vals[i] = r.run(bench, c).ipc();
            sums[i] += vals[i];
            cells.push(f2(vals[i]));
        }
        cells.push(pct(percent_change(vals[1], vals[2])));
        cells.push(pct(percent_change(vals[0], vals[2])));
        t.row(cells);
    }
    t.row(vec![
        "AVG".into(),
        f2(sums[0] / 15.0),
        f2(sums[1] / 15.0),
        f2(sums[2] / 15.0),
        pct(percent_change(sums[1], sums[2])),
        pct(percent_change(sums[0], sums[2])),
    ]);
    println!("{}", t.render());
    println!("{note}");
}

// --- Figure 12: fetch-cycle accounting ----------------------------------

fn fig12(r: &mut MatrixRunner) {
    println!("Figure 12: accounting of all fetch cycles, promotion + cost-regulated packing");
    println!("(percent of total cycles)\n");
    r.prefetch(&cross(&[SimConfig::headline_perf()]));
    let mut header = vec!["bench"];
    header.extend(
        CycleAccounting::default()
            .categories()
            .map(|(_, label, _)| label),
    );
    header.push("other");
    let mut t = Table::new(&header);
    for &bench in &Benchmark::ALL {
        let rep = r.run(bench, &SimConfig::headline_perf());
        let share =
            |cycles: u64| format!("{:.1}%", cycles as f64 / rep.cycles.max(1) as f64 * 100.0);
        let mut row = vec![bench.short_name().into()];
        row.extend(
            rep.accounting
                .categories()
                .map(|(_, _, cycles)| share(cycles)),
        );
        row.push(share(rep.cycles.saturating_sub(rep.accounting.total())));
        t.row(row);
    }
    println!("{}", t.render());
    println!("[paper: most lost bandwidth is branch mispredictions, except vortex]");
}

// --- Figures 13-15: misprediction analyses -------------------------------

fn change_table(r: &mut MatrixRunner, title: &str, note: &str, metric: impl Fn(&SimReport) -> f64) {
    println!("{title}\n");
    r.prefetch(&cross(&[SimConfig::baseline(), SimConfig::headline_perf()]));
    let mut t = Table::new(&["bench", "baseline", "promo+pack", "change"]);
    let mut sum = 0.0;
    for &bench in &Benchmark::ALL {
        let b = metric(r.run(bench, &SimConfig::baseline()));
        let p = metric(r.run(bench, &SimConfig::headline_perf()));
        let change = percent_change(b, p);
        sum += change;
        t.row(vec![bench.short_name().into(), f2(b), f2(p), pct(change)]);
    }
    t.row(vec![
        "AVG".into(),
        String::new(),
        String::new(),
        pct(sum / 15.0),
    ]);
    println!("{}", t.render());
    println!("{note}");
}

fn fig13(r: &mut MatrixRunner) {
    change_table(
        r,
        "Figure 13: % change vs baseline in fetch cycles lost to mispredictions",
        "[paper: most benchmarks lose more cycles despite fewer mispredictions]",
        |rep| rep.mispredict_lost_cycles() as f64,
    );
}

fn fig14(r: &mut MatrixRunner) {
    change_table(
        r,
        "Figure 14: % change vs baseline in mispredicted branches (cond + indirect)",
        "[paper: decreases due to reduced PHT interference from promotion]",
        |rep| rep.mispredicted_branches() as f64,
    );
}

fn fig15(r: &mut MatrixRunner) {
    change_table(
        r,
        "Figure 15: % change vs baseline in mispredicted-branch resolution time",
        "[paper: +8% average — branches fetched earlier wait longer to execute]",
        SimReport::avg_resolution_time,
    );
}

// --- Ablations beyond the paper ------------------------------------------

fn ablation_grid(r: &mut MatrixRunner) {
    println!("Ablation: promotion threshold x packing policy (avg effective fetch rate)\n");
    let policies = [
        ("atomic", PackingPolicy::Atomic),
        ("unreg", PackingPolicy::Unregulated),
        ("n=2", PackingPolicy::Chunk(2)),
        ("n=4", PackingPolicy::Chunk(4)),
        ("cost-reg", PackingPolicy::CostRegulated),
    ];
    let mut t = Table::new(&["threshold", "atomic", "unreg", "n=2", "n=4", "cost-reg"]);
    for th in [0u32, 16, 64, 256] {
        let mut cells = vec![if th == 0 {
            "none".to_owned()
        } else {
            th.to_string()
        }];
        for (_, policy) in policies {
            let config = if th == 0 {
                SimConfig::packing(policy)
            } else {
                SimConfig::promotion_packing(th, policy)
            };
            let reports = r.run_suite(&config);
            cells.push(f2(mean(
                reports.iter().map(SimReport::effective_fetch_rate),
            )));
        }
        t.row(cells);
    }
    println!("{}", t.render());
}

fn ablation_tcsize(r: &mut MatrixRunner) {
    println!("Ablation: trace-cache size vs packing (avg effective fetch rate; §5 predicts");
    println!("regulation matters more below 128KB)\n");
    let mut t = Table::new(&[
        "entries (KB)",
        "promo only",
        "promo+unreg",
        "promo+cost-reg",
    ]);
    for entries in [64usize, 128, 256, 512, 1024, 2048] {
        let kb = entries * 16 * 4 / 1024;
        let mut cells = vec![format!("{entries} ({kb}KB)")];
        for policy in [
            None,
            Some(PackingPolicy::Unregulated),
            Some(PackingPolicy::CostRegulated),
        ] {
            let mut config = match policy {
                None => SimConfig::promotion(64),
                Some(p) => SimConfig::promotion_packing(64, p),
            };
            config.front_end.trace_cache = Some(tc_core::TraceCacheConfig::with_entries(entries));
            let reports = r.run_suite(&config);
            cells.push(f2(mean(
                reports.iter().map(SimReport::effective_fetch_rate),
            )));
        }
        t.row(cells);
    }
    println!("{}", t.render());
}

fn ablation_bias(r: &mut MatrixRunner) {
    println!("Ablation: bias-table geometry (promotion t=64, avg effective fetch rate");
    println!("and promoted-fault counts)\n");
    let mut t = Table::new(&["bias table", "eff fetch rate", "faults (suite total)"]);
    for (label, entries, tagged) in [
        ("1K tagged", 1024usize, true),
        ("8K tagged", 8192, true),
        ("8K untagged", 8192, false),
        ("64K tagged", 65536, true),
    ] {
        let mut config = SimConfig::promotion(64);
        if let Some(p) = &mut config.front_end.promotion {
            p.bias.entries = entries;
            p.bias.tagged = tagged;
        }
        let reports = r.run_suite(&config);
        let effr = mean(reports.iter().map(SimReport::effective_fetch_rate));
        let faults: u64 = reports.iter().map(|rep| rep.promoted_faults).sum();
        t.row(vec![label.to_owned(), f2(effr), faults.to_string()]);
    }
    println!("{}", t.render());
}

fn ablation_issue(r: &mut MatrixRunner) {
    println!("Ablation: partial matching x inactive issue (Friendly et al., the");
    println!("baseline's fetch/issue techniques; suite averages, baseline TC)\n");
    let mut t = Table::new(&["configuration", "eff fetch rate", "IPC"]);
    for (label, pm, ii) in [
        ("both (baseline)", true, true),
        ("no partial matching", false, true),
        ("no inactive issue", true, false),
        ("neither", false, false),
    ] {
        let mut config = SimConfig::baseline();
        if !pm {
            config = config.without_partial_matching();
        }
        if !ii {
            config = config.without_inactive_issue();
        }
        let reports = r.run_suite(&config);
        t.row(vec![
            label.to_owned(),
            f2(mean(reports.iter().map(SimReport::effective_fetch_rate))),
            f2(mean(reports.iter().map(SimReport::ipc))),
        ]);
    }
    println!("{}", t.render());
    println!("[Friendly et al. report ~15% from these two techniques together]");
}

fn ablation_static(r: &mut MatrixRunner) {
    println!("Ablation: static (profile-guided) vs dynamic promotion (t=64)");
    println!("(profile: first 500K instructions, min bias 95%, min 32 executions)\n");
    r.prefetch(&cross(&[SimConfig::promotion(64)]));
    let mut t = Table::new(&[
        "bench",
        "dynamic effr",
        "static effr",
        "dyn faults",
        "static faults",
    ]);
    for &bench in &Benchmark::ALL {
        let dynamic = r.run(bench, &SimConfig::promotion(64)).clone();
        // Profile the training prefix and build the static table.
        let workload = bench.build();
        let table =
            tc_core::StaticPromotionTable::profile(workload.interpreter().take(500_000), 32, 0.95);
        let config = SimConfig::promotion(64).with_static_promotion(table);
        let static_rep = r.run(bench, &config).clone();
        t.row(vec![
            bench.short_name().to_owned(),
            f2(dynamic.effective_fetch_rate()),
            f2(static_rep.effective_fetch_rate()),
            dynamic.promoted_faults.to_string(),
            static_rep.promoted_faults.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("[paper §4: static promotion skips warm-up and catches patterned bias,");
    println!(" but cannot adapt when a branch's bias changes at run time]");
}

fn ablation_passoc(r: &mut MatrixRunner) {
    println!("Ablation: trace-cache path associativity (suite averages)\n");
    let mut t = Table::new(&["configuration", "eff fetch rate", "tc miss ratio"]);
    for (label, passoc) in [("no path assoc (paper)", false), ("path associative", true)] {
        for (plabel, config) in [
            ("baseline", SimConfig::baseline()),
            ("promo+pack", SimConfig::headline_fetch()),
        ] {
            let config = if passoc {
                config.with_path_associativity()
            } else {
                config
            };
            let reports = r.run_suite(&config);
            let effr = mean(reports.iter().map(SimReport::effective_fetch_rate));
            let miss = mean(
                reports
                    .iter()
                    .map(|rep| rep.trace_cache.map_or(0.0, |tc| tc.miss_ratio())),
            );
            t.row(vec![
                format!("{plabel} / {label}"),
                f2(effr),
                format!("{:.3}", miss),
            ]);
        }
    }
    println!("{}", t.render());
}

fn ablation_ras(r: &mut MatrixRunner) {
    println!("Ablation: return-address stack depth (suite averages; the paper");
    println!("models an ideal RAS)\n");
    let mut t = Table::new(&[
        "RAS",
        "eff fetch rate",
        "IPC",
        "ret mispredicts",
        "misfetch cycles",
    ]);
    for (label, depth) in [
        ("ideal", None),
        ("32-deep", Some(32)),
        ("8-deep", Some(8)),
        ("2-deep", Some(2)),
    ] {
        let config = match depth {
            None => SimConfig::baseline(),
            Some(d) => SimConfig::baseline().with_finite_ras(d),
        };
        let reports = r.run_suite(&config);
        let ret: u64 = reports.iter().map(|rep| rep.return_mispredicts).sum();
        let misfetch: u64 = reports.iter().map(|rep| rep.accounting.misfetches).sum();
        t.row(vec![
            label.to_owned(),
            f2(mean(reports.iter().map(SimReport::effective_fetch_rate))),
            f2(mean(reports.iter().map(SimReport::ipc))),
            ret.to_string(),
            misfetch.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("[a drop-oldest RAS degrades to fetch bubbles (misfetches) on deep");
    println!(" recursion rather than wrong-path fetches]");
}

fn ablation_hybrid(r: &mut MatrixRunner) {
    println!("Ablation: single-prediction hybrid predictor with the trace cache");
    println!("(§4: \"promotion opens the possibility of using aggressive hybrid");
    println!("single branch prediction with the trace cache\")\n");
    let mut t = Table::new(&["configuration", "eff fetch rate", "cond mispredict %"]);
    for (label, config) in [
        ("baseline (3-pred tree)", SimConfig::baseline()),
        ("promo64 (3-pred split)", SimConfig::promotion(64)),
        ("promo64 + 1-pred hybrid", SimConfig::promotion_hybrid(64)),
        ("no promo + 1-pred hybrid", {
            let mut c = SimConfig::promotion_hybrid(64);
            c.front_end.promotion = None;
            c
        }),
    ] {
        let reports = r.run_suite(&config);
        t.row(vec![
            label.to_owned(),
            f2(mean(reports.iter().map(SimReport::effective_fetch_rate))),
            format!(
                "{:.2}%",
                mean(reports.iter().map(SimReport::cond_mispredict_rate)) * 100.0
            ),
        ]);
    }
    println!("{}", t.render());
    println!("[the claim: with promotion, one accurate prediction per cycle is");
    println!(" nearly enough — without promotion, bandwidth starves the fetch]");
}
