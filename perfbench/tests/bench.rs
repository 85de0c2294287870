//! The benchmark's own tests: every metric is reported with its unit,
//! wrong outputs count as failures, and a seed repeats exactly.

use std::collections::HashMap;

use tc_sim::harness::{parse_json, Value};
use tw_perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use tw_perfbench::pins::Pins;
use tw_perfbench::serve::{check, Expect};
use tw_perfbench::util::digest;
use tw_perfbench::{cells, run, Options, WORKLOADS};

fn opts(workload: &str, seed: u64, seconds: f64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    }
}

/// (name, unit) pairs of one metric list in BENCHMARK.json.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} array");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    assert_eq!(own(END_TO_END), declared("end_to_end"));
    assert_eq!(own(PER_LAYER), declared("per_layer"));
}

fn result_line(out: &Outcome, trace: bool) -> Value {
    parse_json(&out.render(trace).expect("every metric measured")).expect("result line parses")
}

#[test]
fn a_short_run_of_each_workload_emits_every_metric_with_its_unit() {
    let pins = Pins::committed();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (out, spans) = run(&opts(workload, 3, 0.5, trace), &pins).expect("known workload");
            assert_eq!(out.failed, 0, "{workload} trace={trace}");
            assert_eq!(spans.spans().is_empty(), !trace, "{workload}");
            for line in spans.render().lines() {
                assert!(parse_json(line).is_ok(), "{workload} span line: {line}");
            }
            let line = result_line(&out, trace);
            assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
            let metrics = line.get("metrics").expect("metrics");
            for (name, unit) in Outcome::schema(trace) {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name}"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            }
        }
    }
}

#[test]
fn a_corrupted_pinned_digest_counts_as_a_failure() {
    let mut pins = Pins::committed();
    let first = &cells::timing_cells(11, 0)[0].id;
    let pinned = pins.digest(first).expect("every drawable cell is pinned");
    pins.set_digest(first, pinned ^ 1);
    let (out, _) = run(&opts("timing", 11, 0.01, false), &pins).expect("timing runs");
    assert!(out.failed >= 1, "the corrupted cell must fail");
    assert!(out.failed < out.attempted, "the other cells still pass");
    let line = result_line(&out, false);
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
}

#[test]
fn a_wrong_serve_body_counts_as_a_failure() {
    let body = br#"{"schema":"tw-serve/v1","kind":"sim","report":{}}"#.to_vec();
    let mut wrong = body.clone();
    wrong[10] ^= 0x20;
    let pin = digest(&body);
    let mut seen = HashMap::new();
    assert!(check(
        Expect::Ok(Some(pin)),
        "k",
        200,
        digest(&body),
        &mut seen
    ));
    assert!(!check(
        Expect::Ok(Some(pin)),
        "k",
        200,
        digest(&wrong),
        &mut seen
    ));
    // Unpinned keys must still agree with their first body.
    let mut seen = HashMap::new();
    assert!(check(Expect::Ok(None), "k", 200, digest(&body), &mut seen));
    assert!(!check(
        Expect::Ok(None),
        "k",
        200,
        digest(&wrong),
        &mut seen
    ));
    assert!(!check(Expect::ClientError, "m", 200, 0, &mut seen));
    assert!(check(Expect::ClientError, "m", 400, 0, &mut seen));

    // End to end: a hit key whose pin no longer matches its body fails
    // at set-up and on every repeat.
    let mut pins = Pins::committed();
    let key = tw_perfbench::serve::hit_requests()[0].id();
    let pinned = pins.digest(&key).expect("hit keys are pinned");
    pins.set_digest(&key, pinned ^ 1);
    let (out, _) = run(&opts("serve", 5, 0.3, false), &pins).expect("serve runs");
    assert!(out.failed >= tw_perfbench::service::SETUP_REPS as u64);
}

#[test]
fn the_same_seed_twice_gives_identical_simulated_counts() {
    const COUNTS: [&str; 13] = [
        "core.tc_hit_ratio",
        "core.fetch_rate",
        "core.promo_coverage",
        "core.avg_segment_len",
        "core.split_refused_ratio",
        "predict.cond_mispredict_rate",
        "cache.icache_miss_ratio",
        "cache.dcache_miss_ratio",
        "engine.full_window_share",
        "sim.branch_miss_share",
        "sim.timed_fraction",
        "sampled.fetch_err_pct",
        "sampled.mispredict_err_pct",
    ];
    let pins = Pins::committed();
    let counts = |seed| {
        let (out, _) = run(&opts("sampled", seed, 0.01, true), &pins).expect("sampled runs");
        COUNTS.map(|n| out.get(n).expect(n).to_bits())
    };
    assert_eq!(counts(21), counts(21));
    let ids = |seed| -> Vec<String> {
        cells::timing_cells(seed, 0)
            .into_iter()
            .map(|c| c.id)
            .collect()
    };
    assert_eq!(ids(4), ids(4));
    assert_ne!(ids(4), ids(5), "the seed varies the cells");
}
