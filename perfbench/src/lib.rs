//! The trace-weave benchmark: three workloads (`timing`, `sampled`,
//! `serve`) measured end to end through the crates' public entry
//! points, and a traced run that attributes host time to each crate.
//! See README.md for the workloads, the metrics and the layer each one
//! measures.

pub mod cells;
pub mod layers;
pub mod metrics;
pub mod pins;
pub mod replay;
pub mod serve;
pub mod service;
pub mod sim;
pub mod spans;
pub mod util;

use std::sync::Arc;
use std::time::Duration;

use metrics::Outcome;
use pins::{Pins, Reference};
use serve::{drive, Expect, Request, Running, Scheduled};
use sim::SimKind;
use spans::Spans;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["timing", "sampled", "serve"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// A traced run reports the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// Runs one workload, returning its outcome and the spans it recorded
/// (none when untraced).
///
/// # Errors
///
/// An unknown workload name.
pub fn run(opts: &Options, pins: &Pins) -> Result<(Outcome, Spans), String> {
    let mut spans = Spans::new(opts.trace);
    let out = match opts.workload.as_str() {
        "timing" => sim::run(SimKind::Timing, opts, pins, &mut spans),
        "sampled" => sim::run(SimKind::Sampled, opts, pins, &mut spans),
        "serve" => service::run(opts, pins, &mut spans),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok((out, spans))
}

/// Computes every pin: the report digest of every cell any seed can
/// draw, the sampled cells' full-timing references, and the body digest
/// of every serve key.
#[must_use]
pub fn compute_pins() -> Pins {
    let mut pins = Pins::default();
    let mut built = std::collections::BTreeMap::new();
    for cell in cells::all_cells() {
        let workload = built
            .entry(cell.workload)
            .or_insert_with(|| cell.workload.build());
        let run = sim::run_cell(workload, &cell.config);
        pins.set_digest(&cell.id, run.digest);
    }
    for w in cells::SAMPLED_WORKLOADS {
        let report = sim::run_cell(&built[&w], &cells::reference_config()).report;
        pins.set_reference(
            w.name(),
            Reference {
                fetch_rate: report.effective_fetch_rate(),
                mispredict_rate: report.cond_mispredict_rate(),
            },
        );
    }
    let keys: Vec<Arc<Request>> = serve::hit_requests()
        .into_iter()
        .chain(serve::miss_pool())
        .map(Arc::new)
        .collect();
    // Two streams, one per worker, each sent back to back.
    let streams: Vec<Vec<Scheduled>> = (0..2)
        .map(|half| {
            keys.iter()
                .skip(half)
                .step_by(2)
                .map(|k| Scheduled {
                    due: Duration::ZERO,
                    request: Arc::clone(k),
                    expect: Expect::Ok(None),
                })
                .collect()
        })
        .collect();
    let server = Running::start();
    let samples = drive(server.addr, streams.clone(), None).samples;
    server.stop();
    let mut seen = 0;
    for stream in &streams {
        for s in samples.iter().skip(seen).take(stream.len()) {
            let id = stream[s.seq].request.id();
            assert!(s.ok, "serve key {id} failed while pinning");
            pins.set_digest(&id, s.digest);
        }
        seen += stream.len();
    }
    pins
}
