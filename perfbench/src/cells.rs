//! The simulation cells of the `timing` and `sampled` workloads and the
//! seeded draws that vary them.
//!
//! Programs are the committed ones; the seed draws only each timing
//! cell's start offset and each sampled cell's window spec, from small
//! fixed menus, so that every (cell, draw) pair has a pinned report
//! digest. Menus have [`ROTATION`] entries.

use tc_sim::{harness, SimConfig};
use tc_workloads::{Benchmark, RvBench, WorkloadId};

use crate::util::Rng;

/// Timing workloads, chosen by the property they stress: footprint
/// against the 128 KB trace cache and i-cache (gcc, vortex vs
/// compress), predictability (go, m88ksim), indirect dispatch (perl,
/// rv/dispatch), memory-bound (rv/listchase), and compiled recursion
/// (rv/qsort).
pub const TIMING_WORKLOADS: [WorkloadId; 9] = [
    WorkloadId::Synth(Benchmark::Gcc),
    WorkloadId::Synth(Benchmark::Vortex),
    WorkloadId::Synth(Benchmark::Compress),
    WorkloadId::Synth(Benchmark::Go),
    WorkloadId::Synth(Benchmark::M88ksim),
    WorkloadId::Synth(Benchmark::Perl),
    WorkloadId::Rv(RvBench::Dispatch),
    WorkloadId::Rv(RvBench::Listchase),
    WorkloadId::Rv(RvBench::Qsort),
];

/// The i-cache reference machine, the trace-cache baseline, and the
/// paper's headline promotion + cost-regulated packing machine.
pub const TIMING_PRESETS: [&str; 3] = ["icache", "baseline", "headline"];

/// Rounds after which a run's cells repeat: each round advances every
/// cell to its next offset or spec, so a run covers every variant of
/// every cell whatever the seed.
pub const ROTATION: usize = 4;

/// Timed instructions per timing cell.
pub const TIMING_INSTS: u64 = 100_000;

/// Start offsets a timing cell may draw (fast-forwarded functionally).
pub const TIMING_OFFSETS: [u64; ROTATION] = [0, 100_000, 200_000, 300_000];

/// Sampled workloads: long-running RV kernels and synthetic programs,
/// plus gcc and rv/qsort where the sampled mispredict bias was measured.
pub const SAMPLED_WORKLOADS: [WorkloadId; 8] = [
    WorkloadId::Rv(RvBench::Bubble),
    WorkloadId::Rv(RvBench::Sieve),
    WorkloadId::Rv(RvBench::Fib),
    WorkloadId::Synth(Benchmark::Pgp),
    WorkloadId::Synth(Benchmark::Gnuchess),
    WorkloadId::Synth(Benchmark::Vortex),
    WorkloadId::Synth(Benchmark::Gcc),
    WorkloadId::Rv(RvBench::Qsort),
];

pub const SAMPLED_PRESET: &str = "headline";

/// Stream instructions a sampled cell traverses.
pub const SAMPLED_STREAM: u64 = 2_000_000;

/// Window specs a sampled cell may draw, as (warmup, measure, period):
/// 2000 timed instructions per window behind 4000 warmed ones, with the
/// period (and so the window phase) varied.
pub const SAMPLE_SPECS: [(u64, u64, u64); ROTATION] = [
    (4_000, 2_000, 20_000),
    (4_000, 2_000, 18_000),
    (4_000, 2_000, 22_000),
    (4_000, 2_000, 24_000),
];

/// One simulation cell: a workload under a preset with one drawn
/// variant.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable id; keys the pinned digest.
    pub id: String,
    pub workload: WorkloadId,
    pub preset: &'static str,
    pub config: SimConfig,
    /// Instructions fast-forwarded before timing attaches.
    pub skip: u64,
}

/// A preset with the sanitizer set explicitly off, so that the
/// benchmark does not inherit it from the build profile.
///
/// # Panics
///
/// Panics if the registry lacks the preset (a benchmark bug).
#[must_use]
pub fn preset_config(name: &str) -> SimConfig {
    let mut config = harness::lookup(name).unwrap_or_else(|| panic!("no preset {name}"));
    config.front_end.sanitize = false;
    config
}

#[must_use]
pub fn timing_cell(workload: WorkloadId, preset: &'static str, offset: usize) -> Cell {
    let skip = TIMING_OFFSETS[offset];
    let mut config = preset_config(preset).with_max_insts(TIMING_INSTS);
    if skip > 0 {
        config = config.with_fast_forward(skip);
    }
    Cell {
        id: format!("timing {} {preset} o{offset}", workload.name()),
        workload,
        preset,
        config,
        skip,
    }
}

#[must_use]
pub fn sampled_cell(workload: WorkloadId, spec: usize) -> Cell {
    let (warmup, measure, period) = SAMPLE_SPECS[spec];
    Cell {
        id: format!("sampled {} {SAMPLED_PRESET} s{spec}", workload.name()),
        workload,
        preset: SAMPLED_PRESET,
        config: preset_config(SAMPLED_PRESET)
            .with_max_insts(SAMPLED_STREAM)
            .with_sampling(warmup, measure, period),
        skip: 0,
    }
}

/// The full-timing reference of a sampled cell: the same stream, every
/// instruction timed.
#[must_use]
pub fn reference_config() -> SimConfig {
    preset_config(SAMPLED_PRESET).with_max_insts(SAMPLED_STREAM)
}

/// The timing cells of `round` for `seed`, in seeded order: the seed
/// draws the order and each cell's first offset.
#[must_use]
pub fn timing_cells(seed: u64, round: usize) -> Vec<Cell> {
    let mut rng = Rng::new(seed);
    let mut cells: Vec<Cell> = TIMING_WORKLOADS
        .iter()
        .flat_map(|&w| TIMING_PRESETS.iter().map(move |&p| (w, p)))
        .map(|(w, p)| {
            let first = rng.below(TIMING_OFFSETS.len());
            timing_cell(w, p, (first + round) % TIMING_OFFSETS.len())
        })
        .collect();
    rng.shuffle(&mut cells);
    cells
}

/// The sampled cells of `round` for `seed`, in seeded order: the seed
/// draws the order and each cell's first window spec.
#[must_use]
pub fn sampled_cells(seed: u64, round: usize) -> Vec<Cell> {
    let mut rng = Rng::new(seed ^ 0x5A3D);
    let mut cells: Vec<Cell> = SAMPLED_WORKLOADS
        .iter()
        .map(|&w| {
            let first = rng.below(SAMPLE_SPECS.len());
            sampled_cell(w, (first + round) % SAMPLE_SPECS.len())
        })
        .collect();
    rng.shuffle(&mut cells);
    cells
}

/// Every cell any seed can draw (for pinning).
#[must_use]
pub fn all_cells() -> Vec<Cell> {
    let timing = TIMING_WORKLOADS.iter().flat_map(|&w| {
        TIMING_PRESETS
            .iter()
            .flat_map(move |&p| (0..TIMING_OFFSETS.len()).map(move |o| timing_cell(w, p, o)))
    });
    let sampled = SAMPLED_WORKLOADS
        .iter()
        .flat_map(|&w| (0..SAMPLE_SPECS.len()).map(move |s| sampled_cell(w, s)));
    timing.chain(sampled).collect()
}
