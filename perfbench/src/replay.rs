//! Layer replays for the traced run.
//!
//! Each replay takes a cell's recorded `ExecRecord` stream and drives
//! one layer's public API in isolation, timing the whole batch as one
//! span per (cell, layer) with its call count. The processor loop's own
//! cost is what remains of a cell's run time once these are taken out
//! (see [`attribute`]).

use std::hint::black_box;
use std::time::Instant;

use tc_cache::MemoryHierarchy;
use tc_core::{FillUnit, FrontEnd, NextPc, PredictorChoice};
use tc_engine::ExecutionEngine;
use tc_isa::{BlockCache, ExecRecord, Interpreter};
use tc_predict::{BiasTable, GlobalHistory, HybridPredictor, MultiPredictor, SplitMultiPredictor};
use tc_sim::SimConfig;
use tc_trace::NoopTracer;
use tc_workloads::Workload;

use crate::spans::Spans;

/// Host time and call counts of one cell's replays, plus the fill
/// unit's counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// Records replayed.
    pub insts: u64,
    pub blockcache_ns: u64,
    pub interp_ns: u64,
    pub fastpath_ns: u64,
    pub fetch_ns: u64,
    pub fetch_calls: u64,
    pub fill_ns: u64,
    pub fill_insts: u64,
    pub warm_ns: u64,
    pub predict_ns: u64,
    pub branches: u64,
    pub icache_ns: u64,
    pub icache_accesses: u64,
    pub dcache_ns: u64,
    pub dcache_accesses: u64,
    pub engine_ns: u64,
    pub segments: u64,
    pub segment_insts: u64,
    pub blocks_split: u64,
    pub splits_refused: u64,
}

impl LayerCosts {
    pub fn add(&mut self, o: &LayerCosts) {
        self.insts += o.insts;
        self.blockcache_ns += o.blockcache_ns;
        self.interp_ns += o.interp_ns;
        self.fastpath_ns += o.fastpath_ns;
        self.fetch_ns += o.fetch_ns;
        self.fetch_calls += o.fetch_calls;
        self.fill_ns += o.fill_ns;
        self.fill_insts += o.fill_insts;
        self.warm_ns += o.warm_ns;
        self.predict_ns += o.predict_ns;
        self.branches += o.branches;
        self.icache_ns += o.icache_ns;
        self.icache_accesses += o.icache_accesses;
        self.dcache_ns += o.dcache_ns;
        self.dcache_accesses += o.dcache_accesses;
        self.engine_ns += o.engine_ns;
        self.segments += o.segments;
        self.segment_insts += o.segment_insts;
        self.blocks_split += o.blocks_split;
        self.splits_refused += o.splits_refused;
    }

    fn per_inst(&self, ns: u64) -> f64 {
        crate::util::ratio(ns as f64, self.insts as f64)
    }
}

fn nanos(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `calls` (which returns its call count) as one span; returns its
/// nanoseconds and the count.
fn timed(
    spans: &mut Spans,
    parent: u32,
    op: &str,
    name: &'static str,
    calls: impl FnOnce() -> u64,
) -> (u64, u64) {
    let start = Instant::now();
    let n = calls();
    let end = Instant::now();
    spans.record(parent, name, op, start, end, n);
    (nanos(start, end), n)
}

/// Replays every layer over the `n` instructions a cell times, starting
/// `skip` instructions into the workload's stream.
///
/// # Panics
///
/// Panics if the workload faults while recording (the committed
/// programs never do).
pub fn replay_cell(
    workload: &Workload,
    config: &SimConfig,
    skip: u64,
    n: u64,
    spans: &mut Spans,
    parent: u32,
    op: &str,
) -> LayerCosts {
    let program = workload.program();
    let mut c = LayerCosts::default();
    let mut blocks = None;
    (c.blockcache_ns, _) = timed(spans, parent, op, "isa.blockcache_build", || {
        blocks = Some(BlockCache::new(program));
        1
    });
    let blocks = blocks.expect("built above");
    let mut start = workload.machine();
    if skip > 0 {
        start
            .fast_forward(program, &blocks, skip)
            .expect("committed workloads do not fault");
    }

    // The functional oracle: the stream every other replay consumes.
    let mut recs: Vec<ExecRecord> = Vec::with_capacity(usize::try_from(n).unwrap_or(0));
    let mut interp = Interpreter::with_machine(program, start.clone());
    (c.interp_ns, c.insts) = timed(spans, parent, op, "isa.interp", || {
        recs.extend(
            interp
                .by_ref()
                .take(usize::try_from(n).unwrap_or(usize::MAX)),
        );
        recs.len() as u64
    });
    assert!(interp.error().is_none(), "{} faulted", workload.name());

    let mut machine = start;
    (c.fastpath_ns, _) = timed(spans, parent, op, "isa.fastpath", || {
        black_box(machine.fast_forward(program, &blocks, n).unwrap_or(0))
    });

    let fe = config.front_end;
    if fe.has_trace_cache() {
        let mut fill = FillUnit::new(fe.packing, fe.promotion.map(|p| BiasTable::new(p.bias)));
        (c.fill_ns, c.fill_insts) = timed(spans, parent, op, "core.fill", || {
            for rec in &recs {
                fill.retire(rec);
                while let Some(seg) = fill.pop_segment() {
                    black_box(seg);
                }
            }
            recs.len() as u64
        });
        let s = fill.stats();
        (c.segments, c.segment_insts) = (s.segments, s.segment_insts);
        (c.blocks_split, c.splits_refused) = (s.blocks_split, s.splits_refused);
    }

    let mut front = FrontEnd::with_tracer(fe, NoopTracer);
    (c.warm_ns, _) = timed(spans, parent, op, "core.warm", || {
        for rec in &recs {
            front.warm(rec);
        }
        recs.len() as u64
    });
    black_box(front.stats());

    (c.predict_ns, c.branches) = timed(spans, parent, op, "predict.branch", || {
        replay_predictor(fe.predictor, &recs)
    });

    let mut mem = MemoryHierarchy::new(config.hierarchy);
    let line = mem.config().icache.line_bytes;
    (c.icache_ns, c.icache_accesses) = timed(spans, parent, op, "cache.ifetch", || {
        let mut last = u64::MAX;
        let mut n = 0;
        for rec in &recs {
            let addr = rec.pc.byte_addr();
            if addr / line != last {
                last = addr / line;
                black_box(mem.instruction_fetch(addr));
                n += 1;
            }
        }
        n
    });
    (c.dcache_ns, c.dcache_accesses) = timed(spans, parent, op, "cache.data", || {
        let mut n = 0;
        for addr in recs.iter().filter_map(|r| r.mem_addr) {
            black_box(mem.data_access(addr * 8));
            n += 1;
        }
        n
    });

    let mut engine = ExecutionEngine::new(config.engine);
    let mut mem = MemoryHierarchy::new(config.hierarchy);
    let width = fe.fetch_width as u64;
    (c.engine_ns, _) = timed(spans, parent, op, "engine.issue", || {
        let mut cycle = 0u64;
        for (i, rec) in recs.iter().enumerate() {
            if !engine.has_room() {
                let t = engine.earliest_retire().unwrap_or(cycle + 1);
                cycle = cycle.max(t);
                engine.drain_retired(cycle);
            }
            black_box(engine.issue(rec, cycle, &mut mem));
            if (i as u64 + 1).is_multiple_of(width) {
                cycle += 1;
                engine.drain_retired(cycle);
            }
        }
        recs.len() as u64
    });

    let mut front = FrontEnd::with_tracer(fe, NoopTracer);
    let mut mem = MemoryHierarchy::new(config.hierarchy);
    (c.fetch_ns, c.fetch_calls) = timed(spans, parent, op, "core.fetch", || {
        replay_fetch(&mut front, program, &mut mem, &recs)
    });
    c
}

/// Oracle-driven `fetch` + `train` + `retire`: fetch at the correct
/// path's next PC, validate the active instructions against the
/// recorded stream, retire the validated ones at once, train the
/// predictor and repair history after a mispredict. Returns the fetch
/// count. Wrong-path fetch, the engine and the retire delay are left to
/// the processor loop.
fn replay_fetch<T: tc_trace::Tracer>(
    front: &mut FrontEnd<T>,
    program: &tc_isa::Program,
    mem: &mut MemoryHierarchy,
    recs: &[ExecRecord],
) -> u64 {
    let mut i = 0;
    let mut fetches = 0;
    let mut outcomes = Vec::with_capacity(4);
    let mut history = Vec::with_capacity(16);
    while i < recs.len() {
        let bundle = front.fetch(recs[i].pc, program, mem);
        fetches += 1;
        outcomes.clear();
        history.clear();
        let before = i;
        let mut repair = false;
        for fi in bundle.active() {
            let Some(rec) = recs.get(i) else { break };
            if rec.pc != fi.pc {
                repair = true;
                break;
            }
            front.retire(rec);
            i += 1;
            if rec.is_cond_branch() {
                history.push(rec.taken);
                if !fi.promoted {
                    outcomes.push(rec.taken);
                }
                if fi.pred_taken != Some(rec.taken) {
                    repair = true;
                    break;
                }
            }
        }
        if i == before {
            // Nothing matched (an empty bundle): step past the record.
            front.retire(&recs[i]);
            i += 1;
        }
        front.train(&bundle.pred, &outcomes);
        if let (NextPc::Indirect { pc, .. }, Some(next)) = (bundle.next_pc, recs.get(i)) {
            front.train_indirect(pc, next.pc);
        }
        if repair {
            front.restore_history(bundle.pred.history.snapshot());
            for &t in &history {
                front.push_history(t);
            }
        }
    }
    fetches
}

/// Predict-then-update for every conditional branch with the
/// predictor the preset selects, one branch per call.
fn replay_predictor(choice: PredictorChoice, recs: &[ExecRecord]) -> u64 {
    let branches = recs.iter().filter(|r| r.is_cond_branch());
    let mut history = GlobalHistory::new();
    let mut n = 0;
    match choice {
        PredictorChoice::PaperMulti => {
            let mut p = MultiPredictor::paper();
            for r in branches {
                let pred = p.predict(r.pc.byte_addr(), history);
                p.update(pred.entry, &[r.taken]);
                history.push(r.taken);
                n += 1;
            }
            black_box(&p);
        }
        PredictorChoice::SplitMulti => {
            let mut p = SplitMultiPredictor::paper();
            for r in branches {
                black_box(p.predict(r.pc.byte_addr(), history));
                p.update(r.pc.byte_addr(), history, &[r.taken]);
                history.push(r.taken);
                n += 1;
            }
            black_box(&p);
        }
        PredictorChoice::Hybrid => {
            let mut p = HybridPredictor::paper();
            for r in branches {
                let pred = p.predict(r.pc.byte_addr(), history);
                p.update(r.pc.byte_addr(), history, pred, r.taken);
                history.push(r.taken);
                n += 1;
            }
            black_box(&p);
        }
    }
    n
}

/// Estimated host nanoseconds per crate for one run, from the per-inst
/// replay costs: `fast_forwarded` instructions ran on the fast path,
/// `warmed` through `FrontEnd::warm` and its data accesses, `timed`
/// through the full model. The processor loop (`sim`) gets what is
/// left of `run_ns`. The fetch replay already contains its predictor
/// and i-cache calls, and the engine replay its data accesses, so those
/// are moved to their own crates.
#[must_use]
pub fn attribute(
    c: &LayerCosts,
    run_ns: f64,
    fast_forwarded: f64,
    warmed: f64,
    timed: f64,
) -> CrateShares {
    let pi = |ns: u64| c.per_inst(ns);
    let fetch_own = (pi(c.fetch_ns) - pi(c.predict_ns) - pi(c.icache_ns)).max(0.0);
    let engine_own = (pi(c.engine_ns) - pi(c.dcache_ns)).max(0.0);
    let isa = pi(c.fastpath_ns) * fast_forwarded + pi(c.interp_ns) * (warmed + timed);
    let core = pi(c.warm_ns) * warmed + fetch_own * timed;
    let predict = pi(c.predict_ns) * timed;
    let cache = pi(c.icache_ns) * timed + pi(c.dcache_ns) * (warmed + timed);
    let engine = engine_own * timed;
    let sim = (run_ns - isa - core - predict - cache - engine).max(0.0);
    CrateShares {
        isa,
        core,
        predict,
        cache,
        engine,
        sim,
    }
}

/// Host nanoseconds attributed to each crate.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrateShares {
    pub isa: f64,
    pub core: f64,
    pub predict: f64,
    pub cache: f64,
    pub engine: f64,
    pub sim: f64,
}

impl CrateShares {
    pub fn add(&mut self, o: &CrateShares) {
        self.isa += o.isa;
        self.core += o.core;
        self.predict += o.predict;
        self.cache += o.cache;
        self.engine += o.engine;
        self.sim += o.sim;
    }

    #[must_use]
    pub fn total(&self) -> f64 {
        self.isa + self.core + self.predict + self.cache + self.engine + self.sim
    }
}
