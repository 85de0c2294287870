//! The whole-processor simulation loop.

use std::collections::VecDeque;

use tc_cache::MemoryHierarchy;
use tc_core::{
    FetchBundle, FetchSource, FrontEnd, InlineVec, NextPc, TerminationReason, MAX_SEGMENT_BRANCHES,
    MAX_SEGMENT_INSTS,
};
use tc_engine::{ExecutionEngine, IssueTimes};
use tc_fault::{FaultDraw, FaultInjector, FaultLocus, FaultStats};
use tc_isa::{Addr, BlockCache, ControlKind, ExecRecord, Interpreter, Machine, Program};
use tc_predict::ReturnStack;
use tc_trace::{ExecPhase, FetchOrigin, NoopTracer, TraceEvent, Tracer};
use tc_workloads::Workload;

use crate::config::{ExecutionMode, SimConfig};
use crate::plan::PlanStats;
use crate::report::{SamplingStats, SimReport};

/// Bubble charged when an indirect branch has no predicted target (the
/// address is produced at decode rather than fetch).
const MISFETCH_PENALTY: u64 = 2;

/// Cap on wrong-path fetches simulated per misprediction shadow (the
/// shadow itself can be long on a memory miss; fetch stops meaningfully
/// polluting after the machine would have filled its window).
const MAX_WRONG_PATH_FETCHES: u32 = 64;

/// What went wrong with a fetch, if anything.
#[derive(Debug, Clone, Copy)]
enum FetchUpshot {
    /// Everything on the predicted path.
    Clean,
    /// A conditional branch (or promoted fault, or indirect target)
    /// was mispredicted; resolution completes at `done`.
    Mispredict { done: u64 },
    /// An indirect branch had no prediction: short bubble.
    Misfetch,
}

/// Per-run mutable state threaded through the timing loop, so the loop
/// can be entered repeatedly (once per measurement window in sampled
/// mode) without resetting counters or the committed-RAS mirror.
#[derive(Debug)]
struct RunState {
    /// The run's counters, accumulated directly into the report the
    /// run returns; the fields the timing loop does not own are filled
    /// in by [`Processor::report`].
    report: SimReport,
    /// Per-class activity of plan-covered branches (all zero when no
    /// promotion plan is attached), indexed by `BranchClass::index`.
    class_execs: [u64; 4],
    class_promoted: [u64; 4],
    class_faults: [u64; 4],
    /// Committed return-stack mirror for recovery — same geometry as
    /// the front end's speculative RAS.
    ras_mirror: ReturnStack,
    cycle: u64,
    last_retire: u64,
    /// The oracle stream ran out (program completed): no further
    /// windows can execute.
    ended: bool,
}

impl RunState {
    /// Attributes one conditional-branch execution to its plan class.
    fn record_class(
        &mut self,
        classes: Option<&std::collections::HashMap<u64, usize>>,
        pc: Addr,
        promoted: bool,
        faulted: bool,
    ) {
        let Some(&ci) = classes.and_then(|m| m.get(&pc.byte_addr())) else {
            return;
        };
        self.class_execs[ci] += 1;
        if faulted {
            self.class_faults[ci] += 1;
        } else if promoted {
            self.class_promoted[ci] += 1;
        }
    }
}

/// The simulated processor: front end + engine + memory, driven by a
/// workload's oracle instruction stream.
#[derive(Debug)]
pub struct Processor<T: Tracer = NoopTracer> {
    config: SimConfig,
    front_end: FrontEnd<T>,
    engine: ExecutionEngine,
    mem: MemoryHierarchy,
    injector: Option<FaultInjector>,
    fault: FaultStats,
    /// Oracle look-ahead buffer, held as a field so repeated runs (and
    /// repeated measurement windows) reuse the allocation instead of
    /// rebuilding it per call.
    oracle: VecDeque<ExecRecord>,
    /// In-flight instructions awaiting retirement; reused like
    /// `oracle`.
    retire_q: VecDeque<(u64, ExecRecord)>,
    /// Byte address → plan class index, present when a promotion plan
    /// is attached; used to attribute branch activity per class.
    plan_classes: Option<std::collections::HashMap<u64, usize>>,
}

impl Processor {
    /// Builds a processor from a configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Processor {
        Processor::with_tracer(config, NoopTracer)
    }
}

impl<T: Tracer> Processor<T> {
    /// Builds a processor whose front end reports events to `tracer`.
    #[must_use]
    pub fn with_tracer(config: SimConfig, tracer: T) -> Processor<T> {
        let mut front_end = match &config.static_promotion {
            Some(table) => {
                FrontEnd::with_static_promotion_and_tracer(config.front_end, table.clone(), tracer)
            }
            None => FrontEnd::with_tracer(config.front_end, tracer),
        };
        let plan_classes = config.promotion_plan.as_ref().map(|plan| {
            front_end.set_bias_overrides(plan.overrides());
            plan.class_indices()
        });
        Processor {
            front_end,
            engine: ExecutionEngine::new(config.engine),
            mem: MemoryHierarchy::new(config.hierarchy),
            injector: config.fault_plan.clone().map(FaultInjector::new),
            fault: FaultStats::default(),
            oracle: VecDeque::with_capacity(128),
            retire_q: VecDeque::new(),
            plan_classes,
            config,
        }
    }

    /// The attached tracer.
    #[must_use]
    pub fn tracer(&self) -> &T {
        self.front_end.tracer()
    }

    /// Runs the workload to its dynamic-instruction budget (or
    /// completion) and reports, honoring the configured
    /// [`ExecutionMode`].
    pub fn run(&mut self, workload: &Workload) -> SimReport {
        self.run_from(workload, workload.machine())
    }

    /// Runs the workload starting from an explicit architectural
    /// `machine` state (typically restored from a checkpoint).
    ///
    /// A machine checkpointed at instruction `n` and resumed under
    /// [`ExecutionMode::FastForward`]`{ skip: n }` produces a report
    /// bit-identical to an unresumed `--fast-forward n` run: the mode's
    /// `skip` counts stream *position*, so instructions the restored
    /// machine has already retired count toward it.
    pub fn run_from(&mut self, workload: &Workload, machine: Machine) -> SimReport {
        let program = workload.program();
        let mut interp = Interpreter::with_machine(program, machine);
        self.oracle.clear();
        self.retire_q.clear();
        let mut rs = RunState {
            report: SimReport::default(),
            class_execs: [0; 4],
            class_promoted: [0; 4],
            class_faults: [0; 4],
            ras_mirror: match self.config.front_end.ras_depth {
                Some(depth) => ReturnStack::with_depth(depth),
                None => ReturnStack::ideal(),
            },
            cycle: 0,
            last_retire: 0,
            ended: false,
        };

        let sampling = match self.config.mode {
            ExecutionMode::FullTiming => {
                self.run_timing(program, &mut interp, &mut rs, self.config.max_insts);
                None
            }
            ExecutionMode::FastForward { skip } => {
                Some(self.run_fast_forward(program, &mut interp, &mut rs, skip))
            }
            ExecutionMode::Sample {
                warmup,
                measure,
                period,
            } => Some(self.run_sampled(program, &mut interp, &mut rs, warmup, measure, period)),
        };

        // Let the machine drain. `total_cycles` bounds every pending
        // retire time, so draining to it empties the window without
        // advancing the engine clocks past the run (which would poison
        // a later run on the same processor).
        let total_cycles = rs.cycle.max(rs.last_retire);
        self.front_end.set_cycle(total_cycles);
        while let Some((_, rec)) = self.retire_q.pop_front() {
            self.front_end.retire(&rec);
        }
        self.engine.drain_retired(total_cycles);
        // Final sweep: audit every segment still resident in the cache.
        self.front_end.audit();

        assert!(
            interp.error().is_none(),
            "workload faulted: {:?}",
            interp.error()
        );
        self.report(workload, rs, total_cycles, sampling)
    }

    /// Fast-forwards to stream position `skip` (counting instructions
    /// the machine has already retired), then times up to the
    /// configured budget.
    fn run_fast_forward(
        &mut self,
        program: &Program,
        interp: &mut Interpreter<'_>,
        rs: &mut RunState,
        skip: u64,
    ) -> SamplingStats {
        let mut stats = SamplingStats::default();
        let already = interp.machine().retired();
        let want = skip.saturating_sub(already);
        let mut skipped = 0;
        if want > 0 {
            let blocks = BlockCache::new(program);
            skipped = skip_ahead(&mut self.oracle, interp, &blocks, want);
            if skipped < want {
                rs.ended = true;
            }
        }
        stats.fast_forwarded = already + skipped;
        if T::ENABLED {
            self.front_end.tracer_mut().emit(TraceEvent::ModeBoundary {
                phase: ExecPhase::FastForward,
                insts: stats.fast_forwarded,
            });
        }
        if !rs.ended {
            self.run_timing(program, interp, rs, self.config.max_insts);
        }
        stats.measured = rs.report.instructions;
        stats.windows = u64::from(rs.report.instructions > 0);
        stats.total_stream = stats.fast_forwarded + stats.warmed + stats.measured;
        stats
    }

    /// SMARTS-style sampling: repeat (fast-forward, functional warm-up,
    /// timed measure) windows until the stream or the total budget runs
    /// out. `max_insts` bounds the *total* stream traversed, so a
    /// sampled run covers the same dynamic region as a full-timing run
    /// with the same budget.
    fn run_sampled(
        &mut self,
        program: &Program,
        interp: &mut Interpreter<'_>,
        rs: &mut RunState,
        warmup: u64,
        measure: u64,
        period: u64,
    ) -> SamplingStats {
        let mut stats = SamplingStats::default();
        let blocks = BlockCache::new(program);
        let skip_per_window = period - warmup - measure;
        let total = self.config.max_insts;
        let mut consumed = 0u64;

        while !rs.ended && consumed < total {
            // --- Fast-forward portion ---
            let want = skip_per_window.min(total - consumed);
            if want > 0 {
                let skipped = skip_ahead(&mut self.oracle, interp, &blocks, want);
                consumed += skipped;
                stats.fast_forwarded += skipped;
                if T::ENABLED {
                    self.front_end.tracer_mut().emit(TraceEvent::ModeBoundary {
                        phase: ExecPhase::FastForward,
                        insts: skipped,
                    });
                }
                if skipped < want {
                    break;
                }
            }
            // --- Functional warm-up ---
            let want = warmup.min(total - consumed);
            if want > 0 {
                let warmed = self.warm_up(interp, &mut rs.ras_mirror, want);
                consumed += warmed;
                stats.warmed += warmed;
                if T::ENABLED {
                    self.front_end.tracer_mut().emit(TraceEvent::ModeBoundary {
                        phase: ExecPhase::Warmup,
                        insts: warmed,
                    });
                }
                if warmed < want {
                    break;
                }
            }
            // --- Timed measurement window ---
            let want = measure.min(total - consumed);
            if want == 0 {
                break;
            }
            self.front_end.restore_ras(&rs.ras_mirror);
            let before = rs.report.instructions;
            self.run_timing(program, interp, rs, want);
            let measured = rs.report.instructions - before;
            consumed += measured;
            stats.windows += 1;
            if T::ENABLED {
                self.front_end.tracer_mut().emit(TraceEvent::ModeBoundary {
                    phase: ExecPhase::Measure,
                    insts: measured,
                });
            }
            if !rs.ended {
                // The pipeline drains across the (long) skipped region
                // before the next window attaches. `rs.cycle` has been
                // advanced past every pending retire time, so draining
                // to it empties the window.
                rs.cycle = rs.cycle.max(rs.last_retire);
                self.front_end.set_cycle(rs.cycle);
                while let Some((_, rec)) = self.retire_q.pop_front() {
                    self.front_end.retire(&rec);
                }
                self.engine.drain_retired(rs.cycle);
            }
        }
        stats.measured = rs.report.instructions;
        stats.total_stream = stats.fast_forwarded + stats.warmed + stats.measured;
        stats
    }

    /// Functionally warms the front end for up to `want` instructions:
    /// trains the conditional predictor and history, the indirect
    /// predictor, and (via retirement) the bias table, fill unit, and
    /// trace cache — without advancing timing. Loads and stores also
    /// touch the data-side hierarchy, so measurement windows do not
    /// start against a cold dcache/L2. Returns the number of
    /// instructions consumed (short only when the stream ends).
    fn warm_up(
        &mut self,
        interp: &mut Interpreter<'_>,
        ras_mirror: &mut ReturnStack,
        want: u64,
    ) -> u64 {
        let mut done = 0u64;
        while done < want {
            let rec = match self.oracle.pop_front() {
                Some(rec) => rec,
                None => match interp.next() {
                    Some(rec) => rec,
                    None => break,
                },
            };
            match rec.control_kind() {
                ControlKind::Call | ControlKind::IndirectCall => {
                    ras_mirror.push(u64::from(rec.pc.next()));
                }
                ControlKind::Return => {
                    let _ = ras_mirror.pop();
                }
                _ => {}
            }
            if let Some(addr) = rec.mem_addr {
                let _ = self.mem.data_access(addr * 8); // word -> byte address
            }
            self.front_end.warm(&rec);
            done += 1;
        }
        done
    }

    /// The timing loop: issues up to `budget` correct-path instructions
    /// through the full front-end + engine model, starting from the
    /// oracle's current stream position. Sets `rs.ended` when the
    /// stream runs out. With `budget == max_insts` on a fresh
    /// [`RunState`] this is bit-identical to the pre-mode simulator.
    fn run_timing(
        &mut self,
        program: &Program,
        interp: &mut Interpreter<'_>,
        rs: &mut RunState,
        budget: u64,
    ) {
        refill(&mut self.oracle, interp);
        let Some(first) = self.oracle.front() else {
            rs.ended = true;
            return;
        };
        let mut pc = first.pc;
        let start = rs.report.instructions;

        while rs.report.instructions - start < budget {
            refill(&mut self.oracle, interp);
            if self.oracle.is_empty() {
                rs.ended = true;
                break;
            }
            self.front_end.set_cycle(rs.cycle);
            // Scheduled fault injection for this cycle.
            let draw = self.injector.as_mut().and_then(|inj| inj.poll(rs.cycle));
            if let Some(draw) = draw {
                self.apply_fault(draw);
            }
            // Retire-side work reaching the current cycle.
            while self.retire_q.front().is_some_and(|(t, _)| *t <= rs.cycle) {
                let (_, rec) = self.retire_q.pop_front().expect("checked");
                self.front_end.retire(&rec);
            }
            self.engine.drain_retired(rs.cycle);
            if !self.engine.has_room() {
                let t = self
                    .engine
                    .earliest_retire()
                    .expect("full window is non-empty");
                let wait = t.saturating_sub(rs.cycle).max(1);
                if T::ENABLED {
                    self.front_end.tracer_mut().emit(TraceEvent::WindowStall {
                        wait: wait as u32,
                        occupancy: self.engine.occupancy() as u32,
                    });
                }
                rs.report.accounting.full_window += wait;
                rs.cycle += wait;
                continue;
            }

            // --- Fetch ---
            let bundle = self.front_end.fetch(pc, program, &mut self.mem);
            if bundle.icache_latency > 0 {
                rs.report.accounting.cache_misses += u64::from(bundle.icache_latency);
                rs.cycle += u64::from(bundle.icache_latency);
            }
            let fetch_cycle = rs.cycle;

            // --- Validate the active portion against the oracle ---
            // A fetch carries at most three non-promoted conditional
            // branches and sixteen instructions, so both scratch lists
            // live on the stack.
            let mut outcomes: InlineVec<bool, MAX_SEGMENT_BRANCHES> = InlineVec::new();
            let mut history_replay: InlineVec<bool, MAX_SEGMENT_INSTS> = InlineVec::new();
            let mut upshot = FetchUpshot::Clean;
            let mut validated = 0usize;
            let mut promoted_in_fetch = 0u64;
            let mut last_times: Option<IssueTimes> = None;
            let mut trap_fetched = false;

            for fi in bundle.active() {
                let Some(front) = self.oracle.front() else {
                    break;
                };
                if front.pc != fi.pc {
                    // The predicted path silently left the correct path —
                    // impossible with consistent segments, so under fault
                    // injection this is a corruption that escaped the
                    // sanitizer; count it and resync as a misfetch.
                    if self.injector.is_some() {
                        self.fault.escaped += 1;
                        self.fault.detected += 1;
                    } else {
                        debug_assert!(false, "active path diverged without a branch mispredict");
                    }
                    upshot = FetchUpshot::Misfetch;
                    break;
                }
                let rec = self.oracle.pop_front().expect("checked");
                let times = self.engine.issue(&rec, fetch_cycle, &mut self.mem);
                self.retire_q.push_back((times.retire, rec));
                rs.last_retire = rs.last_retire.max(times.retire);
                last_times = Some(times);
                rs.report.instructions += 1;
                validated += 1;
                match rec.control_kind() {
                    ControlKind::Call | ControlKind::IndirectCall => {
                        rs.ras_mirror.push(u64::from(rec.pc.next()));
                    }
                    ControlKind::Return => {
                        let _ = rs.ras_mirror.pop();
                    }
                    ControlKind::Trap => trap_fetched = true,
                    _ => {}
                }
                if rec.is_cond_branch() {
                    history_replay.push(rec.taken);
                    // Well-formed bundles always attach a direction to a
                    // conditional branch; a missing one is possible only
                    // downstream of an escaped corruption — treat it as
                    // a mispredict rather than panicking.
                    let predicted = fi.pred_taken.unwrap_or(!rec.taken);
                    rs.record_class(
                        self.plan_classes.as_ref(),
                        rec.pc,
                        fi.promoted,
                        fi.promoted && predicted != rec.taken,
                    );
                    if fi.promoted {
                        promoted_in_fetch += 1;
                        if predicted == rec.taken {
                            rs.report.promoted_executed += 1;
                        } else {
                            rs.report.promoted_faults += 1;
                            if T::ENABLED {
                                self.front_end
                                    .tracer_mut()
                                    .emit(TraceEvent::PromotedFault { pc: rec.pc });
                            }
                            upshot = FetchUpshot::Mispredict { done: times.done };
                            break;
                        }
                    } else {
                        rs.report.cond_branches += 1;
                        outcomes.push(rec.taken);
                        if predicted != rec.taken {
                            rs.report.cond_mispredicts += 1;
                            if T::ENABLED {
                                self.front_end
                                    .tracer_mut()
                                    .emit(TraceEvent::CondMispredict {
                                        pc: rec.pc,
                                        taken: rec.taken,
                                    });
                            }
                            upshot = FetchUpshot::Mispredict { done: times.done };
                            break;
                        }
                    }
                }
            }

            // --- Next-PC resolution (when the path was clean) ---
            let mut resolved_next: Option<Addr> = None;
            if matches!(upshot, FetchUpshot::Clean) {
                match bundle.next_pc {
                    NextPc::Known(a) => resolved_next = Some(a),
                    NextPc::Return { predicted } => {
                        let actual = self.oracle.front().map(|r| r.pc);
                        if self.config.front_end.ras_depth.is_none() {
                            // Ideal RAS: the architectural target.
                            resolved_next = actual;
                        } else if let Some(actual) = actual {
                            resolved_next = Some(actual);
                            match predicted {
                                Some(p) if p == actual => {}
                                Some(_) => {
                                    rs.report.return_mispredicts += 1;
                                    if T::ENABLED {
                                        self.front_end.tracer_mut().emit(
                                            TraceEvent::ReturnMispredict {
                                                pc: bundle.fetch_pc,
                                            },
                                        );
                                    }
                                    let done = last_times.map_or(fetch_cycle + 1, |t| t.done);
                                    upshot = FetchUpshot::Mispredict { done };
                                }
                                None => upshot = FetchUpshot::Misfetch,
                            }
                        }
                    }
                    NextPc::Indirect {
                        pc: ind_pc,
                        predicted,
                    } => {
                        rs.report.indirect_executed += 1;
                        let actual = self.oracle.front().map(|r| r.pc);
                        if let Some(actual) = actual {
                            self.front_end.train_indirect(ind_pc, actual);
                            match predicted {
                                Some(p) if p == actual => resolved_next = Some(actual),
                                Some(_) => {
                                    rs.report.indirect_mispredicts += 1;
                                    if T::ENABLED {
                                        self.front_end
                                            .tracer_mut()
                                            .emit(TraceEvent::IndirectMispredict { pc: ind_pc });
                                    }
                                    let done = last_times.map_or(fetch_cycle + 1, |t| t.done);
                                    upshot = FetchUpshot::Mispredict { done };
                                    resolved_next = Some(actual);
                                }
                                None => {
                                    upshot = FetchUpshot::Misfetch;
                                    resolved_next = Some(actual);
                                }
                            }
                        }
                    }
                }
            }

            // --- Salvage inactive issue on a misprediction ---
            let mut salvaged = 0usize;
            if matches!(upshot, FetchUpshot::Mispredict { .. }) {
                for fi in bundle.inactive() {
                    let Some(front) = self.oracle.front() else {
                        break;
                    };
                    if front.pc != fi.pc {
                        break;
                    }
                    if let Some(dir) = fi.pred_taken {
                        if dir != front.taken {
                            break;
                        }
                    }
                    let rec = self.oracle.pop_front().expect("checked");
                    let times = self.engine.issue(&rec, fetch_cycle, &mut self.mem);
                    self.retire_q.push_back((times.retire, rec));
                    rs.last_retire = rs.last_retire.max(times.retire);
                    rs.report.instructions += 1;
                    salvaged += 1;
                    match rec.control_kind() {
                        ControlKind::Call | ControlKind::IndirectCall => {
                            rs.ras_mirror.push(u64::from(rec.pc.next()));
                        }
                        ControlKind::Return => {
                            let _ = rs.ras_mirror.pop();
                        }
                        _ => {}
                    }
                    if rec.is_cond_branch() {
                        history_replay.push(rec.taken);
                        rs.record_class(self.plan_classes.as_ref(), rec.pc, fi.promoted, false);
                        if fi.promoted {
                            promoted_in_fetch += 1;
                            rs.report.promoted_executed += 1;
                        } else {
                            rs.report.cond_branches += 1;
                            outcomes.push(rec.taken);
                        }
                    }
                }
                rs.report.salvaged += salvaged as u64;
            }

            // --- Stats + training ---
            let reason = if matches!(upshot, FetchUpshot::Mispredict { .. }) {
                TerminationReason::MispredBr
            } else {
                bundle.base_reason
            };
            let size = validated + salvaged;
            {
                let stats = self.front_end.stats_mut();
                stats.record_fetch(reason, size, bundle.predictions_used);
                match bundle.source {
                    FetchSource::TraceCache => stats.tc_fetches += 1,
                    FetchSource::ICache => stats.icache_fetches += 1,
                }
                stats.promoted_fetched += promoted_in_fetch;
            }
            if T::ENABLED {
                self.front_end.tracer_mut().emit(TraceEvent::Fetch {
                    pc: bundle.fetch_pc,
                    size: size as u8,
                    source: match bundle.source {
                        FetchSource::TraceCache => FetchOrigin::TraceCache,
                        FetchSource::ICache => FetchOrigin::ICache,
                    },
                    cond_branches: outcomes.len() as u8,
                    promoted: promoted_in_fetch as u8,
                    mispredicted: matches!(upshot, FetchUpshot::Mispredict { .. }),
                });
            }
            self.front_end.train(&bundle.pred, &outcomes);

            // --- Advance ---
            match upshot {
                FetchUpshot::Clean => {
                    rs.report.accounting.useful_fetch += 1;
                    rs.cycle += 1;
                    if trap_fetched {
                        // Serializing: fetch stalls until the trap
                        // retires.
                        let trap_retire = last_times.map_or(rs.cycle, |t| t.retire);
                        if trap_retire > rs.cycle {
                            rs.report.accounting.traps += trap_retire - rs.cycle;
                            rs.cycle = trap_retire;
                        }
                    }
                    match resolved_next {
                        Some(next) => pc = next,
                        None => {
                            rs.ended = true;
                            break;
                        }
                    }
                }
                FetchUpshot::Misfetch => {
                    if T::ENABLED {
                        self.front_end.tracer_mut().emit(TraceEvent::Misfetch {
                            pc: bundle.fetch_pc,
                        });
                    }
                    rs.report.accounting.useful_fetch += 1;
                    rs.report.accounting.misfetches += MISFETCH_PENALTY;
                    rs.cycle += 1 + MISFETCH_PENALTY;
                    match resolved_next.or_else(|| self.oracle.front().map(|r| r.pc)) {
                        Some(next) => pc = next,
                        None => {
                            rs.ended = true;
                            break;
                        }
                    }
                }
                FetchUpshot::Mispredict { done } => {
                    rs.report.accounting.useful_fetch += 1;
                    let redirect = done + 1;
                    rs.report.resolution_cycles += done.saturating_sub(fetch_cycle);
                    rs.report.resolution_events += 1;
                    let lost = redirect.saturating_sub(fetch_cycle + 1);
                    rs.report.accounting.branch_misses += lost;

                    // Wrong-path fetching during the shadow: pollutes the
                    // caches and LRU state, then all speculative
                    // predictor state is repaired.
                    if lost > 0 {
                        self.run_wrong_path(&bundle, program, fetch_cycle, redirect);
                    }
                    // Repair: history snapshot + replay of actual
                    // outcomes; RAS from the committed mirror.
                    self.front_end
                        .restore_history(bundle.pred.history.snapshot());
                    for &t in &history_replay {
                        self.front_end.push_history(t);
                    }
                    self.front_end.restore_ras(&rs.ras_mirror);

                    rs.cycle = redirect.max(fetch_cycle + 1);
                    match self.oracle.front().map(|r| r.pc) {
                        Some(next) => {
                            if T::ENABLED {
                                self.front_end.tracer_mut().emit(TraceEvent::Repair {
                                    redirect_pc: next,
                                    lost: lost as u32,
                                });
                            }
                            pc = next;
                        }
                        None => {
                            rs.ended = true;
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Simulates wrong-path fetching between a misprediction and its
    /// resolution: cache and LRU pollution only (no issue, no training).
    fn run_wrong_path(
        &mut self,
        bundle: &FetchBundle,
        program: &Program,
        fetch_cycle: u64,
        redirect: u64,
    ) {
        let mut wp_pc = match bundle.next_pc {
            NextPc::Known(a) => a,
            NextPc::Return { predicted } | NextPc::Indirect { predicted, .. } => match predicted {
                Some(a) => a,
                None => return,
            },
        };
        let mut wp_cycle = fetch_cycle + 1;
        let mut fetches = 0u32;
        while wp_cycle < redirect && fetches < MAX_WRONG_PATH_FETCHES {
            let wp = self.front_end.fetch(wp_pc, program, &mut self.mem);
            fetches += 1;
            wp_cycle += 1 + u64::from(wp.icache_latency);
            wp_pc = match wp.next_pc {
                NextPc::Known(a) => a,
                NextPc::Return { predicted } | NextPc::Indirect { predicted, .. } => {
                    match predicted {
                        Some(a) => a,
                        None => break,
                    }
                }
            };
        }
    }

    /// Applies one scheduled fault to the live front end. Faults that
    /// find nothing to perturb (empty RAS, cold trace cache) are
    /// dropped without counting. Self-healing loci — silent eviction,
    /// bias/predictor counter flips, RAS clobbers, dropped fills — are
    /// counted recovered immediately: their effect is confined to
    /// prediction quality and is repaired by ordinary training and
    /// misprediction recovery. Segment corruption is accounted by the
    /// front end's quarantine counters (or `escaped` at dispatch).
    fn apply_fault(&mut self, draw: FaultDraw) {
        let fe = &mut self.front_end;
        let (landed, self_healing) = match draw.locus {
            FaultLocus::TcSegment => (fe.fault_corrupt_segment(draw.entropy).is_some(), false),
            FaultLocus::TcEvict => (fe.fault_evict_line(draw.entropy).is_some(), true),
            FaultLocus::Bias => (fe.fault_flip_bias(draw.entropy), true),
            FaultLocus::Predictor => (fe.fault_flip_predictor(draw.entropy), true),
            FaultLocus::Ras => (fe.fault_clobber_ras(draw.entropy), true),
            FaultLocus::FillStall => (fe.fault_drop_fill(), true),
        };
        if landed {
            self.fault.injected += 1;
            if self_healing {
                self.fault.recovered += 1;
            }
        }
    }

    /// Completes the run's report with the state the timing loop does
    /// not own: front-end, cache, engine, fault, trace and plan stats.
    fn report(
        &self,
        workload: &Workload,
        rs: RunState,
        cycles: u64,
        sampling: Option<SamplingStats>,
    ) -> SimReport {
        SimReport {
            benchmark: workload.name().to_owned(),
            config: self.config.label(),
            cycles,
            fetch: self.front_end.stats().clone(),
            trace_cache: self.front_end.trace_cache().map(|tc| *tc.stats()),
            promotions: self
                .front_end
                .fill_unit()
                .and_then(|f| f.bias_table())
                .map(|b| (b.promotions(), b.demotions())),
            icache: *self.mem.icache_stats(),
            dcache: *self.mem.dcache_stats(),
            l2: *self.mem.l2_stats(),
            engine: *self.engine.stats(),
            sanitizer: self.front_end.sanitizer().stats(),
            fault: self.injector.as_ref().map(|_| {
                let q = self.front_end.quarantine_stats();
                FaultStats {
                    injected: self.fault.injected,
                    detected: self.fault.detected + q.detected,
                    recovered: self.fault.recovered + q.recovered,
                    escaped: self.fault.escaped,
                    recovery_cycles: q.recovery_cycles,
                }
            }),
            trace: self.front_end.tracer().summary(),
            sampling,
            plan: self.config.promotion_plan.as_ref().map(|p| PlanStats {
                workload: p.workload.clone(),
                profiled_insts: p.profiled_insts,
                entries: p.len() as u64,
                never_promote: p.never_promote(),
                class_branches: p.class_counts(),
                class_execs: rs.class_execs,
                class_promoted: rs.class_promoted,
                class_faults: rs.class_faults,
                class_promotions: self
                    .front_end
                    .fill_unit()
                    .and_then(|f| f.bias_table())
                    .map_or([0; 4], tc_predict::BiasTable::class_promotions),
            }),
            ..rs.report
        }
    }
}

fn refill(oracle: &mut VecDeque<ExecRecord>, interp: &mut Interpreter<'_>) {
    while oracle.len() < 64 {
        match interp.next() {
            Some(rec) => oracle.push_back(rec),
            None => break,
        }
    }
}

/// Advances the stream by up to `want` instructions with no timing and
/// no warming: drains already-materialized oracle records first, then
/// fast-forwards the interpreter through the predecoded block cache.
/// Returns the instructions consumed (short only when the stream ends).
fn skip_ahead(
    oracle: &mut VecDeque<ExecRecord>,
    interp: &mut Interpreter<'_>,
    blocks: &BlockCache,
    want: u64,
) -> u64 {
    let from_buffer = (oracle.len() as u64).min(want);
    oracle.drain(..from_buffer as usize);
    from_buffer + interp.fast_forward(blocks, want - from_buffer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_workloads::Benchmark;

    fn quick(config: SimConfig, bench: Benchmark) -> SimReport {
        let workload = bench.build_scaled(2);
        Processor::new(config.with_max_insts(60_000)).run(&workload)
    }

    #[test]
    fn baseline_simulation_is_sane() {
        let r = quick(SimConfig::baseline(), Benchmark::Compress);
        assert!(
            r.instructions >= 50_000,
            "ran {} instructions",
            r.instructions
        );
        assert!(r.cycles > 0);
        let ipc = r.ipc();
        assert!(ipc > 0.3 && ipc < 16.0, "IPC {ipc} out of range");
        let effr = r.effective_fetch_rate();
        assert!(effr > 2.0 && effr <= 16.0, "effective fetch rate {effr}");
        assert!(r.fetch.tc_fetches > 0, "trace cache never hit");
    }

    #[test]
    fn icache_frontend_fetches_single_blocks() {
        let r = quick(SimConfig::icache(), Benchmark::Compress);
        let effr = r.effective_fetch_rate();
        assert!(effr > 1.0 && effr < 12.0, "icache fetch rate {effr}");
        assert_eq!(r.fetch.tc_fetches, 0);
        assert!(r.trace_cache.is_none());
    }

    #[test]
    fn trace_cache_beats_icache_on_fetch_rate() {
        let tc = quick(SimConfig::baseline(), Benchmark::Ijpeg);
        let ic = quick(SimConfig::icache(), Benchmark::Ijpeg);
        assert!(
            tc.effective_fetch_rate() > ic.effective_fetch_rate(),
            "tc {} <= icache {}",
            tc.effective_fetch_rate(),
            ic.effective_fetch_rate()
        );
    }

    #[test]
    fn promotion_reduces_prediction_demand() {
        let base = quick(SimConfig::baseline(), Benchmark::Ijpeg);
        let promo = quick(SimConfig::promotion(16), Benchmark::Ijpeg);
        let (b01, _, _) = base.fetch.prediction_demand();
        let (p01, _, _) = promo.fetch.prediction_demand();
        assert!(
            p01 > b01,
            "promotion should raise the 0-or-1-prediction fraction: {b01} -> {p01}"
        );
        assert!(promo.fetch.promoted_fetched > 0);
        let (promotions, _) = promo.promotions.unwrap();
        assert!(promotions > 0, "no branches were promoted");
    }

    #[test]
    fn accounting_covers_most_cycles() {
        let r = quick(SimConfig::baseline(), Benchmark::Go);
        let covered = r.accounting.total();
        assert!(
            covered <= r.cycles + 1,
            "accounting {covered} exceeds cycles {}",
            r.cycles
        );
        assert!(
            covered * 10 >= r.cycles * 8,
            "accounting {covered} covers too little of {}",
            r.cycles
        );
    }

    #[test]
    fn mispredictions_are_detected_and_resolved() {
        let r = quick(SimConfig::baseline(), Benchmark::Go);
        assert!(r.cond_mispredicts > 0, "go must mispredict sometimes");
        assert!(r.resolution_events >= r.cond_mispredicts);
        assert!(
            r.avg_resolution_time() >= 3.0,
            "resolution {}",
            r.avg_resolution_time()
        );
    }

    #[test]
    fn perfect_disambiguation_does_not_hurt() {
        let real = quick(SimConfig::baseline(), Benchmark::Vortex);
        let perfect = quick(
            SimConfig::baseline().with_perfect_disambiguation(),
            Benchmark::Vortex,
        );
        assert!(
            perfect.ipc() >= real.ipc() * 0.98,
            "perfect {} << realistic {}",
            perfect.ipc(),
            real.ipc()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(SimConfig::baseline(), Benchmark::Perl);
        let b = quick(SimConfig::baseline(), Benchmark::Perl);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.cond_mispredicts, b.cond_mispredicts);
    }
}
