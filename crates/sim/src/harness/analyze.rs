//! `tw analyze`: profile-guided branch classification → promotion plan.
//!
//! The driver behind the `tw-plan/v1` artifact. It fuses two sources of
//! evidence about every static conditional branch of a workload:
//!
//! * **static** — `tc-analyze`'s loop/trip-count passes (back-edge
//!   structure, loop depth, static taken-probability of countable-loop
//!   latches);
//! * **dynamic** — a functional replay of the workload's instruction
//!   stream collecting per-branch direction, transition, and order-2
//!   history counts ([`DynProfile`]).
//!
//! [`tc_analyze::classify`] bins each branch into the four-class
//! predictability taxonomy and prescribes a promotion action; the result
//! is a [`PromotionPlan`] that `tw sim --plan` (and friends) attach via
//! [`crate::SimConfig::with_promotion_plan`].
//!
//! # Determinism
//!
//! Profiling is *chunked*: the stream is cut into fixed
//! [`PROFILE_CHUNK`]-instruction chunks regardless of worker count, each
//! chunk is replayed independently (from a machine snapshot captured by
//! a fast-forward pre-pass), and per-chunk counts are merged **in stream
//! order** with a rolling two-outcome context per branch stitching the
//! chunk boundaries. A parallel (`--jobs N`) profile is therefore
//! byte-identical to a serial one — the same guarantee the matrix
//! runner gives for reports.

use std::collections::BTreeMap;

use tc_analyze::{analyze, classify, DynProfile};
use tc_isa::{BlockCache, ControlKind, Interpreter, Machine};
use tc_predict::{BiasOverride, BranchClass, PlanAction};
use tc_workloads::Workload;

use crate::harness::error::TwError;
use crate::harness::json::Value;
use crate::harness::parse::parse_json;
use crate::harness::runner::par_map;
use crate::harness::table::Table;
use crate::plan::{PlanEntry, PromotionPlan};

/// Schema tag of the promotion-plan artifact.
pub const PLAN_SCHEMA: &str = "tw-plan/v1";

/// Fixed profiling chunk length, in instructions. Chunk boundaries
/// depend only on this constant — never on the worker count — so the
/// merged profile is identical at any `--jobs`.
pub const PROFILE_CHUNK: u64 = 200_000;

/// Promotion thresholds must fit the bias-table counter width.
const MAX_THRESHOLD: u32 = 1023;

/// Per-branch counts local to one chunk, mergeable across chunks.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkBranch {
    executed: u64,
    taken: u64,
    /// Direction changes *within* the chunk.
    transitions: u64,
    /// Order-2 history counts for executions with two predecessors
    /// within the chunk.
    markov: [[u64; 2]; 4],
    /// First up-to-two outcomes in the chunk (boundary stitching).
    first: [bool; 2],
    /// Last two outcomes in the chunk (`last[1]` most recent).
    last: [bool; 2],
}

fn ctx2(older: bool, newer: bool) -> usize {
    (usize::from(older) << 1) | usize::from(newer)
}

impl ChunkBranch {
    fn push(&mut self, outcome: bool) {
        if self.executed >= 1 {
            if self.last[1] != outcome {
                self.transitions += 1;
            }
            if self.executed >= 2 {
                self.markov[ctx2(self.last[0], self.last[1])][usize::from(outcome)] += 1;
            }
        }
        if self.executed < 2 {
            self.first[self.executed as usize] = outcome;
        }
        self.last[0] = self.last[1];
        self.last[1] = outcome;
        self.executed += 1;
        self.taken += u64::from(outcome);
    }
}

/// Rolling global context of one branch during the ordered merge: the
/// last up-to-two outcomes seen across all chunks merged so far.
#[derive(Debug, Clone, Copy, Default)]
struct MergeCtx {
    len: u8,
    /// `last[1]` most recent.
    last: [bool; 2],
}

/// One chunk's profile: branch byte address → counts.
type ChunkProfile = BTreeMap<u64, ChunkBranch>;

fn profile_chunk(workload: &Workload, machine: Machine, limit: u64) -> ChunkProfile {
    let mut interp = Interpreter::with_machine(workload.program(), machine);
    let mut counts = ChunkProfile::new();
    let mut n = 0u64;
    while n < limit {
        let Some(rec) = interp.next() else { break };
        n += 1;
        if rec.is_cond_branch() {
            counts
                .entry(rec.pc.byte_addr())
                .or_default()
                .push(rec.taken);
        }
    }
    counts
}

/// Merges chunk profiles **in stream order** into whole-run profiles,
/// stitching each chunk boundary with the branch's rolling context.
fn merge_chunks(chunks: &[ChunkProfile]) -> BTreeMap<u64, DynProfile> {
    let mut profiles: BTreeMap<u64, DynProfile> = BTreeMap::new();
    let mut ctx: BTreeMap<u64, MergeCtx> = BTreeMap::new();
    for chunk in chunks {
        for (&pc, s) in chunk {
            let p = profiles.entry(pc).or_default();
            let g = ctx.entry(pc).or_default();
            // Cross-boundary stitching touches only the chunk's first
            // two outcomes: everything later has both its transition
            // predecessor and its two-outcome history inside the chunk.
            if s.executed >= 1 {
                let o0 = s.first[0];
                if g.len >= 1 && g.last[1] != o0 {
                    p.transitions += 1;
                }
                if g.len == 2 {
                    p.markov[ctx2(g.last[0], g.last[1])][usize::from(o0)] += 1;
                }
            }
            if s.executed >= 2 && g.len >= 1 {
                p.markov[ctx2(g.last[1], s.first[0])][usize::from(s.first[1])] += 1;
            }
            p.executed += s.executed;
            p.taken += s.taken;
            p.transitions += s.transitions;
            for c in 0..4 {
                for o in 0..2 {
                    p.markov[c][o] += s.markov[c][o];
                }
            }
            match s.executed {
                0 => {}
                1 => {
                    if g.len >= 1 {
                        g.last[0] = g.last[1];
                        g.len = 2;
                    } else {
                        g.len = 1;
                    }
                    g.last[1] = s.first[0];
                }
                _ => {
                    g.last = s.last;
                    g.len = 2;
                }
            }
        }
    }
    profiles
}

/// Functionally profiles up to `max_insts` instructions of `workload`,
/// returning per-branch dynamic profiles and the instructions actually
/// replayed. `jobs` caps the chunk-replay worker threads; the result is
/// identical for every `jobs ≥ 1`.
///
/// # Errors
///
/// Fails if the workload faults during the fast-forward snapshot pass
/// (registered workloads never do).
pub fn profile_branches(
    workload: &Workload,
    max_insts: u64,
    jobs: usize,
) -> Result<(BTreeMap<u64, DynProfile>, u64), TwError> {
    let program = workload.program();
    let blocks = BlockCache::new(program);
    // Snapshot pass: capture the machine at every chunk boundary at
    // fast-forward (no ExecRecord materialization) speed.
    let mut machine = workload.machine();
    let mut snapshots: Vec<(Machine, u64)> = Vec::new();
    let mut profiled = 0u64;
    while profiled < max_insts && !machine.is_halted() {
        let want = PROFILE_CHUNK.min(max_insts - profiled);
        snapshots.push((machine.clone(), want));
        let ran = machine.fast_forward(program, &blocks, want).map_err(|e| {
            TwError::runtime(format!(
                "{}: workload faulted while profiling: {e:?}",
                workload.name()
            ))
        })?;
        profiled += ran;
        if ran < want {
            break;
        }
    }
    // Replay pass: chunks are independent; run them on worker threads.
    let chunks = par_map(&snapshots, jobs, |(machine, limit)| {
        profile_chunk(workload, machine.clone(), *limit)
    });
    Ok((merge_chunks(&chunks), profiled))
}

/// Runs the full analysis pipeline on `workload`: static passes +
/// functional profile + per-branch classification, producing the plan
/// `tw sim --plan` consumes.
///
/// # Errors
///
/// Propagates [`profile_branches`] failures.
pub fn build_plan(
    workload: &Workload,
    max_insts: u64,
    jobs: usize,
) -> Result<PromotionPlan, TwError> {
    let (profiles, profiled) = profile_branches(workload, max_insts, jobs)?;
    let report = analyze(workload.program());
    let mut entries = Vec::new();
    for b in &report.taxonomy.branches {
        if b.kind != ControlKind::CondBranch {
            continue;
        }
        let pc = b.pc.byte_addr();
        let prof = profiles.get(&pc);
        let over = classify(b.static_taken_prob, prof);
        let p = prof.copied().unwrap_or_default();
        entries.push(PlanEntry {
            pc,
            over,
            executed: p.executed,
            taken: p.taken,
            transitions: p.transitions,
            bias: p.bias(),
            avg_run: p.avg_run(),
            markov_accuracy: p.markov_accuracy(),
            loop_depth: b.loop_depth,
            static_taken_prob: b.static_taken_prob,
        });
    }
    Ok(PromotionPlan {
        workload: workload.name().to_owned(),
        profiled_insts: profiled,
        entries,
    })
}

/// The `tw-plan/v1` JSON form of a plan. The key set is pinned by a
/// golden test; extend it additively.
#[must_use]
pub fn plan_to_json(plan: &PromotionPlan) -> Value {
    let counts = plan.class_counts();
    let branches = plan
        .entries
        .iter()
        .map(|e| {
            let (action, threshold) = match e.over.action {
                PlanAction::Never => ("never", Value::Null),
                PlanAction::Threshold(t) => ("promote", Value::UInt(u64::from(t))),
            };
            Value::object([
                ("pc", Value::UInt(e.pc)),
                ("class", Value::Str(e.over.class.name().to_owned())),
                ("action", Value::Str(action.to_owned())),
                ("threshold", threshold),
                ("executed", Value::UInt(e.executed)),
                ("taken", Value::UInt(e.taken)),
                ("transitions", Value::UInt(e.transitions)),
                ("bias", Value::Float(e.bias)),
                ("avg_run", Value::Float(e.avg_run)),
                ("markov_accuracy", Value::Float(e.markov_accuracy)),
                ("loop_depth", Value::UInt(e.loop_depth as u64)),
                (
                    "static_taken_prob",
                    e.static_taken_prob.map_or(Value::Null, Value::Float),
                ),
            ])
        })
        .collect();
    Value::object([
        ("schema", Value::Str(PLAN_SCHEMA.to_owned())),
        ("workload", Value::Str(plan.workload.clone())),
        ("profiled_instructions", Value::UInt(plan.profiled_insts)),
        ("static_branches", Value::UInt(plan.len() as u64)),
        (
            "classes",
            Value::object(
                BranchClass::ALL
                    .into_iter()
                    .map(|c| (c.name(), Value::UInt(counts[c.index()]))),
            ),
        ),
        ("branches", Value::Array(branches)),
    ])
}

fn want_u64(v: &Value, what: &str) -> Result<u64, TwError> {
    v.as_u64()
        .ok_or_else(|| TwError::runtime(format!("plan: {what} is not a non-negative integer")))
}

fn opt_u64(obj: &Value, key: &str, what: &str) -> Result<u64, TwError> {
    match obj.get(key) {
        Some(v) => want_u64(v, what),
        None => Ok(0),
    }
}

/// Parses and validates a `tw-plan/v1` document.
///
/// # Errors
///
/// Returns a one-line runtime [`TwError`] on malformed JSON, a wrong or
/// missing schema tag, unknown class or action names, or an
/// out-of-range promotion threshold.
pub fn parse_plan(text: &str) -> Result<PromotionPlan, TwError> {
    let doc = parse_json(text).map_err(|e| TwError::runtime(format!("plan: {e}")))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| TwError::runtime("plan: missing schema tag"))?;
    if schema != PLAN_SCHEMA {
        return Err(TwError::runtime(format!(
            "plan: schema {schema:?} is not {PLAN_SCHEMA:?}"
        )));
    }
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .ok_or_else(|| TwError::runtime("plan: missing workload name"))?
        .to_owned();
    let profiled_insts = opt_u64(&doc, "profiled_instructions", "profiled_instructions")?;
    let branches = doc
        .get("branches")
        .and_then(Value::as_array)
        .ok_or_else(|| TwError::runtime("plan: missing branches array"))?;
    let mut entries = Vec::with_capacity(branches.len());
    let mut last_pc: Option<u64> = None;
    for (i, b) in branches.iter().enumerate() {
        let pc = want_u64(
            b.get("pc")
                .ok_or_else(|| TwError::runtime(format!("plan: branch {i}: missing pc")))?,
            "branch pc",
        )?;
        if last_pc.is_some_and(|prev| prev >= pc) {
            return Err(TwError::runtime(format!(
                "plan: branch {i}: pc {pc:#x} out of order (duplicate or unsorted)"
            )));
        }
        last_pc = Some(pc);
        let class_name = b
            .get("class")
            .and_then(Value::as_str)
            .ok_or_else(|| TwError::runtime(format!("plan: branch {i}: missing class")))?;
        let class = BranchClass::from_name(class_name).ok_or_else(|| {
            TwError::runtime(format!("plan: branch {i}: unknown class {class_name:?}"))
        })?;
        let action_name = b
            .get("action")
            .and_then(Value::as_str)
            .ok_or_else(|| TwError::runtime(format!("plan: branch {i}: missing action")))?;
        let action = match action_name {
            "never" => PlanAction::Never,
            "promote" => {
                let t = want_u64(
                    b.get("threshold").ok_or_else(|| {
                        TwError::runtime(format!("plan: branch {i}: promote without threshold"))
                    })?,
                    "threshold",
                )?;
                if t < 1 || t > u64::from(MAX_THRESHOLD) {
                    return Err(TwError::runtime(format!(
                        "plan: branch {i}: threshold {t} outside 1..={MAX_THRESHOLD}"
                    )));
                }
                // The range check above caps `t` at MAX_THRESHOLD, but
                // convert checked anyway: a lossy cast here would turn a
                // future range-check regression into silent truncation.
                PlanAction::Threshold(u32::try_from(t).map_err(|_| {
                    TwError::runtime(format!(
                        "plan: branch {i}: threshold {t} does not fit in u32"
                    ))
                })?)
            }
            other => {
                return Err(TwError::runtime(format!(
                    "plan: branch {i}: unknown action {other:?}"
                )))
            }
        };
        let executed = opt_u64(b, "executed", "executed")?;
        let taken = opt_u64(b, "taken", "taken")?;
        if taken > executed {
            return Err(TwError::runtime(format!(
                "plan: branch {i}: taken {taken} exceeds executed {executed}"
            )));
        }
        entries.push(PlanEntry {
            pc,
            over: BiasOverride { class, action },
            executed,
            taken,
            transitions: opt_u64(b, "transitions", "transitions")?,
            bias: b.get("bias").and_then(Value::as_f64).unwrap_or(0.0),
            avg_run: b.get("avg_run").and_then(Value::as_f64).unwrap_or(0.0),
            markov_accuracy: b
                .get("markov_accuracy")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            loop_depth: usize::try_from(opt_u64(b, "loop_depth", "loop_depth")?).map_err(|_| {
                TwError::runtime(format!("plan: branch {i}: loop_depth does not fit"))
            })?,
            static_taken_prob: b.get("static_taken_prob").and_then(Value::as_f64),
        });
    }
    Ok(PromotionPlan {
        workload,
        profiled_insts,
        entries,
    })
}

/// A human summary of a plan: the class histogram plus the hottest
/// branches of each class.
#[must_use]
pub fn plan_table(plan: &PromotionPlan) -> String {
    let mut table = Table::new(&[
        "pc", "class", "action", "executed", "bias", "avg_run", "markov", "depth",
    ]);
    for e in &plan.entries {
        let action = match e.over.action {
            PlanAction::Never => "never".to_owned(),
            PlanAction::Threshold(t) => format!("promote@{t}"),
        };
        table.row(vec![
            format!("{:#x}", e.pc),
            e.over.class.name().to_owned(),
            action,
            e.executed.to_string(),
            format!("{:.3}", e.bias),
            format!("{:.1}", e.avg_run),
            format!("{:.3}", e.markov_accuracy),
            e.loop_depth.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_workloads::Benchmark;

    #[test]
    fn serial_and_parallel_profiles_are_identical() {
        let workload = Benchmark::Compress.build();
        let (serial, n1) = profile_branches(&workload, 600_000, 1).unwrap();
        let (parallel, n4) = profile_branches(&workload, 600_000, 4).unwrap();
        assert_eq!(n1, n4);
        assert_eq!(serial, parallel);
        assert!(!serial.is_empty());
    }

    #[test]
    fn chunked_profile_matches_one_shot_profile() {
        // One giant chunk (no boundaries) is the trivially correct
        // profile; the chunked merge must reproduce it exactly.
        let workload = Benchmark::Li.build();
        let one = profile_chunk(&workload, workload.machine(), 500_000);
        let whole = merge_chunks(std::slice::from_ref(&one));
        let (chunked, _) = profile_branches(&workload, 500_000, 3).unwrap();
        assert_eq!(chunked, whole);
        assert!(one.len() > 4, "li executes many static branches");
    }

    #[test]
    fn plan_round_trips_through_json() {
        let workload = Benchmark::Compress.build();
        let plan = build_plan(&workload, 400_000, 2).unwrap();
        assert!(!plan.is_empty());
        let text = plan_to_json(&plan).pretty();
        let back = parse_plan(&text).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn plan_covers_every_static_conditional_branch() {
        let workload = Benchmark::Compress.build();
        let plan = build_plan(&workload, 200_000, 1).unwrap();
        let report = analyze(workload.program());
        let cond = report
            .taxonomy
            .branches
            .iter()
            .filter(|b| b.kind == ControlKind::CondBranch)
            .count();
        assert_eq!(plan.len(), cond);
    }

    #[test]
    fn malformed_plans_are_rejected_with_one_line_errors() {
        let cases = [
            ("{", "plan:"),
            ("{\"schema\": \"tw-plan/v2\"}", "is not \"tw-plan/v1\""),
            ("{\"workload\": \"x\"}", "missing schema"),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\"}",
                "missing branches",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": [{}]}",
                "missing pc",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": \
                 [{\"pc\": 8, \"class\": \"bogus\", \"action\": \"never\"}]}",
                "unknown class",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": \
                 [{\"pc\": 8, \"class\": \"strongly_biased\", \"action\": \"promote\", \
                   \"threshold\": 4096}]}",
                "outside 1..=1023",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": \
                 [{\"pc\": 8, \"class\": \"strongly_biased\", \"action\": \"promote\"}]}",
                "promote without threshold",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": \
                 [{\"pc\": 16, \"class\": \"data_dependent\", \"action\": \"never\"}, \
                  {\"pc\": 8, \"class\": \"data_dependent\", \"action\": \"never\"}]}",
                "out of order",
            ),
        ];
        for (text, needle) in cases {
            let err = parse_plan(text).unwrap_err();
            assert!(
                err.message().contains(needle),
                "{text}: {:?} lacks {needle:?}",
                err.message()
            );
            assert!(!err.message().contains('\n'), "one-line diagnostic");
            assert_eq!(err.exit_code(), 1);
        }
    }

    #[test]
    fn counters_past_u32_round_trip_without_truncation() {
        // A >4G-execution counter must survive emit → parse exactly; a
        // stray `as u32` anywhere on the path would fold 2^32+1 to 1.
        // Past 2^53 an `f64` carrier would round, so those must be read
        // as exact integers too, up to `u64::MAX`.
        for executed in [
            u64::from(u32::MAX) - 1,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            (1 << 53) + 1,
            u64::MAX,
        ] {
            let plan = PromotionPlan {
                workload: "compress".to_owned(),
                profiled_insts: executed,
                entries: vec![PlanEntry {
                    pc: 8,
                    over: BiasOverride {
                        class: BranchClass::StronglyBiased,
                        action: PlanAction::Threshold(8),
                    },
                    executed,
                    taken: executed - 1,
                    transitions: 2,
                    bias: 0.999,
                    avg_run: 12.0,
                    markov_accuracy: 0.98,
                    loop_depth: 1,
                    static_taken_prob: None,
                }],
            };
            let back = parse_plan(&plan_to_json(&plan).pretty()).unwrap();
            assert_eq!(
                back.entries[0].executed, executed,
                "truncated at {executed}"
            );
            assert_eq!(back.profiled_insts, executed);
        }
    }
}
