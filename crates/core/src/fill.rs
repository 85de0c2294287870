//! The fill unit: builds trace segments from the retired instruction
//! stream.

use std::collections::VecDeque;

use tc_isa::{Addr, ControlKind, ExecRecord};
use tc_predict::{BiasDecision, BiasTable, BiasUpdate};
use tc_trace::{DemotionCause, NoopTracer, PackVerdict, TraceEvent, Tracer};

use crate::inline_vec::InlineVec;
use crate::promote::StaticPromotionTable;
use crate::sanitize::ViolationKind;
use crate::segment::{
    has_short_backward_branch, SegEndReason, SegmentInst, TraceSegment, MAX_SEGMENT_BRANCHES,
    MAX_SEGMENT_INSTS,
};

/// Inline scratch buffer for a pending segment or fetch block — both are
/// bounded by the line size, so the fill unit never heap-allocates in
/// steady state.
type InstBuf = InlineVec<SegmentInst, MAX_SEGMENT_INSTS>;

/// How the fill unit treats a retired block that does not fit in the
/// pending segment (§5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingPolicy {
    /// Fetch blocks are atomic: the pending segment is finalized and the
    /// block starts the next segment (the paper's baseline).
    Atomic,
    /// Unregulated trace packing: the block is split greedily so every
    /// segment is packed to 16 instructions.
    Unregulated,
    /// Packing in chunks of `n`: blocks only fragment at multiples of
    /// `n` instructions (the paper evaluates n = 2 and n = 4).
    Chunk(usize),
    /// Cost-regulated packing: pack only when the pending segment has at
    /// least half its length free, or contains a backward branch with
    /// displacement ≤ 32 instructions (tight loop).
    CostRegulated,
}

impl PackingPolicy {
    fn label(self) -> &'static str {
        match self {
            PackingPolicy::Atomic => "atomic",
            PackingPolicy::Unregulated => "unreg",
            PackingPolicy::Chunk(2) => "n=2",
            PackingPolicy::Chunk(4) => "n=4",
            PackingPolicy::Chunk(_) => "n=k",
            PackingPolicy::CostRegulated => "cost-reg",
        }
    }
}

impl std::fmt::Display for PackingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Fill-unit statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillStats {
    /// Segments finalized.
    pub segments: u64,
    /// Total instructions across finalized segments.
    pub segment_insts: u64,
    /// Promoted branches embedded into segments.
    pub promoted_embedded: u64,
    /// Non-promoted conditional branches embedded.
    pub dynamic_embedded: u64,
    /// Blocks split across segments by packing.
    pub blocks_split: u64,
    /// Blocks kept atomic because regulation refused the split.
    pub splits_refused: u64,
}

impl FillStats {
    /// Average finalized segment length.
    #[must_use]
    pub fn avg_segment_len(&self) -> f64 {
        if self.segments == 0 {
            0.0
        } else {
            self.segment_insts as f64 / self.segments as f64
        }
    }
}

/// How the fill unit decides to promote branches.
#[derive(Debug, Clone)]
enum Promoter {
    /// No promotion (the baseline).
    None,
    /// Dynamic promotion via the branch bias table (paper §4).
    Dynamic(BiasTable),
    /// Static, profile-guided promotion (the alternative §4 sketches).
    Static(StaticPromotionTable),
}

/// The fill unit.
///
/// Collects retired instructions into fetch blocks, merges blocks into a
/// pending segment under the configured [`PackingPolicy`], and performs
/// **branch promotion** when built with a bias table (or a static
/// profile). Finalized segments queue up for the trace cache
/// ([`FillUnit::pop_segment`]).
///
/// Per the paper: conditional branches terminate fetch blocks (promoted
/// ones do not); unconditional jumps and calls never terminate blocks;
/// returns, indirect jumps/calls and traps finalize the pending segment
/// outright.
#[derive(Debug, Clone)]
pub struct FillUnit {
    policy: PackingPolicy,
    promoter: Promoter,
    pending: InstBuf,
    current_block: InstBuf,
    finalized: VecDeque<TraceSegment>,
    stats: FillStats,
    violations: Vec<ViolationKind>,
}

impl FillUnit {
    /// Creates a fill unit. Pass a [`BiasTable`] to enable dynamic
    /// branch promotion.
    #[must_use]
    pub fn new(policy: PackingPolicy, bias: Option<BiasTable>) -> FillUnit {
        FillUnit {
            policy,
            promoter: match bias {
                Some(b) => Promoter::Dynamic(b),
                None => Promoter::None,
            },
            pending: InstBuf::new(),
            current_block: InstBuf::new(),
            finalized: VecDeque::new(),
            stats: FillStats::default(),
            violations: Vec::new(),
        }
    }

    /// Creates a fill unit with static (profile-guided) promotion.
    #[must_use]
    pub fn new_static(policy: PackingPolicy, table: StaticPromotionTable) -> FillUnit {
        FillUnit {
            promoter: Promoter::Static(table),
            ..FillUnit::new(policy, None)
        }
    }

    /// The packing policy in force.
    #[must_use]
    pub fn policy(&self) -> PackingPolicy {
        self.policy
    }

    /// Whether branch promotion (dynamic or static) is enabled.
    #[must_use]
    pub fn promotes(&self) -> bool {
        !matches!(self.promoter, Promoter::None)
    }

    /// The bias table, when dynamic promotion is enabled.
    #[must_use]
    pub fn bias_table(&self) -> Option<&BiasTable> {
        match &self.promoter {
            Promoter::Dynamic(b) => Some(b),
            _ => None,
        }
    }

    /// Mutable bias-table access (fault-injection hook).
    pub fn bias_table_mut(&mut self) -> Option<&mut BiasTable> {
        match &mut self.promoter {
            Promoter::Dynamic(b) => Some(b),
            _ => None,
        }
    }

    /// Drops the in-flight (pending) segment state — the stalled-fill
    /// fault: retired instructions accumulated toward the next trace
    /// segment are lost, as if the fill pipeline was flushed. Finalized
    /// segments already queued are untouched. Returns `false` when
    /// nothing was pending. Architecturally invisible; only fill-rate
    /// statistics feel it.
    pub fn fault_drop_pending(&mut self) -> bool {
        let had = !self.pending.is_empty() || !self.current_block.is_empty();
        self.pending.clear();
        self.current_block.clear();
        had
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &FillStats {
        &self.stats
    }

    /// Takes the next finalized segment, in retirement order.
    pub fn pop_segment(&mut self) -> Option<TraceSegment> {
        self.finalized.pop_front()
    }

    /// Drains invariant violations observed while merging blocks, for
    /// the front end's [`crate::Sanitizer`] to record with cycle
    /// context. Violations accumulate whether or not a sanitizer is
    /// attached; in a healthy fill unit the list is always empty.
    pub fn take_violations(&mut self) -> Vec<ViolationKind> {
        std::mem::take(&mut self.violations)
    }

    /// Feeds one retired instruction (correct path, program order).
    pub fn retire(&mut self, rec: &ExecRecord) {
        self.retire_traced(rec, &mut NoopTracer);
    }

    /// [`FillUnit::retire`] with an attached [`Tracer`]. With the
    /// [`NoopTracer`] this monomorphizes to exactly the untraced path.
    pub fn retire_traced<T: Tracer>(&mut self, rec: &ExecRecord, tracer: &mut T) {
        let kind = rec.control_kind();
        let mut promoted = None;
        if kind == ControlKind::CondBranch {
            let decision = match &mut self.promoter {
                Promoter::None => None,
                Promoter::Dynamic(bias) => {
                    // Bias table updates at retire; the promotion query
                    // for this instance sees the update (Figure 5).
                    let transition = bias.update(rec.pc.byte_addr(), rec.taken);
                    if T::ENABLED {
                        emit_bias_transition(tracer, rec.pc, transition);
                    }
                    match bias.decision(rec.pc.byte_addr()) {
                        BiasDecision::Promote(dir) => Some(dir),
                        BiasDecision::Normal => None,
                    }
                }
                Promoter::Static(table) => table.decision(rec.pc),
            };
            // Promote only when this instance followed the promoted
            // direction — a contradicting instance is built as a normal
            // branch.
            if decision == Some(rec.taken) {
                promoted = decision;
            }
        }

        self.current_block.push(SegmentInst {
            pc: rec.pc,
            instr: rec.instr,
            taken: rec.taken,
            promoted,
        });

        let ends_segment = kind.ends_segment();
        let ends_block = (kind == ControlKind::CondBranch && promoted.is_none()) || ends_segment;
        let forced = self.current_block.len() == MAX_SEGMENT_INSTS;

        if ends_block || forced {
            // Move the block out by (inline) copy so `merge_block` can
            // borrow it alongside `&mut self` — no heap traffic.
            let block = std::mem::take(&mut self.current_block);
            self.merge_block(&block, ends_segment, tracer);
        }
    }

    fn pending_branches(&self) -> usize {
        self.pending.iter().filter(|i| i.needs_prediction()).count()
    }

    fn finalize<T: Tracer>(&mut self, reason: SegEndReason, tracer: &mut T) {
        if self.pending.is_empty() {
            return;
        }
        let insts = self.pending.as_slice();
        self.stats.segments += 1;
        self.stats.segment_insts += insts.len() as u64;
        let promoted = insts.iter().filter(|i| i.promoted.is_some()).count();
        let dynamic = insts.iter().filter(|i| i.needs_prediction()).count();
        self.stats.promoted_embedded += promoted as u64;
        self.stats.dynamic_embedded += dynamic as u64;
        if T::ENABLED {
            tracer.emit(TraceEvent::FillFinalize {
                start: insts[0].pc,
                len: insts.len() as u8,
                dynamic_branches: dynamic as u8,
                promoted: promoted as u8,
                reason: reason.into(),
            });
        }
        let segment = TraceSegment::new(insts, reason);
        self.pending.clear();
        self.finalized.push_back(segment);
    }

    /// Appends a whole block that fits, applying the finalize rules.
    fn append_fitting<T: Tracer>(
        &mut self,
        mut block: &[SegmentInst],
        ends_segment: bool,
        tracer: &mut T,
    ) {
        if self.pending.len() + block.len() > MAX_SEGMENT_INSTS {
            // A broken merge decision. Record the violation for the
            // sanitizer and clamp so the segment stays well-formed.
            self.violations.push(ViolationKind::PendingOverflow {
                pending: self.pending.len(),
                block: block.len(),
            });
            block = &block[..MAX_SEGMENT_INSTS - self.pending.len()];
        }
        self.pending.extend_from_slice(block);
        if ends_segment {
            self.finalize(SegEndReason::RetIndTrap, tracer);
        } else if self.pending.len() == MAX_SEGMENT_INSTS {
            self.finalize(SegEndReason::MaxSize, tracer);
        } else if self.pending_branches() == MAX_SEGMENT_BRANCHES {
            self.finalize(SegEndReason::MaxBranches, tracer);
        }
    }

    fn merge_block<T: Tracer>(
        &mut self,
        block: &[SegmentInst],
        ends_segment: bool,
        tracer: &mut T,
    ) {
        let space = MAX_SEGMENT_INSTS - self.pending.len();
        if block.len() <= space {
            self.append_fitting(block, ends_segment, tracer);
            return;
        }
        // The block does not fit: the policy decides (the verdict names
        // the rule that fired, for the event stream).
        let (take, verdict) = match self.policy {
            PackingPolicy::Atomic => (0, PackVerdict::AtomicPolicy),
            PackingPolicy::Unregulated => (space, PackVerdict::Unregulated),
            PackingPolicy::Chunk(n) => {
                let take = (space / n) * n;
                if take == 0 {
                    (0, PackVerdict::ChunkTooSmall)
                } else {
                    (take, PackVerdict::ChunkFit)
                }
            }
            PackingPolicy::CostRegulated => {
                if 2 * space >= self.pending.len() {
                    (space, PackVerdict::SpareCapacity)
                } else if has_short_backward_branch(&self.pending, 32) {
                    (space, PackVerdict::TightLoop)
                } else {
                    (0, PackVerdict::CostRefused)
                }
            }
        };
        if let PackingPolicy::Chunk(n) = self.policy {
            if take % n != 0 {
                self.violations.push(ViolationKind::SplitGranularity {
                    chunk: n,
                    head: take,
                });
            }
        }
        if take == 0 {
            // Atomic treatment: finalize pending; the block starts fresh.
            self.stats.splits_refused += 1;
            if T::ENABLED {
                tracer.emit(TraceEvent::PackRefused {
                    pending: self.pending.len() as u8,
                    block: block.len() as u8,
                    verdict,
                });
            }
            self.finalize(SegEndReason::AtomicBlock, tracer);
            self.append_fitting(block, ends_segment, tracer);
            return;
        }
        // Packing: head finishes the pending segment, tail starts the
        // next one.
        self.stats.blocks_split += 1;
        if T::ENABLED {
            tracer.emit(TraceEvent::PackPerformed {
                head: take as u8,
                tail: (block.len() - take) as u8,
                verdict,
            });
        }
        let (head, tail) = block.split_at(take);
        self.pending.extend_from_slice(head);
        // A performed split that still leaves the line non-full (chunk
        // granularity) is `Packed`, not `AtomicBlock`: the histograms
        // must keep performed and refused splits apart.
        let reason = if self.pending.len() == MAX_SEGMENT_INSTS {
            SegEndReason::MaxSize
        } else {
            SegEndReason::Packed
        };
        self.finalize(reason, tracer);
        self.append_fitting(tail, ends_segment, tracer);
    }
}

/// Maps a [`BiasUpdate`] transition onto Promotion/Demotion events.
fn emit_bias_transition<T: Tracer>(tracer: &mut T, pc: Addr, transition: BiasUpdate) {
    match transition {
        BiasUpdate::None => {}
        BiasUpdate::Promoted(dir) => tracer.emit(TraceEvent::Promotion { pc, dir }),
        BiasUpdate::Demoted => tracer.emit(TraceEvent::Demotion {
            pc,
            cause: DemotionCause::ConsecutiveOpposite,
        }),
        BiasUpdate::EvictedPromoted(victim) => {
            // The bias table is indexed by byte address; recover the
            // victim's instruction address.
            let victim = Addr::new((victim / Addr::INSTR_BYTES) as u32);
            tracer.emit(TraceEvent::Demotion {
                pc: victim,
                cause: DemotionCause::Evicted,
            });
        }
        BiasUpdate::DemotedThenPromoted(dir) => {
            tracer.emit(TraceEvent::Demotion {
                pc,
                cause: DemotionCause::ConsecutiveOpposite,
            });
            tracer.emit(TraceEvent::Promotion { pc, dir });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_isa::{Addr, Cond, Instr, Reg};
    use tc_predict::BiasConfig;

    /// Feeds `n` straight-line instructions ending with a conditional
    /// branch at sequential addresses starting at `pc`.
    fn feed_block(fill: &mut FillUnit, pc: &mut u32, n: usize, taken: bool) {
        for i in 0..n {
            let is_last = i == n - 1;
            let instr = if is_last {
                Instr::Branch {
                    cond: Cond::Eq,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                    target: Addr::new(*pc + 100),
                }
            } else {
                Instr::Nop
            };
            let next = if is_last && taken { *pc + 100 } else { *pc + 1 };
            fill.retire(&ExecRecord {
                pc: Addr::new(*pc),
                instr,
                next_pc: Addr::new(next),
                taken: is_last && taken,
                mem_addr: None,
            });
            *pc += 1;
        }
        if taken {
            *pc += 99; // follow the branch target
        }
    }

    fn feed_ret(fill: &mut FillUnit, pc: &mut u32) {
        fill.retire(&ExecRecord {
            pc: Addr::new(*pc),
            instr: Instr::Ret,
            next_pc: Addr::new(0),
            taken: false,
            mem_addr: None,
        });
        *pc = 0;
    }

    #[test]
    fn three_branches_finalize_a_segment() {
        let mut f = FillUnit::new(PackingPolicy::Atomic, None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 4, false);
        feed_block(&mut f, &mut pc, 4, false);
        assert!(f.pop_segment().is_none());
        feed_block(&mut f, &mut pc, 4, false);
        let seg = f.pop_segment().expect("3rd branch finalizes");
        assert_eq!(seg.len(), 12);
        assert_eq!(seg.end_reason(), SegEndReason::MaxBranches);
        assert_eq!(seg.dynamic_branch_count(), 3);
    }

    #[test]
    fn atomic_policy_never_splits_blocks() {
        let mut f = FillUnit::new(PackingPolicy::Atomic, None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 13, false);
        feed_block(&mut f, &mut pc, 9, false); // doesn't fit in 3 slots
        let seg = f.pop_segment().expect("atomic finalize");
        assert_eq!(seg.len(), 13);
        assert_eq!(seg.end_reason(), SegEndReason::AtomicBlock);
        assert_eq!(f.stats().splits_refused, 1);
    }

    #[test]
    fn unregulated_packing_fills_to_sixteen() {
        let mut f = FillUnit::new(PackingPolicy::Unregulated, None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 13, false);
        feed_block(&mut f, &mut pc, 9, false);
        let seg = f.pop_segment().expect("packed finalize");
        assert_eq!(seg.len(), 16, "packing fills the line");
        assert_eq!(seg.end_reason(), SegEndReason::MaxSize);
        assert_eq!(f.stats().blocks_split, 1);
        // The tail (6 insts incl. the branch) starts the next segment.
        feed_ret(&mut f, &mut pc);
        let next = f.pop_segment().unwrap();
        assert_eq!(next.len(), 7);
    }

    #[test]
    fn chunked_packing_splits_at_multiples() {
        let mut f = FillUnit::new(PackingPolicy::Chunk(4), None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 10, false); // 6 slots left
        feed_block(&mut f, &mut pc, 9, false); // take (6/4)*4 = 4
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.len(), 14);
        assert_eq!(f.stats().blocks_split, 1);
    }

    /// A *performed* split that leaves the line non-full reports
    /// `Packed`, not `AtomicBlock` — the latter is reserved for refused
    /// splits, so the two stay distinct in the termination histograms.
    #[test]
    fn performed_nonfull_split_finalizes_as_packed() {
        let mut f = FillUnit::new(PackingPolicy::Chunk(4), None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 10, false); // 6 slots left
        feed_block(&mut f, &mut pc, 9, false); // take 4: line closes at 14
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.len(), 14, "split performed at chunk granularity");
        assert_eq!(seg.end_reason(), SegEndReason::Packed);
        assert_eq!(f.stats().blocks_split, 1);
        assert_eq!(f.stats().splits_refused, 0);
    }

    #[test]
    fn chunked_packing_refuses_tiny_splits() {
        let mut f = FillUnit::new(PackingPolicy::Chunk(4), None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 14, false); // 2 slots < n
        feed_block(&mut f, &mut pc, 9, false);
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.len(), 14, "no split when space < n");
        assert_eq!(
            seg.end_reason(),
            SegEndReason::AtomicBlock,
            "a refused split keeps the atomic-block reason"
        );
        assert_eq!(f.stats().splits_refused, 1);
    }

    #[test]
    fn cost_regulation_packs_only_when_worthwhile() {
        // Pending of 13: unused (3) < 13/2 — refuse.
        let mut f = FillUnit::new(PackingPolicy::CostRegulated, None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 13, false);
        feed_block(&mut f, &mut pc, 9, false);
        assert_eq!(f.pop_segment().unwrap().len(), 13);
        // Pending of 8: unused (8) >= 8/2 — pack.
        let mut f = FillUnit::new(PackingPolicy::CostRegulated, None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 8, false);
        feed_block(&mut f, &mut pc, 12, false);
        assert_eq!(f.pop_segment().unwrap().len(), 16);
    }

    #[test]
    fn cost_regulation_packs_tight_loops() {
        // A pending segment with a short backward branch packs even when
        // the unused-space test fails.
        let mut f = FillUnit::new(PackingPolicy::CostRegulated, None);
        // Build a 12-inst pending block ending with a backward branch.
        for i in 0..12u32 {
            let is_last = i == 11;
            let instr = if is_last {
                Instr::Branch {
                    cond: Cond::Ne,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                    target: Addr::new(0),
                }
            } else {
                Instr::Nop
            };
            f.retire(&ExecRecord {
                pc: Addr::new(i),
                instr,
                next_pc: Addr::new(if is_last { 0 } else { i + 1 }),
                taken: is_last,
                mem_addr: None,
            });
        }
        // 4 slots left; next block of 12 : unused (4) < 12/2 = 6, but the
        // backward branch (disp 11) triggers packing.
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 12, false);
        assert_eq!(f.pop_segment().unwrap().len(), 16);
        assert_eq!(f.stats().blocks_split, 1);
    }

    #[test]
    fn returns_finalize_segments() {
        let mut f = FillUnit::new(PackingPolicy::Atomic, None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 3, false);
        feed_ret(&mut f, &mut pc);
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.len(), 4);
        assert_eq!(seg.end_reason(), SegEndReason::RetIndTrap);
        assert!(seg.ends_indirect());
    }

    /// Retires one iteration of a 2-instruction loop: `nop @0; br @1
    /// taken -> 0` — a contiguous retire stream when repeated.
    fn feed_loop_iteration(fill: &mut FillUnit) {
        fill.retire(&ExecRecord {
            pc: Addr::new(0),
            instr: Instr::Nop,
            next_pc: Addr::new(1),
            taken: false,
            mem_addr: None,
        });
        fill.retire(&ExecRecord {
            pc: Addr::new(1),
            instr: Instr::Branch {
                cond: Cond::Ne,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: Addr::new(0),
            },
            next_pc: Addr::new(0),
            taken: true,
            mem_addr: None,
        });
    }

    #[test]
    fn promotion_embeds_static_branches_and_lifts_branch_limit() {
        let bias = BiasTable::new(BiasConfig {
            entries: 64,
            threshold: 4,
            counter_bits: 8,
            tagged: true,
        });
        let mut f = FillUnit::new(PackingPolicy::Atomic, Some(bias));
        // Warm the bias table on the loop's back-edge branch.
        for _ in 0..8 {
            feed_loop_iteration(&mut f);
        }
        while f.pop_segment().is_some() {}
        // The branch is now promoted: iterations merge into one
        // execution atomic unit — the loop unrolls into the segment.
        for _ in 0..8 {
            feed_loop_iteration(&mut f);
        }
        let seg = f
            .pop_segment()
            .expect("promoted loop packs into one segment");
        assert_eq!(seg.len(), 16);
        assert_eq!(seg.dynamic_branch_count(), 0);
        assert_eq!(seg.promoted_count(), 8);
        assert_eq!(seg.end_reason(), SegEndReason::MaxSize);
        // The embedded path alternates 0, 1, 0, 1, ...
        assert_eq!(seg.insts()[1].embedded_next(), Addr::new(0));
    }

    #[test]
    fn blocks_over_sixteen_are_force_split() {
        let mut f = FillUnit::new(PackingPolicy::Atomic, None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 20, false);
        let seg = f.pop_segment().expect("forced split at 16");
        assert_eq!(seg.len(), 16);
        assert_eq!(seg.end_reason(), SegEndReason::MaxSize);
    }

    #[test]
    fn stats_track_averages() {
        let mut f = FillUnit::new(PackingPolicy::Atomic, None);
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 8, false);
        feed_block(&mut f, &mut pc, 8, false);
        feed_ret(&mut f, &mut pc);
        assert!(f.stats().segments >= 1);
        assert!(f.stats().avg_segment_len() > 0.0);
    }
}

#[cfg(test)]
mod static_promotion_tests {
    use super::*;
    use crate::promote::StaticPromotionTable;
    use tc_isa::{Addr, Cond, Instr, Reg};

    #[test]
    fn static_table_promotes_without_warmup() {
        let mut table = StaticPromotionTable::new();
        table.insert(Addr::new(1), true);
        let mut f = FillUnit::new_static(PackingPolicy::Atomic, table);
        assert!(f.promotes());
        assert!(f.bias_table().is_none());
        // First-ever retirement of the loop: already promoted.
        for _ in 0..8 {
            f.retire(&ExecRecord {
                pc: Addr::new(0),
                instr: Instr::Nop,
                next_pc: Addr::new(1),
                taken: false,
                mem_addr: None,
            });
            f.retire(&ExecRecord {
                pc: Addr::new(1),
                instr: Instr::Branch {
                    cond: Cond::Ne,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                    target: Addr::new(0),
                },
                next_pc: Addr::new(0),
                taken: true,
                mem_addr: None,
            });
        }
        let seg = f.pop_segment().expect("packed without any warm-up");
        assert_eq!(seg.len(), 16);
        assert_eq!(seg.promoted_count(), 8);
    }

    #[test]
    fn contradicting_instance_is_not_promoted() {
        let mut table = StaticPromotionTable::new();
        table.insert(Addr::new(0), true);
        let mut f = FillUnit::new_static(PackingPolicy::Atomic, table);
        // The instance goes the other way: built as a normal branch.
        f.retire(&ExecRecord {
            pc: Addr::new(0),
            instr: Instr::Branch {
                cond: Cond::Ne,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: Addr::new(5),
            },
            next_pc: Addr::new(1),
            taken: false,
            mem_addr: None,
        });
        f.retire(&ExecRecord {
            pc: Addr::new(1),
            instr: Instr::Ret,
            next_pc: Addr::new(9),
            taken: false,
            mem_addr: None,
        });
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.promoted_count(), 0);
        assert_eq!(seg.dynamic_branch_count(), 1);
    }
}
