//! Fast functional dispatch: predecoded straight-line blocks let the
//! machine fast-forward without materialising a per-step
//! [`crate::ExecRecord`].
//!
//! The timing simulator consumes the dynamic instruction stream one
//! [`crate::ExecRecord`] at a time, which is exactly right when every
//! instruction is being timed — and pure overhead when the simulator only
//! needs to *skip ahead* (fast-forward before a sampled measurement
//! window, or to build a checkpoint). [`BlockCache`] predecodes a program
//! into straight-line runs; [`Machine::fast_forward`] then executes whole
//! runs in a tight loop, committing the PC and retired count once per run
//! instead of once per instruction, and building no records.
//!
//! There is one ISA semantics: every instruction, stepped or
//! fast-forwarded, goes through the same `Machine::exec`. Batching is the
//! only difference, so after `fast_forward(p, &blocks, n)` the machine's
//! registers, memory, PC, retired count and halt flag are exactly what
//! `n` calls of [`Machine::step`] would have produced, including the
//! state at which an [`ExecError`] is raised.

use crate::instr::Instr;
use crate::interp::{ExecError, Machine};
use crate::program::{Addr, Program};

/// Whether `instr` ends a straight-line run: any instruction that can
/// redirect the PC away from `pc + 1`, plus `halt`. Traps and nops fall
/// through architecturally and stay inside a run.
fn ends_run(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Branch { .. }
            | Instr::Jump { .. }
            | Instr::Call { .. }
            | Instr::Ret
            | Instr::JumpInd { .. }
            | Instr::CallInd { .. }
            | Instr::Halt
    )
}

/// Predecoded straight-line run lengths for a [`Program`].
///
/// `run_len(i)` is the number of instructions in the straight-line run
/// starting at instruction `i`: everything up to and including the first
/// PC-redirecting instruction or `halt` (or the last instruction of the
/// program). Every instruction before the run's tail is guaranteed to
/// fall through to `pc + 1` *inside* the program, so the fast-forward
/// executor retires them without per-instruction next-PC checks.
///
/// Construction is `O(program len)` (a single reverse scan) and the table
/// is immutable, so one cache can be shared across any number of
/// fast-forward calls over the same program.
#[derive(Debug, Clone)]
pub struct BlockCache {
    run_len: Vec<u32>,
}

impl BlockCache {
    /// Predecodes `program` into straight-line runs.
    #[must_use]
    pub fn new(program: &Program) -> BlockCache {
        let instrs = program.instrs();
        let mut run_len = vec![1u32; instrs.len()];
        // Reverse scan: a run either stops here (control / halt / end of
        // program) or extends the run that starts at the next instruction.
        for i in (0..instrs.len()).rev() {
            if !ends_run(instrs[i]) && i + 1 < instrs.len() {
                run_len[i] = run_len[i + 1] + 1;
            }
        }
        BlockCache { run_len }
    }

    /// Straight-line run length starting at `addr` (`None` if out of
    /// range).
    #[must_use]
    pub fn run_len(&self, addr: Addr) -> Option<u32> {
        self.run_len.get(addr.index()).copied()
    }

    /// Number of static instructions covered (equals the program length).
    #[must_use]
    pub fn len(&self) -> usize {
        self.run_len.len()
    }

    /// Whether the cache covers no instructions (never true for a cache
    /// built from a validated program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run_len.is_empty()
    }
}

impl Machine {
    /// Executes up to `max_insts` instructions through the predecoded
    /// fast path, returning how many retired.
    ///
    /// Architecturally bit-identical to calling [`Machine::step`] in a
    /// loop: stops early on `halt` (the halt itself does not count, as in
    /// `step`), and faults leave the machine in exactly the state `step`
    /// would have left it (PC at the faulting instruction, prior
    /// instructions retired).
    ///
    /// `blocks` must have been built from this `program`; a cache from a
    /// different program produces unspecified (but still memory-safe)
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] under the same conditions as
    /// [`Machine::step`]: the PC leaving the program or an out-of-bounds
    /// data access. Inspect [`Machine::retired`] for progress made before
    /// the fault.
    pub fn fast_forward(
        &mut self,
        program: &Program,
        blocks: &BlockCache,
        max_insts: u64,
    ) -> Result<u64, ExecError> {
        let instrs = program.instrs();
        let mut executed: u64 = 0;
        while executed < max_insts && !self.is_halted() {
            let pc = self.pc();
            let Some(run) = blocks.run_len(pc) else {
                return Err(ExecError::PcOutOfRange { pc });
            };
            // The budget may expire inside the run. Every instruction
            // before the run's tail falls through inside the program, so
            // only the last one's next PC needs resolving.
            let n = u64::from(run).min(max_insts - executed);
            let mut next_pc = pc;
            for (k, &instr) in instrs[pc.index()..pc.index() + n as usize]
                .iter()
                .enumerate()
            {
                let at = pc.offset(k as u32);
                match self.exec(at, instr) {
                    Ok(Some(effect)) => next_pc = effect.next_pc,
                    // A fault, or a `halt`, which does not retire.
                    stop => {
                        self.commit(at, k as u64);
                        return stop.map(|_| executed + k as u64);
                    }
                }
            }
            if next_pc.index() >= program.len() {
                self.commit(pc.offset(n as u32 - 1), n - 1);
                return Err(ExecError::PcOutOfRange { pc: next_pc });
            }
            self.commit(next_pc, n);
            executed += n;
        }
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::instr::Cond;
    use crate::interp::StepOutcome;
    use crate::reg::Reg;

    /// A program exercising every run shape: loops, calls/returns,
    /// indirect jumps, memory traffic, traps.
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.new_label("top");
        let body = b.new_label("body");
        let func = b.new_label("func");
        let done = b.new_label("done");
        let fin = b.new_label("fin");
        let main = b.new_label("main");
        b.entry(main);
        b.bind(func).unwrap();
        b.add(Reg::A0, Reg::A0, Reg::A1).trap(1).ret();
        b.bind(main).unwrap();
        b.li(Reg::T0, 0).li(Reg::T1, 57).li(Reg::T2, 0);
        b.bind(top).unwrap();
        b.branch(Cond::Ge, Reg::T0, Reg::T1, done);
        b.bind(body).unwrap();
        b.add(Reg::A0, Reg::T2, Reg::ZERO)
            .add(Reg::A1, Reg::T0, Reg::ZERO)
            .call(func)
            .add(Reg::T2, Reg::A0, Reg::ZERO);
        b.store(Reg::T2, Reg::GP, 5)
            .load(Reg::T3, Reg::GP, 5)
            .addi(Reg::T0, Reg::T0, 1)
            .jump(top);
        b.bind(done).unwrap();
        b.la(Reg::T4, fin).jr(Reg::T4).nop();
        b.bind(fin).unwrap();
        b.halt();
        b.build().unwrap()
    }

    /// Drives `step` and `fast_forward` in lockstep with awkward chunk
    /// sizes and asserts bit-identical machine state at every boundary.
    #[test]
    fn fast_forward_matches_step_at_every_chunk_boundary() {
        let p = mixed_program();
        let blocks = BlockCache::new(&p);
        let mut slow = Machine::new(p.entry(), 64);
        let mut fast = Machine::new(p.entry(), 64);
        let mut chunk = 1u64;
        loop {
            let n = fast.fast_forward(&p, &blocks, chunk).unwrap();
            for _ in 0..n {
                match slow.step(&p).unwrap() {
                    StepOutcome::Executed(_) => {}
                    StepOutcome::Halted => panic!("slow halted before fast"),
                }
            }
            // Fast path may stop at a halt without retiring; let the slow
            // machine observe it too.
            if fast.is_halted() {
                assert!(matches!(slow.step(&p).unwrap(), StepOutcome::Halted));
            }
            assert_eq!(slow.pc(), fast.pc(), "pc diverged");
            assert_eq!(slow.retired(), fast.retired(), "retired diverged");
            assert_eq!(slow.is_halted(), fast.is_halted(), "halt diverged");
            for r in 0..Reg::COUNT {
                assert_eq!(
                    slow.reg(Reg::new(r as u8)),
                    fast.reg(Reg::new(r as u8)),
                    "register {r} diverged"
                );
            }
            for a in 0..64 {
                assert_eq!(slow.mem(a), fast.mem(a), "mem[{a}] diverged");
            }
            if fast.is_halted() {
                break;
            }
            chunk = (chunk * 3 + 1) % 17 + 1;
        }
        assert!(fast.retired() > 400, "program should run a while");
    }

    #[test]
    fn fast_forward_counts_exactly() {
        let p = mixed_program();
        let blocks = BlockCache::new(&p);
        let mut m = Machine::new(p.entry(), 64);
        assert_eq!(m.fast_forward(&p, &blocks, 100).unwrap(), 100);
        assert_eq!(m.retired(), 100);
        assert_eq!(m.fast_forward(&p, &blocks, 0).unwrap(), 0);
        assert_eq!(m.retired(), 100);
    }

    #[test]
    fn fast_forward_stops_at_halt_like_step() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 1).addi(Reg::T0, Reg::T0, 2).halt();
        let p = b.build().unwrap();
        let blocks = BlockCache::new(&p);
        let mut m = Machine::new(p.entry(), 64);
        assert_eq!(m.fast_forward(&p, &blocks, 1_000).unwrap(), 2);
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::T0), 3);
        // Further calls are no-ops, as with step.
        assert_eq!(m.fast_forward(&p, &blocks, 1_000).unwrap(), 0);
    }

    #[test]
    fn fault_state_matches_step_fault_state() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 1 << 20)
            .li(Reg::T1, 7)
            .load(Reg::T2, Reg::T0, 0)
            .halt();
        let p = b.build().unwrap();
        let blocks = BlockCache::new(&p);

        let mut slow = Machine::new(p.entry(), 64);
        let slow_err = loop {
            match slow.step(&p) {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        let mut fast = Machine::new(p.entry(), 64);
        let fast_err = fast.fast_forward(&p, &blocks, 1_000).unwrap_err();

        assert_eq!(slow_err, fast_err);
        assert_eq!(slow.pc(), fast.pc());
        assert_eq!(slow.retired(), fast.retired());
        assert_eq!(fast.retired(), 2);
    }

    /// The run's tail is an ordinary instruction whose fall-through
    /// leaves the program: both paths must raise the same
    /// `PcOutOfRange` from the same state, whatever the budget.
    #[test]
    fn falling_off_the_end_faults_like_step() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 5)
            .addi(Reg::T1, Reg::T0, 2)
            .store(Reg::T1, Reg::GP, 3)
            .add(Reg::T2, Reg::T0, Reg::T1);
        let p = b.build().unwrap();
        let blocks = BlockCache::new(&p);

        let mut slow = Machine::new(p.entry(), 64);
        let slow_err = loop {
            if let Err(e) = slow.step(&p) {
                break e;
            }
        };
        assert_eq!(slow_err, ExecError::PcOutOfRange { pc: Addr::new(4) });
        for budget in [1, 2, 3, 4, 1_000] {
            let mut fast = Machine::new(p.entry(), 64);
            let fast_err = loop {
                if let Err(e) = fast.fast_forward(&p, &blocks, budget) {
                    break e;
                }
            };
            assert_eq!(slow_err, fast_err, "budget {budget}");
            assert_eq!(slow.pc(), fast.pc(), "budget {budget}");
            assert_eq!(slow.retired(), fast.retired(), "budget {budget}");
            assert_eq!(slow.regs(), fast.regs(), "budget {budget}");
            assert_eq!(slow.memory(), fast.memory(), "budget {budget}");
        }
        assert_eq!(slow.pc(), Addr::new(3));
        assert_eq!(slow.retired(), 3);
        assert_eq!(slow.reg(Reg::T2), 12);
    }

    #[test]
    fn run_lengths_cover_enders_and_program_end() {
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.li(Reg::T0, 1).addi(Reg::T0, Reg::T0, 1).jump(t);
        b.bind(t).unwrap();
        b.trap(0).nop().halt();
        let p = b.build().unwrap();
        let blocks = BlockCache::new(&p);
        assert_eq!(blocks.len(), 6);
        assert_eq!(blocks.run_len(Addr::new(0)), Some(3)); // li, addi, jump
        assert_eq!(blocks.run_len(Addr::new(3)), Some(3)); // trap, nop, halt
        assert_eq!(blocks.run_len(Addr::new(5)), Some(1)); // halt alone
        assert_eq!(blocks.run_len(Addr::new(6)), None);
    }
}
