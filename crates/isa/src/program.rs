//! Static programs: instruction storage and addresses.

use std::fmt;

use crate::instr::Instr;

/// An instruction address, expressed as an instruction *index*.
///
/// Instructions are fixed 4-byte words; the byte address used by the cache
/// models is `4 * index` (see [`Addr::byte_addr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// Bytes per instruction.
    pub const INSTR_BYTES: u64 = 4;

    /// Creates an address from an instruction index.
    #[must_use]
    pub fn new(index: u32) -> Addr {
        Addr(index)
    }

    /// The instruction index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw index as `u32`.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The byte address of this instruction (`4 * index`), as used by the
    /// instruction cache models.
    #[must_use]
    pub fn byte_addr(self) -> u64 {
        u64::from(self.0) * Addr::INSTR_BYTES
    }

    /// The address `count` instructions after this one.
    #[must_use]
    pub fn offset(self, count: u32) -> Addr {
        Addr(self.0.wrapping_add(count))
    }

    /// The address of the next instruction.
    #[must_use]
    pub fn next(self) -> Addr {
        self.offset(1)
    }

    /// Signed distance in instructions from `other` to `self`.
    #[must_use]
    pub fn distance_from(self, other: Addr) -> i64 {
        i64::from(self.0) - i64::from(other.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:#x}", self.byte_addr())
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> u64 {
        u64::from(a.0)
    }
}

/// Errors detected while validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program contains no instructions.
    Empty,
    /// A direct control transfer targets an address outside the program.
    TargetOutOfRange {
        /// Address of the offending instruction.
        at: Addr,
        /// The out-of-range target.
        target: Addr,
    },
    /// The entry point is outside the program.
    EntryOutOfRange {
        /// The bad entry address.
        entry: Addr,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program contains no instructions"),
            ProgramError::TargetOutOfRange { at, target } => {
                write!(
                    f,
                    "instruction at {at} targets out-of-range address {target}"
                )
            }
            ProgramError::EntryOutOfRange { entry } => {
                write!(f, "entry point {entry} is out of range")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// An immutable, validated static program.
///
/// Construct programs with [`crate::ProgramBuilder`]; `Program::new`
/// validates that every direct branch/jump/call target and the entry point
/// fall inside the instruction array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
    entry: Addr,
    /// Code addresses whose value escapes into a register (`la`): the
    /// possible targets of indirect jumps and calls.
    address_taken: Vec<Addr>,
}

impl Program {
    /// Creates a program from raw instructions, validating all direct
    /// targets and the entry point. The program carries no address-taken
    /// metadata; use [`Program::with_address_taken`] to record the
    /// possible targets of indirect control transfers.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if the program is empty, the entry point is
    /// out of range, or any direct control-transfer target is out of range.
    pub fn new(instrs: Vec<Instr>, entry: Addr) -> Result<Program, ProgramError> {
        Program::with_address_taken(instrs, entry, vec![])
    }

    /// Creates a program that additionally records which code addresses
    /// have been taken as values (loaded into registers by `la`). Static
    /// analysis uses these as the possible targets of indirect jumps and
    /// calls. The list is sorted, deduplicated, and validated in range.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] under the same conditions as
    /// [`Program::new`], plus [`ProgramError::TargetOutOfRange`] (with
    /// `at` equal to the offending address) for any out-of-range
    /// address-taken entry.
    pub fn with_address_taken(
        instrs: Vec<Instr>,
        entry: Addr,
        mut address_taken: Vec<Addr>,
    ) -> Result<Program, ProgramError> {
        if instrs.is_empty() {
            return Err(ProgramError::Empty);
        }
        if entry.index() >= instrs.len() {
            return Err(ProgramError::EntryOutOfRange { entry });
        }
        for (i, instr) in instrs.iter().enumerate() {
            if let Some(target) = instr.direct_target() {
                if target.index() >= instrs.len() {
                    return Err(ProgramError::TargetOutOfRange {
                        at: Addr::new(i as u32),
                        target,
                    });
                }
            }
        }
        address_taken.sort_unstable();
        address_taken.dedup();
        for &addr in &address_taken {
            if addr.index() >= instrs.len() {
                return Err(ProgramError::TargetOutOfRange {
                    at: addr,
                    target: addr,
                });
            }
        }
        Ok(Program {
            instrs,
            entry,
            address_taken,
        })
    }

    /// The program's entry point.
    #[must_use]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions (never true for a validated
    /// program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `addr`, or `None` if out of range.
    #[must_use]
    pub fn fetch(&self, addr: Addr) -> Option<Instr> {
        self.instrs.get(addr.index()).copied()
    }

    /// All instructions, in address order.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Code addresses taken as values (sorted, deduplicated): the set of
    /// possible targets of indirect jumps and calls. Empty when the
    /// program was built without address-taken metadata.
    #[must_use]
    pub fn address_taken(&self) -> &[Addr] {
        &self.address_taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Cond;
    use crate::reg::Reg;

    #[test]
    fn addr_arithmetic() {
        let a = Addr::new(10);
        assert_eq!(a.byte_addr(), 40);
        assert_eq!(a.next().index(), 11);
        assert_eq!(a.offset(5).index(), 15);
        assert_eq!(a.distance_from(Addr::new(12)), -2);
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(Program::new(vec![], Addr::new(0)), Err(ProgramError::Empty));
    }

    #[test]
    fn out_of_range_entry_rejected() {
        let err = Program::new(vec![Instr::Halt], Addr::new(3)).unwrap_err();
        assert!(matches!(err, ProgramError::EntryOutOfRange { .. }));
    }

    #[test]
    fn out_of_range_target_rejected() {
        let instrs = vec![
            Instr::Branch {
                cond: Cond::Eq,
                rs1: Reg::T0,
                rs2: Reg::T0,
                target: Addr::new(9),
            },
            Instr::Halt,
        ];
        let err = Program::new(instrs, Addr::new(0)).unwrap_err();
        assert!(matches!(err, ProgramError::TargetOutOfRange { .. }));
    }

    #[test]
    fn fetch_returns_instruction_or_none() {
        let p = Program::new(vec![Instr::Nop, Instr::Halt], Addr::new(0)).unwrap();
        assert_eq!(p.fetch(Addr::new(0)), Some(Instr::Nop));
        assert_eq!(p.fetch(Addr::new(1)), Some(Instr::Halt));
        assert_eq!(p.fetch(Addr::new(2)), None);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ProgramError::TargetOutOfRange {
            at: Addr::new(1),
            target: Addr::new(7),
        };
        let s = e.to_string();
        assert!(s.contains("out-of-range"));
    }
}
