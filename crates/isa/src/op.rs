//! Opcode set and operation classes.
//!
//! The operation repertoire follows the VEX manual's integer subset: a rich
//! ALU group, a multiply group (VEX exposes 16x16 and 32x16 multiply forms
//! because the Lx/ST200 datapath builds 32x32 products out of them), a
//! load/store group and a branch group. The paper's machine executes ALU
//! operations on any issue slot while multiply, memory and branch operations
//! are tied to fixed slots (paper §2.2, footnote 1) — that asymmetry is what
//! makes operation-level (SMT) merging a routing problem, so the class split
//! here is load-bearing for the whole reproduction.

use std::fmt;

/// Functional-unit class of an operation.
///
/// The class determines which issue slots may execute the operation (see
/// [`crate::MachineConfig`]) and its latency. `Copy` operations (explicit
/// inter-cluster moves inserted by the cluster assigner) execute on ALUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum OpClass {
    /// Single-cycle integer ALU operation; may issue on any slot.
    Alu = 0,
    /// Multiply; restricted to the multiplier slots.
    Mul = 1,
    /// Load/store; restricted to the memory slot(s).
    Mem = 2,
    /// Control transfer; restricted to the branch slot.
    Branch = 3,
}

impl OpClass {
    /// All classes, in the packed-signature byte order.
    pub const ALL: [OpClass; 4] = [OpClass::Alu, OpClass::Mul, OpClass::Mem, OpClass::Branch];

    /// Stable index used by [`crate::ResourceVec`] byte packing.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase mnemonic tag used by the disassembler.
    pub const fn tag(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Mul => "mul",
            OpClass::Mem => "mem",
            OpClass::Branch => "br",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

macro_rules! opcodes {
    ($( $(#[$meta:meta])* $name:ident => ($class:ident, $mn:literal) ),+ $(,)?) => {
        /// VEX-flavoured operation opcode.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum Opcode {
            $( $(#[$meta])* $name, )+
        }

        impl Opcode {
            /// Every opcode in declaration order.
            pub const ALL: &'static [Opcode] = &[ $(Opcode::$name),+ ];

            /// Functional-unit class executing this opcode.
            #[inline]
            pub const fn class(self) -> OpClass {
                match self {
                    $( Opcode::$name => OpClass::$class, )+
                }
            }

            /// Assembly mnemonic.
            pub const fn mnemonic(self) -> &'static str {
                match self {
                    $( Opcode::$name => $mn, )+
                }
            }
        }
    };
}

opcodes! {
    // ---- ALU group (any slot, 1 cycle) -------------------------------
    /// Integer addition.
    Add => (Alu, "add"),
    /// Integer subtraction.
    Sub => (Alu, "sub"),
    /// Reverse subtraction (`imm - src`), a VEX staple.
    Rsub => (Alu, "rsub"),
    /// Bitwise AND.
    And => (Alu, "and"),
    /// Bitwise AND with complemented second source.
    Andc => (Alu, "andc"),
    /// Bitwise OR.
    Or => (Alu, "or"),
    /// Bitwise OR with complemented second source.
    Orc => (Alu, "orc"),
    /// Bitwise XOR.
    Xor => (Alu, "xor"),
    /// Shift left.
    Shl => (Alu, "shl"),
    /// Logical shift right.
    Shr => (Alu, "shr"),
    /// Arithmetic shift right.
    Shru => (Alu, "shru"),
    /// Shift-left-1 and add (address arithmetic idiom).
    Sh1add => (Alu, "sh1add"),
    /// Shift-left-2 and add.
    Sh2add => (Alu, "sh2add"),
    /// Shift-left-3 and add.
    Sh3add => (Alu, "sh3add"),
    /// Shift-left-4 and add.
    Sh4add => (Alu, "sh4add"),
    /// Signed minimum.
    Min => (Alu, "min"),
    /// Signed maximum.
    Max => (Alu, "max"),
    /// Unsigned minimum.
    Minu => (Alu, "minu"),
    /// Unsigned maximum.
    Maxu => (Alu, "maxu"),
    /// Register/immediate move.
    Mov => (Alu, "mov"),
    /// Compare equal (writes a 1-bit predicate register value).
    CmpEq => (Alu, "cmpeq"),
    /// Compare not-equal.
    CmpNe => (Alu, "cmpne"),
    /// Compare signed less-than.
    CmpLt => (Alu, "cmplt"),
    /// Compare signed less-or-equal.
    CmpLe => (Alu, "cmple"),
    /// Compare signed greater-than.
    CmpGt => (Alu, "cmpgt"),
    /// Compare signed greater-or-equal.
    CmpGe => (Alu, "cmpge"),
    /// Compare unsigned less-than.
    CmpLtu => (Alu, "cmpltu"),
    /// Compare unsigned greater-or-equal.
    CmpGeu => (Alu, "cmpgeu"),
    /// Conditional select `dst = p ? a : b` (VEX `slct`).
    Slct => (Alu, "slct"),
    /// Sign-extend byte.
    Sxtb => (Alu, "sxtb"),
    /// Sign-extend halfword.
    Sxth => (Alu, "sxth"),
    /// Zero-extend byte.
    Zxtb => (Alu, "zxtb"),
    /// Zero-extend halfword.
    Zxth => (Alu, "zxth"),
    /// Explicit inter-cluster copy inserted by the cluster assigner.
    Copy => (Alu, "copy"),

    // ---- Multiply group (multiplier slots, 2 cycles) ------------------
    /// 16x16 multiply, low halves.
    Mpyll => (Mul, "mpyll"),
    /// 16x16 multiply, low x high.
    Mpylh => (Mul, "mpylh"),
    /// 16x16 multiply, high halves.
    Mpyhh => (Mul, "mpyhh"),
    /// 32x16 multiply, low part.
    Mpyl => (Mul, "mpyl"),
    /// 32x16 multiply, high part.
    Mpyh => (Mul, "mpyh"),
    /// Full 32x32 multiply (pseudo-op the compiler expands or keeps whole).
    Mpy => (Mul, "mpy"),

    // ---- Memory group (load/store slot, 2 cycles) ----------------------
    /// Load word.
    Ldw => (Mem, "ldw"),
    /// Load halfword (signed).
    Ldh => (Mem, "ldh"),
    /// Load halfword (unsigned).
    Ldhu => (Mem, "ldhu"),
    /// Load byte (signed).
    Ldb => (Mem, "ldb"),
    /// Load byte (unsigned).
    Ldbu => (Mem, "ldbu"),
    /// Store word.
    Stw => (Mem, "stw"),
    /// Store halfword.
    Sth => (Mem, "sth"),
    /// Store byte.
    Stb => (Mem, "stb"),
    /// Software prefetch (touches the cache, no destination register).
    Pft => (Mem, "pft"),

    // ---- Branch group (branch slot, resolves next cycle) ---------------
    /// Conditional branch on predicate true.
    Br => (Branch, "br"),
    /// Conditional branch on predicate false.
    Brf => (Branch, "brf"),
    /// Unconditional jump.
    Goto => (Branch, "goto"),
    /// Call (modelled as an always-taken control transfer).
    Call => (Branch, "call"),
    /// Return (modelled as an always-taken control transfer).
    Return => (Branch, "return"),
}

impl Opcode {
    /// True for operations that read memory.
    #[inline]
    pub const fn is_load(self) -> bool {
        matches!(
            self,
            Opcode::Ldw | Opcode::Ldh | Opcode::Ldhu | Opcode::Ldb | Opcode::Ldbu
        )
    }

    /// True for operations that write memory.
    #[inline]
    pub const fn is_store(self) -> bool {
        matches!(self, Opcode::Stw | Opcode::Sth | Opcode::Stb)
    }

    /// True for control transfers that are *always* taken when executed.
    #[inline]
    pub const fn is_unconditional_branch(self) -> bool {
        matches!(self, Opcode::Goto | Opcode::Call | Opcode::Return)
    }

    /// True for conditional control transfers.
    #[inline]
    pub const fn is_conditional_branch(self) -> bool {
        matches!(self, Opcode::Br | Opcode::Brf)
    }

    /// Whether the opcode writes a destination register.
    pub const fn has_dest(self) -> bool {
        !matches!(
            self,
            Opcode::Stw
                | Opcode::Sth
                | Opcode::Stb
                | Opcode::Pft
                | Opcode::Br
                | Opcode::Brf
                | Opcode::Goto
                | Opcode::Call
                | Opcode::Return
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_partition_is_total() {
        for &op in Opcode::ALL {
            // Every opcode maps to exactly one class and a nonempty mnemonic.
            let _ = op.class();
            assert!(!op.mnemonic().is_empty());
        }
    }

    #[test]
    fn loads_and_stores_are_mem_class() {
        for &op in Opcode::ALL {
            if op.is_load() || op.is_store() {
                assert_eq!(op.class(), OpClass::Mem, "{op}");
            }
        }
    }

    #[test]
    fn branch_opcodes_are_branch_class() {
        for &op in Opcode::ALL {
            if op.is_conditional_branch() || op.is_unconditional_branch() {
                assert_eq!(op.class(), OpClass::Branch, "{op}");
            }
        }
    }

    #[test]
    fn stores_have_no_dest() {
        assert!(!Opcode::Stw.has_dest());
        assert!(!Opcode::Br.has_dest());
        assert!(Opcode::Add.has_dest());
        assert!(Opcode::Ldw.has_dest());
    }

    #[test]
    fn class_indices_are_stable() {
        assert_eq!(OpClass::Alu.index(), 0);
        assert_eq!(OpClass::Mul.index(), 1);
        assert_eq!(OpClass::Mem.index(), 2);
        assert_eq!(OpClass::Branch.index(), 3);
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(
                seen.insert(op.mnemonic()),
                "duplicate mnemonic {}",
                op.mnemonic()
            );
        }
    }
}
