//! Typed diagnostics: severity, rule identity, location, message.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not unsound: the image still runs correctly on its
    /// machine (e.g. an unreachable block wastes I-cache space).
    Warning,
    /// The image violates a hard invariant of the machine or of the
    /// program format; simulating it is meaningless or undefined.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The catalog of checks the analyzer performs. Each rule has a stable
/// kebab-case name used in text and JSON renderings (and in CI gates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    // -- structure / CFG ------------------------------------------------
    /// The program has no blocks at all.
    NoBlocks,
    /// The entry block id names no block.
    EntryOutOfRange,
    /// A block carries no instructions (the pipeline pads with a nop).
    EmptyBlock,
    /// A block's address table disagrees in length with its instructions.
    LayoutMismatch,
    /// Instruction addresses are not the contiguous layout re-derived from
    /// the encoding rules.
    AddressGap,
    /// A jump/branch terminator targets a nonexistent block.
    BadTarget,
    /// The last block falls through (or branches not-taken) off the end.
    FallsOffEnd,
    /// A branch-terminated block lacks the branch operation in its last
    /// instruction (on machines with branch units).
    MissingBranchOp,
    /// A branch operation appears where none belongs (fall-through block,
    /// non-final instruction, or a machine without branch units).
    SpuriousBranchOp,
    /// The branch operation disagrees with the block terminator (opcode
    /// kind, target block or taken probability).
    BranchMismatch,
    // -- bundle legality ------------------------------------------------
    /// An operation names a cluster the machine does not have.
    BadCluster,
    /// An operation's slot index is outside the cluster issue width.
    BadSlot,
    /// Two operations occupy the same (cluster, slot).
    DuplicateSlot,
    /// An operation sits on a slot its class cannot execute on.
    ClassSlotMismatch,
    /// More operations of one class on a cluster than it has units.
    ClassOverCapacity,
    /// An operand register lives in a different cluster's file than the
    /// executing cluster (copies excepted for their destination).
    CrossClusterOperand,
    /// A register index beyond the cluster register file.
    BadRegister,
    /// Annotation/opcode mismatch: memory op without stream info, branch
    /// op without branch info, info on the wrong class, store flag or
    /// destination presence disagreeing with the opcode, probability out
    /// of range.
    BadAnnotation,
    /// The instruction's precomputed merge signature disagrees with its
    /// operations (the merge hardware trusts signatures blindly).
    BadSignature,
    // -- dataflow -------------------------------------------------------
    /// A register may be read before any write on some path from entry,
    /// and is not a declared live-in.
    UndefinedRead,
    /// An operation's result completes after its block's last cycle
    /// (the schedule's trailing-latency rule).
    OpOutlivesBlock,
    /// A block no path from entry reaches.
    UnreachableBlock,
    // -- streams --------------------------------------------------------
    /// A memory operation names a stream id outside the program's declared
    /// stream count or the image's stream table.
    BadStream,
    /// The program declares more streams than the image's table provides.
    StreamTableMismatch,
}

impl Rule {
    /// Stable kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoBlocks => "no-blocks",
            Rule::EntryOutOfRange => "entry-out-of-range",
            Rule::EmptyBlock => "empty-block",
            Rule::LayoutMismatch => "layout-mismatch",
            Rule::AddressGap => "address-gap",
            Rule::BadTarget => "bad-target",
            Rule::FallsOffEnd => "falls-off-end",
            Rule::MissingBranchOp => "missing-branch-op",
            Rule::SpuriousBranchOp => "spurious-branch-op",
            Rule::BranchMismatch => "branch-mismatch",
            Rule::BadCluster => "bad-cluster",
            Rule::BadSlot => "bad-slot",
            Rule::DuplicateSlot => "duplicate-slot",
            Rule::ClassSlotMismatch => "class-slot-mismatch",
            Rule::ClassOverCapacity => "class-over-capacity",
            Rule::CrossClusterOperand => "cross-cluster-operand",
            Rule::BadRegister => "bad-register",
            Rule::BadAnnotation => "bad-annotation",
            Rule::BadSignature => "bad-signature",
            Rule::UndefinedRead => "undefined-read",
            Rule::OpOutlivesBlock => "op-outlives-block",
            Rule::UnreachableBlock => "unreachable-block",
            Rule::BadStream => "bad-stream",
            Rule::StreamTableMismatch => "stream-table-mismatch",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the program a finding anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Location {
    /// Block id, if the finding is block-scoped.
    pub block: Option<u32>,
    /// Instruction index within the block, if instruction-scoped.
    pub instr: Option<u32>,
}

impl Location {
    /// A program-scoped location (no block).
    pub fn program() -> Self {
        Location::default()
    }

    /// A block-scoped location.
    pub fn block(block: u32) -> Self {
        Location {
            block: Some(block),
            instr: None,
        }
    }

    /// An instruction-scoped location.
    pub fn instr(block: u32, instr: usize) -> Self {
        Location {
            block: Some(block),
            instr: Some(instr as u32),
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.block, self.instr) {
            (Some(b), Some(i)) => write!(f, "block {b} instr {i}"),
            (Some(b), None) => write!(f, "block {b}"),
            _ => write!(f, "program"),
        }
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which check fired.
    pub rule: Rule,
    /// Where it anchors.
    pub location: Location,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// Build an error diagnostic.
    pub fn error(rule: Rule, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            rule,
            location,
            message: message.into(),
        }
    }

    /// Build a warning diagnostic.
    pub fn warning(rule: Rule, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            rule,
            location,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.location, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_stable() {
        let d = Diagnostic::error(Rule::BadSlot, Location::instr(2, 0), "slot 9 out of range");
        assert_eq!(
            d.to_string(),
            "error[bad-slot] block 2 instr 0: slot 9 out of range"
        );
        let w = Diagnostic::warning(Rule::UnreachableBlock, Location::block(3), "no path");
        assert_eq!(w.to_string(), "warning[unreachable-block] block 3: no path");
        let p = Diagnostic::error(Rule::NoBlocks, Location::program(), "empty");
        assert_eq!(p.to_string(), "error[no-blocks] program: empty");
    }

    #[test]
    fn severities_order() {
        assert!(Severity::Error > Severity::Warning);
    }
}
