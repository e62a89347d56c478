//! The merge-scheme algebra: trees of SMT/CSMT merge-control blocks.

use crate::MAX_PORTS;
use std::fmt;

/// Granularity of a merge-control block (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeKind {
    /// Operation-level merging (classic SMT): combined per-cluster,
    /// per-class operation counts must fit the machine.
    Smt,
    /// Cluster-level merging (CSMT): cluster usage must be disjoint.
    Csmt,
}

impl MergeKind {
    /// The paper's single-letter tag.
    pub const fn letter(self) -> char {
        match self {
            MergeKind::Smt => 'S',
            MergeKind::Csmt => 'C',
        }
    }
}

/// A node of a merging scheme.
///
/// Leaves are thread *ports* (priority positions — the mapping from ports to
/// hardware threads rotates each cycle, see [`crate::PriorityRotator`]).
/// Internal nodes are merge-control blocks combining their children
/// left-to-right: the leftmost child is the anchor, and each further child
/// joins the accumulated selection if the block's conflict check passes, or
/// is dropped for this cycle otherwise.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SchemeNode {
    /// A thread port (leaf).
    Port(u8),
    /// A merge-control block.
    Merge {
        /// Merge granularity of this block.
        kind: MergeKind,
        /// `true` for the parallel (subset-enumeration) implementation —
        /// functionally identical to serial cascading, cheaper in delay,
        /// more expensive in area. Only meaningful for CSMT blocks with
        /// three or more operands (the paper's `C3`/`C4` subscripts).
        parallel: bool,
        /// Operands, highest priority first.
        children: Vec<SchemeNode>,
    },
}

impl SchemeNode {
    /// Convenience: serial binary/n-ary merge block.
    pub fn merge(kind: MergeKind, children: Vec<SchemeNode>) -> Self {
        SchemeNode::Merge {
            kind,
            parallel: false,
            children,
        }
    }

    /// Convenience: parallel CSMT block over `children`.
    pub fn parallel_csmt(children: Vec<SchemeNode>) -> Self {
        SchemeNode::Merge {
            kind: MergeKind::Csmt,
            parallel: true,
            children,
        }
    }

    /// Ports referenced in this subtree, as a bitmask.
    pub fn port_mask(&self) -> u8 {
        match self {
            SchemeNode::Port(p) => 1 << p,
            SchemeNode::Merge { children, .. } => children.iter().fold(0, |m, c| m | c.port_mask()),
        }
    }

    /// Number of merge blocks of the given kind in the subtree.
    pub fn count_blocks(&self, kind: MergeKind) -> usize {
        match self {
            SchemeNode::Port(_) => 0,
            SchemeNode::Merge {
                kind: k, children, ..
            } => {
                usize::from(*k == kind)
                    + children.iter().map(|c| c.count_blocks(kind)).sum::<usize>()
            }
        }
    }

    /// Depth of the merge tree (ports have depth 0).
    pub fn depth(&self) -> usize {
        match self {
            SchemeNode::Port(_) => 0,
            SchemeNode::Merge { children, .. } => {
                1 + children.iter().map(|c| c.depth()).max().unwrap_or(0)
            }
        }
    }

    fn check(&self, seen: &mut u8) -> Result<(), SchemeError> {
        match self {
            SchemeNode::Port(p) => {
                if *p as usize >= MAX_PORTS {
                    return Err(SchemeError::PortOutOfRange(*p));
                }
                if *seen & (1 << p) != 0 {
                    return Err(SchemeError::DuplicatePort(*p));
                }
                *seen |= 1 << p;
                Ok(())
            }
            SchemeNode::Merge {
                children,
                parallel,
                kind,
                ..
            } => {
                if children.len() < 2 {
                    return Err(SchemeError::DegenerateMerge(children.len()));
                }
                if *parallel && *kind == MergeKind::Smt && children.len() > 2 {
                    // The paper rules this out: parallel subset enumeration
                    // for operation-level checks is prohibitively expensive.
                    return Err(SchemeError::ParallelSmt);
                }
                for c in children {
                    c.check(seen)?;
                }
                Ok(())
            }
        }
    }
}

/// Scheme construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeError {
    /// Port index ≥ [`MAX_PORTS`].
    PortOutOfRange(u8),
    /// The same port appears twice in the tree.
    DuplicatePort(u8),
    /// A merge block with fewer than two operands.
    DegenerateMerge(usize),
    /// Parallel SMT over more than 2 threads (paper §4.1 rules it out).
    ParallelSmt,
    /// Ports are not 0..n contiguous.
    NonContiguousPorts(u8),
    /// Unparseable scheme name.
    Parse(String),
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::PortOutOfRange(p) => write!(f, "port {p} out of range"),
            SchemeError::DuplicatePort(p) => write!(f, "port {p} used twice"),
            SchemeError::DegenerateMerge(n) => {
                write!(f, "merge block with {n} operand(s); need at least 2")
            }
            SchemeError::ParallelSmt => write!(
                f,
                "parallel SMT blocks over more than two threads are not \
                 implementable at reasonable cost (paper §4.1)"
            ),
            SchemeError::NonContiguousPorts(mask) => {
                write!(f, "ports must be 0..n contiguous, got mask {mask:#b}")
            }
            SchemeError::Parse(msg) => write!(f, "cannot parse scheme name: {msg}"),
        }
    }
}

impl std::error::Error for SchemeError {}

/// A validated merging scheme: a tree over contiguous ports `0..n_ports`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MergeScheme {
    root: SchemeNode,
    n_ports: u8,
    name: String,
}

impl MergeScheme {
    /// Validate and wrap a scheme tree. `name` is a display label (the
    /// paper's name for catalog schemes, arbitrary for custom ones).
    pub fn new(name: impl Into<String>, root: SchemeNode) -> Result<Self, SchemeError> {
        let mut seen = 0u8;
        root.check(&mut seen)?;
        if seen == 0 {
            return Err(SchemeError::DegenerateMerge(0));
        }
        let n_ports = (8 - seen.leading_zeros()) as u8;
        if seen != ((1u16 << n_ports) - 1) as u8 {
            return Err(SchemeError::NonContiguousPorts(seen));
        }
        Ok(MergeScheme {
            root,
            n_ports,
            name: name.into(),
        })
    }

    /// The degenerate single-thread "scheme" (no merging at all).
    pub fn single_thread() -> Self {
        MergeScheme {
            root: SchemeNode::Port(0),
            n_ports: 1,
            name: "ST".to_string(),
        }
    }

    /// Scheme tree root.
    pub fn root(&self) -> &SchemeNode {
        &self.root
    }

    /// Number of thread ports (hardware threads) the scheme merges.
    pub fn n_ports(&self) -> u8 {
        self.n_ports
    }

    /// Display name (`"2SC3"`, `"3SSS"`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of SMT merge-control blocks — the dominant cost driver
    /// (paper §4.2: "the number of transistors required by any scheme is
    /// dominated by the number of SMT merge control blocks").
    pub fn smt_blocks(&self) -> usize {
        self.root.count_blocks(MergeKind::Smt)
    }

    /// Number of CSMT merge-control blocks.
    pub fn csmt_blocks(&self) -> usize {
        self.root.count_blocks(MergeKind::Csmt)
    }

    /// Depth of the merge network (levels of cascade).
    pub fn levels(&self) -> usize {
        self.root.depth()
    }
}

impl fmt::Display for MergeScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MergeKind::{Csmt, Smt};

    fn p(i: u8) -> SchemeNode {
        SchemeNode::Port(i)
    }

    #[test]
    fn cascade_construction() {
        // 3SCC: ((P0 S P1) C P2) C P3
        let root = SchemeNode::merge(
            Csmt,
            vec![
                SchemeNode::merge(Csmt, vec![SchemeNode::merge(Smt, vec![p(0), p(1)]), p(2)]),
                p(3),
            ],
        );
        let s = MergeScheme::new("3SCC", root).unwrap();
        assert_eq!(s.n_ports(), 4);
        assert_eq!(s.smt_blocks(), 1);
        assert_eq!(s.csmt_blocks(), 2);
        assert_eq!(s.levels(), 3);
    }

    #[test]
    fn duplicate_port_rejected() {
        let root = SchemeNode::merge(Smt, vec![p(0), p(0)]);
        assert_eq!(
            MergeScheme::new("bad", root).unwrap_err(),
            SchemeError::DuplicatePort(0)
        );
    }

    #[test]
    fn non_contiguous_ports_rejected() {
        let root = SchemeNode::merge(Smt, vec![p(0), p(2)]);
        assert!(matches!(
            MergeScheme::new("bad", root),
            Err(SchemeError::NonContiguousPorts(_))
        ));
    }

    #[test]
    fn parallel_smt_rejected() {
        let root = SchemeNode::Merge {
            kind: Smt,
            parallel: true,
            children: vec![p(0), p(1), p(2)],
        };
        assert_eq!(
            MergeScheme::new("bad", root).unwrap_err(),
            SchemeError::ParallelSmt
        );
    }

    #[test]
    fn degenerate_merge_rejected() {
        let root = SchemeNode::merge(Csmt, vec![p(0)]);
        assert!(matches!(
            MergeScheme::new("bad", root),
            Err(SchemeError::DegenerateMerge(1))
        ));
    }

    #[test]
    fn single_thread_scheme() {
        let s = MergeScheme::single_thread();
        assert_eq!(s.n_ports(), 1);
        assert_eq!(s.smt_blocks(), 0);
        assert_eq!(s.levels(), 0);
    }

    #[test]
    fn block_counts_on_tree_schemes() {
        // 2SS: (P0 S P1) S (P2 S P3) -> 3 SMT blocks (paper: most expensive
        // together with 3SSS).
        let root = SchemeNode::merge(
            Smt,
            vec![
                SchemeNode::merge(Smt, vec![p(0), p(1)]),
                SchemeNode::merge(Smt, vec![p(2), p(3)]),
            ],
        );
        let s = MergeScheme::new("2SS", root).unwrap();
        assert_eq!(s.smt_blocks(), 3);
        assert_eq!(s.levels(), 2);
    }
}
