//! The schemes evaluated in the paper, plus generic constructors.
//!
//! Figure 8 of the paper enumerates every way of composing SMT and CSMT
//! blocks for 4 threads; Figure 9 prices them and Figure 10 measures them.
//! [`paper_schemes`] returns all sixteen in Figure 9's cost order, and
//! [`by_name`] resolves any paper name. The generic constructors
//! ([`smt_cascade`], [`csmt_serial`], [`csmt_parallel`], [`cascade`],
//! [`balanced_tree`]) extend the design space to arbitrary thread counts —
//! the natural extension the paper leaves open ("for space reasons, we limit
//! our evaluations in this paper to a 4-Thread architecture only").

use crate::scheme::{MergeKind, MergeScheme, SchemeNode};

use MergeKind::{Csmt, Smt};

fn port(i: u8) -> SchemeNode {
    SchemeNode::Port(i)
}

/// Serial cascade over `kinds.len() + 1` ports: the first block merges
/// ports 0 and 1 with `kinds[0]`, each further block merges the accumulated
/// packet with the next port.
///
/// `cascade(&[Smt, Csmt, Csmt])` is the paper's `3SCC`.
pub fn cascade(name: &str, kinds: &[MergeKind]) -> MergeScheme {
    assert!(!kinds.is_empty(), "cascade needs at least one block");
    let mut node = SchemeNode::merge(kinds[0], vec![port(0), port(1)]);
    for (i, &k) in kinds.iter().enumerate().skip(1) {
        node = SchemeNode::merge(k, vec![node, port(i as u8 + 1)]);
    }
    MergeScheme::new(name, node).expect("cascade schemes are well-formed")
}

/// Pure-SMT serial cascade over `n` ports (`1S` for n=2, `3SSS` for n=4).
pub fn smt_cascade(n: u8) -> MergeScheme {
    assert!(n >= 2);
    let name = match n {
        2 => "1S".to_string(),
        4 => "3SSS".to_string(),
        _ => format!("{}S*", n - 1),
    };
    cascade(&name, &vec![Smt; n as usize - 1])
}

/// Pure-CSMT serial cascade over `n` ports (`3CCC` for n=4).
pub fn csmt_serial(n: u8) -> MergeScheme {
    assert!(n >= 2);
    let name = match n {
        2 => "1C".to_string(),
        4 => "3CCC".to_string(),
        _ => format!("{}C*", n - 1),
    };
    cascade(&name, &vec![Csmt; n as usize - 1])
}

/// Single parallel CSMT block over `n` ports (the paper's `C4` for n=4).
pub fn csmt_parallel(n: u8) -> MergeScheme {
    assert!(n >= 2);
    let children = (0..n).map(port).collect();
    MergeScheme::new(format!("C{n}"), SchemeNode::parallel_csmt(children))
        .expect("parallel CSMT schemes are well-formed")
}

/// The paper's `2SC3`: SMT over (P0,P1); one parallel CSMT block merges the
/// result with P2 and P3.
pub fn scheme_2sc3() -> MergeScheme {
    let smt = SchemeNode::merge(Smt, vec![port(0), port(1)]);
    let root = SchemeNode::parallel_csmt(vec![smt, port(2), port(3)]);
    MergeScheme::new("2SC3", root).unwrap()
}

/// The paper's `2C3S`: parallel CSMT over (P0,P1,P2); SMT merges the result
/// with P3.
pub fn scheme_2c3s() -> MergeScheme {
    let c3 = SchemeNode::parallel_csmt(vec![port(0), port(1), port(2)]);
    let root = SchemeNode::merge(Smt, vec![c3, port(3)]);
    MergeScheme::new("2C3S", root).unwrap()
}

/// Balanced-tree scheme over 4 ports (paper figures 8(l)-8(o)): both pairs
/// merge with `pair_kind`, the two results merge with `top_kind`.
///
/// `tree4(Csmt, Smt)` is the paper's `2CS`.
pub fn tree4(name: &str, pair_kind: MergeKind, top_kind: MergeKind) -> MergeScheme {
    let left = SchemeNode::merge(pair_kind, vec![port(0), port(1)]);
    let right = SchemeNode::merge(pair_kind, vec![port(2), port(3)]);
    MergeScheme::new(name, SchemeNode::merge(top_kind, vec![left, right])).unwrap()
}

/// Balanced binary tree over `n` ports (n a power of two), all blocks of
/// kind `kind` — the 8-thread extension of `2CC`/`2SS`.
pub fn balanced_tree(kind: MergeKind, n: u8) -> MergeScheme {
    assert!(n.is_power_of_two() && n >= 2);
    fn build(kind: MergeKind, lo: u8, hi: u8) -> SchemeNode {
        if hi - lo == 1 {
            return port(lo);
        }
        let mid = lo + (hi - lo) / 2;
        SchemeNode::merge(kind, vec![build(kind, lo, mid), build(kind, mid, hi)])
    }
    let levels = n.trailing_zeros();
    let name = format!("tree{}{}", levels, kind.letter());
    MergeScheme::new(name, build(kind, 0, n)).unwrap()
}

/// All 4-thread schemes of the paper, in Figure 9's cost order, plus the
/// 2-thread SMT reference `1S`.
///
/// The list is: `C4, 3CCC, 2CC, 1S, 2SC3, 3CSC, 2C3S, 3CCS, 3SCC, 2CS,
/// 2SC, 3SSC, 3SCS, 3CSS, 2SS, 3SSS`.
pub fn paper_schemes() -> Vec<MergeScheme> {
    vec![
        csmt_parallel(4),         // C4
        csmt_serial(4),           // 3CCC
        tree4("2CC", Csmt, Csmt), // 2CC
        smt_cascade(2),           // 1S
        scheme_2sc3(),            // 2SC3
        cascade("3CSC", &[Csmt, Smt, Csmt]),
        scheme_2c3s(), // 2C3S
        cascade("3CCS", &[Csmt, Csmt, Smt]),
        cascade("3SCC", &[Smt, Csmt, Csmt]),
        tree4("2CS", Csmt, Smt), // 2CS
        tree4("2SC", Smt, Csmt), // 2SC
        cascade("3SSC", &[Smt, Smt, Csmt]),
        cascade("3SCS", &[Smt, Csmt, Smt]),
        cascade("3CSS", &[Csmt, Smt, Smt]),
        tree4("2SS", Smt, Smt), // 2SS
        smt_cascade(4),         // 3SSS
    ]
}

/// Resolve a scheme by its paper name (including `ST` and `1S`).
pub fn by_name(name: &str) -> Option<MergeScheme> {
    if name == "ST" {
        return Some(MergeScheme::single_thread());
    }
    if name == "1C" {
        return Some(csmt_serial(2));
    }
    paper_schemes().into_iter().find(|s| s.name() == name)
}

/// Names of every scheme in [`paper_schemes`], in the same order.
pub fn paper_scheme_names() -> Vec<&'static str> {
    vec![
        "C4", "3CCC", "2CC", "1S", "2SC3", "3CSC", "2C3S", "3CCS", "3SCC", "2CS", "2SC", "3SSC",
        "3SCS", "3CSS", "2SS", "3SSS",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_sixteen_schemes() {
        let all = paper_schemes();
        assert_eq!(all.len(), 16);
        // All 4-port except 1S.
        for s in &all {
            if s.name() == "1S" {
                assert_eq!(s.n_ports(), 2);
            } else {
                assert_eq!(s.n_ports(), 4, "{}", s.name());
            }
        }
    }

    #[test]
    fn names_match_catalog_order() {
        let schemes = paper_schemes();
        let names = paper_scheme_names();
        assert_eq!(schemes.len(), names.len());
        for (s, n) in schemes.iter().zip(names) {
            assert_eq!(s.name(), n);
        }
    }

    #[test]
    fn smt_block_counts_match_paper() {
        // Paper §4.2: 0 SMT blocks for C4/2CC/3CCC; 1 for 1S, 2SC3, 2C3S,
        // 3SCC, 3CSC, 3CCS, 2CS; 2 for 2SC, 3SSC, 3SCS, 3CSS; 3 for 2SS,
        // 3SSS.
        let expect = [
            ("C4", 0),
            ("3CCC", 0),
            ("2CC", 0),
            ("1S", 1),
            ("2SC3", 1),
            ("3CSC", 1),
            ("2C3S", 1),
            ("3CCS", 1),
            ("3SCC", 1),
            ("2CS", 1),
            ("2SC", 2),
            ("3SSC", 2),
            ("3SCS", 2),
            ("3CSS", 2),
            ("2SS", 3),
            ("3SSS", 3),
        ];
        for (name, blocks) in expect {
            let s = by_name(name).unwrap();
            assert_eq!(s.smt_blocks(), blocks, "{name}");
        }
    }

    #[test]
    fn by_name_resolves_all() {
        for name in paper_scheme_names() {
            assert!(by_name(name).is_some(), "{name}");
        }
        assert!(by_name("ST").is_some());
        assert!(by_name("1C").is_some());
        assert!(by_name("9ZZZ").is_none());
    }

    #[test]
    fn balanced_tree_extension() {
        let t = balanced_tree(MergeKind::Csmt, 8);
        assert_eq!(t.n_ports(), 8);
        assert_eq!(t.csmt_blocks(), 7);
        assert_eq!(t.levels(), 3);
    }
}
