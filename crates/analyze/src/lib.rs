//! # vliw-analyze — independent static verification of compiled VLIW images
//!
//! The compiler pipeline verifies its own output only in debug builds
//! (`CompileOptions::verify`), and a checker embedded in the producer
//! shares the producer's blind spots anyway. This crate re-validates a
//! compiled [`Program`] (or a whole [`BenchmarkImage`]) from scratch,
//! trusting nothing but the ISA's documented contracts:
//!
//! * [`mod@cfg`] — CFG reconstruction from terminator descriptors; block and
//!   entry existence, contiguous address layout (re-derived from the
//!   encoding rules), target validity, terminator/branch-op agreement.
//! * [`bundles`] — bundle legality against the machine geometry with an
//!   *independently re-derived* slot plan; operand locality, register
//!   ranges, annotation consistency, merge-signature recomputation.
//! * [`dataflow`] — def-before-use on all CFG paths (seeded by the image's
//!   declared live-ins), trailing-latency containment and the
//!   unreachable-block lint.
//! * [`bounds`] — per-block static lower bounds on schedule length and the
//!   program's IPC ceiling, so dynamic measurements can be cross-checked
//!   against static theorems.
//!
//! Findings are typed [`Diagnostic`]s with byte-stable text and JSON
//! renderings; the `paper --lint` frontend audits every Table-1 benchmark
//! on every geometry preset and CI gates on Error-severity findings.

#![deny(missing_docs)]

pub mod bounds;
pub mod bundles;
pub mod cfg;
pub mod dataflow;
pub mod diag;

pub use bounds::{compute_bounds, BlockBounds, ProgramBounds};
pub use cfg::{build_cfg, check_structure, Cfg};
pub use diag::{Diagnostic, Location, Rule, Severity};

use vliw_compiler::Program;
use vliw_isa::MachineConfig;
use vliw_workloads::BenchmarkImage;

/// The result of analyzing one program on one machine.
#[derive(Debug, Clone)]
pub struct Report {
    /// Name of the analyzed program.
    pub program: String,
    /// All findings, sorted by location then rule (deterministic).
    pub diagnostics: Vec<Diagnostic>,
    /// Static performance bounds (empty block list when the program was
    /// too malformed to index into).
    pub bounds: ProgramBounds,
}

impl Report {
    /// Number of Error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of Warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True when the analyzer found nothing at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render as stable, line-oriented text: a summary line, then one line
    /// per finding.
    pub fn render_text(&self) -> String {
        let mut out = if self.is_clean() {
            format!("{}: clean\n", self.program)
        } else {
            format!(
                "{}: {} error(s), {} warning(s)\n",
                self.program,
                self.errors(),
                self.warnings()
            )
        };
        for d in &self.diagnostics {
            out.push_str("  ");
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// Render as a single JSON object (stable key order, `{:.4}` floats,
    /// hand-escaped strings — no serialization dependency).
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"program\":\"");
        out.push_str(&json_escape(&self.program));
        out.push_str("\",\"errors\":");
        out.push_str(&self.errors().to_string());
        out.push_str(",\"warnings\":");
        out.push_str(&self.warnings().to_string());
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"severity\":\"");
            out.push_str(&d.severity.to_string());
            out.push_str("\",\"rule\":\"");
            out.push_str(d.rule.name());
            out.push_str("\",\"block\":");
            match d.location.block {
                Some(b) => out.push_str(&b.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"instr\":");
            match d.location.instr {
                Some(i) => out.push_str(&i.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"message\":\"");
            out.push_str(&json_escape(&d.message));
            out.push_str("\"}");
        }
        out.push_str("],\"bounds\":{\"total_issue\":");
        out.push_str(&self.bounds.total_issue.to_string());
        out.push_str(",\"ipc_ceiling\":");
        out.push_str(&format!("{:.4}", self.bounds.ipc_ceiling()));
        out.push_str(",\"blocks\":[");
        for (i, b) in self.bounds.blocks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"block\":{},\"n_instrs\":{},\"n_ops\":{},\"min_cycles\":{},\"density\":{:.4}}}",
                b.block,
                b.n_instrs,
                b.n_ops,
                b.min_cycles,
                b.density()
            ));
        }
        out.push_str("]}}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Memory-stream validity: every stream id a memory op carries must exist
/// in the program's declared count and (when known) the image's table.
fn check_streams(program: &Program, stream_table: Option<usize>, diags: &mut Vec<Diagnostic>) {
    if let Some(len) = stream_table {
        if program.n_streams as usize > len {
            diags.push(Diagnostic::error(
                Rule::StreamTableMismatch,
                Location::program(),
                format!(
                    "program declares {} streams, image table has {len}",
                    program.n_streams
                ),
            ));
        }
    }
    for (bid, b) in program.blocks.iter().enumerate() {
        for (i, instr) in b.instrs.iter().enumerate() {
            for op in instr.ops() {
                let Some(mem) = op.mem else { continue };
                let s = mem.stream as usize;
                if s >= program.n_streams as usize {
                    diags.push(Diagnostic::error(
                        Rule::BadStream,
                        Location::instr(bid as u32, i),
                        format!(
                            "{} names stream {s}, program declares {}",
                            op.opcode, program.n_streams
                        ),
                    ));
                } else if stream_table.is_some_and(|len| s >= len) {
                    diags.push(Diagnostic::error(
                        Rule::BadStream,
                        Location::instr(bid as u32, i),
                        format!(
                            "{} names stream {s}, beyond the {}-entry image table",
                            op.opcode,
                            stream_table.unwrap_or(0)
                        ),
                    ));
                }
            }
        }
    }
}

/// Analyze `program` as compiled for `machine`.
///
/// `stream_table` is the length of the image's stream table when one is
/// available (pass `None` for a bare program). Deeper passes are skipped
/// when the structural pass finds the program unindexable (no blocks or
/// entry out of range).
pub fn analyze_program(
    machine: &MachineConfig,
    program: &Program,
    stream_table: Option<usize>,
) -> Report {
    let mut diags = Vec::new();
    let indexable = cfg::check_structure(machine, program, &mut diags);
    let bounds = if indexable {
        bundles::check_bundles(machine, program, &mut diags);
        let graph = cfg::build_cfg(program);
        dataflow::check_dataflow(machine, program, &graph, &mut diags);
        check_streams(program, stream_table, &mut diags);
        bounds::compute_bounds(machine, program)
    } else {
        ProgramBounds {
            blocks: Vec::new(),
            total_issue: machine.total_issue(),
        }
    };
    diags.sort_by(|a, b| (a.location, a.rule, &a.message).cmp(&(b.location, b.rule, &b.message)));
    Report {
        program: program.name.clone(),
        diagnostics: diags,
        bounds,
    }
}

/// Analyze a full benchmark image against the machine it names.
pub fn analyze_image(image: &BenchmarkImage) -> Report {
    analyze_program(&image.machine, &image.program, Some(image.streams.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_image_is_clean() {
        let m = MachineConfig::paper_baseline();
        let img = vliw_workloads::build_named("idct", &m).unwrap();
        let r = analyze_image(&img);
        assert!(r.is_clean(), "{}", r.render_text());
        assert!(r.bounds.ipc_ceiling() > 0.0);
        assert_eq!(r.bounds.blocks.len(), img.program.blocks.len());
    }

    #[test]
    fn bad_stream_detected() {
        let m = MachineConfig::paper_baseline();
        let mut img = vliw_workloads::build_named("idct", &m).unwrap();
        'outer: for b in &mut img.program.blocks {
            for instr in &mut b.instrs {
                let mut ops = instr.ops().to_vec();
                let mut hit = false;
                for op in &mut ops {
                    if let Some(mem) = &mut op.mem {
                        mem.stream = 500;
                        hit = true;
                        break;
                    }
                }
                if hit {
                    *instr = vliw_isa::VliwInstruction::from_ops_unchecked(ops);
                    break 'outer;
                }
            }
        }
        let r = analyze_image(&img);
        assert!(
            r.diagnostics.iter().any(|d| d.rule == Rule::BadStream),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn json_rendering_is_wellformed_and_stable() {
        let m = MachineConfig::paper_baseline();
        let img = vliw_workloads::build_named("cjpeg", &m).unwrap();
        let a = analyze_image(&img).render_json();
        let b = analyze_image(&img).render_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"program\":\"cjpeg\",\"errors\":0,\"warnings\":0,"));
        assert!(a.ends_with("]}}"));
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn malformed_program_short_circuits() {
        let p = Program::new("empty".into(), vec![], 0, 0, vec![]);
        let r = analyze_program(&MachineConfig::paper_baseline(), &p, None);
        assert_eq!(r.errors(), 1);
        assert!(r.diagnostics[0].rule == Rule::NoBlocks);
        assert!(r.bounds.blocks.is_empty());
    }
}
