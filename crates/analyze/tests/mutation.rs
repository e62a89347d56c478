//! Mutation harness: the analyzer must detect every injected defect.
//!
//! Five defect classes — a clobbered issue slot, an out-of-range branch
//! target, an undefined register read, a wrong-cluster operand, and an
//! invalid stream id — are injected into *real* compiled benchmark images
//! (random benchmark × geometry preset × injection site), and each case
//! asserts the corresponding rule fires with Error severity. Together with
//! the zero-diagnostics differential suite this pins both directions:
//! no false positives on shipped images, no false negatives on broken ones.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use vliw_analyze::{analyze_image, Rule, Severity};
use vliw_isa::{MachineSpec, Reg, VliwInstruction};
use vliw_workloads::BenchmarkImage;

type ImageMap = HashMap<(usize, usize), Arc<BenchmarkImage>>;

/// Compile (once) and clone a benchmark image for mutation.
fn image(bench: usize, preset: usize) -> BenchmarkImage {
    static CACHE: OnceLock<Mutex<ImageMap>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap();
    let entry = map.entry((bench, preset)).or_insert_with(|| {
        let spec = &vliw_workloads::all_benchmarks()[bench];
        let machine = MachineSpec::presets()[preset].config();
        Arc::new(vliw_workloads::build(spec, &machine).expect("shipped benchmarks compile"))
    });
    (**entry).clone()
}

/// Assert `rule` fires with Error severity on the mutated image.
fn assert_detected(img: &BenchmarkImage, rule: Rule, what: &str) {
    let report = analyze_image(img);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.severity == Severity::Error),
        "{what} on {} must raise {}, got:\n{}",
        img.spec.name,
        rule.name(),
        report.render_text()
    );
}

/// All (block, instr) sites in traversal order, rotated by `pick` so the
/// injection site varies across cases.
fn sites(img: &BenchmarkImage, pick: usize) -> Vec<(usize, usize)> {
    let mut s: Vec<(usize, usize)> = img
        .program
        .blocks
        .iter()
        .enumerate()
        .flat_map(|(b, blk)| (0..blk.instrs.len()).map(move |i| (b, i)))
        .collect();
    let n = s.len();
    if n > 0 {
        s.rotate_left(pick % n);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Defect class 1: clobbered slot — two operations on one (cluster, slot).
    #[test]
    fn detects_clobbered_slot(bench in 0usize..12, preset in 0usize..4, pick in 0usize..1000) {
        let mut img = image(bench, preset);
        let Some(&(b, i)) = sites(&img, pick)
            .iter()
            .find(|&&(b, i)| img.program.blocks[b].instrs[i].n_ops() > 0)
        else { continue };
        let mut ops = img.program.blocks[b].instrs[i].ops().to_vec();
        // Duplicating an op reuses its (cluster, slot) exactly.
        ops.push(ops[0]);
        img.program.blocks[b].instrs[i] = VliwInstruction::from_ops_unchecked(ops);
        assert_detected(&img, Rule::DuplicateSlot, "clobbered slot");
    }

    // Defect class 2: branch target outside the program's block table.
    #[test]
    fn detects_out_of_range_target(bench in 0usize..12, preset in 0usize..4, pick in 0usize..1000) {
        let mut img = image(bench, preset);
        let nb = img.program.blocks.len() as u32;
        let n_blocks = img.program.blocks.len();
        let Some(b) = (0..n_blocks)
            .map(|k| (k + pick) % n_blocks)
            .find(|&b| matches!(
                img.program.blocks[b].term,
                vliw_compiler::TermKind::Jump { .. } | vliw_compiler::TermKind::CondBranch { .. }
            ))
        else { continue };
        let bad = nb + 7;
        // Corrupt the terminator *and* its branch operation consistently, so
        // the target check itself (not a mere descriptor/op mismatch) fires.
        match &mut img.program.blocks[b].term {
            vliw_compiler::TermKind::Jump { target }
            | vliw_compiler::TermKind::CondBranch { taken: target, .. } => *target = bad,
            _ => unreachable!(),
        }
        if let Some(instr) = img.program.blocks[b].instrs.last() {
            let mut ops = instr.ops().to_vec();
            for op in &mut ops {
                if let Some(info) = &mut op.branch {
                    info.target = bad;
                }
            }
            let n = img.program.blocks[b].instrs.len();
            img.program.blocks[b].instrs[n - 1] = VliwInstruction::from_ops_unchecked(ops);
        }
        assert_detected(&img, Rule::BadTarget, "out-of-range target");
    }

    // Defect class 3: a read of a register no path has written.
    #[test]
    fn detects_undefined_read(bench in 0usize..12, preset in 0usize..4, pick in 0usize..1000) {
        let mut img = image(bench, preset);
        let machine = img.machine.clone();
        let entry = img.program.entry as usize;
        // Registers certainly covered at instruction i of the entry block:
        // declared live-ins plus destinations of strictly earlier cycles.
        // Anything outside that superset is provably flagged.
        let live: Vec<Reg> = img.program.live_ins.clone();
        let block = &img.program.blocks[entry];
        let mut found = None;
        'scan: for i in 0..block.instrs.len() {
            let Some(pos) = block.instrs[i].ops().iter().position(|o| o.srcs[0].is_some())
            else { continue };
            let cluster = block.instrs[i].ops()[pos].cluster;
            let mut covered = vec![false; machine.regs_per_cluster as usize];
            for r in live.iter().filter(|r| r.cluster == cluster) {
                covered[r.index as usize] = true;
            }
            for earlier in &block.instrs[..i] {
                for op in earlier.ops() {
                    if let Some(d) = op.dest {
                        if d.cluster == cluster {
                            covered[d.index as usize] = true;
                        }
                    }
                }
            }
            let start = pick % machine.regs_per_cluster as usize;
            for k in 0..machine.regs_per_cluster as usize {
                let idx = (start + k) % machine.regs_per_cluster as usize;
                if !covered[idx] {
                    found = Some((i, pos, Reg::new(cluster, idx as u16)));
                    break 'scan;
                }
            }
        }
        let Some((i, pos, reg)) = found else { continue };
        let mut ops = img.program.blocks[entry].instrs[i].ops().to_vec();
        ops[pos].srcs[0] = Some(reg);
        img.program.blocks[entry].instrs[i] = VliwInstruction::from_ops_unchecked(ops);
        assert_detected(&img, Rule::UndefinedRead, "undefined read");
    }

    // Defect class 4: an operand living in another cluster's register file.
    #[test]
    fn detects_wrong_cluster_operand(bench in 0usize..12, preset in 0usize..4, pick in 0usize..1000) {
        let mut img = image(bench, preset);
        let nc = img.machine.n_clusters;
        let Some((b, i, pos, src)) = sites(&img, pick).iter().find_map(|&(b, i)| {
            img.program.blocks[b].instrs[i]
                .ops()
                .iter()
                .position(|o| o.srcs[0].is_some())
                .map(|pos| (b, i, pos, img.program.blocks[b].instrs[i].ops()[pos].srcs[0].unwrap()))
        }) else { continue };
        let mut ops = img.program.blocks[b].instrs[i].ops().to_vec();
        ops[pos].srcs[0] = Some(Reg::new((src.cluster + 1) % nc, src.index));
        img.program.blocks[b].instrs[i] = VliwInstruction::from_ops_unchecked(ops);
        assert_detected(&img, Rule::CrossClusterOperand, "wrong-cluster operand");
    }

    // Defect class 5: a memory op naming a stream the image does not have.
    #[test]
    fn detects_bad_stream_id(bench in 0usize..12, preset in 0usize..4, pick in 0usize..1000) {
        let mut img = image(bench, preset);
        let Some((b, i, pos)) = sites(&img, pick).iter().find_map(|&(b, i)| {
            img.program.blocks[b].instrs[i]
                .ops()
                .iter()
                .position(|o| o.mem.is_some())
                .map(|pos| (b, i, pos))
        }) else { continue };
        let mut ops = img.program.blocks[b].instrs[i].ops().to_vec();
        ops[pos].mem.as_mut().unwrap().stream = 500;
        img.program.blocks[b].instrs[i] = VliwInstruction::from_ops_unchecked(ops);
        assert_detected(&img, Rule::BadStream, "bad stream id");
    }
}
