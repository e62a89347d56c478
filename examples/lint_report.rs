//! Static lint report: run the independent `vliw-analyze` verifier over one
//! benchmark on three machine geometries and put its *static* performance
//! bounds next to *measured* simulator IPC.
//!
//! For `idct` on `paper-4x4`, `2x8` and `8x2` this prints the diagnostic
//! count (clean on every shipped image), a per-block table — scheduled
//! length vs the resource-theorem minimum, op density as the block's static
//! ILP bound — and the whole-program IPC ceiling bracketing the measured
//! single-thread IPC.
//!
//! ```text
//! cargo run --release --example lint_report
//! ```
//!
//! Paper exhibit: the §3 compilation model made auditable — bundle legality,
//! dataflow and per-block ILP bounds re-derived from the image alone, with
//! the simulated IPC of §5 shown against its static ceiling.

use vliw_tms::analyze::analyze_image;
use vliw_tms::core::catalog;
use vliw_tms::isa::MachineSpec;
use vliw_tms::sim::config::SimConfig;
use vliw_tms::sim::runner::{run_single, ImageCache};
use vliw_tms::workloads;

const BENCH: &str = "idct";

fn main() {
    let cache = ImageCache::new();
    let st = catalog::by_name("ST").expect("ST is in the scheme catalog");

    for spec in [
        MachineSpec::Paper4x4,
        MachineSpec::Wide2x8,
        MachineSpec::Narrow8x2,
    ] {
        let machine = spec.config();
        let img = workloads::build(workloads::benchmark(BENCH).unwrap(), &machine)
            .expect("shipped benchmarks compile on every preset");
        let report = analyze_image(&img);

        println!("=== {BENCH} on {spec} ===");
        println!(
            "diagnostics: {} error(s), {} warning(s)",
            report.errors(),
            report.warnings()
        );

        println!("block  instrs  ops  min-cycles  static-ILP");
        for b in &report.bounds.blocks {
            println!(
                "{:>5}  {:>6}  {:>3}  {:>10}  {:>10.2}",
                b.block,
                b.n_instrs,
                b.n_ops,
                b.min_cycles,
                b.density()
            );
        }

        let mut cfg = SimConfig::paper(st.clone(), 50_000);
        cfg.machine = machine;
        let r = run_single(&cache, &cfg, BENCH).expect("single-thread run succeeds");
        println!(
            "measured IPC {:.3}  <=  static ceiling {:.3}  (total issue {})\n",
            r.ipc(),
            report.bounds.ipc_ceiling(),
            report.bounds.total_issue
        );
    }
}
