//! Custom workloads: define your own benchmark spec, inspect the compiled
//! code, and measure how much multithreading recovers.
//!
//! Benchmark names are owned (`Arc<str>`), so specs — and whole workloads —
//! can be generated at runtime with computed names and swept through the
//! same [`Plan`] API as the paper's Table-1 suite.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```
//!
//! Paper exhibit: the Table-1 methodology — calibrated synthetic kernels
//! with measured IPCr/IPCp, applied to a user-defined benchmark spec.

use vliw_tms::isa::{disasm, MachineConfig};
use vliw_tms::sim::plan::{Cell, Plan, Session, WorkloadRef};
use vliw_tms::workloads::{build, BenchmarkSpec, IlpDegree};

/// A hand-written "fir filter"-ish kernel: medium ILP, streaming loads,
/// multiplies on the critical path.
fn my_benchmark(taps: u32) -> BenchmarkSpec {
    BenchmarkSpec {
        name: format!("fir{taps}").into(), // computed name: not a paper benchmark
        description: "synthetic FIR filter",
        ilp: IlpDegree::M,
        dag_width: taps,
        chain_len: 4,
        mul_permille: 300,
        mem_permille: 250,
        store_permille: 200,
        unroll: 4,
        loop_permille: 960,
        n_kernels: 1,
        working_set: 256 << 10,
        stride: 4,
        carried_permille: 250,
        cold_permille: 40,
        seed: 0xF1B,
        paper_ipcr: 0.0,
        paper_ipcp: 0.0,
    }
}

fn main() {
    let machine = MachineConfig::paper_baseline();
    let spec = my_benchmark(4);
    let image = build(&spec, &machine).expect("custom spec compiles for the paper machine");
    let stats = image.program.stats(&machine);
    println!(
        "compiled '{}': {} instrs, {} ops, density {:.2} ops/instr, {} bytes",
        spec.name, stats.n_instrs, stats.n_ops, stats.ops_per_instr, stats.code_bytes
    );
    println!("\nfirst instructions of the hot loop:");
    let block = &image.program.blocks[0];
    print!(
        "{}",
        disasm::render_block(&machine, &block.instrs[..block.instrs.len().min(6)])
    );

    // Run four copies under single-thread, CSMT, hybrid and SMT processors
    // — one declarative plan over a generated workload.
    let workload = WorkloadRef::custom(&format!("{}-x4", spec.name), vec![spec; 4]);
    let schemes = ["ST", "3CCC", "2SC3", "3SSS"];
    let set = Plan::new()
        .schemes(schemes)
        .workload(workload.clone())
        .scale(200)
        .run(&Session::new());
    for name in schemes {
        let s = &set.get(&Cell::new(name, workload.name())).unwrap().stats;
        println!(
            "\n{name:<5} IPC {:>5.2}  vertical waste {:>5.1}%  horizontal {:>5.1}%",
            s.ipc(),
            s.vertical_waste() * 100.0,
            s.horizontal_waste() * 100.0
        );
    }
}
