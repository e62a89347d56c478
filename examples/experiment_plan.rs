//! Experiment plans end to end: declare a scheme × workload × memory-model
//! grid, run it once, then read it back three ways — keyed lookup,
//! aggregation helpers, and serialized (JSON/CSV) exhibits whose bytes are
//! independent of the worker count.
//!
//! ```text
//! cargo run --release --example experiment_plan
//! ```
//!
//! Paper exhibit: the evaluation methodology of §5 — the IPCr/IPCp axes of
//! Table 1 joined with the scheme sweep of Figure 10, as one declarative
//! grid.

use vliw_tms::sim::plan::{Axis, Cell, MemoryModel, Plan, Session};

fn main() {
    // What to run, not how: three schemes x three mixes x both memory
    // models, at 1/5000 of the paper's run length.
    let plan = Plan::new()
        .schemes(["1S", "2SC3", "3SSS"])
        .workloads(["LLLL", "LLHH", "HHHH"])
        .axes([MemoryModel::Real, MemoryModel::Perfect])
        .scale(5_000);
    println!("plan: {} jobs\n", plan.jobs().len());
    let set = plan.run(&Session::new());

    // 1. Keyed lookup — no positional index arithmetic.
    for memory in [MemoryModel::Real, MemoryModel::Perfect] {
        println!("{memory} memory:");
        for scheme in ["1S", "2SC3", "3SSS"] {
            let per_mix: Vec<String> = set
                .workloads()
                .iter()
                .map(|w| {
                    format!(
                        "{}={:.2}",
                        w.name(),
                        set.get(&Cell::new(scheme, w.name()).memory(memory))
                            .unwrap()
                            .ipc()
                    )
                })
                .collect();
            println!("  {scheme:<5} {}", per_mix.join("  "));
        }
    }

    // 2. Aggregation: per-scheme means over the workloads (real memory,
    //    the set's first memory model) and the speedup vs a baseline.
    println!("\nmean IPC (real memory), speedup vs 1S:");
    let mean = |scheme: &str| {
        set.mean_over(Axis::Workload, &Cell::default().scheme(scheme))
            .unwrap()
    };
    for scheme in set.schemes() {
        let m = mean(scheme.name());
        let gain = (m / mean("1S") - 1.0) * 100.0;
        println!("  {:<5} {m:.2}  ({gain:+.0}%)", scheme.name());
    }

    // 3. Serialized exhibits: deterministic bytes, machine-readable.
    println!("\nCSV exhibit:\n{}", set.to_csv());
    let json = set.to_json();
    println!(
        "JSON exhibit: {} bytes, starts {:?}...",
        json.len(),
        &json[..40.min(json.len())]
    );
}
