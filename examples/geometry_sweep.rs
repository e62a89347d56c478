//! Geometry sweep: the same merging schemes on different machine shapes.
//!
//! The paper evaluates everything on one machine (§5.1: 4 clusters ×
//! 4-issue). The machine is now a first-class sweep axis: named
//! [`MachineSpec`] presets (and a `CxI[+muls+mems]` grammar) lower to
//! validated geometries, compiled images are cached per
//! `(benchmark, machine)`, and `vliw-hwcost` prices each scheme's
//! merge-control logic on its *actual* geometry. This example runs three
//! schemes over two Table-2 mixes across all four presets and ranks the
//! (scheme, machine) design points by IPC and by area efficiency.
//!
//! ```text
//! cargo run --release --example geometry_sweep
//! ```
//!
//! Paper exhibit: the `geometry` exhibit of the `paper` harness — a
//! beyond-the-paper design-space sweep (cluster count × issue width ×
//! FU mix) in the spirit of the §5.1 machine description and the
//! Figure 9/11 cost analysis, priced per geometry.

use vliw_tms::sim::plan::{Axis, Cell, MachineSpec, Plan, Session};

fn main() {
    let schemes = ["3CCC", "2SC3", "3SSS"];
    let set = Plan::new()
        .schemes(schemes)
        .workloads(["LLHH", "HHHH"])
        .machines(MachineSpec::presets())
        .scale(2_000)
        .run(&Session::new());

    println!("mean IPC across LLHH+HHHH, one column per machine geometry:\n");
    print!("{:<8}", "scheme");
    for m in set.machines() {
        print!(" {:>10}", m.label());
    }
    println!();
    for s in schemes {
        print!("{s:<8}");
        for &m in set.machines() {
            let cell = Cell::default().scheme(s).machine(m);
            let ipc = set.mean_over(Axis::Workload, &cell).unwrap();
            print!(" {ipc:>10.2}");
        }
        println!();
    }

    println!("\nmerge-control hardware priced on each actual geometry:");
    println!(
        "{:<10} {:<8} {:>12} {:>12} {:>10}",
        "machine", "scheme", "transistors", "gate delays", "IPC/kT"
    );
    let mut by_efficiency: Vec<(MachineSpec, &str, f64)> = Vec::new();
    for &machine in set.machines() {
        for s in schemes {
            let cell = Cell::default().scheme(s).machine(machine);
            let cost = set.merge_cost(&cell).expect("grid covers the pair");
            let eff = set
                .ipc_per_area(&cell)
                .expect("merging schemes have nonzero area");
            by_efficiency.push((machine, s, eff));
            println!(
                "{:<10} {:<8} {:>12} {:>12} {:>10.2}",
                machine.label(),
                s,
                cost.transistors,
                cost.gate_delays,
                eff
            );
        }
    }

    by_efficiency.sort_by(|a, b| b.2.total_cmp(&a.2));
    let (machine, scheme, eff) = by_efficiency[0];
    println!(
        "\nbest IPC per kilotransistor of merge logic: {scheme} on {machine} ({eff:.2})\n\
         (cheap cluster-level merging keeps winning once area is in the score —\n\
         the paper's Figure 11 story, now swept across machine shapes)"
    );
}
