//! Scheme explorer: sweep every merging scheme of the paper (plus any
//! custom scheme named on the command line) over one workload mix and rank
//! them by performance and by hardware cost.
//!
//! ```text
//! cargo run --release --example scheme_explorer -- [MIX] [EXTRA_SCHEME...]
//! cargo run --release --example scheme_explorer -- MMHH 3CSC 5SCCCC
//! ```
//!
//! Paper exhibit: Figure 10 (per-scheme IPC across mixes) joined with
//! Figure 9 (merge-control cost) — the performance/cost ranking of §5.3.

use vliw_tms::core::{catalog, parser};
use vliw_tms::hwcost::scheme_cost;
use vliw_tms::sim::plan::{Cell, Plan, Session};
use vliw_tms::workloads::mixes;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mix_name = args.first().map(String::as_str).unwrap_or("LLHH");
    let mix = mixes::mix(mix_name).unwrap_or_else(|| {
        eprintln!("unknown mix {mix_name}; pick one of Table 2 (LLLL..HHHH)");
        std::process::exit(2);
    });

    // The whole catalog plus any parsed extras, declared as one plan:
    // custom schemes sweep exactly like paper ones.
    let mut schemes = catalog::paper_schemes();
    for extra in args.iter().skip(1) {
        match parser::parse(extra) {
            Ok(s) if schemes.iter().any(|have| have.name() == s.name()) => {
                eprintln!("skipping {extra}: already in the catalog sweep")
            }
            Ok(s) if s.n_ports() <= 4 => schemes.push(s),
            Ok(s) => eprintln!(
                "skipping {extra}: {} ports > 4-thread workload",
                s.n_ports()
            ),
            Err(e) => eprintln!("skipping {extra}: {e}"),
        }
    }
    let set = Plan::new()
        .schemes(schemes.iter().cloned())
        .workload(mix)
        .scale(200)
        .run(&Session::new());

    println!(
        "{:<6} {:>6} {:>8} {:>12} {:>11} {:>10}",
        "scheme", "IPC", "IPC/1S", "transistors", "gate delays", "SMT blocks"
    );
    let ipc_of = |scheme: &str| set.get(&Cell::new(scheme, mix_name)).unwrap().ipc();
    let baseline = ipc_of("1S");
    let mut rows: Vec<(String, f64, u64, u32, usize)> = schemes
        .iter()
        .map(|scheme| {
            let cost = scheme_cost(scheme, 4, 4);
            let ipc = ipc_of(scheme.name());
            (
                cost.name,
                ipc,
                cost.transistors,
                cost.gate_delays,
                cost.smt_blocks,
            )
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ipc, trans, delay, smt) in rows {
        println!(
            "{name:<6} {ipc:>6.2} {:>8.2} {trans:>12} {delay:>11} {smt:>10}",
            ipc / baseline
        );
    }
    println!("\n(workload {mix_name}: {:?})", mix.members);
}
