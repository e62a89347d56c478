//! Waste analysis: where do the issue slots go?
//!
//! Decomposes execution into useful issue, vertical waste (empty cycles)
//! and horizontal waste (partially-filled cycles) for each processor
//! configuration — the lens the paper's introduction uses to motivate
//! multithreading. One declarative plan sweeps every configuration.
//!
//! ```text
//! cargo run --release --example waste_analysis -- [MIX]
//! ```
//!
//! Paper exhibit: the §1/§2 motivation — vertical vs horizontal waste
//! decomposition behind Figure 4's multithreading gains.

use vliw_tms::sim::plan::{Cell, Plan, Session};
use vliw_tms::workloads::mixes;

fn bar(frac: f64, width: usize) -> String {
    let n = (frac * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

fn main() {
    let mix_name = std::env::args().nth(1).unwrap_or_else(|| "LLMH".into());
    let mix = mixes::mix(&mix_name).unwrap_or_else(|| {
        eprintln!("unknown mix {mix_name}");
        std::process::exit(2);
    });
    let schemes = ["ST", "1S", "3CCC", "2CC", "2SC3", "2SS", "3SSS"];
    let set = Plan::new()
        .schemes(schemes)
        .workload(mix)
        .scale(200)
        .run(&Session::new());

    println!(
        "slot budget decomposition, workload {mix_name} {:?}\n",
        mix.members
    );
    println!(
        "{:<6} {:>6}   {:<28} {:>8} {:>8} {:>8}",
        "scheme", "IPC", "utilization", "useful", "vert", "horiz"
    );
    for name in schemes {
        let s = &set.get(&Cell::new(name, &mix_name)).unwrap().stats;
        let useful = s.utilization();
        // Vertical waste in slot terms: empty cycles burn the whole width.
        let vert = s.vertical_waste();
        let horiz = s.horizontal_waste();
        println!(
            "{:<6} {:>6.2}   [{:<26}] {:>7.1}% {:>7.1}% {:>7.1}%",
            name,
            s.ipc(),
            bar(useful, 26),
            useful * 100.0,
            vert * 100.0,
            horiz * 100.0
        );
    }
    println!(
        "\nvert = cycles in which *no* thread issued (the waste BMT/IMT attack);\n\
         horiz = unfilled slots in issuing cycles (the waste only SMT-style merging recovers)."
    );
}
