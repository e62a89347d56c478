//! Quickstart: simulate the paper's headline configuration.
//!
//! Declares a one-line experiment plan — the LLHH workload
//! (mcf + blowfish + x264 + idct) under single-thread, CSMT, the paper's
//! recommended scheme 2SC3, and full SMT — runs it, and reads the results
//! back by key: IPC ranking, waste decomposition, merge statistics and the
//! per-thread breakdown of 2SC3.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Paper exhibit: the headline result (§5.3, Figure 10) — scheme 2SC3 at
//! ~97% of full SMT performance on the Table-2 mixes.

use vliw_tms::sim::plan::{Axis, Cell, Plan, Session};

fn main() {
    // 1/100 of the paper's 100M-instruction runs — a couple of seconds.
    let schemes = ["ST", "3CCC", "2SC3", "3SSS"];
    let set = Plan::new()
        .schemes(schemes)
        .workload("LLHH")
        .scale(100)
        .run(&Session::new());

    println!("workload LLHH under {} schemes:\n", schemes.len());
    println!(
        "{:<6} {:>6} {:>8} {:>8} {:>8}",
        "scheme", "IPC", "vert%", "horiz%", "util%"
    );
    for scheme in schemes {
        let s = &set.get(&Cell::new(scheme, "LLHH")).unwrap().stats;
        println!(
            "{scheme:<6} {:>6.2} {:>8.1} {:>8.1} {:>8.1}",
            s.ipc(),
            s.vertical_waste() * 100.0,
            s.horizontal_waste() * 100.0,
            s.utilization() * 100.0
        );
    }
    // Mean IPC over the plan's workloads (one here), per scheme.
    let mean = |scheme: &str| {
        set.mean_over(Axis::Workload, &Cell::default().scheme(scheme))
            .unwrap()
    };
    let speedup = mean("2SC3") / mean("3SSS");
    println!(
        "\n2SC3 delivers {:.0}% of full-SMT (3SSS) performance (paper: ~97%)",
        speedup * 100.0
    );

    let s = &set.get(&Cell::new("2SC3", "LLHH")).unwrap().stats;
    println!("\n2SC3 in detail:");
    println!("cycles            : {}", s.cycles);
    println!("fairness (Jain)   : {:.3}", s.fairness());
    println!("D$ miss rate      : {:.2}%", s.dcache.miss_rate() * 100.0);

    println!("\nthreads-per-packet histogram:");
    for (k, &n) in s.merge.packet_histogram().iter().enumerate().take(5) {
        let share = n as f64 / s.cycles.max(1) as f64 * 100.0;
        println!("  {k} thread(s): {share:5.1}% of cycles");
    }

    println!("\nper-thread progress:");
    for t in &s.threads {
        println!(
            "  {:<10} instrs={:<9} ops={:<9} d-stall={} br-stall={}",
            t.name, t.instrs, t.ops, t.dstall_cycles, t.branch_stall_cycles
        );
    }
}
