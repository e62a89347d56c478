//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * priority rotation policy (fixed / round-robin / least-recently-issued);
//! * loop unrolling (the trace-scheduling stand-in) on vs off;
//! * thread-count extension: 6- and 8-thread hybrid schemes (the paper
//!   stops at 4 "for space reasons").
//!
//! Each study is one declarative [`Plan`] per configuration; the mix list
//! and all specs are resolved when the plan is built, before the rayon
//! fan-out.

use vliw_core::{parser, PriorityPolicy};
use vliw_sim::plan::{Cell, MemoryModel, Plan, Session, WorkloadRef};
use vliw_workloads::table2_mixes;

const SCALE: u64 = 400;

fn main() {
    let session = Session::new();
    let t0 = std::time::Instant::now();

    println!("== Ablation: priority rotation policy (scheme 2SC3, all mixes) ==");
    println!("{:<22} {:>8} {:>10}", "policy", "avg IPC", "fairness");
    for (name, policy) in [
        ("fixed", PriorityPolicy::Fixed),
        ("round-robin", PriorityPolicy::RoundRobin),
        ("least-recently-issued", PriorityPolicy::LeastRecentlyIssued),
    ] {
        let set = Plan::new()
            .scheme("2SC3")
            .workloads(table2_mixes())
            .priority(policy)
            .scale(SCALE)
            .run(&session);
        let n = set.len() as f64;
        let ipc = set.results().iter().map(|r| r.ipc()).sum::<f64>() / n;
        let fair = set
            .results()
            .iter()
            .map(|r| r.stats.fairness())
            .sum::<f64>()
            / n;
        println!("{name:<22} {ipc:>8.2} {fair:>10.3}");
    }

    println!("\n== Ablation: ILP exposure (unrolling) — single-thread IPCp ==");
    println!("{:<12} {:>10} {:>12}", "benchmark", "unrolled", "no-unroll");
    for name in ["idct", "colorspace", "imgpipe"] {
        // The no-unroll variant is the same spec under a computed name
        // (distinct names = distinct compilation-cache entries).
        let mut variant = vliw_workloads::benchmark(name).unwrap().clone();
        variant.unroll = 1;
        variant.name = format!("{name}-nounroll").into();
        let set = Plan::new()
            .scheme("ST")
            .workload(name)
            .workload(&variant)
            .axis(MemoryModel::Perfect)
            .scale(SCALE)
            .run(&session);
        let ipc = |w: &str| set.get(&Cell::new("ST", w)).unwrap().ipc();
        let (with, without) = (ipc(name), ipc(&variant.name));
        println!("{name:<12} {with:>10.2} {without:>12.2}");
    }

    println!("\n== Extension: thread counts beyond the paper (HHHH + LLLL pool) ==");
    println!("{:<12} {:>8} {:>8}", "scheme", "threads", "IPC");
    // 6- and 8-thread pools reuse the Table-1 suite.
    let pool8 = [
        "mcf",
        "bzip2",
        "blowfish",
        "gsmencode",
        "x264",
        "idct",
        "imgpipe",
        "colorspace",
    ];
    for scheme_name in ["5SCCCC", "7CCCCCCC", "C8", "7SSSSSSS"] {
        let scheme = parser::parse(scheme_name).expect("extension scheme parses");
        let n = scheme.n_ports() as usize;
        let workload = WorkloadRef::members(&format!("pool{n}"), &pool8[..n.min(8)]);
        let set = Plan::new()
            .scheme(scheme)
            .workload(workload)
            .scale(SCALE)
            .run(&session);
        println!("{scheme_name:<12} {n:>8} {:>8.2}", set.results()[0].ipc());
    }

    println!("\nablations done in {:.1}s", t0.elapsed().as_secs_f64());
}
