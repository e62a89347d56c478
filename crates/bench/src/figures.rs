//! One renderer per paper exhibit; [`EXHIBITS`](crate::exhibits::EXHIBITS)
//! names each one and the sweep it reads.
//!
//! A simulated exhibit reads its sweep's [`ResultSet`] directly: cells by
//! keyed lookup ([`ResultSet::get`]), averages over workloads from
//! [`ResultSet::mean_over`] alone, per-geometry prices from
//! [`ResultSet::merge_cost`] and [`ResultSet::ipc_per_area`], and one row
//! per cell from [`ResultSet::iter`]. Only Table 1, Figure 6 and the trace
//! exhibit go through a projection in [`experiments`], because each
//! computes something the set does not hold; the trace exhibit takes just
//! its three trace-only columns from one.

use crate::exhibits::Swept;
use crate::{f2, pct, Exhibit, TextTable};
use vliw_hwcost::{fig5_sweep, scheme_cost, SchemeCost};
use vliw_sim::experiments;
use vliw_sim::plan::{Axis, Cell, MachineSpec, MemoryModel, ResultSet};
use vliw_sim::sched::SchedulerSpec;
use vliw_workloads::table2_mixes;

/// IPC of the one cell of `set` that `cell` names.
fn ipc(set: &ResultSet, cell: &Cell) -> f64 {
    set.get(cell)
        .expect("the sweep covers every cell it renders")
        .ipc()
}

/// Mean IPC of `scheme` across `set`'s workloads.
fn mean_ipc(set: &ResultSet, scheme: &str) -> f64 {
    set.mean_over(Axis::Workload, &Cell::default().scheme(scheme))
        .expect("the sweep runs every scheme it renders")
}

/// Table 1: benchmark suite with measured vs paper IPCr/IPCp.
pub fn table1(s: &Swept) -> Exhibit {
    let mut t = TextTable::new(&[
        "benchmark",
        "ILP",
        "IPCr",
        "IPCp",
        "paper IPCr",
        "paper IPCp",
    ]);
    for r in experiments::table1_rows(&s.set) {
        t.row(vec![
            r.name.to_string(),
            r.ilp.to_string(),
            f2(r.ipcr),
            f2(r.ipcp),
            f2(r.paper_ipcr),
            f2(r.paper_ipcp),
        ]);
    }
    t.exhibit("Table 1 — single-thread benchmark IPC")
}

/// Table 2: workload configurations (verbatim reproduction).
pub fn table2() -> Exhibit {
    let mut t = TextTable::new(&["ILP comb", "thread 0", "thread 1", "thread 2", "thread 3"]);
    for m in table2_mixes() {
        t.row(
            std::iter::once(m.name.to_string())
                .chain(m.members.iter().map(|s| s.to_string()))
                .collect(),
        );
    }
    t.exhibit("Table 2 — workload configurations")
}

/// Figure 4: SMT IPC vs hardware thread count.
pub fn fig4(s: &Swept) -> Exhibit {
    let set = &s.set;
    let mut t = TextTable::new(&["workload", "single-thread", "2-thread SMT", "4-thread SMT"]);
    for w in set.workloads() {
        let mut row = vec![w.name().to_string()];
        row.extend(
            set.schemes()
                .iter()
                .map(|sc| f2(ipc(set, &Cell::new(sc.name(), w.name())))),
        );
        t.row(row);
    }
    let avg: Vec<f64> = set
        .schemes()
        .iter()
        .map(|sc| mean_ipc(set, sc.name()))
        .collect();
    t.row(
        std::iter::once("Average".into())
            .chain(avg.iter().map(|&a| f2(a)))
            .collect(),
    );
    let gain = (avg[2] / avg[1] - 1.0) * 100.0;
    let mut ex = t.exhibit("Figure 4 — SMT performance vs thread count");
    ex.text += &format!("\n4-thread over 2-thread: {} (paper: +61%)\n", pct(gain));
    ex
}

/// Figure 5: merge-control cost vs thread count (both panels).
pub fn fig5() -> Exhibit {
    let rows = fig5_sweep(8, 4, 4);
    let mut t = TextTable::new(&[
        "threads",
        "CSMT SL trans",
        "CSMT PL trans",
        "SMT trans",
        "CSMT SL delay",
        "CSMT PL delay",
        "SMT delay",
    ]);
    for r in &rows {
        t.row(vec![
            r.threads.to_string(),
            r.csmt_sl_transistors.to_string(),
            r.csmt_pl_transistors.to_string(),
            r.smt_transistors.to_string(),
            r.csmt_sl_delays.to_string(),
            r.csmt_pl_delays.to_string(),
            r.smt_delays.to_string(),
        ]);
    }
    t.exhibit(
        "Figure 5 — thread merge control cost vs thread count\n\
         (a) transistors, (b) gate delays; 4-cluster 4-issue machine",
    )
}

/// Figure 6: SMT advantage over CSMT, per mix.
pub fn fig6(s: &Swept) -> Exhibit {
    let d = experiments::fig6_data(&s.set);
    let mut t = TextTable::new(&["workload", "4T SMT IPC", "4T CSMT IPC", "SMT advantage"]);
    for (m, smt, csmt, adv) in &d.rows {
        t.row(vec![m.to_string(), f2(*smt), f2(*csmt), pct(*adv)]);
    }
    t.row(vec![
        "Average".into(),
        String::new(),
        String::new(),
        pct(d.average()),
    ]);
    let mut ex = t.exhibit("Figure 6 — SMT performance advantage over CSMT (4 threads)");
    ex.text += "\n(paper: average 27%, peak LLHH 58%)\n";
    ex
}

/// Figure 9: per-scheme merge hardware cost.
pub fn fig9() -> Exhibit {
    let mut t = TextTable::new(&[
        "scheme",
        "gate delays",
        "decision delays",
        "transistors",
        "SMT blocks",
    ]);
    for scheme in vliw_core::catalog::paper_schemes() {
        let c = scheme_cost(&scheme, 4, 4);
        t.row(vec![
            c.name.clone(),
            c.gate_delays.to_string(),
            c.decision_delays.to_string(),
            c.transistors.to_string(),
            c.smt_blocks.to_string(),
        ]);
    }
    t.exhibit("Figure 9 — merging hardware cost per scheme (4 threads, 4x4 machine)")
}

/// Figure 10: per-scheme, per-mix IPC.
pub fn fig10(s: &Swept) -> Exhibit {
    let set = &s.set;
    let mut header = vec!["scheme"];
    header.extend(set.workloads().iter().map(|w| w.name()));
    header.push("Average");
    let mut t = TextTable::new(&header);
    for scheme in set.schemes() {
        let mut row = vec![scheme.name().to_string()];
        row.extend(
            set.workloads()
                .iter()
                .map(|w| f2(ipc(set, &Cell::new(scheme.name(), w.name())))),
        );
        row.push(f2(mean_ipc(set, scheme.name())));
        t.row(row);
    }
    t.exhibit("Figure 10 — merging schemes performance (IPC)")
}

/// Figure 11: performance vs transistors.
pub fn fig11(s: &Swept) -> Exhibit {
    cost_scatter(
        s,
        "Figure 11 — performance vs transistors",
        "transistors",
        |c| c.transistors.to_string(),
    )
}

/// Figure 12: performance vs gate delays.
pub fn fig12(s: &Swept) -> Exhibit {
    cost_scatter(
        s,
        "Figure 12 — performance vs gate delays",
        "gate delays",
        |c| c.gate_delays.to_string(),
    )
}

/// Mean Figure-10 IPC of every paper scheme against one merge-cost metric,
/// priced on the machine the sweep ran on.
fn cost_scatter(s: &Swept, title: &str, metric: &str, cost: fn(&SchemeCost) -> String) -> Exhibit {
    let mut t = TextTable::new(&["scheme", "IPC", metric]);
    for scheme in s.set.schemes() {
        let c = s
            .set
            .merge_cost(&Cell::default().scheme(scheme.name()))
            .expect("the sweep runs every scheme it renders");
        t.row(vec![
            c.name.clone(),
            f2(mean_ipc(&s.set, scheme.name())),
            cost(&c),
        ]);
    }
    t.exhibit(title)
}

/// §5.2 headline claims: 2SC3 vs the reference points.
pub fn headline(s: &Swept) -> Exhibit {
    let avg = |n: &str| mean_ipc(&s.set, n);
    let sc3 = avg("2SC3");
    let rows = [
        (
            "2SC3 vs 4T CSMT (3CCC)",
            (sc3 / avg("3CCC") - 1.0) * 100.0,
            14.0,
        ),
        ("2SC3 vs 2T SMT (1S)", (sc3 / avg("1S") - 1.0) * 100.0, 45.0),
        (
            "2SC3 vs 4T SMT (3SSS)",
            (sc3 / avg("3SSS") - 1.0) * 100.0,
            -11.0,
        ),
    ];
    let mut t = TextTable::new(&["comparison", "measured", "paper"]);
    for (name, got, want) in rows {
        t.row(vec![name.to_string(), pct(got), pct(want)]);
    }
    t.exhibit("§5.2 headline claims — scheme 2SC3")
}

/// Geometry exhibit (beyond the paper): schemes across machine shapes.
pub fn geometry(s: &Swept) -> Exhibit {
    let mut t = TextTable::new(&[
        "machine",
        "scheme",
        "mean IPC",
        "transistors",
        "gate delays",
        "IPC/kT",
    ]);
    let set = &s.set;
    for &machine in set.machines() {
        for scheme in set.schemes() {
            let cell = Cell::default().scheme(scheme.name()).machine(machine);
            let cost = set.merge_cost(&cell).expect("the grid has the cell");
            let mean = set
                .mean_over(Axis::Workload, &cell)
                .expect("the grid has the cell");
            t.row(vec![
                machine.label(),
                scheme.name().to_string(),
                f2(mean),
                cost.transistors.to_string(),
                cost.gate_delays.to_string(),
                set.ipc_per_area(&cell).map(f2).unwrap_or_default(),
            ]);
        }
    }
    t.exhibit(
        "Geometry sweep — merging schemes across machine shapes\n\
         (merge-control cost priced per actual geometry; IPC/kT = mean IPC\n\
         per kilotransistor of merge logic, blank for ST's zero hardware)",
    )
}

/// Trace exhibit (beyond the paper): cycle-level decomposition of the
/// Figure-6 cell pair from full event traces.
pub fn trace(s: &Swept) -> Exhibit {
    let rows = s.trace.as_ref().expect("the trace sweep traces its cells");
    let mut t = TextTable::new(&[
        "cell",
        "workload",
        "cycles",
        "IPC",
        "I$ stall",
        "D$ stall",
        "branch stall",
        "stall/cycle",
        "migrations",
        "merge transitions",
        "occupancy",
        "events",
    ]);
    for ((key, r), row) in s.set.iter().zip(rows) {
        let mut label = key.scheme.name().to_string();
        if key.scheduler != SchedulerSpec::PaperRandom {
            label.push_str(&format!(" {}", key.scheduler.name()));
        }
        if key.machine != MachineSpec::Paper4x4 {
            label.push_str(&format!(" @{}", key.machine.label()));
        }
        if key.memory != MemoryModel::Real {
            label.push_str(" (perfect)");
        }
        let stalls = &r.stats.stall_breakdown;
        t.row(vec![
            label,
            key.workload.name().to_string(),
            r.stats.cycles.to_string(),
            f2(r.ipc()),
            stalls.icache.to_string(),
            stalls.dcache.to_string(),
            stalls.branch.to_string(),
            f2(stalls.total() as f64 / r.stats.cycles.max(1) as f64),
            r.stats.migrations.to_string(),
            row.merge_transitions.to_string(),
            pct(row.occupancy * 100.0),
            row.events.to_string(),
        ]);
    }
    t.exhibit(&format!(
        "Trace decomposition — where the cycles go, from full event traces\n\
         (4T SMT vs 4T CSMT; stall cycles by kind sum over threads, so\n\
         stall/cycle can exceed 1 on a multithreaded core; run length\n\
         floored at 1/{} of the paper's budget)",
        experiments::TRACE_SCALE_FLOOR,
    ))
}

/// Traffic exhibit (beyond the paper): latency vs offered load for the
/// reference schemes on the 12-job open-system stream.
pub fn traffic(s: &Swept) -> Exhibit {
    let mut t = TextTable::new(&[
        "scheme",
        "arrivals",
        "rate/cycle",
        "offered",
        "completed",
        "shed",
        "p50 sojourn",
        "p95 sojourn",
        "p99 sojourn",
        "mean queue",
        "IPC",
    ]);
    for (key, r) in s.set.iter() {
        let q = &r.stats.traffic;
        t.row(vec![
            key.scheme.name().to_string(),
            key.traffic.to_string(),
            format!("{}", key.traffic.offered_rate()),
            q.offered.to_string(),
            q.completed.to_string(),
            q.shed.to_string(),
            q.p50_sojourn.to_string(),
            q.p95_sojourn.to_string(),
            q.p99_sojourn.to_string(),
            f2(q.mean_queue_depth),
            f2(r.ipc()),
        ]);
    }
    t.exhibit(&format!(
        "Open-system traffic — sojourn latency vs offered load (beyond the paper)\n\
         (12-job LLHH-x3 stream under a Poisson arrival ladder; sojourn =\n\
         arrival to completion in cycles; jobs arriving at a full admission\n\
         queue are shed; run length floored at 1/{} of the paper's budget)",
        experiments::TRAFFIC_SCALE_FLOOR,
    ))
}

/// Fleet exhibit (beyond the paper): the fleet ladder under one saturating
/// arrival process — homogeneous scaling plus the dispatcher showdown on
/// the heterogeneous edge mix.
pub fn fleet(s: &Swept) -> Exhibit {
    // Rows of several arrival processes (`paper fleet --arrivals SPEC`)
    // need the process to tell them apart.
    let by_traffic = s.set.traffics().len() > 1;
    let mut header = vec![
        "fleet",
        "machines",
        "dispatcher",
        "offered",
        "completed",
        "shed",
        "routed",
        "p50 sojourn",
        "p95 sojourn",
        "p99 sojourn",
        "IPC",
    ];
    if by_traffic {
        header.insert(1, "arrivals");
    }
    let mut t = TextTable::new(&header);
    for (key, r) in s.set.iter() {
        let fleet = key.fleet.expect("fleet grid cells run on a fleet");
        let q = &r.stats.traffic;
        let lanes = &r
            .stats
            .fleet
            .as_ref()
            .expect("fleet cells carry FleetStats")
            .machines;
        let routed: Vec<String> = lanes.iter().map(|m| m.routed.to_string()).collect();
        let mut row = vec![
            fleet.label(),
            fleet.n_machines().to_string(),
            fleet.dispatcher.name().to_string(),
            q.offered.to_string(),
            q.completed.to_string(),
            q.shed.to_string(),
            routed.join("/"),
            q.p50_sojourn.to_string(),
            q.p95_sojourn.to_string(),
            q.p99_sojourn.to_string(),
            f2(r.ipc()),
        ];
        if by_traffic {
            row.insert(1, key.traffic.to_string());
        }
        t.row(row);
    }
    t.exhibit(&format!(
        "Fleet dispatch — tail latency vs fleet shape (beyond the paper)\n\
         (12-job LLHH-x3 stream at {} on the {} scheme; each arrival is\n\
         routed to one machine's admission queue by the dispatcher; routed\n\
         lists per-machine job counts in fleet order; run length floored\n\
         at 1/{} of the paper's budget)",
        experiments::FLEET_ARRIVALS,
        experiments::FLEET_SCHEME,
        experiments::FLEET_SCALE_FLOOR,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhibits::{exhibit, Axes, Sweep, Sweeps};
    use vliw_sim::plan::Session;

    /// Render the exhibit called `name` through the exhibit table.
    fn render(name: &str, scale: u64) -> Exhibit {
        let session = Session::with_parallelism(8);
        let axes = Axes::default();
        Sweeps::new(&session, scale, &axes, None).render(exhibit(name).unwrap())
    }

    #[test]
    fn static_exhibits_render() {
        let t2 = table2();
        assert!(t2.text.contains("LLHH"));
        assert!(t2.csv.contains("mcf"));
        let f5 = fig5();
        assert!(f5.text.contains("SMT delay"));
        let f9 = fig9();
        assert!(f9.text.contains("2SC3"));
        assert_eq!(vliw_workloads::all_benchmarks().len(), 12);
    }

    #[test]
    fn dynamic_exhibits_render_at_tiny_scale() {
        let t1 = render("table1", 50_000);
        assert!(t1.text.contains("colorspace"));
        let f6 = render("fig6", 50_000);
        assert!(f6.text.contains("Average"));
    }

    #[test]
    fn traffic_exhibit_renders_the_load_ladder() {
        let ex = render("traffic", 100_000);
        assert_eq!(Sweep::Traffic.id(), "traffic");
        assert!(ex.text.contains("Open-system traffic"));
        for load in experiments::TRAFFIC_LOADS {
            assert!(ex.text.contains(load), "missing {load}:\n{}", ex.text);
        }
        for scheme in experiments::TRAFFIC_SCHEMES {
            assert!(ex.csv.contains(scheme), "missing {scheme}");
        }
        assert!(ex.csv.lines().next().unwrap().contains("p99 sojourn"));
    }

    /// A fleet cell's trace holds only its routing events, so the trace
    /// exhibit reads each fleet row's stall columns from the result set:
    /// the sums of the cell's per-thread stall cycles.
    #[test]
    fn fleet_trace_rows_read_stalls_from_the_set() {
        use vliw_sim::stats::ThreadStats;
        let session = Session::with_parallelism(2);
        let axes = Axes {
            fleet: Some("paper-4x4*2".parse().unwrap()),
            ..Axes::default()
        };
        let mut sweeps = Sweeps::new(&session, 20_000, &axes, None);
        let ex = sweeps.render(exhibit("trace").unwrap());
        let set = &sweeps.run(Sweep::Trace).set;
        let mut lines = ex.csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
        let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.len(), set.len());
        for (row, (key, r)) in rows.iter().zip(set.iter()) {
            assert!(key.fleet.is_some(), "{row:?}");
            let sum = |stall: fn(&ThreadStats) -> u64| {
                r.stats.threads.iter().map(stall).sum::<u64>().to_string()
            };
            assert_eq!(row[col("I$ stall")], sum(|t| t.istall_cycles), "{row:?}");
            assert_eq!(row[col("D$ stall")], sum(|t| t.dstall_cycles), "{row:?}");
            assert_eq!(
                row[col("branch stall")],
                sum(|t| t.branch_stall_cycles),
                "{row:?}"
            );
            assert_ne!(row[col("D$ stall")], "0", "LLHH stalls on data: {row:?}");
            // The trace-only columns count the routing events alone.
            assert_eq!(row[col("merge transitions")], "0", "{row:?}");
            assert_eq!(row[col("occupancy")], "0.0%", "{row:?}");
            assert_eq!(
                row[col("events")],
                key.workload.n_threads().to_string(),
                "one RoutedTo per arrival: {row:?}"
            );
        }
    }

    #[test]
    fn fleet_exhibit_renders_the_ladder() {
        let ex = render("fleet", 5_000);
        assert_eq!(Sweep::Fleet.id(), "fleet");
        assert!(ex.text.contains("Fleet dispatch"));
        for fleet in experiments::FLEET_LADDER {
            assert!(ex.csv.contains(fleet), "missing {fleet}:\n{}", ex.csv);
        }
        for policy in ["round-robin", "least-queued", "affinity"] {
            assert!(ex.text.contains(policy), "missing {policy}:\n{}", ex.text);
        }
        assert!(ex.csv.lines().next().unwrap().contains("routed"));
    }
}
