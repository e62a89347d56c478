//! One renderer per paper exhibit.

use crate::{f2, pct, Exhibit, TextTable};
use vliw_hwcost::{fig5_sweep, scheme_cost};
use vliw_sim::experiments;
use vliw_workloads::{all_benchmarks, table2_mixes};

/// Table 1: benchmark suite with measured vs paper IPCr/IPCp.
pub fn table1(scale: u64, par: usize) -> Exhibit {
    table1_from(&experiments::table1(scale, par))
}

/// Render Table 1 from precomputed rows (as the `paper` binary does after
/// running [`experiments::table1_plan`] once for both text and
/// serialization).
pub fn table1_from(rows: &[experiments::Table1Row]) -> Exhibit {
    let mut t = TextTable::new(&[
        "benchmark",
        "ILP",
        "IPCr",
        "IPCp",
        "paper IPCr",
        "paper IPCp",
    ]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            r.ilp.to_string(),
            f2(r.ipcr),
            f2(r.ipcp),
            f2(r.paper_ipcr),
            f2(r.paper_ipcp),
        ]);
    }
    Exhibit {
        id: "table1".into(),
        text: format!("Table 1 — single-thread benchmark IPC\n{}", t.render()),
        csv: t.to_csv(),
    }
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
    Exhibit {
        id: "table2".into(),
        text: format!("Table 2 — workload configurations\n{}", t.render()),
        csv: t.to_csv(),
    }
}

/// Figure 4: SMT IPC vs hardware thread count.
pub fn fig4(scale: u64, par: usize) -> Exhibit {
    fig4_from(&experiments::fig4(scale, par))
}

/// Render Figure 4 from precomputed sweep data.
pub fn fig4_from(d: &experiments::Fig4Data) -> Exhibit {
    let mut t = TextTable::new(&["workload", "single-thread", "2-thread SMT", "4-thread SMT"]);
    for (m, row) in d.mixes.iter().zip(&d.ipc) {
        t.row(vec![m.to_string(), f2(row[0]), f2(row[1]), f2(row[2])]);
    }
    let [a1, a2, a4] = d.averages();
    t.row(vec!["Average".into(), f2(a1), f2(a2), f2(a4)]);
    let gain = (a4 / a2 - 1.0) * 100.0;
    Exhibit {
        id: "fig4".into(),
        text: format!(
            "Figure 4 — SMT performance vs thread count\n{}\n4-thread over 2-thread: {} (paper: +61%)\n",
            t.render(),
            pct(gain)
        ),
        csv: t.to_csv(),
    }
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
    Exhibit {
        id: "fig5".into(),
        text: format!(
            "Figure 5 — thread merge control cost vs thread count\n\
             (a) transistors, (b) gate delays; 4-cluster 4-issue machine\n{}",
            t.render()
        ),
        csv: t.to_csv(),
    }
}

/// Figure 6: SMT advantage over CSMT, per mix.
pub fn fig6(scale: u64, par: usize) -> Exhibit {
    fig6_from(&experiments::fig6(scale, par))
}

/// Render Figure 6 from precomputed sweep data.
pub fn fig6_from(d: &experiments::Fig6Data) -> Exhibit {
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
    Exhibit {
        id: "fig6".into(),
        text: format!(
            "Figure 6 — SMT performance advantage over CSMT (4 threads)\n{}\n(paper: average 27%, peak LLHH 58%)\n",
            t.render()
        ),
        csv: t.to_csv(),
    }
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
    Exhibit {
        id: "fig9".into(),
        text: format!(
            "Figure 9 — merging hardware cost per scheme (4 threads, 4x4 machine)\n{}",
            t.render()
        ),
        csv: t.to_csv(),
    }
}

/// Figure 10: per-scheme, per-mix IPC.
pub fn fig10(scale: u64, par: usize) -> Exhibit {
    fig10_from(&experiments::fig10(scale, par))
}

/// Render Figure 10 from precomputed sweep data (the same `Fig10Data`
/// also feeds Figures 11/12 and the headline claims — compute it once).
pub fn fig10_from(d: &experiments::Fig10Data) -> Exhibit {
    let mut header: Vec<&str> = vec!["scheme"];
    header.extend(d.mixes.iter().copied());
    header.push("Average");
    let mut t = TextTable::new(&header);
    for (i, s) in d.schemes.iter().enumerate() {
        let mut row = vec![s.clone()];
        row.extend(d.ipc[i].iter().map(|&x| f2(x)));
        let avg = d.ipc[i].iter().sum::<f64>() / d.ipc[i].len() as f64;
        row.push(f2(avg));
        t.row(row);
    }
    Exhibit {
        id: "fig10".into(),
        text: format!(
            "Figure 10 — merging schemes performance (IPC)\n{}",
            t.render()
        ),
        csv: t.to_csv(),
    }
}

/// Figures 11 & 12: performance vs cost scatter data.
pub fn fig11_12(scale: u64, par: usize) -> (Exhibit, Exhibit) {
    fig11_12_from(&experiments::fig10(scale, par))
}

/// Render Figures 11 & 12 from precomputed Figure-10 sweep data.
pub fn fig11_12_from(perf: &experiments::Fig10Data) -> (Exhibit, Exhibit) {
    let mut t11 = TextTable::new(&["scheme", "IPC", "transistors"]);
    let mut t12 = TextTable::new(&["scheme", "IPC", "gate delays"]);
    for scheme in vliw_core::catalog::paper_schemes() {
        let c = scheme_cost(&scheme, 4, 4);
        let ipc = perf.average_of(scheme.name()).unwrap_or(0.0);
        t11.row(vec![c.name.clone(), f2(ipc), c.transistors.to_string()]);
        t12.row(vec![c.name.clone(), f2(ipc), c.gate_delays.to_string()]);
    }
    (
        Exhibit {
            id: "fig11".into(),
            text: format!("Figure 11 — performance vs transistors\n{}", t11.render()),
            csv: t11.to_csv(),
        },
        Exhibit {
            id: "fig12".into(),
            text: format!("Figure 12 — performance vs gate delays\n{}", t12.render()),
            csv: t12.to_csv(),
        },
    )
}

/// §5.2 headline claims: 2SC3 vs the reference points.
pub fn headline(scale: u64, par: usize) -> Exhibit {
    headline_from(&experiments::fig10(scale, par))
}

/// Render the headline claims from precomputed Figure-10 sweep data.
pub fn headline_from(d: &experiments::Fig10Data) -> Exhibit {
    let avg = |n: &str| d.average_of(n).unwrap_or(0.0);
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
    Exhibit {
        id: "headline".into(),
        text: format!("§5.2 headline claims — scheme 2SC3\n{}", t.render()),
        csv: t.to_csv(),
    }
}

/// Geometry exhibit (beyond the paper): schemes across machine shapes.
pub fn geometry(scale: u64, par: usize) -> Exhibit {
    geometry_from(&experiments::geometry(scale, par))
}

/// Render the geometry exhibit from precomputed sweep rows.
pub fn geometry_from(rows: &[experiments::GeometryRow]) -> Exhibit {
    let mut t = TextTable::new(&[
        "machine",
        "scheme",
        "mean IPC",
        "transistors",
        "gate delays",
        "IPC/kT",
    ]);
    for r in rows {
        t.row(vec![
            r.machine.label(),
            r.scheme.clone(),
            f2(r.mean_ipc),
            r.transistors.to_string(),
            r.gate_delays.to_string(),
            r.ipc_per_ktrans.map(f2).unwrap_or_default(),
        ]);
    }
    Exhibit {
        id: "geometry".into(),
        text: format!(
            "Geometry sweep — merging schemes across machine shapes\n\
             (merge-control cost priced per actual geometry; IPC/kT = mean IPC\n\
             per kilotransistor of merge logic, blank for ST's zero hardware)\n{}",
            t.render()
        ),
        csv: t.to_csv(),
    }
}

/// Trace exhibit (beyond the paper): cycle-level decomposition of the
/// Figure-6 cell pair from full event traces.
pub fn trace_exhibit(scale: u64, par: usize) -> Exhibit {
    trace_from(&experiments::trace_exhibit(scale, par))
}

/// Render the trace exhibit from precomputed per-cell trace rows.
pub fn trace_from(d: &experiments::TraceData) -> Exhibit {
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
    for r in &d.rows {
        t.row(vec![
            r.label.clone(),
            r.workload.clone(),
            r.cycles.to_string(),
            f2(r.ipc),
            r.stalls.icache.to_string(),
            r.stalls.dcache.to_string(),
            r.stalls.branch.to_string(),
            f2(r.stalls.total() as f64 / r.cycles.max(1) as f64),
            r.migrations.to_string(),
            r.merge_transitions.to_string(),
            pct(r.occupancy * 100.0),
            r.events.to_string(),
        ]);
    }
    Exhibit {
        id: "trace".into(),
        text: format!(
            "Trace decomposition — where the cycles go, from full event traces\n\
             (4T SMT vs 4T CSMT; stall cycles by kind sum over threads, so\n\
             stall/cycle can exceed 1 on a multithreaded core; run length\n\
             floored at 1/{} of the paper's budget)\n{}",
            experiments::TRACE_SCALE_FLOOR,
            t.render()
        ),
        csv: t.to_csv(),
    }
}

/// Traffic exhibit (beyond the paper): latency vs offered load for the
/// reference schemes on the 12-job open-system stream.
pub fn traffic_exhibit(scale: u64, par: usize) -> Exhibit {
    traffic_from(&experiments::traffic_exhibit(scale, par))
}

/// Render the traffic exhibit from precomputed per-cell rows.
pub fn traffic_from(d: &experiments::TrafficData) -> Exhibit {
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
    for r in &d.rows {
        t.row(vec![
            r.scheme.clone(),
            r.traffic.to_string(),
            format!("{}", r.rate),
            r.offered.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.p50.to_string(),
            r.p95.to_string(),
            r.p99.to_string(),
            f2(r.mean_queue_depth),
            f2(r.ipc),
        ]);
    }
    Exhibit {
        id: "traffic".into(),
        text: format!(
            "Open-system traffic — sojourn latency vs offered load (beyond the paper)\n\
             (12-job LLHH-x3 stream under a Poisson arrival ladder; sojourn =\n\
             arrival to completion in cycles; jobs arriving at a full admission\n\
             queue are shed; run length floored at 1/{} of the paper's budget)\n{}",
            experiments::TRAFFIC_SCALE_FLOOR,
            t.render()
        ),
        csv: t.to_csv(),
    }
}

/// Fleet exhibit (beyond the paper): the fleet ladder under one saturating
/// arrival process — homogeneous scaling plus the dispatcher showdown on
/// the heterogeneous edge mix.
pub fn fleet_exhibit(scale: u64, par: usize) -> Exhibit {
    fleet_from(&experiments::fleet_exhibit(scale, par))
}

/// Render the fleet exhibit from precomputed per-fleet rows.
pub fn fleet_from(d: &experiments::FleetData) -> Exhibit {
    // Rows of several arrival processes (`paper fleet --arrivals SPEC`)
    // need the process to tell them apart.
    let by_traffic = d.rows.iter().any(|r| r.traffic != d.rows[0].traffic);
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
    for r in &d.rows {
        let routed = r
            .routed
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("/");
        let mut row = vec![
            r.fleet.label(),
            r.machines.to_string(),
            r.dispatcher.clone(),
            r.offered.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            routed,
            r.p50.to_string(),
            r.p95.to_string(),
            r.p99.to_string(),
            f2(r.ipc),
        ];
        if by_traffic {
            row.insert(1, r.traffic.to_string());
        }
        t.row(row);
    }
    Exhibit {
        id: "fleet".into(),
        text: format!(
            "Fleet dispatch — tail latency vs fleet shape (beyond the paper)\n\
             (12-job LLHH-x3 stream at {} on the {} scheme; each arrival is\n\
             routed to one machine's admission queue by the dispatcher; routed\n\
             lists per-machine job counts in fleet order; run length floored\n\
             at 1/{} of the paper's budget)\n{}",
            experiments::FLEET_ARRIVALS,
            experiments::FLEET_SCHEME,
            experiments::FLEET_SCALE_FLOOR,
            t.render()
        ),
        csv: t.to_csv(),
    }
}

/// Sanity check on workload mix sizes used in this module.
pub fn n_benchmarks() -> usize {
    all_benchmarks().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_exhibits_render() {
        let t2 = table2();
        assert!(t2.text.contains("LLHH"));
        assert!(t2.csv.contains("mcf"));
        let f5 = fig5();
        assert!(f5.text.contains("SMT delay"));
        let f9 = fig9();
        assert!(f9.text.contains("2SC3"));
        assert_eq!(n_benchmarks(), 12);
    }

    #[test]
    fn dynamic_exhibits_render_at_tiny_scale() {
        let t1 = table1(50_000, 8);
        assert!(t1.text.contains("colorspace"));
        let f6 = fig6(50_000, 8);
        assert!(f6.text.contains("Average"));
    }

    #[test]
    fn traffic_exhibit_renders_the_load_ladder() {
        let ex = traffic_exhibit(100_000, 8);
        assert_eq!(ex.id, "traffic");
        assert!(ex.text.contains("Open-system traffic"));
        for load in experiments::TRAFFIC_LOADS {
            assert!(ex.text.contains(load), "missing {load}:\n{}", ex.text);
        }
        for scheme in experiments::TRAFFIC_SCHEMES {
            assert!(ex.csv.contains(scheme), "missing {scheme}");
        }
        assert!(ex.csv.lines().next().unwrap().contains("p99 sojourn"));
    }

    #[test]
    fn fleet_exhibit_renders_the_ladder() {
        let ex = fleet_exhibit(5_000, 8);
        assert_eq!(ex.id, "fleet");
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
