//! Figure/table-level experiment drivers.
//!
//! Every exhibit's sweep is a `*_plan` function that builds the
//! declarative [`Plan`] (which schemes × workloads × axes at which scale).
//! Renderers read the executed [`ResultSet`] itself: keyed lookup
//! ([`ResultSet::get`] with a [`Cell`]), the one aggregation
//! ([`ResultSet::mean_over`]), per-geometry pricing
//! ([`ResultSet::merge_cost`], [`ResultSet::ipc_per_area`]) and the cells
//! in grid order ([`ResultSet::iter`]). Three projections remain, each
//! because it computes something the set does not hold: [`table1_rows`]
//! joins the paper's Table-1 IPCs, [`fig6_data`] derives the per-mix
//! SMT-over-CSMT advantage, and [`trace_rows`] counts what only a cell's
//! event trace shows (merge transitions, occupancy, events) before the
//! trace is dropped. `vliw-bench`'s exhibit table runs each plan once on
//! one [`Session`] for the `paper` binary, the trace plan too, which can
//! also serialize the raw result sets via
//! [`ResultSet::to_json`]/[`ResultSet::to_csv`].
//!
//! All drivers take a `scale` divisor (1 = the paper's full
//! 100M-instruction runs).

use crate::plan::{Cell, JobKey, MachineSpec, MemoryModel, Plan, ResultSet, Session, WorkloadRef};
use crate::runner;
use std::sync::Arc;
use vliw_core::catalog;
use vliw_workloads::{all_benchmarks, mixes::mix, table2_mixes};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: Arc<str>,
    /// ILP class letter.
    pub ilp: char,
    /// Measured IPC with real memory.
    pub ipcr: f64,
    /// Measured IPC with perfect memory.
    pub ipcp: f64,
    /// Paper's IPCr.
    pub paper_ipcr: f64,
    /// Paper's IPCp.
    pub paper_ipcp: f64,
}

/// The Table-1 sweep: every benchmark alone on the single-thread machine,
/// under both memory models.
pub fn table1_plan(scale: u64) -> Plan {
    Plan::new()
        .scheme("ST")
        .workloads(all_benchmarks())
        .axes([MemoryModel::Real, MemoryModel::Perfect])
        .scale(scale)
}

/// Project an executed [`table1_plan`] sweep into Table-1 rows.
pub fn table1_rows(set: &ResultSet) -> Vec<Table1Row> {
    let ipc = |name: &str, memory| {
        set.get(&Cell::new("ST", name).memory(memory))
            .expect("table1 grid covers every benchmark")
            .ipc()
    };
    all_benchmarks()
        .iter()
        .map(|b| Table1Row {
            name: b.name.clone(),
            ilp: b.ilp.letter(),
            ipcr: ipc(&b.name, MemoryModel::Real),
            ipcp: ipc(&b.name, MemoryModel::Perfect),
            paper_ipcr: b.paper_ipcr,
            paper_ipcp: b.paper_ipcp,
        })
        .collect()
}

/// The Figure-4 sweep: 1/2/4-thread SMT over every Table-2 mix.
pub fn fig4_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(["ST", "1S", "3SSS"])
        .workloads(table2_mixes())
        .scale(scale)
}

/// Figure 6 data: SMT's advantage over CSMT per mix, in percent.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// (mix label, SMT IPC, CSMT IPC, advantage %).
    pub rows: Vec<(&'static str, f64, f64, f64)>,
}

impl Fig6Data {
    /// Average advantage across mixes.
    pub fn average(&self) -> f64 {
        self.rows.iter().map(|r| r.3).sum::<f64>() / self.rows.len().max(1) as f64
    }
}

/// The Figure-6 sweep: 4-thread SMT vs 4-thread CSMT over every mix.
pub fn fig6_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(["3SSS", "3CCC"])
        .workloads(table2_mixes())
        .scale(scale)
}

/// Project an executed [`fig6_plan`] sweep into Figure-6 shape.
pub fn fig6_data(set: &ResultSet) -> Fig6Data {
    let rows = table2_mixes()
        .iter()
        .map(|m| {
            let ipc = |scheme| {
                set.get(&Cell::new(scheme, m.name))
                    .expect("fig6 grid covers every mix")
                    .ipc()
            };
            let (smt, csmt) = (ipc("3SSS"), ipc("3CCC"));
            (m.name, smt, csmt, (smt / csmt - 1.0) * 100.0)
        })
        .collect();
    Fig6Data { rows }
}

/// The Figure-10 sweep: all 16 catalog schemes (plus the implicit 1S
/// member of the catalog) across the 9 mixes. Also feeds Figures 11/12 and
/// the §5.2 headline claims.
pub fn fig10_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(catalog::paper_schemes())
        .workloads(table2_mixes())
        .scale(scale)
}

/// Schemes of the geometry sweep: the paper's reference points (1-thread,
/// 4-thread CSMT, 4-thread SMT) plus the headline hybrid.
pub const GEOMETRY_SCHEMES: [&str; 4] = ["ST", "3CCC", "2SC3", "3SSS"];

/// The geometry sweep (beyond the paper): [`GEOMETRY_SCHEMES`] over every
/// Table-2 mix across all [`MachineSpec::presets`] — Alipour &
/// Taghdisi-style "which architecture suits how much TLP", with the
/// hwcost model pricing each scheme on its actual geometry.
pub fn geometry_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(GEOMETRY_SCHEMES)
        .workloads(table2_mixes())
        .machines(MachineSpec::presets())
        .scale(scale)
}

/// What one cell's full event trace adds to its result for the trace
/// exhibit: the three columns a [`ResultSet`] does not hold.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Merge/split transitions of the issuing-context mask.
    pub merge_transitions: u64,
    /// Fraction of context-cycles with a thread installed.
    pub occupancy: f64,
    /// Events in the cell's trace.
    pub events: usize,
}

/// Run-length floor for the trace exhibit: full event streams grow
/// linearly with run length, so the exhibit never runs longer than
/// 1/5000 of the paper's budget (20k retired instructions per thread).
pub const TRACE_SCALE_FLOOR: u64 = 5_000;

/// The trace-exhibit sweep: 4-thread SMT vs 4-thread CSMT on the LLHH
/// mix — the cell pair behind the paper's peak Figure-6 advantage —
/// fully traced. `scale` is floored at [`TRACE_SCALE_FLOOR`].
pub fn trace_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(["3SSS", "3CCC"])
        .workload("LLHH")
        .scale(scale.max(TRACE_SCALE_FLOOR))
}

/// Trace every cell of `plan` with [`Plan::trace_cell`] and keep the
/// [`TraceRow`] of each, in grid order. The cells run on the session's
/// workers, each trace reduced and dropped on the worker that recorded
/// it, so at most one trace per worker is alive. A fleet cell's trace
/// holds only its routing events, so its row counts no merge transition
/// and no occupancy. Works on any plan — the `paper` binary passes
/// [`trace_plan`] with the CLI's axes applied, and reads every other
/// column from the plan's [`ResultSet`].
pub fn trace_rows(plan: &Plan, session: &Session) -> Vec<TraceRow> {
    let row = |key: &JobKey| {
        let (result, trace) = plan.trace_cell(session, key);
        let occupied: u64 = vliw_trace::occupancy_timeline(&trace)
            .iter()
            .map(|s| s.len())
            .sum();
        let ctx_cycles = result.stats.cycles * u64::from(trace.n_contexts);
        TraceRow {
            merge_transitions: trace
                .events
                .iter()
                .filter(|e| matches!(e, vliw_trace::TraceEvent::MergeTransition { .. }))
                .count() as u64,
            occupancy: if ctx_cycles == 0 {
                0.0
            } else {
                occupied as f64 / ctx_cycles as f64
            },
            events: trace.len(),
        }
    };
    runner::run_jobs(plan.jobs(), row, session.parallelism())
}

/// Schemes of the traffic exhibit: the paper's reference points (1-thread,
/// 4-thread CSMT, 4-thread SMT) plus the headline hybrid — the same set
/// the geometry sweep compares, now judged by tail latency instead of
/// throughput.
pub const TRAFFIC_SCHEMES: [&str; 4] = GEOMETRY_SCHEMES;

/// Offered-load ladder of the traffic exhibit (canonical
/// [`TrafficSpec`](crate::plan::TrafficSpec) spellings): light, moderate
/// and saturating Poisson arrivals. The heavy point oversubscribes every
/// scheme's admission limit, so the shed column becomes part of the
/// comparison.
pub const TRAFFIC_LOADS: [&str; 3] = ["poisson:0.00002", "poisson:0.0001", "poisson:0.0005"];

/// Run-length floor for the traffic exhibit: open-system runs last until
/// the *last arrival* drains, so the exhibit never runs jobs longer than
/// 1/5000 of the paper's budget (20k retired instructions per job).
pub const TRAFFIC_SCALE_FLOOR: u64 = 5_000;

/// The open-system job stream: the LLHH mix tripled to 12 jobs, so the
/// arrival process oversubscribes even the 4-context schemes'
/// multiprogramming limit and the admission queue genuinely decides who
/// waits.
pub fn traffic_workload() -> WorkloadRef {
    let llhh = mix("LLHH").expect("Table-2 catalog has LLHH");
    let specs = llhh
        .members
        .iter()
        .cycle()
        .take(llhh.members.len() * 3)
        .map(|name| {
            vliw_workloads::benchmark(name)
                .expect("mix members are Table-1 benchmarks")
                .clone()
        })
        .collect();
    WorkloadRef::custom("LLHH-x3", specs)
}

/// The traffic sweep (beyond the paper): [`TRAFFIC_SCHEMES`] under the
/// [`TRAFFIC_LOADS`] Poisson ladder on the 12-job [`traffic_workload`] —
/// latency-vs-offered-load curves, the open-system comparison the
/// ROADMAP's serving-stack north star calls for. `scale` is floored at
/// [`TRAFFIC_SCALE_FLOOR`].
pub fn traffic_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(TRAFFIC_SCHEMES)
        .workload(traffic_workload())
        .arrivals(
            TRAFFIC_LOADS
                .iter()
                .map(|s| s.parse().expect("ladder spellings are canonical")),
        )
        .scale(scale.max(TRAFFIC_SCALE_FLOOR))
}

/// Scheme of the fleet exhibit: the headline hybrid, judged at fleet scale.
pub const FLEET_SCHEME: &str = "2SC3";

/// Fleet ladder of the fleet exhibit (canonical
/// [`FleetSpec`](crate::plan::FleetSpec) spellings): a homogeneous scaling
/// arc (one, two, four paper machines) followed by the heterogeneous
/// `edge` mix under each dispatcher policy, so one table shows both how
/// tail latency falls with machine count and which policy wins when the
/// lanes differ.
pub const FLEET_LADDER: [&str; 6] = [
    "paper-4x4",
    "paper-4x4*2",
    "paper-4x4*4",
    "edge@round-robin",
    "edge@least-queued",
    "edge",
];

/// Arrival process of the fleet exhibit: the traffic exhibit's saturating
/// point — heavy enough to shed jobs on a single machine, light enough
/// that a four-machine fleet absorbs everything.
pub const FLEET_ARRIVALS: &str = "poisson:0.0005";

/// Run-length floor for the fleet exhibit (same open-system reasoning as
/// [`TRAFFIC_SCALE_FLOOR`]).
pub const FLEET_SCALE_FLOOR: u64 = TRAFFIC_SCALE_FLOOR;

/// The fleet sweep (beyond the paper): the [`FLEET_LADDER`] under one
/// saturating arrival process on the 12-job [`traffic_workload`], at the
/// headline [`FLEET_SCHEME`] — the dispatcher showdown the ROADMAP's
/// serving-stack north star calls for. `scale` is floored at
/// [`FLEET_SCALE_FLOOR`].
pub fn fleet_plan(scale: u64) -> Plan {
    Plan::new()
        .scheme(FLEET_SCHEME)
        .workload(traffic_workload())
        .fleets(
            FLEET_LADDER
                .iter()
                .map(|s| s.parse().expect("ladder spellings are canonical")),
        )
        .arrival(
            FLEET_ARRIVALS
                .parse()
                .expect("ladder spelling is canonical"),
        )
        .scale(scale.max(FLEET_SCALE_FLOOR))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Axis, FleetSpec, TrafficSpec};

    // Tiny-scale smoke tests: the full-size validations live in the
    // integration suite and the paper harness.

    fn run(plan: Plan, parallelism: usize) -> ResultSet {
        plan.run(&Session::with_parallelism(parallelism))
    }

    #[test]
    fn table1_smoke() {
        let rows = table1_rows(&run(table1_plan(20_000), 4));
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(
                r.ipcp >= r.ipcr * 0.95,
                "{}: perfect memory can't lose",
                r.name
            );
            assert!(r.ipcr > 0.1 && r.ipcp < 16.0, "{}", r.name);
        }
    }

    #[test]
    fn fig4_smoke_ordering() {
        let set = run(fig4_plan(20_000), 4);
        let mean = |s| {
            set.mean_over(Axis::Workload, &Cell::default().scheme(s))
                .unwrap()
        };
        let (st, smt2, smt4) = (mean("ST"), mean("1S"), mean("3SSS"));
        assert!(smt2 > st, "2T SMT {smt2:.2} must beat 1T {st:.2}");
        assert!(smt4 > smt2, "4T SMT {smt4:.2} must beat 2T {smt2:.2}");
    }

    #[test]
    fn fig6_smoke_smt_wins() {
        let d = fig6_data(&run(fig6_plan(20_000), 4));
        assert!(d.average() > 0.0, "SMT must beat CSMT on average");
    }

    #[test]
    fn trace_exhibit_decomposes_both_schemes() {
        let session = Session::with_parallelism(2);
        let plan = trace_plan(50_000);
        let set = plan.run(&session);
        let rows = trace_rows(&plan, &session);
        assert_eq!(set.scale(), 50_000, "above the floor, scale passes through");
        assert_eq!(rows.len(), 2);
        let schemes: Vec<String> = set
            .iter()
            .map(|(key, _)| key.scheme.name().to_string())
            .collect();
        assert_eq!(schemes, ["3SSS", "3CCC"]);
        for ((key, r), row) in set.iter().zip(&rows) {
            let scheme = key.scheme.name();
            assert_eq!(key.workload.name(), "LLHH");
            assert!(r.ipc() > 0.0);
            assert!(r.stats.stall_breakdown.total() > 0, "{scheme}: no stalls");
            assert!(row.merge_transitions > 0, "{scheme}: mask never changed");
            assert!(row.events > 0);
            // 4 threads on 4 contexts: fully occupied.
            assert!(
                row.occupancy > 0.99,
                "{scheme}: occupancy {}",
                row.occupancy
            );
        }
        // The floor engages below it.
        assert_eq!(trace_plan(1).jobs().len(), 2);
        assert_eq!(trace_plan(u64::MAX).run(&session).scale(), u64::MAX);
    }

    #[test]
    fn geometry_sweep_covers_every_machine_and_prices_merge_logic() {
        let set = geometry_plan(200_000).run(&Session::with_parallelism(4));
        assert_eq!(set.machines().len(), MachineSpec::presets().len());
        assert_eq!(set.schemes().len(), GEOMETRY_SCHEMES.len());
        for &machine in set.machines() {
            for scheme in GEOMETRY_SCHEMES {
                let cell = Cell::default().scheme(scheme).machine(machine);
                let mean_ipc = set.mean_over(Axis::Workload, &cell).unwrap();
                assert!(mean_ipc > 0.0, "{machine}/{scheme}");
                let transistors = set.merge_cost(&cell).unwrap().transistors;
                if scheme == "ST" {
                    assert_eq!(transistors, 0, "ST has no merge hardware");
                    assert!(set.ipc_per_area(&cell).is_none());
                } else {
                    assert!(transistors > 0, "{machine}/{scheme}");
                    assert!(set.ipc_per_area(&cell).unwrap() > 0.0);
                }
            }
        }
        // Cost follows geometry: 2 fat clusters price differently than the
        // paper's 4x4 for the same scheme.
        let t = |m: MachineSpec, s: &str| {
            set.merge_cost(&Cell::default().scheme(s).machine(m))
                .unwrap()
                .transistors
        };
        assert_ne!(
            t(MachineSpec::Paper4x4, "3SSS"),
            t(MachineSpec::Wide2x8, "3SSS")
        );
    }

    #[test]
    fn traffic_exhibit_sweeps_the_load_ladder() {
        let set = run(traffic_plan(100_000), 4);
        assert_eq!(
            set.scale(),
            100_000,
            "above the floor, scale passes through"
        );
        assert_eq!(set.len(), TRAFFIC_SCHEMES.len() * TRAFFIC_LOADS.len());
        for (key, r) in set.iter() {
            let (scheme, t) = (key.scheme.name(), &r.stats.traffic);
            assert_eq!(t.offered, 12, "{scheme}/{}: 12-job stream", key.traffic);
            assert_eq!(t.completed + t.shed, t.offered, "{scheme}");
            assert!(
                t.p50_sojourn <= t.p95_sojourn && t.p95_sojourn <= t.p99_sojourn,
                "{scheme}"
            );
            assert!(key.traffic.offered_rate() > 0.0);
            if t.completed > 0 {
                assert!(r.ipc() > 0.0, "{scheme}/{}", key.traffic);
            }
        }
        // Tail latency responds to offered load: for every scheme the
        // saturating point is no faster than the light one.
        for scheme in TRAFFIC_SCHEMES {
            let p95 = |load: &str| {
                let cell = Cell::default()
                    .scheme(scheme)
                    .traffic(load.parse().unwrap());
                set.get(&cell).unwrap().stats.traffic.p95_sojourn
            };
            let (light, heavy) = (p95(TRAFFIC_LOADS[0]), p95(TRAFFIC_LOADS[2]));
            assert!(
                heavy >= light,
                "{scheme}: heavy p95 {heavy} vs light {light}"
            );
        }
        // The floor engages below it.
        assert_eq!(traffic_plan(1).jobs().len(), 12);
        assert_eq!(run(traffic_plan(u64::MAX), 2).scale(), u64::MAX);
    }

    #[test]
    fn fleet_exhibit_climbs_the_ladder() {
        let set = run(fleet_plan(5_000), 4);
        assert_eq!(set.scale(), FLEET_SCALE_FLOOR);
        assert_eq!(set.len(), FLEET_LADDER.len());
        for ((key, r), spec) in set.iter().zip(FLEET_LADDER) {
            let fleet = key.fleet.unwrap();
            let t = &r.stats.traffic;
            let lanes = &r.stats.fleet.as_ref().unwrap().machines;
            assert_eq!(fleet.label(), spec, "ladder spellings are canonical");
            assert_eq!(t.offered, 12, "{spec}: 12-job stream");
            assert_eq!(t.completed + t.shed, t.offered, "{spec}: conservation");
            assert_eq!(lanes.len(), fleet.n_machines(), "{spec}");
            assert_eq!(lanes.iter().map(|m| m.routed).sum::<u64>(), t.offered);
            assert!(
                t.p50_sojourn <= t.p95_sojourn && t.p95_sojourn <= t.p99_sojourn,
                "{spec}"
            );
            assert!(r.ipc() > 0.0, "{spec}");
        }
        // More machines can only help the tail at fixed offered load.
        let at = |spec: &str| {
            let fleet: FleetSpec = spec.parse().unwrap();
            let t = &set
                .get(&Cell::default().fleet(&fleet))
                .unwrap()
                .stats
                .traffic;
            (fleet.n_machines(), t.p95_sojourn, t.shed)
        };
        let (one, one_p95, one_shed) = at(FLEET_LADDER[0]);
        let (four, four_p95, four_shed) = at(FLEET_LADDER[2]);
        assert_eq!((one, four), (1, 4));
        assert!(
            four_p95 <= one_p95,
            "4 machines p95 {four_p95} vs 1 machine {one_p95}"
        );
        assert!(four_shed <= one_shed);
    }

    #[test]
    fn fleet_data_renders_every_arrival_process() {
        // `paper fleet --arrivals SPEC` adds a second arrival process to
        // the ladder: its cells must be in the set the exhibit renders.
        let extra: TrafficSpec = "poisson:0.02".parse().unwrap();
        let set = fleet_plan(100_000)
            .arrival(extra)
            .run(&Session::with_parallelism(2));
        assert_eq!(set.len(), 2 * FLEET_LADDER.len());
        for traffic in [FLEET_ARRIVALS.parse().unwrap(), extra] {
            let fleets: Vec<String> = set
                .iter()
                .filter(|(key, _)| key.traffic == traffic)
                .map(|(key, _)| key.fleet.unwrap().label())
                .collect();
            assert_eq!(fleets, FLEET_LADDER, "{traffic}");
        }
    }
}
