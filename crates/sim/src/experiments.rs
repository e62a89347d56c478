//! Figure/table-level experiment drivers.
//!
//! Every exhibit is expressed the same way: a `*_plan` function builds
//! the declarative [`Plan`] (which schemes × workloads × memory models at
//! which scale), and a `*_data`/`*_rows` function projects the executed
//! [`ResultSet`] into the exhibit's shape by keyed lookup
//! ([`ResultSet::get`] with a [`Cell`]) or by walking its cells
//! ([`ResultSet::iter`]); [`trace_data`] runs its plan traced and projects
//! in one pass. `vliw-bench`'s exhibit table runs each plan once on one
//! [`Session`] for the `paper` binary, which formats the shapes and can
//! serialize the raw result sets via
//! [`ResultSet::to_json`]/[`ResultSet::to_csv`].
//!
//! All drivers take a `scale` divisor (1 = the paper's full
//! 100M-instruction runs).

use crate::plan::{
    Axis, Cell, FleetSpec, MachineSpec, MemoryModel, Plan, ResultSet, Session, TrafficSpec,
    WorkloadRef,
};
use crate::sched::SchedulerSpec;
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

/// Figure 4 data: per-mix and average IPC of SMT with 1, 2 and 4 hardware
/// threads.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// Mix labels in Table-2 order.
    pub mixes: Vec<&'static str>,
    /// IPC per mix for [single-thread, 2-thread SMT, 4-thread SMT].
    pub ipc: Vec<[f64; 3]>,
}

impl Fig4Data {
    /// Average IPC across mixes for each processor width.
    pub fn averages(&self) -> [f64; 3] {
        let mut acc = [0.0f64; 3];
        for row in &self.ipc {
            for k in 0..3 {
                acc[k] += row[k];
            }
        }
        acc.map(|x| x / self.ipc.len().max(1) as f64)
    }
}

/// Schemes of the Figure-4 sweep, in column order.
const FIG4_SCHEMES: [&str; 3] = ["ST", "1S", "3SSS"];

/// The Figure-4 sweep: 1/2/4-thread SMT over every Table-2 mix.
pub fn fig4_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(FIG4_SCHEMES)
        .workloads(table2_mixes())
        .scale(scale)
}

/// Project an executed [`fig4_plan`] sweep into Figure-4 shape.
pub fn fig4_data(set: &ResultSet) -> Fig4Data {
    let mixes: Vec<&'static str> = table2_mixes().iter().map(|m| m.name).collect();
    let ipc = mixes
        .iter()
        .map(|mix| {
            FIG4_SCHEMES.map(|s| {
                set.get(&Cell::new(s, mix))
                    .expect("fig4 grid covers every scheme x mix")
                    .ipc()
            })
        })
        .collect();
    Fig4Data { mixes, ipc }
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

/// Figure 10 data: IPC of every scheme on every mix.
#[derive(Debug, Clone)]
pub struct Fig10Data {
    /// Scheme names (catalog order: C4 ... 3SSS).
    pub schemes: Vec<String>,
    /// Mix labels.
    pub mixes: Vec<&'static str>,
    /// `ipc[scheme][mix]`.
    pub ipc: Vec<Vec<f64>>,
}

impl Fig10Data {
    /// IPC of `scheme` averaged over mixes.
    pub fn average_of(&self, scheme: &str) -> Option<f64> {
        let i = self.schemes.iter().position(|s| s == scheme)?;
        Some(self.ipc[i].iter().sum::<f64>() / self.ipc[i].len().max(1) as f64)
    }

    /// All per-scheme averages, in scheme order.
    pub fn averages(&self) -> Vec<(String, f64)> {
        self.schemes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    s.clone(),
                    self.ipc[i].iter().sum::<f64>() / self.ipc[i].len().max(1) as f64,
                )
            })
            .collect()
    }
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

/// Project an executed [`fig10_plan`] sweep into Figure-10 shape.
pub fn fig10_data(set: &ResultSet) -> Fig10Data {
    let schemes: Vec<String> = set.schemes().iter().map(|s| s.name().to_string()).collect();
    let mixes: Vec<&'static str> = table2_mixes().iter().map(|m| m.name).collect();
    let ipc = schemes
        .iter()
        .map(|s| {
            mixes
                .iter()
                .map(|m| {
                    set.get(&Cell::new(s, m))
                        .expect("fig10 grid covers every scheme x mix")
                        .ipc()
                })
                .collect()
        })
        .collect();
    Fig10Data {
        schemes,
        mixes,
        ipc,
    }
}

/// Scheme used by the scheduler-ablation sweep: 2-thread SMT (`1S`), so
/// the nine 4-thread mixes oversubscribe the contexts and the OS policy
/// actually decides who runs.
pub const SCHED_ABLATION_SCHEME: &str = "1S";

/// The scheduler-ablation sweep (beyond the paper): every built-in OS
/// policy over every Table-2 mix on the oversubscribed
/// [`SCHED_ABLATION_SCHEME`] machine. Read back per-policy with
/// [`ResultSet::get`] / [`sched_ablation_means`].
pub fn sched_ablation_plan(scale: u64) -> Plan {
    Plan::new()
        .scheme(SCHED_ABLATION_SCHEME)
        .workloads(table2_mixes())
        .schedulers(SchedulerSpec::all())
        .scale(scale)
}

/// Project an executed [`sched_ablation_plan`] sweep into per-policy mean
/// IPC, plan order.
pub fn sched_ablation_means(set: &ResultSet) -> Vec<(SchedulerSpec, f64)> {
    set.schedulers()
        .iter()
        .map(|&spec| {
            let cell = Cell::default()
                .scheme(SCHED_ABLATION_SCHEME)
                .scheduler(spec);
            let mean = set
                .mean_over(Axis::Workload, &cell)
                .expect("ablation grid covers every policy");
            (spec, mean)
        })
        .collect()
}

/// Schemes of the geometry sweep: the paper's reference points (1-thread,
/// 4-thread CSMT, 4-thread SMT) plus the headline hybrid.
pub const GEOMETRY_SCHEMES: [&str; 4] = ["ST", "3CCC", "2SC3", "3SSS"];

/// One row of the geometry exhibit: a (machine, scheme) pair with its
/// mean IPC and merge-control hardware cost on that machine's actual
/// geometry.
#[derive(Debug, Clone)]
pub struct GeometryRow {
    /// The machine geometry simulated (and priced).
    pub machine: MachineSpec,
    /// Scheme name.
    pub scheme: String,
    /// Mean IPC across the sweep's mixes, real memory.
    pub mean_ipc: f64,
    /// Merge-control transistors for this scheme on this geometry.
    pub transistors: u64,
    /// Merge-path gate delays for this scheme on this geometry.
    pub gate_delays: u32,
    /// Mean IPC per kilotransistor of merge-control logic (`None` for
    /// schemes with no merge hardware, i.e. `ST`).
    pub ipc_per_ktrans: Option<f64>,
}

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

/// Project an executed [`geometry_plan`] sweep into exhibit rows, machine
/// outermost (preset order), schemes in [`GEOMETRY_SCHEMES`] order.
pub fn geometry_data(set: &ResultSet) -> Vec<GeometryRow> {
    let mut rows = Vec::new();
    for &machine in set.machines() {
        for scheme in set.schemes() {
            let cell = Cell::default().scheme(scheme.name()).machine(machine);
            let cost = set
                .merge_cost(&cell)
                .expect("geometry grid prices every scheme x machine");
            rows.push(GeometryRow {
                machine,
                scheme: scheme.name().to_string(),
                mean_ipc: set
                    .mean_over(Axis::Workload, &cell)
                    .expect("geometry grid covers every scheme x machine"),
                transistors: cost.transistors,
                gate_delays: cost.gate_delays,
                ipc_per_ktrans: set.ipc_per_area(&cell),
            });
        }
    }
    rows
}

/// One row of the trace exhibit: the cycle-level decomposition of one
/// grid cell's run, derived from its full event trace.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Cell label (scheme, plus any non-default axis values).
    pub label: String,
    /// Workload of the cell.
    pub workload: String,
    /// Executed cycles.
    pub cycles: u64,
    /// Cell IPC.
    pub ipc: f64,
    /// Stall cycles by kind, from the trace's stall events (equals the
    /// run's `RunStats::stall_breakdown` — the conservation invariant).
    pub stalls: vliw_trace::StallBreakdown,
    /// Cross-context thread migrations.
    pub migrations: u64,
    /// Merge/split transitions of the issuing-context mask.
    pub merge_transitions: u64,
    /// Fraction of context-cycles with a thread installed.
    pub occupancy: f64,
    /// Events in the cell's trace.
    pub events: usize,
}

/// Trace-exhibit data: one row per grid cell, grid order.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Run-length floor actually used (see [`trace_plan`]).
    pub scale: u64,
    /// Per-cell rows.
    pub rows: Vec<TraceRow>,
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

/// Execute a trace plan and project every cell's event stream into
/// [`TraceRow`]s (stall decomposition, migrations, merge/split dynamics,
/// occupancy). Works on any plan — the `paper` binary passes
/// [`trace_plan`] with the CLI's scheduler/machine axes applied.
pub fn trace_data(plan: &Plan, session: &Session) -> (ResultSet, TraceData) {
    let mut rows = Vec::new();
    let set = plan.run_traced(session, |key, result, trace| {
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
        let occupied: u64 = vliw_trace::occupancy_timeline(trace)
            .iter()
            .map(|s| s.len())
            .sum();
        let ctx_cycles = result.stats.cycles * u64::from(trace.n_contexts);
        rows.push(TraceRow {
            label,
            workload: key.workload.name().to_string(),
            cycles: result.stats.cycles,
            ipc: result.ipc(),
            stalls: vliw_trace::StallBreakdown::from_events(&trace.events),
            migrations: result.stats.migrations,
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
        });
    });
    let data = TraceData {
        scale: set.scale(),
        rows,
    };
    (set, data)
}

/// Schemes of the traffic exhibit: the paper's reference points (1-thread,
/// 4-thread CSMT, 4-thread SMT) plus the headline hybrid — the same set
/// the geometry sweep compares, now judged by tail latency instead of
/// throughput.
pub const TRAFFIC_SCHEMES: [&str; 4] = GEOMETRY_SCHEMES;

/// Offered-load ladder of the traffic exhibit (canonical [`TrafficSpec`]
/// spellings): light, moderate and saturating Poisson arrivals. The heavy
/// point oversubscribes every scheme's admission limit, so the shed column
/// becomes part of the comparison.
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

/// One row of the traffic exhibit: a (scheme, offered load) pair with its
/// admission outcome and sojourn-latency tail.
#[derive(Debug, Clone)]
pub struct TrafficRow {
    /// Scheme name.
    pub scheme: String,
    /// Arrival process of the cell.
    pub traffic: TrafficSpec,
    /// Long-run offered load, arrivals per cycle.
    pub rate: f64,
    /// Jobs that arrived.
    pub offered: u64,
    /// Jobs admitted and run to completion.
    pub completed: u64,
    /// Jobs dropped at the full admission queue.
    pub shed: u64,
    /// Median sojourn (arrival → completion), cycles.
    pub p50: u64,
    /// 95th-percentile sojourn, cycles.
    pub p95: u64,
    /// 99th-percentile sojourn, cycles.
    pub p99: u64,
    /// Mean admission-queue depth over the run.
    pub mean_queue_depth: f64,
    /// Cell IPC (throughput under this load).
    pub ipc: f64,
}

/// Traffic-exhibit data: one row per (scheme, load), schemes outermost in
/// [`TRAFFIC_SCHEMES`] order, loads in plan order.
#[derive(Debug, Clone)]
pub struct TrafficData {
    /// Run-length floor actually used (see [`traffic_plan`]).
    pub scale: u64,
    /// Per-cell rows.
    pub rows: Vec<TrafficRow>,
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

/// Project every cell of an executed [`traffic_plan`] sweep into exhibit
/// rows, in grid order (schemes outermost, loads in plan order). Works on
/// any plan whose traffic axis is explicit — the `paper` binary passes
/// [`traffic_plan`] with the CLI's axes applied.
pub fn traffic_data(set: &ResultSet) -> TrafficData {
    let rows = set
        .iter()
        .map(|(key, r)| {
            let t = &r.stats.traffic;
            TrafficRow {
                scheme: key.scheme.name().to_string(),
                traffic: key.traffic,
                rate: key.traffic.offered_rate(),
                offered: t.offered,
                completed: t.completed,
                shed: t.shed,
                p50: t.p50_sojourn,
                p95: t.p95_sojourn,
                p99: t.p99_sojourn,
                mean_queue_depth: t.mean_queue_depth,
                ipc: r.ipc(),
            }
        })
        .collect();
    TrafficData {
        scale: set.scale(),
        rows,
    }
}

/// Scheme of the fleet exhibit: the headline hybrid, judged at fleet scale.
pub const FLEET_SCHEME: &str = "2SC3";

/// Fleet ladder of the fleet exhibit (canonical [`FleetSpec`] spellings):
/// a homogeneous scaling arc (one, two, four paper machines) followed by
/// the heterogeneous `edge` mix under each dispatcher policy, so one table
/// shows both how tail latency falls with machine count and which policy
/// wins when the lanes differ.
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

/// One row of the fleet exhibit: a fleet spelling with its routing split,
/// admission outcome and sojourn-latency tail.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Canonical fleet spelling.
    pub fleet: FleetSpec,
    /// Machines in the fleet.
    pub machines: usize,
    /// Dispatcher policy name.
    pub dispatcher: String,
    /// Arrival process driving the cell.
    pub traffic: TrafficSpec,
    /// Jobs that arrived fleet-wide.
    pub offered: u64,
    /// Jobs admitted and run to completion, summed over lanes.
    pub completed: u64,
    /// Jobs dropped at full per-lane admission queues.
    pub shed: u64,
    /// Per-machine routed counts, in fleet order.
    pub routed: Vec<u64>,
    /// Median fleet-wide sojourn (arrival → completion), cycles.
    pub p50: u64,
    /// 95th-percentile fleet-wide sojourn, cycles.
    pub p95: u64,
    /// 99th-percentile fleet-wide sojourn, cycles.
    pub p99: u64,
    /// Fleet IPC (summed ops over the longest lane's span).
    pub ipc: f64,
}

/// Fleet-exhibit data: one row per fleet cell, in grid order (the
/// [`FLEET_LADDER`] outermost, then arrival processes).
#[derive(Debug, Clone)]
pub struct FleetData {
    /// Run-length floor actually used (see [`fleet_plan`]).
    pub scale: u64,
    /// Per-fleet rows.
    pub rows: Vec<FleetRow>,
}

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

/// Project every cell of an executed [`fleet_plan`] sweep into exhibit
/// rows, in grid order. Works on any plan whose fleet axis is explicit —
/// the `paper` binary passes [`fleet_plan`] with the CLI's axes applied, so
/// `--arrivals` adds a second arrival process whose cells get rows too.
pub fn fleet_data(set: &ResultSet) -> FleetData {
    let rows = set
        .iter()
        .map(|(key, r)| {
            let fleet = key.fleet.expect("fleet grid cells run on a fleet");
            let t = &r.stats.traffic;
            let fs = r
                .stats
                .fleet
                .as_ref()
                .expect("fleet cells always carry FleetStats");
            FleetRow {
                machines: fleet.n_machines(),
                dispatcher: fleet.dispatcher.name().to_string(),
                fleet,
                traffic: key.traffic,
                offered: t.offered,
                completed: t.completed,
                shed: t.shed,
                routed: fs.machines.iter().map(|m| m.routed).collect(),
                p50: t.p50_sojourn,
                p95: t.p95_sojourn,
                p99: t.p99_sojourn,
                ipc: r.ipc(),
            }
        })
        .collect();
    FleetData {
        scale: set.scale(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let d = fig4_data(&run(fig4_plan(20_000), 4));
        let [st, smt2, smt4] = d.averages();
        assert!(smt2 > st, "2T SMT {smt2:.2} must beat 1T {st:.2}");
        assert!(smt4 > smt2, "4T SMT {smt4:.2} must beat 2T {smt2:.2}");
    }

    #[test]
    fn fig6_smoke_smt_wins() {
        let d = fig6_data(&run(fig6_plan(20_000), 4));
        assert!(d.average() > 0.0, "SMT must beat CSMT on average");
    }

    #[test]
    fn sched_ablation_covers_every_policy() {
        let set = sched_ablation_plan(100_000).run(&Session::with_parallelism(4));
        let means = sched_ablation_means(&set);
        assert_eq!(means.len(), SchedulerSpec::all().len());
        for (spec, ipc) in &means {
            assert!(*ipc > 0.0, "{spec}: mean IPC must be positive");
        }
    }

    #[test]
    fn trace_exhibit_decomposes_both_schemes() {
        let session = Session::with_parallelism(2);
        let (_, d) = trace_data(&trace_plan(50_000), &session);
        assert_eq!(d.scale, 50_000, "above the floor, scale passes through");
        assert_eq!(d.rows.len(), 2);
        assert_eq!(d.rows[0].label, "3SSS");
        assert_eq!(d.rows[1].label, "3CCC");
        for r in &d.rows {
            assert_eq!(r.workload, "LLHH");
            assert!(r.ipc > 0.0);
            assert!(r.stalls.total() > 0, "{}: no stalls traced", r.label);
            assert!(r.merge_transitions > 0, "{}: mask never changed", r.label);
            assert!(r.events > 0);
            // 4 threads on 4 contexts: fully occupied.
            assert!(r.occupancy > 0.99, "{}: occupancy {}", r.label, r.occupancy);
        }
        // The floor engages below it.
        assert_eq!(trace_plan(1).jobs().len(), 2);
        assert_eq!(
            trace_data(&trace_plan(u64::MAX), &session).1.scale,
            u64::MAX
        );
    }

    #[test]
    fn geometry_sweep_covers_every_machine_and_prices_merge_logic() {
        let set = geometry_plan(200_000).run(&Session::with_parallelism(4));
        let rows = geometry_data(&set);
        assert_eq!(
            rows.len(),
            MachineSpec::presets().len() * GEOMETRY_SCHEMES.len()
        );
        for r in &rows {
            assert!(r.mean_ipc > 0.0, "{}/{}", r.machine, r.scheme);
            if r.scheme == "ST" {
                assert_eq!(r.transistors, 0, "ST has no merge hardware");
                assert!(r.ipc_per_ktrans.is_none());
            } else {
                assert!(r.transistors > 0, "{}/{}", r.machine, r.scheme);
                assert!(r.ipc_per_ktrans.unwrap() > 0.0);
            }
        }
        // Cost follows geometry: 2 fat clusters price differently than the
        // paper's 4x4 for the same scheme.
        let t = |m: MachineSpec, s: &str| {
            rows.iter()
                .find(|r| r.machine == m && r.scheme == s)
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
        let d = traffic_data(&run(traffic_plan(100_000), 4));
        assert_eq!(d.scale, 100_000, "above the floor, scale passes through");
        assert_eq!(d.rows.len(), TRAFFIC_SCHEMES.len() * TRAFFIC_LOADS.len());
        for r in &d.rows {
            assert_eq!(r.offered, 12, "{}/{}: 12-job stream", r.scheme, r.traffic);
            assert_eq!(r.completed + r.shed, r.offered, "{}", r.scheme);
            assert!(r.p50 <= r.p95 && r.p95 <= r.p99, "{}", r.scheme);
            assert!(r.rate > 0.0);
            if r.completed > 0 {
                assert!(r.ipc > 0.0, "{}/{}", r.scheme, r.traffic);
            }
        }
        // Tail latency responds to offered load: for every scheme the
        // saturating point is no faster than the light one.
        for scheme in TRAFFIC_SCHEMES {
            let of = |spec: &str| {
                d.rows
                    .iter()
                    .find(|r| r.scheme == scheme && r.traffic.to_string() == spec)
                    .unwrap()
            };
            let light = of(TRAFFIC_LOADS[0]);
            let heavy = of(TRAFFIC_LOADS[2]);
            assert!(
                heavy.p95 >= light.p95,
                "{scheme}: heavy p95 {} vs light {}",
                heavy.p95,
                light.p95
            );
        }
        // The floor engages below it.
        assert_eq!(traffic_plan(1).jobs().len(), 12);
        assert_eq!(
            traffic_data(&run(traffic_plan(u64::MAX), 2)).scale,
            u64::MAX
        );
    }

    #[test]
    fn fleet_exhibit_climbs_the_ladder() {
        let d = fleet_data(&run(fleet_plan(5_000), 4));
        assert_eq!(d.scale, FLEET_SCALE_FLOOR);
        assert_eq!(d.rows.len(), FLEET_LADDER.len());
        for (r, spec) in d.rows.iter().zip(FLEET_LADDER) {
            assert_eq!(r.fleet.label(), spec, "ladder spellings are canonical");
            assert_eq!(r.offered, 12, "{spec}: 12-job stream");
            assert_eq!(r.completed + r.shed, r.offered, "{spec}: conservation");
            assert_eq!(r.routed.len(), r.machines, "{spec}");
            assert_eq!(r.routed.iter().sum::<u64>(), r.offered, "{spec}");
            assert!(r.p50 <= r.p95 && r.p95 <= r.p99, "{spec}");
            assert!(r.ipc > 0.0, "{spec}");
        }
        // More machines can only help the tail at fixed offered load.
        let one = &d.rows[0];
        let four = &d.rows[2];
        assert_eq!(four.machines, 4);
        assert!(
            four.p95 <= one.p95,
            "4 machines p95 {} vs 1 machine {}",
            four.p95,
            one.p95
        );
        assert!(four.shed <= one.shed);
    }

    #[test]
    fn fleet_data_renders_every_arrival_process() {
        // `paper fleet --arrivals SPEC` adds a second arrival process to
        // the ladder: its cells must get rows too.
        let extra: TrafficSpec = "poisson:0.02".parse().unwrap();
        let set = fleet_plan(100_000)
            .arrival(extra)
            .run(&Session::with_parallelism(2));
        let d = fleet_data(&set);
        assert_eq!(d.rows.len(), 2 * FLEET_LADDER.len());
        for traffic in [FLEET_ARRIVALS.parse().unwrap(), extra] {
            let fleets: Vec<String> = d
                .rows
                .iter()
                .filter(|r| r.traffic == traffic)
                .map(|r| r.fleet.label())
                .collect();
            assert_eq!(fleets, FLEET_LADDER, "{traffic}");
        }
    }

    #[test]
    fn data_projections_agree_with_keyed_lookup() {
        let set = fig4_plan(50_000).run(&Session::with_parallelism(2));
        let d = fig4_data(&set);
        for (i, mix) in d.mixes.iter().enumerate() {
            for (k, scheme) in FIG4_SCHEMES.iter().enumerate() {
                assert_eq!(
                    d.ipc[i][k],
                    set.get(&Cell::new(scheme, mix)).unwrap().ipc(),
                    "{scheme}/{mix}"
                );
            }
        }
    }
}
