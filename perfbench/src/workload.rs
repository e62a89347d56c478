//! The three workloads and their untraced (end-to-end) iteration.
//!
//! An iteration is what a user of the simulator waits for: set-up (plan
//! expansion and the cold compile of every image the grid needs), the
//! simulation of every cell with at most `workers` threads, and the export
//! of the results. Set-up warms the session's `ImageCache` through
//! `ImageCache::get_spec`, so the simulate phase finds every image built.

use crate::check::{self, CellShape, Digest};
use std::collections::HashSet;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use vliw_isa::MachineConfig;
use vliw_sim::plan::{FleetSpec, JobKey, MemoryModel, Plan, ResultSet, Session, WorkloadRef};
use vliw_sim::{experiments, runner, RunResult, SimConfig};
use vliw_workloads::{benchmark, mixes, BenchmarkSpec, WorkloadMix};

/// The paper's simulation seed, used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// A second seed, kept out of tuning, on which later claims are re-checked.
pub const HELD_OUT_SEED: u64 = 2009;

/// `paper-all` runs the `paper all` plans at this scale.
pub const PAPER_SCALE: u64 = 2_000;
/// `far-memory` cells: schemes x Table-2 mixes x miss penalties (cycles).
const FAR_SCHEMES: [&str; 4] = ["ST", "1S", "2SC3", "3SSS"];
const FAR_MIXES: [&str; 2] = ["LLLL", "LLMM"];
pub const FAR_PENALTIES: [u32; 2] = [200, 800];
const FAR_SCALE: u64 = 400;
/// `fleet-stream`: jobs in the stream, their scale (instruction budget
/// 100M / scale), and the Poisson arrival rate.
const STREAM_JOBS: usize = 2_000;
const STREAM_SCALE: u64 = 50_000;
const STREAM_ARRIVALS: &str = "poisson:0.0008";
const STREAM_FLEETS: [&str; 2] = ["paper-4x4*4@least-queued", "edge"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperAll,
    FarMemory,
    FleetStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperAll,
        Workload::FarMemory,
        Workload::FleetStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAll => "paper-all",
            Workload::FarMemory => "far-memory",
            Workload::FleetStream => "fleet-stream",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The named plans of a plan-driven workload, each with its scale.
    /// `far-memory` has none: plans cannot set miss penalties, so its
    /// cells go through `runner::run_mix`.
    pub fn plans(self, seed: u64) -> Vec<PlanEntry> {
        let entry = |id: &'static str, plan: Plan, scale: u64| PlanEntry {
            id,
            plan: seeded(plan, seed),
            scale,
        };
        match self {
            Workload::PaperAll => {
                let s = PAPER_SCALE;
                let open = s.max(experiments::TRAFFIC_SCALE_FLOOR);
                let fleet = s.max(experiments::FLEET_SCALE_FLOOR);
                vec![
                    entry("table1", experiments::table1_plan(s), s),
                    entry("fig4", experiments::fig4_plan(s), s),
                    entry("fig6", experiments::fig6_plan(s), s),
                    entry("fig10", experiments::fig10_plan(s), s),
                    entry("geometry", experiments::geometry_plan(s), s),
                    entry("traffic", experiments::traffic_plan(open), open),
                    entry("fleet", experiments::fleet_plan(fleet), fleet),
                ]
            }
            Workload::FarMemory => Vec::new(),
            Workload::FleetStream => {
                let arrivals = STREAM_ARRIVALS.parse().expect("canonical traffic spelling");
                let fleets: Vec<FleetSpec> = STREAM_FLEETS
                    .iter()
                    .map(|f| f.parse().expect("canonical fleet spelling"))
                    .collect();
                let base = || {
                    Plan::new()
                        .scheme("2SC3")
                        .workload(stream_workload())
                        .arrival(arrivals)
                        .scale(STREAM_SCALE)
                };
                vec![
                    entry("fleets", base().fleets(fleets), STREAM_SCALE),
                    entry(
                        "open",
                        base().scheduler(vliw_sim::SchedulerSpec::Icount),
                        STREAM_SCALE,
                    ),
                ]
            }
        }
    }

    /// Mix members and memory system from which the layer benchmarks
    /// capture their inputs.
    pub fn capture(self) -> ([&'static str; 4], vliw_mem::MemConfig) {
        let paper = vliw_mem::MemConfig::paper_baseline();
        match self {
            Workload::PaperAll => (mix("LLHH").members, paper),
            Workload::FarMemory => (mix("LLMM").members, far_memory(FAR_PENALTIES[1])),
            Workload::FleetStream => {
                let b = vliw_workloads::all_benchmarks();
                ([&*b[0].name, &*b[1].name, &*b[2].name, &*b[3].name], paper)
            }
        }
    }
}

/// `plan` under `seed`. The default seed leaves the plan's seed unset, so
/// the export bytes equal `paper --json`'s.
pub fn seeded(plan: Plan, seed: u64) -> Plan {
    if seed == DEFAULT_SEED {
        plan
    } else {
        plan.seed(seed)
    }
}

fn mix(name: &str) -> &'static WorkloadMix {
    mixes::mix(name).expect("Table-2 mix")
}

/// The paper's memory system with both miss penalties raised.
pub fn far_memory(penalty: u32) -> vliw_mem::MemConfig {
    let mut mem = vliw_mem::MemConfig::paper_baseline();
    mem.icache.miss_penalty = penalty;
    mem.dcache.miss_penalty = penalty;
    mem
}

/// The `fleet-stream` job stream: the Table-1 benchmarks in rotation.
fn stream_workload() -> WorkloadRef {
    let specs = vliw_workloads::all_benchmarks()
        .iter()
        .cycle()
        .take(STREAM_JOBS)
        .cloned()
        .collect();
    WorkloadRef::custom("stream", specs)
}

pub struct PlanEntry {
    pub id: &'static str,
    pub plan: Plan,
    pub scale: u64,
}

/// One grid cell as the benchmark runs it.
pub struct CellSpec {
    pub cfg: SimConfig,
    pub workload: WorkloadRef,
    pub members: Vec<&'static BenchmarkSpec>,
    pub fleet: Option<FleetSpec>,
    /// The Table-2 mix of a `far-memory` cell (run through `run_mix`).
    pub mix: Option<&'static WorkloadMix>,
}

impl CellSpec {
    pub fn shape(&self) -> CellShape {
        CellShape {
            threads: self.members.len(),
            contexts: self.cfg.n_contexts() as u64,
            open: !self.cfg.traffic.is_closed(),
            fleet: self.fleet.is_some(),
        }
    }

    /// Every machine geometry the cell compiles for: the reference
    /// geometry plus each fleet member's.
    fn machines(&self) -> Vec<MachineConfig> {
        let mut out = vec![self.cfg.machine.clone()];
        if let Some(f) = &self.fleet {
            out.extend(f.machines().into_iter().map(|m| m.config()));
        }
        out
    }
}

fn members(w: &WorkloadRef) -> Vec<&'static BenchmarkSpec> {
    w.member_names()
        .into_iter()
        .map(|n| benchmark(n).expect("workload members are Table-1 benchmarks"))
        .collect()
}

/// The simulator configuration of one plan cell, as `Plan::run` builds it.
pub fn config_for(key: &JobKey, scale: u64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(key.scheme.scheme().clone(), scale)
        .with_machine(key.machine)
        .with_traffic(key.traffic)
        .with_scheduler(key.scheduler);
    cfg.seed = seed;
    if key.memory == MemoryModel::Perfect {
        cfg = cfg.with_perfect_memory();
    }
    cfg
}

/// Expand a workload into its cells (plan order for plan workloads).
pub fn cells(workload: Workload, plans: &[PlanEntry], seed: u64) -> Vec<CellSpec> {
    if workload == Workload::FarMemory {
        let mut out = Vec::new();
        for penalty in FAR_PENALTIES {
            for scheme in FAR_SCHEMES {
                for m in FAR_MIXES {
                    let mut cfg = SimConfig::paper(
                        vliw_core::catalog::by_name(scheme).expect("catalog scheme"),
                        FAR_SCALE,
                    );
                    cfg.mem = far_memory(penalty);
                    cfg.seed = seed;
                    let wl = WorkloadRef::from(mix(m));
                    out.push(CellSpec {
                        members: members(&wl),
                        cfg,
                        workload: wl,
                        fleet: None,
                        mix: Some(mix(m)),
                    });
                }
            }
        }
        return out;
    }
    plans
        .iter()
        .flat_map(|p| {
            p.plan.jobs().into_iter().map(move |key| CellSpec {
                cfg: config_for(&key, p.scale, seed),
                members: members(&key.workload),
                fleet: key.fleet.clone(),
                workload: key.workload,
                mix: None,
            })
        })
        .collect()
}

/// Every distinct `(benchmark, machine)` image the cells need, in first-use
/// order.
pub fn images(cells: &[CellSpec]) -> Vec<(&'static BenchmarkSpec, MachineConfig)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for c in cells {
        for m in c.machines() {
            for &spec in &c.members {
                if seen.insert((&*spec.name, m.clone())) {
                    out.push((spec, m.clone()));
                }
            }
        }
    }
    out
}

/// The deterministic outcome of one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Totals {
    pub cells: u64,
    pub cycles: u64,
    pub instrs: u64,
    pub digest: u64,
    pub export_bytes: u64,
}

pub struct Iteration {
    pub setup_s: f64,
    pub sim_s: f64,
    pub wall_s: f64,
    pub totals: Totals,
    /// Cells that errored, panicked or failed the output check.
    pub failed: u64,
    pub failures: Vec<String>,
    pub results: Vec<RunResult>,
    pub sets: Vec<ResultSet>,
}

/// Set-up: a fresh session, plan expansion and the cold compile of every
/// image.
pub fn setup(
    workload: Workload,
    seed: u64,
    workers: usize,
) -> Result<(Session, Vec<PlanEntry>, Vec<CellSpec>), String> {
    let session = Session::with_parallelism(workers);
    let plans = workload.plans(seed);
    let cells = cells(workload, &plans, seed);
    let images = images(&cells);
    for (spec, machine) in &images {
        session
            .cache()
            .get_spec(spec, machine)
            .map_err(|e| format!("compiling {} failed: {e}", spec.name))?;
    }
    Ok((session, plans, cells))
}

/// One untraced iteration: set-up, simulate, export, then the output
/// check (outside the timed phases).
pub fn run_iteration(workload: Workload, seed: u64, workers: usize) -> Result<Iteration, String> {
    let t0 = Instant::now();
    let (session, plans, cells) = setup(workload, seed, workers)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let simulated = catch_unwind(AssertUnwindSafe(|| {
        simulate(workload, &session, &plans, &cells)
    }));
    let sim_s = t1.elapsed().as_secs_f64();
    let (sets, mut results) = simulated.map_err(|_| "the simulator panicked".to_string())?;
    if !sets.is_empty() {
        results = sets
            .iter()
            .flat_map(|s| s.results().iter().cloned().map(Ok))
            .collect();
    }

    let mut digest = Digest::new();
    let mut export_bytes = 0u64;
    for set in &sets {
        let json = set.to_json();
        let csv = set.to_csv();
        digest.write(json.as_bytes());
        export_bytes += (json.len() + csv.len()) as u64;
        black_box(csv);
    }
    if sets.is_empty() {
        // No result sets (`far-memory`): the export is the canonical
        // rendering of every cell.
        for r in results.iter().flatten() {
            let line = check::canonical(&r.stats);
            digest.write(line.as_bytes());
            export_bytes += line.len() as u64;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    if results.len() != cells.len() {
        failures.push(format!(
            "{} results for {} cells",
            results.len(),
            cells.len()
        ));
    }
    for (p, set) in plans.iter().zip(&sets) {
        if set.scale() != p.scale {
            failures.push(format!(
                "{}: ran at scale {} not {}",
                p.id,
                set.scale(),
                p.scale
            ));
        }
    }
    let mut ok = Vec::with_capacity(results.len());
    let mut totals = Totals {
        cells: results.len() as u64,
        cycles: 0,
        instrs: 0,
        digest: digest.value(),
        export_bytes,
    };
    for (i, (cell, r)) in cells.iter().zip(results).enumerate() {
        match r.and_then(|r| check::check_cell(&r.stats, cell.shape()).map(|()| r)) {
            Ok(r) => {
                totals.cycles += r.stats.cycles;
                totals.instrs += r.stats.total_instrs;
                ok.push(r);
            }
            Err(e) => failures.push(format!("cell {i}: {e}")),
        }
    }
    Ok(Iteration {
        setup_s,
        sim_s,
        wall_s,
        failed: failures.len() as u64,
        failures,
        totals,
        results: ok,
        sets,
    })
}

type CellResult = Result<RunResult, String>;

/// The simulate phase: `Plan::run` for plan workloads (their cell results
/// are read from the sets afterwards), `run_mix` over the runner's fan-out
/// for `far-memory`.
fn simulate(
    workload: Workload,
    session: &Session,
    plans: &[PlanEntry],
    cells: &[CellSpec],
) -> (Vec<ResultSet>, Vec<CellResult>) {
    if workload == Workload::FarMemory {
        let refs: Vec<&CellSpec> = cells.iter().collect();
        let results = runner::run_jobs(
            refs,
            |c| {
                runner::run_mix(
                    session.cache(),
                    &c.cfg,
                    c.mix.expect("far-memory cells name a mix"),
                )
                .map_err(|e| e.to_string())
            },
            session.parallelism(),
        );
        return (Vec::new(), results);
    }
    let sets = plans.iter().map(|p| p.plan.run(session)).collect();
    (sets, Vec::new())
}
