//! Declarative experiment plans: typed sweeps, keyed result sets, exhibits.
//!
//! The paper's exhibits are one grid read back in several ways. A [`Plan`]
//! names the values of each [`Axis`] — scheme ▸ workload ▸ scheduler ▸
//! machine ▸ fleet ▸ traffic ▸ memory, outermost first — and
//! [`Plan::run`] expands them row-major into a deterministic job list and
//! fans it out over rayon:
//!
//! ```
//! use vliw_sim::plan::{Cell, MemoryModel, Plan, Session};
//!
//! let set = Plan::new()
//!     .schemes(["ST", "2SC3"])
//!     .workload("LLHH")
//!     .axis(MemoryModel::Real)
//!     .scale(100_000)
//!     .run(&Session::with_parallelism(2));
//! let ipc = set.get(&Cell::new("2SC3", "LLHH")).unwrap().ipc();
//! assert!(ipc > 0.0);
//! ```
//!
//! The returned [`ResultSet`] has one keyed lookup, [`ResultSet::get`]: a
//! [`Cell`] names a value per axis, and every axis it leaves unset resolves
//! to the set's first value. One aggregation, [`ResultSet::mean_over`],
//! averages IPC along an axis, and [`ResultSet::merge_cost`] /
//! [`ResultSet::ipc_per_area`] price a cell's merge-control hardware for
//! its actual geometry via `vliw-hwcost`. Exports are hand-rolled JSON and
//! CSV whose bytes are independent of the worker count.
//!
//! Only schemes and workloads are required. A plan that never names a
//! scheduler, machine, fleet, arrival process or memory model runs under
//! the defaults ([`SchedulerSpec::PaperRandom`], the paper's §5.1 machine,
//! one machine rather than a fleet, closed arrivals, real memory) and
//! serializes exactly as before that axis existed; naming one adds its key
//! column/field to the exports, and for traffic and fleet its metric group
//! too (see [`Columns`]). Compiled images are cached per `(benchmark,
//! machine)`, so geometries never share code. Keys are typed: [`SchemeRef`]
//! and [`WorkloadRef`] carry owned (`Arc<str>`) names, so custom merge
//! schemes and generated workloads sweep exactly like the paper's catalog
//! and Table-2 mixes.

use crate::config::SimConfig;
use crate::core::CoreModel;
use crate::os::Machine;
use crate::runner::{self, CachedImage, ImageCache, RunResult};
use crate::sched::SchedulerSpec;
use crate::stats::RunStats;
use crate::thread::SoftThread;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use vliw_core::{catalog, MergeScheme, PriorityPolicy};
use vliw_fleet::{FleetStats, MachineLaneStats};
use vliw_hwcost::{scheme_cost, SchemeCost};
use vliw_telemetry::{Progress, Registry};
use vliw_trace::{Trace, TraceSpec};
use vliw_workloads::{benchmark, mixes, BenchmarkSpec, WorkloadMix};

pub use vliw_fleet::{DispatcherSpec, FleetError, FleetSpec};
pub use vliw_isa::MachineSpec;
pub use vliw_traffic::{TrafficError, TrafficSpec};

/// The memory-model axis of a sweep: the paper's IPCr (real caches) vs
/// IPCp (perfect memory) measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// The paper's cache hierarchy (IPCr).
    Real,
    /// Every access hits (IPCp).
    Perfect,
}

impl MemoryModel {
    /// Stable lowercase label used in serialized exhibits.
    pub fn label(self) -> &'static str {
        match self {
            MemoryModel::Real => "real",
            MemoryModel::Perfect => "perfect",
        }
    }
}

impl std::fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Typed key naming one merge scheme of a plan.
///
/// Carries the scheme itself, so job workers never consult the catalog, and
/// custom (non-catalog) schemes sweep like paper ones. Equality and lookup
/// go by name.
#[derive(Debug, Clone)]
pub struct SchemeRef {
    name: Arc<str>,
    scheme: MergeScheme,
}

impl SchemeRef {
    /// Resolve a catalog scheme by paper name (`"ST"`, `"2SC3"`, ...).
    ///
    /// Panics on unknown names — plans fail at build time, not mid-sweep.
    pub fn named(name: &str) -> Self {
        Self::try_named(name).unwrap_or_else(|| panic!("unknown scheme {name:?} (not in catalog)"))
    }

    /// Resolve a catalog scheme by paper name, or `None`.
    pub fn try_named(name: &str) -> Option<Self> {
        catalog::by_name(name).map(Self::custom)
    }

    /// Wrap an arbitrary (possibly non-catalog) scheme.
    pub fn custom(scheme: MergeScheme) -> Self {
        SchemeRef {
            name: scheme.name().into(),
            scheme,
        }
    }

    /// The scheme's name (the lookup key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying merge scheme.
    pub fn scheme(&self) -> &MergeScheme {
        &self.scheme
    }
}

impl From<&str> for SchemeRef {
    fn from(name: &str) -> Self {
        SchemeRef::named(name)
    }
}

impl From<MergeScheme> for SchemeRef {
    fn from(scheme: MergeScheme) -> Self {
        SchemeRef::custom(scheme)
    }
}

impl From<&MergeScheme> for SchemeRef {
    fn from(scheme: &MergeScheme) -> Self {
        SchemeRef::custom(scheme.clone())
    }
}

/// Typed key naming one workload of a plan: a single benchmark or a
/// multiprogrammed mix, of Table-1 members and/or custom specs.
///
/// Names are owned (`Arc<str>`), so generated workloads with computed names
/// are first-class. Equality and lookup go by name.
#[derive(Debug, Clone)]
pub struct WorkloadRef {
    name: Arc<str>,
    /// Member specs in thread order; a Table-1 member carries a copy of its
    /// catalog spec.
    members: Arc<[BenchmarkSpec]>,
}

impl WorkloadRef {
    /// A single Table-1 benchmark, run alone (the Table-1 setup).
    ///
    /// Panics on unknown benchmark names — plans fail at build time.
    pub fn benchmark(name: &str) -> Self {
        Self::members(name, &[name])
    }

    /// A multiprogrammed workload of Table-1 benchmarks under `name`.
    ///
    /// Panics when any member is not a Table-1 benchmark.
    pub fn members(name: &str, members: &[&str]) -> Self {
        assert!(!members.is_empty(), "workload {name:?} needs members");
        let specs: Vec<BenchmarkSpec> = members
            .iter()
            .map(|m| {
                benchmark(m)
                    .unwrap_or_else(|| panic!("workload {name:?}: unknown benchmark {m:?}"))
                    .clone()
            })
            .collect();
        WorkloadRef {
            name: name.into(),
            members: specs.into(),
        }
    }

    /// A workload of custom benchmark specs (threads in `specs` order).
    /// Spec names are the compilation-cache identity — give distinct
    /// programs distinct names. Panics when a spec reuses a Table-1 name
    /// with different knobs (it would silently alias the catalog image in
    /// any shared [`Session`]).
    pub fn custom(name: &str, specs: Vec<BenchmarkSpec>) -> Self {
        assert!(!specs.is_empty(), "workload {name:?} needs members");
        for s in &specs {
            if let Some(table1) = benchmark(&s.name) {
                assert!(
                    table1 == s,
                    "workload {name:?}: custom spec {:?} shadows a Table-1 benchmark \
                     with different knobs; rename the variant (names are the \
                     compilation-cache identity)",
                    s.name
                );
            }
        }
        WorkloadRef {
            name: name.into(),
            members: specs.into(),
        }
    }

    /// The workload's name (the lookup key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of software threads this workload admits.
    pub fn n_threads(&self) -> usize {
        self.members.len()
    }

    /// Member benchmark names, thread order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|s| &*s.name).collect()
    }

    /// Compile member `idx` for `machine` through the shared cache (the
    /// fleet driver compiles each member for the machine it is routed to,
    /// not the plan's reference machine).
    ///
    /// # Panics
    ///
    /// If the member does not build for `machine`, for instance an op with
    /// no unit on it. Plans do not check this up front.
    pub(crate) fn image_for(
        &self,
        idx: usize,
        cache: &ImageCache,
        machine: &vliw_isa::MachineConfig,
    ) -> CachedImage {
        cache
            .get_spec(&self.members[idx], machine)
            .unwrap_or_else(|e| panic!("workload {}: {e}", self.name))
    }

    /// Instantiate the software threads for `cfg`'s machine (compile
    /// results come from the shared cache).
    fn threads(&self, cache: &ImageCache, cfg: &SimConfig) -> Vec<SoftThread> {
        (0..self.members.len())
            .map(|tid| {
                let image = self.image_for(tid, cache, &cfg.machine);
                SoftThread::new(&image.0, image.1.clone(), tid as u64, cfg.seed)
            })
            .collect()
    }
}

impl From<&WorkloadMix> for WorkloadRef {
    fn from(mix: &WorkloadMix) -> Self {
        WorkloadRef::members(mix.name, &mix.members)
    }
}

impl From<&BenchmarkSpec> for WorkloadRef {
    fn from(spec: &BenchmarkSpec) -> Self {
        match benchmark(&spec.name) {
            Some(table1) if table1 == spec => WorkloadRef::benchmark(&spec.name),
            // Anything else goes through `custom`, whose shadow check
            // rejects modified specs still carrying a Table-1 name.
            _ => WorkloadRef::custom(&spec.name, vec![spec.clone()]),
        }
    }
}

impl From<&str> for WorkloadRef {
    /// Resolve a name as a Table-2 mix first, then as a Table-1 benchmark.
    fn from(name: &str) -> Self {
        if let Some(mix) = mixes::mix(name) {
            return WorkloadRef::from(mix);
        }
        assert!(
            benchmark(name).is_some(),
            "unknown workload {name:?} (neither a Table-2 mix nor a Table-1 benchmark)"
        );
        WorkloadRef::benchmark(name)
    }
}

/// One cell of the expanded job grid: a value per [`Axis`].
#[derive(Debug, Clone)]
pub struct JobKey {
    /// The merge scheme under test.
    pub scheme: SchemeRef,
    /// The workload run on it.
    pub workload: WorkloadRef,
    /// The OS scheduling policy used.
    pub scheduler: SchedulerSpec,
    /// The machine geometry simulated.
    pub machine: MachineSpec,
    /// The machine fleet the cell ran on (`None` = the ordinary
    /// single-machine cell; `Some` = the whole workload was dispatched
    /// across the fleet's machines — see [`crate::fleet::run_fleet`]).
    pub fleet: Option<FleetSpec>,
    /// The arrival process driving the cell.
    pub traffic: TrafficSpec,
    /// The memory model used.
    pub memory: MemoryModel,
}

impl JobKey {
    /// The cell's result under its own scheme and workload names.
    fn result(&self, stats: RunStats) -> RunResult {
        RunResult {
            scheme: self.scheme.name().to_string(),
            workload: self.workload.name().to_string(),
            stats,
        }
    }
}

/// Shared run context for executing plans: the compiled-image cache, the
/// rayon worker count, a memo of the cells already simulated and, from
/// [`Session::with_progress`], a stderr heartbeat over every cell its runs
/// execute. Reuse one session across plans to compile each benchmark once
/// and to simulate each distinct cell once. Metrics are not the session's
/// job: a metered run takes its registry as an argument
/// ([`Plan::run_metered`]).
///
/// The memo maps a cell's full identity to its result in an earlier
/// untraced run of the session. The identity is:
///
/// * the cell's whole [`SimConfig`]: scheme, machine, memory system,
///   priority, scheduler, run lengths, seed, trace spec, core model and
///   arrival process, so a cell never serves one run under another core
///   model, and a field added to the config joins the key by itself;
/// * its members' names in thread order, which are the session's compile
///   identity (the image cache rejects two specs that share a name);
/// * its fleet.
///
/// A repeated cell is served by cloning the earlier statistics under its
/// own scheme and workload names. It still performs its image lookups, so
/// [`ImageCache::requests`] and [`ImageCache::len`] move as if it had run.
/// [`Plan::run_traced`] and [`Plan::trace_cell`] neither read nor fill the
/// memo. Memo entries point into the storage of the result sets that
/// produced them, so the session keeps the results of every untraced set
/// that added a cell to the memo alive for as long as it lives.
pub struct Session {
    cache: ImageCache,
    parallelism: usize,
    memo: Mutex<HashMap<CellIdentity, Served>>,
    progress: Option<Progress>,
}

/// A cell's full identity: the key of [`Session`]'s memo.
#[derive(PartialEq, Eq, Hash)]
struct CellIdentity {
    cfg: SimConfig,
    members: Vec<Arc<str>>,
    fleet: Option<FleetSpec>,
}

/// Where a memoized cell's result lives: an earlier set's storage and the
/// cell's index in it.
type Served = (Arc<[RunResult]>, usize);

impl Session {
    /// A session with the default parallelism (cores − 1).
    pub fn new() -> Self {
        Self::with_parallelism(runner::default_parallelism())
    }

    /// A session with an explicit rayon worker count (≥ 1).
    pub fn with_parallelism(parallelism: usize) -> Self {
        Session {
            cache: ImageCache::new(),
            parallelism: parallelism.max(1),
            memo: Mutex::new(HashMap::new()),
            progress: None,
        }
    }

    /// This session with a stderr [`Progress`] heartbeat: every cell any
    /// of its runs executes or serves, traced or not, ticks one line of
    /// cells done/total, cells/s, ETA and image-cache hit-rate. The
    /// heartbeat records no metric and writes nothing but stderr, so no
    /// result or export byte changes with it.
    pub fn with_progress(mut self) -> Self {
        self.progress = Some(Progress::new());
        self
    }

    /// The session's image cache (shared across all plans it runs).
    pub fn cache(&self) -> &ImageCache {
        &self.cache
    }

    /// The session's rayon worker count.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

/// One axis of the plan grid. [`Axis::ALL`] is the expansion order,
/// outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Merge schemes ([`Plan::schemes`]).
    Scheme,
    /// Workloads ([`Plan::workloads`]).
    Workload,
    /// OS scheduling policies ([`Plan::schedulers`]).
    Scheduler,
    /// Machine geometries ([`Plan::machines`]).
    Machine,
    /// Machine fleets ([`Plan::fleets`]).
    Fleet,
    /// Arrival processes ([`Plan::arrivals`]).
    Traffic,
    /// Memory models ([`Plan::axes`]).
    Memory,
}

/// Number of grid axes.
const N: usize = 7;

impl Axis {
    /// Every axis, in expansion order.
    pub const ALL: [Axis; N] = [
        Axis::Scheme,
        Axis::Workload,
        Axis::Scheduler,
        Axis::Machine,
        Axis::Fleet,
        Axis::Traffic,
        Axis::Memory,
    ];

    /// The axis's JSON key field and CSV key column.
    pub fn name(self) -> &'static str {
        AXES[self as usize].field
    }
}

/// One row of the axis table.
struct AxisRow {
    /// JSON key field and CSV key column.
    field: &'static str,
    /// JSON axis-list name.
    list: &'static str,
    /// Serialized even when the plan never named a value.
    always: bool,
    /// The export spelling of every value on the axis — also its lookup
    /// key.
    labels: fn(&Grid) -> Vec<String>,
    /// Give the axis its default value (when the plan named none).
    fill: fn(&mut Grid),
}

/// The axis table, in [`Axis::ALL`] order: grid expansion, the row-major
/// stride, explicitness, the JSON axis lists and key fields and the CSV
/// key columns all walk it.
const AXES: [AxisRow; N] = [
    AxisRow {
        field: "scheme",
        list: "schemes",
        always: true,
        labels: |g| spell(&g.schemes, |s| s.name().into()),
        fill: |_| {},
    },
    AxisRow {
        field: "workload",
        list: "workloads",
        always: true,
        labels: |g| spell(&g.workloads, |w| w.name().into()),
        fill: |_| {},
    },
    AxisRow {
        field: "scheduler",
        list: "schedulers",
        always: false,
        labels: |g| spell(&g.schedulers, |s| s.name().into()),
        fill: |g| g.schedulers.push(SchedulerSpec::PaperRandom),
    },
    AxisRow {
        field: "machine",
        list: "machines",
        always: false,
        labels: |g| spell(&g.machines, |m| m.label()),
        fill: |g| g.machines.push(MachineSpec::Paper4x4),
    },
    AxisRow {
        field: "fleet",
        list: "fleets",
        always: false,
        // `None`, the plain single-machine cell, has no spelling of its own.
        labels: |g| {
            spell(&g.fleets, |f| {
                f.as_ref().map_or(String::new(), FleetSpec::label)
            })
        },
        fill: |g| g.fleets.push(None),
    },
    AxisRow {
        field: "traffic",
        list: "traffics",
        always: false,
        labels: |g| spell(&g.traffics, TrafficSpec::label),
        fill: |g| g.traffics.push(TrafficSpec::Closed),
    },
    AxisRow {
        field: "memory",
        list: "axes",
        always: true,
        labels: |g| spell(&g.memories, |m| m.label().into()),
        fill: |g| g.memories.push(MemoryModel::Real),
    },
];

/// The spelling of every value in `values`.
fn spell<T>(values: &[T], f: impl Fn(&T) -> String) -> Vec<String> {
    values.iter().map(f).collect()
}

/// The values of every axis. A plan's grid holds what it named (empty =
/// never named); a run fills each empty axis with its default.
#[derive(Debug, Clone, Default)]
struct Grid {
    schemes: Vec<SchemeRef>,
    workloads: Vec<WorkloadRef>,
    schedulers: Vec<SchedulerSpec>,
    machines: Vec<MachineSpec>,
    /// `None` is the ordinary single-machine cell.
    fleets: Vec<Option<FleetSpec>>,
    traffics: Vec<TrafficSpec>,
    memories: Vec<MemoryModel>,
}

impl Grid {
    /// The export spelling of every value, per axis.
    fn labels(&self) -> [Vec<String>; N] {
        std::array::from_fn(|k| (AXES[k].labels)(self))
    }

    /// This grid with every unnamed axis at its default, and the columns
    /// of the optional axes that were named.
    fn filled(&self) -> (Grid, Columns) {
        let named = self.labels();
        let mut grid = self.clone();
        let mut columns = Columns::default();
        for axis in Axis::ALL {
            if named[axis as usize].is_empty() {
                (AXES[axis as usize].fill)(&mut grid);
            } else {
                columns = columns.with(axis);
            }
        }
        (grid, columns)
    }

    /// The cell at per-axis coordinates `at`.
    fn key(&self, at: [usize; N]) -> JobKey {
        let [s, w, c, m, f, t, a] = at;
        JobKey {
            scheme: self.schemes[s].clone(),
            workload: self.workloads[w].clone(),
            scheduler: self.schedulers[c],
            machine: self.machines[m],
            fleet: self.fleets[f].clone(),
            traffic: self.traffics[t],
            memory: self.memories[a],
        }
    }

    /// Every cell, row-major.
    fn keys(&self) -> Vec<JobKey> {
        let dims = self.labels().map(|l| l.len());
        (0..dims.iter().product())
            .map(|i| self.key(coords(&dims, i)))
            .collect()
    }
}

/// Row-major coordinates of grid cell `i`: the last axis varies fastest.
fn coords(dims: &[usize; N], mut i: usize) -> [usize; N] {
    let mut at = [0; N];
    for (a, &d) in at.iter_mut().zip(dims).rev() {
        *a = i % d;
        i /= d;
    }
    at
}

/// The row-major index of coordinates `at` (the inverse of [`coords`]).
fn index(dims: &[usize; N], at: &[usize; N]) -> usize {
    dims.iter().zip(at).fold(0, |i, (d, a)| i * d + a)
}

/// The optional column groups of an export: the key column (and, for
/// traffic and fleet, the metric group) of every optional axis a plan
/// named, plus the telemetry metrics of a metered run. Scheme, workload
/// and memory are always serialized.
///
/// Each [`ResultSet`] carries its own ([`ResultSet::columns`]); `|`
/// unions several and [`Columns::with`] forces an axis on, so sets that
/// disagree on explicitness can share one combined CSV
/// ([`Columns::csv_header`], [`ResultSet::csv_rows`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Columns {
    /// Bit `axis as usize` for each explicit optional axis.
    explicit: u8,
    telemetry: bool,
}

impl Columns {
    /// These columns plus `axis`'s (a no-op for the always-serialized
    /// axes).
    pub fn with(mut self, axis: Axis) -> Self {
        if !AXES[axis as usize].always {
            self.explicit |= 1 << axis as u8;
        }
        self
    }

    /// Whether `axis` has a key column/field.
    pub fn has(self, axis: Axis) -> bool {
        AXES[axis as usize].always || self.explicit & (1 << axis as u8) != 0
    }

    /// The axes with a key column, in table order.
    fn keys(self) -> impl Iterator<Item = Axis> {
        Axis::ALL.into_iter().filter(move |&axis| self.has(axis))
    }

    /// The CSV header of rows shaped to these columns: the key columns in
    /// axis order, the always-on metrics, then the traffic, fleet and
    /// telemetry metric groups. `fleet_routed`/`fleet_shed` are
    /// slash-joined per-machine counts in fleet order; the fleet sojourn
    /// quantiles are fleet-wide (merged sample multisets).
    pub fn csv_header(self) -> String {
        let mut h: Vec<&str> = self.keys().map(Axis::name).collect();
        h.push("ipc,cycles,instrs,ops");
        if self.has(Axis::Traffic) {
            h.push("offered,completed,shed,p50_sojourn,p95_sojourn,p99_sojourn,mean_queue_depth");
        }
        if self.has(Axis::Fleet) {
            h.push("fleet_machines,fleet_routed,fleet_shed,fleet_p50_sojourn,fleet_p95_sojourn,fleet_p99_sojourn");
        }
        if self.telemetry {
            h.push("cache_hits,cache_misses,trace_dropped");
        }
        h.join(",")
    }
}

impl std::ops::BitOr for Columns {
    type Output = Columns;

    fn bitor(self, other: Columns) -> Columns {
        Columns {
            explicit: self.explicit | other.explicit,
            telemetry: self.telemetry || other.telemetry,
        }
    }
}

/// A lookup key into a [`ResultSet`]: an optional value per [`Axis`],
/// spelled the way the exports spell it. Every axis left unset resolves to
/// the set's first value, so `Cell::new("2SC3", "LLHH")` addresses the
/// same cell in a plain scheme × workload grid as in one that also sweeps
/// schedulers or machines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cell([Option<String>; N]);

impl Cell {
    /// The cell of `scheme` on `workload`.
    pub fn new(scheme: &str, workload: &str) -> Self {
        Cell::default().scheme(scheme).at(Axis::Workload, workload)
    }

    /// Pin `axis` to the value spelled `label` (a scheme or workload name,
    /// a scheduler name, a machine, fleet or traffic spec label, or a
    /// memory label).
    pub fn at(mut self, axis: Axis, label: impl Into<String>) -> Self {
        self.0[axis as usize] = Some(label.into());
        self
    }

    /// Pin the scheme.
    pub fn scheme(self, name: &str) -> Self {
        self.at(Axis::Scheme, name)
    }

    /// Pin the OS scheduling policy.
    pub fn scheduler(self, spec: SchedulerSpec) -> Self {
        self.at(Axis::Scheduler, spec.name())
    }

    /// Pin the machine geometry.
    pub fn machine(self, spec: MachineSpec) -> Self {
        self.at(Axis::Machine, spec.label())
    }

    /// Pin the fleet.
    pub fn fleet(self, spec: &FleetSpec) -> Self {
        self.at(Axis::Fleet, spec.label())
    }

    /// Pin the arrival process.
    pub fn traffic(self, spec: TrafficSpec) -> Self {
        self.at(Axis::Traffic, spec.label())
    }

    /// Pin the memory model.
    pub fn memory(self, memory: MemoryModel) -> Self {
        self.at(Axis::Memory, memory.label())
    }
}

impl From<&JobKey> for Cell {
    /// The cell of a grid key (from [`Plan::jobs`] or [`ResultSet::iter`]).
    fn from(key: &JobKey) -> Self {
        let cell = Cell::new(key.scheme.name(), key.workload.name())
            .scheduler(key.scheduler)
            .machine(key.machine)
            .traffic(key.traffic)
            .memory(key.memory);
        match &key.fleet {
            Some(fleet) => cell.fleet(fleet),
            None => cell,
        }
    }
}

/// A declarative experiment plan: the values of every grid [`Axis`] of one
/// exhibit, plus run-length and policy knobs.
///
/// Build with the fluent methods, then [`Plan::run`]. The grid expands
/// row-major in [`Axis::ALL`] order (schemes outermost, memory models
/// innermost), which the returned [`ResultSet`] preserves.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The values each axis names.
    grid: Grid,
    scale: u64,
    priority: PriorityPolicy,
    seed: Option<u64>,
    trace: TraceSpec,
    core_model: CoreModel,
}

impl Plan {
    /// An empty plan: no schemes/workloads yet, every optional axis at its
    /// default, scale 20 (1/20 of the paper's 100M-instruction runs),
    /// round-robin priority.
    pub fn new() -> Self {
        Plan {
            grid: Grid::default(),
            scale: 20,
            priority: PriorityPolicy::RoundRobin,
            seed: None,
            trace: TraceSpec::Off,
            core_model: CoreModel::default(),
        }
    }

    /// Add one scheme (name, `MergeScheme`, or `SchemeRef`).
    pub fn scheme(mut self, scheme: impl Into<SchemeRef>) -> Self {
        self.grid.schemes.push(scheme.into());
        self
    }

    /// Add many schemes.
    pub fn schemes<I, S>(self, schemes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<SchemeRef>,
    {
        schemes.into_iter().fold(self, |plan, s| plan.scheme(s))
    }

    /// Add one workload (mix/benchmark name, `&WorkloadMix`, spec, or
    /// `WorkloadRef`).
    pub fn workload(mut self, workload: impl Into<WorkloadRef>) -> Self {
        self.grid.workloads.push(workload.into());
        self
    }

    /// Add many workloads.
    pub fn workloads<I, W>(self, workloads: I) -> Self
    where
        I: IntoIterator<Item = W>,
        W: Into<WorkloadRef>,
    {
        workloads.into_iter().fold(self, |plan, w| plan.workload(w))
    }

    /// Add one OS scheduling policy to the scheduler axis (by
    /// [`SchedulerSpec`] or name; duplicates are ignored).
    pub fn scheduler(mut self, scheduler: impl Into<SchedulerSpec>) -> Self {
        push_new(&mut self.grid.schedulers, scheduler.into(), |&s| s);
        self
    }

    /// Add several scheduling policies (e.g.
    /// [`SchedulerSpec::all()`](SchedulerSpec::all) for the full
    /// catalog).
    pub fn schedulers<I, S>(self, schedulers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<SchedulerSpec>,
    {
        schedulers
            .into_iter()
            .fold(self, |plan, s| plan.scheduler(s))
    }

    /// Add one machine geometry to the machine axis (named preset or
    /// grammar spec; duplicates — by label — are ignored). The spec itself
    /// is validated here, so a malformed geometry fails at build time.
    ///
    /// Whether each workload compiles for the geometry is not checked
    /// here. Most of the Table-1 suite needs a multiplier and a memory unit
    /// (see [`MachineSpec::runs_full_suite`]); a cell whose workload has an
    /// op with no unit on the machine panics mid-sweep, naming the op
    /// class. [`runner::run_single`] and [`runner::run_mix`] return that
    /// failure as [`SimError::Build`](crate::SimError::Build) instead.
    pub fn machine(mut self, machine: MachineSpec) -> Self {
        // Lowering validates (panics with the MachineError for hand-built
        // invalid customs); label-level dedup keeps two spellings of one
        // geometry from colliding as serialized keys.
        let _ = machine.config();
        push_new(&mut self.grid.machines, machine, |m| m.label());
        self
    }

    /// Add several machine geometries (e.g.
    /// [`MachineSpec::presets()`](MachineSpec::presets) for the full
    /// catalog).
    pub fn machines<I: IntoIterator<Item = MachineSpec>>(self, machines: I) -> Self {
        machines.into_iter().fold(self, Plan::machine)
    }

    /// Add one machine fleet to the fleet axis (duplicates — by label —
    /// are ignored). A fleet cell dispatches the whole workload across
    /// the fleet's machines through its dispatcher policy instead of
    /// running on one machine (see [`crate::fleet::run_fleet`]); the
    /// cell's [`JobKey::machine`] then only serves as the *reference*
    /// geometry for routing width hints. Specs usually come from the
    /// string grammar: `"paper-4x4*2/2x8@least-queued".parse().unwrap()`.
    pub fn fleet(mut self, fleet: FleetSpec) -> Self {
        push_new(&mut self.grid.fleets, Some(fleet), |f| {
            f.as_ref().map(FleetSpec::label)
        });
        self
    }

    /// Add several fleets (e.g. a ladder of fleet sizes for a scaling
    /// curve).
    pub fn fleets<I: IntoIterator<Item = FleetSpec>>(self, fleets: I) -> Self {
        fleets.into_iter().fold(self, Plan::fleet)
    }

    /// Add one arrival process to the traffic axis (duplicates are
    /// ignored). Without one every thread is present at cycle 0 (closed).
    /// Specs usually come from the string grammar:
    /// `"poisson:0.02".parse().unwrap()`.
    pub fn arrival(mut self, traffic: TrafficSpec) -> Self {
        push_new(&mut self.grid.traffics, traffic, |&t| t);
        self
    }

    /// Add several arrival processes (e.g. a ladder of offered loads for
    /// a latency-vs-load curve).
    pub fn arrivals<I: IntoIterator<Item = TrafficSpec>>(self, traffics: I) -> Self {
        traffics.into_iter().fold(self, Plan::arrival)
    }

    /// Add a memory model to the memory axis (duplicates are ignored).
    /// Without one the plan runs with real memory only.
    pub fn axis(mut self, axis: MemoryModel) -> Self {
        push_new(&mut self.grid.memories, axis, |&m| m);
        self
    }

    /// Add several memory models.
    pub fn axes<I: IntoIterator<Item = MemoryModel>>(self, axes: I) -> Self {
        axes.into_iter().fold(self, Plan::axis)
    }

    /// Run-length divisor: 1 = the paper's full 100M-instruction runs (see
    /// [`SimConfig::paper`] for the floors at extreme scales).
    pub fn scale(mut self, scale: u64) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// Thread→port rotation policy (default: the paper's round-robin).
    pub fn priority(mut self, priority: PriorityPolicy) -> Self {
        self.priority = priority;
        self
    }

    /// Core execution model for every cell (default:
    /// [`CoreModel::EventDriven`]). Results are bit-identical across
    /// models, so this setting never appears in the serialized exhibits —
    /// it exists for the differential suite and the perf benches, which
    /// pin the [`CoreModel::CycleAccurate`] oracle.
    pub fn core_model(mut self, core_model: CoreModel) -> Self {
        self.core_model = core_model;
        self
    }

    /// Override the simulation seed (default: [`SimConfig::paper`]'s).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Cycle-level tracing for the trace-collecting runs
    /// ([`Plan::run_traced`] / [`Plan::trace_cell`]):
    /// [`TraceSpec::Ring`] bounds per-cell memory, [`TraceSpec::Full`]
    /// keeps everything. The default [`TraceSpec::Off`] also records fully
    /// when a trace-collecting entry point is used (calling one *is* the
    /// request to trace); [`Plan::run`] never traces regardless.
    pub fn trace(mut self, spec: TraceSpec) -> Self {
        self.trace = spec;
        self
    }

    /// Expand the plan into its deterministic job grid, row-major in
    /// [`Axis::ALL`] order: schemes outermost, memory models innermost.
    pub fn jobs(&self) -> Vec<JobKey> {
        self.grid.filled().0.keys()
    }

    /// The identity the session memo knows `key` by.
    fn identity(&self, key: &JobKey) -> CellIdentity {
        CellIdentity {
            cfg: self.config_for(key),
            members: key
                .workload
                .members
                .iter()
                .map(|s| s.name.clone())
                .collect(),
            fleet: key.fleet.clone(),
        }
    }

    /// The simulation configuration of one job.
    fn config_for(&self, key: &JobKey) -> SimConfig {
        let mut cfg = SimConfig::paper(key.scheme.scheme().clone(), self.scale)
            .with_machine(key.machine)
            .with_traffic(key.traffic);
        cfg.priority = self.priority;
        cfg.scheduler = key.scheduler;
        cfg.trace = self.trace;
        cfg.core_model = self.core_model;
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if key.memory == MemoryModel::Perfect {
            cfg = cfg.with_perfect_memory();
        }
        cfg
    }

    /// Run the whole grid in a session (shared image cache, rayon fan-out).
    /// A cell the session has already simulated is served from its memo
    /// (see [`Session`]).
    ///
    /// Results are deterministic and ordered by the grid regardless of the
    /// session's worker count. This is [`Plan::run_metered`]'s run path
    /// with no registry: it records no metric and adds no telemetry
    /// column.
    pub fn run(&self, session: &Session) -> ResultSet {
        self.execute(session, None, false, |_, _, _| {})
    }

    /// [`Plan::run`] metered by `reg`: per-cell wall time and the
    /// compile/simulate split (timing class), plus the full deterministic
    /// schema of [`crate::metrics`] harvested post-hoc from the results in
    /// row-major grid order — so the deterministic export is byte-stable
    /// across worker counts and core models. The simulated statistics are
    /// those of [`Plan::run`]; the returned set also carries the per-cell
    /// telemetry columns (`cache_hits`, `cache_misses`, `trace_dropped`).
    pub fn run_metered(&self, session: &Session, reg: &Registry) -> ResultSet {
        self.execute(session, Some(reg), false, |_, _, _| {})
    }

    /// Run the whole grid with per-cell tracing, invoking `hook` once per
    /// cell — in deterministic row-major grid order, regardless of the
    /// session's worker count — with the cell's key, result and recorded
    /// [`Trace`]. Returns the same [`ResultSet`] as [`Plan::run`].
    ///
    /// Traces are *streamed* to the hook, not stored: each cell's trace is
    /// dropped as soon as the hook returns, so the resident set is the
    /// in-flight cells plus whatever finished out of order ahead of the
    /// row-major cursor (≈ the worker count for similarly-priced cells),
    /// never the whole grid. Use [`TraceSpec::Ring`] via [`Plan::trace`]
    /// to bound the per-cell footprint too.
    ///
    /// The per-cell sink follows [`Plan::trace`]; the default
    /// [`TraceSpec::Off`] records fully here, since calling this method is
    /// the explicit request to trace. Statistics are identical to
    /// [`Plan::run`] — tracing observes, never perturbs. Every cell is
    /// simulated, even one the session's memo holds.
    pub fn run_traced<F>(&self, session: &Session, mut hook: F) -> ResultSet
    where
        F: FnMut(&JobKey, &RunResult, &Trace),
    {
        self.execute(session, None, true, |key, result, trace| {
            hook(key, result, trace.expect("traced cells record a trace"))
        })
    }

    /// Run *one* cell of the grid with tracing, returning its result and
    /// recorded [`Trace`] — the surgical "why does this cell behave like
    /// that" probe (the `paper` binary's `--trace` flag uses it). The key
    /// usually comes from [`Plan::jobs`]; any key assembled from the
    /// plan's axes works. Sink choice follows [`Plan::trace`] exactly like
    /// [`Plan::run_traced`].
    pub fn trace_cell(&self, session: &Session, key: &JobKey) -> (RunResult, Trace) {
        let cfg = self.config_for(key);
        let (result, trace) = self.run_cell(session.cache(), key, &cfg, None, true);
        (result, trace.expect("traced cells record a trace"))
    }

    /// The one run path behind every entry point: validate, fan the cells
    /// out over the session's workers, hand each to `hook` in row-major
    /// order as it completes, and assemble the set. With `traced` every
    /// cell records its [`Trace`] for the hook; without it, cells the
    /// session has already simulated are served from its memo, and the
    /// cells of this set join the memo. With a registry the run is
    /// metered; the session's heartbeat, if any, ticks either way.
    fn execute(
        &self,
        session: &Session,
        reg: Option<&Registry>,
        traced: bool,
        mut hook: impl FnMut(&JobKey, &RunResult, Option<&Trace>),
    ) -> ResultSet {
        use crate::metrics::names::{
            CACHE_HITS, CACHE_MISSES, CACHE_REQUESTS, CELLS_MEMOIZED, CELLS_TOTAL, CELL_WALL_NS,
        };
        self.validate();
        let (grid, columns) = self.grid.filled();
        let jobs = grid.keys();
        let n = jobs.len();
        let cache = session.cache();
        let cells: Vec<CellIdentity> = jobs.iter().map(|key| self.identity(key)).collect();
        // Every hit is decided here, under one lock, so which cells are
        // served depends on what the session ran before, never on worker
        // timing.
        let served: Vec<Option<Served>> = if traced {
            vec![None; n]
        } else {
            let memo = session.memo.lock();
            cells.iter().map(|cell| memo.get(cell).cloned()).collect()
        };
        if let Some(reg) = reg {
            crate::metrics::register_schema(reg);
            reg.counter_add(CELLS_TOTAL, n as u64);
        }
        let progress = session.progress.as_ref();
        if let Some(progress) = progress {
            progress.planned(n as u64);
        }
        // Image-cache economics are harvested as *deltas* over this run:
        // misses = distinct images built (map-size delta), hits = the
        // remaining lookups. Both ingredients are commutative sums, so the
        // split is exact and worker-count independent by construction.
        let (requests, unique, timing) = (cache.requests(), cache.len() as u64, cache.timing());
        let mut results = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let (jobs, cells, served) = (&jobs, &cells, &served);
            // Producer: the runner's fan-out, each finished cell sent on at
            // once. A worker's panic ends it, which hangs up the channel;
            // joining it then re-raises that panic with its own message.
            let producer = scope.spawn(move || {
                let worker = |&i: &usize| {
                    let start = now_ns(reg);
                    let cell = match &served[i] {
                        Some((set, j)) => (
                            serve(cache, &jobs[i], &cells[i].cfg.machine, &set[*j]),
                            None,
                        ),
                        None => self.run_cell(cache, &jobs[i], &cells[i].cfg, reg, traced),
                    };
                    observe_since(reg, CELL_WALL_NS, start);
                    if let Some(progress) = progress {
                        progress.done(cache.requests(), cache.len() as u64);
                    }
                    let _ = tx.send((i, cell));
                };
                runner::run_jobs((0..n).collect(), worker, session.parallelism());
            });
            // Consumer: re-serialize completions into row-major order, hook
            // each cell once and drop its trace right after.
            let mut pending = BTreeMap::new();
            for (i, cell) in rx {
                pending.insert(i, cell);
                while let Some((result, trace)) = pending.remove(&results.len()) {
                    hook(&jobs[results.len()], &result, trace.as_ref());
                    results.push(result);
                }
            }
            if let Err(payload) = producer.join() {
                std::panic::resume_unwind(payload);
            }
        });
        attribute_cache(&jobs, &mut results);
        let results: Arc<[RunResult]> = results.into();
        if !traced {
            let mut memo = session.memo.lock();
            for (i, cell) in cells.into_iter().enumerate() {
                memo.entry(cell).or_insert_with(|| (results.clone(), i));
            }
        }
        if let Some(reg) = reg {
            reg.counter_add(CELLS_MEMOIZED, served.iter().flatten().count() as u64);
            let requests = cache.requests() - requests;
            let misses = cache.len() as u64 - unique;
            reg.counter_add(CACHE_REQUESTS, requests);
            reg.counter_add(CACHE_MISSES, misses);
            reg.counter_add(CACHE_HITS, requests - misses);
            for ((name, now), (_, before)) in cache.timing().into_iter().zip(timing) {
                reg.counter_add(name, now - before);
            }
            crate::metrics::harvest(&results, reg);
        }
        ResultSet {
            labels: grid.labels(),
            grid,
            columns: Columns {
                telemetry: reg.is_some(),
                ..columns
            },
            scale: self.scale,
            priority: self.priority,
            seed: self.seed,
            results,
        }
    }

    /// Grid-level invariants shared by every run entry point.
    fn validate(&self) {
        let g = &self.grid;
        assert!(!g.schemes.is_empty(), "plan has no schemes");
        assert!(!g.workloads.is_empty(), "plan has no workloads");
        // Names are the lookup keys: a duplicate would make its later grid
        // cells unreachable by key and double-count in the aggregations.
        assert_unique("scheme", g.schemes.iter().map(SchemeRef::name));
        assert_unique("workload", g.workloads.iter().map(WorkloadRef::name));
        // Member specs sharing a name across workloads must be identical:
        // the image cache is keyed by name, so differing knobs would make a
        // cell's result depend on which rayon worker compiles first.
        let mut specs: HashMap<&str, &BenchmarkSpec> = HashMap::new();
        for spec in g.workloads.iter().flat_map(|w| w.members.iter()) {
            if let Some(prev) = specs.insert(&spec.name, spec) {
                assert!(
                    prev == spec,
                    "plan uses two different custom specs named {:?}; names are the \
                     compilation-cache identity, so rename one variant",
                    spec.name
                );
            }
        }
    }

    /// Run one cell — the only cell runner. Timing-class telemetry splits
    /// its wall time into compile (thread set-up through the image cache)
    /// and simulate; fleet cells compile per routed lane inside the driver,
    /// so they count as simulate time throughout. With `traced` the cell
    /// also returns its [`Trace`].
    ///
    /// Fleet cells run single-threaded internally (`parallelism = 1`): the
    /// plan's fan-out is *across* cells, and nesting worker pools would
    /// oversubscribe without changing any output byte.
    fn run_cell(
        &self,
        cache: &ImageCache,
        key: &JobKey,
        cfg: &SimConfig,
        reg: Option<&Registry>,
        traced: bool,
    ) -> (RunResult, Option<Trace>) {
        use crate::metrics::names::{CELL_COMPILE_NS, CELL_SIMULATE_NS};
        let mut sim_start = now_ns(reg);
        let (stats, trace) = match &key.fleet {
            Some(fleet) if traced => {
                let (stats, trace) =
                    crate::fleet::run_fleet_traced(cache, cfg, fleet, &key.workload, 1);
                (stats, Some(trace))
            }
            Some(fleet) => (
                crate::fleet::run_fleet(cache, cfg, fleet, &key.workload, 1),
                None,
            ),
            None => {
                let threads = key.workload.threads(cache, cfg);
                sim_start = observe_since(reg, CELL_COMPILE_NS, sim_start);
                let machine = Machine::new(cfg, threads)
                    .expect("WorkloadRef guarantees at least one member thread");
                if traced {
                    let (stats, trace) = machine.run_with_trace();
                    (stats, Some(trace))
                } else {
                    (machine.run(), None)
                }
            }
        };
        observe_since(reg, CELL_SIMULATE_NS, sim_start);
        (key.result(stats), trace)
    }
}

/// Nanoseconds on `reg`'s clock; 0 for an unmetered run.
fn now_ns(reg: Option<&Registry>) -> u64 {
    reg.map_or(0, Registry::now_ns)
}

/// Record the wall time since `start_ns` into the timing histogram
/// `name` of a metered run, and return the clock reading it ends at.
fn observe_since(reg: Option<&Registry>, name: &str, start_ns: u64) -> u64 {
    let now = now_ns(reg);
    if let Some(reg) = reg {
        reg.observe(name, now.saturating_sub(start_ns));
    }
    now
}

/// Serve a cell the session has already simulated: repeat its image
/// lookups, so the cache's counters move as if it had run, and clone the
/// earlier statistics under `key`'s names. A single machine looks up each
/// member once. A fleet cell looks up each member twice, once for its
/// width hint and once for the lane it is routed to; the statistics do not
/// record the lane, so both lookups go to the reference `machine`, whose
/// image the hint lookup built.
fn serve(
    cache: &ImageCache,
    key: &JobKey,
    machine: &vliw_isa::MachineConfig,
    earlier: &RunResult,
) -> RunResult {
    let lookups = if key.fleet.is_some() { 2 } else { 1 };
    for idx in 0..key.workload.n_threads() {
        for _ in 0..lookups {
            key.workload.image_for(idx, cache, machine);
        }
    }
    key.result(earlier.stats.clone())
}

impl Default for Plan {
    fn default() -> Self {
        Self::new()
    }
}

/// Statically attribute image-cache economics to cells: walk the grid
/// row-major and charge each member's `(benchmark, machine)` key a *miss*
/// on its first appearance and a *hit* after — the plan-level compile
/// footprint, independent of which rayon worker actually compiled what.
/// Fleet cells are charged their reference-geometry hint compiles; per-lane
/// compiles for routed geometries are counted in the registry's
/// delta-derived totals but not attributed to cells (routing is an
/// execution outcome, not a plan property).
///
/// The counts are assigned, not added, so a cell served from the session
/// memo carries this plan's attribution rather than its first plan's.
fn attribute_cache(jobs: &[JobKey], results: &mut [RunResult]) {
    let mut seen = HashSet::new();
    for (key, r) in jobs.iter().zip(results) {
        let machine = key.machine.config();
        let members = &key.workload.members;
        let misses = members
            .iter()
            .filter(|spec| seen.insert((spec.name.clone(), machine.clone())))
            .count() as u64;
        r.stats.cache_misses = misses;
        r.stats.cache_hits = members.len() as u64 - misses;
    }
}

/// The keyed results of one executed [`Plan`].
///
/// Storage is row-major over the plan's grid in [`Axis::ALL`] order —
/// schemes outermost, then workloads, schedulers, machines, fleets and
/// arrival processes, memory models innermost — so positional consumers
/// ([`ResultSet::results`]) and keyed lookups ([`ResultSet::get`]) always
/// agree.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Every axis's values, unnamed axes at their default.
    grid: Grid,
    /// The export spelling of every value, per axis: the lookup keys.
    labels: [Vec<String>; N],
    columns: Columns,
    scale: u64,
    priority: PriorityPolicy,
    seed: Option<u64>,
    /// Shared with the session memo, which serves repeated cells from it.
    results: Arc<[RunResult]>,
}

impl ResultSet {
    /// The set's export columns: the key column of every optional axis the
    /// plan named, and the telemetry metrics when a metered run with an
    /// enabled sink produced it.
    pub fn columns(&self) -> Columns {
        self.columns
    }

    /// Schemes of the grid, in plan order.
    pub fn schemes(&self) -> &[SchemeRef] {
        &self.grid.schemes
    }

    /// Workloads of the grid, in plan order.
    pub fn workloads(&self) -> &[WorkloadRef] {
        &self.grid.workloads
    }

    /// Machine geometries of the grid, in plan order (the default
    /// `[Paper4x4]` when the plan named none).
    pub fn machines(&self) -> &[MachineSpec] {
        &self.grid.machines
    }

    /// Arrival processes of the grid, in plan order (the default
    /// `[Closed]` when the plan named none).
    pub fn traffics(&self) -> &[TrafficSpec] {
        &self.grid.traffics
    }

    /// Memory models of the grid, in plan order.
    pub fn axes(&self) -> &[MemoryModel] {
        &self.grid.memories
    }

    /// The plan's run-length divisor.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The grid's length along every axis.
    fn dims(&self) -> [usize; N] {
        std::array::from_fn(|k| self.labels[k].len())
    }

    /// Per-axis coordinates of `cell`: unset axes at the first value,
    /// `None` when a set axis names a value the grid lacks.
    fn locate(&self, cell: &Cell) -> Option<[usize; N]> {
        let mut at = [0; N];
        for ((a, want), labels) in at.iter_mut().zip(&cell.0).zip(&self.labels) {
            if let Some(want) = want {
                *a = labels.iter().position(|l| l == want)?;
            }
        }
        Some(at)
    }

    /// Keyed lookup of one cell. Every axis `cell` leaves unset resolves to
    /// the set's first value (the only one, for axes the plan never
    /// named); `None` when `cell` names a value the grid lacks.
    pub fn get(&self, cell: &Cell) -> Option<&RunResult> {
        let at = self.locate(cell)?;
        self.results.get(index(&self.dims(), &at))
    }

    /// Mean IPC over every value of `axis`, the other axes fixed by `cell`
    /// (`cell`'s own value on `axis` is ignored). For example
    /// `mean_over(Axis::Workload, &Cell::default().scheme("2SC3"))` is
    /// 2SC3's mean IPC across the grid's workloads.
    pub fn mean_over(&self, axis: Axis, cell: &Cell) -> Option<f64> {
        let k = axis as usize;
        let mut free = cell.clone();
        free.0[k] = None;
        let mut at = self.locate(&free)?;
        let dims = self.dims();
        let sum: f64 = (0..dims[k])
            .map(|i| {
                at[k] = i;
                self.results[index(&dims, &at)].ipc()
            })
            .sum();
        Some(sum / dims[k] as f64)
    }

    /// Gate-level cost of `cell`'s merge-control hardware priced for its
    /// machine geometry (transistors, gate delays — see
    /// [`vliw_hwcost::scheme_cost()`]). The cost is per-geometry, so an
    /// `8x2` machine prices 8 clusters of 2-issue merge logic, not the
    /// paper's 4×4. `None` when `cell` names a value the grid lacks.
    pub fn merge_cost(&self, cell: &Cell) -> Option<SchemeCost> {
        let at = self.locate(cell)?;
        let scheme = self.grid.schemes[at[Axis::Scheme as usize]].scheme();
        let machine = self.grid.machines[at[Axis::Machine as usize]].config();
        Some(scheme_cost(
            scheme,
            machine.n_clusters,
            machine.issue_per_cluster,
        ))
    }

    /// Area efficiency of `cell`'s scheme on its machine: mean IPC across
    /// the grid's workloads per *kilotransistor* of merge-control hardware
    /// on that geometry; `None` for schemes without merge hardware (`ST`).
    /// Absolute values inherit the cost model's calibration; orderings are
    /// structural.
    pub fn ipc_per_area(&self, cell: &Cell) -> Option<f64> {
        let cost = self.merge_cost(cell)?;
        let ipc = self.mean_over(Axis::Workload, cell)?;
        if cost.transistors == 0 {
            return None;
        }
        Some(ipc / (cost.transistors as f64 / 1000.0))
    }

    /// All results in row-major grid order ([`Axis::ALL`], schemes
    /// outermost).
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// Iterate `(key, result)` pairs in row-major grid order.
    pub fn iter(&self) -> impl Iterator<Item = (JobKey, &RunResult)> + '_ {
        let dims = self.dims();
        self.results
            .iter()
            .enumerate()
            .map(move |(i, r)| (self.grid.key(coords(&dims, i)), r))
    }

    /// Serialize as a self-contained JSON object (hand-rolled, no external
    /// deps, byte-deterministic: independent of worker count or platform).
    ///
    /// Floats use Rust's shortest round-trip `Display`, so parsing a value
    /// back yields the exact `f64`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 256 * self.results.len());
        let _ = write!(s, "{{\"scale\":{},\"priority\":", self.scale);
        json_string(&mut s, priority_label(self.priority));
        match self.seed {
            Some(seed) => {
                let _ = write!(s, ",\"seed\":{seed}");
            }
            None => s.push_str(",\"seed\":null"),
        }
        for axis in self.columns.keys() {
            let _ = write!(s, ",\"{}\":[", AXES[axis as usize].list);
            for (i, label) in self.labels[axis as usize].iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                json_string(&mut s, label);
            }
            s.push(']');
        }
        s.push_str(",\"results\":[");
        let dims = self.dims();
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let at = coords(&dims, i);
            for (j, axis) in self.columns.keys().enumerate() {
                let open = if j == 0 { "{" } else { "," };
                let _ = write!(s, "{open}\"{}\":", axis.name());
                json_string(&mut s, &self.labels[axis as usize][at[axis as usize]]);
            }
            let st = &r.stats;
            let _ = write!(
                s,
                ",\"ipc\":{},\"cycles\":{},\"instrs\":{},\"ops\":{},\"vertical_waste\":{},\"horizontal_waste\":{},\"context_switches\":{}",
                r.ipc(),
                st.cycles,
                st.total_instrs,
                st.total_ops,
                st.vertical_waste(),
                st.horizontal_waste(),
                st.context_switches,
            );
            if self.columns.has(Axis::Scheduler) {
                let _ = write!(
                    s,
                    ",\"migrations\":{},\"idle_context_cycles\":{}",
                    st.migrations, st.idle_context_cycles,
                );
            }
            if self.columns.has(Axis::Traffic) {
                let t = &st.traffic;
                let _ = write!(
                    s,
                    ",\"offered\":{},\"completed\":{},\"shed\":{},\"p50_sojourn\":{},\"p95_sojourn\":{},\"p99_sojourn\":{},\"mean_sojourn\":{},\"mean_wait\":{},\"mean_queue_depth\":{}",
                    t.offered,
                    t.completed,
                    t.shed,
                    t.p50_sojourn,
                    t.p95_sojourn,
                    t.p99_sojourn,
                    t.mean_sojourn,
                    t.mean_wait,
                    t.mean_queue_depth,
                );
            }
            if let Some(fs) = st.fleet.as_ref().filter(|_| self.columns.has(Axis::Fleet)) {
                let t = &st.traffic;
                let _ = write!(
                    s,
                    ",\"fleet_machines\":{},\"fleet_routed\":[{}],\"fleet_shed\":[{}],\"fleet_utilization\":[{}],\"fleet_ipc\":[{}],\"fleet_p50_sojourn\":{},\"fleet_p95_sojourn\":{},\"fleet_p99_sojourn\":{}",
                    fs.n_machines(),
                    lanes(fs, ",", |m| m.routed.to_string()),
                    lanes(fs, ",", |m| m.shed.to_string()),
                    lanes(fs, ",", |m| m.utilization.to_string()),
                    lanes(fs, ",", |m| m.ipc.to_string()),
                    t.p50_sojourn,
                    t.p95_sojourn,
                    t.p99_sojourn,
                );
            }
            if self.columns.telemetry {
                let _ = write!(
                    s,
                    ",\"cache_hits\":{},\"cache_misses\":{},\"trace_dropped\":{}",
                    st.cache_hits, st.cache_misses, st.trace_dropped,
                );
            }
            s.push_str(",\"threads\":[");
            for (j, t) in st.threads.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str("{\"name\":");
                json_string(&mut s, &t.name);
                let _ = write!(
                    s,
                    ",\"tid\":{},\"instrs\":{},\"ops\":{},\"dstall\":{},\"istall\":{},\"branch_stall\":{},\"taken_branches\":{}}}",
                    t.tid,
                    t.instrs,
                    t.ops,
                    t.dstall_cycles,
                    t.istall_cycles,
                    t.branch_stall_cycles,
                    t.taken_branches,
                );
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Serialize as CSV with header `self.columns().csv_header()`, one row
    /// per grid cell in row-major order. Byte-deterministic like
    /// [`ResultSet::to_json`].
    pub fn to_csv(&self) -> String {
        format!(
            "{}\n{}",
            self.columns.csv_header(),
            self.csv_rows(None, self.columns)
        )
    }

    /// The CSV data rows, shaped to `columns` — for combined multi-set
    /// exports, the union of the sets' columns; forcing off a column this
    /// set has would make rows of different cells collide, and panics.
    /// Every row matches [`Columns::csv_header`]; with `exhibit` set each
    /// row is prefixed with that id (prepend `"exhibit,"` to the header).
    /// A forced-on key column carries the cell's actual value, i.e. the
    /// default for axes the plan never named. Names are CSV-quoted when
    /// needed, since computed scheme/workload names may contain delimiters.
    pub fn csv_rows(&self, exhibit: Option<&str>, columns: Columns) -> String {
        assert!(
            (columns | self.columns) == columns,
            "cannot drop a swept axis column: rows of different cells would collide"
        );
        let dims = self.dims();
        let mut s = String::new();
        for (i, r) in self.results.iter().enumerate() {
            let at = coords(&dims, i);
            if let Some(id) = exhibit {
                s.push_str(&csv_field(id));
                s.push(',');
            }
            for axis in columns.keys() {
                // A non-fleet cell under a forced fleet column is its own
                // singleton fleet, spelled by its machine.
                let axis = match axis {
                    Axis::Fleet if self.grid.fleets[at[axis as usize]].is_none() => Axis::Machine,
                    axis => axis,
                };
                s.push_str(&csv_field(&self.labels[axis as usize][at[axis as usize]]));
                s.push(',');
            }
            let st = &r.stats;
            let _ = write!(
                s,
                "{},{},{},{}",
                r.ipc(),
                st.cycles,
                st.total_instrs,
                st.total_ops
            );
            if columns.has(Axis::Traffic) {
                let t = &st.traffic;
                let _ = write!(
                    s,
                    ",{},{},{},{},{},{},{}",
                    t.offered,
                    t.completed,
                    t.shed,
                    t.p50_sojourn,
                    t.p95_sojourn,
                    t.p99_sojourn,
                    t.mean_queue_depth,
                );
            }
            if columns.has(Axis::Fleet) {
                let t = &st.traffic;
                // A non-fleet cell reports one machine and no routing or
                // shedding; its sojourn quantiles are its own (all-zero for
                // closed cells).
                let (machines, routed, shed) = match &st.fleet {
                    Some(fs) => (
                        fs.n_machines(),
                        lanes(fs, "/", |m| m.routed.to_string()),
                        lanes(fs, "/", |m| m.shed.to_string()),
                    ),
                    None => (1, String::new(), String::new()),
                };
                let _ = write!(
                    s,
                    ",{machines},{routed},{shed},{},{},{}",
                    t.p50_sojourn, t.p95_sojourn, t.p99_sojourn,
                );
            }
            if columns.telemetry {
                let _ = write!(
                    s,
                    ",{},{},{}",
                    st.cache_hits, st.cache_misses, st.trace_dropped,
                );
            }
            s.push('\n');
        }
        s
    }
}

/// One per-lane fleet statistic, `sep`-joined in fleet order.
fn lanes(fs: &FleetStats, sep: &str, f: impl Fn(&MachineLaneStats) -> String) -> String {
    fs.machines.iter().map(f).collect::<Vec<_>>().join(sep)
}

/// Append `value` to an axis unless a value with the same key is already
/// on it.
fn push_new<T, K: PartialEq>(values: &mut Vec<T>, value: T, key: impl Fn(&T) -> K) {
    if !values.iter().any(|v| key(v) == key(&value)) {
        values.push(value);
    }
}

/// Quote a CSV field when it contains a delimiter, quote or newline
/// (RFC-4180 style: wrap in quotes, double internal quotes).
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Panic when an axis of the plan grid repeats a name (keys must be
/// unique for keyed lookup and aggregation to be meaningful).
fn assert_unique<'a>(kind: &str, names: impl Iterator<Item = &'a str>) {
    let mut seen = std::collections::HashSet::new();
    for name in names {
        assert!(
            seen.insert(name),
            "plan lists {kind} {name:?} more than once; names are lookup keys and must be unique"
        );
    }
}

/// Stable lowercase label of a rotation policy for serialized exhibits.
fn priority_label(policy: PriorityPolicy) -> &'static str {
    match policy {
        PriorityPolicy::Fixed => "fixed",
        PriorityPolicy::RoundRobin => "round-robin",
        PriorityPolicy::LeastRecentlyIssued => "least-recently-issued",
    }
}

/// Append `value` as a JSON string literal (quotes + escapes).
fn json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expands_row_major() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workloads(["idct", "mcf", "LLHH"])
            .axes([MemoryModel::Real, MemoryModel::Perfect]);
        let jobs = plan.jobs();
        assert_eq!(jobs.len(), 2 * 3 * 2);
        // Schemes outermost, axes innermost.
        assert_eq!(jobs[0].scheme.name(), "ST");
        assert_eq!(jobs[0].workload.name(), "idct");
        assert_eq!(jobs[0].memory, MemoryModel::Real);
        assert_eq!(jobs[1].memory, MemoryModel::Perfect);
        assert_eq!(jobs[2].workload.name(), "mcf");
        assert_eq!(jobs[6].scheme.name(), "1S");
    }

    #[test]
    fn coords_and_index_are_inverse() {
        let dims = [2, 3, 1, 2, 1, 3, 2];
        for i in 0..dims.iter().product() {
            assert_eq!(index(&dims, &coords(&dims, i)), i);
        }
        // The last axis varies fastest.
        assert_eq!(coords(&dims, 1), [0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(coords(&dims, 2), [0, 0, 0, 0, 0, 1, 0]);
    }

    #[test]
    fn scheduler_axis_expands_between_workloads_and_memory() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workload("idct")
            .schedulers([SchedulerSpec::PaperRandom, SchedulerSpec::Icount])
            .axes([MemoryModel::Real, MemoryModel::Perfect]);
        let jobs = plan.jobs();
        // 2 schemes x 1 workload x 2 schedulers x 2 memory axes.
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].scheduler, SchedulerSpec::PaperRandom);
        assert_eq!(jobs[0].memory, MemoryModel::Real);
        assert_eq!(jobs[1].scheduler, SchedulerSpec::PaperRandom);
        assert_eq!(jobs[1].memory, MemoryModel::Perfect);
        assert_eq!(jobs[2].scheduler, SchedulerSpec::Icount);
        assert_eq!(jobs[4].scheme.name(), "1S");
    }

    #[test]
    fn scheduler_axis_deduplicates_and_accepts_names() {
        let plan = Plan::new()
            .scheduler("icount")
            .scheduler(SchedulerSpec::Icount)
            .schedulers(["round-robin"]);
        assert_eq!(
            plan.grid.filled().0.schedulers,
            vec![SchedulerSpec::Icount, SchedulerSpec::RoundRobin]
        );
        // No scheduler named: the paper's default, alone.
        assert_eq!(
            Plan::new().grid.filled().0.schedulers,
            vec![SchedulerSpec::PaperRandom]
        );
    }

    #[test]
    fn scheduler_sweep_is_keyed_and_serialized() {
        let set = Plan::new()
            .scheme("1S")
            .workload("LLHH")
            .schedulers(SchedulerSpec::all())
            .scale(100_000)
            .run(&Session::with_parallelism(2));
        assert_eq!(set.len(), 4);
        // An unset scheduler resolves to the first of the axis.
        let cell = Cell::new("1S", "LLHH");
        assert!(std::ptr::eq(
            set.get(&cell).unwrap(),
            set.get(&cell.clone().scheduler(SchedulerSpec::PaperRandom))
                .unwrap()
        ));
        for spec in SchedulerSpec::all() {
            let r = set
                .get(&cell.clone().scheduler(spec))
                .unwrap_or_else(|| panic!("missing {spec} cell"));
            assert!(r.ipc() > 0.0);
        }
        let means = SchedulerSpec::all()
            .iter()
            .filter_map(|&s| set.mean_over(Axis::Workload, &cell.clone().scheduler(s)))
            .count();
        assert_eq!(means, 4);
        // Serialized exhibits carry the axis and per-cell labels.
        let json = set.to_json();
        assert!(json.contains(
            "\"schedulers\":[\"paper-random\",\"round-robin\",\"icount\",\"cluster-affinity\"]"
        ));
        assert!(json.contains("\"scheduler\":\"icount\""));
        assert!(json.contains("\"migrations\":"));
        let csv = set.to_csv();
        assert_eq!(
            csv.lines().next(),
            Some("scheme,workload,scheduler,memory,ipc,cycles,instrs,ops")
        );
        assert!(csv
            .lines()
            .any(|l| l.starts_with("1S,LLHH,cluster-affinity,real,")));
    }

    #[test]
    fn default_plans_keep_the_pre_axis_serialization_format() {
        let set = Plan::new()
            .scheme("ST")
            .workload("idct")
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let json = set.to_json();
        assert!(!json.contains("\"schedulers\""), "no axis array: {json}");
        assert!(!json.contains("\"scheduler\""), "no per-cell field");
        assert!(!json.contains("\"migrations\""), "no new metrics");
        assert_eq!(
            set.to_csv().lines().next(),
            Some("scheme,workload,memory,ipc,cycles,instrs,ops")
        );
    }

    #[test]
    fn machine_axis_expands_between_schedulers_and_memory() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workload("idct")
            .machines([MachineSpec::Paper4x4, MachineSpec::Narrow8x2])
            .axes([MemoryModel::Real, MemoryModel::Perfect]);
        let jobs = plan.jobs();
        // 2 schemes x 1 workload x 1 scheduler x 2 machines x 2 memory.
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].machine, MachineSpec::Paper4x4);
        assert_eq!(jobs[0].memory, MemoryModel::Real);
        assert_eq!(jobs[1].machine, MachineSpec::Paper4x4);
        assert_eq!(jobs[1].memory, MemoryModel::Perfect);
        assert_eq!(jobs[2].machine, MachineSpec::Narrow8x2);
        assert_eq!(jobs[4].scheme.name(), "1S");
    }

    #[test]
    fn machine_axis_deduplicates_by_label() {
        // `4x4+2+1` canonicalizes to the paper preset; listing both must
        // leave one machine, not two cells with one serialized label.
        let plan = Plan::new()
            .machine(MachineSpec::Paper4x4)
            .machine("4x4+2+1".parse().unwrap())
            .machine(MachineSpec::Wide2x8);
        assert_eq!(
            plan.grid.filled().0.machines,
            vec![MachineSpec::Paper4x4, MachineSpec::Wide2x8]
        );
        // No machine named: the paper geometry, alone.
        assert_eq!(
            Plan::new().grid.filled().0.machines,
            vec![MachineSpec::Paper4x4]
        );
    }

    #[test]
    fn machine_sweep_is_keyed_serialized_and_priced() {
        let set = Plan::new()
            .schemes(["ST", "2SC3"])
            .workload("LLHH")
            .machines([MachineSpec::Paper4x4, MachineSpec::Wide2x8])
            .scale(100_000)
            .run(&Session::with_parallelism(2));
        assert_eq!(set.len(), 4);
        // An unset machine resolves to the first of the axis.
        let cell = Cell::new("2SC3", "LLHH");
        let at = |m: MachineSpec| set.get(&cell.clone().machine(m)).unwrap();
        assert!(std::ptr::eq(
            set.get(&cell).unwrap(),
            at(MachineSpec::Paper4x4)
        ));
        assert!(at(MachineSpec::Wide2x8).ipc() > 0.0);
        // The geometries genuinely differ (different compiled schedules).
        assert_ne!(
            at(MachineSpec::Paper4x4).stats.cycles,
            at(MachineSpec::Wide2x8).stats.cycles,
            "machine axis must be a real axis, not a relabeling"
        );
        let means = set
            .machines()
            .iter()
            .filter_map(|&m| set.mean_over(Axis::Workload, &cell.clone().machine(m)))
            .count();
        assert_eq!(means, 2);
        // hwcost coupling: costs follow the actual geometry, and the
        // area-efficiency aggregation is defined for merging schemes.
        let paper = cell.clone().machine(MachineSpec::Paper4x4);
        let paper_cost = set.merge_cost(&paper).unwrap();
        let wide_cost = set
            .merge_cost(&cell.clone().machine(MachineSpec::Wide2x8))
            .unwrap();
        assert!(paper_cost.transistors > 0);
        assert_ne!(
            paper_cost.transistors, wide_cost.transistors,
            "cost must be priced per geometry"
        );
        assert!(set.ipc_per_area(&paper).unwrap() > 0.0);
        // ST has no merge hardware: no area, no efficiency number.
        assert!(set.ipc_per_area(&Cell::new("ST", "LLHH")).is_none());
        // Serialized exhibits carry the axis and per-cell labels.
        let json = set.to_json();
        assert!(
            json.contains("\"machines\":[\"paper-4x4\",\"2x8\"]"),
            "{json}"
        );
        assert!(json.contains("\"machine\":\"2x8\""));
        let csv = set.to_csv();
        assert_eq!(
            csv.lines().next(),
            Some("scheme,workload,machine,memory,ipc,cycles,instrs,ops")
        );
        assert!(csv.lines().any(|l| l.starts_with("2SC3,LLHH,2x8,real,")));
    }

    #[test]
    fn default_plans_have_no_machine_serialization() {
        let set = Plan::new()
            .scheme("ST")
            .workload("idct")
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let json = set.to_json();
        assert!(!json.contains("\"machines\""), "no axis array: {json}");
        assert!(!json.contains("\"machine\""), "no per-cell field");
        assert_eq!(
            set.to_csv().lines().next(),
            Some("scheme,workload,memory,ipc,cycles,instrs,ops")
        );
        // The implicit machine is still addressable.
        assert_eq!(set.machines(), &[MachineSpec::Paper4x4]);
    }

    #[test]
    fn traffic_axis_expands_between_machines_and_memory() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workload("idct")
            .arrivals([TrafficSpec::Closed, "poisson:0.001".parse().unwrap()])
            .axes([MemoryModel::Real, MemoryModel::Perfect]);
        let jobs = plan.jobs();
        // 2 schemes x 1 workload x 1 sched x 1 machine x 2 traffics x 2 memory.
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].traffic, TrafficSpec::Closed);
        assert_eq!(jobs[0].memory, MemoryModel::Real);
        assert_eq!(jobs[1].traffic, TrafficSpec::Closed);
        assert_eq!(jobs[1].memory, MemoryModel::Perfect);
        assert_eq!(jobs[2].traffic, "poisson:0.001".parse().unwrap());
        assert_eq!(jobs[4].scheme.name(), "1S");
    }

    #[test]
    fn traffic_axis_deduplicates() {
        let plan = Plan::new()
            .arrival("poisson:0.02".parse().unwrap())
            .arrival("poisson:0.020000".parse().unwrap())
            .arrivals([TrafficSpec::Closed]);
        assert_eq!(
            plan.grid.filled().0.traffics,
            vec!["poisson:0.02".parse().unwrap(), TrafficSpec::Closed]
        );
        // No arrival process named: closed (batch), alone.
        assert_eq!(
            Plan::new().grid.filled().0.traffics,
            vec![TrafficSpec::Closed]
        );
    }

    #[test]
    fn traffic_sweep_is_keyed_and_serialized() {
        let open: TrafficSpec = "poisson:0.002".parse().unwrap();
        let set = Plan::new()
            .scheme("1S")
            .workload("LLHH")
            .arrivals([TrafficSpec::Closed, open])
            .scale(100_000)
            .run(&Session::with_parallelism(2));
        assert_eq!(set.len(), 2);
        // An unset arrival process resolves to the first of the axis.
        let cell = Cell::new("1S", "LLHH");
        let closed = set.get(&cell.clone().traffic(TrafficSpec::Closed)).unwrap();
        assert!(std::ptr::eq(set.get(&cell).unwrap(), closed));
        let opened = set.get(&cell.clone().traffic(open)).unwrap();
        assert_eq!(closed.stats.traffic, Default::default());
        assert_eq!(opened.stats.traffic.offered, 4, "LLHH stages 4 jobs");
        assert!(opened.ipc() > 0.0);
        assert_eq!(set.traffics()[0], TrafficSpec::Closed);
        assert!(set
            .mean_over(Axis::Workload, &cell.clone().traffic(open))
            .is_some());
        // Serialized exhibits carry the axis, per-cell labels and metrics.
        let json = set.to_json();
        assert!(
            json.contains("\"traffics\":[\"closed\",\"poisson:0.002\"]"),
            "{json}"
        );
        assert!(json.contains("\"traffic\":\"poisson:0.002\""));
        assert!(json.contains("\"offered\":4"));
        assert!(json.contains("\"p99_sojourn\":"));
        let csv = set.to_csv();
        assert_eq!(
            csv.lines().next(),
            Some(
                "scheme,workload,traffic,memory,ipc,cycles,instrs,ops,offered,completed,shed,\
                 p50_sojourn,p95_sojourn,p99_sojourn,mean_queue_depth"
            )
        );
        assert!(
            csv.lines()
                .any(|l| l.starts_with("1S,LLHH,poisson:0.002,real,")),
            "{csv}"
        );
    }

    #[test]
    fn default_plans_have_no_traffic_serialization() {
        let set = Plan::new()
            .scheme("ST")
            .workload("idct")
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let json = set.to_json();
        assert!(!json.contains("\"traffics\""), "no axis array: {json}");
        assert!(!json.contains("\"traffic\""), "no per-cell field");
        assert!(!json.contains("\"offered\""), "no open-system metrics");
        assert_eq!(
            set.to_csv().lines().next(),
            Some("scheme,workload,memory,ipc,cycles,instrs,ops")
        );
        // The implicit closed process is still addressable.
        assert_eq!(set.traffics(), &[TrafficSpec::Closed]);
    }

    #[test]
    fn both_axes_explicit_order_scheduler_then_machine() {
        let set = Plan::new()
            .scheme("1S")
            .workload("idct")
            .scheduler(SchedulerSpec::Icount)
            .machine(MachineSpec::Lite4x4)
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        assert_eq!(
            set.columns().csv_header(),
            "scheme,workload,scheduler,machine,memory,ipc,cycles,instrs,ops"
        );
        let csv = set.to_csv();
        assert!(
            csv.lines()
                .any(|l| l.starts_with("1S,idct,icount,4x4-lite,real,")),
            "{csv}"
        );
        let json = set.to_json();
        assert!(json.contains("\"scheduler\":\"icount\",\"machine\":\"4x4-lite\""));
        let cell = Cell::new("1S", "idct")
            .scheduler(SchedulerSpec::Icount)
            .machine(MachineSpec::Lite4x4);
        assert!(set.get(&cell).is_some());
    }

    #[test]
    #[should_panic(expected = "cluster count 0")]
    fn invalid_machine_specs_fail_at_plan_build_time() {
        let _ = Plan::new().machine(MachineSpec::Custom {
            clusters: 0,
            issue: 4,
            units: None,
        });
    }

    #[test]
    fn axis_deduplicates() {
        let plan = Plan::new()
            .axis(MemoryModel::Real)
            .axis(MemoryModel::Real)
            .axis(MemoryModel::Perfect);
        assert_eq!(plan.grid.memories.len(), 2);
    }

    #[test]
    fn workload_ref_resolves_mixes_and_benchmarks() {
        let mix = WorkloadRef::from("LLHH");
        assert_eq!(mix.n_threads(), 4);
        assert_eq!(mix.member_names()[0], "mcf");
        let single = WorkloadRef::from("idct");
        assert_eq!(single.n_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics_at_build_time() {
        let _ = WorkloadRef::from("QUAKE");
    }

    #[test]
    #[should_panic(expected = "shadows a Table-1 benchmark")]
    fn modified_spec_under_table1_name_is_rejected() {
        let mut spec = benchmark("idct").unwrap().clone();
        spec.unroll = 1; // changed knobs, unchanged name: must not alias
        let _ = WorkloadRef::from(&spec);
    }

    #[test]
    fn unmodified_table1_spec_converts_to_named_workload() {
        let wl = WorkloadRef::from(benchmark("idct").unwrap());
        assert_eq!(wl.name(), "idct");
        assert_eq!(wl.n_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "more than once")]
    fn duplicate_keys_are_rejected_at_run_time() {
        let _ = Plan::new()
            .schemes(["ST", "ST"])
            .workload("idct")
            .run(&Session::with_parallelism(1));
    }

    #[test]
    #[should_panic(expected = "two different custom specs named")]
    fn conflicting_custom_specs_across_workloads_are_rejected() {
        let mut a = benchmark("idct").unwrap().clone();
        a.name = "gen".into();
        let mut b = a.clone();
        b.unroll += 1; // same name, different program
        let _ = Plan::new()
            .scheme("ST")
            .workload(WorkloadRef::custom("wa", vec![a]))
            .workload(WorkloadRef::custom("wb", vec![b]))
            .scale(100_000)
            .run(&Session::with_parallelism(1));
    }

    #[test]
    #[should_panic(expected = "shadows a Table-1 benchmark")]
    fn custom_workload_rejects_shadowed_table1_names() {
        let mut spec = benchmark("idct").unwrap().clone();
        spec.unroll = 1; // changed knobs, unchanged name: must not alias
        let _ = WorkloadRef::custom("mix", vec![spec]);
    }

    #[test]
    #[should_panic(expected = "unknown scheme")]
    fn unknown_scheme_panics_at_build_time() {
        let _ = SchemeRef::from("9ZZZ");
    }

    #[test]
    fn keyed_lookup_matches_row_major_results() {
        let session = Session::with_parallelism(2);
        let set = Plan::new()
            .schemes(["ST", "1S"])
            .workloads(["idct", "LLHH"])
            .axes([MemoryModel::Real, MemoryModel::Perfect])
            .scale(100_000)
            .run(&session);
        assert_eq!(set.len(), 8);
        for (i, (key, r)) in set.iter().enumerate() {
            let by_key = set.get(&Cell::from(&key)).unwrap();
            assert_eq!(by_key.stats.cycles, r.stats.cycles, "cell {i}");
            assert!(std::ptr::eq(by_key, &set.results()[i]), "cell {i}");
        }
        // The aggregation agrees with manual recomputation.
        let ipc =
            |s: &str, w: &str, m: MemoryModel| set.get(&Cell::new(s, w).memory(m)).unwrap().ipc();
        let mean = |s: &str| {
            set.mean_over(Axis::Workload, &Cell::default().scheme(s))
                .unwrap()
        };
        let manual =
            (ipc("1S", "idct", MemoryModel::Real) + ipc("1S", "LLHH", MemoryModel::Real)) / 2.0;
        assert!((mean("1S") - manual).abs() < 1e-12);
        assert!(mean("1S") > mean("ST"), "1S must beat ST on average");
        // Perfect memory dominates on every cell.
        for s in ["ST", "1S"] {
            for w in ["idct", "LLHH"] {
                let r = ipc(s, w, MemoryModel::Real);
                let p = ipc(s, w, MemoryModel::Perfect);
                assert!(p >= r * 0.95, "{s}/{w}: perfect {p:.2} vs real {r:.2}");
            }
        }
    }

    #[test]
    fn custom_workloads_with_computed_names_run() {
        // A generated spec whose name exists only at runtime: the shape the
        // old `&'static str` plumbing could not express.
        let mut spec = benchmark("idct").unwrap().clone();
        let variant = 3u32;
        spec.name = format!("idct-gen-{variant}").into();
        let wl = WorkloadRef::custom(&format!("gen-mix-{variant}"), vec![spec; 2]);
        let set = Plan::new()
            .scheme("1S")
            .workload(wl)
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let r = set.get(&Cell::new("1S", "gen-mix-3")).unwrap();
        assert_eq!(r.stats.threads.len(), 2);
        assert_eq!(&*r.stats.threads[0].name, "idct-gen-3");
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn json_and_csv_are_wellformed() {
        let set = Plan::new()
            .scheme("ST")
            .workload("idct")
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let json = set.to_json();
        assert!(json.starts_with("{\"scale\":100000,\"priority\":\"round-robin\",\"seed\":null,"));
        assert!(json.contains("\"scheme\":\"ST\""));
        assert!(json.ends_with("]}"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        let csv = set.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("scheme,workload,memory,ipc,cycles,instrs,ops")
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("ST,idct,real,"));
    }

    #[test]
    fn run_traced_hooks_every_cell_in_grid_order() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workload("idct")
            .axes([MemoryModel::Real, MemoryModel::Perfect])
            .scale(100_000);
        let mut seen: Vec<(String, String)> = Vec::new();
        let set = plan.run_traced(&Session::with_parallelism(2), |key, result, trace| {
            assert!(!trace.is_empty(), "every cell records events");
            assert_eq!(trace.end_cycle, result.stats.cycles);
            // Trace-derived stall decomposition matches the cell's stats.
            assert_eq!(
                vliw_trace::StallBreakdown::from_events(&trace.events),
                result.stats.stall_breakdown
            );
            seen.push((key.scheme.name().to_string(), key.memory.label().into()));
        });
        // Hook ran once per cell, row-major (schemes outer, memory inner).
        assert_eq!(
            seen,
            vec![
                ("ST".into(), "real".into()),
                ("ST".into(), "perfect".into()),
                ("1S".into(), "real".into()),
                ("1S".into(), "perfect".into()),
            ]
        );
        // The returned set is the plain `run` result set.
        let plain = plan.run(&Session::with_parallelism(1));
        let cell = Cell::new("1S", "idct").memory(MemoryModel::Perfect);
        assert_eq!(
            set.get(&cell).unwrap().stats.cycles,
            plain.get(&cell).unwrap().stats.cycles
        );
    }

    #[test]
    fn trace_cell_probes_one_cell_with_bounded_memory() {
        let plan = Plan::new()
            .scheme("1S")
            .workload("LLHH")
            .scale(50_000)
            .trace(TraceSpec::Ring(256));
        let key = plan.jobs().remove(0);
        let (result, trace) = plan.trace_cell(&Session::with_parallelism(1), &key);
        assert_eq!(result.workload, "LLHH");
        assert_eq!(trace.events.len(), 256, "ring cap respected");
        assert!(trace.dropped > 0);
        assert_eq!(trace.threads.len(), 4);
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn csv_quotes_computed_names_with_delimiters() {
        assert_eq!(csv_field("LLHH"), "LLHH");
        assert_eq!(csv_field("fir,taps=4"), "\"fir,taps=4\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
        let mut spec = benchmark("idct").unwrap().clone();
        spec.name = "gen,v1".into();
        let set = Plan::new()
            .scheme("ST")
            .workload(WorkloadRef::custom("w,1", vec![spec]))
            .scale(500_000)
            .run(&Session::with_parallelism(1));
        let row = set.to_csv().lines().nth(1).unwrap().to_string();
        assert!(row.starts_with("ST,\"w,1\",real,"), "row: {row}");
    }
}
