//! The exhibit table: every exhibit `paper` renders, the sweep it reads
//! and its renderer, plus [`Sweeps`], which simulates each sweep at most
//! once per invocation and builds the `--json` and `--csv` exports from
//! what it ran. Every sweep runs the same way, through
//! [`Plan::run`] or [`Plan::run_metered`], so the session's memo can serve
//! its cells; the trace sweep then also traces each of its cells with
//! [`experiments::trace_rows`] for the columns only a trace shows.

use crate::{figures, Exhibit};
use vliw_sim::experiments::{self, TraceRow};
use vliw_sim::plan::{
    Axis, Columns, FleetSpec, MachineSpec, Plan, ResultSet, Session, TrafficSpec,
};
use vliw_sim::sched::SchedulerSpec;
use vliw_sim::telemetry::Registry;

/// One simulated plan behind one or more exhibits. Its result set is
/// exported under [`Sweep::id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// [`experiments::table1_plan`].
    Table1,
    /// [`experiments::fig4_plan`].
    Fig4,
    /// [`experiments::fig6_plan`].
    Fig6,
    /// [`experiments::fig10_plan`]: every scheme on every mix, read by
    /// Figures 10–12 and the headline claims.
    Fig10,
    /// [`experiments::geometry_plan`].
    Geometry,
    /// [`experiments::trace_plan`], whose cells are also traced.
    Trace,
    /// [`experiments::traffic_plan`].
    Traffic,
    /// [`experiments::fleet_plan`].
    Fleet,
}

impl Sweep {
    /// The sweep's plan at `scale`, before any [`Axes`].
    pub fn plan(self, scale: u64) -> Plan {
        match self {
            Sweep::Table1 => experiments::table1_plan(scale),
            Sweep::Fig4 => experiments::fig4_plan(scale),
            Sweep::Fig6 => experiments::fig6_plan(scale),
            Sweep::Fig10 => experiments::fig10_plan(scale),
            Sweep::Geometry => experiments::geometry_plan(scale),
            Sweep::Trace => experiments::trace_plan(scale),
            Sweep::Traffic => experiments::traffic_plan(scale),
            Sweep::Fleet => experiments::fleet_plan(scale),
        }
    }

    /// The id the sweep's result set is exported under: the name of the
    /// first exhibit in [`EXHIBITS`] that reads it.
    pub fn id(self) -> &'static str {
        EXHIBITS
            .iter()
            .find(|e| e.sweep() == Some(self))
            .expect("every sweep has an exhibit")
            .name
    }
}

/// What running a sweep leaves for its exhibits.
pub struct Swept {
    /// The sweep's result set.
    pub set: ResultSet,
    /// Per-cell trace rows in grid order; only [`Sweep::Trace`] has them.
    pub trace: Option<Vec<TraceRow>>,
}

/// Where an exhibit's numbers come from.
#[derive(Clone, Copy)]
enum Source {
    /// No simulation.
    Static(fn() -> Exhibit),
    /// One sweep's outcome.
    Sweep(Sweep, fn(&Swept) -> Exhibit),
}

/// One row of [`EXHIBITS`].
#[derive(Clone, Copy)]
pub struct ExhibitDef {
    /// The name `paper` accepts; also the stem of its `--out` CSV.
    pub name: &'static str,
    source: Source,
}

impl ExhibitDef {
    const fn fixed(name: &'static str, render: fn() -> Exhibit) -> Self {
        ExhibitDef {
            name,
            source: Source::Static(render),
        }
    }

    const fn swept(name: &'static str, sweep: Sweep, render: fn(&Swept) -> Exhibit) -> Self {
        ExhibitDef {
            name,
            source: Source::Sweep(sweep, render),
        }
    }

    /// The sweep the exhibit reads; `None` for a static exhibit.
    pub fn sweep(&self) -> Option<Sweep> {
        match self.source {
            Source::Static(_) => None,
            Source::Sweep(sweep, _) => Some(sweep),
        }
    }
}

/// Every exhibit `paper` understands, in render order.
pub const EXHIBITS: [ExhibitDef; 14] = [
    ExhibitDef::swept("table1", Sweep::Table1, figures::table1),
    ExhibitDef::fixed("table2", figures::table2),
    ExhibitDef::swept("fig4", Sweep::Fig4, figures::fig4),
    ExhibitDef::fixed("fig5", figures::fig5),
    ExhibitDef::swept("fig6", Sweep::Fig6, figures::fig6),
    ExhibitDef::fixed("fig9", figures::fig9),
    ExhibitDef::swept("fig10", Sweep::Fig10, figures::fig10),
    ExhibitDef::swept("fig11", Sweep::Fig10, figures::fig11),
    ExhibitDef::swept("fig12", Sweep::Fig10, figures::fig12),
    ExhibitDef::swept("headline", Sweep::Fig10, figures::headline),
    ExhibitDef::swept("geometry", Sweep::Geometry, figures::geometry),
    ExhibitDef::swept("trace", Sweep::Trace, figures::trace),
    ExhibitDef::swept("traffic", Sweep::Traffic, figures::traffic),
    ExhibitDef::swept("fleet", Sweep::Fleet, figures::fleet),
];

/// The row of [`EXHIBITS`] called `name`.
pub fn exhibit(name: &str) -> Option<&'static ExhibitDef> {
    EXHIBITS.iter().find(|e| e.name == name)
}

/// The optional axes `paper` applies to every sweep (`--scheduler`,
/// `--machine`, `--arrivals`, `--fleet`). An unnamed axis keeps the
/// paper's default and the historical export bytes.
#[derive(Debug, Clone, Default)]
pub struct Axes {
    /// OS scheduling policy.
    pub scheduler: Option<SchedulerSpec>,
    /// Machine geometry.
    pub machine: Option<MachineSpec>,
    /// Arrival process.
    pub arrivals: Option<TrafficSpec>,
    /// Fleet behind a dispatcher.
    pub fleet: Option<FleetSpec>,
}

impl Axes {
    /// `plan` with every named axis applied. A sweep that already sweeps
    /// an axis (geometry its machines, traffic its arrival processes,
    /// fleet its fleets) gains the named value; every axis dedups.
    pub fn apply(&self, mut plan: Plan) -> Plan {
        if let Some(spec) = self.scheduler {
            plan = plan.scheduler(spec);
        }
        if let Some(spec) = self.machine {
            plan = plan.machine(spec);
        }
        if let Some(spec) = self.arrivals {
            plan = plan.arrival(spec);
        }
        if let Some(spec) = &self.fleet {
            plan = plan.fleet(spec.clone());
        }
        plan
    }

    /// The key columns the named axes put on every combined-CSV row.
    fn columns(&self) -> Columns {
        [
            (self.scheduler.is_some(), Axis::Scheduler),
            (self.machine.is_some(), Axis::Machine),
            (self.fleet.is_some(), Axis::Fleet),
            (self.arrivals.is_some(), Axis::Traffic),
        ]
        .into_iter()
        .filter(|&(named, _)| named)
        .fold(Columns::default(), |c, (_, axis)| c.with(axis))
    }
}

/// Runs the sweeps that exhibits read, each at most once, and keeps every
/// result set in first-use order for the exports.
pub struct Sweeps<'a> {
    session: &'a Session,
    scale: u64,
    axes: &'a Axes,
    registry: Option<&'a Registry>,
    runs: Vec<(Sweep, Swept)>,
}

impl<'a> Sweeps<'a> {
    /// Sweeps at `scale` with `axes` applied. With a `registry`, every
    /// sweep runs metered through it; the trace sweep's traced re-runs
    /// are not metered.
    pub fn new(
        session: &'a Session,
        scale: u64,
        axes: &'a Axes,
        registry: Option<&'a Registry>,
    ) -> Self {
        Sweeps {
            session,
            scale,
            axes,
            registry,
            runs: Vec::new(),
        }
    }

    /// Render `exhibit`, running its sweep first unless it already ran.
    pub fn render(&mut self, exhibit: &ExhibitDef) -> Exhibit {
        match exhibit.source {
            Source::Static(render) => render(),
            Source::Sweep(sweep, render) => render(self.run(sweep)),
        }
    }

    /// The outcome of `sweep`, running it unless it already ran.
    pub fn run(&mut self, sweep: Sweep) -> &Swept {
        if let Some(i) = self.runs.iter().position(|(s, _)| *s == sweep) {
            return &self.runs[i].1;
        }
        let plan = self.axes.apply(sweep.plan(self.scale));
        let set = match self.registry {
            Some(reg) => plan.run_metered(self.session, reg),
            None => plan.run(self.session),
        };
        let trace = (sweep == Sweep::Trace).then(|| experiments::trace_rows(&plan, self.session));
        self.runs.push((sweep, Swept { set, trace }));
        &self.runs[self.runs.len() - 1].1
    }

    /// Every result set so far under its sweep's id, in first-use order.
    pub fn sets(&self) -> impl Iterator<Item = (&'static str, &ResultSet)> + '_ {
        self.runs.iter().map(|(sweep, s)| (sweep.id(), &s.set))
    }

    /// The `paper --json` export: the scale and every result set.
    pub fn to_json(&self) -> String {
        let sets: Vec<String> = self
            .sets()
            .map(|(id, set)| format!("{{\"id\":\"{id}\",\"set\":{}}}", set.to_json()))
            .collect();
        format!(
            "{{\"scale\":{},\"exhibits\":[{}]}}",
            self.scale,
            sets.join(",")
        )
    }

    /// The `paper --csv` export: every result set's rows, prefixed with
    /// its id. The sets can disagree on which axes they sweep (geometry
    /// always sweeps machines, the paper's exhibits only under
    /// `--machine`), so one header takes the union of their columns and
    /// the named axes'.
    pub fn to_csv(&self) -> String {
        let columns = self
            .sets()
            .fold(self.axes.columns(), |c, (_, set)| c | set.columns());
        let mut s = format!("exhibit,{}\n", columns.csv_header());
        for (id, set) in self.sets() {
            s.push_str(&set.csv_rows(Some(id), columns));
        }
        s
    }
}
