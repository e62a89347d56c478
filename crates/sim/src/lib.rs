//! # vliw-sim — cycle-accurate multithreaded clustered VLIW simulator
//!
//! The evaluation vehicle of the paper (§5.1): a 4-cluster, 4-issue-per-
//! cluster VLIW with per-thread program counters, a merge network between
//! fetch and execute (one extra pipeline stage, hence the 2-cycle taken-
//! branch penalty), shared blocking 64KB 4-way I$/D$ with a 20-cycle miss
//! penalty, and a multitasking OS layer that timeslices software threads
//! onto hardware contexts (1M-cycle quantum, random replacement).
//!
//! Model summary (every simplification is deliberate and documented):
//!
//! * **Trace-driven execution** — instructions carry their resource
//!   signatures, memory ops draw addresses from calibrated streams, branch
//!   outcomes are drawn from per-branch probabilities with a deterministic
//!   per-thread RNG. Data values are never computed; timing is.
//! * **In-order, blocking threads** — a D$ miss stalls the *issuing thread*
//!   for the penalty; other threads keep going (that recovered vertical
//!   waste is the whole point of multithreading). Multiple misses in one
//!   instruction serialize.
//! * **Taken branches** cost [`vliw_isa::MachineConfig::taken_branch_penalty`]
//!   bubble cycles on the branching thread; wrong-path operations are
//!   squashed before reaching other threads' issue bandwidth.
//! * **Intra-block latencies** are the compiler's responsibility (the
//!   scheduler pads blocks); the pipeline issues one instruction per ready
//!   thread per cycle at most.
//! * **Pluggable OS policy** — the quantum-expiry behaviour (who gets
//!   evicted, who refills which context) is a [`sched::Scheduler`] trait;
//!   the paper's random-refill model is the default
//!   [`sched::SchedulerSpec::PaperRandom`] policy and reproduces the
//!   hardwired original bit-for-bit.
//! * **Two core models, one semantics** — the default [`CoreModel::EventDriven`]
//!   loop skips each all-stalled span to the earliest `stall_until` of
//!   its installed threads; the [`CoreModel::CycleAccurate`] oracle ticks
//!   every cycle. Statistics, traces and RNG draws are bit-identical between
//!   them (differentially tested), so "cycle-accurate" describes the
//!   *semantics* of both; the switch is [`SimConfig::with_core_model`].
//!
//! Entry points: [`Core`] for a bare multithreaded core, [`os::Machine`]
//! for the timesliced multiprogramming layer, [`sched`] for the OS
//! scheduling policies it drives, [`runner`] for the low-level experiment
//! API (single runs, parallel fan-out, the `(benchmark, machine)`-keyed
//! image cache), [`plan`] for the declarative sweep surface ([`Plan`] →
//! [`ResultSet`] over one [`plan::Axis`] table — scheme, workload,
//! scheduler, machine, fleet, traffic and memory — with
//! [`plan::Cell`]-keyed lookup, per-geometry hwcost pricing and JSON/CSV
//! exhibits), and
//! [`experiments`] for the paper's figure-level drivers built on it.
//! Fallible entry points return typed [`SimError`]s.
//!
//! **Tracing** — the whole hot loop (core, threads, memory, OS layer) is
//! generic over a [`trace::TraceSink`]; the untraced entry points
//! monomorphize the [`trace::NullSink`] path, which compiles to the
//! pre-tracing code (zero cost when off). One entry point builds a full
//! [`trace::Trace`]: [`Plan::trace_cell`](plan::Plan::trace_cell) runs one
//! grid cell, single machine or fleet, through the same cell runner as
//! [`Plan::run`](plan::Plan::run), with a [`trace::RecordingSink`] in
//! place of the [`trace::NullSink`]. To trace several cells, call it per
//! cell on the workers of [`runner::run_jobs`], as
//! [`experiments::trace_rows`] does. A bounded window of a bare machine
//! is [`os::Machine::run_traced`] with a [`trace::RingSink`], which counts
//! its own drops. Analyze and export traces with the re-exported
//! [`trace`] crate (stall breakdowns, occupancy timelines,
//! Chrome-trace/JSONL/CSV serialization). Tracing observes, never
//! perturbs: traced statistics equal untraced ones.

//!
//! **Telemetry** — the sweep layer meters itself once per cell, never per
//! cycle, so it needs no sink type: [`Plan::run_metered`](plan::Plan::run_metered)
//! records per-cell wall time, the compile/simulate split, image-cache
//! economics and engine-health counters into the [`telemetry::Registry`]
//! it is handed, whose deterministic class exports byte-stably
//! ([`metrics`] holds the schema table and the post-hoc harvest).
//! [`Plan::run`](plan::Plan::run) is the same run path with no registry.
//! Metering only observes: a metered set exports the same bytes as an
//! unmetered one. The stderr heartbeat is not a metric: a
//! [`plan::Session`] built [`with_progress`](plan::Session::with_progress)
//! carries it, so it changes no result or export either.

pub use vliw_telemetry as telemetry;
pub use vliw_trace as trace;

pub mod config;
pub mod core;
pub mod error;
pub mod events;
pub mod experiments;
pub mod fleet;
pub mod metrics;
pub mod os;
pub mod plan;
pub mod runner;
pub mod sched;
pub mod stats;
pub mod thread;

pub use crate::core::{Core, CoreModel};
pub use config::SimConfig;
pub use error::SimError;
pub use fleet::run_fleet;
pub use plan::{
    Axis, Cell, Columns, MachineSpec, MemoryModel, Plan, ResultSet, SchemeRef, Session, WorkloadRef,
};
pub use runner::{run_mix, run_single, RunResult};
pub use sched::{Scheduler, SchedulerSpec};
pub use stats::RunStats;
pub use thread::SoftThread;
pub use vliw_fleet::{Dispatcher, DispatcherSpec, FleetSpec, FleetStats, MachineLaneStats};
pub use vliw_trace::{StallBreakdown, Trace, TraceEvent, TraceFormat, TraceSink};
