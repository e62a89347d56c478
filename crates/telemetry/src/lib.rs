//! # vliw-telemetry — harness self-observation for the vliw-tms stack
//!
//! The simulator can trace a *simulated machine* cycle-by-cycle
//! (`vliw-trace`); this crate instruments the *harness that runs it*: how
//! long each sweep cell took, how the image cache behaved, how deep the OS
//! event queue grew, how busy each fleet lane was, and how far along a
//! long grid is. It is dependency-free (std only) so every other crate can
//! take it without dragging anything in.
//!
//! Two design rules, both enforced by construction:
//!
//! * **Deterministic and timing metrics never mix.** Every metric carries a
//!   [`Class`]: [`Class::Deterministic`] values are pure functions of the
//!   sweep grid (identical across worker counts, core models and machines
//!   — CI byte-diffs them), while [`Class::Timing`] values are wall-clock
//!   measurements that differ run to run. [`SweepReport::to_json`] /
//!   [`SweepReport::to_prom`] emit the timing subset only when asked, so
//!   the default export is byte-stable.
//! * **Once per cell, never per cycle.** The harness emits only around
//!   sweep cells: when a plan starts, as each cell finishes and when the
//!   plan ends. So the registry is a plain collector that the plan runner
//!   calls directly when it is handed one, and an unmetered run skips a
//!   few branches per cell. Only `vliw-trace`'s `TraceSink`, which records
//!   per simulated cycle, compiles away through an associated `ENABLED`
//!   constant.
//!
//! Wall time comes from a [`Clock`] object, not from `Instant::now()`
//! sprinkled through the code: real runs use [`MonotonicClock`], tests use
//! [`ManualClock`] and get reproducible timings and a testable progress
//! heartbeat for free.
//!
//! The metrics collector is [`Registry`]: named counters, gauges and
//! fixed-bucket histograms held in **registration order**, so a schema
//! registered up front yields byte-stable exports no matter which worker
//! thread emitted first. [`Registry::register`] declares a metric with
//! its [`Class`] and [`Kind`], and [`Registry::report`] snapshots the
//! registry into a [`SweepReport`].
//!
//! The sweep heartbeat is separate from the metrics: a [`Progress`]
//! repaints a throttled stderr line (`cells done/total, cells/s, eta,
//! cache hit-rate`) as cells finish. It records no metric and never
//! touches stdout, so neither piped output nor any export changes with it.

#![deny(missing_docs)]

mod clock;
mod progress;
mod registry;
mod report;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use progress::{progress_line, Progress};
pub use registry::{Class, Kind, Registry};
pub use report::{MetricValue, ReportEntry, SweepReport};
