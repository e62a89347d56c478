//! # vliw-trace — zero-cost cycle-level event tracing
//!
//! The simulator's observability layer: where every cycle of a run went,
//! at event granularity, costing nothing when disabled.
//!
//! The design has three layers:
//!
//! * **Events** ([`TraceEvent`]) — typed cycle-level facts emitted by the
//!   pipeline, the memory system and the OS layer: bundle issue, stalls by
//!   kind, cache misses, context admission/eviction/refill, thread
//!   migration, and merge/split transitions of the issue mask.
//! * **Sinks** ([`TraceSink`]) — where events go. The hot loop is generic
//!   over `S: TraceSink` and every emission site is guarded by the
//!   *associated constant* [`TraceSink::ENABLED`], so with [`NullSink`]
//!   the guard is `if false` at monomorphization time and the entire
//!   event-construction code folds away: the disabled path compiles to
//!   the untraced code. [`RingSink`] keeps a bounded most-recent window;
//!   [`RecordingSink`] keeps everything.
//! * **Analyses & exporters** — derived views over a recorded [`Trace`]:
//!   per-kind stall decomposition ([`StallBreakdown`]), context-occupancy
//!   timelines ([`occupancy_timeline`], [`render_ascii_timeline`]) and
//!   byte-stable exporters to Chrome `trace_event` JSON, JSONL and CSV
//!   ([`TraceFormat`]).
//!
//! This crate is dependency-free and sits at the bottom of the workspace:
//! `vliw-mem` emits miss events through it, `vliw-sim` threads a sink
//! through core/OS/thread, and the `paper` binary exports traces from the
//! command line (`--trace`/`--trace-format`).

#![deny(missing_docs)]

mod analysis;
mod event;
mod export;
mod sink;

pub use analysis::{occupancy_timeline, render_ascii_timeline, OccupancySegment, StallBreakdown};
pub use event::{CacheKind, StallKind, TraceEvent};
pub use export::{TraceFormat, UnknownTraceFormat};
pub use sink::{NullSink, RecordingSink, RingSink, Trace, TraceSink};
