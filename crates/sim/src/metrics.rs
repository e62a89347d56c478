//! Harness-wide metric schema and post-hoc harvest.
//!
//! Two-phase design keeps the registry deterministic without threading a
//! lock through the hot simulation loops:
//!
//! 1. **Schema up front.** One table holds every metric's name, help
//!    text, class and kind in a fixed order, and [`register_schema`]
//!    declares it before any cell runs — so the export order (and
//!    therefore the exported bytes) never depends on which worker touched
//!    which counter first.
//! 2. **Harvest after the fact.** Almost every deterministic metric is a
//!    pure function of the [`RunResult`]s a sweep returns, which are
//!    already proven independent of worker count and core model. So
//!    [`harvest`] folds them into the registry single-threaded, in
//!    row-major grid order, after the parallel fan-out completes. Only
//!    genuinely wall-clock quantities carry [`Class::Timing`], which the
//!    byte-stable export excludes by default: cell durations are emitted
//!    live from the workers, and the image cache's probe and
//!    build/verify tallies are read off the cache after the fan-out.

use crate::runner::RunResult;
use crate::stats::IDLE_SPAN_BOUNDS;
use vliw_telemetry::{Class, Kind, Registry};

/// Canonical metric names (`vliw_` prefix, Prometheus-style suffixes).
///
/// Everything the harness emits is named here, and the schema table
/// registers every name, so emission sites and the schema share one
/// spelling. The registry ignores an emission to an unregistered name;
/// the metered digests of `tests/export_digests.rs` would catch one.
pub mod names {
    /// Sweep cells planned across all plans this process ran.
    pub const CELLS_TOTAL: &str = "vliw_cells_total";
    /// Sweep cells that completed.
    pub const CELLS_COMPLETED: &str = "vliw_cells_completed_total";
    /// Sweep cells served from an identical cell the session had already
    /// simulated.
    pub const CELLS_MEMOIZED: &str = "vliw_cells_memoized_total";
    /// Simulated cycles summed over all cells.
    pub const SIM_CYCLES: &str = "vliw_sim_cycles_total";
    /// VLIW instructions retired over all cells.
    pub const SIM_INSTRS: &str = "vliw_sim_instrs_total";
    /// Operations retired over all cells.
    pub const SIM_OPS: &str = "vliw_sim_ops_total";
    /// OS quantum expiries over all cells.
    pub const SIM_CONTEXT_SWITCHES: &str = "vliw_sim_context_switches_total";
    /// Cross-context thread reinstallations over all cells.
    pub const SIM_MIGRATIONS: &str = "vliw_sim_migrations_total";
    /// Cycles in which nothing issued, over all cells.
    pub const SIM_VERTICAL_WASTE: &str = "vliw_sim_vertical_waste_cycles_total";
    /// Issue slots wasted in non-empty cycles, over all cells.
    pub const SIM_HORIZONTAL_WASTE: &str = "vliw_sim_horizontal_waste_slots_total";
    /// Open-system jobs that arrived (admitted or shed).
    pub const TRAFFIC_OFFERED: &str = "vliw_traffic_offered_total";
    /// Open-system jobs admitted into the queue (offered − shed).
    pub const TRAFFIC_ADMITTED: &str = "vliw_traffic_admitted_total";
    /// Open-system jobs rejected at a full admission queue.
    pub const TRAFFIC_SHED: &str = "vliw_traffic_shed_total";
    /// Open-system jobs that retired their full budget.
    pub const TRAFFIC_COMPLETED: &str = "vliw_traffic_completed_total";
    /// OS event-queue schedules over all cells.
    pub const QUEUE_PUSHES: &str = "vliw_queue_pushes_total";
    /// OS event-queue pops over all cells.
    pub const QUEUE_POPS: &str = "vliw_queue_pops_total";
    /// OS event-queue depth high-water mark across cells.
    pub const QUEUE_DEPTH_MAX: &str = "vliw_queue_depth_max";
    /// Maximal all-stalled spans over all cells.
    pub const IDLE_SPANS: &str = "vliw_idle_spans_total";
    /// Cycles inside those spans.
    pub const IDLE_SPAN_CYCLES: &str = "vliw_idle_span_cycles_total";
    /// Longest idle span seen in any cell.
    pub const IDLE_SPAN_MAX: &str = "vliw_idle_span_max";
    /// Idle-span length distribution (cycles).
    pub const IDLE_SPAN_LENGTH: &str = "vliw_idle_span_length_cycles";
    /// Image-cache lookups over all plans.
    pub const CACHE_REQUESTS: &str = "vliw_cache_requests_total";
    /// Image-cache lookups that hit an already-built image.
    pub const CACHE_HITS: &str = "vliw_cache_hits_total";
    /// Image-cache lookups that had to build.
    pub const CACHE_MISSES: &str = "vliw_cache_misses_total";
    /// Trace events dropped by bounded ring sinks.
    pub const TRACE_DROPPED: &str = "vliw_trace_dropped_total";
    /// Fleet machine-lanes simulated (machines × cells).
    pub const FLEET_LANES: &str = "vliw_fleet_lanes_total";
    /// Lane-cycles fleet machines spent running.
    pub const FLEET_BUSY: &str = "vliw_fleet_busy_lane_cycles_total";
    /// Lane-cycles fleet machines idled while the makespan lane ran on.
    pub const FLEET_IDLE: &str = "vliw_fleet_idle_lane_cycles_total";
    /// Makespan × lanes: the lane-cycle budget busy + idle must conserve.
    pub const FLEET_MAKESPAN_LANE_CYCLES: &str = "vliw_fleet_makespan_lane_cycles_total";
    /// Per-lane busy fraction distribution (permille of makespan).
    pub const FLEET_LANE_BUSY_PERMILLE: &str = "vliw_fleet_lane_busy_permille";
    /// Per-cell wall time (timing class).
    pub const CELL_WALL_NS: &str = "vliw_cell_wall_ns";
    /// Per-cell compile share of wall time (timing class).
    pub const CELL_COMPILE_NS: &str = "vliw_cell_compile_ns";
    /// Per-cell simulate share of wall time (timing class).
    pub const CELL_SIMULATE_NS: &str = "vliw_cell_simulate_ns";
    /// Wall time spent compiling benchmark images (timing class).
    pub const CACHE_BUILD_NS: &str = "vliw_cache_build_ns";
    /// Wall time spent statically verifying fresh images (timing class).
    pub const CACHE_VERIFY_NS: &str = "vliw_cache_verify_ns";
    /// Live image-cache probe hits (timing class: scheduling-dependent).
    pub const CACHE_PROBE_HITS: &str = "vliw_cache_probe_hits_total";
    /// Live image-cache probe misses (timing class: scheduling-dependent).
    pub const CACHE_PROBE_MISSES: &str = "vliw_cache_probe_misses_total";
}

/// Bucket bounds (inclusive, permille) for the per-lane busy-fraction
/// histogram: eighths of the makespan.
pub const LANE_BUSY_PERMILLE_BOUNDS: [u64; 7] = [125, 250, 375, 500, 625, 750, 875];

/// Bucket bounds (inclusive, nanoseconds) for wall-time histograms:
/// decades from 0.1 ms to 10 s.
pub const WALL_NS_BOUNDS: [u64; 6] = [
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// The harness schema in its canonical (export) order: name, help text,
/// class and kind of every metric, the 30 deterministic ones first.
#[rustfmt::skip]
const SCHEMA: [(&str, &str, Class, Kind); 37] = {
    use names::*;
    use Class::{Deterministic, Timing};
    use Kind::{Counter, Gauge, Histogram};
    [
        (CELLS_TOTAL, "Sweep cells planned", Deterministic, Counter),
        (CELLS_COMPLETED, "Sweep cells completed", Deterministic, Counter),
        (CELLS_MEMOIZED, "Sweep cells served from an identical earlier cell",
            Deterministic, Counter),
        (SIM_CYCLES, "Simulated cycles", Deterministic, Counter),
        (SIM_INSTRS, "VLIW instructions retired", Deterministic, Counter),
        (SIM_OPS, "Operations retired", Deterministic, Counter),
        (SIM_CONTEXT_SWITCHES, "OS quantum expiries handled", Deterministic, Counter),
        (SIM_MIGRATIONS, "Cross-context thread reinstallations", Deterministic, Counter),
        (SIM_VERTICAL_WASTE, "Cycles in which nothing issued", Deterministic, Counter),
        (SIM_HORIZONTAL_WASTE, "Issue slots wasted in non-empty cycles", Deterministic, Counter),
        (TRAFFIC_OFFERED, "Open-system jobs offered", Deterministic, Counter),
        (TRAFFIC_ADMITTED, "Open-system jobs admitted (offered minus shed)",
            Deterministic, Counter),
        (TRAFFIC_SHED, "Open-system jobs shed at a full admission queue", Deterministic, Counter),
        (TRAFFIC_COMPLETED, "Open-system jobs completed", Deterministic, Counter),
        (QUEUE_PUSHES, "OS event-queue schedules", Deterministic, Counter),
        (QUEUE_POPS, "OS event-queue pops", Deterministic, Counter),
        (QUEUE_DEPTH_MAX, "OS event-queue depth high-water mark", Deterministic, Gauge),
        (IDLE_SPANS, "Maximal all-stalled cycle spans", Deterministic, Counter),
        (IDLE_SPAN_CYCLES, "Cycles inside all-stalled spans", Deterministic, Counter),
        (IDLE_SPAN_MAX, "Longest all-stalled span", Deterministic, Gauge),
        (IDLE_SPAN_LENGTH, "All-stalled span lengths in cycles",
            Deterministic, Histogram(&IDLE_SPAN_BOUNDS)),
        (CACHE_REQUESTS, "Image-cache lookups", Deterministic, Counter),
        (CACHE_HITS, "Image-cache lookups served from cache", Deterministic, Counter),
        (CACHE_MISSES, "Image-cache lookups that compiled", Deterministic, Counter),
        (TRACE_DROPPED, "Trace events dropped by bounded ring sinks", Deterministic, Counter),
        (FLEET_LANES, "Fleet machine-lanes simulated", Deterministic, Counter),
        (FLEET_BUSY, "Lane-cycles fleet machines ran", Deterministic, Counter),
        (FLEET_IDLE, "Lane-cycles fleet machines idled before makespan", Deterministic, Counter),
        (FLEET_MAKESPAN_LANE_CYCLES, "Fleet makespan times lane count", Deterministic, Counter),
        (FLEET_LANE_BUSY_PERMILLE, "Per-lane busy fraction of the fleet makespan (permille)",
            Deterministic, Histogram(&LANE_BUSY_PERMILLE_BOUNDS)),
        (CELL_WALL_NS, "Per-cell wall time (ns)", Timing, Histogram(&WALL_NS_BOUNDS)),
        (CELL_COMPILE_NS, "Per-cell compile wall time (ns)", Timing, Histogram(&WALL_NS_BOUNDS)),
        (CELL_SIMULATE_NS, "Per-cell simulate wall time (ns)", Timing, Histogram(&WALL_NS_BOUNDS)),
        (CACHE_BUILD_NS, "Wall time compiling images (ns)", Timing, Counter),
        (CACHE_VERIFY_NS, "Wall time verifying images (ns)", Timing, Counter),
        (CACHE_PROBE_HITS, "Live image-cache probe hits", Timing, Counter),
        (CACHE_PROBE_MISSES, "Live image-cache probe misses", Timing, Counter),
    ]
};

/// Declare the full harness schema in its canonical order (idempotent).
///
/// Called by every metered plan run before any cell starts, so a
/// multi-exhibit invocation registers each metric exactly once and the
/// export order is fixed no matter which exhibits ran or in what order
/// their workers finished.
pub fn register_schema(reg: &Registry) {
    for (name, help, class, kind) in SCHEMA {
        reg.register(name, help, class, kind);
    }
}

/// Fold a sweep's results into the registry, single-threaded, in the order
/// given (plans pass row-major grid order).
///
/// Everything harvested here is a pure function of the results, which are
/// themselves deterministic across worker counts and core models — so the
/// deterministic export is byte-stable by construction.
pub fn harvest(results: &[RunResult], reg: &Registry) {
    use names::*;
    for r in results {
        let s = &r.stats;
        reg.counter_add(CELLS_COMPLETED, 1);
        reg.counter_add(SIM_CYCLES, s.cycles);
        reg.counter_add(SIM_INSTRS, s.total_instrs);
        reg.counter_add(SIM_OPS, s.total_ops);
        reg.counter_add(SIM_CONTEXT_SWITCHES, s.context_switches);
        reg.counter_add(SIM_MIGRATIONS, s.migrations);
        reg.counter_add(SIM_VERTICAL_WASTE, s.vertical_waste_cycles);
        reg.counter_add(SIM_HORIZONTAL_WASTE, s.horizontal_waste_slots);
        reg.counter_add(TRAFFIC_OFFERED, s.traffic.offered);
        reg.counter_add(TRAFFIC_ADMITTED, s.traffic.offered - s.traffic.shed);
        reg.counter_add(TRAFFIC_SHED, s.traffic.shed);
        reg.counter_add(TRAFFIC_COMPLETED, s.traffic.completed);
        reg.counter_add(QUEUE_PUSHES, s.engine.queue_pushes);
        reg.counter_add(QUEUE_POPS, s.engine.queue_pops);
        reg.gauge_max(QUEUE_DEPTH_MAX, s.engine.queue_depth_max);
        reg.counter_add(IDLE_SPANS, s.engine.idle_spans);
        reg.counter_add(IDLE_SPAN_CYCLES, s.engine.idle_span_cycles);
        reg.gauge_max(IDLE_SPAN_MAX, s.engine.idle_span_max);
        reg.merge_histogram(
            IDLE_SPAN_LENGTH,
            &s.engine.idle_span_hist,
            s.engine.idle_span_cycles,
        );
        // `cache_hits`/`cache_misses` are deliberately NOT summed here:
        // the registry's cache totals are delta-derived by the metered
        // plan runs (hits + misses == requests exactly, fleet lane
        // compiles included), while the per-cell fields are a static
        // attribution that omits routed-lane compiles.
        reg.counter_add(TRACE_DROPPED, s.trace_dropped);
        if let Some(fleet) = &s.fleet {
            let lanes = fleet.machines.len() as u64;
            reg.counter_add(FLEET_LANES, lanes);
            reg.counter_add(FLEET_MAKESPAN_LANE_CYCLES, s.cycles * lanes);
            for m in &fleet.machines {
                reg.counter_add(FLEET_BUSY, m.cycles);
                reg.counter_add(FLEET_IDLE, s.cycles - m.cycles);
                let permille = (m.cycles * 1000).checked_div(s.cycles).unwrap_or(0);
                reg.observe(FLEET_LANE_BUSY_PERMILLE, permille);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_telemetry::ManualClock;

    #[test]
    fn schema_registers_once_and_in_order() {
        let reg = Registry::with_clock(Box::new(ManualClock::new(0)));
        register_schema(&reg);
        register_schema(&reg); // idempotent
        let report = reg.report();
        let names: Vec<&str> = report.entries.iter().map(|e| e.name).collect();
        assert_eq!(names.first(), Some(&names::CELLS_TOTAL));
        assert!(names.contains(&names::FLEET_LANE_BUSY_PERMILLE));
        assert!(names.contains(&names::CACHE_PROBE_MISSES));
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "no duplicate registrations");
        // The 30 deterministic metrics come first, then the 7 timing ones.
        let classes: Vec<Class> = report.entries.iter().map(|e| e.class).collect();
        assert_eq!(classes.len(), 37);
        assert!(classes[..30].iter().all(|&c| c == Class::Deterministic));
        assert!(classes[30..].iter().all(|&c| c == Class::Timing));
    }
}
