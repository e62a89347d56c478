//! Harness-wide metric schema and post-hoc harvest.
//!
//! Two-phase design keeps the registry deterministic without threading a
//! lock through the hot simulation loops:
//!
//! 1. **Schema up front.** [`register_schema`] declares every metric once,
//!    in a fixed order, before any cell runs — so the export order (and
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
use vliw_telemetry::{Class, Telemetry};

/// Canonical metric names (`vliw_` prefix, Prometheus-style suffixes).
///
/// Everything the harness emits is declared here so emission sites and the
/// schema can never drift apart silently.
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

/// Declare the full harness schema in its canonical order (idempotent).
///
/// Called by every metered plan run before any cell starts, so a
/// multi-exhibit invocation registers each metric exactly once and the
/// export order is fixed no matter which exhibits ran or in what order
/// their workers finished.
pub fn register_schema<T: Telemetry>(t: &T) {
    if !T::ENABLED {
        return;
    }
    use names::*;
    use Class::{Deterministic, Timing};
    t.register_counter(CELLS_TOTAL, "Sweep cells planned", Deterministic);
    t.register_counter(CELLS_COMPLETED, "Sweep cells completed", Deterministic);
    t.register_counter(
        CELLS_MEMOIZED,
        "Sweep cells served from an identical earlier cell",
        Deterministic,
    );
    t.register_counter(SIM_CYCLES, "Simulated cycles", Deterministic);
    t.register_counter(SIM_INSTRS, "VLIW instructions retired", Deterministic);
    t.register_counter(SIM_OPS, "Operations retired", Deterministic);
    t.register_counter(
        SIM_CONTEXT_SWITCHES,
        "OS quantum expiries handled",
        Deterministic,
    );
    t.register_counter(
        SIM_MIGRATIONS,
        "Cross-context thread reinstallations",
        Deterministic,
    );
    t.register_counter(
        SIM_VERTICAL_WASTE,
        "Cycles in which nothing issued",
        Deterministic,
    );
    t.register_counter(
        SIM_HORIZONTAL_WASTE,
        "Issue slots wasted in non-empty cycles",
        Deterministic,
    );
    t.register_counter(TRAFFIC_OFFERED, "Open-system jobs offered", Deterministic);
    t.register_counter(
        TRAFFIC_ADMITTED,
        "Open-system jobs admitted (offered minus shed)",
        Deterministic,
    );
    t.register_counter(
        TRAFFIC_SHED,
        "Open-system jobs shed at a full admission queue",
        Deterministic,
    );
    t.register_counter(
        TRAFFIC_COMPLETED,
        "Open-system jobs completed",
        Deterministic,
    );
    t.register_counter(QUEUE_PUSHES, "OS event-queue schedules", Deterministic);
    t.register_counter(QUEUE_POPS, "OS event-queue pops", Deterministic);
    t.register_gauge(
        QUEUE_DEPTH_MAX,
        "OS event-queue depth high-water mark",
        Deterministic,
    );
    t.register_counter(IDLE_SPANS, "Maximal all-stalled cycle spans", Deterministic);
    t.register_counter(
        IDLE_SPAN_CYCLES,
        "Cycles inside all-stalled spans",
        Deterministic,
    );
    t.register_gauge(IDLE_SPAN_MAX, "Longest all-stalled span", Deterministic);
    t.register_histogram(
        IDLE_SPAN_LENGTH,
        "All-stalled span lengths in cycles",
        Deterministic,
        &IDLE_SPAN_BOUNDS,
    );
    t.register_counter(CACHE_REQUESTS, "Image-cache lookups", Deterministic);
    t.register_counter(
        CACHE_HITS,
        "Image-cache lookups served from cache",
        Deterministic,
    );
    t.register_counter(
        CACHE_MISSES,
        "Image-cache lookups that compiled",
        Deterministic,
    );
    t.register_counter(
        TRACE_DROPPED,
        "Trace events dropped by bounded ring sinks",
        Deterministic,
    );
    t.register_counter(FLEET_LANES, "Fleet machine-lanes simulated", Deterministic);
    t.register_counter(FLEET_BUSY, "Lane-cycles fleet machines ran", Deterministic);
    t.register_counter(
        FLEET_IDLE,
        "Lane-cycles fleet machines idled before makespan",
        Deterministic,
    );
    t.register_counter(
        FLEET_MAKESPAN_LANE_CYCLES,
        "Fleet makespan times lane count",
        Deterministic,
    );
    t.register_histogram(
        FLEET_LANE_BUSY_PERMILLE,
        "Per-lane busy fraction of the fleet makespan (permille)",
        Deterministic,
        &LANE_BUSY_PERMILLE_BOUNDS,
    );
    t.register_histogram(
        CELL_WALL_NS,
        "Per-cell wall time (ns)",
        Timing,
        &WALL_NS_BOUNDS,
    );
    t.register_histogram(
        CELL_COMPILE_NS,
        "Per-cell compile wall time (ns)",
        Timing,
        &WALL_NS_BOUNDS,
    );
    t.register_histogram(
        CELL_SIMULATE_NS,
        "Per-cell simulate wall time (ns)",
        Timing,
        &WALL_NS_BOUNDS,
    );
    t.register_counter(CACHE_BUILD_NS, "Wall time compiling images (ns)", Timing);
    t.register_counter(CACHE_VERIFY_NS, "Wall time verifying images (ns)", Timing);
    t.register_counter(CACHE_PROBE_HITS, "Live image-cache probe hits", Timing);
    t.register_counter(CACHE_PROBE_MISSES, "Live image-cache probe misses", Timing);
}

/// Fold a sweep's results into the registry, single-threaded, in the order
/// given (plans pass row-major grid order).
///
/// Everything harvested here is a pure function of the results, which are
/// themselves deterministic across worker counts and core models — so the
/// deterministic export is byte-stable by construction.
pub fn harvest<T: Telemetry>(results: &[&RunResult], t: &T) {
    if !T::ENABLED {
        return;
    }
    use names::*;
    for r in results {
        let s = &r.stats;
        t.counter_add(CELLS_COMPLETED, 1);
        t.counter_add(SIM_CYCLES, s.cycles);
        t.counter_add(SIM_INSTRS, s.total_instrs);
        t.counter_add(SIM_OPS, s.total_ops);
        t.counter_add(SIM_CONTEXT_SWITCHES, s.context_switches);
        t.counter_add(SIM_MIGRATIONS, s.migrations);
        t.counter_add(SIM_VERTICAL_WASTE, s.vertical_waste_cycles);
        t.counter_add(SIM_HORIZONTAL_WASTE, s.horizontal_waste_slots);
        t.counter_add(TRAFFIC_OFFERED, s.traffic.offered);
        t.counter_add(TRAFFIC_ADMITTED, s.traffic.offered - s.traffic.shed);
        t.counter_add(TRAFFIC_SHED, s.traffic.shed);
        t.counter_add(TRAFFIC_COMPLETED, s.traffic.completed);
        t.counter_add(QUEUE_PUSHES, s.engine.queue_pushes);
        t.counter_add(QUEUE_POPS, s.engine.queue_pops);
        t.gauge_max(QUEUE_DEPTH_MAX, s.engine.queue_depth_max);
        t.counter_add(IDLE_SPANS, s.engine.idle_spans);
        t.counter_add(IDLE_SPAN_CYCLES, s.engine.idle_span_cycles);
        t.gauge_max(IDLE_SPAN_MAX, s.engine.idle_span_max);
        t.merge_histogram(
            IDLE_SPAN_LENGTH,
            &s.engine.idle_span_hist,
            s.engine.idle_span_cycles,
        );
        // `cache_hits`/`cache_misses` are deliberately NOT summed here:
        // the registry's cache totals are delta-derived by the metered
        // plan runs (hits + misses == requests exactly, fleet lane
        // compiles included), while the per-cell fields are a static
        // attribution that omits routed-lane compiles.
        t.counter_add(TRACE_DROPPED, s.trace_dropped);
        if let Some(fleet) = &s.fleet {
            let lanes = fleet.machines.len() as u64;
            t.counter_add(FLEET_LANES, lanes);
            t.counter_add(FLEET_MAKESPAN_LANE_CYCLES, s.cycles * lanes);
            for m in &fleet.machines {
                t.counter_add(FLEET_BUSY, m.cycles);
                t.counter_add(FLEET_IDLE, s.cycles - m.cycles);
                let permille = (m.cycles * 1000).checked_div(s.cycles).unwrap_or(0);
                t.observe(FLEET_LANE_BUSY_PERMILLE, permille);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_telemetry::{ManualClock, NullTelemetry, Registry};

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
    }

    #[test]
    fn null_telemetry_harvest_is_a_no_op() {
        // Compiles to nothing; mostly here to pin the ENABLED guard.
        harvest(&[], &NullTelemetry);
        register_schema(&NullTelemetry);
    }
}
