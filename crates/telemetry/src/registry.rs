//! The [`Telemetry`] trait (emission surface), the [`NullTelemetry`]
//! zero-cost implementation, and the concrete [`Registry`] collector.

use crate::clock::{Clock, MonotonicClock};
use crate::progress::{progress_line, ProgressState};
use crate::report::{MetricValue, ReportEntry, SweepReport};
use std::collections::HashMap;
use std::sync::Mutex;

/// Determinism class of a metric. The deterministic subset of a
/// [`SweepReport`] is byte-diffable across worker counts and core models;
/// the timing subset is wall-clock and emitted only on request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A pure function of the sweep grid: identical on every machine, for
    /// every `--threads` value and both core models.
    Deterministic,
    /// A wall-clock measurement (or a live probe of racy state): differs
    /// run to run and is excluded from byte-stable exports by default.
    Timing,
}

impl Class {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            Class::Deterministic => "deterministic",
            Class::Timing => "timing",
        }
    }
}

/// The emission surface the harness is generic over, mirroring
/// `vliw-trace`'s `TraceSink`: instrumented code writes
/// `if T::ENABLED { t.counter_add(...) }` and the [`NullTelemetry`]
/// instantiation compiles the whole site away.
///
/// All methods default to no-ops so `NullTelemetry` is a one-liner and
/// future methods don't break implementors. Metric `name`s are
/// `&'static str` by design: the schema is a closed, compile-time set, so
/// no allocation ever happens on the emission path.
pub trait Telemetry: Sync {
    /// `false` compiles every guarded emission site out of the binary.
    const ENABLED: bool;

    /// Declare a counter up front (idempotent). Registration order is
    /// export order, so register the full schema before any emission.
    fn register_counter(&self, name: &'static str, help: &'static str, class: Class) {
        let _ = (name, help, class);
    }

    /// Declare a max-tracking gauge up front (idempotent).
    fn register_gauge(&self, name: &'static str, help: &'static str, class: Class) {
        let _ = (name, help, class);
    }

    /// Declare a fixed-bucket histogram up front (idempotent). `bounds`
    /// are inclusive upper bucket bounds; an implicit `+Inf` bucket is
    /// always appended.
    fn register_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        class: Class,
        bounds: &'static [u64],
    ) {
        let _ = (name, help, class, bounds);
    }

    /// Add `delta` to a counter.
    fn counter_add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Raise a gauge to `value` if `value` is larger (high-water mark).
    fn gauge_max(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Record one observation into a histogram.
    fn observe(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Merge pre-bucketed counts into a histogram. `counts` must align
    /// with the registered bounds plus the `+Inf` bucket
    /// (`counts.len() == bounds.len() + 1`); `sum` is the sum of the raw
    /// observations behind those counts.
    fn merge_histogram(&self, name: &'static str, counts: &[u64], sum: u64) {
        let _ = (name, counts, sum);
    }

    /// Nanoseconds from this telemetry's clock (0 when disabled — callers
    /// always guard timing reads behind `T::ENABLED`).
    fn now_ns(&self) -> u64 {
        0
    }

    /// Announce `total` more sweep cells about to run (accumulates across
    /// plans so a multi-exhibit invocation reports one combined grid).
    fn cells_planned(&self, total: u64) {
        let _ = total;
    }

    /// One sweep cell finished. `cache_requests`/`cache_unique` are a
    /// live probe of the image cache (total gets / distinct images) used
    /// by the progress heartbeat's hit-rate display.
    fn cell_done(&self, cache_requests: u64, cache_unique: u64) {
        let _ = (cache_requests, cache_unique);
    }
}

/// The do-nothing telemetry: `ENABLED = false` monomorphizes every
/// emission site away, so the default harness paths compile to the
/// pre-instrumentation code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTelemetry;

impl Telemetry for NullTelemetry {
    const ENABLED: bool = false;
}

/// One registered metric: identity plus current value.
struct Metric {
    name: &'static str,
    help: &'static str,
    class: Class,
    value: MetricValue,
}

/// Registry interior: metrics in registration order plus the progress
/// state, under one mutex (emissions are cell- or cache-grained, never
/// per-cycle, so contention is negligible).
struct Inner {
    metrics: Vec<Metric>,
    index: HashMap<&'static str, usize>,
    progress: ProgressState,
}

/// The concrete collector: named counters, gauges and fixed-bucket
/// histograms in stable registration order, a [`Clock`] for timings, and
/// an optional stderr progress heartbeat.
pub struct Registry {
    clock: Box<dyn Clock>,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry timing against real wall time ([`MonotonicClock`]).
    pub fn new() -> Self {
        Self::with_clock(Box::new(MonotonicClock::new()))
    }

    /// A registry timing against the given clock (tests pass
    /// [`crate::ManualClock`]).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Self {
            clock,
            inner: Mutex::new(Inner {
                metrics: Vec::new(),
                index: HashMap::new(),
                progress: ProgressState::default(),
            }),
        }
    }

    /// Turn on the stderr progress heartbeat: a throttled (≥200 ms apart)
    /// `\r`-rewritten line with cells done/total, cells/s, ETA and cache
    /// hit-rate, refreshed as cells complete. Stdout is never touched.
    pub fn enable_progress(&self) {
        self.lock().progress.enabled = true;
    }

    /// The current progress heartbeat content, or `None` before any cell
    /// grid was announced. This is what `enable_progress` writes to
    /// stderr; exposed so tests can assert it with a [`crate::ManualClock`].
    pub fn current_progress_line(&self) -> Option<String> {
        let now = self.clock.now_ns();
        let inner = self.lock();
        let p = &inner.progress;
        if p.total == 0 {
            return None;
        }
        Some(progress_line(
            p.done,
            p.total,
            now.saturating_sub(p.started_ns),
            p.cache_requests,
            p.cache_unique,
        ))
    }

    /// Current value of a counter (tests and conservation checks).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.lock();
        let &idx = inner.index.get(name)?;
        match inner.metrics[idx].value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Current value of a gauge (tests and conservation checks).
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        let inner = self.lock();
        let &idx = inner.index.get(name)?;
        match inner.metrics[idx].value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// `(count, sum)` of a histogram (tests and conservation checks).
    pub fn histogram_totals(&self, name: &str) -> Option<(u64, u64)> {
        let inner = self.lock();
        let &idx = inner.index.get(name)?;
        match inner.metrics[idx].value {
            MetricValue::Histogram { count, sum, .. } => Some((count, sum)),
            _ => None,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock poisons it; telemetry must never
        // turn a worker panic into a second panic, so take the data anyway.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn register(&self, name: &'static str, help: &'static str, class: Class, value: MetricValue) {
        let mut inner = self.lock();
        if inner.index.contains_key(name) {
            return;
        }
        let idx = inner.metrics.len();
        inner.metrics.push(Metric {
            name,
            help,
            class,
            value,
        });
        inner.index.insert(name, idx);
    }

    /// Snapshot every metric, in registration order, into a report.
    pub fn report(&self) -> SweepReport {
        let inner = self.lock();
        SweepReport {
            entries: inner
                .metrics
                .iter()
                .map(|m| ReportEntry {
                    name: m.name,
                    help: m.help,
                    class: m.class,
                    value: m.value.clone(),
                })
                .collect(),
        }
    }
}

impl Telemetry for Registry {
    const ENABLED: bool = true;

    fn register_counter(&self, name: &'static str, help: &'static str, class: Class) {
        self.register(name, help, class, MetricValue::Counter(0));
    }

    fn register_gauge(&self, name: &'static str, help: &'static str, class: Class) {
        self.register(name, help, class, MetricValue::Gauge(0));
    }

    fn register_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        class: Class,
        bounds: &'static [u64],
    ) {
        let counts = vec![0; bounds.len() + 1];
        self.register(
            name,
            help,
            class,
            MetricValue::Histogram {
                bounds: bounds.to_vec(),
                counts,
                sum: 0,
                count: 0,
            },
        );
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        let mut inner = self.lock();
        let idx = match inner.index.get(name) {
            Some(&i) => i,
            // Late registration keeps unregistered emissions visible
            // rather than silently dropped; pre-register the schema for
            // stable ordering.
            None => {
                let i = inner.metrics.len();
                inner.metrics.push(Metric {
                    name,
                    help: "",
                    class: Class::Timing,
                    value: MetricValue::Counter(0),
                });
                inner.index.insert(name, i);
                i
            }
        };
        if let MetricValue::Counter(v) = &mut inner.metrics[idx].value {
            *v += delta;
        }
    }

    fn gauge_max(&self, name: &'static str, value: u64) {
        let mut inner = self.lock();
        let idx = match inner.index.get(name) {
            Some(&i) => i,
            None => {
                let i = inner.metrics.len();
                inner.metrics.push(Metric {
                    name,
                    help: "",
                    class: Class::Timing,
                    value: MetricValue::Gauge(0),
                });
                inner.index.insert(name, i);
                i
            }
        };
        if let MetricValue::Gauge(v) = &mut inner.metrics[idx].value {
            *v = (*v).max(value);
        }
    }

    fn observe(&self, name: &'static str, value: u64) {
        let mut inner = self.lock();
        let Some(&idx) = inner.index.get(name) else {
            // Histograms need bounds; an unregistered observe has none to
            // bucket against, so it is dropped (register the schema).
            return;
        };
        if let MetricValue::Histogram {
            bounds,
            counts,
            sum,
            count,
        } = &mut inner.metrics[idx].value
        {
            let b = bounds
                .iter()
                .position(|&hi| value <= hi)
                .unwrap_or(bounds.len());
            counts[b] += 1;
            *sum += value;
            *count += 1;
        }
    }

    fn merge_histogram(&self, name: &'static str, add: &[u64], add_sum: u64) {
        let mut inner = self.lock();
        let Some(&idx) = inner.index.get(name) else {
            return;
        };
        if let MetricValue::Histogram {
            counts, sum, count, ..
        } = &mut inner.metrics[idx].value
        {
            debug_assert_eq!(
                add.len(),
                counts.len(),
                "merge_histogram {name}: bucket count mismatch"
            );
            for (c, a) in counts.iter_mut().zip(add) {
                *c += a;
            }
            *count += add.iter().sum::<u64>();
            *sum += add_sum;
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn cells_planned(&self, total: u64) {
        let now = self.clock.now_ns();
        let mut inner = self.lock();
        let p = &mut inner.progress;
        if p.total == 0 {
            p.started_ns = now;
        }
        p.total += total;
    }

    fn cell_done(&self, cache_requests: u64, cache_unique: u64) {
        let now = self.clock.now_ns();
        let mut inner = self.lock();
        let p = &mut inner.progress;
        p.done += 1;
        p.cache_requests = cache_requests;
        p.cache_unique = cache_unique;
        if !p.enabled {
            return;
        }
        let finished = p.done >= p.total;
        // Throttle: at most one repaint per 200 ms, but always paint the
        // final state so the line never ends stale.
        if !finished && now.saturating_sub(p.last_emit_ns) < 200_000_000 {
            return;
        }
        p.last_emit_ns = now;
        let line = progress_line(
            p.done,
            p.total,
            now.saturating_sub(p.started_ns),
            p.cache_requests,
            p.cache_unique,
        );
        if finished {
            eprintln!("\r{line}");
        } else {
            eprint!("\r{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual_registry() -> Registry {
        Registry::with_clock(Box::new(ManualClock::new(0)))
    }

    #[test]
    fn registration_is_idempotent_and_order_stable() {
        let r = manual_registry();
        r.register_counter("a_total", "first", Class::Deterministic);
        r.register_counter("b_total", "second", Class::Deterministic);
        r.register_counter("a_total", "shadow attempt", Class::Timing);
        r.counter_add("a_total", 2);
        r.counter_add("b_total", 5);
        let rep = r.report();
        let names: Vec<_> = rep.entries.iter().map(|e| e.name).collect();
        assert_eq!(names, ["a_total", "b_total"]);
        assert_eq!(
            rep.entries[0].help, "first",
            "re-registration must not overwrite"
        );
        assert_eq!(r.counter_value("a_total"), Some(2));
        assert_eq!(r.counter_value("b_total"), Some(5));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn gauge_tracks_high_water_mark() {
        let r = manual_registry();
        r.register_gauge("depth", "max depth", Class::Deterministic);
        r.gauge_max("depth", 3);
        r.gauge_max("depth", 9);
        r.gauge_max("depth", 4);
        assert_eq!(r.gauge_value("depth"), Some(9));
    }

    #[test]
    fn histogram_buckets_on_inclusive_upper_bounds() {
        let r = manual_registry();
        r.register_histogram(
            "spans",
            "idle span lengths",
            Class::Deterministic,
            &[1, 4, 16],
        );
        for v in [0, 1, 2, 4, 5, 16, 17, 1_000] {
            r.observe("spans", v);
        }
        let rep = r.report();
        let MetricValue::Histogram {
            bounds,
            counts,
            sum,
            count,
        } = &rep.entries[0].value
        else {
            panic!("expected a histogram");
        };
        assert_eq!(bounds, &[1, 4, 16]);
        // le=1: {0,1}; le=4: {2,4}; le=16: {5,16}; +Inf: {17,1000}.
        assert_eq!(counts, &[2, 2, 2, 2]);
        assert_eq!(*sum, 1_045);
        assert_eq!(*count, 8);
        assert_eq!(r.histogram_totals("spans"), Some((8, 1_045)));
    }

    #[test]
    fn merge_histogram_adds_prebucketed_counts() {
        let r = manual_registry();
        r.register_histogram("spans", "idle span lengths", Class::Deterministic, &[1, 4]);
        r.observe("spans", 1);
        r.merge_histogram("spans", &[1, 0, 3], 100);
        let MetricValue::Histogram {
            counts, sum, count, ..
        } = &r.report().entries[0].value
        else {
            panic!("expected a histogram");
        };
        assert_eq!(counts, &[2, 0, 3]);
        assert_eq!(*sum, 101);
        assert_eq!(*count, 5);
    }

    #[test]
    fn manual_clock_drives_now_ns_and_progress() {
        let clock = ManualClock::new(0);
        clock.advance(5);
        let r = Registry::with_clock(Box::new(clock));
        assert_eq!(Telemetry::now_ns(&r), 5);
        assert_eq!(r.current_progress_line(), None, "no grid announced yet");
        r.cells_planned(4);
        r.cell_done(6, 3);
        // Clock frozen at 5 ns since cells_planned → elapsed 0, rate 0.
        assert_eq!(
            r.current_progress_line().as_deref(),
            Some("cells 1/4 (25.0%) | 0.00 cells/s | eta - | cache hit-rate 50.0%")
        );
        r.cells_planned(2);
        assert!(
            r.current_progress_line().unwrap().starts_with("cells 1/6 "),
            "grids accumulate across plans"
        );
    }

    #[test]
    fn null_telemetry_is_disabled_and_inert() {
        const { assert!(!NullTelemetry::ENABLED) };
        let t = NullTelemetry;
        t.register_counter("x", "", Class::Deterministic);
        t.counter_add("x", 1);
        t.observe("x", 1);
        t.cell_done(0, 0);
        assert_eq!(t.now_ns(), 0);
    }
}
