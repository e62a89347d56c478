//! The [`Registry`]: the harness's metrics, held as the entries of a
//! [`SweepReport`] in registration order.

use crate::clock::{Clock, MonotonicClock};
use crate::report::{MetricValue, ReportEntry, SweepReport};
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

/// What a metric records, and so which emitter folds into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A sum, raised by [`Registry::counter_add`].
    Counter,
    /// A high-water mark, raised by [`Registry::gauge_max`].
    Gauge,
    /// A fixed-bucket histogram, fed by [`Registry::observe`] and
    /// [`Registry::merge_histogram`]. The bounds are inclusive upper
    /// bucket bounds, ascending; an implicit `+Inf` bucket follows them.
    Histogram(&'static [u64]),
}

/// The concrete collector: named counters, gauges and fixed-bucket
/// histograms in stable registration order, plus a [`Clock`] for the
/// timing histograms.
///
/// Every emitter takes the one lock and finds its metric by name, which
/// suits the harness's rate of emission: a few dozen per sweep cell,
/// never one per simulated cycle. An emission to a name that was never
/// registered is ignored, so register the whole schema before the first
/// cell runs. Metric names are `&'static str` because the schema is a
/// closed, compile-time set.
pub struct Registry {
    clock: Box<dyn Clock>,
    report: Mutex<SweepReport>,
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
            report: Mutex::new(SweepReport {
                entries: Vec::new(),
            }),
        }
    }

    /// Declare a metric (idempotent: a name already registered keeps its
    /// first declaration). Registration order is export order, so
    /// register the full schema before any emission.
    pub fn register(&self, name: &'static str, help: &'static str, class: Class, kind: Kind) {
        let mut report = self.lock();
        if report.entries.iter().any(|e| e.name == name) {
            return;
        }
        let value = match kind {
            Kind::Counter => MetricValue::Counter(0),
            Kind::Gauge => MetricValue::Gauge(0),
            Kind::Histogram(bounds) => MetricValue::Histogram {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
                sum: 0,
                count: 0,
            },
        };
        report.entries.push(ReportEntry {
            name,
            help,
            class,
            value,
        });
    }

    /// Add `delta` to a counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.update(name, |m| {
            if let MetricValue::Counter(v) = m {
                *v += delta;
            }
        });
    }

    /// Raise a gauge to `value` if `value` is larger (high-water mark).
    pub fn gauge_max(&self, name: &str, value: u64) {
        self.update(name, |m| {
            if let MetricValue::Gauge(v) = m {
                *v = (*v).max(value);
            }
        });
    }

    /// Record one observation into a histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.update(name, |m| {
            if let MetricValue::Histogram {
                bounds,
                counts,
                sum,
                count,
            } = m
            {
                let b = bounds
                    .iter()
                    .position(|&hi| value <= hi)
                    .unwrap_or(bounds.len());
                counts[b] += 1;
                *sum += value;
                *count += 1;
            }
        });
    }

    /// Merge pre-bucketed counts into a histogram. `add` must align with
    /// the registered bounds plus the `+Inf` bucket
    /// (`add.len() == bounds.len() + 1`); `add_sum` is the sum of the raw
    /// observations behind those counts.
    pub fn merge_histogram(&self, name: &str, add: &[u64], add_sum: u64) {
        self.update(name, |m| {
            if let MetricValue::Histogram {
                counts, sum, count, ..
            } = m
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
        });
    }

    /// Nanoseconds from this registry's clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Current value of a counter (tests and conservation checks).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.value(name)? {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Current value of a gauge (tests and conservation checks).
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        match self.value(name)? {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// `(count, sum)` of a histogram (tests and conservation checks).
    pub fn histogram_totals(&self, name: &str) -> Option<(u64, u64)> {
        match self.value(name)? {
            MetricValue::Histogram { count, sum, .. } => Some((count, sum)),
            _ => None,
        }
    }

    /// Snapshot every metric, in registration order, into a report.
    pub fn report(&self) -> SweepReport {
        self.lock().clone()
    }

    fn value(&self, name: &str) -> Option<MetricValue> {
        let report = self.lock();
        let entry = report.entries.iter().find(|e| e.name == name)?;
        Some(entry.value.clone())
    }

    /// Apply `f` to the value of the metric `name`, if it is registered.
    fn update(&self, name: &str, f: impl FnOnce(&mut MetricValue)) {
        if let Some(e) = self.lock().entries.iter_mut().find(|e| e.name == name) {
            f(&mut e.value);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SweepReport> {
        // A panic while holding the lock poisons it; telemetry must never
        // turn a worker panic into a second panic, so take the data anyway.
        self.report.lock().unwrap_or_else(|e| e.into_inner())
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
        r.register("a_total", "first", Class::Deterministic, Kind::Counter);
        r.register("b_total", "second", Class::Deterministic, Kind::Counter);
        r.register("a_total", "shadow attempt", Class::Timing, Kind::Gauge);
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
        r.register("depth", "max depth", Class::Deterministic, Kind::Gauge);
        r.gauge_max("depth", 3);
        r.gauge_max("depth", 9);
        r.gauge_max("depth", 4);
        assert_eq!(r.gauge_value("depth"), Some(9));
    }

    #[test]
    fn histogram_buckets_on_inclusive_upper_bounds() {
        let r = manual_registry();
        r.register(
            "spans",
            "idle span lengths",
            Class::Deterministic,
            Kind::Histogram(&[1, 4, 16]),
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
        r.register(
            "spans",
            "idle span lengths",
            Class::Deterministic,
            Kind::Histogram(&[1, 4]),
        );
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
    fn unregistered_emissions_are_ignored() {
        let r = manual_registry();
        r.register("depth", "max depth", Class::Deterministic, Kind::Gauge);
        r.counter_add("late_total", 1);
        r.gauge_max("late_max", 1);
        r.observe("late_hist", 1);
        r.merge_histogram("late_hist", &[1], 1);
        // A kind mismatch leaves the metric alone too.
        r.counter_add("depth", 7);
        let rep = r.report();
        assert_eq!(rep.entries.len(), 1, "no late registration");
        assert_eq!(rep.entries[0].value, MetricValue::Gauge(0));
    }

    #[test]
    fn manual_clock_drives_now_ns() {
        let clock = ManualClock::new(0);
        clock.advance(5);
        let r = Registry::with_clock(Box::new(clock));
        assert_eq!(r.now_ns(), 5);
    }
}
