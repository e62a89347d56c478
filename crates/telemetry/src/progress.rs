//! The sweep progress heartbeat: a [`Progress`] counter that repaints one
//! stderr line as cells finish, and the pure line renderer behind it.

use crate::clock::{Clock, MonotonicClock};
use std::sync::Mutex;

/// A live stderr heartbeat over the sweep cells of one or more plans:
/// cells done/total, cells/s, ETA and image-cache hit-rate.
///
/// It writes only to stderr, so piped stdout and every export stay
/// byte-identical, and it records no metric. Repaints are throttled to
/// one per 200 ms, except the last, which always paints so the line never
/// ends stale.
pub struct Progress {
    clock: Box<dyn Clock>,
    state: Mutex<State>,
}

/// What the heartbeat has seen so far.
#[derive(Debug, Default)]
struct State {
    /// Cells announced by [`Progress::planned`] (accumulates across plans).
    total: u64,
    /// Cells completed so far.
    done: u64,
    /// Clock reading at the first [`Progress::planned`].
    started_ns: u64,
    /// Clock reading of the last repaint (throttling).
    last_emit_ns: u64,
    /// Live image-cache probe: total requests seen so far.
    cache_requests: u64,
    /// Live image-cache probe: distinct images built so far.
    cache_unique: u64,
}

impl State {
    fn line(&self, now_ns: u64) -> String {
        progress_line(
            self.done,
            self.total,
            now_ns.saturating_sub(self.started_ns),
            self.cache_requests,
            self.cache_unique,
        )
    }
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

impl Progress {
    /// A heartbeat timing against real wall time ([`MonotonicClock`]).
    pub fn new() -> Self {
        Self::with_clock(Box::new(MonotonicClock::new()))
    }

    /// A heartbeat timing against the given clock (tests pass
    /// [`crate::ManualClock`]).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Self {
            clock,
            state: Mutex::new(State::default()),
        }
    }

    /// Announce `cells` more sweep cells about to run. Grids accumulate
    /// across plans, so a multi-exhibit invocation reports one combined
    /// grid.
    pub fn planned(&self, cells: u64) {
        let now = self.clock.now_ns();
        let mut p = self.lock();
        if p.total == 0 {
            p.started_ns = now;
        }
        p.total += cells;
    }

    /// One sweep cell finished; repaint stderr unless the last repaint
    /// was under 200 ms ago. `cache_requests`/`cache_unique` are a live
    /// probe of the image cache (total lookups / distinct images) for the
    /// hit-rate column.
    pub fn done(&self, cache_requests: u64, cache_unique: u64) {
        let now = self.clock.now_ns();
        let mut p = self.lock();
        p.done += 1;
        p.cache_requests = cache_requests;
        p.cache_unique = cache_unique;
        let finished = p.done >= p.total;
        if !finished && now.saturating_sub(p.last_emit_ns) < 200_000_000 {
            return;
        }
        p.last_emit_ns = now;
        let line = p.line(now);
        if finished {
            eprintln!("\r{line}");
        } else {
            eprint!("\r{line}");
        }
    }

    /// The line [`Progress::done`] would paint now, or `None` before any
    /// cell was announced.
    pub fn line(&self) -> Option<String> {
        let now = self.clock.now_ns();
        let p = self.lock();
        (p.total > 0).then(|| p.line(now))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // Like the registry, never turn a worker's panic into a second one.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Render one progress heartbeat line. Pure — given the same numbers it
/// returns the same bytes, so tests drive it through a
/// [`crate::ManualClock`]-backed [`Progress`] and assert exact output.
///
/// `cache_requests`/`cache_unique` come from the live image-cache probe;
/// hit-rate is `1 - unique/requests` (every request beyond the first for
/// an image is a hit). With no requests yet the cache column is `-`.
pub fn progress_line(
    done: u64,
    total: u64,
    elapsed_ns: u64,
    cache_requests: u64,
    cache_unique: u64,
) -> String {
    let pct = if total > 0 {
        done as f64 * 100.0 / total as f64
    } else {
        0.0
    };
    let secs = elapsed_ns as f64 / 1e9;
    let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
    let eta = if done > 0 && rate > 0.0 && total >= done {
        format!("{:.1}s", (total - done) as f64 / rate)
    } else {
        "-".to_string()
    };
    let hit_rate = if cache_requests > 0 {
        format!(
            "{:.1}%",
            (cache_requests.saturating_sub(cache_unique)) as f64 * 100.0 / cache_requests as f64
        )
    } else {
        "-".to_string()
    };
    format!(
        "cells {done}/{total} ({pct:.1}%) | {rate:.2} cells/s | eta {eta} | cache hit-rate {hit_rate}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn progress_line_is_deterministic() {
        // 3 of 12 cells in 2 s → 1.5 cells/s, 6 s to go; 10 requests over
        // 4 distinct images → 60% hit-rate.
        assert_eq!(
            progress_line(3, 12, 2_000_000_000, 10, 4),
            "cells 3/12 (25.0%) | 1.50 cells/s | eta 6.0s | cache hit-rate 60.0%"
        );
    }

    #[test]
    fn progress_line_degrades_gracefully_before_data() {
        assert_eq!(
            progress_line(0, 8, 0, 0, 0),
            "cells 0/8 (0.0%) | 0.00 cells/s | eta - | cache hit-rate -"
        );
    }

    #[test]
    fn manual_clock_drives_the_heartbeat() {
        let clock = ManualClock::new(0);
        clock.advance(5);
        let p = Progress::with_clock(Box::new(clock));
        assert_eq!(p.line(), None, "no grid announced yet");
        p.planned(4);
        p.done(6, 3);
        // Clock frozen at 5 ns since `planned` → elapsed 0, rate 0.
        assert_eq!(
            p.line().as_deref(),
            Some("cells 1/4 (25.0%) | 0.00 cells/s | eta - | cache hit-rate 50.0%")
        );
        p.planned(2);
        assert!(
            p.line().unwrap().starts_with("cells 1/6 "),
            "grids accumulate across plans"
        );
    }
}
