//! Derived timeline analyses over a recorded [`Trace`].

use crate::event::{StallKind, TraceEvent};
use crate::sink::Trace;
use std::fmt::Write as _;

/// Stall cycles decomposed by [`StallKind`] — the Figure-6-style "where
/// did the cycles go" view.
///
/// The same decomposition is available from end-of-run aggregates
/// (`RunStats::stall_breakdown` in `vliw-sim`); building it from a full
/// trace with [`StallBreakdown::from_events`] must agree exactly, which is
/// the tracer's conservation check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles charged to instruction-cache misses.
    pub icache: u64,
    /// Cycles charged to data-cache misses.
    pub dcache: u64,
    /// Cycles charged to taken-branch bubbles.
    pub branch: u64,
}

impl StallBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `cycles` to one kind's bucket.
    pub fn add(&mut self, kind: StallKind, cycles: u64) {
        match kind {
            StallKind::ICacheMiss => self.icache += cycles,
            StallKind::DCacheMiss => self.dcache += cycles,
            StallKind::BranchBubble => self.branch += cycles,
        }
    }

    /// Cycles in one kind's bucket.
    pub fn get(&self, kind: StallKind) -> u64 {
        match kind {
            StallKind::ICacheMiss => self.icache,
            StallKind::DCacheMiss => self.dcache,
            StallKind::BranchBubble => self.branch,
        }
    }

    /// Total stall cycles across all kinds.
    pub fn total(&self) -> u64 {
        self.icache + self.dcache + self.branch
    }

    /// `(kind, cycles)` pairs in the stable [`StallKind::ALL`] order.
    pub fn entries(&self) -> [(StallKind, u64); 3] {
        StallKind::ALL.map(|k| (k, self.get(k)))
    }

    /// Accumulate every [`TraceEvent::Stall`] event of a stream.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut b = StallBreakdown::new();
        for e in events {
            if let TraceEvent::Stall { kind, cycles, .. } = e {
                b.add(*kind, u64::from(*cycles));
            }
        }
        b
    }
}

/// One span of a context-occupancy timeline: thread `tid` occupied
/// hardware context `ctx` for cycles `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySegment {
    /// Occupied hardware context.
    pub ctx: u8,
    /// Occupying software thread.
    pub tid: u32,
    /// First occupied cycle.
    pub start: u64,
    /// One past the last occupied cycle.
    pub end: u64,
}

impl OccupancySegment {
    /// Segment length in cycles.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the segment covers no cycles.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Reconstruct the context-occupancy timeline from a trace's admission,
/// refill and eviction events.
///
/// Segments still open at the end of the stream are closed at
/// [`Trace::end_cycle`]. Output order is deterministic: closed segments in
/// stream order, then still-open segments by ascending context.
pub fn occupancy_timeline(trace: &Trace) -> Vec<OccupancySegment> {
    let mut open: Vec<Option<(u32, u64)>> = vec![None; usize::from(trace.n_contexts)];
    let mut out = Vec::new();
    for e in &trace.events {
        match *e {
            TraceEvent::ContextAdmit { cycle, ctx, tid }
            | TraceEvent::ContextRefill { cycle, ctx, tid } => {
                if let Some(slot) = open.get_mut(usize::from(ctx)) {
                    // A re-open without an eviction (ring truncation) drops
                    // the stale opening; the new one wins.
                    *slot = Some((tid, cycle));
                }
            }
            TraceEvent::ContextEvict { cycle, ctx, tid } => {
                if let Some(slot) = open.get_mut(usize::from(ctx)) {
                    if let Some((open_tid, start)) = slot.take() {
                        // Ring truncation can desynchronize tids; trust the
                        // eviction's tid (it names the thread that left).
                        let _ = open_tid;
                        out.push(OccupancySegment {
                            ctx,
                            tid,
                            start,
                            end: cycle,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    for (ctx, slot) in open.into_iter().enumerate() {
        if let Some((tid, start)) = slot {
            out.push(OccupancySegment {
                ctx: ctx as u8,
                tid,
                start,
                end: trace.end_cycle.max(start),
            });
        }
    }
    out
}

/// Render a trace's context-occupancy timeline as fixed-width ASCII.
///
/// One row per hardware context, `width` time buckets per row; each bucket
/// shows the thread that occupied the context for the majority of the
/// bucket (`0-9a-z` by tid, `*` beyond 36, `.` idle), plus a legend
/// mapping symbols to benchmark names. Deterministic for a given trace.
pub fn render_ascii_timeline(trace: &Trace, width: usize) -> String {
    let width = width.clamp(1, 512);
    let segments = occupancy_timeline(trace);
    let end = trace.end_cycle.max(1);
    let sym = |tid: u32| -> char {
        match tid {
            0..=9 => (b'0' + tid as u8) as char,
            10..=35 => (b'a' + (tid - 10) as u8) as char,
            _ => '*',
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "context occupancy over {end} cycles ({width} buckets of ~{} cycles)",
        end.div_ceil(width as u64)
    );
    for ctx in 0..trace.n_contexts {
        let _ = write!(out, "ctx {ctx} |");
        for b in 0..width as u64 {
            let b_start = b * end / width as u64;
            let b_end = ((b + 1) * end / width as u64).max(b_start + 1);
            // Majority occupant of the bucket, idle otherwise.
            let mut best: Option<(u32, u64)> = None;
            let mut covered = 0u64;
            for s in segments.iter().filter(|s| s.ctx == ctx) {
                let overlap = s.end.min(b_end).saturating_sub(s.start.max(b_start));
                if overlap > 0 {
                    covered += overlap;
                    if best.is_none_or(|(_, o)| overlap > o) {
                        best = Some((s.tid, overlap));
                    }
                }
            }
            let idle = (b_end - b_start).saturating_sub(covered);
            out.push(match best {
                Some((tid, o)) if o >= idle => sym(tid),
                _ => '.',
            });
        }
        out.push_str("|\n");
    }
    out.push_str("legend: ");
    for (i, (tid, name)) in trace.threads.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}={}", sym(*tid), name);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(events: Vec<TraceEvent>, n_contexts: u8, end: u64) -> Trace {
        Trace {
            events,
            n_contexts,
            threads: vec![(0, "mcf".into()), (1, "idct".into())],
            end_cycle: end,
        }
    }

    #[test]
    fn breakdown_accumulates_and_totals() {
        let events = vec![
            TraceEvent::Stall {
                cycle: 1,
                ctx: 0,
                tid: 0,
                kind: StallKind::DCacheMiss,
                cycles: 20,
            },
            TraceEvent::Stall {
                cycle: 2,
                ctx: 0,
                tid: 0,
                kind: StallKind::BranchBubble,
                cycles: 2,
            },
            TraceEvent::Stall {
                cycle: 3,
                ctx: 1,
                tid: 1,
                kind: StallKind::DCacheMiss,
                cycles: 20,
            },
        ];
        let b = StallBreakdown::from_events(&events);
        assert_eq!(b.dcache, 40);
        assert_eq!(b.branch, 2);
        assert_eq!(b.icache, 0);
        assert_eq!(b.total(), 42);
        assert_eq!(b.entries()[1], (StallKind::DCacheMiss, 40));
    }

    #[test]
    fn occupancy_closes_open_segments_at_end() {
        let t = trace_with(
            vec![
                TraceEvent::ContextAdmit {
                    cycle: 0,
                    ctx: 0,
                    tid: 0,
                },
                TraceEvent::ContextEvict {
                    cycle: 100,
                    ctx: 0,
                    tid: 0,
                },
                TraceEvent::ContextRefill {
                    cycle: 100,
                    ctx: 0,
                    tid: 1,
                },
            ],
            1,
            250,
        );
        let segs = occupancy_timeline(&t);
        assert_eq!(
            segs,
            vec![
                OccupancySegment {
                    ctx: 0,
                    tid: 0,
                    start: 0,
                    end: 100
                },
                OccupancySegment {
                    ctx: 0,
                    tid: 1,
                    start: 100,
                    end: 250
                },
            ]
        );
        assert_eq!(segs[0].len(), 100);
    }

    #[test]
    fn ascii_timeline_shows_occupancy_and_legend() {
        let t = trace_with(
            vec![
                TraceEvent::ContextAdmit {
                    cycle: 0,
                    ctx: 0,
                    tid: 0,
                },
                TraceEvent::ContextEvict {
                    cycle: 50,
                    ctx: 0,
                    tid: 0,
                },
                TraceEvent::ContextRefill {
                    cycle: 50,
                    ctx: 0,
                    tid: 1,
                },
            ],
            2,
            100,
        );
        let s = render_ascii_timeline(&t, 10);
        assert!(s.contains("ctx 0 |0000011111|"), "{s}");
        // Context 1 never occupied: all idle.
        assert!(s.contains("ctx 1 |..........|"), "{s}");
        assert!(s.contains("legend: 0=mcf, 1=idct"), "{s}");
        // Deterministic render.
        assert_eq!(s, render_ascii_timeline(&t, 10));
    }
}
