//! Byte-stable trace exporters: Chrome `trace_event` JSON, JSONL, CSV.

use crate::analysis::occupancy_timeline;
use crate::event::TraceEvent;
use crate::sink::Trace;
use std::fmt::Write as _;
use std::str::FromStr;

/// A serialization format for recorded traces.
///
/// All three exporters are pure functions of the [`Trace`] — hand-rolled,
/// dependency-free, and byte-stable: the same trace always serializes to
/// the same bytes, independent of platform or worker count (traces
/// themselves are deterministic per simulation cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto):
    /// the *timeline projection* — context-occupancy spans, stall spans, an
    /// issuing-contexts counter track, and migration instants. Raw
    /// cache-miss events are omitted here; use [`TraceFormat::Jsonl`] or
    /// [`TraceFormat::Csv`] for the unprojected stream.
    Chrome,
    /// One JSON object per line: a metadata line, then every raw event.
    Jsonl,
    /// RFC-4180-style CSV of every raw event, one row per event.
    Csv,
}

/// Error for an unrecognized trace-format name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTraceFormat(pub String);

impl std::fmt::Display for UnknownTraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown trace format {:?}; valid formats: ", self.0)?;
        for (i, t) in TraceFormat::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", t.label())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownTraceFormat {}

impl TraceFormat {
    /// Every format, in documentation order.
    pub const ALL: [TraceFormat; 3] = [TraceFormat::Chrome, TraceFormat::Jsonl, TraceFormat::Csv];

    /// Stable lowercase name (the `--trace-format` spelling).
    pub fn label(self) -> &'static str {
        match self {
            TraceFormat::Chrome => "chrome",
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Csv => "csv",
        }
    }

    /// Serialize a trace in this format.
    pub fn export(self, trace: &Trace) -> String {
        match self {
            TraceFormat::Chrome => export_chrome(trace),
            TraceFormat::Jsonl => export_jsonl(trace),
            TraceFormat::Csv => export_csv(trace),
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for TraceFormat {
    type Err = UnknownTraceFormat;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TraceFormat::ALL
            .into_iter()
            .find(|t| t.label() == s)
            .ok_or_else(|| UnknownTraceFormat(s.to_string()))
    }
}

/// Append `value` as a JSON string literal (quotes + escapes).
fn json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Chrome `trace_event` JSON: one process, one track per hardware context
/// plus a scheduler track; cycles map 1:1 to the viewer's microseconds.
fn export_chrome(trace: &Trace) -> String {
    let mut s = String::with_capacity(1024 + 96 * trace.events.len());
    s.push_str("{\"traceEvents\":[");
    s.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"vliw-tms\"}}",
    );
    for ctx in 0..trace.n_contexts {
        let _ = write!(
            s,
            ",{{\"ph\":\"M\",\"pid\":0,\"tid\":{ctx},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"hw context {ctx}\"}}}}"
        );
    }
    let sched_track = trace.n_contexts;
    let _ = write!(
        s,
        ",{{\"ph\":\"M\",\"pid\":0,\"tid\":{sched_track},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"os scheduler\"}}}}"
    );
    // Occupancy spans, one complete event per segment.
    for seg in occupancy_timeline(trace) {
        s.push_str(",{\"ph\":\"X\",\"pid\":0,\"tid\":");
        let _ = write!(s, "{}", seg.ctx);
        s.push_str(",\"ts\":");
        let _ = write!(s, "{}", seg.start);
        s.push_str(",\"dur\":");
        let _ = write!(s, "{}", seg.len());
        s.push_str(",\"cat\":\"occupancy\",\"name\":");
        json_string(&mut s, trace.thread_name(seg.tid));
        let _ = write!(s, ",\"args\":{{\"tid\":{}}}}}", seg.tid);
    }
    // Stall spans, migration instants, and the merged-width counter.
    for e in &trace.events {
        match *e {
            TraceEvent::Stall {
                cycle,
                ctx,
                tid,
                kind,
                cycles,
            } => {
                let _ = write!(
                    s,
                    ",{{\"ph\":\"X\",\"pid\":0,\"tid\":{ctx},\"ts\":{cycle},\"dur\":{cycles},\
                     \"cat\":\"stall\",\"name\":\"stall:{}\",\"args\":{{\"tid\":{tid}}}}}",
                    kind.label()
                );
            }
            TraceEvent::ThreadMigration {
                cycle,
                tid,
                from_ctx,
                to_ctx,
            } => {
                s.push_str(",{\"ph\":\"i\",\"pid\":0,\"tid\":");
                let _ = write!(s, "{sched_track},\"ts\":{cycle}");
                s.push_str(",\"s\":\"p\",\"cat\":\"sched\",\"name\":");
                json_string(&mut s, &format!("migrate {}", trace.thread_name(tid)));
                let _ = write!(s, ",\"args\":{{\"from\":{from_ctx},\"to\":{to_ctx}}}}}");
            }
            TraceEvent::MergeTransition { cycle, to_mask, .. } => {
                let _ = write!(
                    s,
                    ",{{\"ph\":\"C\",\"pid\":0,\"ts\":{cycle},\"name\":\"issuing contexts\",\
                     \"args\":{{\"n\":{}}}}}",
                    to_mask.count_ones()
                );
            }
            TraceEvent::ThreadArrival { cycle, tid, shed } => {
                s.push_str(",{\"ph\":\"i\",\"pid\":0,\"tid\":");
                let _ = write!(s, "{sched_track},\"ts\":{cycle}");
                s.push_str(",\"s\":\"p\",\"cat\":\"traffic\",\"name\":");
                let verb = if shed { "shed" } else { "arrive" };
                json_string(&mut s, &format!("{verb} {}", trace.thread_name(tid)));
                let _ = write!(s, ",\"args\":{{\"tid\":{tid},\"shed\":{shed}}}}}");
            }
            TraceEvent::QueueDepth { cycle, depth } => {
                let _ = write!(
                    s,
                    ",{{\"ph\":\"C\",\"pid\":0,\"ts\":{cycle},\"name\":\"admission queue\",\
                     \"args\":{{\"depth\":{depth}}}}}"
                );
            }
            _ => {}
        }
    }
    let _ = write!(
        s,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"end_cycle\":{}}}}}",
        trace.end_cycle
    );
    s
}

/// Append one raw event as a JSON object (shared by JSONL).
fn json_event(s: &mut String, e: &TraceEvent) {
    let _ = write!(s, "{{\"cycle\":{},\"event\":\"{}\"", e.cycle(), e.name());
    match *e {
        TraceEvent::BundleIssue { ctx, tid, ops, .. } => {
            let _ = write!(s, ",\"ctx\":{ctx},\"tid\":{tid},\"ops\":{ops}");
        }
        TraceEvent::Stall {
            ctx,
            tid,
            kind,
            cycles,
            ..
        } => {
            let _ = write!(
                s,
                ",\"ctx\":{ctx},\"tid\":{tid},\"kind\":\"{}\",\"cycles\":{cycles}",
                kind.label()
            );
        }
        TraceEvent::CacheMiss {
            ctx,
            cache,
            addr,
            is_store,
            ..
        } => {
            let _ = write!(
                s,
                ",\"ctx\":{ctx},\"cache\":\"{}\",\"addr\":{addr},\"is_store\":{is_store}",
                cache.label()
            );
        }
        TraceEvent::ContextAdmit { ctx, tid, .. }
        | TraceEvent::ContextEvict { ctx, tid, .. }
        | TraceEvent::ContextRefill { ctx, tid, .. } => {
            let _ = write!(s, ",\"ctx\":{ctx},\"tid\":{tid}");
        }
        TraceEvent::ThreadMigration {
            tid,
            from_ctx,
            to_ctx,
            ..
        } => {
            let _ = write!(s, ",\"tid\":{tid},\"from\":{from_ctx},\"to\":{to_ctx}");
        }
        TraceEvent::MergeTransition {
            from_mask, to_mask, ..
        } => {
            let _ = write!(s, ",\"from_mask\":{from_mask},\"to_mask\":{to_mask}");
        }
        TraceEvent::ThreadArrival { tid, shed, .. } => {
            let _ = write!(s, ",\"tid\":{tid},\"shed\":{shed}");
        }
        TraceEvent::QueueDepth { depth, .. } => {
            let _ = write!(s, ",\"depth\":{depth}");
        }
        TraceEvent::RoutedTo { tid, to, .. } => {
            let _ = write!(s, ",\"tid\":{tid},\"to\":{to}");
        }
    }
    s.push('}');
}

/// JSONL: a metadata line, then every raw event, one object per line.
fn export_jsonl(trace: &Trace) -> String {
    let mut s = String::with_capacity(64 + 80 * trace.events.len());
    let _ = write!(
        s,
        "{{\"event\":\"trace-meta\",\"n_contexts\":{},\"end_cycle\":{},\"threads\":[",
        trace.n_contexts, trace.end_cycle
    );
    for (i, (tid, name)) in trace.threads.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"tid\":{tid},\"name\":");
        json_string(&mut s, name);
        s.push('}');
    }
    s.push_str("]}\n");
    for e in &trace.events {
        json_event(&mut s, e);
        s.push('\n');
    }
    s
}

/// The CSV exporter's header.
pub(crate) const CSV_HEADER: &str =
    "cycle,event,ctx,tid,kind,addr,is_store,ops,cycles,from,to,depth,shed";

/// CSV: every raw event, one row per event; inapplicable columns are empty.
fn export_csv(trace: &Trace) -> String {
    let mut s = String::with_capacity(32 + 48 * trace.events.len());
    s.push_str(CSV_HEADER);
    s.push('\n');
    for e in &trace.events {
        let _ = write!(s, "{},{}", e.cycle(), e.name());
        match *e {
            TraceEvent::BundleIssue { ctx, tid, ops, .. } => {
                let _ = writeln!(s, ",{ctx},{tid},,,,{ops},,,,,");
            }
            TraceEvent::Stall {
                ctx,
                tid,
                kind,
                cycles,
                ..
            } => {
                let _ = writeln!(s, ",{ctx},{tid},{},,,,{cycles},,,,", kind.label());
            }
            TraceEvent::CacheMiss {
                ctx,
                cache,
                addr,
                is_store,
                ..
            } => {
                let _ = writeln!(s, ",{ctx},,{},{addr},{is_store},,,,,,", cache.label());
            }
            TraceEvent::ContextAdmit { ctx, tid, .. }
            | TraceEvent::ContextEvict { ctx, tid, .. }
            | TraceEvent::ContextRefill { ctx, tid, .. } => {
                let _ = writeln!(s, ",{ctx},{tid},,,,,,,,,");
            }
            TraceEvent::ThreadMigration {
                tid,
                from_ctx,
                to_ctx,
                ..
            } => {
                let _ = writeln!(s, ",,{tid},,,,,,{from_ctx},{to_ctx},,");
            }
            TraceEvent::MergeTransition {
                from_mask, to_mask, ..
            } => {
                let _ = writeln!(s, ",,,,,,,,{from_mask},{to_mask},,");
            }
            TraceEvent::ThreadArrival { tid, shed, .. } => {
                let _ = writeln!(s, ",,{tid},,,,,,,,,{shed}");
            }
            TraceEvent::QueueDepth { depth, .. } => {
                let _ = writeln!(s, ",,,,,,,,,,{depth},");
            }
            TraceEvent::RoutedTo { tid, to, .. } => {
                let _ = writeln!(s, ",,{tid},,,,,,,{to},,");
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheKind, StallKind};

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                TraceEvent::ContextAdmit {
                    cycle: 0,
                    ctx: 0,
                    tid: 0,
                },
                TraceEvent::BundleIssue {
                    cycle: 1,
                    ctx: 0,
                    tid: 0,
                    ops: 4,
                },
                TraceEvent::CacheMiss {
                    cycle: 2,
                    ctx: 0,
                    cache: CacheKind::Data,
                    addr: 4096,
                    is_store: false,
                },
                TraceEvent::Stall {
                    cycle: 2,
                    ctx: 0,
                    tid: 0,
                    kind: StallKind::DCacheMiss,
                    cycles: 20,
                },
                TraceEvent::MergeTransition {
                    cycle: 3,
                    from_mask: 1,
                    to_mask: 0,
                },
                TraceEvent::ContextEvict {
                    cycle: 50,
                    ctx: 0,
                    tid: 0,
                },
                TraceEvent::ThreadMigration {
                    cycle: 60,
                    tid: 0,
                    from_ctx: 0,
                    to_ctx: 1,
                },
            ],
            n_contexts: 2,
            threads: vec![(0, "mcf".into())],
            end_cycle: 100,
        }
    }

    #[test]
    fn format_names_parse_round_trip() {
        for f in TraceFormat::ALL {
            assert_eq!(f.label().parse::<TraceFormat>().unwrap(), f);
        }
        let err = "xml".parse::<TraceFormat>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("\"xml\""), "{msg}");
        for f in TraceFormat::ALL {
            assert!(msg.contains(f.label()), "{msg} must list {f}");
        }
    }

    #[test]
    fn chrome_export_is_trace_event_shaped() {
        let s = TraceFormat::Chrome.export(&sample_trace());
        assert!(s.starts_with("{\"traceEvents\":["), "{s}");
        assert!(s.contains("\"ph\":\"X\""), "occupancy span missing: {s}");
        assert!(s.contains("\"name\":\"stall:dcache\""), "{s}");
        assert!(s.contains("\"name\":\"migrate mcf\""), "{s}");
        assert!(s.contains("\"name\":\"issuing contexts\""), "{s}");
        assert!(s.ends_with('}'), "{s}");
        // Byte-stable.
        assert_eq!(s, TraceFormat::Chrome.export(&sample_trace()));
    }

    #[test]
    fn jsonl_has_meta_line_plus_one_line_per_event() {
        let t = sample_trace();
        let s = TraceFormat::Jsonl.export(&t);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 1 + t.events.len());
        assert!(
            lines[0].contains("\"event\":\"trace-meta\""),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"event\":\"context-admit\""));
        assert!(lines[3].contains("\"addr\":4096"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
        }
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let t = sample_trace();
        let s = TraceFormat::Csv.export(&t);
        let mut lines = s.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, CSV_HEADER);
        let ncols = header.split(',').count();
        let mut rows = 0;
        for l in lines {
            assert_eq!(l.split(',').count(), ncols, "row arity: {l}");
            rows += 1;
        }
        assert_eq!(rows, t.events.len());
        assert!(s.contains("2,stall,0,0,dcache,,,,20,,,,"), "{s}");
    }
}
