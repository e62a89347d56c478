//! The I-cache/D-cache pair the pipeline talks to.

use crate::cache::{Cache, CacheConfig, CacheStats};
use vliw_trace::{CacheKind, NullSink, TraceEvent, TraceSink};

/// Configuration of the full memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConfig {
    /// Instruction cache geometry/timing.
    pub icache: CacheConfig,
    /// Data cache geometry/timing.
    pub dcache: CacheConfig,
    /// Perfect-memory mode: every access hits (the paper's `IPCp` setup).
    pub perfect: bool,
}

impl MemConfig {
    /// The paper's §5.1 memory system: 64KB 4-way I$ and D$, 20-cycle miss
    /// penalty.
    pub fn paper_baseline() -> Self {
        MemConfig {
            icache: CacheConfig::paper_baseline(),
            dcache: CacheConfig::paper_baseline(),
            perfect: false,
        }
    }

    /// Perfect memory (no misses anywhere) — used for `IPCp`.
    pub fn perfect() -> Self {
        MemConfig {
            perfect: true,
            ..Self::paper_baseline()
        }
    }
}

/// The memory system: shared I$ and D$ with per-thread blocking semantics.
///
/// Methods return the *extra* cycles the access costs beyond the pipeline's
/// nominal latency: `0` on a hit, `miss_penalty` on a miss.
#[derive(Debug, Clone)]
pub struct MemSystem {
    icache: Cache,
    dcache: Cache,
    perfect: bool,
}

impl MemSystem {
    /// Build from a configuration.
    pub fn new(cfg: MemConfig) -> Self {
        MemSystem {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            perfect: cfg.perfect,
        }
    }

    /// Instruction fetch at `addr` by `thread`; returns stall cycles.
    #[inline]
    pub fn fetch(&mut self, addr: u64, thread: u8) -> u32 {
        self.fetch_traced(addr, thread, 0, &mut NullSink)
    }

    /// [`MemSystem::fetch`] emitting a [`TraceEvent::CacheMiss`] on a miss.
    ///
    /// `cycle` only labels the event; with [`NullSink`] this monomorphizes
    /// to exactly the untraced access.
    #[inline]
    pub fn fetch_traced<S: TraceSink>(
        &mut self,
        addr: u64,
        thread: u8,
        cycle: u64,
        sink: &mut S,
    ) -> u32 {
        if self.perfect {
            return 0;
        }
        if self.icache.access(addr, false, thread) {
            0
        } else {
            if S::ENABLED {
                sink.record(TraceEvent::CacheMiss {
                    cycle,
                    ctx: thread,
                    cache: CacheKind::Instruction,
                    addr,
                    is_store: false,
                });
            }
            self.icache.config().miss_penalty
        }
    }

    /// Data access at `addr` by `thread`; returns stall cycles.
    #[inline]
    pub fn data(&mut self, addr: u64, write: bool, thread: u8) -> u32 {
        self.data_traced(addr, write, thread, 0, &mut NullSink)
    }

    /// [`MemSystem::data`] emitting a [`TraceEvent::CacheMiss`] on a miss.
    ///
    /// Same contract as [`MemSystem::fetch_traced`].
    #[inline]
    pub fn data_traced<S: TraceSink>(
        &mut self,
        addr: u64,
        write: bool,
        thread: u8,
        cycle: u64,
        sink: &mut S,
    ) -> u32 {
        if self.perfect {
            return 0;
        }
        if self.dcache.access(addr, write, thread) {
            0
        } else {
            if S::ENABLED {
                sink.record(TraceEvent::CacheMiss {
                    cycle,
                    ctx: thread,
                    cache: CacheKind::Data,
                    addr,
                    is_store: write,
                });
            }
            self.dcache.config().miss_penalty
        }
    }

    /// I-cache line index of an address (fetch fast-path support: the
    /// pipeline only re-probes the I$ when the line changes).
    #[inline]
    pub fn icache_line(&self, addr: u64) -> u64 {
        self.icache.line_of(addr)
    }

    /// Instruction-cache statistics.
    pub fn icache_stats(&self) -> &CacheStats {
        self.icache.stats()
    }

    /// Data-cache statistics.
    pub fn dcache_stats(&self) -> &CacheStats {
        self.dcache.stats()
    }

    /// Reset statistics on both caches.
    pub fn reset_stats(&mut self) {
        self.icache.reset_stats();
        self.dcache.reset_stats();
    }

    /// Flush both caches (contents only).
    pub fn flush(&mut self) {
        self.icache.flush();
        self.dcache.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_memory_never_stalls() {
        let mut m = MemSystem::new(MemConfig::perfect());
        for i in 0..10_000u64 {
            assert_eq!(m.fetch(i * 64, 0), 0);
            assert_eq!(m.data(i * 12_345, i % 2 == 0, 1), 0);
        }
        assert_eq!(m.icache_stats().total_accesses(), 0);
    }

    #[test]
    fn miss_costs_penalty_hit_costs_nothing() {
        let mut m = MemSystem::new(MemConfig::paper_baseline());
        assert_eq!(m.data(0x100, false, 0), 20);
        assert_eq!(m.data(0x100, false, 0), 0);
        assert_eq!(m.fetch(0x2000, 3), 20);
        assert_eq!(m.fetch(0x2004, 3), 0, "same line");
    }

    #[test]
    fn traced_accesses_emit_miss_events_and_match_untraced_timing() {
        use vliw_trace::RecordingSink;
        let mut traced = MemSystem::new(MemConfig::paper_baseline());
        let mut plain = MemSystem::new(MemConfig::paper_baseline());
        let mut sink = RecordingSink::new();
        for (i, addr) in [0x100u64, 0x100, 0x8000, 0x100].into_iter().enumerate() {
            let a = traced.data_traced(addr, i % 2 == 1, 0, i as u64, &mut sink);
            let b = plain.data(addr, i % 2 == 1, 0);
            assert_eq!(a, b, "tracing must not change timing");
        }
        assert_eq!(traced.fetch_traced(0x40, 1, 9, &mut sink), 20);
        // Misses: 0x100 (cold), 0x8000 (cold), 0x40 (I$ cold).
        let events = sink.into_events();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0],
            TraceEvent::CacheMiss {
                cycle: 0,
                cache: CacheKind::Data,
                addr: 0x100,
                is_store: false,
                ..
            }
        ));
        assert!(matches!(
            events[2],
            TraceEvent::CacheMiss {
                cycle: 9,
                ctx: 1,
                cache: CacheKind::Instruction,
                ..
            }
        ));
    }

    #[test]
    fn icache_and_dcache_are_independent() {
        let mut m = MemSystem::new(MemConfig::paper_baseline());
        m.fetch(0x100, 0);
        // Same address on the D side still misses.
        assert_eq!(m.data(0x100, false, 0), 20);
        assert_eq!(m.icache_stats().total_misses(), 1);
        assert_eq!(m.dcache_stats().total_misses(), 1);
    }

    #[test]
    fn shared_dcache_interference_between_threads() {
        let mut m = MemSystem::new(MemConfig::paper_baseline());
        // Thread 0 fills a 64KB working set, thread 1 streams another 64KB
        // mapping to the same sets: thread 0 re-misses afterwards.
        for addr in (0..64 * 1024u64).step_by(64) {
            m.data(addr, false, 0);
        }
        for addr in (0..64 * 1024u64).step_by(64) {
            assert_eq!(m.data(addr, false, 0), 0, "warm");
        }
        for addr in (1 << 20..(1 << 20) + 64 * 1024u64).step_by(64) {
            m.data(addr, false, 1);
        }
        let before = m.dcache_stats().misses[0];
        for addr in (0..64 * 1024u64).step_by(64) {
            m.data(addr, false, 0);
        }
        assert!(
            m.dcache_stats().misses[0] > before,
            "thread 1 must have evicted thread 0's lines"
        );
    }
}
