//! Set-associative, true-LRU cache model.

use crate::MAX_THREADS;
use std::fmt;

/// Geometry and timing of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u32,
    /// Associativity (power of two).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Extra cycles a missing access costs.
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// The paper's cache: 64KB, 4-way, 20-cycle miss penalty. Line size is
    /// not given in the paper; 64B matches the ST231 D-cache.
    pub fn paper_baseline() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            miss_penalty: 20,
        }
    }

    /// Number of sets.
    pub fn n_sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    fn validate(&self) {
        assert!(self.size_bytes.is_power_of_two(), "size must be 2^k");
        assert!(self.ways.is_power_of_two(), "ways must be 2^k");
        assert!(self.line_bytes.is_power_of_two(), "line must be 2^k");
        assert!(
            self.size_bytes >= self.ways * self.line_bytes,
            "capacity must hold at least one set"
        );
    }
}

/// Per-cache counters, split by accessing hardware thread.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Accesses per thread.
    pub accesses: [u64; MAX_THREADS],
    /// Misses per thread.
    pub misses: [u64; MAX_THREADS],
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Misses whose victim line was brought in by a *different* thread —
    /// a proxy for inter-thread interference in the shared cache.
    pub interference_evictions: u64,
}

impl CacheStats {
    /// Total accesses across threads.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Total misses across threads.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Global miss rate (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        let a = self.total_accesses();
        if a == 0 {
            0.0
        } else {
            self.total_misses() as f64 / a as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} misses={} ({:.2}%) writebacks={}",
            self.total_accesses(),
            self.total_misses(),
            self.miss_rate() * 100.0,
            self.writebacks
        )
    }
}

const INVALID: u64 = u64::MAX;

/// One set-associative cache.
///
/// Storage is flat: way `w` of set `s` lives at index `s * ways + w`.
/// Replacement is true LRU via per-line stamps from a monotone counter
/// (wraps after 2^64 accesses — never in practice).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    owner: Vec<u8>,
    tick: u64,
    set_mask: u64,
    line_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let lines = (cfg.n_sets() * cfg.ways) as usize;
        Cache {
            cfg,
            tags: vec![INVALID; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            owner: vec![0; lines],
            tick: 0,
            set_mask: u64::from(cfg.n_sets() - 1),
            line_shift: cfg.line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access `addr` on behalf of `thread`. Returns `true` on hit.
    ///
    /// Misses allocate (write-allocate policy) and evict the LRU way;
    /// dirty victims count a writeback.
    ///
    /// The hit path compares every way's tag with no early exit: a line
    /// sits in at most one way and `INVALID` never equals a line
    /// (`addr >> line_shift < u64::MAX`), so the last match is the only
    /// one. A miss runs out of line, off the hit path.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool, thread: u8) -> bool {
        self.tick += 1;
        self.stats.accesses[thread as usize] += 1;

        let line = addr >> self.line_shift;
        let ways = self.cfg.ways as usize;
        let base = (line & self.set_mask) as usize * ways;

        let mut way = ways;
        for (w, &tag) in self.tags[base..base + ways].iter().enumerate() {
            way = if tag == line { w } else { way };
        }
        if way == ways {
            self.miss(base, line, write, thread);
            return false;
        }
        self.stamps[base + way] = self.tick;
        self.dirty[base + way] |= write;
        true
    }

    /// Allocate `line` into the set at `base` for `thread`, evicting the
    /// first way with the smallest LRU stamp.
    #[cold]
    #[inline(never)]
    fn miss(&mut self, base: usize, line: u64, write: bool, thread: u8) {
        self.stats.misses[thread as usize] += 1;
        let ways = self.cfg.ways as usize;
        let mut victim = base;
        for idx in base + 1..base + ways {
            if self.stamps[idx] < self.stamps[victim] {
                victim = idx;
            }
        }
        if self.tags[victim] != INVALID {
            if self.dirty[victim] {
                self.stats.writebacks += 1;
            }
            if self.owner[victim] != thread {
                self.stats.interference_evictions += 1;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.tick;
        self.dirty[victim] = write;
        self.owner[victim] = thread;
    }

    /// Whether `addr` currently resides in the cache (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let ways = self.cfg.ways as usize;
        (0..ways).any(|w| self.tags[set * ways + w] == line)
    }

    /// Invalidate everything (e.g. on context switch experiments).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.dirty.fill(false);
        self.stamps.fill(0);
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics (cache contents untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Line-aligned address of `addr` (for "same line as last fetch"
    /// fast paths).
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 16,
            miss_penalty: 20,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40, false, 0));
        assert!(c.access(0x40, false, 0));
        assert!(c.access(0x4F, false, 0), "same line");
        assert!(!c.access(0x50, false, 0), "next line");
        assert_eq!(c.stats().total_accesses(), 4);
        assert_eq!(c.stats().total_misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with (line % 4 == 0): addresses 0, 64, 128...
        c.access(0, false, 0); // A
        c.access(64, false, 0); // B -> set full
        c.access(0, false, 0); // touch A; B is now LRU
        c.access(128, false, 0); // C evicts B
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0, true, 0);
        c.access(64, false, 0);
        c.access(128, false, 0); // evicts dirty line 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn interference_tracked_per_owner() {
        let mut c = tiny();
        c.access(0, false, 0);
        c.access(64, false, 1);
        // Thread 1 evicts thread 0's line (line 0 is LRU).
        c.access(128, false, 1);
        assert_eq!(c.stats().interference_evictions, 1);
    }

    #[test]
    fn per_thread_stats() {
        let mut c = tiny();
        c.access(0, false, 2);
        c.access(0, false, 2);
        c.access(16, false, 5);
        assert_eq!(c.stats().accesses[2], 2);
        assert_eq!(c.stats().misses[2], 1);
        assert_eq!(c.stats().accesses[5], 1);
        assert_eq!(c.stats().misses[5], 1);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0, false, 0);
        c.flush();
        assert!(!c.probe(0));
    }

    #[test]
    fn paper_geometry() {
        let cfg = CacheConfig::paper_baseline();
        assert_eq!(cfg.n_sets(), 256);
        let c = Cache::new(cfg);
        assert_eq!(c.tags.len(), 1024);
    }

    #[test]
    fn working_set_behaviour() {
        // A working set that fits (64KB cache, 32KB stream) steady-state
        // hits; a 256KB stream thrashes.
        let mut c = Cache::new(CacheConfig::paper_baseline());
        for round in 0..4 {
            for addr in (0..32 * 1024u64).step_by(64) {
                let hit = c.access(addr, false, 0);
                if round > 0 {
                    assert!(hit, "fit stream must hit after warmup");
                }
            }
        }
        let mut c = Cache::new(CacheConfig::paper_baseline());
        let mut hits = 0u64;
        for _round in 0..4 {
            for addr in (0..256 * 1024u64).step_by(64) {
                hits += u64::from(c.access(addr, false, 0));
            }
        }
        assert_eq!(hits, 0, "sequential over-capacity stream never re-hits");
    }
}
