//! Property tests for the cache model, validated against a naive
//! reference implementation (per-set deque with explicit LRU ordering,
//! dirty bits and owners).

use proptest::prelude::*;
use std::collections::VecDeque;
use vliw_mem::{Cache, CacheConfig};

/// One resident line of the reference model.
struct RefLine {
    tag: u64,
    dirty: bool,
    owner: u8,
}

/// Naive reference cache: per-set deque, front = MRU, with the counters
/// the model keeps beside hit and miss.
struct RefCache {
    sets: Vec<VecDeque<RefLine>>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    accesses: [u64; 4],
    misses: [u64; 4],
    writebacks: u64,
    interference_evictions: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: (0..cfg.n_sets()).map(|_| VecDeque::new()).collect(),
            ways: cfg.ways as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: u64::from(cfg.n_sets() - 1),
            accesses: [0; 4],
            misses: [0; 4],
            writebacks: 0,
            interference_evictions: 0,
        }
    }

    /// A hit sets the dirty bit on a write and keeps the line's owner. A
    /// miss fills the set before it evicts; its LRU victim counts a
    /// writeback when dirty and an interference eviction when another
    /// thread brought it in.
    fn access(&mut self, addr: u64, write: bool, thread: u8) -> bool {
        self.accesses[thread as usize] += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|l| l.tag == line) {
            let mut hit = s.remove(pos).expect("position is in range");
            hit.dirty |= write;
            s.push_front(hit);
            true
        } else {
            self.misses[thread as usize] += 1;
            if s.len() == self.ways {
                let victim = s.pop_back().expect("a full set has a victim");
                self.writebacks += u64::from(victim.dirty);
                self.interference_evictions += u64::from(victim.owner != thread);
            }
            s.push_front(RefLine {
                tag: line,
                dirty: write,
                owner: thread,
            });
            false
        }
    }

    /// Empty every set. The cache under test then refills each set's
    /// invalid ways, lowest first, before it evicts anything, which the
    /// deque models by filling before it pops.
    fn flush(&mut self) {
        self.sets.iter_mut().for_each(VecDeque::clear);
    }
}

fn small_cfg() -> CacheConfig {
    CacheConfig {
        size_bytes: 1024,
        ways: 4,
        line_bytes: 32,
        miss_penalty: 20,
    }
}

proptest! {
    /// Hit/miss decisions and every counter match the reference LRU
    /// model exactly, for reads and writes from four threads with a
    /// flush half way through.
    #[test]
    fn matches_reference_lru(
        ops in prop::collection::vec((0u64..8192, any::<bool>(), 0u8..4), 1..400)
    ) {
        let cfg = small_cfg();
        let mut dut = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (i, &(a, write, thread)) in ops.iter().enumerate() {
            if i == ops.len() / 2 {
                dut.flush();
                reference.flush();
            }
            let expect = reference.access(a, write, thread);
            let got = dut.access(a, write, thread);
            prop_assert_eq!(got, expect, "address {:#x}", a);
            let s = dut.stats();
            prop_assert_eq!(s.writebacks, reference.writebacks, "access {}", i);
            prop_assert_eq!(
                s.interference_evictions,
                reference.interference_evictions,
                "access {}",
                i
            );
            prop_assert_eq!(&s.accesses[..4], &reference.accesses[..], "access {}", i);
            prop_assert_eq!(&s.misses[..4], &reference.misses[..], "access {}", i);
        }
    }

    /// Conservation: hits + misses == accesses; a hit immediately follows
    /// any access to the same line.
    #[test]
    fn stats_conserved(addrs in prop::collection::vec(0u64..65536, 1..300)) {
        let mut c = Cache::new(small_cfg());
        for &a in &addrs {
            c.access(a, a % 3 == 0, (a % 4) as u8);
            prop_assert!(c.probe(a), "line just brought in must be resident");
        }
        let s = c.stats();
        prop_assert_eq!(s.total_accesses(), addrs.len() as u64);
        prop_assert!(s.total_misses() <= s.total_accesses());
        let per_thread_sum: u64 = (0..4).map(|t| s.accesses[t]).sum();
        prop_assert_eq!(per_thread_sum, addrs.len() as u64);
    }

    /// Any working set no larger than one way-worth of distinct lines per
    /// set can never be evicted by its own re-accesses.
    #[test]
    fn small_working_set_stays_resident(seed in 0u64..1000) {
        let cfg = small_cfg(); // 8 sets x 4 ways
        let mut c = Cache::new(cfg);
        // 8 lines = one line per set: trivially fits.
        let lines: Vec<u64> = (0..8).map(|i| (seed * 8 + i) * 32).collect();
        for round in 0..5 {
            for &a in &lines {
                let hit = c.access(a, false, 0);
                if round > 0 {
                    prop_assert!(hit);
                }
            }
        }
    }
}
