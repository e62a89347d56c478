//! Address-stream models.
//!
//! The simulator is trace-driven: memory operations carry a stream id, and
//! at execution time the owning thread asks its stream generator for the
//! next address. Three patterns cover the suite:
//!
//! * **Strided** — `base + (k * stride) mod working_set`: array walks;
//!   miss rate ≈ `stride / line` once the working set exceeds the cache.
//! * **Random** — uniform within the working set: pointer chasing; miss
//!   rate ≈ `1 - cache/working_set` (for large sets, nearly every access
//!   misses).
//! * **Mixed** — the locality model real programs exhibit: most accesses
//!   walk a small cache-resident *hot* region; a `cold_permille` fraction
//!   touches the large *cold* region (strided or random). This is the knob
//!   that calibrates each benchmark's `IPCr` against its `IPCp` — the
//!   dynamic cold share is exact regardless of how many static memory
//!   operations the kernel has.
//!
//! Generators are deterministic per (thread, stream, seed) — two identical
//! runs produce identical address traces.

/// The access pattern of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPattern {
    /// Sequential walk with a fixed byte stride, wrapping at the working
    /// set boundary.
    Strided {
        /// Byte distance between consecutive accesses.
        stride: u64,
        /// Wrap-around footprint in bytes.
        working_set: u64,
    },
    /// Uniform-random word accesses within the working set.
    Random {
        /// Footprint in bytes.
        working_set: u64,
    },
    /// Hot/cold locality mix (see module docs).
    Mixed {
        /// Hot-region footprint (should fit the cache comfortably).
        hot_set: u64,
        /// Cold-region footprint.
        cold_set: u64,
        /// Per-access probability of going cold, in 1/1000 units.
        cold_permille: u16,
        /// Cold-region stride; 0 = uniform random (pointer chasing).
        cold_stride: u64,
    },
}

/// One stream: a pattern anchored at a base address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Pattern of the stream.
    pub pattern: StreamPattern,
    /// Base byte address (the simulator adds a per-thread offset so
    /// distinct software threads never share data).
    pub base: u64,
}

impl StreamSpec {
    /// Total footprint in bytes (for laying out disjoint streams).
    pub fn footprint(&self) -> u64 {
        match self.pattern {
            StreamPattern::Strided { working_set, .. } | StreamPattern::Random { working_set } => {
                working_set
            }
            StreamPattern::Mixed {
                hot_set, cold_set, ..
            } => hot_set + cold_set,
        }
    }
}

/// Mutable per-thread state of one stream.
///
/// Each walk keeps its next offset, so a strided or hot access adds its
/// step and divides only when the offset wraps.
#[derive(Debug, Clone)]
pub struct StreamState {
    spec: StreamSpec,
    /// Next offset of the strided walk, or of the hot walk of a mixed
    /// stream.
    off: u64,
    /// Next offset of a mixed stream's strided cold walk.
    cold_off: u64,
    rng: u64,
}

/// Return `*off` and advance it by `step` modulo `wrap.max(1)`. From a
/// zero start the k-th call returns `(k * step) % wrap.max(1)`: the sum
/// is already reduced while it stays below `wrap`.
#[inline]
fn walk(off: &mut u64, step: u64, wrap: u64) -> u64 {
    let cur = *off;
    let next = cur + step;
    *off = if next >= wrap {
        next % wrap.max(1)
    } else {
        next
    };
    cur
}

impl StreamState {
    /// Fresh state with a deterministic per-thread seed.
    pub fn new(spec: StreamSpec, seed: u64) -> Self {
        StreamState {
            spec,
            off: 0,
            cold_off: 0,
            rng: seed | 1,
        }
    }

    #[inline]
    fn next_rng(&mut self) -> u64 {
        // xorshift64*: cheap, deterministic, good enough spread.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next address of the stream.
    #[inline]
    pub fn next_addr(&mut self) -> u64 {
        match self.spec.pattern {
            StreamPattern::Strided {
                stride,
                working_set,
            } => self.spec.base + walk(&mut self.off, stride, working_set),
            StreamPattern::Random { working_set } => {
                let r = self.next_rng();
                let off = (r % working_set.max(1)) & !3; // word aligned
                self.spec.base + off
            }
            StreamPattern::Mixed {
                hot_set,
                cold_set,
                cold_permille,
                cold_stride,
            } => {
                let r = self.next_rng();
                if ((r >> 32) % 1000) < u64::from(cold_permille) {
                    // Cold access, past the hot region.
                    let off = if cold_stride == 0 {
                        (r % cold_set.max(1)) & !3
                    } else {
                        walk(&mut self.cold_off, cold_stride, cold_set)
                    };
                    self.spec.base + hot_set + off
                } else {
                    self.spec.base + walk(&mut self.off, 4, hot_set)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_wraps_at_working_set() {
        let mut s = StreamState::new(
            StreamSpec {
                pattern: StreamPattern::Strided {
                    stride: 64,
                    working_set: 256,
                },
                base: 0x1000,
            },
            7,
        );
        let addrs: Vec<u64> = (0..6).map(|_| s.next_addr()).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10C0, 0x1000, 0x1040]);
    }

    /// Every walk matches the closed form `(k * step) % wrap.max(1)` over
    /// at least three wraps, whatever its step against its wrap.
    #[test]
    fn walks_match_the_closed_form() {
        let closed = |k: u64, step: u64, wrap: u64| (k * step) % wrap.max(1);
        for (stride, working_set) in [(48, 256), (256, 256), (300, 256), (64, 0)] {
            let spec = StreamSpec {
                pattern: StreamPattern::Strided {
                    stride,
                    working_set,
                },
                base: 0x1000,
            };
            let mut s = StreamState::new(spec, 7);
            for k in 0..200 {
                assert_eq!(
                    s.next_addr(),
                    0x1000 + closed(k, stride, working_set),
                    "stride {stride}, working set {working_set}, access {k}"
                );
            }
        }
        // A hot set that is not a multiple of 4 and a strided cold walk
        // whose stride exceeds its region, interleaved by the cold draws.
        let (hot_set, cold_set, cold_stride) = (30, 100, 128);
        let spec = StreamSpec {
            pattern: StreamPattern::Mixed {
                hot_set,
                cold_set,
                cold_permille: 300,
                cold_stride,
            },
            base: 0,
        };
        let mut s = StreamState::new(spec, 11);
        let (mut hot, mut cold) = (0, 0);
        for _ in 0..400 {
            let a = s.next_addr();
            if a < hot_set {
                assert_eq!(a, closed(hot, 4, hot_set), "hot access {hot}");
                hot += 1;
            } else {
                assert_eq!(
                    a - hot_set,
                    closed(cold, cold_stride, cold_set),
                    "cold access {cold}"
                );
                cold += 1;
            }
        }
        assert!(hot * 4 >= 3 * hot_set && cold * cold_stride >= 3 * cold_set);
    }

    /// An open fleet cell builds the threads of all its jobs, and so their
    /// streams, before it runs: three more `u64`s per stream raised the
    /// peak RSS of a 2,000-job `fleet-stream` run by 30%.
    #[test]
    fn stream_state_fits_64_bytes() {
        assert!(std::mem::size_of::<StreamState>() <= 64);
    }

    #[test]
    fn random_stays_in_working_set_and_is_deterministic() {
        let spec = StreamSpec {
            pattern: StreamPattern::Random { working_set: 4096 },
            base: 0x8000,
        };
        let mut a = StreamState::new(spec, 42);
        let mut b = StreamState::new(spec, 42);
        for _ in 0..1000 {
            let x = a.next_addr();
            assert_eq!(x, b.next_addr());
            assert!((0x8000..0x8000 + 4096).contains(&x));
            assert_eq!(x % 4, 0, "word aligned");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let spec = StreamSpec {
            pattern: StreamPattern::Random {
                working_set: 1 << 20,
            },
            base: 0,
        };
        let mut a = StreamState::new(spec, 1);
        let mut b = StreamState::new(spec, 2);
        let same = (0..100).filter(|_| a.next_addr() == b.next_addr()).count();
        assert!(same < 5);
    }

    #[test]
    fn mixed_cold_share_is_exact() {
        let spec = StreamSpec {
            pattern: StreamPattern::Mixed {
                hot_set: 1 << 12,
                cold_set: 1 << 24,
                cold_permille: 150,
                cold_stride: 0,
            },
            base: 0,
        };
        let mut s = StreamState::new(spec, 99);
        let n = 100_000;
        let cold = (0..n).filter(|_| s.next_addr() >= (1 << 12)).count();
        let share = cold as f64 / n as f64;
        assert!(
            (share - 0.150).abs() < 0.01,
            "cold share {share} should be ~0.150"
        );
    }

    #[test]
    fn mixed_strided_cold_walks_sequentially() {
        let spec = StreamSpec {
            pattern: StreamPattern::Mixed {
                hot_set: 4096,
                cold_set: 1 << 20,
                cold_permille: 1000, // always cold
                cold_stride: 4,
            },
            base: 0,
        };
        let mut s = StreamState::new(spec, 3);
        let a0 = s.next_addr();
        let a1 = s.next_addr();
        let a2 = s.next_addr();
        assert_eq!(a1 - a0, 4);
        assert_eq!(a2 - a1, 4);
        assert!(a0 >= 4096);
    }

    #[test]
    fn footprints_cover_both_regions() {
        let spec = StreamSpec {
            pattern: StreamPattern::Mixed {
                hot_set: 4096,
                cold_set: 8192,
                cold_permille: 100,
                cold_stride: 0,
            },
            base: 0,
        };
        assert_eq!(spec.footprint(), 12288);
    }
}
