//! Software thread state: program position, stream generators, counters.

use std::sync::Arc;
use vliw_compiler::TermKind;
use vliw_isa::{InstrSignature, OpClass};
use vliw_mem::MemSystem;
use vliw_trace::{StallKind, TraceEvent, TraceSink};
use vliw_workloads::{BenchmarkImage, StreamState};

/// Pre-extracted per-instruction execution metadata (hot-loop form of
/// [`vliw_isa::VliwInstruction`]).
#[derive(Debug, Clone)]
pub struct InstrMeta {
    /// Merge signature (what the merge network sees).
    pub sig: InstrSignature,
    /// Fetch byte address.
    pub addr: u64,
    /// Memory operations: (stream id, is_store).
    pub mem: Box<[(u16, bool)]>,
}

/// Pre-extracted block metadata.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// Instructions in issue order.
    pub instrs: Box<[InstrMeta]>,
    /// Terminator kind.
    pub term: TermKind,
}

/// Hot-loop image of a program.
#[derive(Debug, Clone)]
pub struct ProgramMeta {
    /// Blocks by id.
    pub blocks: Box<[BlockMeta]>,
    /// Entry block.
    pub entry: u32,
}

impl ProgramMeta {
    /// Extract the execution metadata of a compiled benchmark.
    pub fn of(image: &BenchmarkImage) -> ProgramMeta {
        let blocks = image
            .program
            .blocks
            .iter()
            .map(|b| BlockMeta {
                instrs: b
                    .instrs
                    .iter()
                    .zip(&b.addrs)
                    .map(|(i, &addr)| InstrMeta {
                        sig: i.signature(),
                        addr,
                        mem: i
                            .ops()
                            .iter()
                            .filter(|o| o.class() == OpClass::Mem)
                            .map(|o| {
                                let m = o.mem.expect("mem ops carry annotations");
                                (m.stream, m.is_store)
                            })
                            .collect(),
                    })
                    .collect(),
                term: b.term,
            })
            .collect();
        ProgramMeta {
            blocks,
            entry: image.program.entry,
        }
    }
}

/// One software thread (an OS-level process running a benchmark).
#[derive(Debug, Clone)]
pub struct SoftThread {
    /// Software thread id (index in the workload).
    pub tid: u32,
    /// Benchmark name (for reports). Shared with the image's spec, so
    /// dynamically named custom workloads carry their names through stats.
    pub name: Arc<str>,
    /// Executable metadata (shared between runs).
    pub meta: Arc<ProgramMeta>,
    /// Current block.
    pub block: u32,
    /// Current instruction index within the block.
    pub idx: u32,
    /// Cycle at which the thread may issue again (stalls: cache misses,
    /// branch bubbles).
    pub stall_until: u64,
    /// Address-stream generators (one per program stream).
    pub streams: Vec<StreamState>,
    /// Branch-outcome RNG state (xorshift64*).
    rng: u64,
    /// Per-thread base offset for code addresses.
    pub code_offset: u64,
    /// Per-thread base offset for data addresses.
    pub data_offset: u64,
    /// Last I-cache line fetched (fast path: no probe when unchanged).
    last_iline: u64,
    /// The hardware context this thread last ran on (`None` before its
    /// first installation) — the OS scheduler's affinity signal, also used
    /// to count cross-context migrations.
    pub last_ctx: Option<u8>,
    /// Physical-cluster rotation of the context this thread occupies
    /// (virtual cluster v executes on physical cluster (v+rot) mod M).
    pub cluster_rot: u8,
    /// Cluster count of the machine (for the rotation arithmetic).
    pub n_clusters: u8,
    /// The head instruction's signature rotated by `cluster_rot`: what
    /// [`SoftThread::head_sig`] returns. Refreshed by
    /// [`SoftThread::fetch_head`], which runs on every install and after
    /// every execute.
    head: InstrSignature,
    /// Retired VLIW instructions.
    pub instrs: u64,
    /// Retired operations.
    pub ops: u64,
    /// Stall cycles charged to D$ misses.
    pub dstall_cycles: u64,
    /// Stall cycles charged to I$ misses.
    pub istall_cycles: u64,
    /// Stall cycles charged to taken-branch bubbles.
    pub branch_stall_cycles: u64,
    /// Taken branches executed.
    pub taken_branches: u64,
}

impl SoftThread {
    /// Create a thread running `image`, with per-thread address isolation
    /// derived from `tid`.
    pub fn new(image: &BenchmarkImage, meta: Arc<ProgramMeta>, tid: u64, seed: u64) -> Self {
        // Irregular per-thread offsets so co-running processes neither
        // share cache lines nor alias pathologically on the same sets.
        let code_offset = (tid << 24) ^ (tid * 0x3440);
        let data_offset = ((tid + 1) << 32) ^ ((tid * 0x5_8840) & !63);
        let streams = image
            .streams
            .iter()
            .enumerate()
            .map(|(i, s)| StreamState::new(*s, seed ^ (tid << 16) ^ i as u64))
            .collect();
        let head = meta.blocks[meta.entry as usize].instrs[0].sig;
        SoftThread {
            tid: tid as u32,
            name: image.spec.name.clone(),
            block: meta.entry,
            meta,
            idx: 0,
            stall_until: 0,
            streams,
            rng: (seed ^ (tid.wrapping_mul(0x9E37_79B9_7F4A_7C15))) | 1,
            code_offset,
            data_offset,
            last_iline: u64::MAX,
            last_ctx: None,
            cluster_rot: 0,
            n_clusters: image.machine.n_clusters,
            head,
            instrs: 0,
            ops: 0,
            dstall_cycles: 0,
            istall_cycles: 0,
            branch_stall_cycles: 0,
            taken_branches: 0,
        }
    }

    /// Ready to issue at `cycle`?
    #[inline]
    pub fn ready(&self, cycle: u64) -> bool {
        cycle >= self.stall_until
    }

    /// Current branch-RNG state (xorshift64*). Exposed for the
    /// differential core-equivalence suite: identical final RNG state
    /// proves the fast core drew exactly the same branch outcomes, in the
    /// same order, as the cycle-accurate oracle.
    pub fn rng_state(&self) -> u64 {
        self.rng
    }

    /// Signature of the instruction at the head, as seen by the merge
    /// network (virtual clusters rotated onto the context's physical
    /// clusters). Computed once per head move by
    /// [`SoftThread::fetch_head`], so direct writes to `block`, `idx` or
    /// `cluster_rot` show here only after the next fetch.
    #[inline]
    pub fn head_sig(&self) -> InstrSignature {
        self.head
    }

    /// Deterministic per-thread uniform draw in 0..1000.
    #[inline]
    fn draw_permille(&mut self) -> u16 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % 1000) as u16
    }

    /// Probe the I-cache for the instruction at the head; charges a stall
    /// when the line misses. Called whenever the head moves and on every
    /// install; also refreshes the rotated head signature.
    ///
    /// Tracing emits [`TraceEvent::CacheMiss`] (from the memory system) and
    /// [`TraceEvent::Stall`] with [`StallKind::ICacheMiss`]; every emission
    /// is guarded by [`TraceSink::ENABLED`], so with
    /// [`vliw_trace::NullSink`] this monomorphizes to the untraced code.
    pub fn fetch_head<S: TraceSink>(
        &mut self,
        cycle: u64,
        mem: &mut MemSystem,
        ctx: u8,
        sink: &mut S,
    ) {
        let meta = &self.meta.blocks[self.block as usize].instrs[self.idx as usize];
        self.head = meta.sig.rotate_clusters(self.cluster_rot, self.n_clusters);
        let addr = meta.addr + self.code_offset;
        let line = mem.icache_line(addr);
        if line != self.last_iline {
            self.last_iline = line;
            let extra = mem.fetch_traced(addr, ctx, cycle, sink);
            if extra > 0 {
                self.stall_until = self.stall_until.max(cycle + u64::from(extra));
                self.istall_cycles += u64::from(extra);
                if S::ENABLED {
                    sink.record(TraceEvent::Stall {
                        cycle,
                        ctx,
                        tid: self.tid,
                        kind: StallKind::ICacheMiss,
                        cycles: extra,
                    });
                }
            }
        }
    }

    /// Execute the head instruction at `cycle` (the merge network accepted
    /// it) and advance the program counter. `branch_penalty` is the taken-
    /// branch bubble length.
    ///
    /// Tracing emits cache-miss and per-kind [`TraceEvent::Stall`] events
    /// at the cycle they are charged, mirroring the `dstall`/`istall`/
    /// `branch_stall` counters exactly (the conservation property the
    /// stall-breakdown analyses rely on).
    ///
    /// Always inlined: left to the optimizer, whether the release build
    /// inlined it into `Core::step_traced` changed with unrelated code
    /// elsewhere in the crate, and its out-of-line copies slowed the step.
    #[inline(always)]
    pub fn execute_head<S: TraceSink>(
        &mut self,
        cycle: u64,
        mem: &mut MemSystem,
        ctx: u8,
        branch_penalty: u8,
        sink: &mut S,
    ) {
        let block = &self.meta.blocks[self.block as usize];
        let imeta = &block.instrs[self.idx as usize];
        self.instrs += 1;
        self.ops += u64::from(imeta.sig.n_ops);
        let mut next_free = cycle + 1;

        // Data accesses: blocking, serialized.
        for &(stream, is_store) in imeta.mem.iter() {
            let addr = self.streams[stream as usize].next_addr() + self.data_offset;
            let extra = mem.data_traced(addr, is_store, ctx, cycle, sink);
            if extra > 0 {
                next_free += u64::from(extra);
                self.dstall_cycles += u64::from(extra);
                if S::ENABLED {
                    sink.record(TraceEvent::Stall {
                        cycle,
                        ctx,
                        tid: self.tid,
                        kind: StallKind::DCacheMiss,
                        cycles: extra,
                    });
                }
            }
        }

        // Advance the PC.
        let last = self.idx as usize + 1 == block.instrs.len();
        if !last {
            self.idx += 1;
        } else {
            let (next_block, taken) = match block.term {
                TermKind::FallThrough => (self.block + 1, false),
                TermKind::Jump { target } => (target, true),
                TermKind::Return => (self.meta.entry, true),
                TermKind::CondBranch {
                    taken,
                    taken_permille,
                } => {
                    if self.draw_permille() < taken_permille {
                        (taken, true)
                    } else {
                        (self.block + 1, false)
                    }
                }
            };
            self.block = next_block;
            self.idx = 0;
            if taken {
                self.taken_branches += 1;
                next_free += u64::from(branch_penalty);
                self.branch_stall_cycles += u64::from(branch_penalty);
                if S::ENABLED && branch_penalty > 0 {
                    sink.record(TraceEvent::Stall {
                        cycle,
                        ctx,
                        tid: self.tid,
                        kind: StallKind::BranchBubble,
                        cycles: u32::from(branch_penalty),
                    });
                }
            }
        }
        self.stall_until = next_free;
        // Fetch the new head (charges I$ stall on a line change/miss).
        self.fetch_head(next_free, mem, ctx, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_isa::MachineConfig;
    use vliw_mem::MemConfig;
    use vliw_trace::NullSink;
    use vliw_workloads::build_named;

    fn thread_pair() -> (SoftThread, MemSystem) {
        let m = MachineConfig::paper_baseline();
        let img = build_named("gsmencode", &m).unwrap();
        let meta = Arc::new(ProgramMeta::of(&img));
        let t = SoftThread::new(&img, meta, 0, 42);
        (t, MemSystem::new(MemConfig::paper_baseline()))
    }

    #[test]
    fn executes_and_advances() {
        let (mut t, mut mem) = thread_pair();
        t.fetch_head(0, &mut mem, 0, &mut NullSink);
        let start_block = t.block;
        for cycle in 0..1000u64 {
            if t.ready(cycle) {
                t.execute_head(cycle, &mut mem, 0, 2, &mut NullSink);
            }
        }
        assert!(t.instrs > 0);
        // Nearly every instruction carries ops (the ring-closure block is
        // a lone nop).
        assert!(t.ops as f64 >= t.instrs as f64 * 0.9);
        // The loop must have wrapped at least once (self-loop kernels).
        assert!(t.taken_branches > 0);
        let _ = start_block;
    }

    #[test]
    fn branch_penalty_accumulates() {
        let (mut t, mut mem) = thread_pair();
        t.fetch_head(0, &mut mem, 0, &mut NullSink);
        let mut cycle = 0u64;
        while t.taken_branches < 10 {
            if t.ready(cycle) {
                t.execute_head(cycle, &mut mem, 0, 2, &mut NullSink);
            }
            cycle += 1;
        }
        assert_eq!(t.branch_stall_cycles, 20);
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut a, mut mem_a) = thread_pair();
        let (mut b, mut mem_b) = thread_pair();
        for cycle in 0..5000u64 {
            if a.ready(cycle) {
                a.execute_head(cycle, &mut mem_a, 0, 2, &mut NullSink);
            }
            if b.ready(cycle) {
                b.execute_head(cycle, &mut mem_b, 0, 2, &mut NullSink);
            }
        }
        assert_eq!(a.instrs, b.instrs);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.block, b.block);
        assert_eq!(a.dstall_cycles, b.dstall_cycles);
    }

    #[test]
    fn distinct_tids_have_distinct_address_spaces() {
        let m = MachineConfig::paper_baseline();
        let img = build_named("bzip2", &m).unwrap();
        let meta = Arc::new(ProgramMeta::of(&img));
        let a = SoftThread::new(&img, meta.clone(), 0, 42);
        let b = SoftThread::new(&img, meta, 1, 42);
        assert_ne!(a.code_offset, b.code_offset);
        assert_ne!(a.data_offset, b.data_offset);
    }
}
