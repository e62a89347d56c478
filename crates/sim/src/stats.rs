//! Run statistics: IPC, waste decomposition, stall attribution.

use crate::events::QueueStats;
use std::sync::Arc;
use vliw_core::MergeStats;
use vliw_fleet::FleetStats;
use vliw_mem::CacheStats;
use vliw_trace::StallBreakdown;
use vliw_traffic::TrafficStats;

/// Inclusive upper bounds of [`EngineStats::idle_span_hist`]'s buckets
/// (cycles); an eighth `+Inf` bucket follows. Powers of four: idle spans
/// range from single branch bubbles to whole cache-miss services.
pub const IDLE_SPAN_BOUNDS: [u64; 7] = [1, 4, 16, 64, 256, 1024, 4096];

/// Simulation-engine health counters: OS event-queue traffic and the
/// all-stalled ("idle") span structure of the run.
///
/// Every field is a function of the simulated schedule only — identical
/// across worker counts *and* across
/// [`crate::CoreModel::EventDriven`]/[`crate::CoreModel::CycleAccurate`]
/// (idle spans are counted from the same `no-op-issued` condition that
/// feeds `vertical_waste_cycles`, which the differential suite proves
/// bit-identical) — so the telemetry registry exports them in its
/// deterministic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// OS event-queue schedules (timeslice expiries, open-system arrivals).
    pub queue_pushes: u64,
    /// OS event-queue pops.
    pub queue_pops: u64,
    /// OS event-queue depth high-water mark.
    pub queue_depth_max: u64,
    /// Maximal runs of consecutive cycles in which nothing issued (the
    /// spans the event-driven core skips in one hop).
    pub idle_spans: u64,
    /// Total cycles inside those spans (== `vertical_waste_cycles`).
    pub idle_span_cycles: u64,
    /// Length of the longest idle span.
    pub idle_span_max: u64,
    /// Span-length histogram over [`IDLE_SPAN_BOUNDS`] plus a final
    /// `+Inf` bucket.
    pub idle_span_hist: [u64; 8],
}

impl EngineStats {
    /// Record one completed idle span of `len` cycles.
    pub(crate) fn record_idle_span(&mut self, len: u64) {
        if len == 0 {
            return;
        }
        self.idle_spans += 1;
        self.idle_span_cycles += len;
        self.idle_span_max = self.idle_span_max.max(len);
        let b = IDLE_SPAN_BOUNDS
            .iter()
            .position(|&hi| len <= hi)
            .unwrap_or(IDLE_SPAN_BOUNDS.len());
        self.idle_span_hist[b] += 1;
    }

    /// Fold the OS event-queue counters in.
    pub(crate) fn absorb_queue(&mut self, q: QueueStats) {
        self.queue_pushes += q.pushes;
        self.queue_pops += q.pops;
        self.queue_depth_max = self.queue_depth_max.max(q.depth_max);
    }

    /// Merge another engine's counters (fleet lanes into the fleet total):
    /// sums for traffic/span counts, maxima for high-water marks,
    /// elementwise for the histogram.
    pub(crate) fn absorb(&mut self, other: &EngineStats) {
        self.queue_pushes += other.queue_pushes;
        self.queue_pops += other.queue_pops;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.idle_spans += other.idle_spans;
        self.idle_span_cycles += other.idle_span_cycles;
        self.idle_span_max = self.idle_span_max.max(other.idle_span_max);
        for (h, o) in self.idle_span_hist.iter_mut().zip(&other.idle_span_hist) {
            *h += o;
        }
    }
}

/// Per-software-thread results.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadStats {
    /// Benchmark name (owned: custom workloads may use computed names).
    pub name: Arc<str>,
    /// Software thread id.
    pub tid: u32,
    /// Retired VLIW instructions.
    pub instrs: u64,
    /// Retired operations.
    pub ops: u64,
    /// Stall cycles charged to data-cache misses.
    pub dstall_cycles: u64,
    /// Stall cycles charged to instruction-cache misses.
    pub istall_cycles: u64,
    /// Stall cycles charged to taken-branch bubbles.
    pub branch_stall_cycles: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Final branch-RNG state (xorshift64*). Part of the core-equivalence
    /// contract: the fast and oracle cores must leave every thread's RNG
    /// in the same state, proving identical draw sequences. Not
    /// serialized (JSON/CSV exhibits are a byte-stable compatibility
    /// surface).
    pub rng_state: u64,
}

/// Full result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Executed cycles.
    pub cycles: u64,
    /// Operations issued (all threads).
    pub total_ops: u64,
    /// VLIW instructions issued (all threads).
    pub total_instrs: u64,
    /// Cycles in which no operation issued (vertical waste).
    pub vertical_waste_cycles: u64,
    /// Issue slots wasted in non-empty cycles (horizontal waste).
    pub horizontal_waste_slots: u64,
    /// Machine issue width (for waste normalisation).
    pub issue_width: u32,
    /// Per-thread breakdown.
    pub threads: Vec<ThreadStats>,
    /// Merge-network statistics.
    pub merge: MergeStats,
    /// Final I-cache statistics.
    pub icache: CacheStats,
    /// Final D-cache statistics.
    pub dcache: CacheStats,
    /// Quantum expiries handled by the OS layer (each may evict any
    /// subset of contexts, from none to all — see `migrations`).
    pub context_switches: u64,
    /// Name of the scheduling policy that drove the run (see
    /// [`crate::sched::SchedulerSpec::name`]).
    pub scheduler: Arc<str>,
    /// Thread reinstallations on a *different* hardware context than the
    /// previous one (cold merge-path / cluster-rotation changes).
    pub migrations: u64,
    /// Context-cycles during which a hardware context had no thread
    /// installed (more software threads recover these; distinct from
    /// vertical waste, where an occupied context had nothing to issue).
    pub idle_context_cycles: u64,
    /// Stall cycles decomposed by kind (I$ miss / D$ miss / branch
    /// bubble), summed over all threads from the same counters the tracer
    /// observes — so it always sums to the threads' total stall cycles,
    /// and a full trace's [`StallBreakdown::from_events`] agrees exactly.
    pub stall_breakdown: StallBreakdown,
    /// Open-system traffic metrics: offered/completed/shed job counts,
    /// sojourn-time quantiles and mean queue depth. All-zero
    /// ([`TrafficStats::default`]) for closed (batch) runs, which have no
    /// arrival process.
    pub traffic: TrafficStats,
    /// Fleet-mode accounting: per-machine routing/utilization/IPC, in
    /// fleet order. `None` for every single-machine run, so non-fleet
    /// serialization is byte-identical to the pre-fleet code.
    pub fleet: Option<FleetStats>,
    /// Engine health: OS event-queue traffic and idle-span structure.
    /// Deterministic across worker counts and core models.
    pub engine: EngineStats,
}

impl RunStats {
    /// Operations per cycle — the paper's IPC metric (VLIW "instructions"
    /// in the IPC of Figure 4/10 are operations; a 16-issue machine peaks
    /// at 16).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_ops as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles with no issue at all.
    pub fn vertical_waste(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.vertical_waste_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of total issue bandwidth lost to partially-filled cycles.
    pub fn horizontal_waste(&self) -> f64 {
        let total_slots = self.cycles.saturating_mul(u64::from(self.issue_width));
        if total_slots == 0 {
            0.0
        } else {
            self.horizontal_waste_slots as f64 / total_slots as f64
        }
    }

    /// Utilisation = 1 - vertical - horizontal (of total slot bandwidth).
    pub fn utilization(&self) -> f64 {
        let total_slots = self.cycles.saturating_mul(u64::from(self.issue_width));
        if total_slots == 0 {
            0.0
        } else {
            self.total_ops as f64 / total_slots as f64
        }
    }

    /// Jain's fairness index over per-thread retired instructions.
    pub fn fairness(&self) -> f64 {
        if self.threads.is_empty() {
            return 1.0;
        }
        let xs: Vec<f64> = self.threads.iter().map(|t| t.instrs as f64).collect();
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            1.0
        } else {
            sum * sum / (xs.len() as f64 * sq)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64, ops: u64, width: u32) -> RunStats {
        RunStats {
            cycles,
            total_ops: ops,
            total_instrs: ops / 2,
            vertical_waste_cycles: 0,
            horizontal_waste_slots: 0,
            issue_width: width,
            threads: vec![],
            merge: MergeStats::new(0),
            icache: CacheStats::default(),
            dcache: CacheStats::default(),
            context_switches: 0,
            scheduler: "paper-random".into(),
            migrations: 0,
            idle_context_cycles: 0,
            stall_breakdown: StallBreakdown::default(),
            traffic: TrafficStats::default(),
            fleet: None,
            engine: EngineStats::default(),
        }
    }

    #[test]
    fn engine_stats_span_recording_and_merge() {
        let mut e = EngineStats::default();
        e.record_idle_span(0); // no span
        e.record_idle_span(1); // bucket le=1
        e.record_idle_span(5); // bucket le=16
        e.record_idle_span(10_000); // +Inf bucket
        assert_eq!(e.idle_spans, 3);
        assert_eq!(e.idle_span_cycles, 10_006);
        assert_eq!(e.idle_span_max, 10_000);
        assert_eq!(e.idle_span_hist, [1, 0, 1, 0, 0, 0, 0, 1]);

        let mut other = EngineStats::default();
        other.record_idle_span(2);
        other.absorb_queue(QueueStats {
            pushes: 4,
            pops: 3,
            depth_max: 2,
        });
        e.absorb(&other);
        assert_eq!(e.idle_spans, 4);
        assert_eq!(e.idle_span_hist[1], 1, "le=4 bucket came from `other`");
        assert_eq!((e.queue_pushes, e.queue_pops, e.queue_depth_max), (4, 3, 2));
        assert_eq!(e.idle_span_max, 10_000, "absorb keeps the larger max");
    }

    #[test]
    fn ipc_and_utilization() {
        let s = stats(100, 400, 16);
        assert!((s.ipc() - 4.0).abs() < 1e-12);
        assert!((s.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let s = stats(0, 0, 16);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.vertical_waste(), 0.0);
        assert_eq!(s.horizontal_waste(), 0.0);
    }

    #[test]
    fn fairness_index() {
        let mut s = stats(1, 1, 16);
        s.threads = vec![
            ThreadStats {
                name: "a".into(),
                tid: 0,
                instrs: 100,
                ops: 0,
                dstall_cycles: 0,
                istall_cycles: 0,
                branch_stall_cycles: 0,
                taken_branches: 0,
                rng_state: 0,
            },
            ThreadStats {
                name: "b".into(),
                tid: 1,
                instrs: 100,
                ops: 0,
                dstall_cycles: 0,
                istall_cycles: 0,
                branch_stall_cycles: 0,
                taken_branches: 0,
                rng_state: 0,
            },
        ];
        assert!((s.fairness() - 1.0).abs() < 1e-12);
        s.threads[1].instrs = 0;
        assert!((s.fairness() - 0.5).abs() < 1e-12);
    }
}
