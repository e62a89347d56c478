//! The multithreaded core: fetch → merge → issue → execute.
//!
//! Two execution models share one set of per-cycle semantics:
//!
//! * [`CoreModel::CycleAccurate`] — the original loop: one
//!   [`Core::step`] per simulated cycle, including cycles in which every
//!   context is stalled. This is the *oracle* the differential test suite
//!   (`tests/core_equivalence.rs`) runs the fast core against.
//! * [`CoreModel::EventDriven`] (default) — identical issue cycles, but
//!   spans in which *no* context can issue are skipped in closed form:
//!   the core jumps straight to the smallest `stall_until` among its
//!   installed threads, accounting the skipped cycles (empty packets,
//!   vertical waste, priority rotation) exactly as the oracle would have.
//!   Memory-bound workloads spend most wall-clock in such spans, which is
//!   where the measured 5–10× speedups come from (see
//!   `BENCH_event_core.json`).
//!
//! The equivalence contract is *bit-identical observable state*: retire
//! order, RNG draws, every counter in [`crate::stats::RunStats`], and the
//! full trace event stream. An all-stalled cycle performs no RNG draws,
//! no memory accesses and no conflict checks — its only effects are the
//! empty-packet record, the vertical-waste counter, the rotator advance
//! and (once per span) a merge-transition trace event — so a skipped span
//! can be replayed in O(1).

use crate::config::SimConfig;
use crate::stats::EngineStats;
use crate::thread::SoftThread;
use vliw_core::{eval::CompiledScheme, MergeEvaluator, MergeStats, PortInput, PriorityRotator};
use vliw_mem::MemSystem;
use vliw_trace::{NullSink, TraceEvent, TraceSink};

/// Which execution model drives [`Core::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoreModel {
    /// Event-driven fast core: skips ahead over all-stalled spans to the
    /// earliest thread wakeup. Bit-identical to the oracle (enforced by
    /// the differential suite), and the default.
    #[default]
    EventDriven,
    /// The legacy cycle-accurate loop: ticks every context every cycle.
    /// Kept as the differential-testing oracle and perf baseline.
    CycleAccurate,
}

impl CoreModel {
    /// Stable lowercase name (`event` / `cycle`), as printed by
    /// `Display`.
    pub fn name(self) -> &'static str {
        match self {
            CoreModel::EventDriven => "event",
            CoreModel::CycleAccurate => "cycle",
        }
    }
}

impl std::fmt::Display for CoreModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Hardware contexts that issued this cycle (bitmask).
    pub issued_contexts: u8,
    /// Operations issued.
    pub ops: u32,
}

/// A multithreaded clustered VLIW core.
pub struct Core {
    evaluator: MergeEvaluator,
    scheme: CompiledScheme,
    rotator: PriorityRotator,
    model: CoreModel,
    /// Shared memory system.
    pub mem: MemSystem,
    /// Hardware contexts (port count of the scheme).
    pub contexts: Vec<Option<SoftThread>>,
    /// Merge-network statistics.
    pub merge_stats: MergeStats,
    branch_penalty: u8,
    issue_width: u32,
    n_clusters: u8,
    cycle: u64,
    /// Issuing-context mask of the previous cycle (merge/split tracking).
    last_issued_mask: u8,
    // Aggregate counters.
    total_ops: u64,
    total_instrs: u64,
    vertical_waste_cycles: u64,
    horizontal_waste_slots: u64,
    /// Length of the idle (nothing-issued) span currently in progress —
    /// grown by the same `ops == 0` condition that feeds
    /// `vertical_waste_cycles` (and in closed form by `skip_idle`), so
    /// span accounting is identical under both core models.
    idle_run: u64,
    /// Completed idle-span statistics (queue fields unused at core level).
    idle_spans: EngineStats,
    /// Set when any thread crosses the instruction budget.
    pub budget_reached: bool,
    instr_budget: u64,
}

impl Core {
    /// Build a core from a configuration.
    pub fn new(cfg: &SimConfig) -> Core {
        let compiled = cfg.scheme.compile();
        let n = compiled.n_ports() as usize;
        Core {
            evaluator: MergeEvaluator::new(&cfg.machine),
            merge_stats: MergeStats::new(compiled.n_nodes()),
            scheme: compiled,
            rotator: PriorityRotator::new(cfg.priority, n as u8),
            model: cfg.core_model,
            mem: MemSystem::new(cfg.mem),
            contexts: (0..n).map(|_| None).collect(),
            branch_penalty: cfg.machine.taken_branch_penalty,
            issue_width: cfg.machine.total_issue() as u32,
            n_clusters: cfg.machine.n_clusters,
            cycle: 0,
            last_issued_mask: 0,
            total_ops: 0,
            total_instrs: 0,
            vertical_waste_cycles: 0,
            horizontal_waste_slots: 0,
            idle_run: 0,
            idle_spans: EngineStats::default(),
            budget_reached: false,
            instr_budget: cfg.instr_budget,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total operations issued so far.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Total VLIW instructions issued so far.
    pub fn total_instrs(&self) -> u64 {
        self.total_instrs
    }

    /// Vertical waste cycles so far.
    pub fn vertical_waste_cycles(&self) -> u64 {
        self.vertical_waste_cycles
    }

    /// Horizontal waste slots so far.
    pub fn horizontal_waste_slots(&self) -> u64 {
        self.horizontal_waste_slots
    }

    /// Install a software thread on a hardware context and fetch its head
    /// instruction. Panics if the context is occupied.
    ///
    /// The context determines the thread's physical-cluster rotation: the
    /// fixed wiring that spreads compact threads over different physical
    /// clusters so cluster-level merging has disjoint operands to work on.
    pub fn install(&mut self, ctx: usize, thread: SoftThread) {
        self.install_traced(ctx, thread, &mut NullSink);
    }

    /// [`Core::install`] with a trace sink observing the installation
    /// fetch (cold I$ misses of the incoming thread).
    pub fn install_traced<S: TraceSink>(
        &mut self,
        ctx: usize,
        mut thread: SoftThread,
        sink: &mut S,
    ) {
        assert!(self.contexts[ctx].is_none(), "context {ctx} occupied");
        thread.cluster_rot = (ctx as u8) % self.n_clusters;
        thread.n_clusters = self.n_clusters;
        // A freshly (re)installed thread may issue at the earliest next
        // cycle; its previous stall (if swapped out mid-miss) has elapsed
        // in wall-clock terms only if the OS kept it out long enough.
        thread.stall_until = thread.stall_until.max(self.cycle);
        thread.fetch_head(self.cycle, &mut self.mem, ctx as u8, sink);
        self.contexts[ctx] = Some(thread);
    }

    /// Remove and return the thread on `ctx`.
    pub fn evict(&mut self, ctx: usize) -> Option<SoftThread> {
        self.contexts[ctx].take()
    }

    /// Number of contexts with no thread installed.
    pub fn idle_contexts(&self) -> usize {
        self.contexts.iter().filter(|c| c.is_none()).count()
    }

    /// Execute one cycle.
    pub fn step(&mut self) -> StepOutcome {
        self.step_traced(&mut NullSink)
    }

    /// Execute one cycle, emitting [`TraceEvent`]s into `sink`.
    ///
    /// Every emission site is guarded by [`TraceSink::ENABLED`], an
    /// associated constant: monomorphized with [`NullSink`] the guards are
    /// `if false` and this compiles to exactly [`Core::step`]'s code — the
    /// zero-cost-when-off contract.
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> StepOutcome {
        let n = self.contexts.len();
        let mut inputs = [PortInput::stalled(); vliw_core::MAX_PORTS];
        {
            let order = self.rotator.order();
            for (port, &t) in order.iter().enumerate().take(n) {
                if let Some(th) = &self.contexts[t as usize] {
                    if th.ready(self.cycle) {
                        inputs[port] = PortInput::ready(th.head_sig());
                    }
                }
            }
        }
        let out =
            self.evaluator
                .evaluate_with_stats(&self.scheme, &inputs[..n], &mut self.merge_stats);
        let issued = self.rotator.ports_to_threads(out.issued_ports);
        if S::ENABLED && issued != self.last_issued_mask {
            sink.record(TraceEvent::MergeTransition {
                cycle: self.cycle,
                from_mask: self.last_issued_mask,
                to_mask: issued,
            });
        }
        self.last_issued_mask = issued;

        let mut m = issued;
        while m != 0 {
            let t = m.trailing_zeros() as usize;
            m &= m - 1;
            let th = self.contexts[t].as_mut().expect("issued context occupied");
            if S::ENABLED {
                sink.record(TraceEvent::BundleIssue {
                    cycle: self.cycle,
                    ctx: t as u8,
                    tid: th.tid,
                    ops: th.head_sig().n_ops,
                });
            }
            th.execute_head(
                self.cycle,
                &mut self.mem,
                t as u8,
                self.branch_penalty,
                sink,
            );
            self.total_instrs += 1;
            if th.instrs >= self.instr_budget {
                self.budget_reached = true;
            }
        }
        self.rotator.advance(issued);

        let ops = u32::from(out.packet.n_ops);
        self.total_ops += u64::from(ops);
        if ops == 0 {
            self.vertical_waste_cycles += 1;
            self.idle_run += 1;
        } else {
            self.horizontal_waste_slots += u64::from(self.issue_width - ops);
            if self.idle_run > 0 {
                self.idle_spans.record_idle_span(self.idle_run);
                self.idle_run = 0;
            }
        }
        self.cycle += 1;
        StepOutcome {
            issued_contexts: issued,
            ops,
        }
    }

    /// Run until `cycles_limit` or until the budget is reached.
    pub fn run(&mut self, cycles_limit: u64) {
        self.run_traced(cycles_limit, &mut NullSink);
    }

    /// [`Core::run`] with a trace sink (same zero-cost contract as
    /// [`Core::step_traced`]). Dispatches on the configured
    /// [`CoreModel`]; both models produce bit-identical observable state.
    pub fn run_traced<S: TraceSink>(&mut self, cycles_limit: u64, sink: &mut S) {
        match self.model {
            CoreModel::CycleAccurate => {
                while self.cycle < cycles_limit && !self.budget_reached {
                    self.step_traced(sink);
                }
            }
            CoreModel::EventDriven => self.run_event_driven(cycles_limit, sink),
        }
    }

    /// The fast loop: execute issue cycles exactly like the oracle, skip
    /// all-stalled spans in closed form.
    ///
    /// The loop steps first and looks for a span only after a cycle that
    /// issued nothing, so an issue cycle costs exactly the oracle's step.
    /// Zero issue is a *proof* of an idle span: `step` issues from every
    /// context whose `stall_until` has passed, so "nobody issued" means
    /// every installed context is stalled strictly past the cycle just
    /// executed, and the smallest `stall_until` among them is exactly the
    /// first cycle anything can issue again.
    ///
    /// The target is read from the threads themselves, which hold the
    /// only copy of each wake cycle, so external [`Core::step`],
    /// [`Core::install`] and [`Core::evict`] calls interleaved with `run`
    /// need no bookkeeping here.
    fn run_event_driven<S: TraceSink>(&mut self, cycles_limit: u64, sink: &mut S) {
        while self.cycle < cycles_limit && !self.budget_reached {
            if self.step_traced(sink).issued_contexts == 0 {
                // All-stalled (or empty) core: jump to the earliest wakeup.
                // With no installed context at all, every remaining cycle
                // of the slice is an empty cycle.
                let target = self
                    .contexts
                    .iter()
                    .flatten()
                    .map(|th| th.stall_until)
                    .min()
                    .unwrap_or(cycles_limit)
                    .min(cycles_limit);
                if target > self.cycle {
                    self.skip_idle(target, sink);
                }
            }
        }
    }

    /// Account `target - cycle` consecutive all-stalled cycles in closed
    /// form and jump to `target`. Bit-exact replay of what the oracle does
    /// on an idle cycle: no conflict checks, no RNG draws, no memory
    /// traffic — just the empty-packet records, the vertical-waste
    /// counter, and the rotator advance. The merge-transition trace event
    /// marking the issue mask collapsing to zero was already emitted by
    /// the idle step that proved the span, so the guard below is normally
    /// a no-op; it stays for bit-exactness if a caller ever skips from a
    /// non-idle cycle.
    fn skip_idle<S: TraceSink>(&mut self, target: u64, sink: &mut S) {
        debug_assert!(target > self.cycle, "skip must move forward");
        let k = target - self.cycle;
        if S::ENABLED && self.last_issued_mask != 0 {
            sink.record(TraceEvent::MergeTransition {
                cycle: self.cycle,
                from_mask: self.last_issued_mask,
                to_mask: 0,
            });
        }
        self.last_issued_mask = 0;
        self.merge_stats.record_idle(k);
        self.vertical_waste_cycles += k;
        self.idle_run += k;
        self.rotator.advance_idle(k);
        self.cycle = target;
    }

    /// Idle-span statistics with the in-progress trailing span flushed.
    /// Call once when collecting final run statistics (flushing is
    /// idempotent only because the run has ended).
    pub(crate) fn take_idle_spans(&mut self) -> EngineStats {
        if self.idle_run > 0 {
            self.idle_spans.record_idle_span(self.idle_run);
            self.idle_run = 0;
        }
        self.idle_spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::ProgramMeta;
    use std::sync::Arc;
    use vliw_core::catalog;
    use vliw_workloads::build_named;

    fn mk_core(scheme: vliw_core::MergeScheme) -> Core {
        let cfg = SimConfig::paper(scheme, 1000);
        Core::new(&cfg)
    }

    fn mk_thread(name: &str, tid: u64) -> SoftThread {
        let m = vliw_isa::MachineConfig::paper_baseline();
        let img = build_named(name, &m).unwrap();
        let meta = Arc::new(ProgramMeta::of(&img));
        SoftThread::new(&img, meta, tid, 7)
    }

    #[test]
    fn single_thread_progresses() {
        let mut core = mk_core(catalog::by_name("ST").unwrap());
        core.install(0, mk_thread("gsmencode", 0));
        core.run(20_000);
        assert!(core.total_ops() > 0);
        let th = core.contexts[0].as_ref().unwrap();
        assert!(th.instrs > 1_000);
        // Single thread on a 16-issue machine: plenty of waste.
        assert!(core.vertical_waste_cycles() + core.horizontal_waste_slots() > 0);
    }

    #[test]
    fn budget_stops_the_run() {
        let mut core = mk_core(catalog::by_name("ST").unwrap());
        core.install(0, mk_thread("gsmencode", 0));
        core.run(u64::MAX - 1);
        assert!(core.budget_reached);
        let th = core.contexts[0].as_ref().unwrap();
        assert_eq!(th.instrs, 100_000); // budget = 100M/1000
    }

    #[test]
    fn multithreading_beats_single_thread_throughput() {
        // Two low-ILP threads merged by 2-thread SMT must outperform one.
        let mut st = mk_core(catalog::by_name("ST").unwrap());
        st.install(0, mk_thread("bzip2", 0));
        st.run(30_000);
        let ipc_st = st.total_ops() as f64 / st.cycle() as f64;

        let mut smt = mk_core(catalog::by_name("1S").unwrap());
        smt.install(0, mk_thread("bzip2", 0));
        smt.install(1, mk_thread("blowfish", 1));
        smt.run(30_000);
        let ipc_smt = smt.total_ops() as f64 / smt.cycle() as f64;
        assert!(ipc_smt > ipc_st * 1.3, "SMT {ipc_smt:.2} vs ST {ipc_st:.2}");
    }

    #[test]
    fn smt_at_least_matches_csmt() {
        let load = |core: &mut Core| {
            core.install(0, mk_thread("mcf", 0));
            core.install(1, mk_thread("blowfish", 1));
            core.install(2, mk_thread("x264", 2));
            core.install(3, mk_thread("idct", 3));
        };
        let mut smt = mk_core(catalog::smt_cascade(4));
        load(&mut smt);
        smt.run(40_000);
        let mut csmt = mk_core(catalog::csmt_serial(4));
        load(&mut csmt);
        csmt.run(40_000);
        let ipc_smt = smt.total_ops() as f64 / smt.cycle() as f64;
        let ipc_csmt = csmt.total_ops() as f64 / csmt.cycle() as f64;
        assert!(
            ipc_smt >= ipc_csmt * 0.98,
            "SMT {ipc_smt:.2} must not lose to CSMT {ipc_csmt:.2}"
        );
    }

    #[test]
    fn eviction_returns_thread_state() {
        let mut core = mk_core(catalog::by_name("1S").unwrap());
        core.install(0, mk_thread("bzip2", 0));
        core.run(5_000);
        let th = core.evict(0).unwrap();
        assert!(th.instrs > 0);
        assert!(core.evict(0).is_none());
        // Reinstall continues from where it stopped.
        let before = th.instrs;
        core.install(1, th);
        core.run(10_000);
        assert!(core.contexts[1].as_ref().unwrap().instrs > before);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut core = mk_core(catalog::by_name("2SC3").unwrap());
            core.install(0, mk_thread("mcf", 0));
            core.install(1, mk_thread("cjpeg", 1));
            core.install(2, mk_thread("idct", 2));
            core.install(3, mk_thread("bzip2", 3));
            core.run(25_000);
            (
                core.total_ops(),
                core.total_instrs(),
                core.vertical_waste_cycles(),
            )
        };
        assert_eq!(run(), run());
    }
}
