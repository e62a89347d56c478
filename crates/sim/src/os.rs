//! The multitasking OS layer (paper §5.1), driven by a pluggable policy.
//!
//! The processor exposes its hardware thread contexts as virtual CPUs; the
//! OS schedules as many software threads as there are virtual CPUs, with a
//! 1M-cycle timeslice. *Which* threads run where is decided by a
//! [`Scheduler`] policy (see [`crate::sched`]): at every quantum expiry
//! the policy picks the contexts to flush and the refill order. The
//! default [`crate::sched::SchedulerSpec::PaperRandom`] reproduces the
//! paper's model — full eviction, random refill "to improve fairness and
//! to alleviate any bias" — bit-for-bit.
//!
//! [`Machine`] itself is a thin driver: it owns the core, the thread pool
//! and the metrics (switches, migrations, idle-context cycles), builds
//! [`SchedView`] snapshots for the policy, and mechanically applies the
//! returned decisions. It always backfills every free context while the
//! pool is non-empty, so no policy can starve the core.
//!
//! One loop drives every run mode. Each step runs the core to the next
//! OS event (a timeslice expiry or an arrival) or the caller's bound,
//! then reacts:
//! * a *closed* batch has every thread in the pool from cycle 0 and stops
//!   when the first thread retires its budget;
//! * an *open* machine stages its threads on arrival cycles, and a fleet
//!   *lane* (see [`crate::fleet`]) receives threads the fleet driver
//!   injects. Both retire each job at its own budget and admit the next
//!   ones through a bounded queue.
//!
//! When no budget was reached, the step handles every due expiry and
//! arrival and admits waiting jobs.
//! [`Machine::run_traced`] repeats the step until the run is over; the
//! fleet driver repeats it through [`Machine::lane_advance`] and
//! [`Machine::lane_run_to_completion`].

use crate::config::SimConfig;
use crate::core::Core;
use crate::error::SimError;
use crate::events::EventQueue;
use crate::sched::{affinity_groups, SchedView, Scheduler, ThreadView};
use crate::stats::{RunStats, ThreadStats};
use crate::thread::SoftThread;
use std::collections::VecDeque;
use std::sync::Arc;
use vliw_trace::{NullSink, StallBreakdown, StallKind, TraceEvent, TraceSink};
use vliw_traffic::{AdmissionQueue, ArrivalProcess, LatencySummary, Lifecycle, TrafficStats};

/// An OS-level wakeup in the machine's event queue: timeslice expiries in
/// every mode, plus one arrival per staged thread on an open machine. The
/// queue's `(cycle, seq)` ordering keeps the two sources deterministic
/// relative to each other — arrivals are scheduled first, so at a tied
/// cycle the arriving thread joins the queue before the expiry's refill
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OsEvent {
    /// The running quantum ends: flush/refill per the scheduler policy.
    TimesliceExpiry,
    /// The next staged software thread arrives at the machine (staged
    /// threads arrive in event order).
    Arrival,
}

/// Multiprogramming limit per hardware context: at most this many jobs
/// are in flight (installed or in the scheduler pool) per context; the
/// rest wait in the admission queue.
const MPL_PER_CONTEXT: usize = 2;

/// Admission-queue bound per hardware context; offers beyond it are shed.
const QUEUE_CAP_PER_CONTEXT: usize = 4;

/// The simulated machine: a core plus the OS scheduling layer.
pub struct Machine {
    core: Core,
    /// Swapped-out threads (see [`SchedView::pool`] for the ordering
    /// contract).
    pool: Vec<SoftThread>,
    scheduler: Box<dyn Scheduler>,
    sched_name: Arc<str>,
    /// Context → merge-subtree affinity group (policy-visible).
    groups: Vec<u8>,
    timeslice: u64,
    max_cycles: u64,
    context_switches: u64,
    migrations: u64,
    idle_context_cycles: u64,
    issue_width: u32,
    instr_budget: u64,
    /// A closed batch, whose run ends at the first retired budget, rather
    /// than an open machine or lane, whose jobs each retire their own.
    closed: bool,
    /// OS wakeups, kept across steps so expiries keep their phase between
    /// a lane's external stepping bounds. One expiry is always scheduled.
    events: EventQueue<OsEvent>,
    /// Open machine: threads that have not arrived yet, in arrival order.
    staged: VecDeque<SoftThread>,
    /// Arrived-but-unadmitted threads (open machine or lane).
    queue: AdmissionQueue<SoftThread>,
    /// Per-thread lifecycle timestamps, indexed by tid. `None` for threads
    /// that have not arrived (or were shed). Empty in closed mode.
    lifecycles: Vec<Option<Lifecycle>>,
    /// Threads that retired their full budget (open machine or lane).
    completed: Vec<SoftThread>,
}

/// What one fleet lane hands back at collection time: its run statistics
/// plus the raw latency multisets, so the fleet driver can merge exact
/// fleet-wide quantiles instead of averaging per-machine quantiles.
#[derive(Debug)]
pub struct LaneOutcome {
    /// The lane's own statistics (traffic block included, `fleet: None`).
    pub stats: RunStats,
    /// Sojourn samples (arrival → completion) of the lane's completed jobs.
    pub sojourns: LatencySummary,
    /// Wait samples (arrival → first installation) of the lane's jobs.
    pub waits: LatencySummary,
}

impl Machine {
    /// Build a machine and admit `threads` as the workload, scheduled by
    /// the policy named in [`SimConfig::scheduler`] (seeded from
    /// [`SimConfig::seed`]).
    ///
    /// Returns [`SimError::EmptyWorkload`] when `threads` is empty — the
    /// OS needs at least one thread to drive the run to its budget.
    pub fn new(cfg: &SimConfig, threads: Vec<SoftThread>) -> Result<Machine, SimError> {
        Self::with_scheduler(cfg, threads, cfg.scheduler.build(cfg.seed))
    }

    /// Build a machine around an explicit (possibly custom) scheduling
    /// policy instance, ignoring [`SimConfig::scheduler`]. Same admission
    /// semantics and errors as [`Machine::new`].
    pub fn with_scheduler(
        cfg: &SimConfig,
        threads: Vec<SoftThread>,
        scheduler: Box<dyn Scheduler>,
    ) -> Result<Machine, SimError> {
        if threads.is_empty() {
            return Err(SimError::EmptyWorkload);
        }
        // Closed mode: everything goes straight into the scheduler pool.
        // Open mode: threads are staged on deterministic arrival cycles
        // (a pure function of the traffic spec and the run seed) and
        // reach the pool only through the admission queue.
        Ok(if cfg.traffic.is_closed() {
            Machine::build(cfg, scheduler, true, threads, Vec::new())
        } else {
            let arrivals = ArrivalProcess::take_cycles(cfg.traffic, cfg.seed, threads.len());
            let staged = arrivals.into_iter().zip(threads).collect();
            Machine::build(cfg, scheduler, false, Vec::new(), staged)
        })
    }

    /// The one constructor: `pool` holds a closed batch, `staged` an open
    /// machine's threads with their arrival cycles (nondecreasing).
    /// Admission (the policy's initial pool order + the first context
    /// fill) happens at the start of `run_traced`, not here, so a trace
    /// sink observes the admission events and the cold install fetches.
    fn build(
        cfg: &SimConfig,
        scheduler: Box<dyn Scheduler>,
        closed: bool,
        pool: Vec<SoftThread>,
        staged: Vec<(u64, SoftThread)>,
    ) -> Machine {
        let mut events = EventQueue::new();
        // Arrivals are scheduled before the first expiry, so at a tied
        // cycle the (cycle, seq) order lets the arrival enqueue first.
        let staged = staged
            .into_iter()
            .map(|(cycle, t)| {
                events.schedule(cycle, OsEvent::Arrival);
                t
            })
            .collect();
        let timeslice = cfg.timeslice.max(1);
        events.schedule(timeslice, OsEvent::TimesliceExpiry);
        Machine {
            core: Core::new(cfg),
            pool,
            sched_name: scheduler.name().into(),
            scheduler,
            groups: affinity_groups(&cfg.scheme),
            timeslice,
            max_cycles: cfg.max_cycles,
            context_switches: 0,
            migrations: 0,
            idle_context_cycles: 0,
            issue_width: cfg.machine.total_issue() as u32,
            instr_budget: cfg.instr_budget,
            closed,
            events,
            staged,
            queue: AdmissionQueue::bounded(QUEUE_CAP_PER_CONTEXT * cfg.n_contexts()),
            lifecycles: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// Snapshot the machine state into policy-visible views.
    fn view_parts(&self) -> (Vec<Option<ThreadView>>, Vec<ThreadView>) {
        let snap = |t: &SoftThread| ThreadView {
            tid: t.tid,
            instrs: t.instrs,
            ops: t.ops,
            dstall_cycles: t.dstall_cycles,
            istall_cycles: t.istall_cycles,
            branch_stall_cycles: t.branch_stall_cycles,
            last_ctx: t.last_ctx,
        };
        let contexts = self
            .core
            .contexts
            .iter()
            .map(|c| c.as_ref().map(snap))
            .collect();
        let pool = self.pool.iter().map(snap).collect();
        (contexts, pool)
    }

    /// Ask the policy for a pool order (`admit` or `refill`) and apply it.
    fn reorder_pool(&mut self, admit: bool) {
        let (contexts, pool) = self.view_parts();
        let view = SchedView {
            cycle: self.core.cycle(),
            contexts: &contexts,
            pool: &pool,
            groups: &self.groups,
        };
        let order = if admit {
            self.scheduler.admit(&view)
        } else {
            self.scheduler.refill(&view)
        };
        assert_eq!(
            order.len(),
            self.pool.len(),
            "scheduler {} returned an order of the wrong length",
            self.sched_name
        );
        let mut slots: Vec<Option<SoftThread>> = std::mem::take(&mut self.pool)
            .into_iter()
            .map(Some)
            .collect();
        self.pool = order
            .iter()
            .map(|&i| {
                slots.get_mut(i).and_then(Option::take).unwrap_or_else(|| {
                    panic!(
                        "scheduler {} returned an invalid pool permutation \
                             (index {i} out of range or repeated)",
                        self.sched_name
                    )
                })
            })
            .collect();
    }

    /// Install threads popped from the back of the pool onto the free
    /// contexts in ascending order, tracking cross-context migrations.
    ///
    /// Tracing distinguishes first installation
    /// ([`TraceEvent::ContextAdmit`]) from reinstallation
    /// ([`TraceEvent::ContextRefill`]), with a
    /// [`TraceEvent::ThreadMigration`] whenever the context differs from
    /// the thread's previous one.
    fn fill_contexts<S: TraceSink>(&mut self, sink: &mut S) {
        for ctx in 0..self.core.contexts.len() {
            if self.core.contexts[ctx].is_none() {
                if let Some(mut t) = self.pool.pop() {
                    if S::ENABLED {
                        let cycle = self.core.cycle();
                        match t.last_ctx {
                            None => sink.record(TraceEvent::ContextAdmit {
                                cycle,
                                ctx: ctx as u8,
                                tid: t.tid,
                            }),
                            Some(prev) => {
                                sink.record(TraceEvent::ContextRefill {
                                    cycle,
                                    ctx: ctx as u8,
                                    tid: t.tid,
                                });
                                if prev as usize != ctx {
                                    sink.record(TraceEvent::ThreadMigration {
                                        cycle,
                                        tid: t.tid,
                                        from_ctx: prev,
                                        to_ctx: ctx as u8,
                                    });
                                }
                            }
                        }
                    }
                    if t.last_ctx.is_some_and(|prev| prev as usize != ctx) {
                        self.migrations += 1;
                    }
                    // Open-system mode: the first installation ends the
                    // job's queueing delay (no-op in closed mode, whose
                    // lifecycle table is empty).
                    if let Some(Some(lc)) = self.lifecycles.get_mut(t.tid as usize) {
                        if lc.first_admit.is_none() {
                            lc.first_admit = Some(self.core.cycle());
                        }
                    }
                    t.last_ctx = Some(ctx as u8);
                    self.core.install_traced(ctx, t, sink);
                } else {
                    break;
                }
            }
        }
    }

    /// Handle one quantum expiry: policy-selected evictions, then refill.
    fn quantum_expired<S: TraceSink>(&mut self, sink: &mut S) {
        let (contexts, pool) = self.view_parts();
        let view = SchedView {
            cycle: self.core.cycle(),
            contexts: &contexts,
            pool: &pool,
            groups: &self.groups,
        };
        let mask = self.scheduler.evict(&view);
        for ctx in 0..self.core.contexts.len() {
            if mask & (1 << ctx) != 0 {
                if let Some(t) = self.core.evict(ctx) {
                    if S::ENABLED {
                        sink.record(TraceEvent::ContextEvict {
                            cycle: self.core.cycle(),
                            ctx: ctx as u8,
                            tid: t.tid,
                        });
                    }
                    self.pool.push(t);
                }
            }
        }
        self.reorder_pool(false);
        self.fill_contexts(sink);
        self.context_switches += 1;
    }

    /// Run to completion (budget reached or `max_cycles`), returning the
    /// collected statistics.
    ///
    /// This is the untraced fast path: it monomorphizes
    /// [`Machine::run_traced`] with [`NullSink`], which compiles to the
    /// pre-tracing code.
    pub fn run(self) -> RunStats {
        self.run_traced(&mut NullSink)
    }

    /// Run to completion, emitting cycle-level [`TraceEvent`]s into `sink`
    /// (admissions, evictions, refills, migrations, and everything the
    /// core and memory system emit). Statistics are identical to
    /// [`Machine::run`] — tracing observes, never perturbs.
    ///
    /// A closed batch ends when the *first* thread retires the budget; an
    /// open machine ends when it drains, each job having retired its own
    /// full budget. Either ends at `max_cycles`.
    pub fn run_traced<S: TraceSink>(mut self, sink: &mut S) -> RunStats {
        // Admission: a closed batch's initial pool order and first fill
        // (an open machine's pool is still empty).
        self.admit_waiting(sink);
        while self.core.cycle() < self.max_cycles && !self.finished() {
            self.advance_to_event(self.max_cycles, sink);
        }
        self.collect().stats
    }

    /// The one OS loop body: run the core to the next OS event or `to`,
    /// whichever comes first, charging every idle context for the span.
    /// Then a closed batch that reached its budget stops; an open machine
    /// or lane retires its finished jobs and admits (a completion, not the
    /// end of the run); otherwise every due expiry and arrival is handled
    /// and waiting jobs are admitted.
    fn advance_to_event<S: TraceSink>(&mut self, to: u64, sink: &mut S) {
        let limit = self.events.peek_cycle().map_or(to, |next| next.min(to));
        let idle = self.core.idle_contexts() as u64;
        let before = self.core.cycle();
        self.core.run_traced(limit, sink);
        self.idle_context_cycles += idle * (self.core.cycle() - before);
        if self.core.budget_reached {
            if !self.closed {
                self.retire_completed(sink);
                self.admit_waiting(sink);
            }
            return;
        }
        // Drain every event due at the reached cycle (an arrival and an
        // expiry can coincide).
        while self
            .events
            .peek_cycle()
            .is_some_and(|c| c <= self.core.cycle())
        {
            let (at, event) = self.events.pop().expect("peeked event still queued");
            match event {
                OsEvent::TimesliceExpiry => {
                    self.quantum_expired(sink);
                    self.events
                        .schedule(at + self.timeslice, OsEvent::TimesliceExpiry);
                }
                OsEvent::Arrival => {
                    if let Some(t) = self.staged.pop_front() {
                        self.offer(at, t, sink);
                    }
                }
            }
        }
        self.admit_waiting(sink);
    }

    /// Whether the run is over: a closed batch reached its budget (only a
    /// closed batch leaves the core's budget latch set), or the machine
    /// holds no work.
    fn finished(&self) -> bool {
        self.core.budget_reached || self.lane_is_drained()
    }

    /// Offer an arriving thread to the bounded admission queue at the
    /// current cycle (or shed it, and drop it, if the queue is full);
    /// returns whether it was shed.
    fn offer<S: TraceSink>(&mut self, at: u64, t: SoftThread, sink: &mut S) -> bool {
        let tid = t.tid;
        if self.lifecycles.len() <= tid as usize {
            self.lifecycles.resize(tid as usize + 1, None);
        }
        // Queue bookkeeping is stamped with machine-observed time (the
        // queue requires nondecreasing stamps); the lifecycle and trace
        // keep the true arrival cycle, which is the same value whenever
        // the event is processed on time.
        let shed = self.queue.offer(self.core.cycle(), t).is_err();
        if !shed {
            self.lifecycles[tid as usize] = Some(Lifecycle::arrived(at));
        }
        if S::ENABLED {
            sink.record(TraceEvent::ThreadArrival {
                cycle: at,
                tid,
                shed,
            });
            if !shed {
                sink.record(TraceEvent::QueueDepth {
                    cycle: at,
                    depth: self.queue.len() as u32,
                });
            }
        }
        shed
    }

    /// Drain the admission queue into the scheduler pool while the
    /// in-flight job count (installed + pooled) is below the
    /// multiprogramming limit, then let the policy order the pool and
    /// backfill any free contexts.
    fn admit_waiting<S: TraceSink>(&mut self, sink: &mut S) {
        let now = self.core.cycle();
        let mpl = MPL_PER_CONTEXT * self.core.contexts.len();
        let installed = self.core.contexts.iter().filter(|c| c.is_some()).count();
        let mut in_flight = installed + self.pool.len();
        let mut drained = false;
        while in_flight < mpl {
            match self.queue.pop(now) {
                Some(t) => {
                    self.pool.push(t);
                    in_flight += 1;
                    drained = true;
                }
                None => break,
            }
        }
        if S::ENABLED && drained {
            sink.record(TraceEvent::QueueDepth {
                cycle: now,
                depth: self.queue.len() as u32,
            });
        }
        if !self.pool.is_empty() && self.core.contexts.iter().any(Option::is_none) {
            self.reorder_pool(true);
            self.fill_contexts(sink);
        }
    }

    /// Evict every installed thread that has retired its full budget,
    /// recording completions, and clear the core's budget latch so the
    /// run continues with the remaining jobs.
    fn retire_completed<S: TraceSink>(&mut self, sink: &mut S) {
        let now = self.core.cycle();
        for ctx in 0..self.core.contexts.len() {
            let done = self.core.contexts[ctx]
                .as_ref()
                .is_some_and(|t| t.instrs >= self.instr_budget);
            if !done {
                continue;
            }
            let t = self.core.evict(ctx).expect("completed context occupied");
            if S::ENABLED {
                sink.record(TraceEvent::ContextEvict {
                    cycle: now,
                    ctx: ctx as u8,
                    tid: t.tid,
                });
            }
            if let Some(Some(lc)) = self.lifecycles.get_mut(t.tid as usize) {
                lc.completion = Some(now);
            }
            self.completed.push(t);
        }
        self.core.budget_reached = false;
    }

    // ------------------------------------------------------------------
    // Fleet-lane API: external stepping for the fleet driver.
    //
    // A *lane* is one machine of a fleet. Unlike a self-driving machine, a
    // lane starts empty (arrivals come from the fleet's shared arrival
    // process, routed by a dispatcher) and is advanced in bounded steps by
    // `vliw_sim::fleet::run_fleet`, which interleaves `lane_advance`
    // (parallel across machines) with `lane_inject` (sequential routing
    // decisions). Every lane method is deterministic, so the driver's
    // output is byte-identical regardless of how many workers advance the
    // lanes.
    // ------------------------------------------------------------------

    /// Build an *empty* open-mode machine to be driven as a fleet lane:
    /// no staged arrivals (threads enter only through [`Machine::lane_inject`])
    /// and a bounded admission queue.
    ///
    /// The configured [`SimConfig::traffic`] is ignored — the fleet owns
    /// the arrival process; each lane behaves open-system (every admitted
    /// job retires its own budget and completes individually).
    pub fn open_lane(cfg: &SimConfig) -> Machine {
        let scheduler = cfg.scheduler.build(cfg.seed);
        Machine::build(cfg, scheduler, false, Vec::new(), Vec::new())
    }

    /// Advance the lane to (at most) cycle `to`: run the core, retire
    /// completed jobs, handle due timeslice expiries, and admit queued
    /// jobs. A fully idle lane still advances its clock, so independent
    /// lanes stay in lockstep between arrivals.
    pub fn lane_advance(&mut self, to: u64) {
        let to = to.min(self.max_cycles);
        while self.core.cycle() < to && !self.core.budget_reached {
            self.advance_to_event(to, &mut NullSink);
        }
    }

    /// Inject an arriving thread (routed here by the fleet dispatcher) at
    /// the lane's *current* cycle: offer it to the bounded admission queue
    /// (or shed it), then admit and install as the multiprogramming limit
    /// allows. Returns whether the thread was shed at the queue's door.
    pub fn lane_inject(&mut self, t: SoftThread) -> bool {
        let shed = self.offer(self.core.cycle(), t, &mut NullSink);
        self.admit_waiting(&mut NullSink);
        shed
    }

    /// Drain the lane: advance expiry by expiry until nothing is queued,
    /// pooled, or installed (or `max_cycles` caps the run). So a drained
    /// lane still runs to its next expiry, where the open run of the same
    /// machine stops at its last completion.
    pub fn lane_run_to_completion(&mut self) {
        while self.core.cycle() < self.max_cycles && !self.finished() {
            let next = self.events.peek_cycle().unwrap_or(self.max_cycles);
            // One step even when `next` is the current cycle: a job that
            // retired exactly on an expiry leaves that expiry due here.
            self.advance_to_event(self.max_cycles, &mut NullSink);
            self.lane_advance(next);
        }
    }

    /// Whether the machine holds no work: nothing staged, queued, pooled,
    /// or installed.
    pub fn lane_is_drained(&self) -> bool {
        self.staged.is_empty()
            && self.queue.is_empty()
            && self.pool.is_empty()
            && self.core.contexts.iter().all(Option::is_none)
    }

    /// Threads waiting in the lane's admission queue (dispatcher signal).
    pub fn lane_queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Threads admitted and not yet completed: installed plus pooled
    /// (dispatcher signal).
    pub fn lane_in_flight(&self) -> usize {
        self.core.contexts.iter().filter(|c| c.is_some()).count() + self.pool.len()
    }

    /// The lane's current cycle.
    pub fn lane_cycle(&self) -> u64 {
        self.core.cycle()
    }

    /// Summarize and collect the lane: its own [`RunStats`] (traffic block
    /// filled from this lane's counters) plus the raw latency multisets
    /// for exact fleet-wide quantile merging.
    pub fn lane_collect(self) -> LaneOutcome {
        self.collect()
    }

    /// Gather statistics from the core and all threads, plus the latency
    /// samples of every arrived job. A closed batch has none, so its
    /// traffic block is all zeros.
    fn collect(mut self) -> LaneOutcome {
        // Summarize the traffic before draining the queue's leftovers.
        let end = self.core.cycle();
        let mut sojourns = LatencySummary::new();
        let mut waits = LatencySummary::new();
        for lc in self.lifecycles.iter().flatten() {
            if let Some(s) = lc.sojourn() {
                sojourns.record(s);
            }
            if let Some(w) = lc.wait() {
                waits.record(w);
            }
        }
        let traffic = TrafficStats::summarize(
            self.queue.offered(),
            self.completed.len() as u64,
            self.queue.shed(),
            &sojourns,
            &waits,
            self.queue.mean_depth(end),
        );
        // Engine health: the core's idle-span structure (trailing span
        // flushed) plus the OS event queue that drove the run.
        let mut engine = self.core.take_idle_spans();
        engine.absorb_queue(self.events.stats());
        for ctx in 0..self.core.contexts.len() {
            if let Some(t) = self.core.evict(ctx) {
                self.pool.push(t);
            }
        }
        // Open-system leftovers all report their counters: completed
        // jobs, jobs still queued at a `max_cycles` abort, and staged
        // jobs that never arrived. Shed jobs were dropped at the queue's
        // door and are counted only in the traffic statistics.
        self.pool.append(&mut self.completed);
        while let Some(t) = self.queue.pop(end) {
            self.pool.push(t);
        }
        self.pool.extend(self.staged.drain(..));
        self.pool.sort_by_key(|t| t.tid);
        let mut stall_breakdown = StallBreakdown::new();
        for t in &self.pool {
            stall_breakdown.add(StallKind::ICacheMiss, t.istall_cycles);
            stall_breakdown.add(StallKind::DCacheMiss, t.dstall_cycles);
            stall_breakdown.add(StallKind::BranchBubble, t.branch_stall_cycles);
        }
        let threads = self
            .pool
            .iter()
            .map(|t| ThreadStats {
                name: t.name.clone(),
                tid: t.tid,
                instrs: t.instrs,
                ops: t.ops,
                dstall_cycles: t.dstall_cycles,
                istall_cycles: t.istall_cycles,
                branch_stall_cycles: t.branch_stall_cycles,
                taken_branches: t.taken_branches,
                rng_state: t.rng_state(),
            })
            .collect();
        let stats = RunStats {
            cycles: self.core.cycle(),
            total_ops: self.core.total_ops(),
            total_instrs: self.core.total_instrs(),
            vertical_waste_cycles: self.core.vertical_waste_cycles(),
            horizontal_waste_slots: self.core.horizontal_waste_slots(),
            issue_width: self.issue_width,
            threads,
            merge: self.core.merge_stats.clone(),
            icache: self.core.mem.icache_stats().clone(),
            dcache: self.core.mem.dcache_stats().clone(),
            context_switches: self.context_switches,
            scheduler: self.sched_name,
            migrations: self.migrations,
            idle_context_cycles: self.idle_context_cycles,
            stall_breakdown,
            traffic,
            fleet: None,
            engine,
        };
        LaneOutcome {
            stats,
            sojourns,
            waits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulerSpec;
    use crate::thread::ProgramMeta;
    use vliw_core::catalog;
    use vliw_isa::MachineConfig;
    use vliw_trace::RecordingSink;
    use vliw_workloads::build_named;

    fn threads(names: &[&str], seed: u64) -> Vec<SoftThread> {
        let m = MachineConfig::paper_baseline();
        names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let img = build_named(n, &m).unwrap();
                let meta = Arc::new(ProgramMeta::of(&img));
                SoftThread::new(&img, meta, i as u64, seed)
            })
            .collect()
    }

    #[test]
    fn four_threads_on_four_contexts_run_to_budget() {
        let cfg = SimConfig::paper(catalog::smt_cascade(4), 2000);
        let stats = Machine::new(&cfg, threads(&["mcf", "bzip2", "x264", "idct"], 1))
            .unwrap()
            .run();
        assert!(stats.threads.iter().any(|t| t.instrs >= cfg.instr_budget));
        assert!(stats.ipc() > 0.0);
        assert_eq!(stats.threads.len(), 4);
        assert_eq!(&*stats.scheduler, "paper-random");
        // All four contexts stay occupied: no idle context-cycles.
        assert_eq!(stats.idle_context_cycles, 0);
    }

    #[test]
    fn timeslicing_rotates_threads_on_narrow_machines() {
        // 4 software threads on 1 context: every thread must get cycles.
        let mut cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 2000);
        cfg.timeslice = 2_000;
        let stats = Machine::new(&cfg, threads(&["mcf", "bzip2", "blowfish", "gsmencode"], 2))
            .unwrap()
            .run();
        assert!(stats.context_switches > 0);
        for t in &stats.threads {
            assert!(t.instrs > 0, "thread {} starved", t.name);
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let cfg = SimConfig::paper(catalog::by_name("2SC3").unwrap(), 5000);
        let run = || {
            Machine::new(&cfg, threads(&["mcf", "cjpeg", "x264", "bzip2"], 3))
                .unwrap()
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.context_switches, b.context_switches);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn max_cycles_caps_runaway() {
        let mut cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 1);
        cfg.max_cycles = 10_000;
        let stats = Machine::new(&cfg, threads(&["mcf"], 4)).unwrap().run();
        assert!(stats.cycles <= 10_000);
    }

    #[test]
    fn empty_workload_is_a_typed_error() {
        let cfg = SimConfig::paper(catalog::smt_cascade(4), 2000);
        assert_eq!(
            Machine::new(&cfg, Vec::new()).err(),
            Some(SimError::EmptyWorkload)
        );
    }

    #[test]
    fn undersubscribed_machine_reports_idle_context_cycles() {
        // One thread on a 4-context scheme: three contexts idle throughout.
        let cfg = SimConfig::paper(catalog::smt_cascade(4), 20_000);
        let stats = Machine::new(&cfg, threads(&["idct"], 5)).unwrap().run();
        assert_eq!(stats.idle_context_cycles, 3 * stats.cycles);
    }

    #[test]
    fn every_builtin_scheduler_drives_the_run_to_budget() {
        // 4 threads on 2 contexts (the 1S scheme): real multiprogramming.
        for spec in SchedulerSpec::all() {
            let mut cfg = SimConfig::paper(catalog::by_name("1S").unwrap(), 50_000);
            cfg.scheduler = spec;
            cfg.timeslice = 2_000;
            let stats = Machine::new(&cfg, threads(&["mcf", "bzip2", "x264", "idct"], 9))
                .unwrap()
                .run();
            assert_eq!(&*stats.scheduler, spec.name());
            assert!(
                stats.threads.iter().any(|t| t.instrs >= cfg.instr_budget),
                "{spec}: budget not retired"
            );
            assert_eq!(stats.threads.len(), 4, "{spec}: thread lost or duplicated");
        }
    }

    #[test]
    fn cluster_affinity_never_migrates_when_threads_fit() {
        // 4 threads on 4 contexts with full flushes: every thread returns
        // to its previous context, so zero migrations.
        let mut cfg = SimConfig::paper(catalog::smt_cascade(4), 5_000);
        cfg.scheduler = SchedulerSpec::ClusterAffinity;
        cfg.timeslice = 2_000;
        let stats = Machine::new(&cfg, threads(&["mcf", "bzip2", "x264", "idct"], 3))
            .unwrap()
            .run();
        assert!(stats.context_switches > 0);
        assert_eq!(stats.migrations, 0);
    }

    #[test]
    fn tracing_never_perturbs_the_run() {
        // The traced run must be cycle-for-cycle identical to the untraced
        // one: tracing observes, never schedules.
        let cfg = SimConfig::paper(catalog::by_name("2SC3").unwrap(), 5000);
        let mk = || Machine::new(&cfg, threads(&["mcf", "cjpeg", "x264", "bzip2"], 3)).unwrap();
        let plain = mk().run();
        let mut sink = RecordingSink::new();
        let traced = mk().run_traced(&mut sink);
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.total_ops, traced.total_ops);
        assert_eq!(plain.context_switches, traced.context_switches);
        assert_eq!(plain.migrations, traced.migrations);
        assert_eq!(plain.stall_breakdown, traced.stall_breakdown);
        assert!(!sink.is_empty());
    }

    #[test]
    fn full_trace_conserves_the_aggregate_counters() {
        let cfg = SimConfig::paper(catalog::by_name("1S").unwrap(), 20_000);
        let mut sink = RecordingSink::new();
        let stats = Machine::new(&cfg, threads(&["mcf", "bzip2", "x264", "idct"], 7))
            .unwrap()
            .run_traced(&mut sink);
        let events = sink.events();
        // Stall events reproduce the per-kind counters exactly.
        assert_eq!(StallBreakdown::from_events(events), stats.stall_breakdown);
        // Bundle-issue events reproduce instruction and operation totals.
        let (instrs, ops) = events.iter().fold((0u64, 0u64), |(i, o), e| match e {
            TraceEvent::BundleIssue { ops, .. } => (i + 1, o + u64::from(*ops)),
            _ => (i, o),
        });
        assert_eq!(instrs, stats.total_instrs);
        assert_eq!(ops, stats.total_ops);
        // Cache-miss events reproduce the cache counters.
        let (imiss, dmiss) = events.iter().fold((0u64, 0u64), |(im, dm), e| match e {
            TraceEvent::CacheMiss { cache, .. } => match cache {
                vliw_trace::CacheKind::Instruction => (im + 1, dm),
                vliw_trace::CacheKind::Data => (im, dm + 1),
            },
            _ => (im, dm),
        });
        assert_eq!(imiss, stats.icache.total_misses());
        assert_eq!(dmiss, stats.dcache.total_misses());
        // Every thread was admitted exactly once; migrations match.
        let admits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ContextAdmit { .. }))
            .count();
        assert_eq!(admits, 4);
        let migrations = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ThreadMigration { .. }))
            .count() as u64;
        assert_eq!(migrations, stats.migrations);
        assert!(stats.migrations > 0, "this workload migrates");
        // The stream is in emission order: near-monotone in cycles, with
        // lookahead fetch charges at most one stall-chain ahead (see
        // `Trace::events` docs). No event is labelled past the run's end
        // by more than a miss+branch chain.
        let slack = 64;
        assert!(events
            .windows(2)
            .all(|w| w[0].cycle() <= w[1].cycle() + slack));
    }

    #[test]
    fn ring_trace_bounds_memory_and_reports_drops() {
        let cfg = SimConfig::paper(catalog::by_name("1S").unwrap(), 20_000);
        let mk = || Machine::new(&cfg, threads(&["mcf", "bzip2"], 7)).unwrap();
        let mut ring = vliw_trace::RingSink::new(512);
        let stats = mk().run_traced(&mut ring);
        assert!(stats.total_instrs > 512, "run long enough to overflow");
        assert_eq!(ring.len(), 512);
        // The ring keeps the most recent window of the full stream and
        // counts everything before it as dropped.
        let mut full = RecordingSink::new();
        mk().run_traced(&mut full);
        let (window, dropped) = ring.into_parts();
        assert_eq!(dropped, (full.len() - 512) as u64);
        assert_eq!(window, full.events()[full.len() - 512..]);
    }

    #[test]
    fn stall_breakdown_sums_to_thread_stalls() {
        let cfg = SimConfig::paper(catalog::smt_cascade(4), 5000);
        let stats = Machine::new(&cfg, threads(&["mcf", "bzip2", "x264", "idct"], 1))
            .unwrap()
            .run();
        let per_thread: u64 = stats
            .threads
            .iter()
            .map(|t| t.dstall_cycles + t.istall_cycles + t.branch_stall_cycles)
            .sum();
        assert!(per_thread > 0);
        assert_eq!(stats.stall_breakdown.total(), per_thread);
        assert_eq!(
            stats.stall_breakdown.dcache,
            stats.threads.iter().map(|t| t.dstall_cycles).sum::<u64>()
        );
    }

    #[test]
    fn closed_runs_report_zero_traffic() {
        let cfg = SimConfig::paper(catalog::smt_cascade(4), 5000);
        let stats = Machine::new(&cfg, threads(&["mcf", "bzip2", "x264", "idct"], 1))
            .unwrap()
            .run();
        assert_eq!(stats.traffic, TrafficStats::default());
    }

    #[test]
    fn open_system_completes_every_admitted_job() {
        let cfg = SimConfig::paper(catalog::smt_cascade(4), 20_000)
            .with_traffic("poisson:0.002".parse().unwrap());
        let names = ["mcf", "bzip2", "x264", "idct", "cjpeg", "blowfish"];
        let stats = Machine::new(&cfg, threads(&names, 11)).unwrap().run();
        let t = &stats.traffic;
        assert_eq!(t.offered, names.len() as u64);
        assert_eq!(t.completed + t.shed, t.offered, "no job may vanish");
        assert!(t.completed > 0);
        // Every non-shed job retired its own full budget (closed runs
        // stop at the *first* budget-reaching thread; open runs must not).
        let finished = stats
            .threads
            .iter()
            .filter(|th| th.instrs >= cfg.instr_budget)
            .count() as u64;
        assert_eq!(finished, t.completed);
        // Quantiles are monotone and sojourn dominates wait.
        assert!(t.p50_sojourn <= t.p95_sojourn && t.p95_sojourn <= t.p99_sojourn);
        assert!(t.mean_sojourn >= t.mean_wait);
        assert!(t.mean_queue_depth >= 0.0);
    }

    #[test]
    fn open_runs_are_deterministic() {
        let cfg = SimConfig::paper(catalog::by_name("2SC3").unwrap(), 20_000)
            .with_traffic("bursty:0.001:4:4".parse().unwrap());
        let run = || {
            Machine::new(&cfg, threads(&["mcf", "cjpeg", "x264", "bzip2", "idct"], 3))
                .unwrap()
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(format!("{:?}", a.traffic), format!("{:?}", b.traffic));
        assert_eq!(format!("{:?}", a.threads), format!("{:?}", b.threads));
    }

    #[test]
    fn overload_sheds_at_the_admission_queue() {
        // 12 near-simultaneous arrivals on a single context: MPL holds 2
        // in flight, the queue holds 4, the rest are shed.
        let cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 20_000)
            .with_traffic("poisson:1".parse().unwrap());
        let names = ["idct"; 12];
        let stats = Machine::new(&cfg, threads(&names, 5)).unwrap().run();
        let t = &stats.traffic;
        assert_eq!(t.offered, 12);
        assert!(t.shed > 0, "overload must shed");
        assert_eq!(t.completed + t.shed, 12);
        // Shed jobs are dropped: they appear in no per-thread stats.
        assert_eq!(stats.threads.len() as u64, 12 - t.shed);
        assert!(t.mean_queue_depth > 0.0);
    }

    #[test]
    fn open_tracing_never_perturbs_and_emits_arrivals() {
        let cfg = SimConfig::paper(catalog::smt_cascade(4), 20_000)
            .with_traffic("poisson:0.005".parse().unwrap());
        let mk = || {
            Machine::new(
                &cfg,
                threads(&["mcf", "bzip2", "x264", "idct", "cjpeg", "blowfish"], 7),
            )
            .unwrap()
        };
        let plain = mk().run();
        let mut sink = RecordingSink::new();
        let traced = mk().run_traced(&mut sink);
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(
            format!("{:?}", plain.traffic),
            format!("{:?}", traced.traffic)
        );
        let arrivals = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ThreadArrival { .. }))
            .count() as u64;
        assert_eq!(arrivals, traced.traffic.offered);
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::QueueDepth { .. })));
    }

    #[test]
    fn aborted_open_run_reports_zero_quantiles_cleanly() {
        // Regression (quantile edge case): a run cut off before any job
        // completes has an empty sojourn multiset; the summary must be
        // all-zero quantiles, not nearest-rank over an empty set. The
        // conservation law is intentionally NOT asserted here — it holds
        // only at full drain, and this run aborts at `max_cycles`.
        let mut cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 20_000)
            .with_traffic("poisson:0.01".parse().unwrap());
        cfg.max_cycles = 500;
        let stats = Machine::new(&cfg, threads(&["mcf", "bzip2", "x264"], 5))
            .unwrap()
            .run();
        let t = &stats.traffic;
        assert_eq!(t.completed, 0, "500 cycles must not complete a budget");
        assert_eq!((t.p50_sojourn, t.p95_sojourn, t.p99_sojourn), (0, 0, 0));
        assert_eq!(t.mean_sojourn, 0.0);
    }

    #[test]
    fn lane_stepping_conserves_and_completes() {
        // Drive one machine through the fleet-lane API by hand: inject
        // arrivals at fixed cycles, drain, and check the open-system
        // accounting (conservation, per-job budgets) still holds.
        let cfg = SimConfig::paper(catalog::smt_cascade(4), 20_000);
        let mut lane = Machine::open_lane(&cfg);
        assert!(lane.lane_is_drained());
        let ts = threads(&["mcf", "bzip2", "x264", "idct"], 11);
        let mut shed = 0u64;
        for (i, t) in ts.into_iter().enumerate() {
            lane.lane_advance(i as u64 * 1000);
            shed += u64::from(lane.lane_inject(t));
        }
        assert!(lane.lane_in_flight() > 0);
        lane.lane_run_to_completion();
        assert!(lane.lane_is_drained());
        let out = lane.lane_collect();
        let t = &out.stats.traffic;
        assert_eq!(t.offered, 4);
        assert_eq!(t.shed, shed);
        assert_eq!(t.completed + t.shed, t.offered, "no job may vanish");
        assert_eq!(out.sojourns.len() as u64, t.completed);
        // Every admitted job retired its own full budget.
        let finished = out
            .stats
            .threads
            .iter()
            .filter(|th| th.instrs >= cfg.instr_budget)
            .count() as u64;
        assert_eq!(finished, t.completed);
    }

    #[test]
    fn lane_stepping_is_deterministic_and_step_size_independent() {
        // The same arrivals injected at the same cycles must produce
        // identical stats no matter how the advances in between are
        // chopped up (the driver's parallel phases rely on this).
        let cfg = SimConfig::paper(catalog::by_name("2SC3").unwrap(), 10_000);
        let run = |chunks: u64| {
            let mut lane = Machine::open_lane(&cfg);
            let ts = threads(&["mcf", "cjpeg", "x264"], 3);
            for (i, t) in ts.into_iter().enumerate() {
                let target = (i as u64 + 1) * 2_500;
                // Advance in `chunks` equal steps instead of one jump.
                for step in 1..=chunks {
                    lane.lane_advance(lane.lane_cycle().max(target * step / chunks));
                }
                lane.lane_advance(target);
                lane.lane_inject(t);
            }
            lane.lane_run_to_completion();
            lane.lane_collect()
        };
        let (a, b) = (run(1), run(7));
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.total_ops, b.stats.total_ops);
        assert_eq!(
            format!("{:?}", a.stats.traffic),
            format!("{:?}", b.stats.traffic)
        );
        assert_eq!(
            format!("{:?}", a.stats.threads),
            format!("{:?}", b.stats.threads)
        );
    }

    #[test]
    fn lane_drains_when_a_job_retires_on_an_expiry() {
        // A job that retires on the very cycle of an expiry leaves that
        // expiry due when the step ends. Find the first completion cycle
        // with no expiry in the way, then make it the first expiry.
        let lane = |timeslice: u64| {
            let mut cfg = SimConfig::paper(catalog::smt_cascade(4), 20_000);
            cfg.timeslice = timeslice;
            let mut lane = Machine::open_lane(&cfg);
            for t in threads(&["idct", "mcf"], 5) {
                lane.lane_inject(t);
            }
            lane
        };
        let mut free = lane(1 << 40);
        free.lane_run_to_completion();
        let mut done: Vec<u64> = free
            .lifecycles
            .iter()
            .flatten()
            .filter_map(|lc| lc.completion)
            .collect();
        done.sort_unstable();
        assert!(done.len() == 2 && done[0] < done[1], "completions {done:?}");
        let mut tied = lane(done[0]);
        // A lane that never drains would hang the test, so it drains on a
        // thread of its own and the timeout turns a hang into a failure
        // (the spinning thread is then left detached).
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tied.lane_run_to_completion();
            tx.send(tied.lane_collect()).ok();
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the lane drains");
        assert_eq!(out.stats.traffic.completed, 2);
        assert!(out.stats.context_switches > 0);
    }

    #[test]
    fn lane_stepping_a_self_driving_machine_never_panics() {
        // Every machine has the one event queue, so the lane API drives a
        // closed batch to its first budget and an open machine through
        // its staged arrivals.
        let cfg = SimConfig::paper(catalog::smt_cascade(4), 20_000);
        let mut closed = Machine::new(&cfg, threads(&["mcf", "idct"], 3)).unwrap();
        closed.lane_advance(u64::MAX);
        closed.lane_run_to_completion();
        assert!(closed
            .lane_collect()
            .stats
            .threads
            .iter()
            .any(|t| t.instrs >= cfg.instr_budget));
        let open_cfg = cfg.clone().with_traffic("poisson:0.001".parse().unwrap());
        let mut open = Machine::new(&open_cfg, threads(&["mcf", "idct"], 3)).unwrap();
        open.lane_run_to_completion();
        assert!(open.lane_is_drained());
        assert_eq!(open.lane_collect().stats.traffic.completed, 2);
    }

    #[test]
    fn icount_balances_retirement_on_narrow_machines() {
        let mut cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 50_000);
        cfg.scheduler = SchedulerSpec::Icount;
        cfg.timeslice = 1_000;
        let stats = Machine::new(&cfg, threads(&["mcf", "bzip2", "blowfish", "gsmencode"], 2))
            .unwrap()
            .run();
        // icount always runs the laggard, and a thread retires at most one
        // instruction per cycle, so the spread never exceeds one quantum's
        // worth of instructions (inductively: running the minimum can lift
        // it by at most `timeslice` above the rest).
        let min = stats.threads.iter().map(|t| t.instrs).min().unwrap();
        let max = stats.threads.iter().map(|t| t.instrs).max().unwrap();
        assert!(min > 0, "icount must not starve anyone");
        assert!(
            max - min <= cfg.timeslice,
            "icount spread {min}..{max} exceeds one quantum"
        );
        assert!(stats.fairness() > 0.9, "fairness {}", stats.fairness());
    }
}
