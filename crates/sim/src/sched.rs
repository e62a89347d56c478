//! Pluggable OS scheduling policies (the paper's §5.1 model, opened up).
//!
//! The paper hardwires one context-management policy into its OS layer:
//! at every 1M-cycle quantum expiry, evict *every* running thread and
//! refill the hardware contexts from a randomly shuffled pool. That policy
//! is now one implementation ([`PaperRandom`], still the default) of the
//! [`Scheduler`] trait, and [`crate::os::Machine`] is a thin driver over
//! it: the machine owns the thread pool and the hardware contexts, the
//! policy decides *order* and *eviction*.
//!
//! ## The contract
//!
//! A policy sees the world through a [`SchedView`]: per-context and
//! per-pooled-thread [`ThreadView`] snapshots (retired instructions, stall
//! breakdown, last hardware context = affinity), plus the machine's
//! context→merge-subtree affinity groups. It answers three questions:
//!
//! * [`Scheduler::admit`] — initial pool order at machine construction;
//! * [`Scheduler::evict`] — at quantum expiry, *which* occupied contexts
//!   to flush (a bitmask; the default is the paper's evict-everything);
//! * [`Scheduler::refill`] — after eviction, the new pool order.
//!
//! Ordering uses one primitive: the policy returns a permutation of the
//! pool (indices into `view.pool`), and the machine installs threads
//! popped **from the back** of the permuted pool onto the free contexts in
//! **ascending context order**. [`order_from_picks`] builds such a
//! permutation from an explicit thread→context assignment. The machine
//! always backfills every free context while the pool is non-empty —
//! policies control order and eviction, never admission count, so no
//! policy can starve the core.
//!
//! Policies are instantiated from a serializable [`SchedulerSpec`], parsed
//! by name exactly like merge schemes (`"icount"`,
//! `"cluster-affinity"`, ...): [`crate::SimConfig`] carries a spec, and
//! [`crate::plan::Plan::schedulers`] sweeps them as a grid axis.

use crate::error::SimError;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use vliw_core::{MergeScheme, SchemeNode};

/// What a scheduling policy sees about one software thread.
///
/// Snapshots are cheap copies taken at each decision point; mutating them
/// has no effect on the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadView {
    /// Software thread id (stable across the whole run).
    pub tid: u32,
    /// Retired VLIW instructions so far.
    pub instrs: u64,
    /// Retired operations so far.
    pub ops: u64,
    /// Stall cycles charged to data-cache misses so far.
    pub dstall_cycles: u64,
    /// Stall cycles charged to instruction-cache misses so far.
    pub istall_cycles: u64,
    /// Stall cycles charged to taken-branch bubbles so far.
    pub branch_stall_cycles: u64,
    /// The hardware context this thread last ran on (`None` if it has
    /// never been installed) — the affinity signal.
    pub last_ctx: Option<u8>,
}

/// The machine state a policy decides over.
///
/// `pool` holds the swapped-out threads in the machine's pool order:
/// survivors of the previous decision first (unchanged relative order),
/// then any threads evicted this quantum appended in ascending context
/// order. At [`Scheduler::admit`] the pool is the workload in thread-id
/// order.
#[derive(Debug, Clone, Copy)]
pub struct SchedView<'a> {
    /// Current simulation cycle.
    pub cycle: u64,
    /// Per-hardware-context running thread (`None` = idle context).
    pub contexts: &'a [Option<ThreadView>],
    /// Swapped-out threads, pool order (see the type-level docs).
    pub pool: &'a [ThreadView],
    /// Merge-affinity group of each hardware context: contexts under the
    /// same top-level subtree of the merge scheme share a group id (see
    /// [`affinity_groups`]).
    pub groups: &'a [u8],
}

impl SchedView<'_> {
    /// Number of hardware contexts.
    pub fn n_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Number of idle (unoccupied) hardware contexts.
    pub fn n_free(&self) -> usize {
        self.contexts.iter().filter(|c| c.is_none()).count()
    }

    /// Bitmask of occupied contexts (bit `i` = context `i` runs a thread).
    pub fn occupied_mask(&self) -> u8 {
        self.contexts
            .iter()
            .enumerate()
            .fold(0u8, |m, (i, c)| m | (u8::from(c.is_some()) << i))
    }
}

/// An OS scheduling policy: decides pool order and evictions, never
/// executes anything itself.
///
/// See the [module docs](self) for the full machine↔policy contract.
/// Implementations must be deterministic given their construction inputs —
/// the whole reproduction relies on bit-identical replay, so any
/// randomness must come from a seeded generator (see [`PaperRandom`]).
pub trait Scheduler: Send {
    /// Stable policy name, used in error messages and run statistics. For
    /// built-in policies this equals their [`SchedulerSpec::name`].
    fn name(&self) -> &str;

    /// Initial pool order at machine construction. Return a permutation of
    /// `0..view.pool.len()`; the machine installs from the **back** onto
    /// contexts `0, 1, …`.
    fn admit(&mut self, view: &SchedView<'_>) -> Vec<usize>;

    /// Contexts to flush at quantum expiry, as a bitmask over
    /// `view.contexts`. Bits of idle contexts are ignored. The default is
    /// the paper's full eviction of every occupied context.
    fn evict(&mut self, view: &SchedView<'_>) -> u8 {
        view.occupied_mask()
    }

    /// Pool order after this quantum's evictions (same contract as
    /// [`Scheduler::admit`]; evicted threads arrive appended to the pool
    /// in ascending context order).
    fn refill(&mut self, view: &SchedView<'_>) -> Vec<usize>;
}

/// Build a pool permutation from an explicit assignment: `picks[i]` is the
/// pool index of the thread to install on the `i`-th **free** context in
/// ascending context order. Unpicked threads keep their relative pool
/// order (at the front, i.e. lowest install priority).
///
/// Panics when a pick is out of range or repeated — a policy bug worth
/// failing loudly on.
pub fn order_from_picks(pool_len: usize, picks: &[usize]) -> Vec<usize> {
    let mut picked = vec![false; pool_len];
    for &p in picks {
        assert!(p < pool_len, "pick {p} out of range for pool of {pool_len}");
        assert!(!picked[p], "pool index {p} picked twice");
        picked[p] = true;
    }
    let mut order: Vec<usize> = (0..pool_len).filter(|&i| !picked[i]).collect();
    order.extend(picks.iter().rev().copied());
    order
}

/// Compute the context→affinity-group map of a merge scheme: the group of
/// context `i` is the index of the top-level child of the scheme's root
/// that contains port `i` (contexts merged under the same subtree share
/// the early merge-network paths, so re-placing a thread within its
/// previous subtree models warm cluster state).
///
/// A direct port child of the root forms its own singleton group — for
/// `2SC3` = `C3(S(0,1), 2, 3)` the map is `[0, 0, 1, 2]`. Single-port
/// schemes (`ST`, whose root is the port itself) map to group 0.
pub fn affinity_groups(scheme: &MergeScheme) -> Vec<u8> {
    let n = scheme.n_ports() as usize;
    let mut groups = vec![0u8; n];
    if let SchemeNode::Merge { children, .. } = scheme.root() {
        for (g, child) in children.iter().enumerate() {
            let mask = child.port_mask();
            for (p, group) in groups.iter_mut().enumerate() {
                if mask & (1 << p) != 0 {
                    *group = g as u8;
                }
            }
        }
    }
    groups
}

/// Serializable identity of a built-in scheduling policy.
///
/// Parsed by name like merge schemes — `"paper-random"`, `"round-robin"`,
/// `"icount"`, `"cluster-affinity"` (case-insensitive; `_` and `-` are
/// interchangeable) — and carried by [`crate::SimConfig`] and
/// [`crate::plan::Plan`] grids. [`SchedulerSpec::build`] instantiates the
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerSpec {
    /// The paper's §5.1 policy: full eviction every quantum, refill from a
    /// seeded random shuffle of the pool. The default; reproduces the
    /// pre-trait OS layer bit-for-bit at the same seed.
    #[default]
    PaperRandom,
    /// FIFO pool: full eviction, refill in strict arrival order, no
    /// shuffle. The classic round-robin baseline.
    RoundRobin,
    /// SMT-style icount: keep the least-retired threads on the contexts;
    /// evicts only threads that have run ahead (per-context eviction).
    Icount,
    /// Warm-cluster placement: full eviction, but each thread is re-placed
    /// on its previous context when free, else on a context inside its
    /// previous merge subtree.
    ClusterAffinity,
}

impl SchedulerSpec {
    /// Every built-in policy, in catalog order.
    pub const fn all() -> [SchedulerSpec; 4] {
        [
            SchedulerSpec::PaperRandom,
            SchedulerSpec::RoundRobin,
            SchedulerSpec::Icount,
            SchedulerSpec::ClusterAffinity,
        ]
    }

    /// Stable lowercase name (the parse spelling and the serialized
    /// exhibit label).
    pub const fn name(self) -> &'static str {
        match self {
            SchedulerSpec::PaperRandom => "paper-random",
            SchedulerSpec::RoundRobin => "round-robin",
            SchedulerSpec::Icount => "icount",
            SchedulerSpec::ClusterAffinity => "cluster-affinity",
        }
    }

    /// Instantiate the policy. `seed` feeds any policy-internal randomness
    /// ([`PaperRandom`]'s shuffle RNG); deterministic policies ignore it.
    pub fn build(self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::PaperRandom => Box::new(PaperRandom::new(seed)),
            SchedulerSpec::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerSpec::Icount => Box::new(Icount),
            SchedulerSpec::ClusterAffinity => Box::new(ClusterAffinity),
        }
    }
}

impl FromStr for SchedulerSpec {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, SimError> {
        let normalized = s.trim().to_ascii_lowercase().replace('_', "-");
        SchedulerSpec::all()
            .into_iter()
            .find(|spec| spec.name() == normalized)
            .ok_or_else(|| SimError::UnknownScheduler(s.to_string()))
    }
}

impl From<&str> for SchedulerSpec {
    /// Panicking conversion for plan building (mirrors
    /// [`crate::plan::SchemeRef`]'s name resolution: fail at build time,
    /// not mid-sweep). Use [`SchedulerSpec::from_str`] to handle unknown
    /// names gracefully.
    fn from(name: &str) -> Self {
        name.parse().unwrap_or_else(|e: SimError| panic!("{e}"))
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The paper's §5.1 policy: evict everything at quantum expiry and refill
/// from a seeded random shuffle "to improve fairness and to alleviate any
/// bias".
///
/// At the same seed this reproduces the pre-trait OS layer bit-for-bit:
/// the shuffle consumes the identical RNG draw sequence the old
/// `Machine`-internal shuffle did.
#[derive(Debug, Clone)]
pub struct PaperRandom {
    rng: SmallRng,
}

impl PaperRandom {
    /// Policy with its shuffle RNG seeded from `seed` (the simulation
    /// seed, see [`crate::SimConfig::seed`]).
    pub fn new(seed: u64) -> Self {
        PaperRandom {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn shuffled(&mut self, len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        order.shuffle(&mut self.rng);
        order
    }
}

impl Scheduler for PaperRandom {
    fn name(&self) -> &str {
        SchedulerSpec::PaperRandom.name()
    }

    fn admit(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        self.shuffled(view.pool.len())
    }

    fn refill(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        self.shuffled(view.pool.len())
    }
}

/// FIFO pool: full eviction every quantum, refill in strict queue order.
///
/// Threads are queued in thread-id order at admission and re-queued in
/// context order when evicted; the longest-waiting thread is always
/// installed first. Fully deterministic — the no-randomness baseline the
/// paper's shuffle is usually compared against.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    queue: VecDeque<u32>,
}

impl RoundRobin {
    /// An empty round-robin queue (filled at [`Scheduler::admit`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the first `min(free, pooled)` queued threads onto the free
    /// contexts in queue order, consuming them from the queue.
    fn pick(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        let n = view.n_free().min(view.pool.len());
        let picks: Vec<usize> = self
            .queue
            .iter()
            .take(n)
            .map(|tid| {
                view.pool
                    .iter()
                    .position(|t| t.tid == *tid)
                    .expect("every queued thread is in the pool")
            })
            .collect();
        self.queue.drain(..n);
        order_from_picks(view.pool.len(), &picks)
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &str {
        SchedulerSpec::RoundRobin.name()
    }

    fn admit(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        self.queue = view.pool.iter().map(|t| t.tid).collect();
        self.pick(view)
    }

    fn refill(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        // Evicted threads are the pool entries not already queued; they
        // arrive appended in context order, which is their re-queue order.
        for t in view.pool {
            if !self.queue.contains(&t.tid) {
                self.queue.push_back(t.tid);
            }
        }
        self.pick(view)
    }
}

/// SMT-style icount: the contexts always hold the globally least-retired
/// threads (ties broken by thread id).
///
/// This is the only built-in policy that uses per-context eviction: a
/// running thread is flushed only when a pooled thread has retired fewer
/// instructions, so balanced workloads that fit the contexts never switch
/// at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct Icount;

impl Icount {
    fn ranking(view: &SchedView<'_>) -> Vec<(u64, u32)> {
        let mut all: Vec<(u64, u32)> = view
            .pool
            .iter()
            .chain(view.contexts.iter().flatten())
            .map(|t| (t.instrs, t.tid))
            .collect();
        all.sort_unstable();
        all
    }
}

impl Scheduler for Icount {
    fn name(&self) -> &str {
        SchedulerSpec::Icount.name()
    }

    fn admit(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        self.refill(view)
    }

    fn evict(&mut self, view: &SchedView<'_>) -> u8 {
        let keep = Self::ranking(view);
        let keep = &keep[..view.n_contexts().min(keep.len())];
        let mut mask = 0u8;
        for (ctx, slot) in view.contexts.iter().enumerate() {
            if let Some(t) = slot {
                if !keep.contains(&(t.instrs, t.tid)) {
                    mask |= 1 << ctx;
                }
            }
        }
        mask
    }

    fn refill(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        let mut by_count: Vec<usize> = (0..view.pool.len()).collect();
        by_count.sort_unstable_by_key(|&i| (view.pool[i].instrs, view.pool[i].tid));
        by_count.truncate(view.n_free().min(view.pool.len()));
        order_from_picks(view.pool.len(), &by_count)
    }
}

/// Warm-cluster placement: full eviction, fairness decides *who* runs,
/// affinity decides *where*.
///
/// The candidate set is the `n_free` least-retired pooled threads (the
/// same fairness rule as [`Icount`]'s refill — affinity must never starve
/// a thread). Candidates are then matched to the free contexts by
/// decreasing warmth: exact previous context first, then any context
/// inside the previous merge subtree (same [`affinity_groups`] group),
/// then anywhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterAffinity;

impl Scheduler for ClusterAffinity {
    fn name(&self) -> &str {
        SchedulerSpec::ClusterAffinity.name()
    }

    fn admit(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        self.refill(view)
    }

    fn refill(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        // Who runs: the least-retired pooled threads, one per free
        // context (ties by tid) — placement preferences must not override
        // fairness, or warm threads would starve cold ones forever.
        let mut remaining: Vec<usize> = (0..view.pool.len()).collect();
        remaining.sort_unstable_by_key(|&i| (view.pool[i].instrs, view.pool[i].tid));
        remaining.truncate(view.n_free().min(view.pool.len()));
        // Where they run: the machine fills free contexts in ascending
        // order and stops when the pool runs dry, so only the first
        // `remaining.len()` free contexts can receive a thread — match
        // against exactly those, or placements would silently shift onto
        // lower contexts than the ones they were computed for.
        let targets: Vec<usize> = (0..view.contexts.len())
            .filter(|&c| view.contexts[c].is_none())
            .take(remaining.len())
            .collect();
        // Three matching passes of decreasing warmth, so a context never
        // steals a thread that has an exact home elsewhere: (0) previous
        // context, (1) previous merge subtree, (2) anything left. Within
        // a pass, contexts go in ascending order and ties go to the
        // least-retired thread (then lowest tid). Every target ends up
        // assigned: a thread's warmth for a context is always one of the
        // three pass values.
        let mut assigned: Vec<Option<usize>> = vec![None; targets.len()];
        for pass in 0u8..3 {
            for (assignment, &ctx) in assigned.iter_mut().zip(&targets) {
                if assignment.is_some() {
                    continue;
                }
                let best = remaining
                    .iter()
                    .enumerate()
                    .filter(|&(_, &i)| {
                        let warm = match view.pool[i].last_ctx {
                            Some(c) if c as usize == ctx => 0,
                            Some(c) if view.groups.get(c as usize) == view.groups.get(ctx) => 1,
                            _ => 2,
                        };
                        warm == pass
                    })
                    .min_by_key(|&(_, &i)| (view.pool[i].instrs, view.pool[i].tid))
                    .map(|(slot, _)| slot);
                if let Some(slot) = best {
                    *assignment = Some(remaining.swap_remove(slot));
                }
            }
        }
        let picks: Vec<usize> = assigned.into_iter().flatten().collect();
        order_from_picks(view.pool.len(), &picks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_core::catalog;

    fn tv(tid: u32, instrs: u64, last_ctx: Option<u8>) -> ThreadView {
        ThreadView {
            tid,
            instrs,
            ops: instrs * 2,
            dstall_cycles: 0,
            istall_cycles: 0,
            branch_stall_cycles: 0,
            last_ctx,
        }
    }

    #[test]
    fn spec_names_round_trip() {
        for spec in SchedulerSpec::all() {
            assert_eq!(spec.name().parse::<SchedulerSpec>().unwrap(), spec);
            assert_eq!(spec.to_string(), spec.name());
            assert_eq!(spec.build(7).name(), spec.name());
        }
        assert_eq!(
            "Cluster_Affinity".parse::<SchedulerSpec>().unwrap(),
            SchedulerSpec::ClusterAffinity
        );
        assert!(matches!(
            "fifo".parse::<SchedulerSpec>(),
            Err(SimError::UnknownScheduler(_))
        ));
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn from_str_conversion_panics_at_build_time() {
        let _ = SchedulerSpec::from("not-a-policy");
    }

    #[test]
    fn order_from_picks_installs_in_context_order() {
        // picks[0] must be popped first (back of the order).
        let order = order_from_picks(5, &[3, 0]);
        assert_eq!(order, vec![1, 2, 4, 0, 3]);
        // No picks: identity (everything keeps its pool position).
        assert_eq!(order_from_picks(3, &[]), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "picked twice")]
    fn repeated_pick_is_a_policy_bug() {
        let _ = order_from_picks(4, &[1, 1]);
    }

    #[test]
    fn affinity_groups_follow_top_level_subtrees() {
        // 2SC3 = C3(S(0,1), 2, 3): ports 0-1 share subtree 0.
        let g = affinity_groups(&catalog::by_name("2SC3").unwrap());
        assert_eq!(g, vec![0, 0, 1, 2]);
        // 2SS = S(S(0,1), S(2,3)): two two-port subtrees.
        let g = affinity_groups(&catalog::by_name("2SS").unwrap());
        assert_eq!(g, vec![0, 0, 1, 1]);
        // ST: single port, single group.
        assert_eq!(affinity_groups(&catalog::by_name("ST").unwrap()), vec![0]);
    }

    #[test]
    fn paper_random_replays_the_legacy_shuffle_sequence() {
        // The legacy OS layer shuffled the pool in place; the policy
        // shuffles an identity permutation with the same RNG. Both apply
        // the identical Fisher-Yates swap sequence, so permuting by the
        // returned order must equal shuffling the values directly.
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let mut direct: Vec<u32> = (0..7).collect();
        direct.shuffle(&mut rng);

        let mut policy = PaperRandom::new(0xC0FFEE);
        let pool: Vec<ThreadView> = (0..7).map(|i| tv(i, 0, None)).collect();
        let view = SchedView {
            cycle: 0,
            contexts: &[None, None],
            pool: &pool,
            groups: &[0, 0],
        };
        let order = policy.admit(&view);
        let permuted: Vec<u32> = order.iter().map(|&i| i as u32).collect();
        assert_eq!(permuted, direct);
    }

    #[test]
    fn round_robin_installs_longest_waiting_first() {
        let mut rr = RoundRobin::new();
        let pool: Vec<ThreadView> = (0..4).map(|i| tv(i, 0, None)).collect();
        let view = SchedView {
            cycle: 0,
            contexts: &[None, None],
            pool: &pool,
            groups: &[0, 0],
        };
        let order = rr.admit(&view);
        // Back of the order = first install = tid 0 on context 0.
        assert_eq!(order[order.len() - 1], 0);
        assert_eq!(order[order.len() - 2], 1);
        // tids 2, 3 stay pooled, still queued for the next quantum.
        assert_eq!(rr.queue, [2, 3]);
    }

    #[test]
    fn icount_keeps_least_retired_running() {
        let contexts = [Some(tv(0, 500, Some(0))), Some(tv(1, 40, Some(1)))];
        let pool = [tv(2, 100, None), tv(3, 900, None)];
        let view = SchedView {
            cycle: 0,
            contexts: &contexts,
            pool: &pool,
            groups: &[0, 0],
        };
        let mut ic = Icount;
        // tid 1 (40) and tid 2 (100) are the two least-retired: evict only
        // context 0 (tid 0, 500 retired).
        assert_eq!(ic.evict(&view), 0b01);
        // Refill of one free context picks tid 2, not tid 3.
        let free = [None, Some(tv(1, 40, Some(1)))];
        let pool2 = [tv(2, 100, None), tv(3, 900, None), tv(0, 500, Some(0))];
        let view2 = SchedView {
            cycle: 0,
            contexts: &free,
            pool: &pool2,
            groups: &[0, 0],
        };
        let order = ic.refill(&view2);
        assert_eq!(order[order.len() - 1], 0, "tid 2 installs first");
    }

    #[test]
    fn icount_never_switches_when_threads_fit() {
        let contexts = [Some(tv(0, 10, Some(0))), Some(tv(1, 900, Some(1)))];
        let view = SchedView {
            cycle: 0,
            contexts: &contexts,
            pool: &[],
            groups: &[0, 0],
        };
        assert_eq!(Icount.evict(&view), 0);
    }

    #[test]
    fn cluster_affinity_prefers_previous_context_then_subtree() {
        // Contexts 0-1 share group 0; context 2 is group 1. Context 1
        // (tid 0's exact home) is occupied, so tid 0 must settle for the
        // warm-subtree context 0 while the unattached tid 2 takes ctx 2.
        let groups = [0u8, 0, 1];
        let contexts = [None, Some(tv(9, 0, Some(1))), None];
        let pool = [tv(0, 0, Some(1)), tv(2, 0, None)];
        let view = SchedView {
            cycle: 0,
            contexts: &contexts,
            pool: &pool,
            groups: &groups,
        };
        let order = ClusterAffinity.refill(&view);
        let n = order.len();
        // Free contexts ascending are (0, 2): tid 0 installs first.
        assert_eq!(order[n - 1], 0, "ctx 0 gets tid 0 (warm subtree)");
        assert_eq!(order[n - 2], 1, "ctx 2 gets the unattached tid 2");
    }

    #[test]
    fn cluster_affinity_aligns_picks_when_pool_is_smaller_than_free_contexts() {
        // Two threads, three free contexts, one shared group. Only the
        // first two free contexts can be filled, so tid 0 (previous home
        // ctx 2, unreachable) must be matched against ctx 0/1 — same
        // group, warm — and land on ctx 0, not be silently shifted.
        let groups = [0u8, 0, 0];
        let contexts = [None, None, None];
        let pool = [tv(0, 0, Some(2)), tv(1, 0, None)];
        let view = SchedView {
            cycle: 0,
            contexts: &contexts,
            pool: &pool,
            groups: &groups,
        };
        let order = ClusterAffinity.refill(&view);
        let n = order.len();
        assert_eq!(order[n - 1], 0, "ctx 0 gets tid 0 (warm group)");
        assert_eq!(order[n - 2], 1, "ctx 1 gets tid 1");
    }

    #[test]
    fn cluster_affinity_reinstalls_exact_context() {
        // Every thread's previous context is free: each goes straight back.
        let groups = [0u8, 0, 1, 2];
        let contexts = [None, None, None, None];
        let pool = [
            tv(0, 0, Some(2)),
            tv(1, 0, Some(0)),
            tv(2, 0, Some(3)),
            tv(3, 0, Some(1)),
        ];
        let view = SchedView {
            cycle: 0,
            contexts: &contexts,
            pool: &pool,
            groups: &groups,
        };
        let order = ClusterAffinity.refill(&view);
        let n = order.len();
        // Install sequence (ctx 0, 1, 2, 3) = tids (1, 3, 0, 2).
        assert_eq!(&order[n - 4..], &[2, 0, 3, 1]);
    }
}
