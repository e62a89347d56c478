//! Deterministic time-ordered wakeup machinery for the event-driven core.
//!
//! The fast core (see [`crate::core::CoreModel::EventDriven`]) does not
//! tick idle cycles: when every installed context is stalled it jumps
//! straight to the earliest cycle at which anything can issue again. The
//! two pieces here supply that "earliest next wakeup" query:
//!
//! * [`EventQueue`] — a plain binary min-heap keyed `(cycle, seq)`. The
//!   `seq` tiebreaker is a monotone push counter, so events scheduled for
//!   the same cycle pop in push order (stable FIFO). That determinism is
//!   load-bearing: the differential oracle suite asserts bit-identical
//!   runs, so "which wakeup wins a tie" must never depend on heap
//!   internals or insertion history beyond program order. The OS layer
//!   drives its timeslice-expiry wakeups off this queue (one event per
//!   quantum, so the heap never sees hot-loop traffic).
//! * [`WakeupSet`] — per-context wakeup timers in SoA form (parallel
//!   `when`/`armed`/`seq` vectors indexed by context id). A core has at
//!   most [`vliw_core::MAX_PORTS`] contexts, so the earliest-live
//!   query is a scan of one short dense array — measurably cheaper than
//!   heap traffic at this size, and the reason the fast core's issue
//!   cycles cost the same as the oracle's. Arm and cancel are O(1)
//!   stores; `seq` stamps arm order so draining ties stay deterministic
//!   (same `(cycle, seq)` key discipline as the heap).
//!
//! Wakeup *sources* in the core are memory-return stalls (I$/D$ miss
//! service), taken-branch bubbles, and OS reinstallation after a timeslice
//! expiry — all of which land in a thread's `stall_until`, which is what
//! gets armed here. Merge/split transitions need no timer: they can only
//! happen on a cycle in which some context issues, and the fast core
//! executes every such cycle exactly like the oracle.

/// One scheduled event: the key pair plus a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry<T> {
    cycle: u64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    /// Min-heap ordering key: earliest cycle first, push order on ties.
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.cycle, self.seq)
    }
}

/// Lifetime health counters of an [`EventQueue`]: how much traffic it saw
/// and how deep it ever grew. Pushes/pops/depth are functions of the
/// simulated schedule only (never of wall time or worker count), so these
/// feed the *deterministic* class of the telemetry registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events ever scheduled.
    pub pushes: u64,
    /// Total events ever popped.
    pub pops: u64,
    /// High-water mark of the number of simultaneously scheduled events.
    pub depth_max: u64,
}

/// A deterministic min-heap of timed events.
///
/// Pops come out ordered by `cycle`; events scheduled for the same cycle
/// pop in the order they were pushed (`seq` is a monotone counter). Unlike
/// [`std::collections::BinaryHeap`] the behaviour on ties is fully
/// specified — the property suite in `crates/sim/tests/prop_events.rs`
/// pins both invariants down.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<T> {
    heap: Vec<Entry<T>>,
    next_seq: u64,
    stats: QueueStats,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// An empty queue with room for `n` events before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(n),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// Lifetime traffic/depth counters (survive [`Self::clear`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Number of scheduled (not yet popped) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every scheduled event (the sequence counter keeps running, so
    /// FIFO ordering holds across clears too).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Schedule `payload` at `cycle`. Returns the event's sequence number
    /// (monotone per queue — later pushes always get larger numbers).
    pub fn schedule(&mut self, cycle: u64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            cycle,
            seq,
            payload,
        });
        self.stats.pushes += 1;
        self.stats.depth_max = self.stats.depth_max.max(self.heap.len() as u64);
        self.sift_up(self.heap.len() - 1);
        seq
    }

    /// The earliest event without removing it: `(cycle, &payload)`.
    pub fn peek(&self) -> Option<(u64, &T)> {
        self.heap.first().map(|e| (e.cycle, &e.payload))
    }

    /// The earliest scheduled cycle, if any.
    pub fn peek_cycle(&self) -> Option<u64> {
        self.heap.first().map(|e| e.cycle)
    }

    /// Remove and return the earliest event as `(cycle, payload)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let e = self.heap.pop().expect("non-empty");
        self.stats.pops += 1;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((e.cycle, e.payload))
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let smallest = if r < n && self.heap[r].key() < self.heap[l].key() {
                r
            } else {
                l
            };
            if self.heap[smallest].key() < self.heap[i].key() {
                self.heap.swap(i, smallest);
                i = smallest;
            } else {
                break;
            }
        }
    }
}

/// Per-context wakeup timers: at most one *live* wakeup per context, with
/// O(1) re-arm and cancel.
///
/// State is struct-of-arrays — `when[ctx]`, `armed[ctx]`, `seq[ctx]` —
/// dense parallel vectors sized by context count, so the hot queries touch
/// one or two cache lines instead of chasing the thread objects. With at
/// most eight contexts per core a linear scan beats a heap: arming on
/// every issued packet plus peeking every stall span generates far more
/// timer churn than pops, and a heap pays `O(log n)` plus stale-entry
/// cleanup on exactly that churn. (An earlier revision kept these timers
/// in an [`EventQueue`]; the scan version made the event core's issue
/// cycles as cheap as the oracle's.)
///
/// `seq` stamps each arm with a monotone counter, so [`Self::pop_next`]
/// resolves equal-cycle ties in arm order — the same `(cycle, seq)` key
/// discipline as [`EventQueue`], and just as deterministic.
#[derive(Debug, Clone)]
pub struct WakeupSet {
    /// Armed wakeup cycle per context (valid when `armed[ctx]`).
    when: Vec<u64>,
    /// Does the context currently have a live wakeup?
    armed: Vec<bool>,
    /// Arm-order stamp per context (valid when `armed[ctx]`).
    seq: Vec<u64>,
    /// Monotone arm counter feeding `seq`.
    next_seq: u64,
}

impl WakeupSet {
    /// Timers for `n` contexts, all disarmed.
    pub fn new(n: usize) -> Self {
        WakeupSet {
            when: vec![0; n],
            armed: vec![false; n],
            seq: vec![0; n],
            next_seq: 0,
        }
    }

    /// Number of contexts tracked.
    pub fn n_contexts(&self) -> usize {
        self.when.len()
    }

    /// Arm (or re-arm) `ctx`'s wakeup at `cycle`, superseding any previous
    /// timer for that context.
    #[inline]
    pub fn arm(&mut self, ctx: usize, cycle: u64) {
        self.when[ctx] = cycle;
        self.armed[ctx] = true;
        self.seq[ctx] = self.next_seq;
        self.next_seq += 1;
    }

    /// Cancel `ctx`'s wakeup (no-op when disarmed).
    #[inline]
    pub fn cancel(&mut self, ctx: usize) {
        self.armed[ctx] = false;
    }

    /// Is `ctx` armed?
    pub fn is_armed(&self, ctx: usize) -> bool {
        self.armed[ctx]
    }

    /// The armed wakeup cycle of `ctx`, if any.
    pub fn when(&self, ctx: usize) -> Option<u64> {
        self.armed[ctx].then(|| self.when[ctx])
    }

    /// Number of live (armed) wakeups.
    pub fn live(&self) -> usize {
        self.armed.iter().filter(|&&a| a).count()
    }

    /// The earliest live wakeup cycle. `None` when no context is armed.
    #[inline]
    pub fn next_wakeup(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        for ctx in 0..self.when.len() {
            if self.armed[ctx] && min.is_none_or(|m| self.when[ctx] < m) {
                min = Some(self.when[ctx]);
            }
        }
        min
    }

    /// Pop the earliest live wakeup, disarming its context: `(cycle, ctx)`.
    /// Ties between contexts resolve in arm order.
    pub fn pop_next(&mut self) -> Option<(u64, usize)> {
        let mut best: Option<(u64, u64, usize)> = None;
        for ctx in 0..self.when.len() {
            if !self.armed[ctx] {
                continue;
            }
            let key = (self.when[ctx], self.seq[ctx]);
            if best.is_none_or(|(c, s, _)| key < (c, s)) {
                best = Some((key.0, key.1, ctx));
            }
        }
        best.map(|(cycle, _, ctx)| {
            self.armed[ctx] = false;
            (cycle, ctx)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.peek_cycle(), Some(10));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..16u32 {
            q.schedule(7, i);
        }
        for i in 0..16u32 {
            assert_eq!(q.pop(), Some((7, i)), "FIFO at equal cycles");
        }
    }

    #[test]
    fn interleaved_ties_and_cycles() {
        let mut q = EventQueue::new();
        q.schedule(5, 'a');
        q.schedule(3, 'b');
        q.schedule(5, 'c');
        q.schedule(3, 'd');
        let order: Vec<(u64, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(3, 'b'), (3, 'd'), (5, 'a'), (5, 'c')]);
    }

    #[test]
    fn wakeup_arm_cancel_rearm() {
        let mut w = WakeupSet::new(4);
        assert_eq!(w.next_wakeup(), None);
        w.arm(2, 100);
        w.arm(0, 50);
        assert_eq!(w.next_wakeup(), Some(50));
        assert_eq!(w.when(0), Some(50));
        // Re-arm context 0 later: the old timer is superseded, context 2
        // becomes the earliest.
        w.arm(0, 200);
        assert_eq!(w.next_wakeup(), Some(100));
        // Cancel context 2: only the re-armed 0 remains.
        w.cancel(2);
        assert!(!w.is_armed(2));
        assert_eq!(w.next_wakeup(), Some(200));
        assert_eq!(w.live(), 1);
        assert_eq!(w.pop_next(), Some((200, 0)));
        assert_eq!(w.next_wakeup(), None);
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn wakeup_ties_resolve_in_arm_order() {
        let mut w = WakeupSet::new(4);
        w.arm(3, 10);
        w.arm(1, 10);
        w.arm(2, 10);
        assert_eq!(w.pop_next(), Some((10, 3)));
        assert_eq!(w.pop_next(), Some((10, 1)));
        assert_eq!(w.pop_next(), Some((10, 2)));
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn queue_stats_count_traffic_and_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        q.schedule(3, 'a');
        q.schedule(1, 'b');
        q.schedule(2, 'c');
        assert_eq!(q.stats().pushes, 3);
        assert_eq!(q.stats().depth_max, 3);
        q.pop();
        q.pop();
        q.schedule(9, 'd'); // depth back to 2 — high-water stays 3
        let s = q.stats();
        assert_eq!((s.pushes, s.pops, s.depth_max), (4, 2, 3));
        q.clear();
        assert_eq!(q.stats().depth_max, 3, "lifetime stats survive clear");
    }

    #[test]
    fn stale_entries_never_duplicate_a_wakeup() {
        let mut w = WakeupSet::new(2);
        for round in 0..100u64 {
            w.arm(0, round); // each arm supersedes the previous
        }
        w.arm(1, 42);
        // Exactly two live wakeups despite 101 arms.
        assert_eq!(w.pop_next(), Some((42, 1)));
        assert_eq!(w.pop_next(), Some((99, 0)));
        assert_eq!(w.pop_next(), None);
    }
}
