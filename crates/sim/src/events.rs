//! The OS loop's deterministic time-ordered event queue.
//!
//! [`EventQueue`] is a plain binary min-heap keyed `(cycle, seq)`. The
//! `seq` tiebreaker is a monotone push counter, so events scheduled for
//! the same cycle pop in push order (stable FIFO). That determinism is
//! load-bearing: the differential oracle suite asserts bit-identical runs,
//! so "which event wins a tie" must never depend on heap internals or
//! insertion history beyond program order. [`crate::os::Machine`] drives
//! its arrivals and timeslice expiries off this queue (one event per
//! arrival or quantum, so the heap never sees hot-loop traffic).
//!
//! The core's own wakeups need no queue: a context's next issue cycle is
//! its thread's `stall_until`, and after a cycle that issues nothing the
//! event-driven core skips to the smallest of them (see
//! [`crate::core::Core::run`]).

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

    /// Lifetime traffic/depth counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
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
    }
}
