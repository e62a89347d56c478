//! Thread-to-port priority rotation.
//!
//! The scheme's port 0 is the *anchor*: its thread always issues when ready.
//! Left as a fixed assignment this would starve high-numbered threads, so —
//! as in the CSMT work the paper builds on — the hardware rotates the
//! thread→port mapping. Three policies are provided; round-robin is the
//! default used by the paper reproduction, the others exist for the
//! ablation benches.

use crate::MAX_PORTS;

/// How the thread→port mapping evolves over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityPolicy {
    /// Never rotate: thread i is always port i. Starves late threads.
    Fixed,
    /// Rotate the mapping by one position every cycle.
    RoundRobin,
    /// Threads that issued move behind threads that did not (least
    /// recently *served* first), preserving relative order otherwise.
    LeastRecentlyIssued,
}

/// Maintains the thread→port permutation for one core.
#[derive(Debug, Clone)]
pub struct PriorityRotator {
    policy: PriorityPolicy,
    /// `order[port] = hardware thread occupying that port`, for the first
    /// `len` ports.
    order: [u8; MAX_PORTS],
    len: u8,
}

impl PriorityRotator {
    /// Identity mapping over `n_threads` threads under `policy`.
    pub fn new(policy: PriorityPolicy, n_threads: u8) -> Self {
        assert!(n_threads >= 1 && n_threads as usize <= MAX_PORTS);
        let mut order = [0u8; MAX_PORTS];
        for (port, t) in order.iter_mut().zip(0..n_threads) {
            *port = t;
        }
        PriorityRotator {
            policy,
            order,
            len: n_threads,
        }
    }

    /// Current mapping: `order()[port]` is the hardware thread at `port`.
    #[inline]
    pub fn order(&self) -> &[u8] {
        &self.order[..self.len as usize]
    }

    /// Rotate the first `len` ports left by `k < len` positions, as one
    /// shift of the order's bytes: ports at and beyond `len` stay zero.
    #[inline]
    fn rotate_left(&mut self, k: u8) {
        if k == 0 {
            return;
        }
        let order = u64::from_le_bytes(self.order);
        let head = order & ((1u64 << (8 * k)) - 1);
        self.order = ((order >> (8 * k)) | (head << (8 * (self.len - k)))).to_le_bytes();
    }

    /// Hardware thread occupying `port`.
    #[inline]
    pub fn thread_at(&self, port: u8) -> u8 {
        self.order()[port as usize]
    }

    /// Translate a port bitmask (as produced by the merge network) into a
    /// hardware-thread bitmask.
    pub fn ports_to_threads(&self, port_mask: u8) -> u8 {
        let mut out = 0u8;
        let mut m = port_mask;
        while m != 0 {
            let port = m.trailing_zeros() as u8;
            out |= 1 << self.order[port as usize];
            m &= m - 1;
        }
        out
    }

    /// Advance the mapping after a cycle in which `issued_threads` (hardware
    /// thread bitmask) issued.
    pub fn advance(&mut self, issued_threads: u8) {
        match self.policy {
            PriorityPolicy::Fixed => {}
            PriorityPolicy::RoundRobin => self.rotate_left(1),
            PriorityPolicy::LeastRecentlyIssued => {
                // Stable partition: threads that waited, then those served.
                let mut next = [0u8; MAX_PORTS];
                let mut k = 0;
                for served in [false, true] {
                    for &t in self.order() {
                        if (issued_threads & (1 << t) != 0) == served {
                            next[k] = t;
                            k += 1;
                        }
                    }
                }
                self.order = next;
            }
        }
    }

    /// Advance the mapping over `cycles` consecutive cycles in which *no*
    /// thread issued, in closed form — exactly equivalent to calling
    /// [`PriorityRotator::advance`]`(0)` that many times, but O(n) instead
    /// of O(n·cycles). This is what lets the event-driven core skip idle
    /// spans without replaying them: round-robin rotates once per cycle
    /// regardless of issue, while fixed and least-recently-issued mappings
    /// are invariant under empty cycles.
    pub fn advance_idle(&mut self, cycles: u64) {
        match self.policy {
            PriorityPolicy::Fixed | PriorityPolicy::LeastRecentlyIssued => {}
            PriorityPolicy::RoundRobin => {
                self.rotate_left((cycles % u64::from(self.len)) as u8);
            }
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> PriorityPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_never_moves() {
        let mut r = PriorityRotator::new(PriorityPolicy::Fixed, 4);
        r.advance(0b1111);
        r.advance(0b0001);
        assert_eq!(r.order(), &[0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = PriorityRotator::new(PriorityPolicy::RoundRobin, 4);
        assert_eq!(r.thread_at(0), 0);
        r.advance(0);
        assert_eq!(r.order(), &[1, 2, 3, 0]);
        r.advance(0);
        r.advance(0);
        r.advance(0);
        assert_eq!(r.order(), &[0, 1, 2, 3]);
    }

    #[test]
    fn lri_moves_issued_to_back() {
        let mut r = PriorityRotator::new(PriorityPolicy::LeastRecentlyIssued, 4);
        // Threads 0 and 2 issue: they go behind 1 and 3.
        r.advance(0b0101);
        assert_eq!(r.order(), &[1, 3, 0, 2]);
        // Nobody issues: order unchanged.
        r.advance(0);
        assert_eq!(r.order(), &[1, 3, 0, 2]);
        // Thread 1 issues.
        r.advance(0b0010);
        assert_eq!(r.order(), &[3, 0, 2, 1]);
    }

    #[test]
    fn advance_idle_matches_stepping() {
        for policy in [
            PriorityPolicy::Fixed,
            PriorityPolicy::RoundRobin,
            PriorityPolicy::LeastRecentlyIssued,
        ] {
            for k in [0u64, 1, 3, 4, 5, 1000, u64::MAX / 3] {
                let mut closed = PriorityRotator::new(policy, 4);
                closed.advance(0b0101); // desynchronize from the identity
                let mut stepped = closed.clone();
                closed.advance_idle(k);
                for _ in 0..k.min(10_000) {
                    stepped.advance(0);
                }
                if k <= 10_000 {
                    assert_eq!(closed.order(), stepped.order(), "{policy:?} k={k}");
                }
                // Closed form is always a valid permutation.
                let mut sorted: Vec<u8> = closed.order().to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2, 3]);
            }
        }
    }

    #[test]
    fn ports_to_threads_translates() {
        let mut r = PriorityRotator::new(PriorityPolicy::RoundRobin, 4);
        r.advance(0); // order = [1,2,3,0]
                      // Ports 0 and 3 issued -> threads 1 and 0.
        assert_eq!(r.ports_to_threads(0b1001), 0b0011);
    }

    #[test]
    fn permutation_invariant() {
        for policy in [
            PriorityPolicy::Fixed,
            PriorityPolicy::RoundRobin,
            PriorityPolicy::LeastRecentlyIssued,
        ] {
            let mut r = PriorityRotator::new(policy, 4);
            for mask in 0..16u8 {
                r.advance(mask);
                let mut sorted: Vec<u8> = r.order().to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2, 3], "{policy:?}");
            }
        }
    }
}
