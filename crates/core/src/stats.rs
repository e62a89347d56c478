//! Merge-network statistics.
//!
//! Collected per merge block (attempt/success counts) and per cycle (how
//! many threads issued together, packet occupancy). The simulator exposes
//! these through its run reports; the examples use them to explain *why*
//! scheme X beats scheme Y on a given workload.

use crate::MAX_PORTS;

/// Counters for one merge network instance.
#[derive(Debug, Clone, Default)]
pub struct MergeStats {
    /// Per-block: times a candidate operand was checked against a non-empty
    /// accumulated selection.
    attempts: Vec<u64>,
    /// Per-block: times the check passed.
    successes: Vec<u64>,
    /// `packets[k]` = cycles in which exactly `k` threads issued together.
    packets: [u64; MAX_PORTS + 1],
    /// Total operations issued across all packets.
    ops_issued: u64,
    /// Cycles observed (every `record_packet` call).
    cycles: u64,
}

impl MergeStats {
    /// Stats sized for a compiled scheme with `n_nodes` merge blocks.
    pub fn new(n_nodes: u16) -> Self {
        MergeStats {
            attempts: vec![0; n_nodes as usize],
            successes: vec![0; n_nodes as usize],
            packets: [0; MAX_PORTS + 1],
            ops_issued: 0,
            cycles: 0,
        }
    }

    /// Record one conflict check at block `node`.
    #[inline]
    pub fn record_attempt(&mut self, node: u16, success: bool) {
        self.attempts[node as usize] += 1;
        if success {
            self.successes[node as usize] += 1;
        }
    }

    /// Record the final packet of a cycle.
    #[inline]
    pub fn record_packet(&mut self, n_threads: u32, n_ops: u8) {
        self.packets[n_threads as usize] += 1;
        self.ops_issued += u64::from(n_ops);
        self.cycles += 1;
    }

    /// Record `cycles` consecutive empty cycles (no port ready, nothing
    /// issued) in closed form — exactly equivalent to that many
    /// [`MergeStats::record_packet`]`(0, 0)` calls. An all-stalled cycle
    /// performs no conflict checks (every candidate is empty), so the
    /// per-block attempt/success counters are untouched; only the packet
    /// histogram's empty bucket and the cycle count advance. The
    /// event-driven core uses this to account skipped idle spans.
    #[inline]
    pub fn record_idle(&mut self, cycles: u64) {
        self.packets[0] += cycles;
        self.cycles += cycles;
    }

    /// Attempt count per block.
    pub fn attempts(&self) -> &[u64] {
        &self.attempts
    }

    /// Success count per block.
    pub fn successes(&self) -> &[u64] {
        &self.successes
    }

    /// Success ratio of block `node` (1.0 when never attempted).
    pub fn success_rate(&self, node: u16) -> f64 {
        let a = self.attempts[node as usize];
        if a == 0 {
            1.0
        } else {
            self.successes[node as usize] as f64 / a as f64
        }
    }

    /// Histogram over threads-per-packet (index = thread count).
    pub fn packet_histogram(&self) -> &[u64; MAX_PORTS + 1] {
        &self.packets
    }

    /// Cycles in which no thread issued (vertical waste seen by the
    /// merge network).
    pub fn empty_cycles(&self) -> u64 {
        self.packets[0]
    }

    /// Mean threads issuing per cycle.
    pub fn mean_threads_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let total: u64 = self
            .packets
            .iter()
            .enumerate()
            .map(|(k, &n)| k as u64 * n)
            .sum();
        total as f64 / self.cycles as f64
    }

    /// Mean operations per cycle over the observed window.
    pub fn mean_ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops_issued as f64 / self.cycles as f64
        }
    }

    /// Observed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_attempts_and_rates() {
        let mut s = MergeStats::new(2);
        s.record_attempt(0, true);
        s.record_attempt(0, false);
        s.record_attempt(1, true);
        assert_eq!(s.attempts(), &[2, 1]);
        assert_eq!(s.successes(), &[1, 1]);
        assert!((s.success_rate(0) - 0.5).abs() < 1e-12);
        assert!((s.success_rate(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn packet_histogram_and_means() {
        let mut s = MergeStats::new(0);
        s.record_packet(0, 0);
        s.record_packet(2, 6);
        s.record_packet(4, 10);
        assert_eq!(s.empty_cycles(), 1);
        assert_eq!(s.cycles(), 3);
        assert!((s.mean_threads_per_cycle() - 2.0).abs() < 1e-12);
        assert!((s.mean_ops_per_cycle() - 16.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn record_idle_matches_repeated_empty_packets() {
        let mut stepped = MergeStats::new(2);
        let mut closed = MergeStats::new(2);
        stepped.record_packet(2, 6);
        closed.record_packet(2, 6);
        for _ in 0..1000 {
            stepped.record_packet(0, 0);
        }
        closed.record_idle(1000);
        assert_eq!(stepped.packet_histogram(), closed.packet_histogram());
        assert_eq!(stepped.cycles(), closed.cycles());
        assert_eq!(stepped.empty_cycles(), closed.empty_cycles());
        assert_eq!(
            stepped.mean_ops_per_cycle(),
            closed.mean_ops_per_cycle(),
            "bit-exact aggregate"
        );
    }

    #[test]
    fn unattempted_block_rate_is_one() {
        let s = MergeStats::new(3);
        assert_eq!(s.success_rate(2), 1.0);
    }
}
