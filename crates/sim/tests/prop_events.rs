//! Property tests for the OS loop's event queue.
//!
//! Two invariants of [`EventQueue`], pinned over randomized schedules:
//!
//! 1. Pops are non-decreasing in cycle and contain exactly the scheduled
//!    multiset: popping drains every pushed event, nothing lost and
//!    nothing invented.
//! 2. Events scheduled for the same cycle pop in push order — the
//!    determinism guarantee the differential oracle suite relies on.

use proptest::prelude::*;
use vliw_sim::events::EventQueue;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pops come out sorted by cycle, and are a permutation of what was
    /// pushed (nothing lost, nothing invented).
    #[test]
    fn pop_order_is_non_decreasing_in_cycle(
        cycles in prop::collection::vec(0u64..1_000, 1..64),
    ) {
        let mut q = EventQueue::new();
        for (i, &c) in cycles.iter().enumerate() {
            q.schedule(c, i);
        }
        let mut popped = Vec::new();
        while let Some((c, _)) = q.pop() {
            popped.push(c);
        }
        prop_assert!(
            popped.windows(2).all(|w| w[0] <= w[1]),
            "pop order must be non-decreasing: {popped:?}"
        );
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        prop_assert_eq!(popped, sorted);
    }

    /// With few distinct cycles (many ties), the pop sequence equals a
    /// *stable* sort of the push sequence by cycle: ties pop strictly in
    /// push order.
    #[test]
    fn ties_pop_in_push_order(
        cycles in prop::collection::vec(0u64..8, 1..64),
    ) {
        let mut q = EventQueue::new();
        for (i, &c) in cycles.iter().enumerate() {
            q.schedule(c, i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        let mut expected: Vec<(u64, usize)> = cycles
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        expected.sort_by_key(|&(c, _)| c); // stable: preserves push order
        prop_assert_eq!(popped, expected);
    }
}
