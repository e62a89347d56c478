//! Host speed of the event-driven fast core against the cycle-accurate
//! oracle (`BENCH_event_core.json`), one [`snapshot`] cell per stall
//! profile: the oracle/fast speedup, where higher is better.
//!
//! Before timing anything, every cell's `RunStats` is asserted
//! bit-identical between the two cores (`Debug`-string equality over the
//! full state): a snapshot comparing two *different* computations would be
//! meaningless.

use std::time::Duration;
use vliw_bench::snapshot::{self, Better};
use vliw_core::catalog;
use vliw_sim::runner::{run_mix, ImageCache};
use vliw_sim::{CoreModel, RunStats, SimConfig};
use vliw_workloads::mixes::mix;

/// 1/200 of the paper's runs: 500k-instruction budget, 5k-cycle quantum.
const SCALE: u64 = 200;
/// At 15 reps the far-memory median held inside the recorded band of
/// every other run; at 7 a slow-memory run fell out of it.
const REPS: usize = 15;
/// The headline: at least 5× faster than the oracle on far memory.
const FAR_CLAIM: f64 = 5.0;

struct Cell<'a> {
    cache: &'a ImageCache,
    kind: &'static str,
    workload: &'static str,
    claim: Option<f64>,
    /// The oracle's config, then the fast core's.
    cfgs: [SimConfig; 2],
}

impl<'a> Cell<'a> {
    /// `scheme` on `workload` with both caches' miss penalty at
    /// `miss_penalty` cycles (the paper's is 20: 50ns DRAM at 400MHz).
    fn new(
        cache: &'a ImageCache,
        kind: &'static str,
        scheme: &str,
        workload: &'static str,
        miss_penalty: u32,
    ) -> Self {
        let cfgs = [CoreModel::CycleAccurate, CoreModel::EventDriven].map(|model| {
            let mut cfg =
                SimConfig::paper(catalog::by_name(scheme).unwrap(), SCALE).with_core_model(model);
            cfg.mem.icache.miss_penalty = miss_penalty;
            cfg.mem.dcache.miss_penalty = miss_penalty;
            cfg
        });
        Cell {
            cache,
            kind,
            workload,
            claim: None,
            cfgs,
        }
    }

    fn run(&self, side: usize) -> RunStats {
        let r = run_mix(self.cache, &self.cfgs[side], mix(self.workload).unwrap()).unwrap();
        assert!(r.stats.cycles > 0);
        r.stats
    }
}

impl snapshot::Cell for Cell<'_> {
    fn name(&self) -> &str {
        self.kind
    }
    fn sides(&self) -> [&str; 2] {
        ["oracle", "fast"]
    }
    fn better(&self) -> Better {
        Better::Higher
    }
    fn claim(&self) -> Option<f64> {
        self.claim
    }
    fn rep(&mut self, first: usize) -> [Duration; 2] {
        snapshot::time_sides(first, 1, |side| self.run(side))
    }
}

fn main() {
    let cache = ImageCache::new();
    // A compute-bound mix (worst case for the event core: almost no
    // skippable span, the overhead bound), the paper's LLHH mix, the
    // memory-bound LLLL mix on a 4-context machine, and LLLL timesliced on
    // one context (every miss is an all-stalled span) at 20-, 200- (500ns,
    // slow or contended memory) and 800-cycle (2us, far or disaggregated
    // memory) misses: the event core's advantage grows with the stall
    // fraction, the regime it exists for.
    let mut cells = [
        Cell::new(&cache, "compute-bound", "3SSS", "HHHH", 20),
        Cell::new(&cache, "mixed", "3SSS", "LLHH", 20),
        Cell::new(&cache, "memory-bound", "3SSS", "LLLL", 20),
        Cell::new(&cache, "memory-bound-1ctx", "ST", "LLLL", 20),
        Cell::new(&cache, "memory-bound-slowmem", "ST", "LLLL", 200),
        Cell {
            claim: Some(FAR_CLAIM),
            ..Cell::new(&cache, "memory-bound-far", "ST", "LLLL", 800)
        },
    ];
    for cell in &cells {
        assert_eq!(
            format!("{:?}", cell.run(0)),
            format!("{:?}", cell.run(1)),
            "{}/{}: cores diverged — fix equivalence before benchmarking",
            cell.kind,
            cell.workload
        );
    }
    snapshot::run("event_core", REPS, &mut cells);
}
