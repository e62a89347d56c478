//! Host cost of the fleet dispatch layer (`BENCH_fleet.json`), one
//! [`snapshot`] cell: a singleton fleet (`paper-4x4`) against the open
//! `run_mix` of the same machine under the same arrival stream, the
//! fleet/open ratio, where lower is better. The fleet side adds lane
//! bookkeeping, lockstep advances, one routing decision per arrival and
//! the stats merge.
//!
//! The jobs are memory-bound LLLL on one context (ST) with 200-cycle
//! misses, so the event core skips most cycles and the lane loop carries
//! the largest share of host time it can. On a busy 2SC3/LLHH lane, a
//! lane loop that advanced one cycle per step cost 14%, inside this
//! host's run-to-run noise; on this lane it costs over 2×.
//!
//! Before timing, both runs must conserve their jobs.

use std::time::Duration;
use vliw_bench::snapshot::{self, Better};
use vliw_core::catalog;
use vliw_sim::plan::WorkloadRef;
use vliw_sim::runner::{run_mix, ImageCache};
use vliw_sim::{run_fleet, FleetSpec, RunStats, SimConfig};
use vliw_workloads::mixes::mix;

/// 1/1000 of the paper's runs (as in `BENCH_traffic.json`).
const SCALE: u64 = 1000;
const WORKLOAD: &str = "LLLL";
/// Reps, and alternating calls per side in a rep (as in
/// `BENCH_traffic.json`).
const REPS: usize = 15;
const CALLS: usize = 5;

struct Cell {
    cache: ImageCache,
    cfg: SimConfig,
    fleet: FleetSpec,
    workload: WorkloadRef,
}

impl Cell {
    /// The fleet run, then the open run.
    fn run(&self, side: usize) -> RunStats {
        let stats = match side {
            0 => run_fleet(&self.cache, &self.cfg, &self.fleet, &self.workload, 1),
            _ => {
                run_mix(&self.cache, &self.cfg, mix(WORKLOAD).unwrap())
                    .unwrap()
                    .stats
            }
        };
        assert!(stats.cycles > 0);
        stats
    }
}

impl snapshot::Cell for Cell {
    fn name(&self) -> &str {
        "paper-4x4"
    }
    fn sides(&self) -> [&str; 2] {
        ["fleet", "open"]
    }
    fn better(&self) -> Better {
        Better::Lower
    }
    fn rep(&mut self, first: usize) -> [Duration; 2] {
        snapshot::time_sides(first, CALLS, |side| self.run(side))
    }
}

fn main() {
    let mut cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), SCALE)
        .with_traffic("poisson:0.0005".parse().unwrap());
    cfg.mem.icache.miss_penalty = 200;
    cfg.mem.dcache.miss_penalty = 200;
    let mut cell = Cell {
        cache: ImageCache::new(),
        cfg,
        fleet: "paper-4x4".parse().unwrap(),
        workload: WorkloadRef::from(WORKLOAD),
    };
    for (label, side) in [("fleet", 0), ("open", 1)] {
        let t = cell.run(side).traffic;
        assert_eq!(
            t.completed + t.shed,
            t.offered,
            "{label}: lifecycle accounting leaked a job"
        );
    }
    snapshot::run("fleet", REPS, std::slice::from_mut(&mut cell));
}
