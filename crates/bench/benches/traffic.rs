//! Host cost of open-system mode (`BENCH_traffic.json`), one [`snapshot`]
//! cell per arrival process: `run_mix` under the process against the same
//! closed run, the open/closed ratio, where lower is better. The open side
//! pays for the OS event queue, admission bookkeeping and lifecycle
//! stamps.
//!
//! Before timing anything, an explicit `closed` spec is asserted
//! bit-identical to the default closed run (open mode must cost nothing
//! when it is not used, or the baseline side of the ratio is wrong), and
//! every open run must conserve its jobs.

use std::time::Duration;
use vliw_bench::snapshot::{self, Better};
use vliw_core::catalog;
use vliw_sim::runner::{run_mix, ImageCache};
use vliw_sim::{RunStats, SimConfig};
use vliw_traffic::TrafficSpec;
use vliw_workloads::mixes::mix;

/// 1/1000 of the paper's runs: 100k-instruction budget, 1k-cycle quantum.
const SCALE: u64 = 1000;
/// Reps, and alternating calls per side in a rep. Five ~50 ms calls per
/// side hold a rep's ratio tighter on a noisy host than one 250 ms call
/// at 1/200 scale, whose per-rep ratios spread over ±25%.
const REPS: usize = 15;
const CALLS: usize = 5;
/// The paper's LLHH mix drives every cell.
const WORKLOAD: &str = "LLHH";

struct Cell<'a> {
    cache: &'a ImageCache,
    kind: &'static str,
    /// The open run's config, then the closed one's.
    cfgs: [SimConfig; 2],
}

impl<'a> Cell<'a> {
    fn new(cache: &'a ImageCache, kind: &'static str, scheme: &str, spec: &str) -> Self {
        let closed = SimConfig::paper(catalog::by_name(scheme).unwrap(), SCALE);
        let open = closed.clone().with_traffic(spec.parse().unwrap());
        Cell {
            cache,
            kind,
            cfgs: [open, closed],
        }
    }

    fn run(&self, cfg: &SimConfig) -> RunStats {
        let r = run_mix(self.cache, cfg, mix(WORKLOAD).unwrap()).unwrap();
        assert!(r.stats.cycles > 0);
        r.stats
    }
}

impl snapshot::Cell for Cell<'_> {
    fn name(&self) -> &str {
        self.kind
    }
    fn sides(&self) -> [&str; 2] {
        ["open", "closed"]
    }
    fn better(&self) -> Better {
        Better::Lower
    }
    fn rep(&mut self, first: usize) -> [Duration; 2] {
        snapshot::time_sides(first, CALLS, |side| self.run(&self.cfgs[side]))
    }
}

fn main() {
    let cache = ImageCache::new();
    // Saturating: arrivals land faster than the machine drains, so the open
    // run does the closed run's work and the ratio bounds pure bookkeeping.
    // The queueing cells add admission-queue churn and the idle spans before
    // arrivals, on a 4-context machine and on timesliced ST, and the bursty
    // cell exercises the generator's burst path.
    let mut cells = [
        Cell::new(&cache, "saturating", "3SSS", "poisson:0.5"),
        Cell::new(&cache, "queueing", "3SSS", "poisson:0.0005"),
        Cell::new(&cache, "queueing-1ctx", "ST", "bursty:0.0005:4:4"),
    ];
    for cell in &cells {
        let explicit = cell.cfgs[1].clone().with_traffic(TrafficSpec::Closed);
        assert_eq!(
            format!("{:?}", cell.run(&cell.cfgs[1])),
            format!("{:?}", cell.run(&explicit)),
            "{}: explicit closed diverged from the default — fix before benchmarking",
            cell.kind
        );
        let t = cell.run(&cell.cfgs[0]).traffic;
        assert_eq!(
            t.completed + t.shed,
            t.offered,
            "{}: lifecycle accounting leaked a job",
            cell.kind
        );
    }
    snapshot::run("traffic", REPS, &mut cells);
}
