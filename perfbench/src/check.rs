//! Output checks: the conservation invariants every cell must satisfy for
//! any seed, a canonical rendering of a cell's statistics, and the digest
//! the exported bytes are compared against at the recorded seeds.

use crate::workload::{DEFAULT_SEED, HELD_OUT_SEED};
use std::fmt::Write as _;
use vliw_sim::RunStats;

/// FNV-1a, 64 bit: a stable digest of exported bytes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// What the checker needs to know about a cell besides its statistics.
#[derive(Debug, Clone, Copy)]
pub struct CellShape {
    /// Software threads the workload offers.
    pub threads: usize,
    /// Hardware contexts per machine (the scheme's port count).
    pub contexts: u64,
    /// Whether the cell runs an open arrival process.
    pub open: bool,
    /// Whether the cell runs on a fleet.
    pub fleet: bool,
}

/// Check the conservation invariants of one cell. Returns the first
/// violated invariant.
pub fn check_cell(r: &RunStats, shape: CellShape) -> Result<(), String> {
    let sum = |f: fn(&vliw_sim::stats::ThreadStats) -> u64| r.threads.iter().map(f).sum::<u64>();
    if r.cycles == 0 || r.total_instrs == 0 {
        return Err(format!(
            "empty run: {} cycles, {} instructions",
            r.cycles, r.total_instrs
        ));
    }
    // Stall breakdown sums to the per-thread stall counters.
    let sb = &r.stall_breakdown;
    let per_thread = (
        sum(|t| t.istall_cycles),
        sum(|t| t.dstall_cycles),
        sum(|t| t.branch_stall_cycles),
    );
    if (sb.icache, sb.dcache, sb.branch) != per_thread {
        return Err(format!(
            "stall breakdown {:?} != per-thread stalls {per_thread:?}",
            (sb.icache, sb.dcache, sb.branch)
        ));
    }
    if sum(|t| t.instrs) != r.total_instrs {
        return Err(format!(
            "per-thread instructions {} != total {}",
            sum(|t| t.instrs),
            r.total_instrs
        ));
    }
    if r.vertical_waste_cycles != r.engine.idle_span_cycles {
        return Err(format!(
            "vertical waste {} != idle-span cycles {}",
            r.vertical_waste_cycles, r.engine.idle_span_cycles
        ));
    }
    let t = &r.traffic;
    if shape.open {
        if t.offered != shape.threads as u64 {
            return Err(format!("offered {} != {} jobs", t.offered, shape.threads));
        }
        if t.completed + t.shed != t.offered {
            return Err(format!(
                "completed {} + shed {} != offered {}",
                t.completed, t.shed, t.offered
            ));
        }
        if r.threads.len() as u64 != t.completed {
            return Err(format!(
                "{} thread records for {} completions",
                r.threads.len(),
                t.completed
            ));
        }
    } else if t.offered != 0 || t.completed != 0 || t.shed != 0 {
        return Err("closed run carries open-system counts".to_string());
    }
    match (&r.fleet, shape.fleet) {
        (Some(f), true) => {
            if f.routed_total() != t.offered {
                return Err(format!(
                    "routed {} != offered {}",
                    f.routed_total(),
                    t.offered
                ));
            }
            if !f.conserves_arrivals() {
                return Err("a lane's completed + shed != routed".to_string());
            }
            // Lane time: busy until the lane drains, idle after, up to the
            // fleet's makespan.
            let makespan = r.cycles;
            let mut total = 0u64;
            for lane in &f.machines {
                let idle = makespan
                    .checked_sub(lane.cycles)
                    .ok_or_else(|| format!("lane ran {} cycles past makespan", lane.cycles))?;
                total += lane.cycles + idle;
            }
            if total != makespan * f.machines.len() as u64
                || f.machines.iter().map(|m| m.cycles).max() != Some(makespan)
            {
                return Err("busy + idle != makespan x lanes".to_string());
            }
        }
        (None, false) => {
            // Context time: occupied plus empty context-cycles.
            let capacity = r.cycles * shape.contexts;
            let busy = capacity.checked_sub(r.idle_context_cycles).ok_or_else(|| {
                format!(
                    "{} idle context-cycles exceed {capacity}",
                    r.idle_context_cycles
                )
            })?;
            if busy + r.idle_context_cycles != capacity {
                return Err("busy + idle != cycles x contexts".to_string());
            }
        }
        (Some(_), false) => return Err("single-machine cell carries fleet stats".to_string()),
        (None, true) => return Err("fleet cell lacks fleet stats".to_string()),
    }
    Ok(())
}

/// One line rendering every deterministic statistic of a cell. Two runs of
/// the same cell agree exactly iff their lines are equal.
pub fn canonical(r: &RunStats) -> String {
    let mut s = format!(
        "cycles={} instrs={} ops={} vw={} hw={} cs={} mig={} idlectx={} sb={}/{}/{}",
        r.cycles,
        r.total_instrs,
        r.total_ops,
        r.vertical_waste_cycles,
        r.horizontal_waste_slots,
        r.context_switches,
        r.migrations,
        r.idle_context_cycles,
        r.stall_breakdown.icache,
        r.stall_breakdown.dcache,
        r.stall_breakdown.branch,
    );
    for t in &r.threads {
        let _ = write!(
            s,
            " t{}:{}:{}:{}:{}:{}:{}:{:x}",
            t.tid,
            t.instrs,
            t.ops,
            t.dstall_cycles,
            t.istall_cycles,
            t.branch_stall_cycles,
            t.taken_branches,
            t.rng_state
        );
    }
    let t = &r.traffic;
    let _ = write!(
        s,
        " traffic={}/{}/{}/{}/{}/{}",
        t.offered, t.completed, t.shed, t.p50_sojourn, t.p95_sojourn, t.p99_sojourn
    );
    if let Some(f) = &r.fleet {
        for m in &f.machines {
            let _ = write!(
                s,
                " lane:{}:{}:{}:{}:{}",
                m.routed, m.completed, m.shed, m.cycles, m.instrs
            );
        }
    }
    let e = &r.engine;
    let _ = write!(
        s,
        " engine={}/{}/{}/{}",
        e.queue_pushes, e.queue_pops, e.idle_spans, e.idle_span_max
    );
    s
}

/// Digests of the exported bytes recorded at the seed commit, per workload
/// and seed: `paper-all` and `fleet-stream` hash every result set's
/// default `ResultSet::to_json` bytes in plan order, `far-memory` hashes
/// the [`canonical`] line of every cell in grid order.
/// The `paper-all` digest at the default seed equals that of the
/// `paper all --scale 2000 --json` result sets other than `trace`.
pub const RECORDED: [(&str, u64, u64); 6] = [
    ("paper-all", DEFAULT_SEED, 0xf01f_4a66_4aa5_7175),
    ("paper-all", HELD_OUT_SEED, 0xa89f_8246_ed1b_9013),
    ("far-memory", DEFAULT_SEED, 0xb959_b812_0893_fb06),
    ("far-memory", HELD_OUT_SEED, 0x4a00_a795_0820_b8c3),
    ("fleet-stream", DEFAULT_SEED, 0xdd26_6634_050f_c5fd),
    ("fleet-stream", HELD_OUT_SEED, 0x1ed7_a3b7_1f35_6e3a),
];

/// The recorded digest for `(workload, seed)`, if any.
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_sim::plan::{FleetSpec, Plan, Session};

    /// A closed, an open and a fleet cell, short runs.
    fn cells(workers: usize) -> Vec<(RunStats, CellShape)> {
        let open = "poisson:0.001".parse().expect("traffic spec");
        let fleet: FleetSpec = "paper-4x4*2@least-queued".parse().expect("fleet spec");
        let session = Session::with_parallelism(workers);
        let shape = |open, fleet| CellShape {
            threads: 4,
            contexts: 4,
            open,
            fleet,
        };
        let closed = Plan::new().scheme("2SC3").workload("LLHH").scale(50_000);
        let single = closed.clone().arrival(open);
        let fleets = single.clone().fleet(fleet);
        let mut out = Vec::new();
        for (plan, shape) in [
            (closed, shape(false, false)),
            (single, shape(true, false)),
            (fleets, shape(true, true)),
        ] {
            let set = plan.run(&session);
            out.push((set.results()[0].stats.clone(), shape));
        }
        out
    }

    #[test]
    fn real_cells_pass() {
        for (r, shape) in cells(2) {
            assert_eq!(check_cell(&r, shape), Ok(()), "{shape:?}");
        }
    }

    #[test]
    fn perturbed_results_are_caught() {
        type Perturb = fn(&mut RunStats);
        let perturbations: [(&str, Perturb); 6] = [
            ("stall breakdown", |r| r.stall_breakdown.dcache += 1),
            ("thread instructions", |r| r.threads[0].instrs += 1),
            ("idle spans", |r| r.vertical_waste_cycles += 1),
            ("completions", |r| r.traffic.completed += 1),
            ("context time", |r| r.idle_context_cycles = r.cycles * 4 + 1),
            ("lane time", |r| {
                if let Some(f) = &mut r.fleet {
                    f.machines[0].cycles = r.cycles + 1;
                }
            }),
        ];
        for (r, shape) in cells(2) {
            for (what, perturb) in perturbations {
                let mut bad = r.clone();
                perturb(&mut bad);
                let applies = match what {
                    "completions" => shape.open,
                    "context time" => !shape.fleet,
                    "lane time" => shape.fleet,
                    _ => true,
                };
                if applies {
                    assert!(check_cell(&bad, shape).is_err(), "{what} on {shape:?}");
                }
            }
        }
    }

    #[test]
    fn cells_are_worker_count_independent() {
        let one: Vec<String> = cells(1).iter().map(|(r, _)| canonical(r)).collect();
        let two: Vec<String> = cells(2).iter().map(|(r, _)| canonical(r)).collect();
        assert_eq!(one, two);
    }

    #[test]
    fn digest_sees_one_byte() {
        let mut a = Digest::new();
        a.write(b"{\"ipc\":1.5}");
        let mut b = Digest::new();
        b.write(b"{\"ipc\":1.6}");
        assert_ne!(a.value(), b.value());
        assert_eq!(Digest::new().value(), 0xcbf2_9ce4_8422_2325);
    }
}
