//! Integration coverage for the typed experiment-plan API: keyed lookup vs
//! row-major order across worker counts, serialization round-trips,
//! byte-stability of the exhibits, and the scheduler and machine axes
//! (determinism + thread conservation under every built-in policy,
//! per-geometry compilation and pricing).

use vliw_tms::sim::plan::{
    Axis, Cell, Columns, MachineSpec, MemoryModel, Plan, ResultSet, Session, TrafficSpec,
};
use vliw_tms::sim::sched::SchedulerSpec;

fn test_plan() -> Plan {
    Plan::new()
        .schemes(["ST", "1S", "3SSS"])
        .workloads(["idct", "LLHH"])
        .axes([MemoryModel::Real, MemoryModel::Perfect])
        .scale(50_000)
}

/// Keyed lookup agrees with the documented row-major layout (schemes
/// outermost, memory axes innermost) under 1, 2 and 4 workers, and the
/// results themselves are worker-count independent.
#[test]
fn keyed_lookup_matches_row_major_across_worker_counts() {
    let sets: Vec<ResultSet> = [1usize, 2, 4]
        .iter()
        .map(|&par| test_plan().run(&Session::with_parallelism(par)))
        .collect();
    for set in &sets {
        assert_eq!(set.len(), 3 * 2 * 2);
        let mut idx = 0;
        for scheme in set.schemes() {
            for workload in set.workloads() {
                for &memory in set.axes() {
                    let keyed = set
                        .get(&Cell::new(scheme.name(), workload.name()).memory(memory))
                        .unwrap_or_else(|| {
                            panic!("missing {}/{}/{}", scheme.name(), workload.name(), memory)
                        });
                    assert!(
                        std::ptr::eq(keyed, &set.results()[idx]),
                        "cell {idx}: keyed lookup must hit the row-major slot"
                    );
                    idx += 1;
                }
            }
        }
        // iter() walks the same order with the same keys.
        for (i, (key, r)) in set.iter().enumerate() {
            assert!(std::ptr::eq(r, &set.results()[i]));
            assert!(std::ptr::eq(set.get(&Cell::from(&key)).unwrap(), r));
        }
    }
    // Simulations are deterministic: worker count never changes a cell.
    for set in &sets[1..] {
        for (a, b) in sets[0].results().iter().zip(set.results()) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.stats.cycles, b.stats.cycles);
            assert_eq!(a.stats.total_ops, b.stats.total_ops);
        }
    }
}

/// JSON/CSV bytes are identical across worker counts (the acceptance
/// criterion behind `paper --json/--csv`).
#[test]
fn serialization_is_byte_identical_across_worker_counts() {
    let a = test_plan().run(&Session::with_parallelism(1));
    let b = test_plan().run(&Session::with_parallelism(4));
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_csv(), b.to_csv());
}

/// Every `"ipc":<x>` value in the emitted JSON parses back to the exact
/// IPC of the corresponding row-major cell (floats are serialized with
/// shortest round-trip formatting).
#[test]
fn json_round_trips_ipc_values() {
    let set = test_plan().run(&Session::with_parallelism(2));
    let json = set.to_json();
    let parsed: Vec<f64> = json
        .split("\"ipc\":")
        .skip(1)
        .map(|rest| {
            let end = rest
                .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().expect("ipc field parses as f64")
        })
        .collect();
    assert_eq!(parsed.len(), set.len());
    for ((_, r), x) in set.iter().zip(&parsed) {
        assert_eq!(r.ipc(), *x, "JSON ipc must round-trip bit-exactly");
        assert!(*x > 0.0);
    }
}

/// CSV rows carry the grid keys and the same round-trip IPC values.
#[test]
fn csv_round_trips_keys_and_ipc_values() {
    let set = test_plan().run(&Session::with_parallelism(2));
    let csv = set.to_csv();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("scheme,workload,memory,ipc,cycles,instrs,ops")
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), set.len());
    for ((key, r), row) in set.iter().zip(&rows) {
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols[0], key.scheme.name());
        assert_eq!(cols[1], key.workload.name());
        assert_eq!(cols[2], key.memory.label());
        let ipc: f64 = cols[3].parse().expect("ipc column parses");
        assert_eq!(ipc, r.ipc(), "CSV ipc must round-trip bit-exactly");
        let cycles: u64 = cols[4].parse().expect("cycles column parses");
        assert_eq!(cycles, r.stats.cycles);
    }
}

/// A scheme × workload × scheduler grid: deterministic, keyed, and
/// byte-identical in JSON/CSV across 1/2/4 workers.
#[test]
fn scheduler_grid_is_byte_identical_across_worker_counts() {
    let sched_plan = || {
        Plan::new()
            .schemes(["ST", "1S"])
            .workloads(["idct", "LLHH"])
            .schedulers(SchedulerSpec::all())
            .scale(50_000)
    };
    let sets: Vec<ResultSet> = [1usize, 2, 4]
        .iter()
        .map(|&par| sched_plan().run(&Session::with_parallelism(par)))
        .collect();
    for set in &sets {
        assert_eq!(set.len(), 2 * 2 * 4);
        // Keyed lookup hits the documented row-major slot (schedulers
        // between workloads and memory axes).
        for (i, (key, r)) in set.iter().enumerate() {
            let keyed = set.get(&Cell::from(&key)).unwrap();
            assert!(std::ptr::eq(keyed, r), "cell {i}");
            assert!(std::ptr::eq(r, &set.results()[i]), "cell {i}");
        }
    }
    assert_eq!(sets[0].to_json(), sets[1].to_json());
    assert_eq!(sets[0].to_json(), sets[2].to_json());
    assert_eq!(sets[0].to_csv(), sets[1].to_csv());
    assert_eq!(sets[0].to_csv(), sets[2].to_csv());
    // The four policies produce genuinely distinct runs on the
    // oversubscribed machine (4 threads on 2 contexts): scheduling is a
    // real axis, not a relabeling.
    let cycles: Vec<u64> = SchedulerSpec::all()
        .iter()
        .map(|&spec| {
            sets[0]
                .get(&Cell::new("1S", "LLHH").scheduler(spec))
                .unwrap()
                .stats
                .cycles
        })
        .collect();
    assert!(
        cycles.windows(2).any(|w| w[0] != w[1]),
        "all schedulers produced identical runs: {cycles:?}"
    );
}

/// Conservation under every built-in scheduler: the run retires its
/// budget, and no software thread is lost or duplicated across context
/// switches (the pool/contexts handoff is leak-free).
#[test]
fn every_scheduler_conserves_threads_and_retires_the_budget() {
    // 4-thread mixes on 1- and 2-context machines: heavy swapping.
    let set = Plan::new()
        .schemes(["ST", "1S"])
        .workloads(["LLHH", "HHHH"])
        .schedulers(SchedulerSpec::all())
        .scale(100_000)
        .run(&Session::with_parallelism(2));
    // SimConfig::paper(scale 100_000) floors the budget at 1000 instrs.
    let budget = 1_000u64;
    for (key, r) in set.iter() {
        let label = format!(
            "{}/{}/{}",
            key.scheme.name(),
            key.workload.name(),
            key.scheduler
        );
        assert_eq!(&*r.stats.scheduler, key.scheduler.name(), "{label}");
        // Budget retired: the run ended because a thread finished.
        assert!(
            r.stats.threads.iter().any(|t| t.instrs >= budget),
            "{label}: no thread retired the budget"
        );
        // Conservation: exactly the admitted tids, each exactly once.
        let mut tids: Vec<u32> = r.stats.threads.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2, 3], "{label}: thread lost/duplicated");
        // Per-thread ops sum to the core's total: nothing double-counted.
        let thread_ops: u64 = r.stats.threads.iter().map(|t| t.ops).sum();
        assert_eq!(thread_ops, r.stats.total_ops, "{label}");
    }
}

/// A scheme × workload × machine grid: deterministic, keyed, and
/// byte-identical in JSON/CSV across 1/2/4 workers (per-geometry
/// compilation shares one image cache without aliasing).
#[test]
fn machine_grid_is_byte_identical_across_worker_counts() {
    let machine_plan = || {
        Plan::new()
            .schemes(["ST", "2SC3"])
            .workloads(["idct", "LLHH"])
            .machines(MachineSpec::presets())
            .scale(50_000)
    };
    let sets: Vec<ResultSet> = [1usize, 2, 4]
        .iter()
        .map(|&par| machine_plan().run(&Session::with_parallelism(par)))
        .collect();
    for set in &sets {
        assert_eq!(set.len(), 2 * 2 * 4);
        // Keyed lookup hits the documented row-major slot (machines
        // between schedulers and memory axes).
        for (i, (key, r)) in set.iter().enumerate() {
            let keyed = set.get(&Cell::from(&key)).unwrap();
            assert!(std::ptr::eq(keyed, r), "cell {i}");
            assert!(std::ptr::eq(r, &set.results()[i]), "cell {i}");
        }
    }
    assert_eq!(sets[0].to_json(), sets[1].to_json());
    assert_eq!(sets[0].to_json(), sets[2].to_json());
    assert_eq!(sets[0].to_csv(), sets[1].to_csv());
    assert_eq!(sets[0].to_csv(), sets[2].to_csv());
    // The geometries produce genuinely distinct runs: per-machine
    // compilation is a real axis, not a relabeling.
    let cycles: Vec<u64> = MachineSpec::presets()
        .iter()
        .map(|&m| {
            sets[0]
                .get(&Cell::new("2SC3", "LLHH").machine(m))
                .unwrap()
                .stats
                .cycles
        })
        .collect();
    assert!(
        cycles.windows(2).any(|w| w[0] != w[1]),
        "all machines produced identical runs: {cycles:?}"
    );
    // The paper preset in an explicit axis reproduces the default-machine
    // run bit-for-bit (same seed, same compiled image).
    let default_set = Plan::new()
        .schemes(["ST", "2SC3"])
        .workloads(["idct", "LLHH"])
        .scale(50_000)
        .run(&Session::with_parallelism(2));
    for (key, r) in default_set.iter() {
        let swept = sets[0]
            .get(&Cell::from(&key).machine(MachineSpec::Paper4x4))
            .unwrap();
        assert_eq!(swept.stats.cycles, r.stats.cycles);
        assert_eq!(swept.stats.total_ops, r.stats.total_ops);
    }
}

/// Byte-stability contract of the machine axis: default plans keep the
/// historical serialization format; an explicit axis adds the `machine`
/// column/field (and composes with the scheduler axis in header order).
#[test]
fn machine_axis_serialization_is_gated_on_explicitness() {
    let base = || Plan::new().scheme("1S").workload("idct").scale(100_000);
    let default_set = base().run(&Session::with_parallelism(1));
    assert!(!default_set.to_json().contains("\"machine"));
    assert_eq!(
        default_set.to_csv().lines().next(),
        Some("scheme,workload,memory,ipc,cycles,instrs,ops")
    );

    let machine_set = base()
        .machine(MachineSpec::Paper4x4)
        .run(&Session::with_parallelism(1));
    let json = machine_set.to_json();
    assert!(json.contains("\"machines\":[\"paper-4x4\"]"), "{json}");
    assert!(json.contains("\"machine\":\"paper-4x4\""));
    assert_eq!(
        machine_set.to_csv().lines().next(),
        Some("scheme,workload,machine,memory,ipc,cycles,instrs,ops")
    );
    // Same machine, same seed: only the labels differ, not the physics.
    assert_eq!(
        machine_set
            .get(&Cell::new("1S", "idct"))
            .unwrap()
            .stats
            .cycles,
        default_set
            .get(&Cell::new("1S", "idct"))
            .unwrap()
            .stats
            .cycles,
    );

    let both = base()
        .scheduler(SchedulerSpec::Icount)
        .machine(MachineSpec::Narrow8x2)
        .run(&Session::with_parallelism(1));
    assert_eq!(
        both.columns().csv_header(),
        "scheme,workload,scheduler,machine,memory,ipc,cycles,instrs,ops"
    );
    assert!(both
        .to_csv()
        .lines()
        .nth(1)
        .unwrap()
        .starts_with("1S,idct,icount,8x2,real,"));
}

/// The traffic axis: the full closed/Poisson/bursty grid is deterministic
/// and byte-identical in JSON/CSV across 1/2/4 workers (open-system
/// latency quantiles are exact sorted statistics, no RNG in aggregation).
#[test]
fn traffic_grid_is_byte_identical_across_worker_counts() {
    let loads: Vec<TrafficSpec> = ["closed", "poisson:0.002", "bursty:0.001:4:4"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let traffic_plan = || {
        Plan::new()
            .schemes(["ST", "3SSS"])
            .workloads(["idct", "LLHH"])
            .arrivals(loads.clone())
            .scale(50_000)
    };
    let sets: Vec<ResultSet> = [1usize, 2, 4]
        .iter()
        .map(|&par| traffic_plan().run(&Session::with_parallelism(par)))
        .collect();
    for set in &sets {
        assert_eq!(set.len(), 2 * 2 * 3);
        // Keyed lookup hits the documented row-major slot (traffic
        // between machines and memory axes).
        for (i, (key, r)) in set.iter().enumerate() {
            let keyed = set.get(&Cell::from(&key)).unwrap();
            assert!(std::ptr::eq(keyed, r), "cell {i}");
            assert!(std::ptr::eq(r, &set.results()[i]), "cell {i}");
            // Open cells account for every arrival; closed cells stay
            // all-zero.
            let t = &r.stats.traffic;
            if key.traffic.is_closed() {
                assert_eq!(*t, Default::default(), "cell {i}");
            } else {
                assert_eq!(t.offered as usize, key.workload.n_threads(), "cell {i}");
                assert_eq!(t.completed + t.shed, t.offered, "cell {i}");
                assert!(
                    t.p50_sojourn <= t.p95_sojourn && t.p95_sojourn <= t.p99_sojourn,
                    "cell {i}"
                );
            }
        }
    }
    assert_eq!(sets[0].to_json(), sets[1].to_json());
    assert_eq!(sets[0].to_json(), sets[2].to_json());
    assert_eq!(sets[0].to_csv(), sets[1].to_csv());
    assert_eq!(sets[0].to_csv(), sets[2].to_csv());
    // The closed cell of an explicit axis reproduces the default-plan run
    // bit-for-bit: the open-system machinery is inert when closed.
    let default_set = Plan::new()
        .schemes(["ST", "3SSS"])
        .workloads(["idct", "LLHH"])
        .scale(50_000)
        .run(&Session::with_parallelism(2));
    for (key, r) in default_set.iter() {
        let swept = sets[0]
            .get(&Cell::from(&key).traffic(TrafficSpec::Closed))
            .unwrap();
        assert_eq!(swept.stats.cycles, r.stats.cycles);
        assert_eq!(swept.stats.total_ops, r.stats.total_ops);
    }
}

/// Byte-stability contract of the traffic axis: default (closed) plans
/// keep the historical serialization format; an explicit axis adds the
/// `traffic` column/field and the open-system metric columns (composing
/// with the scheduler and machine axes in header order).
#[test]
fn traffic_axis_serialization_is_gated_on_explicitness() {
    let base = || Plan::new().scheme("1S").workload("idct").scale(100_000);
    let default_set = base().run(&Session::with_parallelism(1));
    assert!(!default_set.to_json().contains("\"traffic"));
    assert!(!default_set.to_json().contains("\"offered\""));
    assert_eq!(
        default_set.to_csv().lines().next(),
        Some("scheme,workload,memory,ipc,cycles,instrs,ops")
    );

    let spec: TrafficSpec = "poisson:0.005".parse().unwrap();
    let traffic_set = base().arrival(spec).run(&Session::with_parallelism(1));
    let json = traffic_set.to_json();
    assert!(json.contains("\"traffics\":[\"poisson:0.005\"]"), "{json}");
    assert!(json.contains("\"traffic\":\"poisson:0.005\""));
    assert!(json.contains("\"offered\":1"), "{json}");
    assert_eq!(
        traffic_set.to_csv().lines().next(),
        Some("scheme,workload,traffic,memory,ipc,cycles,instrs,ops,offered,completed,shed,p50_sojourn,p95_sojourn,p99_sojourn,mean_queue_depth")
    );

    let all = base()
        .scheduler(SchedulerSpec::Icount)
        .machine(MachineSpec::Narrow8x2)
        .arrival(spec)
        .run(&Session::with_parallelism(1));
    assert_eq!(
        all.columns().csv_header(),
        "scheme,workload,scheduler,machine,traffic,memory,ipc,cycles,instrs,ops,offered,\
         completed,shed,p50_sojourn,p95_sojourn,p99_sojourn,mean_queue_depth"
    );
    assert!(all
        .to_csv()
        .lines()
        .nth(1)
        .unwrap()
        .starts_with("1S,idct,icount,8x2,poisson:0.005,real,"));
}

/// Combined exports shape rows to an imposed column union: a set without
/// an explicit machine axis can emit the `machine` column (carrying its
/// default geometry) so it shares a header with a machine-sweeping set,
/// but a swept axis can never be dropped.
#[test]
fn csv_rows_shaped_emits_forced_axis_columns() {
    let default_set = Plan::new()
        .scheme("1S")
        .workload("idct")
        .scale(100_000)
        .run(&Session::with_parallelism(1));
    // Its own serialization has no machine column...
    assert!(!default_set.to_csv().contains("paper-4x4"));
    // ...but shaped to the union with a machine-sweeping set's columns it
    // carries the default geometry, and the row matches the shared header.
    let machine = Columns::default().with(Axis::Machine);
    assert_eq!(default_set.columns() | machine, machine);
    let shaped = default_set.csv_rows(Some("t"), machine);
    assert!(shaped.starts_with("t,1S,idct,paper-4x4,real,"), "{shaped}");
    assert_eq!(
        machine.csv_header(),
        "scheme,workload,machine,memory,ipc,cycles,instrs,ops"
    );
    let both = default_set.csv_rows(None, machine.with(Axis::Scheduler));
    assert!(both.starts_with("1S,idct,paper-random,paper-4x4,real,"));
    // Forcing the traffic column on a closed set carries the closed
    // default plus all-zero open-system metrics.
    let traffic = Columns::default().with(Axis::Traffic);
    let with_traffic = default_set.csv_rows(None, traffic);
    assert!(
        with_traffic.starts_with("1S,idct,closed,real,"),
        "{with_traffic}"
    );
    assert!(
        with_traffic.trim_end().ends_with(",0,0,0,0,0,0,0"),
        "{with_traffic}"
    );
    assert_eq!(traffic.csv_header(), "scheme,workload,traffic,memory,ipc,cycles,instrs,ops,offered,completed,shed,p50_sojourn,p95_sojourn,p99_sojourn,mean_queue_depth");
}

#[test]
#[should_panic(expected = "cannot drop a swept axis column")]
fn csv_rows_shaped_refuses_to_drop_a_swept_axis() {
    let set = Plan::new()
        .scheme("1S")
        .workload("idct")
        .machines([MachineSpec::Paper4x4, MachineSpec::Narrow8x2])
        .scale(100_000)
        .run(&Session::with_parallelism(1));
    let _ = set.csv_rows(None, Columns::default());
}

/// Fields in one CSV record, with RFC-4180 quoting.
fn csv_fields(record: &str) -> usize {
    let mut quoted = false;
    let commas = record
        .chars()
        .filter(|&c| {
            quoted ^= c == '"';
            c == ',' && !quoted
        })
        .count();
    commas + 1
}

/// Every row matches its header under every column set a combined export
/// can force: closed, open and fleet cells, shaped to each superset of
/// their own columns over the optional axes.
#[test]
fn csv_rows_match_the_header_under_every_forced_column_set() {
    let optional = [Axis::Scheduler, Axis::Machine, Axis::Fleet, Axis::Traffic];
    let arrivals: TrafficSpec = "poisson:0.001".parse().unwrap();
    let closed = || Plan::new().scheme("2SC3").workload("LLHH").scale(50_000);
    let open = || closed().arrival(arrivals);
    let fleet = || open().fleet("paper-4x4*2@least-queued".parse().unwrap());
    for plan in [closed(), open(), fleet()] {
        let set = plan.run(&Session::with_parallelism(1));
        for forced in 0..1u32 << optional.len() {
            let cols = optional
                .iter()
                .enumerate()
                .filter(|&(bit, _)| forced & 1 << bit != 0)
                .fold(set.columns(), |cols, (_, &axis)| cols.with(axis));
            let header = cols.csv_header();
            let rows = set.csv_rows(None, cols);
            assert_eq!(rows.lines().count(), 1, "one cell, one row: {rows}");
            assert_eq!(
                csv_fields(rows.trim_end()),
                csv_fields(&header),
                "{header}\n{rows}"
            );
        }
    }
}

/// The per-thread breakdown helper exposes `RunStats::threads` keyed by
/// the grid, including owned (non-`'static`) benchmark names.
#[test]
fn thread_breakdowns_are_keyed() {
    let set = test_plan().run(&Session::with_parallelism(2));
    let threads = &set.get(&Cell::new("3SSS", "LLHH")).unwrap().stats.threads;
    assert_eq!(threads.len(), 4);
    let names: Vec<&str> = threads.iter().map(|t| &*t.name).collect();
    assert_eq!(names, ["mcf", "blowfish", "x264", "idct"]);
    assert!(set.get(&Cell::new("3SSS", "nope")).is_none());
}

/// The `RunStats` stall-breakdown satellite: the per-kind map is populated
/// from the same counters the tracer observes, so it must sum exactly to
/// the threads' total stall cycles — per kind and in total — under 1, 2
/// and 4 workers, with worker-count-independent values.
#[test]
fn stall_breakdown_conserves_thread_stalls_across_worker_counts() {
    let sets: Vec<ResultSet> = [1usize, 2, 4]
        .iter()
        .map(|&par| test_plan().run(&Session::with_parallelism(par)))
        .collect();
    for set in &sets {
        for (key, r) in set.iter() {
            let b = &r.stats.stall_breakdown;
            let threads = &r.stats.threads;
            let label = format!(
                "{}/{}/{}",
                key.scheme.name(),
                key.workload.name(),
                key.memory
            );
            assert_eq!(
                b.icache,
                threads.iter().map(|t| t.istall_cycles).sum::<u64>(),
                "{label}: I$ bucket"
            );
            assert_eq!(
                b.dcache,
                threads.iter().map(|t| t.dstall_cycles).sum::<u64>(),
                "{label}: D$ bucket"
            );
            assert_eq!(
                b.branch,
                threads.iter().map(|t| t.branch_stall_cycles).sum::<u64>(),
                "{label}: branch bucket"
            );
            let total: u64 = threads
                .iter()
                .map(|t| t.dstall_cycles + t.istall_cycles + t.branch_stall_cycles)
                .sum();
            assert_eq!(b.total(), total, "{label}: breakdown must sum to total");
            assert!(b.total() > 0, "{label}: a real run always stalls somewhere");
        }
    }
    // Worker count never changes the decomposition.
    for set in &sets[1..] {
        for (a, b) in sets[0].results().iter().zip(set.results()) {
            assert_eq!(a.stats.stall_breakdown, b.stats.stall_breakdown);
        }
    }
}

/// Conservation under idle-cycle skipping: the default core is the
/// event-driven one, which accounts all-stalled spans in closed form
/// instead of ticking them — every aggregate identity must still hold
/// exactly. The packet histogram counts every cycle (skipped spans land
/// in the empty bucket), the merge network's empty-cycle count equals the
/// core's vertical waste, the slot budget balances
/// (`ops + horizontal + vertical·width = cycles·width`), and the traced
/// stall breakdown still reproduces the aggregate decomposition.
#[test]
fn conservation_holds_when_idle_cycles_are_skipped() {
    use vliw_tms::sim::{runner, CoreModel};
    use vliw_tms::trace::StallBreakdown;
    for model in [CoreModel::EventDriven, CoreModel::CycleAccurate] {
        let plan = Plan::new()
            .schemes(["ST", "1S", "3SSS"])
            .workloads(["idct", "LLHH"])
            .scale(50_000)
            .core_model(model);
        let session = Session::with_parallelism(2);
        runner::run_jobs(
            plan.jobs(),
            |key| {
                let (result, trace) = plan.trace_cell(&session, key);
                let s = &result.stats;
                let label = format!("{model}: {}/{}", key.scheme.name(), key.workload.name());
                let width = u64::from(s.issue_width);
                let hist_cycles: u64 = s.merge.packet_histogram().iter().sum();
                assert_eq!(
                    hist_cycles, s.cycles,
                    "{label}: histogram counts all cycles"
                );
                // Empty packets (no thread issued) are a subset of
                // vertical waste (no *ops* issued): a lone-nop packet has
                // a thread but zero ops. Skipped spans land in both.
                assert!(
                    s.merge.empty_cycles() <= s.vertical_waste_cycles,
                    "{label}: empty cycles exceed vertical waste"
                );
                assert_eq!(
                    s.total_ops + s.horizontal_waste_slots + s.vertical_waste_cycles * width,
                    s.cycles * width,
                    "{label}: slot budget must balance"
                );
                assert!(
                    s.vertical_waste_cycles > 0,
                    "{label}: no all-stalled span — the skip path went unexercised"
                );
                assert_eq!(
                    StallBreakdown::from_events(&trace.events),
                    s.stall_breakdown,
                    "{label}: trace must reproduce the stall decomposition"
                );
                assert_eq!(
                    s.stall_breakdown.total(),
                    s.threads
                        .iter()
                        .map(|t| t.dstall_cycles + t.istall_cycles + t.branch_stall_cycles)
                        .sum::<u64>(),
                    "{label}: breakdown sums to per-thread stalls"
                );
            },
            2,
        );
    }
}

/// Traced cells: every cell's full event stream reproduces the cell's
/// aggregate stall decomposition exactly (the tracer's conservation
/// invariant) when the cells are traced on 1, 2 and 4 workers sharing one
/// session, and trace exports are byte-identical across worker counts.
#[test]
fn traced_cells_conserve_and_export_byte_identically() {
    use vliw_tms::sim::runner;
    use vliw_tms::trace::{StallBreakdown, TraceFormat};
    let plan = Plan::new()
        .schemes(["1S", "2SC3"])
        .workload("LLHH")
        .scale(50_000);
    let mut exports: Vec<Vec<String>> = Vec::new();
    for par in [1usize, 2, 4] {
        let session = Session::with_parallelism(par);
        let cells = runner::run_jobs(
            plan.jobs(),
            |key| {
                let (result, trace) = plan.trace_cell(&session, key);
                assert_eq!(
                    StallBreakdown::from_events(&trace.events),
                    result.stats.stall_breakdown,
                    "{}/{}: trace must reproduce the aggregate decomposition",
                    key.scheme.name(),
                    key.workload.name()
                );
                assert_eq!(trace.end_cycle, result.stats.cycles);
                [TraceFormat::Chrome, TraceFormat::Jsonl, TraceFormat::Csv]
                    .map(|f| f.export(&trace))
            },
            par,
        );
        exports.push(cells.concat());
    }
    assert_eq!(exports[0].len(), 2 * 3, "two cells, three formats");
    assert_eq!(exports[0], exports[1], "1 vs 2 workers");
    assert_eq!(exports[0], exports[2], "1 vs 4 workers");
    // The chrome export is structurally a trace_event JSON document.
    assert!(exports[0][0].starts_with("{\"traceEvents\":["));
}

/// The fleet axis (PR 9): a schemes x fleets grid under one arrival
/// process serializes byte-identically across worker counts, keyed
/// lookup agrees with `iter`, and arrivals are conserved
/// fleet-wide (`completed + shed == offered`, routing counts sum to
/// offered).
#[test]
fn fleet_grid_is_worker_count_independent_and_conserves_arrivals() {
    use vliw_tms::sim::plan::FleetSpec;
    let fleets: Vec<FleetSpec> = ["paper-4x4*2", "edge@least-queued"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let plan = || {
        Plan::new()
            .schemes(["1S", "2SC3"])
            .workload("LLHH")
            .fleets(fleets.iter().cloned())
            .arrival("poisson:0.001".parse().unwrap())
            .scale(50_000)
    };
    let sets: Vec<ResultSet> = [1usize, 2, 4]
        .iter()
        .map(|&par| plan().run(&Session::with_parallelism(par)))
        .collect();
    for set in &sets[1..] {
        assert_eq!(sets[0].to_json(), set.to_json(), "JSON across workers");
        assert_eq!(sets[0].to_csv(), set.to_csv(), "CSV across workers");
    }
    let set = &sets[0];
    assert!(set.columns().has(Axis::Fleet));
    assert_eq!(set.len(), 2 * 2);
    for (key, r) in set.iter() {
        let fleet = key.fleet.as_ref().expect("every cell is a fleet cell");
        let keyed = set.get(&Cell::from(&key)).unwrap();
        assert!(std::ptr::eq(keyed, r), "keyed lookup hits the iter slot");
        let fs = r
            .stats
            .fleet
            .as_ref()
            .expect("fleet cells carry FleetStats");
        assert_eq!(fs.n_machines(), fleet.n_machines());
        assert!(fs.conserves_arrivals());
        assert_eq!(
            r.stats.traffic.completed + r.stats.traffic.shed,
            r.stats.traffic.offered,
            "{}/{}: fleet-wide conservation",
            key.scheme.name(),
            fleet.label()
        );
        assert_eq!(
            fs.routed_total(),
            r.stats.traffic.offered,
            "every arrival is routed exactly once"
        );
        // The summed machine width shows up in the merged stats.
        let width: usize = fleet
            .machines()
            .iter()
            .map(|m| m.config().total_issue())
            .sum();
        assert_eq!(r.stats.issue_width as usize, width);
    }
    // The fleet column and metric columns appear, keyed by canonical label.
    let csv = set.to_csv();
    let header = csv.lines().next().unwrap().to_string();
    assert!(header.contains(",fleet,"), "{header}");
    assert!(header.ends_with(",fleet_machines,fleet_routed,fleet_shed,fleet_p50_sojourn,fleet_p95_sojourn,fleet_p99_sojourn"), "{header}");
    assert!(csv.contains("paper-4x4*2"), "{csv}");
    assert!(set
        .to_json()
        .contains("\"fleets\":[\"paper-4x4*2\",\"edge@least-queued\"]"));
}

/// The fleet axis stays out of every default export: a plan that never
/// names a fleet serializes without a fleet column/field (the historical
/// byte format), and `RunStats::fleet` is `None` on single-machine cells.
#[test]
fn fleet_axis_stays_out_of_default_bytes() {
    let set = Plan::new()
        .scheme("1S")
        .workload("idct")
        .scale(100_000)
        .run(&Session::with_parallelism(1));
    assert!(!set.columns().has(Axis::Fleet));
    assert!(
        !set.to_csv().contains("fleet"),
        "no fleet column by default"
    );
    assert!(
        !set.to_json().contains("fleet"),
        "no fleet field by default"
    );
    assert!(set.results()[0].stats.fleet.is_none());
    // Shaped to a forced fleet union, the cell carries its single machine
    // as a singleton fleet (a machine spec is a valid fleet spelling) and
    // all-degenerate fleet metrics.
    let fleet = Columns::default().with(Axis::Fleet);
    let shaped = set.csv_rows(None, fleet);
    assert!(shaped.starts_with("1S,idct,paper-4x4,real,"), "{shaped}");
    let n_commas_header = fleet.csv_header().matches(',').count();
    assert_eq!(
        shaped.trim_end().matches(',').count(),
        n_commas_header,
        "shaped row matches the forced-fleet header: {shaped}"
    );
}

/// The deterministic metrics export is byte-identical across worker
/// counts and across both core models (the tentpole's determinism
/// contract): same grid → same `--metrics` bytes, always. Timings are
/// excluded by `with_timings = false`, which is exactly what the CLI
/// emits by default.
#[test]
fn metrics_export_is_byte_identical_across_workers_and_core_models() {
    use vliw_tms::sim::telemetry::Registry;
    use vliw_tms::sim::CoreModel;
    let export = |par: usize, model: CoreModel| {
        let reg = Registry::new();
        let set = test_plan()
            .core_model(model)
            .run_metered(&Session::with_parallelism(par), &reg);
        assert_eq!(set.len(), 3 * 2 * 2);
        let report = reg.report();
        (report.to_prom(false), report.to_json(false))
    };
    let (prom1, json1) = export(1, CoreModel::EventDriven);
    for par in [2usize, 4] {
        let (prom, json) = export(par, CoreModel::EventDriven);
        assert_eq!(prom1, prom, "prom bytes across {par} workers");
        assert_eq!(json1, json, "json bytes across {par} workers");
    }
    let (prom_ca, json_ca) = export(2, CoreModel::CycleAccurate);
    assert_eq!(prom1, prom_ca, "prom bytes across core models");
    assert_eq!(json1, json_ca, "json bytes across core models");
}

/// The registry's conservation laws hold on a metered fleet sweep —
/// cells recorded == grid size, cache hits + misses == requests, fleet
/// busy + idle lane-cycles == makespan × lanes — and metering is
/// observation only: every metered cell's statistics, and the set's JSON
/// and CSV bytes, equal the unmetered run's.
#[test]
fn metered_run_conserves_and_matches_unmetered_results() {
    use vliw_tms::sim::metrics::names;
    use vliw_tms::sim::plan::FleetSpec;
    use vliw_tms::sim::telemetry::Registry;
    let fleet: FleetSpec = "paper-4x4*2".parse().unwrap();
    let plan = || {
        Plan::new()
            .schemes(["1S", "2SC3"])
            .workload("LLHH")
            .fleet(fleet.clone())
            .arrival("poisson:0.001".parse().unwrap())
            .scale(50_000)
    };
    let reg = Registry::new();
    let metered = plan().run_metered(&Session::with_parallelism(2), &reg);
    let c = |name: &str| reg.counter_value(name).expect("schema metric");

    assert_eq!(c(names::CELLS_TOTAL), metered.len() as u64);
    assert_eq!(c(names::CELLS_COMPLETED), metered.len() as u64);
    assert_eq!(
        c(names::CACHE_HITS) + c(names::CACHE_MISSES),
        c(names::CACHE_REQUESTS),
        "cache conservation"
    );
    assert!(c(names::CACHE_REQUESTS) > 0, "the sweep compiles something");
    assert_eq!(
        c(names::FLEET_BUSY) + c(names::FLEET_IDLE),
        c(names::FLEET_MAKESPAN_LANE_CYCLES),
        "lane-cycle conservation"
    );
    let sim_cycles: u64 = metered.results().iter().map(|r| r.stats.cycles).sum();
    assert_eq!(c(names::SIM_CYCLES), sim_cycles, "harvest sums the grid");

    // A live registry never perturbs the simulated numbers or the exports.
    let base = plan().run(&Session::with_parallelism(2));
    for ((ka, a), (kb, b)) in base.iter().zip(metered.iter()) {
        assert_eq!(format!("{ka:?}"), format!("{kb:?}"));
        assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
    }
    assert_eq!(base.to_json(), metered.to_json());
    assert_eq!(base.to_csv(), metered.to_csv());
}

/// A workload that does not compile for the plan's machine reaches the
/// caller of `Plan::run` with the worker's own panic message, which names
/// the compile error, not as "a scoped thread panicked".
#[test]
#[should_panic(expected = "no cluster has a mul unit")]
fn run_re_raises_the_workers_compile_panic() {
    Plan::new()
        .schemes(["ST", "1S"])
        .workload("idct")
        .machine("4x4+0+1".parse().unwrap())
        .scale(100_000)
        .run(&Session::with_parallelism(2));
}

/// Run `plan` metered on `session`: the set and the number of its cells
/// the session memo served (`vliw_cells_memoized_total`).
fn run_counting_memo(plan: &Plan, session: &Session) -> (ResultSet, u64) {
    use vliw_tms::sim::metrics::names::CELLS_MEMOIZED;
    use vliw_tms::sim::telemetry::Registry;
    let reg = Registry::new();
    let set = plan.run_metered(session, &reg);
    let served = reg
        .counter_value(CELLS_MEMOIZED)
        .expect("a registered counter");
    (set, served)
}

/// Every cell's names and full statistics, RNG state included.
fn stats_dump(set: &ResultSet) -> Vec<String> {
    set.results()
        .iter()
        .map(|r| format!("{}/{} {:?}", r.scheme, r.workload, r.stats))
        .collect()
}

/// Figure 10 after Figure 4 on one session serves the 18 cells of fig4's
/// 1S and 3SSS columns from fig4's set, and every cell equals a fresh
/// session's down to the RNG state.
#[test]
fn memo_serves_fig4_columns_to_fig10_bit_identically() {
    use vliw_tms::sim::experiments::{fig10_plan, fig4_plan};
    const SCALE: u64 = 100_000;
    let session = Session::with_parallelism(2);
    let (_, served) = run_counting_memo(&fig4_plan(SCALE), &session);
    assert_eq!(served, 0, "a fresh session serves nothing");
    let (warm, served) = run_counting_memo(&fig10_plan(SCALE), &session);
    assert_eq!(served, 18);
    let fresh = fig10_plan(SCALE).run(&Session::with_parallelism(2));
    assert_eq!(stats_dump(&warm), stats_dump(&fresh));
}

/// An open plan and a fleet plan, each run twice on one session: the
/// second run serves every cell, its statistics equal the first run's,
/// and it makes as many image lookups as the first run, building none.
#[test]
fn a_repeated_open_or_fleet_plan_is_served_whole() {
    use vliw_tms::sim::plan::FleetSpec;
    let arrivals: TrafficSpec = "poisson:0.001".parse().unwrap();
    let fleets: Vec<FleetSpec> = ["paper-4x4*2", "edge"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let open = Plan::new()
        .schemes(["1S", "2SC3"])
        .workload("LLHH")
        .arrival(arrivals)
        .scale(50_000);
    let fleet = Plan::new()
        .scheme("2SC3")
        .workload("LLHH")
        .fleets(fleets)
        .arrival(arrivals)
        .scale(50_000);
    for plan in [open, fleet] {
        let session = Session::with_parallelism(2);
        let cache = session.cache();
        let run = || {
            let (requests, images) = (cache.requests(), cache.len());
            let (set, served) = run_counting_memo(&plan, &session);
            let dump = stats_dump(&set);
            (
                dump,
                served,
                cache.requests() - requests,
                cache.len() - images,
            )
        };
        let (first, first_served, first_requests, first_images) = run();
        let (second, second_served, second_requests, second_images) = run();
        assert_eq!(first_served, 0);
        assert_eq!(second_served, first.len() as u64, "every cell is served");
        assert_eq!(second, first);
        assert_eq!(
            second_requests, first_requests,
            "a served cell repeats its image lookups"
        );
        assert!(first_images > 0, "the first run builds images");
        assert_eq!(second_images, 0, "a served cell builds no image");
    }
}

/// The core model is part of a cell's identity: the oracle never takes an
/// event-driven result from the memo, though both agree.
#[test]
fn memo_never_serves_one_core_model_for_another() {
    use vliw_tms::sim::CoreModel;
    let plan = |model| {
        Plan::new()
            .schemes(["ST", "2SC3"])
            .workload("LLHH")
            .core_model(model)
            .scale(100_000)
    };
    let session = Session::with_parallelism(2);
    let (fast, _) = run_counting_memo(&plan(CoreModel::EventDriven), &session);
    let (oracle, served) = run_counting_memo(&plan(CoreModel::CycleAccurate), &session);
    assert_eq!(served, 0);
    for (a, b) in fast.results().iter().zip(oracle.results()) {
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.total_instrs, b.stats.total_instrs);
    }
}

/// Traced cells bypass the memo: on a warmed session `trace_cell` still
/// simulates every cell, hands back its events and the statistics `run`
/// gave, and tracing every cell leaves nothing in the memo for a later
/// run to serve.
#[test]
fn traced_runs_neither_read_nor_fill_the_memo() {
    let plan = Plan::new()
        .schemes(["1S", "2SC3"])
        .workload("LLHH")
        .scale(100_000);
    let session = Session::with_parallelism(2);
    let set = plan.run(&session);
    for (key, planned) in set.iter() {
        let (result, trace) = plan.trace_cell(&session, &key);
        assert!(!trace.events.is_empty(), "the cell was simulated");
        assert_eq!(
            format!("{:?}", result.stats),
            format!("{:?}", planned.stats)
        );
    }

    let session = Session::with_parallelism(2);
    for key in plan.jobs() {
        plan.trace_cell(&session, &key);
    }
    let (_, served) = run_counting_memo(&plan, &session);
    assert_eq!(served, 0);
}
