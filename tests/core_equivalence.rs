//! Differential oracle suite for the event-driven core.
//!
//! The event-driven fast core (`CoreModel::EventDriven`, the default)
//! skips all-stalled spans instead of ticking them; the cycle-accurate
//! loop (`CoreModel::CycleAccurate`) is kept as the oracle. The contract
//! is *bit-identical observable state*: these tests run the same
//! scheme × workload × scheduler × geometry × memory grids on both cores
//! and assert identical serialized exhibits (`to_json()`/`to_csv()`
//! bytes), identical full `RunStats` (including retire counts, the merge
//! histogram, cache counters and per-thread final RNG state — proving the
//! same branch draws in the same order), and identical cycle-level trace
//! event streams — under 1, 2 and 4 sweep workers.

use vliw_tms::sim::plan::{MachineSpec, MemoryModel, Plan, Session, TrafficSpec};
use vliw_tms::sim::sched::SchedulerSpec;
use vliw_tms::sim::CoreModel;
use vliw_tms::trace::TraceEvent;

/// The scheduler grid: single-context ST (heavy timeslicing of 4-thread
/// mixes), 2-context 1S and 4-context 3SSS, over a compute-leaning
/// workload (idct, 1 thread — undersubscription exercises empty-context
/// skipping) and the memory-bound LLHH mix (mcf's misses exercise
/// stall-span skipping), under every built-in OS policy.
fn sched_grid() -> Plan {
    Plan::new()
        .schemes(["ST", "1S", "3SSS"])
        .workloads(["idct", "LLHH"])
        .schedulers(SchedulerSpec::all())
        .scale(50_000)
}

/// Full-state comparison of two result sets, cell by cell. `RunStats`'
/// `Debug` form covers every counter (threads with RNG state, merge
/// histogram, caches, OS metrics, stall breakdown), so string equality is
/// an exhaustive state check; the targeted asserts before it exist to
/// give readable failures.
fn assert_cells_identical(
    oracle: &vliw_tms::sim::ResultSet,
    fast: &vliw_tms::sim::ResultSet,
    label: &str,
) {
    assert_eq!(oracle.len(), fast.len(), "{label}: grid size");
    for (a, b) in oracle.results().iter().zip(fast.results()) {
        let cell = format!("{label}: {}/{}", a.scheme, a.workload);
        assert_eq!(a.stats.cycles, b.stats.cycles, "{cell}: cycles");
        assert_eq!(a.stats.total_instrs, b.stats.total_instrs, "{cell}");
        assert_eq!(
            a.stats.vertical_waste_cycles, b.stats.vertical_waste_cycles,
            "{cell}: skipped spans must account vertical waste exactly"
        );
        for (ta, tb) in a.stats.threads.iter().zip(&b.stats.threads) {
            assert_eq!(
                (ta.tid, ta.instrs, ta.ops),
                (tb.tid, tb.instrs, tb.ops),
                "{cell}: thread {} retire counts",
                ta.name
            );
            assert_eq!(
                ta.rng_state, tb.rng_state,
                "{cell}: thread {} drew different branch outcomes",
                ta.name
            );
        }
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "{cell}: full RunStats state"
        );
    }
}

/// The headline contract: fast-core exhibits are byte-identical to the
/// oracle's across the scheduler grid and across 1/2/4 sweep workers.
#[test]
fn exhibit_bytes_identical_across_cores_and_worker_counts() {
    let oracle = sched_grid()
        .core_model(CoreModel::CycleAccurate)
        .run(&Session::with_parallelism(1));
    let json = oracle.to_json();
    let csv = oracle.to_csv();
    for par in [1usize, 2, 4] {
        let fast = sched_grid()
            .core_model(CoreModel::EventDriven)
            .run(&Session::with_parallelism(par));
        assert_eq!(fast.to_json(), json, "JSON bytes, {par} workers");
        assert_eq!(fast.to_csv(), csv, "CSV bytes, {par} workers");
        assert_cells_identical(&oracle, &fast, &format!("{par} workers"));
    }
}

/// The default core model IS the fast core: an unconfigured plan must
/// reproduce the oracle bit-for-bit (this is what pins the `paper
/// --json/--csv` compatibility bytes across the core swap).
#[test]
fn default_plan_matches_the_oracle() {
    let plan = || {
        Plan::new()
            .schemes(["ST", "1S"])
            .workload("LLHH")
            .scale(50_000)
    };
    let oracle = plan()
        .core_model(CoreModel::CycleAccurate)
        .run(&Session::with_parallelism(1));
    let default = plan().run(&Session::with_parallelism(1));
    assert_eq!(oracle.to_json(), default.to_json());
    assert_eq!(oracle.to_csv(), default.to_csv());
    assert_cells_identical(&oracle, &default, "default model");
}

/// Geometry × memory grid: every machine preset, real and perfect memory.
/// Perfect memory removes cache stalls entirely (wakeups come only from
/// branch bubbles), narrow geometries change the issue fabric — both
/// cores must still agree byte-for-byte.
#[test]
fn machine_and_memory_grid_matches_the_oracle() {
    let plan = || {
        Plan::new()
            .schemes(["1S", "2SC3"])
            .workload("LLHH")
            .machines(MachineSpec::presets())
            .axes([MemoryModel::Real, MemoryModel::Perfect])
            .scale(50_000)
    };
    let oracle = plan()
        .core_model(CoreModel::CycleAccurate)
        .run(&Session::with_parallelism(2));
    let fast = plan()
        .core_model(CoreModel::EventDriven)
        .run(&Session::with_parallelism(2));
    assert_eq!(oracle.to_json(), fast.to_json());
    assert_eq!(oracle.to_csv(), fast.to_csv());
    assert_cells_identical(&oracle, &fast, "machine×memory grid");
}

/// Open-system grid: arrival events land on the OS event queue between
/// timeslice expiries, jobs arrive onto idle and busy machines alike, and
/// the admission queue sheds under the bursty overload point — both cores
/// must agree byte-for-byte on every arrival process, including the
/// latency quantiles and queue accounting in `RunStats::traffic`.
#[test]
fn open_system_grid_matches_the_oracle() {
    let loads: Vec<TrafficSpec> = ["poisson:0.002", "bursty:0.001:4:4", "diurnal:0.001:3:20000"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let plan = || {
        Plan::new()
            .schemes(["ST", "1S", "3SSS"])
            .workloads(["idct", "LLHH"])
            .arrivals(loads.clone())
            .scale(50_000)
    };
    let oracle = plan()
        .core_model(CoreModel::CycleAccurate)
        .run(&Session::with_parallelism(1));
    let fast = plan()
        .core_model(CoreModel::EventDriven)
        .run(&Session::with_parallelism(2));
    assert_eq!(oracle.to_json(), fast.to_json());
    assert_eq!(oracle.to_csv(), fast.to_csv());
    assert_cells_identical(&oracle, &fast, "open-system grid");
    // The grid genuinely exercised the open path: some cell queued.
    assert!(
        fast.results()
            .iter()
            .any(|r| r.stats.traffic.mean_queue_depth > 0.0),
        "no cell ever queued — the grid is not testing admission"
    );
}

/// Fleet grid: N independent machines advance in lockstep behind a
/// dispatcher, each fed through its own admission queue. Both cores must
/// agree byte-for-byte on every fleet shape — routing decisions observe
/// queue depths and in-flight counts, so any core divergence inside one
/// lane would cascade into different routing and wildly different stats.
#[test]
fn fleet_grid_matches_the_oracle() {
    use vliw_tms::sim::plan::FleetSpec;
    let fleets: Vec<FleetSpec> = [
        "paper-4x4*2",
        "edge@round-robin",
        "edge@least-queued",
        "edge",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    let plan = || {
        Plan::new()
            .schemes(["1S", "2SC3"])
            .workload("LLHH")
            .fleets(fleets.clone())
            .arrival("poisson:0.001".parse().unwrap())
            .scale(50_000)
    };
    let oracle = plan()
        .core_model(CoreModel::CycleAccurate)
        .run(&Session::with_parallelism(1));
    let fast = plan()
        .core_model(CoreModel::EventDriven)
        .run(&Session::with_parallelism(2));
    assert_eq!(oracle.to_json(), fast.to_json());
    assert_eq!(oracle.to_csv(), fast.to_csv());
    assert_cells_identical(&oracle, &fast, "fleet grid");
    // Both cores routed every arrival the same way (FleetStats is part of
    // the Debug form compared above; spell the headline counter out too).
    for (a, b) in oracle.results().iter().zip(fast.results()) {
        let fa = a.stats.fleet.as_ref().unwrap();
        let fb = b.stats.fleet.as_ref().unwrap();
        let routed_a: Vec<u64> = fa.machines.iter().map(|m| m.routed).collect();
        let routed_b: Vec<u64> = fb.machines.iter().map(|m| m.routed).collect();
        assert_eq!(
            routed_a, routed_b,
            "{}/{}: routing split",
            a.scheme, a.workload
        );
        assert!(fa.conserves_arrivals());
    }
}

/// The strictest observable: complete cycle-level trace event streams.
/// Retire *order* (every `BundleIssue` with its cycle/context/tid), every
/// stall charge, every cache miss, every merge transition and OS event
/// must appear identically, in the same emission order.
#[test]
fn trace_event_streams_are_bit_identical() {
    let collect = |model: CoreModel| {
        let plan = Plan::new()
            .schemes(["ST", "1S", "2SC3"])
            .workload("LLHH")
            .scale(50_000)
            .core_model(model);
        let session = Session::with_parallelism(1);
        plan.jobs()
            .iter()
            .map(|key| {
                let (result, trace) = plan.trace_cell(&session, key);
                (
                    key.scheme.name().to_string(),
                    trace.events,
                    result.stats.cycles,
                )
            })
            .collect::<Vec<_>>()
    };
    let oracle = collect(CoreModel::CycleAccurate);
    let fast = collect(CoreModel::EventDriven);
    assert_eq!(oracle.len(), fast.len());
    for ((scheme, ev_a, cycles_a), (_, ev_b, cycles_b)) in oracle.iter().zip(&fast) {
        assert_eq!(cycles_a, cycles_b, "{scheme}: run length");
        for (i, (a, b)) in ev_a.iter().zip(ev_b.iter()).enumerate() {
            assert_eq!(a, b, "{scheme}: streams diverge at event {i}");
        }
        assert_eq!(ev_a.len(), ev_b.len(), "{scheme}: event count");
        // The fast core must actually have had spans to skip for this to
        // be a meaningful test (LLHH stalls constantly).
        assert!(
            ev_a.iter()
                .any(|e| matches!(e, TraceEvent::MergeTransition { to_mask: 0, .. })),
            "{scheme}: no all-stalled span in the workload?"
        );
    }
}

/// A caller that drives a bare [`Core`] itself, as perfbench's layer
/// timings do, interleaves `run` with bare `step`s, evictions and
/// re-installs. The fast core must stay in the oracle's state after every
/// call, including an eviction in the middle of a stall and a re-install
/// of that thread on another context.
#[test]
fn external_stepping_matches_the_oracle() {
    use std::sync::Arc;
    use vliw_tms::core::catalog;
    use vliw_tms::sim::thread::ProgramMeta;
    use vliw_tms::sim::{Core, SimConfig, SoftThread};
    use vliw_tms::workloads::{build_named, mixes};

    fn assert_same_state(cores: &[Core; 2], at: &str) {
        let [oracle, fast] = cores;
        assert_eq!(oracle.cycle(), fast.cycle(), "{at}: cycle");
        assert_eq!(oracle.total_ops(), fast.total_ops(), "{at}: ops");
        assert_eq!(oracle.total_instrs(), fast.total_instrs(), "{at}: instrs");
        assert_eq!(
            oracle.vertical_waste_cycles(),
            fast.vertical_waste_cycles(),
            "{at}: vertical waste"
        );
        assert_eq!(
            oracle.horizontal_waste_slots(),
            fast.horizontal_waste_slots(),
            "{at}: horizontal waste"
        );
        assert_eq!(
            format!("{:?}", oracle.merge_stats),
            format!("{:?}", fast.merge_stats),
            "{at}: merge stats"
        );
        let view = |core: &Core| -> Vec<Option<(u32, u64, u64, u64)>> {
            core.contexts
                .iter()
                .map(|c| {
                    c.as_ref()
                        .map(|t| (t.tid, t.instrs, t.stall_until, t.rng_state()))
                })
                .collect()
        };
        assert_eq!(view(oracle), view(fast), "{at}: contexts");
    }

    // The memory-bound LLLL mix behind a 200-cycle miss penalty: most
    // cycles are stalled, so the fast core skips spans between the calls.
    let mut cfg = SimConfig::paper(catalog::by_name("2SC3").unwrap(), 1000);
    cfg.mem.icache.miss_penalty = 200;
    cfg.mem.dcache.miss_penalty = 200;
    let mut cores = [CoreModel::CycleAccurate, CoreModel::EventDriven]
        .map(|model| Core::new(&cfg.clone().with_core_model(model)));
    for (ctx, name) in mixes::mix("LLLL").unwrap().members.iter().enumerate() {
        let img = build_named(name, &cfg.machine).unwrap();
        let meta = Arc::new(ProgramMeta::of(&img));
        for core in &mut cores {
            core.install(
                ctx,
                SoftThread::new(&img, meta.clone(), ctx as u64, cfg.seed),
            );
        }
        assert_same_state(&cores, &format!("install {name}"));
    }

    let run_to = |cores: &mut [Core; 2], limit: u64| {
        for core in cores.iter_mut() {
            core.run(limit);
        }
        assert_same_state(cores, &format!("run to {limit}"));
    };
    let step = |cores: &mut [Core; 2], n: usize| {
        for i in 0..n {
            for core in cores.iter_mut() {
                core.step();
            }
            assert_same_state(cores, &format!("step {i}"));
        }
    };

    run_to(&mut cores, 5_000);
    step(&mut cores, 3);
    // Evict a context in the middle of a stall.
    while !cores[0]
        .contexts
        .iter()
        .flatten()
        .any(|t| t.stall_until > cores[0].cycle() + 1)
    {
        step(&mut cores, 1);
    }
    let cycle = cores[0].cycle();
    let a = cores[0]
        .contexts
        .iter()
        .position(|c| c.as_ref().is_some_and(|t| t.stall_until > cycle + 1))
        .unwrap();
    let stalled = cores.each_mut().map(|core| core.evict(a).unwrap());
    assert_same_state(&cores, "evict mid-stall");
    // Re-install the stalled thread on another context while its stall is
    // still pending, and run on with context `a` empty.
    let b = (a + 1) % cores[0].contexts.len();
    let displaced = cores.each_mut().map(|core| core.evict(b).unwrap());
    assert_same_state(&cores, "evict a second context");
    for (core, thread) in cores.iter_mut().zip(stalled) {
        core.install(b, thread);
    }
    assert_same_state(&cores, "re-install on another context");
    assert!(cores[1].contexts[b].as_ref().unwrap().stall_until > cycle);
    step(&mut cores, 2);
    run_to(&mut cores, cycle + 2_000);
    for (core, thread) in cores.iter_mut().zip(displaced) {
        core.install(a, thread);
    }
    assert_same_state(&cores, "re-install the displaced thread");
    let end = cores[0].cycle() + 20_000;
    run_to(&mut cores, end);
    assert!(
        cores[0].vertical_waste_cycles() > 1_000,
        "the mix must stall long enough for the fast core to skip spans"
    );
}
