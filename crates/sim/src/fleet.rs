//! Fleet driver: N independent machines behind one dispatcher.
//!
//! A *fleet* run advances several [`Machine`]s (possibly heterogeneous —
//! see [`vliw_fleet::FleetSpec`]) under a single arrival process. Each
//! arriving thread is routed by the fleet's [`vliw_fleet::Dispatcher`]
//! policy into one machine's bounded admission queue, giving two-level
//! scheduling: the dispatcher picks the machine, that machine's OS policy
//! picks the hardware context. The member is compiled *for the machine it
//! lands on*, so a heterogeneous fleet executes genuinely different
//! schedules per geometry.
//!
//! Each lane is a [`Machine`] built by [`Machine::open_lane`] and stepped
//! through the same OS loop as a single machine. The lanes advance in
//! lockstep to each arrival cycle (a fully idle lane still advances its
//! clock), and routing decisions are sequential over consistent
//! [`LaneView`] snapshots. Lane work is spread over a [`rayon`] pool,
//! each worker owning a contiguous run of lanes, and its results never
//! feed back into ordering. So the output is byte-identical for any
//! worker count, and bit-identical across both [`crate::CoreModel`]s
//! (each lane inherits the core-equivalence contract of a single
//! machine).
//!
//! A singleton fleet matches the open run of the same machine in every
//! per-thread statistic and latency, but a drained lane still runs to its
//! next timeslice expiry, so the fleet's makespan is the open run's
//! rounded up to a whole timeslice.

use crate::config::SimConfig;
use crate::os::{LaneOutcome, Machine};
use crate::plan::WorkloadRef;
use crate::runner::ImageCache;
use crate::stats::RunStats;
use crate::thread::{ProgramMeta, SoftThread};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use vliw_core::MergeStats;
use vliw_fleet::{FleetSpec, FleetStats, LaneView, MachineLaneStats};
use vliw_mem::CacheStats;
use vliw_trace::{NullSink, StallBreakdown, StallKind, TraceEvent, TraceSink};
use vliw_traffic::{ArrivalProcess, LatencySummary, TrafficStats};

/// Static width hint of a compiled member: mean operations per VLIW
/// instruction, rounded to nearest (min 1). The affinity dispatcher
/// compares this against each lane's per-cluster issue width.
fn width_hint(meta: &ProgramMeta) -> u32 {
    let mut ops: u64 = 0;
    let mut instrs: u64 = 0;
    for b in meta.blocks.iter() {
        instrs += b.instrs.len() as u64;
        ops += b.instrs.iter().map(|i| u64::from(i.sig.n_ops)).sum::<u64>();
    }
    if instrs == 0 {
        return 1;
    }
    ((ops * 2 + instrs) / (2 * instrs)).max(1) as u32
}

/// Run `workload` through `fleet` under `cfg`'s arrival process and
/// return the merged fleet-level statistics (`stats.fleet` is `Some`).
///
/// `cfg.machine` serves as the *reference* geometry: width hints are
/// computed from each member's compile for it, so routing decisions are
/// a function of the plan's configured machine, not of the fleet mix.
/// Each lane otherwise inherits `cfg` with its own geometry swapped in.
///
/// `parallelism` bounds the worker threads advancing lanes (clamped to
/// the fleet size); the result is byte-identical for every value.
pub fn run_fleet(
    cache: &ImageCache,
    cfg: &SimConfig,
    fleet: &FleetSpec,
    workload: &WorkloadRef,
    parallelism: usize,
) -> RunStats {
    drive(cache, cfg, fleet, workload, parallelism, &mut NullSink)
}

/// The body of [`run_fleet`], recording into `sink` one
/// [`TraceEvent::RoutedTo`] per arrival, in arrival order. The lanes
/// themselves run untraced, so no cycle-level event of any machine is
/// recorded; [`crate::plan::Plan::trace_cell`] builds the fleet cell's
/// [`vliw_trace::Trace`] from these events.
pub(crate) fn drive<S: TraceSink>(
    cache: &ImageCache,
    cfg: &SimConfig,
    fleet: &FleetSpec,
    workload: &WorkloadRef,
    parallelism: usize,
    sink: &mut S,
) -> RunStats {
    let machines = fleet.machines();
    let lane_cfgs: Vec<SimConfig> = machines
        .iter()
        .map(|&m| cfg.clone().with_machine(m))
        .collect();
    let mut lanes: Vec<Machine> = lane_cfgs.iter().map(Machine::open_lane).collect();
    let n = workload.n_threads();
    let arrivals = ArrivalProcess::take_cycles(cfg.traffic, cfg.seed, n);
    // Width hints come from the reference compile (cfg.machine), one per
    // member, so the dispatcher's view of a thread does not depend on
    // where previous threads were routed.
    let hints: Vec<u32> = (0..n)
        .map(|i| width_hint(&workload.image_for(i, cache, &cfg.machine).1))
        .collect();
    let mut dispatcher = fleet.dispatcher.build();
    let mut routed: Vec<u64> = vec![0; lanes.len()];
    let pool = ThreadPoolBuilder::new()
        .num_threads(parallelism.clamp(1, lanes.len().max(1)))
        .build()
        .expect("fleet pool");
    pool.install(|| {
        for (i, &at) in arrivals.iter().enumerate() {
            // Lockstep: every lane reaches the arrival cycle before the
            // routing decision reads its load.
            lanes.par_iter_mut().for_each(|lane| lane.lane_advance(at));
            let views: Vec<LaneView> = lanes
                .iter()
                .zip(machines.iter().zip(&routed))
                .map(|(lane, (&machine, &r))| LaneView {
                    machine,
                    queue_len: lane.lane_queue_len(),
                    in_flight: lane.lane_in_flight(),
                    routed: r,
                })
                .collect();
            let to = dispatcher.route(&views, hints[i]);
            routed[to] += 1;
            if S::ENABLED {
                sink.record(TraceEvent::RoutedTo {
                    cycle: at,
                    tid: i as u32,
                    to: to as u32,
                });
            }
            let image = workload.image_for(i, cache, &lane_cfgs[to].machine);
            let t = SoftThread::new(&image.0, image.1.clone(), i as u64, cfg.seed);
            lanes[to].lane_inject(t);
        }
        lanes
            .par_iter_mut()
            .for_each(Machine::lane_run_to_completion);
    });
    let outcomes: Vec<LaneOutcome> = lanes.into_iter().map(Machine::lane_collect).collect();
    merge(&machines, &routed, outcomes)
}

/// Merge per-lane outcomes into one fleet-level [`RunStats`].
fn merge(
    machines: &[vliw_isa::MachineSpec],
    routed: &[u64],
    outcomes: Vec<LaneOutcome>,
) -> RunStats {
    let fleet_end = outcomes.iter().map(|o| o.stats.cycles).max().unwrap_or(0);
    let mut threads = Vec::new();
    let mut sojourns = LatencySummary::new();
    let mut waits = LatencySummary::new();
    let mut stall_breakdown = StallBreakdown::new();
    let mut lane_stats = Vec::with_capacity(outcomes.len());
    let (mut offered, mut completed, mut shed) = (0u64, 0u64, 0u64);
    let mut depth_cycles = 0.0f64;
    for ((o, &machine), &r) in outcomes.iter().zip(machines.iter()).zip(routed.iter()) {
        threads.extend(o.stats.threads.iter().cloned());
        sojourns.absorb(&o.sojourns);
        waits.absorb(&o.waits);
        offered += o.stats.traffic.offered;
        completed += o.stats.traffic.completed;
        shed += o.stats.traffic.shed;
        depth_cycles += o.stats.traffic.mean_queue_depth * o.stats.cycles as f64;
        lane_stats.push(MachineLaneStats {
            machine,
            routed: r,
            completed: o.stats.traffic.completed,
            shed: o.stats.traffic.shed,
            cycles: o.stats.cycles,
            ops: o.stats.total_ops,
            instrs: o.stats.total_instrs,
            utilization: o.stats.utilization(),
            ipc: o.stats.ipc(),
        });
    }
    threads.sort_by_key(|t| t.tid);
    for t in &threads {
        stall_breakdown.add(StallKind::ICacheMiss, t.istall_cycles);
        stall_breakdown.add(StallKind::DCacheMiss, t.dstall_cycles);
        stall_breakdown.add(StallKind::BranchBubble, t.branch_stall_cycles);
    }
    let sum = |f: fn(&RunStats) -> u64| outcomes.iter().map(|o| f(&o.stats)).sum::<u64>();
    // Engine health rolls up across lanes: sums for queue traffic and
    // span counts, maxima for the high-water marks.
    let mut engine = crate::stats::EngineStats::default();
    for o in &outcomes {
        engine.absorb(&o.stats.engine);
    }
    let traffic = TrafficStats::summarize(
        offered,
        completed,
        shed,
        &sojourns,
        &waits,
        if fleet_end == 0 {
            0.0
        } else {
            depth_cycles / fleet_end as f64
        },
    );
    RunStats {
        cycles: fleet_end,
        total_ops: sum(|s| s.total_ops),
        total_instrs: sum(|s| s.total_instrs),
        vertical_waste_cycles: sum(|s| s.vertical_waste_cycles),
        horizontal_waste_slots: sum(|s| s.horizontal_waste_slots),
        // Fleet-wide slot bandwidth: the sum of the lanes' issue widths
        // (utilization() then reads ops over the pooled bandwidth).
        issue_width: outcomes.iter().map(|o| o.stats.issue_width).sum(),
        threads,
        // Merge-network and cache counters are per-machine concepts; the
        // fleet roll-up carries empty placeholders (they are not part of
        // any serialized exhibit cell).
        merge: MergeStats::new(0),
        icache: CacheStats::default(),
        dcache: CacheStats::default(),
        context_switches: sum(|s| s.context_switches),
        scheduler: outcomes
            .first()
            .map(|o| o.stats.scheduler.clone())
            .unwrap_or_else(|| "paper-random".into()),
        migrations: sum(|s| s.migrations),
        idle_context_cycles: sum(|s| s.idle_context_cycles),
        stall_breakdown,
        traffic,
        fleet: Some(FleetStats {
            machines: lane_stats,
        }),
        engine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_core::catalog;
    use vliw_fleet::DispatcherSpec;

    fn cfg() -> SimConfig {
        let mut c = SimConfig::paper(catalog::smt_cascade(4), 2000);
        c.traffic = "poisson:0.01".parse().expect("traffic spec");
        c
    }

    #[test]
    fn fleet_conserves_arrivals_and_fills_fleet_stats() {
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let fleet: FleetSpec = "paper-4x4*2".parse().expect("fleet spec");
        let stats = run_fleet(&cache, &cfg(), &fleet, &wl, 1);
        let fs = stats.fleet.as_ref().expect("fleet stats present");
        assert_eq!(fs.n_machines(), 2);
        assert_eq!(fs.routed_total(), stats.traffic.offered);
        assert_eq!(fs.routed_total(), wl.n_threads() as u64);
        assert!(fs.conserves_arrivals());
        assert_eq!(
            stats.traffic.completed + stats.traffic.shed,
            stats.traffic.offered,
            "fleet-wide conservation"
        );
        assert!(stats.traffic.completed > 0, "something must finish");
        assert_eq!(stats.threads.len(), stats.traffic.completed as usize);
    }

    #[test]
    fn fleet_output_is_worker_count_independent() {
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let quad: FleetSpec = "paper-4x4*4".parse().expect("fleet spec");
        for fleet in [FleetSpec::edge(), quad] {
            let runs: Vec<String> = [1usize, 2, 4]
                .iter()
                .map(|&p| format!("{:?}", run_fleet(&cache, &cfg(), &fleet, &wl, p)))
                .collect();
            assert_eq!(runs[0], runs[1], "{fleet}: 1 vs 2 workers");
            assert_eq!(runs[0], runs[2], "{fleet}: 1 vs 4 workers");
        }
    }

    #[test]
    fn fleet_is_bit_identical_across_core_models() {
        use crate::core::CoreModel;
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let fleet: FleetSpec = "edge@least-queued".parse().expect("fleet spec");
        let fast = run_fleet(&cache, &cfg(), &fleet, &wl, 2);
        let oracle = run_fleet(
            &cache,
            &cfg().with_core_model(CoreModel::CycleAccurate),
            &fleet,
            &wl,
            2,
        );
        assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
    }

    #[test]
    fn round_robin_spreads_and_trace_records_routing() {
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let fleet = FleetSpec::homogeneous(
            vliw_isa::MachineSpec::Paper4x4,
            4,
            DispatcherSpec::RoundRobin,
        )
        .expect("homogeneous fleet");
        let mut sink = vliw_trace::RecordingSink::new();
        let stats = drive(&cache, &cfg(), &fleet, &wl, 2, &mut sink);
        let fs = stats.fleet.expect("fleet stats");
        assert_eq!(
            fs.machines.iter().map(|m| m.routed).collect::<Vec<_>>(),
            vec![1, 1, 1, 1],
            "round-robin, 4 arrivals over 4 machines"
        );
        assert_eq!(sink.len(), 4, "one RoutedTo per arrival");
        let tos: Vec<u32> = sink
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::RoutedTo { to, .. } => *to,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(tos, vec![0, 1, 2, 3]);
    }

    #[test]
    fn singleton_fleet_differs_from_the_open_run_only_after_the_last_completion() {
        // A one-lane fleet and the open run of the same machine see the same
        // arrivals and make the same scheduling decisions, with two
        // documented differences. At a tie a lane handles the boundary's
        // expiry before the injection, while the open run queues the arrival
        // first. So the workloads here place no arrival on a boundary. And
        // a drained lane still runs to its next expiry, while the open run
        // stops at the last completion.
        let cache = ImageCache::new();
        let singleton: FleetSpec = "paper-4x4".parse().expect("fleet spec");
        for traffic in ["poisson:0.001", "bursty:0.001:4:4", "diurnal:0.001:3:20000"] {
            for wl in [
                WorkloadRef::from("LLHH"),
                crate::experiments::traffic_workload(),
            ] {
                let cfg = SimConfig::paper(catalog::by_name("2SC3").unwrap(), 20_000)
                    .with_traffic(traffic.parse().expect("traffic spec"));
                let label = format!("{traffic} on {}", wl.name());
                let ts = cfg.timeslice;
                let arrivals = ArrivalProcess::take_cycles(cfg.traffic, cfg.seed, wl.n_threads());
                assert!(
                    arrivals.iter().all(|at| at % ts != 0),
                    "{label}: an arrival lands on a timeslice boundary"
                );
                let threads = (0..wl.n_threads())
                    .map(|i| {
                        let image = wl.image_for(i, &cache, &cfg.machine);
                        SoftThread::new(&image.0, image.1.clone(), i as u64, cfg.seed)
                    })
                    .collect();
                let open = Machine::new(&cfg, threads).expect("workload").run();
                let fleet = run_fleet(&cache, &cfg, &singleton, &wl, 1);
                assert_eq!(
                    format!("{:?}", open.threads),
                    format!("{:?}", fleet.threads),
                    "{label}: per-thread stats"
                );
                let (o, f) = (&open.traffic, &fleet.traffic);
                assert!(o.completed > 0, "{label}: nothing completed");
                assert_eq!(
                    (o.offered, o.completed, o.shed),
                    (f.offered, f.completed, f.shed),
                    "{label}: admission counts"
                );
                assert_eq!(
                    (o.p50_sojourn, o.p95_sojourn, o.p99_sojourn),
                    (f.p50_sojourn, f.p95_sojourn, f.p99_sojourn),
                    "{label}: sojourn quantiles"
                );
                assert_eq!(
                    (o.mean_sojourn, o.mean_wait),
                    (f.mean_sojourn, f.mean_wait),
                    "{label}: mean sojourn and wait"
                );
                let gap = open.cycles.div_ceil(ts) * ts - open.cycles;
                assert_eq!(fleet.cycles, open.cycles + gap, "{label}: makespan");
                assert_eq!(
                    fleet.idle_context_cycles,
                    open.idle_context_cycles + cfg.n_contexts() as u64 * gap,
                    "{label}: idle context cycles"
                );
                assert_eq!(
                    fleet.vertical_waste_cycles,
                    open.vertical_waste_cycles + gap,
                    "{label}: vertical waste"
                );
                assert_eq!(
                    fleet.context_switches,
                    open.context_switches + u64::from(gap > 0),
                    "{label}: context switches"
                );
            }
        }
    }

    #[test]
    fn heterogeneous_fleet_sums_issue_width() {
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let fleet = FleetSpec::edge();
        let stats = run_fleet(&cache, &cfg(), &fleet, &wl, 1);
        // edge = paper-4x4*2 / 2x8 / 8x2: 16+16+16+16 = 64 slots.
        assert_eq!(stats.issue_width, 64);
        let fs = stats.fleet.expect("fleet stats");
        assert_eq!(fs.n_machines(), 4);
        // Per-lane utilization/ipc agree with the recorded counters.
        for m in &fs.machines {
            if m.cycles > 0 {
                assert!((m.ipc - m.ops as f64 / m.cycles as f64).abs() < 1e-12);
            }
        }
    }
}
