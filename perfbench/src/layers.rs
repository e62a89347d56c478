//! Per-layer host times of calls too short to time one by one.
//!
//! Each figure times batches of calls into one layer's public functions
//! over inputs captured from the workload: thread states, memory systems
//! and merge-network inputs snapshotted from a core running the workload's
//! own benchmarks under its memory system, the workload's arrival
//! processes, and its fleets. Reported values are medians over batches of
//! the mean cost per call.

use crate::spans::Recorder;
use crate::stats::{per_call_ns, ratio};
use crate::workload::{CellSpec, Workload};
use crate::{metric, Metric};
use std::hint::black_box;
use std::time::Instant;
use vliw_core::{catalog, MergeEvaluator, MergeStats, PortInput};
use vliw_fleet::{FleetSpec, LaneView};
use vliw_mem::{MemConfig, MemSystem};
use vliw_sim::runner::ImageCache;
use vliw_sim::{Core, SimConfig, SoftThread};
use vliw_trace::NullSink;
use vliw_traffic::{ArrivalProcess, TrafficSpec};
use vliw_workloads::benchmark;

/// Cycles run before capturing, so caches and branch state are warm.
const WARM_CYCLES: u64 = 20_000;
/// Snapshots per capture and the cycles between them.
const SNAPSHOTS: usize = 128;
const STRIDE: u64 = 61;
/// Cycles replayed to split `Core::run` time between issue cycles and
/// skipped idle spans.
const SEGMENT_CYCLES: u64 = 100_000;
/// Host-time budget of each timed figure.
const BUDGET_MS: u64 = 150;
const MIN_BATCHES: usize = 5;

/// The workload's capture setting: four benchmarks and a memory system.
struct Capture<'a> {
    members: [&'static str; 4],
    mem: MemConfig,
    seed: u64,
    cache: &'a ImageCache,
}

impl Capture<'_> {
    /// A core running `scheme` on the capture's benchmarks, warmed up. The
    /// instruction budget is unlimited so the core never stops on its own.
    fn core(&self, scheme: &str) -> Result<(Core, SimConfig), String> {
        let mut cfg = SimConfig::paper(
            catalog::by_name(scheme).ok_or(format!("unknown scheme {scheme}"))?,
            1,
        );
        cfg.mem = self.mem;
        cfg.seed = self.seed;
        cfg.instr_budget = u64::MAX;
        let mut core = Core::new(&cfg);
        for ctx in 0..cfg.n_contexts() {
            let spec = benchmark(self.members[ctx % 4]).ok_or("capture members are Table-1")?;
            let img = self
                .cache
                .get_spec(spec, &cfg.machine)
                .map_err(|e| e.to_string())?;
            core.install(
                ctx,
                SoftThread::new(&img.0, img.1.clone(), ctx as u64, self.seed),
            );
        }
        core.run(WARM_CYCLES);
        Ok((core, cfg))
    }
}

/// The state of a running core at one cycle.
struct Snapshot {
    cycle: u64,
    mem: MemSystem,
    threads: Vec<(u8, SoftThread)>,
}

fn snapshots(core: &mut Core) -> Vec<Snapshot> {
    (0..SNAPSHOTS)
        .map(|_| {
            core.run(core.cycle() + STRIDE);
            Snapshot {
                cycle: core.cycle(),
                mem: core.mem.clone(),
                threads: core
                    .contexts
                    .iter()
                    .enumerate()
                    .filter_map(|(ctx, t)| t.clone().map(|t| (ctx as u8, t)))
                    .collect(),
            }
        })
        .collect()
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Time `f` over every captured thread, on clones made outside the timed
/// region and one shared memory system.
fn per_thread_call(
    snaps: &[Snapshot],
    mut f: impl FnMut(u64, &mut MemSystem, u8, &mut SoftThread),
) -> f64 {
    let shared = &snaps.last().expect("captures are non-empty").mem;
    per_call_ns(BUDGET_MS, MIN_BATCHES, || {
        let mut work: Vec<(u64, u8, SoftThread)> = snaps
            .iter()
            .flat_map(|s| s.threads.iter().map(|(c, t)| (s.cycle, *c, t.clone())))
            .collect();
        let mut mem = shared.clone();
        let t = Instant::now();
        for (cycle, ctx, th) in work.iter_mut() {
            f(*cycle, &mut mem, *ctx, th);
        }
        (elapsed_ns(t), work.len() as u64)
    })
}

/// Merge-network inputs at each snapshot: every context's head signature
/// if it is ready, stalled otherwise.
fn port_inputs(snaps: &[Snapshot], n: usize) -> Vec<Vec<PortInput>> {
    snaps
        .iter()
        .map(|s| {
            let mut inputs = vec![PortInput::stalled(); n];
            for (ctx, th) in &s.threads {
                if th.ready(s.cycle) {
                    inputs[*ctx as usize] = PortInput::ready(th.head_sig());
                }
            }
            inputs
        })
        .collect()
}

fn evaluate_ns(capture: &Capture, scheme: &str) -> Result<f64, String> {
    let (mut core, cfg) = capture.core(scheme)?;
    let inputs = port_inputs(&snapshots(&mut core), cfg.n_contexts());
    let compiled = cfg.scheme.compile();
    let evaluator = MergeEvaluator::new(&cfg.machine);
    let mut stats = MergeStats::new(compiled.n_nodes());
    Ok(per_call_ns(BUDGET_MS, MIN_BATCHES, || {
        let t = Instant::now();
        for inp in &inputs {
            black_box(evaluator.evaluate_with_stats(&compiled, inp, &mut stats));
        }
        (elapsed_ns(t), inputs.len() as u64)
    }))
}

fn step_ns(capture: &Capture, scheme: &str) -> Result<f64, String> {
    const STEPS: u64 = 2_000;
    let (mut core, _) = capture.core(scheme)?;
    Ok(per_call_ns(BUDGET_MS, MIN_BATCHES, || {
        let t = Instant::now();
        for _ in 0..STEPS {
            black_box(core.step());
        }
        (elapsed_ns(t), STEPS)
    }))
}

/// Split `Core::run` host time between issue cycles and skipped idle
/// spans. A first core steps through the window to find where the issue
/// mask is empty; an identical second core then runs segment by segment,
/// each segment timed: an issue segment costs one step per cycle, an idle
/// segment is one all-stalled step plus one closed-form skip. Returns
/// `(ns per issue cycle, ns per idle span)`, timer overhead subtracted.
fn run_split_ns(capture: &Capture, scheme: &str, timer_ns: f64) -> Result<(f64, f64), String> {
    let (mut probe, _) = capture.core(scheme)?;
    let (mut core, _) = capture.core(scheme)?;
    let end = probe.cycle() + SEGMENT_CYCLES;
    let mut segments: Vec<(u64, bool)> = Vec::new();
    while probe.cycle() < end {
        let idle = probe.step().issued_contexts == 0;
        match segments.last_mut() {
            Some((to, was_idle)) if *was_idle == idle => *to = probe.cycle(),
            _ => segments.push((probe.cycle(), idle)),
        }
    }
    let (mut issue_ns, mut issue_cycles, mut idle_ns, mut idle_spans) = (0.0, 0u64, 0.0, 0u64);
    for &(to, idle) in &segments {
        let from = core.cycle();
        let t = Instant::now();
        core.run(to);
        let ns = (elapsed_ns(t) as f64 - timer_ns).max(0.0);
        if core.cycle() != to {
            return Err(format!("core replay diverged at cycle {from}"));
        }
        if idle {
            idle_ns += ns;
            idle_spans += 1;
        } else {
            issue_ns += ns;
            issue_cycles += to - from;
        }
    }
    if core.total_ops() != probe.total_ops() {
        return Err("core replay retired different operations".to_string());
    }
    Ok((
        ratio(issue_ns, issue_cycles as f64),
        ratio(idle_ns, idle_spans as f64),
    ))
}

/// Data addresses the captured threads issue next: every memory operation
/// of each thread's current block, drawn from clones of its streams.
fn data_accesses(snaps: &[Snapshot]) -> Vec<(u64, bool, u8)> {
    let mut out = Vec::new();
    for s in snaps {
        for (ctx, th) in &s.threads {
            let mut streams = th.streams.clone();
            for instr in th.meta.blocks[th.block as usize].instrs.iter() {
                for &(stream, is_store) in instr.mem.iter() {
                    let addr = streams[stream as usize].next_addr() + th.data_offset;
                    out.push((addr, is_store, *ctx));
                }
            }
        }
    }
    out
}

/// Mean operations per VLIW instruction of a compiled member, rounded:
/// the width hint a fleet dispatcher routes on.
fn width_hint(cache: &ImageCache, spec: &vliw_workloads::BenchmarkSpec, cfg: &SimConfig) -> u32 {
    let Ok(img) = cache.get_spec(spec, &cfg.machine) else {
        return 1;
    };
    let (mut ops, mut instrs) = (0u64, 0u64);
    for b in img.1.blocks.iter() {
        instrs += b.instrs.len() as u64;
        ops += b.instrs.iter().map(|i| u64::from(i.sig.n_ops)).sum::<u64>();
    }
    (ops * 2 + instrs)
        .checked_div(2 * instrs)
        .map_or(1, |h| h.max(1) as u32)
}

/// `Dispatcher::route` cost over lane views of the workload's fleets. The
/// views carry each fleet's machines, routed counts replayed from the
/// dispatcher's own decisions, and loads cycling through the range the
/// admission bound allows.
fn route_ns(cells: &[CellSpec], cache: &ImageCache) -> f64 {
    // Per fleet: the lane views and width hint of each routing decision.
    type Decisions = Vec<(Vec<LaneView>, u32)>;
    let mut calls: Vec<(FleetSpec, Decisions)> = Vec::new();
    for c in cells {
        let Some(fleet) = &c.fleet else { continue };
        if calls.iter().any(|(f, _)| f.label() == fleet.label()) {
            continue;
        }
        let machines = fleet.machines();
        let mut routed = vec![0u64; machines.len()];
        let mut dispatcher = fleet.dispatcher.build();
        let mut views = Vec::new();
        for (i, spec) in c.members.iter().enumerate() {
            let lanes: Vec<LaneView> = machines
                .iter()
                .enumerate()
                .map(|(j, &machine)| LaneView {
                    machine,
                    queue_len: (i + j) % 5,
                    in_flight: (routed[j] as usize) % 9,
                    routed: routed[j],
                })
                .collect();
            let hint = width_hint(cache, spec, &c.cfg);
            routed[dispatcher.route(&lanes, hint)] += 1;
            views.push((lanes, hint));
        }
        calls.push((fleet.clone(), views));
    }
    if calls.is_empty() {
        return 0.0;
    }
    per_call_ns(BUDGET_MS, MIN_BATCHES, || {
        let mut n = 0u64;
        let mut ns = 0u64;
        for (fleet, views) in &calls {
            let mut d = fleet.dispatcher.build();
            let t = Instant::now();
            for (lanes, hint) in views {
                black_box(d.route(lanes, *hint));
            }
            ns += elapsed_ns(t);
            n += views.len() as u64;
        }
        (ns, n)
    })
}

/// `ArrivalProcess::take_cycles` cost per arrival over the workload's
/// open arrival processes.
fn arrival_ns(cells: &[CellSpec], seed: u64) -> f64 {
    let mut specs: Vec<(TrafficSpec, usize)> = Vec::new();
    for c in cells {
        if !c.cfg.traffic.is_closed() && !specs.iter().any(|(s, _)| *s == c.cfg.traffic) {
            specs.push((c.cfg.traffic, c.members.len()));
        }
    }
    if specs.is_empty() {
        return 0.0;
    }
    per_call_ns(BUDGET_MS, MIN_BATCHES, || {
        let t = Instant::now();
        for &(spec, n) in &specs {
            black_box(ArrivalProcess::take_cycles(spec, seed, n));
        }
        (elapsed_ns(t), specs.iter().map(|(_, n)| *n as u64).sum())
    })
}

/// Every timed per-layer figure of `workload`, each inside its own span.
pub fn measure(
    workload: Workload,
    cells: &[CellSpec],
    seed: u64,
    cache: &ImageCache,
    timer_ns: f64,
    rec: &Recorder,
) -> Result<Vec<Metric>, String> {
    let (members, mem) = workload.capture();
    let capture = Capture {
        members,
        mem,
        seed,
        cache,
    };
    let root = rec.open("layers", None);
    let span = |name: &'static str| rec.open(name, Some(root));

    let id = span("thread+mem");
    let (mut core, cfg) = capture.core("2SC3")?;
    let snaps = snapshots(&mut core);
    let head_sig = per_call_ns(BUDGET_MS, MIN_BATCHES, || {
        let t = Instant::now();
        let mut n = 0;
        for s in &snaps {
            for (_, th) in &s.threads {
                black_box(th.head_sig());
                n += 1;
            }
        }
        (elapsed_ns(t), n)
    });
    let fetch_head = per_thread_call(&snaps, |cycle, mem, ctx, th| {
        th.fetch_head(cycle, mem, ctx, &mut NullSink)
    });
    let penalty = cfg.machine.taken_branch_penalty;
    let execute_head = per_thread_call(&snaps, |cycle, mem, ctx, th| {
        th.execute_head(cycle, mem, ctx, penalty, &mut NullSink)
    });
    let accesses = data_accesses(&snaps);
    let shared = &snaps.last().expect("captures are non-empty").mem;
    let data = per_call_ns(BUDGET_MS, MIN_BATCHES, || {
        let mut mem = shared.clone();
        let t = Instant::now();
        for &(addr, write, ctx) in &accesses {
            black_box(mem.data(addr, write, ctx));
        }
        (elapsed_ns(t), accesses.len() as u64)
    });
    rec.close(id);

    let id = span("eval");
    let eval2 = evaluate_ns(&capture, "1S")?;
    let eval4 = evaluate_ns(&capture, "3SSS")?;
    rec.close(id);

    let id = span("core");
    let step_st = step_ns(&capture, "ST")?;
    let step_2sc3 = step_ns(&capture, "2SC3")?;
    let step_3sss = step_ns(&capture, "3SSS")?;
    let (issue, idle_span) = run_split_ns(&capture, "2SC3", timer_ns)?;
    rec.close(id);

    let arrivals = rec.within("traffic", Some(root), || arrival_ns(cells, seed));
    let route = rec.within("fleet", Some(root), || route_ns(cells, cache));
    rec.close(root);

    Ok(vec![
        metric("thread.head_sig_ns", "ns", head_sig),
        metric("thread.fetch_head_ns", "ns", fetch_head),
        metric("thread.execute_head_ns", "ns", execute_head),
        metric("mem.data_ns", "ns", data),
        metric("eval.evaluate_ns.2port", "ns", eval2),
        metric("eval.evaluate_ns.4port", "ns", eval4),
        metric("core.step_ns.ST", "ns", step_st),
        metric("core.step_ns.2SC3", "ns", step_2sc3),
        metric("core.step_ns.3SSS", "ns", step_3sss),
        metric("core.ns_per_issue_cycle", "ns", issue),
        metric("core.ns_per_idle_span", "ns", idle_span),
        metric("traffic.arrival_ns", "ns", arrivals),
        metric("fleet.route_ns", "ns", route),
    ])
}
