//! The traced run: per-layer host times and counts.
//!
//! It alternates an untraced iteration with a traced one. The traced
//! iteration runs the same cells through the layers' public entry points
//! from outside (`ImageCache::get_spec`, `Machine::with_scheduler(..).run()`
//! with a timing wrapper around the built-in `Scheduler`, `run_fleet`) and
//! records a span around each call; its statistics must equal the untraced
//! iteration's cell for cell. The spans stay in memory and are written once,
//! as JSON lines under `.bench_out/`, when the run ends. Calls too short to
//! time one by one are measured in `layers`.

use crate::check;
use crate::layers;
use crate::spans::{self, Recorder};
use crate::stats::{median, quantile, ratio, timer_overhead_ns};
use crate::workload::{self, CellSpec, Iteration, Workload, PAPER_SCALE};
use crate::{metric, verify_totals, Metric, Report};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vliw_sim::os::Machine;
use vliw_sim::plan::{MemoryModel, ResultSet, Session};
use vliw_sim::runner::{self, ImageCache};
use vliw_sim::sched::{SchedView, Scheduler};
use vliw_sim::{experiments, run_fleet, RunStats, SoftThread};
use vliw_workloads::benchmark;

/// Scheduler calls and their host time, summed over a traced iteration.
#[derive(Default)]
struct SchedTally {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// A built-in scheduling policy with every decision timed.
struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    tally: Arc<SchedTally>,
}

impl TimedScheduler {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut *self.inner);
        // Statistics only: no other data is published through them.
        self.tally
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        self.timed(|s| s.admit(view))
    }

    fn evict(&mut self, view: &SchedView<'_>) -> u8 {
        self.timed(|s| s.evict(view))
    }

    fn refill(&mut self, view: &SchedView<'_>) -> Vec<usize> {
        self.timed(|s| s.refill(view))
    }
}

/// Run one cell through the layers' public entry points.
fn run_cell(cache: &ImageCache, c: &CellSpec, tally: &Arc<SchedTally>) -> Result<RunStats, String> {
    if let Some(fleet) = &c.fleet {
        return Ok(run_fleet(cache, &c.cfg, fleet, &c.workload, 1));
    }
    let threads = c
        .members
        .iter()
        .enumerate()
        .map(|(tid, spec)| {
            let img = cache
                .get_spec(spec, &c.cfg.machine)
                .map_err(|e| e.to_string())?;
            Ok(SoftThread::new(
                &img.0,
                img.1.clone(),
                tid as u64,
                c.cfg.seed,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let scheduler = TimedScheduler {
        inner: c.cfg.scheduler.build(c.cfg.seed),
        tally: tally.clone(),
    };
    Ok(
        Machine::with_scheduler(&c.cfg, threads, Box::new(scheduler))
            .map_err(|e| e.to_string())?
            .run(),
    )
}

/// What one traced iteration measured.
struct Traced {
    wall_s: f64,
    image_build_ns: u64,
    expand_ns: u64,
    simulate_ns: u64,
    export_json_ns: u64,
    export_csv_ns: u64,
    export_bytes: u64,
    /// Host time of each cell, cell order.
    cell_ns: Vec<u64>,
    results: Vec<Result<RunStats, String>>,
    sched_calls: u64,
    sched_ns: u64,
    cache_requests: u64,
    images: usize,
    cells: Vec<CellSpec>,
    session: Session,
}

/// One traced iteration. `sets` are the untraced iteration's result sets,
/// exported again here so both iterations do the same work.
fn traced_iteration(
    workload: Workload,
    seed: u64,
    workers: usize,
    sets: &[ResultSet],
    rec: &Recorder,
) -> Result<Traced, String> {
    let t0 = Instant::now();
    let root = rec.open("iteration", None);
    let setup = rec.open("setup", Some(root));
    let session = Session::with_parallelism(workers);
    let expand = rec.open("plan.expand", Some(setup));
    let plans = workload.plans(seed);
    let cells = workload::cells(workload, &plans, seed);
    let expand_ns = rec.close(expand);
    let images = workload::images(&cells);
    let mut image_build_ns = 0;
    for (spec, machine) in &images {
        let id = rec.open("runner.image_build", Some(setup));
        session
            .cache()
            .get_spec(spec, machine)
            .map_err(|e| format!("compiling {} failed: {e}", spec.name))?;
        image_build_ns += rec.close(id);
    }
    rec.close(setup);

    let sim = rec.open("simulate", Some(root));
    let tally = Arc::new(SchedTally::default());
    let refs: Vec<&CellSpec> = cells.iter().collect();
    let timed = catch_unwind(AssertUnwindSafe(|| {
        runner::run_jobs(
            refs,
            |c| {
                let id = rec.open("runner.cell", Some(sim));
                let r = run_cell(session.cache(), c, &tally);
                (r, rec.close(id))
            },
            workers,
        )
    }))
    .map_err(|_| "the simulator panicked".to_string())?;
    let simulate_ns = rec.close(sim);
    let (results, cell_ns): (Vec<_>, Vec<_>) = timed.into_iter().unzip();

    let export = rec.open("export", Some(root));
    let (mut export_json_ns, mut export_csv_ns, mut export_bytes) = (0, 0, 0u64);
    for set in sets {
        let id = rec.open("plan.export_json", Some(export));
        let json = set.to_json();
        export_json_ns += rec.close(id);
        let id = rec.open("plan.export_csv", Some(export));
        let csv = set.to_csv();
        export_csv_ns += rec.close(id);
        export_bytes += (json.len() + csv.len()) as u64;
        black_box((json, csv));
    }
    if sets.is_empty() {
        rec.within("export.canonical", Some(export), || {
            for r in results.iter().flatten() {
                black_box(check::canonical(r));
            }
        });
    }
    rec.close(export);
    rec.close(root);
    Ok(Traced {
        wall_s: t0.elapsed().as_secs_f64(),
        image_build_ns,
        expand_ns,
        simulate_ns,
        export_json_ns,
        export_csv_ns,
        export_bytes,
        cell_ns,
        results,
        sched_calls: tally.calls.load(Ordering::Relaxed),
        sched_ns: tally.ns.load(Ordering::Relaxed),
        cache_requests: session.cache().requests(),
        images: images.len(),
        cells,
        session,
    })
}

/// Cells of a traced iteration whose statistics differ from the untraced
/// iteration's (tracing must observe, never perturb).
fn mismatches(traced: &Traced, untraced: &Iteration) -> Vec<String> {
    if untraced.failed > 0 {
        return Vec::new();
    }
    if traced.results.len() != untraced.results.len() {
        return vec![format!(
            "traced run has {} cells, untraced {}",
            traced.results.len(),
            untraced.results.len()
        )];
    }
    traced
        .results
        .iter()
        .zip(&untraced.results)
        .enumerate()
        .filter_map(|(i, (t, u))| match t {
            Ok(t) if check::canonical(t) == check::canonical(&u.stats) => None,
            Ok(_) => Some(format!("cell {i}: traced statistics differ from untraced")),
            Err(e) => Some(format!("cell {i}: {e}")),
        })
        .collect()
}

/// Mean absolute % error of simulated Table-1 IPCr/IPCp against the
/// paper's values, from an executed `table1_plan`.
fn ipc_err_pct(plan: &vliw_sim::Plan, set: &ResultSet) -> f64 {
    let errs: Vec<f64> = plan
        .jobs()
        .iter()
        .zip(set.results())
        .filter_map(|(key, r)| {
            let spec = benchmark(key.workload.name())?;
            let paper = match key.memory {
                MemoryModel::Real => spec.paper_ipcr,
                MemoryModel::Perfect => spec.paper_ipcp,
            };
            Some((r.ipc() - paper).abs() / paper * 100.0)
        })
        .collect();
    ratio(errs.iter().sum(), errs.len() as f64)
}

/// Alternate untraced and traced iterations for most of `seconds`, then
/// time the short layer calls, and report every per-layer metric.
pub fn run(workload: Workload, seed: u64, seconds: f64, workers: usize) -> Result<Report, String> {
    let start = Instant::now();
    let timer_ns = timer_overhead_ns();
    let mut pairs: Vec<(Iteration, Traced)> = Vec::new();
    let mut problems = Vec::new();
    let mut rec = Recorder::new();
    let mut first = None;
    while pairs.is_empty() || start.elapsed().as_secs_f64() < seconds * 0.6 {
        let untraced = workload::run_iteration(workload, seed, workers)?;
        let first = first.get_or_insert_with(|| untraced.totals.clone());
        problems.extend(verify_totals(workload, seed, first, &untraced));
        rec = Recorder::new();
        let traced = traced_iteration(workload, seed, workers, &untraced.sets, &rec)?;
        problems.extend(mismatches(&traced, &untraced));
        pairs.push((untraced, traced));
    }
    let (untraced, last) = pairs.last().expect("at least one pair ran");
    let layer_figures = layers::measure(
        workload,
        &last.cells,
        seed,
        last.session.cache(),
        timer_ns,
        &rec,
    )?;

    // The model's error against the only reference the repository holds.
    let ipc_err = if workload == Workload::PaperAll {
        ipc_err_pct(&workload.plans(seed)[0].plan, &untraced.sets[0])
    } else {
        let plan = workload::seeded(experiments::table1_plan(PAPER_SCALE), seed);
        let set = plan.run(&Session::with_parallelism(workers));
        ipc_err_pct(&plan, &set)
    };

    let attempted: u64 = pairs
        .iter()
        .map(|(u, t)| u.totals.cells + t.results.len() as u64)
        .sum();
    let failed: u64 = pairs
        .iter()
        .map(|(u, t)| u.failed + t.results.iter().filter(|r| r.is_err()).count() as u64)
        .sum();
    let mut metrics = pipeline_metrics(&pairs, workers, timer_ns);
    metrics.extend(cell_metrics(last));
    metrics.extend(layer_figures);
    let overheads: Vec<f64> = pairs
        .iter()
        .map(|(u, t)| (t.wall_s - u.wall_s) / u.wall_s * 100.0)
        .collect();
    metrics.push(metric("bench.trace_overhead_pct", "%", median(&overheads)));
    metrics.push(metric(
        "check.failed_pct",
        "%",
        ratio(failed as f64, attempted as f64) * 100.0,
    ));
    metrics.push(metric("model.ipc_err_pct", "%", ipc_err));

    let mut notes = vec![format!(
        "{} untraced/traced iteration pairs; spans of the last one written to {}",
        pairs.len(),
        write_spans(workload, seed, rec)
    )];
    notes.extend(problems.iter().map(|p| format!("FAILED CHECK: {p}")));
    Ok(Report {
        attempted,
        failed,
        correct: problems.is_empty() && failed == 0,
        metrics,
        notes,
    })
}

/// Write the spans as JSON lines; returns the path or the error.
fn write_spans(workload: Workload, seed: u64, rec: Recorder) -> String {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-{seed}.jsonl", workload.name()));
    let body = spans::to_json_lines(&rec.into_spans());
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("nowhere ({e})"),
    }
}

/// Set-up, plan, runner fan-out and scheduler figures, medians over the
/// traced iterations (cell times pooled across them).
fn pipeline_metrics(pairs: &[(Iteration, Traced)], workers: usize, timer_ns: f64) -> Vec<Metric> {
    let traced: Vec<&Traced> = pairs.iter().map(|(_, t)| t).collect();
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(|t| f(t)).collect::<Vec<_>>());
    let cell_ms: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.cell_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let last = traced.last().expect("at least one traced iteration");
    let images = last.images as f64;
    vec![
        metric(
            "runner.image_build_ms",
            "ms",
            med(&|t| t.image_build_ns as f64 / 1e6),
        ),
        metric("runner.images_built", "count", images),
        metric(
            "runner.cache_hit_ratio",
            "ratio",
            ratio(
                last.cache_requests as f64 - images,
                last.cache_requests as f64,
            ),
        ),
        metric("plan.expand_us", "us", med(&|t| t.expand_ns as f64 / 1e3)),
        metric(
            "plan.export_json_ms",
            "ms",
            med(&|t| t.export_json_ns as f64 / 1e6),
        ),
        metric(
            "plan.export_csv_ms",
            "ms",
            med(&|t| t.export_csv_ns as f64 / 1e6),
        ),
        metric("plan.export_bytes", "bytes", last.export_bytes as f64),
        metric("runner.cell_ms_p50", "ms", median(&cell_ms)),
        metric("runner.cell_ms_p95", "ms", quantile(&cell_ms, 0.95)),
        metric("runner.cell_ms_samples", "count", cell_ms.len() as f64),
        metric("runner.cell_ms_max", "ms", quantile(&cell_ms, 1.0)),
        metric(
            "runner.worker_busy_ratio",
            "ratio",
            med(&|t| {
                ratio(
                    t.cell_ns.iter().sum::<u64>() as f64,
                    (t.simulate_ns * workers as u64) as f64,
                )
            }),
        ),
        metric(
            "sched.decide_ns",
            "ns",
            med(&|t| (ratio(t.sched_ns as f64, t.sched_calls as f64) - timer_ns).max(0.0)),
        ),
        metric("sched.calls", "count", last.sched_calls as f64),
    ]
}

/// Figures read off the cells' deterministic statistics, plus the fleet's
/// host-time ratios, from the last traced iteration.
fn cell_metrics(t: &Traced) -> Vec<Metric> {
    let cells: Vec<(&CellSpec, &RunStats, u64)> = t
        .cells
        .iter()
        .zip(&t.results)
        .zip(&t.cell_ns)
        .filter_map(|((c, r), &ns)| r.as_ref().ok().map(|r| (c, r, ns)))
        .collect();
    let sum = |f: &dyn Fn(&CellSpec, &RunStats) -> u64| -> f64 {
        cells.iter().map(|(c, r, _)| f(c, r)).sum::<u64>() as f64
    };
    let single = |f: fn(&RunStats) -> u64| sum(&|c, r| if c.fleet.is_none() { f(r) } else { 0 });
    let attempts = single(|r| r.merge.attempts().iter().sum());
    let successes = single(|r| r.merge.successes().iter().sum());
    // Threads issuing together, over the cycles in which any issued.
    let issuing_threads = single(|r| {
        let h = r.merge.packet_histogram();
        h.iter().enumerate().map(|(k, &n)| k as u64 * n).sum()
    });
    let issue_cycles = single(|r| r.merge.packet_histogram().iter().skip(1).sum());
    let lane_cycles = |r: &RunStats| match &r.fleet {
        Some(f) => f.machines.iter().map(|m| m.cycles).sum(),
        None => r.cycles,
    };
    // Fleet cells against single open machines fed the same stream (same
    // scheme, workload and arrival process).
    let is_fleet_ref = |c: &CellSpec| {
        c.fleet.is_none()
            && !c.cfg.traffic.is_closed()
            && cells.iter().any(|(f, _, _)| {
                f.fleet.is_some()
                    && f.cfg.scheme.name() == c.cfg.scheme.name()
                    && f.workload.name() == c.workload.name()
                    && f.cfg.traffic == c.cfg.traffic
            })
    };
    let ns_per_instr = |pick: &dyn Fn(&CellSpec) -> bool| {
        let (ns, instrs) = cells
            .iter()
            .filter(|(c, _, _)| pick(c))
            .fold((0u64, 0u64), |(n, i), (_, r, ns)| {
                (n + ns, i + r.total_instrs)
            });
        ratio(ns as f64, instrs as f64)
    };
    let fleet_cell_ns: u64 = cells
        .iter()
        .filter(|(c, _, _)| c.fleet.is_some())
        .map(|(_, _, ns)| ns)
        .sum();
    let lane_span = sum(&|_, r| {
        r.fleet
            .as_ref()
            .map_or(0, |f| r.cycles * f.machines.len() as u64)
    });
    // Occupied context-cycles of every lane over the makespan: a lane is
    // idle while its contexts are empty and after it drains.
    let lane_busy = sum(&|c, r| {
        r.fleet.as_ref().map_or(0, |_| {
            (lane_cycles(r) * c.cfg.n_contexts() as u64).saturating_sub(r.idle_context_cycles)
        })
    });
    let lane_capacity = sum(&|c, r| {
        r.fleet.as_ref().map_or(0, |f| {
            r.cycles * f.machines.len() as u64 * c.cfg.n_contexts() as u64
        })
    });
    let dc_misses = single(|r| r.dcache.total_misses());
    let dc_accesses = single(|r| r.dcache.total_accesses());
    let ic_misses = single(|r| r.icache.total_misses());
    let ic_accesses = single(|r| r.icache.total_accesses());
    vec![
        metric(
            "eval.merge_success_ratio",
            "ratio",
            ratio(successes, attempts),
        ),
        metric(
            "eval.threads_per_issue_cycle",
            "count",
            ratio(issuing_threads, issue_cycles),
        ),
        metric(
            "mem.dcache_miss_ratio",
            "ratio",
            ratio(dc_misses, dc_accesses),
        ),
        metric(
            "mem.icache_miss_ratio",
            "ratio",
            ratio(ic_misses, ic_accesses),
        ),
        metric(
            "core.idle_skip_ratio",
            "ratio",
            ratio(
                sum(&|_, r| r.engine.idle_span_cycles - r.engine.idle_spans),
                sum(&|_, r| lane_cycles(r)),
            ),
        ),
        metric(
            "os.context_switches",
            "count",
            sum(&|_, r| r.context_switches),
        ),
        metric("os.migrations", "count", sum(&|_, r| r.migrations)),
        metric(
            "events.ops",
            "count",
            sum(&|_, r| r.engine.queue_pushes + r.engine.queue_pops),
        ),
        metric("traffic.offered", "count", sum(&|_, r| r.traffic.offered)),
        metric(
            "traffic.shed_ratio",
            "ratio",
            ratio(sum(&|_, r| r.traffic.shed), sum(&|_, r| r.traffic.offered)),
        ),
        metric(
            "fleet.ns_per_lane_cycle",
            "ns",
            ratio(fleet_cell_ns as f64, lane_span),
        ),
        metric(
            "fleet.overhead_ratio",
            "ratio",
            ratio(
                ns_per_instr(&|c| c.fleet.is_some()),
                ns_per_instr(&is_fleet_ref),
            ),
        ),
        metric(
            "fleet.lane_busy_ratio",
            "ratio",
            ratio(lane_busy, lane_capacity),
        ),
    ]
}
