//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload paper-all|far-memory|fleet-stream [--seed N]
//!           [--seconds S] [--trace 0|1] [--workers 1|2]
//! ```
//!
//! With `--trace 0` it repeats untraced iterations of the workload for
//! `--seconds` and reports the end-to-end metrics (medians over
//! iterations). With `--trace 1` it alternates untraced and traced
//! iterations, then times each layer's public calls on inputs captured
//! from the workload, and reports the per-layer metrics. Either way every
//! cell's output is checked, and the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod layers;
mod spans;
mod stats;
mod traced;
mod workload;

use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
}

const USAGE: &str = "usage: perfbench --workload paper-all|far-memory|fleet-stream \
[--seed N] [--seconds S] [--trace 0|1] [--workers 1|2]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut workers = 2;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--workers" => {
                workers = value()?
                    .parse()
                    .ok()
                    .filter(|w| (1..=2).contains(w))
                    .ok_or("--workers takes 1 or 2")?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        workers,
    })
}

/// A named metric with its unit, in report order.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run reports: checked cells and metrics.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, args.workers)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, args.workers)
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&args, &report);
    ExitCode::SUCCESS
}

fn print_report(args: &Args, r: &Report) {
    println!(
        "perfbench {} seed {:#x} ({} workers, {} cores)",
        args.workload.name(),
        args.seed,
        args.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &r.notes {
        println!("  {note}");
    }
    for m in &r.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Verify one iteration's outcome against the first and the recorded
/// digest. Returns a note for each problem found.
pub fn verify_totals(
    workload: Workload,
    seed: u64,
    first: &workload::Totals,
    it: &workload::Iteration,
) -> Vec<String> {
    let mut problems: Vec<String> = it.failures.iter().take(5).cloned().collect();
    if it.totals != *first {
        problems.push(format!(
            "deterministic totals changed between iterations: {:?} vs {:?}",
            it.totals, first
        ));
    }
    if let Some(want) = check::recorded(workload.name(), seed) {
        if it.totals.digest != want {
            problems.push(format!(
                "export digest {:#018x} != recorded {want:#018x}",
                it.totals.digest
            ));
        }
    }
    problems
}

/// The timings and outcome of one untraced iteration, without its
/// results (kept results would grow the resident set with the run length).
struct Sample {
    setup_s: f64,
    sim_s: f64,
    wall_s: f64,
    totals: workload::Totals,
    failed: u64,
}

/// Repeat untraced iterations for about `seconds` and report the medians.
fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    workers: usize,
) -> Result<Report, String> {
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut problems = Vec::new();
    let mut first = None;
    // At least three iterations, so every median has company; no new one
    // that would likely end more than half an iteration past `seconds`.
    while samples.len() < 3
        || start.elapsed().as_secs_f64() + 0.5 * samples[samples.len() - 1].wall_s < seconds
    {
        let it = workload::run_iteration(workload, seed, workers)?;
        let first = first.get_or_insert_with(|| it.totals.clone());
        problems.extend(verify_totals(workload, seed, first, &it));
        samples.push(Sample {
            setup_s: it.setup_s,
            sim_s: it.sim_s,
            wall_s: it.wall_s,
            totals: it.totals,
            failed: it.failed,
        });
    }
    // More cold set-ups, so the set-up median rests on at least nine and
    // on 0.2 s of set-up in all (short set-ups are noisy).
    let mut setups: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
    while setups.len() < 9 || setups.iter().sum::<f64>() < 0.2 {
        let t = Instant::now();
        workload::setup(workload, seed, workers)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let per_iter =
        |f: &dyn Fn(&Sample) -> f64| -> f64 { median(&samples.iter().map(f).collect::<Vec<_>>()) };
    let rate =
        |count: &dyn Fn(&workload::Totals) -> u64| per_iter(&|s| count(&s.totals) as f64 / s.sim_s);
    let totals = &samples[0].totals;
    let mut notes = vec![format!(
        "{} iterations; per iteration {} cells, {} simulated cycles, {} instructions, export digest {:#018x}",
        samples.len(),
        totals.cells,
        totals.cycles,
        totals.instrs,
        totals.digest
    )];
    let walls: Vec<String> = samples.iter().map(|s| format!("{:.3}", s.wall_s)).collect();
    notes.push(format!("iteration wall s: {}", walls.join(" ")));
    notes.extend(problems.iter().map(|p| format!("FAILED CHECK: {p}")));
    let failed: u64 = samples.iter().map(|s| s.failed).sum();
    Ok(Report {
        attempted: samples.iter().map(|s| s.totals.cells).sum(),
        failed,
        correct: problems.is_empty() && failed == 0,
        metrics: vec![
            metric("wall_s", "s", per_iter(&|s| s.wall_s)),
            metric("setup_s", "s", median(&setups)),
            metric("cells_per_s", "1/s", rate(&|t| t.cells)),
            metric("sim_cycles_per_s", "1/s", rate(&|t| t.cycles)),
            metric("sim_instrs_per_s", "1/s", rate(&|t| t.instrs)),
            metric("peak_rss_mb", "MB", peak_rss_mb()),
        ],
        notes,
    })
}

/// Peak resident set of this process in MiB: `VmHWM`, the high-water mark
/// of this program image alone (`ru_maxrss` would also count the image of
/// a launcher that forked it, such as `cargo run`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
