//! `paper` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! paper [EXHIBIT...] [--scale N] [--full] [--threads N] [--filter S]
//!       [--scheduler NAME] [--machine SPEC] [--arrivals SPEC] [--fleet SPEC]
//!       [--out DIR] [--json PATH] [--csv PATH]
//!       [--trace PATH] [--trace-format FMT]
//!       [--metrics PATH] [--metrics-format prom|json] [--metrics-timings]
//!       [--progress]
//! paper --lint [--lint-format text|json]
//! paper --list
//!
//! EXHIBIT: table1 table2 fig4 fig5 fig6 fig9 fig10 fig11 fig12 headline
//!          geometry trace traffic fleet all   (default: all)
//! --scale N        divide the paper's 100M-instruction budget by N (default 20)
//! --full           the paper's full run lengths (scale 1); slow
//! --threads N      rayon worker threads for simulation sweeps (default:
//!                  cores-1; --par is accepted as an alias)
//! --filter S       keep only exhibits whose name contains the substring S
//! --scheduler NAME run the simulated exhibits under this OS scheduling
//!                  policy instead of the paper's random one (paper-random,
//!                  round-robin, icount, cluster-affinity)
//! --machine SPEC   run the simulated exhibits on this machine geometry
//!                  instead of the paper's 4x4 (presets: paper-4x4, 2x8,
//!                  8x2, 4x4-lite; or CxI[+muls+mems], e.g. 3x4, 2x8+1+2)
//! --arrivals SPEC  run the simulated exhibits as an open system under this
//!                  arrival process instead of the closed batch default
//!                  (poisson:RATE, bursty:RATE:LEN:FACTOR,
//!                  diurnal:RATE:PEAK:PERIOD, or closed)
//! --fleet SPEC     run the simulated exhibits on a *fleet* of machines
//!                  behind a dispatcher instead of one machine: each
//!                  arriving thread is routed to one machine's admission
//!                  queue (grammar: ENTRY[/ENTRY...][@POLICY] where ENTRY
//!                  is MACHINESPEC[*COUNT]; e.g. paper-4x4*2,
//!                  paper-4x4*2/2x8@least-queued; preset: edge; policies:
//!                  round-robin, least-queued, affinity)
//! --list           print every exhibit, scheme, scheduler policy, machine
//!                  preset, fleet preset, dispatcher policy and grammar
//!                  the harness understands, then exit
//! --out DIR        CSV output directory for rendered exhibits (default: results/)
//! --json PATH      also write the raw simulation result sets as one JSON file
//! --csv PATH       also write the raw simulation result sets as one CSV file
//! --trace PATH     additionally re-run the *first grid cell* of the first
//!                  simulated exhibit with full cycle-level tracing and write
//!                  the trace to PATH (run length floored at 1/5000 of the
//!                  paper's budget — event streams grow with run length)
//! --trace-format FMT  trace serialization: chrome (trace_event JSON for
//!                  chrome://tracing / Perfetto; default), jsonl, csv
//! --lint           standalone mode: run the `vliw-analyze` static verifier
//!                  over every Table-1 benchmark compiled for every machine
//!                  preset, print per-image reports, and exit 1 when any
//!                  Error-severity finding exists (0 otherwise). Runs no
//!                  simulation and combines only with --lint-format.
//! --lint-format FMT  lint report rendering: text (default) or json (one
//!                  machine-readable object, the CI gate's input)
//! --metrics PATH   run the simulated exhibits through the harness telemetry
//!                  registry and write the sweep report to PATH. The
//!                  deterministic metric class (cells, cycles, waste, queue
//!                  and idle-span structure, cache economics, fleet lane
//!                  accounting) is byte-identical across --threads values
//!                  and core models; wall-clock timings are excluded unless
//!                  --metrics-timings is given
//! --metrics-format FMT  report rendering: prom (Prometheus text
//!                  exposition; default) or json
//! --metrics-timings  include the timing metric class (per-cell wall time,
//!                  compile/simulate split, cache build/verify time, live
//!                  probe counts) in the --metrics report; these values are
//!                  nondeterministic by nature
//! --progress       stderr heartbeat while sweeps run: cells done/total,
//!                  cells/sec, ETA, image-cache hit-rate (never stdout, so
//!                  piped exhibit output is unaffected)
//! ```
//!
//! Exhibit names, `--filter`, `--scheduler`, `--machine`, `--arrivals`,
//! `--trace`, and `--trace-format` are validated up front — before any
//! simulation runs —
//! and an unknown name prints the list of valid ones instead of panicking
//! mid-sweep (`--machine` also rejects geometries that cannot compile the
//! Table-1 suite; `--trace` verifies the file is writable by creating it,
//! and requires at least one simulated exhibit to be selected).
//!
//! The `--json`/`--csv` exports cover the simulated exhibits (table1, fig4,
//! fig6, the shared fig10 sweep behind fig10/fig11/fig12/headline, the
//! geometry sweep, the traffic sweep, and the fleet sweep); static exhibits
//! (table2, fig5, fig9) have no simulation results. Both exports are
//! byte-identical across `--threads` values: the sweep grid is
//! deterministic and ordered. Without
//! `--scheduler`/`--machine`/`--arrivals`/`--fleet` the export bytes equal
//! the historical (pre-axis) format; with any, a `scheduler`/`machine`/
//! `traffic`/`fleet` column/field is added (the traffic column brings the
//! open-system metric columns with it, the fleet column the fleet metric
//! columns). The `geometry` exhibit always sweeps the machine presets
//! (`--machine` adds the named geometry to its sweep), the `traffic`
//! exhibit always sweeps its Poisson load ladder (`--arrivals` adds the
//! named process), and the `fleet` exhibit always sweeps its fleet ladder
//! (`--fleet` adds the named fleet), so a combined `--csv` that captures
//! any carries that column on *every* row — one header must fit all sets,
//! so rows are shaped to the union of the captured axes.

use std::fmt::Write as _;
use std::path::PathBuf;
use vliw_bench::figures;
use vliw_bench::Exhibit;
use vliw_sim::experiments;
use vliw_sim::plan::{
    Axis, Columns, DispatcherSpec, FleetError, FleetSpec, MachineSpec, Plan, ResultSet, Session,
    TrafficError, TrafficSpec,
};
use vliw_sim::sched::SchedulerSpec;
use vliw_trace::TraceFormat;

/// Every exhibit name the harness understands, in render order.
const EXHIBITS: [&str; 14] = [
    "table1", "table2", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11", "fig12", "headline",
    "geometry", "trace", "traffic", "fleet",
];

/// The plan behind a simulated exhibit (what `--trace` probes), `None` for
/// the static exhibits (table2, fig5, fig9).
fn plan_for(name: &str, scale: u64) -> Option<Plan> {
    match name {
        "table1" => Some(experiments::table1_plan(scale)),
        "fig4" => Some(experiments::fig4_plan(scale)),
        "fig6" => Some(experiments::fig6_plan(scale)),
        "fig10" | "fig11" | "fig12" | "headline" => Some(experiments::fig10_plan(scale)),
        "geometry" => Some(experiments::geometry_plan(scale)),
        "trace" => Some(experiments::trace_plan(scale)),
        "traffic" => Some(experiments::traffic_plan(scale)),
        "fleet" => Some(experiments::fleet_plan(scale)),
        _ => None,
    }
}

fn main() {
    let mut scale: u64 = 20;
    let mut par = vliw_sim::runner::default_parallelism();
    let mut out = PathBuf::from("results");
    let mut wanted: Vec<String> = Vec::new();
    let mut filter: Option<String> = None;
    let mut scheduler: Option<SchedulerSpec> = None;
    let mut machine: Option<MachineSpec> = None;
    let mut arrivals: Option<TrafficSpec> = None;
    let mut fleet: Option<FleetSpec> = None;
    let mut list = false;
    let mut json_path: Option<PathBuf> = None;
    let mut csv_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut trace_format: Option<TraceFormat> = None;
    let mut lint = false;
    let mut lint_json: Option<bool> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut metrics_json: Option<bool> = None;
    let mut metrics_timings = false;
    let mut progress = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--full" => scale = 1,
            "--threads" | "--par" => {
                par = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| die("--threads needs a positive number"));
            }
            "--filter" => {
                filter = Some(
                    args.next()
                        .unwrap_or_else(|| die("--filter needs a substring")),
                );
            }
            "--scheduler" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| die("--scheduler needs a policy name"));
                scheduler = Some(
                    name.parse()
                        .unwrap_or_else(|e: vliw_sim::SimError| die(&e.to_string())),
                );
            }
            "--machine" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| die("--machine needs a geometry spec"));
                let spec: MachineSpec = name
                    .parse()
                    .unwrap_or_else(|e: vliw_isa::MachineError| die(&e.to_string()));
                if !spec.runs_full_suite() {
                    die(&format!(
                        "machine {spec} cannot run the benchmark suite (it needs at least \
                         one multiplier and one memory unit per cluster)"
                    ));
                }
                machine = Some(spec);
            }
            "--arrivals" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| die("--arrivals needs a traffic spec"));
                arrivals = Some(
                    name.parse()
                        .unwrap_or_else(|e: TrafficError| die(&e.to_string())),
                );
            }
            "--fleet" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| die("--fleet needs a fleet spec"));
                let spec: FleetSpec = name
                    .parse()
                    .unwrap_or_else(|e: FleetError| die(&e.to_string()));
                if let Some(bad) = spec.machines().iter().find(|m| !m.runs_full_suite()) {
                    die(&format!(
                        "fleet member {bad} cannot run the benchmark suite (it needs at \
                         least one multiplier and one memory unit per cluster)"
                    ));
                }
                fleet = Some(spec);
            }
            "--list" => list = true,
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--json" => {
                json_path = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--json needs a path")),
                ));
            }
            "--csv" => {
                csv_path = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--csv needs a path")),
                ));
            }
            "--trace" => {
                trace_path = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--trace needs a path")),
                ));
            }
            "--trace-format" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| die("--trace-format needs a format name"));
                trace_format = Some(
                    name.parse()
                        .unwrap_or_else(|e: vliw_trace::UnknownTraceFormat| die(&e.to_string())),
                );
            }
            "--metrics" => {
                metrics_path = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--metrics needs a path")),
                ));
            }
            "--metrics-format" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| die("--metrics-format needs a format name"));
                metrics_json = Some(match name.as_str() {
                    "prom" => false,
                    "json" => true,
                    other => die(&format!(
                        "unknown metrics format {other:?}; valid formats: prom json"
                    )),
                });
            }
            "--metrics-timings" => metrics_timings = true,
            "--progress" => progress = true,
            "--lint" => lint = true,
            "--lint-format" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| die("--lint-format needs a format name"));
                lint_json = Some(match name.as_str() {
                    "text" => false,
                    "json" => true,
                    other => die(&format!(
                        "unknown lint format {other:?}; valid formats: text json"
                    )),
                });
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                return;
            }
            other if !other.starts_with('-') => wanted.push(other.to_string()),
            other => die(&format!("unknown flag {other}")),
        }
    }
    if list {
        // Standalone catalog mode: print what the harness understands.
        print_list();
        return;
    }
    if lint_json.is_some() && !lint {
        die("--lint-format requires --lint");
    }
    if lint {
        // Standalone static-analysis mode: no simulation, no exports.
        if !wanted.is_empty()
            || filter.is_some()
            || scheduler.is_some()
            || machine.is_some()
            || arrivals.is_some()
            || fleet.is_some()
            || json_path.is_some()
            || csv_path.is_some()
            || trace_path.is_some()
            || trace_format.is_some()
            || metrics_path.is_some()
            || metrics_json.is_some()
            || metrics_timings
            || progress
        {
            die("--lint is a standalone mode; combine it only with --lint-format");
        }
        run_lint(lint_json.unwrap_or(false));
    }
    if metrics_json.is_some() && metrics_path.is_none() {
        die("--metrics-format requires --metrics");
    }
    if metrics_timings && metrics_path.is_none() {
        die("--metrics-timings requires --metrics");
    }
    // Validate every requested name before simulating anything: a typo on
    // the last exhibit must not cost the first nine sweeps.
    for w in &wanted {
        if w != "all" && !EXHIBITS.contains(&w.as_str()) {
            die(&format!(
                "unknown exhibit {w:?}; valid exhibits: {}",
                EXHIBITS.join(" ")
            ));
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = EXHIBITS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(f) = &filter {
        wanted.retain(|w| w.contains(f.as_str()));
        if wanted.is_empty() {
            die(&format!(
                "--filter {f:?} matches no exhibit; valid exhibits: {}",
                EXHIBITS.join(" ")
            ));
        }
    }
    // First occurrence wins: repeated names would re-simulate the sweep and
    // duplicate ids in the --json/--csv exports.
    let mut seen = std::collections::HashSet::new();
    wanted.retain(|w| seen.insert(w.clone()));

    // Up-front --trace/--trace-format validation: a bad format name, an
    // unwritable path, or a selection with nothing to trace must fail
    // before any sweep runs (same contract as --machine/--scheduler).
    if trace_format.is_some() && trace_path.is_none() {
        die("--trace-format requires --trace");
    }
    let trace_target: Option<&str> = trace_path.as_ref().map(|path| {
        let target = wanted
            .iter()
            .map(String::as_str)
            .find(|w| plan_for(w, 1).is_some())
            .unwrap_or_else(|| {
                die("--trace needs at least one simulated exhibit selected \
                     (table2/fig5/fig9 are static)")
            });
        // Writability check: create the file now (it is overwritten with
        // the trace later), so a bad parent directory dies here.
        if let Err(err) = std::fs::write(path, b"") {
            die(&format!("cannot write --trace {}: {err}", path.display()));
        }
        target
    });
    let trace_format = trace_format.unwrap_or(TraceFormat::Chrome);

    // Same up-front writability contract as --trace: a bad --metrics
    // parent directory must die before any sweep runs.
    if let Some(path) = &metrics_path {
        if let Err(err) = std::fs::write(path, b"") {
            die(&format!("cannot write --metrics {}: {err}", path.display()));
        }
    }
    // One registry for the whole invocation: every metered plan registers
    // the same schema idempotently and the deterministic class accumulates
    // across exhibits in grid order.
    let registry = if metrics_path.is_some() || progress {
        let reg = vliw_sim::telemetry::Registry::new();
        if progress {
            reg.enable_progress();
        }
        Some(reg)
    } else {
        None
    };

    // Apply --scheduler/--machine/--arrivals/--fleet to a simulated
    // exhibit's plan (None = the paper's defaults and the historical export
    // byte format). For the geometry exhibit, whose plan already sweeps the
    // machine presets, --machine *adds* the named geometry; likewise
    // --arrivals on the traffic exhibit's load ladder and --fleet on the
    // fleet exhibit's ladder (every axis dedups).
    let with_axes = |plan: Plan| {
        let plan = match scheduler {
            Some(spec) => plan.scheduler(spec),
            None => plan,
        };
        let plan = match machine {
            Some(spec) => plan.machine(spec),
            None => plan,
        };
        let plan = match arrivals {
            Some(spec) => plan.arrival(spec),
            None => plan,
        };
        match &fleet {
            Some(spec) => plan.fleet(spec.clone()),
            None => plan,
        }
    };

    println!(
        "vliw-tms paper harness — scale 1/{scale} of the paper's run length, {par} rayon workers{}{}{}{}\n",
        match scheduler {
            Some(s) => format!(", {s} scheduler"),
            None => String::new(),
        },
        match machine {
            Some(m) => format!(", {m} machine"),
            None => String::new(),
        },
        match arrivals {
            Some(t) => format!(", {t} arrivals"),
            None => String::new(),
        },
        match &fleet {
            Some(f) => format!(", {f} fleet"),
            None => String::new(),
        }
    );
    let t0 = std::time::Instant::now();
    let session = Session::with_parallelism(par);
    // Result sets are kept for the --json/--csv exports only; without an
    // export flag each set is dropped after rendering. The Figure-10 sweep
    // (all schemes x all mixes) feeds figs 10/11/12 and the headline
    // claims; simulate it and project its data at most once per invocation.
    let export = json_path.is_some() || csv_path.is_some();
    let mut captured: Vec<(&'static str, ResultSet)> = Vec::new();
    let mut fig10: Option<experiments::Fig10Data> = None;
    // Run a plan through the telemetry registry when one is active, the
    // zero-cost NullTelemetry path otherwise.
    let run_plan = |plan: Plan| -> ResultSet {
        match &registry {
            Some(reg) => plan.run_metered(&session, reg),
            None => plan.run(&session),
        }
    };
    for name in &wanted {
        let exhibits: Vec<Exhibit> = match name.as_str() {
            "table1" => {
                let set = run_plan(with_axes(experiments::table1_plan(scale)));
                let ex = figures::table1_from(&experiments::table1_rows(&set));
                if export {
                    captured.push(("table1", set));
                }
                vec![ex]
            }
            "table2" => vec![figures::table2()],
            "fig4" => {
                let set = run_plan(with_axes(experiments::fig4_plan(scale)));
                let ex = figures::fig4_from(&experiments::fig4_data(&set));
                if export {
                    captured.push(("fig4", set));
                }
                vec![ex]
            }
            "fig5" => vec![figures::fig5()],
            "fig6" => {
                let set = run_plan(with_axes(experiments::fig6_plan(scale)));
                let ex = figures::fig6_from(&experiments::fig6_data(&set));
                if export {
                    captured.push(("fig6", set));
                }
                vec![ex]
            }
            "fig9" => vec![figures::fig9()],
            "geometry" => {
                let set = run_plan(with_axes(experiments::geometry_plan(scale)));
                let ex = figures::geometry_from(&experiments::geometry_data(&set));
                if export {
                    captured.push(("geometry", set));
                }
                vec![ex]
            }
            "trace" => {
                let plan = with_axes(experiments::trace_plan(scale));
                let (set, d) = experiments::trace_data(&plan, &session);
                let ex = figures::trace_from(&d);
                if export {
                    captured.push(("trace", set));
                }
                vec![ex]
            }
            "traffic" => {
                let set = run_plan(with_axes(experiments::traffic_plan(scale)));
                let ex = figures::traffic_from(&experiments::traffic_data(&set));
                if export {
                    captured.push(("traffic", set));
                }
                vec![ex]
            }
            "fleet" => {
                let set = run_plan(with_axes(experiments::fleet_plan(scale)));
                let ex = figures::fleet_from(&experiments::fleet_data(&set));
                if export {
                    captured.push(("fleet", set));
                }
                vec![ex]
            }
            "fig10" | "fig11" | "fig12" | "headline" => {
                let d = fig10.get_or_insert_with(|| {
                    let set = run_plan(with_axes(experiments::fig10_plan(scale)));
                    let d = experiments::fig10_data(&set);
                    if export {
                        captured.push(("fig10", set));
                    }
                    d
                });
                match name.as_str() {
                    "fig10" => vec![figures::fig10_from(d)],
                    "fig11" => vec![figures::fig11_12_from(d).0],
                    "fig12" => vec![figures::fig11_12_from(d).1],
                    _ => vec![figures::headline_from(d)],
                }
            }
            other => die(&format!(
                "unknown exhibit {other}; valid exhibits: {}",
                EXHIBITS.join(" ")
            )),
        };
        for e in exhibits {
            println!("{}", e.text);
            if let Err(err) = e.save_csv(&out) {
                eprintln!("warning: could not save {}: {err}", e.id);
            }
        }
    }

    if let (Some(path), Some(target)) = (&trace_path, trace_target) {
        // Trace the first grid cell of the first simulated exhibit. Run
        // length is floored: full event streams grow with run length, and
        // a single cell at the default scale would be gigabytes.
        let plan = with_axes(
            plan_for(target, scale.max(experiments::TRACE_SCALE_FLOOR))
                .expect("trace_target only names simulated exhibits"),
        );
        let key = plan
            .jobs()
            .into_iter()
            .next()
            .expect("simulated exhibit plans are non-empty");
        let (result, trace) = plan.trace_cell(&session, &key);
        if let Err(err) = std::fs::write(path, trace_format.export(&trace)) {
            eprintln!("warning: could not write {}: {err}", path.display());
        } else {
            println!(
                "trace ({trace_format}) of {target} cell {}/{} written to {} \
                 ({} events over {} cycles)",
                result.scheme,
                result.workload,
                path.display(),
                trace.len(),
                trace.end_cycle,
            );
        }
    }

    if let Some(path) = &json_path {
        let mut s = String::new();
        let _ = write!(s, "{{\"scale\":{scale},\"exhibits\":[");
        for (i, (id, set)) in captured.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"id\":\"{id}\",\"set\":{}}}", set.to_json());
        }
        s.push_str("]}");
        if let Err(err) = std::fs::write(path, s) {
            eprintln!("warning: could not write {}: {err}", path.display());
        } else {
            println!("raw result sets (JSON) written to {}", path.display());
        }
    }
    if let Some(path) = &csv_path {
        // One header must fit every captured set, but the sets can
        // disagree on axis explicitness (the geometry exhibit always
        // sweeps machines; the paper exhibits only do under --machine):
        // shape every row to the *union* of the captured sets' columns and
        // the flags. With nothing captured the flags alone decide, so the
        // column layout is flag-deterministic either way.
        let flags = [
            (scheduler.is_some(), Axis::Scheduler),
            (machine.is_some(), Axis::Machine),
            (fleet.is_some(), Axis::Fleet),
            (arrivals.is_some(), Axis::Traffic),
        ];
        let captured_columns = captured
            .iter()
            .fold(Columns::default(), |c, (_, set)| c | set.columns());
        let columns = flags
            .into_iter()
            .filter(|&(named, _)| named)
            .fold(captured_columns, |c, (_, axis)| c.with(axis));
        let mut s = format!("exhibit,{}\n", columns.csv_header());
        for (id, set) in &captured {
            s.push_str(&set.csv_rows(Some(id), columns));
        }
        if let Err(err) = std::fs::write(path, s) {
            eprintln!("warning: could not write {}: {err}", path.display());
        } else {
            println!("raw result sets (CSV) written to {}", path.display());
        }
    }
    if let (Some(path), Some(reg)) = (&metrics_path, &registry) {
        let report = reg.report();
        let (body, label) = if metrics_json.unwrap_or(false) {
            (report.to_json(metrics_timings), "json")
        } else {
            (report.to_prom(metrics_timings), "prom")
        };
        if let Err(err) = std::fs::write(path, body) {
            eprintln!("warning: could not write {}: {err}", path.display());
        } else {
            println!("telemetry metrics ({label}) written to {}", path.display());
        }
    }

    println!(
        "done in {:.1}s; CSVs in {}",
        t0.elapsed().as_secs_f64(),
        out.display()
    );
}

/// `--lint`: audit every Table-1 benchmark × machine preset with the
/// independent `vliw-analyze` verifier. Exit 0 when no Error-severity
/// finding exists, 1 otherwise (build failures die with exit 2).
fn run_lint(as_json: bool) -> ! {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut json = String::from("{\"images\":[");
    let mut first = true;
    for spec in MachineSpec::presets() {
        let machine = spec.config();
        for bench in vliw_workloads::all_benchmarks() {
            let img =
                vliw_workloads::build(bench, &machine).unwrap_or_else(|e| die(&e.to_string()));
            let report = vliw_analyze::analyze_image(&img, vliw_analyze::AnalyzeOptions::default());
            errors += report.errors();
            warnings += report.warnings();
            if as_json {
                if !first {
                    json.push(',');
                }
                first = false;
                json.push_str(&format!(
                    "{{\"machine\":\"{spec}\",\"report\":{}}}",
                    report.render_json()
                ));
            } else {
                print!("{spec}/{}", report.render_text());
            }
        }
    }
    if as_json {
        json.push_str(&format!("],\"errors\":{errors},\"warnings\":{warnings}}}"));
        println!("{json}");
    } else {
        println!("lint: {errors} error(s), {warnings} warning(s)");
    }
    std::process::exit(i32::from(errors > 0));
}

/// `--list`: print every name the harness accepts, one catalog per line
/// group, drawn from the same sources the validators use (so the listing
/// can never drift from what actually parses).
fn print_list() {
    println!("exhibits:");
    for e in EXHIBITS {
        let kind = if plan_for(e, 1).is_some() {
            "simulated"
        } else {
            "static"
        };
        println!("  {e:<10} {kind}");
    }
    println!("\nschemes (--filter'd exhibits pick their own; plans accept any):");
    println!(
        "  ST 1C {}",
        vliw_core::catalog::paper_scheme_names().join(" ")
    );
    println!("\nschedulers (--scheduler):");
    for s in SchedulerSpec::all() {
        println!("  {s}");
    }
    println!("\nmachine presets (--machine; also CxI[+muls+mems], e.g. 3x4, 2x8+1+2):");
    for m in MachineSpec::presets() {
        let c = m.config();
        println!(
            "  {:<10} {} clusters x {}-issue, {} muls, {} mems",
            m.to_string(),
            c.n_clusters,
            c.issue_per_cluster,
            c.muls_per_cluster,
            c.mems_per_cluster
        );
    }
    println!("\narrival processes (--arrivals):");
    println!("  closed  poisson:RATE  bursty:RATE:LEN:FACTOR  diurnal:RATE:PEAK:PERIOD");
    println!(
        "\nfleet presets (--fleet; also ENTRY[/ENTRY...][@POLICY], ENTRY = MACHINESPEC[*COUNT]):"
    );
    for (name, spec) in FleetSpec::presets() {
        println!("  {name:<10} = {spec}  ({} machines)", spec.n_machines());
    }
    println!("\ndispatcher policies (@POLICY):");
    for d in DispatcherSpec::all() {
        println!("  {d}");
    }
    println!("\ntrace formats (--trace-format):");
    println!("  chrome  jsonl  csv");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{HELP}");
    std::process::exit(2);
}

const HELP: &str = "usage: paper [EXHIBIT...] [--scale N] [--full] [--threads N] [--filter S] \
[--scheduler NAME] [--machine SPEC] [--arrivals SPEC] [--fleet SPEC] [--out DIR] [--json PATH] \
[--csv PATH] [--trace PATH] [--trace-format FMT] [--metrics PATH] [--metrics-format prom|json] \
[--metrics-timings] [--progress]
       paper --lint [--lint-format text|json]
       paper --list
exhibits: table1 table2 fig4 fig5 fig6 fig9 fig10 fig11 fig12 headline geometry trace traffic \
fleet all
schedulers: paper-random round-robin icount cluster-affinity
machines: paper-4x4 2x8 8x2 4x4-lite, or CxI[+muls+mems] (e.g. 3x4, 2x8+1+2)
arrivals: closed, poisson:RATE, bursty:RATE:LEN:FACTOR, diurnal:RATE:PEAK:PERIOD \
(RATE in arrivals/cycle, e.g. poisson:0.02)
fleets: ENTRY[/ENTRY...][@POLICY] with ENTRY = MACHINESPEC[*COUNT] (e.g. paper-4x4*2, \
paper-4x4*2/2x8@least-queued), preset: edge; policies: round-robin least-queued affinity
trace formats: chrome jsonl csv (default chrome)
see `paper --list` for every name the harness accepts";
