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
//! EXHIBIT: any name `paper --list` prints, or all (default: all)
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
//!                  registry and write the sweep report to PATH. The report
//!                  lists every metric of the schema, at zero when no
//!                  metered sweep ran (the static exhibits are not
//!                  metered; the traced `trace` sweep is). The deterministic
//!                  metric class (cells, cycles, waste, queue and
//!                  idle-span structure, cache economics, fleet lane
//!                  accounting) is byte-identical across --threads values
//!                  and core models; wall-clock timings are excluded
//!                  unless --metrics-timings is given
//! --metrics-format FMT  report rendering: prom (Prometheus text
//!                  exposition; default) or json
//! --metrics-timings  include the timing metric class (per-cell wall time,
//!                  compile/simulate split, cache build/verify time, live
//!                  probe counts) in the --metrics report; these values are
//!                  nondeterministic by nature
//! --progress       stderr heartbeat while sweeps run: cells done/total,
//!                  cells/sec, ETA, image-cache hit-rate. It records no
//!                  metric and changes no export: stdout, --json, --csv,
//!                  --out and --metrics bytes are the same without it
//! ```
//!
//! Exhibit names, `--scale`, `--filter`, `--scheduler`, `--machine`,
//! `--arrivals`, `--trace`, `--trace-format` and every output path are
//! validated up front — before any simulation runs — and a bad value exits
//! 2 with the usage text; an unknown name prints the list of valid ones
//! (`--machine` also rejects geometries that cannot compile the Table-1
//! suite; `--trace` requires at least one simulated exhibit to be
//! selected). Each `--json`, `--csv`, `--trace` and `--metrics` file is
//! created empty and the `--out` directory created before the first sweep,
//! so an unwritable path fails at once.
//!
//! Every exhibit, the sweep it reads and its renderer are one row of
//! [`vliw_bench::exhibits::EXHIBITS`]; validation, `--list`, `--filter`,
//! the `--trace` target and the run loop all read that table. Each sweep
//! runs at most once per invocation, so fig10, fig11, fig12 and headline
//! share one simulation. The `--json`/`--csv` exports hold one result set
//! per sweep run, under the sweep's id, in first-use order; static
//! exhibits have none. Both exports are byte-identical across `--threads`
//! values: the sweep grid is deterministic and ordered. Without
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

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use vliw_bench::exhibits::{exhibit, Axes, Sweep, Sweeps, EXHIBITS};
use vliw_sim::experiments;
use vliw_sim::plan::{DispatcherSpec, FleetSpec, MachineSpec, Session};
use vliw_sim::sched::SchedulerSpec;
use vliw_trace::TraceFormat;

fn main() {
    let mut scale: u64 = 20;
    let mut par = vliw_sim::runner::default_parallelism();
    let mut out = PathBuf::from("results");
    let mut wanted: Vec<String> = Vec::new();
    let mut filter: Option<String> = None;
    let mut axes = Axes::default();
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
                scale = value(&mut args, "--scale", "a positive number")
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .unwrap_or_else(|| die("--scale needs a positive number"));
            }
            "--full" => scale = 1,
            "--threads" | "--par" => {
                par = value(&mut args, "--threads", "a positive number")
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| die("--threads needs a positive number"));
            }
            "--filter" => filter = Some(value(&mut args, &a, "a substring")),
            "--scheduler" => axes.scheduler = Some(parsed(&mut args, &a, "a policy name")),
            "--machine" => {
                let spec: MachineSpec = parsed(&mut args, &a, "a geometry spec");
                if !spec.runs_full_suite() {
                    die(&format!(
                        "machine {spec} cannot run the benchmark suite (it needs at least \
                         one multiplier and one memory unit per cluster)"
                    ));
                }
                axes.machine = Some(spec);
            }
            "--arrivals" => axes.arrivals = Some(parsed(&mut args, &a, "a traffic spec")),
            "--fleet" => {
                let spec: FleetSpec = parsed(&mut args, &a, "a fleet spec");
                if let Some(bad) = spec.machines().iter().find(|m| !m.runs_full_suite()) {
                    die(&format!(
                        "fleet member {bad} cannot run the benchmark suite (it needs at \
                         least one multiplier and one memory unit per cluster)"
                    ));
                }
                axes.fleet = Some(spec);
            }
            "--list" => list = true,
            "--out" => out = value(&mut args, &a, "a path").into(),
            "--json" => json_path = Some(value(&mut args, &a, "a path").into()),
            "--csv" => csv_path = Some(value(&mut args, &a, "a path").into()),
            "--trace" => trace_path = Some(value(&mut args, &a, "a path").into()),
            "--trace-format" => trace_format = Some(parsed(&mut args, &a, "a format name")),
            "--metrics" => metrics_path = Some(value(&mut args, &a, "a path").into()),
            "--metrics-format" => {
                metrics_json = Some(match value(&mut args, &a, "a format name").as_str() {
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
                lint_json = Some(match value(&mut args, &a, "a format name").as_str() {
                    "text" => false,
                    "json" => true,
                    other => die(&format!(
                        "unknown lint format {other:?}; valid formats: text json"
                    )),
                });
            }
            "--help" | "-h" => {
                println!("{}", help());
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
            || axes.scheduler.is_some()
            || axes.machine.is_some()
            || axes.arrivals.is_some()
            || axes.fleet.is_some()
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
    let mut selected = Vec::new();
    for w in &wanted {
        match exhibit(w) {
            Some(e) => selected.push(e),
            None if w == "all" => {}
            None => die(&format!(
                "unknown exhibit {w:?}; valid exhibits: {}",
                exhibit_names()
            )),
        }
    }
    if selected.is_empty() || wanted.iter().any(|w| w == "all") {
        selected = EXHIBITS.iter().collect();
    }
    if let Some(f) = &filter {
        selected.retain(|e| e.name.contains(f.as_str()));
        if selected.is_empty() {
            die(&format!(
                "--filter {f:?} matches no exhibit; valid exhibits: {}",
                exhibit_names()
            ));
        }
    }
    // First occurrence wins: a repeated name would render twice.
    let mut seen = std::collections::HashSet::new();
    selected.retain(|e| seen.insert(e.name));

    // Up-front --trace/--trace-format validation: a bad format name, an
    // unwritable path, or a selection with nothing to trace must fail
    // before any sweep runs (same contract as --machine/--scheduler).
    if trace_format.is_some() && trace_path.is_none() {
        die("--trace-format requires --trace");
    }
    let trace_target = trace_path.as_ref().map(|_| {
        selected
            .iter()
            .find_map(|e| Some((e.name, e.sweep()?)))
            .unwrap_or_else(|| {
                let fixed: Vec<&str> = EXHIBITS
                    .iter()
                    .filter(|e| e.sweep().is_none())
                    .map(|e| e.name)
                    .collect();
                die(&format!(
                    "--trace needs at least one simulated exhibit selected ({} are static)",
                    fixed.join("/")
                ))
            })
    });
    let trace_format = trace_format.unwrap_or(TraceFormat::Chrome);
    for (flag, path) in [
        ("--trace", &trace_path),
        ("--json", &json_path),
        ("--csv", &csv_path),
        ("--metrics", &metrics_path),
    ] {
        if let Some(path) = path {
            create_or_die(flag, path);
        }
    }
    if let Err(err) = std::fs::create_dir_all(&out) {
        die(&format!("cannot write --out {}: {err}", out.display()));
    }
    // One registry for the whole invocation, with the whole schema
    // registered up front, so the report lists every metric even when no
    // metered sweep runs. Every metered plan registers the same schema
    // again, idempotently, and the deterministic class accumulates across
    // exhibits in grid order.
    let registry = metrics_path.as_ref().map(|_| {
        let reg = vliw_sim::telemetry::Registry::new();
        vliw_sim::metrics::register_schema(&reg);
        reg
    });

    println!(
        "vliw-tms paper harness — scale 1/{scale} of the paper's run length, {par} rayon workers{}{}{}{}\n",
        axes.scheduler.map(|s| format!(", {s} scheduler")).unwrap_or_default(),
        axes.machine.map(|m| format!(", {m} machine")).unwrap_or_default(),
        axes.arrivals.map(|t| format!(", {t} arrivals")).unwrap_or_default(),
        axes.fleet.as_ref().map(|f| format!(", {f} fleet")).unwrap_or_default(),
    );
    let t0 = std::time::Instant::now();
    let mut session = Session::with_parallelism(par);
    if progress {
        // The heartbeat's total is every cell of every distinct sweep the
        // selected exhibits read, known before the first one runs.
        let mut sweeps: Vec<Sweep> = Vec::new();
        for sweep in selected.iter().filter_map(|e| e.sweep()) {
            if !sweeps.contains(&sweep) {
                sweeps.push(sweep);
            }
        }
        let cells = sweeps
            .iter()
            .map(|sweep| axes.apply(sweep.plan(scale)).jobs().len() as u64)
            .sum();
        session = session.with_progress(cells);
    }
    let mut sweeps = Sweeps::new(&session, scale, &axes, registry.as_ref());
    for e in &selected {
        let ex = sweeps.render(e);
        println!("{}", ex.text);
        if let Err(err) = ex.save_csv(&out, e.name) {
            eprintln!("warning: could not save {}: {err}", e.name);
        }
    }

    if let (Some(path), Some((name, sweep))) = (&trace_path, trace_target) {
        // Trace the first grid cell of the first simulated exhibit. Run
        // length is floored: full event streams grow with run length, and
        // a single cell at the default scale would be gigabytes.
        let plan = axes.apply(sweep.plan(scale.max(experiments::TRACE_SCALE_FLOOR)));
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
                "trace ({trace_format}) of {name} cell {}/{} written to {} \
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
        write_export(path, sweeps.to_json(), "raw result sets (JSON)");
    }
    if let Some(path) = &csv_path {
        write_export(path, sweeps.to_csv(), "raw result sets (CSV)");
    }
    if let (Some(path), Some(reg)) = (&metrics_path, &registry) {
        let report = reg.report();
        let (body, label) = if metrics_json.unwrap_or(false) {
            (report.to_json(metrics_timings), "json")
        } else {
            (report.to_prom(metrics_timings), "prom")
        };
        write_export(path, body, &format!("telemetry metrics ({label})"));
    }

    println!(
        "done in {:.1}s; CSVs in {}",
        t0.elapsed().as_secs_f64(),
        out.display()
    );
}

/// The value after `flag`, or exit 2 naming `what` it needs.
fn value(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next()
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

/// The value after `flag`, parsed; exit 2 with the parse error otherwise.
fn parsed<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T
where
    T::Err: Display,
{
    value(args, flag, what)
        .parse()
        .unwrap_or_else(|e: T::Err| die(&e.to_string()))
}

/// Create (or truncate) an output file now, so an unwritable path dies
/// before any sweep runs; the file is overwritten at the end.
fn create_or_die(flag: &str, path: &Path) {
    if let Err(err) = std::fs::write(path, b"") {
        die(&format!("cannot write {flag} {}: {err}", path.display()));
    }
}

/// Write one export file, warning instead of failing when the write does.
fn write_export(path: &Path, body: String, what: &str) {
    match std::fs::write(path, body) {
        Ok(()) => println!("{what} written to {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
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
            let report = vliw_analyze::analyze_image(&img);
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
    for e in &EXHIBITS {
        let kind = if e.sweep().is_some() {
            "simulated"
        } else {
            "static"
        };
        println!("  {:<10} {kind}", e.name);
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
    println!("  {}", joined(TraceFormat::ALL, "  "));
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{}", help());
    std::process::exit(2);
}

/// Every exhibit name, in render order.
fn exhibit_names() -> String {
    joined(EXHIBITS.map(|e| e.name), " ")
}

/// `items` as the parsers spell them, separated by `sep`.
fn joined<T: Display>(items: impl IntoIterator<Item = T>, sep: &str) -> String {
    let names: Vec<String> = items.into_iter().map(|t| t.to_string()).collect();
    names.join(sep)
}

/// The usage text. Every name list comes from the library, as `--list`'s do.
fn help() -> String {
    format!(
        "usage: paper [EXHIBIT...] [--scale N] [--full] [--threads N] [--filter S] \
[--scheduler NAME] [--machine SPEC] [--arrivals SPEC] [--fleet SPEC] [--out DIR] [--json PATH] \
[--csv PATH] [--trace PATH] [--trace-format FMT] [--metrics PATH] [--metrics-format prom|json] \
[--metrics-timings] [--progress]
       paper --lint [--lint-format text|json]
       paper --list
exhibits: {} all
schedulers: {}
machines: {}, or CxI[+muls+mems] (e.g. 3x4, 2x8+1+2)
arrivals: closed, poisson:RATE, bursty:RATE:LEN:FACTOR, diurnal:RATE:PEAK:PERIOD \
(RATE in arrivals/cycle, e.g. poisson:0.02)
fleets: ENTRY[/ENTRY...][@POLICY] with ENTRY = MACHINESPEC[*COUNT] (e.g. paper-4x4*2, \
paper-4x4*2/2x8@least-queued), preset: {}; policies: {}
trace formats: {} (default {})
see `paper --list` for every name the harness accepts",
        exhibit_names(),
        joined(SchedulerSpec::all(), " "),
        joined(MachineSpec::presets(), " "),
        joined(FleetSpec::presets().into_iter().map(|(name, _)| name), " "),
        joined(DispatcherSpec::all(), " "),
        joined(TraceFormat::ALL, " "),
        TraceFormat::Chrome,
    )
}
