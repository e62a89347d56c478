//! Host cost of one `Core::step` per scheme and geometry, with a committed
//! snapshot (`BENCH_step.json` at the repo root).
//!
//! Each cell is a core running four Table-1 benchmarks (low to high ILP)
//! under one scheme on one machine. A rep rebuilds and warms the cell's
//! core untimed, then times the same window of steps, so reps differ only
//! by host noise. Within a rep, the two machines of a scheme step in
//! alternating chunks, so host-speed phases land on both alike; each cell
//! reports the minimum and the median ns per step over its reps.
//!
//! Modes:
//! * default — measure, print a table, rewrite `BENCH_step.json`. The
//!   snapshot's `parent` block (the same cells measured on an earlier
//!   commit) is carried over unchanged.
//! * `BENCH_STEP_CHECK=1` — measure, then gate the geometry ratio: the
//!   median over reps of the 8x2 3SSS step cost divided by the 4x4 3SSS
//!   step cost of the same rep. It fails when that ratio exceeds the
//!   committed one by more than the committed spread (the range of the
//!   per-rep ratios). A ratio of two cells measured side by side holds on
//!   any host speed, and a geometry that falls off the fast signature path
//!   shows as a ratio well above 1.

use std::path::{Path, PathBuf};
use std::time::Instant;
use vliw_core::catalog;
use vliw_isa::MachineSpec;
use vliw_sim::runner::ImageCache;
use vliw_sim::{Core, SimConfig, SoftThread};
use vliw_workloads::benchmark;

const SCHEMES: [&str; 5] = ["ST", "1S", "2SC3", "3SSS", "C4"];
const MACHINES: [MachineSpec; 2] = [MachineSpec::Paper4x4, MachineSpec::Narrow8x2];
/// One low-, two medium- and one high-ILP benchmark, one per context.
const MEMBERS: [&str; 4] = ["mcf", "cjpeg", "x264", "idct"];
/// The scheme whose 8x2/4x4 ratio is gated.
const GATED: &str = "3SSS";
/// Cycles run before timing, so caches and branch state are warm.
const WARM_CYCLES: u64 = 20_000;
/// Steps per rep, in alternating chunks, and reps per cell.
const STEPS: u64 = 10_000;
const CHUNK: u64 = 500;
const REPS: usize = 31;

struct Measured {
    scheme: &'static str,
    machine: MachineSpec,
    /// ns per step of each rep, in rep order.
    reps: Vec<f64>,
}

fn warmed_core(cache: &ImageCache, scheme: &str, machine: MachineSpec) -> Core {
    let mut cfg = SimConfig::paper(catalog::by_name(scheme).unwrap(), 1).with_machine(machine);
    cfg.instr_budget = u64::MAX;
    let mut core = Core::new(&cfg);
    for ctx in 0..cfg.n_contexts() {
        let spec = benchmark(MEMBERS[ctx % MEMBERS.len()]).unwrap();
        let img = cache.get_spec(spec, &cfg.machine).unwrap();
        core.install(
            ctx,
            SoftThread::new(&img.0, img.1.clone(), ctx as u64, cfg.seed),
        );
    }
    core.run(WARM_CYCLES);
    core
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median(v: &[f64]) -> f64 {
    sorted(v)[v.len() / 2]
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Full range of the reps: what one run of the gate may read on the
/// host the snapshot was recorded on.
fn spread(v: &[f64]) -> f64 {
    let v = sorted(v);
    v[v.len() - 1] - v[0]
}

/// Per-rep ratio of the gated scheme's 8x2 cost to its 4x4 cost.
fn gate_ratios(cells: &[Measured]) -> Vec<f64> {
    let reps = |machine| {
        &cells
            .iter()
            .find(|c| c.scheme == GATED && c.machine == machine)
            .expect("the grid covers the gated cells")
            .reps
    };
    let (narrow, paper) = (reps(MachineSpec::Narrow8x2), reps(MachineSpec::Paper4x4));
    narrow.iter().zip(paper).map(|(n, p)| n / p).collect()
}

fn snapshot_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_step.json")
}

/// The committed snapshot's `parent` block, from its opening line to its
/// closing bracket, if it has one.
fn parent_block(snapshot: &str) -> Option<String> {
    let lines: Vec<&str> = snapshot.lines().collect();
    let start = lines.iter().position(|l| l.contains("\"parent\": ["))?;
    let len = lines[start..]
        .iter()
        .position(|l| l.trim_start().starts_with(']'))?;
    Some(lines[start..=start + len].join("\n"))
}

fn render_json(cells: &[Measured], parent: Option<&str>) -> String {
    let ratios = gate_ratios(cells);
    let mut s = String::from("{\n  \"bench\": \"step\",\n");
    s.push_str(&format!("  \"steps\": {STEPS},\n  \"reps\": {REPS},\n"));
    s.push_str(
        "  \"note\": \"ns per Core::step (min and median over interleaved reps) are \
         machine-specific; CI gates only the 8x2/4x4 3SSS ratio against ratio + spread\",\n",
    );
    s.push_str(&format!(
        "  \"gate\": {{\"scheme\":\"{GATED}\",\"ratio\":{:.3},\"spread\":{:.3}}},\n",
        median(&ratios),
        spread(&ratios)
    ));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scheme\":\"{}\",\"machine\":\"{}\",\"min_ns\":{:.1},\"median_ns\":{:.1}}}{}\n",
            c.scheme,
            c.machine,
            min(&c.reps),
            median(&c.reps),
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    match parent {
        Some(block) => s.push_str(&format!("  ],\n{block}\n}}\n")),
        None => s.push_str("  ]\n}\n"),
    }
    s
}

/// Pull `"<field>":<x>` off the committed snapshot's gate line.
fn committed_gate(snapshot: &str, field: &str) -> Option<f64> {
    let line = snapshot.lines().find(|l| l.contains("\"gate\""))?;
    let rest = line.split(&format!("\"{field}\":")).nth(1)?;
    let end = rest
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let check = std::env::var("BENCH_STEP_CHECK").is_ok_and(|v| v == "1");
    let cache = ImageCache::new();
    let mut cells: Vec<Measured> = SCHEMES
        .iter()
        .flat_map(|&scheme| MACHINES.iter().map(move |&machine| (scheme, machine)))
        .map(|(scheme, machine)| Measured {
            scheme,
            machine,
            reps: Vec::with_capacity(REPS),
        })
        .collect();
    for _ in 0..REPS {
        for pair in cells.chunks_mut(MACHINES.len()) {
            let mut cores: Vec<(Core, u128)> = pair
                .iter()
                .map(|c| (warmed_core(&cache, c.scheme, c.machine), 0))
                .collect();
            for _ in 0..STEPS / CHUNK {
                for (core, ns) in cores.iter_mut() {
                    let t = Instant::now();
                    for _ in 0..CHUNK {
                        std::hint::black_box(core.step());
                    }
                    *ns += t.elapsed().as_nanos();
                }
            }
            for (cell, (_, ns)) in pair.iter_mut().zip(cores) {
                cell.reps.push(ns as f64 / STEPS as f64);
            }
        }
    }
    for c in &cells {
        println!(
            "step/{}@{}: min {:.1} ns, median {:.1} ns",
            c.scheme,
            c.machine,
            min(&c.reps),
            median(&c.reps)
        );
    }
    let ratios = gate_ratios(&cells);
    let ratio = median(&ratios);
    println!(
        "step/{GATED} 8x2/4x4 ratio: median {ratio:.3}, spread {:.3}",
        spread(&ratios)
    );

    let snapshot = std::fs::read_to_string(snapshot_path()).ok();
    if check {
        let snapshot =
            snapshot.expect("BENCH_step.json missing — run the bench once without check mode");
        let committed = committed_gate(&snapshot, "ratio").expect("snapshot gate ratio");
        let spread = committed_gate(&snapshot, "spread").expect("snapshot gate spread");
        let ceiling = committed + spread;
        let ok = ratio <= ceiling;
        println!(
            "check {GATED} 8x2/4x4: measured {ratio:.3} vs committed {committed:.3} \
             (ceiling {ceiling:.3}) — {}",
            if ok { "ok" } else { "REGRESSION" }
        );
        if !ok {
            eprintln!("step: 8x2 step cost regressed against 4x4 beyond BENCH_step.json's spread");
            std::process::exit(1);
        }
    } else {
        let parent = snapshot.as_deref().and_then(parent_block);
        let json = render_json(&cells, parent.as_deref());
        std::fs::write(snapshot_path(), &json).expect("write BENCH_step.json");
        println!("wrote {}", snapshot_path().display());
    }
}
