//! Wall-clock cost of a live telemetry registry, with a committed snapshot
//! (`BENCH_telemetry.json` at the repo root) extending the perf
//! trajectory of `BENCH_event_core.json` / `BENCH_traffic.json` /
//! `BENCH_fleet.json`.
//!
//! One cell, `registry-overhead`: a small scheme × workload sweep through
//! [`Plan::run_metered`] against a live [`Registry`] (mutex per emission,
//! post-hoc harvest, report assembly) vs the same sweep through
//! [`Plan::run`], interleaved so machine noise lands on both sides. It is
//! recorded for the trajectory only: absolute cost is machine-specific, a
//! live registry is opt-in (`paper --metrics/--progress`), and no CI step
//! gates it. The disabled path needs no cell of its own: [`Plan::run`] is
//! `run_metered` under `NullTelemetry`, one code path.
//!
//! Before timing, the bench asserts that the metered sweep reproduces the
//! plain sweep's per-cell statistics (telemetry observes, never perturbs).
//! `cargo bench -p vliw-bench --bench telemetry` measures and rewrites the
//! snapshot.

use std::path::{Path, PathBuf};
use std::time::Instant;
use vliw_sim::plan::{Plan, Session};
use vliw_telemetry::Registry;

/// 1/200 of the paper's runs (matches the other bench snapshots).
const SCALE: u64 = 200;
/// Timed repetitions per side; each side's minimum is reported.
const ITERS: usize = 7;

/// The benched sweep: three schemes over a single + two mixes — enough
/// cells for the per-cell hooks to matter, small enough to iterate 7×.
fn plan() -> Plan {
    Plan::new()
        .schemes(["ST", "1S", "2SC3"])
        .workloads(["idct", "mcf", "LLHH"])
        .scale(SCALE)
}

fn snapshot_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_telemetry.json")
}

/// Wall time of `f`, milliseconds.
fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    // One worker and one image cache for every run: each timed run is warm.
    let session = Session::with_parallelism(1);
    let plan = plan();

    // Correctness before cost: the metered sweep must reproduce the plain
    // one cell for cell (it also carries the gated telemetry export
    // columns, so compare per-cell stats).
    let base_set = plan.run(&session);
    let reg_set = plan.run_metered(&session, &Registry::new());
    for ((_, a), (_, b)) in base_set.iter().zip(reg_set.iter()) {
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "a live registry must not perturb per-cell stats"
        );
    }

    // Interleaved min-of-ITERS so machine noise lands on both sides.
    let (mut base_ms, mut registry_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ITERS {
        base_ms = base_ms.min(time_ms(|| assert!(!plan.run(&session).is_empty())));
        let reg = Registry::new();
        registry_ms = registry_ms.min(time_ms(|| {
            assert!(!plan.run_metered(&session, &reg).is_empty())
        }));
    }
    let ratio = registry_ms / base_ms;
    println!(
        "telemetry/registry-overhead: base {base_ms:.2} ms, live registry {registry_ms:.2} ms, \
         ratio {ratio:.3}x (informational)"
    );
    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"scale\": {SCALE},\n  \"iters\": {ITERS},\n  \
         \"note\": \"machine-specific and informational; no CI step compares it\",\n  \
         \"cells\": [\n    {{\"kind\":\"registry-overhead\",\"base_ms\":{base_ms:.2},\
         \"registry_ms\":{registry_ms:.2},\"registry_ratio\":{ratio:.3}}}\n  ]\n}}\n"
    );
    std::fs::write(snapshot_path(), json).expect("write BENCH_telemetry.json");
    println!("wrote {}", snapshot_path().display());
}
