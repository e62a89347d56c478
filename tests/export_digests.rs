//! Golden export digests: the exact bytes every simulated `paper all`
//! exhibit exports, pinned as FNV-1a 64 digests.
//!
//! Three shapes are pinned, each over the sweeps `paper all` runs, read
//! from the same exhibit table (`vliw_bench::exhibits`) and run the same
//! way, on one shared session, in `paper`'s capture order:
//!
//! * `default` — the plans as the experiment drivers build them;
//! * `explicit` — every optional axis named, as `paper --scheduler icount
//!   --machine 2x8 --arrivals poisson:0.02 --fleet paper-4x4*2` does;
//! * `metered` — the plans run through `Plan::run_metered` with a live
//!   `Registry` (the trace sweep stays unmetered, as in `paper
//!   --metrics`), plus the registry's deterministic Prometheus and JSON
//!   reports and the whole schema: the `# HELP` and `# TYPE` lines of
//!   every metric, timing metrics included.
//!
//! Each shape pins every set's `to_json` and `to_csv` bytes and the
//! combined CSV `paper --csv` writes (`Sweeps::to_csv`).
//!
//! Export bytes omit state the issue cycle also decides: per-block merge
//! attempts and successes, the packet histogram, cache statistics and each
//! thread's branch-RNG state. The `.state` and `state/` digests pin all of
//! it, as the `Debug` dump of every cell's `RunStats`: every default-shape
//! exhibit, Figure 10 under the fixed and least-recently-issued priority
//! policies, and 6- and 8-port schemes on the 8x2 machine.
//!
//! FNV-1a is the digest `perfbench` uses; unlike `DefaultHasher` it is
//! stable across toolchains. On a mismatch the test prints every actual
//! digest in the table's own syntax, so an intended export change can be
//! re-pinned in one run.

use std::fmt::Write as _;
use vliw_bench::exhibits::{Axes, Sweeps, EXHIBITS};
use vliw_tms::core::{catalog, parser, MergeKind, PriorityPolicy};
use vliw_tms::isa::MachineSpec;
use vliw_tms::sim::experiments;
use vliw_tms::sim::plan::{Plan, ResultSet, Session, WorkloadRef};
use vliw_tms::sim::sched::SchedulerSpec;
use vliw_tms::sim::telemetry::Registry;

/// Short runs: every cell retires the 1 000-instruction budget floor.
const SCALE: u64 = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Default,
    Explicit,
    Metered,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::Default => "default",
            Shape::Explicit => "explicit",
            Shape::Metered => "metered",
        }
    }

    /// The axes `paper` applies in this shape.
    fn axes(self) -> Axes {
        match self {
            Shape::Explicit => Axes {
                scheduler: Some(SchedulerSpec::Icount),
                machine: Some("2x8".parse().unwrap()),
                arrivals: Some("poisson:0.02".parse().unwrap()),
                fleet: Some("paper-4x4*2".parse().unwrap()),
            },
            Shape::Default | Shape::Metered => Axes::default(),
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Every digest of one shape, labelled `shape/what`.
fn digests(shape: Shape) -> Vec<(String, u64)> {
    let session = Session::with_parallelism(2);
    let reg = Registry::new();
    let axes = shape.axes();
    let metered = (shape == Shape::Metered).then_some(&reg);
    let mut sweeps = Sweeps::new(&session, SCALE, &axes, metered);
    for sweep in EXHIBITS.iter().filter_map(|e| e.sweep()) {
        sweeps.run(sweep);
    }
    let at = |what: &str| format!("{}/{what}", shape.label());
    let mut out = Vec::new();
    for (id, set) in sweeps.sets() {
        out.push((at(&format!("{id}.json")), fnv1a(set.to_json().as_bytes())));
        out.push((at(&format!("{id}.csv")), fnv1a(set.to_csv().as_bytes())));
    }
    if shape == Shape::Default {
        for (id, set) in sweeps.sets() {
            out.push((at(&format!("{id}.state")), state_digest(set)));
        }
    }
    out.push((at("combined.csv"), fnv1a(sweeps.to_csv().as_bytes())));
    if shape == Shape::Metered {
        let report = reg.report();
        let prom = report.to_prom(false);
        out.push((at("metrics.prom"), fnv1a(prom.as_bytes())));
        let json = report.to_json(false);
        out.push((at("metrics.json"), fnv1a(json.as_bytes())));
        // The whole schema, timing metrics included: every name, help
        // text and type, without the run-dependent samples.
        let schema: String = report
            .to_prom(true)
            .lines()
            .filter(|l| l.starts_with("# HELP ") || l.starts_with("# TYPE "))
            .flat_map(|l| [l, "\n"])
            .collect();
        out.push((at("schema.prom"), fnv1a(schema.as_bytes())));
    }
    out
}

/// FNV-1a of every cell's full `RunStats` debug dump, in grid order.
fn state_digest(set: &ResultSet) -> u64 {
    let mut dump = String::new();
    for (_, result) in set.iter() {
        writeln!(dump, "{:?}", result.stats).unwrap();
    }
    fnv1a(dump.as_bytes())
}

/// Full-state digests of the cells the `paper all` exhibits leave out:
/// the non-default priority policies and schemes wider than four ports.
fn extra_state_digests() -> Vec<(String, u64)> {
    let session = Session::with_parallelism(2);
    let mut out = Vec::new();
    for (label, policy) in [
        ("fig10-fixed", PriorityPolicy::Fixed),
        ("fig10-lri", PriorityPolicy::LeastRecentlyIssued),
    ] {
        let set = experiments::fig10_plan(SCALE)
            .priority(policy)
            .run(&session);
        out.push((format!("state/{label}"), state_digest(&set)));
    }
    let members = [
        "mcf",
        "bzip2",
        "blowfish",
        "gsmencode",
        "cjpeg",
        "djpeg",
        "x264",
        "idct",
    ];
    let wide = Plan::new()
        .scheme(parser::parse("5SCCCC").unwrap())
        .scheme(catalog::balanced_tree(MergeKind::Smt, 8))
        .workload(WorkloadRef::members("wide8", &members))
        .machine(MachineSpec::Narrow8x2)
        .scale(SCALE)
        .run(&session);
    out.push(("state/wide-8x2".to_string(), state_digest(&wide)));
    out
}

/// Compare `actual` with every golden digest labelled `prefix/...`.
fn assert_golden(prefix: &str, actual: Vec<(String, u64)>) {
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .filter(|(label, _)| label.starts_with(&format!("{prefix}/")))
        .map(|&(label, d)| (label.to_string(), d))
        .collect();
    if actual != expected {
        for (label, d) in &actual {
            eprintln!("    (\"{label}\", {d:#018x}),");
        }
    }
    assert_eq!(actual, expected, "{prefix} digests changed");
}

#[test]
fn default_axes_exports_match_golden_digests() {
    assert_golden("default", digests(Shape::Default));
}

#[test]
fn explicit_axes_exports_match_golden_digests() {
    assert_golden("explicit", digests(Shape::Explicit));
}

#[test]
fn metered_exports_match_golden_digests() {
    assert_golden("metered", digests(Shape::Metered));
}

#[test]
fn priority_and_wide_scheme_state_matches_golden_digests() {
    assert_golden("state", extra_state_digests());
}

/// Export digests recorded before the plan/result API collapse onto one
/// axis table; no digest may change without an intended export or
/// simulation change. `metered/metrics.prom` was re-recorded when the
/// registry gained `vliw_cells_memoized_total` (72 cells of `paper all`
/// repeat an earlier cell of the same session). `metered/metrics.json`
/// and `metered/schema.prom` were recorded while the schema was still
/// spelled as one registration call per metric.
const GOLDEN: &[(&str, u64)] = &[
    ("default/table1.json", 0xefc3b82f5a1722d4),
    ("default/table1.csv", 0x358f44207d3cf992),
    ("default/fig4.json", 0xf750e3a88057598b),
    ("default/fig4.csv", 0xa53ad9a9e6172897),
    ("default/fig6.json", 0xd6140c0806b616da),
    ("default/fig6.csv", 0x1abb2277f03e7304),
    ("default/fig10.json", 0x088a861bf01c0a03),
    ("default/fig10.csv", 0x650eb0ee67fe0c3e),
    ("default/geometry.json", 0x3ee483cdac345ab6),
    ("default/geometry.csv", 0x51f6e576b7948ccf),
    ("default/trace.json", 0xef100c02c3a43cc9),
    ("default/trace.csv", 0xd422b91c64d9339d),
    ("default/traffic.json", 0x7e74f95fe0fc1900),
    ("default/traffic.csv", 0x250697b8c948023d),
    ("default/fleet.json", 0xaeb9538276fc3bfa),
    ("default/fleet.csv", 0xa7c0fdc485b59295),
    // Full-state digests, recorded before the issue-cycle fast path
    // (cached head signatures, the branch-free SMT check and the
    // slot-based merge evaluator).
    ("default/table1.state", 0x851868990536a511),
    ("default/fig4.state", 0x252e901c672982fd),
    ("default/fig6.state", 0xa60e10a51bccd5f9),
    ("default/fig10.state", 0xd6132da256387444),
    ("default/geometry.state", 0xa53ddd06f0f91d44),
    ("default/trace.state", 0xf1e23bb2b397e0b0),
    ("default/traffic.state", 0x8327dac2833cce82),
    ("default/fleet.state", 0x69bbe85d53785ee0),
    ("default/combined.csv", 0x823fedcd38e5288d),
    ("explicit/table1.json", 0xf8dc7ca9fedb7a7f),
    ("explicit/table1.csv", 0x3ef7797cd9f62b05),
    ("explicit/fig4.json", 0xc67316a7006e8229),
    ("explicit/fig4.csv", 0xa502b90109df43f8),
    ("explicit/fig6.json", 0x9a018d3dbb23b0dc),
    ("explicit/fig6.csv", 0xfdd23189502dece7),
    ("explicit/fig10.json", 0x5e4222f156e16e4c),
    ("explicit/fig10.csv", 0xf6c72b4ae8994174),
    ("explicit/geometry.json", 0x818791e9747eaed3),
    ("explicit/geometry.csv", 0xf5b44e59ee80c74f),
    ("explicit/trace.json", 0xb92f27b29f5b5b29),
    ("explicit/trace.csv", 0x50a38711a1f2c4bb),
    ("explicit/traffic.json", 0x637778e88f620d15),
    ("explicit/traffic.csv", 0xf101343127af06e2),
    ("explicit/fleet.json", 0xde05ad5378e96ee7),
    ("explicit/fleet.csv", 0xf5fd0362f6b034f2),
    ("explicit/combined.csv", 0xb26c36f9633f03a2),
    ("metered/table1.json", 0x63f85911260479ae),
    ("metered/table1.csv", 0x892534aa604c775a),
    ("metered/fig4.json", 0xd14a587e048db23d),
    ("metered/fig4.csv", 0x402c9f290f3c0013),
    ("metered/fig6.json", 0x31eb6972a6c6a46a),
    ("metered/fig6.csv", 0x11463ba916a0b850),
    ("metered/fig10.json", 0x5bb855aaaddcfb73),
    ("metered/fig10.csv", 0x23a1425af34e2d2a),
    ("metered/geometry.json", 0xe983cc660083cf92),
    ("metered/geometry.csv", 0x83220a5b1a7084e7),
    ("metered/trace.json", 0xef100c02c3a43cc9),
    ("metered/trace.csv", 0xd422b91c64d9339d),
    ("metered/traffic.json", 0x486d8d73fc57a2f7),
    ("metered/traffic.csv", 0x5dcb84db5b2b33de),
    ("metered/fleet.json", 0xf109fc3a314a4515),
    ("metered/fleet.csv", 0xd9c79da529fa8b52),
    ("metered/combined.csv", 0x7a97af4f703ea4ef),
    ("metered/metrics.prom", 0x3644d9645ed4902c),
    ("metered/metrics.json", 0xacebf051b3f803d5),
    ("metered/schema.prom", 0x910abb40d64c9f48),
    ("state/fig10-fixed", 0xe4f0724d3a3eb1ad),
    ("state/fig10-lri", 0x294c96ffa7a8e939),
    ("state/wide-8x2", 0xccc0f07d5fed05f9),
];
