//! End-to-end pins of the `paper` binary, pinned as FNV-1a 64 digests:
//!
//! * `paper all` at `--threads 1` and `--threads 2`: stdout, the `--json`
//!   and `--csv` files and the 14 `--out` CSVs, which must be identical at
//!   both worker counts; once with the paper's default axes and once with
//!   every optional axis named;
//! * `paper all --metrics --csv`, whose heartbeat under `--progress`
//!   counts as many cells as the report;
//! * `--filter fig1`, which renders three exhibits from one captured
//!   `fig10` sweep;
//! * the `--trace` file of `paper fig5 fig4`, which traces fig4's first
//!   cell;
//! * `--list` and `--help`.
//!
//! `--progress` must leave the `--json` and `--csv` bytes alone, and a
//! `--metrics` report lists the whole deterministic schema even when no
//! metered sweep ran.
//!
//! The `--csv` and `--metrics` bytes equal the combined-CSV and
//! Prometheus pins of `tests/export_digests.rs`, asserted below, so the
//! library exports and the CLI that writes them cannot drift apart.
//!
//! Stdout is pinned without its header line, which names the worker
//! count, and without the lines that name an output path or the wall
//! time. On a mismatch the test prints every actual digest in the table's
//! own syntax.
//!
//! The usage errors must exit 2 and simulate nothing: a bad exhibit name,
//! `--filter` or `--trace` selection prints the valid exhibit names, and
//! `--scale 0`, an unwritable output path or a `--machine`/`--fleet`
//! geometry that cannot run the benchmark suite prints the usage text.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Short runs: every cell retires the 1 000-instruction budget floor.
const SCALE: &str = "100000";

/// Every exhibit `paper` understands, in render order, as the usage
/// errors list them.
const NAMES: &str =
    "table1 table2 fig4 fig5 fig6 fig9 fig10 fig11 fig12 headline geometry trace traffic fleet";

/// `--scheduler`, `--machine`, `--arrivals` and `--fleet` all named.
const EXPLICIT_AXES: [&str; 8] = [
    "--scheduler",
    "icount",
    "--machine",
    "2x8",
    "--arrivals",
    "poisson:0.02",
    "--fleet",
    "paper-4x4*2",
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A fresh, empty directory for one run.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paper-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("run paper")
}

/// Stdout of a successful run.
fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "paper failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

/// Stdout of a successful simulating run without its header line and the
/// lines that name an output path or the wall time.
fn pinned_stdout(out: &Output) -> String {
    stdout(out)
        .lines()
        .skip(1)
        .filter(|l| !l.contains(" written to ") && !l.starts_with("done in "))
        .flat_map(|l| [l, "\n"])
        .collect()
}

fn file_digest(p: &Path) -> u64 {
    fnv1a(&std::fs::read(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display())))
}

/// Digests of every CSV under `dir`, by file name, labelled `label/out/NAME`.
fn out_digests(label: &str, dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("--out directory exists")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            (format!("{label}/out/{name}"), file_digest(p))
        })
        .collect()
}

/// Digests of one `paper all` run with `--json`, `--csv` and `--out`.
fn all_run(label: &str, threads: &str, axes: &[&str]) -> Vec<(String, u64)> {
    let dir = scratch(&format!("{label}-{threads}"));
    let (json, csv, out) = (dir.join("all.json"), dir.join("all.csv"), dir.join("out"));
    let mut args = vec![
        "all",
        "--scale",
        SCALE,
        "--threads",
        threads,
        "--json",
        path(&json),
        "--csv",
        path(&csv),
        "--out",
        path(&out),
    ];
    args.extend_from_slice(axes);
    let output = paper(&args);
    let mut digests = vec![
        (
            format!("{label}/stdout"),
            fnv1a(pinned_stdout(&output).as_bytes()),
        ),
        (format!("{label}/json"), file_digest(&json)),
        (format!("{label}/csv"), file_digest(&csv)),
    ];
    let outs = out_digests(label, &out);
    assert_eq!(outs.len(), 14, "paper all renders 14 exhibits: {outs:?}");
    digests.extend(outs);
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

fn digest_of(digests: &[(String, u64)], label: &str) -> u64 {
    digests
        .iter()
        .find(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("no {label} digest"))
        .1
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
fn paper_all_matches_golden_digests_at_both_worker_counts() {
    let one = all_run("default", "1", &[]);
    let two = all_run("default", "2", &[]);
    assert_eq!(one, two, "--threads must not change a byte");
    assert_eq!(
        digest_of(&two, "default/csv"),
        0x823fedcd38e5288d,
        "paper --csv must equal export_digests' default/combined.csv"
    );
    assert_golden("default", two);
}

#[test]
fn explicit_axes_match_golden_digests_at_both_worker_counts() {
    let one = all_run("explicit", "1", &EXPLICIT_AXES);
    let two = all_run("explicit", "2", &EXPLICIT_AXES);
    assert_eq!(one, two, "--threads must not change a byte");
    assert_eq!(
        digest_of(&two, "explicit/csv"),
        0xb26c36f9633f03a2,
        "paper --csv must equal export_digests' explicit/combined.csv"
    );
    assert_golden("explicit", two);
}

#[test]
fn metered_run_matches_golden_digests() {
    let dir = scratch("metered");
    let (prom, csv) = (dir.join("metrics.prom"), dir.join("all.csv"));
    let out = dir.join("out");
    let output = paper(&[
        "all",
        "--scale",
        SCALE,
        "--threads",
        "2",
        "--metrics",
        path(&prom),
        "--csv",
        path(&csv),
        "--out",
        path(&out),
        "--progress",
    ]);
    let digests = vec![
        (
            "metered/stdout".to_string(),
            fnv1a(pinned_stdout(&output).as_bytes()),
        ),
        ("metered/csv".to_string(), file_digest(&csv)),
        ("metered/metrics.prom".to_string(), file_digest(&prom)),
    ];
    let report = std::fs::read_to_string(&prom).expect("read --metrics report");
    let _ = std::fs::remove_dir_all(&dir);
    // Every cell the session ran is metered: the heartbeat's last count
    // equals the report's, traced sweep included.
    let stderr = String::from_utf8_lossy(&output.stderr);
    let heartbeat = stderr
        .rsplit("cells ")
        .next()
        .and_then(|tail| tail.split_whitespace().next())
        .expect("a heartbeat line");
    let metered = report
        .lines()
        .find_map(|l| l.strip_prefix("vliw_cells_total "))
        .expect("vliw_cells_total sample");
    assert_eq!(heartbeat, format!("{metered}/{metered}"), "{stderr}");
    assert_eq!(
        digest_of(&digests, "metered/csv"),
        0x823fedcd38e5288d,
        "paper --metrics --csv must equal export_digests' metered/combined.csv"
    );
    assert_eq!(
        digest_of(&digests, "metered/metrics.prom"),
        0x21f3e9f5de9f75e0,
        "paper --metrics must equal export_digests' metered/metrics.prom"
    );
    assert_golden("metered", digests);
}

#[test]
fn progress_and_metrics_change_no_export_byte() {
    let dir = scratch("observers");
    let out = dir.join("out");
    let run = |tag: &str, observer: &[&str]| {
        let (json, csv) = (
            dir.join(format!("{tag}.json")),
            dir.join(format!("{tag}.csv")),
        );
        let mut args = vec![
            "table1",
            "--scale",
            "20000",
            "--threads",
            "1",
            "--json",
            path(&json),
            "--csv",
            path(&csv),
            "--out",
            path(&out),
        ];
        args.extend_from_slice(observer);
        let output = paper(&args);
        stdout(&output);
        let read =
            |p: &Path| std::fs::read(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (read(&json), read(&csv), stderr)
    };
    let prom = dir.join("m.prom");
    let (plain_json, plain_csv, _) = run("plain", &[]);
    let (json, csv, stderr) = run("progress", &["--progress"]);
    let (metered_json, metered_csv, _) = run("metered", &["--metrics", path(&prom)]);
    let _ = std::fs::remove_dir_all(&dir);
    for (flag, other) in [("--progress", &csv), ("--metrics", &metered_csv)] {
        assert!(
            &plain_csv == other,
            "{flag} changed the --csv bytes:\n{}\nvs\n{}",
            String::from_utf8_lossy(&plain_csv),
            String::from_utf8_lossy(other)
        );
    }
    assert!(plain_json == json, "--progress changed the --json bytes");
    assert!(
        plain_json == metered_json,
        "--metrics changed the --json bytes"
    );
    assert!(stderr.contains("cells 24/24"), "heartbeat: {stderr:?}");
}

/// The heartbeat knows the run's total before the first cell: a run of
/// two sweeps paints one total throughout, not each sweep's running sum.
#[test]
fn progress_paints_the_whole_run_total_from_the_start() {
    let dir = scratch("progress-total");
    let out = dir.join("out");
    let output = paper(&[
        "table1",
        "fig4",
        "--scale",
        SCALE,
        "--threads",
        "2",
        "--progress",
        "--out",
        path(&out),
    ]);
    stdout(&output);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let totals: Vec<&str> = stderr
        .split("cells ")
        .skip(1)
        .filter_map(|tail| tail.split_whitespace().next()?.split_once('/'))
        .map(|(_, total)| total)
        .collect();
    assert!(!totals.is_empty(), "no heartbeat: {stderr:?}");
    assert!(
        totals.iter().all(|&total| total == "51"),
        "table1's 24 cells and fig4's 27 make one total of 51: {stderr:?}"
    );
    assert!(stderr.contains("cells 51/51 "), "{stderr:?}");
}

#[test]
fn metrics_without_a_metered_sweep_lists_the_schema() {
    let dir = scratch("metrics-static");
    let (prom, out) = (dir.join("m.prom"), dir.join("out"));
    let output = paper(&["table2", "--metrics", path(&prom), "--out", path(&out)]);
    stdout(&output);
    let text = std::fs::read_to_string(&prom).expect("read --metrics report");
    let _ = std::fs::remove_dir_all(&dir);
    let types: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .collect();
    assert_eq!(types.len(), 29, "every deterministic metric:\n{text}");
    assert_eq!(types.first(), Some(&"vliw_cells_total counter"));
    assert_eq!(
        types.last(),
        Some(&"vliw_fleet_lane_busy_permille histogram")
    );
    for sample in text.lines().filter(|l| !l.starts_with('#')) {
        assert!(sample.ends_with(" 0"), "no sweep ran: {sample}");
    }
}

#[test]
fn filter_renders_three_exhibits_from_one_captured_sweep() {
    let dir = scratch("filter");
    let (json, out) = (dir.join("fig1.json"), dir.join("out"));
    let output = paper(&[
        "--filter",
        "fig1",
        "--scale",
        SCALE,
        "--threads",
        "2",
        "--json",
        path(&json),
        "--out",
        path(&out),
    ]);
    let body = pinned_stdout(&output);
    let exported = std::fs::read_to_string(&json).unwrap();
    assert_eq!(
        exported.matches("{\"id\":").count(),
        1,
        "one captured set: {}",
        &exported[..exported.len().min(200)]
    );
    assert!(exported.contains("{\"id\":\"fig10\","));
    let mut digests = vec![
        ("filter/stdout".to_string(), fnv1a(body.as_bytes())),
        ("filter/json".to_string(), fnv1a(exported.as_bytes())),
    ];
    digests.extend(out_digests("filter", &out));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(digests.len(), 2 + 3, "fig10, fig11 and fig12: {digests:?}");
    assert_golden("filter", digests);
}

#[test]
fn trace_follows_the_first_simulated_exhibit() {
    let dir = scratch("trace");
    let (trace, out) = (dir.join("fig4.trace.json"), dir.join("out"));
    let output = paper(&[
        "fig5",
        "fig4",
        "--scale",
        SCALE,
        "--threads",
        "2",
        "--trace",
        path(&trace),
        "--out",
        path(&out),
    ]);
    let text = stdout(&output);
    assert!(
        text.contains("trace (chrome) of fig4 cell "),
        "trace must target fig4:\n{text}"
    );
    let digests = vec![
        (
            "trace/stdout".to_string(),
            fnv1a(pinned_stdout(&output).as_bytes()),
        ),
        ("trace/trace.json".to_string(), file_digest(&trace)),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    assert_golden("trace", digests);
}

#[test]
fn list_and_help_match_golden_digests() {
    let list = stdout(&paper(&["--list"]));
    let help = stdout(&paper(&["--help"]));
    for name in NAMES.split(' ') {
        assert!(
            list.contains(&format!("\n  {name} ")),
            "--list lacks {name}"
        );
    }
    assert!(help.contains(&format!("exhibits: {NAMES} all\n")), "{help}");
    assert_golden(
        "usage",
        vec![
            ("usage/list".to_string(), fnv1a(list.as_bytes())),
            ("usage/help".to_string(), fnv1a(help.as_bytes())),
        ],
    );
}

#[test]
fn usage_errors_exit_2_and_name_every_exhibit() {
    let dir = scratch("errors");
    let trace = dir.join("static.trace.json");
    let cases: [&[&str]; 3] = [
        &["fig13", "--scale", SCALE],
        &["--filter", "nomatch", "--scale", SCALE],
        &["table2", "fig5", "fig9", "--trace", path(&trace)],
    ];
    for args in cases {
        let out = paper(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(NAMES),
            "{args:?} must list the exhibits: {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} must fail before simulating"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_scale_and_unwritable_outputs_exit_2_before_simulating() {
    let dir = scratch("unwritable");
    let file = dir.join("file");
    std::fs::write(&file, b"").unwrap();
    let missing = dir.join("missing").join("x");
    let (out, under_file) = (dir.join("out"), file.join("out"));
    let (out, missing) = (path(&out), path(&missing));
    // A machine without a multiplier cannot compile most of the suite.
    let lean = "4x4+0+1";
    let lean_fleet = format!("paper-4x4/{lean}");
    let cases: [&[&str]; 8] = [
        &["fig5", "--scale", "0", "--out", out],
        &["table1", "--scale", SCALE, "--trace", missing, "--out", out],
        &["table1", "--scale", SCALE, "--json", missing, "--out", out],
        &["table1", "--scale", SCALE, "--csv", missing, "--out", out],
        &["table1", "--scale", SCALE, "--out", path(&under_file)],
        &[
            "table1",
            "--scale",
            SCALE,
            "--metrics",
            missing,
            "--out",
            out,
        ],
        &["table1", "--scale", SCALE, "--machine", lean, "--out", out],
        &[
            "table1",
            "--scale",
            SCALE,
            "--fleet",
            &lean_fleet,
            "--out",
            out,
        ],
    ];
    for args in cases {
        let out = paper(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: paper"), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} must fail before simulating"
        );
        if args.iter().any(|a| a.contains(lean)) {
            assert!(
                err.contains(&format!("{lean} cannot run")),
                "{args:?}: {err}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Digests recorded before the exhibit table replaced `paper`'s
/// per-exhibit code; no digest may change without an intended output
/// change. The explicit stdout, `fig11.csv` and `fig12.csv` pins were
/// re-recorded when Figures 11/12 began pricing merge hardware on the
/// swept machine (`2x8` here) instead of always on 4x4, and the metered
/// Prometheus pin when the registry gained `vliw_cells_memoized_total`.
/// The metered CSV pin equals `default/csv` since metering stopped adding
/// columns. The metered Prometheus pin lost the ring-sink drop counter,
/// then gained the trace sweep's two cells, then counted those two as
/// memoized once the trace sweep ran like every other. The trace file
/// lost its always-zero drop count, and the explicit stdout and
/// `trace.csv` pins took the fleet trace rows' stall columns from the
/// cells' statistics instead of from routing-only traces.
const GOLDEN: &[(&str, u64)] = &[
    ("default/stdout", 0xb00dd9e71a3d53b5),
    ("default/json", 0x4ce86e5ec45da145),
    ("default/csv", 0x823fedcd38e5288d),
    ("default/out/fig10.csv", 0x2adc8280fd0a3953),
    ("default/out/fig11.csv", 0x21f837581a4aa074),
    ("default/out/fig12.csv", 0x3ca0dfbe835ea00f),
    ("default/out/fig4.csv", 0x6c55352a00388f17),
    ("default/out/fig5.csv", 0x1ca423140d551e44),
    ("default/out/fig6.csv", 0x242104f084e012cf),
    ("default/out/fig9.csv", 0x4f80693e562af01e),
    ("default/out/fleet.csv", 0x7c921fcbe51ade08),
    ("default/out/geometry.csv", 0x76cf39a190a9e484),
    ("default/out/headline.csv", 0xbb5dd35dad539f1b),
    ("default/out/table1.csv", 0x6b43226e1576ab71),
    ("default/out/table2.csv", 0x49ac112ded2f072c),
    ("default/out/trace.csv", 0x1c659c53c9681c78),
    ("default/out/traffic.csv", 0x1f5791fe5bf9e711),
    ("explicit/stdout", 0xe6c1e860e3575372),
    ("explicit/json", 0x6897c5703f8bab68),
    ("explicit/csv", 0xb26c36f9633f03a2),
    ("explicit/out/fig10.csv", 0xf65b91eb29d859d0),
    ("explicit/out/fig11.csv", 0xa68cc6cd8328fe5a),
    ("explicit/out/fig12.csv", 0x4b293f41c3cc391e),
    ("explicit/out/fig4.csv", 0x9793b307ce838426),
    ("explicit/out/fig5.csv", 0x1ca423140d551e44),
    ("explicit/out/fig6.csv", 0xf1e879ec86b85fec),
    ("explicit/out/fig9.csv", 0x4f80693e562af01e),
    ("explicit/out/fleet.csv", 0x6a50310598d8575a),
    ("explicit/out/geometry.csv", 0x2d1939b1ad14c0f4),
    ("explicit/out/headline.csv", 0x570d1b2a17e1718b),
    ("explicit/out/table1.csv", 0x42e238cc53250489),
    ("explicit/out/table2.csv", 0x49ac112ded2f072c),
    ("explicit/out/trace.csv", 0x949a502707800aee),
    ("explicit/out/traffic.csv", 0x960c5d38aebd1c97),
    ("metered/stdout", 0xb00dd9e71a3d53b5),
    ("metered/csv", 0x823fedcd38e5288d),
    ("metered/metrics.prom", 0x21f3e9f5de9f75e0),
    ("filter/stdout", 0xd1b221ac22dfdca4),
    ("filter/json", 0xa451ac256cac626c),
    ("filter/out/fig10.csv", 0x2adc8280fd0a3953),
    ("filter/out/fig11.csv", 0x21f837581a4aa074),
    ("filter/out/fig12.csv", 0x3ca0dfbe835ea00f),
    ("trace/stdout", 0x6ec65fc6976ebd8f),
    ("trace/trace.json", 0xd1bbb638dccc54b0),
    ("usage/list", 0x295a2b5e6df7d66b),
    ("usage/help", 0x0c08b2a69710f20a),
];
