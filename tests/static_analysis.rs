//! Differential suite: the independent `vliw-analyze` verifier vs the
//! compiler and the simulator.
//!
//! Three cross-checks, each pinning a different pair of subsystems:
//!
//! * compiler vs analyzer — every shipped benchmark on every geometry
//!   preset analyzes *clean* (no Error, no Warning) under the default
//!   rule set;
//! * scheduler vs static bounds — every scheduled block meets its
//!   resource-theorem lower bound, and simulated IPC never beats the
//!   program's static ceiling;
//! * release pipeline vs debug verifier — an `#[ignore]`d pass (run by the
//!   release-mode CI tier) compiles the whole suite with
//!   `CompileOptions { verify: true }`, covering the verifier path that
//!   `cfg!(debug_assertions)` disables in release builds.

use vliw_tms::analyze::analyze_image;
use vliw_tms::compiler::{compile, CompileOptions};
use vliw_tms::isa::MachineSpec;
use vliw_tms::sim::config::SimConfig;
use vliw_tms::sim::runner::{run_single, ImageCache};
use vliw_tms::workloads;

#[test]
fn every_shipped_image_analyzes_clean_on_every_preset() {
    for spec in MachineSpec::presets() {
        let machine = spec.config();
        for bench in workloads::all_benchmarks() {
            let img = workloads::build(bench, &machine).unwrap();
            let report = analyze_image(&img);
            assert!(
                report.is_clean(),
                "{}/{} must analyze clean:\n{}",
                spec,
                bench.name,
                report.render_text()
            );
            // The scheduler's output must also meet the analyzer's
            // independent resource lower bound on every block.
            for b in &report.bounds.blocks {
                assert!(
                    b.n_instrs >= b.min_cycles,
                    "{}/{} block {}: scheduled {} instrs below the resource bound {}",
                    spec,
                    bench.name,
                    b.block,
                    b.n_instrs,
                    b.min_cycles
                );
            }
        }
    }
}

#[test]
fn simulated_ipc_never_beats_the_static_ceiling() {
    let cache = ImageCache::new();
    let scheme = vliw_tms::core::catalog::by_name("ST").unwrap();
    // A run ending mid-block can average slightly above the *block-level*
    // density for its final partial traversal; with tens of thousands of
    // cycles the boundary term is bounded by issue_width / cycles.
    for name in ["idct", "colorspace", "bzip2", "gsmencode"] {
        let cfg = SimConfig::paper(scheme.clone(), 20_000);
        let r = run_single(&cache, &cfg, name).unwrap();
        let img = cache
            .get_spec(workloads::benchmark(name).unwrap(), &cfg.machine)
            .unwrap();
        let ceiling = analyze_image(&img.0).bounds.ipc_ceiling();
        let slack = cfg.machine.total_issue() as f64 / r.stats.cycles as f64;
        assert!(
            r.ipc() <= ceiling + slack,
            "{name}: measured IPC {:.4} beats static ceiling {ceiling:.4}",
            r.ipc()
        );
    }

    // A merged-core mix: each context fetches at most one instruction per
    // cycle, so aggregate IPC is bounded by the sum of member ceilings.
    let mix = workloads::table2_mixes()
        .iter()
        .find(|m| m.name == "LLHH")
        .unwrap();
    let cfg = SimConfig::paper(vliw_tms::core::catalog::by_name("2SC3").unwrap(), 20_000);
    let r = vliw_tms::sim::runner::run_mix(&cache, &cfg, mix).unwrap();
    let sum_ceiling: f64 = mix
        .members
        .iter()
        .map(|name| {
            let img = cache
                .get_spec(workloads::benchmark(name).unwrap(), &cfg.machine)
                .unwrap();
            analyze_image(&img.0).bounds.ipc_ceiling()
        })
        .sum();
    let slack = 4.0 * cfg.machine.total_issue() as f64 / r.stats.cycles as f64;
    assert!(
        r.ipc() <= sum_ceiling + slack,
        "LLHH: aggregate IPC {:.4} beats the summed ceiling {sum_ceiling:.4}",
        r.ipc()
    );
}

/// Satellite of the `CompileOptions::verify` contract: release builds skip
/// the schedule verifier by default (`cfg!(debug_assertions)`), so the
/// release-mode CI tier runs this `#[ignore]`d pass with `verify: true`
/// explicitly — one full compile of every benchmark × preset through the
/// verifying pipeline.
#[test]
#[ignore = "release-tier coverage of the verify-true compile path; run via -- --ignored"]
fn whole_suite_compiles_with_explicit_verification() {
    for spec in MachineSpec::presets() {
        let machine = spec.config();
        for bench in workloads::all_benchmarks() {
            let (func, _streams) = workloads::kernelgen::generate(bench);
            let program = compile(
                &machine,
                &func,
                CompileOptions {
                    unroll: bench.unroll,
                    verify: true,
                },
            )
            .unwrap_or_else(|e| panic!("{}/{}: {e}", spec, bench.name));
            program.validate().unwrap();
        }
    }
}
