//! # vliw-workloads — the paper's benchmark suite, rebuilt synthetically
//!
//! The paper evaluates on MediaBench + SPECint2000 binaries plus four media
//! kernels (Table 1), combined into nine 4-thread multiprogrammed mixes
//! (Table 2). Those binaries and inputs are not reproducible here, and the
//! evaluation never looks at program *semantics* — only at timing shape:
//!
//! * the ILP class (how many operations the compiler can pack per cycle),
//! * the cluster footprint (how many clusters the scheduled code touches),
//! * branch behaviour (block lengths, taken-branch frequency),
//! * and cache behaviour (working-set size and access pattern).
//!
//! Each Table-1 benchmark is therefore modelled as a *synthetic kernel
//! program* — seeded, deterministic IR generated by [`kernelgen`], compiled
//! by `vliw-compiler` — whose four knobs are calibrated so the
//! single-threaded `IPCr`/`IPCp` land near the paper's Table 1 (`paper
//! table1` prints measured values next to the paper's).
//!
//! * [`spec`] — benchmark descriptions and the 12 calibrated specs.
//! * [`kernelgen`] — spec → IR function.
//! * [`streams`] — address-stream models driving the data cache.
//! * [`mixes`] — the Table-2 workload configurations.
//! * [`build`] / [`BenchmarkImage`] — compiled, ready-to-run images.

pub mod kernelgen;
pub mod mixes;
pub mod spec;
pub mod streams;

pub use mixes::{table2_mixes, WorkloadMix};
pub use spec::{all_benchmarks, benchmark, BenchmarkSpec, IlpDegree};
pub use streams::{StreamPattern, StreamSpec, StreamState};

use std::fmt;
use vliw_compiler::{compile, CompileOptions, Program};
use vliw_isa::MachineConfig;

/// Why a benchmark image could not be built.
///
/// Compilation of the shipped Table-1 suite is deterministic and verified
/// in CI, so these errors are reserved for custom specs and exotic
/// geometries — but they are typed rather than panics so embedding layers
/// (the `vliw-sim` runner, the `paper` harness) can surface them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The name matched no Table-1 benchmark (see [`all_benchmarks`]).
    UnknownBenchmark(String),
    /// The compiler rejected the generated kernel for this geometry.
    Compile {
        /// Benchmark name.
        benchmark: String,
        /// Compiler error message.
        reason: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownBenchmark(name) => write!(f, "unknown benchmark {name:?}"),
            BuildError::Compile { benchmark, reason } => {
                write!(f, "benchmark {benchmark} failed to compile: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A compiled benchmark: the program plus its address-stream table.
#[derive(Debug, Clone)]
pub struct BenchmarkImage {
    /// The calibrated spec this was built from.
    pub spec: BenchmarkSpec,
    /// The machine geometry this was compiled for. Schedules are
    /// geometry-specific (cluster assignment, slot placement, padding), so
    /// an image must only ever run on the machine it names.
    pub machine: MachineConfig,
    /// The compiled, laid-out program.
    pub program: Program,
    /// Address-stream descriptors, indexed by the stream ids the program's
    /// memory operations carry.
    pub streams: Vec<StreamSpec>,
}

/// Build a runnable image for `spec` on `machine`.
///
/// Compile failures come back as [`BuildError::Compile`] (this used to
/// panic); callers that know their spec is one of the CI-verified shipped
/// benchmarks keep ergonomics with a thin `expect`.
pub fn build(spec: &BenchmarkSpec, machine: &MachineConfig) -> Result<BenchmarkImage, BuildError> {
    let (func, streams) = kernelgen::generate(spec);
    let program = compile(
        machine,
        &func,
        CompileOptions {
            unroll: spec.unroll,
            verify: cfg!(debug_assertions),
        },
    )
    .map_err(|e| BuildError::Compile {
        benchmark: spec.name.to_string(),
        reason: e,
    })?;
    Ok(BenchmarkImage {
        spec: spec.clone(),
        machine: machine.clone(),
        program,
        streams,
    })
}

/// Build a named Table-1 benchmark.
pub fn build_named(name: &str, machine: &MachineConfig) -> Result<BenchmarkImage, BuildError> {
    build(
        benchmark(name).ok_or_else(|| BuildError::UnknownBenchmark(name.to_string()))?,
        machine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_twelve_benchmarks_compile() {
        let m = MachineConfig::paper_baseline();
        for spec in all_benchmarks() {
            let img = build(spec, &m).unwrap();
            img.program.validate().unwrap();
            assert!(img.program.n_streams as usize <= img.streams.len());
            assert!(img.program.stats(&m).n_ops > 0, "{}", spec.name);
        }
    }

    #[test]
    fn ilp_classes_order_static_density() {
        // Static schedule density must rank H > M > L on class averages —
        // the knob the dynamic IPC calibration builds on.
        let m = MachineConfig::paper_baseline();
        let mut by_class = [(0.0f64, 0u32); 3];
        for spec in all_benchmarks() {
            let img = build(spec, &m).unwrap();
            let d = img.program.stats(&m).ops_per_instr;
            let k = spec.ilp as usize;
            by_class[k].0 += d;
            by_class[k].1 += 1;
        }
        let avg = |x: (f64, u32)| x.0 / f64::from(x.1);
        let (l, mm, h) = (avg(by_class[0]), avg(by_class[1]), avg(by_class[2]));
        assert!(
            h > mm && mm > l,
            "density order violated: L={l:.2} M={mm:.2} H={h:.2}"
        );
    }

    #[test]
    fn build_is_deterministic() {
        let m = MachineConfig::paper_baseline();
        let a = build_named("cjpeg", &m).unwrap();
        let b = build_named("cjpeg", &m).unwrap();
        assert_eq!(a.program.code_bytes, b.program.code_bytes);
        assert_eq!(a.streams.len(), b.streams.len());
    }
}
