//! Tracing-overhead benchmarks: the cost of the enabled trace sinks.
//!
//! Three variants of the same end-to-end machine run (4-thread SMT on the
//! LLHH mix, short budget):
//!
//! * `null_sink` — `Machine::run_traced(&mut NullSink)`, the generic hot
//!   loop monomorphized with the disabled sink. `Machine::run` is this
//!   very call, so it is the untraced baseline. The
//!   `TraceSink::ENABLED` associated constant makes every emission guard
//!   `if false`;
//! * `recording_sink` / `ring_sink_4k` — the enabled paths; their overhead
//!   is the cost of building + storing events and must stay bounded (well
//!   under ~3x the untraced run per cycle, dominated by the Vec pushes).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use vliw_core::catalog;
use vliw_isa::MachineConfig;
use vliw_sim::os::Machine;
use vliw_sim::thread::{ProgramMeta, SoftThread};
use vliw_sim::SimConfig;
use vliw_trace::{NullSink, RecordingSink, RingSink};

/// Pre-compiled thread images, shared across iterations so the measured
/// loop is the simulation itself, not benchmark compilation.
struct Workload {
    images: Vec<(vliw_workloads::BenchmarkImage, Arc<ProgramMeta>)>,
}

impl Workload {
    fn new() -> Self {
        let machine = MachineConfig::paper_baseline();
        Workload {
            images: ["mcf", "blowfish", "x264", "idct"]
                .iter()
                .map(|name| {
                    let img = vliw_workloads::build_named(name, &machine).unwrap();
                    let meta = Arc::new(ProgramMeta::of(&img));
                    (img, meta)
                })
                .collect(),
        }
    }

    /// One fresh machine per iteration: runs are consumed by `run*`.
    fn machine(&self, cfg: &SimConfig) -> Machine {
        let threads: Vec<SoftThread> = self
            .images
            .iter()
            .enumerate()
            .map(|(tid, (img, meta))| SoftThread::new(img, meta.clone(), tid as u64, cfg.seed))
            .collect();
        Machine::new(cfg, threads).expect("non-empty workload")
    }
}

fn bench_trace_overhead(c: &mut Criterion) {
    // 1/10_000 of the paper's budget: ~10k retired instructions per run,
    // long enough to exercise stalls, misses and quantum expiries.
    let cfg = SimConfig::paper(catalog::smt_cascade(4), 10_000);
    let w = Workload::new();
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(12);
    group.bench_function("null_sink", |b| {
        b.iter(|| black_box(w.machine(&cfg).run_traced(&mut NullSink)))
    });
    group.bench_function("recording_sink", |b| {
        b.iter(|| {
            let mut sink = RecordingSink::new();
            let stats = w.machine(&cfg).run_traced(&mut sink);
            black_box((stats, sink.len()))
        })
    });
    group.bench_function("ring_sink_4k", |b| {
        b.iter(|| {
            let mut sink = RingSink::new(4096);
            let stats = w.machine(&cfg).run_traced(&mut sink);
            black_box((stats, sink.dropped()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
