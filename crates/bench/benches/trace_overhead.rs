//! Host cost of the enabled trace sinks (`BENCH_trace_overhead.json`), one
//! [`snapshot`] cell per sink: a 4-thread SMT run on the LLHH mix into a
//! `RecordingSink` or a 4k-event `RingSink` against the same run into
//! `NullSink`, the sink/null ratio, where lower is better.
//!
//! `Machine::run` is `run_traced(&mut NullSink)`, whose
//! `TraceSink::ENABLED` constant turns every emission guard into
//! `if false`, so the null side is the untraced run. The enabled sides pay
//! for building and storing events.

use std::sync::Arc;
use std::time::Duration;
use vliw_bench::snapshot::{self, Better};
use vliw_core::catalog;
use vliw_isa::MachineConfig;
use vliw_sim::os::Machine;
use vliw_sim::thread::{ProgramMeta, SoftThread};
use vliw_sim::SimConfig;
use vliw_trace::{NullSink, RecordingSink, RingSink};

/// Reps per cell, and alternating calls per side in a rep.
const REPS: usize = 31;
const CALLS: usize = 5;

/// Pre-compiled thread images, shared by every run so the timed work is
/// the simulation itself, not benchmark compilation.
struct Workload {
    cfg: SimConfig,
    images: Vec<(vliw_workloads::BenchmarkImage, Arc<ProgramMeta>)>,
}

impl Workload {
    /// A fresh machine per run: runs consume it.
    fn machine(&self) -> Machine {
        let threads: Vec<SoftThread> = self
            .images
            .iter()
            .enumerate()
            .map(|(tid, (img, meta))| SoftThread::new(img, meta.clone(), tid as u64, self.cfg.seed))
            .collect();
        Machine::new(&self.cfg, threads).expect("non-empty workload")
    }
}

struct Cell<'a> {
    workload: &'a Workload,
    /// The enabled sink's name: "recording" or "ring".
    sink: &'static str,
}

impl snapshot::Cell for Cell<'_> {
    fn name(&self) -> &str {
        self.sink
    }
    fn sides(&self) -> [&str; 2] {
        [self.sink, "null"]
    }
    fn better(&self) -> Better {
        Better::Lower
    }
    fn rep(&mut self, first: usize) -> [Duration; 2] {
        snapshot::time_sides(first, CALLS, |side| {
            let machine = self.workload.machine();
            match (side, self.sink) {
                (1, _) => (machine.run_traced(&mut NullSink), 0),
                (_, "recording") => {
                    let mut sink = RecordingSink::new();
                    (machine.run_traced(&mut sink), sink.len())
                }
                _ => {
                    let mut sink = RingSink::new(4096);
                    (machine.run_traced(&mut sink), sink.len())
                }
            }
        })
    }
}

fn main() {
    let machine = MachineConfig::paper_baseline();
    let workload = Workload {
        // 1/10_000 of the paper's budget: ~10k retired instructions per
        // run, long enough to exercise stalls, misses and quantum expiries.
        cfg: SimConfig::paper(catalog::smt_cascade(4), 10_000),
        images: ["mcf", "blowfish", "x264", "idct"]
            .iter()
            .map(|name| {
                let img = vliw_workloads::build_named(name, &machine).unwrap();
                let meta = Arc::new(ProgramMeta::of(&img));
                (img, meta)
            })
            .collect(),
    };
    let mut cells = ["recording", "ring"].map(|sink| Cell {
        workload: &workload,
        sink,
    });
    snapshot::run("trace_overhead", REPS, &mut cells);
}
