//! Host cost of one `Core::step` on the 8x2 machine against the paper's
//! 4x4 (`BENCH_step.json`), one [`snapshot`] cell per scheme: the 8x2/4x4
//! ratio, where lower is better. A geometry that falls off the fast
//! signature path shows as a ratio well above 1 on any host speed.
//!
//! Each core runs four Table-1 benchmarks (low to high ILP). A rep builds
//! and warms both machines' cores untimed, then times the same window of
//! steps on each, in alternating chunks so host-speed phases land on both
//! alike. A side's rep time is its median chunk time times the chunk
//! count (a chunk the host interrupted would otherwise double a 3 ms rep),
//! so its `*_ms` is the time of 10,000 steps, and ×100 gives ns per step.

use std::hint::black_box;
use std::time::Duration;
use vliw_bench::snapshot::{self, Better};
use vliw_core::catalog;
use vliw_isa::MachineSpec;
use vliw_sim::runner::ImageCache;
use vliw_sim::{Core, SimConfig, SoftThread};
use vliw_workloads::benchmark;

const SCHEMES: [&str; 5] = ["ST", "1S", "2SC3", "3SSS", "C4"];
/// The two sides, in ratio order.
const MACHINES: [MachineSpec; 2] = [MachineSpec::Narrow8x2, MachineSpec::Paper4x4];
/// One low-, two medium- and one high-ILP benchmark, one per context.
const MEMBERS: [&str; 4] = ["mcf", "cjpeg", "x264", "idct"];
/// Cycles run before timing, so caches and branch state are warm.
const WARM_CYCLES: u64 = 20_000;
/// Steps per chunk, chunks per side in a rep (10,000 steps), and reps.
const CHUNK: u64 = 500;
const CHUNKS: u32 = 20;
const REPS: usize = 31;

struct Cell<'a> {
    cache: &'a ImageCache,
    scheme: &'static str,
}

impl Cell<'_> {
    fn warmed_core(&self, machine: MachineSpec) -> Core {
        let mut cfg =
            SimConfig::paper(catalog::by_name(self.scheme).unwrap(), 1).with_machine(machine);
        cfg.instr_budget = u64::MAX;
        let mut core = Core::new(&cfg);
        for ctx in 0..cfg.n_contexts() {
            let spec = benchmark(MEMBERS[ctx % MEMBERS.len()]).unwrap();
            let img = self.cache.get_spec(spec, &cfg.machine).unwrap();
            core.install(
                ctx,
                SoftThread::new(&img.0, img.1.clone(), ctx as u64, cfg.seed),
            );
        }
        core.run(WARM_CYCLES);
        core
    }
}

impl snapshot::Cell for Cell<'_> {
    fn name(&self) -> &str {
        self.scheme
    }
    fn sides(&self) -> [&str; 2] {
        ["8x2", "4x4"]
    }
    fn better(&self) -> Better {
        Better::Lower
    }
    fn rep(&mut self, first: usize) -> [Duration; 2] {
        let mut cores = MACHINES.map(|m| self.warmed_core(m));
        snapshot::time_sides(first, CHUNKS as usize, |side| {
            for _ in 0..CHUNK {
                black_box(cores[side].step());
            }
        })
        .map(|chunk| chunk * CHUNKS)
    }
}

fn main() {
    let cache = ImageCache::new();
    let mut cells = SCHEMES.map(|scheme| Cell {
        cache: &cache,
        scheme,
    });
    snapshot::run("step", REPS, &mut cells);
}
