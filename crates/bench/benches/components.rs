//! Criterion benchmarks of the substrates: cache, compiler, hardware-cost
//! netlist construction. Per-step simulator cost has its own harness and
//! snapshot (`benches/step.rs`, `BENCH_step.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use vliw_core::catalog;
use vliw_isa::MachineConfig;
use vliw_mem::{Cache, CacheConfig};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    group.bench_function("hit", |b| {
        let mut cache = Cache::new(CacheConfig::paper_baseline());
        cache.access(0x1000, false, 0);
        b.iter(|| black_box(cache.access(black_box(0x1000), false, 0)))
    });
    group.bench_function("streaming_miss", |b| {
        let mut cache = Cache::new(CacheConfig::paper_baseline());
        let mut addr = 0u64;
        b.iter(|| {
            addr += 64;
            black_box(cache.access(black_box(addr), false, 0))
        })
    });
    group.finish();
}

fn bench_compiler(c: &mut Criterion) {
    let machine = MachineConfig::paper_baseline();
    let mut group = c.benchmark_group("compiler");
    for name in ["bzip2", "colorspace"] {
        group.bench_function(format!("compile_{name}"), |b| {
            b.iter(|| black_box(vliw_workloads::build_named(name, &machine)))
        });
    }
    group.finish();
}

fn bench_hwcost(c: &mut Criterion) {
    let mut group = c.benchmark_group("hwcost");
    for name in ["2SC3", "3SSS", "C4"] {
        let scheme = catalog::by_name(name).unwrap();
        group.bench_function(format!("netlist_{name}"), |b| {
            b.iter(|| black_box(vliw_hwcost::scheme_cost(&scheme, 4, 4)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache, bench_compiler, bench_hwcost
}
criterion_main!(benches);
