//! Experiment-level API: build workloads, run them, sweep in parallel.
//!
//! This is the low-level layer: an [`ImageCache`] of compiled benchmarks,
//! single-run helpers ([`run_single`], [`run_mix`]) and the deterministic
//! parallel fan-out [`run_jobs`]. The declarative sweep surface on top of
//! it — plans, keyed result sets, serialization — lives in [`crate::plan`].

use crate::config::SimConfig;
use crate::error::SimError;
use crate::os::Machine;
use crate::stats::RunStats;
use crate::thread::{ProgramMeta, SoftThread};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vliw_workloads::{benchmark, build, BenchmarkImage, BenchmarkSpec, BuildError, WorkloadMix};

/// Result of one run: what was run, with which scheme, and the stats.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme name.
    pub scheme: String,
    /// Workload label (mix name or benchmark name).
    pub workload: String,
    /// Collected statistics.
    pub stats: RunStats,
}

impl RunResult {
    /// Convenience accessor.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// A compiled benchmark image with its precomputed program metadata, as
/// shared between concurrent simulations.
pub type CachedImage = Arc<(BenchmarkImage, Arc<ProgramMeta>)>;

/// Cache of compiled benchmark images (compilation is deterministic, so
/// sharing across runs and threads is sound).
///
/// Keys are `(benchmark name, machine geometry)` pairs: schedules are
/// geometry-specific, so the same benchmark compiled for two different
/// [`vliw_isa::MachineConfig`]s yields two distinct cache entries (the old
/// name-only keying silently shared one machine's code with every other —
/// a latent aliasing bug while only one geometry existed). Names are owned,
/// so custom/generated specs with computed names cache exactly like the
/// Table-1 suite; within one machine the name is the identity, and two
/// different specs sharing a name are rejected.
#[derive(Default)]
pub struct ImageCache {
    map: Mutex<HashMap<(Arc<str>, vliw_isa::MachineConfig), CachedImage>>,
    /// Total lookups served, hit or miss. A commutative sum, so the value
    /// after a parallel sweep is independent of worker count and interleaving
    /// (unlike a hit/miss split, which depends on who compiles first).
    requests: AtomicU64,
    /// Lookups that found their image already built.
    probe_hits: AtomicU64,
    /// Lookups that built their image.
    probe_misses: AtomicU64,
    /// Wall time spent compiling images, ns.
    build_ns: AtomicU64,
    /// Wall time spent verifying fresh images, ns.
    verify_ns: AtomicU64,
}

impl ImageCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total lookups served so far (hits and misses alike). Deterministic
    /// for a fixed job set regardless of worker count.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of distinct `(benchmark, machine)` images currently cached.
    /// Together with [`ImageCache::requests`] this yields a worker-count
    /// independent hit/miss split: misses = unique images built, hits =
    /// requests − misses.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the cache holds no images yet.
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }

    /// The cache's timing-class tallies by metric name: live probe hits and
    /// misses, and the wall time spent building and verifying images.
    /// Which lookup hits depends on which worker built the image first, so
    /// unlike [`ImageCache::requests`] these are scheduling-dependent; a
    /// plan run emits how much each grew over the run.
    pub(crate) fn timing(&self) -> [(&'static str, u64); 4] {
        use crate::metrics::names::{
            CACHE_BUILD_NS, CACHE_PROBE_HITS, CACHE_PROBE_MISSES, CACHE_VERIFY_NS,
        };
        let load = |tally: &AtomicU64| tally.load(Ordering::Relaxed);
        [
            (CACHE_PROBE_HITS, load(&self.probe_hits)),
            (CACHE_PROBE_MISSES, load(&self.probe_misses)),
            (CACHE_BUILD_NS, load(&self.build_ns)),
            (CACHE_VERIFY_NS, load(&self.verify_ns)),
        ]
    }

    /// Get or build the image + metadata for a benchmark spec — a Table-1
    /// entry from [`vliw_workloads::benchmark`] or a custom one — compiled
    /// for `machine` (keyed by `(spec.name, machine)`).
    ///
    /// The map lock is *not* held while compiling, so concurrent workers
    /// warming different benchmarks compile in parallel. Two workers racing
    /// on the same benchmark may both compile it (compilation is
    /// deterministic, so the results are identical); the first insert wins
    /// and the loser's copy is dropped.
    ///
    /// With the `VLIW_VERIFY_IMAGES` environment variable set (non-empty,
    /// not `0`), every freshly built image is run through the independent
    /// `vliw-analyze` verifier before insertion; Error-severity findings
    /// surface as [`SimError::InvalidImage`]. Cache hits are never
    /// re-verified (images are immutable once inserted).
    pub fn get_spec(
        &self,
        spec: &BenchmarkSpec,
        machine: &vliw_isa::MachineConfig,
    ) -> Result<CachedImage, SimError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = (spec.name.clone(), machine.clone());
        if let Some(hit) = self.map.lock().get(&key) {
            self.probe_hits.fetch_add(1, Ordering::Relaxed);
            Self::check_identity(&hit.0, spec, machine);
            return Ok(hit.clone());
        }
        self.probe_misses.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let img = build(spec, machine)?;
        add_elapsed(&self.build_ns, start);
        if verify_images_enabled() {
            let start = Instant::now();
            let report = vliw_analyze::analyze_image(&img);
            add_elapsed(&self.verify_ns, start);
            if report.errors() > 0 {
                return Err(SimError::InvalidImage {
                    benchmark: spec.name.to_string(),
                    report: report.render_text(),
                });
            }
        }
        let meta = Arc::new(ProgramMeta::of(&img));
        let built: CachedImage = Arc::new((img, meta));
        let cached = self.map.lock().entry(key).or_insert(built).clone();
        // Two workers racing on the same key must have been building the
        // same spec for the same geometry, or the loser would silently run
        // the winner's image.
        Self::check_identity(&cached.0, spec, machine);
        Ok(cached)
    }

    /// The cache-identity invariant: an entry serves a request only when
    /// both the benchmark spec *and* the machine geometry match what the
    /// image was built from.
    fn check_identity(
        cached: &BenchmarkImage,
        requested: &BenchmarkSpec,
        machine: &vliw_isa::MachineConfig,
    ) {
        assert!(
            cached.spec == *requested,
            "image cache already holds a different spec named {:?}; names are the cache \
             identity, so rename the variant",
            requested.name
        );
        assert!(
            cached.machine == *machine,
            "image cache entry for {:?} was compiled for a different machine geometry; \
             images must only run on the machine they were built for",
            requested.name
        );
    }
}

/// Add the wall time since `start` to a nanosecond tally.
fn add_elapsed(tally: &AtomicU64, start: Instant) {
    tally.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Whether `VLIW_VERIFY_IMAGES` asks for static verification at cache
/// insertion (non-empty and not `0`; sampled once per process).
fn verify_images_enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| {
        std::env::var("VLIW_VERIFY_IMAGES").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// Instantiate the software threads of a benchmark list (Table-1 names,
/// `'static` or not). Unknown names come back as [`SimError::Build`].
pub fn make_threads(
    cache: &ImageCache,
    cfg: &SimConfig,
    names: &[&str],
) -> Result<Vec<SoftThread>, SimError> {
    names
        .iter()
        .enumerate()
        .map(|(tid, name)| {
            let spec =
                benchmark(name).ok_or_else(|| BuildError::UnknownBenchmark(name.to_string()))?;
            let entry = cache.get_spec(spec, &cfg.machine)?;
            Ok(SoftThread::new(
                &entry.0,
                entry.1.clone(),
                tid as u64,
                cfg.seed,
            ))
        })
        .collect()
}

/// Run one benchmark alone (the paper's Table-1 single-thread setup).
///
/// Errors are typed [`SimError`]s rather than panics: an unknown name or
/// compile failure surfaces as [`SimError::Build`], a verification failure
/// (under `VLIW_VERIFY_IMAGES`) as [`SimError::InvalidImage`].
pub fn run_single(cache: &ImageCache, cfg: &SimConfig, name: &str) -> Result<RunResult, SimError> {
    let threads = make_threads(cache, cfg, &[name])?;
    let stats = Machine::new(cfg, threads)?.run();
    Ok(RunResult {
        scheme: cfg.scheme.name().to_string(),
        workload: name.to_string(),
        stats,
    })
}

/// Run a Table-2 mix under the configured scheme.
///
/// Admission failures surface as typed [`SimError`]s ([`Machine::new`]'s
/// error contract) instead of panics.
pub fn run_mix(
    cache: &ImageCache,
    cfg: &SimConfig,
    mix: &WorkloadMix,
) -> Result<RunResult, SimError> {
    let threads = make_threads(cache, cfg, &mix.members)?;
    let stats = Machine::new(cfg, threads)?.run();
    Ok(RunResult {
        scheme: cfg.scheme.name().to_string(),
        workload: mix.name.to_string(),
        stats,
    })
}

/// Run a set of jobs in parallel via rayon (simulations are independent
/// and deterministic; results come back in job order regardless of the
/// worker count, so every downstream figure is reproducible).
///
/// Generic over the worker's output so plan-level drivers can carry
/// per-run payloads (e.g. a [`vliw_trace::Trace`]) alongside the
/// [`RunResult`].
pub fn run_jobs<J, R, F>(jobs: Vec<J>, worker: F, parallelism: usize) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(parallelism.clamp(1, jobs.len()))
        .build()
        .expect("simulation thread pool");
    pool.install(|| jobs.par_iter().map(&worker).collect())
}

/// Default sweep parallelism: physical cores minus one, at least 1.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_core::catalog;
    use vliw_workloads::mixes;

    #[test]
    fn single_run_produces_sane_ipc() {
        let cache = ImageCache::new();
        let cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 5000);
        let r = run_single(&cache, &cfg, "idct").unwrap();
        assert!(r.ipc() > 1.0, "idct single-thread IPC {:.2}", r.ipc());
        assert!(r.ipc() <= 16.0);
    }

    #[test]
    fn mix_run_reports_all_threads() {
        let cache = ImageCache::new();
        let cfg = SimConfig::paper(catalog::by_name("2SC3").unwrap(), 5000);
        let mix = mixes::mix("LLHH").unwrap();
        let r = run_mix(&cache, &cfg, mix).unwrap();
        assert_eq!(r.stats.threads.len(), 4);
        assert_eq!(r.workload, "LLHH");
        assert_eq!(r.scheme, "2SC3");
    }

    #[test]
    fn parallel_jobs_preserve_order_and_determinism() {
        let cache = ImageCache::new();
        let jobs: Vec<&'static str> = vec!["bzip2", "idct", "mcf", "bzip2"];
        let worker = |name: &&'static str| {
            let cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 10000);
            run_single(&cache, &cfg, name).unwrap()
        };
        let a = run_jobs(jobs.clone(), worker, 4);
        let b = run_jobs(jobs, worker, 2);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.stats.total_ops, y.stats.total_ops);
        }
        // Same benchmark, same config -> identical results.
        assert_eq!(a[0].stats.total_ops, a[3].stats.total_ops);
    }

    #[test]
    fn cache_accepts_non_static_names() {
        let cache = ImageCache::new();
        let cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 50_000);
        // A name computed at runtime: the old `&'static str` keys rejected
        // this shape at compile time.
        let dynamic = String::from("id") + "ct";
        let r = run_single(&cache, &cfg, &dynamic).unwrap();
        assert_eq!(r.workload, "idct");
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn cache_distinguishes_machine_geometries() {
        // The old name-only keying silently served one geometry's code to
        // every other; distinct machines must compile distinct images.
        let cache = ImageCache::new();
        let paper = vliw_isa::MachineSpec::Paper4x4.config();
        let narrow = vliw_isa::MachineSpec::Narrow8x2.config();
        let idct = vliw_workloads::benchmark("idct").unwrap();
        let a = cache.get_spec(idct, &paper).unwrap();
        let b = cache.get_spec(idct, &narrow).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "geometries must not share images");
        assert_eq!(a.0.machine, paper);
        assert_eq!(b.0.machine, narrow);
        // Same geometry still hits.
        assert!(Arc::ptr_eq(&a, &cache.get_spec(idct, &paper).unwrap()));
    }

    #[test]
    fn unknown_benchmark_is_a_typed_error() {
        let cache = ImageCache::new();
        let cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 1000);
        let err = run_single(&cache, &cfg, "no-such-kernel").unwrap_err();
        assert!(
            matches!(
                &err,
                SimError::Build(vliw_workloads::BuildError::UnknownBenchmark(n))
                    if n == "no-such-kernel"
            ),
            "{err}"
        );
    }

    #[test]
    fn op_without_a_unit_is_a_build_error() {
        // No multiplier anywhere: idct multiplies, blowfish does not.
        let cache = ImageCache::new();
        let cfg = SimConfig::paper(catalog::by_name("ST").unwrap(), 20_000)
            .with_machine("4x4+0+1".parse().unwrap());
        let err = run_single(&cache, &cfg, "idct").unwrap_err();
        assert!(
            matches!(
                &err,
                SimError::Build(vliw_workloads::BuildError::Compile { .. })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("mul unit"), "{err}");
        assert!(run_single(&cache, &cfg, "blowfish").unwrap().ipc() > 0.0);
    }

    #[test]
    fn cache_shares_custom_specs_by_name() {
        let cache = ImageCache::new();
        let machine = vliw_isa::MachineConfig::paper_baseline();
        let mut spec = vliw_workloads::benchmark("idct").unwrap().clone();
        spec.name = format!("idct-variant-{}", 1).into();
        let a = cache.get_spec(&spec, &machine).unwrap();
        let b = cache.get_spec(&spec, &machine).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let [hits, misses, build_ns, _] = cache.timing().map(|(_, v)| v);
        assert_eq!((hits, misses, cache.requests()), (1, 1, 2));
        assert!(build_ns > 0, "the miss compiled");
    }
}
