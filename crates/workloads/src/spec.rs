//! Benchmark specifications — the calibrated stand-ins for Table 1.
//!
//! Knob guide (all consumed by [`crate::kernelgen`]):
//!
//! * `dag_width` / `chain_len` — per-iteration parallelism vs serialization;
//!   the primary ILP control.
//! * `mul_permille` / `mem_permille` — operation mix (multiplies compete for
//!   2 fixed slots per cluster, memory ops for 1: the mix shapes how often
//!   SMT merging succeeds where CSMT fails).
//! * `unroll` — loop unrolling factor (trace-scheduling stand-in).
//! * `loop_permille` — backedge probability (expected trips = 1/(1-p));
//!   lower values mean shorter runs of straight-line code and more 2-cycle
//!   taken-branch bubbles.
//! * `n_kernels` — number of distinct loops (I-cache footprint).
//! * `working_set` / `stride` — data-cache behaviour; `stride == 0` means
//!   uniform-random accesses within the working set (pointer chasing).

use crate::streams::StreamPattern;
use std::sync::{Arc, OnceLock};

/// The paper's low/medium/high IPC classification (Table 1, "ILP Degree").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum IlpDegree {
    /// Low (paper: mcf, bzip2, blowfish, gsmencode).
    L = 0,
    /// Medium (paper: g721encode, g721decode, cjpeg, djpeg).
    M = 1,
    /// High (paper: imgpipe, x264, idct, colorspace).
    H = 2,
}

impl IlpDegree {
    /// Single-letter tag used in mix names (`LLHH`...).
    pub const fn letter(self) -> char {
        match self {
            IlpDegree::L => 'L',
            IlpDegree::M => 'M',
            IlpDegree::H => 'H',
        }
    }
}

/// A synthetic benchmark description (one Table-1 row).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name. Owned (`Arc<str>`) so generated/custom workloads can
    /// carry computed names; the Table-1 entries use their paper names.
    /// Names are the identity under which images are compiled and cached.
    pub name: Arc<str>,
    /// What the original program is.
    pub description: &'static str,
    /// ILP class.
    pub ilp: IlpDegree,
    /// Independent dependence chains per loop iteration.
    pub dag_width: u32,
    /// Operations per chain.
    pub chain_len: u32,
    /// Multiply share of chain ops (1/1000).
    pub mul_permille: u16,
    /// Memory share of chain ops (1/1000).
    pub mem_permille: u16,
    /// Store share among memory ops (1/1000).
    pub store_permille: u16,
    /// Loop unroll factor.
    pub unroll: u32,
    /// Backedge probability (1/1000).
    pub loop_permille: u16,
    /// Number of distinct loop kernels.
    pub n_kernels: u32,
    /// Data working set in bytes.
    pub working_set: u64,
    /// Access stride in bytes; 0 = random within the working set.
    pub stride: u64,
    /// Share of dependence chains carried across loop iterations (1/1000).
    /// Carried chains serialize iterations (reductions, state machines);
    /// independent chains let unrolling expose ILP (streaming kernels).
    pub carried_permille: u16,
    /// Share of memory operations that touch the *cold* working set
    /// (`working_set` bytes, missing per its pattern); the rest hit small
    /// cache-resident hot regions. This is the locality knob that
    /// calibrates IPCr against IPCp.
    pub cold_permille: u16,
    /// Generator seed.
    pub seed: u64,
    /// Paper Table 1 IPC with real memory (reference only).
    pub paper_ipcr: f64,
    /// Paper Table 1 IPC with perfect memory (reference only).
    pub paper_ipcp: f64,
}

impl BenchmarkSpec {
    /// The stream pattern implied by the spec.
    pub fn pattern(&self) -> StreamPattern {
        if self.stride == 0 {
            StreamPattern::Random {
                working_set: self.working_set,
            }
        } else {
            StreamPattern::Strided {
                stride: self.stride,
                working_set: self.working_set,
            }
        }
    }
}

/// The twelve Table-1 benchmarks with calibrated knobs.
///
/// Calibration targets the paper's IPCp (schedule-limited) and IPCr
/// (cache-limited) on the 16-issue 4-cluster machine; `paper table1`
/// prints the measured values next to the paper's.
pub fn all_benchmarks() -> &'static [BenchmarkSpec] {
    static TABLE1: OnceLock<Vec<BenchmarkSpec>> = OnceLock::new();
    TABLE1.get_or_init(build_table1).as_slice()
}

/// Look up a benchmark by name.
pub fn benchmark(name: &str) -> Option<&'static BenchmarkSpec> {
    all_benchmarks().iter().find(|b| &*b.name == name)
}

/// Benchmarks of one ILP class, in Table-1 order.
pub fn by_class(class: IlpDegree) -> Vec<&'static BenchmarkSpec> {
    all_benchmarks().iter().filter(|b| b.ilp == class).collect()
}

fn build_table1() -> Vec<BenchmarkSpec> {
    vec![
        // ---- Low ILP ----------------------------------------------------
        BenchmarkSpec {
            name: "mcf".into(),
            description: "Minimum Cost Flow (pointer-chasing graph code)",
            ilp: IlpDegree::L,
            dag_width: 2,
            chain_len: 7,
            mul_permille: 20,
            mem_permille: 320,
            store_permille: 250,
            unroll: 1,
            loop_permille: 900,
            n_kernels: 3,
            working_set: 8 << 20, // far beyond 64KB: heavy miss traffic
            stride: 0,            // random: pointer chasing
            carried_permille: 950,
            cold_permille: 55,
            seed: 0x6d63_6601,
            paper_ipcr: 0.96,
            paper_ipcp: 1.34,
        },
        BenchmarkSpec {
            name: "bzip2".into(),
            description: "bzip2 compression (serial bit twiddling)",
            ilp: IlpDegree::L,
            dag_width: 1,
            chain_len: 10,
            mul_permille: 10,
            mem_permille: 500,
            store_permille: 300,
            unroll: 1,
            loop_permille: 650,
            n_kernels: 4,
            working_set: 48 << 10, // mostly cache-resident
            stride: 4,
            carried_permille: 1000,
            cold_permille: 4,
            seed: 0x627a_6902,
            paper_ipcr: 0.81,
            paper_ipcp: 0.83,
        },
        BenchmarkSpec {
            name: "blowfish".into(),
            description: "Blowfish encryption (S-box lookups, xor chains)",
            ilp: IlpDegree::L,
            dag_width: 2,
            chain_len: 8,
            mul_permille: 0,
            mem_permille: 280,
            store_permille: 120,
            unroll: 2,
            loop_permille: 920,
            n_kernels: 2,
            working_set: 160 << 10, // S-boxes + text: some misses
            stride: 0,
            carried_permille: 900,
            cold_permille: 75,
            seed: 0x626c_6f03,
            paper_ipcr: 1.11,
            paper_ipcp: 1.47,
        },
        BenchmarkSpec {
            name: "gsmencode".into(),
            description: "GSM 06.10 speech encoder",
            ilp: IlpDegree::L,
            dag_width: 2,
            chain_len: 13,
            mul_permille: 180,
            mem_permille: 300,
            store_permille: 200,
            unroll: 1,
            loop_permille: 880,
            n_kernels: 3,
            working_set: 24 << 10, // fits: IPCr == IPCp in the paper
            stride: 4,
            carried_permille: 900,
            cold_permille: 0,
            seed: 0x6773_6d04,
            paper_ipcr: 1.07,
            paper_ipcp: 1.07,
        },
        // ---- Medium ILP -------------------------------------------------
        BenchmarkSpec {
            name: "g721encode".into(),
            description: "G.721 ADPCM encoder",
            ilp: IlpDegree::M,
            dag_width: 3,
            chain_len: 5,
            mul_permille: 150,
            mem_permille: 240,
            store_permille: 200,
            unroll: 2,
            loop_permille: 930,
            n_kernels: 3,
            working_set: 32 << 10,
            stride: 4,
            carried_permille: 500,
            cold_permille: 2,
            seed: 0x6737_3205,
            paper_ipcr: 1.75,
            paper_ipcp: 1.76,
        },
        BenchmarkSpec {
            name: "g721decode".into(),
            description: "G.721 ADPCM decoder",
            ilp: IlpDegree::M,
            dag_width: 3,
            chain_len: 7,
            mul_permille: 140,
            mem_permille: 320,
            store_permille: 220,
            unroll: 2,
            loop_permille: 930,
            n_kernels: 3,
            working_set: 32 << 10,
            stride: 4,
            carried_permille: 500,
            cold_permille: 2,
            seed: 0x6737_3206,
            paper_ipcr: 1.75,
            paper_ipcp: 1.76,
        },
        BenchmarkSpec {
            name: "cjpeg".into(),
            description: "JPEG encoder (DCT + entropy coding)",
            ilp: IlpDegree::M,
            dag_width: 4,
            chain_len: 5,
            mul_permille: 200,
            mem_permille: 260,
            store_permille: 250,
            unroll: 1,
            loop_permille: 940,
            n_kernels: 4,
            working_set: 1536 << 10, // image planes: miss-heavy (IPCr 1.12 vs 1.66)
            stride: 0,
            carried_permille: 400,
            cold_permille: 55,
            seed: 0x636a_7007,
            paper_ipcr: 1.12,
            paper_ipcp: 1.66,
        },
        BenchmarkSpec {
            name: "djpeg".into(),
            description: "JPEG decoder",
            ilp: IlpDegree::M,
            dag_width: 4,
            chain_len: 5,
            mul_permille: 190,
            mem_permille: 140,
            store_permille: 280,
            unroll: 1,
            loop_permille: 945,
            n_kernels: 3,
            working_set: 40 << 10, // decodes into cache-resident tiles
            stride: 4,
            carried_permille: 400,
            cold_permille: 2,
            seed: 0x646a_7008,
            paper_ipcr: 1.76,
            paper_ipcp: 1.77,
        },
        // ---- High ILP ---------------------------------------------------
        BenchmarkSpec {
            name: "imgpipe".into(),
            description: "Imaging pipeline used in high-performance printers",
            ilp: IlpDegree::H,
            dag_width: 6,
            chain_len: 5,
            mul_permille: 180,
            mem_permille: 230,
            store_permille: 300,
            unroll: 2,
            loop_permille: 985,
            n_kernels: 2,
            working_set: 512 << 10, // streaming image rows
            stride: 4,
            carried_permille: 180,
            cold_permille: 50,
            seed: 0x696d_6709,
            paper_ipcr: 3.81,
            paper_ipcp: 4.05,
        },
        BenchmarkSpec {
            name: "x264".into(),
            description: "H.264 encoder (motion estimation SADs)",
            ilp: IlpDegree::H,
            dag_width: 10,
            chain_len: 4,
            mul_permille: 450,
            mem_permille: 200,
            store_permille: 150,
            unroll: 1,
            loop_permille: 960,
            n_kernels: 2,
            working_set: 384 << 10,
            stride: 4,
            carried_permille: 300,
            cold_permille: 15,
            seed: 0x7832_360a,
            paper_ipcr: 3.89,
            paper_ipcp: 4.04,
        },
        BenchmarkSpec {
            name: "idct".into(),
            description: "Inverse discrete cosine transform (ffmpeg)",
            ilp: IlpDegree::H,
            dag_width: 9,
            chain_len: 3,
            mul_permille: 300,
            mem_permille: 200,
            store_permille: 350,
            unroll: 6,
            loop_permille: 985,
            n_kernels: 2,
            working_set: 256 << 10,
            stride: 4,
            carried_permille: 100,
            cold_permille: 70,
            seed: 0x6964_630b,
            paper_ipcr: 4.79,
            paper_ipcp: 5.27,
        },
        BenchmarkSpec {
            name: "colorspace".into(),
            description: "Production colour-space conversion (printer pipeline)",
            ilp: IlpDegree::H,
            dag_width: 12,
            chain_len: 3,
            mul_permille: 250,
            mem_permille: 400,
            store_permille: 400,
            unroll: 10,
            loop_permille: 992,
            n_kernels: 1,
            working_set: 2 << 20, // streams whole planes: IPCr 5.47 vs IPCp 8.88
            stride: 4,
            carried_permille: 60,
            cold_permille: 130,
            seed: 0x636f_6c0c,
            paper_ipcr: 5.47,
            paper_ipcp: 8.88,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_benchmarks_four_per_class() {
        assert_eq!(all_benchmarks().len(), 12);
        for class in [IlpDegree::L, IlpDegree::M, IlpDegree::H] {
            assert_eq!(by_class(class).len(), 4, "{class:?}");
        }
    }

    #[test]
    fn names_unique_and_resolvable() {
        let mut names: Vec<&str> = all_benchmarks().iter().map(|b| &*b.name).collect();
        names.sort_unstable();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
        for n in names {
            assert!(benchmark(n).is_some());
        }
        assert!(benchmark("quake").is_none());
    }

    #[test]
    fn paper_reference_values_present() {
        for b in all_benchmarks() {
            assert!(b.paper_ipcp >= b.paper_ipcr, "{}", b.name);
            assert!(b.paper_ipcr > 0.5 && b.paper_ipcp < 9.0, "{}", b.name);
        }
    }

    #[test]
    fn knobs_are_sane() {
        for b in all_benchmarks() {
            assert!(b.dag_width >= 1 && b.chain_len >= 1, "{}", b.name);
            assert!(b.mul_permille + b.mem_permille <= 1000, "{}", b.name);
            assert!(b.loop_permille <= 1000, "{}", b.name);
            assert!(b.working_set >= 1024, "{}", b.name);
            assert!(b.unroll >= 1, "{}", b.name);
        }
    }

    #[test]
    fn class_letters() {
        assert_eq!(IlpDegree::L.letter(), 'L');
        assert_eq!(IlpDegree::M.letter(), 'M');
        assert_eq!(IlpDegree::H.letter(), 'H');
    }
}
