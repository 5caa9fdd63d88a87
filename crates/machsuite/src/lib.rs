//! # machsuite — the MachSuite accelerator benchmarks
//!
//! All 19 benchmarks of MachSuite (Reagen et al., IISWC'14) — the
//! evaluation workload of the paper — implemented as functional kernels
//! against the [`hetsim::Engine`] abstraction, so the same code runs on
//! the CPU model, an unprotected accelerator, or an accelerator behind the
//! CapChecker or any baseline mechanism.
//!
//! Each benchmark provides:
//!
//! * a **buffer specification** per accelerator instance, reproducing the
//!   buffer counts and min/max sizes of Table 2 exactly (8 instances,
//!   verified by tests);
//! * a deterministic **input generator** (seeded);
//! * the **kernel** itself, emitting loads/stores/computes through the
//!   engine;
//! * a pure-Rust **reference** implementation, so every kernel's output is
//!   checked bit-for-bit;
//! * an **HLS profile** ([`KernelProfile`]): the structural timing
//!   parameters a high-level-synthesis flow would fix (datapath lanes,
//!   pipelining, outstanding requests, and the scalar CPU's cost per work
//!   unit), calibrated to reproduce the paper's speedup bands (Figure 7).
//!
//! # Examples
//!
//! ```
//! use machsuite::Benchmark;
//! use hetsim::{KernelEngine, TaggedMemory};
//!
//! # fn main() -> Result<(), hetsim::ExecFault> {
//! let bench = Benchmark::GemmNcubed;
//! let mut mem = TaggedMemory::new(1 << 20);
//! let layout = bench.place(0x1000);
//! for (i, data) in bench.init(42).iter().enumerate() {
//!     mem.write_bytes(layout.buffers[i].base, data).unwrap();
//! }
//! let mut eng = KernelEngine::new(&mut mem, layout);
//! bench.kernel(&mut eng)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accel;
pub mod kernels;
pub mod ports;
pub mod stats;
mod workload;

pub use accel::KernelProfile;
pub use ports::PortMode;
pub use stats::WorkloadStats;
pub use workload::{BufferDef, Table2Row, INSTANCES};

use hetsim::{Engine, ExecFault, TaskLayout};
use std::fmt;
use std::str::FromStr;

/// One MachSuite benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    Aes,
    Backprop,
    BfsBulk,
    BfsQueue,
    FftStrided,
    FftTranspose,
    GemmBlocked,
    GemmNcubed,
    Kmp,
    MdGrid,
    MdKnn,
    Nw,
    SortMerge,
    SortRadix,
    SpmvCrs,
    SpmvEllpack,
    Stencil2d,
    Stencil3d,
    Viterbi,
}

impl Benchmark {
    /// All 19 benchmarks, in Table 2's order.
    pub const ALL: [Benchmark; 19] = [
        Benchmark::Aes,
        Benchmark::Backprop,
        Benchmark::BfsBulk,
        Benchmark::BfsQueue,
        Benchmark::FftStrided,
        Benchmark::FftTranspose,
        Benchmark::GemmBlocked,
        Benchmark::GemmNcubed,
        Benchmark::Kmp,
        Benchmark::MdGrid,
        Benchmark::MdKnn,
        Benchmark::Nw,
        Benchmark::SortMerge,
        Benchmark::SortRadix,
        Benchmark::SpmvCrs,
        Benchmark::SpmvEllpack,
        Benchmark::Stencil2d,
        Benchmark::Stencil3d,
        Benchmark::Viterbi,
    ];

    /// The benchmark's MachSuite name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Aes => "aes",
            Benchmark::Backprop => "backprop",
            Benchmark::BfsBulk => "bfs_bulk",
            Benchmark::BfsQueue => "bfs_queue",
            Benchmark::FftStrided => "fft_strided",
            Benchmark::FftTranspose => "fft_transpose",
            Benchmark::GemmBlocked => "gemm_blocked",
            Benchmark::GemmNcubed => "gemm_ncubed",
            Benchmark::Kmp => "kmp",
            Benchmark::MdGrid => "md_grid",
            Benchmark::MdKnn => "md_knn",
            Benchmark::Nw => "nw",
            Benchmark::SortMerge => "sort_merge",
            Benchmark::SortRadix => "sort_radix",
            Benchmark::SpmvCrs => "spmv_crs",
            Benchmark::SpmvEllpack => "spmv_ellpack",
            Benchmark::Stencil2d => "stencil2d",
            Benchmark::Stencil3d => "stencil3d",
            Benchmark::Viterbi => "viterbi",
        }
    }

    /// Per-instance buffer definitions (name and size).
    #[must_use]
    pub fn buffers(self) -> &'static [BufferDef] {
        workload::buffers(self)
    }

    /// Deterministic initial contents for each buffer.
    #[must_use]
    pub fn init(self, seed: u64) -> Vec<Vec<u8>> {
        kernels::init(self, seed)
    }

    /// Runs the kernel against an engine.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecFault`] (a protection denial aborts the
    /// task, as in hardware).
    pub fn kernel(self, eng: &mut dyn Engine) -> Result<(), ExecFault> {
        kernels::run(self, eng)
    }

    /// Applies the golden reference to in-memory buffer images.
    pub fn reference(self, bufs: &mut [Vec<u8>]) {
        kernels::reference(self, bufs);
    }

    /// The HLS timing profile.
    #[must_use]
    pub fn profile(self) -> KernelProfile {
        accel::profile(self)
    }

    /// The Table 2 row for this benchmark (8 instances).
    #[must_use]
    pub fn table2_row(self) -> Table2Row {
        workload::table2_row(self)
    }

    /// A contiguous (test-friendly) placement of one instance's buffers
    /// starting at `base`, 64-byte aligned.
    #[must_use]
    pub fn place(self, base: u64) -> TaskLayout {
        let mut at = base;
        TaskLayout::new(self.buffers().iter().map(|b| {
            let this = at;
            at = (at + b.size).next_multiple_of(64);
            (this, b.size)
        }))
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a benchmark name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBenchmarkError(String);

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark {:?}", self.0)
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Benchmark, ParseBenchmarkError> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| ParseBenchmarkError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(b.name().parse::<Benchmark>().unwrap(), b);
        }
        assert!("nope".parse::<Benchmark>().is_err());
    }

    #[test]
    fn placement_is_disjoint_and_ordered() {
        for b in Benchmark::ALL {
            let layout = b.place(0x1000);
            for w in layout.buffers.windows(2) {
                assert!(w[0].end() <= w[1].base, "{b}: overlapping placement");
            }
        }
    }
}
