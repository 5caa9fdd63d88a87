//! The benchmark kernels.
//!
//! Every kernel is written once against [`hetsim::Engine`] and verified
//! bit-for-bit against a pure-Rust reference via
//! [`check_against_reference`]. Kernels emit `compute(units)` between
//! memory operations; a *unit* is one data-path operation (add, multiply,
//! compare), which the timing models scale by the CPU's per-unit cost or
//! the accelerator's lane/pipeline parallelism.
//!
//! Style notes that matter for fidelity:
//!
//! * values a real HLS accelerator would keep in registers or BRAM (loop
//!   accumulators, weight matrices loaded once, lookup tables baked into
//!   LUTs) live in Rust locals, not in memory traffic;
//! * data-dependent accesses (neighbor lists, graph edges, sparse column
//!   indices) go through the engine every time — they are exactly the
//!   accesses a protection mechanism must vet.

// Kernels are written in the explicit indexed-loop style of the HLS C
// they transcribe (and their references must match them op for op), so
// the iterator-style lint does not apply here.
#![allow(clippy::needless_range_loop)]

mod aes;
mod backprop;
mod bfs;
pub mod faulty;
mod fft;
mod gemm;
mod kmp;
mod md;
mod nw;
mod sort;
mod spmv;
mod stencil;
mod viterbi;

use crate::Benchmark;
use hetsim::{Engine, ExecFault, KernelEngine, TaggedMemory};

/// Deterministic initial buffer contents for `bench`.
#[must_use]
pub fn init(bench: Benchmark, seed: u64) -> Vec<Vec<u8>> {
    match bench {
        Benchmark::Aes => aes::init(seed),
        Benchmark::Backprop => backprop::init(seed),
        Benchmark::BfsBulk | Benchmark::BfsQueue => bfs::init(seed),
        Benchmark::FftStrided => fft::init_strided(seed),
        Benchmark::FftTranspose => fft::init_transpose(seed),
        Benchmark::GemmBlocked | Benchmark::GemmNcubed => gemm::init(seed),
        Benchmark::Kmp => kmp::init(seed),
        Benchmark::MdGrid => md::init_grid(seed),
        Benchmark::MdKnn => md::init_knn(seed),
        Benchmark::Nw => nw::init(seed),
        Benchmark::SortMerge => sort::init_merge(seed),
        Benchmark::SortRadix => sort::init_radix(seed),
        Benchmark::SpmvCrs => spmv::init_crs(seed),
        Benchmark::SpmvEllpack => spmv::init_ellpack(seed),
        Benchmark::Stencil2d => stencil::init_2d(seed),
        Benchmark::Stencil3d => stencil::init_3d(seed),
        Benchmark::Viterbi => viterbi::init(seed),
    }
}

/// Runs `bench`'s kernel on `eng`.
///
/// # Errors
///
/// Propagates the first [`ExecFault`].
pub fn run(bench: Benchmark, eng: &mut dyn Engine) -> Result<(), ExecFault> {
    match bench {
        Benchmark::Aes => aes::kernel(eng),
        Benchmark::Backprop => backprop::kernel(eng),
        Benchmark::BfsBulk => bfs::kernel_bulk(eng),
        Benchmark::BfsQueue => bfs::kernel_queue(eng),
        Benchmark::FftStrided => fft::kernel_strided(eng),
        Benchmark::FftTranspose => fft::kernel_transpose(eng),
        Benchmark::GemmBlocked => gemm::kernel_blocked(eng),
        Benchmark::GemmNcubed => gemm::kernel_ncubed(eng),
        Benchmark::Kmp => kmp::kernel(eng),
        Benchmark::MdGrid => md::kernel_grid(eng),
        Benchmark::MdKnn => md::kernel_knn(eng),
        Benchmark::Nw => nw::kernel(eng),
        Benchmark::SortMerge => sort::kernel_merge(eng),
        Benchmark::SortRadix => sort::kernel_radix(eng),
        Benchmark::SpmvCrs => spmv::kernel_crs(eng),
        Benchmark::SpmvEllpack => spmv::kernel_ellpack(eng),
        Benchmark::Stencil2d => stencil::kernel_2d(eng),
        Benchmark::Stencil3d => stencil::kernel_3d(eng),
        Benchmark::Viterbi => viterbi::kernel(eng),
    }
}

/// Applies `bench`'s pure-Rust golden reference to buffer images.
pub fn reference(bench: Benchmark, bufs: &mut [Vec<u8>]) {
    match bench {
        Benchmark::Aes => aes::reference(bufs),
        Benchmark::Backprop => backprop::reference(bufs),
        Benchmark::BfsBulk => bfs::reference_bulk(bufs),
        Benchmark::BfsQueue => bfs::reference_queue(bufs),
        Benchmark::FftStrided => fft::reference_strided(bufs),
        Benchmark::FftTranspose => fft::reference_transpose(bufs),
        Benchmark::GemmBlocked => gemm::reference_blocked(bufs),
        Benchmark::GemmNcubed => gemm::reference_ncubed(bufs),
        Benchmark::Kmp => kmp::reference(bufs),
        Benchmark::MdGrid => md::reference_grid(bufs),
        Benchmark::MdKnn => md::reference_knn(bufs),
        Benchmark::Nw => nw::reference(bufs),
        Benchmark::SortMerge => sort::reference_merge(bufs),
        Benchmark::SortRadix => sort::reference_radix(bufs),
        Benchmark::SpmvCrs => spmv::reference_crs(bufs),
        Benchmark::SpmvEllpack => spmv::reference_ellpack(bufs),
        Benchmark::Stencil2d => stencil::reference_2d(bufs),
        Benchmark::Stencil3d => stencil::reference_3d(bufs),
        Benchmark::Viterbi => viterbi::reference(bufs),
    }
}

/// Runs the kernel through an unchecked [`KernelEngine`] over fresh
/// memory and compares every output buffer byte-for-byte against the
/// reference.
///
/// Returns the recorded trace on success.
///
/// # Errors
///
/// A human-readable description of the first divergence, or of a kernel
/// fault (neither should ever happen).
pub fn check_against_reference(bench: Benchmark, seed: u64) -> Result<hetsim::Trace, String> {
    let layout = bench.place(0x1000);
    let total = layout
        .buffers
        .last()
        .map_or(0x2000, |b| b.end())
        .next_multiple_of(4096)
        + 4096;
    let mut mem = TaggedMemory::new(total);
    let images = init(bench, seed);
    assert_eq!(
        images.len(),
        layout.buffers.len(),
        "{bench}: init/buffers mismatch"
    );
    for (region, image) in layout.buffers.iter().zip(&images) {
        assert_eq!(
            region.size as usize,
            image.len(),
            "{bench}: init size mismatch"
        );
        mem.write_bytes(region.base, image)
            .expect("placement fits memory");
    }

    let mut eng = KernelEngine::new(&mut mem, layout.clone());
    run(bench, &mut eng).map_err(|e| format!("{bench}: kernel fault: {e}"))?;
    let trace = eng.into_trace();

    let mut golden = images;
    reference(bench, &mut golden);

    for (i, (region, want)) in layout.buffers.iter().zip(&golden).enumerate() {
        let mut got = vec![0u8; want.len()];
        mem.read_bytes(region.base, &mut got)
            .expect("placement fits memory");
        if &got != want {
            let byte = got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
            return Err(format!(
                "{bench}: buffer {i} ({}) diverges at byte {byte}: got {:#04x}, want {:#04x}",
                bench.buffers()[i].name,
                got[byte],
                want[byte]
            ));
        }
    }
    Ok(trace)
}

// ---- little-endian view helpers shared by kernels and references ----

pub(crate) fn get_u32(buf: &[u8], idx: usize) -> u32 {
    u32::from_le_bytes(buf[idx * 4..idx * 4 + 4].try_into().expect("aligned u32"))
}

pub(crate) fn set_u32(buf: &mut [u8], idx: usize, v: u32) {
    buf[idx * 4..idx * 4 + 4].copy_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_f32(buf: &[u8], idx: usize) -> f32 {
    f32::from_bits(get_u32(buf, idx))
}

pub(crate) fn set_f32(buf: &mut [u8], idx: usize, v: f32) {
    set_u32(buf, idx, v.to_bits());
}

pub(crate) fn get_u64(buf: &[u8], idx: usize) -> u64 {
    u64::from_le_bytes(buf[idx * 8..idx * 8 + 8].try_into().expect("aligned u64"))
}

pub(crate) fn set_u64(buf: &mut [u8], idx: usize, v: u64) {
    buf[idx * 8..idx * 8 + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_matches_its_reference() {
        for bench in Benchmark::ALL {
            if let Err(e) = check_against_reference(bench, 0xC0FFEE) {
                panic!("{e}");
            }
        }
    }

    #[test]
    fn kernels_are_seed_sensitive_but_deterministic() {
        for bench in [Benchmark::Aes, Benchmark::SortMerge, Benchmark::SpmvCrs] {
            let a = init(bench, 1);
            let b = init(bench, 1);
            let c = init(bench, 2);
            assert_eq!(a, b, "{bench}: init must be deterministic");
            assert_ne!(a, c, "{bench}: init must depend on the seed");
        }
    }

    #[test]
    fn helpers_round_trip() {
        let mut buf = vec![0u8; 16];
        set_u32(&mut buf, 1, 0xdead_beef);
        assert_eq!(get_u32(&buf, 1), 0xdead_beef);
        set_f32(&mut buf, 2, -1.25);
        assert_eq!(get_f32(&buf, 2), -1.25);
        set_u64(&mut buf, 0, 42);
        assert_eq!(get_u64(&buf, 0), 42);
    }
}
