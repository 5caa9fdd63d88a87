//! Buggy kernel variants — the bugs §6.2 reports observing "in most
//! accelerator benchmarks with particular test data, including sort_radix
//! and backprop. For example, a user-defined loop bound may be larger than
//! the size of an array accessed by the loop."
//!
//! Each function is the real kernel with one realistic defect injected.
//! On an unprotected system they read or corrupt neighbouring memory
//! silently; behind the CapChecker the first out-of-bounds access raises
//! an exception traced to the offending object.

use hetsim::{Engine, ExecFault};

/// The faulty variants available (each names the defect).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// `backprop` trained with a user-supplied sample count larger than
    /// the training set: reads past `train_x`.
    BackpropOvertrain,
    /// `sort_radix` scatter with an off-by-one element count: writes one
    /// element past the temp buffer.
    SortRadixScatterOverflow,
    /// `stencil2d` without the boundary clamp: reads rows past `orig`.
    StencilUnclampedRows,
    /// `kmp` scanning a text whose length register was corrupted upward:
    /// reads past the text buffer.
    KmpRunawayScan,
    /// `spmv_crs` with a column index outside the vector (unsanitized
    /// input data steering the gather).
    SpmvWildColumn,
}

impl Fault {
    /// Every injected defect.
    pub const ALL: [Fault; 5] = [
        Fault::BackpropOvertrain,
        Fault::SortRadixScatterOverflow,
        Fault::StencilUnclampedRows,
        Fault::KmpRunawayScan,
        Fault::SpmvWildColumn,
    ];

    /// The benchmark this defect lives in.
    #[must_use]
    pub fn benchmark(self) -> crate::Benchmark {
        match self {
            Fault::BackpropOvertrain => crate::Benchmark::Backprop,
            Fault::SortRadixScatterOverflow => crate::Benchmark::SortRadix,
            Fault::StencilUnclampedRows => crate::Benchmark::Stencil2d,
            Fault::KmpRunawayScan => crate::Benchmark::Kmp,
            Fault::SpmvWildColumn => crate::Benchmark::SpmvCrs,
        }
    }

    /// The object index the defect dereferences out of bounds — what the
    /// CapChecker's exception trace should point at.
    #[must_use]
    pub fn offending_object(self) -> usize {
        match self {
            Fault::BackpropOvertrain => 5,        // train_x
            Fault::SortRadixScatterOverflow => 1, // temp
            Fault::StencilUnclampedRows => 1,     // orig
            Fault::KmpRunawayScan => 2,           // text
            Fault::SpmvWildColumn => 3,           // x
        }
    }

    /// Runs the defective kernel. On a protected system the returned
    /// error is the denial of the first out-of-bounds access.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecFault`].
    pub fn kernel(self, eng: &mut dyn Engine) -> Result<(), ExecFault> {
        match self {
            Fault::BackpropOvertrain => backprop_overtrain(eng),
            Fault::SortRadixScatterOverflow => sort_radix_scatter_overflow(eng),
            Fault::StencilUnclampedRows => stencil_unclamped_rows(eng),
            Fault::KmpRunawayScan => kmp_runaway_scan(eng),
            Fault::SpmvWildColumn => spmv_wild_column(eng),
        }
    }
}

/// backprop's training loop with `n_samples` taken from (corrupt) user
/// input: 652 real samples, 700 requested.
fn backprop_overtrain(eng: &mut dyn Engine) -> Result<(), ExecFault> {
    let claimed_samples = 700u64; // train_x holds 652 * 4 f32
    let mut acc = 0f32;
    for s in 0..claimed_samples {
        for i in 0..4 {
            acc += eng.load_f32(5, s * 4 + i)?;
            eng.compute(2);
        }
    }
    eng.store_f32(4, 0, acc)?;
    Ok(())
}

/// sort_radix's scatter writing `N + 1` elements (`<=` instead of `<`).
fn sort_radix_scatter_overflow(eng: &mut dyn Engine) -> Result<(), ExecFault> {
    let n = 2048u64; // temp holds exactly 2048 u32
    for i in 0..=n {
        let v = eng.load_u32(0, i % n)?;
        eng.compute(2);
        eng.store_u32(1, i, v)?; // i == n is one past the end
    }
    Ok(())
}

/// stencil2d iterating all 64 rows instead of 62: the bottom taps read
/// past the end of `orig`.
fn stencil_unclamped_rows(eng: &mut dyn Engine) -> Result<(), ExecFault> {
    let (rows, cols) = (64u64, 128u64);
    for r in 0..rows {
        // BUG: should stop at rows - 2
        for c in 0..cols - 2 {
            let mut acc = 0f32;
            for k1 in 0..3u64 {
                for k2 in 0..3u64 {
                    acc += eng.load_f32(1, (r + k1) * cols + c + k2)?;
                    eng.compute(2);
                }
            }
            eng.store_f32(2, r * cols + c, acc)?;
        }
    }
    Ok(())
}

/// kmp scanning 4 KiB past the text (corrupted length register).
fn kmp_runaway_scan(eng: &mut dyn Engine) -> Result<(), ExecFault> {
    let real_len = 64824u64;
    let mut matches = 0u64;
    for i in 0..real_len + 4096 {
        let c = eng.load_u8(2, i)?;
        eng.compute(1);
        if c == b'a' {
            matches += 1;
        }
    }
    eng.store_u64(3, 0, matches)?;
    Ok(())
}

/// spmv gathering `x[col]` where a column index in the input was
/// corrupted to 5000 (only 494 entries exist).
fn spmv_wild_column(eng: &mut dyn Engine) -> Result<(), ExecFault> {
    for e in 0..16u64 {
        let v = eng.load_f32(0, e)?;
        let col = if e == 7 {
            5000
        } else {
            eng.load_u32(1, e)? as u64
        };
        let xv = eng.load_f32(3, col)?;
        eng.compute(2);
        eng.store_f32(4, e % 494, v * xv)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{KernelEngine, TaggedMemory};

    #[test]
    fn faulty_kernels_run_silently_on_unprotected_memory() {
        // The §2 point: without protection the overflow is invisible —
        // the access lands in whatever is adjacent.
        for fault in Fault::ALL {
            let bench = fault.benchmark();
            let layout = bench.place(0x1000);
            let total = layout.buffers.last().map(|b| b.end()).unwrap_or(0x2000) + (1 << 20);
            let mut mem = TaggedMemory::new(total.next_multiple_of(4096));
            for (i, img) in bench.init(1).iter().enumerate() {
                mem.write_bytes(layout.buffers[i].base, img).unwrap();
            }
            let mut eng = KernelEngine::new(&mut mem, layout);
            fault
                .kernel(&mut eng)
                .unwrap_or_else(|e| panic!("{fault:?} should run unprotected: {e}"));
        }
    }

    #[test]
    fn every_fault_names_a_real_object() {
        for fault in Fault::ALL {
            let n = fault.benchmark().buffers().len();
            assert!(fault.offending_object() < n, "{fault:?}");
        }
    }
}
