//! Declared per-port access directions — the static contract between a
//! kernel and its buffers.
//!
//! An HLS flow knows, at synthesis time, which direction each top-level
//! port moves data: an input array is only ever read, an output array
//! only written. This module declares that contract for every MachSuite
//! kernel. The static analyzer turns it into least-privilege capability
//! grants (an `In` port needs only LOAD) and flags grants that exceed it
//! as over-privileged; the declaration is intentionally independent of
//! any particular input, so a seed that happens not to exercise a
//! direction never shrinks the contract.
//!
//! A test replays every kernel through [`hetsim::KernelEngine`] over
//! several seeds and checks the observed traffic is exactly the declared
//! set: no kernel touches a port outside its declaration (soundness), and
//! no declaration is wider than the kernels' union of use (tightness).

use crate::Benchmark;

/// The direction a kernel moves data through one buffer port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortMode {
    /// Read only: the port needs LOAD and nothing else.
    In,
    /// Written only: the port needs STORE and nothing else.
    Out,
    /// Read and written: the port needs LOAD and STORE.
    InOut,
    /// Never accessed by the kernel (scaffolding the reference uses);
    /// a least-privilege grant carries no data permissions at all.
    Unused,
}

impl PortMode {
    /// Stable lowercase label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PortMode::In => "in",
            PortMode::Out => "out",
            PortMode::InOut => "inout",
            PortMode::Unused => "unused",
        }
    }

    /// `true` when the kernel may read through the port.
    #[must_use]
    pub fn reads(self) -> bool {
        matches!(self, PortMode::In | PortMode::InOut)
    }

    /// `true` when the kernel may write through the port.
    #[must_use]
    pub fn writes(self) -> bool {
        matches!(self, PortMode::Out | PortMode::InOut)
    }
}

/// The declared port modes of `bench`, in buffer order (same order as
/// [`Benchmark::buffers`]).
#[must_use]
pub fn ports(bench: Benchmark) -> &'static [PortMode] {
    use PortMode::{In, InOut, Out, Unused};
    match bench {
        // block
        Benchmark::Aes => &[InOut],
        // hyper, w1, w2, b1, b2, train_x, train_y
        Benchmark::Backprop => &[In, InOut, InOut, InOut, InOut, In, In],
        // params, nodes, edges, level, level_counts
        Benchmark::BfsBulk | Benchmark::BfsQueue => &[In, In, In, InOut, Out],
        // real, imag, real_twid, imag_twid, work_real, work_imag
        Benchmark::FftStrided => &[InOut, InOut, In, In, InOut, InOut],
        // real, imag
        Benchmark::FftTranspose => &[InOut, InOut],
        // a, b, c
        Benchmark::GemmBlocked => &[In, In, InOut],
        Benchmark::GemmNcubed => &[In, In, Out],
        // pattern, next, text, n_matches
        Benchmark::Kmp => &[In, Out, In, Out],
        // bin_counts, bin_atoms, position, force, vel_x, vel_y, vel_z
        Benchmark::MdGrid => &[In, In, In, Out, Unused, Unused, Unused],
        // params, pos_x, pos_y, pos_z, neighbors, force, energy
        Benchmark::MdKnn => &[In, In, In, In, In, Out, Out],
        // seq_a, seq_b, matrix, back_ptr, aligned_a, aligned_b
        Benchmark::Nw => &[In, In, Out, InOut, Out, Out],
        // data, temp
        Benchmark::SortMerge => &[InOut, InOut],
        // data, temp, bucket, scan
        Benchmark::SortRadix => &[InOut, InOut, Out, Out],
        // values, cols, row_ptr, x, y
        Benchmark::SpmvCrs => &[In, In, In, InOut, InOut],
        // nzval, cols, x, y
        Benchmark::SpmvEllpack => &[In, In, InOut, InOut],
        // filter/coeffs, orig, sol
        Benchmark::Stencil2d | Benchmark::Stencil3d => &[In, In, Out],
        // init, transition, emission, obs, path
        Benchmark::Viterbi => &[In, In, In, In, Out],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{KernelEngine, TaggedMemory, TraceOp};

    /// Per-port (reads, writes) actually performed by one kernel run.
    fn observed(bench: Benchmark, seed: u64) -> Vec<(bool, bool)> {
        let layout = bench.place(0x10000);
        let mut mem = TaggedMemory::new(8 << 20);
        for (i, img) in bench.init(seed).iter().enumerate() {
            mem.write_bytes(layout.address(i, 0), img).unwrap();
        }
        let mut eng = KernelEngine::new(&mut mem, layout.clone());
        bench.kernel(&mut eng).unwrap();
        let mut modes = vec![(false, false); bench.buffers().len()];
        let resolve = |addr: u64| {
            layout
                .buffers
                .iter()
                .position(|r| addr >= r.base && addr < r.end())
        };
        for op in eng.trace().ops() {
            match op {
                TraceOp::Mem { write, object, .. } => {
                    if *write {
                        modes[*object as usize].1 = true;
                    } else {
                        modes[*object as usize].0 = true;
                    }
                }
                TraceOp::Copy { src, dst, .. } => {
                    if let Some(o) = resolve(*src) {
                        modes[o].0 = true;
                    }
                    if let Some(o) = resolve(*dst) {
                        modes[o].1 = true;
                    }
                }
                TraceOp::Compute(_) => {}
            }
        }
        modes
    }

    #[test]
    fn every_benchmark_declares_every_port() {
        for b in Benchmark::ALL {
            assert_eq!(
                ports(b).len(),
                b.buffers().len(),
                "{b}: one mode per buffer"
            );
        }
    }

    #[test]
    fn declared_ports_are_sound_and_tight() {
        const SEEDS: [u64; 3] = [1, 2, 3];
        for b in Benchmark::ALL {
            let declared = ports(b);
            let mut union = vec![(false, false); declared.len()];
            for seed in SEEDS {
                for (i, &(r, w)) in observed(b, seed).iter().enumerate() {
                    let port = b.buffers()[i].name;
                    // Soundness: no traffic outside the declaration.
                    assert!(
                        !r || declared[i].reads(),
                        "{b}/{port}: undeclared read (seed {seed})"
                    );
                    assert!(
                        !w || declared[i].writes(),
                        "{b}/{port}: undeclared write (seed {seed})"
                    );
                    union[i].0 |= r;
                    union[i].1 |= w;
                }
            }
            // Tightness: the declaration is exactly the union of use, so
            // least-privilege grants are as narrow as the kernels allow.
            for (i, &(r, w)) in union.iter().enumerate() {
                let port = b.buffers()[i].name;
                assert_eq!(r, declared[i].reads(), "{b}/{port}: read over-declared");
                assert_eq!(w, declared[i].writes(), "{b}/{port}: write over-declared");
            }
        }
    }

    #[test]
    fn labels_and_directions_are_stable() {
        assert_eq!(PortMode::In.label(), "in");
        assert_eq!(PortMode::Out.label(), "out");
        assert_eq!(PortMode::InOut.label(), "inout");
        assert_eq!(PortMode::Unused.label(), "unused");
        assert!(PortMode::In.reads() && !PortMode::In.writes());
        assert!(!PortMode::Out.reads() && PortMode::Out.writes());
        assert!(PortMode::InOut.reads() && PortMode::InOut.writes());
        assert!(!PortMode::Unused.reads() && !PortMode::Unused.writes());
    }
}
