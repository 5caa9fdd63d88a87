//! The kernel execution abstraction.
//!
//! Benchmarks are written once against [`Engine`] and run unmodified on
//! every target: the CPU model, an unprotected accelerator, or an
//! accelerator behind the CapChecker or a baseline protection mechanism.
//! One engine, [`KernelEngine`], implements it for all of them: it
//! performs *functional* memory accesses (so protection faults really
//! happen), records a [`Trace`] for the timing models, and latches the
//! first denial. The targets differ only in the [`AccessGuard`] that vets
//! each access: [`Unchecked`], a CHERI CPU's own capabilities
//! ([`CpuCapGuard`]), or the driver's device path over its protection
//! mechanism.

use crate::bus::{Access, AccessKind, Denial, DenyReason};
use crate::ids::{MasterId, ObjectId, TaskId};
use crate::memory::{MemError, TaggedMemory};
use crate::trace::{Trace, TraceOp};
use cheri::{Capability, Perms};
use std::error::Error;
use std::fmt;

/// A fault encountered while executing a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecFault {
    /// The protection path refused the access.
    Denied(Denial),
    /// The access left simulated physical memory.
    Mem(MemError),
    /// The engine stopped making progress and a watchdog expired. `ops`
    /// is the operation budget the task had burned when it was aborted.
    Hung {
        /// Watchdog operation budget consumed at abort time.
        ops: u64,
    },
    /// A transient interconnect fault (for example a dropped beat): the
    /// transfer aborted cleanly and a retry is expected to succeed.
    Transient {
        /// Which fault aborted the transfer.
        kind: obs::FaultKind,
    },
}

impl fmt::Display for ExecFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecFault::Denied(d) => write!(f, "{d}"),
            ExecFault::Mem(e) => write!(f, "{e}"),
            ExecFault::Hung { ops } => write!(f, "engine hung (watchdog expired after {ops} ops)"),
            ExecFault::Transient { kind } => write!(f, "transient fault: {kind}"),
        }
    }
}

impl Error for ExecFault {}

impl From<Denial> for ExecFault {
    fn from(d: Denial) -> ExecFault {
        ExecFault::Denied(d)
    }
}

impl From<MemError> for ExecFault {
    fn from(e: MemError) -> ExecFault {
        ExecFault::Mem(e)
    }
}

/// Where a kernel runs: loads, stores, computes, and bulk-copies against a
/// task's numbered objects (buffers).
///
/// Offsets are object-relative; the engine owns the object→address binding,
/// the protection path, and the trace.
pub trait Engine {
    /// Loads `size` (≤ 8) bytes at `offset` within object `obj`.
    ///
    /// # Errors
    ///
    /// [`ExecFault::Denied`] when the protection path refuses the access,
    /// [`ExecFault::Mem`] when it leaves physical memory.
    fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault>;

    /// Stores the low `size` (≤ 8) bytes of `value` at `offset` in `obj`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store(&mut self, obj: usize, offset: u64, size: u8, value: u64) -> Result<(), ExecFault>;

    /// Records `units` of data-path work between memory operations.
    fn compute(&mut self, units: u64);

    /// Bulk-copies `len` bytes from `src_obj@src_off` to `dst_obj@dst_off`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn copy(
        &mut self,
        dst_obj: usize,
        dst_off: u64,
        src_obj: usize,
        src_off: u64,
        len: u64,
    ) -> Result<(), ExecFault> {
        // Default: element-wise via load/store (engines with a faster bulk
        // path override this).
        for i in 0..len {
            let b = self.load(src_obj, src_off + i, 1)?;
            self.store(dst_obj, dst_off + i, 1, b)?;
        }
        Ok(())
    }

    /// Loads a `u32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_u32(&mut self, obj: usize, index: u64) -> Result<u32, ExecFault> {
        Ok(self.load(obj, index * 4, 4)? as u32)
    }

    /// Stores a `u32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_u32(&mut self, obj: usize, index: u64, value: u32) -> Result<(), ExecFault> {
        self.store(obj, index * 4, 4, u64::from(value))
    }

    /// Loads an `i32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_i32(&mut self, obj: usize, index: u64) -> Result<i32, ExecFault> {
        Ok(self.load_u32(obj, index)? as i32)
    }

    /// Stores an `i32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_i32(&mut self, obj: usize, index: u64, value: i32) -> Result<(), ExecFault> {
        self.store_u32(obj, index, value as u32)
    }

    /// Loads an `f32` (stored as its IEEE-754 bit pattern).
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_f32(&mut self, obj: usize, index: u64) -> Result<f32, ExecFault> {
        Ok(f32::from_bits(self.load_u32(obj, index)?))
    }

    /// Stores an `f32`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_f32(&mut self, obj: usize, index: u64, value: f32) -> Result<(), ExecFault> {
        self.store_u32(obj, index, value.to_bits())
    }

    /// Loads a `u64`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_u64(&mut self, obj: usize, index: u64) -> Result<u64, ExecFault> {
        self.load(obj, index * 8, 8)
    }

    /// Stores a `u64`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_u64(&mut self, obj: usize, index: u64, value: u64) -> Result<(), ExecFault> {
        self.store(obj, index * 8, 8, value)
    }

    /// Loads a byte.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn load_u8(&mut self, obj: usize, offset: u64) -> Result<u8, ExecFault> {
        Ok(self.load(obj, offset, 1)? as u8)
    }

    /// Stores a byte.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::load`].
    fn store_u8(&mut self, obj: usize, offset: u64, value: u8) -> Result<(), ExecFault> {
        self.store(obj, offset, 1, u64::from(value))
    }
}

/// One buffer's placement in physical memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferRegion {
    /// First byte of the buffer.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl BufferRegion {
    /// One past the last byte.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base + self.size
    }
}

/// The object→address binding for one task.
#[derive(Clone, Debug, Default)]
pub struct TaskLayout {
    /// Buffer regions, indexed by the kernel's object numbers.
    pub buffers: Vec<BufferRegion>,
}

impl TaskLayout {
    /// Builds a layout from `(base, size)` pairs.
    #[must_use]
    pub fn new(regions: impl IntoIterator<Item = (u64, u64)>) -> TaskLayout {
        TaskLayout {
            buffers: regions
                .into_iter()
                .map(|(base, size)| BufferRegion { base, size })
                .collect(),
        }
    }

    /// Physical address of `offset` within object `obj`.
    ///
    /// Note: deliberately does *not* bounds-check. The address computation
    /// in a real accelerator is arbitrary arithmetic; it is the protection
    /// path's job to reject the result. A buggy or malicious kernel indexes
    /// past a buffer and the resulting address simply lands wherever it
    /// lands.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not a valid object number for this task.
    #[must_use]
    #[inline]
    pub fn address(&self, obj: usize, offset: u64) -> u64 {
        self.buffers[obj].base.wrapping_add(offset)
    }
}

/// The protection check a [`KernelEngine`] applies to every access.
pub trait AccessGuard {
    /// Vets `len` bytes at `addr`, the address the kernel computed for
    /// object `obj`, and returns the physical address to access.
    ///
    /// # Errors
    ///
    /// The [`Denial`] that refuses the access.
    fn vet(&mut self, obj: usize, addr: u64, len: u64, kind: AccessKind) -> Result<u64, Denial>;
}

/// No check: every address is reachable. The golden executor, and what a
/// CHERI-unaware system with no IOMMU does.
#[derive(Clone, Copy, Debug, Default)]
pub struct Unchecked;

impl AccessGuard for Unchecked {
    #[inline]
    fn vet(&mut self, _obj: usize, addr: u64, _len: u64, _kind: AccessKind) -> Result<u64, Denial> {
        Ok(addr)
    }
}

/// A CHERI CPU's check: the task's own capability for each object bounds
/// every access to it.
#[derive(Clone, Debug)]
pub struct CpuCapGuard {
    caps: Vec<Capability>,
    task: TaskId,
}

impl CpuCapGuard {
    /// Guards `task`'s accesses with one capability per object.
    #[must_use]
    pub fn new(caps: Vec<Capability>, task: TaskId) -> CpuCapGuard {
        CpuCapGuard { caps, task }
    }
}

impl AccessGuard for CpuCapGuard {
    #[inline]
    fn vet(&mut self, obj: usize, addr: u64, len: u64, kind: AccessKind) -> Result<u64, Denial> {
        let needed = match kind {
            AccessKind::Read => Perms::LOAD,
            AccessKind::Write => Perms::STORE,
        };
        match self.caps[obj].check_access(addr, len, needed) {
            Ok(()) => Ok(addr),
            Err(fault) => Err(Denial {
                access: Access {
                    master: MasterId(0),
                    task: self.task,
                    addr,
                    len,
                    kind,
                    object: Some(ObjectId(obj as u16)),
                },
                reason: DenyReason::Capability(fault),
            }),
        }
    }
}

/// The kernel engine: loads, stores, copies and computes against a task's
/// objects through an [`AccessGuard`], tracing every operation and
/// latching the first denial.
#[derive(Debug)]
pub struct KernelEngine<'m, G = Unchecked> {
    mem: &'m mut TaggedMemory,
    layout: TaskLayout,
    guard: G,
    trace: Trace,
    first_denial: Option<Denial>,
}

impl<'m> KernelEngine<'m> {
    /// An unchecked engine over `mem` with the given object binding.
    pub fn new(mem: &'m mut TaggedMemory, layout: TaskLayout) -> KernelEngine<'m> {
        KernelEngine::guarded(mem, layout, Unchecked)
    }
}

impl<'m, G: AccessGuard> KernelEngine<'m, G> {
    /// An engine over `mem` whose every access `guard` vets.
    pub fn guarded(mem: &'m mut TaggedMemory, layout: TaskLayout, guard: G) -> KernelEngine<'m, G> {
        KernelEngine {
            mem,
            layout,
            guard,
            trace: Trace::new(),
            first_denial: None,
        }
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the engine, returning the trace.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The first refused access, if any (the latched exception).
    #[must_use]
    pub fn first_denial(&self) -> Option<Denial> {
        self.first_denial
    }

    /// Runs `kernel` on this engine and returns its result, its first
    /// denial, and its trace.
    pub fn run<F>(mut self, kernel: F) -> (Result<(), ExecFault>, Option<Denial>, Trace)
    where
        F: FnOnce(&mut dyn Engine) -> Result<(), ExecFault>,
    {
        let result = kernel(&mut self);
        (result, self.first_denial, self.trace)
    }

    #[inline]
    fn vet(
        &mut self,
        obj: usize,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> Result<u64, ExecFault> {
        let addr = self.layout.address(obj, offset);
        self.guard.vet(obj, addr, len, kind).map_err(|denial| {
            self.first_denial.get_or_insert(denial);
            ExecFault::Denied(denial)
        })
    }
}

// Kernels drive the engine through `&mut dyn Engine`, so a *default*
// typed helper would be a vtable call whose body makes a second vtable
// call into `load`/`store`. Overridden here, `self.load(..)` resolves
// statically and the whole chain (address, guard, memory, trace push)
// inlines behind one indirect call per kernel operation. The bodies are
// the trait defaults verbatim.
impl<G: AccessGuard> Engine for KernelEngine<'_, G> {
    #[inline]
    fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault> {
        let addr = self.vet(obj, offset, u64::from(size), AccessKind::Read)?;
        let v = self.mem.read_uint(addr, size)?;
        self.trace.push(TraceOp::Mem {
            addr,
            bytes: u16::from(size),
            write: false,
            object: obj as u16,
        });
        Ok(v)
    }

    #[inline]
    fn store(&mut self, obj: usize, offset: u64, size: u8, value: u64) -> Result<(), ExecFault> {
        let addr = self.vet(obj, offset, u64::from(size), AccessKind::Write)?;
        // write_uint is tag-clearing: a granted DMA write can never leave
        // a valid capability behind.
        self.mem.write_uint(addr, size, value)?;
        self.trace.push(TraceOp::Mem {
            addr,
            bytes: u16::from(size),
            write: true,
            object: obj as u16,
        });
        Ok(())
    }

    #[inline]
    fn compute(&mut self, units: u64) {
        if units > 0 {
            self.trace.push(TraceOp::Compute(units));
        }
    }

    fn copy(
        &mut self,
        dst_obj: usize,
        dst_off: u64,
        src_obj: usize,
        src_off: u64,
        len: u64,
    ) -> Result<(), ExecFault> {
        let src = self.vet(src_obj, src_off, len, AccessKind::Read)?;
        let dst = self.vet(dst_obj, dst_off, len, AccessKind::Write)?;
        let mut buf = vec![0u8; len as usize];
        self.mem.read_bytes(src, &mut buf)?;
        self.mem.write_bytes(dst, &buf)?;
        self.trace.push(TraceOp::Copy {
            src,
            dst,
            bytes: len,
        });
        Ok(())
    }

    #[inline]
    fn load_u32(&mut self, obj: usize, index: u64) -> Result<u32, ExecFault> {
        Ok(self.load(obj, index * 4, 4)? as u32)
    }

    #[inline]
    fn store_u32(&mut self, obj: usize, index: u64, value: u32) -> Result<(), ExecFault> {
        self.store(obj, index * 4, 4, u64::from(value))
    }

    #[inline]
    fn load_i32(&mut self, obj: usize, index: u64) -> Result<i32, ExecFault> {
        Ok(self.load_u32(obj, index)? as i32)
    }

    #[inline]
    fn store_i32(&mut self, obj: usize, index: u64, value: i32) -> Result<(), ExecFault> {
        self.store_u32(obj, index, value as u32)
    }

    #[inline]
    fn load_f32(&mut self, obj: usize, index: u64) -> Result<f32, ExecFault> {
        Ok(f32::from_bits(self.load_u32(obj, index)?))
    }

    #[inline]
    fn store_f32(&mut self, obj: usize, index: u64, value: f32) -> Result<(), ExecFault> {
        self.store_u32(obj, index, value.to_bits())
    }

    #[inline]
    fn load_u64(&mut self, obj: usize, index: u64) -> Result<u64, ExecFault> {
        self.load(obj, index * 8, 8)
    }

    #[inline]
    fn store_u64(&mut self, obj: usize, index: u64, value: u64) -> Result<(), ExecFault> {
        self.store(obj, index * 8, 8, value)
    }

    #[inline]
    fn load_u8(&mut self, obj: usize, offset: u64) -> Result<u8, ExecFault> {
        Ok(self.load(obj, offset, 1)? as u8)
    }

    #[inline]
    fn store_u8(&mut self, obj: usize, offset: u64, value: u8) -> Result<(), ExecFault> {
        self.store(obj, offset, 1, u64::from(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unchecked_engine_reads_what_it_wrote() {
        let mut mem = TaggedMemory::new(4096);
        let layout = TaskLayout::new([(0x100, 64), (0x200, 64)]);
        let mut eng = KernelEngine::new(&mut mem, layout);
        eng.store_u32(0, 3, 0xabcd).unwrap();
        assert_eq!(eng.load_u32(0, 3).unwrap(), 0xabcd);
        eng.store_f32(1, 0, 1.5).unwrap();
        assert_eq!(eng.load_f32(1, 0).unwrap(), 1.5);
    }

    #[test]
    fn trace_records_everything() {
        let mut mem = TaggedMemory::new(4096);
        let mut eng = KernelEngine::new(&mut mem, TaskLayout::new([(0x100, 64)]));
        eng.compute(10);
        eng.store_u64(0, 0, 7).unwrap();
        eng.compute(5);
        eng.load_u64(0, 0).unwrap();
        let t = eng.into_trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t.compute_units(), 15);
        assert_eq!(t.mem_bytes(), 16);
    }

    #[test]
    fn copy_moves_data_and_traces_once() {
        let mut mem = TaggedMemory::new(4096);
        mem.write_bytes(0x100, &[9u8; 32]).unwrap();
        let mut eng = KernelEngine::new(&mut mem, TaskLayout::new([(0x100, 64), (0x300, 64)]));
        eng.copy(1, 0, 0, 0, 32).unwrap();
        assert_eq!(eng.trace().mem_ops(), 1);
        drop(eng);
        let mut buf = [0u8; 32];
        mem.read_bytes(0x300, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 32]);
    }

    #[test]
    fn unprotected_engine_reaches_anything() {
        // The "no method" column of Table 1: an out-of-object offset lands
        // in someone else's memory and succeeds.
        let mut mem = TaggedMemory::new(4096);
        mem.write_bytes(0x200, &[0x5a]).unwrap();
        let mut eng = KernelEngine::new(&mut mem, TaskLayout::new([(0x100, 64)]));
        let stolen = eng.load_u8(0, 0x100).unwrap(); // offset 0x100 past a 64-byte buffer
        assert_eq!(stolen, 0x5a);
    }

    #[test]
    fn faults_surface_mem_errors() {
        let mut mem = TaggedMemory::new(64);
        let mut eng = KernelEngine::new(&mut mem, TaskLayout::new([(0, 64)]));
        let err = eng.load(0, 1 << 20, 4).unwrap_err();
        assert!(matches!(err, ExecFault::Mem(MemError::OutOfRange { .. })));
    }

    fn rw_cap(base: u64, len: u64) -> Capability {
        Capability::root()
            .set_bounds(base, len)
            .unwrap()
            .and_perms(Perms::RW)
            .unwrap()
    }

    #[test]
    fn cpu_cap_guard_checks_only_what_the_capability_allows() {
        let mut mem = TaggedMemory::new(1 << 16);
        let layout = TaskLayout::new([(0x1000, 64)]);
        // Plain CPU: out-of-bounds "works" (and corrupts).
        let mut plain = KernelEngine::new(&mut mem, layout.clone());
        plain.store_u8(0, 999, 1).unwrap();
        drop(plain);
        // CHERI CPU: same access faults, and the engine latches it.
        let guard = CpuCapGuard::new(vec![rw_cap(0x1000, 64)], TaskId(1));
        let mut cheri = KernelEngine::guarded(&mut mem, layout, guard);
        assert!(matches!(
            cheri.store_u8(0, 999, 1),
            Err(ExecFault::Denied(_))
        ));
        cheri.store_u8(0, 63, 1).unwrap();
        assert!(cheri.load_u32(0, 200).is_err());
        // The first denial stays latched across later ones.
        let denial = cheri.first_denial().expect("latched");
        assert_eq!(denial.access.addr, 0x1000 + 999);
        assert_eq!(denial.access.task, TaskId(1));
    }

    #[test]
    fn cpu_cap_guard_checks_both_ends_of_a_copy() {
        let mut mem = TaggedMemory::new(1 << 16);
        let layout = TaskLayout::new([(0x1000, 64), (0x2000, 64)]);
        let caps = vec![rw_cap(0x1000, 64), rw_cap(0x2000, 64)];
        let mut eng = KernelEngine::guarded(&mut mem, layout, CpuCapGuard::new(caps, TaskId(1)));
        eng.copy(1, 0, 0, 0, 64).unwrap();
        // Source in bounds, destination 32 bytes past the end of object 1.
        let err = eng.copy(1, 32, 0, 0, 64).unwrap_err();
        assert!(matches!(err, ExecFault::Denied(d) if d.access.kind == AccessKind::Write));
        // Destination in bounds, source past the end of object 0.
        let err = eng.copy(1, 0, 0, 32, 64).unwrap_err();
        assert!(matches!(err, ExecFault::Denied(d) if d.access.kind == AccessKind::Read));
        assert_eq!(eng.trace().mem_ops(), 1, "refused copies are not traced");
    }

    #[test]
    fn traces_accumulate_across_ops() {
        let mut mem = TaggedMemory::new(1 << 16);
        let mut eng = KernelEngine::new(&mut mem, TaskLayout::new([(0x100, 256), (0x200, 256)]));
        eng.compute(4);
        eng.store_u64(0, 0, 1).unwrap();
        eng.copy(1, 0, 0, 0, 64).unwrap();
        let t = eng.into_trace();
        assert_eq!(t.compute_units(), 4);
        assert_eq!(t.mem_bytes(), 8 + 128);
    }
}
