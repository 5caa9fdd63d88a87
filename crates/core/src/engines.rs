//! Execution engines binding kernels to the protected memory paths.
//!
//! [`ProtectedEngine`] is the accelerator's view: every access crosses the
//! interconnect as an [`Access`] and is vetted by the system's protection
//! mechanism before touching memory (and writes clear capability tags —
//! DMA is capability-unaware by construction).
//!
//! [`CpuEngine`] is the CPU's view: on a CHERI CPU every access is checked
//! against the buffer's own capability in the register file; on a plain
//! CPU nothing is checked.

use cheri::{Capability, Perms};
use hetsim::{
    Access, AccessKind, Denial, DenyReason, Engine, ExecFault, MasterId, ObjectId, TaggedMemory,
    TaskId, TaskLayout, Trace, TraceOp,
};
use ioprotect::IoProtection;
use obs::{EventKind, SharedTracer, Tracer};
use std::fmt;

/// How the accelerator's memory interface exposes object identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Per-object ports (or a mux that preserves an object identifier):
    /// requests carry `ObjectId` metadata. Feeds the checker's Fine mode.
    PerObjectPorts,
    /// One opaque interface: requests carry no metadata. Any object
    /// identity must be smuggled in the address bits (Coarse mode).
    Opaque,
}

/// The accelerator-side engine: kernel accesses become bus requests that
/// the protection mechanism vets.
///
/// Generic over the protection type so a caller holding a concrete
/// checker can have the per-beat vet pipeline inlined; the driver runs it
/// over the `dyn IoProtection` default, one virtual `vet` call per beat.
pub struct ProtectedEngine<'a, P: IoProtection + ?Sized = dyn IoProtection> {
    mem: &'a mut TaggedMemory,
    protection: &'a mut P,
    layout: TaskLayout,
    master: MasterId,
    task: TaskId,
    provenance: Provenance,
    trace: Trace,
    first_denial: Option<Denial>,
    /// Optional event sink; check events are stamped with the request
    /// index (the functional path has no cycle clock of its own).
    tracer: Option<SharedTracer>,
    requests: u64,
}

impl<'a, P: IoProtection + ?Sized> ProtectedEngine<'a, P> {
    /// Binds a task's accelerator execution to the protected memory path.
    ///
    /// `layout` holds the *accelerator-visible* base addresses — physical
    /// for Fine-mode and baseline systems, object-tagged for Coarse.
    pub fn new(
        mem: &'a mut TaggedMemory,
        protection: &'a mut P,
        layout: TaskLayout,
        master: MasterId,
        task: TaskId,
        provenance: Provenance,
    ) -> ProtectedEngine<'a, P> {
        ProtectedEngine {
            mem,
            protection,
            layout,
            master,
            task,
            provenance,
            trace: Trace::new(),
            first_denial: None,
            tracer: None,
            requests: 0,
        }
    }

    /// Attaches an event sink; every vetted request is recorded as a
    /// checker-check event (plus an exception event when refused).
    #[must_use]
    pub fn with_tracer(mut self, tracer: SharedTracer) -> ProtectedEngine<'a, P> {
        self.tracer = Some(tracer);
        self
    }

    /// The recorded trace so far.
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

    #[inline]
    fn request(
        &mut self,
        obj: usize,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> Result<u64, ExecFault> {
        let addr = self.layout.address(obj, offset);
        let object = match self.provenance {
            Provenance::PerObjectPorts => Some(ObjectId(obj as u16)),
            Provenance::Opaque => None,
        };
        let access = Access {
            master: self.master,
            task: self.task,
            addr,
            len,
            kind,
            object,
        };
        // One fused check+translate call per beat (`vet`): the verdict,
        // counters, and exception latching are exactly those of
        // `check` followed by `translate`.
        let verdict = self.protection.vet(&access);
        if let Some(tracer) = self.tracer.as_mut() {
            let at = self.requests;
            tracer.record(
                at,
                EventKind::CheckerCheck {
                    task: self.task.0,
                    object: obj as u16,
                    granted: verdict.is_ok(),
                },
            );
            if verdict.is_err() {
                tracer.record(
                    at,
                    EventKind::CheckerException {
                        task: self.task.0,
                        object: obj as u16,
                    },
                );
            }
        }
        self.requests += 1;
        match verdict {
            Ok(phys) => Ok(phys),
            Err(denial) => {
                self.first_denial.get_or_insert(denial);
                Err(ExecFault::Denied(denial))
            }
        }
    }
}

impl<P: IoProtection + ?Sized> Engine for ProtectedEngine<'_, P> {
    hetsim::impl_typed_engine_helpers!();

    #[inline]
    fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault> {
        let phys = self.request(obj, offset, u64::from(size), AccessKind::Read)?;
        let v = self.mem.read_uint(phys, size)?;
        self.trace.push(TraceOp::Mem {
            addr: phys,
            bytes: u16::from(size),
            write: false,
            object: obj as u16,
        });
        Ok(v)
    }

    #[inline]
    fn store(&mut self, obj: usize, offset: u64, size: u8, value: u64) -> Result<(), ExecFault> {
        let phys = self.request(obj, offset, u64::from(size), AccessKind::Write)?;
        // write_uint is tag-clearing: granted DMA writes can never leave a
        // valid capability behind.
        self.mem.write_uint(phys, size, value)?;
        self.trace.push(TraceOp::Mem {
            addr: phys,
            bytes: u16::from(size),
            write: true,
            object: obj as u16,
        });
        Ok(())
    }

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
        let src = self.request(src_obj, src_off, len, AccessKind::Read)?;
        let dst = self.request(dst_obj, dst_off, len, AccessKind::Write)?;
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
}

impl<P: IoProtection + ?Sized> fmt::Debug for ProtectedEngine<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtectedEngine")
            .field("task", &self.task)
            .field("provenance", &self.provenance)
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

/// The CPU-side engine: the task's own capabilities check every access
/// when the core is CHERI-extended.
pub struct CpuEngine<'a> {
    mem: &'a mut TaggedMemory,
    layout: TaskLayout,
    /// Per-object capabilities; `None` models a CHERI-unaware CPU.
    caps: Option<Vec<Capability>>,
    task: TaskId,
    trace: Trace,
}

impl<'a> CpuEngine<'a> {
    /// Binds a CPU task; pass `caps` to model the CHERI CPU.
    pub fn new(
        mem: &'a mut TaggedMemory,
        layout: TaskLayout,
        caps: Option<Vec<Capability>>,
        task: TaskId,
    ) -> CpuEngine<'a> {
        CpuEngine {
            mem,
            layout,
            caps,
            task,
            trace: Trace::new(),
        }
    }

    /// Consumes the engine, returning the trace.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    #[inline]
    fn check(&self, obj: usize, addr: u64, len: u64, kind: AccessKind) -> Result<(), ExecFault> {
        let Some(caps) = &self.caps else {
            return Ok(());
        };
        let needed = match kind {
            AccessKind::Read => Perms::LOAD,
            AccessKind::Write => Perms::STORE,
        };
        caps[obj].check_access(addr, len, needed).map_err(|fault| {
            ExecFault::Denied(Denial {
                access: Access {
                    master: MasterId(0),
                    task: self.task,
                    addr,
                    len,
                    kind,
                    object: Some(ObjectId(obj as u16)),
                },
                reason: DenyReason::Capability(fault),
            })
        })
    }
}

impl Engine for CpuEngine<'_> {
    hetsim::impl_typed_engine_helpers!();

    #[inline]
    fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault> {
        let addr = self.layout.address(obj, offset);
        self.check(obj, addr, u64::from(size), AccessKind::Read)?;
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
        let addr = self.layout.address(obj, offset);
        self.check(obj, addr, u64::from(size), AccessKind::Write)?;
        self.mem.write_uint(addr, size, value)?;
        self.trace.push(TraceOp::Mem {
            addr,
            bytes: u16::from(size),
            write: true,
            object: obj as u16,
        });
        Ok(())
    }

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
        let src = self.layout.address(src_obj, src_off);
        let dst = self.layout.address(dst_obj, dst_off);
        self.check(src_obj, src, len, AccessKind::Read)?;
        self.check(dst_obj, dst, len, AccessKind::Write)?;
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
}

impl fmt::Debug for CpuEngine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuEngine")
            .field("task", &self.task)
            .field("cheri", &self.caps.is_some())
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CapChecker;
    use crate::config::CheckerConfig;
    use hetsim::Engine;

    fn rw_cap(base: u64, len: u64) -> Capability {
        Capability::root()
            .set_bounds(base, len)
            .unwrap()
            .and_perms(Perms::RW)
            .unwrap()
    }

    #[test]
    fn protected_engine_grants_in_bounds_and_blocks_overflow() {
        let mut mem = TaggedMemory::new(1 << 16);
        let mut checker = CapChecker::new(CheckerConfig::fine());
        checker
            .grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        let mut eng = ProtectedEngine::new(
            &mut mem,
            &mut checker,
            TaskLayout::new([(0x1000, 64)]),
            MasterId(1),
            TaskId(1),
            Provenance::PerObjectPorts,
        );
        eng.store_u32(0, 0, 0x55).unwrap();
        assert_eq!(eng.load_u32(0, 0).unwrap(), 0x55);
        let err = eng.load_u32(0, 16); // offset 64: one past the end
        assert!(matches!(err, Err(ExecFault::Denied(_))));
        assert!(eng.first_denial().is_some());
    }

    #[test]
    fn coarse_layout_reaches_memory_through_translation() {
        let cfg = CheckerConfig::coarse();
        let mut mem = TaggedMemory::new(1 << 16);
        let mut checker = CapChecker::new(cfg);
        checker
            .grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        // The driver loads object-tagged base pointers.
        let tagged_base = cfg.coarse_tag_address(0, 0x1000);
        let mut eng = ProtectedEngine::new(
            &mut mem,
            &mut checker,
            TaskLayout::new([(tagged_base, 64)]),
            MasterId(1),
            TaskId(1),
            Provenance::Opaque,
        );
        eng.store_u32(0, 3, 0xabcd).unwrap();
        assert_eq!(eng.load_u32(0, 3).unwrap(), 0xabcd);
        drop(eng);
        // The data really landed at the physical address.
        assert_eq!(mem.read_uint(0x1000 + 12, 4).unwrap(), 0xabcd);
    }

    #[test]
    fn granted_dma_write_still_clears_tags() {
        let mut mem = TaggedMemory::new(1 << 16);
        mem.write_capability(0x1000, Capability::root().compress(), true)
            .unwrap();
        let mut checker = CapChecker::new(CheckerConfig::fine());
        checker
            .grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        let mut eng = ProtectedEngine::new(
            &mut mem,
            &mut checker,
            TaskLayout::new([(0x1000, 64)]),
            MasterId(1),
            TaskId(1),
            Provenance::PerObjectPorts,
        );
        eng.store_u8(0, 0, 0xff).unwrap();
        drop(eng);
        assert!(
            !mem.tag(0x1000),
            "accelerator writes must strip capability tags"
        );
    }

    #[test]
    fn cpu_engine_checks_only_when_cheri() {
        let mut mem = TaggedMemory::new(1 << 16);
        let layout = TaskLayout::new([(0x1000, 64)]);
        // Plain CPU: out-of-bounds "works" (and corrupts).
        let mut plain = CpuEngine::new(&mut mem, layout.clone(), None, TaskId(1));
        plain.store_u8(0, 999, 1).unwrap();
        drop(plain);
        // CHERI CPU: same access faults.
        let caps = vec![rw_cap(0x1000, 64)];
        let mut cheri = CpuEngine::new(&mut mem, layout, Some(caps), TaskId(1));
        assert!(matches!(
            cheri.store_u8(0, 999, 1),
            Err(ExecFault::Denied(_))
        ));
        cheri.store_u8(0, 63, 1).unwrap();
    }

    #[test]
    fn traces_accumulate_across_ops() {
        let mut mem = TaggedMemory::new(1 << 16);
        let mut eng = CpuEngine::new(
            &mut mem,
            TaskLayout::new([(0x100, 256), (0x200, 256)]),
            None,
            TaskId(1),
        );
        eng.compute(4);
        eng.store_u64(0, 0, 1).unwrap();
        eng.copy(1, 0, 0, 0, 64).unwrap();
        let t = eng.into_trace();
        assert_eq!(t.compute_units(), 4);
        assert_eq!(t.mem_bytes(), 8 + 128);
    }
}
