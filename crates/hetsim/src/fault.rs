//! Deterministic fault injection for the simulated platform.
//!
//! The paper's protection claims are about *misbehaving* hardware, so the
//! simulator needs a way to misbehave on demand. This module provides the
//! platform half of the fault harness:
//!
//! * [`FaultSpec`] — a declarative, parseable description of which fault
//!   kinds are armed and at what per-task rate (`"rogue-dma:0.3,engine-hang:0.1"`,
//!   `"all:0.5"`, `"none"`).
//! * [`FaultPlan`] — a seeded sampler over a spec. Same seed ⇒ the same
//!   sequence of [`InjectedFault`] decisions, which is what makes whole
//!   fault campaigns byte-reproducible.
//! * [`FaultyEngine`] — an [`Engine`] wrapper that perturbs the kernel's
//!   own traffic: unsolicited rogue stores, garbled address lines, engine
//!   hangs and bus stalls (modelled as an unbounded compute spin a
//!   watchdog layered *below* this wrapper detects), and dropped beats
//!   (clean transient aborts).
//!
//! Tag flips ([`crate::memory::TaggedMemory::set_tag_raw`]) and checker-cache corruption
//! live outside the engine path and are injected directly by the recovery
//! campaign driver in `core`.

use crate::engine::{Engine, ExecFault};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::str::FromStr;

pub use obs::FaultKind;

/// Compute units a hang/stall spin burns — far beyond any sane watchdog
/// budget, so the layer below trips deterministically.
pub const HANG_SPIN_UNITS: u64 = 1 << 32;

/// Object-relative offset a rogue store targets: ~1 TiB past the buffer,
/// far outside any granted object and (in any realistic configuration)
/// outside physical memory too.
pub const ROGUE_OFFSET: u64 = 1 << 40;

/// Address-line garble: OR-ing this into an offset sends the engine's own
/// transfer well past its buffer bounds.
pub const GARBLE_BIT: u64 = 1 << 30;

/// Whether a fault kind models a *persistent* hardware defect: it re-fires
/// on every retry until the driver quarantines the engine (or, for garbled
/// address lines, exhausts its retry budget with a latched denial).
#[must_use]
pub fn persists_across_retries(kind: FaultKind) -> bool {
    matches!(kind, FaultKind::GarbledDma | FaultKind::EngineHang)
}

/// Whether a fault kind is injected through the engine's own data path
/// (via [`FaultyEngine`]) rather than directly into memory or the checker.
#[must_use]
pub fn is_engine_level(kind: FaultKind) -> bool {
    !matches!(kind, FaultKind::TagFlip | FaultKind::CacheCorrupt)
}

/// A declarative fault campaign spec: which kinds are armed, at what
/// per-task probability.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    rates: Vec<(FaultKind, f64)>,
}

impl FaultSpec {
    /// The empty spec: no faults armed.
    #[must_use]
    pub fn none() -> FaultSpec {
        FaultSpec { rates: Vec::new() }
    }

    /// Every kind armed at the same per-task rate (`rate` is split evenly,
    /// so `rate` is the total probability that *some* fault is injected).
    #[must_use]
    pub fn uniform(rate: f64) -> FaultSpec {
        let per = rate / FaultKind::ALL.len() as f64;
        FaultSpec {
            rates: FaultKind::ALL.iter().map(|&k| (k, per)).collect(),
        }
    }

    /// Arms `kind` at `rate`, replacing any previous rate for it.
    pub fn set(&mut self, kind: FaultKind, rate: f64) {
        self.rates.retain(|(k, _)| *k != kind);
        if rate > 0.0 {
            self.rates.push((kind, rate));
        }
        self.rates.sort_by_key(|(k, _)| *k);
    }

    /// The armed rate for `kind` (0 when unarmed).
    #[must_use]
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, r)| *r)
    }

    /// `true` when no fault kind is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// The armed `(kind, rate)` pairs in stable ([`FaultKind::ALL`]) order.
    #[must_use]
    pub fn rates(&self) -> &[(FaultKind, f64)] {
        &self.rates
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    /// Parses `"none"`, `"all:<rate>"`, or `"<kind>:<rate>[,<kind>:<rate>...]"`
    /// with kinds from [`FaultKind::label`].
    fn from_str(s: &str) -> Result<FaultSpec, String> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(FaultSpec::none());
        }
        let mut spec = FaultSpec::none();
        for part in s.split(',') {
            let (name, rate) = part
                .split_once(':')
                .ok_or_else(|| format!("fault spec entry {part:?} is not <kind>:<rate>"))?;
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|e| format!("fault rate in {part:?}: {e}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate in {part:?} must be within [0, 1]"));
            }
            let name = name.trim();
            if name == "all" {
                for (kind, per) in FaultSpec::uniform(rate).rates {
                    spec.set(kind, per);
                }
            } else {
                let kind = FaultKind::from_label(name).ok_or_else(|| {
                    let known: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
                    format!("unknown fault kind {name:?} (known: {})", known.join(", "))
                })?;
                spec.set(kind, rate);
            }
        }
        Ok(spec)
    }
}

impl fmt::Display for FaultSpec {
    /// The normalized spec string — parseable back via [`FromStr`] and
    /// stable for report embedding.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rates.is_empty() {
            return f.write_str("none");
        }
        for (i, (kind, rate)) in self.rates.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}:{}", kind.label(), rate)?;
        }
        Ok(())
    }
}

/// One decided injection: which fault, and at which memory operation of
/// the kernel it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// The fault to inject.
    pub kind: FaultKind,
    /// Zero-based memory-operation index at which it fires.
    pub at_op: u64,
}

/// A seeded sampler over a [`FaultSpec`]: decides, per task, whether and
/// what to inject. Consumes exactly two generator draws per decision so
/// the stream — and therefore the whole campaign — is reproducible.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: SmallRng,
    window: u64,
}

impl FaultPlan {
    /// Default window of memory-op indices an injection point is drawn from.
    pub const DEFAULT_WINDOW: u64 = 8;

    /// Builds a plan over `spec` seeded with `seed`.
    #[must_use]
    pub fn new(spec: FaultSpec, seed: u64) -> FaultPlan {
        FaultPlan {
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0x000F_A017_5EED),
            window: FaultPlan::DEFAULT_WINDOW,
        }
    }

    /// The spec this plan samples from.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Draws the injection decision for the next task.
    pub fn sample(&mut self) -> Option<InjectedFault> {
        // Exactly two draws regardless of outcome, to keep the stream
        // position independent of earlier decisions.
        let sel: f64 = self.rng.gen_range(0.0..1.0);
        let at_op = self.rng.gen_range(0..self.window);
        let mut acc = 0.0;
        for &(kind, rate) in self.spec.rates() {
            acc += rate;
            if sel < acc {
                return Some(InjectedFault { kind, at_op });
            }
        }
        None
    }
}

/// An [`Engine`] wrapper that injects engine-level faults into the
/// kernel's own traffic.
///
/// Layering matters: the injected traffic flows *down* through whatever
/// this wrapper wraps. Stack a watchdog below it and above the kernel
/// engine (`kernel → FaultyEngine → WatchdogEngine → KernelEngine`) so
/// hang/stall spins trip the watchdog and rogue stores hit the protection
/// path. Without a watchdog below, a hang spin records its compute burst
/// and execution simply continues — a hang in a system with no watchdog
/// is, after all, undetected.
pub struct FaultyEngine<'e> {
    inner: &'e mut dyn Engine,
    fault: Option<InjectedFault>,
    ops: u64,
    fired: Option<FaultKind>,
    garble_armed: bool,
}

impl fmt::Debug for FaultyEngine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyEngine")
            .field("fault", &self.fault)
            .field("ops", &self.ops)
            .field("fired", &self.fired)
            .finish_non_exhaustive()
    }
}

impl<'e> FaultyEngine<'e> {
    /// Wraps `inner`, arming at most one fault for this run.
    pub fn new(inner: &'e mut dyn Engine, fault: Option<InjectedFault>) -> FaultyEngine<'e> {
        FaultyEngine {
            inner,
            fault,
            ops: 0,
            fired: None,
            garble_armed: false,
        }
    }

    /// The fault that actually fired during this run, if any.
    #[must_use]
    pub fn fired(&self) -> Option<FaultKind> {
        self.fired
    }

    fn pre_op(&mut self) -> Result<(), ExecFault> {
        let Some(f) = self.fault else {
            return Ok(());
        };
        if self.fired.is_some() || self.ops < f.at_op {
            return Ok(());
        }
        self.fired = Some(f.kind);
        match f.kind {
            FaultKind::RogueDma => {
                // An unsolicited store far outside any granted buffer. On a
                // protected platform this comes back Denied; on an
                // unprotected one it lands wherever it lands.
                self.inner
                    .store(0, ROGUE_OFFSET + (self.ops << 4), 8, 0xDEAD_BEEF_0BAD_F00D)
            }
            FaultKind::GarbledDma => {
                // Corrupt the address lines of the kernel's own next op.
                self.garble_armed = true;
                Ok(())
            }
            FaultKind::EngineHang | FaultKind::BusStall => {
                // The transfer never completes: burn an unbounded spin,
                // then poke the data path so a watchdog below can abort.
                self.inner.compute(HANG_SPIN_UNITS);
                self.inner.load(0, 0, 1).map(|_| ())
            }
            FaultKind::DroppedBeat => Err(ExecFault::Transient { kind: f.kind }),
            // Injected outside the engine path (memory / checker cache).
            FaultKind::TagFlip | FaultKind::CacheCorrupt => Ok(()),
        }
    }

    fn garble(&mut self, offset: u64) -> u64 {
        if self.garble_armed {
            self.garble_armed = false;
            offset | GARBLE_BIT
        } else {
            offset
        }
    }
}

impl Engine for FaultyEngine<'_> {
    fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault> {
        self.pre_op()?;
        let offset = self.garble(offset);
        self.ops += 1;
        self.inner.load(obj, offset, size)
    }

    fn store(&mut self, obj: usize, offset: u64, size: u8, value: u64) -> Result<(), ExecFault> {
        self.pre_op()?;
        let offset = self.garble(offset);
        self.ops += 1;
        self.inner.store(obj, offset, size, value)
    }

    fn compute(&mut self, units: u64) {
        self.inner.compute(units);
    }

    fn copy(
        &mut self,
        dst_obj: usize,
        dst_off: u64,
        src_obj: usize,
        src_off: u64,
        len: u64,
    ) -> Result<(), ExecFault> {
        self.pre_op()?;
        let dst_off = self.garble(dst_off);
        self.ops += 1;
        self.inner.copy(dst_obj, dst_off, src_obj, src_off, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{KernelEngine, TaskLayout};
    use crate::memory::TaggedMemory;

    #[test]
    fn spec_parses_and_normalizes() {
        let spec: FaultSpec = "rogue-dma:0.25, engine-hang:0.5".parse().unwrap();
        assert_eq!(spec.rate(FaultKind::RogueDma), 0.25);
        assert_eq!(spec.rate(FaultKind::EngineHang), 0.5);
        assert_eq!(spec.rate(FaultKind::TagFlip), 0.0);
        assert_eq!(spec.to_string(), "rogue-dma:0.25,engine-hang:0.5");
        assert_eq!(spec.to_string().parse::<FaultSpec>().unwrap(), spec);
        assert_eq!("none".parse::<FaultSpec>().unwrap(), FaultSpec::none());
        assert!("bogus:0.5".parse::<FaultSpec>().is_err());
        assert!("rogue-dma:1.5".parse::<FaultSpec>().is_err());
        assert!("rogue-dma".parse::<FaultSpec>().is_err());
    }

    #[test]
    fn all_spec_arms_every_kind() {
        let spec: FaultSpec = "all:0.7".parse().unwrap();
        for kind in FaultKind::ALL {
            assert!(spec.rate(kind) > 0.0, "{kind} unarmed");
        }
        let total: f64 = spec.rates().iter().map(|(_, r)| r).sum();
        assert!((total - 0.7).abs() < 1e-9);
    }

    #[test]
    fn plan_is_seed_deterministic() {
        let spec: FaultSpec = "all:0.8".parse().unwrap();
        let mut a = FaultPlan::new(spec.clone(), 42);
        let mut b = FaultPlan::new(spec.clone(), 42);
        let da: Vec<_> = (0..32).map(|_| a.sample()).collect();
        let db: Vec<_> = (0..32).map(|_| b.sample()).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(Option::is_some), "0.8 rate never fired");

        let mut c = FaultPlan::new(spec, 43);
        let dc: Vec<_> = (0..32).map(|_| c.sample()).collect();
        assert_ne!(da, dc, "different seeds should diverge");
    }

    #[test]
    fn empty_plan_never_fires() {
        let mut plan = FaultPlan::new(FaultSpec::none(), 1);
        assert!((0..64).all(|_| plan.sample().is_none()));
    }

    #[test]
    fn rogue_dma_fires_an_out_of_bounds_store() {
        let mut mem = TaggedMemory::new(4096);
        let mut inner = KernelEngine::new(&mut mem, TaskLayout::new([(0x100, 64)]));
        let fault = InjectedFault {
            kind: FaultKind::RogueDma,
            at_op: 2,
        };
        let mut eng = FaultyEngine::new(&mut inner, Some(fault));
        assert!(eng.load_u32(0, 0).is_ok());
        assert!(eng.load_u32(0, 1).is_ok());
        // Third op: the rogue store goes ~1 TiB out and leaves a 4 KiB
        // memory, so even unprotected it faults.
        let err = eng.load_u32(0, 2).unwrap_err();
        assert!(matches!(err, ExecFault::Mem(_)), "got {err:?}");
        assert_eq!(eng.fired(), Some(FaultKind::RogueDma));
    }

    #[test]
    fn garbled_dma_corrupts_exactly_one_op() {
        let mut mem = TaggedMemory::new(4096);
        mem.write_bytes(0x100, &[7; 64]).unwrap();
        let mut inner = KernelEngine::new(&mut mem, TaskLayout::new([(0x100, 64)]));
        let fault = InjectedFault {
            kind: FaultKind::GarbledDma,
            at_op: 0,
        };
        let mut eng = FaultyEngine::new(&mut inner, Some(fault));
        // First op has its offset OR-ed with GARBLE_BIT → out of memory.
        assert!(matches!(eng.load_u32(0, 0), Err(ExecFault::Mem(_))));
        // Later ops are clean again.
        assert!(eng.load_u32(0, 1).is_ok());
        assert_eq!(eng.fired(), Some(FaultKind::GarbledDma));
    }

    #[test]
    fn dropped_beat_is_a_transient_abort() {
        let mut mem = TaggedMemory::new(4096);
        let mut inner = KernelEngine::new(&mut mem, TaskLayout::new([(0x100, 64)]));
        let fault = InjectedFault {
            kind: FaultKind::DroppedBeat,
            at_op: 0,
        };
        let mut eng = FaultyEngine::new(&mut inner, Some(fault));
        assert_eq!(
            eng.store_u32(0, 0, 1),
            Err(ExecFault::Transient {
                kind: FaultKind::DroppedBeat
            })
        );
    }

    #[test]
    fn hang_without_watchdog_spins_then_continues() {
        let mut mem = TaggedMemory::new(4096);
        let mut inner = KernelEngine::new(&mut mem, TaskLayout::new([(0x100, 64)]));
        let fault = InjectedFault {
            kind: FaultKind::EngineHang,
            at_op: 0,
        };
        let mut eng = FaultyEngine::new(&mut inner, Some(fault));
        assert!(eng.load_u32(0, 0).is_ok(), "no watchdog → hang undetected");
        assert_eq!(eng.fired(), Some(FaultKind::EngineHang));
        assert!(inner.trace().compute_units() >= HANG_SPIN_UNITS);
    }
}
