//! The CapChecker itself — Figure 5's hardware block.
//!
//! The checker sits between the accelerator functional units and the
//! memory controller. It holds imported capabilities in a capability
//! store, decodes them, and vets every DMA request:
//!
//! 1. recover the object identity (port metadata in *Fine* mode, top
//!    address bits in *Coarse* mode);
//! 2. fetch and decode the `(task, object)` capability;
//! 3. check tag, permissions, and bounds;
//! 4. grant — or raise an exception: set the global flag, record the
//!    offending pair, and refuse the request.
//!
//! The store is either the paper's fixed [`CapabilityTable`]
//! ([`CapChecker::new`]) or §5.2.3's cache over a memory-resident table
//! ([`CapChecker::cached`]); everything else — provenance, elision, attribution, the exception latch — is one
//! pipeline shared by both.
//!
//! Writes that *are* granted still clear memory tags downstream (the
//! system's write path is capability-unaware), which is what makes
//! capability forging by DMA impossible.
//!
//! Capabilities arrive from the CHERI CPU over a dedicated capability
//! interconnect, exposed here as an MMIO register map ([`regs`]).

use crate::attrib::CheckAttribution;
use crate::config::{CachedCheckerConfig, CheckerConfig, CheckerMode};
use crate::elide::{StaticVerdictMap, VerdictBitmap};
use crate::store::{CacheStats, CapCache, Store};
use crate::table::CapabilityTable;
use cheri::{Capability, CompressedCapability, Perms};
use hetsim::mmio::MmioDevice;
use hetsim::{Access, AccessKind, Cycles, Denial, DenyReason, ObjectId, TaskId};
use ioprotect::{GrantError, Granularity, IoProtection, MechanismProperties};
use obs::Registry;
use std::fmt;

/// MMIO register offsets of the capability-import interface.
pub mod regs {
    /// Write: low 64 bits of the staged compressed capability.
    pub const CAP_LO: u64 = 0x00;
    /// Write: high 64 bits (the address field).
    pub const CAP_HI: u64 = 0x08;
    /// Write: staged tag (bit 0).
    pub const TAG: u64 = 0x10;
    /// Write: staged task ID.
    pub const TASK: u64 = 0x18;
    /// Write: staged object ID.
    pub const OBJECT: u64 = 0x20;
    /// Write: commit the staged capability; read: last commit status.
    pub const COMMIT: u64 = 0x28;
    /// Read: global exception flag; write: clear it.
    pub const EXCEPTION: u64 = 0x30;
    /// Write: evict every entry of the given task ID.
    pub const EVICT_TASK: u64 = 0x38;
    /// Read: occupied entry count.
    pub const OCCUPANCY: u64 = 0x40;
    /// Read: requests granted since reset (hardware performance counter).
    pub const GRANTED: u64 = 0x48;
    /// Read: requests denied since reset.
    pub const DENIED: u64 = 0x50;
    /// Read: capability installs since reset.
    pub const INSTALLS: u64 = 0x58;

    /// COMMIT status: installed.
    pub const STATUS_OK: u64 = 0;
    /// COMMIT status: table full (allocation must stall or evict).
    pub const STATUS_FULL: u64 = 1;
    /// COMMIT status: staged capability was invalid (tag clear or sealed).
    pub const STATUS_INVALID: u64 = 2;
}

pub use obs::stats::CheckerStats;

#[derive(Clone, Copy, Debug, Default)]
struct Staging {
    lo: u64,
    hi: u64,
    tag: bool,
    task: u32,
    object: u16,
    status: u64,
}

/// The CAPability Checker, over either capability store.
///
/// # Examples
///
/// ```
/// use capchecker::{CachedCheckerConfig, CapChecker, CheckerConfig};
/// use cheri::{Capability, Perms};
/// use hetsim::{Access, MasterId, ObjectId, TaskId};
/// use ioprotect::IoProtection;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut checker = CapChecker::new(CheckerConfig::fine());
/// let cap = Capability::root().set_bounds(0x1000, 256)?.and_perms(Perms::RW)?;
/// checker.grant(TaskId(1), ObjectId(0), &cap)?;
///
/// let ok = Access::read(MasterId(1), TaskId(1), 0x1000, 16).with_object(ObjectId(0));
/// assert!(checker.check(&ok).is_ok());
///
/// let oob = Access::read(MasterId(1), TaskId(1), 0x1100, 16).with_object(ObjectId(0));
/// assert!(checker.check(&oob).is_err());
/// assert!(checker.exception_flag());
///
/// // The cache-backed store: same verdicts, plus hit/miss accounting.
/// let mut cached = CapChecker::cached(CachedCheckerConfig::default());
/// cached.grant(TaskId(1), ObjectId(0), &cap)?;
/// cached.check(&ok)?; // cold: table walk
/// cached.check(&ok)?; // warm: cache hit
/// assert_eq!((cached.cache_stats().misses, cached.cache_stats().hits), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CapChecker {
    config: CheckerConfig,
    store: Store,
    staging: Staging,
    exception_flag: bool,
    stats: CheckerStats,
    static_verdicts: Option<StaticVerdictMap>,
    /// `static_verdicts` compiled to per-task bit words — the branch-free
    /// elision test on the beat path. Invariant: always equal to
    /// `VerdictBitmap::build` of the installed map (empty when none), so
    /// elision decisions and counters match the map-walk semantics
    /// byte-for-byte.
    verdict_bits: VerdictBitmap,
    /// Boxed: attribution is opt-in, and the model checker clones
    /// checkers once per explored op.
    attrib: Option<Box<CheckAttribution>>,
}

impl CapChecker {
    /// Builds a checker over the fixed capability table.
    #[must_use]
    pub fn new(config: CheckerConfig) -> CapChecker {
        CapChecker::with_store(config, Store::Table(CapabilityTable::new(config.entries)))
    }

    /// Builds a checker over the cache-backed store.
    #[must_use]
    pub fn cached(config: CachedCheckerConfig) -> CapChecker {
        CapChecker::with_store(
            config.base,
            Store::Cache(CapCache::new(config.cache_entries, config.miss_penalty)),
        )
    }

    fn with_store(config: CheckerConfig, store: Store) -> CapChecker {
        CapChecker {
            config,
            store,
            staging: Staging::default(),
            exception_flag: false,
            stats: CheckerStats::default(),
            static_verdicts: None,
            verdict_bits: VerdictBitmap::new(),
            attrib: None,
        }
    }

    /// A new, empty checker with this one's store kind and geometry, in
    /// provenance mode `mode` — the target of every rebuild (mode switch,
    /// or a same-mode rebuild that drops statistics and verdict maps).
    #[must_use]
    pub fn fresh(&self, mode: CheckerMode) -> CapChecker {
        let config = CheckerConfig {
            mode,
            ..self.config
        };
        match &self.store {
            Store::Table(_) => CapChecker::new(config),
            Store::Cache(cache) => CapChecker::cached(CachedCheckerConfig {
                cache_entries: cache.capacity,
                miss_penalty: cache.miss_penalty,
                base: config,
            }),
        }
    }

    /// `true` when capabilities live in the cache-backed store.
    #[must_use]
    pub fn is_cached(&self) -> bool {
        matches!(self.store, Store::Cache(_))
    }

    /// Starts per-master / per-`(task, object)` check attribution,
    /// including hit/miss/stall accounting per pair on the cached store.
    /// Off by default: the data path then pays one `None` test per check.
    pub fn enable_attribution(&mut self) {
        self.attrib = Some(Box::default());
    }

    /// The attribution collected so far, if enabled.
    #[must_use]
    pub fn attribution(&self) -> Option<&CheckAttribution> {
        self.attrib.as_deref()
    }

    /// Installs a static verdict map: per-beat checks are skipped for
    /// `(task, object)` pairs the analyzer proved safe, each skip
    /// counted in [`CheckerStats::elided`]. Unsafe and dynamic pairs
    /// are judged exactly as before. Elided accesses never touch the
    /// store, so a cache's LRU state is reserved for the traffic that
    /// still needs judging.
    ///
    /// The map is compiled to a [`VerdictBitmap`] here, once, so the
    /// beat path tests a bit word instead of walking the map.
    pub fn set_static_verdicts(&mut self, map: StaticVerdictMap) {
        self.verdict_bits = VerdictBitmap::build(&map);
        self.static_verdicts = Some(map);
    }

    /// Removes the verdict map (and its compiled bitmap); every beat is
    /// checked again — the in-place equivalent of the rebuild that mode
    /// switches and degradation perform. Dropping the map without
    /// dropping the bitmap would keep eliding from a stale proof.
    pub fn clear_static_verdicts(&mut self) {
        self.static_verdicts = None;
        self.verdict_bits = VerdictBitmap::new();
    }

    /// The installed verdict map, if any.
    #[must_use]
    pub fn static_verdicts(&self) -> Option<&StaticVerdictMap> {
        self.static_verdicts.as_ref()
    }

    /// `true` when the compiled [`VerdictBitmap`] equals
    /// `VerdictBitmap::build` of the installed map (or is empty when no
    /// map is installed) — the coherence invariant the model checker
    /// asserts at every explored state.
    #[must_use]
    pub fn verdicts_coherent(&self) -> bool {
        match &self.static_verdicts {
            Some(map) => self.verdict_bits == VerdictBitmap::build(map),
            None => self.verdict_bits.is_empty(),
        }
    }

    /// The provenance and addressing configuration.
    #[must_use]
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// The provenance mode.
    #[must_use]
    pub fn mode(&self) -> CheckerMode {
        self.config.mode
    }

    /// The global exception flag (the CPU polls this).
    #[must_use]
    pub fn exception_flag(&self) -> bool {
        self.exception_flag
    }

    /// Clears the global exception flag.
    pub fn clear_exception_flag(&mut self) {
        self.exception_flag = false;
    }

    /// Data-path counters, shared by both stores.
    #[must_use]
    pub fn stats(&self) -> CheckerStats {
        self.stats
    }

    /// Cache counters (all zero hits and misses on the table store).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let cache = match &self.store {
            Store::Cache(cache) => cache.stats,
            Store::Table(_) => CacheStats::default(),
        };
        CacheStats {
            denied: self.stats.denied,
            elided: self.stats.elided,
            ..cache
        }
    }

    /// Exports the store's counters: [`CheckerStats`] under `checker.`
    /// for the table, [`CacheStats`] under `cache.` for the cache.
    pub fn export_metrics(&self, registry: &mut Registry) {
        match &self.store {
            Store::Table(_) => registry.absorb(&self.stats, "checker."),
            Store::Cache(_) => registry.absorb(&self.cache_stats(), "cache."),
        }
    }

    /// Cache lines whose checksum failed on a hit (0 on the table).
    #[must_use]
    pub fn corruption_detected(&self) -> u64 {
        match &self.store {
            Store::Cache(cache) => cache.stats.corruption_detected,
            Store::Table(_) => 0,
        }
    }

    /// Average added check latency given the observed miss ratio — what
    /// the ablation trades against the fixed table's area.
    #[must_use]
    pub fn effective_latency(&self) -> f64 {
        let penalty = match &self.store {
            Store::Cache(cache) => cache.miss_penalty,
            Store::Table(_) => 0,
        };
        self.config.pipeline_latency as f64 + self.cache_stats().miss_ratio() * penalty as f64
    }

    /// Read access to the fixed capability table (audits, Figure 12
    /// counting); `None` on the cached store.
    #[must_use]
    pub fn table(&self) -> Option<&CapabilityTable> {
        match &self.store {
            Store::Table(table) => Some(table),
            Store::Cache(_) => None,
        }
    }

    /// Every stored capability as `(task, object, capability)`, sorted by
    /// `(task, object)` — the order a rebuild re-grants them in.
    #[must_use]
    pub fn entries(&self) -> Vec<(TaskId, ObjectId, Capability)> {
        self.store.entries()
    }

    /// Objects of `task` whose accesses were denied — the software trace
    /// of which pointer misbehaved. The table reports the entries whose
    /// exception bit is set (slot order; a denial with no entry leaves
    /// no trace); the cache reports every pair a denial resolved, sorted
    /// and deduplicated.
    #[must_use]
    pub fn offending_objects(&self, task: TaskId) -> Vec<ObjectId> {
        self.store.offending_objects(task)
    }

    /// Fault-injection hook (cached store): flips `flip` bits in the
    /// image of the cache line at `slot` (LRU order, 0 = coldest) without
    /// updating its checksum. Returns `false` when no such line exists.
    pub fn corrupt_cache_slot(&mut self, slot: usize, flip: u128) -> bool {
        match &mut self.store {
            Store::Cache(cache) => cache.corrupt_slot(slot, flip),
            Store::Table(_) => false,
        }
    }

    /// Fault-injection hook (cached store): arms a bit flip that lands on
    /// the next line inserted into the cache.
    pub fn corrupt_next_insert(&mut self, flip: u128) {
        if let Store::Cache(cache) = &mut self.store {
            cache.corrupt_next_insert(flip);
        }
    }

    /// The physical address a granted request should use (strips the
    /// Coarse object bits; identity in Fine mode).
    #[must_use]
    pub fn physical_address(&self, addr: u64) -> u64 {
        match self.config.mode {
            CheckerMode::Fine => addr,
            CheckerMode::Coarse => self.config.coarse_split_address(addr).1,
        }
    }

    /// Driver cycles one capability import costs on top of its MMIO
    /// commit write: the register-map staging sequence on the table, and
    /// nothing on the cache, whose grants go straight to the backing
    /// table.
    pub(crate) fn install_cycles(&self) -> Cycles {
        match self.store {
            Store::Table(_) => self.config.install_cycles(),
            Store::Cache(_) => 0,
        }
    }

    /// The driver's import path: the table stages the capability through
    /// the MMIO register map (Figure 6 ③); the cache grants directly.
    pub(crate) fn install(
        &mut self,
        task: TaskId,
        object: ObjectId,
        cap: &Capability,
    ) -> Result<(), GrantError> {
        if self.is_cached() {
            return self.grant(task, object, cap);
        }
        let bits = cap.compress().bits();
        self.mmio_write(regs::CAP_LO, bits as u64);
        self.mmio_write(regs::CAP_HI, (bits >> 64) as u64);
        self.mmio_write(regs::TAG, u64::from(cap.is_valid()));
        self.mmio_write(regs::TASK, u64::from(task.0));
        self.mmio_write(regs::OBJECT, u64::from(object.0));
        self.mmio_write(regs::COMMIT, 1);
        match self.mmio_read(regs::COMMIT) {
            regs::STATUS_OK => Ok(()),
            regs::STATUS_FULL => Err(GrantError::TableFull),
            _ => Err(GrantError::InvalidCapability),
        }
    }

    fn required_perms(kind: AccessKind) -> Perms {
        match kind {
            AccessKind::Read => Perms::LOAD,
            AccessKind::Write => Perms::STORE,
        }
    }

    /// Latches a denial: the store records the offending pair, the
    /// global flag is set, and the `denied` counter moves.
    fn deny(&mut self, access: &Access, object: Option<ObjectId>, reason: DenyReason) -> Denial {
        if let Some(obj) = object {
            self.store.note_exception(access.task, obj);
        }
        self.exception_flag = true;
        self.stats.denied += 1;
        Denial {
            access: *access,
            reason,
        }
    }

    fn resolve_object(&self, access: &Access) -> Result<(ObjectId, u64), DenyReason> {
        match self.config.mode {
            CheckerMode::Fine => match access.object {
                Some(obj) => Ok((obj, access.addr)),
                // Fine hardware cannot check a request with no provenance.
                None => Err(DenyReason::BadProvenance),
            },
            CheckerMode::Coarse => {
                let (obj, phys) = self.config.coarse_split_address(access.addr);
                Ok((ObjectId(obj), phys))
            }
        }
    }

    /// The check pipeline — the one implementation of the check order,
    /// for both stores — returning the granted request's physical
    /// address. Both [`IoProtection::check`] and [`IoProtection::vet`]
    /// are thin wrappers over this, so the one-call and two-call paths
    /// cannot diverge in verdicts, counters, or exception latching.
    ///
    /// The returned address equals `translate(access.addr)`: in Fine mode
    /// both are the identity, and in Coarse mode `resolve_object` and
    /// `translate` strip the same object bits.
    #[inline]
    fn vet_inner(&mut self, access: &Access) -> Result<u64, Denial> {
        let (object, phys) = match self.resolve_object(access) {
            Ok(pair) => pair,
            Err(reason) => {
                if let Some(a) = &mut self.attrib {
                    a.denied(access.master, None);
                }
                return Err(self.deny(access, None, reason));
            }
        };
        // Elision gate: provenance is already resolved, so a safe verdict
        // covers exactly the stream the analyzer classified. Unresolved
        // (no-provenance) requests never reach this point and are denied
        // above regardless of any verdict. The verdict itself is a
        // branch-free bitmap test — the bitmap is kept equal to the
        // installed map, and an empty bitmap (no map) marks nothing safe.
        if self.verdict_bits.is_safe(access.task, object) {
            self.stats.elided += 1;
            if let Some(a) = &mut self.attrib {
                a.elided(access.master, access.task, object);
            }
            return Ok(phys);
        }
        let cap = match self.store.fetch((access.task, object)) {
            Ok((cap, lookup)) => {
                if let (Some(a), Some((hit, stall))) = (&mut self.attrib, lookup) {
                    a.lookup(access.master, access.task, object, hit, stall);
                }
                cap
            }
            Err(reason) => {
                if let Some(a) = &mut self.attrib {
                    a.denied(access.master, Some((access.task, object)));
                }
                return Err(self.deny(access, Some(object), reason));
            }
        };
        let needed = CapChecker::required_perms(access.kind);
        match cap.check_access(phys, access.len, needed) {
            Ok(()) => {
                self.stats.granted += 1;
                if let Some(a) = &mut self.attrib {
                    a.granted(access.master, access.task, object);
                }
                Ok(phys)
            }
            Err(fault) => {
                if let Some(a) = &mut self.attrib {
                    a.denied(access.master, Some((access.task, object)));
                }
                Err(self.deny(access, Some(object), DenyReason::Capability(fault)))
            }
        }
    }
}

impl IoProtection for CapChecker {
    fn name(&self) -> &'static str {
        match (&self.store, self.config.mode) {
            (Store::Cache(_), _) => "CapChecker-Cached",
            (Store::Table(_), CheckerMode::Fine) => "CapChecker-Fine",
            (Store::Table(_), CheckerMode::Coarse) => "CapChecker-Coarse",
        }
    }

    fn properties(&self) -> MechanismProperties {
        MechanismProperties::cheri()
    }

    fn granularity(&self) -> Granularity {
        match self.config.mode {
            CheckerMode::Fine => Granularity::Object,
            // Object bits in addresses are attacker-influencable, so the
            // guaranteed separation is per task (Table 3, §5.2.3).
            CheckerMode::Coarse => Granularity::Task,
        }
    }

    fn grant(
        &mut self,
        task: TaskId,
        object: ObjectId,
        cap: &Capability,
    ) -> Result<(), GrantError> {
        if !cap.is_valid() || cap.is_sealed() {
            return Err(GrantError::InvalidCapability);
        }
        self.stats.installs += 1;
        if self.store.install(task, object, *cap) {
            Ok(())
        } else {
            self.stats.install_stalls += 1;
            Err(GrantError::TableFull)
        }
    }

    fn revoke_task(&mut self, task: TaskId) {
        self.stats.evictions += self.store.evict_task(task) as u64;
    }

    fn check(&mut self, access: &Access) -> Result<(), Denial> {
        self.vet_inner(access).map(|_| ())
    }

    fn entries_in_use(&self) -> usize {
        self.store.entries_in_use()
    }

    fn translate(&self, addr: u64) -> u64 {
        self.physical_address(addr)
    }

    #[inline]
    fn vet(&mut self, access: &Access) -> Result<u64, Denial> {
        self.vet_inner(access)
    }
}

impl MmioDevice for CapChecker {
    fn mmio_read(&mut self, offset: u64) -> u64 {
        match offset {
            regs::COMMIT => self.staging.status,
            regs::EXCEPTION => u64::from(self.exception_flag),
            regs::OCCUPANCY => self.store.entries_in_use() as u64,
            regs::GRANTED => self.stats.granted,
            regs::DENIED => self.stats.denied,
            regs::INSTALLS => self.stats.installs,
            _ => 0,
        }
    }

    fn mmio_write(&mut self, offset: u64, value: u64) {
        match offset {
            regs::CAP_LO => self.staging.lo = value,
            regs::CAP_HI => self.staging.hi = value,
            regs::TAG => self.staging.tag = value & 1 == 1,
            regs::TASK => self.staging.task = value as u32,
            regs::OBJECT => self.staging.object = value as u16,
            regs::COMMIT => {
                let bits = (u128::from(self.staging.hi) << 64) | u128::from(self.staging.lo);
                let cap = CompressedCapability::from_bits(bits).decode(self.staging.tag);
                let task = TaskId(self.staging.task);
                let object = ObjectId(self.staging.object);
                self.staging.status = match self.grant(task, object, &cap) {
                    Ok(()) => regs::STATUS_OK,
                    Err(GrantError::TableFull) => regs::STATUS_FULL,
                    Err(_) => regs::STATUS_INVALID,
                };
            }
            regs::EXCEPTION => self.exception_flag = false,
            regs::EVICT_TASK => self.revoke_task(TaskId(value as u32)),
            _ => {}
        }
    }
}

impl fmt::Display for CapChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} entries in use, exc={}",
            self.name(),
            self.config.mode.label(),
            self.store.entries_in_use(),
            self.exception_flag
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elide::StaticVerdict;
    use cheri::CapFault;
    use hetsim::MasterId;

    fn rw_cap(base: u64, len: u64) -> Capability {
        Capability::root()
            .set_bounds(base, len)
            .unwrap()
            .and_perms(Perms::RW)
            .unwrap()
    }

    fn read(task: u32, addr: u64, obj: u16) -> Access {
        Access::read(MasterId(1), TaskId(task), addr, 4).with_object(ObjectId(obj))
    }

    fn cached() -> CapChecker {
        CapChecker::cached(CachedCheckerConfig::default())
    }

    fn fine_checker_with_two_buffers() -> CapChecker {
        let mut c = CapChecker::new(CheckerConfig::fine());
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 0x100))
            .unwrap();
        c.grant(TaskId(1), ObjectId(1), &rw_cap(0x3000, 0x100))
            .unwrap();
        c
    }

    #[test]
    fn fine_mode_blocks_cross_object_access() {
        let mut c = fine_checker_with_two_buffers();
        // Reading buffer 1's memory with buffer 0's pointer: the
        // principle of intentional use.
        let cross = Access::read(MasterId(1), TaskId(1), 0x3000, 4).with_object(ObjectId(0));
        let denial = c.check(&cross).unwrap_err();
        assert!(matches!(
            denial.reason,
            DenyReason::Capability(CapFault::BoundsViolation { .. })
        ));
        assert!(c.exception_flag());
        // And the offending pointer is traceable.
        assert_eq!(c.offending_objects(TaskId(1)), [ObjectId(0)]);
    }

    #[test]
    fn fine_mode_requires_provenance() {
        let mut c = fine_checker_with_two_buffers();
        let anon = Access::read(MasterId(1), TaskId(1), 0x1000, 4);
        assert_eq!(
            c.check(&anon).unwrap_err().reason,
            DenyReason::BadProvenance
        );
    }

    #[test]
    fn coarse_mode_recovers_object_from_address() {
        let cfg = CheckerConfig::coarse();
        for mut c in [
            CapChecker::new(cfg),
            CapChecker::cached(CachedCheckerConfig {
                base: cfg,
                ..CachedCheckerConfig::default()
            }),
        ] {
            c.grant(TaskId(1), ObjectId(2), &rw_cap(0x1000, 0x100))
                .unwrap();
            let tagged = cfg.coarse_tag_address(2, 0x1040);
            let a = Access::read(MasterId(1), TaskId(1), tagged, 4);
            assert!(c.check(&a).is_ok());
            assert_eq!(c.translate(tagged), 0x1040);
            // Out of bounds within the right object still faults.
            let oob = Access::read(MasterId(1), TaskId(1), cfg.coarse_tag_address(2, 0x1100), 4);
            assert!(c.check(&oob).is_err());
        }
    }

    #[test]
    fn coarse_mode_still_separates_tasks() {
        let cfg = CheckerConfig::coarse();
        let mut c = CapChecker::new(cfg);
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 0x100))
            .unwrap();
        // Task 2 forging task 1's object bits gets nothing: the task ID
        // comes from the interconnect source, not the address.
        let forged = Access::read(MasterId(2), TaskId(2), cfg.coarse_tag_address(0, 0x1000), 4);
        assert_eq!(c.check(&forged).unwrap_err().reason, DenyReason::NoEntry);
    }

    #[test]
    fn write_needs_store_permission() {
        let mut c = CapChecker::new(CheckerConfig::fine());
        let ro = Capability::root()
            .set_bounds(0x1000, 64)
            .unwrap()
            .and_perms(Perms::LOAD)
            .unwrap();
        c.grant(TaskId(1), ObjectId(0), &ro).unwrap();
        let w = Access::write(MasterId(1), TaskId(1), 0x1000, 4).with_object(ObjectId(0));
        let denial = c.check(&w).unwrap_err();
        assert!(matches!(
            denial.reason,
            DenyReason::Capability(CapFault::PermissionViolation { .. })
        ));
    }

    #[test]
    fn mmio_install_path_works_end_to_end() {
        let mut c = CapChecker::new(CheckerConfig::fine());
        let cap = rw_cap(0x2000, 128);
        let bits = cap.compress().bits();
        c.mmio_write(regs::CAP_LO, bits as u64);
        c.mmio_write(regs::CAP_HI, (bits >> 64) as u64);
        c.mmio_write(regs::TAG, 1);
        c.mmio_write(regs::TASK, 7);
        c.mmio_write(regs::OBJECT, 3);
        c.mmio_write(regs::COMMIT, 1);
        assert_eq!(c.mmio_read(regs::COMMIT), regs::STATUS_OK);
        assert_eq!(c.mmio_read(regs::OCCUPANCY), 1);
        let a = Access::read(MasterId(1), TaskId(7), 0x2000, 8).with_object(ObjectId(3));
        assert!(c.check(&a).is_ok());
    }

    #[test]
    fn mmio_rejects_untagged_capability() {
        // An attacker replaying capability bits without the tag gets
        // STATUS_INVALID: unforgeability survives the import path.
        let mut c = CapChecker::new(CheckerConfig::fine());
        let bits = rw_cap(0x2000, 128).compress().bits();
        c.mmio_write(regs::CAP_LO, bits as u64);
        c.mmio_write(regs::CAP_HI, (bits >> 64) as u64);
        c.mmio_write(regs::TAG, 0);
        c.mmio_write(regs::TASK, 7);
        c.mmio_write(regs::OBJECT, 3);
        c.mmio_write(regs::COMMIT, 1);
        assert_eq!(c.mmio_read(regs::COMMIT), regs::STATUS_INVALID);
        assert_eq!(c.entries_in_use(), 0);
    }

    #[test]
    fn mmio_exception_flag_read_and_clear() {
        let mut c = fine_checker_with_two_buffers();
        let bad = Access::read(MasterId(1), TaskId(1), 0xffff, 4).with_object(ObjectId(0));
        let _ = c.check(&bad);
        assert_eq!(c.mmio_read(regs::EXCEPTION), 1);
        c.mmio_write(regs::EXCEPTION, 0);
        assert_eq!(c.mmio_read(regs::EXCEPTION), 0);
    }

    #[test]
    fn mmio_evict_task_frees_entries() {
        let mut c = fine_checker_with_two_buffers();
        c.mmio_write(regs::EVICT_TASK, 1);
        assert_eq!(c.entries_in_use(), 0);
    }

    #[test]
    fn stats_count_grants_and_denials() {
        let mut c = fine_checker_with_two_buffers();
        let ok = Access::read(MasterId(1), TaskId(1), 0x1000, 4).with_object(ObjectId(0));
        let bad = Access::read(MasterId(1), TaskId(1), 0x3000, 4).with_object(ObjectId(0));
        c.check(&ok).unwrap();
        let _ = c.check(&bad);
        let s = c.stats();
        assert_eq!((s.granted, s.denied), (1, 1));
        // And the CPU can read the same counters over MMIO.
        assert_eq!(c.mmio_read(regs::GRANTED), 1);
        assert_eq!(c.mmio_read(regs::DENIED), 1);
        assert_eq!(c.mmio_read(regs::INSTALLS), 2);
    }

    #[test]
    fn static_verdicts_elide_safe_pairs_only() {
        let mut c = fine_checker_with_two_buffers();
        let mut map = StaticVerdictMap::new();
        map.set(TaskId(1), ObjectId(0), StaticVerdict::Safe);
        c.set_static_verdicts(map);

        // Safe pair: granted without a table walk, counted as elided.
        let ok = Access::read(MasterId(1), TaskId(1), 0x1000, 4).with_object(ObjectId(0));
        assert!(c.check(&ok).is_ok());
        assert_eq!(c.stats().elided, 1);
        assert_eq!(c.stats().granted, 0);

        // Dynamic pair (absent from the map): the full check runs.
        let other = Access::read(MasterId(1), TaskId(1), 0x3000, 4).with_object(ObjectId(1));
        assert!(c.check(&other).is_ok());
        assert_eq!(c.stats().granted, 1);

        // Elision never rescues a no-provenance request: Fine hardware
        // cannot attribute it, verdict map or not.
        let anon = Access::read(MasterId(1), TaskId(1), 0x1000, 4);
        assert_eq!(
            c.check(&anon).unwrap_err().reason,
            DenyReason::BadProvenance
        );

        // Clearing the map restores full checking.
        c.clear_static_verdicts();
        assert!(c.check(&ok).is_ok());
        assert_eq!(c.stats().elided, 1);
        assert_eq!(c.stats().granted, 2);
    }

    #[test]
    fn table_full_is_a_stall() {
        let mut c = CapChecker::new(CheckerConfig {
            entries: 1,
            ..CheckerConfig::fine()
        });
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0, 64)).unwrap();
        assert_eq!(
            c.grant(TaskId(1), ObjectId(1), &rw_cap(64, 64)),
            Err(GrantError::TableFull)
        );
        assert_eq!(c.stats().install_stalls, 1);
    }

    #[test]
    fn static_verdicts_bypass_cache_and_leave_lru_untouched() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        c.grant(TaskId(1), ObjectId(1), &rw_cap(0x2000, 64))
            .unwrap();
        let mut map = StaticVerdictMap::new();
        map.set(TaskId(1), ObjectId(0), StaticVerdict::Safe);
        c.set_static_verdicts(map);

        // Safe pair: no walk, no cache traffic, one elision.
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        let s = c.cache_stats();
        assert_eq!((s.elided, s.hits, s.misses), (1, 0, 0));

        // Dynamic pair still walks and caches as before.
        assert!(c.check(&read(1, 0x2000, 1)).is_ok());
        assert!(c.check(&read(1, 0x2000, 1)).is_ok());
        let s = c.cache_stats();
        assert_eq!((s.elided, s.hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn elision_is_immune_to_cache_corruption() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        // Warm the line, then corrupt it.
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        assert!(c.corrupt_cache_slot(0, 1));
        // With a safe verdict the corrupt line is never consulted: the
        // check it would have served was redundant by proof.
        let mut map = StaticVerdictMap::new();
        map.set(TaskId(1), ObjectId(0), StaticVerdict::Safe);
        c.set_static_verdicts(map);
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        assert_eq!(c.corruption_detected(), 0);
        // Dropping the map re-exposes the corruption as a fail-stop.
        c.clear_static_verdicts();
        let denial = c.check(&read(1, 0x1000, 0)).unwrap_err();
        assert_eq!(denial.reason, DenyReason::InvalidTag);
        assert_eq!(c.corruption_detected(), 1);
    }

    #[test]
    fn no_capacity_stall_even_past_256_entries() {
        let mut c = cached();
        for i in 0..1000u32 {
            c.grant(TaskId(i), ObjectId(0), &rw_cap(u64::from(i) * 64, 64))
                .unwrap();
        }
        assert_eq!(c.entries().len(), 1000);
        assert_eq!(c.entries_in_use(), 16, "only the cache is hardware");
        // And every one of them is checkable.
        assert!(c.check(&read(999, 999 * 64, 0)).is_ok());
        assert!(c.check(&read(0, 0, 0)).is_ok());
    }

    #[test]
    fn lru_keeps_the_hot_set() {
        let mut c = CapChecker::cached(CachedCheckerConfig {
            cache_entries: 2,
            ..CachedCheckerConfig::default()
        });
        for i in 0..3u32 {
            c.grant(TaskId(i), ObjectId(0), &rw_cap(u64::from(i) * 64, 64))
                .unwrap();
        }
        c.check(&read(0, 0, 0)).unwrap(); // miss
        c.check(&read(0, 4, 0)).unwrap(); // hit
        c.check(&read(1, 64, 0)).unwrap(); // miss
        c.check(&read(2, 128, 0)).unwrap(); // miss (evicts task 0)
        c.check(&read(0, 8, 0)).unwrap(); // miss again
        let s = c.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 4));
        assert!(s.miss_ratio() > 0.5);
    }

    #[test]
    fn security_is_identical_to_the_fixed_table() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        // Bounds violation.
        let denial = c.check(&read(1, 0x2000, 0)).unwrap_err();
        assert!(matches!(denial.reason, DenyReason::Capability(_)));
        assert!(c.exception_flag());
        assert_eq!(c.offending_objects(TaskId(1)), [ObjectId(0)]);
        // Wrong task.
        assert_eq!(
            c.check(&read(2, 0x1000, 0)).unwrap_err().reason,
            DenyReason::NoEntry
        );
        // Sealed capabilities rejected at import.
        let sealed = Capability::root().seal(9).unwrap();
        assert_eq!(
            c.grant(TaskId(1), ObjectId(1), &sealed),
            Err(GrantError::InvalidCapability)
        );
    }

    #[test]
    fn revoke_shoots_down_cached_entries() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        c.check(&read(1, 0x1000, 0)).unwrap(); // cache it
        c.revoke_task(TaskId(1));
        // The cached copy must not outlive the grant.
        assert_eq!(
            c.check(&read(1, 0x1000, 0)).unwrap_err().reason,
            DenyReason::NoEntry
        );
        assert!(c.entries().is_empty());
    }

    #[test]
    fn effective_latency_tracks_miss_ratio() {
        let mut c = CapChecker::cached(CachedCheckerConfig {
            cache_entries: 1,
            miss_penalty: 40,
            base: CheckerConfig::fine(),
        });
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0, 64)).unwrap();
        c.grant(TaskId(1), ObjectId(1), &rw_cap(64, 64)).unwrap();
        // Alternate: every access misses.
        for _ in 0..8 {
            c.check(&read(1, 0, 0)).unwrap();
            c.check(&read(1, 64, 1)).unwrap();
        }
        assert!(c.effective_latency() > 40.0);
    }

    #[test]
    fn corrupted_line_is_a_fail_stop_denial() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        c.check(&read(1, 0x1000, 0)).unwrap(); // warm the line
        assert!(c.corrupt_cache_slot(0, 1 << 70));
        let denial = c.check(&read(1, 0x1000, 0)).unwrap_err();
        assert_eq!(denial.reason, DenyReason::InvalidTag);
        assert_eq!(c.corruption_detected(), 1);
        assert!(c.exception_flag());
        // The corrupted line was dropped: the next check walks the table
        // and succeeds again — security never depended on the cache.
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        assert_eq!(c.cache_stats().denied, 1);
    }

    #[test]
    fn poisoned_insert_is_caught_on_first_hit() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        c.corrupt_next_insert(0xFF);
        c.check(&read(1, 0x1000, 0)).unwrap(); // miss: inserts poisoned line
        let denial = c.check(&read(1, 0x1000, 0)).unwrap_err();
        assert_eq!(denial.reason, DenyReason::InvalidTag);
        assert_eq!(c.corruption_detected(), 1);
    }

    #[test]
    fn corrupt_hooks_are_noops_without_targets() {
        let mut c = cached();
        assert!(!c.corrupt_cache_slot(0, 1)); // empty cache
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        c.check(&read(1, 0x1000, 0)).unwrap();
        assert!(!c.corrupt_cache_slot(5, 1)); // no such slot
        assert!(!c.corrupt_cache_slot(0, 0)); // zero flip mask
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        assert_eq!(c.corruption_detected(), 0);
        // The table store has no cache to corrupt.
        let mut t = fine_checker_with_two_buffers();
        t.corrupt_next_insert(0xFF);
        assert!(!t.corrupt_cache_slot(0, 1));
        assert!(t.check(&read(1, 0x1000, 0)).is_ok());
    }

    #[test]
    fn fresh_keeps_store_geometry_and_drops_state() {
        let mut c = CapChecker::cached(CachedCheckerConfig {
            cache_entries: 2,
            ..CachedCheckerConfig::default()
        });
        c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
            .unwrap();
        let f = c.fresh(CheckerMode::Coarse);
        assert!(f.is_cached());
        assert_eq!(f.mode(), CheckerMode::Coarse);
        assert!(f.entries().is_empty());
        let t = fine_checker_with_two_buffers().fresh(CheckerMode::Fine);
        assert!(!t.is_cached());
        assert_eq!(t.table().map(CapabilityTable::capacity), Some(256));
    }
}
