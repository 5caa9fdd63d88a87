//! Where the CapChecker keeps imported capabilities.
//!
//! [`CapChecker`](crate::CapChecker) owns exactly one [`Store`], and the
//! store is the only thing that differs between the two designs:
//!
//! * [`Store::Table`] — Figure 5's fixed associative
//!   [`CapabilityTable`] (256 entries in the prototype). A full table
//!   stalls the install; a denied access sets the offending entry's
//!   exception bit.
//! * [`Store::Cache`] — §5.2.3's microarchitectural option: "a cache
//!   backing a larger in-memory table, similar to page table caching in
//!   IOMMUs/IOTLBs, but with each entry holding a capability." The
//!   hardware holds a small, fully-associative, LRU cache of compressed
//!   capability images; the full set lives in a memory-resident table
//!   that only the trusted driver can address. A miss costs a table walk
//!   but never an allocation stall.
//!
//! The protection model is unchanged (same checks, same tag discipline,
//! same exception reporting), which is exactly why the paper could defer
//! the cache: it is performance engineering, not security.

use crate::table::CapabilityTable;
use cheri::{Capability, CompressedCapability};
use hetsim::{Cycles, DenyReason, ObjectId, TaskId};
use std::collections::HashMap;

pub use obs::stats::CacheStats;

/// The capability store behind one [`CapChecker`](crate::CapChecker).
#[derive(Clone, Debug)]
pub(crate) enum Store {
    /// The fixed-size associative table.
    Table(CapabilityTable),
    /// The LRU cache over a memory-resident table.
    Cache(CapCache),
}

/// One hardware cache line: the compressed capability image plus an
/// integrity checksum over it.
///
/// Holding the image (not just the key) is what makes the line a real
/// microarchitectural asset: a bit flip in the cache SRAM corrupts the
/// capability the checker would enforce. The checksum is the detection
/// story — verified on every hit, and a mismatch is a fail-stop denial
/// ([`DenyReason::InvalidTag`]) that also signals the driver to degrade
/// to the uncached design.
#[derive(Clone, Copy, Debug)]
struct CacheLine {
    key: (TaskId, ObjectId),
    /// Compressed 128-bit capability image, as the SRAM would hold it.
    bits: u128,
    checksum: u64,
}

fn line_checksum(key: (TaskId, ObjectId), bits: u128) -> u64 {
    // FNV-1a over the key and image; any storage bit flip misses this
    // unless the flip is itself crafted, which SRAM noise is not.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in key.0 .0.to_le_bytes() {
        step(b);
    }
    for b in key.1 .0.to_le_bytes() {
        step(b);
    }
    for b in bits.to_le_bytes() {
        step(b);
    }
    h
}

/// The cache-backed store: LRU lines over a backing map, the exception
/// trace, the fault-injection hooks, and hit/miss accounting.
#[derive(Clone, Debug)]
pub(crate) struct CapCache {
    /// Hardware cache entries (fully associative, LRU).
    pub(crate) capacity: usize,
    /// Cycles a miss adds.
    pub(crate) miss_penalty: Cycles,
    /// The memory-resident table (driver-owned; unbounded by hardware).
    backing: HashMap<(TaskId, ObjectId), Capability>,
    /// LRU cache: most recently used at the back.
    lines: Vec<CacheLine>,
    /// `(task, object)` pairs that have faulted, in fault order.
    exceptions: Vec<(TaskId, ObjectId)>,
    /// Fault-injection: bits to flip in the next inserted line's image
    /// (0 when disarmed).
    poison_next: u128,
    /// Hit/miss/corruption counters (`denied` and `elided` live with the
    /// checker's shared counters and are filled in on read).
    pub(crate) stats: CacheStats,
}

impl CapCache {
    pub(crate) fn new(capacity: usize, miss_penalty: Cycles) -> CapCache {
        CapCache {
            capacity,
            miss_penalty,
            backing: HashMap::new(),
            lines: Vec::new(),
            exceptions: Vec::new(),
            poison_next: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up in the cache, maintaining LRU order and hit/miss
    /// accounting. Returns the capability to enforce and whether it hit,
    /// `Ok(None)` when the backing table has no entry, or `Err(())` on an
    /// integrity failure (the line is dropped; the caller fail-stops).
    fn lookup(&mut self, key: (TaskId, ObjectId)) -> Result<Option<(Capability, bool)>, ()> {
        if let Some(pos) = self.lines.iter().position(|l| l.key == key) {
            let line = self.lines.remove(pos);
            if line.checksum != line_checksum(line.key, line.bits) {
                // Integrity failure: fail stop. The corrupted line is
                // dropped so it cannot be consulted again.
                self.stats.corruption_detected += 1;
                return Err(());
            }
            self.stats.hits += 1;
            self.lines.push(line);
            // Enforce the cached image, not the backing entry — that is
            // what hardware would do.
            return Ok(Some((
                CompressedCapability::from_bits(line.bits).decode(true),
                true,
            )));
        }
        let Some(cap) = self.backing.get(&key).copied() else {
            return Ok(None);
        };
        self.stats.misses += 1;
        self.stats.miss_cycles += self.miss_penalty;
        if self.lines.len() >= self.capacity.max(1) {
            self.lines.remove(0);
        }
        let bits = cap.compress().bits() ^ std::mem::take(&mut self.poison_next);
        self.lines.push(CacheLine {
            key,
            bits,
            // Checksum over the *uncorrupted* image: a poisoned insert
            // models the SRAM flipping after the line was written.
            checksum: line_checksum(key, cap.compress().bits()),
        });
        Ok(Some((cap, false)))
    }

    /// Flips `flip` bits in the image of the line at `slot` (LRU order,
    /// 0 = coldest) without updating its checksum.
    pub(crate) fn corrupt_slot(&mut self, slot: usize, flip: u128) -> bool {
        match self.lines.get_mut(slot) {
            Some(line) if flip != 0 => {
                line.bits ^= flip;
                true
            }
            _ => false,
        }
    }

    /// Arms a bit flip that lands on the next line inserted.
    pub(crate) fn corrupt_next_insert(&mut self, flip: u128) {
        if flip != 0 {
            self.poison_next = flip;
        }
    }
}

/// A successful [`Store::fetch`]: the capability to enforce, plus the
/// cache's hit flag and stall cycles (`None` on the table, which cannot
/// miss).
pub(crate) type Fetched = (Capability, Option<(bool, Cycles)>);

impl Store {
    /// Fetches the capability for `key`, or the reason there is none to
    /// enforce: no entry, or (cache only) a corrupted line.
    #[inline]
    pub(crate) fn fetch(&mut self, key: (TaskId, ObjectId)) -> Result<Fetched, DenyReason> {
        match self {
            Store::Table(table) => table
                .lookup(key.0, key.1)
                .map(|e| (e.capability, None))
                .ok_or(DenyReason::NoEntry),
            Store::Cache(cache) => match cache.lookup(key) {
                Ok(Some((cap, hit))) => {
                    let stall = if hit { 0 } else { cache.miss_penalty };
                    Ok((cap, Some((hit, stall))))
                }
                Ok(None) => Err(DenyReason::NoEntry),
                Err(()) => Err(DenyReason::InvalidTag),
            },
        }
    }

    /// Installs a validated capability. Returns `false` when the table is
    /// full (the hardware stalls); the memory-backed cache never is, and
    /// shoots down the line of a re-granted key so no stale image
    /// survives.
    pub(crate) fn install(&mut self, task: TaskId, object: ObjectId, cap: Capability) -> bool {
        match self {
            Store::Table(table) => table.install(task, object, cap).is_some(),
            Store::Cache(cache) => {
                cache.backing.insert((task, object), cap);
                cache.lines.retain(|l| l.key != (task, object));
                true
            }
        }
    }

    /// Removes every entry of `task`, returning how many were freed.
    pub(crate) fn evict_task(&mut self, task: TaskId) -> usize {
        match self {
            Store::Table(table) => table.evict_task(task),
            Store::Cache(cache) => {
                let before = cache.backing.len();
                cache.backing.retain(|(t, _), _| *t != task);
                // Shoot down cached lines too (the IOTLB-invalidate
                // analogue; skip this and you get the Thunderclap-style
                // stale-window bug).
                cache.lines.retain(|l| l.key.0 != task);
                before - cache.backing.len()
            }
        }
    }

    /// Records a denied access that resolved `(task, object)`: the table
    /// sets the entry's exception bit (a no-op when there is no entry),
    /// the cache appends the pair to its trace.
    pub(crate) fn note_exception(&mut self, task: TaskId, object: ObjectId) {
        match self {
            Store::Table(table) => table.mark_exception(task, object),
            Store::Cache(cache) => cache.exceptions.push((task, object)),
        }
    }

    /// Hardware entries in use: table occupancy, or the cache lines the
    /// backing set would fill.
    pub(crate) fn entries_in_use(&self) -> usize {
        match self {
            Store::Table(table) => table.occupied(),
            Store::Cache(cache) => cache.capacity.min(cache.backing.len()),
        }
    }

    /// Objects of `task` whose accesses were denied: the table's flagged
    /// entries in slot order, or the cache trace's pairs sorted and
    /// deduplicated.
    pub(crate) fn offending_objects(&self, task: TaskId) -> Vec<ObjectId> {
        match self {
            Store::Table(table) => table.exceptions_for(task).map(|e| e.object).collect(),
            Store::Cache(cache) => {
                let mut objects: Vec<ObjectId> = cache
                    .exceptions
                    .iter()
                    .filter(|(t, _)| *t == task)
                    .map(|&(_, o)| o)
                    .collect();
                objects.sort_unstable_by_key(|o| o.0);
                objects.dedup();
                objects
            }
        }
    }

    /// Every stored capability, sorted by `(task, object)`.
    pub(crate) fn entries(&self) -> Vec<(TaskId, ObjectId, Capability)> {
        let mut entries: Vec<(TaskId, ObjectId, Capability)> = match self {
            Store::Table(table) => table
                .iter()
                .map(|e| (e.task, e.object, e.capability))
                .collect(),
            Store::Cache(cache) => cache
                .backing
                .iter()
                .map(|(&(t, o), &cap)| (t, o, cap))
                .collect(),
        };
        entries.sort_by_key(|&(t, o, _)| (t.0, o.0));
        entries
    }
}
