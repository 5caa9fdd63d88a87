//! Static check elision: the hardware side of the adaptive loop.
//!
//! The `capcheri-analyze` crate proves, ahead of simulation, which
//! `(task, object)` streams can never fault — every access lands inside a
//! live, correctly-permissioned capability on all paths. Its result is a
//! [`StaticVerdictMap`]. The [`CapChecker`](crate::CapChecker) accepts
//! the map and skips the per-beat store lookup for pairs proved safe,
//! counting each skip in its `elided` statistic.
//!
//! Soundness does **not** rest on trusting the analyzer: the conformance
//! harness replays elided checkers against the golden oracle and diffs
//! every verdict, so an unsound map shows up as a divergence, exactly
//! like an implementation bug would.

use hetsim::{ObjectId, TaskId};
use std::collections::BTreeMap;

/// The analyzer's judgment for one `(task, object)` access stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StaticVerdict {
    /// Every access of the stream is provably inside a live,
    /// correctly-permissioned capability on all paths — the per-beat
    /// check is redundant and may be elided.
    Safe,
    /// At least one access is a provable violation (over-privileged or
    /// stale grant, port aliasing, revocation race). Reported as a
    /// finding; the runtime checker still judges every beat.
    Unsafe,
    /// Nothing provable either way — the runtime checker is required.
    /// This is the default for pairs the analyzer never saw.
    #[default]
    Dynamic,
}

impl StaticVerdict {
    /// Stable lowercase label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StaticVerdict::Safe => "safe",
            StaticVerdict::Unsafe => "unsafe",
            StaticVerdict::Dynamic => "dynamic",
        }
    }
}

/// Per-`(task, object)` static verdicts, as installed into a checker.
///
/// Keys are ordered (`BTreeMap`), so iteration — and everything derived
/// from it, reports included — is deterministic. Pairs absent from the
/// map are [`StaticVerdict::Dynamic`]: elision is strictly opt-in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticVerdictMap {
    verdicts: BTreeMap<(u32, u16), StaticVerdict>,
}

impl StaticVerdictMap {
    /// An empty map: every pair is dynamic, nothing is elided.
    #[must_use]
    pub fn new() -> StaticVerdictMap {
        StaticVerdictMap::default()
    }

    /// Records the verdict for `(task, object)`.
    pub fn set(&mut self, task: TaskId, object: ObjectId, verdict: StaticVerdict) {
        self.verdicts.insert((task.0, object.0), verdict);
    }

    /// The verdict for `(task, object)` ([`StaticVerdict::Dynamic`] when
    /// the analyzer never classified the pair).
    #[must_use]
    pub fn verdict(&self, task: TaskId, object: ObjectId) -> StaticVerdict {
        self.verdicts
            .get(&(task.0, object.0))
            .copied()
            .unwrap_or_default()
    }

    /// `true` when the pair's checks may be skipped.
    #[must_use]
    pub fn is_safe(&self, task: TaskId, object: ObjectId) -> bool {
        self.verdict(task, object) == StaticVerdict::Safe
    }

    /// Number of pairs proved safe.
    #[must_use]
    pub fn safe_pairs(&self) -> u64 {
        self.verdicts
            .values()
            .filter(|v| **v == StaticVerdict::Safe)
            .count() as u64
    }

    /// Classified pairs, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, ObjectId, StaticVerdict)> + '_ {
        self.verdicts
            .iter()
            .map(|(&(t, o), &v)| (TaskId(t), ObjectId(o), v))
    }

    /// `true` when no pair is classified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }
}

/// Epoch-scoped verdict retention: the driver-side ledger that lets
/// elision survive the adaptive controller.
///
/// The coherence rule (see [`VerdictBitmap`]) makes every checker
/// rebuild — mode switch, degradation, re-promotion — drop the
/// installed map and bitmap *together*. That is correct but, before
/// this ledger existed, also permanent: the proof was lost with the
/// checker, and adaptive runs got zero elision after their first
/// switch. `SegmentVerdicts` keeps the current analysis segment's
/// proven-safe map *outside* the checker, so the controller can
/// re-install it atomically (map and bitmap rebuilt in the same
/// `set_static_verdicts` call) right after a rebuild. Degradation
/// deliberately does **not** re-install: a degraded checker is running
/// because trust was withdrawn, and elision stays off until the
/// controller re-promotes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentVerdicts {
    map: Option<StaticVerdictMap>,
    reinstalls: u64,
}

impl SegmentVerdicts {
    /// An empty ledger: nothing retained, nothing to re-install.
    #[must_use]
    pub fn new() -> SegmentVerdicts {
        SegmentVerdicts::default()
    }

    /// Retains `map` as the current segment's proof. Replaces any
    /// previously retained map — segments supersede each other.
    pub fn retain(&mut self, map: StaticVerdictMap) {
        self.map = Some(map);
    }

    /// The retained map, if any — what a re-install would install.
    #[must_use]
    pub fn retained(&self) -> Option<&StaticVerdictMap> {
        self.map.as_ref()
    }

    /// Records one successful re-installation.
    pub fn record_reinstall(&mut self) {
        self.reinstalls += 1;
    }

    /// How many times the retained map was re-installed after a
    /// checker rebuild.
    #[must_use]
    pub fn reinstalls(&self) -> u64 {
        self.reinstalls
    }
}

/// Objects representable in one bitmap row: the checker's table holds at
/// most 256 entries, so denser object spaces are out of the fast path by
/// construction (they spill, correctly, into a sorted slice).
const BITMAP_OBJECTS: usize = 256;
const BITMAP_WORDS: usize = BITMAP_OBJECTS / 64;

/// One task's precomputed safe-object bits.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BitmapRow {
    task: u32,
    /// Bit `o` set ⇔ `(task, o)` is [`StaticVerdict::Safe`], `o < 256`.
    words: [u64; BITMAP_WORDS],
    /// Safe objects ≥ 256 (exotic; sorted for binary search).
    spill: Vec<u16>,
}

/// A [`StaticVerdictMap`] compiled to per-task bit words, built once when
/// the driver installs verdicts at grant-install time and consulted
/// branch-free on the DMA beat hot path.
///
/// `StaticVerdictMap` answers `is_safe` with an ordered-map walk — pointer
/// chasing and key compares on every beat. The bitmap answers with one
/// shift-and-mask against a preloaded word: the verdict test itself has no
/// data-dependent branch. Rows are one per task with ≥ 1 safe pair; the
/// common single-task stream resolves its row on the first compare.
///
/// Coherence invariant: a checker holding both structures must keep the
/// bitmap equal to `VerdictBitmap::build` of its map at every observable
/// point — (re)built when verdicts are installed, and invalidated together
/// with the map on clear (the controller's degrade path) so elision
/// decisions, counters, and report bytes are identical to the map-walk
/// implementation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerdictBitmap {
    rows: Vec<BitmapRow>,
}

impl VerdictBitmap {
    /// An empty bitmap: nothing is safe, nothing is elided.
    #[must_use]
    pub fn new() -> VerdictBitmap {
        VerdictBitmap::default()
    }

    /// Compiles `map`'s [`StaticVerdict::Safe`] pairs into bit rows.
    #[must_use]
    pub fn build(map: &StaticVerdictMap) -> VerdictBitmap {
        let mut rows: Vec<BitmapRow> = Vec::new();
        // Map iteration is key-ordered, so rows come out sorted by task
        // and spills sorted by object — deterministic by construction.
        for (task, object, verdict) in map.iter() {
            if verdict != StaticVerdict::Safe {
                continue;
            }
            if rows.last().map(|r| r.task) != Some(task.0) {
                rows.push(BitmapRow {
                    task: task.0,
                    words: [0; BITMAP_WORDS],
                    spill: Vec::new(),
                });
            }
            // lint: allow(panic-in-hot-path) — the push above guarantees a row
            let row = rows.last_mut().expect("row just ensured");
            let o = usize::from(object.0);
            if o < BITMAP_OBJECTS {
                row.words[o >> 6] |= 1 << (o & 63);
            } else {
                row.spill.push(object.0);
            }
        }
        VerdictBitmap { rows }
    }

    /// `true` when `(task, object)` was proved safe — equivalent to
    /// [`StaticVerdictMap::is_safe`] on the map this was built from.
    #[inline]
    #[must_use]
    pub fn is_safe(&self, task: TaskId, object: ObjectId) -> bool {
        for row in &self.rows {
            if row.task == task.0 {
                let o = usize::from(object.0);
                return if o < BITMAP_OBJECTS {
                    // Branch-free verdict: shift the preloaded word.
                    (row.words[o >> 6] >> (o & 63)) & 1 != 0
                } else {
                    row.spill.binary_search(&object.0).is_ok()
                };
            }
        }
        false
    }

    /// `true` when no pair is marked safe.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_dynamic_and_elision_is_opt_in() {
        let map = StaticVerdictMap::new();
        assert_eq!(map.verdict(TaskId(1), ObjectId(0)), StaticVerdict::Dynamic);
        assert!(!map.is_safe(TaskId(1), ObjectId(0)));
        assert!(map.is_empty());
    }

    #[test]
    fn set_and_count() {
        let mut map = StaticVerdictMap::new();
        map.set(TaskId(1), ObjectId(0), StaticVerdict::Safe);
        map.set(TaskId(1), ObjectId(1), StaticVerdict::Unsafe);
        map.set(TaskId(2), ObjectId(0), StaticVerdict::Safe);
        assert!(map.is_safe(TaskId(1), ObjectId(0)));
        assert!(!map.is_safe(TaskId(1), ObjectId(1)));
        assert_eq!(map.safe_pairs(), 2);
        let keys: Vec<_> = map.iter().map(|(t, o, _)| (t.0, o.0)).collect();
        assert_eq!(keys, vec![(1, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(StaticVerdict::Safe.label(), "safe");
        assert_eq!(StaticVerdict::Unsafe.label(), "unsafe");
        assert_eq!(StaticVerdict::Dynamic.label(), "dynamic");
    }

    #[test]
    fn bitmap_agrees_with_map_on_every_pair() {
        let mut map = StaticVerdictMap::new();
        // Safe, unsafe, dynamic pairs across several tasks, including
        // word boundaries (63/64), the row edge (255), and spills (≥256).
        for (t, o, v) in [
            (1, 0, StaticVerdict::Safe),
            (1, 63, StaticVerdict::Safe),
            (1, 64, StaticVerdict::Safe),
            (1, 65, StaticVerdict::Unsafe),
            (2, 255, StaticVerdict::Safe),
            (2, 256, StaticVerdict::Safe),
            (2, 300, StaticVerdict::Dynamic),
            (7, 1000, StaticVerdict::Safe),
        ] {
            map.set(TaskId(t), ObjectId(o), v);
        }
        let bits = VerdictBitmap::build(&map);
        for t in [0u32, 1, 2, 3, 7] {
            for o in [0u16, 1, 63, 64, 65, 254, 255, 256, 300, 999, 1000] {
                assert_eq!(
                    bits.is_safe(TaskId(t), ObjectId(o)),
                    map.is_safe(TaskId(t), ObjectId(o)),
                    "bitmap diverged from map at ({t}, {o})"
                );
            }
        }
    }

    #[test]
    fn segment_ledger_retains_and_replaces() {
        let mut ledger = SegmentVerdicts::new();
        assert!(ledger.retained().is_none());
        let mut first = StaticVerdictMap::new();
        first.set(TaskId(0), ObjectId(0), StaticVerdict::Safe);
        ledger.retain(first.clone());
        assert_eq!(ledger.retained(), Some(&first));
        let mut second = StaticVerdictMap::new();
        second.set(TaskId(1), ObjectId(2), StaticVerdict::Safe);
        ledger.retain(second.clone());
        assert_eq!(ledger.retained(), Some(&second), "segments supersede");
        ledger.record_reinstall();
        ledger.record_reinstall();
        assert_eq!(ledger.reinstalls(), 2);
    }

    #[test]
    fn empty_bitmap_is_never_safe() {
        let bits = VerdictBitmap::new();
        assert!(bits.is_empty());
        assert!(!bits.is_safe(TaskId(0), ObjectId(0)));
        assert_eq!(bits, VerdictBitmap::build(&StaticVerdictMap::new()));
    }
}
