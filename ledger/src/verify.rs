//! The verification stack: conformance replay against the oracle,
//! from-scratch and incremental flow analysis, and the bounded model
//! checker.

use crate::spans::Recorder;
use crate::Counts;
use capcheri_analyze::{analyze_flow, churn_grants, FlowAnalysis, IncrementalAnalyzer};
use capcheri_mc::{explore, ExploreConfig};
use conformance::Op;

/// Model-checker depth explored per [`explore_once`] call.
pub const MC_DEPTH: u32 = 6;
/// Canonical states the default 2-task × 3-object model reaches at
/// [`MC_DEPTH`].
pub const MC_STATES: u64 = 13_107;
/// Transitions applied reaching them.
pub const MC_TRANSITIONS: u64 = 253_368;

/// One conformance stream, its grant-churned twin, and the results every
/// later analysis of them must reproduce.
#[derive(Debug)]
pub struct Stream {
    /// The generated op stream.
    pub base: Vec<Op>,
    /// `base` after [`churn_grants`].
    pub churned: Vec<Op>,
    /// Oracle comparisons the set-up replay made.
    pub checked: u64,
    /// From-scratch analysis of `base`.
    pub scratch_base: FlowAnalysis,
    /// From-scratch analysis of `churned`.
    pub scratch_churned: FlowAnalysis,
    /// Incremental engine whose cache holds `base`'s units.
    analyzer: IncrementalAnalyzer,
}

impl Stream {
    /// Generates `ops` ops from `seed` and computes the references.
    ///
    /// # Errors
    ///
    /// The set-up replay diverged from the oracle.
    pub fn new(seed: u64, ops: usize) -> Result<Stream, String> {
        let base = conformance::generate(seed, ops);
        let churned = churn_grants(&base);
        let outcome = conformance::run_ops(&base);
        if !outcome.is_clean() {
            return Err(format!(
                "stream {seed}: {} divergences, {} tag mismatches",
                outcome.divergences.len(),
                outcome.tag_mismatches
            ));
        }
        let scratch_base = analyze_flow(&base, 1);
        let scratch_churned = analyze_flow(&churned, 1);
        let mut analyzer = IncrementalAnalyzer::new();
        analyzer.analyze(&base);
        Ok(Stream {
            base,
            churned,
            checked: outcome.checked,
            scratch_base,
            scratch_churned,
            analyzer,
        })
    }

    /// Replays `base` through the checker subjects against the oracle.
    ///
    /// # Errors
    ///
    /// Any divergence, tag mismatch, or a comparison count other than
    /// the set-up replay's.
    pub fn replay(&self, rec: &mut Recorder) -> Result<Counts, String> {
        let outcome = rec.span("conformance.replay", || conformance::run_ops(&self.base));
        if !outcome.is_clean() {
            return Err(format!(
                "{} divergences, {} tag mismatches",
                outcome.divergences.len(),
                outcome.tag_mismatches
            ));
        }
        if outcome.checked != self.checked {
            return Err(format!(
                "{} oracle comparisons, set-up made {}",
                outcome.checked, self.checked
            ));
        }
        Ok(Counts {
            replay_ops: self.base.len() as u64,
            ..Counts::default()
        })
    }

    /// From-scratch flow analysis of `churned`.
    ///
    /// # Errors
    ///
    /// A result other than the set-up analysis'.
    pub fn flow(&self, rec: &mut Recorder) -> Result<Counts, String> {
        let fresh = rec.span("analyze.flow", || analyze_flow(&self.churned, 1));
        if !fresh.same_results(&self.scratch_churned) {
            return Err("from-scratch flow analysis is not deterministic".into());
        }
        Ok(Counts {
            flow_units: fresh.units,
            ..Counts::default()
        })
    }

    /// Incremental round trip: `churned` against the cached `base`
    /// units, then back to `base`, so the cache ends where it started.
    ///
    /// # Errors
    ///
    /// Either incremental result differs from the from-scratch one.
    pub fn incremental(&mut self, rec: &mut Recorder) -> Result<Counts, String> {
        let analyzer = &mut self.analyzer;
        let churned = rec.span("analyze.incremental", || analyzer.analyze(&self.churned));
        let base = rec.span("analyze.incremental", || analyzer.analyze(&self.base));
        if !churned.same_results(&self.scratch_churned) || !base.same_results(&self.scratch_base) {
            return Err("incremental analysis differs from from-scratch".into());
        }
        Ok(Counts {
            incremental_units: churned.units + base.units,
            incremental_reused: churned.reused + base.reused,
            ..Counts::default()
        })
    }
}

/// One bounded exploration of the default model at [`MC_DEPTH`].
///
/// # Errors
///
/// A violation, or state and transition counts other than the pinned
/// ones.
pub fn explore_once(rec: &mut Recorder) -> Result<Counts, String> {
    let result = rec.span("mc.explore", || explore(ExploreConfig::new(MC_DEPTH)));
    if let Some(v) = &result.violation {
        return Err(format!("model-checker violation: {:?}", v.violation));
    }
    if (result.states, result.transitions) != (MC_STATES, MC_TRANSITIONS) {
        return Err(format!(
            "{} states / {} transitions, expected {MC_STATES} / {MC_TRANSITIONS}",
            result.states, result.transitions
        ));
    }
    Ok(Counts {
        mc_transitions: result.transitions,
        ..Counts::default()
    })
}
