//! Driver-level fault recovery: watchdogs, retry with backoff, engine
//! quarantine, and checker graceful degradation.
//!
//! The platform half of the fault harness lives in `hetsim::fault`
//! (deterministic injection); this module is the *driver's* half — what
//! the trusted software does when the hardware misbehaves:
//!
//! * [`WatchdogEngine`] — a per-task cycle-budget watchdog layered on the
//!   protected data path. A hung or spinning engine burns through its
//!   budget and is aborted with [`ExecFault::Hung`]; without it, a hang
//!   is simply undetected.
//! * [`RecoveryPolicy`] — bounded retry with exponential backoff, an
//!   engine-quarantine threshold, and the watchdog budget.
//! * [`run_campaign`] — a seeded fault campaign: every task draws an
//!   injection decision from a [`FaultPlan`], runs under the full
//!   recovery stack, and ends in exactly one [`Resolution`]. The same
//!   seed produces a byte-identical [`CampaignReport`]. Its driver loop
//!   is the only one: the adaptive campaign runs it under another policy.
//!
//! The recovery state machine per task:
//!
//! ```text
//! inject ──► run ──► completed ──────────────────────► Completed
//!              │
//!              ├─► denied ──► clear + backoff ──► retry (≤ max_attempts)
//!              │      │            └─ exhausted ─────► Denied (latched)
//!              │      └─ InvalidTag, reactive policy ─► degrade → retry
//!              ├─► watchdog abort ──► count per engine
//!              │      ├─ below threshold ─ backoff ──► retry
//!              │      └─ at threshold ─► Quarantined[Probation] (policy hook)
//!              ├─► transient ──── backoff ───────────► retry
//!              └─► forged tag found by post-run audit ► Denied (cleared)
//! ```

use crate::adapt::EpochLoop;
use crate::config::CachedCheckerConfig;
use crate::system::{DriverError, HeteroSystem, ProtectionChoice, SystemConfig, TaskRequest};
use hetsim::fault::{
    is_engine_level, persists_across_retries, FaultPlan, FaultSpec, FaultyEngine, InjectedFault,
};
use hetsim::{Cycles, Denial, DenyReason, Engine, ExecFault, TaskId};
use obs::json::JsonWriter;
use obs::{EventKind, FaultKind, Registry, SharedTracer};
use std::collections::BTreeMap;
use std::fmt;

/// A per-task operation-budget watchdog on the engine data path.
///
/// Every memory operation costs 1, a bulk copy costs `1 + len/8`, and
/// `compute(units)` costs `units`. Once the accumulated cost exceeds the
/// budget, the watchdog cuts the engine off: in-flight compute is clamped
/// to the remaining budget and the next memory operation aborts with
/// [`ExecFault::Hung`]. Layer it *below* the fault injector and *above*
/// the kernel engine (`kernel → FaultyEngine → WatchdogEngine →
/// KernelEngine`) so injected hang spins trip it while rogue traffic
/// still reaches the protection path.
pub struct WatchdogEngine<'e> {
    inner: &'e mut dyn Engine,
    budget: u64,
    spent: u64,
    tripped: bool,
}

impl fmt::Debug for WatchdogEngine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WatchdogEngine")
            .field("budget", &self.budget)
            .field("spent", &self.spent)
            .field("tripped", &self.tripped)
            .finish_non_exhaustive()
    }
}

impl<'e> WatchdogEngine<'e> {
    /// Wraps `inner` with an operation budget.
    pub fn new(inner: &'e mut dyn Engine, budget: u64) -> WatchdogEngine<'e> {
        WatchdogEngine {
            inner,
            budget,
            spent: 0,
            tripped: false,
        }
    }

    /// Whether the watchdog has expired.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Budget consumed so far.
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent
    }

    fn charge(&mut self, cost: u64) -> Result<(), ExecFault> {
        self.spent = self.spent.saturating_add(cost);
        if self.spent > self.budget {
            self.tripped = true;
            return Err(ExecFault::Hung { ops: self.spent });
        }
        Ok(())
    }
}

impl Engine for WatchdogEngine<'_> {
    fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault> {
        self.charge(1)?;
        self.inner.load(obj, offset, size)
    }

    fn store(&mut self, obj: usize, offset: u64, size: u8, value: u64) -> Result<(), ExecFault> {
        self.charge(1)?;
        self.inner.store(obj, offset, size, value)
    }

    fn compute(&mut self, units: u64) {
        // The watchdog cuts power at budget expiry: only the remaining
        // budget's worth of data-path work actually happens.
        let grant = units.min(self.budget.saturating_sub(self.spent));
        if grant > 0 {
            self.inner.compute(grant);
        }
        self.spent = self.spent.saturating_add(units);
        if self.spent > self.budget {
            self.tripped = true;
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
        self.charge(1 + len / 8)?;
        self.inner.copy(dst_obj, dst_off, src_obj, src_off, len)
    }
}

/// The driver's recovery parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Kernel attempts per task (first run included).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base << (n - 2)` driver
    /// cycles.
    pub backoff_base: Cycles,
    /// Watchdog operation budget per attempt.
    pub watchdog_budget: u64,
    /// Watchdog aborts a functional unit survives before the driver
    /// quarantines it for good.
    pub quarantine_threshold: u32,
}

impl RecoveryPolicy {
    /// Backoff after failed attempt `attempt` (1-based):
    /// `backoff_base << (attempt - 1)`, saturating at [`Cycles::MAX`]
    /// instead of overflowing the shift. A policy with `max_attempts ≥ 64`
    /// (or a large base) therefore waits "forever-ish" rather than
    /// panicking in debug builds or silently wrapping in release.
    #[must_use]
    pub fn backoff_after(&self, attempt: u32) -> Cycles {
        if self.backoff_base == 0 {
            return 0;
        }
        let shift = attempt.saturating_sub(1);
        self.backoff_base
            .checked_shl(shift)
            .filter(|b| b >> shift == self.backoff_base)
            .unwrap_or(Cycles::MAX)
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_attempts: 3,
            backoff_base: 64,
            watchdog_budget: 4096,
            quarantine_threshold: 2,
        }
    }
}

/// What one kernel attempt produced, as the retry loop classifies it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Ran to completion with no exception.
    Completed,
    /// The protection path denied an access; the denial is latched.
    Denied(Denial),
    /// The watchdog aborted a hung engine after `ops` budget.
    TimedOut {
        /// Budget consumed at abort time.
        ops: u64,
    },
    /// A transient interconnect fault aborted the transfer cleanly.
    Transient(FaultKind),
}

/// How a task's story ended. Exactly one per task — the trichotomy the
/// property tests enforce (plus the starvation edge) is that no task is
/// ever silently lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// First attempt ran clean.
    Completed,
    /// At least one retry was needed, then the kernel ran clean.
    RetriedCompleted,
    /// The fault's effect was blocked and stays on record: an access
    /// denial latched against the task, or a forged tag swept away by the
    /// post-run audit.
    Denied,
    /// The engine kept hanging; the driver gave up on it and quarantined
    /// the functional unit for good (no adaptive controller to parole it).
    Quarantined,
    /// The engine was quarantined, but an adaptive controller is running
    /// and probationary release remains possible. Only the adaptive
    /// campaign ([`crate::adapt`]) produces this; with the controller off,
    /// quarantine is permanent and reports keep the plain `Quarantined`
    /// label, so `capcheri.fault_campaign.v1` bytes are unchanged.
    QuarantinedProbation,
    /// No healthy functional unit remained to run the task at all.
    Starved,
}

impl Resolution {
    /// Stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Resolution::Completed => "completed",
            Resolution::RetriedCompleted => "retried-completed",
            Resolution::Denied => "denied",
            Resolution::Quarantined => "quarantined",
            Resolution::QuarantinedProbation => "quarantined-probation",
            Resolution::Starved => "starved",
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One task's row in the campaign report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskRecord {
    /// Campaign task index (0-based, in submission order).
    pub index: u32,
    /// The fault injected into this task, if the plan drew one.
    pub injected: Option<FaultKind>,
    /// Kernel attempts made (0 when starved).
    pub attempts: u32,
    /// How the task ended.
    pub resolution: Resolution,
    /// Human-readable cause when the resolution is a denial.
    pub denial: Option<String>,
    /// Whether this task's fault drove the checker degradation.
    pub degraded: bool,
    /// Forged capability tags the post-run audit cleared from the task's
    /// buffers.
    pub tags_cleared: u64,
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Tasks to run.
    pub tasks: u32,
    /// Seed for the fault plan — same seed, same report bytes.
    pub seed: u64,
    /// Which faults are armed, at what per-task rate.
    pub spec: FaultSpec,
    /// The driver's recovery parameters.
    pub policy: RecoveryPolicy,
    /// Functional units in the pool.
    pub fus: usize,
    /// Size of each of a task's two buffers.
    pub buffer_bytes: u64,
    /// Protection on the accelerator path. Defaults to the cache-backed
    /// CapChecker (so the degradation path is reachable); the adaptive
    /// A/B comparison runs static alternatives through the same harness.
    pub protection: ProtectionChoice,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            tasks: 32,
            seed: 0xC0DE,
            spec: FaultSpec::none(),
            policy: RecoveryPolicy::default(),
            fus: 4,
            buffer_bytes: 256,
            protection: ProtectionChoice::CachedCapChecker(CachedCheckerConfig::default()),
        }
    }
}

/// The deterministic result of a fault campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// The seed the plan ran with.
    pub seed: u64,
    /// Normalized fault-spec string.
    pub spec: String,
    /// Tasks submitted.
    pub tasks: u32,
    /// The recovery policy in force.
    pub policy: RecoveryPolicy,
    /// One record per task, in submission order.
    pub records: Vec<TaskRecord>,
    /// Whether the cached checker was degraded to the fixed-table design.
    pub degraded: bool,
    /// Functional units quarantined by campaign end.
    pub quarantined_fus: u64,
    /// Driver setup-clock cycles burned (installs, MMIO, backoff).
    pub driver_cycles: Cycles,
    /// Denials counted by the protection mechanism live at campaign end.
    pub denied_checks: u64,
    /// Checker-cache checksum failures detected.
    pub corruption_detected: u64,
    /// Observability events recorded across the campaign.
    pub events: u64,
}

impl CampaignReport {
    /// Injected-fault counts by kind label, in stable order.
    #[must_use]
    pub fn injected_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for r in &self.records {
            if let Some(k) = r.injected {
                *m.entry(k.label()).or_insert(0) += 1;
            }
        }
        m
    }

    /// Tasks that ended in a clean completion (first try or retried).
    #[must_use]
    pub fn completed_tasks(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.resolution,
                    Resolution::Completed | Resolution::RetriedCompleted
                )
            })
            .count() as u64
    }

    /// Resolution counts by label, in stable order.
    #[must_use]
    pub fn resolution_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for r in &self.records {
            *m.entry(r.resolution.label()).or_insert(0) += 1;
        }
        m
    }

    /// Serializes the report as deterministic JSON (schema
    /// `capcheri.fault_campaign.v1`): same campaign, same bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string("capcheri.fault_campaign.v1");
        self.write_fields(&mut w);
        w.end_object();
        w.finish()
    }

    /// Writes the report's body keys (everything but `schema`) into an
    /// open JSON object — shared between `capcheri.fault_campaign.v1`
    /// and the embedded `campaign` object of `capcheri.adapt.v1`, so the
    /// two serializations cannot drift.
    pub(crate) fn write_fields(&self, w: &mut JsonWriter) {
        w.key("seed");
        w.u64(self.seed);
        w.key("spec");
        w.string(&self.spec);
        w.key("tasks");
        w.u64(u64::from(self.tasks));
        w.key("policy");
        w.begin_object();
        w.key("max_attempts");
        w.u64(u64::from(self.policy.max_attempts));
        w.key("backoff_base");
        w.u64(self.policy.backoff_base);
        w.key("watchdog_budget");
        w.u64(self.policy.watchdog_budget);
        w.key("quarantine_threshold");
        w.u64(u64::from(self.policy.quarantine_threshold));
        w.end_object();
        w.key("records");
        w.begin_array();
        for r in &self.records {
            w.begin_object();
            w.key("task");
            w.u64(u64::from(r.index));
            w.key("injected");
            w.string(r.injected.map_or("none", FaultKind::label));
            w.key("attempts");
            w.u64(u64::from(r.attempts));
            w.key("resolution");
            w.string(r.resolution.label());
            if let Some(d) = &r.denial {
                w.key("denial");
                w.string(d);
            }
            w.key("degraded");
            w.bool(r.degraded);
            w.key("tags_cleared");
            w.u64(r.tags_cleared);
            w.end_object();
        }
        w.end_array();
        w.key("injected_counts");
        w.begin_object();
        for (label, count) in self.injected_counts() {
            w.key(label);
            w.u64(count);
        }
        w.end_object();
        w.key("resolution_counts");
        w.begin_object();
        for (label, count) in self.resolution_counts() {
            w.key(label);
            w.u64(count);
        }
        w.end_object();
        w.key("degraded");
        w.bool(self.degraded);
        w.key("quarantined_fus");
        w.u64(self.quarantined_fus);
        w.key("driver_cycles");
        w.u64(self.driver_cycles);
        w.key("denied_checks");
        w.u64(self.denied_checks);
        w.key("corruption_detected");
        w.u64(self.corruption_detected);
        w.key("events");
        w.u64(self.events);
    }
}

/// The campaign workload: a small streaming kernel over the task's two
/// buffers — enough memory operations that every injection window index
/// lands on real traffic.
fn synthetic_kernel(eng: &mut dyn Engine) -> Result<(), ExecFault> {
    for i in 0..16 {
        let x = eng.load_u32(0, i)?;
        eng.store_u32(1, i, x.wrapping_add(1))?;
        eng.compute(2);
    }
    Ok(())
}

/// The driver's post-run tag audit: scans the task's buffers for set
/// capability tags and clears them. An accelerator cannot legitimately
/// mint capabilities into its buffers, so any tag found there is forged
/// (or a fault) and must not survive into the next tenant.
fn audit_task_tags(sys: &mut HeteroSystem, task: TaskId) -> Result<u64, DriverError> {
    let layout = sys.cpu_layout(task)?;
    let mut cleared = 0u64;
    for buf in &layout.buffers {
        let mut addr = buf.base;
        while addr < buf.end() {
            if sys.memory().tag(addr) {
                sys.memory_mut()
                    .set_tag_raw(addr, false)
                    .map_err(DriverError::Platform)?;
                cleared += 1;
            }
            addr += 16;
        }
    }
    Ok(cleared)
}

/// What the driver does beyond retry, backoff and quarantine; the entry
/// point picks the arm.
pub(crate) enum Recovery<'a> {
    /// [`run_campaign`]: an `InvalidTag` denial degrades the cached
    /// checker inline, and a quarantine is permanent.
    Reactive,
    /// [`crate::adapt::run_adaptive_campaign`]: no inline degradation;
    /// the controller's epoch loop decides degradation, re-promotion and
    /// quarantine release.
    Adaptive(&'a mut EpochLoop),
}

/// The system under test plus the campaign-wide state that both recovery
/// policies update.
pub(crate) struct Driver<'s> {
    pub(crate) sys: &'s mut HeteroSystem,
    /// Watchdog aborts per functional unit (parole wipes the count).
    pub(crate) fu_faults: BTreeMap<usize, u32>,
    degraded: bool,
    degrade_detections: u64,
}

impl Driver<'_> {
    /// Degrades the cached checker to the fixed table, carrying its
    /// checksum-failure count into the report. Returns whether there was
    /// a cached checker to degrade.
    pub(crate) fn degrade(&mut self) -> bool {
        let Some((detections, _)) = self.sys.degrade_to_uncached() else {
            return false;
        };
        self.degrade_detections += detections;
        self.degraded = true;
        true
    }

    /// Drives one allocated task to exactly one [`Resolution`]: inject,
    /// run under the retry loop, audit tags, deallocate.
    fn run_task(
        &mut self,
        config: &CampaignConfig,
        recovery: &mut Recovery<'_>,
        index: u32,
        task: TaskId,
        mut injected: Option<InjectedFault>,
    ) -> Result<TaskRecord, DriverError> {
        let policy = config.policy;
        let sys = &mut *self.sys;
        let fu = sys.task_fu(task)?.expect("campaign tasks are accel tasks");

        // Out-of-band injections happen before the run; a cache-corrupt
        // draw after degradation has no target left and is dropped.
        if let Some(f) = injected {
            match f.kind {
                FaultKind::TagFlip => {
                    let base = sys.cpu_layout(task)?.buffers[0].base;
                    let granules = (config.buffer_bytes / 16).max(1);
                    let addr = base + (f.at_op % granules) * 16;
                    sys.memory_mut()
                        .set_tag_raw(addr, true)
                        .expect("task buffers are in range");
                }
                FaultKind::CacheCorrupt => match sys.cached_checker_mut() {
                    Some(c) => c.corrupt_next_insert(1 << 70),
                    None => injected = None,
                },
                _ => {}
            }
        }
        if let Some(f) = injected {
            sys.record(EventKind::FaultInjected {
                task: task.0,
                fault: f.kind,
            });
        }

        let mut attempts = 0u32;
        let mut resolution = None;
        let mut denial_desc: Option<String> = None;
        let mut task_degraded = false;

        while attempts < policy.max_attempts && resolution.is_none() {
            attempts += 1;
            let engine_fault = injected.filter(|f| {
                is_engine_level(f.kind) && (attempts == 1 || persists_across_retries(f.kind))
            });
            let run = self.sys.run_accel_task(task, |eng| {
                let mut wd = WatchdogEngine::new(eng, policy.watchdog_budget);
                let mut fe = FaultyEngine::new(&mut wd, engine_fault);
                synthetic_kernel(&mut fe)
            });
            let outcome = match run {
                Ok(out) => match out.denial {
                    None => RecoveryOutcome::Completed,
                    Some(d) => RecoveryOutcome::Denied(d),
                },
                Err(DriverError::WatchdogTimeout { ops, .. }) => RecoveryOutcome::TimedOut { ops },
                Err(DriverError::TransientFault(k)) => RecoveryOutcome::Transient(k),
                Err(e) => return Err(e),
            };

            // A failed attempt carries its cause: it is retried after a
            // backoff, or once attempts run out, latched as the denial.
            let failure = match outcome {
                RecoveryOutcome::Completed => {
                    resolution = Some(if attempts > 1 {
                        Resolution::RetriedCompleted
                    } else {
                        Resolution::Completed
                    });
                    None
                }
                RecoveryOutcome::Denied(d) => {
                    // Under the reactive policy an integrity failure inside
                    // the checker cache is the degradation trigger: swap to
                    // the uncached design and retry under it.
                    if d.reason == DenyReason::InvalidTag && matches!(recovery, Recovery::Reactive)
                    {
                        task_degraded |= self.degrade();
                    }
                    Some(format!("{:?}", d.reason))
                }
                RecoveryOutcome::TimedOut { ops } => {
                    self.sys
                        .record(EventKind::WatchdogAbort { task: task.0, ops });
                    let hung = format!("engine hung after {ops} ops");
                    let count = self.fu_faults.entry(fu).or_insert(0);
                    *count += 1;
                    if *count >= policy.quarantine_threshold {
                        self.sys.quarantine_fu(fu, *count);
                        denial_desc = Some(hung);
                        resolution = Some(match recovery {
                            Recovery::Reactive => Resolution::Quarantined,
                            Recovery::Adaptive(epochs) => epochs.on_quarantine(self.sys, fu),
                        });
                        None
                    } else {
                        Some(hung)
                    }
                }
                RecoveryOutcome::Transient(kind) => Some(format!("transient fault: {kind}")),
            };
            match failure {
                Some(_) if attempts < policy.max_attempts => {
                    let sys = &mut *self.sys;
                    sys.clear_protection_exception();
                    sys.clear_task_fault(task)?;
                    let backoff = policy.backoff_after(attempts);
                    sys.advance_clock(backoff);
                    sys.record(EventKind::TaskRetry {
                        task: task.0,
                        attempt: attempts + 1,
                        backoff,
                    });
                }
                Some(cause) => {
                    denial_desc = Some(cause);
                    resolution = Some(Resolution::Denied);
                }
                None => {}
            }
        }
        let mut resolution = resolution.unwrap_or(Resolution::Denied);

        // The driver's tag audit runs on every task teardown: a forged
        // tag in a buffer must never survive to the next tenant.
        let tags_cleared = audit_task_tags(self.sys, task)?;
        if tags_cleared > 0 {
            self.sys.record(EventKind::TagAudit {
                task: task.0,
                cleared: tags_cleared,
            });
            if matches!(
                resolution,
                Resolution::Completed | Resolution::RetriedCompleted
            ) {
                resolution = Resolution::Denied;
                denial_desc = Some(format!("forged tag audit cleared {tags_cleared}"));
            }
        }

        self.sys.deallocate_task(task)?;
        Ok(TaskRecord {
            index,
            injected: injected.map(|f| f.kind),
            attempts,
            resolution,
            denial: denial_desc,
            degraded: task_degraded,
            tags_cleared,
        })
    }
}

/// The campaign's system under test: a CHERI CPU with `config.protection`
/// on the accelerator path and `config.fus` engines. The revocation sweep
/// walks the live-capability index, so campaigns run at the default
/// physical memory size — sweep cost no longer scales with it.
pub(crate) fn campaign_system(config: &CampaignConfig) -> HeteroSystem {
    let mut sys = HeteroSystem::new(SystemConfig {
        protection: config.protection,
        ..SystemConfig::default()
    });
    sys.add_fus("accel", config.fus);
    sys
}

/// The one campaign driver behind [`run_campaign`] and
/// [`crate::adapt::run_adaptive_campaign`]. The [`Recovery`] policy
/// changes only its hooks: inline degradation, the resolution of a
/// quarantine, and the epoch boundaries after each task and at the end.
pub(crate) fn drive_campaign(
    config: &CampaignConfig,
    sys: &mut HeteroSystem,
    mut recovery: Recovery<'_>,
) -> Result<CampaignReport, DriverError> {
    // Long campaigns generate events proportional to task count; the
    // bounded buffer keeps memory flat while `recorded()` (below) keeps
    // the report's event count independent of the cap.
    let tracer = SharedTracer::with_capacity(64 * 1024);
    sys.set_tracer(tracer.clone());

    let mut plan = FaultPlan::new(config.spec.clone(), config.seed);
    let mut records = Vec::with_capacity(config.tasks as usize);
    let mut drv = Driver {
        sys,
        fu_faults: BTreeMap::new(),
        degraded: false,
        degrade_detections: 0,
    };

    for index in 0..config.tasks {
        let injected = plan.sample();
        let req = TaskRequest::accel(format!("t{index}"), "accel")
            .rw_buffers([config.buffer_bytes, config.buffer_bytes]);
        let record = match drv.sys.allocate_task(&req) {
            Ok(task) => drv.run_task(config, &mut recovery, index, task, injected)?,
            Err(DriverError::NoFreeFu { .. }) => TaskRecord {
                index,
                injected: injected.map(|f| f.kind),
                attempts: 0,
                resolution: Resolution::Starved,
                denial: None,
                degraded: false,
                tags_cleared: 0,
            },
            Err(e) => return Err(e),
        };
        records.push(record);
        if let Recovery::Adaptive(epochs) = &mut recovery {
            epochs.after_task(&mut drv, index);
        }
    }
    if let Recovery::Adaptive(epochs) = &mut recovery {
        epochs.finish(&mut drv, config.tasks);
    }

    let sys = &*drv.sys;
    let mut registry = Registry::new();
    sys.export_metrics(&mut registry);
    let snapshot = registry.snapshot();
    let denied_checks = snapshot.counter("checker.denied").unwrap_or(0)
        + snapshot.counter("cache.denied").unwrap_or(0);
    let corruption_detected =
        drv.degrade_detections + sys.cached_checker().map_or(0, |c| c.corruption_detected());

    Ok(CampaignReport {
        seed: config.seed,
        spec: config.spec.to_string(),
        tasks: config.tasks,
        policy: config.policy,
        records,
        degraded: drv.degraded,
        quarantined_fus: sys.quarantined_fus() as u64,
        driver_cycles: sys.driver_clock(),
        denied_checks,
        corruption_detected,
        events: tracer.recorded(),
    })
}

/// Runs a seeded fault campaign under the reactive recovery policy and
/// returns its deterministic report.
///
/// The system under test is a CHERI CPU with `config.protection` on the
/// accelerator path (default: the cache-backed CapChecker, so the
/// degradation path is reachable) and `config.fus` engines. Every
/// task draws one injection decision, runs the synthetic kernel under
/// `kernel → FaultyEngine → WatchdogEngine → KernelEngine`, and is
/// driven to exactly one [`Resolution`] by the retry loop.
///
/// # Errors
///
/// Propagates driver platform errors ([`DriverError`]); protection
/// denials, hangs, and transients are campaign *outcomes*, not errors.
///
/// # Panics
///
/// Panics only on simulator invariant violations (e.g. a task buffer
/// outside physical memory), which would be bugs, not fault outcomes.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignReport, DriverError> {
    drive_campaign(config, &mut campaign_system(config), Recovery::Reactive)
}

/// Runs a grid of fault campaigns on a scoped worker pool and returns the
/// reports in `configs` order.
///
/// Each campaign owns its whole world — system, shared tracer, fault
/// plan, metrics registry — so campaigns are the natural fan-out unit;
/// *within* a campaign the tasks share FU-quarantine and degradation
/// state and must stay sequential. For any `threads ≥ 1` the returned
/// reports (and their [`CampaignReport::to_json`] bytes) are identical to
/// calling [`run_campaign`] in a loop.
///
/// # Errors
///
/// The first [`DriverError`] in `configs` order, if any campaign fails.
///
/// # Panics
///
/// A panicking worker is resumed on the calling thread after every worker
/// has been joined (no poisoned-lock cascade; see [`perf::WorkerPanic`]).
pub fn run_campaign_grid(
    configs: &[CampaignConfig],
    threads: usize,
) -> Result<Vec<CampaignReport>, DriverError> {
    perf::parallel_map(threads, configs.len(), |i| run_campaign(&configs[i]))
        .unwrap_or_else(|p| p.resume())
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    /// An engine that accepts everything and remembers nothing.
    struct SinkEngine;

    impl Engine for SinkEngine {
        fn load(&mut self, _: usize, _: u64, _: u8) -> Result<u64, ExecFault> {
            Ok(0)
        }
        fn store(&mut self, _: usize, _: u64, _: u8, _: u64) -> Result<(), ExecFault> {
            Ok(())
        }
        fn compute(&mut self, _: u64) {}
    }

    fn campaign(spec: &str, tasks: u32, seed: u64) -> CampaignReport {
        run_campaign(&CampaignConfig {
            tasks,
            seed,
            spec: FaultSpec::from_str(spec).unwrap(),
            ..CampaignConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn watchdog_aborts_over_budget() {
        let mut sink = SinkEngine;
        let mut wd = WatchdogEngine::new(&mut sink, 4);
        assert!(wd.load(0, 0, 4).is_ok());
        wd.compute(2);
        assert!(wd.store(0, 0, 4, 1).is_ok()); // spent = 4 = budget
        assert!(!wd.tripped());
        assert!(matches!(wd.load(0, 0, 4), Err(ExecFault::Hung { ops: 5 })));
        assert!(wd.tripped());
    }

    #[test]
    fn watchdog_clamps_runaway_compute() {
        let mut sink = SinkEngine;
        let mut wd = WatchdogEngine::new(&mut sink, 100);
        wd.compute(u64::MAX); // the hang spin
        assert!(wd.tripped());
        assert!(matches!(wd.load(0, 0, 1), Err(ExecFault::Hung { .. })));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let policy = RecoveryPolicy::default();
        // The documented schedule for the default policy is unchanged.
        assert_eq!(policy.backoff_after(1), 64);
        assert_eq!(policy.backoff_after(2), 128);
        assert_eq!(policy.backoff_after(3), 256);
        // Shifts that would overflow saturate to Cycles::MAX...
        assert_eq!(policy.backoff_after(64), Cycles::MAX);
        assert_eq!(policy.backoff_after(65), Cycles::MAX);
        assert_eq!(policy.backoff_after(u32::MAX), Cycles::MAX);
        // ...including lost-top-bit overflow below the shift-width limit.
        let wide = RecoveryPolicy {
            backoff_base: 1 << 62,
            ..RecoveryPolicy::default()
        };
        assert_eq!(wide.backoff_after(2), 1 << 63);
        assert_eq!(wide.backoff_after(3), Cycles::MAX);
        // A zero base never waits, no matter the attempt count.
        let zero = RecoveryPolicy {
            backoff_base: 0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(zero.backoff_after(100), 0);
    }

    #[test]
    fn huge_max_attempts_campaign_does_not_panic() {
        // Regression: with max_attempts ≥ 64 the old `base << (n-1)`
        // overflowed the shift on persistently-failing tasks. The
        // garbled-dma fault persists across retries, so every attempt
        // fails and the backoff schedule is walked all the way out.
        let r = run_campaign(&CampaignConfig {
            tasks: 2,
            seed: 7,
            spec: FaultSpec::from_str("garbled-dma:1").unwrap(),
            policy: RecoveryPolicy {
                max_attempts: 70,
                ..RecoveryPolicy::default()
            },
            ..CampaignConfig::default()
        })
        .unwrap();
        for t in &r.records {
            assert_eq!(t.resolution, Resolution::Denied);
            assert_eq!(t.attempts, 70);
        }
        // The driver clock saturated rather than wrapping.
        assert_eq!(r.driver_cycles, Cycles::MAX);
    }

    #[test]
    fn probation_label_is_distinct_and_absent_without_controller() {
        assert_eq!(
            Resolution::QuarantinedProbation.label(),
            "quarantined-probation"
        );
        assert_ne!(
            Resolution::QuarantinedProbation.label(),
            Resolution::Quarantined.label()
        );
        // The plain campaign (controller off) never produces it, keeping
        // capcheri.fault_campaign.v1 bytes unchanged.
        let r = campaign("engine-hang:1", 6, 7);
        assert!(r
            .records
            .iter()
            .all(|t| t.resolution != Resolution::QuarantinedProbation));
        assert!(!r.to_json().contains("quarantined-probation"));
    }

    #[test]
    fn clean_campaign_all_complete() {
        let r = campaign("none", 8, 1);
        assert_eq!(r.records.len(), 8);
        assert!(r
            .records
            .iter()
            .all(|t| t.resolution == Resolution::Completed && t.attempts == 1));
        assert!(!r.degraded);
        assert_eq!(r.denied_checks, 0);
    }

    #[test]
    fn same_seed_same_bytes() {
        let a = campaign("all:0.9", 24, 42);
        let b = campaign("all:0.9", 24, 42);
        assert_eq!(a.to_json(), b.to_json());
        let c = campaign("all:0.9", 24, 43);
        assert_ne!(a.to_json(), c.to_json(), "a different seed must differ");
        obs::json::validate(&a.to_json()).unwrap();
    }

    #[test]
    fn rogue_dma_is_denied_then_retried() {
        let r = campaign("rogue-dma:1", 4, 7);
        for t in &r.records {
            assert_eq!(t.injected, Some(FaultKind::RogueDma));
            assert_eq!(t.resolution, Resolution::RetriedCompleted);
            assert_eq!(t.attempts, 2);
        }
        assert!(r.denied_checks >= 4);
    }

    #[test]
    fn garbled_dma_exhausts_retries_with_latched_denial() {
        let r = campaign("garbled-dma:1", 4, 7);
        for t in &r.records {
            assert_eq!(t.resolution, Resolution::Denied);
            assert_eq!(t.attempts, r.policy.max_attempts);
            assert!(t.denial.is_some(), "the denial cause is on record");
        }
    }

    #[test]
    fn engine_hangs_quarantine_then_starve() {
        let r = campaign("engine-hang:1", 6, 7);
        let counts = r.resolution_counts();
        assert_eq!(counts.get("quarantined"), Some(&4), "one per engine");
        assert_eq!(counts.get("starved"), Some(&2), "no healthy engine left");
        assert_eq!(r.quarantined_fus, 4);
    }

    #[test]
    fn dropped_beats_retry_cleanly() {
        let r = campaign("dropped-beat:1", 4, 7);
        for t in &r.records {
            assert_eq!(t.resolution, Resolution::RetriedCompleted);
            assert_eq!(t.attempts, 2);
        }
    }

    #[test]
    fn forged_tags_are_audited_away() {
        let r = campaign("tag-flip:1", 4, 7);
        for t in &r.records {
            assert_eq!(t.resolution, Resolution::Denied);
            assert_eq!(t.tags_cleared, 1);
        }
    }

    #[test]
    fn cache_corruption_degrades_once_then_runs_uncached() {
        let r = campaign("cache-corrupt:1", 6, 7);
        assert!(r.degraded);
        assert_eq!(r.corruption_detected, 1, "one checksum failure, caught");
        let first = &r.records[0];
        assert_eq!(first.resolution, Resolution::RetriedCompleted);
        assert!(first.degraded);
        // After degradation the cache no longer exists to corrupt: later
        // draws are dropped and the tasks run clean on the fixed table.
        for t in &r.records[1..] {
            assert_eq!(t.injected, None);
            assert_eq!(t.resolution, Resolution::Completed);
        }
    }

    #[test]
    fn no_task_is_silently_lost() {
        for seed in 0..8 {
            let r = campaign("all:0.8", 16, seed);
            assert_eq!(r.records.len(), 16, "one record per task");
            let injected: u64 = r.injected_counts().values().sum();
            // Every injected fault ended in an explicit non-clean
            // resolution; clean completion only happens uninjected.
            for t in &r.records {
                if t.injected.is_some() {
                    assert_ne!(t.resolution, Resolution::Completed);
                }
            }
            // Injections are visible in the event stream too.
            assert!(r.events >= injected, "events cover at least the injections");
        }
    }
}
