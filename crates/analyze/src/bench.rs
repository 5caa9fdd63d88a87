//! Static analysis of MachSuite benchmark configurations.
//!
//! Two static inputs exist per benchmark before any simulated cycle: the
//! declared port map ([`machsuite::ports`]) and the grant table a driver
//! intends to install. This module checks both:
//!
//! * [`audit_grants`] compares a grant table against the declaration —
//!   a grant wider than its port's declared direction is
//!   **over-privileged**, and address ranges shared across tasks are
//!   **port aliasing** (one task's writes reach another's compartment);
//! * [`analyze_benchmark`] replays the kernel deterministically through
//!   [`hetsim::KernelEngine`] and checks the observed traffic against
//!   the declaration: every access inside the declared direction and the
//!   placed buffer region proves the port **safe** to elide; anything
//!   undeclared or out of region is a provable violation.
//!
//! The safe verdicts become a [`capchecker::StaticVerdictMap`] the bench
//! runner installs before simulation, and the declared directions become
//! the least-privilege device-side permissions
//! ([`declared_perms`]) handed to `TaskRequest::device_ports`.

use crate::Finding;
use capchecker::{StaticVerdict, StaticVerdictMap};
use cheri::Perms;
use hetsim::{KernelEngine, ObjectId, TaggedMemory, TaskId, TraceOp};
use machsuite::{ports::ports, Benchmark, PortMode};

/// Where [`analyze_benchmark`] places the task's buffers. Any base works —
/// the analysis is position-independent — but a fixed one keeps reports
/// byte-stable.
pub const ANALYSIS_BASE: u64 = 0x1_0000;

/// One row of a driver's intended grant table, as known statically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticGrant {
    /// Granted task.
    pub task: u32,
    /// Port index the grant backs.
    pub object: u16,
    /// First byte of the granted range.
    pub base: u64,
    /// Length of the granted range in bytes.
    pub size: u64,
    /// Granted data permissions.
    pub perms: Perms,
}

impl StaticGrant {
    fn end(&self) -> u64 {
        self.base.saturating_add(self.size)
    }

    fn overlaps(&self, other: &StaticGrant) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

/// What the replay proved about one port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortReport {
    /// Port (buffer) name from the workload definition.
    pub name: &'static str,
    /// Declared direction.
    pub mode: PortMode,
    /// Least-privilege device permissions the declaration implies.
    pub declared: Perms,
    /// `true` if the replay read through the port.
    pub read: bool,
    /// `true` if the replay wrote through the port.
    pub write: bool,
    /// Lowest address touched (`u64::MAX` when untouched).
    pub lo: u64,
    /// One past the highest address touched (0 when untouched).
    pub hi: u64,
    /// The port's placed region.
    pub region: (u64, u64),
    /// The verdict: `Safe` when every observed access is declared and in
    /// region (vacuously for untouched ports), `Unsafe` on a provable
    /// violation.
    pub verdict: StaticVerdict,
}

/// The full static analysis of one benchmark configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchAnalysis {
    /// Analyzed benchmark.
    pub bench: Benchmark,
    /// Replay seed the envelope came from.
    pub seed: u64,
    /// Per-port reports, in buffer order.
    pub ports: Vec<PortReport>,
    /// Provable problems (empty for every stock configuration).
    pub findings: Vec<Finding>,
}

impl BenchAnalysis {
    /// `true` when every port is provably safe — the precondition for
    /// running the benchmark with checks elided.
    #[must_use]
    pub fn all_safe(&self) -> bool {
        self.ports.iter().all(|p| p.verdict == StaticVerdict::Safe)
    }

    /// The verdict map to install for `task` before simulation.
    #[must_use]
    pub fn verdict_map(&self, task: TaskId) -> StaticVerdictMap {
        let mut map = StaticVerdictMap::new();
        for (i, p) in self.ports.iter().enumerate() {
            map.set(task, ObjectId(i as u16), p.verdict);
        }
        map
    }
}

/// The least-privilege device-side permissions a port mode implies.
#[must_use]
pub fn mode_perms(mode: PortMode) -> Perms {
    match mode {
        PortMode::In => Perms::LOAD,
        PortMode::Out => Perms::STORE,
        PortMode::InOut => Perms::RW,
        PortMode::Unused => Perms::NONE,
    }
}

/// The least-privilege device permissions for every port of `bench`, in
/// buffer order — ready for `TaskRequest::device_ports`.
#[must_use]
pub fn declared_perms(bench: Benchmark) -> Vec<Perms> {
    ports(bench).iter().map(|&m| mode_perms(m)).collect()
}

/// Audits a driver's grant table against a benchmark's declared ports.
///
/// Produces `over-privilege` findings for grants wider than the declared
/// direction (judged against the *declaration*, never a particular
/// trace, so the audit is seed-independent) and `port-aliasing` findings
/// for ranges that overlap across tasks.
#[must_use]
pub fn audit_grants(bench: Benchmark, grants: &[StaticGrant]) -> Vec<Finding> {
    let declared = ports(bench);
    let defs = bench.buffers();
    let mut findings = Vec::new();
    for g in grants {
        let Some(&mode) = declared.get(usize::from(g.object)) else {
            findings.push(Finding {
                category: "no-entry",
                subject: format!("{} task {} object {}", bench.name(), g.task, g.object),
                detail: format!(
                    "grant for a port the benchmark does not have (it has {})",
                    declared.len()
                ),
                op: None,
                count: 1,
            });
            continue;
        };
        let allowed = mode_perms(mode);
        let data = g.perms.intersect(Perms::RW);
        if !allowed.contains(data) {
            let excess = data.intersect(!allowed);
            findings.push(Finding {
                category: "over-privilege",
                subject: format!(
                    "{} task {} port {}",
                    bench.name(),
                    g.task,
                    defs[usize::from(g.object)].name
                ),
                detail: format!(
                    "grant carries {excess} beyond the declared {} direction",
                    mode.label()
                ),
                op: None,
                count: 1,
            });
        }
    }
    for (i, a) in grants.iter().enumerate() {
        for b in &grants[i + 1..] {
            if a.task != b.task && a.overlaps(b) {
                findings.push(Finding {
                    category: "port-aliasing",
                    subject: format!(
                        "{} tasks {} and {}",
                        bench.name(),
                        a.task.min(b.task),
                        a.task.max(b.task)
                    ),
                    detail: format!(
                        "grants for objects {} and {} overlap at [{:#x}, {:#x})",
                        a.object,
                        b.object,
                        a.base.max(b.base),
                        a.end().min(b.end())
                    ),
                    op: None,
                    count: 1,
                });
            }
        }
    }
    findings
}

/// Replays `bench` deterministically and classifies every port.
///
/// The replay is exact — [`KernelEngine`] records every transfer the
/// kernel makes — so an access outside the declared direction or the
/// placed region is a proof, not a heuristic. Conversely a port whose
/// whole envelope sits inside its declared, in-region contract is safe
/// to elide: the runtime checker could never deny it.
///
/// # Panics
///
/// If the kernel itself faults on its stock input, which no MachSuite
/// kernel does.
#[must_use]
pub fn analyze_benchmark(bench: Benchmark, seed: u64) -> BenchAnalysis {
    let layout = bench.place(ANALYSIS_BASE);
    let mut mem = TaggedMemory::new(8 << 20);
    for (i, img) in bench.init(seed).iter().enumerate() {
        mem.write_bytes(layout.address(i, 0), img).unwrap();
    }
    let mut eng = KernelEngine::new(&mut mem, layout.clone());
    bench.kernel(&mut eng).unwrap();

    let declared = ports(bench);
    let defs = bench.buffers();
    let n = defs.len();
    let mut read = vec![false; n];
    let mut write = vec![false; n];
    let mut lo = vec![u64::MAX; n];
    let mut hi = vec![0u64; n];
    let resolve = |addr: u64| {
        layout
            .buffers
            .iter()
            .position(|r| addr >= r.base && addr < r.end())
    };
    let mut touch = |obj: usize, addr: u64, len: u64, is_write: bool| {
        if is_write {
            write[obj] = true;
        } else {
            read[obj] = true;
        }
        lo[obj] = lo[obj].min(addr);
        hi[obj] = hi[obj].max(addr.saturating_add(len));
    };
    for op in eng.trace().ops() {
        match op {
            TraceOp::Mem {
                write: w,
                object,
                addr,
                bytes,
            } => touch(*object as usize, *addr, u64::from(*bytes), *w),
            TraceOp::Copy { src, dst, bytes } => {
                if let Some(o) = resolve(*src) {
                    touch(o, *src, *bytes, false);
                }
                if let Some(o) = resolve(*dst) {
                    touch(o, *dst, *bytes, true);
                }
            }
            TraceOp::Compute(_) => {}
        }
    }

    let mut findings = Vec::new();
    let mut reports = Vec::with_capacity(n);
    for i in 0..n {
        let mode = declared[i];
        let region = &layout.buffers[i];
        let mut safe = true;
        if (read[i] && !mode.reads()) || (write[i] && !mode.writes()) {
            safe = false;
            let dir = if read[i] && !mode.reads() {
                "reads"
            } else {
                "writes"
            };
            findings.push(Finding {
                category: "undeclared-access",
                subject: format!("{} port {}", bench.name(), defs[i].name),
                detail: format!("kernel {dir} a port declared {}", mode.label()),
                op: None,
                count: 1,
            });
        }
        let touched = read[i] || write[i];
        if touched && (lo[i] < region.base || hi[i] > region.end()) {
            safe = false;
            findings.push(Finding {
                category: "out-of-bounds",
                subject: format!("{} port {}", bench.name(), defs[i].name),
                detail: format!(
                    "envelope [{:#x}, {:#x}) escapes the placed region [{:#x}, {:#x})",
                    lo[i],
                    hi[i],
                    region.base,
                    region.end()
                ),
                op: None,
                count: 1,
            });
        }
        reports.push(PortReport {
            name: defs[i].name,
            mode,
            declared: mode_perms(mode),
            read: read[i],
            write: write[i],
            lo: lo[i],
            hi: hi[i],
            region: (region.base, region.end()),
            verdict: if safe {
                StaticVerdict::Safe
            } else {
                StaticVerdict::Unsafe
            },
        });
    }

    BenchAnalysis {
        bench,
        seed,
        ports: reports,
        findings,
    }
}

/// The grant table the current driver installs for `bench`: one RW grant
/// per port, exactly covering its placed region — what
/// `HeteroSystem::allocate_task` does without `device_ports`. The audit
/// of this table against the declaration is what motivates the
/// least-privilege narrowing.
#[must_use]
pub fn default_grants(bench: Benchmark, task: u32) -> Vec<StaticGrant> {
    let layout = bench.place(ANALYSIS_BASE);
    layout
        .buffers
        .iter()
        .enumerate()
        .map(|(i, r)| StaticGrant {
            task,
            object: i as u16,
            base: r.base,
            size: r.size,
            perms: Perms::RW,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stock_benchmark_is_fully_safe() {
        for b in Benchmark::ALL {
            let a = analyze_benchmark(b, 1);
            assert!(a.findings.is_empty(), "{b}: {:#?}", a.findings);
            assert!(a.all_safe(), "{b} not all safe");
        }
    }

    #[test]
    fn verdict_map_covers_every_port() {
        let a = analyze_benchmark(Benchmark::GemmNcubed, 1);
        let map = a.verdict_map(TaskId(3));
        assert_eq!(map.safe_pairs(), a.ports.len() as u64);
        assert!(map.is_safe(TaskId(3), ObjectId(0)));
        assert!(!map.is_safe(TaskId(4), ObjectId(0)));
    }

    #[test]
    fn default_rw_grants_are_over_privileged_on_directional_ports() {
        // gemm-ncubed declares a, b as In and c as Out: RW on all three
        // is three over-privilege findings.
        let grants = default_grants(Benchmark::GemmNcubed, 0);
        let findings = audit_grants(Benchmark::GemmNcubed, &grants);
        let over: Vec<_> = findings
            .iter()
            .filter(|f| f.category == "over-privilege")
            .collect();
        assert_eq!(over.len(), 3, "{findings:#?}");
        // Least-privilege grants audit clean.
        let narrowed: Vec<StaticGrant> = grants
            .iter()
            .zip(declared_perms(Benchmark::GemmNcubed))
            .map(|(g, p)| StaticGrant { perms: p, ..*g })
            .collect();
        assert!(audit_grants(Benchmark::GemmNcubed, &narrowed).is_empty());
    }

    #[test]
    fn cross_task_overlap_is_port_aliasing() {
        let mut grants = default_grants(Benchmark::Aes, 0);
        let mut alias = grants[0];
        alias.task = 1;
        alias.base += 16; // partial overlap with task 0's block buffer
        grants.push(alias);
        let findings = audit_grants(Benchmark::Aes, &grants);
        assert!(
            findings.iter().any(|f| f.category == "port-aliasing"),
            "{findings:#?}"
        );
        // Same-task overlap (e.g. re-grant) is not aliasing.
        let same_task = audit_grants(Benchmark::Aes, &[grants[0], grants[0]]);
        assert!(same_task.iter().all(|f| f.category != "port-aliasing"));
    }

    #[test]
    fn grant_for_missing_port_is_flagged() {
        let g = StaticGrant {
            task: 0,
            object: 9,
            base: ANALYSIS_BASE,
            size: 64,
            perms: Perms::LOAD,
        };
        let findings = audit_grants(Benchmark::Aes, &[g]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].category, "no-entry");
    }

    #[test]
    fn unused_ports_are_vacuously_safe_with_no_perms() {
        let a = analyze_benchmark(Benchmark::MdGrid, 1);
        let unused: Vec<_> = a
            .ports
            .iter()
            .filter(|p| p.mode == PortMode::Unused)
            .collect();
        assert_eq!(unused.len(), 3);
        for p in unused {
            assert_eq!(p.verdict, StaticVerdict::Safe);
            assert!(!p.read && !p.write);
            assert_eq!(p.declared, Perms::NONE);
        }
    }

    #[test]
    fn declared_perms_match_modes() {
        assert_eq!(
            declared_perms(Benchmark::GemmNcubed),
            vec![Perms::LOAD, Perms::LOAD, Perms::STORE]
        );
        assert_eq!(mode_perms(PortMode::InOut), Perms::RW);
        assert_eq!(mode_perms(PortMode::Unused), Perms::NONE);
    }
}
