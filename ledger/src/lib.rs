//! The simulator's benchmark: three closed-loop, single-thread workloads
//! built from many short timed units, each run round-robin for as many
//! rounds as the time budget allows.
//!
//! A workload's `pass_s` is the sum over its units of each unit's median
//! host time across rounds — not the wall time of one pass, which on a
//! small shared VM swings far more than a per-unit median does. Host
//! times are brought to a reference host speed with the readings of a
//! fixed probe taken between units ([`host`]). A traced run interleaves
//! untraced and traced rounds, records a span around every call into a
//! layer, and reports per-layer self time and counts.

pub mod cells;
pub mod host;
pub mod spans;
pub mod stats;
pub mod verify;

pub use cells::{Cell, CellInputs};
pub use spans::Recorder;

use capchecker::SystemVariant;
use capcheri_bench::geomean;
use capcheri_bench::runner;
use machsuite::Benchmark;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use verify::Stream;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fewest timed rounds per mode (untraced, and traced when tracing),
/// whatever the time budget.
pub const MIN_ROUNDS: usize = 3;
/// Ops per conformance stream in `checker_verify`.
pub const STREAM_OPS: usize = 20_000;
/// Conformance streams in `checker_verify`.
pub const STREAMS: usize = 5;
/// Concurrent tasks per cell in `bus_contention`.
pub const CONTENDING_TASKS: usize = 8;

/// Deterministic work counts of one unit execution. Every round must
/// reproduce the set-up round's counts exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `HeteroSystem::new` calls.
    pub system_new: u64,
    /// Simulated cycles (makespan).
    pub cycles: u64,
    /// Trace ops the kernels recorded.
    pub trace_ops: u64,
    /// Bytes those trace ops occupy.
    pub trace_bytes: u64,
    /// Interconnect beats the timing core costed.
    pub bus_beats: u64,
    /// Input bytes written into simulated memory.
    pub write_bytes: u64,
    /// Checks the checker granted.
    pub granted: u64,
    /// Cache-backed checker hits.
    pub hits: u64,
    /// Cache-backed checker misses.
    pub misses: u64,
    /// Bytes of serialized run report.
    pub report_bytes: u64,
    /// Conformance ops replayed.
    pub replay_ops: u64,
    /// Flow-analysis units judged from scratch.
    pub flow_units: u64,
    /// Flow-analysis units the incremental engine handled.
    pub incremental_units: u64,
    /// Of those, units it reused from its cache.
    pub incremental_reused: u64,
    /// Model-checker transitions applied.
    pub mc_transitions: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.system_new += o.system_new;
        self.cycles += o.cycles;
        self.trace_ops += o.trace_ops;
        self.trace_bytes += o.trace_bytes;
        self.bus_beats += o.bus_beats;
        self.write_bytes += o.write_bytes;
        self.granted += o.granted;
        self.hits += o.hits;
        self.misses += o.misses;
        self.report_bytes += o.report_bytes;
        self.replay_ops += o.replay_ops;
        self.flow_units += o.flow_units;
        self.incremental_units += o.incremental_units;
        self.incremental_reused += o.incremental_reused;
        self.mc_transitions += o.mc_transitions;
    }
}

/// The benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 19 kernels × the 5 §6.3 variants at one task (Figures 7, 8, 10).
    PaperCells,
    /// 19 kernels on `ccpu+caccel` with 8 tasks behind a 4-entry
    /// cache-backed checker (Figures 9, 11).
    BusContention,
    /// Conformance replay, flow analysis and bounded model checking.
    CheckerVerify,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCells,
        Workload::BusContention,
        Workload::CheckerVerify,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCells => "paper_cells",
            Workload::BusContention => "bus_contention",
            Workload::CheckerVerify => "checker_verify",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a workload runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Kernel cells, one unit each.
    pub cells: Vec<Cell>,
    /// Conformance streams, three units each (replay, from-scratch flow,
    /// incremental flow).
    pub streams: usize,
    /// Ops per stream.
    pub stream_ops: usize,
    /// Whether one model-checker exploration is a unit.
    pub explore: bool,
}

impl Plan {
    /// The full plan of `workload`.
    pub fn of(workload: Workload) -> Plan {
        let none = Plan {
            cells: Vec::new(),
            streams: 0,
            stream_ops: 0,
            explore: false,
        };
        match workload {
            Workload::PaperCells => Plan {
                cells: Benchmark::ALL
                    .into_iter()
                    .flat_map(|bench| {
                        SystemVariant::ALL.into_iter().map(move |variant| Cell {
                            bench,
                            variant,
                            tasks: 1,
                            cached: false,
                        })
                    })
                    .collect(),
                ..none
            },
            Workload::BusContention => Plan {
                cells: Benchmark::ALL
                    .into_iter()
                    .map(|bench| Cell {
                        bench,
                        variant: SystemVariant::CheriCpuCheriAccel,
                        tasks: CONTENDING_TASKS,
                        cached: true,
                    })
                    .collect(),
                ..none
            },
            Workload::CheckerVerify => Plan {
                streams: STREAMS,
                stream_ops: STREAM_OPS,
                explore: true,
                ..none
            },
        }
    }
}

/// One timed operation of a workload.
#[derive(Debug)]
enum Unit {
    Cell(Cell, CellInputs),
    Replay(usize),
    Flow(usize),
    Incremental(usize),
    Explore,
}

/// A plan's units with their inputs and references, ready to run.
#[derive(Debug)]
pub struct Workbench {
    units: Vec<Unit>,
    streams: Vec<Stream>,
}

impl Workbench {
    /// Draws every input from `seed` and computes the references.
    ///
    /// # Errors
    ///
    /// A reference computation failed (a conformance stream diverged).
    pub fn new(plan: &Plan, seed: u64) -> Result<Workbench, String> {
        let mut units: Vec<Unit> = plan
            .cells
            .iter()
            .map(|&cell| Unit::Cell(cell, cell.inputs(seed)))
            .collect();
        let streams = (0..plan.streams)
            .map(|i| Stream::new(stream_seed(seed, i), plan.stream_ops))
            .collect::<Result<Vec<_>, _>>()?;
        for i in 0..plan.streams {
            units.extend([Unit::Replay(i), Unit::Flow(i), Unit::Incremental(i)]);
        }
        if plan.explore {
            units.push(Unit::Explore);
        }
        Ok(Workbench { units, streams })
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the plan had no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The cell behind unit `i`, if it is one.
    pub fn cell(&self, i: usize) -> Option<(Cell, &CellInputs)> {
        match &self.units[i] {
            Unit::Cell(cell, inputs) => Some((*cell, inputs)),
            _ => None,
        }
    }

    /// Mutable inputs of the cell behind unit `i`, to plant a wrong
    /// reference in tests.
    pub fn cell_inputs_mut(&mut self, i: usize) -> Option<&mut CellInputs> {
        match &mut self.units[i] {
            Unit::Cell(_, inputs) => Some(inputs),
            _ => None,
        }
    }

    /// The conformance streams, in unit order.
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// Short label of unit `i`.
    pub fn label(&self, i: usize) -> String {
        match &self.units[i] {
            Unit::Cell(cell, _) => cell.label(),
            Unit::Replay(s) => format!("replay#{s}"),
            Unit::Flow(s) => format!("flow#{s}"),
            Unit::Incremental(s) => format!("incremental#{s}"),
            Unit::Explore => format!("explore/depth{}", verify::MC_DEPTH),
        }
    }

    /// Runs unit `i` once.
    ///
    /// # Errors
    ///
    /// The unit's outputs or counts were wrong.
    pub fn run_unit(
        &mut self,
        i: usize,
        rec: &mut Recorder,
        check_outputs: bool,
    ) -> Result<Counts, String> {
        match &self.units[i] {
            Unit::Cell(cell, inputs) => cell.run(inputs, rec, check_outputs),
            Unit::Replay(s) => self.streams[*s].replay(rec),
            Unit::Flow(s) => self.streams[*s].flow(rec),
            &Unit::Incremental(s) => self.streams[s].incremental(rec),
            Unit::Explore => verify::explore_once(rec),
        }
    }

    /// Simulated cycles of `bench` under `variant` at one task for this
    /// seed: from a set-up reference when the plan has that cell, else
    /// from the runner.
    fn cycles(&self, bench: Benchmark, variant: SystemVariant, seed: u64) -> u64 {
        let cell = Cell {
            bench,
            variant,
            tasks: 1,
            cached: false,
        };
        self.units
            .iter()
            .find_map(|u| match u {
                Unit::Cell(c, inputs) if *c == cell => Some(inputs.cycles),
                _ => None,
            })
            .unwrap_or_else(|| runner::run_benchmark(bench, variant, 1, seed).cycles)
    }
}

fn stream_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// Figure 8's performance panel for this seed's inputs: the geometric
/// mean over the 19 kernels of the simulated-cycle overhead of
/// `ccpu+caccel` over `ccpu+accel`, in percent. Simulated time from an
/// unvalidated model.
pub fn checker_overhead_pct(bench: &Workbench, seed: u64) -> f64 {
    let overheads: Vec<f64> = Benchmark::ALL
        .into_iter()
        .map(|b| {
            let base = bench.cycles(b, SystemVariant::CheriCpuAccel, seed) as f64;
            let checked = bench.cycles(b, SystemVariant::CheriCpuCheriAccel, seed) as f64;
            ((checked - base) / base).max(1e-6)
        })
        .collect();
    geomean(&overheads) * 100.0
}

/// Run parameters from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Time budget of the timed rounds, in seconds.
    pub seconds: f64,
    /// Interleave traced rounds and report per-layer metrics.
    pub trace: bool,
}

/// A metric as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Unit executions, set-up rounds included.
    pub attempted: u64,
    /// Unit executions that failed a check.
    pub failed: u64,
    /// Up to [`MAX_FAILURE_NOTES`] failure descriptions.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Noise diagnostics as one JSON object.
    pub diagnostics: String,
    /// Per-unit counts of the last set-up round, for cross-run checks.
    pub counts: Vec<Option<Counts>>,
    /// The spans of the traced rounds (empty when untraced).
    pub recorder: Recorder,
}

/// Failure descriptions kept per run.
pub const MAX_FAILURE_NOTES: usize = 8;

struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, label: impl FnOnce() -> String, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures.push(format!("{}: {e}", label()));
            }
        }
    }
}

/// Runs `unit` under `catch_unwind`, turning a panic into a failure.
fn run_caught(
    bench: &mut Workbench,
    unit: usize,
    rec: &mut Recorder,
    check_outputs: bool,
) -> Result<Counts, String> {
    catch_unwind(AssertUnwindSafe(|| {
        bench.run_unit(unit, rec, check_outputs)
    }))
    .unwrap_or_else(|_| Err("panicked".into()))
}

/// Sets up [`SETUP_REPS`] times with `setup` (normally
/// `Workbench::new(&Plan::of(workload), opts.seed)`), then runs timed
/// rounds for `opts.seconds`, and reports end-to-end or per-layer
/// metrics.
pub fn run(
    workload: Workload,
    opts: Options,
    mut setup: impl FnMut() -> Result<Workbench, String>,
) -> Outcome {
    let steal_before = cpu_ticks();
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut rec = Recorder::new();

    // Set-up: inputs, references and a cold round that also checks every
    // kernel output. Several set-ups, so `setup_s` is a median; the median
    // of three host-speed readings before and after each one gives its
    // host speed.
    let bracket = || stats::median(&[host::probe(), host::probe(), host::probe()]);
    let mut setup_raw = Vec::with_capacity(SETUP_REPS);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut probe_before = bracket();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        ready = None;
        let mut bench = match setup() {
            Ok(b) => b,
            Err(e) => {
                tally.record(|| "set-up".into(), Err(e));
                continue;
            }
        };
        let mut counts = Vec::with_capacity(bench.len());
        for u in 0..bench.len() {
            rec.enter_unit(u as u32, 0);
            let result = run_caught(&mut bench, u, &mut rec, true);
            counts.push(result.as_ref().ok().copied());
            tally.record(|| bench.label(u), result.map(drop));
        }
        let overhead = checker_overhead_pct(&bench, opts.seed);
        let raw = t0.elapsed().as_secs_f64();
        let probe_after = bracket();
        setup_raw.push(raw);
        setup_s.push(raw * host::scale((probe_before + probe_after) / 2.0));
        probe_before = probe_after;
        ready = Some((bench, counts, overhead));
    }
    let Some((mut bench, counts, overhead)) = ready else {
        return Outcome {
            attempted: tally.attempted.max(1),
            failed: tally.failed.max(1),
            failures: tally.failures,
            metrics: Vec::new(),
            diagnostics: "{}".into(),
            counts: Vec::new(),
            recorder: rec,
        };
    };

    // Timed rounds, round-robin over the units, with host-speed readings
    // between units. Traced and untraced rounds alternate so both see the
    // same drift in host speed.
    let n = bench.len();
    let mut raw = vec![Vec::new(); n];
    let mut samples = vec![Vec::new(); n];
    let mut traced_samples = vec![Vec::new(); n];
    let mut round_totals = Vec::new();
    let mut traced_rounds = 0;
    let mut reading = host::probe();
    let mut probes = vec![reading];
    // Host-speed scale of each traced `(unit, round)`.
    let mut scales = BTreeMap::new();
    let start = Instant::now();
    let mut round: u32 = 1;
    loop {
        let tracing = opts.trace && round.is_multiple_of(2);
        let enough =
            round_totals.len() >= MIN_ROUNDS && (!opts.trace || traced_rounds >= MIN_ROUNDS);
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / f64::from(round - 1).max(1.0);
        if enough && elapsed + per_round > opts.seconds {
            break;
        }
        rec.set_enabled(tracing);
        let mut total = 0.0;
        let mut pending = Vec::new();
        let mut since_reading = 0.0;
        for (u, &want) in counts.iter().enumerate() {
            rec.enter_unit(u as u32, round);
            let t0 = Instant::now();
            let open = rec.begin("unit");
            let result = run_caught(&mut bench, u, &mut rec, false);
            rec.end(open);
            let dt = t0.elapsed().as_secs_f64();
            let result = result.and_then(|c| match want {
                Some(want) if want == c => Ok(()),
                _ => Err(format!("counts {c:?} differ from the set-up round")),
            });
            tally.record(|| bench.label(u), result);
            pending.push((u, dt));
            since_reading += dt;
            if since_reading < host::PROBE_EVERY_S && u + 1 < n {
                continue;
            }
            let next = host::probe();
            probes.push(next);
            let scale = host::scale((reading + next) / 2.0);
            reading = next;
            since_reading = 0.0;
            for (u, dt) in pending.drain(..) {
                if tracing {
                    traced_samples[u].push(dt * scale);
                    scales.insert((u as u32, round), scale);
                } else {
                    total += dt;
                    raw[u].push(dt);
                    samples[u].push(dt * scale);
                }
            }
        }
        if tracing {
            traced_rounds += 1;
        } else {
            round_totals.push(total);
        }
        round += 1;
    }
    rec.set_enabled(false);
    let measured_s = start.elapsed().as_secs_f64();
    let steal = steal_pct(steal_before, cpu_ticks());

    let pass_s = sum_of_medians(&samples);
    let mut total = Counts::default();
    for c in counts.iter().flatten() {
        total.add(c);
    }
    let metrics = if opts.trace {
        per_layer(
            &bench,
            &rec,
            &scales,
            &total,
            pass_s,
            sum_of_medians(&traced_samples),
        )
    } else {
        vec![
            Metric {
                name: "pass_s",
                value: pass_s,
                unit: "s",
            },
            Metric {
                name: "setup_s",
                value: stats::median(&setup_s),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
            Metric {
                name: "checker_overhead_pct",
                value: overhead,
                unit: "%",
            },
        ]
    };
    let quartiles = |v: &[f64]| {
        let [q1, q2, q3] = stats::quartiles(v);
        format!("{{\"q1\":{q1},\"median\":{q2},\"q3\":{q3}}}")
    };
    let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let rounds = round_totals.len();
    let diagnostics = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"units\":{n},\"rounds\":{rounds},\
         \"traced_rounds\":{traced_rounds},\"pass_s_samples_per_unit\":{rounds},\
         \"raw_pass_s\":{},\"round_s\":{},\"probe_s\":{},\
         \"setup_raw_s\":[{}],\"setup_s_samples\":[{}],\"measured_s\":{measured_s},\"steal_pct\":{}}}",
        workload.name(),
        opts.seed,
        sum_of_medians(&raw),
        quartiles(&round_totals),
        quartiles(&probes),
        list(&setup_raw),
        list(&setup_s),
        steal.map_or_else(|| "null".to_owned(), |s| s.to_string()),
    );
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        diagnostics,
        counts,
        recorder: rec,
    }
}

fn sum_of_medians(samples: &[Vec<f64>]) -> f64 {
    samples.iter().map(|s| stats::median(s)).sum()
}

/// Per-layer metrics of a traced run, in a fixed order.
fn per_layer(
    bench: &Workbench,
    rec: &Recorder,
    scales: &BTreeMap<(u32, u32), f64>,
    total: &Counts,
    pass_s: f64,
    traced_pass_s: f64,
) -> Vec<Metric> {
    let self_times = rec.self_times();
    let unit_layer = |layer: &'static str, u: usize| -> f64 {
        self_times.get(&(layer, u as u32)).map_or(0.0, |rounds| {
            let scaled: Vec<f64> = rounds
                .iter()
                .map(|(&r, s)| s * scales[&(u as u32, r)])
                .collect();
            stats::median(&scaled)
        })
    };
    let layer = |name: &'static str| -> f64 { (0..bench.len()).map(|u| unit_layer(name, u)).sum() };
    let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Checking cost: single-task kernel time with the CapChecker minus
    // without it, over the kernels the plan runs both ways.
    let kernel_by_variant = |variant: SystemVariant| -> BTreeMap<Benchmark, f64> {
        (0..bench.len())
            .filter_map(|u| {
                let (cell, _) = bench.cell(u)?;
                (cell.variant == variant && cell.tasks == 1 && !cell.cached)
                    .then(|| (cell.bench, unit_layer("machsuite.kernel", u)))
            })
            .collect()
    };
    let checked = kernel_by_variant(SystemVariant::CheriCpuCheriAccel);
    let unchecked = kernel_by_variant(SystemVariant::CheriCpuAccel);
    let check_s = checked
        .iter()
        .filter_map(|(b, s)| unchecked.get(b).map(|u| s - u))
        .fold(0.0, |acc, d| acc + d);

    let kernel_s = layer("machsuite.kernel");
    let timing_s = layer("hetsim.timing");
    let replay_s = layer("conformance.replay");
    let explore_s = layer("mc.explore");
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("machsuite.kernel.s", kernel_s, "s"),
        m(
            "machsuite.kernel.trace_ops",
            total.trace_ops as f64,
            "count",
        ),
        m(
            "machsuite.kernel.ns_per_op",
            per(kernel_s, total.trace_ops),
            "ns",
        ),
        m("core.check.s", check_s, "s"),
        m("core.check.granted", total.granted as f64, "count"),
        m("core.cached.hits", total.hits as f64, "count"),
        m("core.cached.misses", total.misses as f64, "count"),
        m(
            "core.cached.hit_ratio",
            ratio(total.hits, total.hits + total.misses),
            "ratio",
        ),
        m("hetsim.timing.s", timing_s, "s"),
        m(
            "hetsim.timing.ns_per_op",
            per(timing_s, total.trace_ops),
            "ns",
        ),
        m("hetsim.timing.bus_beats", total.bus_beats as f64, "count"),
        m("hetsim.trace.bytes", total.trace_bytes as f64, "bytes"),
        m("core.system.new.s", layer("core.system.new"), "s"),
        m("core.system.new.calls", total.system_new as f64, "count"),
        m("core.alloc.s", layer("core.alloc"), "s"),
        m("hetsim.memory.write.s", layer("hetsim.memory.write"), "s"),
        m(
            "hetsim.memory.write.bytes",
            total.write_bytes as f64,
            "bytes",
        ),
        m("core.teardown.s", layer("core.teardown"), "s"),
        m("obs.report.s", layer("obs.report"), "s"),
        m("conformance.replay.s", replay_s, "s"),
        m("conformance.replay.ops", total.replay_ops as f64, "count"),
        m(
            "conformance.replay.ns_per_op",
            per(replay_s, total.replay_ops),
            "ns",
        ),
        m("analyze.flow.s", layer("analyze.flow"), "s"),
        m("analyze.flow.units", total.flow_units as f64, "count"),
        m("analyze.incremental.s", layer("analyze.incremental"), "s"),
        m(
            "analyze.incremental.reuse_ratio",
            ratio(total.incremental_reused, total.incremental_units),
            "ratio",
        ),
        m("mc.explore.s", explore_s, "s"),
        m(
            "mc.explore.transitions",
            total.mc_transitions as f64,
            "count",
        ),
        m(
            "mc.explore.ns_per_transition",
            per(explore_s, total.mc_transitions),
            "ns",
        ),
        m("ledger.glue.s", layer("unit"), "s"),
        m("trace.pass_s", traced_pass_s, "s"),
        m(
            "trace.overhead_pct",
            if pass_s > 0.0 {
                (traced_pass_s / pass_s - 1.0) * 100.0
            } else {
                0.0
            },
            "%",
        ),
    ]
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(steal, total)` jiffies of the host's aggregate CPU line.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time the hypervisor stole between two readings.
fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    let total = t1.checked_sub(t0).filter(|&t| t > 0)?;
    Some(s1.saturating_sub(s0) as f64 * 100.0 / total as f64)
}
