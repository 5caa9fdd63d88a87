//! Kernel cells: one MachSuite kernel under one system configuration,
//! driven through the same sequence as `capcheri_bench::runner` with a
//! span around each call into a layer.

use crate::spans::Recorder;
use crate::Counts;
use capchecker::{HeteroSystem, ProtectionChoice, SystemVariant, TaskRequest};
use capcheri_bench::adapt::adaptive_cache_config;
use capcheri_bench::runner::{self, CHECKER_PIPELINE_LATENCY};
use hetsim::timing::{
    simulate_accel_system, simulate_cpu, AccelTask, AccelTimingConfig, BusConfig, CpuTiming,
};
use hetsim::{Trace, TraceOp};
use machsuite::Benchmark;
use obs::report::BenchReport;
use obs::Registry;

/// One simulated cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// The kernel.
    pub bench: Benchmark,
    /// The §6.3 system configuration.
    pub variant: SystemVariant,
    /// Concurrent accelerator tasks (1 on CPU variants).
    pub tasks: usize,
    /// Swap the protection to the cache-backed checker with
    /// [`adaptive_cache_config`] (only meaningful on `ccpu+caccel`).
    pub cached: bool,
}

/// A cell's inputs and the results it must reproduce, made in set-up.
#[derive(Clone, Debug)]
pub struct CellInputs {
    /// Seed the inputs were drawn from (task `t` uses `seed + t`, as the
    /// runner does).
    pub seed: u64,
    /// Initial buffer images, per task.
    pub images: Vec<Vec<Vec<u8>>>,
    /// [`Benchmark::reference`] applied to `images`, per task.
    pub expected: Vec<Vec<Vec<u8>>>,
    /// Simulated cycles `runner` reports for the same cell and seed.
    pub cycles: u64,
}

impl Cell {
    /// Short label, e.g. `aes/ccpu+caccel/8`.
    pub fn label(self) -> String {
        format!(
            "{}/{}{}/{}",
            self.bench.name(),
            self.variant.label(),
            if self.cached { "+cache4" } else { "" },
            self.tasks
        )
    }

    /// Draws the cell's inputs from `seed` and computes its references:
    /// kernel outputs from the golden [`Benchmark::reference`] and cycles
    /// from the repository's own runner.
    pub fn inputs(self, seed: u64) -> CellInputs {
        let images: Vec<Vec<Vec<u8>>> = (0..self.tasks)
            .map(|t| self.bench.init(seed.wrapping_add(t as u64)))
            .collect();
        let expected = images
            .iter()
            .map(|image| {
                let mut out = image.clone();
                self.bench.reference(&mut out);
                out
            })
            .collect();
        let cycles = if self.cached {
            runner::run_benchmark_cached(self.bench, self.tasks, seed, adaptive_cache_config())
                .result
                .cycles
        } else {
            runner::run_benchmark(self.bench, self.variant, self.tasks, seed).cycles
        };
        CellInputs {
            seed,
            images,
            expected,
            cycles,
        }
    }

    /// Runs the cell once: build the system, allocate, initialize and run
    /// each task, cost the traces on the timing core, serialize the run
    /// report, and tear down. With `check_outputs`, every buffer is read
    /// back after its kernel and compared with the reference.
    ///
    /// # Errors
    ///
    /// A description of the first failure: a driver error, a denial of
    /// the benign kernel, a wrong output, or cycles other than the
    /// runner's.
    pub fn run(
        self,
        inputs: &CellInputs,
        rec: &mut Recorder,
        check_outputs: bool,
    ) -> Result<Counts, String> {
        let bench = self.bench;
        let accel = self.variant.uses_accelerator();
        let mut config = self.variant.config();
        if self.cached {
            config.protection = ProtectionChoice::CachedCapChecker(adaptive_cache_config());
        }
        let mut sys = rec.span("core.system.new", || {
            let mut sys = HeteroSystem::new(config);
            sys.add_fus(bench.name(), self.tasks);
            sys
        });
        let mut counts = Counts {
            system_new: 1,
            ..Counts::default()
        };

        let mut ids = Vec::with_capacity(self.tasks);
        let mut traces: Vec<Trace> = Vec::with_capacity(self.tasks);
        let mut setups = Vec::with_capacity(self.tasks);
        for (t, (image, expected)) in inputs.images.iter().zip(&inputs.expected).enumerate() {
            let req = if accel {
                TaskRequest::accel(format!("{bench}#{t}"), bench.name())
            } else {
                TaskRequest::cpu(format!("{bench}#{t}"))
            }
            .rw_buffers(bench.buffers().iter().map(|b| b.size));
            let id = rec
                .span("core.alloc", || sys.allocate_task(&req))
                .map_err(|e| format!("allocate: {e:?}"))?;
            rec.span("hetsim.memory.write", || {
                image
                    .iter()
                    .enumerate()
                    .try_for_each(|(obj, data)| sys.write_buffer(id, obj, 0, data))
            })
            .map_err(|e| format!("write_buffer: {e:?}"))?;
            counts.write_bytes += image.iter().map(|d| d.len() as u64).sum::<u64>();
            let outcome = rec
                .span("machsuite.kernel", || {
                    if accel {
                        sys.run_accel_task(id, |eng| bench.kernel(eng))
                    } else {
                        sys.run_cpu_task(id, |eng| bench.kernel(eng))
                    }
                })
                .map_err(|e| format!("run task: {e:?}"))?;
            if let Some(denial) = outcome.denial {
                return Err(format!("benign kernel denied: {denial:?}"));
            }
            if check_outputs {
                for (obj, want) in expected.iter().enumerate() {
                    let mut got = vec![0u8; want.len()];
                    sys.read_buffer(id, obj, 0, &mut got)
                        .map_err(|e| format!("read_buffer: {e:?}"))?;
                    if &got != want {
                        return Err(format!("task {t} buffer {obj} differs from the reference"));
                    }
                }
            }
            setups.push(sys.setup_cycles(id).map_err(|e| format!("{e:?}"))?);
            let trace = sys
                .take_trace(id)
                .map_err(|e| format!("{e:?}"))?
                .ok_or("kernel left no trace")?;
            counts.trace_ops += trace.len() as u64;
            counts.trace_bytes += (trace.len() * std::mem::size_of::<TraceOp>()) as u64;
            traces.push(trace);
            ids.push(id);
        }

        let profile = bench.profile();
        let (cycles, bus_beats, bus_utilization) = rec.span("hetsim.timing", || {
            if accel {
                let bus = if self.variant == SystemVariant::CheriCpuCheriAccel {
                    BusConfig::default().with_checker(CHECKER_PIPELINE_LATENCY)
                } else {
                    BusConfig::default()
                };
                let tasks: Vec<AccelTask<'_>> = traces
                    .iter()
                    .zip(&setups)
                    .map(|(trace, &start)| AccelTask {
                        trace,
                        cfg: AccelTimingConfig {
                            lanes: profile.lanes,
                            compute_per_cycle: profile.compute_per_cycle,
                            outstanding: profile.outstanding,
                        },
                        start,
                    })
                    .collect();
                let report = simulate_accel_system(&tasks, &bus);
                (report.makespan, report.bus_beats, report.bus_utilization)
            } else {
                let timing = CpuTiming {
                    cycles_per_unit: profile.cpu_cycles_per_unit,
                    ..CpuTiming::default()
                };
                let timing = if self.variant.cheri_cpu() {
                    timing.with_cheri()
                } else {
                    timing
                };
                (simulate_cpu(&traces[0], &timing).cycles, 0, 0.0)
            }
        });
        counts.cycles = cycles;
        counts.bus_beats = bus_beats;
        if let Some(c) = sys.checker() {
            counts.granted = c.stats().granted;
        }
        if let Some(c) = sys.cached_checker() {
            let s = c.cache_stats();
            counts.hits = s.hits;
            counts.misses = s.misses;
            counts.granted = (s.hits + s.misses).saturating_sub(s.denied);
        }

        let report = rec.span("obs.report", || {
            let mut reg = Registry::new();
            reg.counter_add("cycles", cycles);
            reg.counter_add("setup_cycles", setups[0]);
            reg.counter_add("bus.beats", bus_beats);
            reg.gauge_set("bus_utilization", bus_utilization);
            sys.export_metrics(&mut reg);
            BenchReport {
                bench: bench.name().to_owned(),
                variant: self.variant.label().to_owned(),
                tasks: self.tasks,
                seed: inputs.seed,
                metrics: reg.snapshot(),
            }
            .to_json()
        });
        counts.report_bytes = report.len() as u64;

        rec.span("core.teardown", || {
            let freed = ids
                .into_iter()
                .try_for_each(|id| sys.deallocate_task(id).map(drop));
            drop(sys);
            drop(traces);
            freed
        })
        .map_err(|e| format!("deallocate: {e:?}"))?;

        if cycles != inputs.cycles {
            return Err(format!(
                "{cycles} simulated cycles, runner reports {}",
                inputs.cycles
            ));
        }
        Ok(counts)
    }
}
