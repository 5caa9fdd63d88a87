//! Event-wheel timing core pinned against the retained naive heap core.
//!
//! The production `simulate_accel_system` runs on the pre-folded
//! event-wheel arena; `simulate_accel_system_naive` is the original
//! heap-scheduled implementation, kept public precisely so this suite and
//! CI can diff the two. The contract is *cycle-for-cycle equality* — not
//! "close": per-task completion cycles, makespan, bus beats, and
//! utilization must be identical on every MachSuite kernel, under bus
//! faults, and for staggered multi-task mixes. Any wheel event that was
//! skipped, reordered, or double-counted shows up here as a cycle diff.

use hetsim::timing::{
    simulate_accel_system, simulate_accel_system_naive, AccelReport, AccelTask, AccelTimingConfig,
    BusConfig,
};
use hetsim::{BusFaultConfig, KernelEngine, TaggedMemory, Trace};
use machsuite::Benchmark;

/// Executes one instance of `bench` functionally and returns its DMA trace.
fn kernel_trace(bench: Benchmark, seed: u64) -> Trace {
    let mut mem = TaggedMemory::new(64 << 20);
    let layout = bench.place(0x1000);
    for (obj, image) in bench.init(seed).iter().enumerate() {
        mem.write_bytes(layout.address(obj, 0), image)
            .expect("init data fits its buffer");
    }
    let mut eng = KernelEngine::new(&mut mem, layout);
    bench.kernel(&mut eng).expect("benign kernel executes");
    eng.into_trace()
}

fn accel_cfg(bench: Benchmark) -> AccelTimingConfig {
    let p = bench.profile();
    AccelTimingConfig {
        lanes: p.lanes,
        compute_per_cycle: p.compute_per_cycle,
        outstanding: p.outstanding,
    }
}

/// Runs both cores over the same tasks and asserts full report equality.
fn assert_cores_agree(bench: Benchmark, tasks: &[AccelTask<'_>], bus: &BusConfig) -> AccelReport {
    let wheel = simulate_accel_system(tasks, bus);
    let naive = simulate_accel_system_naive(tasks, bus);
    assert_eq!(
        wheel, naive,
        "event wheel diverged from the naive heap core on {bench}"
    );
    wheel
}

#[test]
fn wheel_matches_naive_on_every_kernel() {
    let bus = BusConfig::default().with_checker(1);
    for bench in Benchmark::ALL {
        let traces: Vec<Trace> = (0..2).map(|t| kernel_trace(bench, 0xC0DE + t)).collect();
        let tasks: Vec<AccelTask<'_>> = traces
            .iter()
            .enumerate()
            .map(|(t, trace)| AccelTask {
                trace,
                cfg: accel_cfg(bench),
                start: 150 * t as u64,
            })
            .collect();
        let report = assert_cores_agree(bench, &tasks, &bus);
        assert!(report.makespan > 0, "{bench} simulated no cycles");
    }
}

/// The cross-check CI runs on every push: two kernels with contrasting
/// shapes — gemm_ncubed (dense compute, deep traces) and md_knn (the
/// Figure 8 overhead outlier, memory-bound). Named so the perf-smoke job
/// can invoke exactly this test without paying for the full suite.
#[test]
fn wheel_matches_naive_two_kernel_smoke() {
    let bus = BusConfig::default().with_checker(1);
    for bench in [Benchmark::GemmNcubed, Benchmark::MdKnn] {
        let trace = kernel_trace(bench, 0xC0DE);
        let tasks = [AccelTask {
            trace: &trace,
            cfg: accel_cfg(bench),
            start: 150,
        }];
        assert_cores_agree(bench, &tasks, &bus);
    }
}

#[test]
fn wheel_matches_naive_under_bus_faults() {
    // Stalls move grant times; drops double beat occupancy. Both cores
    // must count grants in the same global order for these to agree.
    let faults = BusFaultConfig {
        stall_every: 7,
        stall_cycles: 12,
        drop_every: 11,
    };
    let bus = BusConfig::default().with_checker(1).with_faults(faults);
    for bench in [Benchmark::Aes, Benchmark::SpmvCrs, Benchmark::MdKnn] {
        let traces: Vec<Trace> = (0..3).map(|t| kernel_trace(bench, 0xBEEF + t)).collect();
        let tasks: Vec<AccelTask<'_>> = traces
            .iter()
            .enumerate()
            .map(|(t, trace)| AccelTask {
                trace,
                cfg: accel_cfg(bench),
                start: 40 * t as u64,
            })
            .collect();
        assert_cores_agree(bench, &tasks, &bus);
    }
}

#[test]
fn wheel_matches_naive_on_heterogeneous_mixes() {
    // Different FU configs sharing one bus — the scheduler interleaving
    // across unequal lane counts is where an ordering bug would hide.
    let bus = BusConfig::default();
    let benches = [Benchmark::Aes, Benchmark::GemmBlocked, Benchmark::Viterbi];
    let traces: Vec<(Benchmark, Trace)> = benches
        .iter()
        .map(|&b| (b, kernel_trace(b, 0xFEED)))
        .collect();
    let tasks: Vec<AccelTask<'_>> = traces
        .iter()
        .enumerate()
        .map(|(t, (b, trace))| AccelTask {
            trace,
            cfg: accel_cfg(*b),
            start: 25 * t as u64,
        })
        .collect();
    let wheel = simulate_accel_system(&tasks, &bus);
    let naive = simulate_accel_system_naive(&tasks, &bus);
    assert_eq!(wheel, naive, "mixed-FU system diverged between cores");
}
