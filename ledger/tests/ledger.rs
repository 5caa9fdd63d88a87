//! The benchmark's own contract: stable metric names, failures counted as
//! failures, and tracing that leaves every simulated count unchanged.
//!
//! Run with `cargo test --release --manifest-path ledger/Cargo.toml`.

use capchecker::SystemVariant;
use capcheri_ledger::{run, Cell, Options, Plan, Recorder, Workbench, Workload};
use machsuite::Benchmark;

/// Two single-task `aes` cells (with and without the checker) and one
/// short conformance stream: every layer but the model checker, small
/// enough for a test.
fn small_plan() -> Plan {
    Plan {
        cells: [
            SystemVariant::CheriCpuAccel,
            SystemVariant::CheriCpuCheriAccel,
        ]
        .into_iter()
        .map(|variant| Cell {
            bench: Benchmark::Aes,
            variant,
            tasks: 1,
            cached: false,
        })
        .collect(),
        streams: 1,
        stream_ops: 300,
        explore: false,
    }
}

fn opts(seed: u64, trace: bool) -> Options {
    Options {
        seed,
        seconds: 0.0,
        trace,
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[start..].split('"').next()?.to_owned())
    };
    text.lines()
        .skip_while(|l| !l.contains(&format!("\"{section}\"")))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| (field(l, "name").unwrap(), field(l, "unit").unwrap()))
        .collect()
}

fn printed(workload: Workload, seed: u64, trace: bool) -> Vec<(String, String)> {
    let plan = small_plan();
    let out = run(workload, opts(seed, trace), || Workbench::new(&plan, seed));
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    out.metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn metric_names_and_units_match_the_declaration_for_any_seed() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty(), "no metrics parsed from {section}");
        for seed in [1, 2] {
            assert_eq!(
                printed(Workload::PaperCells, seed, trace),
                want,
                "{section}"
            );
        }
    }
}

#[test]
fn changing_the_seed_changes_the_inputs() {
    let plan = small_plan();
    let a = Workbench::new(&plan, 1).unwrap();
    let b = Workbench::new(&plan, 2).unwrap();
    assert_ne!(a.cell(0).unwrap().1.images, b.cell(0).unwrap().1.images);
    assert_ne!(a.streams()[0].base, b.streams()[0].base);
}

#[test]
fn planted_wrong_output_is_a_failed_operation() {
    let plan = small_plan();
    let out = run(Workload::PaperCells, opts(3, false), || {
        let mut bench = Workbench::new(&plan, 3)?;
        let inputs = bench.cell_inputs_mut(0).unwrap();
        let last = inputs.expected[0].len() - 1;
        inputs.expected[0][last][0] ^= 1;
        Ok(bench)
    });
    // Every execution of the planted cell fails: the set-up round on its
    // output, each timed round on counts no correct round produced.
    assert!(out.failed > 0);
    assert!(out
        .failures
        .iter()
        .any(|f| f.contains("differs from the reference")));
    assert!(out
        .metrics
        .iter()
        .any(|m| m.name == "pass_s" && m.value > 0.0));
}

#[test]
fn planted_wrong_cycle_count_is_a_failed_operation() {
    let plan = small_plan();
    let out = run(Workload::PaperCells, opts(4, false), || {
        let mut bench = Workbench::new(&plan, 4)?;
        bench.cell_inputs_mut(1).unwrap().cycles += 1;
        Ok(bench)
    });
    assert!(out.failed > 0);
    assert!(out.failures.iter().any(|f| f.contains("runner reports")));
}

#[test]
fn traced_and_untraced_runs_report_identical_counts() {
    let plan = small_plan();
    let mut bench = Workbench::new(&plan, 5).unwrap();
    let mut plain = Recorder::new();
    let mut traced = Recorder::new();
    traced.set_enabled(true);
    for u in 0..bench.len() {
        let a = bench.run_unit(u, &mut plain, true).unwrap();
        let b = bench.run_unit(u, &mut traced, true).unwrap();
        assert_eq!(a, b, "unit {}", bench.label(u));
    }
    assert!(plain.spans().is_empty());
    assert!(!traced.spans().is_empty());

    // Whole runs: traced rounds must reproduce the untraced set-up
    // counts, or they would be counted as failures.
    let untraced = run(Workload::PaperCells, opts(5, false), || {
        Workbench::new(&plan, 5)
    });
    let with_trace = run(Workload::PaperCells, opts(5, true), || {
        Workbench::new(&plan, 5)
    });
    assert_eq!(with_trace.failed, 0, "{:?}", with_trace.failures);
    assert_eq!(untraced.counts, with_trace.counts);
}
