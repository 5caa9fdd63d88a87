//! `simulate` — run any benchmark under any system configuration.
//!
//! A small operator tool over the same harness the figures use:
//!
//! ```text
//! simulate <benchmark|all> [--variant cpu|ccpu|cpu+accel|ccpu+accel|ccpu+caccel]
//!          [--tasks N] [--seed S] [--threads N] [--json] [--trace-out <path>]
//! simulate faults [--spec SPEC] [--tasks N] [--seed S] [--fus N] [--json]
//! simulate conformance [--seed S] [--ops N] [--json]
//! simulate analyze [--lint] [--flow | --incremental] [--streams N] [--ops N]
//!          [--seed S] [--threads N] [--json] [--out FILE]
//! simulate profile <benchmark|all> [--variant V] [--tasks N] [--seed S]
//!          [--threads N] [--json] [--out FILE]
//! simulate adapt <benchmark|all|campaign> [--epochs N] [--tasks N] [--seed S]
//!          [--spec SPEC] [--fus N] [--threads N] [--json] [--out FILE]
//! ```
//!
//! `--threads N` fans independent benchmark cells out over a scoped
//! worker pool (default: `CAPCHERI_THREADS` or the machine's available
//! parallelism). Results are merged in benchmark order, so every output
//! — table, `--json` report, `--trace-out` file — is byte-identical for
//! any thread count.
//!
//! `--json` replaces the table with a machine-readable report on the
//! `capcheri.bench_report.v1` schema; `--trace-out` writes a Chrome
//! trace-event file (load it at <https://ui.perfetto.dev>). Both are
//! byte-deterministic for a fixed benchmark, variant, task count, and
//! seed.
//!
//! The `faults` subcommand runs a deterministic fault-injection campaign
//! against the recovering driver. `--spec` takes a declarative fault
//! spec — `none`, `all:<rate>`, or `kind:rate,...` over the kinds
//! `tag-flip`, `rogue-dma`, `garbled-dma`, `engine-hang`, `bus-stall`,
//! `dropped-beat`, `cache-corrupt` — and `--json` emits the
//! `capcheri.fault_campaign.v1` report, byte-identical for a fixed spec,
//! seed, and task count.
//!
//! The `conformance` subcommand replays a seeded op stream through every
//! checker implementation and the golden oracle, diffing each verdict,
//! exception code, and the final tag state (see the `conformance`
//! crate). Exit status is nonzero on any divergence; `--json` emits the
//! `capcheri.conformance.v1` report; a divergent run prints a shrunk,
//! ready-to-paste minimal reproducer.
//!
//! The `profile` subcommand reruns a benchmark with the hierarchical
//! span profiler and check attribution attached and prints where every
//! simulated cycle went — the span tree, profiler histograms, and hot
//! `(task, object)` check pairs. `--json` emits the
//! `capcheri.profile.v1` report, which serializes only cycle-domain
//! quantities and is therefore byte-identical for any `--threads`
//! value; `--out FILE` writes the report to a file instead of stdout.
//!
//! The `adapt` subcommand closes the loop: the online adaptive policy
//! controller drives real runs. With a benchmark (or `all`) it runs
//! `--epochs` epochs under the cache-backed checker, feeding the cache's
//! stall signals back into the controller so Fine ⇄ Coarse mode switches
//! take effect on the next epoch. With the `campaign` pseudo-target it
//! reruns the fault campaign with the controller in charge of
//! degradation, probationary re-promotion, and quarantine release.
//! `--json` emits the `capcheri.adapt.v1` report; decisions carry their
//! epoch, rule, raw inputs, and hysteresis state, and the bytes are
//! identical for any `--threads` value.
//!
//! The `analyze` subcommand runs the static capability-flow analyzer
//! over every benchmark configuration and reports the proved-safe ports,
//! over-privileged default grants, and the measured cycle payoff of
//! eliding the proved checks (`capcheri.staticreport.v1` with `--json`).
//! `--streams N` additionally analyzes N seeded conformance op streams
//! and *verifies* each verdict map by replaying the elided checkers
//! against the golden oracle — an unsound map is a hard failure.
//! `--lint` runs the repository lint pass (nondeterminism hazards,
//! panic-in-hot-path, nd-hashmap-iter, unsafe-audit) and fails on any
//! finding. `--flow` switches to the incremental dataflow engine's
//! report: barrier-delimited segment verdicts, the re-analysis work
//! ratio under grant churn, and provenance flow findings
//! (`capcheri.flowreport.v1` with `--json`); `--incremental` does the
//! same through the caching engine and asserts incremental ≡
//! from-scratch — the emitted bytes are identical either way, so CI
//! `cmp`s the two files. Each segment's verdict map is replayed through
//! the elided checkers against the golden oracle; a divergence fails
//! the run.
//!
//! Every subcommand exits 2 on a bad invocation (unknown flag, missing
//! or unparsable value), so a broken harness is never mistaken for a
//! red verdict (exit 1).
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p capcheri-bench --bin simulate -- gemm_ncubed --tasks 4
//! cargo run --release -p capcheri-bench --bin simulate -- all --variant ccpu
//! cargo run --release -p capcheri-bench --bin simulate -- faults --spec all:0.8 --tasks 64
//! cargo run --release -p capcheri-bench --bin simulate -- conformance --seed 1 --ops 10000
//! ```

use capchecker::{run_adaptive_campaign, run_campaign, AdaptConfig, CampaignConfig, SystemVariant};
use capcheri_bench::adapt::AdaptBenchReport;
use capcheri_bench::profile::ProfileReport;
use capcheri_bench::runner;
use machsuite::Benchmark;
use obs::report::{reports_to_json, BenchReport};
use std::process::ExitCode;

struct Options {
    benches: Vec<Benchmark>,
    variant: SystemVariant,
    tasks: usize,
    seed: u64,
    threads: usize,
    json: bool,
    trace_out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    format!(
        "usage: simulate <benchmark|all> [--variant cpu|ccpu|cpu+accel|ccpu+accel|ccpu+caccel]\n\
         \x20               [--tasks N] [--seed S] [--threads N] [--json] [--trace-out FILE]\n\
         \x20      simulate faults [--spec none|all:RATE|kind:RATE,...] [--tasks N] [--seed S]\n\
         \x20               [--fus N] [--json]\n\
         \x20      simulate conformance [--seed S] [--ops N] [--json]\n\
         \x20      simulate verify [--depth N] [--tasks N] [--objects N] [--threads N]\n\
         \x20               [--planted-bug off-by-one] [--json] [--out FILE]\n\
         \x20      simulate analyze [--lint] [--flow | --incremental] [--streams N] [--ops N]\n\
         \x20               [--seed S] [--threads N] [--json] [--out FILE]\n\
         \x20      simulate profile <benchmark|all> [--variant V] [--tasks N] [--seed S]\n\
         \x20               [--threads N] [--json] [--out FILE]\n\
         \x20      simulate adapt <benchmark|all|campaign> [--epochs N] [--tasks N] [--seed S]\n\
         \x20               [--spec SPEC] [--fus N] [--threads N] [--json] [--out FILE]\n\n\
         benchmarks: {}\n\
         fault kinds: {}",
        names.join(", "),
        obs::FaultKind::ALL
            .iter()
            .map(|k| k.label())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// The value after `flag`, parsed; errors name the flag.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Applies one of the campaign flags `faults` and `adapt` share
/// (`--spec`, `--tasks`, `--seed`, `--fus`) to `config`. Returns
/// `Ok(false)` when `flag` is not one of them.
fn campaign_flag(
    config: &mut CampaignConfig,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bool, String> {
    match flag {
        "--spec" => config.spec = flag_value(flag, it)?,
        "--tasks" => config.tasks = flag_value(flag, it)?,
        "--seed" => config.seed = flag_value(flag, it)?,
        "--fus" => config.fus = flag_value(flag, it)?,
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_faults(args: &[String]) -> Result<(CampaignConfig, bool), String> {
    let mut config = CampaignConfig::default();
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => json = true,
            other if campaign_flag(&mut config, other, &mut it)? => {}
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }
    Ok((config, json))
}

fn run_faults(config: &CampaignConfig, json: bool) -> ExitCode {
    let report = match run_campaign(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", report.to_json());
        return ExitCode::SUCCESS;
    }
    println!(
        "fault campaign: {} tasks, seed {:#x}, spec {:?}",
        report.tasks, report.seed, report.spec
    );
    println!("{:<16} {:>8}", "injected", "count");
    for (kind, n) in report.injected_counts() {
        println!("{kind:<16} {n:>8}");
    }
    println!("{:<18} {:>8}", "resolution", "count");
    for (res, n) in report.resolution_counts() {
        println!("{res:<18} {n:>8}");
    }
    println!(
        "degraded: {}  quarantined fus: {}  denied checks: {}  \
         corruption detected: {}  driver cycles: {}  events: {}",
        report.degraded,
        report.quarantined_fus,
        report.denied_checks,
        report.corruption_detected,
        report.driver_cycles,
        report.events
    );
    ExitCode::SUCCESS
}

fn parse_conformance(args: &[String]) -> Result<(u64, u64, bool), String> {
    let (mut seed, mut ops, mut json) = (1u64, 10_000u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = flag_value(flag, &mut it)?,
            "--ops" => ops = flag_value(flag, &mut it)?,
            "--json" => json = true,
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }
    Ok((seed, ops, json))
}

fn parse_verify(
    args: &[String],
) -> Result<(capcheri_mc::ExploreConfig, bool, Option<String>), String> {
    let mut cfg = capcheri_mc::ExploreConfig::new(10);
    let mut json = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--depth" => cfg.depth = flag_value(flag, &mut it)?,
            "--tasks" => cfg.tasks = flag_value(flag, &mut it)?,
            "--objects" => cfg.objects = flag_value(flag, &mut it)?,
            "--threads" => cfg.threads = flag_value::<usize>(flag, &mut it)?.max(1),
            "--planted-bug" => match flag_value::<String>(flag, &mut it)?.as_str() {
                "off-by-one" => cfg.planted = Some(capcheri_mc::PlantedBug::BoundsOffByOne),
                other => return Err(format!("--planted-bug: unknown bug {other:?}")),
            },
            "--json" => json = true,
            "--out" => out = Some(flag_value(flag, &mut it)?),
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }
    if !(1..=4).contains(&cfg.tasks) || !(1..=4).contains(&cfg.objects) {
        return Err("--tasks and --objects must be 1-4 (the model is deliberately tiny)".into());
    }
    Ok((cfg, json, out))
}

fn run_verify(cfg: capcheri_mc::ExploreConfig, json: bool, out: Option<String>) -> ExitCode {
    let result = capcheri_mc::explore(cfg);
    let rendered = if json {
        capcheri_mc::to_json(&cfg, &result)
    } else {
        capcheri_mc::summary(&cfg, &result)
    };
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("cannot write {path}: {e}");
            // Internal error, not a property verdict.
            return ExitCode::from(2);
        }
    } else {
        print!("{rendered}");
        if !rendered.ends_with('\n') {
            println!();
        }
    }
    if result.violation.is_none() {
        ExitCode::SUCCESS
    } else {
        if !json {
            eprintln!("verify FAILED: a property violation was found");
        }
        ExitCode::FAILURE
    }
}

fn run_conformance(seed: u64, ops: u64, json: bool) -> ExitCode {
    let report = threatbench::fuzz::conformance_campaign(ops, seed);
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.summary());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        if !json {
            eprintln!("conformance FAILED: an implementation diverged from the oracle");
        }
        ExitCode::FAILURE
    }
}

struct AnalyzeOptions {
    lint: bool,
    streams: u64,
    ops: u64,
    seed: u64,
    threads: usize,
    json: bool,
    out: Option<String>,
    /// Emit the `capcheri.flowreport.v1` report from a from-scratch
    /// flow analysis.
    flow: bool,
    /// As `flow`, but through the incremental engine (byte-identical
    /// output; the engine asserts incremental ≡ from-scratch itself).
    incremental: bool,
}

fn parse_analyze(args: &[String]) -> Result<AnalyzeOptions, String> {
    let mut opts = AnalyzeOptions {
        lint: false,
        streams: 0,
        // Short enough that the adversarial generator leaves some pairs
        // denial-free, so verified runs actually exercise elision.
        ops: 400,
        seed: 1,
        threads: perf::auto_threads(),
        json: false,
        out: None,
        flow: false,
        incremental: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--lint" => opts.lint = true,
            "--flow" => opts.flow = true,
            "--incremental" => {
                opts.flow = true;
                opts.incremental = true;
            }
            "--streams" => opts.streams = flag_value(flag, &mut it)?,
            "--ops" => opts.ops = flag_value(flag, &mut it)?,
            "--seed" => opts.seed = flag_value(flag, &mut it)?,
            "--threads" => opts.threads = flag_value::<usize>(flag, &mut it)?.max(1),
            "--json" => opts.json = true,
            "--out" => opts.out = Some(flag_value(flag, &mut it)?),
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Analyzes `count` seeded op streams and replays each verdict map
/// through the elided checkers against the golden oracle. Returns
/// `false` if any replay diverges (an unsound verdict map).
fn verify_streams(first_seed: u64, count: u64, ops: u64) -> bool {
    let mut sound = true;
    for i in 0..count {
        let seed = first_seed.wrapping_add(i);
        let stream = conformance::generate(seed, ops as usize);
        let analysis = capcheri_analyze::analyze_stream(&stream);
        let outcome = conformance::run_ops_elided(&stream, &analysis.verdict_map());
        let ok = outcome.is_clean();
        sound &= ok;
        println!(
            "stream seed {seed}: {} safe, {} flagged, {} dynamic; \
             {} checks elided; oracle replay {}",
            analysis.safe,
            analysis.flagged,
            analysis.dynamic,
            outcome.elided,
            if ok { "clean" } else { "DIVERGED" }
        );
        for f in &analysis.findings {
            println!("  finding {f}");
        }
    }
    sound
}

/// Runs the flow-report path of `simulate analyze`: the incremental (or
/// from-scratch) dataflow engine over seeded streams plus the kernel
/// fixtures, emitting the byte-deterministic `capcheri.flowreport.v1`.
fn run_analyze_flow(opts: &AnalyzeOptions) -> ExitCode {
    // The flow report always analyzes at least a few streams — the work
    // ratio is meaningless on an empty stream set.
    let streams = opts.streams.max(4);
    let report = capcheri_bench::flowreport::FlowReport::collect(
        opts.seed,
        streams,
        opts.ops,
        opts.threads,
        opts.incremental,
    );
    let rendered = if opts.json {
        report.to_json()
    } else {
        report.render()
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        None => {
            print!("{rendered}");
            if !rendered.ends_with('\n') {
                println!();
            }
        }
    }
    if !report.all_replays_clean() {
        eprintln!("analyze: a segment-elided replay diverged from the oracle");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_analyze(opts: &AnalyzeOptions) -> ExitCode {
    if opts.lint {
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        match capcheri_analyze::lint_paths(&root) {
            Ok(findings) if findings.is_empty() => println!("lint: clean"),
            Ok(findings) => {
                for f in &findings {
                    println!("{f}");
                }
                eprintln!("lint: {} finding(s)", findings.len());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("lint: cannot walk {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }
    if opts.flow {
        return run_analyze_flow(opts);
    }
    let rows = capcheri_bench::staticreport::rows_threads(opts.threads);
    let unsafe_findings: usize = rows.iter().map(|r| r.run.analysis.findings.len()).sum();
    let rendered = if opts.json {
        capcheri_bench::staticreport::rows_to_json(&rows)
    } else {
        capcheri_bench::staticreport::render_rows(&rows)
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => println!("{rendered}"),
    }
    if unsafe_findings > 0 {
        eprintln!("analyze: {unsafe_findings} statically-unsafe finding(s)");
        return ExitCode::FAILURE;
    }
    if opts.streams > 0 && !verify_streams(opts.seed, opts.streams, opts.ops) {
        eprintln!("analyze: an elided replay diverged from the oracle");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

struct ProfileOptions {
    benches: Vec<Benchmark>,
    variant: SystemVariant,
    tasks: usize,
    seed: u64,
    threads: usize,
    json: bool,
    out: Option<String>,
}

fn parse_profile(args: &[String]) -> Result<ProfileOptions, String> {
    let mut opts = ProfileOptions {
        benches: Vec::new(),
        variant: SystemVariant::CheriCpuCheriAccel,
        tasks: 1,
        seed: 0xC0DE,
        threads: perf::auto_threads(),
        json: false,
        out: None,
    };
    let mut it = args.iter();
    let first = it.next().ok_or_else(usage)?;
    if first == "all" {
        opts.benches = Benchmark::ALL.to_vec();
    } else {
        opts.benches.push(
            first
                .parse::<Benchmark>()
                .map_err(|e| format!("{e}\n\n{}", usage()))?,
        );
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--variant" => {
                let v = flag_value::<String>(flag, &mut it)?;
                opts.variant = SystemVariant::ALL
                    .into_iter()
                    .find(|x| x.label() == v)
                    .ok_or_else(|| format!("unknown variant {v:?}"))?;
            }
            "--tasks" => opts.tasks = flag_value(flag, &mut it)?,
            "--seed" => opts.seed = flag_value(flag, &mut it)?,
            "--threads" => opts.threads = flag_value::<usize>(flag, &mut it)?.max(1),
            "--json" => opts.json = true,
            "--out" => opts.out = Some(flag_value(flag, &mut it)?),
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }
    Ok(opts)
}

fn run_profile(opts: &ProfileOptions) -> ExitCode {
    // One profiled run per worker; index-ordered merge makes the output
    // byte-identical for any --threads value (the profile serializes
    // only simulated quantities — see capcheri_bench::profile).
    let reports = perf::parallel_map(opts.threads, opts.benches.len(), |i| {
        ProfileReport::collect(opts.benches[i], opts.variant, opts.tasks, opts.seed)
    });
    let reports = match reports {
        Ok(r) => r,
        Err(p) => {
            eprintln!("{p}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = if opts.json {
        capcheri_bench::profile::reports_to_json(&reports)
    } else {
        capcheri_bench::profile::render_all(&reports)
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

struct AdaptOptions {
    /// Empty means the `campaign` pseudo-target.
    benches: Vec<Benchmark>,
    /// The campaign flags. A benchmark target reads only `tasks`
    /// (concurrent tasks per epoch, default 1) and `seed`.
    campaign: CampaignConfig,
    epochs: u32,
    threads: usize,
    json: bool,
    out: Option<String>,
}

fn parse_adapt(args: &[String]) -> Result<AdaptOptions, String> {
    let mut opts = AdaptOptions {
        benches: Vec::new(),
        campaign: CampaignConfig::default(),
        epochs: 4,
        threads: perf::auto_threads(),
        json: false,
        out: None,
    };
    let mut it = args.iter();
    let first = it.next().ok_or_else(usage)?;
    match first.as_str() {
        "campaign" => {}
        "all" => opts.benches = Benchmark::ALL.to_vec(),
        name => opts.benches.push(
            name.parse::<Benchmark>()
                .map_err(|e| format!("{e}\n\n{}", usage()))?,
        ),
    }
    if !opts.benches.is_empty() {
        opts.campaign.tasks = 1;
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--epochs" => opts.epochs = flag_value(flag, &mut it)?,
            "--threads" => opts.threads = flag_value::<usize>(flag, &mut it)?.max(1),
            "--json" => opts.json = true,
            "--out" => opts.out = Some(flag_value(flag, &mut it)?),
            other if campaign_flag(&mut opts.campaign, other, &mut it)? => {}
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }
    Ok(opts)
}

fn write_or_print(out: &Option<String>, rendered: &str) -> ExitCode {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        None => {
            print!("{rendered}");
            if !rendered.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
    }
}

fn run_adapt_campaign(opts: &AdaptOptions) -> ExitCode {
    let mut config = opts.campaign.clone();
    config.tasks = config.tasks.max(1);
    let report = match run_adaptive_campaign(&config, &AdaptConfig::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("adaptive campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.json {
        return write_or_print(&opts.out, &report.to_json());
    }
    let mut text = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        text,
        "adaptive campaign: {} tasks, seed {:#x}, spec {:?}, {} epochs",
        report.campaign.tasks, report.campaign.seed, report.campaign.spec, report.epochs
    );
    let _ = writeln!(text, "{:<22} {:>8}", "resolution", "count");
    for (res, n) in report.campaign.resolution_counts() {
        let _ = writeln!(text, "{res:<22} {n:>8}");
    }
    if report.decisions.is_empty() {
        let _ = writeln!(text, "decisions: none");
    } else {
        let _ = writeln!(text, "decisions:");
        for d in &report.decisions {
            let _ = writeln!(
                text,
                "  epoch {:<3} {:<15} share={}% corruption={} dwell={}",
                d.epoch,
                d.rule.label(),
                d.stall_share_pct,
                d.corruption,
                d.dwell
            );
        }
    }
    let _ = writeln!(
        text,
        "final: mode={} cache={} released_fus={} latched_fus={}",
        report.final_mode.label(),
        report.cache_health.label(),
        report.released_fus,
        report.latched_fus
    );
    write_or_print(&opts.out, &text)
}

fn run_adapt(opts: &AdaptOptions) -> ExitCode {
    if opts.benches.is_empty() {
        return run_adapt_campaign(opts);
    }
    // One closed-loop series per worker; index-ordered merge keeps the
    // output byte-identical for any --threads value (the report
    // serializes only simulated quantities).
    let reports = perf::parallel_map(opts.threads, opts.benches.len(), |i| {
        AdaptBenchReport::collect(
            opts.benches[i],
            opts.epochs,
            opts.campaign.tasks as usize,
            opts.campaign.seed,
            AdaptConfig::default(),
        )
    });
    let reports = match reports {
        Ok(r) => r,
        Err(p) => {
            eprintln!("{p}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = if opts.json {
        capcheri_bench::adapt::reports_to_json(&reports)
    } else {
        capcheri_bench::adapt::render_all(&reports)
    };
    write_or_print(&opts.out, &rendered)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        benches: Vec::new(),
        variant: SystemVariant::CheriCpuCheriAccel,
        tasks: 1,
        seed: 0xC0DE,
        threads: perf::auto_threads(),
        json: false,
        trace_out: None,
    };
    let mut it = args.iter();
    let first = it.next().ok_or_else(usage)?;
    if first == "all" {
        opts.benches = Benchmark::ALL.to_vec();
    } else {
        opts.benches.push(
            first
                .parse::<Benchmark>()
                .map_err(|e| format!("{e}\n\n{}", usage()))?,
        );
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--variant" => {
                let v = flag_value::<String>(flag, &mut it)?;
                opts.variant = SystemVariant::ALL
                    .into_iter()
                    .find(|x| x.label() == v)
                    .ok_or_else(|| format!("unknown variant {v:?}"))?;
            }
            "--tasks" => opts.tasks = flag_value(flag, &mut it)?,
            "--seed" => opts.seed = flag_value(flag, &mut it)?,
            "--threads" => opts.threads = flag_value::<usize>(flag, &mut it)?.max(1),
            "--json" => opts.json = true,
            "--trace-out" => opts.trace_out = Some(flag_value(flag, &mut it)?),
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }
    if opts.trace_out.is_some() && opts.benches.len() > 1 {
        return Err("--trace-out needs a single benchmark (events from \
                    several runs would share one file)"
            .to_owned());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let ran = match args.first().map(String::as_str) {
        Some("conformance") => {
            parse_conformance(rest).map(|(seed, ops, json)| run_conformance(seed, ops, json))
        }
        Some("verify") => parse_verify(rest).map(|(cfg, json, out)| run_verify(cfg, json, out)),
        Some("analyze") => parse_analyze(rest).map(|opts| run_analyze(&opts)),
        Some("profile") => parse_profile(rest).map(|opts| run_profile(&opts)),
        Some("adapt") => parse_adapt(rest).map(|opts| run_adapt(&opts)),
        Some("faults") => parse_faults(rest).map(|(config, json)| run_faults(&config, json)),
        _ => parse(&args).map(|opts| run_benches(&opts)),
    };
    ran.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        // Exit 1 is reserved for "property violated"; a bad invocation
        // is an internal error (exit 2), so CI can tell a red verdict
        // from a broken harness.
        ExitCode::from(2)
    })
}

fn run_benches(opts: &Options) -> ExitCode {
    let observed = opts.json || opts.trace_out.is_some();
    if !opts.json {
        println!(
            "{:<14} {:>12} {:>8} {:>12} {:>10} {:>9}",
            "benchmark", "variant", "tasks", "cycles", "setup", "bus util"
        );
    }
    // Each cell runs on its own worker with its own registry and trace
    // buffer; merging in benchmark order keeps every output byte-identical
    // to a sequential run. A worker panic surfaces as one clean error.
    let cells = perf::parallel_map(opts.threads, opts.benches.len(), |i| {
        let bench = opts.benches[i];
        if observed {
            let run = runner::run_benchmark_observed(bench, opts.variant, opts.tasks, opts.seed);
            let trace = opts
                .trace_out
                .is_some()
                .then(|| obs::chrome::chrome_trace_json(&run.events.sorted_by_cycle()));
            let report = BenchReport {
                bench: bench.name().to_owned(),
                variant: run.result.variant.label().to_owned(),
                tasks: run.result.tasks,
                seed: opts.seed,
                metrics: run.metrics,
            };
            (run.result, Some(report), trace)
        } else {
            let r = runner::run_benchmark(bench, opts.variant, opts.tasks, opts.seed);
            (r, None, None)
        }
    });
    let cells = match cells {
        Ok(c) => c,
        Err(p) => {
            eprintln!("{p}");
            return ExitCode::FAILURE;
        }
    };
    let mut reports = Vec::new();
    for (bench, (r, report, trace)) in opts.benches.iter().zip(cells) {
        if let (Some(path), Some(json)) = (&opts.trace_out, trace) {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        reports.extend(report);
        if !opts.json {
            println!(
                "{:<14} {:>12} {:>8} {:>12} {:>10} {:>8.1}%",
                bench.name(),
                r.variant.label(),
                r.tasks,
                r.cycles,
                r.setup_cycles,
                r.bus_utilization * 100.0
            );
        }
    }
    if opts.json {
        println!("{}", reports_to_json(&reports));
    }
    ExitCode::SUCCESS
}
