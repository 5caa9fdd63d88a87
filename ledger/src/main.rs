//! `capcheri-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints noise diagnostics, then (traced) a per-layer table, and as the
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics. Exit status 0 when the run completed, 2 on bad arguments.

use capcheri_ledger::{run, Options, Outcome, Plan, Workbench, Workload};
use obs::json::JsonWriter;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: capcheri-ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn result_line(out: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.bool(out.failed == 0);
    w.key("attempted");
    w.u64(out.attempted);
    w.key("failed");
    w.u64(out.failed);
    w.key("metrics");
    w.begin_object();
    for m in &out.metrics {
        w.key(m.name);
        w.begin_object();
        w.key("value");
        w.f64(m.value);
        w.key("unit");
        w.string(m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let plan = Plan::of(workload);
    let out = run(workload, opts, || Workbench::new(&plan, opts.seed));
    for note in &out.failures {
        eprintln!("failed: {note}");
    }
    println!("{{\"diagnostics\": {}}}", out.diagnostics);
    if opts.trace {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.json", workload.name(), opts.seed));
        match out.recorder.write_chrome_trace(&spans) {
            Ok(()) => println!(
                "# {} spans written to {}",
                out.recorder.spans().len(),
                spans.display()
            ),
            Err(e) => eprintln!("could not write {}: {e}", spans.display()),
        }
        for m in &out.metrics {
            println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
