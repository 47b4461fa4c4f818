//! One layered benchmark for the I-JVM.
//!
//! ```text
//! ijvm-perfbench --workload <spec|gateway|cluster|all> --seed <n> --seconds <s> --trace <0|1>
//!                [--wrong-reference] [--out <dir>]
//! ijvm-perfbench --check-results <file>
//! ```
//!
//! Runs the named workload with inputs made from `--seed`, checks every
//! operation's output against a reference computed outside the VM, and
//! prints the workload's metrics with their units. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The results file (with provenance) and, in a
//! traced run, the recorded spans go to `--out` (default `.perfbench`).
//! Any failed operation makes the exit code 1.

// Wall-clock timing is this program's job.
#![allow(clippy::disallowed_types)]

mod cluster;
mod gateway;
mod json;
mod report;
mod results;
mod spec;
mod stats;
mod trace;

use report::{Config, Metric, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["spec", "gateway", "cluster"];

struct Args {
    workloads: Vec<&'static str>,
    cfg: Config,
    out: PathBuf,
}

fn usage() -> String {
    "usage: ijvm-perfbench --workload <spec|gateway|cluster|all> --seed <n> --seconds <s> \
     --trace <0|1> [--wrong-reference] [--out <dir>]\n       ijvm-perfbench --check-results <file>"
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut wrong_reference = false;
    let mut out = PathBuf::from(".perfbench");
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--wrong-reference" {
            wrong_reference = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS
            .iter()
            .find(|w| **w == workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    Ok(Args {
        workloads,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            wrong_reference,
        },
        out,
    })
}

fn run_workload(name: &str, cfg: &Config, tracer: &mut Tracer) -> Report {
    match name {
        "spec" => spec::run(cfg, tracer),
        "gateway" => gateway::run(cfg, tracer),
        "cluster" => cluster::run(cfg, tracer),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// The metrics of the last output line: exactly the `BENCHMARK.json` list
/// for the mode, each present (a layer the workload never calls reads 0).
fn contract_metrics(report: &Report, trace: bool) -> Vec<Metric> {
    let (wanted, have): (&[(&str, &str)], &[Metric]) = if trace {
        (&PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    wanted
        .iter()
        .map(|(name, unit)| {
            let value = have
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            Metric {
                name: (*name).to_owned(),
                value,
                unit,
            }
        })
        .collect()
}

fn print_report(name: &str, r: &Report) {
    println!(
        "== {name}: {} operations, {} failed (fail_ratio {})",
        r.attempted,
        r.failed,
        r.fail_ratio()
    );
    for (title, metrics) in [
        ("end-to-end", &r.end_to_end),
        ("workload", &r.named),
        ("per-layer", &r.layers),
    ] {
        for m in metrics.iter() {
            println!("  {title:<10} {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

fn write_out(
    args: &Args,
    prov: &results::Provenance,
    reports: &[(&str, Report)],
    spans: &[(&str, Tracer)],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!("results-{}.json", prov.run_id));
    std::fs::write(&path, results::render(prov, &args.cfg, reports))?;
    for (name, tracer) in spans {
        let file =
            std::fs::File::create(args.out.join(format!("spans-{}-{name}.jsonl", prov.run_id)))?;
        let mut w = std::io::BufWriter::new(file);
        tracer.write_jsonl(&mut w)?;
        std::io::Write::flush(&mut w)?;
    }
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--check-results") {
        let Some(path) = argv.get(1) else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        let checked = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| results::check(&text));
        return match checked {
            Ok(names) => {
                println!("{path}: one run, workloads {}", names.join(", "));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: rejected: {e}");
                ExitCode::from(1)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let prov = results::Provenance::current();
    println!(
        "run {} git {} nproc {} seed {} seconds {} trace {}",
        prov.run_id, prov.git_rev, prov.nproc, args.cfg.seed, args.cfg.seconds, args.cfg.trace
    );
    let mut reports = Vec::new();
    let mut spans = Vec::new();
    for name in &args.workloads {
        let mut tracer = Tracer::new(args.cfg.trace);
        let report = run_workload(name, &args.cfg, &mut tracer);
        print_report(name, &report);
        reports.push((*name, report));
        if args.cfg.trace {
            spans.push((*name, tracer));
        }
    }
    match write_out(&args, &prov, &reports, &spans) {
        Ok(path) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results: {e}");
            return ExitCode::from(1);
        }
    }

    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.failed).sum();
    let correct = failed == 0 && attempted > 0;
    // With `--workload all`, metric names carry a `<workload>/` prefix.
    let mut metrics = Vec::new();
    for (name, report) in &reports {
        for m in contract_metrics(report, args.cfg.trace) {
            let key = if reports.len() == 1 {
                m.name
            } else {
                format!("{name}/{}", m.name)
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&key),
                json::number(m.value),
                json::string(m.unit)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
