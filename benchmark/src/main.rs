//! Wall-clock benchmark of the immutable-regions serving stack.
//!
//! * `ir-benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//!   workload in this process, prints `workload metric value unit` lines and
//!   ends with the one-line JSON result the benchmark contract asks for.
//! * Without `--workload` it runs the whole suite: every workload in a fresh
//!   child process, one at a time, first untraced then traced, and writes
//!   `results.json`.
//! * `compare A B` and `spread A_DIR B_DIR` judge repeatability against the
//!   bounds in `BENCHMARK.json` (see `repeat.sh`).

mod contract;
mod json;
mod oracle;
mod probes;
mod run;
mod stats;
mod suite;
mod sys;
mod trace;
mod traced;
mod workload;

use run::{RunOpts, RunReport};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Scale, Workload};

/// Options shared by the single-workload and the suite mode.
pub struct Cli {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<u64>,
    pub trace: Option<bool>,
    pub scale: Scale,
    pub out_dir: PathBuf,
    pub contract: Option<PathBuf>,
    pub corrupt_oracle: bool,
}

pub const DEFAULT_SEED: u64 = 0xBEEF;

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("not a number: {text}"))
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        scale: Scale::Full,
        out_dir: PathBuf::from("benchmark/out"),
        contract: None,
        corrupt_oracle: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => cli.seed = parse_u64(&value()?)?,
            "--seconds" => cli.seconds = Some(parse_u64(&value()?)?.clamp(1, 60)),
            "--trace" => cli.trace = Some(parse_u64(&value()?)? != 0),
            "--out" => cli.out_dir = PathBuf::from(value()?),
            "--contract" => cli.contract = Some(PathBuf::from(value()?)),
            "--smoke" => cli.scale = Scale::Smoke,
            "--corrupt-oracle" => cli.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The per-run detail document the suite and `repeat.sh` read back.
fn detail(opts: &RunOpts, report: &RunReport) -> json::Json {
    let metrics = report.metrics.iter().map(|m| {
        (
            m.name,
            json::object([
                ("value", Value::F64(m.value)),
                ("unit", json::string(m.unit)),
            ]),
        )
    });
    json::Json(json::object([
        ("workload", json::string(opts.workload.name())),
        ("seed", Value::U64(opts.seed)),
        ("seconds", Value::U64(opts.seconds)),
        ("trace", Value::Bool(opts.traced)),
        ("smoke", Value::Bool(opts.scale == Scale::Smoke)),
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::U64(report.attempted)),
        ("failed", Value::U64(report.failed)),
        ("calls", Value::U64(report.calls as u64)),
        ("items_per_call", Value::U64(report.items_per_call as u64)),
        ("passes", Value::U64(report.passes as u64)),
        ("tail_pct", Value::F64(report.tail_pct)),
        (
            "fingerprint",
            json::object(
                report
                    .fingerprint
                    .parts()
                    .map(|(name, hash)| (name, json::string(format!("{hash:016x}")))),
            ),
        ),
        (
            "counts",
            json::object(report.counts.iter().map(|(k, v)| (*k, Value::U64(*v)))),
        ),
        (
            "problems",
            Value::Seq(report.problems.iter().map(json::string).collect()),
        ),
        ("metrics", json::object(metrics)),
    ]))
}

fn run_one(cli: &Cli, workload: Workload) -> Result<bool, String> {
    let opts = RunOpts {
        workload,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(suite::DEFAULT_SECONDS),
        traced: cli.trace.unwrap_or(false),
        scale: cli.scale,
        out_dir: cli.out_dir.clone(),
        corrupt_oracle: cli.corrupt_oracle,
    };
    std::fs::create_dir_all(opts.out_dir.join("runs"))
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let report = run::run(&opts)?;

    let name = workload.name();
    for metric in &report.metrics {
        let note = match metric.name {
            "call_p50_us" => format!(
                "  # {} calls, min of {} passes",
                report.calls, report.passes
            ),
            "call_tail_us" => format!("  # p{} of {} calls", report.tail_pct, report.calls),
            _ => String::new(),
        };
        println!(
            "{name} {} {} {}{note}",
            metric.name, metric.value, metric.unit
        );
    }
    for (part, hash) in report.fingerprint.parts() {
        println!("{name} fingerprint.{part} {hash:016x} fnv1a64");
    }
    for problem in &report.problems {
        eprintln!("{name}: {problem}");
    }

    let document = detail(&opts, &report);
    let trace = u8::from(opts.traced);
    document.write(&opts.out_dir.join(format!("runs/{name}.trace{trace}.json")))?;

    // The contract's result line: exactly these four keys, last on stdout.
    let result = json::object([
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::U64(report.attempted)),
        ("failed", Value::U64(report.failed)),
        (
            "metrics",
            json::get(&document.0, "metrics")
                .cloned()
                .unwrap_or(Value::Null),
        ),
    ]);
    println!("{}", json::Json(result).render());
    Ok(report.correct())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, contract, a, b] => suite::compare(contract.as_ref(), a.as_ref(), b.as_ref()),
            _ => Err("usage: compare BENCHMARK.json A/results.json B/results.json".to_string()),
        },
        Some("spread") => match args {
            [_, contract, a, b] => suite::spread(contract.as_ref(), a.as_ref(), b.as_ref()),
            _ => Err("usage: spread BENCHMARK.json A_DIR B_DIR".to_string()),
        },
        _ => {
            let cli = parse_cli(args)?;
            match cli.workload {
                Some(workload) => run_one(&cli, workload),
                None => suite::run_suite(&cli),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ir-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
