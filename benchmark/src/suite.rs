//! The whole-suite runner and the repeatability tools built on its
//! `results.json`.

use crate::contract::{Contract, MetricSpec};
use crate::json::{self, Json};
use crate::stats;
use crate::workload::{Scale, Workload};
use crate::Cli;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Run length when neither `--seconds` nor a contract gives one; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 12;

fn number(value: &Value, key: &str) -> Option<f64> {
    json::get(value, key).and_then(json::as_f64)
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    json::get(value, key).and_then(json::as_str).unwrap_or("")
}

fn is_traced(run: &Value) -> bool {
    json::get(run, "trace") == Some(&Value::Bool(true))
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    number(json::get(json::get(run, "metrics")?, name)?, "value")
}

/// Names from `specs` that `run` does not report as a finite number in the
/// unit the contract states.
fn missing_metrics(run: &Value, specs: &[MetricSpec]) -> Vec<String> {
    let reported = |spec: &MetricSpec| {
        let metric = json::get(json::get(run, "metrics")?, &spec.name)?;
        let finite = number(metric, "value").is_some_and(f64::is_finite);
        Some(finite && text(metric, "unit") == spec.unit)
    };
    specs
        .iter()
        .filter(|spec| reported(spec) != Some(true))
        .map(|spec| spec.name.clone())
        .collect()
}

/// Runs every workload in its own child process, one at a time (so peak
/// memory is per workload): untraced for the end-to-end metrics, then traced
/// for the per-layer ones. `--trace` restricts the suite to one of the two.
pub fn run_suite(cli: &Cli) -> Result<bool, String> {
    let contract = cli.contract.as_deref().map(Contract::read).transpose()?;
    let seconds = cli
        .seconds
        .or(contract.as_ref().map(|c| c.run_seconds))
        .unwrap_or(DEFAULT_SECONDS);
    let modes: &[bool] = match cli.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut all_ok = true;
    let mut runs = Vec::new();

    if let Some(contract) = &contract {
        let named: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        if contract.workloads != named {
            eprintln!(
                "BENCHMARK.json names workloads {:?}, the suite runs {named:?}",
                contract.workloads
            );
            all_ok = false;
        }
    }
    for workload in Workload::ALL {
        for &traced in modes {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload.name()])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&cli.out_dir);
            if cli.scale == Scale::Smoke {
                command.arg("--smoke");
            }
            let status = command
                .status()
                .map_err(|e| format!("starting {}: {e}", workload.name()))?;
            if !status.success() {
                eprintln!(
                    "{} (trace {}) exited with {status}",
                    workload.name(),
                    u8::from(traced)
                );
                all_ok = false;
            }
            let path = cli.out_dir.join(format!(
                "runs/{}.trace{}.json",
                workload.name(),
                u8::from(traced)
            ));
            let Ok(run) = Json::read(&path) else {
                eprintln!(
                    "{} (trace {}) left no result",
                    workload.name(),
                    u8::from(traced)
                );
                all_ok = false;
                continue;
            };
            if let Some(contract) = &contract {
                let specs = if traced {
                    &contract.per_layer
                } else {
                    &contract.end_to_end
                };
                let missing = missing_metrics(&run.0, specs);
                if !missing.is_empty() {
                    eprintln!("{} does not report {missing:?}", workload.name());
                    all_ok = false;
                }
            }
            runs.push(run.0);
        }
    }

    let results = Json(json::object([
        ("seed", Value::U64(cli.seed)),
        ("seconds", Value::U64(seconds)),
        ("smoke", Value::Bool(cli.scale == Scale::Smoke)),
        ("runs", Value::Seq(runs)),
    ]));
    let path = cli.out_dir.join("results.json");
    results.write(&path)?;
    println!(
        "# suite {}: results in {}",
        if all_ok { "ok" } else { "FAILED" },
        path.display()
    );
    Ok(all_ok)
}

fn read_runs(results: &Path) -> Result<Vec<Value>, String> {
    let document = Json::read(results)?;
    Ok(json::as_seq(json::get(&document.0, "runs").ok_or("results file has no runs")?).to_vec())
}

/// By how much `candidate` is worse than `reference`, as a share of
/// `reference` (negative when it is better).
fn worsening(spec: &MetricSpec, reference: f64, candidate: f64) -> f64 {
    let change = (candidate - reference) / reference;
    if spec.higher_is_better {
        -change
    } else {
        change
    }
}

/// Compares two suite runs of one seed on one build: every end-to-end
/// metric must agree within its bound (in either direction) and every count
/// must be identical.
pub fn compare(contract: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let contract = Contract::read(contract)?;
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let mut ok = true;
    println!("# workload metric first second difference bound verdict");
    for run_a in &runs_a {
        let (name, traced) = (text(run_a, "workload"), is_traced(run_a));
        let Some(run_b) = runs_b
            .iter()
            .find(|r| text(r, "workload") == name && is_traced(r) == traced)
        else {
            println!(
                "{name} (trace {}) is missing from the second set",
                u8::from(traced)
            );
            ok = false;
            continue;
        };
        for key in ["fingerprint", "counts", "calls", "tail_pct", "failed"] {
            if json::get(run_a, key) != json::get(run_b, key) {
                println!(
                    "{name} {key} differs: {:?} vs {:?}",
                    json::get(run_a, key),
                    json::get(run_b, key)
                );
                ok = false;
            }
        }
        if traced {
            continue;
        }
        for spec in &contract.end_to_end {
            let (Some(va), Some(vb)) = (
                metric_value(run_a, &spec.name),
                metric_value(run_b, &spec.name),
            ) else {
                println!("{name} {} missing", spec.name);
                ok = false;
                continue;
            };
            let difference = worsening(spec, va, vb);
            let bound = spec.bound.unwrap_or(0.0);
            let within = difference.abs() <= bound;
            ok &= within;
            println!(
                "{name} {} {va} {vb} {:+.2}% {:.1}% {}",
                spec.name,
                difference * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

/// Every `results.json` one level below `dir` (one suite run per seed).
fn result_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| Some(entry.ok()?.path().join("results.json")))
        .filter(|path| path.is_file())
        .collect();
    files.sort();
    Ok(files)
}

/// One value per seed of `metric` on `workload` (untraced runs).
fn values_across_seeds(sets: &[Vec<Value>], workload: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .flatten()
        .filter(|run| text(run, "workload") == workload && !is_traced(run))
        .filter_map(|run| metric_value(run, metric))
        .collect()
}

/// The acceptance procedure of the benchmark contract: two sets of runs, one
/// run per seed. For every workload and end-to-end metric the interquartile
/// range of each set, as a share of its median, must stay within the
/// metric's bound (`setup_s` excepted), and the second set's median must not
/// be worse than the first's by more than the bound.
pub fn spread(contract: &Path, a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let contract = Contract::read(contract)?;
    let load = |dir: &Path| -> Result<Vec<Vec<Value>>, String> {
        result_files(dir)?.iter().map(|f| read_runs(f)).collect()
    };
    let (set_a, set_b) = (load(a_dir)?, load(b_dir)?);
    let mut ok = true;
    println!("# workload metric median_a spread_a spread_b drift bound verdict");
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let a = values_across_seeds(&set_a, workload, &spec.name);
            let b = values_across_seeds(&set_b, workload, &spec.name);
            if a.len() < 2 || b.len() < 2 {
                println!("{workload} {} has fewer than two runs per set", spec.name);
                ok = false;
                continue;
            }
            let relative_iqr = |values: &[f64]| {
                let [q1, q2, q3] = stats::quartiles(values);
                ((q3 - q1) / q2, q2)
            };
            let ((spread_a, median_a), (spread_b, median_b)) = (relative_iqr(&a), relative_iqr(&b));
            let drift = worsening(spec, median_a, median_b);
            let bound = spec.bound.unwrap_or(0.0);
            let widest = spread_a.max(spread_b);
            let verdict = if drift > bound || (spec.name != "setup_s" && widest > bound) {
                ok = false;
                "EXCEEDED"
            } else if widest > bound / 3.0 {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            println!(
                "{workload} {} {median_a} {:.2}% {:.2}% {:+.2}% {:.1}% {verdict}",
                spec.name,
                spread_a * 100.0,
                spread_b * 100.0,
                drift * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn the_contract_describes_this_suite() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let contract = Contract::read(&path).unwrap();
        assert_eq!(contract.run_seconds, DEFAULT_SECONDS);
        let named: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(contract.workloads, named);
        assert!(contract.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(contract.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(&spec(false), 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&spec(true), 100.0, 110.0) + 0.1).abs() < 1e-12);
        assert!((worsening(&spec(true), 100.0, 90.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn missing_and_non_finite_metrics_are_reported() {
        let run = Json::parse(
            r#"{"metrics":{"m":{"value":1.5,"unit":"u"},"n":{"value":null,"unit":"u"},"o":{"value":2,"unit":"x"}}}"#,
        )
        .unwrap();
        assert!(missing_metrics(&run.0, &[spec(true)]).is_empty());
        let named = |name: &str| MetricSpec {
            name: name.to_string(),
            ..spec(true)
        };
        let specs = [named("n"), named("o"), named("absent")];
        assert_eq!(missing_metrics(&run.0, &specs), ["n", "o", "absent"]);
    }
}
