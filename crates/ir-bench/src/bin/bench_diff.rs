//! Diffs freshly emitted `BENCH_<figure>.json` series against a committed
//! baseline directory.
//!
//! Usage: `bench_diff [--update-baseline] <baseline_dir> <candidate_dir>`
//!
//! Every `BENCH_*.json` in the baseline must exist in the candidate and
//! pass [`ir_bench::compare_figures`]: same methods, same x grids, the
//! deterministic metrics (evaluated candidates, logical reads, memory)
//! exactly equal, and the cross-method dominance shape intact. Wall-clock
//! and physical-read metrics are never compared.
//!
//! Exit status distinguishes the failure class: **1** for metric
//! mismatches or unreadable input (a file, or either directory, named in
//! the message) — a regression in committed coverage — and **2** when the
//! only violations are *missing series* (a candidate emission with no
//! committed baseline, or a baseline the run no longer emits): coverage
//! drift that is fixed by committing or pruning a baseline, not by chasing
//! a metric. Mixed failures exit 1, the severer class. The CI regression
//! gate treats both as failures but the message (and status) tell the
//! operator which playbook applies.
//!
//! With `--update-baseline`, an intentional change is accepted instead:
//! every candidate `BENCH_*.json` is copied over the baseline directory
//! (commit the result) and the exit code is 0.

use ir_bench::{compare_figures, read_figure};
use std::path::Path;
use std::process::ExitCode;

fn bench_files(dir: &str) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read dir {dir}: {e}"))?;
    let mut files: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    files.sort();
    Ok(files)
}

fn update_baseline(baseline_dir: &str, candidate_dir: &str) -> ExitCode {
    let candidate_files = match bench_files(candidate_dir) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    if candidate_files.is_empty() {
        eprintln!("bench_diff: no BENCH_*.json files in {candidate_dir} to adopt");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(baseline_dir) {
        eprintln!("bench_diff: cannot create {baseline_dir}: {e}");
        return ExitCode::FAILURE;
    }
    for name in &candidate_files {
        let from = Path::new(candidate_dir).join(name);
        let to = Path::new(baseline_dir).join(name);
        if let Err(e) = std::fs::copy(&from, &to) {
            eprintln!("bench_diff: copying {name}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench_diff: refreshed {}", to.display());
    }
    // Prune series the candidate run no longer emits (renamed or removed
    // figures) — otherwise the refreshed baseline keeps failing with
    // "missing from candidate run".
    if let Ok(baseline_files) = bench_files(baseline_dir) {
        for stale in baseline_files
            .iter()
            .filter(|name| !candidate_files.contains(name))
        {
            let path = Path::new(baseline_dir).join(stale);
            if let Err(e) = std::fs::remove_file(&path) {
                eprintln!("bench_diff: removing stale {stale}: {e}");
                return ExitCode::FAILURE;
            }
            println!("bench_diff: removed stale {}", path.display());
        }
    }
    println!(
        "bench_diff: baseline updated from {} series — review and commit {baseline_dir}",
        candidate_files.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut update = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--update-baseline" {
            update = true;
        } else {
            positional.push(arg);
        }
    }
    let [baseline_dir, candidate_dir] = positional.as_slice() else {
        eprintln!("usage: bench_diff [--update-baseline] <baseline_dir> <candidate_dir>");
        return ExitCode::FAILURE;
    };

    if update {
        return update_baseline(baseline_dir, candidate_dir);
    }

    let (baseline_files, candidate_files) =
        match (bench_files(baseline_dir), bench_files(candidate_dir)) {
            (Ok(baseline), Ok(candidate)) => (baseline, candidate),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench_diff: {e}");
                return ExitCode::FAILURE;
            }
        };
    if baseline_files.is_empty() {
        eprintln!("no BENCH_*.json files in {baseline_dir}");
        return ExitCode::FAILURE;
    }

    // Violations grouped per series file, so the offender is named up
    // front. Missing-series violations (coverage drift) are tracked apart
    // from metric mismatches (regressions) — they exit with different
    // status codes.
    let mut missing: Vec<(String, String)> = Vec::new();
    let mut mismatches: Vec<(String, Vec<String>)> = Vec::new();
    let mut compared = 0usize;

    // Candidate emissions with no committed baseline would otherwise get
    // zero regression coverage forever — flag them.
    for name in candidate_files {
        if !baseline_files.contains(&name) {
            missing.push((
                name.clone(),
                format!("emitted but not in the baseline — commit it to {baseline_dir}"),
            ));
        }
    }

    for name in &baseline_files {
        let mut file_violations: Vec<String> = Vec::new();
        match read_figure(&Path::new(baseline_dir).join(name)) {
            Ok(baseline) => {
                let candidate_path = Path::new(candidate_dir).join(name);
                if !candidate_path.exists() {
                    missing.push((
                        name.clone(),
                        "in the baseline but missing from the candidate run".to_string(),
                    ));
                } else {
                    match read_figure(&candidate_path) {
                        Ok(candidate) => {
                            file_violations.extend(compare_figures(&baseline, &candidate));
                            compared += 1;
                        }
                        Err(e) => file_violations.push(format!("candidate unreadable: {e}")),
                    }
                }
            }
            Err(e) => file_violations.push(format!("baseline unreadable: {e}")),
        }
        if !file_violations.is_empty() {
            mismatches.push((name.clone(), file_violations));
        }
    }

    if missing.is_empty() && mismatches.is_empty() {
        println!("bench_diff: {compared} figure series match the baseline");
        return ExitCode::SUCCESS;
    }

    if !mismatches.is_empty() {
        let total: usize = mismatches.iter().map(|(_, v)| v.len()).sum();
        eprintln!(
            "bench_diff: {total} metric violation(s) in {} series file(s):",
            mismatches.len()
        );
        for (name, file_violations) in &mismatches {
            eprintln!("  {name}:");
            for v in file_violations {
                eprintln!("    - {v}");
            }
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "bench_diff: {} missing series (coverage drift, no metric compared):",
            missing.len()
        );
        for (name, reason) in &missing {
            eprintln!("  {name}: {reason}");
        }
    }
    eprintln!(
        "\nIf this change is intentional (new series, expected metric shift), refresh the \
         committed baseline with:\n  bench_diff --update-baseline {baseline_dir} {candidate_dir}\n\
         then review and commit the updated {baseline_dir}/BENCH_*.json files."
    );
    // Metric mismatch (or unreadable file): exit 1. Pure coverage drift
    // (series missing on one side only): exit 2, so callers can tell a
    // regression from an uncommitted baseline without parsing stderr.
    if mismatches.is_empty() {
        ExitCode::from(2)
    } else {
        ExitCode::FAILURE
    }
}
