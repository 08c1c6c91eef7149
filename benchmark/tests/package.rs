//! Checks on the package as a whole: the build profile it measures with and
//! the exit status of a run whose outputs fail the oracle.

use std::path::Path;
use std::process::Command;

/// The `key = value` lines of `[profile.release]` in a manifest, sorted.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("reading {}: {e}", manifest.display()));
    let mut settings: Vec<String> = text
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty())
        .map(|line| line.split_whitespace().collect::<String>())
        .collect();
    settings.sort();
    settings
}

#[test]
fn release_profile_equals_the_root_manifest() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let own = release_profile(&package.join("Cargo.toml"));
    let root = release_profile(&package.join("../Cargo.toml"));
    assert!(
        !own.is_empty(),
        "no [profile.release] in the benchmark manifest"
    );
    assert_eq!(
        own, root,
        "the benchmark must measure the code as the root manifest ships it"
    );
}

fn smoke_run(extra: &[&str]) -> (Option<i32>, String) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("out-{}", extra.len()));
    let output = Command::new(env!("CARGO_BIN_EXE_ir-benchmark"))
        .args(["--workload", "wsj_cpt_warm", "--smoke", "--seed", "3"])
        .args(["--seconds", "1", "--trace", "0", "--out"])
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("starting the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last_line = stdout.lines().last().unwrap_or("").to_string();
    (output.status.code(), last_line)
}

#[test]
fn a_corrupted_expectation_makes_the_run_exit_non_zero() {
    let (status, result) = smoke_run(&[]);
    assert_eq!(status, Some(0), "{result}");
    assert!(result.starts_with("{\"correct\":true,"), "{result}");
    assert!(result.contains("\"failed\":0,"), "{result}");

    let (status, result) = smoke_run(&["--corrupt-oracle"]);
    assert_eq!(status, Some(1), "{result}");
    assert!(result.starts_with("{\"correct\":false,"), "{result}");
    assert!(result.contains("\"failed\":1,"), "{result}");
}
