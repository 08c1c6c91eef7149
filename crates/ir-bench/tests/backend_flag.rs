//! An argument that names nothing stops a binary before any work starts.
//! `figures` exits 2 on any argument but `--emit-json DIR`, the two runners
//! that emit no series on any argument at all, and every runner on an
//! `IR_BENCH_SCALE` that is no scale — never a silent fallback, which would
//! print tables for a run nobody asked for. `bench_diff` exits 1 on a
//! candidate directory it cannot read, naming it.

use std::process::Command;

/// Runs `runner` with `leading` and then `flag` at smoke scale: it must exit
/// 2 without printing a table, naming the argument and `usage`.
fn assert_rejected(runner: &str, leading: &[&str], flag: &[&str], usage: &str) {
    let output = Command::new(runner)
        .args(leading)
        .args(flag)
        .env("IR_BENCH_SCALE", "smoke")
        .output()
        .expect("starting a runner");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let at = format!("{runner} {flag:?}");
    assert_eq!(output.status.code(), Some(2), "{at}: {stderr}");
    assert!(
        stderr.contains(flag[0]) && stderr.contains(usage),
        "{at}: the error must name the argument and `{usage}`: {stderr}"
    );
    assert!(output.stdout.is_empty(), "{at}: no table may be printed");
}

#[test]
fn removed_and_mistyped_runner_flags_exit_2() {
    let flags: [&[&str]; 5] = [
        &["--emit-jsn", "d"],
        &["--threads", "2"],
        &["--backend", "file"],
        &["--snapshot-dir", "d"],
        &["--fault-plan", "f"],
    ];
    for flag in flags {
        let figures = env!("CARGO_BIN_EXE_figures");
        assert_rejected(figures, &["figure10_wsj_qlen"], flag, "--emit-json DIR");
    }
    let no_series = [
        env!("CARGO_BIN_EXE_figure06_partitions"),
        env!("CARGO_BIN_EXE_ablation_design_choices"),
    ];
    for runner in no_series {
        for flag in flags.into_iter().chain([&["--emit-json", "d"][..]]) {
            assert_rejected(runner, &[], flag, "takes no option");
        }
    }
}

#[test]
fn mistyped_scale_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("figure10_wsj_qlen")
        .env("IR_BENCH_SCALE", "fulll")
        .output()
        .expect("starting the figures runner");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("smoke") && stderr.contains("default") && stderr.contains("full"),
        "the error must list the scales that exist: {stderr}"
    );
    assert!(output.stdout.is_empty(), "no table may be printed");
}

#[test]
fn unreadable_candidate_dir_exits_1_naming_it() {
    let baselines = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_baselines");
    let scratch = tempfile::tempdir().unwrap();
    let missing = scratch.path().join("never_emitted");
    let missing = missing.to_str().unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args([baselines, missing])
        .output()
        .expect("starting bench_diff");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(missing),
        "the error must name {missing}: {stderr}"
    );
    assert!(
        !stderr.contains("--update-baseline"),
        "nothing to adopt from a directory that cannot be read: {stderr}"
    );
}
