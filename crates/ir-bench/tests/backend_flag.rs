//! The `--backend` flag rejects a name that is no backend with exit status
//! 2 before any work starts — never a silent fallback to mem, which would
//! emit series indistinguishable from a real mem run.

use std::process::Command;

#[test]
fn removed_mmap_backend_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["figure10_wsj_qlen", "--backend", "mmap"])
        .env("IR_BENCH_SCALE", "smoke")
        .output()
        .expect("starting the figures runner");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("mem") && stderr.contains("file"),
        "the error must list the backends that exist: {stderr}"
    );
    assert!(output.stdout.is_empty(), "no table may be printed");
}
