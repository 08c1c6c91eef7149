#!/usr/bin/env bash
# CI entry point for the immutable-regions workspace. Fully offline: every
# dependency is a vendored path crate (see vendor/README.md).
#
# Stages:
#   1. formatting        — cargo fmt --check
#   2. lints             — clippy -D warnings on all targets; unwrap/expect
#                          denied in non-test ir-storage and ir-core code;
#                          every lib.rs forbids unsafe_code, no `unsafe`
#                          token in code position under crates/, no
#                          thread_local! under crates/ (counters travel
#                          with the work, stamps are passed explicitly),
#                          no `entries().to_vec()` deep copy of the
#                          candidate list under crates/ (borrow it), and no
#                          from-scratch `sweep_topk(` in ir-core/src
#   3. tier-1 verify     — cargo build --release && cargo test -q (the
#                          chaos suite included)
#   4. api docs          — cargo doc --no-deps with rustdoc warnings as
#                          errors, plus the README/ARCHITECTURE doc anchors
#   5. example smoke     — every example and runner, sequential, mem
#   6. batch smoke       — the seven figures at --threads 2, emitting the
#                          BENCH_<figure>.json series stages 7 and 9 diff
#   7. backend matrix    — every runner on --backend file at --threads 2
#                          must emit exactly the stage-6 series
#                          (bench_diff --exact), policy stamps asserted
#   8. snapshot matrix   — a figure served from a reopened snapshot on both
#                          backends must emit exactly the built-index
#                          series, cold-start stamp asserted
#   9. bench baseline    — the stage-6 series against bench_baselines/
#                          (shape and deterministic metrics, never timing)
#  10. benchmark package — the standalone benchmark/ workspace builds and
#                          passes its tests offline, then runs its smoke
#                          suite (every workload's oracle check and every
#                          BENCHMARK.json metric) on that same build
#
# A per-stage wall-clock table is printed at the end. Scratch directories
# come from `mktemp -d`; set TMPDIR to keep them out of /tmp.

set -euo pipefail
cd "$(dirname "$0")"

STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_START=0

begin_stage() {
    CURRENT_STAGE="$1"
    STAGE_START=$SECONDS
    printf '\n=== %s ===\n' "$1"
}

end_stage() {
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_SECS+=($((SECONDS - STAGE_START)))
}

# Each entry is spliced unquoted after `--bin`: the binary, `--`, and (for
# `figures`, which serves Figures 10–16 and alone emits JSON) the figure id.
FIGURE_BINS=("figures -- figure10_wsj_qlen" "figures -- figure11_st_qlen"
    "figures -- figure12_kb_qlen" "figures -- figure13_vary_k"
    "figures -- figure14_vary_phi" "figures -- figure15_oneoff_vs_iterative"
    "figures -- figure16_composition_only")
RUNNER_BINS=("figure06_partitions --" "${FIGURE_BINS[@]}" "ablation_design_choices --")

begin_stage "1/10 cargo fmt --check"
cargo fmt --all --check
end_stage

begin_stage "2/10 lints: clippy, unwrap/expect gate, no-unsafe + layering asserts"
cargo clippy --workspace --all-targets -- -D warnings
# Non-test code in the storage and compute layers must not panic on
# fallible paths: deny unwrap/expect outright (tests keep using them).
cargo clippy -q --no-deps -p ir-storage -p ir-core --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used
# Every crate forbids unsafe code...
for lib in crates/*/src/lib.rs; do
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "FAIL: $lib does not forbid unsafe_code" >&2
        exit 1
    fi
done
# ...and the bare `unsafe` token appears nowhere in code position (word
# match: `unsafe_code` in lint attributes does not count; comment/doc lines
# are filtered out so prose may mention the word).
if grep -rnw 'unsafe' crates --include='*.rs' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|//!|///)'; then
    echo "FAIL: unsafe code under crates/ (listed above)" >&2
    exit 1
fi
# No layer keeps state in thread-local cells: I/O counters are tallies
# owned by the unit of work, and the bench envelope is stamped from values
# passed explicitly.
if grep -rn 'thread_local!' crates; then
    echo "FAIL: thread_local! under crates/ (listed above)" >&2
    exit 1
fi
# Solvers and runners borrow the candidate list; a per-dimension deep copy
# of every candidate and its coordinates is what this guards against.
if grep -rn 'entries().to_vec()' crates; then
    echo "FAIL: entries().to_vec() under crates/ (listed above)" >&2
    exit 1
fi
# The φ solver folds candidates into incremental sweeps; a from-scratch
# sweep per round is the quadratic cost this guards against.
if grep -rn 'sweep_topk(' crates/ir-core/src; then
    echo "FAIL: from-scratch sweep_topk( under crates/ir-core/src (listed above)" >&2
    exit 1
fi
echo "no-unsafe and layering assertions hold"
end_stage

begin_stage "3/10 tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q
end_stage

begin_stage "4/10 cargo doc --no-deps (rustdoc warnings are errors) + doc anchors"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p ir-types -p ir-storage -p ir-geometry -p ir-topk -p ir-core \
    -p ir-datagen -p ir-bench -p immutable-regions
# The prose docs must stay wired together: the README links the
# architecture doc, and the section anchors each file promises the other
# (and the ROADMAP/tests reference) actually resolve.
grep -q '(ARCHITECTURE.md)' README.md ||
    { echo "FAIL: README.md does not link ARCHITECTURE.md" >&2; exit 1; }
for anchor in '^## Layer diagram' '^## Determinism and the oracle philosophy' \
    '^## On-disk formats' '^## The update / invalidation data flow'; do
    grep -q "$anchor" ARCHITECTURE.md ||
        { echo "FAIL: ARCHITECTURE.md anchor missing: $anchor" >&2; exit 1; }
done
for anchor in '^## Dynamic updates' '^## Snapshots & cold start' \
    '^## Serving a subscription fleet'; do
    grep -q "$anchor" README.md ||
        { echo "FAIL: README.md anchor missing: $anchor" >&2; exit 1; }
done
echo "doc anchors resolve"
end_stage

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
emit_dir_t2="$work/emit-t2"
emit_dir_file_t2="$work/emit-file-t2"
snap_root="$work/snap-root"
snap_built="$work/snap-built"
snap_mem="$work/snap-mem"
snap_file="$work/snap-file"

begin_stage "5/10 example + figure-runner smoke loop (sequential, mem)"
for example in quickstart document_retrieval hotel_sensitivity weight_tuning; do
    printf -- '--- example: %s\n' "$example"
    cargo run --release -q -p immutable-regions --example "$example" >/dev/null
done
# Every figure/ablation runner must complete at smoke scale — compiling is
# not enough, they have runtime config (workload eligibility) to exercise.
for figure_bin in "${RUNNER_BINS[@]}"; do
    printf -- '--- figure runner: %s\n' "$figure_bin"
    # shellcheck disable=SC2086
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin $figure_bin >/dev/null
done
end_stage

begin_stage "6/10 figures at --threads 2 (batch path) + JSON emission"
for figure_bin in "${FIGURE_BINS[@]}"; do
    printf -- '--- figure runner (threads=2): %s\n' "$figure_bin"
    # shellcheck disable=SC2086
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin $figure_bin \
        --threads 2 --emit-json "$emit_dir_t2" >/dev/null
done
end_stage

begin_stage "7/10 backend matrix: file at --threads 2"
for figure_bin in "${RUNNER_BINS[@]}"; do
    printf -- '--- figure runner (file, threads=2): %s\n' "$figure_bin"
    # shellcheck disable=SC2086
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin $figure_bin \
        --backend file --threads 2 --emit-json "$emit_dir_file_t2" >/dev/null
done
# Guard against a vacuous matrix: deterministic output is backend-invariant
# by design, so assert via the policy stamps that the file backend actually
# ran (a backend-selection regression would otherwise emit mem series that
# compare clean).
for f in "$emit_dir_file_t2"/BENCH_*.json; do
    grep -q '"backend":"File"' "$f" ||
        { echo "FAIL: $f was not served by the file backend" >&2; exit 1; }
done
# The file emissions must be *exactly* the mem emissions of stage 6 in every
# deterministic metric (io counters that legitimately differ — timing and
# physical reads — are never part of the comparison).
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact "$emit_dir_t2" "$emit_dir_file_t2"
end_stage

begin_stage "8/10 snapshot matrix: save/reopen under both backends + exact diff"
# Built-index oracle emission for the representative figure (mem, threads 2).
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin figures -- \
    figure11_st_qlen --threads 2 --emit-json "$snap_built" >/dev/null
# The same figure served from a persisted snapshot under each backend: the
# runner builds once in memory, saves into $snap_root, reopens zero-copy.
printf -- '--- snapshot-served (mem, threads=2)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin figures -- \
    figure11_st_qlen --threads 2 --snapshot-dir "$snap_root" --emit-json "$snap_mem" >/dev/null
printf -- '--- snapshot-served (file, threads=2)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin figures -- \
    figure11_st_qlen --backend file --threads 2 --snapshot-dir "$snap_root" \
    --emit-json "$snap_file" >/dev/null
# Snapshot-served output must be *exactly* the built-index output in every
# deterministic metric, and the envelope's cold-start stamp (beside the
# policy, not inside it) must prove the engine really came up from a
# snapshot (guard against a vacuous staging path).
for d in "$snap_mem" "$snap_file"; do
    cargo run --release -q -p ir-bench --bin bench_diff -- --exact "$snap_built" "$d"
    grep -q '},"cold_start":{"source":"Snapshot"' "$d"/BENCH_*.json ||
        { echo "FAIL: $d was not served from a snapshot" >&2; exit 1; }
done
end_stage

begin_stage "9/10 bench_diff against committed baseline"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    bench_baselines "$emit_dir_t2"
end_stage

begin_stage "10/10 benchmark package: build, tests, smoke run"
# benchmark/ is its own workspace with path deps on these crates and is not
# covered by any cargo invocation above.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# run.sh builds into the same target directory, so this reuses the build
# above. It exits non-zero when a workload fails its oracle check or a
# metric named in BENCHMARK.json is missing.
bash benchmark/run.sh --smoke >/dev/null
end_stage

printf '\n=== stage timing summary ===\n'
printf '%-64s %8s\n' "stage" "seconds"
total=0
for i in "${!STAGE_NAMES[@]}"; do
    printf '%-64s %8s\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    total=$((total + STAGE_SECS[i]))
done
printf '%-64s %8s\n' "total" "$total"

printf '\nCI OK\n'
