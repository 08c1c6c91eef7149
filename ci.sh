#!/usr/bin/env bash
# CI entry point for the immutable-regions workspace.
#
# Stages:
#   1. formatting        — cargo fmt --check
#   2. lints             — cargo clippy, all targets, warnings are errors;
#                          a clippy gate that denies unwrap/expect in the
#                          non-test code of ir-storage and ir-core;
#                          grep-asserts that every crate's lib.rs carries
#                          forbid(unsafe_code), that no `unsafe` token
#                          appears in code position anywhere under crates/,
#                          and that ir-bench keeps no thread_local! stamping
#                          cells
#   3. tier-1 verify     — cargo build --release && cargo test -q (this
#                          includes the chaos suite: seeded fault plans
#                          against both backends and every thread count)
#   4. api docs          — cargo doc --no-deps for all eight crates with
#                          rustdoc warnings as errors, so the public API
#                          (the IrEngine façade in particular) stays fully
#                          documented; grep-asserts that the README links
#                          ARCHITECTURE.md and that the doc anchors both
#                          files promise (layer diagram, formats, update
#                          flow, the Dynamic updates section) resolve
#   5. example smoke     — every example and figure runner runs to
#                          completion sequentially (mem backend)
#   6. parallel smoke    — every figure runner again at --threads 2, so the
#                          parallel execution layer is exercised in CI; the
#                          table runners emit BENCH_<figure>.json series for
#                          the backend matrix of stage 7 and the baseline
#                          diff of stage 11
#   7. backend matrix    — every figure runner with --backend file at
#                          --threads 2; the emitted deterministic metrics
#                          must match the mem-backend emissions of stage 6
#                          *exactly* (bench_diff --exact; io/timing
#                          counters that legitimately differ are never
#                          compared); the policy stamps are asserted so a
#                          backend-selection regression cannot make the
#                          matrix pass vacuously
#   8. snapshot matrix   — a figure runner served from a persisted index
#                          snapshot (--snapshot-dir) under both backends
#                          must emit *exactly* the built-index series
#                          (bench_diff --exact), with the envelope's
#                          cold-start stamp asserted ("cold_start":
#                          {"source":"Snapshot") so a staging regression
#                          cannot pass vacuously; the cold_start runner then
#                          self-checks the snapshot's bring-up win
#                          conditions (pages touched / bytes decoded, never
#                          wall-clock)
#   9. fleet service     — the fleet runner (a SubscriptionManager under a
#                          deterministic drift stream) at smoke scale on the
#                          mem and file backends; the runner self-checks the
#                          serving economics (exit 1 on violation), the two
#                          emissions must match *exactly* (bench_diff
#                          --exact) with the policy stamps asserted, and
#                          both are gated against the committed
#                          bench_baselines/fleet/ baseline
#  10. dynamic updates   — the dynamic runner (a subscription fleet under a
#                          deterministic Zipf-popular tuple-update stream)
#                          at smoke scale on the mem and file backends; the
#                          runner self-checks the update model (survival
#                          majority, maintenance I/O strictly below the
#                          rebuild-per-batch I/O, incremental answers and
#                          maintained region reports byte-identical to a
#                          fresh engine on the mutated dataset; exit 1 on
#                          violation), the two emissions must match
#                          *exactly* (bench_diff --exact) with the policy
#                          stamps asserted, and both are gated against the
#                          committed bench_baselines/dynamic/ baseline
#  11. bench baseline    — bench_diff compares the stage-6 series against
#                          the committed bench_baselines/ (shape and the
#                          deterministic metrics, never wall-clock)
#  12. benchmark package — the standalone benchmark/ package (its own
#                          workspace, path deps on these crates) builds and
#                          passes its tests offline, so a public-API break
#                          fails here and not in the bench pipeline
#
# Per-stage wall-clock timings are collected and echoed as a summary table
# at the end, so slow stages are visible at a glance in CI logs.
#
# Everything is offline: all dependencies are vendored path crates (see
# vendor/README.md), so this script works without network access.

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
# the `figures` bin, which serves Figures 10–16) the figure id.
RUNNER_BINS=("figure06_partitions --" "figures -- figure10_wsj_qlen"
    "figures -- figure11_st_qlen" "figures -- figure12_kb_qlen"
    "figures -- figure13_vary_k" "figures -- figure14_vary_phi"
    "figures -- figure15_oneoff_vs_iterative"
    "figures -- figure16_composition_only" "ablation_design_choices --")

begin_stage "1/12 cargo fmt --check"
cargo fmt --all --check
end_stage

begin_stage "2/12 lints: clippy, unwrap/expect gate, no-unsafe + layering asserts"
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
# The bench harness stamps its envelope from values passed explicitly,
# never from thread-local cells.
if grep -rn 'thread_local!' crates/ir-bench/src; then
    echo "FAIL: thread_local! under crates/ir-bench/src (listed above)" >&2
    exit 1
fi
echo "no-unsafe and layering assertions hold"
end_stage

begin_stage "3/12 tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q
end_stage

begin_stage "4/12 cargo doc --no-deps (rustdoc warnings are errors) + doc anchors"
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

emit_dir_t2="$(mktemp -d)"
emit_dir_file_t2="$(mktemp -d)"
snap_root="$(mktemp -d)"
snap_built="$(mktemp -d)"
snap_mem="$(mktemp -d)"
snap_file="$(mktemp -d)"
cold_dir="$(mktemp -d)"
fleet_mem="$(mktemp -d)"
fleet_file="$(mktemp -d)"
dynamic_mem="$(mktemp -d)"
dynamic_file="$(mktemp -d)"
trap 'rm -rf "$emit_dir_t2" "$emit_dir_file_t2" "$snap_root" "$snap_built" \
    "$snap_mem" "$snap_file" "$cold_dir" "$fleet_mem" "$fleet_file" \
    "$dynamic_mem" "$dynamic_file"' EXIT

begin_stage "5/12 example + figure-runner smoke loop (sequential, mem)"
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

begin_stage "6/12 figure runners at --threads 2 (parallel path) + JSON emission"
for figure_bin in "${RUNNER_BINS[@]}"; do
    printf -- '--- figure runner (threads=2): %s\n' "$figure_bin"
    # shellcheck disable=SC2086
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin $figure_bin \
        --threads 2 --emit-json "$emit_dir_t2" >/dev/null
done
end_stage

begin_stage "7/12 backend matrix: file at --threads 2"
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

begin_stage "8/12 snapshot matrix: save/reopen under both backends + exact diff"
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
# The dedicated cold-start runner exits non-zero unless the snapshot open
# beats the build on the deterministic work metrics (bytes decoded on both
# backends, pages touched on file).
printf -- '--- cold_start runner\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin cold_start -- \
    --emit-json "$cold_dir"
grep -q '},"cold_start":{"source":"Snapshot"' "$cold_dir"/BENCH_coldstart.json ||
    { echo "FAIL: BENCH_coldstart.json carries no snapshot stamp" >&2; exit 1; }
end_stage

begin_stage "9/12 fleet service: drift-stream serving on mem + file backends"
# The fleet runner is self-checking (every event answered exactly once, the
# in-region majority served locally, batches bounded) and exits non-zero on
# any violation.
printf -- '--- fleet runner (mem, threads=1)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin fleet -- \
    --emit-json "$fleet_mem" >/dev/null
printf -- '--- fleet runner (file, threads=2)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin fleet -- \
    --backend file --threads 2 --emit-json "$fleet_file" >/dev/null
# The serving trace is deterministic, so the two emissions must agree
# exactly; the policy stamps prove both backends actually ran (a
# backend-selection regression would otherwise pass vacuously).
grep -q '"backend":"Mem"' "$fleet_mem"/BENCH_fleet.json ||
    { echo "FAIL: fleet emission was not served by the mem backend" >&2; exit 1; }
grep -q '"backend":"File"' "$fleet_file"/BENCH_fleet.json ||
    { echo "FAIL: fleet emission was not served by the file backend" >&2; exit 1; }
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact "$fleet_mem" "$fleet_file"
# And both must match the committed fleet baseline (kept in its own
# subdirectory so the figure-runner baseline stages stay fleet-free).
cargo run --release -q -p ir-bench --bin bench_diff -- \
    bench_baselines/fleet "$fleet_mem"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    bench_baselines/fleet "$fleet_file"
end_stage

begin_stage "10/12 dynamic updates: fleet under tuple churn on mem + file backends"
# The dynamic runner is self-checking (most regions survive each update
# batch, maintenance I/O strictly below the rebuild-per-batch I/O, every
# incremental answer and maintained region report byte-identical to a
# fresh engine on the mutated dataset) and exits non-zero on any violation.
printf -- '--- dynamic runner (mem, threads=1)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin dynamic -- \
    --emit-json "$dynamic_mem"
printf -- '--- dynamic runner (file, threads=2)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin dynamic -- \
    --backend file --threads 2 --emit-json "$dynamic_file" >/dev/null
# The maintenance trace is deterministic, so the two emissions must agree
# exactly; the policy stamps prove both backends actually ran (a
# backend-selection regression would otherwise pass vacuously).
grep -q '"backend":"Mem"' "$dynamic_mem"/BENCH_dynamic.json ||
    { echo "FAIL: dynamic emission was not served by the mem backend" >&2; exit 1; }
grep -q '"backend":"File"' "$dynamic_file"/BENCH_dynamic.json ||
    { echo "FAIL: dynamic emission was not served by the file backend" >&2; exit 1; }
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact "$dynamic_mem" "$dynamic_file"
# And both must match the committed dynamic baseline exactly.
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact bench_baselines/dynamic "$dynamic_mem"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact bench_baselines/dynamic "$dynamic_file"
end_stage

begin_stage "11/12 bench_diff against committed baseline"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    bench_baselines "$emit_dir_t2"
end_stage

begin_stage "12/12 benchmark package builds and tests offline"
# benchmark/ is its own workspace with path deps on these crates and is not
# covered by any cargo invocation above.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
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
