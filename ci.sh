#!/usr/bin/env bash
# CI entry point for the immutable-regions workspace.
#
# Stages:
#   1. formatting        — cargo fmt --check
#   2. lints             — cargo clippy, all targets, warnings are errors,
#                          in both the default and the `mmap` feature config
#   3. tier-1 verify     — cargo build --release && cargo test -q
#   4. feature matrix    — build + test ir-storage and the umbrella crate
#                          with --no-default-features, default features and
#                          --features mmap; grep-assert that
#                          forbid(unsafe_code) is in force for every crate
#                          when `mmap` is off and that no `unsafe` exists
#                          outside the one mmap module; layering guard: the
#                          engine crate never names a layer above it (no
#                          shard/cluster vocabulary under
#                          crates/immutable-regions/src) and ir-bench keeps
#                          no thread_local! stamping cells
#   5. robustness        — the chaos integration suite (seeded fault plans
#                          against every backend and thread count) in both
#                          the default and the `mmap` feature config, plus
#                          a clippy gate that denies unwrap/expect in the
#                          non-test code of ir-storage and ir-core
#   6. api docs          — cargo doc --no-deps for all nine crates with
#                          rustdoc warnings as errors, so the public API
#                          (the IrEngine façade in particular) stays fully
#                          documented; grep-asserts that the README links
#                          ARCHITECTURE.md and that the doc anchors both
#                          files promise (layer diagram, formats, update
#                          flow, the Dynamic updates section) resolve
#   7. bench compilation — the criterion benches must at least build
#   8. example smoke     — every example and figure runner runs to
#                          completion sequentially (mem backend), emitting
#                          BENCH series for the backend matrix of stage 10
#   9. parallel smoke    — every figure runner again at --threads 2, so the
#                          parallel execution layer is exercised in CI; the
#                          table runners emit BENCH_<figure>.json series
#  10. backend matrix    — every figure runner with --backend mmap at
#                          --threads 1 and 2 plus --backend file at
#                          --threads 2; the emitted deterministic metrics
#                          must match the mem-backend emissions of stages
#                          8/9 *exactly* (bench_diff --exact; io/timing
#                          counters that legitimately differ are never
#                          compared) and the committed baseline within
#                          tolerance; the policy stamps are asserted so a
#                          backend-selection regression cannot make the
#                          matrix pass vacuously
#  11. snapshot matrix   — a figure runner served from a persisted index
#                          snapshot (--snapshot-dir) under every backend
#                          must emit *exactly* the built-index series
#                          (bench_diff --exact), with the envelope's
#                          cold-start stamp asserted ("cold_start":
#                          {"source":"Snapshot") so a staging regression
#                          cannot pass vacuously; the cold_start
#                          runner then self-checks the snapshot's bring-up
#                          win conditions (pages touched / bytes decoded,
#                          never wall-clock) in both feature configs
#  12. fleet service     — the fleet runner (a SubscriptionManager under a
#                          deterministic drift stream) at smoke scale on the
#                          mem and file backends; the runner self-checks the
#                          serving economics (exit 1 on violation), the two
#                          emissions must match *exactly* (bench_diff
#                          --exact) with the policy stamps asserted, and
#                          both are gated against the committed
#                          bench_baselines/fleet/ baseline
#  13. cluster           — the cluster runner (a ShardedEngine over a
#                          deterministic simulated network) at smoke scale:
#                          1/2/4 shards × both partition modes, two reorder
#                          seeds on the mem backend plus the file backend;
#                          the runner self-checks the determinism contract
#                          (merged output identical to the single-engine
#                          oracle, the 1-shard run identical to the
#                          unsharded engine, conserved message counters;
#                          exit 1 on violation), all three emissions must
#                          agree *exactly* and match the committed
#                          bench_baselines/cluster/ baseline exactly, with
#                          the envelope's topology stamp asserted
#  14. dynamic updates   — the dynamic runner (a subscription fleet under a
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
#  15. bench baseline    — bench_diff compares the stage-9 series against
#                          the committed bench_baselines/ (shape and the
#                          deterministic metrics, never wall-clock)
#  16. benchmark package — the standalone benchmark/ package (its own
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

MMAP_FEATURES="ir-storage/mmap,immutable-regions/mmap,ir-bench/mmap,ir-cluster/mmap"

begin_stage "1/16 cargo fmt --check"
cargo fmt --all --check
end_stage

begin_stage "2/16 cargo clippy (default + mmap), warnings are errors"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --features "$MMAP_FEATURES" -- -D warnings
end_stage

begin_stage "3/16 tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q
end_stage

begin_stage "4/16 feature matrix + no-unsafe assertions"
for crate in ir-storage immutable-regions; do
    for flags in "--no-default-features" "" "--features mmap"; do
        printf -- '--- %s %s\n' "$crate" "${flags:-"(default)"}"
        # shellcheck disable=SC2086
        cargo build --release -q -p "$crate" $flags
        # Test output stays visible so a matrix failure is diagnosable
        # straight from the CI log.
        # shellcheck disable=SC2086
        cargo test -q -p "$crate" $flags
    done
done
# forbid(unsafe_code) must be in force for every crate when `mmap` is off:
# either the plain attribute or the cfg_attr(not(feature = "mmap"), ...)
# form ir-storage uses.
for lib in crates/*/src/lib.rs; do
    if ! grep -Eq 'forbid\(unsafe_code\)' "$lib"; then
        echo "FAIL: $lib does not forbid unsafe_code" >&2
        exit 1
    fi
done
if ! grep -q 'cfg_attr(not(feature = "mmap"), forbid(unsafe_code))' \
    crates/ir-storage/src/lib.rs; then
    echo "FAIL: ir-storage must forbid unsafe_code whenever mmap is off" >&2
    exit 1
fi
# And the bare `unsafe` token must not appear in code position outside the
# one module that owns the mapping code (word match: `unsafe_code` in lint
# attributes does not count; comment/doc lines are filtered out so prose
# may mention the word).
if grep -rnw 'unsafe' crates --include='*.rs' |
    grep -v '^crates/ir-storage/src/mmap\.rs:' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|//!|///)'; then
    echo "FAIL: unsafe code outside crates/ir-storage/src/mmap.rs (listed above)" >&2
    exit 1
fi
echo "no-unsafe assertions hold"
# Layering: the engine is the bottom of the serving stack and never names a
# layer above it, and the bench harness stamps its envelope from values
# passed explicitly, never from thread-local cells.
if grep -rniE 'shard|cluster' crates/immutable-regions/src; then
    echo "FAIL: crates/immutable-regions/src names a layer above it (listed above)" >&2
    exit 1
fi
if grep -rn 'thread_local!' crates/ir-bench/src; then
    echo "FAIL: thread_local! under crates/ir-bench/src (listed above)" >&2
    exit 1
fi
echo "layering guard holds"
end_stage

begin_stage "5/16 robustness: chaos suite + unwrap/expect lint gate"
# The chaos suite injects seeded faults (transients, outages, corruption,
# worker panics) into every backend at 1/2/8 workers and asserts typed
# errors, byte-identical recovery and a serviceable engine afterwards.
cargo test -q -p immutable-regions --test chaos
cargo test -q -p immutable-regions --features mmap --test chaos
# Non-test code in the storage and compute layers must not panic on
# fallible paths: deny unwrap/expect outright (tests keep using them).
cargo clippy -q --no-deps -p ir-storage -p ir-core --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used
cargo clippy -q --no-deps -p ir-storage --features mmap --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used
end_stage

begin_stage "6/16 cargo doc --no-deps (rustdoc warnings are errors) + doc anchors"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p ir-types -p ir-storage -p ir-geometry -p ir-topk -p ir-core \
    -p ir-datagen -p ir-bench -p ir-cluster -p immutable-regions
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p ir-storage --features mmap
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

begin_stage "7/16 benches compile"
cargo bench --no-run
end_stage

emit_dir_t1="$(mktemp -d)"
emit_dir_t2="$(mktemp -d)"
emit_dir_mmap_t1="$(mktemp -d)"
emit_dir_mmap_t2="$(mktemp -d)"
emit_dir_file_t2="$(mktemp -d)"
snap_root="$(mktemp -d)"
snap_built="$(mktemp -d)"
snap_mem="$(mktemp -d)"
snap_file="$(mktemp -d)"
snap_mmap="$(mktemp -d)"
cold_dir="$(mktemp -d)"
fleet_mem="$(mktemp -d)"
fleet_file="$(mktemp -d)"
cluster_mem="$(mktemp -d)"
cluster_seed2="$(mktemp -d)"
cluster_file="$(mktemp -d)"
dynamic_mem="$(mktemp -d)"
dynamic_file="$(mktemp -d)"
trap 'rm -rf "$emit_dir_t1" "$emit_dir_t2" "$emit_dir_mmap_t1" "$emit_dir_mmap_t2" \
    "$emit_dir_file_t2" "$snap_root" "$snap_built" "$snap_mem" "$snap_file" \
    "$snap_mmap" "$cold_dir" "$fleet_mem" "$fleet_file" \
    "$cluster_mem" "$cluster_seed2" "$cluster_file" \
    "$dynamic_mem" "$dynamic_file"' EXIT

begin_stage "8/16 example + figure-runner smoke loop (sequential, mem)"
for example in quickstart document_retrieval hotel_sensitivity weight_tuning; do
    printf -- '--- example: %s\n' "$example"
    cargo run --release -q -p immutable-regions --example "$example" >/dev/null
done
# Every figure/ablation runner must complete at smoke scale — compiling is
# not enough, they have runtime config (workload eligibility) to exercise.
for figure_bin in "${RUNNER_BINS[@]}"; do
    printf -- '--- figure runner: %s\n' "$figure_bin"
    # shellcheck disable=SC2086
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin $figure_bin \
        --emit-json "$emit_dir_t1" >/dev/null
done
end_stage

begin_stage "9/16 figure runners at --threads 2 (parallel path) + JSON emission"
for figure_bin in "${RUNNER_BINS[@]}"; do
    printf -- '--- figure runner (threads=2): %s\n' "$figure_bin"
    # shellcheck disable=SC2086
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin $figure_bin \
        --threads 2 --emit-json "$emit_dir_t2" >/dev/null
done
end_stage

begin_stage "10/16 backend matrix: mmap at --threads 1 and 2, file at --threads 2"
for figure_bin in "${RUNNER_BINS[@]}"; do
    printf -- '--- figure runner (mmap, threads=1): %s\n' "$figure_bin"
    # shellcheck disable=SC2086
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --features mmap \
        --bin $figure_bin \
        --backend mmap --emit-json "$emit_dir_mmap_t1" >/dev/null
    printf -- '--- figure runner (mmap, threads=2): %s\n' "$figure_bin"
    # shellcheck disable=SC2086
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --features mmap \
        --bin $figure_bin \
        --backend mmap --threads 2 --emit-json "$emit_dir_mmap_t2" >/dev/null
    printf -- '--- figure runner (file, threads=2): %s\n' "$figure_bin"
    # shellcheck disable=SC2086
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin $figure_bin \
        --backend file --threads 2 --emit-json "$emit_dir_file_t2" >/dev/null
done
# Guard against a vacuous matrix: deterministic output is backend-invariant
# by design, so assert via the policy stamps that the alternative backends
# actually ran (a backend-selection regression would otherwise emit mem
# series that compare clean).
for f in "$emit_dir_mmap_t1"/BENCH_*.json "$emit_dir_mmap_t2"/BENCH_*.json; do
    grep -q '"backend":"Mmap"' "$f" ||
        { echo "FAIL: $f was not served by the mmap backend" >&2; exit 1; }
done
for f in "$emit_dir_file_t2"/BENCH_*.json; do
    grep -q '"backend":"File"' "$f" ||
        { echo "FAIL: $f was not served by the file backend" >&2; exit 1; }
done
# The mmap/file emissions must be *exactly* the mem emissions of stages 7/8
# in every deterministic metric (io counters that legitimately differ —
# timing and physical reads — are never part of the comparison)...
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact "$emit_dir_t1" "$emit_dir_mmap_t1"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact "$emit_dir_t2" "$emit_dir_mmap_t2"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact "$emit_dir_t2" "$emit_dir_file_t2"
# ...and within tolerance of the committed mem-backend baseline.
cargo run --release -q -p ir-bench --bin bench_diff -- \
    bench_baselines "$emit_dir_mmap_t2"
end_stage

begin_stage "11/16 snapshot matrix: save/reopen under every backend + exact diff"
# Built-index oracle emission for the representative figure (mem, threads 2).
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin figures -- \
    figure11_st_qlen --threads 2 --emit-json "$snap_built" >/dev/null
# The same figure served from a persisted snapshot under every backend: the
# runner builds once in memory, saves into $snap_root, reopens zero-copy.
printf -- '--- snapshot-served (mem, threads=2)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin figures -- \
    figure11_st_qlen --threads 2 --snapshot-dir "$snap_root" --emit-json "$snap_mem" >/dev/null
printf -- '--- snapshot-served (file, threads=2)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin figures -- \
    figure11_st_qlen --backend file --threads 2 --snapshot-dir "$snap_root" \
    --emit-json "$snap_file" >/dev/null
printf -- '--- snapshot-served (mmap, threads=2)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --features mmap \
    --bin figures -- figure11_st_qlen \
    --backend mmap --threads 2 --snapshot-dir "$snap_root" --emit-json "$snap_mmap" >/dev/null
# Snapshot-served output must be *exactly* the built-index output in every
# deterministic metric, and the envelope's cold-start stamp (beside the
# policy, not inside it) must prove the engine really came up from a
# snapshot (guard against a vacuous staging path).
for d in "$snap_mem" "$snap_file" "$snap_mmap"; do
    cargo run --release -q -p ir-bench --bin bench_diff -- --exact "$snap_built" "$d"
    grep -q '},"cold_start":{"source":"Snapshot"' "$d"/BENCH_*.json ||
        { echo "FAIL: $d was not served from a snapshot" >&2; exit 1; }
done
# The dedicated cold-start runner exits non-zero unless the snapshot open
# beats the build on the deterministic work metrics (bytes decoded on every
# backend, pages touched on file/mmap).
printf -- '--- cold_start runner (default features)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin cold_start -- \
    --emit-json "$cold_dir"
printf -- '--- cold_start runner (mmap)\n'
IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --features mmap \
    --bin cold_start >/dev/null
grep -q '},"cold_start":{"source":"Snapshot"' "$cold_dir"/BENCH_coldstart.json ||
    { echo "FAIL: BENCH_coldstart.json carries no snapshot stamp" >&2; exit 1; }
end_stage

begin_stage "12/16 fleet service: drift-stream serving on mem + file backends"
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

begin_stage "13/16 cluster: sharded engine vs oracle, two seeds, mem + file"
# The cluster runner is self-checking (merged regions byte-identical to the
# single-engine oracle at every shard count and partition mode, the 1-shard
# by-query run identical to the unsharded engine's answers, conserved
# message counters) and exits non-zero on any violation.
printf -- '--- cluster runner (mem, seed 49413)\n'
IR_BENCH_SCALE=smoke IR_BENCH_CLUSTER_SEED=49413 \
    cargo run --release -q -p ir-bench --bin cluster -- \
    --emit-json "$cluster_mem" >/dev/null
printf -- '--- cluster runner (mem, seed 77)\n'
IR_BENCH_SCALE=smoke IR_BENCH_CLUSTER_SEED=77 \
    cargo run --release -q -p ir-bench --bin cluster -- \
    --emit-json "$cluster_seed2" >/dev/null
printf -- '--- cluster runner (file, seed 49413)\n'
IR_BENCH_SCALE=smoke IR_BENCH_CLUSTER_SEED=49413 \
    cargo run --release -q -p ir-bench --bin cluster -- \
    --backend file --emit-json "$cluster_file" >/dev/null
# The envelope's topology stamp proves sharded runs actually happened (an
# unsharded regression would emit "cluster":null and pass vacuously), and
# the policy's backend stamps prove the file matrix leg really left mem.
for d in "$cluster_mem" "$cluster_seed2" "$cluster_file"; do
    grep -q '},"cluster":{"shards":4' "$d"/BENCH_cluster.json ||
        { echo "FAIL: $d/BENCH_cluster.json carries no 4-shard topology stamp" >&2; exit 1; }
done
grep -q '"backend":"Mem"' "$cluster_mem"/BENCH_cluster.json ||
    { echo "FAIL: cluster emission was not served by the mem backend" >&2; exit 1; }
grep -q '"backend":"File"' "$cluster_file"/BENCH_cluster.json ||
    { echo "FAIL: cluster emission was not served by the file backend" >&2; exit 1; }
# Delivery order and backend must never leak into the counters: the two
# seeds and the file leg must agree with the mem emission exactly, and all
# of it must match the committed cluster baseline exactly.
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact "$cluster_mem" "$cluster_seed2"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact "$cluster_mem" "$cluster_file"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact bench_baselines/cluster "$cluster_mem"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    --exact bench_baselines/cluster "$cluster_file"
end_stage

begin_stage "14/16 dynamic updates: fleet under tuple churn on mem + file backends"
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

begin_stage "15/16 bench_diff against committed baseline"
cargo run --release -q -p ir-bench --bin bench_diff -- \
    bench_baselines "$emit_dir_t2"
end_stage

begin_stage "16/16 benchmark package builds and tests offline"
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
