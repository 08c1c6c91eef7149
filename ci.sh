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
#                          with the work),
#                          no `entries().to_vec()` deep copy of the
#                          candidate list under crates/ (borrow it), no
#                          from-scratch `sweep_topk(` in ir-core/src, and
#                          no `impl std::error::Error for` under crates/
#                          but ir-types' IrError (one error type)
#   3. tier-1 verify     — cargo build --release && cargo test -q (the
#                          chaos suite included)
#   4. api docs          — cargo doc --no-deps with rustdoc warnings as
#                          errors, plus the README/ARCHITECTURE doc anchors
#                          and no `*.md` path named in README.md,
#                          ARCHITECTURE.md or crates/**/*.rs that is not in
#                          the tree; the same for `tests/*.rs` paths (the
#                          verify skill included) and the skill's
#                          `--test NAME` targets; every `--bin` and
#                          `--example` the docs and the skill name is a
#                          target, and their runner invocations pass no
#                          flag but `figures`' `--emit-json`
#   5. runner smoke      — every example and every runner once, `figures`
#                          with --emit-json, emitting the
#                          BENCH_<figure>.json series stage 6 diffs
#   6. bench baseline    — the stage-5 series against bench_baselines/
#                          (shape, deterministic metrics exactly, never
#                          timing)
#   7. benchmark package — the standalone benchmark/ workspace builds and
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

# The ids of the Figures 10–16 the `figures` runner serves; it alone emits
# series. The other two runners take no option.
FIGURE_IDS=(figure10_wsj_qlen figure11_st_qlen figure12_kb_qlen figure13_vary_k
    figure14_vary_phi figure15_oneoff_vs_iterative figure16_composition_only)

begin_stage "1/7 cargo fmt --check"
cargo fmt --all --check
end_stage

begin_stage "2/7 lints: clippy, unwrap/expect gate, no-unsafe + layering asserts"
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
# owned by the unit of work.
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
# One error type for the whole stack: every layer returns ir-types'
# IrError, so no other type implements std::error::Error.
if grep -rn 'impl std::error::Error for' crates |
    grep -v '^crates/ir-types/src/error.rs:'; then
    echo "FAIL: an error type besides IrError under crates/ (listed above)" >&2
    exit 1
fi
echo "no-unsafe and layering assertions hold"
end_stage

begin_stage "3/7 tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q
end_stage

begin_stage "4/7 cargo doc (-D warnings) + doc anchors, paths, targets, flags"
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
# Every `*.md` path the prose docs or the sources name exists, resolved
# from the repository root: a pointer to a document that was never written
# or has since gone fails here, naming the file that points at it.
dead_md=$(
    { grep -oHE '[A-Za-z0-9_./-]+\.md\b' README.md ARCHITECTURE.md || true
      grep -roHE --include='*.rs' '[A-Za-z0-9_./-]+\.md\b' crates || true; } |
        while IFS=: read -r file path; do
            [ -e "$path" ] || echo "  $file names $path"
        done
)
if [ -n "$dead_md" ]; then
    printf 'FAIL: *.md paths not in the tree:\n%s\n' "$dead_md" >&2
    exit 1
fi
# Every test-suite path the prose docs, the verify skill or the sources
# name exists under some crate's tests/ tree, and every `--test NAME` the
# verify skill runs names a test target (tests/NAME.rs or
# tests/NAME/main.rs).
skill=.claude/skills/verify/SKILL.md
dead_tests=$(
    { grep -oHE 'tests/[A-Za-z0-9_/]+\.rs' README.md ARCHITECTURE.md "$skill" || true
      grep -roHE --include='*.rs' 'tests/[A-Za-z0-9_/]+\.rs' crates || true; } |
        while IFS=: read -r file path; do
            compgen -G "crates/*/$path" >/dev/null || echo "  $file names $path"
        done
    { grep -oE -e '--test [A-Za-z0-9_]+' "$skill" || true; } |
        while read -r _ name; do
            compgen -G "crates/*/tests/$name.rs" >/dev/null ||
                compgen -G "crates/*/tests/$name/main.rs" >/dev/null ||
                echo "  $skill runs --test $name"
        done
)
if [ -n "$dead_tests" ]; then
    printf 'FAIL: test suites not in the tree:\n%s\n' "$dead_tests" >&2
    exit 1
fi
# Every `--bin NAME` and `--example NAME` the prose docs and the verify
# skill name is a target, and a runner invocation there passes no flag
# after its ` -- ` but the one `figures` takes, `--emit-json`.
docs=(README.md ARCHITECTURE.md "$skill")
dead_flags=$(
    { grep -oHE -e '--(bin|example) [A-Za-z0-9_]+' "${docs[@]}" || true; } |
        while IFS=: read -r file target; do
            read -r kind name <<<"$target"
            dir=src/bin
            [ "$kind" = --example ] && dir=examples
            compgen -G "crates/*/$dir/$name.rs" >/dev/null || echo "  $file names $target"
        done
    { grep -HE -e '--bin (figures|figure06_partitions|ablation_design_choices) -- ' "${docs[@]}" ||
        true; } |
        while IFS=: read -r file line; do
            allowed=
            [[ $line == *"--bin figures -- "* ]] && allowed=--emit-json
            for flag in $(grep -oE -e '--[A-Za-z][A-Za-z0-9-]*' <<<"${line#* -- }"); do
                [ "$flag" = "$allowed" ] || echo "  $file passes $flag to a runner"
            done
        done
)
if [ -n "$dead_flags" ]; then
    printf 'FAIL: targets or runner flags that do not exist:\n%s\n' "$dead_flags" >&2
    exit 1
fi
echo "doc anchors, *.md paths, test-suite paths, targets and runner flags resolve"
end_stage

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
emit_dir="$work/emit"

begin_stage "5/7 examples + every runner once, figures with --emit-json"
for example in quickstart document_retrieval hotel_sensitivity weight_tuning; do
    printf -- '--- example: %s\n' "$example"
    cargo run --release -q -p immutable-regions --example "$example" >/dev/null
done
# Every figure/ablation runner must complete at smoke scale — compiling is
# not enough, they have runtime config (workload eligibility) to exercise.
for runner_bin in figure06_partitions ablation_design_choices; do
    printf -- '--- runner: %s\n' "$runner_bin"
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin "$runner_bin" >/dev/null
done
for figure in "${FIGURE_IDS[@]}"; do
    printf -- '--- runner: figures %s\n' "$figure"
    IR_BENCH_SCALE=smoke cargo run --release -q -p ir-bench --bin figures -- "$figure" \
        --emit-json "$emit_dir" >/dev/null
done
end_stage

begin_stage "6/7 bench_diff against committed baseline"
cargo run --release -q -p ir-bench --bin bench_diff -- bench_baselines "$emit_dir"
end_stage

begin_stage "7/7 benchmark package: build, tests, smoke run"
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
