#!/usr/bin/env bash
# Repeatability of the benchmark on one build.
#
#   benchmark/repeat.sh [--seed N]    runs the untraced suite twice with one seed and prints,
#                                     per workload and metric, the relative difference beside
#                                     its bound; every count must be identical.
#   benchmark/repeat.sh --seeds K [--seed N]
#                                     the acceptance procedure of BENCHMARK.json: two sets of K
#                                     runs per workload, seeds N..N+K-1; per metric the
#                                     interquartile range over the seeds as a share of the
#                                     median, and the drift of the median between the sets.
#
# Exits non-zero when any bound is exceeded or any count differs.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
seed=48879
seeds=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        *) echo "usage: repeat.sh [--seed N] [--seeds K]" >&2; exit 2 ;;
    esac
done

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bench="$target/release/ir-benchmark"
contract="$here/../BENCHMARK.json"
out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"

if [ "$seeds" -eq 0 ]; then
    for set in a b; do
        "$bench" --trace 0 --seed "$seed" --contract "$contract" --out "$out/$set" > "$out/$set.log" 2>&1 \
            || { echo "suite run $set failed, see $out/$set.log" >&2; exit 1; }
    done
    exec "$bench" compare "$contract" "$out/a/results.json" "$out/b/results.json"
fi

for set in a b; do
    for ((s = seed; s < seed + seeds; s++)); do
        "$bench" --trace 0 --seed "$s" --contract "$contract" --out "$out/$set/$s" > "$out/$set.$s.log" 2>&1 \
            || { echo "suite run $set/$s failed, see $out/$set.$s.log" >&2; exit 1; }
    done
done
exec "$bench" spread "$contract" "$out/a" "$out/b"
