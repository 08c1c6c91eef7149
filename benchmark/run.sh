#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S]     the whole suite: every workload in a
#                                                 fresh process, untraced then traced;
#                                                 writes benchmark/out/results.json
#   benchmark/run.sh --smoke                      the suite on tiny datasets, one pass
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one workload; the last line of stdout
#                                                 is the JSON result BENCHMARK.json
#                                                 describes
#
# Exits non-zero when the build fails, an output fails its oracle check, or a
# metric named in BENCHMARK.json is missing.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/ir-benchmark" --out "$here/out" --contract "$here/../BENCHMARK.json" "$@"
