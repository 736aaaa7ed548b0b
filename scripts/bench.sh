#!/usr/bin/env bash
# Runs the micro-benchmark suites and collects their BENCH_*.json files
# under results/bench/.
#
# Usage: scripts/bench.sh [--smoke] [suite ...]
#   --smoke   shrink every benchmark to 3 samples × 2 ms (TP_BENCH_FAST)
#             and write to a throwaway directory, for CI: verifies the
#             harness and the JSON artifacts, not the numbers, and never
#             touches the committed results/bench/ files.
#   suite     run only the named suites (train, models, tensor_ops,
#             scenarios, serve) and leave the other committed files as
#             they are; with none, all five run. The threads1/ train
#             baseline re-runs only when train is listed.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [ "${1:-}" = "--smoke" ]; then
    SMOKE=1
    shift
fi
ALL_SUITES=(train models tensor_ops scenarios serve)
SUITES=("$@")
if [ ${#SUITES[@]} = 0 ]; then
    SUITES=("${ALL_SUITES[@]}")
fi
for suite in "${SUITES[@]}"; do
    case " ${ALL_SUITES[*]} " in
        *" $suite "*) ;;
        *)
            echo "bench: unknown suite '$suite' (one of: ${ALL_SUITES[*]})" >&2
            exit 2
            ;;
    esac
done

if [ "$SMOKE" = 1 ]; then
    OUT_DIR="$(mktemp -d)"
    trap 'rm -rf "$OUT_DIR"' EXIT
else
    OUT_DIR="$PWD/results/bench"
fi
mkdir -p "$OUT_DIR"

echo "== bench: building (release, offline) =="
cargo build --workspace --release --offline --benches

# TP_BENCH_OUT points the suites' BENCH_<suite>.json at results/bench
# (cargo runs bench binaries from the package root, so cwd won't do).
# Each JSON records its "threads" field, so the threads1/ copies below are
# directly comparable against the default (multi-threaded) run.
run_suite() {
    local suite="$1"
    if [ "$SMOKE" = 1 ]; then
        TP_BENCH_FAST=1 cargo bench -q --offline -p tp-bench --bench "$suite"
    else
        cargo bench -q --offline -p tp-bench --bench "$suite"
    fi
    if [ ! -s "$TP_BENCH_OUT/BENCH_$suite.json" ]; then
        echo "bench: FAIL — $suite did not write BENCH_$suite.json" >&2
        exit 1
    fi
}

# The main pass pins TP_THREADS=4 explicitly (overridable from the
# environment): the speedup comparison against the threads1/ baseline is
# only meaningful at a fixed, recorded worker count, and "default" would
# silently resolve to hardware_threads() — 1 on a single-core CI box.
export TP_THREADS="${TP_THREADS:-4}"
# Every BENCH_*.json echoes a "config" block with the knobs its numbers
# depend on; pin them explicitly (environment-overridable) so the echo
# records concrete values instead of "default".
export TP_SCALE="${TP_SCALE:-default}"
export TP_PARTITION_NODES="${TP_PARTITION_NODES:-0}"
export TP_BENCH_OUT="$OUT_DIR"
WROTE=()
for suite in "${SUITES[@]}"; do
    echo "== bench: $suite (TP_THREADS=$TP_THREADS) =="
    run_suite "$suite"
    WROTE+=("$OUT_DIR/BENCH_$suite.json")
done

# Single-thread baseline for the parallelized training step: re-run the
# train suite with the pool pinned to one worker so speedup is computable
# as threads1/BENCH_train.json ÷ BENCH_train.json medians.
if [[ " ${SUITES[*]} " == *" train "* ]]; then
    mkdir -p "$OUT_DIR/threads1"
    export TP_BENCH_OUT="$OUT_DIR/threads1"
    echo "== bench: train (TP_THREADS=1 baseline) =="
    TP_THREADS=1 run_suite train
    WROTE+=("$OUT_DIR/threads1/BENCH_train.json")
fi

echo "bench: OK — artifacts in $OUT_DIR"
ls -l "${WROTE[@]}"
