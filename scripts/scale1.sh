#!/usr/bin/env bash
# Tier-2 full-scale smoke (intentionally NOT part of tier1.sh — it builds
# a full-size design and takes noticeably longer than the tier-1 budget).
#
# Runs one benchmark end to end at TP_SCALE=1.0 (placement → routing →
# four-corner STA → no-grad paper-size GNN forward, its levels grouped
# into prop_chunk spans under TP_PARTITION_NODES; there is no separate
# streamed path), then one taped paper-size training step on the same
# design, and asserts two peak-RSS budgets from the run manifest:
# - the forward's peak (read before the step) stays under
#   TP_RSS_BUDGET_MB, default 1024 MiB: the memory contract for
#   full-scale single-design inference on a laptop-class machine. The
#   recorded usbf_device forward peaks around 208 MiB (249 MiB before
#   the net embedding computed its driver update on driver rows only);
# - the training step's peak stays under STEP_BUDGET_MB, 2560 MiB. The
#   recorded usbf_device step peaks around 1,371 MiB (1,445 MiB before
#   the weight gradient read x in place and the LUT interpolation became
#   one op, 1,785 MiB before the driver-row change); before the lean
#   autograd tape (backward reading live operands and freeing interior
#   gradients) it peaked at 4,884 MiB.
# It prints the forward's and the step's wall clocks from the manifest.
#
# Usage: scripts/scale1.sh [design]
#   env: TP_SCALE (default 1.0), TP_PARTITION_NODES (default 20000),
#        TP_RSS_BUDGET_MB (default 1024), TP_THREADS, TP_SEED
set -euo pipefail
cd "$(dirname "$0")/.."

DESIGN="${1:-usbf_device}"
export TP_SCALE="${TP_SCALE:-1.0}"
export TP_PARTITION_NODES="${TP_PARTITION_NODES:-20000}"
BUDGET_MB="${TP_RSS_BUDGET_MB:-1024}"
STEP_BUDGET_MB=2560

echo "== scale1: release build (offline) =="
cargo build --release --offline --example scale1_smoke

BIN="$PWD/target/release/examples/scale1_smoke"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "== scale1: $DESIGN at TP_SCALE=$TP_SCALE, TP_PARTITION_NODES=$TP_PARTITION_NODES =="
( cd "$SCRATCH" && "$BIN" "$DESIGN" )

MANIFEST="$SCRATCH/run_report.json"
if [ ! -s "$MANIFEST" ]; then
    echo "scale1: FAIL — run wrote no run_report.json manifest" >&2
    exit 1
fi

FORWARD_S="$(sed -n 's/.*"forward_s": \([0-9.]*\).*/\1/p' "$MANIFEST")"
STEP_S="$(sed -n 's/.*"step_s": \([0-9.]*\).*/\1/p' "$MANIFEST")"
if [ -z "$FORWARD_S" ] || [ -z "$STEP_S" ]; then
    echo "scale1: FAIL — manifest has no forward_s or step_s field" >&2
    exit 1
fi
echo "== scale1: forward ${FORWARD_S} s, training step ${STEP_S} s =="

RSS_BYTES="$(sed -n 's/.*"peak_rss_bytes": \([0-9]*\).*/\1/p' "$MANIFEST")"
if [ -z "$RSS_BYTES" ]; then
    echo "scale1: FAIL — manifest has no peak_rss_bytes field" >&2
    exit 1
fi
# peak_rss_bytes is 0 on platforms without /proc/self/status; the RSS gate
# only means something where the kernel reports VmHWM.
if [ "$RSS_BYTES" = 0 ]; then
    echo "scale1: SKIP RSS gate — peak_rss_bytes unavailable on this platform"
    echo "scale1: OK"
    exit 0
fi

RSS_MB=$(( RSS_BYTES / 1024 / 1024 ))
echo "== scale1: forward peak RSS ${RSS_MB} MiB (budget ${BUDGET_MB} MiB) =="
if [ "$RSS_MB" -ge "$BUDGET_MB" ]; then
    echo "scale1: FAIL — forward peak RSS ${RSS_MB} MiB exceeds budget ${BUDGET_MB} MiB" >&2
    exit 1
fi

STEP_BYTES="$(sed -n 's/.*"step_peak_rss_bytes": \([0-9]*\).*/\1/p' "$MANIFEST")"
if [ -z "$STEP_BYTES" ]; then
    echo "scale1: FAIL — manifest has no step_peak_rss_bytes field" >&2
    exit 1
fi
STEP_MB=$(( STEP_BYTES / 1024 / 1024 ))
echo "== scale1: training-step peak RSS ${STEP_MB} MiB (budget ${STEP_BUDGET_MB} MiB) =="
if [ "$STEP_MB" -ge "$STEP_BUDGET_MB" ]; then
    echo "scale1: FAIL — training-step peak RSS ${STEP_MB} MiB exceeds budget ${STEP_BUDGET_MB} MiB" >&2
    exit 1
fi
echo "scale1: OK"
