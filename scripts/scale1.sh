#!/usr/bin/env bash
# Tier-2 full-scale smoke (intentionally NOT part of tier1.sh — it builds
# a full-size design and takes noticeably longer than the tier-1 budget).
#
# Runs one benchmark end to end at TP_SCALE=1.0 (placement → routing →
# four-corner STA → no-grad paper-size GNN forward, its levels grouped
# into prop_chunk spans under TP_PARTITION_NODES; there is no separate
# streamed path), then asserts the run manifest's peak-RSS stays under
# the documented budget. The budget (TP_RSS_BUDGET_MB, default 1024 MiB)
# is the memory contract for full-scale single-design runs on a
# laptop-class machine; the recorded usbf_device run peaks around
# 290 MiB, so the default leaves ~3.5× headroom before the gate trips.
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
echo "== scale1: peak RSS ${RSS_MB} MiB (budget ${BUDGET_MB} MiB) =="
if [ "$RSS_MB" -ge "$BUDGET_MB" ]; then
    echo "scale1: FAIL — peak RSS ${RSS_MB} MiB exceeds budget ${BUDGET_MB} MiB" >&2
    exit 1
fi
echo "scale1: OK"
