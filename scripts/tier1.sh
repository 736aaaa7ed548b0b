#!/usr/bin/env bash
# Tier-1 verification: the gate every change must pass.
#
# Runs fully offline — the workspace has zero external dependencies, so a
# cold cargo cache and no network must still produce a green build. Any
# `cargo` invocation here reaching for a registry is itself a regression.
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints each step's banner and the wall clock of the step before it.
STEP=""
STEP_START=$SECONDS
step() {
    if [ -n "$STEP" ]; then
        echo "   ($STEP: $((SECONDS - STEP_START))s)"
    fi
    STEP="$1"
    STEP_START=$SECONDS
    [ -z "$STEP" ] || echo "== tier1: $STEP =="
}

step "format (cargo fmt --check)"
# Unformatted code fails here instead of drifting until every touched
# file carries unrelated format hunks. Fix with `cargo fmt --all`.
cargo fmt --all --check

step "release build (all targets, offline)"
cargo build --workspace --release --offline --all-targets

# Every suite runs in both workspace passes: unit and integration tests of
# every member crate and of the root package (fault tolerance,
# determinism, fuzzing, observability goldens, sweeps, partitioning and
# serving included).
step "tests (offline, single-threaded pool)"
TP_THREADS=1 cargo test -q --workspace --offline

step "tests (offline, 4-thread pool)"
# Same suite again with the tp-par pool active: every test asserting exact
# bits must pass at both thread counts — that is the determinism contract.
TP_THREADS=4 cargo test -q --workspace --offline

step "tp-tensor tests under the optimizer (release)"
# The gemm's register-blocked body is compiled twice, under AVX-512F and
# under AVX2, and serves both the dense gemm and the weight-gradient
# gemm_tn, which reads x in place across row panels; each kernel the CPU
# supports must match the straight reference kernel bit for bit, in both
# uses, as the optimizer compiles it, not only in debug builds.
cargo test -q --release --offline -p tp-tensor

step "recorded training trajectory under the optimizer (release)"
# perfbench and scale1.sh run release builds, and the tensor kernels'
# loops are the kind LLVM vectorizes: the recorded losses, weights,
# gradients and prediction must keep their bits as the optimizer
# compiles the training step, not only in the debug test passes above.
cargo test -q --release --offline --test determinism training_bits_match_the_recorded_trajectory

step "partitioned training smoke (TP_SCALE=0.05 example)"
# The training example under a partition budget: the whole fit must
# complete and reach a finite loss. Besides the recorded trajectory above
# and the tiny one-epoch run of the observability-artifact check below,
# this is tier-1's only release-mode training run.
if ! TP_PARTITION_NODES=4096 \
    cargo run -q --offline --release --example train_slack 0.05 2 >/dev/null; then
    echo "tier1: FAIL — partitioned training smoke did not complete" >&2
    exit 1
fi

step "serve loopback smoke (example, scratch dir)"
# Boot a real server on an ephemeral port and drive the full lifecycle —
# ping, predict, slack, checkpoint hot-swap, ECO move, stats, drain. The
# example exits nonzero on any protocol violation.
SERVE_SCRATCH="$(mktemp -d)"
if ! cargo run -q --offline --release --example serve_demo "$SERVE_SCRATCH/demo" >/dev/null; then
    rm -rf "$SERVE_SCRATCH"
    echo "tier1: FAIL — serve loopback smoke broke the serving contract" >&2
    exit 1
fi
rm -rf "$SERVE_SCRATCH"

step "sweep kill/resume smoke (example, scratch dir)"
# The example runs an uninterrupted sweep, a killed one, and a resumed
# one, and exits nonzero unless journal and report come back
# byte-identical — the crash-safety contract, exercised end to end.
SWEEP_SCRATCH="$(mktemp -d)"
if ! TP_SWEEP_OUT="$SWEEP_SCRATCH/demo" \
    cargo run -q --offline --release --example sweep_resume >/dev/null; then
    rm -rf "$SWEEP_SCRATCH"
    echo "tier1: FAIL — sweep kill/resume smoke broke the resume contract" >&2
    exit 1
fi
rm -rf "$SWEEP_SCRATCH"

step "sweep-through-serve smoke (example, scratch dir)"
# The same grid evaluated in-process and streamed through a live server
# over JSONL; exits nonzero unless journal and report come back
# byte-identical — the serve-streaming contract, exercised end to end.
SERVE_SWEEP_SCRATCH="$(mktemp -d)"
if ! TP_SWEEP_OUT="$SERVE_SWEEP_SCRATCH/demo" \
    cargo run -q --offline --release --example sweep_serve >/dev/null; then
    rm -rf "$SERVE_SWEEP_SCRATCH"
    echo "tier1: FAIL — sweep-through-serve smoke broke the streaming contract" >&2
    exit 1
fi
rm -rf "$SERVE_SWEEP_SCRATCH"

step "clippy (warnings are errors)"
cargo clippy --workspace --offline --all-targets -- -D warnings

step "rustdoc (warnings are errors: every doc link resolves)"
# Deleting an item a doc comment links to compiles fine; only rustdoc
# reports the dangling link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "hermeticity (no external crates in any manifest)"
if grep -rn 'rand\|proptest\|criterion' Cargo.toml crates/*/Cargo.toml; then
    echo "tier1: FAIL — external dependency reference found above" >&2
    exit 1
fi

step "hermeticity (no external crates in any source tree)"
if grep -rEn 'extern crate|use (rand|proptest|criterion|tempfile|serde)\b|(^|[^_[:alnum:]])(rand|proptest|criterion|tempfile|serde)::' \
    src tests crates/*/src crates/*/tests 2>/dev/null; then
    echo "tier1: FAIL — external crate usage found in sources above" >&2
    exit 1
fi

step "hermeticity (tp-obs stays dependency-free)"
if grep -n '^\[dependencies\]' crates/obs/Cargo.toml; then
    echo "tier1: FAIL — tp-obs must not grow a [dependencies] section" >&2
    exit 1
fi

step "hermeticity (tp-par stays dependency-free)"
if grep -n '^\[dependencies\]' crates/par/Cargo.toml; then
    echo "tier1: FAIL — tp-par must not grow a [dependencies] section" >&2
    exit 1
fi

step "hermeticity (tp-partition depends on workspace crates only)"
if sed -n '/^\[dependencies\]/,$p' crates/partition/Cargo.toml \
    | grep -E '^[a-z0-9_-]+ *=' | grep -v '^tp-[a-z-]* *= *{ *workspace = true' \
    | grep -v '^tp-[a-z-]*\.workspace *= *true'; then
    echo "tier1: FAIL — non-workspace dependency in tp-partition above" >&2
    exit 1
fi

step "gemm stays FMA-free (no fma target feature, _fmadd intrinsic or mul_add)"
# Every gemm element is multiply-then-add in ascending k; a fused
# multiply-add rounds once instead of twice and would change result bits.
# This grep cannot see all of it: `avx512f` implies LLVM's `fma` feature,
# so the AVX-512 kernel could emit FMA instructions without naming `fma`
# anywhere. It stays FMA-free only because Rust never contracts
# `a * b + c` into one; the per-kernel test
# `every_supported_kernel_is_bit_identical_to_reference` is what checks it.
if grep -rnE 'target_feature.*fma|_fmadd|\bmul_add\b' crates/tensor/src; then
    echo "tier1: FAIL — FMA in tp-tensor above; the gemm must multiply then add" >&2
    exit 1
fi

step "autograd tape stays Arc-based (no Rc in the tape)"
# Tensors must remain Send + Sync: tp-serve's connection threads and the
# sweep's prediction evaluator share one model across threads. An Rc in
# the tape would make every tensor !Send; this grep names the cause.
if grep -n 'Rc<' crates/tensor/src/tensor.rs crates/tensor/src/autograd.rs; then
    echo "tier1: FAIL — Rc found in the autograd tape; it must stay Arc" >&2
    exit 1
fi

step "README knobs are read by the code"
# Every TP_* name README.md documents must have a reader: a string
# literal in Rust under crates/*/src, src or examples, or a shell
# expansion under scripts/ (this script excluded). A `TP_FOO_*` family
# needs a reader of some TP_FOO_ name. Deleting a knob's code without
# its README text fails here.
UNREAD=""
for knob in $(grep -oE 'TP_[A-Z0-9_]+' README.md | sort -u); do
    case "$knob" in
        *_) literal="\"$knob"; expansion="\\\$\\{?$knob" ;;
        *) literal="\"$knob\""; expansion="\\\$\\{?$knob([^A-Z0-9_]|\$)" ;;
    esac
    if ! grep -rqF --include='*.rs' "$literal" crates/*/src src examples \
        && ! grep -rqE --exclude=tier1.sh "$expansion" scripts; then
        UNREAD="$UNREAD $knob"
    fi
done
if [ -n "$UNREAD" ]; then
    echo "tier1: FAIL — README.md documents knobs nothing reads:$UNREAD" >&2
    exit 1
fi

step "README examples table lists exactly examples/*.rs"
# Every row of README.md's "## Examples" table names a file under
# examples/, and every examples/*.rs has a row. Adding or deleting an
# example without its row fails here.
TABLE_EXAMPLES=$(sed -n '/^## Examples$/,/^## /p' README.md \
    | sed -nE 's/^\| `([A-Za-z0-9_]+)` \|.*/\1/p' | sort)
FILE_EXAMPLES=$(for f in examples/*.rs; do f=${f#examples/}; echo "${f%.rs}"; done | sort)
if [ "$TABLE_EXAMPLES" != "$FILE_EXAMPLES" ]; then
    echo "tier1: FAIL — README examples table (<) and examples/*.rs (>) disagree:" >&2
    diff <(echo "$TABLE_EXAMPLES") <(echo "$FILE_EXAMPLES") >&2 || true
    exit 1
fi

step "bench harness smoke (scratch dir, fast samples)"
scripts/bench.sh --smoke

step "NaN-safe ordering (no Ordering::Equal fallbacks)"
# partial_cmp(..).unwrap_or(Equal) silently makes NaN compare equal to
# everything, which turns sorts nondeterministic. total_cmp is the fix;
# this grep keeps the pattern from coming back.
if grep -rEn 'unwrap_or\((std::cmp::)?Ordering::Equal\)' \
    src tests examples crates/*/src crates/*/tests 2>/dev/null; then
    echo "tier1: FAIL — NaN-unsafe comparator found above; use f32::total_cmp" >&2
    exit 1
fi

step "observability artifacts (none by default, all under TP_OBS)"
OBS_SCRATCH="$(mktemp -d)"
trap 'rm -rf "$OBS_SCRATCH"' EXIT
PROFILE_RUN="$PWD/target/release/examples/profile_run"
( cd "$OBS_SCRATCH" && "$PROFILE_RUN" 0.001 1 >/dev/null 2>&1 )
if [ -n "$(ls -A "$OBS_SCRATCH")" ]; then
    echo "tier1: FAIL — uninstrumented run wrote files: $(ls -A "$OBS_SCRATCH")" >&2
    exit 1
fi
( cd "$OBS_SCRATCH" && TP_OBS=trace "$PROFILE_RUN" 0.001 1 >/dev/null 2>&1 )
for artifact in trace.json events.jsonl run_report.json; do
    if [ ! -s "$OBS_SCRATCH/$artifact" ]; then
        echo "tier1: FAIL — TP_OBS=trace run did not write $artifact" >&2
        exit 1
    fi
done

step ""
echo "tier1: OK (${SECONDS}s)"
