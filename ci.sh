#!/usr/bin/env bash
# The full CI gate, runnable locally. Mirrors .github/workflows/ci.yml:
#
#   ./ci.sh            # fmt + clippy + tier-1 (release build + full tests)
#                      # + experiment determinism + differential verify
#                      # + golden tables
#                      # + smoke stages + perfbench self-test
#   ./ci.sh --deep     # same, with 256 property-test cases per property
#                      # and a 256-seed verify sweep
#
# The tier-1 gate is the pair of commands ROADMAP.md designates as the
# regression bar: `cargo build --release` and `cargo test -q`.

set -euo pipefail
cd "$(dirname "$0")"

VERIFY_SEEDS=64
if [[ "${1:-}" == "--deep" ]]; then
  # Scale the property suite up (see TESTING.md); the default is sized for
  # quick iteration, --deep for pre-merge confidence.
  export DIDE_PROPTEST_CASES=256
  VERIFY_SEEDS=256
  echo "deep mode: DIDE_PROPTEST_CASES=256, verify sweep of ${VERIFY_SEEDS} seeds"
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite =="
cargo test -q

echo "== experiment determinism smoke =="
# The printed tables must be byte-identical for any --jobs value.
cargo run --release --bin dide -- experiments --only e1,e10 --jobs 1 > serial.txt
cargo run --release --bin dide -- experiments --only e1,e10 --jobs 4 > parallel.txt
cmp serial.txt parallel.txt \
  || { echo "experiment tables differ between --jobs 1 and --jobs 4" >&2; exit 1; }
rm -f serial.txt parallel.txt

echo "== asm frontend: assemble, round-trip, diagnostic drift =="
# Every shipped .asm file must assemble from its on-disk text (the builtin
# copies are embedded at compile time; this catches a drifted working
# tree), the round-trip property suite must pass, and the parser's error
# messages must match the committed snapshot byte-for-byte.
for f in asm/*.asm; do
  cargo run --release --bin dide -- disasm "$f" > /dev/null \
    || { echo "$f does not assemble" >&2; exit 1; }
done
cargo test -q -p dide --test asm_roundtrip
cargo run --release --bin dide -- verify --golden --only asm_errors.txt,run_prime.txt,stats_prime.json

echo "== differential verify (${VERIFY_SEEDS} seeds) =="
cargo run --release --bin dide -- verify --seeds "${VERIFY_SEEDS}" --jobs 2

echo "== golden tables =="
cargo run --release --bin dide -- verify --golden

echo "== stats smoke (dide-stats/v1) =="
cargo run --release --bin dide -- stats --benchmark expr --eliminate --json > stats.json
# The observability export must produce a non-empty, schema-tagged document.
test -s stats.json || { echo "stats.json is missing or empty" >&2; exit 1; }
grep -q '"schema": "dide-stats/v1"' stats.json \
  || { echo "stats.json lacks the dide-stats/v1 schema marker" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool stats.json >/dev/null \
    || { echo "stats.json is not valid JSON" >&2; exit 1; }
fi
rm -f stats.json

echo "== bench smoke + regression check =="
# Writes to a scratch file so the committed baseline BENCH.json is never
# clobbered, and compares the run against it. The gate fails closed: a
# baseline it cannot read or parse fails before measuring, and one that
# lacks an entry the run measured fails the check. The timing tolerance
# is deliberately generous (>2x AND >5ms before it fails): CI runs on a
# single shared CPU where wall-clock jitters by tens of percent, so this
# gate only catches order-of-magnitude simulate-phase regressions, not
# tuning drift. A new enrollment needs the baseline refreshed in the same
# change:
#   cargo run --release --bin dide -- bench --out BENCH.json
cargo run --release --bin dide -- bench --quick --out BENCH.ci.json --check-against BENCH.json
# The perf harness must produce a non-empty, well-formed report.
test -s BENCH.ci.json || { echo "BENCH.ci.json is missing or empty" >&2; exit 1; }
grep -q '"schema": "dide-bench/v4"' BENCH.ci.json \
  || { echo "BENCH.ci.json lacks the dide-bench/v4 schema marker" >&2; exit 1; }
grep -q '"mem_peak_bytes"' BENCH.ci.json \
  || { echo "BENCH.ci.json lacks the streamed mem_peak_bytes block" >&2; exit 1; }
grep -q '"campaign"' BENCH.ci.json \
  || { echo "BENCH.ci.json lacks the campaign throughput block" >&2; exit 1; }
grep -q '"cluster"' BENCH.ci.json \
  || { echo "BENCH.ci.json lacks the clustered-backend block" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool BENCH.ci.json >/dev/null \
    || { echo "BENCH.ci.json is not valid JSON" >&2; exit 1; }
fi
rm -f BENCH.ci.json

echo "== campaign smoke (batch engine determinism) =="
# A small grid through the work-stealing engine: the JSONL store must be
# byte-identical for any --jobs value, every line must be valid JSON, and
# the report subcommand must aggregate it back.
CAMPAIGN_GRID="--benchmarks expr,route --elims off,cfi --thresholds 8,12"
DIDE=./target/release/dide
rm -f campaign.ci1.jsonl campaign.ci1.jsonl.cursor campaign.ci4.jsonl campaign.ci4.jsonl.cursor
# shellcheck disable=SC2086
"${DIDE}" campaign run ${CAMPAIGN_GRID} --out campaign.ci1.jsonl --jobs 1
# shellcheck disable=SC2086
"${DIDE}" campaign run ${CAMPAIGN_GRID} --out campaign.ci4.jsonl --jobs 4
cmp campaign.ci1.jsonl campaign.ci4.jsonl \
  || { echo "campaign store differs between --jobs 1 and --jobs 4" >&2; exit 1; }
grep -q '"schema":"dide-campaign-store/v1"' campaign.ci1.jsonl \
  || { echo "campaign store lacks the dide-campaign-store/v1 header" >&2; exit 1; }
grep -q '"schema":"dide-stats/v1"' campaign.ci1.jsonl \
  || { echo "campaign store lacks dide-stats/v1 records" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json
for line in open("campaign.ci1.jsonl"):
    json.loads(line)' || { echo "campaign store is not line-delimited JSON" >&2; exit 1; }
fi
"${DIDE}" campaign report --store campaign.ci1.jsonl --where elim=cfi --group-by benchmark \
  | grep -q "expr" || { echo "campaign report lost the expr group" >&2; exit 1; }
rm -f campaign.ci1.jsonl campaign.ci1.jsonl.cursor campaign.ci4.jsonl campaign.ci4.jsonl.cursor

echo "== clustered backend smoke (E18 + steering determinism) =="
# The clustered backend (DESIGN.md §11) must hold its invariants end to
# end: the E18 golden pins the full steering sweep table and the clustered
# stats export, and a clustered campaign grid must stay byte-identical
# across --jobs values (the steering decision is part of the canonical
# job, so any scheduler-order dependence would show up here).
cargo run --release --bin dide -- verify --golden \
  --only e18,stats_expr_clustered.json,stats_compress_clustered_affinity.json,stats_compress_clustered_affinity_cfi.json
CLUSTER_GRID="--benchmarks expr,route --machines contended,clustered --elims off,cfi"
DIDE=./target/release/dide
rm -f cluster.ci1.jsonl cluster.ci1.jsonl.cursor cluster.ci4.jsonl cluster.ci4.jsonl.cursor
# shellcheck disable=SC2086
"${DIDE}" campaign run ${CLUSTER_GRID} --out cluster.ci1.jsonl --jobs 1
# shellcheck disable=SC2086
"${DIDE}" campaign run ${CLUSTER_GRID} --out cluster.ci4.jsonl --jobs 4
cmp cluster.ci1.jsonl cluster.ci4.jsonl \
  || { echo "clustered campaign store differs between --jobs 1 and --jobs 4" >&2; exit 1; }
grep -q '"machine":"clustered"' cluster.ci1.jsonl \
  || { echo "clustered campaign store lacks clustered-machine records" >&2; exit 1; }
rm -f cluster.ci1.jsonl cluster.ci1.jsonl.cursor cluster.ci4.jsonl cluster.ci4.jsonl.cursor

echo "== streaming smoke (bounded memory) =="
# The streamed pipeline must survive an address-space budget that the
# materializing path cannot: expr at scale 16 materializes a ~53 MiB
# trace (doubled again inside the emulator's growth pattern and the
# analysis verdict arrays), while the streamed path retains at most two
# 65536-record epochs (~5 MiB). Measured floors: the materializing run
# aborts below ~256 MiB of address space, the streamed run survives
# down to 24 MiB — so a 128 MiB budget has 2x margin on both sides.
STREAM_VM_KB=131072
DIDE=./target/release/dide
( ulimit -v "${STREAM_VM_KB}"; "${DIDE}" run expr --scale 16 --stream > /dev/null ) \
  || { echo "streamed run of expr@s16 failed under ulimit -v ${STREAM_VM_KB}" >&2; exit 1; }
if ( ulimit -v "${STREAM_VM_KB}"; "${DIDE}" run expr --scale 16 > /dev/null 2>&1 ); then
  echo "materializing run of expr@s16 fit under ulimit -v ${STREAM_VM_KB};" >&2
  echo "the streaming smoke budget no longer discriminates — tighten it" >&2
  exit 1
fi
echo "streamed expr@s16 fits in ${STREAM_VM_KB} KiB; materializing path does not"

echo "== perfbench self-test (the repository benchmark still builds and runs) =="
# perfbench is a Cargo package of its own that drives dide-pipeline and
# the campaign engine through their public APIs; an API change that breaks
# it fails here rather than in a benchmark run.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "CI gate passed."
