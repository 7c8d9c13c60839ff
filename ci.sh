#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
# An unresolved intra-doc link, or one to a private item, is a doc that
# renders as plain text where it promises a link.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== size metric (the census itself is tests/census.rs, run by cargo test) =="
# The census — one of everything in the run engine, the retired names kept
# out, and the public-surface report against results/public_surface.txt —
# is a table-driven root test, so tier-1 `cargo test` enforces it.
before_tests() { awk '/#\[cfg\(test\)\]/{exit} {print}' "$1"; }
# The size metric every PR states: lines of crates/*/src before a file's
# first #[cfg(test)], per crate and in total. Beside it, the `pub`
# declarations of the same text: lines that start (after indentation) with
# `pub `, so `pub(crate)` is not counted. Both are printed; neither gates.
find crates/*/src -name '*.rs' | sort | while read -r f; do
    echo "$(echo "$f" | cut -d/ -f2) $(before_tests "$f" | wc -l) $(before_tests "$f" | grep -c '^[[:space:]]*pub ')"
done | awk '{c[$1]+=$2; p[$1]+=$3; t+=$2; u+=$3} END{for (k in c) printf "  %-12s %6d %5d pub\n", k, c[k], p[k] | "sort"; close("sort"); printf "  %-12s %6d non-test lines, %d pub\n", "crates/*/src", t, u}'

echo "== cargo test =="
cargo test --workspace -q

echo "== the paper's artifacts (every results/<name>.txt regenerates byte-identically) =="
# Tables I-VII, Figures 1 and 5-8, the quality windows, the compliance audits
# and the ablations, rendered by the one paper binary (the submission round
# generated once, in memory) and compared with the committed results/*.txt.
# This is the byte pin on tensor, nn, models, datasets, metrics, stats and
# submission. On a mismatch it writes the fresh file under target/paper/ and
# prints the cp that installs it; there is no bless switch.
cargo run -q --release -p mlperf-harness --bin paper -- all --check

echo "== chaos matrix (every row as expected, two builds identical, the committed pin) =="
# All four quadrants, once. The expected outcomes are the ROWS table in
# crates/harness/src/bin/chaos.rs; --check holds every row to its expected
# column and a second build to the same bytes, and cmp holds the build to
# the committed results/chaos_matrix.json (after an intentional change,
# regenerate it with the same command and --out results/chaos_matrix.json).
matrix=$(mktemp)
trap 'rm -f "$matrix"' EXIT
cargo run -q --release -p mlperf-harness --bin chaos -- --wire --crash --check --out "$matrix" > /dev/null
cmp "$matrix" results/chaos_matrix.json

echo "== netbench loopback smoke (network SUT: tracing + telemetry) =="
# Single-process wire smoke: a rig of one — a serving daemon and a RemoteSut
# client on a loopback socket — runs the scaled-down offline + server pair
# twice, asserting every run is VALID, the logical detail log
# (deterministic per-query fields) renders byte-identically across
# connections under the fixed seed, the merged client+server detail log
# passes the TEST06 completeness audit with at least one end-to-end trace
# (client issue -> server compute -> client complete under one trace id),
# and the daemon's live stats snapshot parses.
cargo run -q --release -p mlperf-harness --bin netbench -- --loopback --stats --check

echo "== replay roundtrip smoke (record -> reduce -> replay, three legs) =="
# The record-reduce-replay audit: a simulated server run is recorded,
# reduced 20x, and replayed through the DES (same verdict, fingerprint
# within bound, recording and reduction byte-reproducible, reduced trace
# byte-identical to the committed results/fixtures/replay_reduced.mlpr —
# re-bless with `replay roundtrip --bless` after an intentional format or
# reducer change); a realtime loopback run is recorded, reduced 10x, and
# replayed over a fresh connection to the same verdict; and the same
# reduced trace drives a 3-shard fleet to a VALID run.
cargo run -q --release -p mlperf-harness --bin replay -- roundtrip --check

echo "== tail-latency forensics (committed artifacts regenerate byte-identically) =="
# Re-analyzes the committed log fixtures under results/fixtures/ and
# asserts: results/analysis.{md,json} reproduce byte-for-byte, the
# per-query segment decomposition sums to the end-to-end latency exactly
# (residual 0ns), and the chaos flight-dump fixture yields a root cause
# naming every constraint its reason line records. After an intentional
# report change, re-bless with:
#   cargo run --release -p mlperf-harness --bin analyze -- --check --bless
cargo run -q --release -p mlperf-harness --bin analyze -- --check

echo "== repo benchmark smoke (perfbench builds against crates/ and its checks pass) =="
# perfbench/ is a package of its own outside the workspace, so no stage
# above compiles it: a crates/ refactor that breaks what it imports (e.g.
# mlperf_wire::frame::{crc32, open, read_frame, seal, write_frame}) or one
# of its correctness checks (round trips, bit-flip rejection, result
# hashes, VALID runs) must fail here, not in the benchmark run. --quick
# takes seconds in total; the numbers it prints are not for comparison.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin perf -- \
    --workload all --seed 1 --quick > /dev/null

echo "CI green."
