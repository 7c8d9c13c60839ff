#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== engine census (one of everything, and the size metric) =="
# Seconds, no timing. The run engine has one builder (`Run`), one event
# heap, one wall-clock worker pool and one Poisson constructor; this stage
# fails when a second copy of any of them, or an eleventh driver, appears.
# The six names besides `run_simulated`, `run_multitenant_server` and the
# two `find_peak_*` are `#[doc(hidden)]` delegations kept only because
# `perfbench/` imports them; nothing in the workspace may call them.
census_fail() { echo "engine census: $*" >&2; exit 1; }
kept="find_peak_multistream find_peak_server_qps resume_journaled run_instrumented
run_journaled run_multitenant_server run_realtime_traced_at run_simulated
run_simulated_replay run_simulated_traced"
drivers=$(grep -hoE "^pub fn (run_|resume_|find_peak_)\w+" crates/core/src/*.rs | sed 's/^pub fn //' | sort | xargs)
[[ "$drivers" == "$(echo $kept)" ]] || census_fail "public drivers are: $drivers"
heaps=$(grep -l "BinaryHeap" crates/core/src/*.rs | xargs)
[[ "$heaps" == "crates/core/src/des.rs" ]] || census_fail "BinaryHeap in: $heaps"
pools=$(cat crates/core/src/{realtime,replay,run}.rs | grep -c "thread::spawn")
[[ "$pools" == 1 ]] || census_fail "$pools thread::spawn sites in realtime.rs/replay.rs/run.rs"
# The wall-clock loops wait for the schedule in one place, the pacer, which
# sleeps short of a deadline and yields up to it: a second `thread::sleep`
# is a loop that issues a timer slack late again. And `TcpTransport` reads
# through its receive buffer only; the unbuffered `read_frame` is there as
# the reference its tests compare against.
before_tests() { awk '/#\[cfg\(test\)\]/{exit} {print}' "$1"; }
sleeps=$(before_tests crates/core/src/realtime.rs | grep -c "thread::sleep" || true)
[[ "$sleeps" == 1 ]] || census_fail "$sleeps non-test thread::sleep sites in realtime.rs"
unbuffered=$(before_tests crates/wire/src/transport.rs | grep -c "read_frame(" || true)
[[ "$unbuffered" == 0 ]] || census_fail "$unbuffered non-test read_frame( calls in wire/src/transport.rs"
# One work queue in the tree — core's `WorkQueue<T>`, which the daemon's
# server-scenario pool takes too — and nothing built per query: no `mpsc`
# in the wire's two endpoints. A completion there wakes a waiter only when
# one is parked, with `notify_one`; `notify_all` is for the rare paths that
# change what every waiter sees: the client's `fail` (issuers and the
# shutdown wait), `sever`, resume and response timeout. The daemon has
# none: closing its queue is `WorkQueue::close`.
queues=$(grep -l "struct WorkQueue" crates/*/src/*.rs | xargs)
[[ "$queues" == "crates/core/src/realtime.rs" ]] || census_fail "work queues in: $queues"
for end in server client; do
    chans=$(before_tests crates/wire/src/$end.rs | grep -c "mpsc" || true)
    [[ "$chans" == 0 ]] || census_fail "$chans mentions of mpsc in wire/src/$end.rs"
done
wakes="$(before_tests crates/wire/src/server.rs | grep -c "notify_all" || true) $(before_tests crates/wire/src/client.rs | grep -c "notify_all" || true)"
[[ "$wakes" == "0 5" ]] || census_fail "notify_all sites in wire/src/{server,client}.rs: $wakes (want 0 5)"
poissons=$(cat crates/core/src/*.rs | grep -c "PoissonProcess::new")
[[ "$poissons" == 1 ]] || census_fail "$poissons PoissonProcess::new sites in crates/core/src"
shims='run_simulated_traced|run_instrumented|run_journaled|resume_journaled|run_simulated_replay|run_realtime_traced_at'
callers=$(grep -rnE "\b($shims)\b" --include='*.rs' crates src tests examples | grep -vE "^crates/core/src/(des|realtime|replay)\.rs:[0-9]+:pub fn " || true)
[[ -z "$callers" ]] || census_fail "perfbench-only names used in the workspace:
$callers"
# The loopback wire topology (daemons -> a RemoteSut each -> a weighted
# ShardedSut -> a kill watcher) is built once, in crates/harness/src/rig.rs;
# chaos, netbench, replay and the fleet-crash test pass in what differs.
# A second hand-built fleet, a second copy of the netbench/replay service
# cycle, or a daemon leaked to outlive its scope fails here.
wiring='ShardEndpoint::new|RemoteSut::hello_for|ShardedSut::new'
strays=$(grep -rnE "$wiring" crates/harness/src crates/harness/tests | grep -v "^crates/harness/src/rig\.rs:" || true)
[[ -z "$strays" ]] || census_fail "fleet wiring outside crates/harness/src/rig.rs:
$strays"
strays=$(grep -rnE "fn fleet_per_sample|mem::forget" crates/harness/src crates/harness/tests || true)
[[ -z "$strays" ]] || census_fail "a copied service cycle or a leaked handle in crates/harness:
$strays"
# One measuring system, perf, and no knob in the environment: nothing
# reads a variable, no bench holds a threshold, no baseline is committed.
strays=$(grep -rn "env::var" crates src tests examples; grep -rnE "process::exit|MAX_PCT" crates/bench; ls BENCH_*.json 2>/dev/null) || true
[[ -z "$strays" ]] || census_fail "an environment read, a gate in crates/bench or a stored bench baseline:
$strays"
# One protocol version on the wire, and one lock discipline under it: the
# names that existed only because two versions did stay gone, and no
# non-test lock in the endpoints, the router, the work queue or the sinks
# unwraps its guard (`mlperf_trace::sync` takes a poisoned mutex anyway;
# rustfmt may split `.lock()` from `.expect(`, so match across the newline).
retired='MIN_PROTOCOL_VERSION|with_protocol|negotiated_version|Message::Issue\b|Message::Heartbeat\b'
strays=$(grep -rnE "$retired" --include='*.rs' crates src tests examples || true)
[[ -z "$strays" ]] || census_fail "a second protocol version's surface is back:
$strays"
for f in $(find crates/{wire,sut,core,trace}/src -name '*.rs'); do
    unwrapped=$(before_tests "$f" | tr -d ' \n' | { grep -oE '\.lock\(\)\.(expect\(|unwrap\(\))' || true; } | wc -l)
    [[ "$unwrapped" == 0 ]] || census_fail "$unwrapped .lock().expect(/.unwrap() sites in the non-test part of $f"
done
# The size metric every PR states: lines of crates/*/src before a file's
# first #[cfg(test)], per crate and in total.
find crates/*/src -name '*.rs' | sort | while read -r f; do
    echo "$(echo "$f" | cut -d/ -f2) $(before_tests "$f" | wc -l)"
done | awk '{c[$1]+=$2; t+=$2} END{for (k in c) printf "  %-12s %6d\n", k, c[k] | "sort"; close("sort"); printf "  %-12s %6d non-test lines\n", "crates/*/src", t}'

echo "== cargo test =="
cargo test --workspace -q

echo "== chaos smoke (fault matrix: reproducibility + validity flips) =="
# Builds the scenario x fault matrix twice with the default seed and asserts
# byte-identical output, VALID fault-free baselines, at least one
# INVALID-flipping fault per scenario, and at least one cell rescued by the
# resilience policies. The table itself is noise in CI logs.
cargo run -q --release -p mlperf-harness --bin chaos -- --check > /dev/null

echo "== networked chaos smoke (wire faults: integrity + session resume) =="
# The wire-fault half of the matrix: scenario x wire fault x resume over a
# loopback daemon. Asserts corruption/truncation/partition surface as
# error-fraction (CRC rejects, never a fake completion), an unresumed
# disconnect ends IncompleteQueries, and reconnect+resume rescues it with
# a logical detail log byte-identical to the fault-free baseline.
cargo run -q --release -p mlperf-harness --bin chaos -- --wire --check > /dev/null

echo "== crash chaos smoke (process-kill quadrant: journal resume is lossless) =="
# The crash quadrant: four cells, each a real SIGKILL against a journaled
# wire run halted at a deterministic checkpoint boundary — client killed,
# daemon killed, both killed, and client killed mid-checkpoint-write (a
# genuinely torn frame). Each cell restarts the dead processes and resumes
# from the MLPJ journals; the check asserts every rescued run is VALID
# with a logical detail-log hash equal to the uninterrupted baseline's,
# the torn frame is detected exactly where it was inflicted, and the
# whole matrix renders byte-identically across two builds.
cargo run -q --release -p mlperf-harness --bin chaos -- --crash --check > /dev/null

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

echo "== netbench fleet smoke (sharded serving survives losing a shard) =="
# Fleet mode, the same path over a rig of three: heterogeneous loopback
# daemons behind one weighted ShardedSut router. A seeded victim daemon is
# killed mid-server-run while it has a query in flight; the check asserts
# the router rescues the in-flight work (the run stays VALID, the merged
# sharded log passes the completeness audit, and the victim's down +
# failover rows are present). The first rig has lost its victim, so the
# reproducibility leg is a second fresh rig: it must survive the same kill
# and render a byte-identical logical log.
cargo run -q --release -p mlperf-harness --bin netbench -- --loopback --shards 3 --check

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

echo "== bench smoke (what is left of crates/bench runs once) =="
# kernels, tables, scenarios, metrics_bench and journal_overhead time what
# perf cannot see, print it and gate on nothing; otherwise only clippy's
# --all-targets compiles them. The timing gate is the per-PR perf run.
cargo bench -q -p mlperf-bench > /dev/null

echo "CI green."
