//! The census: what the tree keeps out, and what it no longer calls.
//!
//! Both halves read the source text of the checkout
//! (`env!("CARGO_MANIFEST_DIR")`): every `.rs` file under `crates/`,
//! `src/`, `tests/`, `examples/` and `perfbench/src/`, plus the names of
//! the files at the root and the text of one of them, `ci.sh`, whose
//! stages the runner rule ("every declared flag has a runner") reads. This
//! file is left out of the set, because its own patterns (`env::var`, the
//! retired names) would match themselves.
//! A file's *non-test part* is its lines before the first `#[cfg(test)]`,
//! the same cut `ci.sh`'s size metric makes.
//!
//! **Rules.** [`RULES`] is one table. Each row names a shape the tree once
//! had two of (or should have none of), the files it looks in, a pattern,
//! what it wants, the commit that retired the other copy and why, and a
//! planted violation. `the_tree_keeps_every_census_rule` holds the tree to
//! every row; `every_rule_fires_on_its_planted_violation` adds each row's
//! planted text to an in-memory copy of the tree and asserts that the row
//! fails. Nothing on disk is mutated.
//!
//! **Public surface.** Every `pub` fn (free or method), struct, enum,
//! trait, type, const and static in the non-test part of `crates/*/src`
//! is counted by production references: occurrences of its name in the
//! non-test part of `crates/*/src`, `src/`, `examples/` and
//! `perfbench/src` (the benchmark imports from the crates), less the
//! places a name is defined. References from tests, benches and test
//! modules are counted separately and only reported. Every item with no
//! production reference is listed in `results/public_surface.txt` with a
//! one-line reason it stays; an unlisted one fails, and so does a listed
//! one that gained a caller or no longer exists. There is no bless switch:
//! on a mismatch the fresh rendering is written under `target/` and the
//! failure prints the `cp` that installs it.
//!
//! **Cross-crate column.** The same items are also counted by references
//! from outside their own crate's library (`crates/X/src` less
//! `src/bin/`, whose binaries are crates of their own): the other crates'
//! sources with their test modules, every `tests/`, `benches/` and
//! `examples/` directory (the crate's own `crates/X/tests` included), the
//! binaries, `src/` and `perfbench/src`. An item at zero fails, and there
//! is no list to excuse it: what only its own crate names is `pub(crate)`
//! or private, so rustc's `dead_code` lint sees it, and `clippy -D
//! warnings` fails on it once nothing in the crate uses it either. That
//! lint also covers what a name count cannot: fields, enum variants, trait
//! impls of crate-private types, and dead items whose names collide with
//! live ones in the same crate. The "no dead-code allowance" rule keeps the
//! lint from being silenced.
//!
//! Limits. The count is by name, with comments and string literals
//! blanked and `use` statements skipped, so it is conservative: a `pub`
//! item whose name another crate uses for something else (a method of its
//! own, a field, a local) counts as named across crates and is missed.
//! Trait impls of `pub` types are not items; rustc treats them as used.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

/// The tree as `(path relative to the root, text)` pairs, sorted by path.
type Tree = Vec<(String, String)>;

const SELF: &str = "tests/census.rs";
const SCANNED_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "perfbench/src"];
const SURFACE_LIST: &str = "results/public_surface.txt";

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// Which lines of a file a rule reads.
#[derive(Debug, Clone, Copy)]
enum Part {
    Whole,
    NonTest,
    /// The non-test part with comments and string literals blanked: what
    /// the compiler reads, not what the prose says.
    Code,
}

#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// Lines containing any of the needles.
    Line(&'static [&'static str]),
    /// Lines containing any of the needles between identifier boundaries.
    Word(&'static [&'static str]),
    /// Occurrences of any needle once all whitespace is removed, so a
    /// call rustfmt split across lines still matches.
    Squeezed(&'static [&'static str]),
    /// The names of `pub fn` items (at column 0) starting with a prefix.
    PubFn(&'static [&'static str]),
    /// Every file in scope.
    File,
    /// Each variant of `enum_name` that the declaration in `declared_in`
    /// lists (a line of its code that reads `Variant(...) {`) and no file
    /// in scope names, as `enum_name::Variant` or — a boxed variant is
    /// built as its payload struct of the same name — as `Variant {`.
    Unnamed {
        enum_name: &'static str,
        declared_in: &'static str,
    },
    /// Each flag and subcommand that the declaration in a binary's file
    /// (`crates/harness/src/bin/<binary>.rs`) lists and nothing runs. The
    /// declaration is every `Flag::switch("..")`, `Flag::value("..", ..)`
    /// and `Command::new("<binary> <sub>", ..)` in the file's non-test
    /// part, and every `cli::NAME` of a flag `cli.rs` declares as a
    /// `pub const`. It is run when a non-comment `ci.sh` line has it as a
    /// word after `--bin <binary>`, or a file under
    /// `crates/harness/tests/` that names `CARGO_BIN_EXE_<binary>` holds it
    /// as a string literal. A file that declares no command is a hit too.
    Unrun,
}

#[derive(Debug, Clone, Copy)]
enum Want {
    /// Exactly this many hits.
    Count(usize),
    /// Hits in exactly these files.
    Files(&'static [&'static str]),
    /// Exactly these names.
    Names(&'static [&'static str]),
    /// Exactly one hit, in this file.
    OnceIn(&'static str),
    /// Exactly this many hits, all in this file.
    CountIn(usize, &'static str),
}

struct Rule {
    name: &'static str,
    /// Path globs (`*` within a segment, `**` across); a leading `!`
    /// excludes.
    scope: &'static [&'static str],
    part: Part,
    pattern: Pattern,
    want: Want,
    /// The commit that retired the thing the rule keeps out, and why.
    retired: &'static str,
    /// `(path, text)`: text prepended to the file (or a new file) that
    /// the rule must reject.
    plant: (&'static str, &'static str),
}

const WORKSPACE_RS: &[&str] = &[
    "crates/**/*.rs",
    "src/**/*.rs",
    "tests/**/*.rs",
    "examples/**/*.rs",
];

/// Production code: the crates' and the root's sources and the benchmark's,
/// without tests, benches or examples.
const PRODUCTION_RS: &[&str] = &[
    "crates/*/src/**/*.rs",
    "src/**/*.rs",
    "perfbench/src/**/*.rs",
];

const RULES: &[Rule] = &[
    Rule {
        name: "nine public run entry points",
        scope: &["crates/core/src/*.rs"],
        part: Part::Whole,
        pattern: Pattern::PubFn(&["run_", "resume_", "find_peak_"]),
        want: Want::Names(&[
            "find_peak_multistream",
            "find_peak_server_qps",
            "resume_journaled",
            "run_instrumented",
            "run_journaled",
            "run_realtime_traced_at",
            "run_simulated",
            "run_simulated_replay",
            "run_simulated_traced",
        ]),
        retired: "7fe073a: every run goes through `Run`; six of these names are hidden delegations perfbench imports",
        plant: ("crates/core/src/run.rs", "pub fn run_twice() {}\n"),
    },
    Rule {
        name: "one event heap",
        scope: &["crates/core/src/*.rs"],
        part: Part::Whole,
        pattern: Pattern::Line(&["BinaryHeap"]),
        want: Want::Files(&["crates/core/src/des.rs"]),
        retired: "7fe073a: every simulated loop runs on des.rs's one queue",
        plant: ("crates/core/src/run.rs", "use std::collections::BinaryHeap;\n"),
    },
    Rule {
        name: "one wall-clock worker pool",
        scope: &[
            "crates/core/src/realtime.rs",
            "crates/core/src/replay.rs",
            "crates/core/src/run.rs",
        ],
        part: Part::Whole,
        pattern: Pattern::Line(&["thread::spawn"]),
        want: Want::Count(1),
        retired: "7fe073a: the wall-clock loops share one pool",
        plant: ("crates/core/src/replay.rs", "fn pool() { std::thread::spawn(|| ()); }\n"),
    },
    Rule {
        name: "one pacer sleep",
        scope: &["crates/core/src/realtime.rs"],
        part: Part::NonTest,
        pattern: Pattern::Line(&["thread::sleep"]),
        want: Want::Count(1),
        retired: "916b781: the pacer sleeps short of a deadline and yields up to it; a second sleep issues late",
        plant: ("crates/core/src/realtime.rs", "fn nap() { std::thread::sleep(PAUSE); }\n"),
    },
    Rule {
        name: "no unbuffered read_frame in TcpTransport",
        scope: &["crates/wire/src/transport.rs"],
        part: Part::NonTest,
        pattern: Pattern::Line(&["read_frame("]),
        want: Want::Count(0),
        retired: "916b781: one read(2) per frame through the receive buffer; read_frame is the tests' reference",
        plant: ("crates/wire/src/transport.rs", "fn raw(r: &mut R) { read_frame(r); }\n"),
    },
    Rule {
        name: "one work queue",
        scope: &["crates/*/src/*.rs"],
        part: Part::Whole,
        pattern: Pattern::Line(&["struct WorkQueue"]),
        want: Want::Files(&["crates/core/src/realtime.rs"]),
        retired: "6da680d: the daemon's server pool moved onto core's WorkQueue",
        plant: ("crates/wire/src/server.rs", "struct WorkQueue;\n"),
    },
    Rule {
        name: "no channel in the wire endpoints",
        scope: &["crates/wire/src/server.rs", "crates/wire/src/client.rs"],
        part: Part::NonTest,
        pattern: Pattern::Line(&["mpsc"]),
        want: Want::Count(0),
        retired: "6da680d: nothing is built per query; a completion wakes a parked waiter",
        plant: ("crates/wire/src/client.rs", "use std::sync::mpsc;\n"),
    },
    Rule {
        name: "no notify_all in the daemon",
        scope: &["crates/wire/src/server.rs"],
        part: Part::NonTest,
        pattern: Pattern::Line(&["notify_all"]),
        want: Want::Count(0),
        retired: "6da680d: closing the daemon's queue is WorkQueue::close",
        plant: ("crates/wire/src/server.rs", "fn wake(c: &Condvar) { c.notify_all(); }\n"),
    },
    Rule {
        name: "five notify_all in the client",
        scope: &["crates/wire/src/client.rs"],
        part: Part::NonTest,
        pattern: Pattern::Line(&["notify_all"]),
        want: Want::Count(5),
        retired: "6da680d: only fail, sever, resume and response timeout change what every waiter sees",
        plant: ("crates/wire/src/client.rs", "fn wake(c: &Condvar) { c.notify_all(); }\n"),
    },
    Rule {
        name: "one client thread besides the issuers",
        scope: &["crates/wire/src/client.rs"],
        part: Part::Code,
        pattern: Pattern::Line(&["thread::Builder::new()", "thread::spawn"]),
        want: Want::Count(1),
        retired: "read role: the issuer reads its own reply (ClientCore assigns who reads); the heartbeat is the one thread a client spawns, and a reader thread beside the role would be a second read path",
        plant: ("crates/wire/src/client.rs", "fn reader() { std::thread::spawn(|| ()); }\n"),
    },
    Rule {
        name: "wire protocol cores are sans-I/O",
        scope: &["crates/wire/src/protocol.rs"],
        part: Part::Code,
        pattern: Pattern::Word(&[
            "Instant",
            "SystemTime",
            "thread",
            "sleep",
            "Mutex",
            "Condvar",
            "TcpStream",
            "Transport",
            "TraceSink",
            "MetricsRegistry",
        ]),
        want: Want::Count(0),
        retired: "protocol: ClientCore and SessionCore take time as now_ns and return decisions; clocks, threads, locks, sockets and sinks are their drivers'",
        plant: ("crates/wire/src/protocol.rs", "fn now() { let _ = std::time::Instant::now(); }\n"),
    },
    Rule {
        name: "frames are routed in the cores",
        scope: &["crates/wire/src/client.rs", "crates/wire/src/server.rs"],
        part: Part::Code,
        pattern: Pattern::Squeezed(&["Ok(Message::"]),
        want: Want::Count(0),
        retired: "thin wire drivers: ClientCore::{read, handshake} and SessionCore::{open, frame, recover} take each decoded frame; the drivers match only on what the cores decide",
        plant: (
            "crates/wire/src/server.rs",
            "fn r(m: Result<Message, ()>) { if let Ok(Message::Drain) = m {} }\n",
        ),
    },
    Rule {
        name: "one Poisson constructor",
        scope: &["crates/core/src/*.rs"],
        part: Part::Whole,
        pattern: Pattern::Line(&["PoissonProcess::new"]),
        want: Want::Count(1),
        retired: "7fe073a: both open loops pull from schedule::ArrivalSource",
        plant: ("crates/core/src/run.rs", "fn again() { PoissonProcess::new(1.0); }\n"),
    },
    Rule {
        name: "perfbench-only shims have no workspace caller",
        scope: WORKSPACE_RS,
        part: Part::Whole,
        pattern: Pattern::Word(&[
            "run_simulated_traced",
            "run_instrumented",
            "run_journaled",
            "resume_journaled",
            "run_simulated_replay",
            "run_realtime_traced_at",
        ]),
        // The six definitions, and nothing else.
        want: Want::Count(6),
        retired: "7fe073a: `Run` replaced them; they stay only because perfbench imports them",
        plant: ("examples/quickstart.rs", "fn legacy() { des::run_journaled(); }\n"),
    },
    Rule {
        name: "fleet wiring only in rig.rs",
        scope: &[
            "crates/harness/src/**/*.rs",
            "crates/harness/tests/**/*.rs",
            "!crates/harness/src/rig.rs",
        ],
        part: Part::Whole,
        pattern: Pattern::Line(&["ShardEndpoint::new", "RemoteSut::hello_for", "ShardedSut::new"]),
        want: Want::Count(0),
        retired: "80b7927: chaos, netbench, replay and the fleet-crash test pass in what differs",
        plant: ("crates/harness/src/bin/netbench.rs", "fn own() { ShardedSut::new(shards); }\n"),
    },
    Rule {
        name: "no copied service cycle or leaked handle",
        scope: &["crates/harness/src/**/*.rs", "crates/harness/tests/**/*.rs"],
        part: Part::Whole,
        pattern: Pattern::Line(&["fn fleet_per_sample", "mem::forget"]),
        want: Want::Count(0),
        retired: "80b7927: one netbench/replay service cycle; no daemon outlives its scope",
        plant: ("crates/harness/src/bin/replay.rs", "fn fleet_per_sample() {}\n"),
    },
    Rule {
        name: "no environment read",
        scope: WORKSPACE_RS,
        part: Part::Whole,
        pattern: Pattern::Line(&["env::var"]),
        want: Want::Count(0),
        retired: "4958ae3: the eleven MLPERF_* variables went; a knob is a flag or nothing",
        plant: ("src/lib.rs", "fn knob() { std::env::var(\"MLPERF_X\"); }\n"),
    },
    Rule {
        name: "no stored bench baseline",
        scope: &["BENCH_*.json"],
        part: Part::Whole,
        pattern: Pattern::File,
        want: Want::Count(0),
        retired: "4958ae3: BENCH_PR10.json went; no timing is compared with a stored number",
        plant: ("BENCH_PR10.json", ""),
    },
    Rule {
        name: "one protocol version",
        scope: WORKSPACE_RS,
        part: Part::Whole,
        pattern: Pattern::Word(&[
            "MIN_PROTOCOL_VERSION",
            "with_protocol",
            "negotiated_version",
            "Message::Issue",
            "Message::Heartbeat",
        ]),
        want: Want::Count(0),
        retired: "71774e0: the wire speaks v3 only; these names existed because two versions did",
        plant: ("crates/wire/src/message.rs", "const V: u16 = MIN_PROTOCOL_VERSION;\n"),
    },
    Rule {
        name: "no unwrapped lock",
        scope: &[
            "crates/wire/src/**/*.rs",
            "crates/sut/src/**/*.rs",
            "crates/core/src/**/*.rs",
            "crates/trace/src/**/*.rs",
        ],
        part: Part::NonTest,
        pattern: Pattern::Squeezed(&[".lock().expect(", ".lock().unwrap()"]),
        want: Want::Count(0),
        retired: "71774e0: mlperf_trace::sync takes a poisoned mutex anyway; no poisoned lock kills a daemon",
        plant: ("crates/trace/src/sync.rs", "fn f(m: &Mutex<u8>) { m.lock()\n    .unwrap(); }\n"),
    },
    Rule {
        name: "no fleet option nobody selects",
        scope: WORKSPACE_RS,
        part: Part::Whole,
        pattern: Pattern::Word(&[
            "LeastOutstanding",
            "LatencyEwma",
            "ShardConfig",
            "health_of",
            "shed_threshold",
            "corrupt_recv_prob",
        ]),
        want: Want::Count(0),
        retired: "f128749: two balance policies, health tuning as constants, no shedding or recv corruption",
        plant: ("crates/sut/src/shard.rs", "pub struct ShardConfig;\n"),
    },
    Rule {
        name: "no netbench fleet mode",
        scope: &["crates/harness/src/bin/netbench.rs"],
        part: Part::Whole,
        pattern: Pattern::Line(&["--shards"]),
        want: Want::Count(0),
        retired: "f128749: one shard-kill experiment, chaos --wire's row",
        plant: ("crates/harness/src/bin/netbench.rs", "const FLAG: &str = \"--shards\";\n"),
    },
    Rule {
        name: "one chaos matrix",
        scope: &["crates/harness/src/bin/chaos.rs"],
        part: Part::Whole,
        pattern: Pattern::Line(&[
            "WireCell",
            "ShardCell",
            "CrashCell",
            "check_wire",
            "check_shard",
            "check_crash",
            "render_wire_table",
            "render_shard_table",
            "render_crash_table",
        ]),
        want: Want::Count(0),
        retired: "40416a0: one Cell and one ROWS table, not a cell type, table and check per quadrant",
        plant: ("crates/harness/src/bin/chaos.rs", "struct WireCell;\n"),
    },
    Rule {
        name: "no --analyze flag",
        scope: &["crates/harness/src/bin/*.rs"],
        part: Part::Whole,
        pattern: Pattern::Line(&["--analyze"]),
        want: Want::Count(0),
        retired: "40416a0: a flight dump always carries its analysis",
        plant: ("crates/harness/src/bin/paper.rs", "const FLAG: &str = \"--analyze\";\n"),
    },
    Rule {
        name: "one paper binary",
        scope: &[
            "crates/harness/src/bin/table*.rs",
            "crates/harness/src/bin/fig*.rs",
            "crates/harness/src/bin/quality.rs",
            "crates/harness/src/bin/audits.rs",
            "crates/harness/src/bin/ablations.rs",
        ],
        part: Part::Whole,
        pattern: Pattern::File,
        want: Want::Count(0),
        retired: "paper: one ARTIFACTS row per results/<name>.txt, and `paper all --check` pins them all",
        plant: ("crates/harness/src/bin/table1.rs", "fn main() {}\n"),
    },
    Rule {
        name: "no round cache",
        scope: WORKSPACE_RS,
        part: Part::Whole,
        pattern: Pattern::Line(&["load_or_generate", "round-paper"]),
        want: Want::Count(0),
        retired: "paper: the round is generated once per process; a cache nothing invalidated answered from stale records",
        plant: ("crates/harness/src/bin/paper.rs", "const CACHE: &str = \"results/round-paper.json\";\n"),
    },
    Rule {
        name: "one unsafe",
        scope: PRODUCTION_RS,
        part: Part::Code,
        pattern: Pattern::Word(&["unsafe"]),
        want: Want::OnceIn("crates/trace/src/crc.rs"),
        retired: "crc: the call into the carry-less-multiply kernel, right after its features are detected; every other line is checked by the compiler",
        plant: ("crates/wire/src/frame.rs", "fn raw() { unsafe {} }\n"),
    },
    Rule {
        name: "no dead-code allowance",
        scope: PRODUCTION_RS,
        part: Part::Code,
        pattern: Pattern::Line(&["allow(dead_code)", "expect(dead_code)", "allow(unused"]),
        want: Want::Count(0),
        retired: "narrowing: what no other crate names is pub(crate), so `dead_code` sees it; an allowance would hide it again one item at a time",
        plant: ("crates/wire/src/frame.rs", "#[allow(dead_code)]\nfn unread() {}\n"),
    },
    Rule {
        name: "one unsafe allowance",
        scope: PRODUCTION_RS,
        part: Part::Code,
        pattern: Pattern::Line(&["allow(unsafe_code)"]),
        want: Want::OnceIn("crates/trace/src/crc.rs"),
        retired: "crc: the dispatch into the kernel is the one item excused from `deny(unsafe_code)`; the other roots forbid it",
        plant: ("crates/wire/src/frame.rs", "#[allow(unsafe_code)] fn raw() {}\n"),
    },
    Rule {
        name: "every trace event has a producer",
        scope: &[
            "crates/*/src/**/*.rs",
            "src/**/*.rs",
            "perfbench/src/**/*.rs",
            "!crates/analysis/**",
            "!crates/trace/src/event.rs",
            "!crates/trace/src/chrome.rs",
        ],
        part: Part::Code,
        pattern: Pattern::Unnamed {
            enum_name: "TraceEvent",
            declared_in: "crates/trace/src/event.rs",
        },
        want: Want::Count(0),
        retired: "trace: `QueryScheduled` never had a producer, and once the fault decorators lost their hooks `FaultInjected` and `RecoveryAction` were only matched by the analyzer; the codec, the golden lines and the analyzer kept all three",
        plant: (
            "crates/trace/src/event.rs",
            "        OnlyTested(\"only_tested\") {\n            query_id: u64,\n        },\n",
        ),
    },
    Rule {
        name: "every declared flag has a runner",
        scope: &["crates/harness/src/bin/*.rs"],
        part: Part::NonTest,
        pattern: Pattern::Unrun,
        want: Want::Count(0),
        retired: "cli: each binary's command line is one declaration; `trace summary` and `analyze --merged` went, and tests/modes.rs runs the modes no ci.sh stage did",
        plant: (
            "crates/harness/src/bin/netbench.rs",
            "const UNRUN: Flag = Flag::switch(\"--census-planted\");\n",
        ),
    },
    Rule {
        name: "one command-line reader",
        scope: &["crates/**/*.rs"],
        part: Part::Code,
        pattern: Pattern::Line(&["env::args"]),
        want: Want::Files(&["crates/harness/src/cli.rs"]),
        retired: "cli: six binaries each read std::env::args and hand-rolled a loop, a usage string and their own error words",
        plant: (
            "crates/harness/src/bin/paper.rs",
            "fn argv() -> Vec<String> { std::env::args().collect() }\n",
        ),
    },
    Rule {
        name: "one windowed view",
        scope: PRODUCTION_RS,
        part: Part::NonTest,
        pattern: Pattern::Word(&[
            "TimeSeriesSampler",
            "TimeSeriesRow",
            "with_sampler",
            "delta_since",
        ]),
        want: Want::Count(0),
        retired: "07bcd04: a run's time series is the analyzer's heatmap rows, derived from the detail log on every clock; the sampler polled the registry from the simulated event loop only",
        plant: ("crates/core/src/instrument.rs", "fn with_sampler() {}\n"),
    },
    Rule {
        name: "one byte layout",
        scope: &["crates/*/src/**/*.rs", "!crates/trace/src/bytes.rs"],
        part: Part::Code,
        pattern: Pattern::Squeezed(&[
            ".put_u8(", ".put_u16(", ".put_u32(", ".put_u64(", ".put_f32(", ".put_f64(",
            ".put_bool(", ".put_str(", ".put_bytes(", ".put_list(",
            ".get_u8(", ".get_u16(", ".get_u32(", ".get_u64(", ".get_f32(", ".get_f64(",
            ".get_bool(", ".get_str(", ".get_bytes(", ".get_list(",
        ]),
        want: Want::CountIn(4, "crates/replay/src/trace.rs"),
        retired: "byte_layout!: every binary record (wire messages, run-journal payloads, MLPR) is declared once and both codec halves are generated from it; the hand-written put_*/get_* halves went. The four left are MLPR's framing: magic, version and CRC trailer written, version read",
        plant: ("crates/wire/src/message.rs", "fn twice(w: &mut ByteWriter) { w.put_u64(1); }\n"),
    },
    Rule {
        name: "one query stream per run",
        scope: &["crates/**/*.rs"],
        part: Part::Whole,
        pattern: Pattern::Word(&[
            "multitenant",
            "run_multitenant_server",
            "with_tenant_workload",
            "tenant_of",
            "--tenants",
        ]),
        want: Want::Count(0),
        retired: "one stream: des::Sim drives one lane and a query's id is its ordinal; the multitenancy extension (a lane and a tenant byte per stream, a workload per tenant in DeviceSut) served only `trace run --tenants`, and the paper's v0.5 LoadGen has no such mode",
        plant: (
            "crates/harness/src/bin/trace.rs",
            "const TENANTS: Flag = Flag::value(\"--tenants\", \"<n>\");\n",
        ),
    },
];

/// One match: `(path, 1-based line or 0, what matched)`.
type Hit = (String, usize, String);

fn rule_hits(rule: &Rule, tree: &Tree) -> Vec<Hit> {
    let mut hits = Vec::new();
    let mut named = BTreeSet::new();
    for (path, text) in tree.iter().filter(|(p, _)| in_scope(rule.scope, p)) {
        let code;
        let text = match rule.part {
            Part::Whole => text.as_str(),
            Part::NonTest => non_test(text),
            Part::Code => {
                code = strip(non_test(text));
                code.as_str()
            }
        };
        let lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        match rule.pattern {
            Pattern::Line(needles) | Pattern::Word(needles)
                if !needles.iter().any(|n| text.contains(n)) => {}
            Pattern::Line(needles) => hits.extend(
                lines
                    .filter(|(_, l)| needles.iter().any(|n| l.contains(n)))
                    .map(|(i, l)| (path.clone(), i, l.trim().to_string())),
            ),
            Pattern::Word(needles) => hits.extend(
                lines
                    .filter(|(_, l)| needles.iter().any(|n| contains_word(l, n)))
                    .map(|(i, l)| (path.clone(), i, l.trim().to_string())),
            ),
            Pattern::Squeezed(needles) => {
                let squeezed: String = text.chars().filter(|c| !c.is_whitespace()).collect();
                for needle in needles {
                    let n = squeezed.matches(needle).count();
                    hits.extend((0..n).map(|_| (path.clone(), 0, needle.to_string())));
                }
            }
            Pattern::PubFn(prefixes) => {
                for (i, line) in lines {
                    let Some(rest) = line.strip_prefix("pub fn ") else {
                        continue;
                    };
                    if prefixes.iter().any(|p| rest.starts_with(p)) {
                        let name = rest.split(|c: char| !is_ident(c)).next().unwrap_or("");
                        hits.push((path.clone(), i, name.to_string()));
                    }
                }
            }
            Pattern::File => hits.push((path.clone(), 0, path.clone())),
            Pattern::Unrun => hits.extend(unrun(tree, path, text)),
            Pattern::Unnamed { enum_name, .. } => {
                for (at, _) in text.match_indices(enum_name) {
                    let path_of = text[at + enum_name.len()..].strip_prefix("::");
                    if let (Some(rest), false) = (path_of, text[..at].ends_with(is_ident)) {
                        let variant = rest.split(|c: char| !is_ident(c)).next();
                        named.insert(variant.unwrap_or("").to_string());
                    }
                }
                for (at, _) in text.match_indices('{') {
                    let head = text[..at].trim_end();
                    let name = &head[head.trim_end_matches(is_ident).len()..];
                    if name.starts_with(|c: char| c.is_ascii_uppercase()) {
                        named.insert(name.to_string());
                    }
                }
            }
        }
    }
    if let Pattern::Unnamed {
        enum_name,
        declared_in,
    } = rule.pattern
    {
        let declared = declared_variants(tree, declared_in);
        if declared.is_empty() {
            let what = format!("no `{enum_name}` declaration found");
            hits.push((declared_in.to_string(), 0, what));
        }
        hits.extend(
            declared
                .into_iter()
                .filter(|(_, variant)| !named.contains(variant))
                .map(|(line, variant)| (declared_in.to_string(), line, variant)),
        );
    }
    hits
}

/// `(1-based line, name)` of each variant the declaration in `path`
/// lists: a line of its code that reads `Name(...) {`, where the label in
/// the parentheses is a string literal, blanked with the others.
fn declared_variants(tree: &Tree, path: &str) -> Vec<(usize, String)> {
    let Some((_, text)) = tree.iter().find(|(p, _)| p == path) else {
        return Vec::new();
    };
    strip(non_test(text))
        .lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let (name, rest) = line.trim().split_once('(')?;
            let (label, open) = rest.split_once(')')?;
            let declares = name.starts_with(|c: char| c.is_ascii_uppercase())
                && name.chars().all(is_ident)
                && label.trim().is_empty()
                && open.trim() == "{";
            declares.then(|| (i + 1, name.to_string()))
        })
        .collect()
}

/// The calls that declare a flag.
const FLAG_CALLS: &[&str] = &["Flag::switch(", "Flag::value("];

/// The flags and subcommands the binary declared in `path` lists (its
/// non-test `text`) that nothing runs, as hits; see [`Pattern::Unrun`].
fn unrun(tree: &Tree, path: &str, text: &str) -> Vec<Hit> {
    let binary = path
        .rsplit('/')
        .next()
        .unwrap_or("")
        .trim_end_matches(".rs");
    let file = |p: &str| tree.iter().find(|(q, _)| q == p).map_or("", |(_, t)| t);
    let shared: Vec<(String, String)> = file("crates/harness/src/cli.rs")
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("pub const ")?;
            let (name, flag) = rest.split_once(": Flag = ")?;
            Some((
                format!("cli::{name}"),
                literals_after(flag, FLAG_CALLS).pop()?,
            ))
        })
        .collect();
    let mut declared: Vec<String> = literals_after(text, FLAG_CALLS);
    declared.extend(
        shared
            .iter()
            .filter(|(name, _)| contains_word(text, name))
            .map(|(_, flag)| flag.clone()),
    );
    let commands = literals_after(text, &["Command::new("]);
    declared.extend(
        commands
            .iter()
            .filter_map(|c| c.split_once(' ').map(|(_, sub)| sub.to_string())),
    );
    let mut run: BTreeSet<&str> = BTreeSet::new();
    for line in file("ci.sh")
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
    {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let Some(at) = words.windows(2).position(|w| w == ["--bin", binary]) {
            run.extend(&words[at + 2..]);
        }
    }
    let exe = format!("CARGO_BIN_EXE_{binary}");
    let tests: Vec<&str> = tree
        .iter()
        .filter(|(p, t)| p.starts_with("crates/harness/tests/") && t.contains(&exe))
        .map(|(_, t)| t.as_str())
        .collect();
    let is_run = |literal: &str| {
        let quoted = format!("\"{literal}\"");
        run.contains(literal) || tests.iter().any(|t| t.contains(&quoted))
    };
    let mut hits: Vec<Hit> = declared
        .into_iter()
        .collect::<BTreeSet<String>>()
        .into_iter()
        .filter(|literal| !is_run(literal))
        .map(|literal| {
            (
                path.to_string(),
                0,
                format!("{binary} {literal} has no runner"),
            )
        })
        .collect();
    if commands.is_empty() {
        hits.push((path.to_string(), 0, format!("{binary} declares no command")));
    }
    hits
}

/// The string literal that follows each occurrence of a needle, past any
/// whitespace: `Flag::value(\n "--x"` gives `--x`.
fn literals_after(text: &str, needles: &[&str]) -> Vec<String> {
    let mut found = Vec::new();
    for needle in needles {
        for (at, _) in text.match_indices(needle) {
            let rest = text[at + needle.len()..].trim_start();
            if let Some((literal, _)) = rest.strip_prefix('"').and_then(|r| r.split_once('"')) {
                found.push(literal.to_string());
            }
        }
    }
    found
}

/// `Ok` when the tree holds the rule, else what it found.
fn check_rule(rule: &Rule, tree: &Tree) -> Result<(), String> {
    let hits = rule_hits(rule, tree);
    let held = match rule.want {
        Want::Count(n) => hits.len() == n,
        Want::Files(files) => {
            let found: BTreeSet<&str> = hits.iter().map(|h| h.0.as_str()).collect();
            found == files.iter().copied().collect::<BTreeSet<&str>>()
        }
        Want::Names(names) => {
            let mut found: Vec<&str> = hits.iter().map(|h| h.2.as_str()).collect();
            found.sort_unstable();
            let mut wanted = names.to_vec();
            wanted.sort_unstable();
            found == wanted
        }
        Want::OnceIn(file) => hits.len() == 1 && hits[0].0 == file,
        Want::CountIn(n, file) => hits.len() == n && hits.iter().all(|h| h.0 == file),
    };
    if held {
        return Ok(());
    }
    let mut msg = format!(
        "census rule `{}` ({}): wanted {:?}, found {} hit(s):",
        rule.name,
        rule.retired,
        rule.want,
        hits.len()
    );
    for (path, line, what) in &hits {
        let _ = write!(msg, "\n  {path}:{line}: {what}");
    }
    Err(msg)
}

// ---------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------

/// A `pub` item of the non-test part of `crates/*/src`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Item {
    path: String,
    kind: &'static str,
    /// `Type::method` for an inherent method, else the item's name.
    name: String,
    /// What other crates see of it: a fn's signature (with its inherent
    /// impl's header), a struct's header and `pub` fields, the whole of an
    /// enum or trait, the line of a type, const or static.
    interface: String,
}

impl Item {
    fn ident(&self) -> &str {
        self.name.rsplit("::").next().unwrap_or(&self.name)
    }

    fn key(&self) -> String {
        format!("{} {} {}", self.path, self.kind, self.name)
    }
}

/// Occurrences of the item names in one class of code, less the places a
/// name is defined: `fn name`, `struct name`, …, and the self type of an
/// `impl` header (implementing a type is not using it).
struct Refs(HashMap<String, usize>);

impl Refs {
    fn new(items: &[Item]) -> Self {
        Refs(items.iter().map(|i| (i.ident().to_string(), 0)).collect())
    }

    /// Counts stripped `code`. A `use` statement is skipped: an imported
    /// name counts where it is used, and a re-export is not a caller.
    fn add(&mut self, code: &str) {
        let tokens = idents(code);
        let mut defs = Vec::new();
        let mut skip_to = 0;
        for (i, &(at, tok)) in tokens.iter().enumerate() {
            if at < skip_to {
                continue;
            }
            match tok {
                "use"
                    if matches!(
                        line_before(code, at),
                        "" | "pub" | "pub(crate)" | "pub(super)"
                    ) =>
                {
                    skip_to = code[at..].find(';').map_or(code.len(), |end| at + end);
                    continue;
                }
                "impl" if line_before(code, at).is_empty() => {
                    let end = code[at..].find('\n').map_or(code.len(), |end| at + end);
                    defs.push(impl_type(&code[at..end]).0);
                }
                "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod" => {
                    // `fn name`, not the pointer type `fn(Item)`.
                    if let Some(&(next, name)) = tokens.get(i + 1) {
                        let gap = &code[at + tok.len()..next];
                        if !gap.is_empty() && gap.trim().is_empty() {
                            defs.push(name);
                        }
                    }
                }
                _ => {}
            }
            if let Some(n) = self.0.get_mut(tok) {
                *n += 1;
            }
        }
        for name in defs {
            if let Some(n) = self.0.get_mut(name) {
                *n = n.saturating_sub(1);
            }
        }
    }

    fn count(&self, ident: &str) -> usize {
        self.0.get(ident).copied().unwrap_or(0)
    }
}

struct Surface {
    items: Vec<Item>,
    production: Refs,
    tests: Refs,
    /// Every reference from each crate's library, keyed by crate
    /// directory name, test modules included.
    libraries: BTreeMap<String, Refs>,
    /// Every reference from outside the crates' libraries.
    outside: Refs,
}

impl Surface {
    /// References to an item's name from outside its own crate's library.
    fn cross_crate(&self, item: &Item) -> usize {
        let own = library(&item.path);
        let libraries: usize = self
            .libraries
            .iter()
            .filter(|(krate, _)| Some(krate.as_str()) != own)
            .map(|(_, refs)| refs.count(item.ident()))
            .sum();
        libraries + self.outside.count(item.ident())
    }
}

fn is_item_source(path: &str) -> bool {
    glob("crates/*/src/**/*.rs", path)
}

/// The crate whose library `path` is part of: `X` for `crates/X/src/**`,
/// except `src/bin/`, whose binaries are crates of their own.
fn library(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    (rest.starts_with("src/") && !rest.starts_with("src/bin/")).then_some(krate)
}

fn is_production(path: &str) -> bool {
    is_item_source(path)
        || ["src/**/*.rs", "examples/**/*.rs", "perfbench/src/**/*.rs"]
            .iter()
            .any(|g| glob(g, path))
}

fn surface(tree: &Tree) -> Surface {
    let mut items_found = Vec::new();
    let mut production = Vec::new();
    let mut tests = Vec::new();
    // (library crate or None, stripped text) of every file.
    let mut files = Vec::new();
    for (path, text) in tree.iter().filter(|(p, _)| p.ends_with(".rs")) {
        if is_production(path) {
            let code = non_test(text);
            let stripped = strip(code);
            if is_item_source(path) {
                items_found.extend(items(path, &stripped));
            }
            let test_part = strip(&text[code.len()..]);
            files.push((library(path), format!("{stripped}{test_part}")));
            production.push(stripped);
            tests.push(test_part);
        } else {
            tests.push(strip(text));
            files.push((library(path), strip(text)));
        }
    }
    items_found.sort();
    items_found.dedup();
    let mut s = Surface {
        production: Refs::new(&items_found),
        tests: Refs::new(&items_found),
        libraries: BTreeMap::new(),
        outside: Refs::new(&items_found),
        items: items_found,
    };
    production.iter().for_each(|code| s.production.add(code));
    tests.iter().for_each(|code| s.tests.add(code));
    for (krate, code) in &files {
        match krate {
            Some(krate) => s
                .libraries
                .entry(krate.to_string())
                .or_insert_with(|| Refs::new(&s.items))
                .add(code),
            None => s.outside.add(code),
        }
    }
    s
}

/// The text of `at`'s line before it, trimmed.
fn line_before(code: &str, at: usize) -> &str {
    let start = code[..at].rfind('\n').map_or(0, |nl| nl + 1);
    code[start..at].trim()
}

fn impl_header(line: &str) -> Option<&str> {
    let trimmed = line.trim_start();
    (trimmed.starts_with("impl ") || trimmed.starts_with("impl<")).then_some(trimmed)
}

/// The `pub` items declared in stripped source, methods named by their
/// inherent impl's type.
fn items(path: &str, stripped: &str) -> Vec<Item> {
    let mut found = Vec::new();
    let mut depth = 0usize;
    // (inherent self type, its header, depth at the header, body entered)
    let mut imp: Option<(Option<&str>, &str, usize, bool)> = None;
    // (self type, line) of each associated type a trait impl declares.
    let mut assoc = Vec::new();
    let lines: Vec<&str> = stripped.lines().collect();
    for (at, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if let Some(header) = impl_header(line) {
            let (ty, of_trait) = impl_type(header);
            imp = Some(((!of_trait).then_some(ty), header, depth, false));
            if of_trait {
                assoc.push((ty, String::new()));
            }
        }
        if let (Some((None, _, d, true)), Some(last)) = (imp, assoc.last_mut()) {
            if depth == d + 1 && trimmed.starts_with("type ") {
                last.1.push_str(line);
            }
        }
        if let Some((kind, name)) = pub_item(trimmed) {
            let (name, header) = match imp {
                Some((Some(ty), header, d, true)) if depth == d + 1 => {
                    (format!("{ty}::{name}"), header)
                }
                _ => (name.to_string(), ""),
            };
            found.push(Item {
                path: path.to_string(),
                kind,
                name,
                interface: format!("{header}\n{}", interface(kind, &lines[at..])),
            });
        }
        for &c in line.as_bytes() {
            match c {
                b'{' => depth += 1,
                b'}' => depth = depth.saturating_sub(1),
                _ => continue,
            }
            if let Some((_, _, d, entered)) = &mut imp {
                *entered |= depth > *d;
            }
        }
        if matches!(&imp, Some((_, _, d, true)) if depth <= *d) {
            imp = None;
        }
    }
    // A trait impl's associated types are part of its self type's
    // interface (rustc refuses a crate-private one there: E0446).
    for (ty, types) in assoc {
        for item in found.iter_mut().filter(|i| i.kind != "fn" && i.name == ty) {
            item.interface.push_str(&types);
        }
    }
    found
}

/// The [`Item::interface`] of the item declared on `lines[0]`.
fn interface(kind: &str, lines: &[&str]) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for (i, line) in lines.iter().enumerate() {
        if kind == "fn" {
            let end = line.find(['{', ';']);
            out.push_str(&line[..end.unwrap_or(line.len())]);
            out.push('\n');
            if end.is_some() {
                break;
            }
            continue;
        }
        if i == 0 || kind != "struct" || line.trim_start().starts_with("pub ") {
            out.push_str(line);
            out.push('\n');
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if depth == 0 && (line.contains('}') || line.trim_end().ends_with(';')) {
            break;
        }
    }
    out
}

/// `(kind, name)` of a line that declares a `pub` item.
fn pub_item(trimmed: &str) -> Option<(&'static str, &str)> {
    let mut words = trimmed
        .strip_prefix("pub ")?
        .split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .skip_while(|w| matches!(*w, "async" | "unsafe" | "extern"));
    let mut kind = words.next()?;
    let mut name = words.next()?;
    if kind == "const" && name == "fn" {
        kind = "fn";
        name = words.next()?;
    } else if kind == "static" && name == "mut" {
        name = words.next()?;
    }
    let kind = match kind {
        "fn" => "fn",
        "struct" => "struct",
        "enum" => "enum",
        "trait" => "trait",
        "type" => "type",
        "const" => "const",
        "static" => "static",
        _ => return None,
    };
    Some((kind, name))
}

/// The self type of an impl header, and whether it implements a trait.
fn impl_type(header: &str) -> (&str, bool) {
    let mut rest = header["impl".len()..].trim_start();
    if rest.starts_with('<') {
        let mut open = 0usize;
        let mut prev = ' ';
        for (i, c) in rest.char_indices() {
            match c {
                '<' => open += 1,
                '>' if prev != '-' => {
                    open -= 1;
                    if open == 0 {
                        rest = rest[i + 1..].trim_start();
                        break;
                    }
                }
                _ => {}
            }
            prev = c;
        }
    }
    let of_trait = rest
        .find(" for ")
        .map(|at| rest = &rest[at + " for ".len()..]);
    let rest = rest.trim_start_matches("dyn ");
    let end = rest
        .find(|c: char| !is_ident(c) && c != ':')
        .unwrap_or(rest.len());
    let ty = rest[..end].rsplit("::").next().unwrap_or("");
    (ty, of_trait.is_some())
}

const SURFACE_HEADER: &str = "\
# Public items of crates/*/src that no production code names, and why
# each stays. Production is the non-test part of crates/*/src, src/,
# examples/ and perfbench/src. tests/census.rs checks this list against
# the tree: an unlisted item fails, and so does a listed one that gained
# a caller or no longer exists. Format: `<path> <kind> <name>: <reason>`.
";

/// The fresh rendering of the list, reasons carried over from `listed`,
/// and every way `listed` disagrees with the tree.
fn surface_report(s: &Surface, listed: &str) -> (String, Vec<String>) {
    let mut reasons: BTreeMap<&str, &str> = BTreeMap::new();
    for line in listed
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (key, reason) = line
            .split_once(": ")
            .unwrap_or((line.trim_end_matches(':'), ""));
        reasons.insert(key, reason.trim());
    }
    let mut problems = Vec::new();
    let mut fresh = SURFACE_HEADER.to_string();
    let mut zero_keys = BTreeSet::new();
    for item in s
        .items
        .iter()
        .filter(|i| s.production.count(i.ident()) == 0)
    {
        let key = item.key();
        let listed = reasons.get(key.as_str()).copied();
        let reason = listed.unwrap_or("");
        match listed {
            None => problems.push(format!(
                "unlisted: {key} has no production reference ({} from tests)",
                s.tests.count(item.ident())
            )),
            Some("") => problems.push(format!("no reason given: {key}")),
            Some(_) => {}
        }
        let sep = if reason.is_empty() { ":" } else { ": " };
        let _ = writeln!(fresh, "{key}{sep}{reason}");
        zero_keys.insert(key);
    }
    for key in reasons.keys().filter(|k| !zero_keys.contains(**k)) {
        match s.items.iter().find(|i| i.key() == *key) {
            Some(item) => problems.push(format!(
                "stale: {key} now has {} production reference(s)",
                s.production.count(item.ident())
            )),
            None => problems.push(format!("stale: {key} no longer exists")),
        }
    }
    (fresh, problems)
}

/// Every `pub` item that nothing outside its crate's library names, and
/// that no such item's interface names either: each should be
/// `pub(crate)` or private. A type that only a named item's signature or
/// `pub` field mentions stays `pub`, as rustc's `private_interfaces` lint
/// asks.
fn crate_local(s: &Surface) -> Vec<String> {
    let mut reached: Vec<bool> = s.items.iter().map(|i| s.cross_crate(i) > 0).collect();
    let mut frontier: Vec<usize> = (0..reached.len()).filter(|&i| reached[i]).collect();
    while let Some(from) = frontier.pop() {
        let from = &s.items[from];
        for (_, tok) in idents(&from.interface) {
            for (j, to) in s.items.iter().enumerate() {
                if !reached[j]
                    && to.kind != "fn"
                    && to.ident() == tok
                    && library(&to.path) == library(&from.path)
                {
                    reached[j] = true;
                    frontier.push(j);
                }
            }
        }
    }
    s.items
        .iter()
        .zip(reached)
        .filter(|(_, reached)| !reached)
        .map(|(i, _)| {
            format!(
                "crate-local: {} is named only inside its own crate",
                i.key()
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Source text
// ---------------------------------------------------------------------

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The lines before the first `#[cfg(test)]`.
fn non_test(text: &str) -> &str {
    let mut end = 0;
    for line in text.split_inclusive('\n') {
        if line.contains("#[cfg(test)]") {
            break;
        }
        end += line.len();
    }
    &text[..end]
}

fn contains_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// Identifier tokens with their byte offsets, in order; lifetimes
/// (`'static`) are not identifiers.
fn idents(text: &str) -> Vec<(usize, &str)> {
    let b = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !is_ident(b[i] as char) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident(b[i] as char) {
            i += 1;
        }
        let lifetime = start > 0 && b[start - 1] == b'\'';
        if !lifetime && !b[start].is_ascii_digit() {
            tokens.push((start, &text[start..i]));
        }
    }
    tokens
}

/// Source with comments and string and char literals blanked to spaces;
/// newlines are kept, so lines still line up.
fn strip(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for c in &mut out[from..to.min(b.len())] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        let next = b.get(i + 1).copied();
        let start = i;
        match b[i] {
            b'/' if next == Some(b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if next == Some(b'*') => {
                let mut open = 0;
                while i < b.len() {
                    if b[i..].starts_with(b"/*") {
                        open += 1;
                        i += 2;
                    } else if b[i..].starts_with(b"*/") {
                        open -= 1;
                        i += 2;
                        if open == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' if (next == Some(b'"') || next == Some(b'#'))
                && (i == 0 || !is_ident(b[i - 1] as char) || b[i - 1] == b'b') =>
            {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                if b.get(i + 1 + hashes) != Some(&b'"') {
                    i += 1;
                    continue;
                }
                let close: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                i += 2 + hashes;
                while i < b.len() && !b[i..].starts_with(&close) {
                    i += 1;
                }
                i += close.len();
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'\'' => {
                // A char literal, or a lifetime (left as it is).
                let len = match next {
                    Some(b'\\') => b[i + 3..].iter().position(|&c| c == b'\'').map(|p| p + 4),
                    Some(_) => {
                        let width = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                        (b.get(i + 1 + width) == Some(&b'\'')).then_some(width + 2)
                    }
                    None => None,
                };
                i += len.unwrap_or(1);
                if len.is_none() {
                    continue;
                }
            }
            _ => {
                i += 1;
                continue;
            }
        }
        blank(&mut out, start, i);
    }
    String::from_utf8(out).expect("blanking keeps UTF-8")
}

/// Whether a path matches a glob: `*` within one segment, `**` any
/// number of segments.
fn glob(pattern: &str, path: &str) -> bool {
    fn segment(p: &str, s: &str) -> bool {
        match p.split_once('*') {
            None => p == s,
            Some((pre, post)) => {
                s.len() >= pre.len() + post.len() && s.starts_with(pre) && s.ends_with(post)
            }
        }
    }
    fn segments(p: &[&str], s: &[&str]) -> bool {
        match (p.first(), s.first()) {
            (None, None) => true,
            (Some(&"**"), _) => segments(&p[1..], s) || (!s.is_empty() && segments(p, &s[1..])),
            (Some(pp), Some(ss)) => segment(pp, ss) && segments(&p[1..], &s[1..]),
            _ => false,
        }
    }
    let p: Vec<&str> = pattern.split('/').collect();
    let s: Vec<&str> = path.split('/').collect();
    segments(&p, &s)
}

fn in_scope(scope: &[&str], path: &str) -> bool {
    let (excluded, included): (Vec<&str>, Vec<&str>) =
        scope.iter().copied().partition(|g| g.starts_with('!'));
    included.iter().any(|g| glob(g, path)) && !excluded.iter().any(|g| glob(&g[1..], path))
}

// ---------------------------------------------------------------------
// The tree on disk
// ---------------------------------------------------------------------

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let mut tree = Tree::new();
        for dir in SCANNED_DIRS {
            walk(&root().join(dir), dir, &mut tree);
        }
        for entry in std::fs::read_dir(root()).expect("the checkout is readable") {
            let entry = entry.expect("a root entry");
            if entry.file_type().expect("a file type").is_file() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let text = match name.as_str() {
                    "ci.sh" => std::fs::read_to_string(entry.path()).expect("ci.sh is UTF-8"),
                    _ => String::new(),
                };
                tree.push((name, text));
            }
        }
        tree.retain(|(path, _)| path != SELF);
        tree.sort();
        tree
    })
}

fn walk(dir: &Path, rel: &str, tree: &mut Tree) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let entry = entry.expect("a directory entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = format!("{rel}/{name}");
        let kind = entry.file_type().expect("a file type");
        if kind.is_dir() && name != "target" {
            walk(&entry.path(), &rel, tree);
        } else if kind.is_file() && name.ends_with(".rs") {
            let text = std::fs::read_to_string(entry.path()).expect("source is UTF-8");
            tree.push((rel, text));
        }
    }
}

/// A copy of the tree with `text` prepended to `path` (a new file if
/// there is none).
fn planted(tree: &Tree, (path, text): (&str, &str)) -> Tree {
    let mut copy = tree.clone();
    match copy.iter_mut().find(|(p, _)| p == path) {
        Some((_, body)) => body.insert_str(0, text),
        None => copy.push((path.to_string(), text.to_string())),
    }
    copy
}

fn real_surface() -> &'static Surface {
    static SURFACE: OnceLock<Surface> = OnceLock::new();
    SURFACE.get_or_init(|| surface(tree()))
}

fn committed_list() -> String {
    std::fs::read_to_string(root().join(SURFACE_LIST)).unwrap_or_default()
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn the_tree_keeps_every_census_rule() {
    let failures: Vec<String> = RULES
        .iter()
        .filter_map(|rule| check_rule(rule, tree()).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_rule_fires_on_its_planted_violation() {
    for rule in RULES {
        assert!(
            check_rule(rule, &planted(tree(), rule.plant)).is_err(),
            "census rule `{}` did not fire on {:?}",
            rule.name,
            rule.plant
        );
    }
}

#[test]
fn every_public_item_has_a_production_caller_or_a_listed_reason() {
    let listed = committed_list();
    let (fresh, problems) = surface_report(real_surface(), &listed);
    if problems.is_empty() && fresh == listed {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("public_surface.txt");
    std::fs::write(&out, &fresh).expect("target/ is writable");
    panic!(
        "{SURFACE_LIST} disagrees with the tree:\n  {}\n\
         The fresh rendering (reasons carried over, new entries without one) is at\n  {}\n\
         Delete what is dead, give every entry left a reason, then:\n  cp {} {SURFACE_LIST}",
        problems.join("\n  "),
        out.display(),
        out.display()
    );
}

#[test]
fn the_surface_check_fails_on_an_unlisted_dead_item_and_on_a_stale_entry() {
    let listed = committed_list();
    let dead = planted(
        tree(),
        (
            "crates/core/src/run.rs",
            "pub fn census_planted_dead_item() {}\n",
        ),
    );
    let (_, problems) = surface_report(&surface(&dead), &listed);
    assert!(
        problems
            .iter()
            .any(|p| p.starts_with("unlisted: crates/core/src/run.rs fn census_planted_dead_item")),
        "{problems:?}"
    );

    let stale = format!("{listed}crates/core/src/run.rs fn Run::simulated: once dead\n");
    let (_, problems) = surface_report(real_surface(), &stale);
    assert!(
        problems
            .iter()
            .any(|p| p.starts_with("stale: crates/core/src/run.rs fn Run::simulated now has")),
        "{problems:?}"
    );
    let gone = format!("{listed}crates/core/src/run.rs fn census_gone: deleted\n");
    let (_, problems) = surface_report(real_surface(), &gone);
    assert!(
        problems
            .contains(&"stale: crates/core/src/run.rs fn census_gone no longer exists".to_string()),
        "{problems:?}"
    );
}

#[test]
fn every_public_item_is_named_outside_its_crate() {
    let local = crate_local(real_surface());
    assert!(
        local.is_empty(),
        "`pub` items that nothing outside their crate's library names:\n  {}\n\
         Make each pub(crate) (or private), then delete what dead_code reports.",
        local.join("\n  ")
    );
}

#[test]
fn the_cross_crate_column_fails_on_an_item_only_its_own_file_calls() {
    let plant = planted(
        tree(),
        (
            "crates/wire/src/frame.rs",
            "pub fn census_planted_local() {}\nfn caller() { census_planted_local(); }\n",
        ),
    );
    let s = surface(&plant);
    assert!(
        crate_local(&s)
            .iter()
            .any(|p| p.contains("crates/wire/src/frame.rs fn census_planted_local")),
        "{:?}",
        crate_local(&s)
    );
    // A production caller in its own file satisfies the surface list, so
    // only the cross-crate column catches it.
    let (_, problems) = surface_report(&s, &committed_list());
    assert!(!problems.iter().any(|p| p.contains("census_planted_local")));
}

#[test]
fn the_surface_scanner_reads_items_and_skips_comments_strings_and_imports() {
    let src = "\
//! `pub fn in_doc() {}`
use crate::a::{Used, Unused};
pub struct Used;
impl Used {
    pub fn method(&self) -> &'static str { \"pub fn in_string() {}\" }
    pub const fn konst() -> char { '\"' }
}
impl<T: Fn() -> u8> Trait for Wrapper<T> { fn not_pub() -> Used { Used } }
pub(crate) fn crate_only() {}
pub static mut COUNTER: u8 = 0;
/* pub enum InBlock { /* nested */ } */
pub enum Kind { A }
";
    let stripped = strip(src);
    assert_eq!(stripped.lines().count(), src.lines().count());
    let found: Vec<String> = items("crates/x/src/lib.rs", &stripped)
        .iter()
        .map(|i| format!("{} {}", i.kind, i.name))
        .collect();
    assert_eq!(
        found,
        [
            "struct Used",
            "fn Used::method",
            "fn Used::konst",
            "static COUNTER",
            "enum Kind"
        ]
    );
    let names = ["Used", "Unused", "Wrapper", "Trait", "in_string", "in_doc"];
    let mut refs = Refs(names.iter().map(|n| (n.to_string(), 0)).collect());
    refs.add(&stripped);
    let counts = names.map(|n| refs.count(n));
    // `Used`: the two in `not_pub`; its import, definition and impl
    // header are not references. Implementing `Trait` uses it.
    assert_eq!(counts, [2, 0, 0, 1, 0, 0]);
}
