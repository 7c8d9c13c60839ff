//! Literal pins of what the run engine produces.
//!
//! `tests/determinism.rs` and `properties.rs` compare a build with itself;
//! these hashes compare it with the build that blessed them. Each row is
//! one seeded run (or one kill-and-resume sweep) reduced to five
//! `fnv1a64` values: the full records (id, scheduled, issued, completed,
//! samples, skips, error), the accuracy log, `render_detail_log` of a
//! `RingBufferSink`, the metrics counters, and — for journaled rows — the
//! uninterrupted run's journal file. A refactor of the engine leaves every
//! literal alone; a deliberate behaviour change re-blesses the rows it
//! moves and says why (the failure prints each moved row as the literal
//! to paste).

use mlperf_loadgen::config::{TestMode, TestSettings};
use mlperf_loadgen::des::RunOutcome;
use mlperf_loadgen::journal::{load_run_journal, JournalConfig, JournaledRun};
use mlperf_loadgen::multitenant::run_multitenant_server;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::query::{Query, QueryCompletion, ResponsePayload, SampleCompletion};
use mlperf_loadgen::replay::ReplaySchedule;
use mlperf_loadgen::schedule::sample_indices;
use mlperf_loadgen::sut::{SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{Instruments, Run};
use mlperf_stats::rng::SeedTriple;
use mlperf_trace::crc::fnv1a64;
use mlperf_trace::{
    render_detail_log, FromJson, MetricsSnapshot, RingBufferSink, ToJson, TraceEvent, TraceSink,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The engine calls under pin, one function per axis combination.
mod engine {
    use super::*;

    pub fn plain(
        s: &TestSettings,
        qsl: &mut MemoryQsl,
        sut: &mut PinSut,
        sink: &dyn TraceSink,
    ) -> RunOutcome {
        let run = Run::simulated(s).sink(sink);
        run.run(qsl, sut).expect("plain run")
    }

    pub fn replay(
        s: &TestSettings,
        schedule: &ReplaySchedule,
        qsl: &mut MemoryQsl,
        sut: &mut PinSut,
        sink: &dyn TraceSink,
    ) -> RunOutcome {
        let run = Run::simulated(s).sink(sink).replay(schedule);
        run.run(qsl, sut).expect("replayed run")
    }

    pub fn journaled(
        s: &TestSettings,
        qsl: &mut MemoryQsl,
        sut: &mut PinSut,
        sink: &dyn TraceSink,
        cfg: &JournalConfig,
        resume: bool,
    ) -> JournaledRun {
        let run = Run::simulated(s).sink(sink);
        if resume {
            run.resume(cfg).run(qsl, sut).expect("resumed run")
        } else {
            run.journal(cfg).run(qsl, sut).expect("journaled run")
        }
    }

    pub fn multitenant(
        tenants: &mut [(&TestSettings, &mut MemoryQsl)],
        sut: &mut PinSut,
        sink: &dyn TraceSink,
    ) -> Vec<RunOutcome> {
        run_multitenant_server(tenants, sut, &Instruments::traced(sink)).expect("multitenant run")
    }
}

/// A serial device whose outcome is a function of the query alone (so a
/// resumed run re-derives it): service time varies with the sample
/// indices, every 11th query id errors, even ids complete from `on_query`
/// with a future stamp and odd ids are held back and released on a
/// wakeup — the future-completion, wakeup and error paths are all hashed.
struct PinSut {
    per_sample: Nanos,
    busy_until: Nanos,
    held: Vec<QueryCompletion>,
}

impl PinSut {
    fn new(per_sample: Nanos) -> Self {
        Self {
            per_sample,
            busy_until: Nanos::ZERO,
            held: Vec::new(),
        }
    }

    /// A resume re-issues outstanding queries back to back at their own
    /// scheduled times, so an earlier one may already be due: never ask
    /// for a wakeup in the past.
    fn next_wakeup(&self, now: Nanos) -> Option<Nanos> {
        let earliest = self.held.iter().map(|c| c.finished_at).min();
        earliest.map(|at| at.max(now))
    }
}

impl SimSut for PinSut {
    fn name(&self) -> &str {
        "pin-sut"
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        let jitter = query.samples.iter().map(|s| s.index as u64).sum::<u64>() % 7;
        let service = self.per_sample.mul(query.sample_count() as u64)
            + Nanos::from_nanos(self.per_sample.as_nanos() / 8).mul(jitter);
        let finish = now.max(self.busy_until) + service;
        self.busy_until = finish;
        let completion = if query.id % 11 == 10 {
            QueryCompletion::errored(query, finish)
        } else {
            let samples = query.samples.iter().map(|s| SampleCompletion {
                sample_id: s.id,
                payload: ResponsePayload::Class(s.index % 5),
            });
            QueryCompletion::ok(query.id, finish, samples.collect())
        };
        let mut reaction = SutReaction::none();
        if query.id.is_multiple_of(2) {
            reaction.completions.push(completion);
        } else {
            self.held.push(completion);
        }
        reaction.wakeup_at = self.next_wakeup(now);
        reaction
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        let (mut due, held): (Vec<_>, Vec<_>) = std::mem::take(&mut self.held)
            .into_iter()
            .partition(|c| c.finished_at <= now);
        self.held = held;
        due.iter_mut().for_each(|c| c.finished_at = now);
        SutReaction {
            completions: due,
            wakeup_at: self.next_wakeup(now),
        }
    }

    fn reset(&mut self) {
        self.busy_until = Nanos::ZERO;
        self.held.clear();
    }
}

/// One row's hashes: records, accuracy log, detail log, metrics counters,
/// journal file (0 where the row has no journal).
type Pin = [u64; 5];

/// Folds outcomes and detail logs into one row.
#[derive(Default)]
struct Fold {
    records: String,
    accuracy: String,
    detail: String,
    metrics: String,
    journal: Vec<u8>,
    /// Leave `AccuracyLogged` events out of the detail log.
    hide_accuracy_logged: bool,
}

impl Fold {
    fn outcome(&mut self, out: &RunOutcome) {
        for r in &out.records {
            writeln!(
                self.records,
                "{}|{}|{}|{:?}|{}|{}|{}",
                r.id,
                r.scheduled_at.as_nanos(),
                r.issued_at.as_nanos(),
                r.completed_at.map(|t| t.as_nanos()),
                r.sample_count,
                r.skipped_intervals,
                r.error
            )
            .unwrap();
        }
        self.records.push_str("--\n");
        for l in &out.accuracy_log {
            writeln!(
                self.accuracy,
                "{}|{}|{:?}",
                l.sample_id, l.sample_index, l.payload
            )
            .unwrap();
        }
        self.accuracy.push_str("--\n");
        // An unobserved run carries no registry; a traced run that lost
        // its own moves this column.
        for (name, value) in out.metrics.iter().flat_map(|m| &m.counters) {
            writeln!(self.metrics, "{name}={value}").unwrap();
        }
        self.metrics.push_str("--\n");
    }

    fn log(&mut self, sink: &RingBufferSink) {
        assert_eq!(sink.dropped(), 0);
        let mut records = sink.snapshot();
        if self.hide_accuracy_logged {
            records.retain(|r| !matches!(r.event, TraceEvent::AccuracyLogged { .. }));
        }
        self.detail.push_str(&render_detail_log(&records));
        self.detail.push_str("--\n");
    }

    fn pin(&self) -> Pin {
        [
            fnv1a64(self.records.as_bytes()),
            fnv1a64(self.accuracy.as_bytes()),
            fnv1a64(self.detail.as_bytes()),
            fnv1a64(self.metrics.as_bytes()),
            if self.journal.is_empty() {
                0
            } else {
                fnv1a64(&self.journal)
            },
        ]
    }
}

fn seeded(settings: TestSettings, seed: u64) -> TestSettings {
    settings
        .with_seeds(SeedTriple::from_master(seed))
        .with_accuracy_log_probability(0.25)
        .with_max_error_fraction(0.5)
}

fn server(seed: u64) -> TestSettings {
    seeded(TestSettings::server(2_000.0, Nanos::from_millis(10)), seed)
        .with_min_query_count(160)
        .with_min_duration(Nanos::from_millis(5))
}

fn offline(seed: u64) -> TestSettings {
    seeded(TestSettings::offline(), seed)
        .with_offline_min_sample_count(300)
        .with_min_duration(Nanos::from_millis(1))
}

fn qsl() -> MemoryQsl {
    MemoryQsl::new("pin-qsl", 120, 32)
}

/// A `plain`-engine row: its settings and its device's per-sample time.
type PlainRow = (TestSettings, Nanos);

fn plain((settings, per_sample): PlainRow) -> Pin {
    let sink = RingBufferSink::unbounded();
    let out = engine::plain(&settings, &mut qsl(), &mut PinSut::new(per_sample), &sink);
    let mut fold = Fold::default();
    fold.outcome(&out);
    fold.log(&sink);
    fold.pin()
}

fn single_stream_row(seed: u64) -> PlainRow {
    let settings = seeded(TestSettings::single_stream(), seed)
        .with_min_query_count(96)
        .with_min_duration(Nanos::from_millis(2));
    (settings, Nanos::from_micros(50))
}

/// 3 × 1.5 ms against a 5 ms interval: the index-dependent jitter pushes
/// some queries over the boundary, so skips and `OverloadDropped` vary.
fn multi_stream_row(seed: u64) -> PlainRow {
    let settings = seeded(TestSettings::multi_stream(3, Nanos::from_millis(5)), seed)
        .with_min_query_count(48)
        .with_min_duration(Nanos::from_millis(1));
    (settings, Nanos::from_micros(1_500))
}

fn server_row(seed: u64) -> PlainRow {
    (server(seed), Nanos::from_micros(200))
}

fn offline_row(seed: u64) -> PlainRow {
    (offline(seed), Nanos::from_micros(10))
}

fn accuracy_row(seed: u64) -> PlainRow {
    let settings = seeded(TestSettings::offline(), seed).with_mode(TestMode::AccuracyOnly);
    (settings, Nanos::from_micros(10))
}

fn single_stream(seed: u64) -> Pin {
    plain(single_stream_row(seed))
}

fn multi_stream(seed: u64) -> Pin {
    plain(multi_stream_row(seed))
}

fn server_plain(seed: u64) -> Pin {
    plain(server_row(seed))
}

fn offline_plain(seed: u64) -> Pin {
    plain(offline_row(seed))
}

fn accuracy(seed: u64) -> Pin {
    plain(accuracy_row(seed))
}

/// Records the server run, rebuilds its schedule (arrivals from the
/// records, indices from the same QSL seed), and replays it.
fn replay(seed: u64) -> Pin {
    let settings = server(seed);
    let sink = RingBufferSink::unbounded();
    let per_sample = Nanos::from_micros(200);
    let recorded = engine::plain(&settings, &mut qsl(), &mut PinSut::new(per_sample), &sink);
    let schedule = ReplaySchedule {
        scenario: settings.scenario,
        arrivals: recorded.records.iter().map(|r| r.scheduled_at).collect(),
        indices: sample_indices(&settings, 32, recorded.records.len() as u64),
    };
    let sink = RingBufferSink::unbounded();
    let out = engine::replay(
        &settings,
        &schedule,
        &mut qsl(),
        &mut PinSut::new(per_sample),
        &sink,
    );
    assert_eq!(out.records, recorded.records, "a replay re-issues the run");
    let mut fold = Fold::default();
    fold.outcome(&out);
    fold.log(&sink);
    fold.pin()
}

fn multitenant(seed: u64, log_probability: f64, hide_accuracy_logged: bool) -> Pin {
    let a = server(seed).with_accuracy_log_probability(log_probability);
    let b = seeded(
        TestSettings::server(900.0, Nanos::from_millis(20)),
        seed ^ 0xb,
    )
    .with_min_query_count(70)
    .with_min_duration(Nanos::from_millis(5))
    .with_accuracy_log_probability(log_probability);
    let (mut qa, mut qb) = (qsl(), MemoryQsl::new("pin-qsl-b", 64, 48));
    let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa), (&b, &mut qb)];
    let sink = RingBufferSink::unbounded();
    let mut sut = PinSut::new(Nanos::from_micros(150));
    let outcomes = engine::multitenant(&mut tenants, &mut sut, &sink);
    let mut fold = Fold {
        hide_accuracy_logged,
        ..Fold::default()
    };
    outcomes.iter().for_each(|out| fold.outcome(out));
    fold.log(&sink);
    fold.pin()
}

fn journal_path(name: &str, seed: u64) -> PathBuf {
    let file = format!(
        "mlperf_engine_pins_{}_{name}_{seed}.mlpj",
        std::process::id()
    );
    std::env::temp_dir().join(file)
}

/// The uninterrupted journaled run, then a kill at every checkpoint —
/// clean and torn — each resumed to the end; every halted and every
/// resumed process's outcome and detail log folds into the row.
fn journaled(name: &str, settings: &TestSettings, per_sample: Nanos, every: u64, seed: u64) -> Pin {
    let path = journal_path(name, seed);
    let cfg = JournalConfig::new(&path).with_checkpoint_every(every);
    let mut fold = Fold::default();
    let run = |cfg: &JournalConfig, resume: bool, fold: &mut Fold| {
        let sink = RingBufferSink::unbounded();
        let mut sut = PinSut::new(per_sample);
        let run = engine::journaled(settings, &mut qsl(), &mut sut, &sink, cfg, resume);
        fold.log(&sink);
        run
    };
    let whole = run(&cfg, false, &mut fold)
        .finished()
        .expect("no halt armed");
    fold.outcome(&whole);
    fold.journal = std::fs::read(&path).expect("journal file");
    let total = load_run_journal(&path).expect("journal loads").checkpoints;
    assert!(
        total >= 1,
        "{name}: the sweep needs a checkpoint to kill at"
    );
    for kill_at in 0..total {
        for torn in [false, true] {
            let mut halt = cfg.clone().with_halt_after(kill_at);
            if torn {
                halt = halt.with_torn_halt();
            }
            match run(&halt, false, &mut fold) {
                JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, kill_at),
                JournaledRun::Finished(_) => panic!("{name}: halt {kill_at} did not fire"),
            }
            let resumed = run(&cfg, true, &mut fold)
                .finished()
                .expect("resume finishes");
            fold.outcome(&resumed);
        }
    }
    std::fs::remove_file(&path).ok();
    fold.pin()
}

fn multitenant_silent(seed: u64) -> Pin {
    multitenant(seed, 0.0, false)
}

fn multitenant_logged(seed: u64) -> Pin {
    multitenant(seed, 0.25, false)
}

/// `multitenant_logged` with the `AccuracyLogged` events taken back out of
/// its detail log: the row as the parent produced it.
fn multitenant_logged_minus_accuracy_events(seed: u64) -> Pin {
    multitenant(seed, 0.25, true)
}

fn journaled_server(seed: u64) -> Pin {
    journaled("server", &server(seed), Nanos::from_micros(200), 16, seed)
}

fn journaled_offline(seed: u64) -> Pin {
    journaled("offline", &offline(seed), Nanos::from_micros(10), 16, seed)
}

type Case = (&'static str, fn(u64) -> Pin, [Pin; 3]);

/// Blessed by the tree at cbcf059, the parent of the one-engine refactor,
/// and unchanged by it — except the detail-log column of
/// `multitenant_logged`: the multitenant loop had its own completion body,
/// which never emitted `AccuracyLogged`; it now shares the simulator's, so
/// a tenant that samples its accuracy log says so in the detail log as a
/// single-tenant run always has. `multitenant_logged_minus_accuracy_events`
/// is that row with those events filtered back out, and all five of its
/// columns are the parent's `multitenant_logged`.
#[rustfmt::skip]
const PINS: &[Case] = &[
    ("single_stream", single_stream, [
        [0x27d0ce56336676ed, 0xf96dc229325afaee, 0x23fc868e5157d56e, 0x31076c7655faadca, 0x0000000000000000],
        [0xa4037adc7f8b95b5, 0x51c0b7ee23663a7b, 0xda3f84dd164e59b6, 0x31076c7655faadca, 0x0000000000000000],
        [0x69d6ae04484a975f, 0xa429b2e9a3fd26a0, 0x9fdc8838c775a977, 0x31076c7655faadca, 0x0000000000000000],
    ]),
    ("multi_stream", multi_stream, [
        [0xb91acfb238a32eff, 0xd9cd9f0a58e41082, 0xb076ffa0a7a6585b, 0xdf0fafbd068f05e0, 0x0000000000000000],
        [0xc2b5c2a987a6bd52, 0xac71eea8d017a2dd, 0xf5ddc3850049edfe, 0x352757f1d3c68e64, 0x0000000000000000],
        [0xa0b2083f9598e4ff, 0x5fa3c8d48af4589f, 0x739fcfdfeadd9ab8, 0x49e1ad190e8b41ca, 0x0000000000000000],
    ]),
    ("server_plain", server_plain, [
        [0xacbf22677ac0a0f9, 0x2db8834403a377f3, 0x2ff7a779a2c1bb3a, 0x082a62563ffeea1a, 0x0000000000000000],
        [0xc0916afa2eeeb390, 0xa2fea0e3e405abb6, 0x076218aef86db8d6, 0x082a62563ffeea1a, 0x0000000000000000],
        [0x024a3d33b0a40624, 0xd83ac913915cf161, 0x5598c9262fe41cd0, 0x082a62563ffeea1a, 0x0000000000000000],
    ]),
    ("offline_plain", offline_plain, [
        [0x87e5e66321014619, 0xd07157a19a1f80e1, 0x7d54f7cdf0b65373, 0x221b4d5ce04bd15f, 0x0000000000000000],
        [0xbe7d45fac6b1a31b, 0xd4d23d16142033b1, 0x7d2c5d12fd5144e3, 0x221b4d5ce04bd15f, 0x0000000000000000],
        [0xbef5f042275aff6a, 0x510d76ac09dbc402, 0xe98a705f042fb83d, 0x221b4d5ce04bd15f, 0x0000000000000000],
    ]),
    ("accuracy", accuracy, [
        [0x7e1f41bd71ca8e2b, 0x37269a5adb145a3d, 0x5874ad31ce11b9ef, 0x2a04fcd22b83bedb, 0x0000000000000000],
        [0x7e1f41bd71ca8e2b, 0x37269a5adb145a3d, 0x5874ad31ce11b9ef, 0x2a04fcd22b83bedb, 0x0000000000000000],
        [0x7e1f41bd71ca8e2b, 0x37269a5adb145a3d, 0x5874ad31ce11b9ef, 0x2a04fcd22b83bedb, 0x0000000000000000],
    ]),
    ("replay", replay, [
        [0xacbf22677ac0a0f9, 0x2db8834403a377f3, 0x2ff7a779a2c1bb3a, 0x082a62563ffeea1a, 0x0000000000000000],
        [0xc0916afa2eeeb390, 0xa2fea0e3e405abb6, 0x076218aef86db8d6, 0x082a62563ffeea1a, 0x0000000000000000],
        [0x024a3d33b0a40624, 0xd83ac913915cf161, 0x5598c9262fe41cd0, 0x082a62563ffeea1a, 0x0000000000000000],
    ]),
    ("multitenant_silent", multitenant_silent, [
        [0xf58206e2a81329dc, 0x8593cfb12cc2ce31, 0x68cf48153d814dda, 0xc326ade55bed8cec, 0x0000000000000000],
        [0x32052f2379523e2d, 0x8593cfb12cc2ce31, 0x73152012adb53d54, 0xc326ade55bed8cec, 0x0000000000000000],
        [0xce3dfc58fce9a1d1, 0x8593cfb12cc2ce31, 0x9acaae927bb47c52, 0xc326ade55bed8cec, 0x0000000000000000],
    ]),
    ("multitenant_logged", multitenant_logged, [
        [0xf58206e2a81329dc, 0x672cee85ecfb97e9, 0x3d7f3b1c1257c627, 0xc326ade55bed8cec, 0x0000000000000000],
        [0x32052f2379523e2d, 0xe88cf48627996194, 0xc9159425eedc057b, 0xc326ade55bed8cec, 0x0000000000000000],
        [0xce3dfc58fce9a1d1, 0xbbe9d518f1ab638a, 0xedd5794cd035b54f, 0xc326ade55bed8cec, 0x0000000000000000],
    ]),
    ("multitenant_logged_minus_accuracy_events", multitenant_logged_minus_accuracy_events, [
        [0xf58206e2a81329dc, 0x672cee85ecfb97e9, 0x68cf48153d814dda, 0xc326ade55bed8cec, 0x0000000000000000],
        [0x32052f2379523e2d, 0xe88cf48627996194, 0x73152012adb53d54, 0xc326ade55bed8cec, 0x0000000000000000],
        [0xce3dfc58fce9a1d1, 0xbbe9d518f1ab638a, 0x9acaae927bb47c52, 0xc326ade55bed8cec, 0x0000000000000000],
    ]),
    ("journaled_server", journaled_server, [
        [0xdf8bc440893f472d, 0xa3c45bbc8a64bf73, 0x4a74151c893bf980, 0xb8d89ce9a49dcc0d, 0xbdf5c39272f945e9],
        [0x641afe047b4bd620, 0x4aa809f08c793ed2, 0xb92773604b76d439, 0x65118f8f4e8f6b1b, 0xb8a7fe2ad9f1cfab],
        [0x7961b4d3bc7ca644, 0x241ae97841e0a401, 0x34af510bad3bddbe, 0xbdf330597e76a853, 0x56d0b3d7a119646e],
    ]),
    ("journaled_offline", journaled_offline, [
        [0x5233ae2ec8c498f1, 0x2382957dbb857159, 0xdfbe66cdd2e8125c, 0xec37149f826b0298, 0xddc34969a7f56847],
        [0xd00afeeb86754a5f, 0xb17b1eb1a7869239, 0x0acc9cdf9dbc32bc, 0xec37149f826b0298, 0x5adfee66d85b779c],
        [0x4cba9bf62da42628, 0x54b054ab90983404, 0xdeb5e3990b434b7e, 0xec37149f826b0298, 0x9588046b7c0eb8e6],
    ]),
];

#[test]
fn the_engine_produces_what_it_was_blessed_to_produce() {
    let mut moved = String::new();
    for (name, case, want) in PINS {
        let got = [case(1), case(2), case(3)];
        if got != *want {
            writeln!(moved, "    (\"{name}\", {name}, [").unwrap();
            for pin in got {
                let cells: Vec<String> = pin.iter().map(|h| format!("{h:#018x}")).collect();
                writeln!(moved, "        [{}],", cells.join(", ")).unwrap();
            }
            writeln!(moved, "    ]),").unwrap();
        }
    }
    assert!(moved.is_empty(), "engine output moved; it now is:\n{moved}");
}

/// The `server_plain` row at seed 1: the whole `RunOutcome::metrics`
/// snapshot as the build before per-name metric cells rendered it. The
/// counters column above hashes the counters only; this holds the gauges
/// and the latency histogram to the byte as well.
const SERVER_METRICS: &str = concat!(
    r#"{"counters":{"queries_completed":146,"queries_errored":14,"queries_issued":160,"#,
    r#""samples_completed":146,"samples_issued":160,"validity_issues":1},"#,
    r#""gauges":{"duration_secs":0.071877621,"metric_score":2000.0},"#,
    r#""histograms":{"query_latency_ns":{"sub_bits":5,"buckets":["#,
    r#"[432,9],[438,13],[440,1],[445,7],[449,10],[450,2],[451,1],[452,14],[453,1],[454,1],"#,
    r#"[455,11],[457,3],[458,11],[459,1],[460,1],[461,1],[462,2],[463,1],[464,2],[465,2],"#,
    r#"[466,1],[467,3],[468,1],[470,1],[471,1],[472,2],[473,1],[474,3],[475,1],[476,2],"#,
    r#"[479,1],[480,2],[481,3],[482,8],[483,1],[484,3],[485,2],[486,2],[487,2],[490,2],"#,
    r#"[491,1],[492,1],[494,2],[495,1],[496,2],[500,1],[502,1],[503,1]],"#,
    r#""total":146,"sum":58024675,"min":0,"max":913119}}}"#,
);

#[test]
fn the_server_rows_metrics_snapshot_is_the_blessed_one() {
    let (settings, per_sample) = server_row(1);
    let sink = RingBufferSink::unbounded();
    let out = engine::plain(&settings, &mut qsl(), &mut PinSut::new(per_sample), &sink);
    let metrics = out.metrics.expect("a traced run carries its metrics");
    assert_eq!(metrics.to_json_string(), SERVER_METRICS);
    assert_eq!(MetricsSnapshot::from_json_str(SERVER_METRICS), Ok(metrics));
}

/// A sink that is switched off and counts the events it is handed anyway.
#[derive(Default)]
struct DisabledSink {
    records: AtomicU64,
}

impl TraceSink for DisabledSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _ts_ns: u64, _event: &TraceEvent) {
        self.records.fetch_add(1, Ordering::Relaxed);
    }
}

/// "A disabled sink is free", without a clock: every `plain` row, in all
/// four scenarios, re-run with the sink switched off, hands it no event —
/// each `record` in the engine sits behind an `enabled()` guard — builds no
/// registry, and produces the records and accuracy log the row pins.
#[test]
fn a_disabled_sink_is_handed_nothing_and_changes_nothing() {
    let rows = [
        ("single_stream", single_stream_row as fn(u64) -> PlainRow),
        ("multi_stream", multi_stream_row),
        ("server_plain", server_row),
        ("offline_plain", offline_row),
        ("accuracy", accuracy_row),
    ];
    for (name, row) in rows {
        let (_, _, pinned) = PINS
            .iter()
            .find(|(n, ..)| *n == name)
            .expect("a pinned row");
        for (seed, want) in (1..).zip(pinned) {
            let (settings, per_sample) = row(seed);
            let sink = DisabledSink::default();
            let out = engine::plain(&settings, &mut qsl(), &mut PinSut::new(per_sample), &sink);
            let calls = sink.records.load(Ordering::Relaxed);
            assert_eq!(
                calls, 0,
                "{name} seed {seed}: record calls on a disabled sink"
            );
            assert!(out.metrics.is_none(), "{name} seed {seed}: a registry");
            let mut fold = Fold::default();
            fold.outcome(&out);
            assert_eq!(
                fold.pin()[..2],
                want[..2],
                "{name} seed {seed}: records, accuracy log"
            );
        }
    }
}
