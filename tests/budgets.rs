//! Allocation budgets: what a simulated query costs the heap, and what
//! loading a run journal holds, counted exactly and asserted.
//!
//! Each row runs `run_simulated` (or, on the journaled row, the same run
//! with a journal attached) twice with the same seeds, at N and at 2N
//! queries (an offline row: N and 2N samples in its one query), and
//! counts this thread's allocations with the allocator the decoder tests
//! share (`counting_alloc`). The SUT runs inside [`Metered`], which counts
//! the allocations of its own calls apart; the rest are the LoadGen's.
//! Whatever a run pays once — loading samples, sizing the record store,
//! growing its reused buffers — is the same in both runs, so the
//! difference divided by N is the steady-state count per query (per
//! sample offline), and each row compares it with its budget exactly.
//!
//! The LoadGen's budget is 0 on every plain row; the journaled row pays
//! for its checkpoint frames ([`ROWS`]). The SUT's is what the
//! [`SimSut`] contract makes it pay: a completion owns its sample list
//! and a reaction owns its completion list, so every completion costs one
//! allocation and every reaction that completes anything one more — 2 a
//! query for a SUT that answers each query on its own.
//!
//! The load budget counts this thread's live heap bytes through
//! `load_run_journal` and holds what it keeps beside its result to the
//! read buffer and two frames.

#[path = "../crates/trace/tests/support/counting_alloc.rs"]
#[allow(dead_code)] // budgets count and weigh the heap; sizes are the decoders' concern
mod counting_alloc;

use counting_alloc::{allocations_during, live_bytes_during};
use mlperf_inference::loadgen::config::TestSettings;
use mlperf_inference::loadgen::des::run_simulated;
use mlperf_inference::loadgen::journal::{load_run_journal, Checkpoint, JournalConfig};
use mlperf_inference::loadgen::qsl::MemoryQsl;
use mlperf_inference::loadgen::query::Query;
use mlperf_inference::loadgen::scenario::Scenario;
use mlperf_inference::loadgen::sut::{FixedLatencySut, SimSut, SutReaction};
use mlperf_inference::loadgen::time::Nanos;
use mlperf_inference::loadgen::Run;
use mlperf_inference::models::TaskId;
use mlperf_inference::stats::rng::SeedTriple;
use mlperf_inference::sut::fleet::fleet;
use mlperf_inference::trace::journal::read_journal;

/// Queries (offline: samples) of a row's shorter run; the longer has 2N.
const N: u64 = 2_048;
/// Samples in the QSL both stacks draw from.
const POPULATION: usize = 1_024;
/// The device stack's model: ResNet-50, as in the benchmark's `sim_plain`.
const TASK: TaskId = TaskId::ImageClassificationHeavy;

/// Checkpoint interval of the journaled row, as in the benchmark's
/// `sim_journaled`.
const CHECKPOINT_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy)]
enum Stack {
    /// A serial 50 µs-per-sample `FixedLatencySut`.
    Null,
    /// The fleet's `datacenter-gpu` under the scenario's batching policy.
    Device,
}

#[derive(Debug, Clone, Copy)]
enum Durability {
    /// `run_simulated`.
    Plain,
    /// The same run with a journal attached: a checkpoint frame every
    /// [`CHECKPOINT_EVERY`] queries, no `fsync` between them.
    Journaled,
}

/// A [`SimSut`] that counts what the SUT inside it allocates, and the
/// completions and answering reactions it returns.
struct Metered<S> {
    sut: S,
    allocations: u64,
    completions: u64,
    answers: u64,
}

impl<S: SimSut> Metered<S> {
    fn new(sut: S) -> Self {
        Self {
            sut,
            allocations: 0,
            completions: 0,
            answers: 0,
        }
    }

    fn meter(&mut self, call: impl FnOnce(&mut S) -> SutReaction) -> SutReaction {
        let (reaction, allocations) = allocations_during(|| call(&mut self.sut));
        self.allocations += allocations;
        self.completions += reaction.completions.len() as u64;
        self.answers += u64::from(!reaction.completions.is_empty());
        reaction
    }
}

impl<S: SimSut> SimSut for Metered<S> {
    fn name(&self) -> &str {
        self.sut.name()
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        self.meter(|sut| sut.on_query(now, query))
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        self.meter(|sut| sut.on_wakeup(now))
    }

    fn reset(&mut self) {
        let ((), allocations) = allocations_during(|| self.sut.reset());
        self.allocations += allocations;
    }
}

/// One run's counts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Count {
    /// Allocations outside the SUT's calls.
    loadgen: u64,
    /// Allocations inside them.
    sut: u64,
    completions: u64,
    answers: u64,
}

fn settings(stack: Stack, scenario: Scenario, queries: u64) -> TestSettings {
    let base = match (scenario, stack) {
        (Scenario::Server, Stack::Null) => TestSettings::server(10_000.0, Nanos::from_millis(10)),
        (Scenario::Server, Stack::Device) => {
            TestSettings::server(800.0, TASK.spec().server_latency_bound)
        }
        (Scenario::SingleStream, _) => TestSettings::single_stream(),
        (Scenario::MultiStream, _) => TestSettings::multi_stream(8, Nanos::from_millis(50)),
        (Scenario::Offline, _) => TestSettings::offline().with_offline_min_sample_count(queries),
    };
    let count = if scenario == Scenario::Offline {
        1
    } else {
        queries
    };
    base.with_min_query_count(count)
        .with_min_duration(Nanos::from_micros(1))
        .with_seeds(SeedTriple::from_master(7))
}

fn count<S: SimSut>(settings: &TestSettings, journal: Option<&JournalConfig>, sut: S) -> Count {
    let mut qsl = MemoryQsl::new("budget-qsl", POPULATION, POPULATION);
    let mut sut = Metered::new(sut);
    let (outcome, total) = allocations_during(|| match journal {
        None => run_simulated(settings, &mut qsl, &mut sut),
        Some(cfg) => Run::simulated(settings)
            .journal(cfg)
            .run(&mut qsl, &mut sut)
            .map(|run| run.finished().expect("no halt is armed")),
    });
    let outcome = outcome.expect("the run completes");
    assert!(outcome.result.is_valid(), "{:?}", outcome.result.validity);
    Count {
        loadgen: total - sut.allocations,
        sut: sut.allocations,
        completions: sut.completions,
        answers: sut.answers,
    }
}

fn run(stack: Stack, durability: Durability, scenario: Scenario, queries: u64) -> Count {
    let settings = settings(stack, scenario, queries);
    let path = std::env::temp_dir().join(format!(
        "mlpj_budget_{}_{stack:?}_{scenario}.mlpj",
        std::process::id()
    ));
    let cfg = JournalConfig::new(&path)
        .with_checkpoint_every(CHECKPOINT_EVERY)
        .with_fsync_every(u32::MAX);
    let journal = matches!(durability, Durability::Journaled).then_some(&cfg);
    let count = match stack {
        Stack::Null => count(
            &settings,
            journal,
            FixedLatencySut::new("null-sut", Nanos::from_micros(50)),
        ),
        Stack::Device => {
            let gpu = fleet()
                .into_iter()
                .find(|s| s.spec.name == "datacenter-gpu")
                .expect("the fleet has a datacenter-gpu");
            count(&settings, journal, gpu.sut_for(TASK, scenario))
        }
    };
    std::fs::remove_file(&path).ok();
    count
}

/// One row of the table: a run, and what it may allocate in steady state.
struct Row {
    stack: Stack,
    durability: Durability,
    scenario: Scenario,
    /// The LoadGen's allocations: so many every so many queries.
    loadgen: (u64, u64),
    /// The SUT's per query; `None` for the dynamic batcher, whose
    /// reactions answer a varying number of queries each: it is held to
    /// the contract's price alone.
    sut: Option<u64>,
}

impl Row {
    /// A `run_simulated` row: the LoadGen allocates nothing a query.
    const fn plain(stack: Stack, scenario: Scenario, sut: Option<u64>) -> Self {
        Row {
            stack,
            durability: Durability::Plain,
            scenario,
            loadgen: (0, 1),
            sut,
        }
    }
}

/// Every row, in steady state; offline rows count per sample.
///
/// The journaled row pays for its checkpoint frames, one every
/// [`CHECKPOINT_EVERY`] queries: the recorder's suffix snapshot (its
/// records, and for queries in flight at the boundary the outstanding list
/// and one sample list each) and the frame's encoding buffer. That is 147
/// allocations over the 32 checkpoints of N more queries at these seeds,
/// 0.0718 a query.
const ROWS: [Row; 9] = [
    Row::plain(Stack::Null, Scenario::Server, Some(2)),
    Row::plain(Stack::Null, Scenario::SingleStream, Some(2)),
    Row::plain(Stack::Null, Scenario::MultiStream, Some(2)),
    Row::plain(Stack::Null, Scenario::Offline, Some(0)),
    Row::plain(Stack::Device, Scenario::Server, None),
    Row::plain(Stack::Device, Scenario::SingleStream, Some(2)),
    Row::plain(Stack::Device, Scenario::MultiStream, Some(2)),
    Row::plain(Stack::Device, Scenario::Offline, Some(0)),
    Row {
        stack: Stack::Null,
        durability: Durability::Journaled,
        scenario: Scenario::Server,
        loadgen: (147, N),
        sut: Some(2),
    },
];

#[test]
fn a_simulated_query_allocates_what_its_row_budgets() {
    let mut failures = Vec::new();
    for Row {
        stack,
        durability,
        scenario,
        loadgen: (loadgen, per),
        sut,
    } in ROWS
    {
        let (short, long) = (
            run(stack, durability, scenario, N),
            run(stack, durability, scenario, 2 * N),
        );
        let diff = |f: fn(&Count) -> u64| f(&long) - f(&short);
        let row = format!("{stack:?} {durability:?} {scenario}");
        println!(
            "{row:<34} LoadGen {:.4} a query, SUT {:.3} ({N} → {} queries: {short:?} → {long:?})",
            diff(|c| c.loadgen) as f64 / N as f64,
            diff(|c| c.sut) as f64 / N as f64,
            2 * N,
        );
        if diff(|c| c.loadgen) * per != loadgen * N {
            failures.push(format!(
                "{row}: the LoadGen allocated {} more for {N} more queries; budget {loadgen} \
                 every {per} queries",
                diff(|c| c.loadgen)
            ));
        }
        let contract = diff(|c| c.completions) + diff(|c| c.answers);
        if diff(|c| c.sut) != contract {
            failures.push(format!(
                "{row}: the SUT allocated {} more, its completions and answering reactions \
                 {contract} more",
                diff(|c| c.sut)
            ));
        }
        if let Some(sut) = sut.filter(|per_query| diff(|c| c.sut) != per_query * N) {
            failures.push(format!(
                "{row}: the SUT allocated {} more for {N} more queries; budget {sut} a query",
                diff(|c| c.sut)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Queries of the journal the memory budget loads: a 418 KB file, six
/// times the read buffer and over a hundred times its largest frame.
const LOADED_QUERIES: u64 = 8_192;

/// The most a journal reader buffers ahead of the frame it checks.
const READ_BUFFER: usize = 64 * 1024;

/// Loading a journal streams it: beside the checkpoint it returns, the
/// loader holds the read buffer and two frames, one frame's payload and
/// one frame's decoded checkpoint at a time, never the file or a copy of
/// its frames. Live bytes are counted exactly, by the allocator, not read
/// from the kernel's resident-set figures.
#[test]
fn loading_a_journal_holds_one_frame_beside_what_it_returns() {
    let path = std::env::temp_dir().join(format!("mlpj_budget_{}_load.mlpj", std::process::id()));
    let cfg = JournalConfig::new(&path)
        .with_checkpoint_every(CHECKPOINT_EVERY)
        .with_fsync_every(u32::MAX);
    let settings = settings(Stack::Null, Scenario::Server, LOADED_QUERIES);
    let mut qsl = MemoryQsl::new("budget-qsl", POPULATION, POPULATION);
    let mut sut = FixedLatencySut::new("null-sut", Nanos::from_micros(50));
    Run::simulated(&settings)
        .journal(&cfg)
        .run(&mut qsl, &mut sut)
        .expect("the journaled run completes");
    let file = std::fs::metadata(&path).expect("journal written").len() as usize;
    // A frame twice over: its bytes as read, and the checkpoint they
    // decode to (each checkpoint frame is the meta frame's successor).
    let scan = read_journal(&path).expect("journal reads");
    let largest_frame = scan.records.iter().map(Vec::len).max().expect("frames");
    let largest_decoded = scan.records[1..]
        .iter()
        .map(|frame| live_bytes_during(|| Checkpoint::decode(frame)).2 as usize)
        .max()
        .expect("checkpoint frames");
    drop(scan);

    let (loaded, peak, retained) = live_bytes_during(|| load_run_journal(&path));
    let loaded = loaded.expect("the journal loads");
    assert!(loaded.torn.is_none());
    assert_eq!(loaded.checkpoints, LOADED_QUERIES / CHECKPOINT_EVERY);
    let budget = file.min(READ_BUFFER) + largest_frame + largest_decoded;
    println!(
        "load of a {file}-byte journal (largest frame {largest_frame} bytes, \
         {largest_decoded} decoded): peak {peak} bytes live, {retained} returned, {} beside \
         them; budget {budget}",
        peak - retained
    );
    assert!(
        peak - retained <= budget as isize,
        "loading a {file}-byte journal held {} bytes beside the {retained} it returned; \
         budget {budget}: the read buffer and a {largest_frame}-byte frame, once as bytes and \
         once decoded ({largest_decoded})",
        peak - retained
    );
    drop(loaded);
    std::fs::remove_file(&path).ok();
}
