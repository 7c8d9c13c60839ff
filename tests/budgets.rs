//! Allocation budgets: what a simulated query costs the heap, counted
//! exactly and asserted.
//!
//! Each row runs `run_simulated` twice with the same seeds, at N and at
//! 2N queries (an offline row: N and 2N samples in its one query), and
//! counts this thread's allocations with the allocator the decoder tests
//! share (`counting_alloc`). The SUT runs inside [`Metered`], which counts
//! the allocations of its own calls apart; the rest are the LoadGen's.
//! Whatever a run pays once — loading samples, sizing the record store,
//! growing its reused buffers — is the same in both runs, so the
//! difference divided by N is the steady-state count per query (per
//! sample offline), and each row compares it with its budget exactly.
//!
//! The LoadGen's budget is 0 on every row. The SUT's is what the
//! [`SimSut`] contract makes it pay: a completion owns its sample list
//! and a reaction owns its completion list, so every completion costs one
//! allocation and every reaction that completes anything one more — 2 a
//! query for a SUT that answers each query on its own.

#[path = "../crates/trace/tests/support/counting_alloc.rs"]
#[allow(dead_code)] // the budgets count allocations; sizes are the decoder tests' concern
mod counting_alloc;

use counting_alloc::allocations_during;
use mlperf_inference::loadgen::config::TestSettings;
use mlperf_inference::loadgen::des::run_simulated;
use mlperf_inference::loadgen::qsl::MemoryQsl;
use mlperf_inference::loadgen::query::Query;
use mlperf_inference::loadgen::scenario::Scenario;
use mlperf_inference::loadgen::sut::{FixedLatencySut, SimSut, SutReaction};
use mlperf_inference::loadgen::time::Nanos;
use mlperf_inference::models::TaskId;
use mlperf_inference::stats::rng::SeedTriple;
use mlperf_inference::sut::fleet::fleet;

/// Queries (offline: samples) of a row's shorter run; the longer has 2N.
const N: u64 = 2_048;
/// Samples in the QSL both stacks draw from.
const POPULATION: usize = 1_024;
/// The device stack's model: ResNet-50, as in the benchmark's `sim_plain`.
const TASK: TaskId = TaskId::ImageClassificationHeavy;

#[derive(Debug, Clone, Copy)]
enum Stack {
    /// A serial 50 µs-per-sample `FixedLatencySut`.
    Null,
    /// The fleet's `datacenter-gpu` under the scenario's batching policy.
    Device,
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

fn count<S: SimSut>(settings: &TestSettings, sut: S) -> Count {
    let mut qsl = MemoryQsl::new("budget-qsl", POPULATION, POPULATION);
    let mut sut = Metered::new(sut);
    let (outcome, total) = allocations_during(|| run_simulated(settings, &mut qsl, &mut sut));
    let outcome = outcome.expect("the run completes");
    assert!(outcome.result.is_valid(), "{:?}", outcome.result.validity);
    Count {
        loadgen: total - sut.allocations,
        sut: sut.allocations,
        completions: sut.completions,
        answers: sut.answers,
    }
}

fn run(stack: Stack, scenario: Scenario, queries: u64) -> Count {
    let settings = settings(stack, scenario, queries);
    match stack {
        Stack::Null => count(
            &settings,
            FixedLatencySut::new("null-sut", Nanos::from_micros(50)),
        ),
        Stack::Device => {
            let gpu = fleet()
                .into_iter()
                .find(|s| s.spec.name == "datacenter-gpu")
                .expect("the fleet has a datacenter-gpu");
            count(&settings, gpu.sut_for(TASK, scenario))
        }
    }
}

/// Every row: `(stack, scenario, the LoadGen's allocations per query, the
/// SUT's)`, in steady state; offline rows count per sample. The SUT's is
/// `None` for the dynamic batcher, whose reactions answer a varying
/// number of queries each: it is held to the contract's price alone.
const ROWS: [(Stack, Scenario, u64, Option<u64>); 8] = [
    (Stack::Null, Scenario::Server, 0, Some(2)),
    (Stack::Null, Scenario::SingleStream, 0, Some(2)),
    (Stack::Null, Scenario::MultiStream, 0, Some(2)),
    (Stack::Null, Scenario::Offline, 0, Some(0)),
    (Stack::Device, Scenario::Server, 0, None),
    (Stack::Device, Scenario::SingleStream, 0, Some(2)),
    (Stack::Device, Scenario::MultiStream, 0, Some(2)),
    (Stack::Device, Scenario::Offline, 0, Some(0)),
];

#[test]
fn a_simulated_query_allocates_what_its_row_budgets() {
    let mut failures = Vec::new();
    for (stack, scenario, loadgen, sut) in ROWS {
        let (short, long) = (run(stack, scenario, N), run(stack, scenario, 2 * N));
        let diff = |f: fn(&Count) -> u64| f(&long) - f(&short);
        let row = format!("{stack:?} {scenario}");
        println!(
            "{row:<24} LoadGen {:.3} a query, SUT {:.3} ({N} → {} queries: {short:?} → {long:?})",
            diff(|c| c.loadgen) as f64 / N as f64,
            diff(|c| c.sut) as f64 / N as f64,
            2 * N,
        );
        if diff(|c| c.loadgen) != loadgen * N {
            failures.push(format!(
                "{row}: the LoadGen allocated {} more for {N} more queries; budget {loadgen} a query",
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
