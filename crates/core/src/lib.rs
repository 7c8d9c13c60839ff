//! The MLPerf Inference **LoadGen** — the paper's primary contribution,
//! reimplemented in Rust.
//!
//! The LoadGen is "a traffic generator that loads the SUT and measures
//! performance" (Section IV-B). It owns everything the submitter must not:
//! query arrival rules for the four scenarios, the pseudorandom schedule and
//! sample-selection seeds, latency recording, run-validity checks, and log
//! output. The system under test is a black box behind a narrow trait.
//!
//! # Architecture
//!
//! * [`scenario`] — the four scenarios of Table II and their metadata.
//! * [`config`] — [`config::TestSettings`]: mode, seeds,
//!   target rates, latency bounds, minimum durations and query counts.
//! * [`query`] — queries, samples, responses, and response payloads.
//! * [`qsl`] — the `QuerySampleLibrary` trait (Figure 3's "data set" box).
//! * [`sut`] — SUT traits: [`sut::SimSut`] for discrete-event co-simulation
//!   and [`sut::RealtimeSut`] for wall-clock runs.
//! * [`schedule`] — arrival-time generation (Poisson for server, fixed
//!   interval for multistream, sequential and batch for the rest) and the
//!   one arrival source both open-loop issue loops pull from: the
//!   scenario's resumable Poisson cursor, or a recorded schedule.
//! * [`run`] — the one entry: the [`Run`] builder (clock first, then
//!   sink/instruments, replayed schedule, run journal, wall-clock origin)
//!   over the prologue, bookkeeping and scoring every run shares;
//!   [`des::run_simulated`] is `Run::simulated(settings).run(qsl, sut)`.
//! * [`des`] — the discrete-event issue loop used by the experiments; a
//!   270,336-query server run finishes in well under a second of wall time.
//! * [`journal`] — crash safety: run checkpoints (scenario cursor, RNG
//!   states, recorder image, wire epoch) appended to a durable `MLPJ`
//!   write-ahead journal at deterministic boundaries, and the
//!   roll-back-and-re-execute resume semantics built on them.
//! * [`instrument`] — [`instrument::Instruments`], the observability
//!   bundle (trace sink, shared metrics registry).
//! * [`realtime`] — a thread-based wall-clock issue loop mirroring the C++
//!   LoadGen's operation, used by the quickstart example and tests.
//! * [`replay`] — a recorded schedule as a first-class arrival process:
//!   [`replay::ReplaySchedule`] re-issued through the simulated or
//!   wall-clock loop with the recorded scenario's validity rules intact.
//! * [`record`] / [`results`] / [`validate`] — latency bookkeeping, metric
//!   computation, and the validity rules of Tables III–V.
//! * [`requirements`] — Table V minimum query/sample counts.
//! * [`find_peak`] — FindPeakPerformance searches for the server and
//!   multistream scenarios.
//!
//! # Example: simulated single-stream run
//!
//! ```
//! use mlperf_loadgen::config::TestSettings;
//! use mlperf_loadgen::des::run_simulated;
//! use mlperf_loadgen::qsl::MemoryQsl;
//! use mlperf_loadgen::scenario::Scenario;
//! use mlperf_loadgen::sut::FixedLatencySut;
//! use mlperf_loadgen::time::Nanos;
//!
//! let settings = TestSettings::single_stream()
//!     .with_min_query_count(128)
//!     .with_min_duration(Nanos::from_millis(10));
//! let mut qsl = MemoryQsl::new("toy", 64, 64);
//! let mut sut = FixedLatencySut::new("null-sut", Nanos::from_micros(50));
//! let outcome = run_simulated(&settings, &mut qsl, &mut sut)?;
//! assert!(outcome.result.is_valid());
//! # Ok::<(), mlperf_loadgen::LoadGenError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod des;
pub mod find_peak;
pub mod instrument;
pub mod journal;
pub mod qsl;
pub mod query;
pub mod realtime;
pub mod record;
pub mod replay;
pub mod requirements;
pub mod results;
pub mod run;
pub mod scenario;
pub mod schedule;
pub mod sut;
pub mod time;
pub mod validate;

pub use config::{TestMode, TestSettings};
pub use instrument::Instruments;
pub use journal::{Checkpoint, JournalConfig, JournaledRun};
pub use query::{Query, QueryId, QuerySample, ResponsePayload, SampleIndex};
pub use replay::ReplaySchedule;
pub use run::Run;
pub use scenario::Scenario;
pub use time::Nanos;

/// Errors surfaced by the LoadGen.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadGenError {
    /// The test settings are internally inconsistent.
    BadSettings(String),
    /// The QSL cannot satisfy the request (e.g. zero samples).
    BadQsl(String),
    /// The SUT violated the protocol (wrong query id, duplicate completion,
    /// completion before issue, missing response).
    SutProtocol(String),
    /// The run journal could not be written, read, or matched to the run
    /// being resumed.
    Journal(String),
}

impl std::fmt::Display for LoadGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadGenError::BadSettings(m) => write!(f, "bad test settings: {m}"),
            LoadGenError::BadQsl(m) => write!(f, "bad query sample library: {m}"),
            LoadGenError::SutProtocol(m) => write!(f, "SUT protocol violation: {m}"),
            LoadGenError::Journal(m) => write!(f, "run journal error: {m}"),
        }
    }
}

impl std::error::Error for LoadGenError {}
