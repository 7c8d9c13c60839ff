//! Every record the LoadGen crate declares with `byte_layout!` held to the
//! same totality check (`trace/tests/support/byte_totality.rs`): its own
//! bytes round-trip, every truncation and a trailing byte are errors, and
//! count lies and seeded mutations decode to an error or to what the bytes
//! spell, within an allocation ceiling.

use mlperf_loadgen::journal::Checkpoint;
use mlperf_loadgen::query::{Query, QuerySample, ResponsePayload, SampleCompletion};
use mlperf_loadgen::record::{LoggedResponse, OutstandingEntry, QueryRecord, RecorderSnapshot};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Scenario;
use mlperf_stats::rng::Rng64;

#[path = "../../trace/tests/support/byte_totality.rs"]
mod byte_totality;
use byte_totality::draw;
#[path = "../../trace/tests/support/counting_alloc.rs"]
mod counting_alloc;

fn below(rng: &mut Rng64, n: u64) -> u64 {
    rng.next_below(n)
}

fn nanos(rng: &mut Rng64) -> Nanos {
    Nanos::from_nanos(rng.next_u64() >> below(rng, 64))
}

fn payload(rng: &mut Rng64) -> ResponsePayload {
    match below(rng, 4) {
        0 => ResponsePayload::Empty,
        1 => ResponsePayload::Class(below(rng, 1_000) as usize),
        2 => ResponsePayload::Boxes(
            (0..below(rng, 3))
                .map(|i| (i as usize, 0.5, [0.0, 1.0, 2.0, rng.next_f64() as f32]))
                .collect(),
        ),
        _ => ResponsePayload::Tokens((0..below(rng, 4)).map(|t| t as u32 * 7).collect()),
    }
}

fn query_sample(rng: &mut Rng64) -> QuerySample {
    QuerySample {
        id: rng.next_u64(),
        index: below(rng, 1 << 20) as usize,
    }
}

fn query(rng: &mut Rng64) -> Query {
    Query {
        id: rng.next_u64(),
        scheduled_at: nanos(rng),
        tenant: 0,
        samples: (0..below(rng, 4)).map(|_| query_sample(rng)).collect(),
    }
}

fn sample_completion(rng: &mut Rng64) -> SampleCompletion {
    SampleCompletion {
        sample_id: rng.next_u64(),
        payload: payload(rng),
    }
}

fn record(rng: &mut Rng64) -> QueryRecord {
    QueryRecord {
        id: rng.next_u64(),
        scheduled_at: nanos(rng),
        issued_at: nanos(rng),
        completed_at: (below(rng, 2) == 0).then(|| nanos(rng)),
        sample_count: below(rng, 64) as usize,
        skipped_intervals: below(rng, 3) as u32,
        error: below(rng, 2) == 0,
    }
}

fn outstanding(rng: &mut Rng64) -> OutstandingEntry {
    OutstandingEntry {
        id: rng.next_u64(),
        pos: below(rng, 100) as usize,
        samples: (0..below(rng, 3))
            .map(|_| (rng.next_u64(), below(rng, 1_000) as usize))
            .collect(),
    }
}

fn logged(rng: &mut Rng64) -> LoggedResponse {
    LoggedResponse {
        sample_id: rng.next_u64(),
        sample_index: below(rng, 1_000) as usize,
        payload: payload(rng),
    }
}

fn snapshot(rng: &mut Rng64) -> RecorderSnapshot {
    RecorderSnapshot {
        records: (0..below(rng, 3)).map(|_| record(rng)).collect(),
        outstanding: (0..below(rng, 3)).map(|_| outstanding(rng)).collect(),
        accuracy_log: (0..below(rng, 3)).map(|_| logged(rng)).collect(),
        samples_completed: rng.next_u64(),
        last_completion: nanos(rng),
        errored: below(rng, 10),
    }
}

fn checkpoint(rng: &mut Rng64) -> Checkpoint {
    let words = |rng: &mut Rng64| [0; 4].map(|_: u64| rng.next_u64());
    Checkpoint {
        seq: below(rng, 100),
        issued: rng.next_u64(),
        next_sample_id: rng.next_u64(),
        wall: nanos(rng),
        pending_arrival: (below(rng, 2) == 0).then(|| nanos(rng)),
        qsl_rng: words(rng),
        sched_rng: words(rng),
        sched_now_bits: rng.next_f64().to_bits(),
        acc_rng: words(rng),
        epoch: below(rng, 5) as u32,
        recorder: snapshot(rng),
    }
}

layout_totality! {
    scenario_is_total: Scenario = Scenario::ALL.to_vec();
    nanos_is_total: Nanos = draw(8, 1, nanos);
    query_sample_is_total: QuerySample = draw(8, 2, query_sample);
    query_is_total: Query = draw(16, 3, query);
    response_payload_is_total: ResponsePayload = draw(24, 4, payload);
    sample_completion_is_total: SampleCompletion = draw(16, 5, sample_completion);
    query_record_is_total: QueryRecord = draw(16, 6, record);
    outstanding_entry_is_total: OutstandingEntry = draw(16, 7, outstanding);
    logged_response_is_total: LoggedResponse = draw(16, 8, logged);
    recorder_snapshot_is_total: RecorderSnapshot = draw(12, 9, snapshot);
    checkpoint_is_total: Checkpoint = draw(12, 10, checkpoint);
}
