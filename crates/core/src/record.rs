//! Latency bookkeeping during a run.

use crate::query::{Query, QueryCompletion, QueryId, ResponsePayload, SampleIndex};
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_trace::byte_layout;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

byte_layout! {
    /// Per-query record retained for the detail log and metric computation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct QueryRecord {
        /// Query id.
        pub id: QueryId,
        /// When the schedule wanted the query issued (latency reference point).
        pub scheduled_at: Nanos,
        /// When the LoadGen actually issued it.
        pub issued_at: Nanos,
        /// When the SUT finished it (`None` while outstanding).
        pub completed_at: Option<Nanos> = "completed_at flag",
        /// Number of samples in the query.
        pub sample_count: usize,
        /// Multistream only: intervals this query overran.
        pub skipped_intervals: u32,
        /// The query resolved as an error/drop: the SUT acknowledged it (so it
        /// is not outstanding) but produced no usable answer.
        pub error: bool = "record error flag",
    }
}

impl QueryRecord {
    /// The deterministic slice of the record — `(id, scheduled_at in ns,
    /// sample_count, error)` — which a fixed seed reproduces exactly,
    /// through a reconnect, a failover or a crash and resume. Everything
    /// else in a record is a wall-clock reading and legitimately differs
    /// between executions; every logical-log hash and every "rescued run
    /// equals the baseline" check compares this.
    pub fn logical(&self) -> (QueryId, u64, usize, bool) {
        (
            self.id,
            self.scheduled_at.as_nanos(),
            self.sample_count,
            self.error,
        )
    }

    /// Latency from scheduled time to completion, for queries that produced
    /// a usable answer. Errored queries return `None`: they carry a
    /// completion timestamp (when the failure surfaced) but no service
    /// latency worth aggregating into [`LatencyStats`].
    ///
    /// [`LatencyStats`]: crate::results::LatencyStats
    pub fn latency(&self) -> Option<Nanos> {
        if self.error {
            return None;
        }
        self.completed_at
            .map(|c| c.saturating_sub(self.scheduled_at))
    }

    /// Latency as scored by the validity rules: errored queries count as
    /// infinitely late ([`Nanos::MAX`]), so they always land past any
    /// latency bound. Still-outstanding queries return `None` (they are
    /// caught separately by the incomplete-queries check).
    pub(crate) fn scored_latency(&self) -> Option<Nanos> {
        if self.error {
            return self.completed_at.map(|_| Nanos::MAX);
        }
        self.latency()
    }
}

byte_layout! {
    /// A response payload kept for accuracy checking.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LoggedResponse {
        /// The sample's response id.
        pub sample_id: u64,
        /// The data-set index the sample referred to.
        pub sample_index: SampleIndex,
        /// The SUT's output.
        pub payload: ResponsePayload,
    }
}

byte_layout! {
    /// One still-outstanding query inside a [`RecorderSnapshot`]: enough to
    /// both restore the recorder's bookkeeping and re-issue the query itself
    /// after a resume.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OutstandingEntry {
        /// The query id.
        pub id: QueryId,
        /// Position of the query's record in [`RecorderSnapshot::records`].
        pub pos: usize,
        /// Sample `(response id, data-set index)` pairs, in issue order.
        pub samples: Vec<(u64, SampleIndex)>,
    }
}

byte_layout! {
    /// A serializable image of a [`Recorder`]'s complete state.
    ///
    /// This is what a run checkpoint carries: restoring it with
    /// [`Recorder::restore`] yields a recorder indistinguishable from the one
    /// snapshotted, and [`RecorderSnapshot::outstanding_queries`] rebuilds the
    /// in-flight [`Query`] values a resumed run must re-issue.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RecorderSnapshot {
        /// Every query record, in issue order.
        pub records: Vec<QueryRecord>,
        /// Outstanding queries, sorted by id (canonical byte order).
        pub outstanding: Vec<OutstandingEntry>,
        /// The accuracy log accumulated so far.
        pub accuracy_log: Vec<LoggedResponse>,
        /// Samples completed successfully.
        pub samples_completed: u64,
        /// Latest completion timestamp seen.
        pub last_completion: Nanos,
        /// Queries resolved as errors.
        pub errored: u64,
    }
}

impl RecorderSnapshot {
    /// Rebuilds the still-in-flight queries (id order) for re-issue after
    /// a resume.
    pub(crate) fn outstanding_queries(&self) -> Vec<Query> {
        self.outstanding
            .iter()
            .map(|e| Query {
                id: e.id,
                samples: self
                    .samples_of(e)
                    .map(|(sid, sindex)| crate::query::QuerySample {
                        id: sid,
                        index: sindex,
                    })
                    .collect(),
                scheduled_at: self.records[e.pos].scheduled_at,
                tenant: 0,
            })
            .collect()
    }

    fn samples_of<'a>(
        &self,
        e: &'a OutstandingEntry,
    ) -> impl Iterator<Item = (u64, SampleIndex)> + 'a {
        e.samples.iter().copied()
    }
}

/// Hashes a query id with one multiply by 2⁶⁴/φ. Ids are a run's
/// ordinals, not input an adversary picks, so SipHash's keyed rounds buy
/// nothing here; the multiply maps consecutive ids to distinct low bits
/// (the table's bucket) and spreads them over the high bits (its tag).
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An issued query's samples: `(response id, data-set index)` in order.
type Samples = Vec<(u64, SampleIndex)>;

/// Records issues and completions, enforcing the SUT protocol.
#[derive(Debug, Default)]
pub struct Recorder {
    records: Vec<QueryRecord>,
    // query id -> (position in records, its samples)
    outstanding: HashMap<QueryId, (usize, Samples), BuildHasherDefault<IdHasher>>,
    /// Emptied sample lists of completed queries, which the next issues
    /// refill instead of allocating their own.
    spare: Vec<Samples>,
    accuracy_log: Vec<LoggedResponse>,
    samples_completed: u64,
    last_completion: Nanos,
    errored: u64,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder that holds `queries` records, and `in_flight`
    /// outstanding queries of `samples` samples each, before it grows.
    pub(crate) fn with_capacity(queries: usize, in_flight: usize, samples: usize) -> Self {
        Self {
            records: Vec::with_capacity(queries),
            outstanding: HashMap::with_capacity_and_hasher(in_flight, Default::default()),
            spare: (0..in_flight)
                .map(|_| Vec::with_capacity(samples))
                .collect(),
            ..Self::default()
        }
    }

    /// How many records the store holds before it grows.
    pub(crate) fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Registers an issued query.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::SutProtocol`] on duplicate query ids.
    pub fn record_issue(&mut self, query: &Query, issued_at: Nanos) -> Result<(), LoadGenError> {
        let Entry::Vacant(slot) = self.outstanding.entry(query.id) else {
            return Err(LoadGenError::SutProtocol(format!(
                "query {} issued twice",
                query.id
            )));
        };
        let mut samples = self.spare.pop().unwrap_or_default();
        samples.extend(query.samples.iter().map(|s| (s.id, s.index)));
        let pos = self.records.len();
        slot.insert((pos, samples));
        self.records.push(QueryRecord {
            id: query.id,
            scheduled_at: query.scheduled_at,
            issued_at,
            completed_at: None,
            sample_count: query.sample_count(),
            skipped_intervals: 0,
            error: false,
        });
        Ok(())
    }

    /// Registers a completion, optionally logging payloads, and returns the
    /// query's scheduled-to-finished latency.
    ///
    /// `log_payload` decides per sample whether the payload lands in the
    /// accuracy log (always in accuracy mode, sampled in performance mode).
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::SutProtocol`] if the query is unknown or
    /// already complete, finishes before issue, or the per-sample response
    /// ids do not exactly echo the issued sample ids.
    pub fn record_completion<F: FnMut(u64) -> bool>(
        &mut self,
        completion: &QueryCompletion,
        mut log_payload: F,
    ) -> Result<Nanos, LoadGenError> {
        let (pos, mut samples) =
            self.outstanding
                .remove(&completion.query_id)
                .ok_or_else(|| {
                    LoadGenError::SutProtocol(format!(
                        "completion for unknown or already-completed query {}",
                        completion.query_id
                    ))
                })?;
        let record = &mut self.records[pos];
        if completion.finished_at < record.issued_at {
            return Err(LoadGenError::SutProtocol(format!(
                "query {} completed at {} before issue at {}",
                completion.query_id, completion.finished_at, record.issued_at
            )));
        }
        if completion.samples.len() != samples.len() {
            return Err(LoadGenError::SutProtocol(format!(
                "query {} returned {} sample completions, expected {}",
                completion.query_id,
                completion.samples.len(),
                samples.len()
            )));
        }
        for (sc, (sid, sindex)) in completion.samples.iter().zip(&samples) {
            if sc.sample_id != *sid {
                return Err(LoadGenError::SutProtocol(format!(
                    "query {} response sample id {} does not echo issued id {}",
                    completion.query_id, sc.sample_id, sid
                )));
            }
            // Errored completions echo sample ids but carry no usable
            // payload, so they never land in the accuracy log.
            if !completion.error && log_payload(*sid) {
                self.accuracy_log.push(LoggedResponse {
                    sample_id: *sid,
                    sample_index: *sindex,
                    payload: sc.payload.clone(),
                });
            }
        }
        record.completed_at = Some(completion.finished_at);
        record.error = completion.error;
        if completion.error {
            self.errored += 1;
        } else {
            self.samples_completed += samples.len() as u64;
        }
        samples.clear();
        self.spare.push(samples);
        self.last_completion = self.last_completion.max(completion.finished_at);
        Ok(completion.finished_at.saturating_sub(record.scheduled_at))
    }

    /// Attributes skipped intervals to a (completed) multistream query.
    ///
    /// Multistream query ids are their issue order, so the lookup is O(1)
    /// by position (a linear scan here turns a 270K-query overrun run into
    /// O(n²)); falls back to a scan if ids were assigned differently.
    pub(crate) fn record_skips(&mut self, query_id: QueryId, skips: u32) {
        let pos = query_id as usize;
        if let Some(r) = self.records.get_mut(pos).filter(|r| r.id == query_id) {
            r.skipped_intervals = skips;
            return;
        }
        if let Some(r) = self.records.iter_mut().find(|r| r.id == query_id) {
            r.skipped_intervals = skips;
        }
    }

    /// The accuracy log accumulated so far.
    pub(crate) fn accuracy_log(&self) -> &[LoggedResponse] {
        &self.accuracy_log
    }

    /// Consumes the recorder, returning records and accuracy log.
    pub(crate) fn into_parts(self) -> (Vec<QueryRecord>, Vec<LoggedResponse>) {
        (self.records, self.accuracy_log)
    }

    /// Number of queries still outstanding.
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Latest completion timestamp seen.
    pub(crate) fn last_completion(&self) -> Nanos {
        self.last_completion
    }

    /// Captures the recorder's state for a checkpoint, past the given
    /// journal high-water marks (`(0, 0)` captures all of it): `records`
    /// starts at `records_from` and `accuracy_log` at `accuracy_from`, so
    /// a delta checkpoint clones only what the last frame has not already
    /// made durable. Outstanding entries keep their
    /// absolute positions. `records_from` must be a stable prefix — no
    /// outstanding entry below it — which is exactly the mark a
    /// `RunJournal` keeps.
    pub(crate) fn snapshot_suffix(
        &self,
        records_from: usize,
        accuracy_from: usize,
    ) -> RecorderSnapshot {
        let mut outstanding: Vec<OutstandingEntry> = self
            .outstanding
            .iter()
            .map(|(id, (pos, samples))| OutstandingEntry {
                id: *id,
                pos: *pos,
                samples: samples.clone(),
            })
            .collect();
        outstanding.sort_by_key(|e| e.id);
        RecorderSnapshot {
            records: self.records[records_from.min(self.records.len())..].to_vec(),
            outstanding,
            accuracy_log: self.accuracy_log[accuracy_from.min(self.accuracy_log.len())..].to_vec(),
            samples_completed: self.samples_completed,
            last_completion: self.last_completion,
            errored: self.errored,
        }
    }

    /// Rebuilds a recorder from a checkpoint snapshot, its record store
    /// sized for at least `capacity` records. The result accepts
    /// completions for the snapshot's outstanding queries exactly as the
    /// original would have.
    pub(crate) fn restore(snapshot: RecorderSnapshot, capacity: usize) -> Self {
        let mut records = snapshot.records;
        records.reserve(capacity.saturating_sub(records.len()));
        Self {
            records,
            outstanding: snapshot
                .outstanding
                .into_iter()
                .map(|e| (e.id, (e.pos, e.samples)))
                .collect(),
            spare: Vec::new(),
            accuracy_log: snapshot.accuracy_log,
            samples_completed: snapshot.samples_completed,
            last_completion: snapshot.last_completion,
            errored: snapshot.errored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QuerySample, SampleCompletion};
    use mlperf_trace::bytes::ByteLayout;

    fn query(id: u64) -> Query {
        Query {
            id,
            samples: vec![QuerySample {
                id: id * 10,
                index: 3,
            }],
            scheduled_at: Nanos::from_micros(5),
            tenant: 0,
        }
    }

    fn completion(id: u64, at: Nanos) -> QueryCompletion {
        QueryCompletion::ok(
            id,
            at,
            vec![SampleCompletion {
                sample_id: id * 10,
                payload: ResponsePayload::Class(1),
            }],
        )
    }

    #[test]
    fn issue_complete_latency() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::from_micros(5)).unwrap();
        let latency = r
            .record_completion(&completion(1, Nanos::from_micros(25)), |_| false)
            .unwrap();
        assert_eq!(latency, Nanos::from_micros(20));
        assert_eq!(r.records[0].latency(), Some(Nanos::from_micros(20)));
        assert_eq!(r.samples_completed, 1);
        assert_eq!(r.outstanding(), 0);
    }

    #[test]
    fn duplicate_issue_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        assert!(r.record_issue(&query(1), Nanos::ZERO).is_err());
    }

    #[test]
    fn unknown_completion_rejected() {
        let mut r = Recorder::new();
        assert!(r
            .record_completion(&completion(9, Nanos::from_secs(1)), |_| false)
            .is_err());
    }

    #[test]
    fn double_completion_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        r.record_completion(&completion(1, Nanos::from_secs(1)), |_| false)
            .unwrap();
        assert!(r
            .record_completion(&completion(1, Nanos::from_secs(1)), |_| false)
            .is_err());
    }

    #[test]
    fn completion_before_issue_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::from_micros(100)).unwrap();
        assert!(r
            .record_completion(&completion(1, Nanos::from_micros(50)), |_| false)
            .is_err());
    }

    #[test]
    fn wrong_sample_id_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        let mut c = completion(1, Nanos::from_secs(1));
        c.samples[0].sample_id = 999;
        assert!(r.record_completion(&c, |_| false).is_err());
    }

    #[test]
    fn missing_samples_rejected() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        let mut c = completion(1, Nanos::from_secs(1));
        c.samples.clear();
        assert!(r.record_completion(&c, |_| false).is_err());
    }

    #[test]
    fn accuracy_log_respects_sampler() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        r.record_issue(&query(2), Nanos::ZERO).unwrap();
        r.record_completion(&completion(1, Nanos::from_secs(1)), |_| true)
            .unwrap();
        r.record_completion(&completion(2, Nanos::from_secs(1)), |_| false)
            .unwrap();
        assert_eq!(r.accuracy_log().len(), 1);
        assert_eq!(r.accuracy_log()[0].sample_index, 3);
        assert_eq!(r.accuracy_log()[0].payload, ResponsePayload::Class(1));
    }

    #[test]
    fn snapshot_restore_roundtrips_through_the_binary_codec() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::from_micros(5)).unwrap();
        r.record_issue(&query(2), Nanos::from_micros(7)).unwrap();
        r.record_issue(&query(3), Nanos::from_micros(9)).unwrap();
        r.record_completion(&completion(2, Nanos::from_micros(30)), |_| true)
            .unwrap();
        let snap = r.snapshot_suffix(0, 0);
        assert_eq!(snap.outstanding.len(), 2);
        assert_eq!(snap.outstanding[0].id, 1);
        let back = RecorderSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back, snap);

        // The restored recorder behaves exactly like the original: known
        // outstanding queries complete, completed ones reject.
        let mut restored = Recorder::restore(back, 0);
        assert_eq!(restored.records.len(), 3);
        assert_eq!(restored.outstanding(), 2);
        assert_eq!(restored.samples_completed, 1);
        assert!(restored
            .record_completion(&completion(2, Nanos::from_secs(1)), |_| false)
            .is_err());
        restored
            .record_completion(&completion(1, Nanos::from_micros(40)), |_| false)
            .unwrap();
        assert_eq!(restored.outstanding(), 1);
    }

    #[test]
    fn snapshot_rebuilds_outstanding_queries() {
        let mut r = Recorder::new();
        r.record_issue(&query(4), Nanos::from_micros(5)).unwrap();
        let qs = r.snapshot_suffix(0, 0).outstanding_queries();
        assert_eq!(qs.len(), 1);
        assert_eq!(qs[0].id, 4);
        assert_eq!(qs[0].scheduled_at, Nanos::from_micros(5));
        assert_eq!(qs[0].samples, query(4).samples);
    }

    #[test]
    fn skips_attributed() {
        let mut r = Recorder::new();
        r.record_issue(&query(1), Nanos::ZERO).unwrap();
        r.record_skips(1, 3);
        assert_eq!(r.records[0].skipped_intervals, 3);
    }
}
