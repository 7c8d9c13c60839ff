//! Timing decorators around the system's public trait seams, and the
//! zero-service-time SUT the wire workloads serve.
//!
//! Each decorator forwards to the wrapped value unchanged and records one
//! [`Span`] per call. Clock reads sit directly around the forwarded call,
//! so a decorator's own bookkeeping is charged to its parent span, never
//! to the layer it measures.

use crate::span::{query_span_id, Span, SpanLog, NO_QUERY};
use crate::summary::Fnv;
use mlperf_loadgen::qsl::QuerySampleLibrary;
use mlperf_loadgen::query::{Query, ResponsePayload, SampleCompletion, SampleIndex};
use mlperf_loadgen::sut::{IssueOutcome, RealtimeSut, SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use mlperf_trace::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Spans every call into a [`SimSut`].
pub struct TimedSimSut<'a, S: SimSut + ?Sized> {
    inner: &'a mut S,
    log: &'a SpanLog,
    parent: u64,
}

impl<'a, S: SimSut + ?Sized> TimedSimSut<'a, S> {
    /// Wraps `inner`; spans are children of `parent`.
    pub fn new(inner: &'a mut S, log: &'a SpanLog, parent: u64) -> Self {
        TimedSimSut { inner, log, parent }
    }

    fn span(&self, name: &'static str, query: u64, start_ns: u64, end_ns: u64) {
        self.log.record(Span {
            id: self.log.next_id(),
            parent: self.parent,
            name,
            query,
            start_ns,
            end_ns,
        });
    }
}

impl<S: SimSut + ?Sized> SimSut for TimedSimSut<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        let start = self.log.now_ns();
        let reaction = self.inner.on_query(now, query);
        let end = self.log.now_ns();
        self.span("sut.on_query", query.id, start, end);
        reaction
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        let start = self.log.now_ns();
        let reaction = self.inner.on_wakeup(now);
        let end = self.log.now_ns();
        self.span("sut.on_wakeup", NO_QUERY, start, end);
        reaction
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Spans the (untimed-by-rule, but host-costly) sample loads and unloads.
pub struct TimedQsl<'a, Q: QuerySampleLibrary + ?Sized> {
    inner: &'a mut Q,
    log: &'a SpanLog,
    parent: u64,
}

impl<'a, Q: QuerySampleLibrary + ?Sized> TimedQsl<'a, Q> {
    /// Wraps `inner`; spans are children of `parent`.
    pub fn new(inner: &'a mut Q, log: &'a SpanLog, parent: u64) -> Self {
        TimedQsl { inner, log, parent }
    }
}

impl<Q: QuerySampleLibrary + ?Sized> QuerySampleLibrary for TimedQsl<'_, Q> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn total_sample_count(&self) -> usize {
        self.inner.total_sample_count()
    }

    fn performance_sample_count(&self) -> usize {
        self.inner.performance_sample_count()
    }

    fn load_samples(&mut self, indices: &[SampleIndex]) {
        let (log, parent, inner) = (self.log, self.parent, &mut *self.inner);
        log.time("qsl.load_samples", parent, |_| inner.load_samples(indices));
    }

    fn unload_samples(&mut self, indices: &[SampleIndex]) {
        let (log, parent, inner) = (self.log, self.parent, &mut *self.inner);
        log.time("qsl.unload_samples", parent, |_| {
            inner.unload_samples(indices)
        });
    }
}

/// Spans every event a run hands its trace sink.
pub struct TimedSink<'a> {
    inner: &'a dyn TraceSink,
    log: &'a SpanLog,
    parent: u64,
}

impl<'a> TimedSink<'a> {
    /// Wraps `inner`; spans are children of `parent`.
    pub fn new(inner: &'a dyn TraceSink, log: &'a SpanLog, parent: u64) -> Self {
        TimedSink { inner, log, parent }
    }
}

impl TraceSink for TimedSink<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, ts_ns: u64, event: &TraceEvent) {
        let start = self.log.now_ns();
        self.inner.record(ts_ns, event);
        let end = self.log.now_ns();
        self.log.record(Span {
            id: self.log.next_id(),
            parent: self.parent,
            name: "sink.record",
            query: NO_QUERY,
            start_ns: start,
            end_ns: end,
        });
    }

    fn flush(&self) {
        self.log
            .time("sink.flush", self.parent, |_| self.inner.flush());
    }
}

/// Where a [`TimedRealtimeSut`]'s spans hang in the tree.
#[derive(Debug, Clone, Copy)]
pub enum Parent {
    /// Under one fixed span (the run's root).
    Span(u64),
    /// Under the same query's span of the decorator at this level.
    Level(u8),
}

/// Spans every query through a [`RealtimeSut`].
pub struct TimedRealtimeSut {
    inner: Arc<dyn RealtimeSut>,
    log: Arc<SpanLog>,
    name: &'static str,
    level: u8,
    parent: Parent,
}

impl TimedRealtimeSut {
    /// Wraps `inner`; every query's span gets the id
    /// [`query_span_id`]`(level, query.id)`.
    pub fn new(
        inner: Arc<dyn RealtimeSut>,
        log: Arc<SpanLog>,
        name: &'static str,
        level: u8,
        parent: Parent,
    ) -> Self {
        TimedRealtimeSut {
            inner,
            log,
            name,
            level,
            parent,
        }
    }
}

impl RealtimeSut for TimedRealtimeSut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
        self.inner.issue(query)
    }

    // The realtime loop, the shard router and the daemon all call this
    // entry point, so it is the one that is spanned.
    fn issue_outcome(&self, query: &Query) -> IssueOutcome {
        let start = self.log.now_ns();
        let outcome = self.inner.issue_outcome(query);
        let end = self.log.now_ns();
        self.log.record(Span {
            id: query_span_id(self.level, query.id),
            parent: match self.parent {
                Parent::Span(id) => id,
                Parent::Level(level) => query_span_id(level, query.id),
            },
            name: self.name,
            query: query.id,
            start_ns: start,
            end_ns: end,
        });
        outcome
    }
}

/// A SUT with zero service time: it echoes every sample id at once, with
/// a class payload so completions carry the bytes a classifier's would.
/// Served over the wire, the latency the LoadGen records against it *is*
/// the overhead the LoadGen and the wire add to a measurement.
///
/// It also keeps a digest of what it was asked: the sum of one FNV-1a
/// hash per query over (query id, sample ids, sample indices). A sum
/// does not depend on the order two workers served in, so the same seed
/// gives the same digest on every run.
#[derive(Debug, Default)]
pub struct EchoSut {
    digest: AtomicU64,
}

impl EchoSut {
    /// The digest of every query served so far.
    pub fn digest(&self) -> u64 {
        self.digest.load(Ordering::SeqCst)
    }
}

/// FNV-1a over one query's logical content.
pub fn query_hash(query: &Query) -> u64 {
    let mut h = Fnv::new();
    h.u64(query.id);
    for s in &query.samples {
        h.u64(s.id);
        h.u64(s.index as u64);
    }
    h.finish()
}

impl RealtimeSut for EchoSut {
    fn name(&self) -> &str {
        "echo"
    }

    fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
        // A statistic: nothing else is published through it, and it is
        // read only after the serving threads are joined.
        self.digest.fetch_add(query_hash(query), Ordering::Relaxed);
        query
            .samples
            .iter()
            .map(|s| SampleCompletion {
                sample_id: s.id,
                payload: ResponsePayload::Class(s.index % 1_000),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{self_times, NO_PARENT};
    use mlperf_loadgen::config::TestSettings;
    use mlperf_loadgen::des::run_simulated;
    use mlperf_loadgen::qsl::MemoryQsl;
    use mlperf_loadgen::query::QuerySample;
    use mlperf_loadgen::sut::FixedLatencySut;

    fn query(id: u64, samples: usize) -> Query {
        Query {
            id,
            samples: (0..samples)
                .map(|i| QuerySample {
                    id: id * 1_000 + i as u64,
                    index: 7 * i + 1_003,
                })
                .collect(),
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    #[test]
    fn echo_sut_echoes_every_sample_id() {
        for samples in [1, 8, 256] {
            let q = query(5, samples);
            let out = EchoSut::default().issue(&q);
            let echoed: Vec<u64> = out.iter().map(|c| c.sample_id).collect();
            let sent: Vec<u64> = q.samples.iter().map(|s| s.id).collect();
            assert_eq!(echoed, sent);
            assert!(out.iter().all(|c| !c.payload.is_empty()));
        }
        assert_eq!(
            EchoSut::default().issue(&query(0, 1))[0].payload,
            ResponsePayload::Class(3)
        );
    }

    #[test]
    fn echo_digest_ignores_service_order() {
        let (a, b) = (EchoSut::default(), EchoSut::default());
        for id in [1, 2, 3] {
            a.issue(&query(id, 2));
        }
        for id in [3, 1, 2] {
            b.issue(&query(id, 2));
        }
        assert_eq!(a.digest(), b.digest());
        b.issue(&query(4, 2));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn sim_decorators_change_nothing_and_account_for_the_run() {
        let settings = TestSettings::server(10_000.0, Nanos::from_millis(10))
            .with_min_query_count(500)
            .with_min_duration(Nanos::from_micros(1));
        let plain = run_simulated(
            &settings,
            &mut MemoryQsl::new("q", 64, 64),
            &mut FixedLatencySut::new("s", Nanos::from_micros(50)),
        )
        .unwrap();

        let log = SpanLog::new();
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let timed = log.time("run", NO_PARENT, |root| {
            run_simulated(
                &settings,
                &mut TimedQsl::new(&mut qsl, &log, root),
                &mut TimedSimSut::new(&mut sut, &log, root),
            )
            .unwrap()
        });
        assert_eq!(timed.records, plain.records);

        let layers = log.drain(self_times);
        assert_eq!(layers["sut.on_query"].calls, plain.records.len() as u64);
        assert_eq!(layers["qsl.load_samples"].calls, 1);
        assert_eq!(layers["qsl.unload_samples"].calls, 1);
        // One tree: self times add up to the root's duration exactly.
        let sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, layers["run"].total_ns);
    }

    #[test]
    fn realtime_decorators_nest_by_level() {
        let log = Arc::new(SpanLog::new());
        let inner = Arc::new(TimedRealtimeSut::new(
            Arc::new(EchoSut::default()),
            Arc::clone(&log),
            "inner",
            1,
            Parent::Level(0),
        ));
        let outer =
            TimedRealtimeSut::new(inner, Arc::clone(&log), "outer", 0, Parent::Span(NO_PARENT));
        for id in 0..3 {
            assert!(matches!(
                outer.issue_outcome(&query(id, 2)),
                IssueOutcome::Completed(s) if s.len() == 2
            ));
        }
        let layers = log.drain(|spans| {
            assert_eq!(spans.len(), 6);
            for s in spans.iter().filter(|s| s.name == "inner") {
                assert_eq!(s.parent, query_span_id(0, s.query));
            }
            self_times(spans)
        });
        assert_eq!(
            layers["outer"].self_ns,
            layers["outer"].total_ns - layers["inner"].total_ns
        );
    }
}
