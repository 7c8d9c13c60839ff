//! The simulated execution engine.

use crate::device::DeviceSpec;
use mlperf_loadgen::query::{Query, QueryCompletion, ResponsePayload, SampleCompletion};
use mlperf_loadgen::sut::{SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use mlperf_models::Workload;
use mlperf_stats::Rng64;
use mlperf_trace::{profile_span, MetricsRegistry, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::mem::take;
use std::sync::Arc;

/// Produces a per-sample accuracy payload (see
/// [`crate::proxy_sut`] for proxy-backed providers).
pub(crate) type PayloadFn = Arc<dyn Fn(usize) -> ResponsePayload + Send + Sync>;

/// Per-query response-handling cost paid by the online (batched) path:
/// every server query gets its own completion callback, while an offline
/// run answers one giant query for the whole data set. This keeps server
/// throughput strictly below offline even on devices that saturate at the
/// server's feasible batch size.
const RESPONSE_HANDLING: Nanos = Nanos::from_micros(2);

/// How the engine forms batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Execute each query on arrival, chunked to the device's `max_batch`.
    /// The right policy for single-stream, multistream, and offline.
    Immediate,
    /// Accumulate queries until `max_batch` samples are queued or the
    /// oldest query has waited `timeout` — the server-scenario dynamic
    /// batcher. "Most inference systems require a minimum batch size to
    /// fully utilize the underlying computational resources ... so they
    /// must optimize for tail latency and potentially process inferences
    /// with a suboptimal batch size" (Section III-C). `max_batch` is the
    /// *policy* target (chosen to fit the latency budget), bounded by the
    /// device's memory limit.
    DynamicBatch {
        /// Longest a query may wait for batch-mates.
        timeout: Nanos,
        /// Samples per dispatched batch.
        max_batch: usize,
    },
}

/// A query waiting in the dynamic batcher; its samples wait in
/// [`DeviceSut`]'s `queued_samples`, in arrival order.
#[derive(Debug, Clone)]
struct Pending {
    query_id: u64,
    arrival: Nanos,
    samples: usize,
}

fn payload(payloads: &Option<PayloadFn>, index: usize) -> ResponsePayload {
    match payloads {
        Some(f) => f(index),
        None => ResponsePayload::Empty,
    }
}

/// A [`SimSut`] over a [`DeviceSpec`] and a task [`Workload`].
///
/// For variable-cost workloads (GNMT), a batch pays the *padded* cost —
/// `batch_size × max(sample cost)` — the way RNN batching pads to the
/// longest sequence. With [`DeviceSut::with_length_sorting`] the engine
/// sorts each query's samples by cost before chunking, an "arbitrary data
/// arrangement" legal under the rules and effective only when all the data
/// is available up front (offline); the FIFO dynamic batcher cannot sort,
/// which is precisely why NMT loses the most throughput in the server
/// scenario (Figure 6, Section VI-B).
pub struct DeviceSut {
    spec: DeviceSpec,
    workload: Workload,
    policy: BatchPolicy,
    length_sorting: bool,
    payloads: Option<PayloadFn>,
    seed: u64,
    rng: Rng64,
    busy_until: Vec<Nanos>,
    queue: VecDeque<Pending>,
    /// `(response id, data-set index)` of every queued query's samples,
    /// oldest query first.
    queued_samples: VecDeque<(u64, usize)>,
    /// Scratch buffers every query reuses: the immediate path's sample
    /// order, a dispatched chunk's data-set indices, and the queries one
    /// drain of the batcher dispatched, with their finish times.
    order: Vec<usize>,
    indices: Vec<usize>,
    drained: Vec<(Pending, Nanos)>,
    mean_ops: f64,
    armed_wakeup: Option<Nanos>,
    trace: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    last_dvfs_milli: Vec<Option<u32>>,
}

impl std::fmt::Debug for DeviceSut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSut")
            .field("spec", &self.spec)
            .field("policy", &self.policy)
            .field("queue_len", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl DeviceSut {
    /// Creates an engine for `spec` running `workload` under `policy`.
    pub fn new(spec: DeviceSpec, workload: Workload, policy: BatchPolicy) -> Self {
        let seed = 0x5d5d_0001;
        let mean_ops = workload.mean_ops(1_024);
        Self {
            busy_until: vec![Nanos::ZERO; spec.units],
            last_dvfs_milli: vec![None; spec.units],
            rng: Rng64::new(seed),
            seed,
            spec,
            workload,
            policy,
            length_sorting: false,
            payloads: None,
            queue: VecDeque::new(),
            queued_samples: VecDeque::new(),
            order: Vec::new(),
            indices: Vec::new(),
            drained: Vec::new(),
            mean_ops,
            armed_wakeup: None,
            trace: None,
            metrics: None,
        }
    }

    /// Chunk size minimizing the estimated makespan of an `n`-sample query
    /// over the available units: small chunks parallelize a multistream
    /// query across accelerators; huge offline queries converge to full
    /// batches automatically.
    fn best_chunk(&self, n: usize) -> usize {
        if n <= 1 {
            return 1;
        }
        let units = self.spec.units;
        let mut best = (f64::INFINITY, 1usize);
        let mut c = 1usize;
        while c <= self.spec.max_batch {
            let dispatches = n.div_ceil(c);
            let rounds = dispatches.div_ceil(units);
            let span = rounds as f64
                * self
                    .spec
                    .batch1_latency(self.mean_ops * c.min(n) as f64)
                    .as_secs_f64();
            if span < best.0 {
                best = (span, c);
            }
            if c == self.spec.max_batch {
                break;
            }
            c = (c * 2).min(self.spec.max_batch);
        }
        best.1
    }

    /// Enables sorting a query's samples by cost before chunking (offline
    /// optimization; no effect on fixed-cost workloads).
    pub fn with_length_sorting(mut self) -> Self {
        self.length_sorting = true;
        self
    }

    /// Attaches an accuracy-payload provider.
    pub fn with_payloads(mut self, payloads: PayloadFn) -> Self {
        self.payloads = Some(payloads);
        self
    }

    /// Attaches a trace sink: every dispatch emits a
    /// [`TraceEvent::BatchFormed`] on its execution unit's timeline, and a
    /// [`TraceEvent::DvfsStateChange`] whenever a unit's thermal throughput
    /// multiplier (quantized to 1/1000ths) moves — the device-side half of
    /// the detail log.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attaches a metrics registry: every dispatch bumps `batches_formed`
    /// and `batched_samples`, observes `batch_service_ns`, and mirrors the
    /// most recent thermal multiplier into the `dvfs_multiplier_milli`
    /// gauge. Share the registry with the LoadGen run (via
    /// `Instruments::with_metrics`) and its snapshot holds device state
    /// alongside query state; the DVFS state over time is the
    /// `DvfsStateChange` events of the detail log ([`DeviceSut::with_trace`]).
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Overrides the jitter RNG seed (distinct fleet systems use distinct
    /// seeds so their jitter is uncorrelated).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.rng = Rng64::new(seed);
        self
    }

    /// Earliest-free execution unit.
    fn pick_unit(&self) -> usize {
        self.busy_until
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("at least one unit")
    }

    /// Dispatches `count` samples with a given padded/summed cost on the
    /// best unit; returns the finish time.
    fn dispatch_batch(&mut self, now: Nanos, ops: f64, count: usize) -> Nanos {
        self.dispatch_batch_taxed(now, ops, count, Nanos::ZERO)
    }

    /// [`DeviceSut::dispatch_batch`] plus a fixed extra occupancy (the
    /// online path's per-query response handling).
    fn dispatch_batch_taxed(&mut self, now: Nanos, ops: f64, count: usize, tax: Nanos) -> Nanos {
        profile_span!("sut/dispatch_batch");
        let unit = self.pick_unit();
        let start = now.max(self.busy_until[unit]);
        let service = self.spec.service_time(ops, count, start, &mut self.rng);
        let finish = start + service + tax;
        self.busy_until[unit] = finish;
        let sink_enabled = self.trace.as_deref().is_some_and(|s| s.enabled());
        if sink_enabled || self.metrics.is_some() {
            if let Some(thermal) = self.spec.thermal {
                let milli = (thermal.multiplier(start) * 1_000.0).round() as u32;
                if let Some(m) = self.metrics.as_deref() {
                    m.set_gauge("dvfs_multiplier_milli", f64::from(milli));
                }
                if sink_enabled && self.last_dvfs_milli[unit] != Some(milli) {
                    self.last_dvfs_milli[unit] = Some(milli);
                    self.trace.as_deref().expect("sink_enabled").record(
                        start.as_nanos(),
                        &TraceEvent::DvfsStateChange {
                            unit,
                            multiplier_milli: milli,
                        },
                    );
                }
            }
            if let Some(m) = self.metrics.as_deref() {
                m.incr("batches_formed", 1);
                m.incr("batched_samples", count as u64);
                m.observe("batch_service_ns", (service + tax).as_nanos());
            }
            if sink_enabled {
                self.trace.as_deref().expect("sink_enabled").record(
                    start.as_nanos(),
                    &TraceEvent::BatchFormed {
                        unit,
                        batch_size: count,
                        service_ns: (service + tax).as_nanos(),
                    },
                );
            }
        }
        finish
    }

    /// Cost of a chunk of sample indices, with padding for variable loads.
    fn chunk_ops(&self, indices: &[usize]) -> f64 {
        let workload = &self.workload;
        if workload.is_variable() {
            let max = indices
                .iter()
                .map(|i| workload.ops_for_sample(*i))
                .fold(0.0f64, f64::max);
            max * indices.len() as f64
        } else {
            indices.iter().map(|i| workload.ops_for_sample(*i)).sum()
        }
    }

    /// Runs a whole query immediately, chunked across units.
    fn run_immediate(&mut self, now: Nanos, query: &Query) -> QueryCompletion {
        profile_span!("sut/run_immediate");
        let (mut order, mut indices) = (take(&mut self.order), take(&mut self.indices));
        order.clear();
        order.extend(0..query.samples.len());
        let workload = &self.workload;
        if self.length_sorting && workload.is_variable() {
            order.sort_by(|a, b| {
                let ca = workload.ops_for_sample(query.samples[*a].index);
                let cb = workload.ops_for_sample(query.samples[*b].index);
                ca.partial_cmp(&cb).expect("finite costs")
            });
        }
        let mut finish = now;
        let chunk_size = self.best_chunk(order.len());
        for chunk in order.chunks(chunk_size) {
            indices.clear();
            indices.extend(chunk.iter().map(|i| query.samples[*i].index));
            let ops = self.chunk_ops(&indices);
            let done = self.dispatch_batch(now, ops, indices.len());
            finish = finish.max(done);
        }
        (self.order, self.indices) = (order, indices);
        let payloads = &self.payloads;
        QueryCompletion::ok(
            query.id,
            finish,
            query
                .samples
                .iter()
                .map(|s| SampleCompletion {
                    sample_id: s.id,
                    payload: payload(payloads, s.index),
                })
                .collect(),
        )
    }

    /// Drains full batches (and, when `force_due`, everything whose timeout
    /// has expired); returns completions and the next wakeup needed.
    fn drain_queue(
        &mut self,
        now: Nanos,
        timeout: Nanos,
        target_batch: usize,
        force_due: bool,
    ) -> SutReaction {
        profile_span!("sut/drain_queue");
        let target_batch = target_batch.min(self.spec.max_batch).max(1);
        let (mut drained, mut indices) = (take(&mut self.drained), take(&mut self.indices));
        // Samples at the front of `queued_samples` that this drain has
        // dispatched; they leave the queue with their completions.
        let mut dispatched = 0;
        loop {
            let waiting = self.queued_samples.len() - dispatched;
            let full = waiting >= target_batch;
            let due = force_due
                && self
                    .queue
                    .front()
                    .is_some_and(|p| p.arrival + timeout <= now);
            if !(full || due) {
                break;
            }
            // Pop queries until max_batch samples are gathered.
            let first = drained.len();
            let mut samples = 0usize;
            while let Some(front) = self.queue.front() {
                let next = front.samples;
                if drained.len() > first && samples + next > target_batch {
                    break;
                }
                samples += next;
                let pending = self.queue.pop_front().expect("front exists");
                drained.push((pending, Nanos::ZERO));
                if samples >= target_batch {
                    break;
                }
            }
            indices.clear();
            let batch = self.queued_samples.range(dispatched..dispatched + samples);
            indices.extend(batch.map(|(_, idx)| *idx));
            dispatched += samples;
            let ops = self.chunk_ops(&indices);
            // Per-query response handling (see RESPONSE_HANDLING).
            let tax = RESPONSE_HANDLING.mul((drained.len() - first) as u64);
            let finish = self.dispatch_batch_taxed(now, ops, indices.len(), tax);
            for (_, at) in &mut drained[first..] {
                *at = finish;
            }
        }
        // One `Vec` per reaction that completes anything, sized exactly.
        let payloads = &self.payloads;
        let mut samples = self.queued_samples.drain(..dispatched);
        let completions = drained.drain(..).map(|(pending, finish)| {
            let samples = samples.by_ref().take(pending.samples);
            let samples = samples.map(|(sample_id, idx)| SampleCompletion {
                sample_id,
                payload: payload(payloads, idx),
            });
            QueryCompletion::ok(pending.query_id, finish, samples.collect())
        });
        let mut reaction = SutReaction {
            completions: completions.collect(),
            wakeup_at: None,
        };
        drop(samples);
        (self.drained, self.indices) = (drained, indices);
        if let Some(front) = self.queue.front() {
            let needed = (front.arrival + timeout).max(now);
            // Deduplicate: re-requesting a wakeup on every drain floods the
            // event queue at overload (each firing re-arms, lineages
            // multiply). Only emit when no armed wakeup already covers the
            // needed time.
            let covered = self
                .armed_wakeup
                .is_some_and(|armed| armed >= now && armed <= needed);
            if !covered {
                self.armed_wakeup = Some(needed);
                reaction.wakeup_at = Some(needed);
            }
        }
        reaction
    }
}

impl SimSut for DeviceSut {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        match self.policy {
            BatchPolicy::Immediate => SutReaction::complete(self.run_immediate(now, query)),
            BatchPolicy::DynamicBatch { timeout, max_batch } => {
                let samples = query.samples.iter().map(|s| (s.id, s.index));
                self.queued_samples.extend(samples);
                self.queue.push_back(Pending {
                    query_id: query.id,
                    arrival: now,
                    samples: query.samples.len(),
                });
                self.drain_queue(now, timeout, max_batch, false)
            }
        }
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        if self.armed_wakeup.is_some_and(|armed| armed <= now) {
            self.armed_wakeup = None;
        }
        match self.policy {
            BatchPolicy::Immediate => SutReaction::none(),
            BatchPolicy::DynamicBatch { timeout, max_batch } => {
                self.drain_queue(now, timeout, max_batch, true)
            }
        }
    }

    fn reset(&mut self) {
        self.busy_until = vec![Nanos::ZERO; self.spec.units];
        self.last_dvfs_milli = vec![None; self.spec.units];
        self.queue.clear();
        self.queued_samples.clear();
        self.armed_wakeup = None;
        self.rng = Rng64::new(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Architecture;
    use mlperf_loadgen::config::TestSettings;
    use mlperf_loadgen::des::run_simulated;
    use mlperf_loadgen::qsl::MemoryQsl;
    use mlperf_loadgen::query::QuerySample;
    use mlperf_loadgen::results::ScenarioMetric;
    use mlperf_models::TaskId;

    fn spec(units: usize, max_batch: usize) -> DeviceSpec {
        DeviceSpec::new(
            "engine-test",
            Architecture::Gpu,
            100.0,
            2.0,
            max_batch,
            units,
            Nanos::from_micros(50),
        )
    }

    fn query(id: u64, n: usize) -> Query {
        Query {
            id,
            samples: (0..n)
                .map(|i| QuerySample {
                    id: id * 1000 + i as u64,
                    index: i,
                })
                .collect(),
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    #[test]
    fn immediate_single_sample() {
        let mut sut = DeviceSut::new(
            spec(1, 8),
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::Immediate,
        );
        let r = sut.on_query(Nanos::ZERO, &query(0, 1));
        assert_eq!(r.completions.len(), 1);
        assert!(r.completions[0].finished_at > Nanos::ZERO);
        assert!(r.wakeup_at.is_none());
    }

    #[test]
    fn immediate_chunks_across_units() {
        // 2 units, max batch 4: an 8-sample query splits into 2 parallel
        // chunks and finishes in about half the single-unit time.
        let single = {
            let mut sut = DeviceSut::new(
                spec(1, 4),
                Workload::new(TaskId::ImageClassificationHeavy),
                BatchPolicy::Immediate,
            );
            sut.on_query(Nanos::ZERO, &query(0, 8)).completions[0].finished_at
        };
        let dual = {
            let mut sut = DeviceSut::new(
                spec(2, 4),
                Workload::new(TaskId::ImageClassificationHeavy),
                BatchPolicy::Immediate,
            );
            sut.on_query(Nanos::ZERO, &query(0, 8)).completions[0].finished_at
        };
        assert!(
            dual.as_nanos() * 10 < single.as_nanos() * 7,
            "parallel {dual} vs serial {single}"
        );
    }

    #[test]
    fn dynamic_batcher_waits_for_timeout() {
        let mut sut = DeviceSut::new(
            spec(1, 8),
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::DynamicBatch {
                timeout: Nanos::from_millis(2),
                max_batch: 8,
            },
        );
        // One query: no completion yet, wakeup armed at arrival+timeout.
        let r = sut.on_query(Nanos::from_millis(1), &query(0, 1));
        assert!(r.completions.is_empty());
        assert_eq!(r.wakeup_at, Some(Nanos::from_millis(3)));
        // Spurious early wakeup: nothing dispatches and no *new* wakeup is
        // emitted — the 3 ms one armed at arrival is still pending.
        let r = sut.on_wakeup(Nanos::from_millis(2));
        assert!(r.completions.is_empty());
        assert_eq!(r.wakeup_at, None);
        // Due wakeup: dispatches.
        let r = sut.on_wakeup(Nanos::from_millis(3));
        assert_eq!(r.completions.len(), 1);
        assert!(r.wakeup_at.is_none());
    }

    #[test]
    fn dynamic_batcher_dispatches_on_full_batch() {
        let mut sut = DeviceSut::new(
            spec(1, 4),
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::DynamicBatch {
                timeout: Nanos::from_millis(100),
                max_batch: 4,
            },
        );
        for i in 0..3 {
            let r = sut.on_query(Nanos::from_micros(i), &query(i, 1));
            assert!(r.completions.is_empty(), "batch not full yet");
        }
        let r = sut.on_query(Nanos::from_micros(3), &query(3, 1));
        assert_eq!(r.completions.len(), 4, "full batch dispatches immediately");
        // All four complete at the same time (one batch).
        let t = r.completions[0].finished_at;
        assert!(r.completions.iter().all(|c| c.finished_at == t));
    }

    #[test]
    fn batched_dispatch_is_cheaper_per_sample() {
        // 4 singles dispatched separately vs one batch of 4.
        let w = Workload::new(TaskId::ImageClassificationHeavy);
        let mut serial = DeviceSut::new(spec(1, 4), w.clone(), BatchPolicy::Immediate);
        let mut t_serial = Nanos::ZERO;
        for i in 0..4 {
            t_serial = serial.on_query(Nanos::ZERO, &query(i, 1)).completions[0].finished_at;
        }
        let mut batched = DeviceSut::new(spec(1, 4), w, BatchPolicy::Immediate);
        let t_batch = batched.on_query(Nanos::ZERO, &query(0, 4)).completions[0].finished_at;
        assert!(t_batch < t_serial, "{t_batch} vs {t_serial}");
    }

    #[test]
    fn variable_workload_pays_padding_unless_sorted() {
        let w = Workload::new(TaskId::MachineTranslation);
        let q = query(0, 64);
        let unsorted = DeviceSut::new(spec(1, 8), w.clone(), BatchPolicy::Immediate)
            .on_query(Nanos::ZERO, &q)
            .completions[0]
            .finished_at;
        let sorted = DeviceSut::new(spec(1, 8), w, BatchPolicy::Immediate)
            .with_length_sorting()
            .on_query(Nanos::ZERO, &q)
            .completions[0]
            .finished_at;
        assert!(
            sorted < unsorted,
            "length sorting should reduce padding: {sorted} vs {unsorted}"
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut sut = DeviceSut::new(
            spec(1, 8),
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::Immediate,
        )
        .with_seed(7);
        let t1 = sut.on_query(Nanos::ZERO, &query(0, 4)).completions[0].finished_at;
        sut.reset();
        let t2 = sut.on_query(Nanos::ZERO, &query(0, 4)).completions[0].finished_at;
        assert_eq!(t1, t2);
    }

    #[test]
    fn trace_sink_sees_batches_and_dvfs_changes() {
        use crate::device::ThermalModel;
        use mlperf_trace::RingBufferSink;
        let sink = Arc::new(RingBufferSink::unbounded());
        let spec = spec(1, 8).with_thermal(ThermalModel {
            boost: 1.5,
            decay_secs: 1.0,
        });
        let mut sut = DeviceSut::new(
            spec,
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::Immediate,
        )
        .with_trace(sink.clone());
        // Three dispatches spread over decaying-boost time: one BatchFormed
        // each, and a DvfsStateChange whenever the quantized multiplier moves.
        for (i, at) in [Nanos::ZERO, Nanos::from_secs(1), Nanos::from_secs(2)]
            .into_iter()
            .enumerate()
        {
            sut.on_query(at, &query(i as u64, 4));
        }
        let records = sink.snapshot();
        let batches: Vec<_> = records
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::BatchFormed {
                    batch_size,
                    service_ns,
                    unit,
                } => Some((*unit, *batch_size, *service_ns, r.ts_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), 3);
        for (unit, batch_size, service_ns, _) in &batches {
            assert_eq!(*unit, 0);
            assert_eq!(*batch_size, 4);
            assert!(*service_ns > 0);
        }
        let dvfs: Vec<u32> = records
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::DvfsStateChange {
                    multiplier_milli, ..
                } => Some(*multiplier_milli),
                _ => None,
            })
            .collect();
        assert!(
            dvfs.len() >= 2,
            "boost decay across seconds must change the quantized multiplier"
        );
        assert_eq!(dvfs[0], 1_500, "cold start emits the full boost");
        assert!(
            dvfs.windows(2).all(|w| w[0] != w[1]),
            "only changes are emitted"
        );
    }

    #[test]
    fn trace_sink_silent_without_thermal_model_dvfs() {
        use mlperf_trace::RingBufferSink;
        let sink = Arc::new(RingBufferSink::unbounded());
        let mut sut = DeviceSut::new(
            spec(2, 8),
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::Immediate,
        )
        .with_trace(sink.clone());
        sut.on_query(Nanos::ZERO, &query(0, 2));
        let records = sink.snapshot();
        assert!(records
            .iter()
            .all(|r| matches!(r.event, TraceEvent::BatchFormed { .. })));
        assert!(!records.is_empty());
    }

    #[test]
    fn full_single_stream_run_through_loadgen() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(100)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = DeviceSut::new(
            spec(1, 8),
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::Immediate,
        );
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
    }

    #[test]
    fn overloaded_server_run_terminates_within_event_budget() {
        // Regression: wakeup storms at overload once exhausted the DES
        // event budget (each drain re-armed a wakeup; lineages multiplied).
        // An over-capacity run must complete and simply be INVALID.
        let slow = DeviceSpec::new(
            "overloaded",
            Architecture::Gpu,
            200.0,
            2.0,
            32,
            1,
            Nanos::from_micros(100),
        );
        let mut sut = DeviceSut::new(
            slow,
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::DynamicBatch {
                timeout: Nanos::from_millis(2),
                max_batch: 32,
            },
        );
        // ~176 sps capacity, hammered at 5,000 qps for 2 simulated seconds.
        let settings = TestSettings::server(5_000.0, Nanos::from_millis(10))
            .with_min_query_count(64)
            .with_min_duration(Nanos::from_secs(2));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let out = run_simulated(&settings, &mut qsl, &mut sut)
            .expect("overload must terminate, not exhaust the event budget");
        assert!(!out.result.is_valid());
    }

    #[test]
    fn full_server_run_with_dynamic_batching() {
        // 2000 GOPS at full batch runs MobileNet in ~0.57 ms/sample; 1000
        // Poisson qps with a 2 ms batching timeout sits at ~60% utilization,
        // comfortably inside the 15 ms p99 bound.
        let settings = TestSettings::server(1_000.0, Nanos::from_millis(15))
            .with_min_query_count(2_000)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let fast = DeviceSpec::new(
            "engine-test-fast",
            Architecture::Gpu,
            2_000.0,
            2.0,
            16,
            1,
            Nanos::from_micros(50),
        );
        let mut sut = DeviceSut::new(
            fast,
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::DynamicBatch {
                timeout: Nanos::from_millis(2),
                max_batch: 16,
            },
        );
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        match out.result.metric {
            ScenarioMetric::Server {
                overlatency_fraction,
                ..
            } => {
                assert!(overlatency_fraction <= 0.01);
            }
            ref m => panic!("wrong metric {m:?}"),
        }
    }
}
