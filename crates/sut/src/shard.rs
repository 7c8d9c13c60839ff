//! Fleet-scale sharded serving.
//!
//! The paper's LoadGen drove 30+ heterogeneous systems spanning four
//! orders of magnitude of throughput; [`ShardedSut`] is the serving-side
//! composition that makes one scenario's traffic fan out across such a
//! fleet. It is a [`RealtimeSut`] *router*: every shard is itself a
//! `RealtimeSut` (a local engine, or a `RemoteSut` wire connection), so
//! the decorator graph composes freely — `Faulty` under a shard,
//! `Sharded` over `Remote`, and so on.
//!
//! Three concerns live here:
//!
//! * **Balancing** — a pluggable [`BalancePolicy`] picks the shard for
//!   each query: round-robin, least-outstanding, latency-EWMA, or
//!   weighted by preset throughput. Every policy is a pure function of
//!   the call sequence, so a sequentially driven run yields a
//!   byte-identical routing trace.
//! * **Health** — each shard walks the state machine
//!   `Up → Suspect → Down → Draining → Up`. Failures debounce through
//!   `Suspect` before a shard is declared `Down`; an optional liveness
//!   probe (wire heartbeat / clock-probe health) can both fast-fail a
//!   shard and readmit it. A rejoined shard `Draining`s back under a
//!   warm-up cap before it is trusted as `Up`.
//! * **Failover** — when a shard answers [`IssueOutcome::Errored`] or
//!   [`IssueOutcome::Vanished`], the router re-routes the query to the
//!   next eligible shard, at most once per shard. Wire clients swallow
//!   late completions of failed attempts and the daemon journal answers
//!   replays exactly once, so the merged detail log stays exactly-once
//!   (TEST06). If every shard fails, the *last* structural outcome is
//!   returned — the run degrades to `ErrorFractionExceeded` /
//!   `IncompleteQueries`, never a hang.
//!
//! Every routing decision and health transition is emitted as a
//! [`TraceEvent::ShardEvent`] plus `shard_*` counters, so `analyze` can
//! attribute per-shard latency and name the failover window.

use mlperf_loadgen::query::{Query, SampleCompletion};
use mlperf_loadgen::sut::{IssueOutcome, RealtimeSut};
use mlperf_trace::sync::lock;
use mlperf_trace::{MetricsRegistry, TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How the router picks a shard for each query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancePolicy {
    /// Strict rotation over the eligible shards.
    RoundRobin,
    /// The eligible shard with the fewest queries in flight (ties go to
    /// the lowest shard index).
    LeastOutstanding,
    /// The eligible shard with the lowest exponentially weighted moving
    /// average service latency; unmeasured shards are preferred.
    LatencyEwma,
    /// The eligible shard with the lowest routed-count-to-weight ratio,
    /// so long-run traffic shares converge to the configured weights
    /// (preset peak throughput).
    WeightedThroughput,
}

impl BalancePolicy {
    /// Stable snake_case label used in trace rows and reports.
    pub fn label(&self) -> &'static str {
        match self {
            BalancePolicy::RoundRobin => "round_robin",
            BalancePolicy::LeastOutstanding => "least_outstanding",
            BalancePolicy::LatencyEwma => "latency_ewma",
            BalancePolicy::WeightedThroughput => "weighted",
        }
    }
}

/// Per-shard health as seen by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Up,
    /// At least one recent failure; still routable while the failure
    /// count debounces toward [`ShardConfig::down_after`].
    Suspect,
    /// Declared dead: receives no traffic until a probe readmits it.
    Down,
    /// Readmitted after `Down`; takes at most
    /// [`ShardConfig::warmup_cap`] queries in flight until
    /// [`ShardConfig::warmup_queries`] successes promote it to `Up`.
    Draining,
}

impl ShardHealth {
    /// Stable snake_case label used in trace rows and stats tables.
    pub fn label(&self) -> &'static str {
        match self {
            ShardHealth::Up => "up",
            ShardHealth::Suspect => "suspect",
            ShardHealth::Down => "down",
            ShardHealth::Draining => "draining",
        }
    }
}

/// Health state machine tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Consecutive failures after which a `Suspect` shard is declared
    /// `Down` (the debounce depth; 1 = first failure past `Suspect`).
    pub down_after: u32,
    /// Maximum queries in flight on a `Draining` shard.
    pub warmup_cap: usize,
    /// Successful queries a `Draining` shard must serve before it is
    /// promoted back to `Up`.
    pub warmup_queries: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            down_after: 2,
            warmup_cap: 1,
            warmup_queries: 3,
        }
    }
}

/// A liveness probe: `true` means the endpoint looks reachable. Wire
/// shards use `RemoteSut::is_connected` (heartbeat/clock-probe driven).
pub type ShardProbe = Arc<dyn Fn() -> bool + Send + Sync>;

/// One endpoint of the fleet, as handed to [`ShardedSut::with_endpoint`].
#[derive(Clone)]
pub struct ShardEndpoint {
    label: String,
    sut: Arc<dyn RealtimeSut>,
    weight: f64,
    probe: Option<ShardProbe>,
}

impl ShardEndpoint {
    /// An endpoint with weight 1 and no liveness probe.
    pub fn new(label: &str, sut: Arc<dyn RealtimeSut>) -> Self {
        Self {
            label: label.to_string(),
            sut,
            weight: 1.0,
            probe: None,
        }
    }

    /// Sets the throughput weight (e.g. the preset's `peak_gops ×
    /// units`); only ratios matter. Non-positive weights are clamped.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = if weight > 0.0 {
            weight
        } else {
            f64::MIN_POSITIVE
        };
        self
    }

    /// Attaches a liveness probe consulted on every routing decision.
    pub fn with_probe(mut self, probe: ShardProbe) -> Self {
        self.probe = Some(probe);
        self
    }
}

impl std::fmt::Debug for ShardEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardEndpoint")
            .field("label", &self.label)
            .field("weight", &self.weight)
            .field("probed", &self.probe.is_some())
            .finish_non_exhaustive()
    }
}

/// Mutable health state, all under one lock per shard.
#[derive(Debug)]
struct ShardState {
    health: ShardHealth,
    /// Consecutive failures since the last success.
    consecutive_failures: u32,
    /// Successes served while `Draining`.
    drained: u64,
}

struct Shard {
    label: String,
    sut: Arc<dyn RealtimeSut>,
    weight: f64,
    probe: Option<ShardProbe>,
    state: Mutex<ShardState>,
    /// Queries currently in flight on this shard.
    outstanding: AtomicUsize,
    /// EWMA of service latency in nanoseconds (0 = unmeasured).
    ewma_ns: AtomicU64,
    /// Queries ever routed here (attempts, not successes).
    routed: AtomicU64,
}

/// A fleet snapshot row, for stats tables and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    /// The shard's label.
    pub label: String,
    /// Current health.
    pub health: ShardHealth,
    /// Queries in flight right now.
    pub outstanding: usize,
    /// Queries ever routed to this shard.
    pub routed: u64,
    /// EWMA service latency in nanoseconds (0 = unmeasured).
    pub ewma_ns: u64,
}

/// A [`RealtimeSut`] router fanning one scenario's traffic across N
/// shards under a [`BalancePolicy`], with health tracking and failover.
pub struct ShardedSut {
    name: String,
    policy: BalancePolicy,
    shards: Vec<Shard>,
    config: ShardConfig,
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    origin: Instant,
    rr: AtomicUsize,
}

impl ShardedSut {
    /// An empty router; add endpoints with [`with_endpoint`].
    ///
    /// [`with_endpoint`]: ShardedSut::with_endpoint
    pub fn new(name: &str, policy: BalancePolicy) -> Self {
        Self {
            name: name.to_string(),
            policy,
            shards: Vec::new(),
            config: ShardConfig::default(),
            sink: None,
            metrics: None,
            origin: Instant::now(),
            rr: AtomicUsize::new(0),
        }
    }

    /// Adds one shard to the fleet.
    pub fn with_endpoint(mut self, endpoint: ShardEndpoint) -> Self {
        self.shards.push(Shard {
            label: endpoint.label,
            sut: endpoint.sut,
            weight: endpoint.weight,
            probe: endpoint.probe,
            state: Mutex::new(ShardState {
                health: ShardHealth::Up,
                consecutive_failures: 0,
                drained: 0,
            }),
            outstanding: AtomicUsize::new(0),
            ewma_ns: AtomicU64::new(0),
            routed: AtomicU64::new(0),
        });
        self
    }

    /// Overrides the health state machine tuning.
    pub fn with_config(mut self, config: ShardConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a trace sink for [`TraceEvent::ShardEvent`] rows.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a metrics registry for `shard_*` counters.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Pins the trace clock origin (pass the wire client's
    /// `clock_origin()` so shard rows share the run's axis).
    pub fn with_origin(mut self, origin: Instant) -> Self {
        self.origin = origin;
        self
    }

    /// The balancing policy in force.
    pub fn policy(&self) -> BalancePolicy {
        self.policy
    }

    /// A point-in-time snapshot of every shard, in endpoint order.
    pub fn status(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .map(|s| ShardStatus {
                label: s.label.clone(),
                health: lock(&s.state).health,
                outstanding: s.outstanding.load(Ordering::SeqCst),
                routed: s.routed.load(Ordering::SeqCst),
                ewma_ns: s.ewma_ns.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// Current health of the labelled shard, if it exists.
    pub fn health_of(&self, label: &str) -> Option<ShardHealth> {
        self.shards
            .iter()
            .find(|s| s.label == label)
            .map(|s| lock(&s.state).health)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn emit(&self, shard: &str, kind: &str, query_id: u64, detail: &str) {
        if let Some(m) = self.metrics.as_deref() {
            m.incr(&format!("shard_{kind}"), 1);
            m.incr(&format!("shard_{kind}_{shard}"), 1);
        }
        if let Some(sink) = self.sink.as_deref() {
            if sink.enabled() {
                sink.record(
                    self.now_ns(),
                    &TraceEvent::ShardEvent {
                        shard: shard.to_string(),
                        kind: kind.to_string(),
                        query_id,
                        detail: detail.to_string(),
                    },
                );
            }
        }
    }

    /// Applies the liveness probes: a failing probe downs a live shard
    /// immediately (no debounce — the transport itself says dead), a
    /// passing probe readmits a `Down` shard into `Draining`.
    fn refresh_probes(&self) {
        for shard in &self.shards {
            let Some(probe) = shard.probe.as_ref() else {
                continue;
            };
            let alive = probe();
            let mut state = lock(&shard.state);
            match (state.health, alive) {
                (ShardHealth::Up | ShardHealth::Suspect, false) => {
                    state.health = ShardHealth::Down;
                    state.consecutive_failures = 0;
                    drop(state);
                    self.emit(&shard.label, "down", 0, "probe failed");
                }
                (ShardHealth::Draining, false) => {
                    state.health = ShardHealth::Down;
                    state.drained = 0;
                    drop(state);
                    self.emit(&shard.label, "down", 0, "probe failed while draining");
                }
                (ShardHealth::Down, true) => {
                    state.health = ShardHealth::Draining;
                    state.drained = 0;
                    drop(state);
                    self.emit(&shard.label, "rejoin", 0, "probe recovered");
                }
                _ => {}
            }
        }
    }

    /// Whether shard `i` may take one more query right now.
    fn eligible(&self, i: usize) -> bool {
        let shard = &self.shards[i];
        let state = lock(&shard.state);
        match state.health {
            ShardHealth::Up | ShardHealth::Suspect => true,
            ShardHealth::Down => false,
            ShardHealth::Draining => {
                shard.outstanding.load(Ordering::SeqCst) < self.config.warmup_cap
            }
        }
    }

    /// Picks the next shard for a query, skipping indices in `tried`.
    /// Falls back to any non-`Down` shard (ignoring the drain cap) so a
    /// degraded fleet still routes rather than stalls; `None` only when
    /// every untried shard is `Down`.
    fn pick(&self, tried: &[usize]) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.shards.len())
            .filter(|i| !tried.contains(i) && self.eligible(*i))
            .collect();
        let candidates = if candidates.is_empty() {
            (0..self.shards.len())
                .filter(|i| {
                    !tried.contains(i) && lock(&self.shards[*i].state).health != ShardHealth::Down
                })
                .collect()
        } else {
            candidates
        };
        if candidates.is_empty() {
            return None;
        }
        let chosen = match self.policy {
            BalancePolicy::RoundRobin => {
                let n = self.rr.fetch_add(1, Ordering::SeqCst);
                candidates[n % candidates.len()]
            }
            BalancePolicy::LeastOutstanding => *candidates
                .iter()
                .min_by_key(|i| (self.shards[**i].outstanding.load(Ordering::SeqCst), **i))
                .expect("non-empty"),
            BalancePolicy::LatencyEwma => *candidates
                .iter()
                .min_by_key(|i| (self.shards[**i].ewma_ns.load(Ordering::SeqCst), **i))
                .expect("non-empty"),
            BalancePolicy::WeightedThroughput => *candidates
                .iter()
                .min_by(|a, b| {
                    let ka = self.shards[**a].routed.load(Ordering::SeqCst) as f64
                        / self.shards[**a].weight;
                    let kb = self.shards[**b].routed.load(Ordering::SeqCst) as f64
                        / self.shards[**b].weight;
                    ka.partial_cmp(&kb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(b))
                })
                .expect("non-empty"),
        };
        Some(chosen)
    }

    /// Records a successful attempt: failure streak resets, `Suspect`
    /// recovers to `Up`, `Draining` counts toward its warm-up promotion.
    fn note_success(&self, i: usize, elapsed_ns: u64) {
        let shard = &self.shards[i];
        // EWMA with alpha = 1/8; first sample seeds the average.
        let _ = shard
            .ewma_ns
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| {
                Some(if old == 0 {
                    elapsed_ns
                } else {
                    old - old / 8 + elapsed_ns / 8
                })
            });
        let mut state = lock(&shard.state);
        state.consecutive_failures = 0;
        match state.health {
            ShardHealth::Suspect => {
                state.health = ShardHealth::Up;
                drop(state);
                self.emit(&shard.label, "up", 0, "recovered");
            }
            ShardHealth::Draining => {
                state.drained += 1;
                if state.drained >= self.config.warmup_queries {
                    let served = state.drained;
                    state.health = ShardHealth::Up;
                    state.drained = 0;
                    drop(state);
                    self.emit(
                        &shard.label,
                        "drained",
                        0,
                        &format!("warmed up after {served}"),
                    );
                }
            }
            _ => {}
        }
    }

    /// Records a failed attempt, debouncing `Up → Suspect → Down`.
    fn note_failure(&self, i: usize, query_id: u64, why: &str) {
        let shard = &self.shards[i];
        let mut state = lock(&shard.state);
        state.consecutive_failures += 1;
        let failures = state.consecutive_failures;
        match state.health {
            ShardHealth::Up => {
                state.health = ShardHealth::Suspect;
                drop(state);
                self.emit(&shard.label, "suspect", query_id, why);
            }
            ShardHealth::Suspect if failures > self.config.down_after => {
                state.health = ShardHealth::Down;
                state.consecutive_failures = 0;
                drop(state);
                self.emit(&shard.label, "down", query_id, why);
            }
            ShardHealth::Draining => {
                state.health = ShardHealth::Down;
                state.drained = 0;
                drop(state);
                self.emit(&shard.label, "down", query_id, "failed while draining");
            }
            _ => {}
        }
    }
}

impl RealtimeSut for ShardedSut {
    fn name(&self) -> &str {
        &self.name
    }

    fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
        match self.issue_outcome(query) {
            IssueOutcome::Completed(samples) => samples,
            IssueOutcome::Errored | IssueOutcome::Vanished => Vec::new(),
        }
    }

    fn issue_outcome(&self, query: &Query) -> IssueOutcome {
        self.refresh_probes();
        let mut tried: Vec<usize> = Vec::new();
        let mut last_failure: Option<IssueOutcome> = None;
        loop {
            let Some(i) = self.pick(&tried) else {
                // Every shard tried or Down. The last structural outcome
                // (or Vanished for an all-Down fleet) surfaces so the run
                // degrades to a verdict instead of hanging.
                return last_failure.unwrap_or(IssueOutcome::Vanished);
            };
            let shard = &self.shards[i];
            shard.routed.fetch_add(1, Ordering::SeqCst);
            shard.outstanding.fetch_add(1, Ordering::SeqCst);
            self.emit(&shard.label, "route", query.id, self.policy.label());
            let started = Instant::now();
            let outcome = shard.sut.issue_outcome(query);
            let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shard.outstanding.fetch_sub(1, Ordering::SeqCst);
            match outcome {
                IssueOutcome::Completed(samples) => {
                    self.note_success(i, elapsed_ns);
                    return IssueOutcome::Completed(samples);
                }
                IssueOutcome::Errored => {
                    self.note_failure(i, query.id, "errored");
                    self.emit(&shard.label, "failover", query.id, "errored; rerouting");
                    last_failure = Some(IssueOutcome::Errored);
                }
                IssueOutcome::Vanished => {
                    self.note_failure(i, query.id, "vanished");
                    self.emit(&shard.label, "failover", query.id, "vanished; rerouting");
                    last_failure = Some(IssueOutcome::Vanished);
                }
            }
            tried.push(i);
        }
    }
}

impl std::fmt::Debug for ShardedSut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSut")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::query::{QuerySample, ResponsePayload};
    use mlperf_loadgen::time::Nanos;
    use mlperf_trace::{RingBufferSink, ToJson};
    use std::sync::atomic::AtomicBool;

    fn query(id: u64) -> Query {
        Query {
            id,
            samples: vec![QuerySample {
                id: id * 100,
                index: 0,
            }],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    /// Completes instantly; optionally fails while `broken` is set.
    struct ToggleSut {
        name: String,
        broken: Arc<AtomicBool>,
        vanish: bool,
    }

    impl ToggleSut {
        fn healthy(name: &str) -> Arc<Self> {
            Arc::new(Self {
                name: name.to_string(),
                broken: Arc::new(AtomicBool::new(false)),
                vanish: false,
            })
        }

        fn switchable(name: &str, vanish: bool) -> (Arc<Self>, Arc<AtomicBool>) {
            let broken = Arc::new(AtomicBool::new(false));
            (
                Arc::new(Self {
                    name: name.to_string(),
                    broken: broken.clone(),
                    vanish,
                }),
                broken,
            )
        }
    }

    impl RealtimeSut for ToggleSut {
        fn name(&self) -> &str {
            &self.name
        }

        fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
            match self.issue_outcome(query) {
                IssueOutcome::Completed(s) => s,
                _ => Vec::new(),
            }
        }

        fn issue_outcome(&self, query: &Query) -> IssueOutcome {
            if self.broken.load(Ordering::SeqCst) {
                if self.vanish {
                    return IssueOutcome::Vanished;
                }
                return IssueOutcome::Errored;
            }
            IssueOutcome::Completed(
                query
                    .samples
                    .iter()
                    .map(|s| SampleCompletion {
                        sample_id: s.id,
                        payload: ResponsePayload::Empty,
                    })
                    .collect(),
            )
        }
    }

    fn fleet(policy: BalancePolicy, sink: Arc<RingBufferSink>) -> ShardedSut {
        ShardedSut::new("fleet", policy)
            .with_endpoint(ShardEndpoint::new("shard-0", ToggleSut::healthy("a")).with_weight(4.0))
            .with_endpoint(ShardEndpoint::new("shard-1", ToggleSut::healthy("b")).with_weight(2.0))
            .with_endpoint(ShardEndpoint::new("shard-2", ToggleSut::healthy("c")).with_weight(1.0))
            .with_sink(sink)
    }

    /// The routing trace with timestamps masked: deterministic policies
    /// must reproduce it byte-for-byte across runs.
    fn routing_trace(sink: &RingBufferSink) -> String {
        sink.snapshot()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ShardEvent { .. }))
            .map(|r| r.event.to_json_value().to_compact())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn routing_is_deterministic_per_policy() {
        for policy in [
            BalancePolicy::RoundRobin,
            BalancePolicy::LeastOutstanding,
            BalancePolicy::WeightedThroughput,
        ] {
            let traces: Vec<String> = (0..2)
                .map(|_| {
                    let sink = Arc::new(RingBufferSink::unbounded());
                    let sut = fleet(policy, sink.clone());
                    for id in 1..=40 {
                        assert!(matches!(
                            sut.issue_outcome(&query(id)),
                            IssueOutcome::Completed(_)
                        ));
                    }
                    routing_trace(&sink)
                })
                .collect();
            assert_eq!(
                traces[0], traces[1],
                "{:?} routing trace must be byte-identical",
                policy
            );
            assert!(!traces[0].is_empty());
        }
    }

    #[test]
    fn weighted_policy_converges_to_the_weight_ratios() {
        let sink = Arc::new(RingBufferSink::unbounded());
        let sut = fleet(BalancePolicy::WeightedThroughput, sink);
        for id in 1..=70 {
            sut.issue_outcome(&query(id));
        }
        let status = sut.status();
        // Weights 4:2:1 over 70 queries → 40/20/10.
        assert_eq!(status[0].routed, 40, "{status:?}");
        assert_eq!(status[1].routed, 20, "{status:?}");
        assert_eq!(status[2].routed, 10, "{status:?}");
    }

    #[test]
    fn round_robin_rotates_evenly() {
        let sink = Arc::new(RingBufferSink::unbounded());
        let sut = fleet(BalancePolicy::RoundRobin, sink);
        for id in 1..=30 {
            sut.issue_outcome(&query(id));
        }
        for s in sut.status() {
            assert_eq!(s.routed, 10, "{:?}", sut.status());
        }
    }

    #[test]
    fn failures_debounce_through_suspect_before_down() {
        let sink = Arc::new(RingBufferSink::unbounded());
        let (bad, broken) = ToggleSut::switchable("bad", false);
        let sut = ShardedSut::new("fleet", BalancePolicy::LeastOutstanding)
            .with_endpoint(ShardEndpoint::new("shard-0", bad))
            .with_endpoint(ShardEndpoint::new("shard-1", ToggleSut::healthy("ok")))
            .with_config(ShardConfig {
                down_after: 2,
                ..ShardConfig::default()
            })
            .with_sink(sink.clone());
        broken.store(true, Ordering::SeqCst);
        // Least-outstanding ties go to shard-0, which fails over to
        // shard-1 each time; the run still completes every query.
        assert!(matches!(
            sut.issue_outcome(&query(1)),
            IssueOutcome::Completed(_)
        ));
        assert_eq!(sut.health_of("shard-0"), Some(ShardHealth::Suspect));
        assert!(matches!(
            sut.issue_outcome(&query(2)),
            IssueOutcome::Completed(_)
        ));
        assert_eq!(
            sut.health_of("shard-0"),
            Some(ShardHealth::Suspect),
            "one failure past Suspect must not down the shard yet"
        );
        assert!(matches!(
            sut.issue_outcome(&query(3)),
            IssueOutcome::Completed(_)
        ));
        assert_eq!(sut.health_of("shard-0"), Some(ShardHealth::Down));
        // Down shards receive no further traffic.
        let before = sut.status()[0].routed;
        sut.issue_outcome(&query(4));
        assert_eq!(sut.status()[0].routed, before);
        let kinds: Vec<String> = sink
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::ShardEvent { shard, kind, .. } if shard == "shard-0" => {
                    Some(kind.clone())
                }
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&"suspect".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"down".to_string()), "{kinds:?}");
    }

    #[test]
    fn suspect_recovers_to_up_on_success() {
        let (flaky, broken) = ToggleSut::switchable("flaky", false);
        let sut = ShardedSut::new("fleet", BalancePolicy::RoundRobin)
            .with_endpoint(ShardEndpoint::new("shard-0", flaky))
            .with_endpoint(ShardEndpoint::new("shard-1", ToggleSut::healthy("ok")));
        broken.store(true, Ordering::SeqCst);
        sut.issue_outcome(&query(1));
        assert_eq!(sut.health_of("shard-0"), Some(ShardHealth::Suspect));
        broken.store(false, Ordering::SeqCst);
        // Round-robin returns to shard-0 soon; a success clears Suspect.
        for id in 2..=4 {
            sut.issue_outcome(&query(id));
        }
        assert_eq!(sut.health_of("shard-0"), Some(ShardHealth::Up));
    }

    #[test]
    fn probe_downs_and_rejoins_with_warmup_cap() {
        let sink = Arc::new(RingBufferSink::unbounded());
        let alive = Arc::new(AtomicBool::new(true));
        let probe_alive = alive.clone();
        let sut = ShardedSut::new("fleet", BalancePolicy::RoundRobin)
            .with_endpoint(
                ShardEndpoint::new("shard-0", ToggleSut::healthy("a"))
                    .with_probe(Arc::new(move || probe_alive.load(Ordering::SeqCst))),
            )
            .with_endpoint(ShardEndpoint::new("shard-1", ToggleSut::healthy("b")))
            .with_config(ShardConfig {
                down_after: 2,
                warmup_cap: 1,
                warmup_queries: 2,
            })
            .with_sink(sink.clone());
        // Probe failure downs the shard without any query failing.
        alive.store(false, Ordering::SeqCst);
        sut.issue_outcome(&query(1));
        assert_eq!(sut.health_of("shard-0"), Some(ShardHealth::Down));
        // Probe recovery readmits it as Draining...
        alive.store(true, Ordering::SeqCst);
        sut.issue_outcome(&query(2));
        // ...and after warmup_queries successes it is Up again. (The
        // first post-rejoin query may land on either shard; drive a few.)
        let mut seen_draining = false;
        for id in 3..=8 {
            if sut.health_of("shard-0") == Some(ShardHealth::Draining) {
                seen_draining = true;
            }
            sut.issue_outcome(&query(id));
        }
        assert!(seen_draining, "rejoin must pass through Draining");
        assert_eq!(sut.health_of("shard-0"), Some(ShardHealth::Up));
        let kinds: Vec<String> = sink
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::ShardEvent { shard, kind, .. } if shard == "shard-0" => {
                    Some(kind.clone())
                }
                _ => None,
            })
            .collect();
        for expect in ["down", "rejoin", "drained"] {
            assert!(kinds.contains(&expect.to_string()), "{kinds:?}");
        }
    }

    #[test]
    fn draining_shard_respects_the_warmup_cap() {
        // With warmup_cap = 0 a Draining shard is ineligible, so all
        // traffic goes to the healthy shard until the cap admits it.
        let alive = Arc::new(AtomicBool::new(false));
        let probe_alive = alive.clone();
        let sut = ShardedSut::new("fleet", BalancePolicy::LeastOutstanding)
            .with_endpoint(
                ShardEndpoint::new("shard-0", ToggleSut::healthy("a"))
                    .with_probe(Arc::new(move || probe_alive.load(Ordering::SeqCst))),
            )
            .with_endpoint(ShardEndpoint::new("shard-1", ToggleSut::healthy("b")))
            .with_config(ShardConfig {
                down_after: 2,
                warmup_cap: 0,
                warmup_queries: 1,
            });
        sut.issue_outcome(&query(1));
        assert_eq!(sut.health_of("shard-0"), Some(ShardHealth::Down));
        alive.store(true, Ordering::SeqCst);
        let routed_before = sut.status()[0].routed;
        for id in 2..=6 {
            sut.issue_outcome(&query(id));
        }
        assert_eq!(sut.health_of("shard-0"), Some(ShardHealth::Draining));
        assert_eq!(
            sut.status()[0].routed,
            routed_before,
            "a zero-cap Draining shard must receive no traffic"
        );
    }

    #[test]
    fn all_shards_failing_returns_structured_outcomes_not_a_hang() {
        let (a, break_a) = ToggleSut::switchable("a", false);
        let (b, break_b) = ToggleSut::switchable("b", true);
        let sut = ShardedSut::new("fleet", BalancePolicy::RoundRobin)
            .with_endpoint(ShardEndpoint::new("shard-0", a))
            .with_endpoint(ShardEndpoint::new("shard-1", b));
        break_a.store(true, Ordering::SeqCst);
        break_b.store(true, Ordering::SeqCst);
        // Both shards fail: each attempt is tried once, the last failure
        // surfaces (order here: shard-0 errored, then shard-1 vanished).
        assert_eq!(sut.issue_outcome(&query(1)), IssueOutcome::Vanished);
        // Once every shard is Down, the fleet reports Vanished outright.
        while sut.health_of("shard-0") != Some(ShardHealth::Down)
            || sut.health_of("shard-1") != Some(ShardHealth::Down)
        {
            sut.issue_outcome(&query(2));
        }
        assert_eq!(sut.issue_outcome(&query(3)), IssueOutcome::Vanished);
    }

    #[test]
    fn failover_completes_the_query_exactly_once() {
        let sink = Arc::new(RingBufferSink::unbounded());
        let (bad, broken) = ToggleSut::switchable("bad", false);
        let sut = ShardedSut::new("fleet", BalancePolicy::LeastOutstanding)
            .with_endpoint(ShardEndpoint::new("shard-0", bad))
            .with_endpoint(ShardEndpoint::new("shard-1", ToggleSut::healthy("ok")))
            .with_sink(sink.clone());
        broken.store(true, Ordering::SeqCst);
        let IssueOutcome::Completed(samples) = sut.issue_outcome(&query(7)) else {
            panic!("failover must rescue the query");
        };
        assert_eq!(samples.len(), 1);
        // Exactly one failover row and exactly two route rows for id 7.
        let rows: Vec<(String, String)> = sink
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::ShardEvent {
                    shard,
                    kind,
                    query_id: 7,
                    ..
                } => Some((shard.clone(), kind.clone())),
                _ => None,
            })
            .collect();
        let routes = rows.iter().filter(|(_, k)| k == "route").count();
        let failovers = rows.iter().filter(|(_, k)| k == "failover").count();
        assert_eq!(routes, 2, "{rows:?}");
        assert_eq!(failovers, 1, "{rows:?}");
    }

    #[test]
    fn metrics_count_routes_and_failovers_per_shard() {
        let metrics = Arc::new(MetricsRegistry::new());
        let (bad, broken) = ToggleSut::switchable("bad", false);
        let sut = ShardedSut::new("fleet", BalancePolicy::LeastOutstanding)
            .with_endpoint(ShardEndpoint::new("shard-0", bad))
            .with_endpoint(ShardEndpoint::new("shard-1", ToggleSut::healthy("ok")))
            .with_metrics(metrics.clone());
        broken.store(true, Ordering::SeqCst);
        sut.issue_outcome(&query(1));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("shard_route_shard-0"), 1);
        assert_eq!(snap.counter("shard_route_shard-1"), 1);
        assert_eq!(snap.counter("shard_failover_shard-0"), 1);
        assert_eq!(snap.counter("shard_failover"), 1);
    }

    #[test]
    fn latency_ewma_prefers_the_faster_shard() {
        let fast = Arc::new(mlperf_loadgen::sut::SleepSut::new(
            "fast",
            std::time::Duration::from_micros(50),
        ));
        let slow = Arc::new(mlperf_loadgen::sut::SleepSut::new(
            "slow",
            std::time::Duration::from_millis(3),
        ));
        let sut = ShardedSut::new("fleet", BalancePolicy::LatencyEwma)
            .with_endpoint(ShardEndpoint::new("shard-0", slow))
            .with_endpoint(ShardEndpoint::new("shard-1", fast));
        for id in 1..=20 {
            sut.issue_outcome(&query(id));
        }
        let status = sut.status();
        // Both get probed while unmeasured; after that the fast shard
        // wins every pick.
        assert!(
            status[1].routed > status[0].routed * 3,
            "fast shard must dominate: {status:?}"
        );
    }
}
