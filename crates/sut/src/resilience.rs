//! Recovery policies over unreliable engines.
//!
//! Fault injection ([`crate::faults`]) makes degraded runs producible;
//! this module adds the serving-layer countermeasures a production stack
//! would deploy against exactly those faults, so experiments can measure
//! *which* policies rescue a run's validity and at what latency cost:
//!
//! * **Per-query timeout** — a client-side deadline; work that misses it
//!   is abandoned and handled by the next policy in the chain.
//! * **Bounded retry with backoff** — failed or timed-out queries are
//!   re-dispatched to the primary engine up to a retry budget, each
//!   attempt waiting one backoff step longer.
//! * **Failover** — once retries are exhausted, the query runs once on a
//!   sibling device (the fleet's spare), if one is attached.
//! * **Load shedding** — past a queue-depth threshold, arriving queries
//!   of the lowest-priority tenant resolve immediately as errors instead
//!   of queueing, protecting higher-priority tenants' tail latency.
//!
//! Every recovery decision is emitted as a
//! [`TraceEvent::RecoveryAction`] and a `recovery_*` counter, so the
//! PR 1/2 observability pipeline shows exactly when and why each policy
//! fired.
//!
//! Retries are re-issued under a *salted* query id (the attempt number
//! XOR-ed into bits 48..56, below the tenant byte) and translated back
//! before delivery, so the LoadGen sees exactly one completion per query
//! while the fault plan sees each attempt as a distinct query and rolls
//! fresh, still-deterministic fault verdicts.

use mlperf_loadgen::query::{Query, QueryCompletion};
use mlperf_loadgen::sut::{SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use mlperf_trace::{MetricsRegistry, TraceEvent, TraceSink};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Tunable recovery behaviour. The default is entirely inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResiliencePolicy {
    /// Client-side per-attempt deadline; `None` disables timeouts.
    pub timeout: Option<Nanos>,
    /// Retry budget per query (0 = fail fast to failover/error).
    pub max_retries: u32,
    /// Backoff before attempt `n` retries: `backoff × n`.
    pub backoff: Nanos,
    /// Queue depth at which arriving lowest-priority queries are shed;
    /// `None` disables shedding.
    pub shed_threshold: Option<usize>,
}

impl ResiliencePolicy {
    /// Whether any policy is active. An inert policy makes
    /// [`ResilientSut`] a pass-through.
    pub fn is_armed(&self) -> bool {
        self.timeout.is_some() || self.max_retries > 0 || self.shed_threshold.is_some()
    }
}

/// Attempt salts live in the byte below the tenant byte, so salted ids
/// collide with genuine ids only after 2^48 queries.
const SALT_SHIFT: u32 = 48;

fn salted(id: u64, attempt: u32) -> u64 {
    id ^ (u64::from(attempt) << SALT_SHIFT)
}

#[derive(Debug, Clone)]
struct Flight {
    /// The original query, for retries and final errored delivery.
    query: Query,
    /// When this attempt was dispatched.
    issued_at: Nanos,
    /// 0 for the first attempt.
    attempt: u32,
    /// Whether this attempt runs on the sibling.
    on_sibling: bool,
}

/// A [`SimSut`] decorator applying a [`ResiliencePolicy`] over a primary
/// engine and an optional failover sibling.
pub struct ResilientSut<S> {
    primary: S,
    sibling: Option<S>,
    policy: ResiliencePolicy,
    name: String,
    /// In-flight attempts keyed by wire (salted) id.
    in_flight: HashMap<u64, Flight>,
    /// Wire ids whose late completions must be swallowed (abandoned by a
    /// timeout that already triggered recovery).
    abandoned: HashSet<u64>,
    /// Deadlines for armed timeouts: (deadline, wire id).
    deadlines: BinaryHeap<Reverse<(Nanos, u64)>>,
    /// Every wakeup time owed to the driver — inner engines' requests plus
    /// timeout deadlines. A reaction can carry only one `wakeup_at`, and
    /// the engines deduplicate their own requests (they assume an armed
    /// wakeup will fire), so any candidate not surfaced immediately must be
    /// re-armed later instead of dropped.
    wakeups: BinaryHeap<Reverse<Nanos>>,
    /// Finish times of accepted completions, for queue-depth shedding.
    busy: BinaryHeap<Reverse<Nanos>>,
    /// Lowest-priority (highest-numbered) tenant observed so far.
    max_tenant_seen: u32,
    trace: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<S: SimSut> ResilientSut<S> {
    /// Wraps `primary` with `policy` and no failover sibling.
    pub fn new(primary: S, policy: ResiliencePolicy) -> Self {
        let name = format!("{}+resilient", primary.name());
        Self {
            primary,
            sibling: None,
            policy,
            name,
            in_flight: HashMap::new(),
            abandoned: HashSet::new(),
            deadlines: BinaryHeap::new(),
            wakeups: BinaryHeap::new(),
            busy: BinaryHeap::new(),
            max_tenant_seen: 0,
            trace: None,
            metrics: None,
        }
    }

    /// Attaches a failover sibling: queries that exhaust their retry
    /// budget on the primary run once on this device.
    pub fn with_sibling(mut self, sibling: S) -> Self {
        self.sibling = Some(sibling);
        self
    }

    /// Attaches a trace sink for [`TraceEvent::RecoveryAction`] records.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attaches a metrics registry for `recovery_*` counters.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The policy in force.
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.policy
    }

    fn note(&self, at: Nanos, query_id: u64, action: &str, attempt: u32) {
        if let Some(m) = self.metrics.as_deref() {
            m.incr("recovery_actions", 1);
            m.incr(&format!("recovery_{action}"), 1);
        }
        if let Some(sink) = self.trace.as_deref() {
            if sink.enabled() {
                sink.record(
                    at.as_nanos(),
                    &TraceEvent::RecoveryAction {
                        query_id,
                        action: action.to_string(),
                        attempt,
                    },
                );
            }
        }
    }

    /// Dispatches one attempt, registering flight state and deadline.
    /// Returns the raw inner reaction for recursive processing.
    fn dispatch(
        &mut self,
        at: Nanos,
        query: &Query,
        attempt: u32,
        on_sibling: bool,
    ) -> SutReaction {
        let wire_id = salted(query.id, attempt);
        let mut wire_query = query.clone();
        wire_query.id = wire_id;
        self.in_flight.insert(
            wire_id,
            Flight {
                query: query.clone(),
                issued_at: at,
                attempt,
                on_sibling,
            },
        );
        if let Some(timeout) = self.policy.timeout {
            let deadline = at + timeout;
            self.deadlines.push(Reverse((deadline, wire_id)));
            self.wakeups.push(Reverse(deadline));
        }
        let target = if on_sibling {
            self.sibling.as_mut().expect("sibling present")
        } else {
            &mut self.primary
        };
        target.on_query(at, &wire_query)
    }

    /// Handles one failed attempt (errored completion or timeout),
    /// escalating retry → failover → errored delivery. `detected` is the
    /// simulated instant the failure became known.
    fn recover(&mut self, flight: Flight, detected: Nanos, out: &mut SutReaction) {
        let original = &flight.query;
        if !flight.on_sibling && flight.attempt < self.policy.max_retries {
            let attempt = flight.attempt + 1;
            let retry_at = detected + self.policy.backoff.mul(u64::from(attempt));
            self.note(detected, original.id, "retry", attempt);
            let query = original.clone();
            let reaction = self.dispatch(retry_at, &query, attempt, false);
            self.process(retry_at, reaction, out);
        } else if !flight.on_sibling && self.sibling.is_some() {
            let attempt = flight.attempt + 1;
            let retry_at = detected + self.policy.backoff.mul(u64::from(attempt));
            self.note(detected, original.id, "failover", attempt);
            let query = original.clone();
            let reaction = self.dispatch(retry_at, &query, attempt, true);
            self.process(retry_at, reaction, out);
        } else {
            // Out of options: the query resolves as an error.
            self.note(detected, original.id, "exhausted", flight.attempt);
            out.completions
                .push(QueryCompletion::errored(original, detected));
            self.busy.push(Reverse(detected));
        }
    }

    /// Folds an inner reaction into `out`, applying timeout detection and
    /// failure recovery to each completion.
    fn process(&mut self, now: Nanos, mut reaction: SutReaction, out: &mut SutReaction) {
        if let Some(at) = reaction.wakeup_at {
            self.wakeups.push(Reverse(at));
        }
        for mut completion in reaction.completions.drain(..) {
            if self.abandoned.remove(&completion.query_id) {
                // A timeout already recovered this attempt; the late
                // completion is noise.
                continue;
            }
            let Some(flight) = self.in_flight.remove(&completion.query_id) else {
                // Not ours (pass-through mode raced a policy change);
                // forward untouched.
                out.completions.push(completion);
                continue;
            };
            let timed_out = self
                .policy
                .timeout
                .is_some_and(|t| completion.finished_at > flight.issued_at + t);
            if completion.error || timed_out {
                // The failure is known at the deadline (timeout) or when
                // the error surfaces; never earlier than `now`.
                let detected = if completion.error {
                    completion.finished_at.max(now)
                } else {
                    self.note(now, flight.query.id, "timeout", flight.attempt);
                    (flight.issued_at + self.policy.timeout.expect("timed_out")).max(now)
                };
                self.recover(flight, detected, out);
            } else {
                completion.query_id = flight.query.id;
                self.busy.push(Reverse(completion.finished_at));
                out.completions.push(completion);
            }
        }
    }

    /// Fires timeouts whose deadline has passed without a completion.
    fn expire_deadlines(&mut self, now: Nanos, out: &mut SutReaction) {
        while let Some(Reverse((deadline, wire_id))) = self.deadlines.peek().copied() {
            if deadline > now {
                break;
            }
            self.deadlines.pop();
            // Only an attempt still in flight has timed out; completed or
            // already-recovered attempts left a stale entry.
            let Some(flight) = self.in_flight.get(&wire_id) else {
                continue;
            };
            if now < flight.issued_at + self.policy.timeout.expect("deadline armed") {
                continue;
            }
            let flight = self.in_flight.remove(&wire_id).expect("checked above");
            self.abandoned.insert(wire_id);
            self.note(deadline, flight.query.id, "timeout", flight.attempt);
            self.recover(flight, deadline.max(now), out);
        }
    }

    /// Arms the earliest still-future owed wakeup on the outgoing reaction.
    /// Entries at or before `now` are satisfied by this very invocation
    /// (the engines were just serviced) and discarded.
    fn arm_next_wakeup(&mut self, now: Nanos, out: &mut SutReaction) {
        while let Some(Reverse(t)) = self.wakeups.peek().copied() {
            if t > now {
                break;
            }
            self.wakeups.pop();
        }
        if let Some(Reverse(t)) = self.wakeups.peek() {
            merge_wakeup(out, Some(*t));
        }
    }

    /// Current queue depth: accepted completions still in the simulated
    /// future plus attempts with no completion yet.
    fn depth(&mut self, now: Nanos) -> usize {
        while let Some(Reverse(t)) = self.busy.peek().copied() {
            if t > now {
                break;
            }
            self.busy.pop();
        }
        self.busy.len() + self.in_flight.len()
    }
}

fn merge_wakeup(out: &mut SutReaction, at: Option<Nanos>) {
    out.wakeup_at = match (out.wakeup_at, at) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
}

impl<S: SimSut> SimSut for ResilientSut<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        if !self.policy.is_armed() {
            return self.primary.on_query(now, query);
        }
        let mut out = SutReaction::none();
        self.expire_deadlines(now, &mut out);
        self.max_tenant_seen = self.max_tenant_seen.max(query.tenant);
        if let Some(threshold) = self.policy.shed_threshold {
            // Shed lowest-priority work first: only the highest-numbered
            // tenant's arrivals are refused. (With one tenant, everyone is
            // lowest priority and overload sheds across the board.)
            if query.tenant == self.max_tenant_seen && self.depth(now) >= threshold {
                self.note(now, query.id, "shed", 0);
                out.completions.push(QueryCompletion::errored(query, now));
                return out;
            }
        }
        let reaction = self.dispatch(now, query, 0, false);
        self.process(now, reaction, &mut out);
        // Arrivals reach only the primary, but `arm_next_wakeup` treats this
        // invocation as satisfying every wakeup due by `now` — so give the
        // sibling its due service too.
        if self.sibling.is_some() {
            let reaction = self.sibling.as_mut().expect("checked above").on_wakeup(now);
            self.process(now, reaction, &mut out);
        }
        self.arm_next_wakeup(now, &mut out);
        out
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        if !self.policy.is_armed() {
            return self.primary.on_wakeup(now);
        }
        let mut out = SutReaction::none();
        self.expire_deadlines(now, &mut out);
        let reaction = self.primary.on_wakeup(now);
        self.process(now, reaction, &mut out);
        if self.sibling.is_some() {
            let reaction = self.sibling.as_mut().expect("checked above").on_wakeup(now);
            self.process(now, reaction, &mut out);
        }
        self.arm_next_wakeup(now, &mut out);
        out
    }

    fn reset(&mut self) {
        self.primary.reset();
        if let Some(s) = self.sibling.as_mut() {
            s.reset();
        }
        self.in_flight.clear();
        self.abandoned.clear();
        self.deadlines.clear();
        self.wakeups.clear();
        self.busy.clear();
        self.max_tenant_seen = 0;
    }
}

impl<S: SimSut> std::fmt::Debug for ResilientSut<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientSut")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultySut};
    use mlperf_loadgen::config::TestSettings;
    use mlperf_loadgen::des::run_simulated;
    use mlperf_loadgen::multitenant::run_multitenant_server;
    use mlperf_loadgen::qsl::MemoryQsl;
    use mlperf_loadgen::sut::FixedLatencySut;
    use mlperf_loadgen::validate::ValidityIssue;
    use mlperf_loadgen::Instruments;

    fn server_settings() -> TestSettings {
        TestSettings::server(500.0, Nanos::from_millis(20))
            .with_min_query_count(200)
            .with_min_duration(Nanos::from_millis(50))
    }

    fn fixed() -> FixedLatencySut {
        FixedLatencySut::new("fixed", Nanos::from_micros(300))
    }

    #[test]
    fn inert_policy_is_a_pass_through() {
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let baseline = run_simulated(&server_settings(), &mut qsl, &mut fixed()).unwrap();
        let mut resilient = ResilientSut::new(fixed(), ResiliencePolicy::default());
        assert!(!resilient.policy().is_armed());
        let out = run_simulated(&server_settings(), &mut qsl, &mut resilient).unwrap();
        // Identical apart from the decorator suffix on the SUT name.
        let strip = |line: String| line.split_once(" | ").expect("name field").1.to_string();
        assert_eq!(
            strip(baseline.result.summary_line()),
            strip(out.result.summary_line())
        );
    }

    #[test]
    fn retries_recover_transient_errors() {
        let mut qsl = MemoryQsl::new("q", 16, 16);
        // 20% transient errors, unrecovered: the run is INVALID.
        let plan = FaultPlan::new(17).with_transient_errors(0.2);
        let mut bare = FaultySut::new(fixed(), plan.clone());
        let broken = run_simulated(&server_settings(), &mut qsl, &mut bare).unwrap();
        assert!(broken.result.error_count > 0);
        assert!(!broken.result.is_valid());

        // Six retries push per-query failure odds to 0.2^7 ≈ 0.001%, so
        // a ~200-query run recovers everything with margin to spare.
        let policy = ResiliencePolicy {
            max_retries: 6,
            backoff: Nanos::from_micros(100),
            ..ResiliencePolicy::default()
        };
        let mut recovered = ResilientSut::new(FaultySut::new(fixed(), plan), policy);
        let out = run_simulated(&server_settings(), &mut qsl, &mut recovered).unwrap();
        assert_eq!(
            out.result.error_count, 0,
            "retries must absorb every transient error: {:?}",
            out.result.validity
        );
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
    }

    #[test]
    fn failover_survives_device_death() {
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let plan = FaultPlan::new(5).with_death_at(Nanos::from_millis(20));
        // Without failover the dead device leaves queries incomplete.
        let mut bare = FaultySut::new(fixed(), plan.clone());
        let broken = run_simulated(&server_settings(), &mut qsl, &mut bare).unwrap();
        assert!(!broken.result.is_valid());

        // With a timeout and a sibling, every abandoned query reruns on
        // the spare and the run stays VALID.
        let policy = ResiliencePolicy {
            timeout: Some(Nanos::from_millis(2)),
            max_retries: 0,
            backoff: Nanos::ZERO,
            shed_threshold: None,
        };
        let mut resilient =
            ResilientSut::new(FaultySut::new(fixed(), plan), policy).with_sibling(FaultySut::new(
                FixedLatencySut::new("spare", Nanos::from_micros(300)),
                FaultPlan::new(6),
            ));
        let out = run_simulated(&server_settings(), &mut qsl, &mut resilient).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert_eq!(out.result.error_count, 0);
    }

    #[test]
    fn shedding_protects_the_high_priority_tenant() {
        // One serial 500 us device shared by two tenants at 900 qps each:
        // 1.8x overload. Shedding refuses tenant-1 work past a shallow
        // queue, keeping tenant 0 inside its bound.
        let a = TestSettings::server(900.0, Nanos::from_millis(10))
            .with_min_query_count(300)
            .with_min_duration(Nanos::from_millis(5));
        let b = TestSettings::server(900.0, Nanos::from_millis(10))
            .with_min_query_count(300)
            .with_min_duration(Nanos::from_millis(5));
        let mut qa = MemoryQsl::new("a", 16, 16);
        let mut qb = MemoryQsl::new("b", 16, 16);
        let policy = ResiliencePolicy {
            shed_threshold: Some(4),
            ..ResiliencePolicy::default()
        };
        let mut sut = ResilientSut::new(
            FixedLatencySut::new("shared", Nanos::from_micros(500)),
            policy,
        );
        let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa), (&b, &mut qb)];
        let outcomes =
            run_multitenant_server(&mut tenants, &mut sut, &Instruments::none()).unwrap();
        assert!(
            outcomes[0].result.is_valid(),
            "tenant 0 must be protected: {:?}",
            outcomes[0].result.validity
        );
        assert!(outcomes[1].result.error_count > 0, "tenant 1 work was shed");
        assert!(outcomes[1]
            .result
            .validity
            .iter()
            .any(|i| matches!(i, ValidityIssue::ErrorFractionExceeded { .. })));
    }

    #[test]
    fn recovery_actions_are_observable() {
        use mlperf_trace::RingBufferSink;
        let sink = Arc::new(RingBufferSink::unbounded());
        let metrics = Arc::new(MetricsRegistry::new());
        let plan = FaultPlan::new(17).with_transient_errors(0.2);
        let policy = ResiliencePolicy {
            max_retries: 4,
            backoff: Nanos::from_micros(100),
            ..ResiliencePolicy::default()
        };
        let mut sut = ResilientSut::new(FaultySut::new(fixed(), plan), policy)
            .with_trace(sink.clone())
            .with_metrics(metrics.clone());
        let mut qsl = MemoryQsl::new("q", 16, 16);
        run_simulated(&server_settings(), &mut qsl, &mut sut).unwrap();
        let retries: u64 = metrics.snapshot().counter("recovery_retry");
        assert!(retries > 0, "20% error rate must trigger retries");
        assert!(sink.snapshot().iter().any(|r| matches!(
            &r.event,
            TraceEvent::RecoveryAction { action, .. } if action == "retry"
        )));
    }
}
