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
//!
//! Retries are re-issued under a *salted* query id (the attempt number
//! XOR-ed into bits 48..56, below the tenant byte) and translated back
//! before delivery, so the LoadGen sees exactly one completion per query
//! while the fault plan sees each attempt as a distinct query and rolls
//! fresh, still-deterministic fault verdicts.

use mlperf_loadgen::query::{Query, QueryCompletion};
use mlperf_loadgen::sut::{SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Tunable recovery behaviour. The default is entirely inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResiliencePolicy {
    /// Client-side per-attempt deadline; `None` disables timeouts.
    pub timeout: Option<Nanos>,
    /// Retry budget per query (0 = fail fast to failover/error).
    pub max_retries: u32,
    /// Backoff before attempt `n` retries: `backoff × n`.
    pub backoff: Nanos,
}

impl ResiliencePolicy {
    /// Whether any policy is active. An inert policy makes
    /// [`ResilientSut`] a pass-through.
    pub(crate) fn is_armed(&self) -> bool {
        self.timeout.is_some() || self.max_retries > 0
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
        }
    }

    /// Attaches a failover sibling: queries that exhaust their retry
    /// budget on the primary run once on this device.
    pub fn with_sibling(mut self, sibling: S) -> Self {
        self.sibling = Some(sibling);
        self
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
            let query = original.clone();
            let reaction = self.dispatch(retry_at, &query, attempt, false);
            self.process(retry_at, reaction, out);
        } else if !flight.on_sibling && self.sibling.is_some() {
            let attempt = flight.attempt + 1;
            let retry_at = detected + self.policy.backoff.mul(u64::from(attempt));
            let query = original.clone();
            let reaction = self.dispatch(retry_at, &query, attempt, true);
            self.process(retry_at, reaction, out);
        } else {
            // Out of options: the query resolves as an error.
            out.completions
                .push(QueryCompletion::errored(original, detected));
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
                    (flight.issued_at + self.policy.timeout.expect("timed_out")).max(now)
                };
                self.recover(flight, detected, out);
            } else {
                completion.query_id = flight.query.id;
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
    use mlperf_loadgen::qsl::MemoryQsl;
    use mlperf_loadgen::sut::FixedLatencySut;

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
        assert!(!ResiliencePolicy::default().is_armed());
        let mut resilient = ResilientSut::new(fixed(), ResiliencePolicy::default());
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
}
