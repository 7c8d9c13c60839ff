//! [`SimHost`]: exports an event-driven [`SimSut`] as a blocking
//! [`WireService`], so the whole simulated device fleet can sit behind a
//! serving daemon.
//!
//! The bridge mirrors the discrete-event simulator's contract on the wall
//! clock: `on_query` is invoked at the wall time the query arrives,
//! requested wakeups accumulate in a min-heap (every request fires, as in
//! the DES event loop), and a completion stamped `finished_at` in the
//! future is *slept out* before the reply frame leaves — so remote
//! latencies reproduce the simulated ones.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use mlperf_loadgen::query::{Query, QueryCompletion};
use mlperf_loadgen::sut::{SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use mlperf_trace::sync::{lock, wait_timeout};

use crate::service::{ServedReply, WireService};

struct HostState<S> {
    sut: S,
    ready: HashMap<u64, QueryCompletion>,
    wakeups: BinaryHeap<Reverse<u64>>,
}

/// Hosts a [`SimSut`] as a [`WireService`]. See the module docs.
pub struct SimHost<S> {
    name: String,
    state: Mutex<HostState<S>>,
    progress: Condvar,
    start: Instant,
    /// How long a query may wait for its completion to materialize before
    /// the host replies with an error: a stuck simulated device must not
    /// hang the daemon.
    stall_cap: Duration,
}

impl<S: SimSut + Send> SimHost<S> {
    /// Wraps `sut` for serving. The host's wall clock starts now.
    pub fn new(sut: S) -> Self {
        SimHost {
            name: sut.name().to_string(),
            state: Mutex::new(HostState {
                sut,
                ready: HashMap::new(),
                wakeups: BinaryHeap::new(),
            }),
            progress: Condvar::new(),
            start: Instant::now(),
            stall_cap: Duration::from_secs(5),
        }
    }

    fn now(&self) -> Nanos {
        Nanos::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    fn absorb(state: &mut HostState<S>, reaction: SutReaction) {
        for completion in reaction.completions {
            state.ready.insert(completion.query_id, completion);
        }
        // Every requested wakeup fires, mirroring the DES event loop.
        if let Some(at) = reaction.wakeup_at {
            state.wakeups.push(Reverse(at.as_nanos()));
        }
    }

    /// Fires all wakeups due at or before the current wall time.
    fn fire_due_wakeups(&self, state: &mut HostState<S>) {
        loop {
            let now = self.now();
            match state.wakeups.peek() {
                Some(&Reverse(at)) if at <= now.as_nanos() => {
                    state.wakeups.pop();
                    let reaction = state.sut.on_wakeup(now);
                    Self::absorb(state, reaction);
                }
                _ => return,
            }
        }
    }

    fn sleep_until(&self, at: Nanos) {
        let target = self.start + at.to_duration();
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
    }
}

impl<S: SimSut + Send> WireService for SimHost<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn serve(&self, query: &Query) -> Option<ServedReply> {
        let deadline = Instant::now() + self.stall_cap;
        let mut state = lock(&self.state);
        let reaction = state.sut.on_query(self.now(), query);
        Self::absorb(&mut state, reaction);
        self.progress.notify_all();

        loop {
            if let Some(completion) = state.ready.remove(&query.id) {
                drop(state);
                self.progress.notify_all();
                // Reproduce the simulated latency on the wall clock.
                self.sleep_until(completion.finished_at);
                return Some(ServedReply {
                    error: completion.error,
                    samples: completion.samples,
                });
            }
            self.fire_due_wakeups(&mut state);
            if state.ready.contains_key(&query.id) {
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                return Some(ServedReply::errored(query));
            }
            // Sleep until the next wakeup, the stall cap, or another
            // worker's progress — whichever comes first.
            let mut wait = deadline - now;
            if let Some(&Reverse(at)) = state.wakeups.peek() {
                let until = Nanos::from_nanos(at)
                    .saturating_sub(self.now())
                    .to_duration();
                wait = wait.min(until.max(Duration::from_micros(50)));
            }
            (state, _) = wait_timeout(&self.progress, state, wait);
        }
    }

    fn reset(&self) {
        let mut state = lock(&self.state);
        state.sut.reset();
        state.ready.clear();
        state.wakeups.clear();
        drop(state);
        self.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::query::QuerySample;
    use mlperf_loadgen::sut::FixedLatencySut;

    fn query(id: u64) -> Query {
        Query {
            id,
            samples: vec![QuerySample {
                id: id * 10,
                index: 0,
            }],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    #[test]
    fn hosted_fixed_latency_sut_replies() {
        let host = SimHost::new(FixedLatencySut::new("dev", Nanos::from_micros(100)));
        let reply = host.serve(&query(1)).expect("sim hosts always reply");
        assert!(!reply.error);
        assert_eq!(reply.samples.len(), 1);
        assert_eq!(reply.samples[0].sample_id, 10);
        assert_eq!(host.name(), "dev");
    }

    #[test]
    fn reset_clears_device_backlog() {
        let host = SimHost::new(FixedLatencySut::new("dev", Nanos::from_millis(1)));
        for id in 1..4 {
            host.serve(&query(id));
        }
        host.reset();
        let started = Instant::now();
        host.serve(&query(9)).expect("reply after reset");
        // Without the reset the device's busy_until backlog would delay
        // this reply by the three earlier queries.
        assert!(started.elapsed() < Duration::from_millis(50));
    }

    struct NeverCompletes;
    impl SimSut for NeverCompletes {
        fn name(&self) -> &str {
            "never"
        }
        fn on_query(&mut self, _now: Nanos, _query: &Query) -> SutReaction {
            SutReaction::none()
        }
    }

    #[test]
    fn stalled_device_resolves_as_error_not_hang() {
        let mut host = SimHost::new(NeverCompletes);
        host.stall_cap = Duration::from_millis(50);
        let reply = host.serve(&query(7)).expect("stall resolves to a reply");
        assert!(reply.error);
        assert_eq!(reply.samples[0].sample_id, 70);
    }
}
