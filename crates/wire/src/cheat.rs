//! Deliberately misbehaving services, for audit tests.
//!
//! A networked SUT has a failure mode an in-process one does not: it can
//! simply never answer. [`SilentDropService`] wraps any honest service
//! and swallows a seeded fraction of queries without a completion frame —
//! the cheat the TEST06 completeness audit exists to catch.

use std::sync::Mutex;

use mlperf_loadgen::query::Query;
use mlperf_stats::rng::Rng64;
use mlperf_trace::sync::lock;

use crate::service::{ServedReply, WireService};

/// Wraps a service and silently drops a seeded fraction of queries.
pub struct SilentDropService<S> {
    inner: S,
    drop_fraction: f64,
    rng: Mutex<Rng64>,
    seed: u64,
}

impl<S: WireService> SilentDropService<S> {
    /// Drops roughly `drop_fraction` of queries (clamped to `[0, 1]`),
    /// chosen by a deterministic seeded draw.
    pub fn new(inner: S, drop_fraction: f64, seed: u64) -> Self {
        SilentDropService {
            inner,
            drop_fraction: drop_fraction.clamp(0.0, 1.0),
            rng: Mutex::new(Rng64::new(seed)),
            seed,
        }
    }
}

impl<S: WireService> WireService for SilentDropService<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn serve(&self, query: &Query) -> Option<ServedReply> {
        let roll = lock(&self.rng).next_f64();
        if roll < self.drop_fraction {
            return None;
        }
        self.inner.serve(query)
    }

    fn reset(&self) {
        self.inner.reset();
        *lock(&self.rng) = Rng64::new(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::query::QuerySample;
    use mlperf_loadgen::sut::SleepSut;
    use mlperf_loadgen::time::Nanos;

    fn query(id: u64) -> Query {
        Query {
            id,
            samples: vec![QuerySample { id, index: 0 }],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    #[test]
    fn drops_roughly_the_requested_fraction() {
        let cheat =
            SilentDropService::new(SleepSut::new("honest", std::time::Duration::ZERO), 0.25, 7);
        let dropped = (0..400)
            .filter(|&i| cheat.serve(&query(i)).is_none())
            .count();
        assert!((60..=140).contains(&dropped), "dropped {dropped} of 400");
    }

    #[test]
    fn zero_fraction_never_drops_and_reset_replays() {
        let cheat =
            SilentDropService::new(SleepSut::new("honest", std::time::Duration::ZERO), 0.5, 42);
        let first: Vec<bool> = (0..50).map(|i| cheat.serve(&query(i)).is_none()).collect();
        cheat.reset();
        let second: Vec<bool> = (0..50).map(|i| cheat.serve(&query(i)).is_none()).collect();
        assert_eq!(first, second, "reset must replay the same drop pattern");

        let honest =
            SilentDropService::new(SleepSut::new("honest", std::time::Duration::ZERO), 0.0, 1);
        assert!((0..50).all(|i| honest.serve(&query(i)).is_some()));
    }
}
