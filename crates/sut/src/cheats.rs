//! Deliberately rule-breaking SUTs.
//!
//! The result-review process exists because submissions can violate the
//! rules in ways a single performance number hides (Section V-B). These
//! SUTs implement the abuses the LoadGen's validation suite targets, so
//! `mlperf-audit`'s tests have something real to catch:
//!
//! * [`CachingSut`] — caches query results; repeated sample indices run
//!   ~10× faster (the rules prohibit caching; duplicate-vs-unique index
//!   traffic exposes it).
//! * [`SeedSniffingSut`] — precomputed against the official schedule seed;
//!   fast only when the incoming sample sequence matches it (the
//!   alternate-random-seed test exposes it).
//! * [`SloppyAccuracySut`] — runs a degraded model in performance mode and
//!   the honest model in accuracy mode (randomly sampled performance-mode
//!   response logging exposes it).
//! * [`SilentDropperSut`] — quietly discards its slowest queries so the
//!   reported latency distribution contains only the flattering tail
//!   (the completeness audit's issued-vs-resolved count exposes it).

use crate::engine::DeviceSut;
use mlperf_loadgen::query::{
    Query, QueryCompletion, ResponsePayload, SampleCompletion, SampleIndex,
};
use mlperf_loadgen::sut::{SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use mlperf_stats::Rng64;

/// Wraps an `Immediate`-policy engine with a result cache: a query whose
/// samples were all seen before is answered *from the cache*, without
/// touching the device at all — completing in a fraction of the honest
/// latency and leaving the device free for other work.
pub struct CachingSut {
    inner: DeviceSut,
    cache: std::collections::HashMap<SampleIndex, ResponsePayload>,
    last_honest_latency: Nanos,
    speedup: u64,
}

impl CachingSut {
    /// Wraps `inner` with a result cache giving `speedup`× on hits.
    ///
    /// # Panics
    ///
    /// Panics if `speedup == 0`.
    pub fn new(inner: DeviceSut, speedup: u64) -> Self {
        assert!(speedup > 0, "speedup must be positive");
        Self {
            inner,
            cache: std::collections::HashMap::new(),
            last_honest_latency: Nanos::from_micros(100),
            speedup,
        }
    }
}

impl SimSut for CachingSut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        let all_cached = query
            .samples
            .iter()
            .all(|s| self.cache.contains_key(&s.index));
        if all_cached {
            let latency =
                Nanos::from_nanos((self.last_honest_latency.as_nanos() / self.speedup).max(1));
            return SutReaction::complete(QueryCompletion::ok(
                query.id,
                now + latency,
                query
                    .samples
                    .iter()
                    .map(|s| SampleCompletion {
                        sample_id: s.id,
                        payload: self.cache[&s.index].clone(),
                    })
                    .collect(),
            ));
        }
        let reaction = self.inner.on_query(now, query);
        for completion in &reaction.completions {
            self.last_honest_latency = completion.finished_at.saturating_sub(now);
            for (sc, qs) in completion.samples.iter().zip(&query.samples) {
                self.cache.insert(qs.index, sc.payload.clone());
            }
        }
        reaction
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        self.inner.on_wakeup(now)
    }

    fn reset(&mut self) {
        // Deliberately keeps the cache: real result caches survive runs.
        self.inner.reset();
    }
}

/// Precomputes against the official sample-index stream: while incoming
/// indices match its prediction it answers fast; on the first mismatch it
/// falls back to honest (slower) execution forever.
pub struct SeedSniffingSut {
    inner: DeviceSut,
    expected: Vec<SampleIndex>,
    position: usize,
    on_script: bool,
    speedup: u64,
}

impl SeedSniffingSut {
    /// Wraps `inner`, precomputed for the index stream that `qsl_seed`
    /// yields over `population` samples (one sample per query).
    pub fn new(inner: DeviceSut, qsl_seed: u64, population: usize, horizon: usize) -> Self {
        let mut rng = Rng64::new(qsl_seed);
        let expected = rng.sample_with_replacement(population, horizon);
        Self {
            inner,
            expected,
            position: 0,
            on_script: true,
            speedup: 8,
        }
    }
}

impl SimSut for SeedSniffingSut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        if self.on_script {
            for s in &query.samples {
                if self.expected.get(self.position) == Some(&s.index) {
                    self.position += 1;
                } else {
                    self.on_script = false;
                    break;
                }
            }
        }
        if self.on_script {
            // Precomputed: answer from the prepared buffer without touching
            // the device at all.
            let fast = Nanos::from_nanos(20_000 * query.samples.len() as u64 / self.speedup.max(1));
            return SutReaction::complete(QueryCompletion::ok(
                query.id,
                now + fast,
                query
                    .samples
                    .iter()
                    .map(|s| SampleCompletion {
                        sample_id: s.id,
                        payload: ResponsePayload::Empty,
                    })
                    .collect(),
            ));
        }
        self.inner.on_query(now, query)
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        self.inner.on_wakeup(now)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.position = 0;
        self.on_script = true;
    }
}

/// Answers honestly in accuracy-shaped traffic but swaps in garbage
/// payloads during performance-shaped traffic (single-sample queries),
/// assuming nobody checks. The accuracy-verification audit's sampled
/// performance-mode logging defeats the assumption.
pub struct SloppyAccuracySut {
    inner: DeviceSut,
    degraded_classes: usize,
}

impl SloppyAccuracySut {
    /// Wraps `inner`; performance-mode answers become `Class(index % k)`.
    pub fn new(inner: DeviceSut, degraded_classes: usize) -> Self {
        Self {
            inner,
            degraded_classes: degraded_classes.max(1),
        }
    }
}

impl SimSut for SloppyAccuracySut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        let mut reaction = self.inner.on_query(now, query);
        // Heuristic a cheater would use: full-dataset batch queries are
        // accuracy runs; everything else is performance traffic.
        let looks_like_performance = query.samples.len() <= 64;
        if looks_like_performance {
            for completion in &mut reaction.completions {
                for (sample, orig) in completion.samples.iter_mut().zip(&query.samples) {
                    sample.payload = ResponsePayload::Class(orig.index % self.degraded_classes);
                }
            }
        }
        reaction
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        self.inner.on_wakeup(now)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Silently discards completions for its slowest queries: a query whose
/// latency lands beyond `slow_factor`× the running mean of everything
/// reported so far simply never completes (up to a `drop_fraction` budget),
/// so the latency distribution the run reports is built only from the
/// queries the cheater chose to answer. No error, no log line — the query
/// vanishes. The completeness audit compares the LoadGen's issued count
/// against the SUT's resolved count to expose the gap.
pub struct SilentDropperSut {
    inner: DeviceSut,
    issued_at: std::collections::HashMap<u64, Nanos>,
    seen: u64,
    dropped: u64,
    mean_latency_ns: f64,
    drop_fraction: f64,
    slow_factor: f64,
}

impl SilentDropperSut {
    /// Wraps `inner`; up to `drop_fraction` of queries vanish when their
    /// latency exceeds `slow_factor`× the running mean.
    ///
    /// # Panics
    ///
    /// Panics if `drop_fraction` is outside `[0, 1]` or `slow_factor < 1`.
    pub fn new(inner: DeviceSut, drop_fraction: f64, slow_factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_fraction),
            "drop_fraction must be a fraction"
        );
        assert!(slow_factor >= 1.0, "slow_factor must be at least 1");
        Self {
            inner,
            issued_at: std::collections::HashMap::new(),
            seen: 0,
            dropped: 0,
            mean_latency_ns: 0.0,
            drop_fraction,
            slow_factor,
        }
    }

    fn censor(&mut self, mut reaction: SutReaction) -> SutReaction {
        let mut kept = Vec::with_capacity(reaction.completions.len());
        for completion in reaction.completions.drain(..) {
            let Some(issued) = self.issued_at.remove(&completion.query_id) else {
                kept.push(completion);
                continue;
            };
            let latency = completion.finished_at.saturating_sub(issued).as_nanos() as f64;
            self.seen += 1;
            let slow =
                self.mean_latency_ns > 0.0 && latency > self.slow_factor * self.mean_latency_ns;
            let within_budget = (self.dropped as f64) < self.drop_fraction * self.seen as f64;
            if slow && within_budget {
                self.dropped += 1;
                continue; // the query simply never completes
            }
            // The running mean covers only what the cheater reports, so the
            // censored tail never drags the threshold upward.
            self.mean_latency_ns += (latency - self.mean_latency_ns) / self.seen as f64;
            kept.push(completion);
        }
        reaction.completions = kept;
        reaction
    }
}

impl SimSut for SilentDropperSut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        self.issued_at.insert(query.id, now);
        let reaction = self.inner.on_query(now, query);
        self.censor(reaction)
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        let reaction = self.inner.on_wakeup(now);
        self.censor(reaction)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.issued_at.clear();
        self.seen = 0;
        self.dropped = 0;
        self.mean_latency_ns = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Architecture, DeviceSpec};
    use crate::engine::BatchPolicy;
    use mlperf_loadgen::query::QuerySample;
    use mlperf_models::{TaskId, Workload};

    fn engine() -> DeviceSut {
        DeviceSut::new(
            DeviceSpec::new(
                "cheat-dev",
                Architecture::Cpu,
                100.0,
                0.5,
                8,
                1,
                Nanos::from_micros(100),
            ),
            Workload::new(TaskId::ImageClassificationLight),
            BatchPolicy::Immediate,
        )
    }

    fn query(id: u64, index: usize) -> Query {
        Query {
            id,
            samples: vec![QuerySample { id, index }],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        }
    }

    #[test]
    fn caching_sut_speeds_up_repeats() {
        let mut sut = CachingSut::new(engine(), 10);
        let fresh = sut.on_query(Nanos::ZERO, &query(0, 5)).completions[0].finished_at;
        sut.reset();
        let repeat = sut.on_query(Nanos::ZERO, &query(1, 5)).completions[0].finished_at;
        assert!(
            repeat.as_nanos() * 5 < fresh.as_nanos(),
            "cache hit {repeat} not much faster than miss {fresh}"
        );
    }

    #[test]
    fn seed_sniffer_fast_on_script_slow_off() {
        let seed = 42;
        let population = 16;
        let mut rng = Rng64::new(seed);
        let script = rng.sample_with_replacement(population, 4);
        let mut sut = SeedSniffingSut::new(engine(), seed, population, 64);
        let on_script = sut.on_query(Nanos::ZERO, &query(0, script[0])).completions[0].finished_at;
        sut.reset();
        let off = (script[0] + 1) % population;
        let off_script = sut.on_query(Nanos::ZERO, &query(0, off)).completions[0].finished_at;
        assert!(
            on_script.as_nanos() * 4 < off_script.as_nanos(),
            "{on_script} vs {off_script}"
        );
    }

    #[test]
    fn silent_dropper_vanishes_slow_queries() {
        // A burst at t=0 on a serial device queues up, so latencies climb
        // query by query; the tail should silently disappear.
        let mut sut = SilentDropperSut::new(engine(), 0.25, 1.5);
        let mut completed = 0usize;
        for id in 0..16 {
            completed += sut
                .on_query(Nanos::ZERO, &query(id, id as usize % 4))
                .completions
                .len();
        }
        assert!(completed < 16, "no query was dropped");
        assert!(sut.dropped > 0);
        assert_eq!(completed + sut.dropped as usize, 16);
        // The drop budget bounds the damage.
        assert!(sut.dropped <= 5, "dropped {} of 16", sut.dropped);
        // After reset the first (unqueued) query completes normally.
        sut.reset();
        assert_eq!(
            sut.on_query(Nanos::ZERO, &query(99, 0)).completions.len(),
            1
        );
    }

    #[test]
    fn sloppy_sut_swaps_payloads_on_small_queries_only() {
        let inner = engine().with_payloads(std::sync::Arc::new(|_| ResponsePayload::Class(7)));
        let mut sut = SloppyAccuracySut::new(inner, 3);
        let perf = sut.on_query(Nanos::ZERO, &query(0, 4));
        assert_eq!(
            perf.completions[0].samples[0].payload,
            ResponsePayload::Class(1)
        );
        // A big accuracy-style batch keeps honest payloads.
        let big = Query {
            id: 1,
            samples: (0..100)
                .map(|i| QuerySample {
                    id: 100 + i as u64,
                    index: i,
                })
                .collect(),
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        };
        let acc = sut.on_query(Nanos::ZERO, &big);
        assert!(acc.completions[0]
            .samples
            .iter()
            .all(|s| s.payload == ResponsePayload::Class(7)));
    }
}
