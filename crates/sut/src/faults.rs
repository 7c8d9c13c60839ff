//! Fault injection: seeded, deterministic degradation of any [`SimSut`].
//!
//! Real submission hardware misbehaves: queries fail transiently, firmware
//! hiccups stall a device for milliseconds, sustained thermal throttling
//! halves throughput, and sometimes an accelerator falls off the bus
//! entirely. The LoadGen's validity rules exist to catch exactly these
//! degraded runs, so the simulator needs a way to *produce* them on
//! demand. A [`FaultPlan`] describes a reproducible schedule of faults and
//! [`FaultySut`] applies it as a decorator around any inner engine —
//! composing with the jitter and thermal models in [`crate::device`],
//! which model *healthy* variance, not failure.
//!
//! Determinism: per-query fault decisions are drawn from a hash of the
//! plan seed and the query id, never from shared mutable RNG state, so a
//! decision does not depend on the order in which queries reach the
//! decorator. Two runs with the same plan, seeds, and settings produce
//! byte-identical detail logs.

use mlperf_loadgen::query::Query;
use mlperf_loadgen::sut::{SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::splitmix64;
use mlperf_stats::Rng64;

/// A window during which the device is completely paused (a GC pause, a
/// firmware hiccup, a PCIe retrain): work finishing inside the window
/// slides to its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StallWindow {
    /// When the stall begins.
    pub(crate) start: Nanos,
    /// How long the device stays frozen.
    pub(crate) duration: Nanos,
}

impl StallWindow {
    /// First instant after the stall.
    pub(crate) fn end(&self) -> Nanos {
        self.start + self.duration
    }
}

/// A sustained throttle episode (thermal or power capping): service time
/// spent inside the episode is stretched by `slowdown`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ThrottleEpisode {
    /// When throttling begins.
    pub(crate) start: Nanos,
    /// How long it lasts.
    pub(crate) duration: Nanos,
    /// Service-time multiplier (> 1.0) applied to work inside the episode.
    pub(crate) slowdown: f64,
}

impl ThrottleEpisode {
    /// First instant after the episode.
    pub(crate) fn end(&self) -> Nanos {
        self.start + self.duration
    }
}

/// A reproducible schedule of faults, applied by [`FaultySut`].
///
/// The default plan (any seed, no faults armed) is inert: the decorator
/// forwards reactions untouched and [`FaultPlan::is_armed`] is false.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-query probability that the query resolves as an error.
    pub(crate) transient_error_prob: f64,
    /// Per-query probability of a latency spike.
    pub(crate) latency_spike_prob: f64,
    /// Service-duration multiplier for spiked queries (> 1.0).
    pub(crate) latency_spike_factor: f64,
    /// Scheduled full-pause windows.
    pub(crate) stalls: Vec<StallWindow>,
    /// Scheduled sustained-throttle episodes.
    pub(crate) throttles: Vec<ThrottleEpisode>,
    /// The instant the device dies: queries issued at or after this time
    /// are never answered, and in-flight work never completes.
    pub(crate) death_at: Option<Nanos>,
}

impl FaultPlan {
    /// An inert plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            transient_error_prob: 0.0,
            latency_spike_prob: 0.0,
            latency_spike_factor: 1.0,
            stalls: Vec::new(),
            throttles: Vec::new(),
            death_at: None,
        }
    }

    /// Arms transient query errors with per-query probability `p`.
    pub fn with_transient_errors(mut self, p: f64) -> Self {
        self.transient_error_prob = p;
        self
    }

    /// Arms latency spikes: with probability `p` a query's service
    /// duration stretches by `factor`.
    pub fn with_latency_spikes(mut self, p: f64, factor: f64) -> Self {
        self.latency_spike_prob = p;
        self.latency_spike_factor = factor;
        self
    }

    /// Adds a full-pause window.
    pub fn with_stall(mut self, start: Nanos, duration: Nanos) -> Self {
        self.stalls.push(StallWindow { start, duration });
        self
    }

    /// Adds a sustained throttle episode.
    pub fn with_throttle(mut self, start: Nanos, duration: Nanos, slowdown: f64) -> Self {
        self.throttles.push(ThrottleEpisode {
            start,
            duration,
            slowdown,
        });
        self
    }

    /// Arms hard device death at `t`.
    pub fn with_death_at(mut self, t: Nanos) -> Self {
        self.death_at = Some(t);
        self
    }

    /// Whether any fault is armed. An unarmed plan makes [`FaultySut`]
    /// a pass-through.
    pub fn is_armed(&self) -> bool {
        self.transient_error_prob > 0.0
            || self.latency_spike_prob > 0.0
            || !self.stalls.is_empty()
            || !self.throttles.is_empty()
            || self.death_at.is_some()
    }

    /// Order-independent per-query RNG: a hash of the plan seed and the
    /// query id, so the verdict for query N is identical however queries
    /// interleave.
    fn query_rng(&self, query_id: u64) -> Rng64 {
        Rng64::new(splitmix64(self.seed ^ splitmix64(query_id)))
    }
}

/// Decorator injecting a [`FaultPlan`] into any inner [`SimSut`].
///
/// The decorator rewrites the *reaction stream*: completions returned by
/// the inner engine (from `on_query` or a later batched `on_wakeup`) are
/// errored, delayed, stretched, or dropped per the plan; the inner engine
/// never knows.
pub struct FaultySut<S> {
    inner: S,
    plan: FaultPlan,
    name: String,
}

impl<S: SimSut> FaultySut<S> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        let name = format!("{}+faults", inner.name());
        Self { inner, plan, name }
    }

    /// Applies the plan to one reaction. `now` is the event time at which
    /// the inner engine produced it.
    fn mangle(&mut self, now: Nanos, mut reaction: SutReaction) -> SutReaction {
        let mut kept = Vec::with_capacity(reaction.completions.len());
        for mut completion in reaction.completions.drain(..) {
            // Per-query verdicts, in a fixed draw order so each fault's
            // decision stream is independent of the others' probabilities.
            let mut rng = self.plan.query_rng(completion.query_id);
            let roll_error = rng.next_f64();
            let roll_spike = rng.next_f64();
            if self.plan.latency_spike_prob > 0.0 && roll_spike < self.plan.latency_spike_prob {
                let service = completion.finished_at.saturating_sub(now);
                let stretched =
                    Nanos::from_secs_f64(service.as_secs_f64() * self.plan.latency_spike_factor);
                completion.finished_at = now + stretched;
            }
            // Sustained throttling stretches the part of the service
            // interval that overlaps each episode.
            for episode in &self.plan.throttles {
                let overlap_start = now.max(episode.start);
                let overlap_end = completion.finished_at.min(episode.end());
                if overlap_end > overlap_start {
                    let inside = overlap_end.saturating_sub(overlap_start);
                    let extra =
                        Nanos::from_secs_f64(inside.as_secs_f64() * (episode.slowdown - 1.0));
                    if extra > Nanos::ZERO {
                        completion.finished_at += extra;
                    }
                }
            }
            // A stall freezes the device: anything finishing inside the
            // window is delivered at its end. Applied after throttling so
            // a throttle-deferred finish can still land in a stall.
            for stall in &self.plan.stalls {
                if completion.finished_at >= stall.start && completion.finished_at < stall.end() {
                    completion.finished_at = stall.end();
                }
            }
            if self.plan.transient_error_prob > 0.0 && roll_error < self.plan.transient_error_prob {
                completion.error = true;
            }
            // Death: completions that would land at or after the death
            // instant are never delivered.
            if let Some(death) = self.plan.death_at {
                if completion.finished_at >= death {
                    continue;
                }
            }
            kept.push(completion);
        }
        reaction.completions = kept;
        if let (Some(death), Some(at)) = (self.plan.death_at, reaction.wakeup_at) {
            if at >= death {
                reaction.wakeup_at = None;
            }
        }
        reaction
    }
}

impl<S: SimSut> SimSut for FaultySut<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        if !self.plan.is_armed() {
            return self.inner.on_query(now, query);
        }
        if let Some(death) = self.plan.death_at {
            if now >= death {
                // The device is gone: the query is accepted by the
                // harness but never answered.
                return SutReaction::none();
            }
        }
        let reaction = self.inner.on_query(now, query);
        self.mangle(now, reaction)
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        if !self.plan.is_armed() {
            return self.inner.on_wakeup(now);
        }
        if let Some(death) = self.plan.death_at {
            if now >= death {
                return SutReaction::none();
            }
        }
        let reaction = self.inner.on_wakeup(now);
        self.mangle(now, reaction)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

impl<S: SimSut> std::fmt::Debug for FaultySut<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultySut")
            .field("name", &self.name)
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_loadgen::config::TestSettings;
    use mlperf_loadgen::des::run_simulated;
    use mlperf_loadgen::qsl::MemoryQsl;
    use mlperf_loadgen::sut::FixedLatencySut;
    use mlperf_loadgen::validate::ValidityIssue;

    fn server_settings() -> TestSettings {
        TestSettings::server(500.0, Nanos::from_millis(10))
            .with_min_query_count(200)
            .with_min_duration(Nanos::from_millis(50))
    }

    fn inner() -> FixedLatencySut {
        FixedLatencySut::new("fixed", Nanos::from_micros(300))
    }

    #[test]
    fn unarmed_plan_is_a_pass_through() {
        let scenarios = [
            TestSettings::single_stream()
                .with_min_query_count(200)
                .with_min_duration(Nanos::from_millis(50)),
            TestSettings::multi_stream(4, Nanos::from_millis(2))
                .with_min_query_count(100)
                .with_min_duration(Nanos::from_millis(50)),
            server_settings(),
            TestSettings::offline()
                .with_offline_min_sample_count(500)
                .with_min_duration(Nanos::from_millis(50)),
        ];
        for settings in scenarios {
            let scenario = settings.scenario;
            let mut qsl = MemoryQsl::new("q", 16, 16);
            let baseline = run_simulated(&settings, &mut qsl, &mut inner()).unwrap();
            let mut faulty = FaultySut::new(inner(), FaultPlan::new(42));
            assert!(!faulty.plan.is_armed());
            let out = run_simulated(&settings, &mut qsl, &mut faulty).unwrap();
            // Every timestamp of every query, not a summary of them: the
            // simulated clock makes the two streams comparable exactly.
            assert!(!out.records.is_empty());
            assert_eq!(baseline.records, out.records, "{scenario}: records");
            assert_eq!(baseline.accuracy_log, out.accuracy_log, "{scenario}");
            // Identical apart from the decorator suffix on the SUT name.
            let strip = |line: String| line.split_once(" | ").expect("name field").1.to_string();
            assert_eq!(
                strip(baseline.result.summary_line()),
                strip(out.result.summary_line()),
                "{scenario}: inert plan must not change the run"
            );
        }
    }

    #[test]
    fn transient_errors_invalidate_past_threshold() {
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let plan = FaultPlan::new(7).with_transient_errors(0.10);
        let mut faulty = FaultySut::new(inner(), plan);
        let out = run_simulated(&server_settings(), &mut qsl, &mut faulty).unwrap();
        assert!(out.result.error_count > 0, "some queries must error");
        assert!(out
            .result
            .validity
            .iter()
            .any(|i| matches!(i, ValidityIssue::ErrorFractionExceeded { .. })));
    }

    #[test]
    fn fault_decisions_are_order_independent() {
        let plan = FaultPlan::new(99).with_transient_errors(0.2);
        let verdicts: Vec<bool> = (0..64)
            .map(|id| plan.query_rng(id).next_f64() < 0.2)
            .collect();
        let reversed: Vec<bool> = (0..64)
            .rev()
            .map(|id| plan.query_rng(id).next_f64() < 0.2)
            .collect();
        let mut reversed = reversed;
        reversed.reverse();
        assert_eq!(verdicts, reversed);
        assert!(verdicts.iter().any(|v| *v) && verdicts.iter().any(|v| !*v));
    }

    #[test]
    fn stall_slides_completions_to_window_end() {
        let plan = FaultPlan::new(1).with_stall(Nanos::from_millis(1), Nanos::from_millis(5));
        let mut faulty = FaultySut::new(inner(), plan);
        let q = Query {
            id: 3,
            samples: vec![mlperf_loadgen::query::QuerySample { id: 30, index: 0 }],
            scheduled_at: Nanos::from_millis(1),
            tenant: 0,
        };
        let r = faulty.on_query(Nanos::from_millis(1), &q);
        assert_eq!(r.completions.len(), 1);
        assert_eq!(
            r.completions[0].finished_at,
            Nanos::from_millis(6),
            "finish inside the stall window slides to its end"
        );
    }

    #[test]
    fn throttle_stretches_overlapping_service() {
        // 300 us of service fully inside a 3x-slowdown episode gains 600 us.
        let plan = FaultPlan::new(1).with_throttle(Nanos::ZERO, Nanos::from_secs(1), 3.0);
        let mut faulty = FaultySut::new(inner(), plan);
        let q = Query {
            id: 5,
            samples: vec![mlperf_loadgen::query::QuerySample { id: 50, index: 0 }],
            scheduled_at: Nanos::ZERO,
            tenant: 0,
        };
        let r = faulty.on_query(Nanos::ZERO, &q);
        assert_eq!(r.completions[0].finished_at, Nanos::from_micros(900));
    }

    #[test]
    fn death_stops_all_responses() {
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let plan = FaultPlan::new(11).with_death_at(Nanos::from_millis(20));
        let mut faulty = FaultySut::new(inner(), plan);
        let out = run_simulated(&server_settings(), &mut qsl, &mut faulty).unwrap();
        assert!(!out.result.is_valid());
        assert!(out
            .result
            .validity
            .iter()
            .any(|i| matches!(i, ValidityIssue::IncompleteQueries { .. })));
    }

    /// The headline reproducibility contract: two runs with the same fault
    /// seed produce *byte-identical* detail logs — every issue, completion,
    /// and error lands at the same nanosecond with the same payload, so a
    /// degraded run can be replayed exactly from its seed.
    #[test]
    fn same_seed_replays_to_byte_identical_detail_logs() {
        use mlperf_loadgen::Run;
        use mlperf_trace::RingBufferSink;

        let detail_log = || {
            let plan = FaultPlan::new(0xD15EA5E)
                .with_transient_errors(0.15)
                .with_latency_spikes(0.05, 10.0)
                .with_stall(Nanos::from_millis(10), Nanos::from_millis(5));
            let sink = RingBufferSink::unbounded();
            let mut faulty = FaultySut::new(inner(), plan);
            let mut qsl = MemoryQsl::new("q", 16, 16);
            Run::simulated(&server_settings())
                .sink(&sink)
                .run(&mut qsl, &mut faulty)
                .unwrap();
            mlperf_trace::render_detail_log(&sink.snapshot())
        };

        let first = detail_log();
        let second = detail_log();
        assert!(
            first.lines().any(|l| l.contains("QueryErrored")),
            "armed plan must inject observable faults:\n{}",
            first.lines().take(5).collect::<Vec<_>>().join("\n")
        );
        assert_eq!(
            first, second,
            "same fault seed must replay to a byte-identical detail log"
        );
    }
}
