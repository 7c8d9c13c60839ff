//! Query schedules and sample selection.
//!
//! Figure 4 of the paper: the LoadGen materializes *when* queries arrive
//! (scenario dependent) and *which* samples they contain (uniform with
//! replacement from the loaded performance set) purely from the seed triple,
//! before the timed portion of the run begins. Optimizations that exploit
//! the fixed schedule are prohibited — and detectable, because the audit
//! reruns with alternate seeds.
//!
//! The issue loops do not materialize: they pull one query at a time from
//! the cursors at the end of this module — `SampleCursor` for the draws
//! every scenario makes, `ArrivalSource` for the open-loop runs' arrivals
//! (the scenario's resumable Poisson rule, or a recorded schedule) — which
//! yield exactly what the functions above would have materialized.

use crate::config::TestSettings;
use crate::journal::{Checkpoint, CursorState};
use crate::query::{Query, QuerySample, SampleIndex};
use crate::replay::ReplaySchedule;
use crate::scenario::Scenario;
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_stats::dist::PoissonProcess;
use mlperf_stats::Rng64;
use mlperf_trace::profile_span;

/// The server scenario's arrival process: the one place a Poisson process
/// is built from settings.
fn poisson(settings: &TestSettings) -> Result<PoissonProcess, LoadGenError> {
    PoissonProcess::new(
        settings.server_target_qps,
        Rng64::new(settings.seeds.schedule_seed),
    )
    .map_err(|e| LoadGenError::BadSettings(e.to_string()))
}

/// Generates the sample indices for `count` queries of
/// `samples_per_query` each, drawn uniformly with replacement from
/// `[0, population)` using the QSL seed.
///
/// # Panics
///
/// Panics if `population == 0`.
pub fn sample_indices(
    settings: &TestSettings,
    population: usize,
    count: u64,
) -> Vec<Vec<SampleIndex>> {
    profile_span!("schedule/sample_indices");
    assert!(population > 0, "cannot sample from an empty population");
    let mut rng = Rng64::new(settings.seeds.qsl_seed);
    (0..count)
        .map(|_| rng.sample_with_replacement(population, settings.samples_per_query))
        .collect()
}

/// Materializes the arrival timestamps for `count` server-scenario queries:
/// a Poisson process at `server_target_qps`, deterministic in the schedule
/// seed.
///
/// # Panics
///
/// Panics if the settings carry a non-positive target QPS (validated
/// settings cannot).
pub fn server_arrivals(settings: &TestSettings, count: u64) -> Vec<Nanos> {
    profile_span!("schedule/server_arrivals");
    poisson(settings)
        .expect("validated settings have positive qps")
        .take(count as usize)
        .map(Nanos::from_secs_f64)
        .collect()
}

/// Builds a full query from pre-drawn indices.
pub fn build_query(id: u64, next_sample_id: &mut u64, indices: &[SampleIndex], at: Nanos) -> Query {
    let mut query = Query {
        id,
        samples: Vec::new(),
        scheduled_at: at,
        tenant: 0,
    };
    refill_query(&mut query, id, next_sample_id, indices, at);
    query
}

/// [`build_query`] into an existing query, reusing its sample list: the
/// simulated loop issues every query of a run from one `Query`.
#[inline]
pub(crate) fn refill_query(
    query: &mut Query,
    id: u64,
    next_sample_id: &mut u64,
    indices: &[SampleIndex],
    at: Nanos,
) {
    query.id = id;
    query.scheduled_at = at;
    query.samples.clear();
    query.samples.extend(indices.iter().map(|&index| {
        let sid = *next_sample_id;
        *next_sample_id += 1;
        QuerySample { id: sid, index }
    }));
}

/// Which query is next and which samples it holds: the part of a run's
/// position every scenario advances, on either clock.
pub(crate) struct SampleCursor<'a> {
    settings: &'a TestSettings,
    population: usize,
    qsl_rng: Rng64,
    issued: u64,
}

impl<'a> SampleCursor<'a> {
    pub(crate) fn new(settings: &'a TestSettings, population: usize) -> Self {
        Self {
            settings,
            population,
            qsl_rng: Rng64::new(settings.seeds.qsl_seed),
            issued: 0,
        }
    }

    /// Draws the next query's sample indices — one offline batch,
    /// `samples_per_query` otherwise — into `indices`, which it clears
    /// first, so a loop reuses one buffer; returns the query's ordinal.
    #[inline]
    pub(crate) fn draw_into(&mut self, indices: &mut Vec<SampleIndex>) -> u64 {
        let count = match self.settings.scenario {
            Scenario::Offline => self.settings.offline_min_sample_count as usize,
            _ => self.settings.samples_per_query,
        };
        let ordinal = self.issued;
        self.issued += 1;
        let (rng, population) = (&mut self.qsl_rng, self.population);
        indices.clear();
        indices.extend((0..count).map(|_| rng.next_index(population)));
        ordinal
    }

    /// Whether a query at `at` is still owed: the run goes on until both
    /// the Table V count and the minimum duration are satisfied.
    #[inline]
    pub(crate) fn more(&self, at: Nanos) -> bool {
        self.issued < self.settings.min_query_count || at < self.settings.min_duration
    }

    /// The cursor as a checkpoint of a scenario with no arrival process
    /// carries it (offline).
    pub(crate) fn state(&self) -> CursorState {
        CursorState {
            issued: self.issued,
            qsl_rng: self.qsl_rng.state(),
            ..CursorState::default()
        }
    }
}

/// The scenario's own open-loop rule: Poisson arrivals, uniform sample
/// draws. The one resumable source — a checkpoint captures
/// [`state`](PoissonCursor::state) and [`start`](PoissonCursor::start)
/// continues the identical stream from it.
pub(crate) struct PoissonCursor<'a> {
    samples: SampleCursor<'a>,
    arrivals: PoissonProcess,
    pending: Option<Nanos>,
}

impl<'a> PoissonCursor<'a> {
    /// The cursor at the start of a run, or where `restored` left it.
    pub(crate) fn start(
        settings: &'a TestSettings,
        population: usize,
        restored: Option<&Checkpoint>,
    ) -> Result<Self, LoadGenError> {
        let mut samples = SampleCursor::new(settings, population);
        let Some(cp) = restored else {
            let mut arrivals = poisson(settings)?;
            let pending = Some(draw(&mut arrivals));
            return Ok(Self {
                samples,
                arrivals,
                pending,
            });
        };
        samples.qsl_rng = Rng64::from_state(cp.qsl_rng);
        samples.issued = cp.issued;
        let (qps, now) = (
            settings.server_target_qps,
            f64::from_bits(cp.sched_now_bits),
        );
        Ok(Self {
            samples,
            arrivals: PoissonProcess::resume(qps, cp.sched_rng, now)
                .map_err(|e| LoadGenError::BadSettings(e.to_string()))?,
            pending: cp.pending_arrival,
        })
    }

    pub(crate) fn state(&self) -> CursorState {
        let (sched_rng, sched_now) = self.arrivals.state();
        CursorState {
            pending_arrival: self.pending,
            sched_rng,
            sched_now_bits: sched_now.to_bits(),
            ..self.samples.state()
        }
    }

    // Which arrival ends a Poisson run differs by clock, and both
    // behaviours are pinned by logical-log hashes (DESIGN §3, "where the
    // two clocks still differ"), so each issue loop hands
    // `ArrivalSource::next_into` its own rule for lining up the arrival
    // after the one it just took at `taken`.

    /// The simulated loop's rule: the first arrival at or past
    /// `min_duration` is drawn but never issued.
    #[inline]
    pub(crate) fn advance_simulated(&mut self, _taken: Nanos) {
        let next = draw(&mut self.arrivals);
        self.pending = self.samples.more(next).then_some(next);
    }

    /// The wall-clock loop's rule: that arrival is still issued, and
    /// nothing is drawn after it.
    #[inline]
    pub(crate) fn advance_wall(&mut self, taken: Nanos) {
        self.pending = self.samples.more(taken).then(|| draw(&mut self.arrivals));
    }
}

fn draw(arrivals: &mut PoissonProcess) -> Nanos {
    Nanos::from_secs_f64(arrivals.next().expect("poisson process is infinite"))
}

/// Where an open-loop run's queries come from. Static dispatch: the issue
/// loops match on it once per arrival, nothing is boxed.
pub(crate) enum ArrivalSource<'a> {
    /// The scenario's generative rule.
    Poisson(PoissonCursor<'a>),
    /// A recorded schedule, re-issued as recorded: it ends when it is
    /// exhausted, whatever `min_query_count` / `min_duration` say.
    Replay {
        schedule: &'a ReplaySchedule,
        population: usize,
        next: usize,
    },
}

impl<'a> ArrivalSource<'a> {
    /// When the next query is due; `None` once the source has ended.
    #[inline]
    pub(crate) fn pending(&self) -> Option<Nanos> {
        match self {
            Self::Poisson(cursor) => cursor.pending,
            Self::Replay { schedule, next, .. } => schedule.arrivals.get(*next).copied(),
        }
    }

    /// Takes the pending arrival — its query ordinal and arrival time,
    /// its sample indices into `indices` (cleared first) — and lines up
    /// the one after it: a recorded schedule's next entry, or whatever
    /// `advance` (the calling loop's `PoissonCursor::advance_*`) says
    /// follows.
    #[inline]
    pub(crate) fn next_into(
        &mut self,
        advance: impl FnOnce(&mut PoissonCursor<'a>, Nanos),
        indices: &mut Vec<SampleIndex>,
    ) -> Option<(u64, Nanos)> {
        let at = self.pending()?;
        match self {
            Self::Poisson(cursor) => {
                let ordinal = cursor.samples.draw_into(indices);
                advance(cursor, at);
                Some((ordinal, at))
            }
            Self::Replay {
                schedule,
                population,
                next,
            } => {
                // A recorded trace may index a larger QSL than the one it
                // replays against; fold indices into the population rather
                // than rejecting the run.
                let ordinal = *next;
                *next += 1;
                indices.clear();
                indices.extend(schedule.indices[ordinal].iter().map(|i| i % *population));
                Some((ordinal as u64, at))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestSettings;

    #[test]
    fn sample_indices_deterministic_in_seed() {
        let s = TestSettings::single_stream();
        let a = sample_indices(&s, 100, 50);
        let b = sample_indices(&s, 100, 50);
        assert_eq!(a, b);
        let alt = s.clone().with_seeds(s.seeds.alternate(0));
        assert_ne!(a, sample_indices(&alt, 100, 50));
    }

    #[test]
    fn sample_indices_respect_population() {
        let s = TestSettings::multi_stream(4, Nanos::from_millis(50));
        for q in sample_indices(&s, 10, 100) {
            assert_eq!(q.len(), 4);
            assert!(q.iter().all(|i| *i < 10));
        }
    }

    #[test]
    fn server_arrivals_monotone_and_rate_matched() {
        let s = TestSettings::server(1000.0, Nanos::from_millis(15));
        let arrivals = server_arrivals(&s, 10_000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // 10,000 arrivals at 1000 qps should span roughly 10 seconds.
        let span = arrivals.last().unwrap().as_secs_f64();
        assert!((9.0..11.0).contains(&span), "span={span}");
    }

    #[test]
    fn server_arrivals_deterministic_and_seed_sensitive() {
        let s = TestSettings::server(100.0, Nanos::from_millis(15));
        assert_eq!(server_arrivals(&s, 100), server_arrivals(&s, 100));
        let alt = s.clone().with_seeds(s.seeds.alternate(1));
        assert_ne!(server_arrivals(&s, 100), server_arrivals(&alt, 100));
    }

    #[test]
    fn build_query_assigns_unique_sample_ids() {
        let mut next = 0u64;
        let q1 = build_query(0, &mut next, &[5, 6], Nanos::ZERO);
        let q2 = build_query(1, &mut next, &[7], Nanos::from_secs(1));
        assert_eq!(q1.samples[0].id, 0);
        assert_eq!(q1.samples[1].id, 1);
        assert_eq!(q2.samples[0].id, 2);
        assert_eq!(q2.scheduled_at, Nanos::from_secs(1));
    }
}
