//! What every workload has in common: set up, warm up, repeat for the
//! time budget, take medians, and check that repeats agree.

use crate::span::{Span, SpanLog};
use crate::summary::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans one repeat may hand back for the span file.
pub const KEPT_SPANS: usize = 100_000;

/// How much work a repeat does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes PERF.md states; the only numbers worth comparing.
    Full,
    /// About a tenth: proves every workload and check runs, and fills in
    /// the per-layer ledger of the workloads that were not chosen.
    Quick,
}

impl Scale {
    /// `full` at full scale, a tenth of it (at least `floor`) otherwise.
    pub fn of(self, full: u64, floor: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 10).max(floor),
        }
    }
}

/// One named per-layer value measured by one repeat (or one probe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn sample(name: &'static str, unit: &'static str, value: f64) -> Sample {
    Sample { name, unit, value }
}

/// What one repeat of a workload measured.
#[derive(Debug, Default)]
pub struct Repeat {
    /// Queries issued.
    pub ops: u64,
    /// Queries errored or left outstanding.
    pub failed: u64,
    /// FNV-1a over the repeat's logical records.
    pub hash: u64,
    /// The workload's headline, ns per query.
    pub headline_ns: f64,
    /// Seconds the repeat spent tearing down what it had measured
    /// (joining threads, closing sockets): not part of setting up.
    pub teardown_s: f64,
    /// Per-layer values of this repeat.
    pub samples: Vec<Sample>,
    /// Spans for the span file (traced repeats; at most [`KEPT_SPANS`]).
    pub spans: Vec<Span>,
}

/// A named workload. Errors are correctness failures, worded for the user.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Name of this workload's traced-vs-untraced headline metric.
    const TRACE_OVERHEAD: &'static str;

    /// Builds the workload's inputs from the seed: settings, queries, QSL,
    /// SUT. The program under test only ever sees these.
    fn setup(seed: u64, scale: Scale, scratch: &Path) -> Result<Self, String>;

    /// One repeat. With a span log the repeat runs behind the timing
    /// decorators and reports per-layer self times.
    fn repeat(&mut self, trace: Option<&Arc<SpanLog>>) -> Result<Repeat, String>;

    /// Direct timed calls into the layers this workload exercises.
    fn probes(&mut self) -> Result<Vec<Sample>, String>;

    /// A run's headline from its repeats' headlines: their median, unless
    /// the workload has measured its noise and knows better.
    fn headline(repeats: &[f64]) -> f64 {
        median(repeats)
    }

    /// Checks that only hold of the medians over all repeats, where one
    /// repeat alone may be disturbed by the machine.
    fn check(_layers: &BTreeMap<&'static str, (&'static str, f64)>) -> Result<(), String> {
        Ok(())
    }
}

/// Medians over the repeats of one workload.
#[derive(Debug, Default)]
pub struct Measured {
    /// Median wall time of one set-up plus warm-up repeat, s.
    pub setup_s: f64,
    /// The workload's headline over untraced repeats, ns per query.
    pub headline_ns: f64,
    /// Untraced repeats timed.
    pub repeats: usize,
    /// Queries issued by timed repeats.
    pub attempted: u64,
    /// Queries failed in timed repeats.
    pub failed: u64,
    /// The logical-record hash every repeat agreed on.
    pub hash: u64,
    /// Per-layer medians by name: (unit, value).
    pub layers: BTreeMap<&'static str, (&'static str, f64)>,
    /// Spans of the first traced repeat.
    pub spans: Vec<Span>,
    /// Correctness failures; empty means every check passed.
    pub failures: Vec<String>,
}

/// At least this many repeats, whatever the budget.
const MIN_REPEATS: usize = 3;
/// Set-ups beyond the third stop once they have taken this long together.
const SETUP_BUDGET: Duration = Duration::from_secs(2);

#[derive(Default)]
struct Loop {
    headlines: Vec<f64>,
    samples: BTreeMap<&'static str, (&'static str, Vec<f64>)>,
    ops: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// Repeats until `budget` is spent (and at least `min` times), checking
/// each repeat's hash against `hash`.
fn repeat_for<W: Workload>(
    w: &mut W,
    budget: Duration,
    min: usize,
    trace: Option<&Arc<SpanLog>>,
    hash: u64,
    failures: &mut Vec<String>,
) -> Loop {
    let mut out = Loop::default();
    let start = Instant::now();
    while out.headlines.len() < min || start.elapsed() < budget {
        match w.repeat(trace) {
            Ok(r) => {
                if r.hash != hash {
                    failures.push(format!(
                        "{}: repeat {} hashed {:016x}, warm-up hashed {hash:016x}",
                        W::NAME,
                        out.headlines.len(),
                        r.hash
                    ));
                }
                out.headlines.push(r.headline_ns);
                out.ops += r.ops;
                out.failed += r.failed;
                for s in r.samples {
                    out.samples
                        .entry(s.name)
                        .or_insert((s.unit, Vec::new()))
                        .1
                        .push(s.value);
                }
                if out.spans.is_empty() {
                    out.spans = r.spans;
                }
            }
            Err(e) => {
                failures.push(format!("{}: {e}", W::NAME));
                break;
            }
        }
    }
    out
}

/// Runs one workload: set-ups (each with its warm-up repeat), then
/// untraced repeats for the budget. When `traced`, the budget is split
/// evenly between untraced and traced repeats, and the layer probes run
/// after it.
pub fn measure<W: Workload>(
    seed: u64,
    scale: Scale,
    budget: Duration,
    traced: bool,
    scratch: &Path,
) -> Measured {
    let mut m = Measured::default();
    // Set up several times and report the median: one set-up is too short
    // to time steadily, and the first also pays for cold caches. Short
    // set-ups are repeated more often, up to a fixed share of a run.
    let (min_setups, max_setups) = if scale == Scale::Full { (3, 9) } else { (1, 1) };
    let setting_up = Instant::now();
    let mut setup_s = Vec::new();
    let mut ready = None;
    while setup_s.len() < min_setups
        || (setup_s.len() < max_setups && setting_up.elapsed() < SETUP_BUDGET)
    {
        let start = Instant::now();
        let warmed = W::setup(seed, scale, scratch).and_then(|mut w| {
            let warm = w.repeat(None)?;
            Ok((w, warm))
        });
        let elapsed = start.elapsed().as_secs_f64();
        match warmed {
            Ok(pair) => {
                setup_s.push(elapsed - pair.1.teardown_s);
                ready = Some(pair);
            }
            Err(e) => {
                m.failures.push(format!("{}: set-up: {e}", W::NAME));
                return m;
            }
        }
    }
    m.setup_s = median(&setup_s);
    let (mut w, warm) = ready.expect("at least one set-up ran");
    m.hash = warm.hash;
    if warm.failed > 0 {
        m.failures.push(format!(
            "{}: warm-up failed {} queries",
            W::NAME,
            warm.failed
        ));
    }

    let min = if scale == Scale::Full { MIN_REPEATS } else { 2 };
    let budget = if traced { budget / 2 } else { budget };
    let plain = repeat_for(&mut w, budget, min, None, m.hash, &mut m.failures);
    if plain.headlines.is_empty() {
        return m;
    }
    m.headline_ns = W::headline(&plain.headlines);
    m.repeats = plain.headlines.len();
    m.attempted = plain.ops;
    m.failed = plain.failed;
    let mut samples = plain.samples;

    if traced {
        let log = Arc::new(SpanLog::new());
        let spanned = repeat_for(&mut w, budget, min, Some(&log), m.hash, &mut m.failures);
        m.attempted += spanned.ops;
        m.failed += spanned.failed;
        m.spans = spanned.spans;
        if !spanned.headlines.is_empty() {
            let overhead = (W::headline(&spanned.headlines) / m.headline_ns - 1.0) * 100.0;
            m.layers.insert(W::TRACE_OVERHEAD, ("%", overhead));
        }
        // A traced repeat reports what an untraced one does, plus the
        // span-derived values; where both exist the untraced one stands.
        for (name, entry) in spanned.samples {
            samples.entry(name).or_insert(entry);
        }
        match w.probes() {
            Ok(probes) => {
                for p in probes {
                    m.layers.insert(p.name, (p.unit, p.value));
                }
            }
            Err(e) => m.failures.push(format!("{}: probes: {e}", W::NAME)),
        }
    }
    for (name, (unit, values)) in samples {
        m.layers.insert(name, (unit, median(&values)));
    }
    if m.failed > 0 {
        m.failures
            .push(format!("{}: {} queries failed", W::NAME, m.failed));
    }
    if let Err(e) = W::check(&m.layers) {
        m.failures.push(format!("{}: {e}", W::NAME));
    }
    m
}

/// Median wall time of `reps` calls of `work`, ns. For direct probes.
pub fn time_ns<T>(reps: usize, mut work: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(work());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        calls: u64,
        drift: bool,
    }

    impl Workload for Fake {
        const NAME: &'static str = "fake";
        const TRACE_OVERHEAD: &'static str = "fake.trace_overhead_pct";

        fn setup(seed: u64, _: Scale, _: &Path) -> Result<Self, String> {
            Ok(Fake {
                calls: 0,
                drift: seed == 13,
            })
        }

        fn repeat(&mut self, trace: Option<&Arc<SpanLog>>) -> Result<Repeat, String> {
            self.calls += 1;
            Ok(Repeat {
                ops: 10,
                hash: if self.drift { self.calls } else { 42 },
                headline_ns: if trace.is_some() { 150.0 } else { 100.0 },
                samples: vec![sample("fake.layer_ns", "ns", self.calls as f64)],
                ..Repeat::default()
            })
        }

        fn probes(&mut self) -> Result<Vec<Sample>, String> {
            Ok(vec![sample("fake.probe_ns", "ns", 7.0)])
        }
    }

    #[test]
    fn medians_overhead_and_probes_come_out() {
        let m = measure::<Fake>(1, Scale::Full, Duration::ZERO, true, Path::new("."));
        assert!(m.failures.is_empty(), "{:?}", m.failures);
        assert_eq!(m.repeats, MIN_REPEATS);
        // Untraced and traced repeats both count as attempted work.
        assert_eq!(m.attempted, 2 * 10 * MIN_REPEATS as u64);
        assert_eq!(m.headline_ns, 100.0);
        assert_eq!(m.layers["fake.trace_overhead_pct"], ("%", 50.0));
        assert_eq!(m.layers["fake.probe_ns"], ("ns", 7.0));
        // Warm-up was call 1 of the last set-up; repeats are calls 2, 3, 4.
        assert_eq!(m.layers["fake.layer_ns"], ("ns", 3.0));
        assert_eq!(m.hash, 42);
    }

    #[test]
    fn a_repeat_that_hashes_differently_fails_the_run() {
        let m = measure::<Fake>(13, Scale::Quick, Duration::ZERO, false, Path::new("."));
        assert_eq!(m.failures.len(), 2, "{:?}", m.failures);
        assert!(m.failures[0].contains("hashed"));
    }

    #[test]
    fn quick_scale_is_a_tenth_with_a_floor() {
        assert_eq!(Scale::Full.of(1_000, 64), 1_000);
        assert_eq!(Scale::Quick.of(1_000, 64), 100);
        assert_eq!(Scale::Quick.of(100, 64), 64);
    }
}
