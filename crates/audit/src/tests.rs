//! Behavioural audits run against a live SUT.

use mlperf_loadgen::config::{TestMode, TestSettings};
use mlperf_loadgen::des::run_simulated;
use mlperf_loadgen::qsl::QuerySampleLibrary;
use mlperf_loadgen::query::{Query, QuerySample, ResponsePayload, SampleIndex};
use mlperf_loadgen::sut::{RealtimeSut, SimSut};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{LoadGenError, Run};
use mlperf_trace::event::TraceRecord;
use mlperf_trace::{RingBufferSink, TraceEvent};
use std::collections::HashMap;

/// Pass/fail outcome of one audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditOutcome {
    /// The SUT behaved within the rules.
    Pass,
    /// The SUT violated a rule; the string explains how.
    Fail(String),
}

impl AuditOutcome {
    /// Whether the audit passed.
    pub fn passed(&self) -> bool {
        matches!(self, AuditOutcome::Pass)
    }
}

/// The result of running one audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Audit name ("TEST01"-style plus a descriptive slug).
    pub test: &'static str,
    /// Outcome.
    pub outcome: AuditOutcome,
    /// Measured evidence (ratios, counts).
    pub details: String,
}

impl AuditReport {
    /// Whether the audit passed.
    pub fn passed(&self) -> bool {
        self.outcome.passed()
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} ({})",
            self.test,
            match &self.outcome {
                AuditOutcome::Pass => "PASS",
                AuditOutcome::Fail(_) => "FAIL",
            },
            self.details
        )
    }
}

/// Drives a SUT through a fixed sequence of single-sample queries,
/// sequentially (next issued at the previous completion), returning the
/// total simulated time. Handles SUT wakeups so batching engines work too.
fn drive_sequence<S: SimSut + ?Sized>(
    sut: &mut S,
    indices: &[SampleIndex],
) -> Result<Nanos, LoadGenError> {
    sut.reset();
    let mut now = Nanos::ZERO;
    for (i, index) in indices.iter().enumerate() {
        let query = Query {
            id: i as u64,
            samples: vec![QuerySample {
                id: i as u64,
                index: *index,
            }],
            scheduled_at: now,
            tenant: 0,
        };
        let mut reaction = sut.on_query(now, &query);
        // Follow wakeups until this query completes.
        let mut guard = 0;
        while reaction.completions.is_empty() {
            let at = reaction.wakeup_at.ok_or_else(|| {
                LoadGenError::SutProtocol("SUT stalled: no completion, no wakeup".into())
            })?;
            reaction = sut.on_wakeup(at.max(now));
            guard += 1;
            if guard > 1_000 {
                return Err(LoadGenError::SutProtocol(
                    "SUT wakeup loop did not converge".into(),
                ));
            }
        }
        let completion = reaction
            .completions
            .iter()
            .find(|c| c.query_id == query.id)
            .ok_or_else(|| {
                LoadGenError::SutProtocol(format!("completion for query {} missing", query.id))
            })?;
        now = now.max(completion.finished_at);
    }
    Ok(now)
}

/// On-the-fly caching detection.
///
/// Runs one pass over `query_count` *unique* indices and one over the same
/// count of *duplicated* indices (a small working set repeated). Inference
/// must not be faster merely because a sample was seen before; a speedup
/// beyond `max_speedup` fails the audit. (Rules: "the rules prohibit
/// caching of queries and intermediate data".)
///
/// # Errors
///
/// Propagates [`LoadGenError`] if the SUT violates the protocol.
pub fn caching_detection<S: SimSut + ?Sized>(
    sut: &mut S,
    population: usize,
    query_count: usize,
    max_speedup: f64,
) -> Result<AuditReport, LoadGenError> {
    let unique: Vec<SampleIndex> = (0..query_count).map(|i| i % population).collect();
    // Prime pass so caches warm, then the measured duplicate pass.
    let working_set = 4.min(population);
    let dup: Vec<SampleIndex> = (0..query_count).map(|i| i % working_set).collect();
    let t_unique = drive_sequence(sut, &unique)?;
    let _warm = drive_sequence(sut, &dup)?;
    let t_dup = drive_sequence(sut, &dup)?;
    let speedup = t_unique.as_secs_f64() / t_dup.as_secs_f64().max(1e-12);
    let outcome = if speedup > max_speedup {
        AuditOutcome::Fail(format!(
            "duplicate-sample traffic ran {speedup:.2}x faster than unique traffic"
        ))
    } else {
        AuditOutcome::Pass
    };
    Ok(AuditReport {
        test: "TEST04-caching-detection",
        outcome,
        details: format!(
            "unique={t_unique} duplicates={t_dup} speedup={speedup:.3} (max {max_speedup})"
        ),
    })
}

/// Alternate-random-seed testing.
///
/// Reruns the benchmark with each of `rounds` alternate seed triples and
/// compares the single-stream p90 latency against the official-seed run.
/// Performance better than `max_ratio`× under the official seed fails the
/// audit (optimizing for the published seed is prohibited).
///
/// # Errors
///
/// Propagates run errors from the LoadGen.
pub fn alternate_seed_test<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    rounds: u32,
    max_ratio: f64,
) -> Result<AuditReport, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    let official = run_simulated(settings, qsl, sut)?;
    let official_p90 = official
        .result
        .latency_stats
        .map(|s| s.p90.as_secs_f64())
        .unwrap_or(f64::INFINITY);
    let mut worst_ratio = 1.0f64;
    for round in 0..rounds {
        let alt = settings.clone().with_seeds(settings.seeds.alternate(round));
        let outcome = run_simulated(&alt, qsl, sut)?;
        let p90 = outcome
            .result
            .latency_stats
            .map(|s| s.p90.as_secs_f64())
            .unwrap_or(f64::INFINITY);
        worst_ratio = worst_ratio.max(p90 / official_p90.max(1e-12));
    }
    let outcome = if worst_ratio > max_ratio {
        AuditOutcome::Fail(format!(
            "alternate seeds ran {worst_ratio:.2}x slower than the official seed"
        ))
    } else {
        AuditOutcome::Pass
    };
    Ok(AuditReport {
        test: "TEST05-alternate-seeds",
        outcome,
        details: format!("worst alt/official p90 ratio {worst_ratio:.3} (max {max_ratio})"),
    })
}

/// Accuracy verification.
///
/// Runs the SUT in accuracy mode to establish reference responses, then in
/// performance mode with randomly sampled response logging, and checks the
/// logged performance-mode payloads against the reference. Any mismatch
/// fails: results returned in performance mode must be real inferences.
///
/// # Errors
///
/// Propagates run errors from the LoadGen.
pub fn accuracy_verification<Q, S>(
    perf_settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    log_probability: f64,
) -> Result<AuditReport, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    let accuracy_settings = perf_settings.clone().with_mode(TestMode::AccuracyOnly);
    let reference_run = run_simulated(&accuracy_settings, qsl, sut)?;
    let reference: HashMap<SampleIndex, ResponsePayload> = reference_run
        .accuracy_log
        .into_iter()
        .map(|l| (l.sample_index, l.payload))
        .collect();
    let perf = perf_settings
        .clone()
        .with_mode(TestMode::PerformanceOnly)
        .with_accuracy_log_probability(log_probability);
    let perf_run = run_simulated(&perf, qsl, sut)?;
    let checked = perf_run.accuracy_log.len();
    let mismatches = perf_run
        .accuracy_log
        .iter()
        .filter(|l| reference.get(&l.sample_index) != Some(&l.payload))
        .count();
    let outcome = if checked == 0 {
        AuditOutcome::Fail("no responses were sampled for verification".into())
    } else if mismatches > 0 {
        AuditOutcome::Fail(format!(
            "{mismatches}/{checked} sampled performance-mode responses disagree with accuracy mode"
        ))
    } else {
        AuditOutcome::Pass
    };
    Ok(AuditReport {
        test: "TEST01-accuracy-verification",
        outcome,
        details: format!("checked {checked} sampled responses, {mismatches} mismatches"),
    })
}

/// Custom-data-set testing.
///
/// "In addition to the LoadGen's validation features, we use custom data
/// sets to detect result caching" (Section V-B). The SUT first processes
/// the standard sample range twice (letting any cross-run cache warm up),
/// then a *custom* range it has never seen. A system that is markedly
/// faster on the warmed standard set than on the fresh custom set is
/// serving cached results.
///
/// # Errors
///
/// Propagates [`LoadGenError`] if the SUT violates the protocol.
pub fn custom_dataset_test<S: SimSut + ?Sized>(
    sut: &mut S,
    standard_population: usize,
    query_count: usize,
    max_speedup: f64,
) -> Result<AuditReport, LoadGenError> {
    let standard: Vec<SampleIndex> = (0..query_count).map(|i| i % standard_population).collect();
    // Custom set: indices the SUT has never seen.
    let custom: Vec<SampleIndex> = (0..query_count)
        .map(|i| standard_population + (i % standard_population))
        .collect();
    let _warm = drive_sequence(sut, &standard)?;
    let t_standard = drive_sequence(sut, &standard)?;
    let t_custom = drive_sequence(sut, &custom)?;
    let speedup = t_custom.as_secs_f64() / t_standard.as_secs_f64().max(1e-12);
    let outcome = if speedup > max_speedup {
        AuditOutcome::Fail(format!(
            "the familiar data set ran {speedup:.2}x faster than a custom one"
        ))
    } else {
        AuditOutcome::Pass
    };
    Ok(AuditReport {
        test: "custom-dataset",
        outcome,
        details: format!(
            "standard={t_standard} custom={t_custom} speedup={speedup:.3} (max {max_speedup})"
        ),
    })
}

/// Query-completeness verification.
///
/// Replays the submitted settings in performance mode with the detail log
/// attached and compares the number of queries the LoadGen *issued* with
/// the number the SUT *resolved* — completed or explicitly errored. A SUT
/// that silently discards its slowest queries reports a latency
/// distribution built only from the queries it chose to answer; the
/// issued-vs-resolved count mismatch exposes it. Honest degraded systems
/// pass: an errored query is resolved, only a vanished one is not.
///
/// # Errors
///
/// Propagates run errors from the LoadGen.
pub fn completeness_check<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
) -> Result<AuditReport, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    let perf = settings.clone().with_mode(TestMode::PerformanceOnly);
    let sink = RingBufferSink::unbounded();
    let _outcome = Run::simulated(&perf).sink(&sink).run(qsl, sut)?;
    Ok(completeness_report(&sink.snapshot()))
}

/// [`completeness_check`] for wall-clock SUTs — including network ones.
///
/// Replays the settings through the realtime runner with the detail log
/// attached. This is the audit to point at a `RemoteSut`: a serving
/// daemon that silently drops frames leaves issued-but-never-resolved
/// queries in the log, and the verdict comes from the same
/// [`completeness_report`] counting as the simulated path.
///
/// # Errors
///
/// Propagates run errors from the LoadGen.
pub fn completeness_check_realtime<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: std::sync::Arc<dyn RealtimeSut>,
) -> Result<AuditReport, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    let perf = settings.clone().with_mode(TestMode::PerformanceOnly);
    let sink = RingBufferSink::unbounded();
    let _outcome = Run::wall_clock(&perf).sink(&sink).run(qsl, sut)?;
    Ok(completeness_report(&sink.snapshot()))
}

/// Renders the TEST06 verdict from an already-captured detail log:
/// queries *issued* versus queries *resolved* (completed or explicitly
/// errored). Shared by the simulated and realtime/network audit paths;
/// also usable directly on a detail log captured elsewhere.
///
/// Two cheats are caught, not one. A SUT that silently discards queries
/// resolves fewer than were issued; a SUT (or a buggy resume/replay
/// path) that reports the same query twice inflates its throughput with
/// completions the LoadGen never asked for. Both fail: every issued
/// query must resolve exactly once.
pub fn completeness_report(records: &[TraceRecord]) -> AuditReport {
    let issued = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::QueryIssued { .. }))
        .count();
    let mut resolutions: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for record in records {
        if let TraceEvent::QueryCompleted { query_id, .. }
        | TraceEvent::QueryErrored { query_id, .. } = record.event
        {
            *resolutions.entry(query_id).or_insert(0) += 1;
        }
    }
    let resolved: usize = resolutions.values().sum();
    let double_counted = resolutions.values().filter(|&&count| count > 1).count();
    let outcome = if issued == 0 {
        AuditOutcome::Fail("the run issued no queries to audit".into())
    } else if double_counted > 0 {
        AuditOutcome::Fail(format!(
            "{double_counted} queries resolved more than once (double-counted completions)"
        ))
    } else if resolved > issued {
        AuditOutcome::Fail(format!(
            "the SUT resolved {resolved} queries but only {issued} were issued"
        ))
    } else if resolved < issued {
        AuditOutcome::Fail(format!(
            "{} of {issued} issued queries silently vanished (never completed, never errored)",
            issued - resolved
        ))
    } else {
        AuditOutcome::Pass
    };
    AuditReport {
        test: "TEST06-query-completeness",
        outcome,
        details: format!("issued {issued} queries, SUT resolved {resolved}"),
    }
}

/// Performance-mode detail-log compliance.
///
/// The rules require accuracy logging to be off during performance runs
/// (the LoadGen "logs detailed information about the run for analysis and
/// result validation", but results submitted for performance must not have
/// paid the cost of recording responses). This audit replays the submitted
/// settings in performance mode with a ring-buffer sink attached and fails
/// if the detail log contains any [`TraceEvent::AccuracyLogged`] event, or
/// if any response payload reached the accuracy log.
///
/// # Errors
///
/// Propagates run errors from the LoadGen.
pub fn detail_log_compliance<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
) -> Result<AuditReport, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    let perf = settings
        .clone()
        .with_mode(TestMode::PerformanceOnly)
        .with_accuracy_log_probability(0.0);
    let sink = RingBufferSink::unbounded();
    let outcome = Run::simulated(&perf).sink(&sink).run(qsl, sut)?;
    let records = sink.snapshot();
    let accuracy_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::AccuracyLogged { .. }))
        .count();
    let logged_payloads = outcome.accuracy_log.len();
    let verdict = if records.is_empty() {
        AuditOutcome::Fail("the run produced no detail log to audit".into())
    } else if accuracy_events > 0 || logged_payloads > 0 {
        AuditOutcome::Fail(format!(
            "performance-mode detail log carries accuracy data: \
             {accuracy_events} AccuracyLogged events, {logged_payloads} logged payloads"
        ))
    } else {
        AuditOutcome::Pass
    };
    Ok(AuditReport {
        test: "detail-log-compliance",
        outcome: verdict,
        details: format!(
            "{} detail-log events, {accuracy_events} accuracy events, \
             {logged_payloads} logged payloads",
            records.len()
        ),
    })
}

#[cfg(test)]
mod unit {
    use super::*;
    use mlperf_loadgen::qsl::MemoryQsl;
    use mlperf_loadgen::sut::FixedLatencySut;

    #[test]
    fn drive_sequence_accumulates_time() {
        let mut sut = FixedLatencySut::new("f", Nanos::from_micros(10));
        let t = drive_sequence(&mut sut, &[0, 1, 2, 3]).unwrap();
        assert_eq!(t, Nanos::from_micros(40));
    }

    #[test]
    fn honest_sut_passes_caching_detection() {
        let mut sut = FixedLatencySut::new("f", Nanos::from_micros(10));
        let report = caching_detection(&mut sut, 16, 64, 1.5).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn honest_sut_passes_alternate_seeds() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(64)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("f", Nanos::from_micros(10));
        let report = alternate_seed_test(&settings, &mut qsl, &mut sut, 2, 1.2).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn honest_sut_passes_accuracy_verification() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(200)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("f", Nanos::from_micros(10)).with_class_payloads(5);
        let report = accuracy_verification(&settings, &mut qsl, &mut sut, 0.2).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn honest_sut_passes_custom_dataset() {
        let mut sut = FixedLatencySut::new("f", Nanos::from_micros(10));
        let report = custom_dataset_test(&mut sut, 32, 64, 1.5).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn clean_performance_run_passes_detail_log_compliance() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(64)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("f", Nanos::from_micros(10)).with_class_payloads(5);
        let report = detail_log_compliance(&settings, &mut qsl, &mut sut).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn detail_log_compliance_forces_accuracy_logging_off() {
        // Even settings submitted with accuracy logging enabled are audited
        // with it off — and the audited run must then be clean.
        let settings = TestSettings::single_stream()
            .with_min_query_count(64)
            .with_min_duration(Nanos::from_micros(1))
            .with_accuracy_log_probability(0.5);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("f", Nanos::from_micros(10)).with_class_payloads(5);
        let report = detail_log_compliance(&settings, &mut qsl, &mut sut).unwrap();
        assert!(report.passed(), "{report}");
        // Control: the same settings run as submitted DO emit accuracy
        // events, so the audit is checking something real.
        let sink = RingBufferSink::unbounded();
        let out = Run::simulated(&settings)
            .sink(&sink)
            .run(&mut qsl, &mut sut)
            .unwrap();
        assert!(!out.accuracy_log.is_empty());
        assert!(sink
            .snapshot()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::AccuracyLogged { .. })));
    }

    #[test]
    fn honest_sut_passes_completeness_check() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(64)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("f", Nanos::from_micros(10));
        let report = completeness_check(&settings, &mut qsl, &mut sut).unwrap();
        assert!(report.passed(), "{report}");
    }

    /// Builds a synthetic detail log: `issued` queries issued, then one
    /// resolution per entry in `resolutions` (query id, errored?).
    fn synthetic_log(issued: u64, resolutions: &[(u64, bool)]) -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for query_id in 0..issued {
            records.push(TraceRecord {
                ts_ns: query_id * 10,
                event: TraceEvent::QueryIssued {
                    query_id,
                    sample_count: 1,
                    delay_ns: 0,
                },
            });
        }
        for (i, &(query_id, errored)) in resolutions.iter().enumerate() {
            let event = if errored {
                TraceEvent::QueryErrored {
                    query_id,
                    latency_ns: 100,
                }
            } else {
                TraceEvent::QueryCompleted {
                    query_id,
                    latency_ns: 100,
                }
            };
            records.push(TraceRecord {
                ts_ns: issued * 10 + i as u64,
                event,
            });
        }
        records
    }

    #[test]
    fn completeness_passes_exactly_once_resolutions() {
        let records = synthetic_log(4, &[(0, false), (1, false), (2, true), (3, false)]);
        let report = completeness_report(&records);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn duplicated_completion_cheat_fails_completeness() {
        // A replayed completion that gets counted twice — the cheat a
        // buggy resume/journal path would commit. The totals even out
        // (4 issued, 4 resolutions) because the duplicate hides a
        // genuinely vanished query; per-id counting catches both.
        let records = synthetic_log(4, &[(0, false), (1, false), (1, false), (2, true)]);
        let report = completeness_report(&records);
        match &report.outcome {
            AuditOutcome::Fail(reason) => assert!(
                reason.contains("more than once"),
                "unexpected failure reason: {reason}"
            ),
            AuditOutcome::Pass => panic!("double-counted completions must fail TEST06: {report}"),
        }
        // The same cheat without the vanished query: more resolutions
        // than issues, still a FAIL.
        let records = synthetic_log(2, &[(0, false), (0, false), (1, false)]);
        assert!(!completeness_report(&records).passed());
    }

    #[test]
    fn merged_sharded_failover_log_passes_completeness() {
        // TEST06 over a *fleet* run: a two-shard router whose first shard
        // dies mid-run. The dying shard's queries fail over to the
        // survivor, and the merged detail log — LoadGen rows interleaved
        // with the router's ShardEvent rows — must still show every
        // issued query resolved exactly once.
        use mlperf_loadgen::query::SampleCompletion;
        use mlperf_loadgen::sut::IssueOutcome;
        use mlperf_sut::{BalancePolicy, ShardEndpoint, ShardedSut};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Completes its first `threshold` queries, then every later one
        /// vanishes — the client-side shape of a shard daemon killed
        /// mid-run.
        struct DieAfter {
            served: AtomicU64,
            threshold: u64,
        }
        impl RealtimeSut for DieAfter {
            fn name(&self) -> &str {
                "die-after"
            }
            fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
                match self.issue_outcome(query) {
                    IssueOutcome::Completed(samples) => samples,
                    _ => Vec::new(),
                }
            }
            fn issue_outcome(&self, query: &Query) -> IssueOutcome {
                if self.served.fetch_add(1, Ordering::SeqCst) >= self.threshold {
                    return IssueOutcome::Vanished;
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
        let shard = |threshold| {
            Arc::new(DieAfter {
                served: AtomicU64::new(0),
                threshold,
            }) as Arc<dyn RealtimeSut>
        };

        let sink = Arc::new(RingBufferSink::unbounded());
        let router = Arc::new(
            ShardedSut::new("audit-fleet", BalancePolicy::RoundRobin)
                .with_endpoint(ShardEndpoint::new("shard-0", shard(2)))
                .with_endpoint(ShardEndpoint::new("shard-1", shard(u64::MAX)))
                .with_sink(sink.clone()),
        );
        let settings = TestSettings::server(2_000.0, Nanos::from_millis(50))
            .with_min_query_count(16)
            .with_min_duration(Nanos::from_millis(1))
            .with_mode(TestMode::PerformanceOnly);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        Run::wall_clock(&settings)
            .sink(sink.as_ref())
            .run(&mut qsl, router)
            .unwrap();

        let records = sink.snapshot();
        let shard_kind = |kind: &str| {
            records.iter().any(|r| {
                matches!(&r.event, TraceEvent::ShardEvent { kind: k, shard, .. }
                    if k == kind && shard == "shard-0")
            })
        };
        assert!(
            shard_kind("failover"),
            "the dying shard's in-flight queries must fail over"
        );
        assert!(shard_kind("down"), "the dying shard must be declared down");
        let report = completeness_report(&records);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn report_display() {
        let r = AuditReport {
            test: "TEST04-caching-detection",
            outcome: AuditOutcome::Fail("too fast".into()),
            details: "x".into(),
        };
        assert!(r.to_string().contains("FAIL"));
        assert!(!r.passed());
    }
}
