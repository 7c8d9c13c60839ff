//! `sim_journaled`: the null-SUT server run through `run_journaled`, then
//! `load_run_journal` on the finished file.
//!
//! `MLPJ` framing, CRC and checkpoint serialisation do most of the work.
//! Writing sits beside reading in one headline, so an encoder made faster
//! at the loader's expense shows.

use super::{hash_records, keep_spans, ns_per, null_server_settings, null_stack, stage};
use crate::decor::{TimedQsl, TimedSimSut};
use crate::harness::{sample, time_ns, Repeat, Sample, Scale, Workload};
use crate::span::{self_times, SpanLog, NO_PARENT};
use crate::summary::Fnv;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::{resume_journaled, run_journaled, run_simulated};
use mlperf_loadgen::journal::{load_run_journal, JournalConfig, JournaledRun};
use mlperf_loadgen::record::QueryRecord;
use mlperf_loadgen::Instruments;
use mlperf_trace::{read_journal, JournalWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const QUERIES: u64 = 270_336;
const CHECKPOINT_EVERY: u64 = 64;

/// The `sim_journaled` workload.
pub struct SimJournaled {
    queries: u64,
    settings: TestSettings,
    path: PathBuf,
    /// What `run_simulated` records for the same settings: the journaled
    /// run must record exactly this.
    plain: Vec<QueryRecord>,
}

impl SimJournaled {
    /// Never fsync: the headline is the CPU cost of checkpointing, not the
    /// storage stack's.
    fn config(&self) -> JournalConfig {
        JournalConfig::new(&self.path)
            .with_checkpoint_every(CHECKPOINT_EVERY)
            .with_fsync_every(u32::MAX)
    }

    /// The loaded journal must hold the run as of its last checkpoint:
    /// every record issued by then, each either still outstanding or
    /// exactly what the finished run recorded.
    fn check_loaded(&self, loaded: &[QueryRecord], finished: &[QueryRecord]) -> Result<(), String> {
        let expect = (self.queries / CHECKPOINT_EVERY * CHECKPOINT_EVERY) as usize;
        if loaded.len() != expect {
            return Err(format!(
                "journal restored {} records, last checkpoint covers {expect}",
                loaded.len()
            ));
        }
        for (got, want) in loaded.iter().zip(finished) {
            let same = got.id == want.id
                && got.scheduled_at == want.scheduled_at
                && got.sample_count == want.sample_count
                && (got.completed_at.is_none() || got.completed_at == want.completed_at);
            if !same {
                return Err(format!(
                    "journal restored {got:?}, the run recorded {want:?}"
                ));
            }
        }
        Ok(())
    }
}

fn finished(run: JournaledRun) -> Result<mlperf_loadgen::des::RunOutcome, String> {
    run.finished()
        .ok_or_else(|| "journaled run halted without a halt armed".to_string())
}

impl Workload for SimJournaled {
    const NAME: &'static str = "sim_journaled";
    const TRACE_OVERHEAD: &'static str = "sim_journaled.trace_overhead_pct";

    fn setup(seed: u64, scale: Scale, scratch: &Path) -> Result<Self, String> {
        let queries = scale.of(QUERIES, 1_024);
        let settings = null_server_settings(seed, queries);
        let (mut qsl, mut sut) = null_stack();
        let plain = run_simulated(&settings, &mut qsl, &mut sut).map_err(|e| e.to_string())?;
        Ok(SimJournaled {
            queries,
            settings,
            path: scratch.join("sim_journaled.mlpj"),
            plain: plain.records,
        })
    }

    fn repeat(&mut self, trace: Option<&Arc<SpanLog>>) -> Result<Repeat, String> {
        let mut r = Repeat::default();
        let (mut qsl, mut sut) = null_stack();
        let cfg = self.config();
        let none = Instruments::none();

        let log = trace.map(Arc::as_ref);
        let start = Instant::now();
        let plain = run_simulated(&self.settings, &mut qsl, &mut sut).map_err(|e| e.to_string())?;
        let plain_ns = start.elapsed().as_nanos() as f64;

        let (run, run_ns) = stage(log, "core.journal.run", NO_PARENT, |root| match log {
            None => run_journaled(&self.settings, &mut qsl, &mut sut, &none, &cfg),
            Some(log) => run_journaled(
                &self.settings,
                &mut TimedQsl::new(&mut qsl, log, root),
                &mut TimedSimSut::new(&mut sut, log, root),
                &none,
                &cfg,
            ),
        });
        let outcome = finished(run.map_err(|e| e.to_string())?)?;
        let (loaded, load_ns) = stage(log, "core.journal.load", NO_PARENT, |_| {
            load_run_journal(&self.path)
        });
        let loaded = loaded.map_err(|e| e.to_string())?;

        if !outcome.result.is_valid() {
            return Err(format!(
                "journaled run is INVALID: {:?}",
                outcome.result.validity
            ));
        }
        if outcome.records != self.plain || plain.records != self.plain {
            return Err("run_journaled and run_simulated recorded different runs".into());
        }
        let restored = loaded.last.ok_or("the journal holds no checkpoint")?;
        self.check_loaded(&restored.recorder.records, &outcome.records)?;

        let n = outcome.result.query_count;
        let bytes = std::fs::metadata(&self.path)
            .map_err(|e| e.to_string())?
            .len();
        let mut hash = Fnv::new();
        hash_records(&mut hash, &outcome.records);
        r.ops = n;
        r.failed = outcome.result.error_count;
        r.hash = hash.finish();
        r.headline_ns = (run_ns + load_ns) / n as f64;
        r.samples.extend([
            sample("sim_journaled.run_ns_per_query", "ns", run_ns / n as f64),
            sample("sim_journaled.load_ns_per_query", "ns", load_ns / n as f64),
            sample(
                "core.journal_checkpoint_ns_per_query",
                "ns",
                (run_ns - plain_ns) / n as f64,
            ),
            sample("core.journal_bytes_per_query", "B", ns_per(bytes, n)),
        ]);
        if let Some(log) = log {
            let span_ns = log.drain(|spans| {
                keep_spans(&mut r.spans, spans, 1);
                self_times(spans).values().map(|l| l.self_ns).sum::<u64>()
            });
            r.samples.push(sample(
                "sim_journaled.span_coverage_pct",
                "%",
                100.0 * span_ns as f64 / (run_ns + load_ns),
            ));
        }
        Ok(r)
    }

    fn probes(&mut self) -> Result<Vec<Sample>, String> {
        let mut out = Vec::new();
        let scan = read_journal(&self.path).map_err(|e| e.to_string())?;
        let frames = scan.records.len() as u64;
        let payload: u64 = scan.records.iter().map(|f| f.len() as u64).sum();
        // Appends of the size the run's own frames average, to a second
        // file so the finished journal stays intact for the read probe.
        let frame = vec![0x5au8; (payload / frames.max(1)) as usize];
        let probe_path = self.path.with_extension("probe.mlpj");
        let mut failed = None;
        let t = time_ns(5, || {
            let appended = JournalWriter::create(&probe_path, u32::MAX)
                .and_then(|mut w| (0..frames).try_for_each(|_| w.append(&frame)));
            if let Err(e) = appended {
                failed = Some(e.to_string());
            }
        });
        let _ = std::fs::remove_file(&probe_path);
        if let Some(e) = failed {
            return Err(format!("journal append probe: {e}"));
        }
        out.push(sample(
            "trace.journal_append_ns_per_frame",
            "ns",
            t / frames as f64,
        ));
        out.push(sample(
            "trace.journal_append_mb_per_s",
            "MB/s",
            payload as f64 / 1e6 / (t / 1e9),
        ));

        let t = time_ns(5, || read_journal(&self.path).map(|s| s.records.len()));
        out.push(sample(
            "trace.journal_read_mb_per_s",
            "MB/s",
            payload as f64 / 1e6 / (t / 1e9),
        ));

        // Halt at the middle checkpoint, then time the resume to the end.
        let half = self.queries / CHECKPOINT_EVERY / 2;
        let resume_path = self.path.with_extension("resume.mlpj");
        let cfg = JournalConfig::new(&resume_path)
            .with_checkpoint_every(CHECKPOINT_EVERY)
            .with_fsync_every(u32::MAX);
        let none = Instruments::none();
        let (mut qsl, mut sut) = null_stack();
        let halted = run_journaled(
            &self.settings,
            &mut qsl,
            &mut sut,
            &none,
            &cfg.clone().with_halt_after(half),
        )
        .map_err(|e| e.to_string())?;
        if !matches!(halted, JournaledRun::Halted { .. }) {
            return Err("the armed halt did not fire".into());
        }
        let start = Instant::now();
        let resumed = resume_journaled(&self.settings, &mut qsl, &mut sut, &none, &cfg);
        let resume_ns = start.elapsed().as_nanos() as f64;
        let _ = std::fs::remove_file(&resume_path);
        let resumed = finished(resumed.map_err(|e| e.to_string())?)?;
        if !resumed.result.is_valid() || resumed.records.len() != self.plain.len() {
            return Err(format!(
                "resumed run: {} records, validity {:?}",
                resumed.records.len(),
                resumed.result.validity
            ));
        }
        let re_executed = self.queries - half * CHECKPOINT_EVERY;
        out.push(sample(
            "core.journal_resume_ns_per_query",
            "ns",
            resume_ns / re_executed.max(1) as f64,
        ));
        Ok(out)
    }
}
