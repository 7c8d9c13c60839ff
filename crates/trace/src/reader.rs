//! The one detail-log reader.
//!
//! Detail logs reach disk in two shapes: plain JSONL (one
//! [`TraceRecord`] per line, the `JsonlSink` / logical-log format) and
//! flight-recorder dumps (the same JSONL body behind a one-line
//! `{"flight_dump":...}` header carrying the dump reason). Every consumer
//! — the forensics CLI, the trace recorder, ad-hoc tooling — wants the
//! same behaviour: sniff the shape, parse the body, and surface whatever
//! diagnostic context the artifact itself recovered (the dump reason).
//!
//! This module is that reader, so the sniffing logic lives in exactly one
//! place instead of being copy-pasted into each binary.

use crate::event::TraceRecord;
use crate::flight::parse_flight_dump;
use crate::journal::TornTail;
use crate::json::{FromJson, JsonError};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// A parsed detail-log artifact: the records plus any issue texts the
/// artifact itself carried (a flight dump's reason line; empty for plain
/// JSONL).
#[derive(Debug, Clone, PartialEq)]
pub struct DetailLog {
    /// Every trace record, in file order.
    pub records: Vec<TraceRecord>,
    /// Diagnostic context recovered from the artifact (dump reasons,
    /// torn-tail warnings).
    pub issues: Vec<String>,
    /// Present when the log's final line was cut mid-write (a crash
    /// landed here); [`DetailLog::records`] holds the salvaged prefix.
    pub torn: Option<TornTail>,
}

/// Why a detail-log artifact could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The file could not be read at all.
    Io {
        /// The offending path, as given.
        path: String,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The contents were not a parseable detail log or flight dump.
    Parse {
        /// The offending path (or source label), as given.
        path: String,
        /// The underlying JSON error.
        error: JsonError,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io { path, error } => write!(f, "cannot read {path}: {error}"),
            ReadError::Parse { path, error } => write!(f, "{path}: bad detail log: {error}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A plain detail log read a line at a time, salvaging a torn final line.
///
/// A process killed mid-`write` leaves the last line of the detail log
/// incomplete. That tear is recoverable — every earlier line is intact —
/// so a parse failure on the *final* non-blank line salvages the prefix
/// and reports a [`TornTail`] (with the tear's byte offset) instead of
/// failing the whole artifact. A bad line anywhere else is corruption,
/// not a tear, and still errors.
#[derive(Default)]
struct Salvage {
    records: Vec<TraceRecord>,
    /// A line that failed to parse, with its byte offset: a tear if the
    /// log ends here, corruption if another line follows.
    failed: Option<(usize, JsonError)>,
}

impl Salvage {
    /// Takes the next non-blank line, which starts at byte `start`.
    fn line(&mut self, start: usize, line: &str) -> Result<(), JsonError> {
        if let Some((_, e)) = self.failed.take() {
            return Err(e);
        }
        match TraceRecord::from_json_str(line) {
            Ok(r) => self.records.push(r),
            // Only a *tail* can tear: salvage needs at least one valid
            // record ahead of it, else the file is garbage, not a log.
            Err(e) if self.records.is_empty() => return Err(e),
            Err(e) => self.failed = Some((start, e)),
        }
        Ok(())
    }

    /// The log, with its tear if the last line was one.
    fn finish(self) -> DetailLog {
        let torn = self.failed.map(|(line_start, e)| TornTail {
            valid_records: self.records.len(),
            byte_offset: line_start as u64,
            reason: format!("final line cut mid-write: {e}"),
        });
        DetailLog {
            records: self.records,
            issues: torn.iter().map(|t| t.to_string()).collect(),
            torn,
        }
    }
}

/// Reads a detail log from any line source, a line at a time: the one
/// reader behind [`read_detail_log_str`] and [`read_detail_log`].
///
/// The outer error is the source failing to read (or not being UTF-8);
/// the inner one is its contents parsing as neither shape.
fn read_lines(mut source: impl BufRead) -> io::Result<Result<DetailLog, JsonError>> {
    let (mut line, mut at, mut log) = (String::new(), 0, Salvage::default());
    loop {
        line.clear();
        let len = source.read_line(&mut line)?;
        if len == 0 {
            return Ok(Ok(log.finish()));
        }
        let start = at;
        at += len;
        if line.trim().is_empty() {
            continue;
        }
        // No record yet means this is the first non-blank line, which
        // alone decides whether the artifact is a flight dump.
        if log.records.is_empty() && line.contains("\"flight_dump\"") {
            source.read_to_string(&mut line)?;
            return Ok(parse_flight_dump(&line).map(|dump| DetailLog {
                records: dump.records,
                issues: vec![dump.reason],
                torn: None,
            }));
        }
        if let Err(e) = log.line(start, &line) {
            // A source that is not UTF-8 fails to read wherever its first
            // bad line is, as it would if read whole.
            source.read_to_string(&mut line)?;
            return Ok(Err(e));
        }
    }
}

/// Parses detail-log text, auto-detecting flight-recorder dumps.
///
/// The first non-blank line decides: a `{"flight_dump":...}` header makes
/// the artifact a dump (its reason line lands in [`DetailLog::issues`]);
/// anything else parses as plain JSONL of trace records. A plain log
/// whose final line was cut mid-write (a crash landed during the write)
/// is salvaged up to the last complete record, with the tear described in
/// [`DetailLog::torn`] and echoed into [`DetailLog::issues`].
///
/// # Errors
///
/// Returns the underlying [`JsonError`] when neither shape parses.
pub fn read_detail_log_str(text: &str) -> Result<DetailLog, JsonError> {
    read_lines(text.as_bytes())
        .unwrap_or_else(|e| unreachable!("text in memory is UTF-8 and reads: {e}"))
}

/// Bytes a file is read in: the reader holds one such chunk and one line,
/// never the whole file.
const READ_CHUNK: usize = 64 * 1024;

/// Reads and parses a detail-log artifact from disk, as
/// [`read_detail_log_str`] does the file's text.
///
/// # Errors
///
/// Returns [`ReadError::Io`] when the file cannot be read or is not UTF-8,
/// and [`ReadError::Parse`] when its contents are neither a plain detail
/// log nor a flight dump.
pub fn read_detail_log(path: impl AsRef<Path>) -> Result<DetailLog, ReadError> {
    let path = path.as_ref();
    let io = |error| ReadError::Io {
        path: path.display().to_string(),
        error,
    };
    let file = File::open(path).map_err(io)?;
    read_lines(BufReader::with_capacity(READ_CHUNK, file))
        .map_err(io)?
        .map_err(|error| ReadError::Parse {
            path: path.display().to_string(),
            error,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{render_detail_log as render_jsonl, TraceEvent, TraceSink};
    use crate::flight::{render_flight_dump, FlightRecorder};

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                ts_ns: 1_000,
                event: TraceEvent::QueryIssued {
                    query_id: 7,
                    sample_count: 1,
                    delay_ns: 0,
                },
            },
            TraceRecord {
                ts_ns: 51_000,
                event: TraceEvent::QueryCompleted {
                    query_id: 7,
                    latency_ns: 50_000,
                },
            },
        ]
    }

    fn scratch_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "detail_log_test_{}_{name}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// Reads `text` from memory and from a file named after `name`, checks
    /// that both reads agree, and returns what they read.
    fn read(name: &str, text: &str) -> Result<DetailLog, JsonError> {
        let path = scratch_file(name, text.as_bytes());
        let from_file = read_detail_log(&path);
        std::fs::remove_file(&path).unwrap();
        let from_text = read_detail_log_str(text);
        match (&from_text, from_file) {
            (Ok(a), Ok(b)) => assert_eq!(a, &b, "{name}"),
            (Err(a), Err(ReadError::Parse { error: b, .. })) => {
                assert_eq!(a.to_string(), b.to_string(), "{name}");
            }
            (a, b) => panic!("{name}: text read {a:?}, file read {b:?}"),
        }
        from_text
    }

    #[test]
    fn reads_plain_jsonl() {
        let records = sample_records();
        let log = read("plain", &render_jsonl(&records)).expect("plain log parses");
        assert_eq!(log.records, records);
        assert!(log.issues.is_empty());
    }

    #[test]
    fn reads_flight_dump_and_recovers_reason() {
        let recorder = FlightRecorder::new(8);
        for r in sample_records() {
            recorder.record(r.ts_ns, &r.event);
        }
        let dump = render_flight_dump("latency bound exceeded", &recorder.snapshot(), 0);
        let log = read("dump", &dump).expect("dump parses");
        assert_eq!(log.records, sample_records());
        assert_eq!(log.issues, vec!["latency bound exceeded".to_string()]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read("garbage", "not json at all").is_err());
    }

    #[test]
    fn salvages_torn_final_line() {
        let records = sample_records();
        let full = render_jsonl(&records);
        // Cut the artifact mid-way through its final line.
        let cut = full.len() - 17;
        let torn_text = &full[..cut];
        let log = read("torn", torn_text).expect("torn log salvages");
        assert_eq!(log.records, records[..1]);
        let torn = log.torn.expect("tear reported");
        assert_eq!(torn.valid_records, 1);
        let second_line_start = full.find('\n').unwrap() + 1;
        assert_eq!(torn.byte_offset, second_line_start as u64);
        assert_eq!(log.issues.len(), 1);
        assert!(log.issues[0].contains("torn tail"), "{}", log.issues[0]);
    }

    #[test]
    fn salvage_sweeps_every_cut_of_the_final_line() {
        let records = sample_records();
        let full = render_jsonl(&records);
        let second_line_start = full.find('\n').unwrap() + 1;
        for cut in second_line_start + 1..full.len() - 1 {
            let log = read(&format!("cut{cut}"), &full[..cut])
                .unwrap_or_else(|e| panic!("cut={cut} must salvage: {e}"));
            assert_eq!(log.records, records[..1], "cut={cut}");
            assert!(log.torn.is_some(), "cut={cut}");
        }
    }

    #[test]
    fn garbage_in_the_middle_still_errors() {
        let records = sample_records();
        let mut text = String::new();
        text.push_str(&render_jsonl(&records[..1]));
        text.push_str("{\"ts_ns\": torn-garbage\n");
        text.push_str(&render_jsonl(&records[1..]));
        assert!(read("mid_garbage", &text).is_err());
    }

    #[test]
    fn non_utf8_file_is_io_error_wherever_it_is() {
        let good = render_jsonl(&sample_records());
        let cases: [&[&[u8]]; 3] = [
            &[good.as_bytes(), b"\xff\xfe\n"],
            &[good.as_bytes(), b"{\"ts_ns\": torn-garbage\n", b"\xff\n"],
            &[b"\xff\n", good.as_bytes()],
        ];
        for (i, parts) in cases.iter().enumerate() {
            let path = scratch_file(&format!("non_utf8_{i}"), &parts.concat());
            let read = read_detail_log(&path);
            std::fs::remove_file(&path).unwrap();
            assert!(
                matches!(read, Err(ReadError::Io { .. })),
                "case {i}: {read:?}"
            );
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        match read_detail_log("/nonexistent/definitely-not-here.jsonl") {
            Err(ReadError::Io { .. }) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
