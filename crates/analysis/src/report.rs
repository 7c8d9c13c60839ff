//! The self-contained forensics report: one [`Analysis`] per run,
//! rendered as markdown and JSON.
//!
//! Rendering is strictly deterministic — integer-only duration formatting,
//! `BTreeMap`-ordered tables, no timestamps or hostnames — so the
//! committed `results/analysis.{md,json}` artifacts regenerate
//! byte-identically from the committed log fixture (`analyze --check`
//! enforces this in CI).

use std::collections::BTreeMap;

use mlperf_trace::json::{JsonValue, ToJson};
use mlperf_trace::{TraceEvent, TraceRecord};

use crate::breakdown::{breakdown, Breakdown};
use crate::heatmap::{auto_interval, heatmap, HeatmapRow};
use crate::rootcause::{issue_texts, root_causes, RootCause};
use crate::segment::query_paths;
use crate::shards::{shard_reports, ShardReport};

/// The best clock-offset estimate seen for one peer host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockInfo {
    /// Peer host label.
    pub host: String,
    /// Estimated `peer_clock - local_clock` (ns).
    pub offset_ns: i64,
    /// RTT of the winning probe (ns); half of it bounds the offset error.
    pub rtt_ns: u64,
}

impl ToJson for ClockInfo {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("host", self.host.to_json_value()),
            ("offset_ns", self.offset_ns.to_json_value()),
            ("rtt_ns", self.rtt_ns.to_json_value()),
        ])
    }
}

/// Everything `analyze` derives from one recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Label for the analyzed artifact (file name, cell name, ...).
    pub source: String,
    /// Query counts and the per-percentile segment attribution.
    pub breakdown: Breakdown,
    /// Window width used for the heatmap (ns).
    pub interval_ns: u64,
    /// Per-window latency profile.
    pub heatmap: Vec<HeatmapRow>,
    /// One entry per violated constraint; empty for VALID runs.
    pub root_causes: Vec<RootCause>,
    /// Final clock-sync estimate per peer host (merged logs only).
    pub clock: Vec<ClockInfo>,
    /// Per-shard attribution (fleet runs only; empty otherwise).
    pub shards: Vec<ShardReport>,
}

impl ToJson for Analysis {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("source", self.source.to_json_value()),
            ("breakdown", self.breakdown.to_json_value()),
            ("interval_ns", self.interval_ns.to_json_value()),
            ("heatmap", self.heatmap.to_json_value()),
            ("root_causes", self.root_causes.to_json_value()),
            ("clock", self.clock.to_json_value()),
            ("shards", self.shards.to_json_value()),
        ])
    }
}

fn clock_info(records: &[TraceRecord]) -> Vec<ClockInfo> {
    // The estimator only records improving probes, so the last sync per
    // host is its best estimate.
    let mut best: BTreeMap<String, ClockInfo> = BTreeMap::new();
    for record in records {
        if let TraceEvent::ClockSync {
            host,
            offset_ns,
            rtt_ns,
        } = &record.event
        {
            best.insert(
                host.clone(),
                ClockInfo {
                    host: host.clone(),
                    offset_ns: *offset_ns,
                    rtt_ns: *rtt_ns,
                },
            );
        }
    }
    best.into_values().collect()
}

/// Runs the full pipeline over one detail log (or flight-dump body).
///
/// `extra_issue_texts` supplements the log's own `ValidityCheckFailed`
/// events — pass the outcome JSON's issue strings or a flight dump's
/// reason here. `interval_ns: None` picks a width from the run span.
pub fn analyze_records(
    source: &str,
    records: &[TraceRecord],
    extra_issue_texts: &[String],
    interval_ns: Option<u64>,
) -> Analysis {
    let paths = query_paths(records);
    let span_ns = records.iter().map(|r| r.ts_ns).max().unwrap_or(0);
    let interval_ns = interval_ns.unwrap_or_else(|| auto_interval(span_ns));
    let mut texts = issue_texts(records);
    texts.extend(extra_issue_texts.iter().cloned());
    Analysis {
        source: source.to_string(),
        breakdown: breakdown(&paths),
        interval_ns,
        heatmap: heatmap(&paths, interval_ns),
        root_causes: root_causes(records, &texts),
        clock: clock_info(records),
        shards: shard_reports(records),
    }
}

/// Formats nanoseconds with a unit, using integer arithmetic only so the
/// output is identical on every platform: `850ns`, `12.345us`, `3.200ms`,
/// `1.500s`.
pub fn fmt_ns(ns: i64) -> String {
    let sign = if ns < 0 { "-" } else { "" };
    let abs = ns.unsigned_abs();
    let (unit, div) = if abs < 1_000 {
        return format!("{ns}ns");
    } else if abs < 1_000_000 {
        ("us", 1_000)
    } else if abs < 1_000_000_000 {
        ("ms", 1_000_000)
    } else {
        ("s", 1_000_000_000)
    };
    let whole = abs / div;
    let frac = (abs % div) * 1_000 / div;
    format!("{sign}{whole}.{frac:03}{unit}")
}

fn md_row(out: &mut String, cells: &[String]) {
    out.push('|');
    for cell in cells {
        out.push(' ');
        out.push_str(cell);
        out.push_str(" |");
    }
    out.push('\n');
}

fn md_header(out: &mut String, cells: &[&str]) {
    md_row(
        out,
        &cells.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
    );
    out.push('|');
    for _ in cells {
        out.push_str("---|");
    }
    out.push('\n');
}

/// Renders the self-contained markdown report.
pub fn render_markdown(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("# Tail-latency forensics report\n\n");
    out.push_str(&format!("Source: `{}`\n\n", analysis.source));
    let b = &analysis.breakdown;
    out.push_str(&format!(
        "Queries: {} issued, {} completed, {} errored, {} incomplete.\n",
        b.queries, b.completed, b.errored, b.incomplete
    ));
    out.push_str(&format!(
        "Decomposition residual: {}ns (the four segments sum to the end-to-end latency exactly).\n\n",
        b.max_residual_ns
    ));

    if !analysis.clock.is_empty() {
        out.push_str("## Clock alignment\n\n");
        md_header(&mut out, &["peer", "offset", "rtt", "error bound"]);
        for c in &analysis.clock {
            md_row(
                &mut out,
                &[
                    c.host.clone(),
                    fmt_ns(c.offset_ns),
                    fmt_ns(c.rtt_ns as i64),
                    fmt_ns((c.rtt_ns / 2) as i64),
                ],
            );
        }
        out.push('\n');
    }

    if !analysis.shards.is_empty() {
        out.push_str("## Per-shard attribution\n\n");
        md_header(
            &mut out,
            &[
                "shard",
                "routed",
                "failovers",
                "spans",
                "queue",
                "compute",
                "downs",
                "rejoins",
                "failover window",
            ],
        );
        for s in &analysis.shards {
            let window = match (s.window_start_ns, s.window_end_ns) {
                (Some(start), Some(end)) => {
                    format!("{} – {}", fmt_ns(start as i64), fmt_ns(end as i64))
                }
                _ => "-".to_string(),
            };
            md_row(
                &mut out,
                &[
                    s.shard.clone(),
                    format!("{}", s.routed),
                    format!("{}", s.failovers),
                    format!("{}", s.spans),
                    fmt_ns(s.queue_ns as i64),
                    fmt_ns(s.compute_ns as i64),
                    format!("{}", s.downs),
                    format!("{}", s.rejoins),
                    window,
                ],
            );
        }
        out.push('\n');
    }

    out.push_str("## Percentile breakdown\n\n");
    if b.rows.is_empty() {
        out.push_str("No completed queries to attribute.\n\n");
    } else {
        md_header(
            &mut out,
            &[
                "percentile",
                "e2e",
                "query",
                "trace",
                "client-queue",
                "network",
                "server-queue",
                "compute",
                "dominant",
            ],
        );
        for row in &b.rows {
            md_row(
                &mut out,
                &[
                    row.label.to_string(),
                    fmt_ns(row.e2e_ns as i64),
                    format!("{}", row.query_id),
                    if row.trace_id == 0 {
                        "-".to_string()
                    } else {
                        format!("{:016x}", row.trace_id)
                    },
                    fmt_ns(row.client_queue_ns),
                    fmt_ns(row.network_ns),
                    fmt_ns(row.server_queue_ns),
                    fmt_ns(row.compute_ns),
                    format!("**{}**", row.dominant),
                ],
            );
        }
        out.push('\n');
        out.push_str("## Segment totals\n\n");
        md_header(&mut out, &["segment", "total", "share of e2e"]);
        for (segment, total_ns, share) in b.totals.rows() {
            let tenths = (share * 1000.0) as i64;
            let sign = if tenths < 0 { "-" } else { "" };
            md_row(
                &mut out,
                &[
                    segment.label().to_string(),
                    fmt_ns(total_ns),
                    format!("{sign}{}.{}%", tenths.abs() / 10, tenths.abs() % 10),
                ],
            );
        }
        out.push('\n');
    }

    out.push_str(&format!(
        "## Latency heatmap ({} windows)\n\n",
        fmt_ns(analysis.interval_ns as i64)
    ));
    if analysis.heatmap.is_empty() {
        out.push_str("No completions to bucket.\n\n");
    } else {
        md_header(
            &mut out,
            &["window end", "count", "errors", "p50", "p99", "max"],
        );
        for row in &analysis.heatmap {
            md_row(
                &mut out,
                &[
                    fmt_ns(row.t_ns as i64),
                    format!("{}", row.count),
                    format!("{}", row.errors),
                    fmt_ns(row.p50_ns as i64),
                    fmt_ns(row.p99_ns as i64),
                    fmt_ns(row.max_ns as i64),
                ],
            );
        }
        out.push('\n');
    }

    out.push_str("## Root causes\n\n");
    if analysis.root_causes.is_empty() {
        out.push_str("Run is VALID — no constraint was violated.\n");
    } else {
        for (i, cause) in analysis.root_causes.iter().enumerate() {
            out.push_str(&format!("### {}. `{}`\n\n", i + 1, cause.constraint));
            out.push_str(&format!("> {}\n\n", cause.detail));
            if let Some(w) = cause.window {
                out.push_str(&format!(
                    "Offending window: {} – {} ({} queries).\n\n",
                    fmt_ns(w.start_ns as i64),
                    fmt_ns(w.end_ns as i64),
                    w.count
                ));
            }
            if !cause.offending_queries.is_empty() {
                let ids: Vec<String> = cause
                    .offending_queries
                    .iter()
                    .map(|id| id.to_string())
                    .collect();
                out.push_str(&format!("Offending queries: {}.\n\n", ids.join(", ")));
            }
            if !cause.culprits.is_empty() {
                md_header(&mut out, &["trace", "query", "e2e", "dominant", "note"]);
                for c in &cause.culprits {
                    md_row(
                        &mut out,
                        &[
                            if c.trace_id == 0 {
                                "-".to_string()
                            } else {
                                format!("{:016x}", c.trace_id)
                            },
                            format!("{}", c.query_id),
                            fmt_ns(c.e2e_ns as i64),
                            c.dominant.map_or("-".to_string(), |s| s.to_string()),
                            c.note.clone(),
                        ],
                    );
                }
                out.push('\n');
            }
            if !cause.evidence.is_empty() {
                out.push_str("Evidence: ");
                out.push_str(&cause.evidence.join("; "));
                out.push_str(".\n\n");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { ts_ns, event }
    }

    fn sample_records() -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for id in 1..=20u64 {
            records.push(rec(
                id * 1_000,
                TraceEvent::QueryIssued {
                    query_id: id,
                    sample_count: 1,
                    delay_ns: 100,
                },
            ));
            records.push(rec(
                id * 1_000 + 50_000,
                TraceEvent::QueryCompleted {
                    query_id: id,
                    latency_ns: 50_100,
                },
            ));
        }
        records.push(rec(
            500,
            TraceEvent::ClockSync {
                host: "server".into(),
                offset_ns: -1_200,
                rtt_ns: 9_000,
            },
        ));
        records
    }

    #[test]
    fn analysis_is_deterministic_and_renders_every_section() {
        let records = sample_records();
        let a = analyze_records("test.jsonl", &records, &[], None);
        let b = analyze_records("test.jsonl", &records, &[], None);
        assert_eq!(a, b);
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
        let md = render_markdown(&a);
        assert!(md.contains("# Tail-latency forensics report"));
        assert!(md.contains("## Percentile breakdown"));
        assert!(md.contains("## Clock alignment"));
        assert!(md.contains("Run is VALID"));
        assert_eq!(md, render_markdown(&b));
    }

    #[test]
    fn invalid_runs_render_root_causes() {
        let mut records = sample_records();
        records.push(rec(
            70_000,
            TraceEvent::ValidityCheckFailed {
                issue: "run too short: 70us < 60s".into(),
            },
        ));
        let a = analyze_records("short.jsonl", &records, &[], None);
        assert_eq!(a.root_causes.len(), 1);
        let md = render_markdown(&a);
        assert!(md.contains("`run_too_short`"));
        assert!(!md.contains("Run is VALID"));
    }

    #[test]
    fn fleet_logs_render_the_per_shard_section() {
        let mut records = sample_records();
        records.push(rec(
            5_000,
            TraceEvent::ShardEvent {
                shard: "shard-1".into(),
                kind: "route".into(),
                query_id: 5,
                detail: "weighted".into(),
            },
        ));
        records.push(rec(
            6_000,
            TraceEvent::ShardEvent {
                shard: "shard-1".into(),
                kind: "failover".into(),
                query_id: 5,
                detail: "vanished; rerouting".into(),
            },
        ));
        let a = analyze_records("fleet.jsonl", &records, &[], None);
        assert_eq!(a.shards.len(), 1);
        let md = render_markdown(&a);
        assert!(md.contains("## Per-shard attribution"));
        assert!(md.contains("shard-1"));
        assert!(md.contains("6.000us – 6.000us"), "{md}");
        // Non-fleet logs skip the section entirely.
        let plain = analyze_records("plain.jsonl", &sample_records(), &[], None);
        assert!(!render_markdown(&plain).contains("Per-shard attribution"));
    }

    #[test]
    fn fmt_ns_is_integer_exact() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(850), "850ns");
        assert_eq!(fmt_ns(-850), "-850ns");
        assert_eq!(fmt_ns(12_345), "12.345us");
        assert_eq!(fmt_ns(3_200_000), "3.200ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.500s");
        assert_eq!(fmt_ns(-2_500_000), "-2.500ms");
    }

    #[test]
    fn extra_issue_texts_feed_root_causes() {
        let a = analyze_records(
            "dump",
            &sample_records(),
            &["flight: [IncompleteQueries { outstanding: 3 }]".to_string()],
            None,
        );
        assert_eq!(a.root_causes.len(), 1);
        assert_eq!(a.root_causes[0].constraint, "incomplete_queries");
    }
}
