//! Per-shard attribution for fleet runs.
//!
//! A sharded run's merged detail log carries two shard-scoped record
//! kinds: router rows ([`TraceEvent::ShardEvent`] — `route`, `failover`,
//! and the health transitions) and server spans whose `host` is the
//! daemon's shard label. This module folds both into one
//! `ShardReport` per shard, so the forensics report can answer "which
//! shard did the work, which shard died, and when was the failover
//! window" from the log alone.
//!
//! Shard labels come from the `ShardEvent` rows; spans are attributed to
//! a shard only when their `host` matches one of those labels, so plain
//! client/server logs yield an empty report instead of misfiling the
//! single `server` host as a fleet.

use std::collections::BTreeMap;

use mlperf_trace::json::{JsonValue, ToJson};
use mlperf_trace::{ShardEvent, SpanEvent, TraceEvent, TraceRecord};

/// Everything the log says about one shard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ShardReport {
    /// The shard's label (the daemon's `host` / router endpoint label).
    pub(crate) shard: String,
    /// Queries the router dispatched here (`route` rows; attempts, not
    /// successes).
    pub(crate) routed: u64,
    /// Failed attempts re-routed away from this shard (`failover` rows).
    pub(crate) failovers: u64,
    /// Server-side spans attributed to this shard in the merged log.
    pub(crate) spans: u64,
    /// Summed server `queue` span time (ns).
    pub(crate) queue_ns: u64,
    /// Summed server `compute` span time (ns).
    pub(crate) compute_ns: u64,
    /// `down` health transitions observed.
    pub(crate) downs: u64,
    /// `rejoin` health transitions observed.
    pub(crate) rejoins: u64,
    /// Start of the failover window: the first `failover`/`down` row's
    /// timestamp (ns on the run clock); `None` if the shard never failed.
    pub(crate) window_start_ns: Option<u64>,
    /// End of the failover window: the `rejoin`/`drained` row if the
    /// shard came back, else the last `failover` row.
    pub(crate) window_end_ns: Option<u64>,
}

fn opt_ns(v: Option<u64>) -> JsonValue {
    match v {
        Some(ns) => ns.to_json_value(),
        None => JsonValue::Null,
    }
}

impl ToJson for ShardReport {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("shard", self.shard.to_json_value()),
            ("routed", self.routed.to_json_value()),
            ("failovers", self.failovers.to_json_value()),
            ("spans", self.spans.to_json_value()),
            ("queue_ns", self.queue_ns.to_json_value()),
            ("compute_ns", self.compute_ns.to_json_value()),
            ("downs", self.downs.to_json_value()),
            ("rejoins", self.rejoins.to_json_value()),
            ("window_start_ns", opt_ns(self.window_start_ns)),
            ("window_end_ns", opt_ns(self.window_end_ns)),
        ])
    }
}

/// Folds a merged detail log into one [`ShardReport`] per shard, in
/// shard-label order. Empty for runs with no `ShardEvent` rows.
pub(crate) fn shard_reports(records: &[TraceRecord]) -> Vec<ShardReport> {
    let mut by_shard: BTreeMap<String, ShardReport> = BTreeMap::new();
    for record in records {
        let TraceEvent::ShardEvent(event) = &record.event else {
            continue;
        };
        let ShardEvent { shard, kind, .. } = &**event;
        let entry = by_shard
            .entry(shard.clone())
            .or_insert_with(|| ShardReport {
                shard: shard.clone(),
                ..ShardReport::default()
            });
        match kind.as_str() {
            "route" => entry.routed += 1,
            "failover" => {
                entry.failovers += 1;
                entry.window_start_ns.get_or_insert(record.ts_ns);
                entry.window_end_ns = Some(record.ts_ns);
            }
            "down" => {
                entry.downs += 1;
                entry.window_start_ns.get_or_insert(record.ts_ns);
                entry.window_end_ns = Some(record.ts_ns);
            }
            "rejoin" => {
                entry.rejoins += 1;
                entry.window_end_ns = Some(record.ts_ns);
            }
            "drained" => {
                entry.window_end_ns = Some(record.ts_ns);
            }
            _ => {}
        }
    }
    if by_shard.is_empty() {
        return Vec::new();
    }
    for record in records {
        let TraceEvent::SpanEvent(span) = &record.event else {
            continue;
        };
        let SpanEvent {
            host,
            phase,
            dur_ns,
            ..
        } = &**span;
        let Some(entry) = by_shard.get_mut(host) else {
            continue;
        };
        entry.spans += 1;
        match phase.as_str() {
            "queue" => entry.queue_ns += dur_ns,
            "compute" => entry.compute_ns += dur_ns,
            _ => {}
        }
    }
    by_shard.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { ts_ns, event }
    }

    fn shard_ev(ts_ns: u64, shard: &str, kind: &str, query_id: u64) -> TraceRecord {
        rec(
            ts_ns,
            TraceEvent::from(ShardEvent {
                shard: shard.into(),
                kind: kind.into(),
                query_id,
                detail: String::new(),
            }),
        )
    }

    fn span_ev(ts_ns: u64, host: &str, phase: &str, dur_ns: u64) -> TraceRecord {
        rec(
            ts_ns,
            TraceEvent::from(SpanEvent {
                host: host.into(),
                trace_id: 0x1,
                query_id: 1,
                phase: phase.into(),
                dur_ns,
            }),
        )
    }

    #[test]
    fn plain_logs_yield_no_shard_rows() {
        let records = vec![span_ev(10, "server", "compute", 500)];
        assert!(shard_reports(&records).is_empty());
    }

    #[test]
    fn fleet_logs_attribute_work_and_name_the_failover_window() {
        let records = vec![
            shard_ev(100, "shard-0", "route", 1),
            span_ev(120, "shard-0", "queue", 20),
            span_ev(140, "shard-0", "compute", 300),
            shard_ev(500, "shard-1", "route", 2),
            shard_ev(900, "shard-1", "failover", 2),
            shard_ev(901, "shard-0", "route", 2),
            shard_ev(950, "shard-1", "down", 0),
            shard_ev(2_000, "shard-1", "rejoin", 0),
            shard_ev(2_500, "shard-1", "drained", 0),
            // Spans from hosts that are not shards stay unattributed.
            span_ev(300, "client", "issue", 10),
        ];
        let reports = shard_reports(&records);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].shard, "shard-0");
        assert_eq!(reports[0].routed, 2);
        assert_eq!(reports[0].spans, 2);
        assert_eq!(reports[0].queue_ns, 20);
        assert_eq!(reports[0].compute_ns, 300);
        assert_eq!(reports[0].window_start_ns, None);
        let s1 = &reports[1];
        assert_eq!(s1.shard, "shard-1");
        assert_eq!(s1.failovers, 1);
        assert_eq!(s1.downs, 1);
        assert_eq!(s1.rejoins, 1);
        assert_eq!(s1.window_start_ns, Some(900));
        assert_eq!(s1.window_end_ns, Some(2_500));
    }
}
