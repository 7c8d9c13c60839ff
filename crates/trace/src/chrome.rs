//! Chrome `trace_event`-format export.
//!
//! Produces the JSON array form loadable by `chrome://tracing` and
//! Perfetto: each entry is `{name, ph, ts, pid, tid, ...}` with
//! microsecond timestamps. Query lifecycles become complete (`ph:"X"`)
//! spans on pid 1 — one row (tid) per concurrent "lane", assigned
//! greedily so overlapping queries render side by side. Device batches
//! become spans on pid 2 with tid = device unit. Distributed
//! [`TraceEvent::SpanEvent`]s from a merged wire run land on one stable
//! pid *per host* (pid 3 upward, hosts sorted by name), so a
//! client+server log renders as two labeled process lanes on one aligned
//! axis instead of colliding on shared pids. Every used pid gets a
//! human-readable `process_name` metadata (`ph:"M"`) row, and every used
//! (pid, tid) lane gets a matching `thread_name` row — so a merged-log
//! server span reads as "server / lane 0", not a bare pid/tid pair.
//! Everything else becomes instant (`ph:"i"`) events.

use crate::event::{ClockSync, RunPhase, ShardEvent, SpanEvent, TraceEvent, TraceRecord};
use crate::json::{JsonValue, ToJson};

/// pid used for query-lifecycle spans.
const QUERY_PID: i64 = 1;
/// pid used for device-lane spans.
const DEVICE_PID: i64 = 2;
/// First pid used for per-host distributed-span lanes.
const HOST_PID_BASE: i64 = 3;

fn micros(ts_ns: u64) -> JsonValue {
    JsonValue::Float(ts_ns as f64 / 1000.0)
}

/// Orders host names *naturally*: digit runs compare by value, so
/// `shard-2` sorts before `shard-10` and per-host pids stay stable and
/// collision-free as a merged fleet log grows past nine shards (plain
/// lexicographic order would renumber every pid when `shard-10` joined).
/// Numerically equal but textually distinct runs (`01` vs `1`) fall back
/// to full lexicographic order so the comparison stays total.
fn natural_cmp(a: &str, b: &str) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn digit_run(s: &[u8]) -> usize {
        s.iter()
            .position(|c| !c.is_ascii_digit())
            .unwrap_or(s.len())
    }
    let (mut ia, mut ib) = (a.as_bytes(), b.as_bytes());
    let key = loop {
        match (ia.first().copied(), ib.first().copied()) {
            (None, None) => break Ordering::Equal,
            (None, Some(_)) => break Ordering::Less,
            (Some(_), None) => break Ordering::Greater,
            (Some(ca), Some(cb)) => {
                if ca.is_ascii_digit() && cb.is_ascii_digit() {
                    let (ea, eb) = (digit_run(ia), digit_run(ib));
                    // Strip leading zeros; compare magnitudes by length
                    // first, then digit bytes — no overflow at any width.
                    let ta = &ia[ia[..ea].iter().position(|&c| c != b'0').unwrap_or(ea)..ea];
                    let tb = &ib[ib[..eb].iter().position(|&c| c != b'0').unwrap_or(eb)..eb];
                    let ord = ta.len().cmp(&tb.len()).then_with(|| ta.cmp(tb));
                    if ord != Ordering::Equal {
                        break ord;
                    }
                    ia = &ia[ea..];
                    ib = &ib[eb..];
                } else {
                    let ord = ca.cmp(&cb);
                    if ord != Ordering::Equal {
                        break ord;
                    }
                    ia = &ia[1..];
                    ib = &ib[1..];
                }
            }
        }
    };
    key.then_with(|| a.cmp(b))
}

fn span(name: String, start_ns: u64, dur_ns: u64, pid: i64, tid: i64) -> JsonValue {
    JsonValue::object(vec![
        ("name", JsonValue::Str(name)),
        ("ph", JsonValue::Str("X".into())),
        ("ts", micros(start_ns)),
        ("dur", micros(dur_ns)),
        ("pid", JsonValue::Int(i128::from(pid))),
        ("tid", JsonValue::Int(i128::from(tid))),
    ])
}

fn span_with_args(
    name: String,
    start_ns: u64,
    dur_ns: u64,
    pid: i64,
    tid: i64,
    args: JsonValue,
) -> JsonValue {
    JsonValue::object(vec![
        ("name", JsonValue::Str(name)),
        ("ph", JsonValue::Str("X".into())),
        ("ts", micros(start_ns)),
        ("dur", micros(dur_ns)),
        ("pid", JsonValue::Int(i128::from(pid))),
        ("tid", JsonValue::Int(i128::from(tid))),
        ("args", args),
    ])
}

fn process_name(pid: i64, name: String) -> JsonValue {
    JsonValue::object(vec![
        ("name", JsonValue::Str("process_name".into())),
        ("ph", JsonValue::Str("M".into())),
        ("pid", JsonValue::Int(i128::from(pid))),
        ("tid", JsonValue::Int(0)),
        (
            "args",
            JsonValue::object(vec![("name", JsonValue::Str(name))]),
        ),
    ])
}

fn thread_name(pid: i64, tid: i64, name: String) -> JsonValue {
    JsonValue::object(vec![
        ("name", JsonValue::Str("thread_name".into())),
        ("ph", JsonValue::Str("M".into())),
        ("pid", JsonValue::Int(i128::from(pid))),
        ("tid", JsonValue::Int(i128::from(tid))),
        (
            "args",
            JsonValue::object(vec![("name", JsonValue::Str(name))]),
        ),
    ])
}

fn instant(name: String, ts_ns: u64, pid: i64, tid: i64, args: JsonValue) -> JsonValue {
    JsonValue::object(vec![
        ("name", JsonValue::Str(name)),
        ("ph", JsonValue::Str("i".into())),
        ("s", JsonValue::Str("t".into())),
        ("ts", micros(ts_ns)),
        ("pid", JsonValue::Int(i128::from(pid))),
        ("tid", JsonValue::Int(i128::from(tid))),
        ("args", args),
    ])
}

/// Converts trace records into a Chrome trace_event JSON document.
///
/// Query spans run from the `QueryIssued` timestamp to the matching
/// `QueryCompleted`; queries that never complete are rendered as instant
/// events so they remain visible.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut entries: Vec<JsonValue> = Vec::new();

    // First pass: pair up issue/complete per query id.
    struct Span {
        query_id: u64,
        start_ns: u64,
        end_ns: u64,
        sample_count: usize,
    }
    let mut open: Vec<(u64, u64, usize)> = Vec::new(); // (query_id, issued_ts, samples)
    let mut spans: Vec<Span> = Vec::new();

    for record in records {
        match &record.event {
            TraceEvent::QueryIssued {
                query_id,
                sample_count,
                ..
            } => {
                open.push((*query_id, record.ts_ns, *sample_count));
            }
            TraceEvent::QueryCompleted { query_id, .. } => {
                if let Some(pos) = open.iter().position(|(id, _, _)| id == query_id) {
                    let (id, start_ns, sample_count) = open.swap_remove(pos);
                    spans.push(Span {
                        query_id: id,
                        start_ns,
                        end_ns: record.ts_ns.max(start_ns),
                        sample_count,
                    });
                }
            }
            _ => {}
        }
    }

    // Greedy lane assignment: a query takes the lowest-numbered lane that
    // is free at its start time, so overlapping queries land on distinct
    // rows of the timeline.
    spans.sort_by_key(|s| (s.start_ns, s.query_id));
    let mut lane_free_at: Vec<u64> = Vec::new();
    for s in &spans {
        let lane = lane_free_at
            .iter()
            .position(|&free| free <= s.start_ns)
            .unwrap_or_else(|| {
                lane_free_at.push(0);
                lane_free_at.len() - 1
            });
        lane_free_at[lane] = s.end_ns.max(s.start_ns + 1);
        entries.push(span(
            format!("query {} ({} samples)", s.query_id, s.sample_count),
            s.start_ns,
            s.end_ns - s.start_ns,
            QUERY_PID,
            lane as i64,
        ));
    }

    // Queries issued but never completed show up as instants.
    for (query_id, ts_ns, _) in &open {
        entries.push(instant(
            format!("query {query_id} (incomplete)"),
            *ts_ns,
            QUERY_PID,
            0,
            JsonValue::object(vec![("query_id", query_id.to_json_value())]),
        ));
    }

    // Second pass: device batches and instant-style events.
    for record in records {
        match &record.event {
            TraceEvent::BatchFormed {
                unit,
                batch_size,
                service_ns,
            } => {
                entries.push(span(
                    format!("batch x{batch_size}"),
                    record.ts_ns,
                    *service_ns,
                    DEVICE_PID,
                    *unit as i64,
                ));
            }
            TraceEvent::DvfsStateChange {
                unit,
                multiplier_milli,
            } => {
                entries.push(instant(
                    format!("dvfs {:.3}x", f64::from(*multiplier_milli) / 1000.0),
                    record.ts_ns,
                    DEVICE_PID,
                    *unit as i64,
                    JsonValue::object(vec![("multiplier_milli", multiplier_milli.to_json_value())]),
                ));
            }
            TraceEvent::OverloadDropped {
                query_id,
                intervals,
            } => {
                entries.push(instant(
                    format!("dropped {intervals} intervals"),
                    record.ts_ns,
                    QUERY_PID,
                    0,
                    JsonValue::object(vec![
                        ("query_id", query_id.to_json_value()),
                        ("intervals", intervals.to_json_value()),
                    ]),
                ));
            }
            TraceEvent::ValidityCheckFailed(failed) => {
                entries.push(instant(
                    format!("INVALID: {}", failed.issue),
                    record.ts_ns,
                    QUERY_PID,
                    0,
                    JsonValue::object(vec![("issue", JsonValue::Str(failed.issue.clone()))]),
                ));
            }
            TraceEvent::RunPhase(run_phase) => {
                let RunPhase { phase, scenario } = &**run_phase;
                entries.push(instant(
                    format!("phase: {phase}"),
                    record.ts_ns,
                    QUERY_PID,
                    0,
                    JsonValue::object(vec![
                        ("phase", JsonValue::Str(phase.clone())),
                        ("scenario", JsonValue::Str(scenario.clone())),
                    ]),
                ));
            }
            TraceEvent::PeakSearchStep { target, valid } => {
                entries.push(instant(
                    format!(
                        "peak step {target:.2} ({})",
                        if *valid { "valid" } else { "invalid" }
                    ),
                    record.ts_ns,
                    QUERY_PID,
                    0,
                    JsonValue::object(vec![
                        ("target", target.to_json_value()),
                        ("valid", valid.to_json_value()),
                    ]),
                ));
            }
            _ => {}
        }
    }

    // Third pass: distributed wire spans and clock-sync marks, one stable
    // process lane per host (sorted by name so pids survive re-exports).
    let mut hosts: Vec<&str> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::SpanEvent(span) => Some(span.host.as_str()),
            TraceEvent::ClockSync(sync) => Some(sync.host.as_str()),
            TraceEvent::ShardEvent(shard) => Some(shard.shard.as_str()),
            _ => None,
        })
        .collect();
    hosts.sort_unstable_by(|a, b| natural_cmp(a, b));
    hosts.dedup();
    let host_idx = |host: &str| {
        hosts
            .binary_search_by(|h| natural_cmp(h, host))
            .expect("host indexed")
    };

    // (host index, start, dur, name, args) — lane-assigned per host below.
    let mut wire_spans: Vec<(usize, u64, u64, String, JsonValue)> = Vec::new();
    for record in records {
        match &record.event {
            TraceEvent::SpanEvent(span) => {
                let SpanEvent {
                    host,
                    trace_id,
                    query_id,
                    phase,
                    dur_ns,
                } = &**span;
                wire_spans.push((
                    host_idx(host),
                    record.ts_ns,
                    *dur_ns,
                    format!("{phase} q{query_id}"),
                    JsonValue::object(vec![
                        ("trace_id", JsonValue::Str(format!("{trace_id:#018x}"))),
                        ("query_id", query_id.to_json_value()),
                        ("phase", JsonValue::Str(phase.clone())),
                    ]),
                ));
            }
            TraceEvent::ClockSync(sync) => {
                let ClockSync {
                    host,
                    offset_ns,
                    rtt_ns,
                } = &**sync;
                entries.push(instant(
                    format!("clock sync: offset {offset_ns} ns (rtt {rtt_ns} ns)"),
                    record.ts_ns,
                    HOST_PID_BASE + host_idx(host) as i64,
                    0,
                    JsonValue::object(vec![
                        ("offset_ns", offset_ns.to_json_value()),
                        ("rtt_ns", rtt_ns.to_json_value()),
                    ]),
                ));
            }
            TraceEvent::ShardEvent(shard_event) => {
                let ShardEvent {
                    shard,
                    kind,
                    query_id,
                    detail,
                } = &**shard_event;
                entries.push(instant(
                    format!("shard {kind} q{query_id}"),
                    record.ts_ns,
                    HOST_PID_BASE + host_idx(shard) as i64,
                    0,
                    JsonValue::object(vec![
                        ("kind", JsonValue::Str(kind.clone())),
                        ("query_id", query_id.to_json_value()),
                        ("detail", JsonValue::Str(detail.clone())),
                    ]),
                ));
            }
            _ => {}
        }
    }
    wire_spans.sort_by(|a, b| (a.0, a.1, &a.3).cmp(&(b.0, b.1, &b.3)));
    let mut host_lanes: Vec<Vec<u64>> = vec![Vec::new(); hosts.len()];
    for (idx, start_ns, dur_ns, name, args) in wire_spans {
        let lane_free_at = &mut host_lanes[idx];
        let lane = lane_free_at
            .iter()
            .position(|&free| free <= start_ns)
            .unwrap_or_else(|| {
                lane_free_at.push(0);
                lane_free_at.len() - 1
            });
        let end_ns = start_ns.saturating_add(dur_ns);
        lane_free_at[lane] = end_ns.max(start_ns + 1);
        let pid = HOST_PID_BASE + idx as i64;
        if dur_ns == 0 {
            entries.push(instant(name, start_ns, pid, lane as i64, args));
        } else {
            entries.push(span_with_args(
                name,
                start_ns,
                dur_ns,
                pid,
                lane as i64,
                args,
            ));
        }
    }

    // `process_name` metadata for every pid in use and `thread_name`
    // metadata for every (pid, tid) lane, so the viewer shows labeled
    // processes *and* labeled rows instead of bare numbers.
    let mut used_pids: Vec<i64> = entries
        .iter()
        .filter_map(|e| e.get("pid").and_then(|p| p.as_i64().ok()))
        .collect();
    used_pids.sort_unstable();
    used_pids.dedup();
    let mut used_lanes: Vec<(i64, i64)> = entries
        .iter()
        .filter_map(|e| {
            let pid = e.get("pid")?.as_i64().ok()?;
            let tid = e.get("tid")?.as_i64().ok()?;
            Some((pid, tid))
        })
        .collect();
    used_lanes.sort_unstable();
    used_lanes.dedup();
    for pid in used_pids {
        let label = match pid {
            QUERY_PID => "loadgen (queries)".to_string(),
            DEVICE_PID => "device (batches)".to_string(),
            p => format!("host: {}", hosts[(p - HOST_PID_BASE) as usize]),
        };
        entries.push(process_name(pid, label));
    }
    for (pid, tid) in used_lanes {
        let label = match pid {
            DEVICE_PID => format!("unit {tid}"),
            _ => format!("lane {tid}"),
        };
        entries.push(thread_name(pid, tid, label));
    }

    JsonValue::Array(entries).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ValidityCheckFailed;

    fn rec(ts_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { ts_ns, event }
    }

    #[test]
    fn query_spans_are_complete_events() {
        let records = vec![
            rec(
                100,
                TraceEvent::QueryIssued {
                    query_id: 1,
                    sample_count: 1,
                    delay_ns: 0,
                },
            ),
            rec(
                150,
                TraceEvent::QueryIssued {
                    query_id: 2,
                    sample_count: 1,
                    delay_ns: 0,
                },
            ),
            rec(
                400,
                TraceEvent::QueryCompleted {
                    query_id: 1,
                    latency_ns: 300,
                },
            ),
            rec(
                500,
                TraceEvent::QueryCompleted {
                    query_id: 2,
                    latency_ns: 350,
                },
            ),
        ];
        let json = chrome_trace_json(&records);
        let doc = JsonValue::parse(&json).unwrap();
        let entries = doc.as_array().unwrap();
        let spans: Vec<_> = entries
            .iter()
            .filter(|e| e.field("ph").unwrap().as_str().unwrap() == "X")
            .collect();
        assert_eq!(spans.len(), 2);
        for entry in entries {
            // Metadata (`ph:"M"`) rows are timeless; everything else
            // carries the full tuple.
            let keys: &[&str] = if entry.field("ph").unwrap().as_str().unwrap() == "M" {
                &["name", "ph", "pid", "args"]
            } else {
                &["name", "ph", "ts", "pid", "tid"]
            };
            for key in keys {
                assert!(entry.get(key).is_some(), "missing {key} in {json}");
            }
        }
        // Overlapping queries get distinct lanes.
        let tids: Vec<i64> = spans
            .iter()
            .map(|s| s.field("tid").unwrap().as_i64().unwrap())
            .collect();
        assert_ne!(tids[0], tids[1]);
    }

    #[test]
    fn sequential_queries_share_a_lane() {
        let records = vec![
            rec(
                0,
                TraceEvent::QueryIssued {
                    query_id: 1,
                    sample_count: 1,
                    delay_ns: 0,
                },
            ),
            rec(
                100,
                TraceEvent::QueryCompleted {
                    query_id: 1,
                    latency_ns: 100,
                },
            ),
            rec(
                200,
                TraceEvent::QueryIssued {
                    query_id: 2,
                    sample_count: 1,
                    delay_ns: 0,
                },
            ),
            rec(
                300,
                TraceEvent::QueryCompleted {
                    query_id: 2,
                    latency_ns: 100,
                },
            ),
        ];
        let doc = JsonValue::parse(&chrome_trace_json(&records)).unwrap();
        let tids: Vec<i64> = doc
            .as_array()
            .unwrap()
            .iter()
            .filter(|s| s.field("ph").unwrap().as_str().unwrap() == "X")
            .map(|s| s.field("tid").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(tids, vec![0, 0]);
    }

    #[test]
    fn batches_and_instants_render() {
        let records = vec![
            rec(
                10,
                TraceEvent::BatchFormed {
                    unit: 3,
                    batch_size: 8,
                    service_ns: 5000,
                },
            ),
            rec(
                20,
                TraceEvent::DvfsStateChange {
                    unit: 3,
                    multiplier_milli: 900,
                },
            ),
            rec(
                30,
                TraceEvent::from(ValidityCheckFailed {
                    issue: "too few queries".into(),
                }),
            ),
        ];
        let doc = JsonValue::parse(&chrome_trace_json(&records)).unwrap();
        let entries = doc.as_array().unwrap();
        // Three events, one `process_name` row per used pid (1 and 2),
        // and one `thread_name` row per used lane ((1,0) and (2,3)).
        assert_eq!(entries.len(), 7);
        assert_eq!(entries[0].field("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(entries[0].field("pid").unwrap().as_i64().unwrap(), 2);
        assert_eq!(entries[0].field("tid").unwrap().as_i64().unwrap(), 3);
        assert_eq!(entries[1].field("ph").unwrap().as_str().unwrap(), "i");
        let meta_named = |kind: &str| -> Vec<&JsonValue> {
            entries
                .iter()
                .filter(|e| e.field("name").unwrap().as_str().unwrap() == kind)
                .collect()
        };
        assert_eq!(meta_named("process_name").len(), 2);
        let threads = meta_named("thread_name");
        assert_eq!(threads.len(), 2);
        // The device lane is labeled as a unit, the query lane as a lane.
        let thread_label = |pid: i64| {
            threads
                .iter()
                .find(|e| e.field("pid").unwrap().as_i64().unwrap() == pid)
                .map(|e| {
                    e.field("args")
                        .unwrap()
                        .field("name")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                })
                .unwrap()
        };
        assert_eq!(thread_label(1), "lane 0");
        assert_eq!(thread_label(2), "unit 3");
    }

    #[test]
    fn merged_logs_get_stable_per_host_lanes_and_names() {
        let span_ev = |ts, host: &str, phase: &str, dur| {
            rec(
                ts,
                TraceEvent::from(SpanEvent {
                    host: host.into(),
                    trace_id: 0xABCD,
                    query_id: 1,
                    phase: phase.into(),
                    dur_ns: dur,
                }),
            )
        };
        let records = vec![
            span_ev(100, "client", "issue", 900),
            span_ev(300, "server", "queue", 50),
            span_ev(350, "server", "compute", 400),
            span_ev(1_000, "client", "complete", 0),
            rec(
                500,
                TraceEvent::from(ClockSync {
                    host: "server".into(),
                    offset_ns: -40,
                    rtt_ns: 200,
                }),
            ),
        ];
        let doc = JsonValue::parse(&chrome_trace_json(&records)).unwrap();
        let entries = doc.as_array().unwrap().to_vec();
        // Hosts sort as [client, server] → pids 3 and 4, regardless of
        // event order in the log.
        let pid_of = |name_part: &str| {
            entries
                .iter()
                .find(|e| {
                    e.field("name")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .contains(name_part)
                })
                .map(|e| e.field("pid").unwrap().as_i64().unwrap())
                .unwrap_or_else(|| panic!("no entry named *{name_part}*"))
        };
        assert_eq!(pid_of("issue q1"), 3);
        assert_eq!(pid_of("compute q1"), 4);
        assert_eq!(pid_of("clock sync"), 4);
        // The zero-duration phase renders as an instant, not a 0-width box.
        let complete = entries
            .iter()
            .find(|e| e.field("name").unwrap().as_str().unwrap() == "complete q1")
            .unwrap();
        assert_eq!(complete.field("ph").unwrap().as_str().unwrap(), "i");
        // Trace ids travel in args as readable hex.
        let issue = entries
            .iter()
            .find(|e| e.field("name").unwrap().as_str().unwrap() == "issue q1")
            .unwrap();
        assert_eq!(
            issue
                .field("args")
                .unwrap()
                .field("trace_id")
                .unwrap()
                .as_str()
                .unwrap(),
            "0x000000000000abcd"
        );
        // Every used pid is named.
        let meta_names = |kind: &str| -> Vec<String> {
            entries
                .iter()
                .filter(|e| e.field("name").unwrap().as_str().unwrap() == kind)
                .map(|e| {
                    e.field("args")
                        .unwrap()
                        .field("name")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            meta_names("process_name"),
            vec!["host: client", "host: server"]
        );
        // ... and every used (pid, tid) lane is named, so merged-log
        // server spans render as labeled rows inside the host process.
        let lanes: Vec<(i64, i64)> = entries
            .iter()
            .filter(|e| e.field("name").unwrap().as_str().unwrap() == "thread_name")
            .map(|e| {
                (
                    e.field("pid").unwrap().as_i64().unwrap(),
                    e.field("tid").unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        assert!(lanes.contains(&(3, 0)), "client lane unnamed: {lanes:?}");
        assert!(lanes.contains(&(4, 0)), "server lane unnamed: {lanes:?}");
        assert!(meta_names("thread_name").contains(&"lane 0".to_string()));
    }

    #[test]
    fn fleet_hosts_get_natural_order_pids_past_nine_shards() {
        // A merged fleet log with >2 hosts: lexicographic sorting would
        // put shard-10 before shard-2 and renumber every pid; natural
        // order keeps client < shard-1 < shard-2 < shard-10 stable.
        let span_ev = |ts, host: &str| {
            rec(
                ts,
                TraceEvent::from(SpanEvent {
                    host: host.into(),
                    trace_id: 0xABCD,
                    query_id: 1,
                    phase: "compute".into(),
                    dur_ns: 10,
                }),
            )
        };
        let records = vec![
            span_ev(10, "shard-10"),
            span_ev(20, "shard-2"),
            span_ev(30, "client"),
            span_ev(40, "shard-1"),
            rec(
                50,
                TraceEvent::from(ShardEvent {
                    shard: "shard-10".into(),
                    kind: "failover".into(),
                    query_id: 1,
                    detail: "vanished; rerouting".into(),
                }),
            ),
        ];
        let doc = JsonValue::parse(&chrome_trace_json(&records)).unwrap();
        let entries = doc.as_array().unwrap().to_vec();
        let names: Vec<(String, i64)> = entries
            .iter()
            .filter(|e| e.field("name").unwrap().as_str().unwrap() == "process_name")
            .map(|e| {
                (
                    e.field("args")
                        .unwrap()
                        .field("name")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string(),
                    e.field("pid").unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("host: client".to_string(), 3),
                ("host: shard-1".to_string(), 4),
                ("host: shard-2".to_string(), 5),
                ("host: shard-10".to_string(), 6),
            ]
        );
        // Shard health/routing rows render as instants on their shard's
        // own process lane.
        let failover = entries
            .iter()
            .find(|e| e.field("name").unwrap().as_str().unwrap() == "shard failover q1")
            .expect("shard event rendered");
        assert_eq!(failover.field("ph").unwrap().as_str().unwrap(), "i");
        assert_eq!(failover.field("pid").unwrap().as_i64().unwrap(), 6);
    }

    #[test]
    fn natural_order_is_total_and_numeric() {
        let mut hosts = vec!["shard-10", "shard-2", "b", "a10c", "a2b", "a02b", "a"];
        hosts.sort_unstable_by(|x, y| natural_cmp(x, y));
        assert_eq!(
            hosts,
            vec!["a", "a02b", "a2b", "a10c", "b", "shard-2", "shard-10"]
        );
    }

    #[test]
    fn incomplete_queries_still_visible() {
        let records = vec![rec(
            5,
            TraceEvent::QueryIssued {
                query_id: 42,
                sample_count: 1,
                delay_ns: 0,
            },
        )];
        let json = chrome_trace_json(&records);
        assert!(json.contains("incomplete"));
    }
}
