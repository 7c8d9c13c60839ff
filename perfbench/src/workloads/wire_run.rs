//! One wall-clock session over loopback daemons: what `wire_closed` and
//! `fleet_open` share.
//!
//! A session is fresh each time — daemons spawned, clients connected,
//! handshake and clock probe done, one `run_realtime`, everything shut
//! down and joined — because that is how a user meets the wire, and so
//! that no session inherits another's warm sockets or thread placement.

use crate::decor::{EchoSut, Parent, TimedRealtimeSut};
use crate::harness::{sample, Repeat, Sample};
use crate::procfs;
use crate::span::{SpanLog, NO_PARENT};
use crate::summary::{nearest_rank, ten_samples_beyond, Fnv};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::RunOutcome;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::realtime::run_realtime_traced_at;
use mlperf_loadgen::sut::RealtimeSut;
use mlperf_sut::{BalancePolicy, ShardEndpoint, ShardedSut};
use mlperf_trace::{MetricsRegistry, NoopSink};
use mlperf_wire::{loopback, RemoteSut, RemoteSutConfig, ServeConfig, ServerHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use super::POPULATION;

/// Span levels of the decorators, outermost first.
const ROUTER: u8 = 0;
const CLIENT: u8 = 1;
const SERVICE: u8 = 2;

/// What one session measured, before any workload-specific reading.
pub struct Session {
    /// The run's scored outcome.
    pub outcome: RunOutcome,
    /// `loopback()` for every daemon, handshakes included, ms.
    pub connect_ms: f64,
    /// Wall time of the `run_realtime` call, ns.
    pub run_ns: f64,
    /// Voluntary context switches across all threads during the run.
    pub ctx_switches: Option<u64>,
    /// Sum of the daemons' echo digests.
    pub digest: u64,
    /// Failovers the router counted (0 without a router).
    pub failovers: u64,
    /// Span-log time of the run's clock origin (traced sessions).
    pub origin_ns: u64,
    /// Seconds spent shutting clients and daemons down. A client returns
    /// on its heartbeat thread's next 100 ms tick, so this is most of a
    /// short session's wall time and none of its set-up.
    pub teardown_s: f64,
}

/// Thread name of the keep-awake threads (15 bytes: the kernel's limit),
/// so their yields can be left out of the context-switch count.
const KEEP_AWAKE: &str = "perf-keep-awake";

/// Holds every CPU the process may use out of idle while a session runs,
/// with one thread per CPU that does nothing but yield. The wall-clock
/// workloads run on one CPU (`procfs::OneCpu`), so that is one thread.
///
/// A wire query is a chain of thread wake-ups, and on this kind of box
/// what a wake-up costs is decided by how deeply the host let the idle
/// vCPU sleep: the same closed loop reads 19 µs a query right after a
/// busy spell and 125 µs after a quiet one, drifting between the two over
/// seconds. That is the machine, not the LoadGen. A yielding thread keeps
/// the vCPU scheduled, gives way at once to any thread that wakes, and
/// leaves the software path — syscalls, futexes, context switches,
/// loopback TCP — as what the latency measures.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let spin = move || {
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                };
                std::thread::Builder::new()
                    .name(KEEP_AWAKE.into())
                    .spawn(spin)
                    .expect("spawn a keep-awake thread")
            })
            .collect();
        KeepAwake { stop, threads }
    }

    /// Stops and joins the threads.
    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads {
            thread.join().expect("a keep-awake thread panicked");
        }
    }
}

/// Runs `settings` against `daemons` loopback echo daemons — behind a
/// round-robin `ShardedSut` when `routed` — and tears everything down.
pub fn run_session(
    settings: &TestSettings,
    daemons: usize,
    routed: bool,
    trace: Option<&Arc<SpanLog>>,
) -> Result<Session, String> {
    let config = RemoteSutConfig::default();
    let hello = RemoteSut::hello_for(settings, POPULATION as u64, &config);
    let mut echoes = Vec::new();
    let mut clients: Vec<Arc<RemoteSut>> = Vec::new();
    let mut handles: Vec<ServerHandle> = Vec::new();

    let start = Instant::now();
    for _ in 0..daemons {
        let echo = Arc::new(EchoSut::default());
        let service: Arc<dyn mlperf_wire::WireService> = match trace {
            None => echo.clone(),
            Some(log) => Arc::new(TimedRealtimeSut::new(
                echo.clone(),
                Arc::clone(log),
                "wire.service",
                SERVICE,
                Parent::Level(CLIENT),
            )),
        };
        let serve = ServeConfig::default().with_workers_per_conn(1);
        let (client, handle) =
            loopback(service, serve, hello.clone(), config.clone()).map_err(|e| e.to_string())?;
        echoes.push(echo);
        clients.push(Arc::new(client));
        handles.push(handle);
    }
    let connect_ms = start.elapsed().as_secs_f64() * 1e3;

    let metrics = Arc::new(MetricsRegistry::new());
    // The SUT stack is built under the run's root span, so every
    // decorator can name its parent.
    let build = |root: u64| -> Arc<dyn RealtimeSut> {
        let mut endpoints = clients.iter().map(|client| -> Arc<dyn RealtimeSut> {
            match trace {
                None => client.clone(),
                Some(log) => Arc::new(TimedRealtimeSut::new(
                    client.clone(),
                    Arc::clone(log),
                    "wire.client_rtt",
                    CLIENT,
                    if routed {
                        Parent::Level(ROUTER)
                    } else {
                        Parent::Span(root)
                    },
                )),
            }
        });
        if !routed {
            return endpoints.next().expect("at least one daemon");
        }
        let mut router = ShardedSut::new("perf-fleet", BalancePolicy::RoundRobin)
            .with_metrics(Arc::clone(&metrics));
        for (i, endpoint) in endpoints.enumerate() {
            router = router.with_endpoint(ShardEndpoint::new(&format!("shard-{i}"), endpoint));
        }
        match trace {
            None => Arc::new(router),
            Some(log) => Arc::new(TimedRealtimeSut::new(
                Arc::new(router),
                Arc::clone(log),
                "sut.shard",
                ROUTER,
                Parent::Span(root),
            )),
        }
    };

    let awake = KeepAwake::start();
    let mut qsl = MemoryQsl::new("perf-qsl", POPULATION, POPULATION);
    let switches_before = procfs::voluntary_switches_all_threads(KEEP_AWAKE);
    let origin = Instant::now();
    let mut run =
        |root: u64| run_realtime_traced_at(settings, &mut qsl, build(root), &NoopSink, origin);
    let outcome = match trace {
        None => run(NO_PARENT),
        Some(log) => log.time("core.realtime.run", NO_PARENT, run),
    };
    let run_ns = origin.elapsed().as_nanos() as f64;
    // Before the joins below: a thread's count leaves with the thread.
    let switches_after = procfs::voluntary_switches_all_threads(KEEP_AWAKE);

    awake.stop();
    let tearing_down = Instant::now();
    for client in &clients {
        client.shutdown();
    }
    for handle in &handles {
        handle.shutdown();
    }
    Ok(Session {
        outcome: outcome.map_err(|e| e.to_string())?,
        connect_ms,
        run_ns,
        ctx_switches: switches_before
            .zip(switches_after)
            .map(|(before, after)| after.saturating_sub(before)),
        digest: echoes
            .iter()
            .fold(0u64, |sum, e| sum.wrapping_add(e.digest())),
        failovers: metrics.snapshot().counter("shard_failover"),
        origin_ns: trace.map_or(0, |log| log.ns_at(origin)),
        teardown_s: tearing_down.elapsed().as_secs_f64(),
    })
}

/// Sorted latencies (completed − scheduled), ns, of the answered queries.
fn sorted_latencies(outcome: &RunOutcome) -> Vec<u64> {
    let mut latencies: Vec<u64> = outcome
        .records
        .iter()
        .filter_map(|r| r.latency())
        .map(|l| l.as_nanos())
        .collect();
    latencies.sort_unstable();
    latencies
}

/// Per span name: query id → (start, duration), ns.
pub type SpanTimes = HashMap<&'static str, HashMap<u64, (u64, u64)>>;

/// Names of the per-layer values both wall-clock workloads report.
pub struct Names {
    pub overhead_p99_us: &'static str,
    pub latency_samples: &'static str,
    pub realtime_self_p50_us: &'static str,
    pub client_rtt_p50_us: &'static str,
    pub client_rtt_p99_us: &'static str,
    pub service_p50_ns: &'static str,
    pub connect_ms: &'static str,
    pub ctx_switches_per_query: &'static str,
}

fn p(sorted: &[u64], fraction: f64) -> f64 {
    nearest_rank(sorted, fraction).unwrap_or(0) as f64
}

/// Turns a finished session into a [`Repeat`]: correctness checks, the
/// p50 headline, the hash, and the values named by `names`. Returns the
/// per-query span durations by name too, for the caller's own reading.
pub fn read_session(
    session: &Session,
    names: &Names,
    trace: Option<&Arc<SpanLog>>,
) -> Result<(Repeat, SpanTimes), String> {
    let outcome = &session.outcome;
    let result = &outcome.result;
    let outstanding = outcome
        .records
        .iter()
        .filter(|r| r.completed_at.is_none())
        .count() as u64;
    if !result.is_valid() || outstanding > 0 || result.error_count > 0 {
        return Err(format!(
            "session of {} queries: {} errored, {outstanding} outstanding, validity {:?}",
            result.query_count, result.error_count, result.validity
        ));
    }
    if session.failovers > 0 {
        return Err(format!(
            "the router failed over {} queries",
            session.failovers
        ));
    }

    let mut r = Repeat::default();
    let latencies = sorted_latencies(outcome);
    let n = result.query_count;
    let mut hash = Fnv::new();
    let mut ids: Vec<(u64, usize)> = outcome
        .records
        .iter()
        .map(|rec| (rec.id, rec.sample_count))
        .collect();
    ids.sort_unstable();
    for (id, samples) in ids {
        hash.u64(id);
        hash.u64(samples as u64);
    }
    hash.u64(session.digest);
    r.ops = n;
    r.hash = hash.finish();
    r.headline_ns = p(&latencies, 0.5);
    r.teardown_s = session.teardown_s;
    r.samples.extend([
        sample(names.connect_ms, "ms", session.connect_ms),
        sample(names.latency_samples, "count", latencies.len() as f64),
    ]);
    if ten_samples_beyond(latencies.len(), 990) {
        r.samples.push(sample(
            names.overhead_p99_us,
            "us",
            p(&latencies, 0.99) / 1e3,
        ));
    }
    if let Some(switches) = session.ctx_switches {
        r.samples.push(sample(
            names.ctx_switches_per_query,
            "count",
            switches as f64 / n as f64,
        ));
    }

    let mut by_name = SpanTimes::new();
    if let Some(log) = trace {
        log.drain(|spans| {
            super::keep_spans(&mut r.spans, spans, 1);
            for s in spans {
                by_name
                    .entry(s.name)
                    .or_default()
                    .insert(s.query, (s.start_ns, s.duration_ns()));
            }
        });
        let sorted = |name: &str| -> Vec<u64> {
            let mut d: Vec<u64> = by_name
                .get(name)
                .map(|m| m.values().map(|(_, d)| *d).collect())
                .unwrap_or_default();
            d.sort_unstable();
            d
        };
        let rtt = sorted("wire.client_rtt");
        let service = sorted("wire.service");
        if rtt.len() as u64 != n || service.len() as u64 != n {
            return Err(format!(
                "{n} queries but {} client and {} service spans",
                rtt.len(),
                service.len()
            ));
        }
        // What the LoadGen adds outside its outermost SUT call.
        let outermost = by_name
            .get("sut.shard")
            .or_else(|| by_name.get("wire.client_rtt"))
            .expect("client spans were counted above");
        let mut own: Vec<u64> = outcome
            .records
            .iter()
            .filter_map(|rec| {
                let latency = rec.latency()?.as_nanos();
                Some(latency.saturating_sub(outermost.get(&rec.id)?.1))
            })
            .collect();
        own.sort_unstable();
        r.samples.extend([
            sample(names.client_rtt_p50_us, "us", p(&rtt, 0.5) / 1e3),
            sample(names.client_rtt_p99_us, "us", p(&rtt, 0.99) / 1e3),
            sample(names.service_p50_ns, "ns", p(&service, 0.5)),
            sample(names.realtime_self_p50_us, "us", p(&own, 0.5) / 1e3),
        ]);
    }
    Ok((r, by_name))
}

/// Queries per second a session sustained.
pub fn sustained_qps(session: &Session, name: &'static str) -> Sample {
    sample(
        name,
        "1/s",
        session.outcome.result.query_count as f64 / (session.run_ns / 1e9),
    )
}
