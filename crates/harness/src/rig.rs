//! The loopback wire rig: the one place the harness builds "N daemons, a
//! client each, a router over them" (DESIGN.md §3e).
//!
//! A [`Rig`] owns the daemons: one loopback daemon per per-sample service
//! time, each exporting a named [`FixedLatencySut`], or an address somebody
//! else serves. [`Rig::connect`] gives back a [`Wired`]: one [`RemoteSut`]
//! per daemon on a shared sink, registry and clock origin, and the thing to
//! drive — the lone client for one daemon, a [`ShardedSut`] router for
//! more, chosen by the daemon count alone. [`Wired::run_watched`] is the
//! deterministic kill trigger. What differs between callers (settings,
//! service times, resume policies, chaos plans, every check) is theirs
//! and is passed in; the rig has no options.
//!
//! Teardown is by scope. Declare the rig before what connects to it and
//! every exit, early `?` included, unwinds the way the success path does:
//! clients drain on their `Drop`, then the rig's `Drop` shuts its daemons
//! down and joins their threads.

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::record::QueryRecord;
use mlperf_loadgen::results::TestResult;
use mlperf_loadgen::run::WallClock;
use mlperf_loadgen::sut::{FixedLatencySut, RealtimeSut};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::Run;
use mlperf_sut::{BalancePolicy, ShardEndpoint, ShardedSut};
use mlperf_trace::crc::fnv1a64;
use mlperf_trace::event::{TraceRecord, TraceSink};
use mlperf_trace::flight::render_flight_dump;
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_wire::{
    serve_on, RemoteSut, RemoteSutConfig, ServeConfig, ServerHandle, SimHost, WireService,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// FNV-1a over a run's logical per-query records
/// ([`QueryRecord::logical`](mlperf_loadgen::record::QueryRecord::logical)).
/// Two VALID runs of the same seed hash identically, whatever the wire did.
pub fn logical_hash(records: &[QueryRecord]) -> String {
    let mut text = String::new();
    for r in records {
        use std::fmt::Write as _;
        let (id, scheduled_at_ns, sample_count, error) = r.logical();
        let _ = write!(text, "{id},{scheduled_at_ns},{sample_count},{error};");
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Per-sample service time of the benchmark device `netbench` exports and
/// `replay` drives, simulated or over the wire.
pub const DEVICE_PER_SAMPLE: Nanos = Nanos::from_micros(40);

/// Per-sample service times of a loopback rig of that device: the device
/// itself alone, or — for a fleet — a heterogeneous cycle, so the weighted
/// policy has real throughput ratios to balance by.
pub fn device_per_sample(daemons: usize) -> Vec<Nanos> {
    if daemons == 1 {
        return vec![DEVICE_PER_SAMPLE];
    }
    (0..daemons as u64)
        .map(|i| Nanos::from_micros(20 + 30 * (i % 4)))
        .collect()
}

/// Where [`Rig::respawn`] binds the successor daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rebind {
    /// The address the dead daemon held, so a resuming client finds it.
    SameAddress,
    /// A fresh ephemeral port; [`Rig::connect`] dials the new address.
    FreshPort,
}

/// What the rig keeps of a daemon it spawned, to kill and to respawn it.
struct Spawned {
    per_sample: Nanos,
    config: ServeConfig,
    handle: ServerHandle,
}

/// The daemons of one loopback topology. See the [module docs](self).
pub struct Rig {
    name: String,
    /// Where each daemon listens.
    addrs: Vec<String>,
    /// The daemons the rig spawned, in the same order; none over an
    /// address somebody else serves.
    spawned: Vec<Spawned>,
}

impl Rig {
    /// Spawns one loopback daemon per entry of `per_sample`, each exporting
    /// a [`FixedLatencySut`] called `name` with that service time under the
    /// [`ServeConfig`] `serve` returns for its index. Daemons of a fleet are
    /// labelled `shard-<i>`; a rig of one stays unlabelled, so the spans it
    /// ships keep `host: "server"`. If one cannot bind, the ones already up
    /// are shut down.
    pub fn spawn(
        name: &str,
        per_sample: &[Nanos],
        serve: impl Fn(usize) -> ServeConfig,
    ) -> Result<Rig, String> {
        Rig::spawn_exporting(name, per_sample, serve, |_, device| device)
    }

    /// [`Rig::spawn`], with daemon `i` exporting what `export(i, device)`
    /// makes of its device — a test wraps one shard's device in a fault.
    /// The weights stay the devices' own; a respawned daemon exports the
    /// plain device.
    pub fn spawn_exporting(
        name: &str,
        per_sample: &[Nanos],
        serve: impl Fn(usize) -> ServeConfig,
        export: impl Fn(usize, Arc<dyn WireService>) -> Arc<dyn WireService>,
    ) -> Result<Rig, String> {
        let mut rig = Rig {
            name: name.to_string(),
            addrs: Vec::new(),
            spawned: Vec::new(),
        };
        let fleet = per_sample.len() > 1;
        for (i, &per_sample) in per_sample.iter().enumerate() {
            let mut config = serve(i);
            if fleet {
                config = config.with_shard_label(&format!("shard-{i}"));
            }
            let handle = bind("127.0.0.1:0", export(i, device(name, per_sample)), &config)?;
            rig.addrs.push(handle.addr().to_string());
            rig.spawned.push(Spawned {
                per_sample,
                config,
                handle,
            });
        }
        Ok(rig)
    }

    /// A rig of one over a daemon somebody else serves at `addr`.
    pub fn over(addr: &str) -> Rig {
        Rig {
            name: String::new(),
            addrs: vec![addr.to_string()],
            spawned: Vec::new(),
        }
    }

    /// The address daemon `i` listens on.
    pub fn addr(&self, i: usize) -> &str {
        &self.addrs[i]
    }

    /// The name daemon `i` goes by in detail logs and stats: its shard
    /// label in a fleet, `server` alone.
    pub fn label(&self, i: usize) -> String {
        if self.addrs.len() > 1 {
            format!("shard-{i}")
        } else {
            "server".to_string()
        }
    }

    /// Kills daemon `i` the way a dying machine would — every connection
    /// severed, no drain, no goodbye — and joins its threads, so when this
    /// returns its port is free to rebind.
    pub fn kill(&self, i: usize) {
        self.spawned[i].handle.kill();
        self.spawned[i].handle.shutdown();
    }

    /// Starts a successor for daemon `i`: same device, same [`ServeConfig`]
    /// (so a journaling daemon re-adopts its sessions from disk), bound
    /// where `at` says. The predecessor is shut down first.
    pub fn respawn(&mut self, i: usize, at: Rebind) -> Result<(), String> {
        let daemon = &mut self.spawned[i];
        daemon.handle.shutdown();
        let addr = match at {
            Rebind::SameAddress => self.addrs[i].as_str(),
            Rebind::FreshPort => "127.0.0.1:0",
        };
        let device = device(&self.name, daemon.per_sample);
        daemon.handle = bind(addr, device, &daemon.config)?;
        self.addrs[i] = daemon.handle.addr().to_string();
        Ok(())
    }

    /// Connects one client per daemon — handshake from `settings` and
    /// `qsl_size`, the [`RemoteSutConfig`] `config` returns for its index,
    /// all on `sink` and `metrics` — and wires them up: the lone client is
    /// what a rig of one drives; more get a router under `policy` on the
    /// same sink, registry and clock origin, each shard weighted by the
    /// reciprocal of its service time and probed by `is_connected`. When a
    /// connect or handshake fails, the clients already up drain.
    pub fn connect(
        &self,
        settings: &TestSettings,
        qsl_size: u64,
        config: impl Fn(usize) -> RemoteSutConfig,
        policy: BalancePolicy,
        sink: Option<Arc<dyn TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Result<Wired, String> {
        let mut clients = Vec::new();
        for (i, addr) in self.addrs.iter().enumerate() {
            let config = config(i);
            let hello = RemoteSut::hello_for(settings, qsl_size, &config);
            let (sink, metrics) = (sink.clone(), metrics.clone());
            let client = RemoteSut::connect_instrumented(&**addr, hello, config, sink, metrics)
                .map_err(|e| format!("connect to {} at {addr} failed: {e}", self.label(i)))?;
            clients.push(Arc::new(client));
        }
        let origin = clients[0].clock_origin();
        let router = (clients.len() > 1).then(|| {
            let mut router =
                ShardedSut::new(&format!("{}-fleet", self.name), policy).with_origin(origin);
            if let Some(sink) = &sink {
                router = router.with_sink(Arc::clone(sink));
            }
            if let Some(metrics) = metrics {
                router = router.with_metrics(metrics);
            }
            for (i, client) in clients.iter().enumerate() {
                let probe = Arc::clone(client);
                let weight = 1e9 / self.spawned[i].per_sample.as_nanos() as f64;
                router = router.with_endpoint(
                    ShardEndpoint::new(&self.label(i), Arc::clone(client) as _)
                        .with_weight(weight)
                        .with_probe(Arc::new(move || probe.is_connected())),
                );
            }
            Arc::new(router)
        });
        let sut: Arc<dyn RealtimeSut> = match &router {
            Some(router) => Arc::clone(router) as _,
            None => Arc::clone(&clients[0]) as _,
        };
        Ok(Wired {
            clients,
            origin,
            sut,
            router,
            sink,
        })
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        for daemon in &self.spawned {
            daemon.handle.shutdown();
        }
    }
}

/// The device a rig daemon exports: a [`FixedLatencySut`] called `name`.
fn device(name: &str, per_sample: Nanos) -> Arc<dyn WireService> {
    Arc::new(SimHost::new(FixedLatencySut::new(name, per_sample)))
}

fn bind(
    addr: &str,
    service: Arc<dyn WireService>,
    config: &ServeConfig,
) -> Result<ServerHandle, String> {
    let name = service.name().to_string();
    serve_on(addr, service, config.clone())
        .map_err(|e| format!("cannot start a {name} daemon on {addr}: {e}"))
}

/// What [`Rig::connect`] hands back: the connected side of the rig.
pub struct Wired {
    /// One client per daemon, in daemon order.
    pub clients: Vec<Arc<RemoteSut>>,
    /// The clock origin every client's spans, the router's rows and (via
    /// [`Wired::run`]) the run's events are measured from: one time axis.
    pub(crate) origin: Instant,
    /// What to drive: the lone client, or the router over all of them.
    pub sut: Arc<dyn RealtimeSut>,
    /// The router, when the rig has more than one daemon.
    pub router: Option<Arc<ShardedSut>>,
    sink: Option<Arc<dyn TraceSink>>,
}

impl Wired {
    /// A wall-clock run of `settings` on the rig's sink and clock origin;
    /// add `replay` / `journal` / `resume` as needed and `run` it against
    /// [`Wired::sut`].
    pub fn run<'a>(&'a self, settings: &'a TestSettings) -> Run<'a, WallClock> {
        let run = Run::wall_clock(settings).origin(self.origin);
        match &self.sink {
            Some(sink) => run.sink(sink.as_ref()),
            None => run,
        }
    }

    /// Runs `run` on this thread while a scoped watcher polls the router;
    /// the moment shard `victim` has a query in flight, the watcher calls
    /// `strike`, once. Routing counts a query outstanding before it goes
    /// on the wire and service time dwarfs the poll interval, so the
    /// strike lands mid-query and failover has real work to rescue.
    /// Returns what `run` returned and whether the strike happened
    /// (`false`: the run ended first).
    ///
    /// # Panics
    ///
    /// On a rig of one: there is no router to watch.
    pub fn run_watched<T>(
        &self,
        victim: usize,
        strike: impl FnOnce() + Send,
        run: impl FnOnce() -> T,
    ) -> (T, bool) {
        let router = self.router.as_ref();
        let router = router.expect("a rig of one has no router to watch");
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    if router.status()[victim].outstanding > 0 {
                        strike();
                        return true;
                    }
                    std::thread::sleep(Duration::from_micros(20));
                }
                false
            });
            let out = run();
            done.store(true, Ordering::SeqCst);
            (out, watcher.join().expect("rig watcher panicked"))
        })
    }

    /// Drains every link that is still up. A drain ships the daemon's
    /// spans into the shared sink, so call this before reading the sink;
    /// a killed daemon's spans died with it.
    pub fn drain(&self) {
        for client in &self.clients {
            client.shutdown();
        }
    }
}

/// A run's validity-issue kinds, sorted and deduplicated: what the chaos
/// matrices record in place of wall-clock-dependent issue texts.
pub fn issue_kinds(result: &TestResult) -> Vec<String> {
    let mut kinds: Vec<String> = result
        .validity
        .iter()
        .map(|i| i.kind().to_string())
        .collect();
    kinds.sort();
    kinds.dedup();
    kinds
}

/// Events kept in a flight-recorder dump of an INVALID run.
const FLIGHT_TAIL: usize = 256;

/// Writes the flight-recorder dump of an INVALID run — the freshest
/// `FLIGHT_TAIL` of `records` under `reason` — to `path`, runs the
/// forensics layer over the dumped tail, leaves its root-cause report at
/// `<path>.analysis.md`, and says where both went.
pub fn dump_flight(path: &str, reason: &str, records: &[TraceRecord]) {
    let tail_start = records.len().saturating_sub(FLIGHT_TAIL);
    let tail = &records[tail_start..];
    match std::fs::write(path, render_flight_dump(reason, tail, tail_start as u64)) {
        Ok(()) => eprintln!("flight recorder: dumped {path}"),
        Err(e) => eprintln!("flight recorder: cannot write {path}: {e}"),
    }
    let reasons = [reason.to_string()];
    let analysis = mlperf_analysis::analyze_records(path, tail, &reasons, None);
    let report_path = format!("{path}.analysis.md");
    match std::fs::write(&report_path, mlperf_analysis::render_markdown(&analysis)) {
        Ok(()) => eprintln!("forensics: wrote {report_path}"),
        Err(e) => eprintln!("forensics: cannot write {report_path}: {e}"),
    }
}
