//! Crash diagnostics for the harness binaries.
//!
//! [`install`] arms a process-wide panic hook around a bounded
//! [`FlightRecorder`]: when any thread panics, the recorder's tail — the
//! freshest trace events of the doomed run — is dumped next to the
//! artifacts as `<binary>-panic-flight.jsonl`, and every journal
//! registered via [`guard_journal`] is `fsync`ed so the durable run state
//! survives the unwind. The previous hook (the default backtrace printer)
//! still runs afterwards.
//!
//! Binaries tee their primary sink into the returned recorder with
//! [`mlperf_trace::FanoutSink`]; binaries that do not trace still get the
//! journal flush and a (possibly empty) dump marking where the panic hit.

use std::panic::PanicHookInfo;
use std::path::PathBuf;
use std::sync::{Mutex, Once, OnceLock};

use mlperf_trace::FlightRecorder;

/// Events retained for a panic-time dump. Matches the chaos binary's
/// flight-dump depth: enough tail to reconstruct the failing window.
const PANIC_FLIGHT_CAPACITY: usize = 4_096;

struct GuardState {
    recorder: FlightRecorder,
    dump_path: PathBuf,
    journals: Vec<PathBuf>,
}

static GUARD: Mutex<Option<GuardState>> = Mutex::new(None);

/// Arms the panic hook for `binary` and returns the flight recorder it
/// will dump. Call once at the top of `main`; hand `recorder.sink()` (via
/// a `FanoutSink`) to whatever the binary traces. Calling again replaces
/// the recorder and clears the guarded-journal list.
pub fn install(binary: &str) -> FlightRecorder {
    let recorder = FlightRecorder::new(PANIC_FLIGHT_CAPACITY);
    {
        let mut guard = GUARD.lock().expect("panic guard poisoned");
        *guard = Some(GuardState {
            recorder: recorder.clone(),
            dump_path: PathBuf::from(format!("{binary}-panic-flight.jsonl")),
            journals: Vec::new(),
        });
    }
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            on_panic(info);
            previous(info);
        }));
    });
    recorder
}

/// Registers a run-journal path to `fsync` when a panic fires, so every
/// checkpoint the OS has buffered becomes durable before the process
/// dies. Call after creating the journal; a path may be registered more
/// than once.
pub fn guard_journal(path: impl Into<PathBuf>) {
    if let Ok(mut guard) = GUARD.lock() {
        if let Some(state) = guard.as_mut() {
            state.journals.push(path.into());
        }
    }
}

fn on_panic(info: &PanicHookInfo<'_>) {
    // A panic inside the hook must not recurse; everything is best-effort.
    static FIRED: OnceLock<()> = OnceLock::new();
    if FIRED.set(()).is_err() {
        return;
    }
    let Ok(guard) = GUARD.lock() else { return };
    let Some(state) = guard.as_ref() else { return };
    for journal in &state.journals {
        if let Ok(file) = std::fs::File::open(journal) {
            let _ = file.sync_all();
        }
    }
    let reason = format!("panic: {info}");
    match state.recorder.dump_to(&state.dump_path, &reason) {
        Ok(()) => eprintln!(
            "panic guard: flight tail ({} events) dumped to {}",
            state.recorder.snapshot().len(),
            state.dump_path.display()
        ),
        Err(e) => eprintln!(
            "panic guard: cannot write {}: {e}",
            state.dump_path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_trace::{RunPhase, TraceSink};

    /// The hook machinery is process-global, so one test exercises the
    /// whole lifecycle: install, record, guard a journal, fire.
    #[test]
    fn panic_dump_carries_the_flight_tail_and_syncs_journals() {
        let dir = std::env::temp_dir().join(format!("panic-guard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("guarded.mlpj");
        std::fs::write(&journal, b"MLPJ\x00\x01").unwrap();

        let recorder = install("panic-guard-test");
        recorder.record(
            7,
            &mlperf_trace::TraceEvent::from(RunPhase {
                phase: "issue".into(),
                scenario: "server".into(),
            }),
        );
        guard_journal(&journal);
        // Point the dump into the temp dir (the default lands in cwd).
        {
            let mut guard = GUARD.lock().unwrap();
            guard.as_mut().unwrap().dump_path = dir.join("dump.jsonl");
        }

        let result = std::panic::catch_unwind(|| panic!("boom for the panic guard test"));
        assert!(result.is_err());

        let dump = std::fs::read_to_string(dir.join("dump.jsonl")).expect("dump written");
        assert!(dump.contains("boom for the panic guard test"));
        assert!(dump.contains("RunPhase"));
        // And the dump is a readable flight dump with one record.
        let parsed = mlperf_trace::parse_flight_dump(&dump).expect("parseable");
        assert_eq!(parsed.records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
