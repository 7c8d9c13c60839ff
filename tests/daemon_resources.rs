//! A daemon that serves connection after connection holds no more
//! descriptors or threads than it did idle: a connection that ends gives
//! back its socket, and its thread is gone.
//!
//! The counts are this process's own (`/proc/self/fd`, `/proc/self/task`),
//! which is why this file holds one test: no other test's sockets or
//! threads run beside it.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use mlperf_loadgen::sut::SleepSut;
use mlperf_wire::{fetch_stats, serve_on, ServeConfig};

/// `(open descriptors, live threads)` of this process.
fn held() -> (usize, usize) {
    let count = |dir| std::fs::read_dir(dir).expect("procfs").count();
    (count("/proc/self/fd"), count("/proc/self/task"))
}

#[test]
fn sequential_connections_leave_no_descriptor_or_thread_behind() {
    let service = Arc::new(SleepSut::new("idle", Duration::ZERO));
    let daemon = serve_on("127.0.0.1:0", service, ServeConfig::default()).expect("serve");
    let idle = held();
    for probe in 0..200 {
        fetch_stats(daemon.addr()).unwrap_or_else(|e| panic!("probe {probe}: {e}"));
    }
    // The client has its reply a moment before the daemon's connection
    // thread ends; wait for the last one, not for a leak.
    let deadline = Instant::now() + Duration::from_secs(10);
    let settled = loop {
        let now = held();
        if now == idle || Instant::now() > deadline {
            break now;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    daemon.shutdown();
    assert_eq!(
        settled, idle,
        "(descriptors, threads) after 200 sequential connections, against idle"
    );
}
