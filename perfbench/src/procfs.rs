//! The process's own resource counters, read from `/proc`.
//!
//! Parsers take the file text so they can be tested against fixtures;
//! the readers beside them return `None` off Linux instead of failing,
//! and the caller decides whether a missing counter is fatal.

use std::fs;

/// Value in kB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// `voluntary_ctxt_switches` of one `/proc/<pid>/task/<tid>/status`.
pub fn voluntary_switches(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        line.strip_prefix("voluntary_ctxt_switches:")?
            .trim()
            .parse()
            .ok()
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

/// The thread (or process) name of a `status` file.
pub fn status_name(status: &str) -> Option<&str> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("Name:").map(str::trim))
}

/// Voluntary context switches summed over the threads alive now, leaving
/// out threads named `except`. Sample it before joining the threads of
/// interest: an exited thread's count leaves with it.
pub fn voluntary_switches_all_threads(except: &str) -> Option<u64> {
    let mut total = 0;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(entry.ok()?.path().join("status")) else {
            continue;
        };
        if status_name(&status) != Some(except) {
            total += voluntary_switches(&status).unwrap_or(0);
        }
    }
    Some(total)
}

/// `Cpus_allowed_list` of a `status` file: `0-1`, `0,2-5`, ...
pub fn allowed_cpus(status: &str) -> Option<&str> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:").map(str::trim))
}

/// The highest CPU a list like `0-1` or `0,2-5` names.
pub fn last_cpu(list: &str) -> Option<u32> {
    list.split([',', '-'])
        .map(|n| n.trim().parse::<u32>())
        .collect::<Result<Vec<_>, _>>()
        .ok()?
        .into_iter()
        .max()
}

/// The highest CPU this process may run on.
pub fn last_allowed_cpu() -> Option<u32> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    last_cpu(allowed_cpus(&status)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperf\nUmask:\t0022\nState:\tR (running)\nVmPeak:\t  123456 kB\n\
VmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\nThreads:\t3\n\
voluntary_ctxt_switches:\t1234\nnonvoluntary_ctxt_switches:\t56\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(status_kb(STATUS, "VmHWM"), Some(20_480));
        assert_eq!(status_kb(STATUS, "VmRSS"), Some(10_240));
        assert_eq!(status_kb(STATUS, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(status_kb(STATUS, "Vm"), None);
        assert_eq!(voluntary_switches(STATUS), Some(1_234));
        assert_eq!(voluntary_switches("Name:\tx\n"), None);
        assert_eq!(status_name(STATUS), Some("perf"));
        assert_eq!(status_name("State:\tR\n"), None);
    }

    #[test]
    fn cpu_lists_parse() {
        let status = "Name:\tperf\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n";
        assert_eq!(allowed_cpus(status), Some("0-1"));
        assert_eq!(allowed_cpus(STATUS), None);
        assert_eq!(last_cpu("0-1"), Some(1));
        assert_eq!(last_cpu("0,2-5"), Some(5));
        assert_eq!(last_cpu("7"), Some(7));
        assert_eq!(last_cpu(""), None);
        assert_eq!(last_cpu("0-x"), None);
    }

    #[test]
    fn live_counters_read_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(last_allowed_cpu().is_some());
        let all = voluntary_switches_all_threads("no such thread").expect("task list");
        let own_name = status_name(&fs::read_to_string("/proc/thread-self/status").unwrap())
            .unwrap()
            .to_string();
        assert!(voluntary_switches_all_threads(&own_name).unwrap() <= all);
    }
}
