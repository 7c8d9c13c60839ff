//! A crash-quadrant child of `chaos` must not outlive its parent. It parks
//! reading its piped stdin, so closing that pipe — which the parent's
//! death does too, even by `SIGKILL` — ends it.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn a_crash_daemon_exits_on_its_own_when_its_stdin_closes() {
    let dir = std::env::temp_dir().join(format!("chaos-crash-child-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .arg("__crash-daemon")
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn chaos __crash-daemon");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("status line");
    assert!(line.starts_with("ADDR "), "status line {line:?}");

    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(10);
    let exited = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break Some(status),
            None if Instant::now() > deadline => break None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if exited.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        exited.is_some(),
        "the daemon child outlived its closed stdin by 10 s"
    );
}
