//! SIGTERM drains `phd` gracefully: the daemon's accept loop blocks, so
//! the signal must reach it through the binary's SIGTERM watcher, and the
//! process must exit 0.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn sigterm_drains_phd_with_exit_status_0() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_phd"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("phd binary starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    loop {
        line.clear();
        let n = stdout.read_line(&mut line).expect("read phd stdout");
        if n == 0 {
            let _ = child.kill();
            panic!("phd exited before printing its address: {:?}", child.wait());
        }
        if line.contains("listening on") {
            break;
        }
    }
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll phd") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("phd did not exit within 5 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "phd exit status after SIGTERM");
}
