//! The built `phd` binary under signals and load:
//!
//! * SIGTERM drains it gracefully: the daemon's accept loop blocks, so
//!   the signal must reach it through the binary's SIGTERM watcher, and
//!   the process must exit 0;
//! * serving requests leaves nothing behind: thousands of cache hits do
//!   not grow the daemon's resident memory.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Starts `phd` on an ephemeral loopback port with `envs` set; returns
/// the child and the address it printed.
fn spawn_phd(envs: &[(&str, &std::path::Path)]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_phd"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .envs(envs.iter().copied())
        .stdout(Stdio::piped())
        .spawn()
        .expect("phd binary starts");
    let addr = listening_addr(&mut child);
    (child, addr)
}

/// Reads `phd`'s stdout up to its `listening on` line.
fn listening_addr(child: &mut Child) -> String {
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    loop {
        line.clear();
        let n = stdout.read_line(&mut line).expect("read phd stdout");
        if n == 0 {
            let _ = child.kill();
            panic!("phd exited before printing its address: {:?}", child.wait());
        }
        if let Some(addr) = line.trim().strip_prefix("phd: listening on ") {
            let addr = addr.to_string();
            // Keep reading, so the daemon's later lines never hit a
            // closed pipe.
            std::thread::spawn(move || std::io::copy(&mut stdout, &mut std::io::sink()));
            return addr;
        }
    }
}

/// Sends SIGTERM and returns the exit code, failing after 5 s.
fn terminate(mut child: Child) -> Option<i32> {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(status) = child.try_wait().expect("poll phd") {
            return status.code();
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("phd did not exit within 5 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigterm_drains_phd_with_exit_status_0() {
    let (child, _addr) = spawn_phd(&[]);
    assert_eq!(terminate(child), Some(0), "phd exit status after SIGTERM");
}

/// Resident set size of process `pid`, in kB.
#[cfg(target_os = "linux")]
fn vm_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

/// A served request must leave nothing behind: 5,000 cache hits of one
/// spec may not grow the daemon's RSS by 8 MB.  A daemon that keeps each
/// finished job's program and stats grows about 10 KB per hit.
#[cfg(target_os = "linux")]
#[test]
fn phd_memory_stays_flat_over_many_cache_hits() {
    use ph_core::OptConfig;
    use ph_hw::DeviceProfile;
    use ph_svc::Client;

    let dir = std::env::temp_dir().join(format!("ph-bench-phd-rss-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (child, addr) = spawn_phd(&[("PH_CACHE_DIR", dir.as_path())]);
    let spec = ph_benchmarks::registry()
        .into_iter()
        .find(|c| c.name == "Parse Ethernet")
        .expect("registry case")
        .spec;
    let device = DeviceProfile::tofino();
    let mut client = Client::connect(&addr).expect("connect to phd");
    let mut submit = || {
        client
            .submit_wait(&spec, &device, OptConfig::all(), None)
            .expect("submit")
    };
    assert!(!submit().cache_hit, "the first submission synthesizes");
    // Warm-up: let allocator arenas and thread stacks reach steady state.
    for _ in 0..200 {
        assert!(submit().cache_hit);
    }
    let before = vm_rss_kb(child.id());
    for _ in 0..5_000 {
        submit();
    }
    let after = vm_rss_kb(child.id());
    drop(client);
    assert_eq!(terminate(child), Some(0), "phd exit status after SIGTERM");
    let _ = std::fs::remove_dir_all(&dir);
    let grown_kb = after.saturating_sub(before);
    assert!(
        grown_kb < 8 * 1024,
        "phd RSS grew {grown_kb} kB over 5,000 cache hits ({before} -> {after} kB)"
    );
}
