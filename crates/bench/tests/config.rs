//! The binaries' configuration fails closed on names it does not know.
//!
//! A retired or misspelled `PH_*` variable must stop a binary before it
//! runs anything: a stale filter would otherwise silently run every case,
//! and a stale kill switch would silently leave its feature on.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn unknown_ph_variable_exits_2_naming_it() {
    // Spelled in two pieces so a search for knob names under `crates/`
    // lists only real ones.
    let name = concat!("PH_", "NO_SUCH_KNOB");
    let dir = std::env::temp_dir().join(format!("ph-config-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_table3"))
        .env(name, "1")
        .env("PH_RESULTS_DIR", &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("table3 binary starts");
    // A binary that ignores the name runs the whole registry; stop it
    // rather than wait for that.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll table3") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&dir);
            panic!("table3 ran with {name} set instead of refusing it");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(name),
        "stderr does not name {name}: {stderr}"
    );
    assert!(
        !dir.exists(),
        "table3 wrote results despite the unknown variable"
    );
}
