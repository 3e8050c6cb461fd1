//! `ph_client` — submit specs to a running `phd` and inspect it.
//!
//! ```text
//! ph_client [--addr HOST:PORT] --case NAME      # registry benchmark
//! ph_client [--addr HOST:PORT] --p4f FILE      # P4 fragment from disk
//! ph_client --list                             # registry case names
//! ph_client --ping | --stats | --shutdown
//! ```
//!
//! Options: `--device tofino|ipu|trident` (default tofino),
//! `--deadline-ms N`, `--quiet` (suppress the program listing).
//! `PH_SVC_ADDR` provides the default address.
//!
//! Exit codes: 0 success, 1 usage/transport error, 2 synthesis failure,
//! rejection, or a flag or variable whose value does not parse.

use ph_bench::{parse_flag, Config};
use ph_svc::codec;
use ph_svc::{Client, ClientError};
use std::time::Duration;

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn usage() -> ! {
    eprintln!(
        "usage: ph_client [--addr HOST:PORT] (--case NAME | --p4f FILE | --list | --ping | \
         --stats | --shutdown) [--device tofino|ipu|trident] [--deadline-ms N] [--quiet]"
    );
    std::process::exit(1);
}

fn main() {
    let env = Config::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr: String = parse_flag(&args, "--addr").unwrap_or(env.svc_addr);
    let deadline = parse_flag(&args, "--deadline-ms").map(Duration::from_millis);

    if has_flag(&args, "--list") {
        for case in ph_benchmarks::registry() {
            println!("{}", case.name);
        }
        return;
    }

    let connect = || -> Client {
        match Client::connect(&addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("ph_client: connect {addr}: {e}");
                std::process::exit(1);
            }
        }
    };

    if has_flag(&args, "--ping") {
        let mut client = connect();
        match client.ping() {
            Ok(()) => println!("pong"),
            Err(e) => {
                eprintln!("ph_client: ping failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if has_flag(&args, "--stats") {
        let mut client = connect();
        match client.stats() {
            Ok(stats) => print!("{}", stats.to_pretty()),
            Err(e) => {
                eprintln!("ph_client: stats failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if has_flag(&args, "--shutdown") {
        let mut client = connect();
        match client.shutdown() {
            Ok(()) => println!("draining"),
            Err(e) => {
                eprintln!("ph_client: shutdown failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Submission path.
    let spec = match (
        parse_flag::<String>(&args, "--case"),
        parse_flag::<String>(&args, "--p4f"),
    ) {
        (Some(name), None) => {
            let registry = ph_benchmarks::registry();
            match registry.into_iter().find(|c| c.name == name) {
                Some(case) => case.spec,
                None => {
                    eprintln!("ph_client: unknown case {name:?} (try --list)");
                    std::process::exit(1);
                }
            }
        }
        (None, Some(path)) => {
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ph_client: read {path}: {e}");
                    std::process::exit(1);
                }
            };
            match ph_p4f::parse_parser(&src) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("ph_client: parse {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    };
    let device = {
        let name: String = parse_flag(&args, "--device").unwrap_or_else(|| "tofino".into());
        match codec::device_by_name(&name) {
            Some(d) => d,
            None => {
                eprintln!("ph_client: unknown device {name:?}");
                std::process::exit(1);
            }
        }
    };

    let mut client = connect();
    let t0 = std::time::Instant::now();
    match client.submit_wait(&spec, &device, ph_core::OptConfig::all(), deadline) {
        Ok(outcome) => {
            let elapsed = t0.elapsed();
            println!("key {}", outcome.key);
            println!("cache_hit {}", outcome.cache_hit);
            println!("deduped {}", outcome.deduped);
            println!(
                "entries {} stages {}",
                outcome.program.entry_count(),
                outcome.program.stages_used()
            );
            println!("elapsed_ms {}", elapsed.as_millis());
            if !has_flag(&args, "--quiet") {
                print!("{}", outcome.program_text);
            }
        }
        Err(ClientError::Daemon { message, rejected }) => {
            eprintln!(
                "ph_client: {}: {message}",
                if rejected { "rejected" } else { "failed" }
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("ph_client: {e}");
            std::process::exit(1);
        }
    }
}
