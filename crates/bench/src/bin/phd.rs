//! `phd` — the ParserHawk synthesis daemon.
//!
//! ```text
//! phd [--addr HOST:PORT] [--workers N] [--queue-cap N]
//! ```
//!
//! * `--addr` (or `PH_SVC_ADDR`) — bind address, default `127.0.0.1:9077`;
//!   port `0` picks an ephemeral port (printed on startup).
//! * `--workers` — synthesis worker threads, default 2.
//! * `--queue-cap` — bounded queue capacity, default 64; submissions
//!   beyond it are rejected explicitly.
//! * `PH_CACHE_DIR` — enables the content-addressed result cache
//!   (`PH_CACHE_BUDGET_BYTES` bounds its size).
//! * `PH_TRACE` / `PH_TRACE_LEVEL` — trace the daemon's work.
//!
//! A flag or variable whose value does not parse exits with status 2.
//!
//! The daemon exits 0 after a graceful drain (SIGTERM or a `shutdown`
//! request): it stops accepting, finishes queued and running jobs, and
//! returns.

use ph_bench::{parse_flag, Config};
use ph_svc::{install_sigterm_drain, Server, ServerConfig};

fn main() {
    let env = Config::from_env();
    env.install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: parse_flag(&args, "--addr").unwrap_or(env.svc_addr.clone()),
        workers: parse_flag(&args, "--workers").unwrap_or(defaults.workers),
        queue_cap: parse_flag(&args, "--queue-cap").unwrap_or(defaults.queue_cap),
        cache: env.cache(),
    };

    install_sigterm_drain();
    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("phd: bind {} failed: {e}", config.addr);
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("phd: listening on {addr}"),
        Err(_) => println!("phd: listening on {}", config.addr),
    }
    println!(
        "phd: {} workers, queue capacity {}, cache {}",
        config.workers,
        config.queue_cap,
        if config.cache.is_some() {
            "enabled"
        } else {
            "disabled (set PH_CACHE_DIR)"
        }
    );
    match server.run() {
        Ok(()) => {
            println!("phd: drained");
        }
        Err(e) => {
            eprintln!("phd: server error: {e}");
            std::process::exit(1);
        }
    }
}
