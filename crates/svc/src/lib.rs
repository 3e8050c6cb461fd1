//! # ph-svc
//!
//! The synthesis service: a content-addressed result cache and a
//! JSON-over-TCP daemon, all on `std` only (the workspace is
//! dependency-free by design).
//!
//! Three layers:
//!
//! * [`cache`] — [`DiskCache`], an on-disk store keyed by a SHA-256 over
//!   the *canonical* specification ([`ph_ir::canon`]), the device model,
//!   and the result-determining synthesis knobs.  Installed via
//!   [`ph_core::SynthParams::cache`] or [`ServerConfig::cache`], it makes
//!   repeated synthesis of the same parser — across processes, table runs
//!   and fuzz campaigns — a disk read instead of a CEGIS run.
//! * [`server`] / [`client`] — the daemon, serving line-delimited JSON
//!   over TCP ([`proto`]): bounded-queue backpressure, a synthesis worker
//!   pool, single-flight deduplication of identical in-flight requests,
//!   per-request deadlines and graceful drain on SIGTERM or a `shutdown`
//!   request.
//! * [`codec`] — hand-written JSON codecs for the IR and program types.
//!
//! The crate is a library only and reads no environment: the `phd` and
//! `ph_client` binaries live in `ph-bench`, which builds their
//! configuration.  The standalone `ledger` benchmark's `svc-mixed`
//! workload measures service latency through an in-process [`Server`].

pub mod cache;
pub mod client;
pub mod codec;
pub mod proto;
pub mod server;

pub use cache::{DiskCache, CACHE_FORMAT_VERSION};
pub use client::{Client, ClientError, SubmitOutcome};
pub use codec::CodecError;
pub use server::{install_sigterm_drain, Server, ServerConfig, ShutdownHandle};
