//! # ParserHawk
//!
//! A from-scratch Rust reproduction of *ParserHawk: Hardware-aware parser
//! generator using program synthesis* (SIGCOMM 2025).
//!
//! ParserHawk compiles P4-style parser specifications into TCAM-table
//! implementations for heterogeneous line-rate parser architectures (the
//! Barefoot Tofino switch and the Intel IPU), using a CEGIS
//! (counterexample-guided inductive synthesis) loop over a bit-vector solver
//! and a set of domain-specific optimizations that shrink the synthesis
//! search space.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`bits`] — bitstrings and ternary value/mask patterns.
//! * [`sat`] — the CDCL SAT solver substrate.
//! * [`smt`] — the quantifier-free bit-vector layer (bit-blasting).
//! * [`ir`] — the parser-specification IR and its reference simulator.
//! * [`p4f`] — the P4-subset front end.
//! * [`hw`] — hardware models: TCAM tables, device profiles, the
//!   implementation simulator.
//! * [`baseline`] — the DPParserGen and commercial-style baseline compilers.
//! * [`core`] — the ParserHawk synthesis engine itself.
//! * [`benchmarks`] — the paper's benchmark suite and rewrite rules.
//! * [`obs`] — structured tracing and metrics for the synthesis pipeline
//!   (spans, counters, JSON-lines traces; the binaries enable it with
//!   `PH_TRACE`, a library caller with `obs::init_global`).
//! * [`svc`] — the synthesis service: a content-addressed on-disk result
//!   cache and the JSON-over-TCP daemon behind `phd`, with single-flight
//!   dedup and bounded-queue backpressure.
//!
//! ## Quickstart
//!
//! ```
//! use parserhawk::p4f::parse_parser;
//! use parserhawk::hw::DeviceProfile;
//! use parserhawk::core::{Synthesizer, OptConfig};
//!
//! let spec = parse_parser(r#"
//!     header ethernet_t { dstAddr : 48; srcAddr : 48; etherType : 16; }
//!     header ipv4_t { version_ihl : 8; rest : 8; }
//!     parser {
//!         state start {
//!             extract(ethernet_t);
//!             transition select(ethernet_t.etherType) {
//!                 0x0800 : parse_ipv4;
//!                 default : accept;
//!             }
//!         }
//!         state parse_ipv4 {
//!             extract(ipv4_t);
//!             transition accept;
//!         }
//!     }
//! "#).expect("valid parser program");
//!
//! let device = DeviceProfile::tofino();
//! let result = Synthesizer::new(device, OptConfig::all())
//!     .synthesize(&spec)
//!     .expect("synthesis succeeds");
//! assert!(result.program.entry_count() > 0);
//! ```

pub use ph_baseline as baseline;
pub use ph_benchmarks as benchmarks;
pub use ph_bits as bits;
pub use ph_core as core;
pub use ph_hw as hw;
pub use ph_ir as ir;
pub use ph_obs as obs;
pub use ph_p4f as p4f;
pub use ph_sat as sat;
pub use ph_smt as smt;
pub use ph_svc as svc;
