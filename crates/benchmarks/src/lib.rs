//! # ph-benchmarks
//!
//! The evaluation workload (§7): re-creations of the paper's 29 base
//! benchmarks and the semantic-preserving rewrite rules ±R1…±R5 of Fig. 21
//! that mutate them into the 58 evaluated cases.
//!
//! * [`suite`] — the benchmark parsers: `Parse Ethernet`, `Parse icmp`,
//!   `Parse MPLS`, `Large tran key`, the two `Multi-key` variants,
//!   `Pure Extraction states`, the SAI/DASH-derived parsers, and the
//!   Table 4 motivating examples.
//! * [`rewrite`] — the rewrite rules: R1 add/remove redundant entries, R2
//!   add unreachable entries, R3 split/merge entries, R4 split/merge
//!   transition keys, R5 split/merge parser states.  Every rule is
//!   semantics-preserving and property-tested against the reference
//!   simulator; the "+ unroll loop" case uses the synthesizer's own
//!   unroller (`ph_core::cegis::unroll_spec`).
//! * [`packets`] — crafted packet generators (the Scapy substitute of
//!   §7.1): Ethernet/IPv4/TCP frames as bitstreams for end-to-end checks.
//! * [`registry`] — the Table 3 case list: every (benchmark, rewrites) pair
//!   with its display name.

pub mod packets;
pub mod registry;
pub mod rewrite;
pub mod suite;

pub use registry::{registry, Case};
pub use suite::Benchmark;
