//! Final validation — the Fig. 22 simulator check.
//!
//! The check is [`fuzz::check_e2e`](crate::fuzz::check_e2e), which
//! `synthesize()` runs on every program.  This path remains only as an
//! alias for the benchmark ledger (`ledger/src/layers.rs`), which times
//! the check under this name.

pub use crate::fuzz::check_e2e as check_program_against_spec;
