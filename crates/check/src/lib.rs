//! # lems-check — correctness tooling for the lems workspace
//!
//! Dynamic checks over the deterministic mail simulator. The static
//! perimeters (no panic in library code; no wall clock, hash-ordered
//! collection, thread or unforked RNG in sim-driven crates; no discarded
//! store error) are not this crate's: they are clippy lint levels in each
//! `lib.rs` and per-crate `clippy.toml` bans, see DESIGN.md §10.
//!
//! * [`audit`] — a [`TraceAuditor`](audit::TraceAuditor) that consumes
//!   [`lems_sim::trace`] event streams and asserts the engine's
//!   conservation laws (every send terminates in exactly one deliver or
//!   drop; crash/recover events alternate per actor), and
//!   [`verdict`](audit::verdict), the one judgement of a finished run:
//!   those laws plus the mail ledgers, span conservation and store
//!   recoveries (nothing lost, nothing double-counted, nothing stranded).
//! * [`scenarios`] — reproducible runs as data:
//!   [`RunSpec`](scenarios::RunSpec), one run written down; the
//!   [`AUDIT`](scenarios::AUDIT) table of named specs the `lems-check --
//!   audit` subcommand runs once each; and the
//!   [`EXPLORE`](scenarios::EXPLORE) table of tiny worlds the explorer
//!   drives.
//! * [`explore`] — a small-scope schedule model checker: exhaustively
//!   enumerates same-instant event interleavings of one scenario (via
//!   [`lems_sim::sched`]), judging every terminal run with the same
//!   verdict and reporting failing schedules as replayable branch-choice
//!   lists.
//!
//! Run from the workspace root:
//!
//! ```sh
//! cargo run -p lems-check -- audit
//! cargo run --release -p lems-check -- explore
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod audit;
pub mod explore;
pub mod scenarios;
