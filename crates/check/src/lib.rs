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
//!   drop; crash/recover events alternate per actor), plus domain-level
//!   ledger checks for System-1 deployments (mailbox deposits balance
//!   retrievals, GetMail under injected failures never strands delivered
//!   mail).
//! * [`scenarios`] — reproducible deployment scenarios replayed by the
//!   `lems-check -- audit` subcommand and by integration tests.
//! * [`explore`] — a small-scope schedule model checker: exhaustively
//!   enumerates same-instant event interleavings of tiny System-1 and
//!   System-2 deployments (via [`lems_sim::sched`]), auditing every
//!   terminal trace and reporting failing schedules as replayable
//!   branch-choice lists.
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
