//! # lems-check — correctness tooling for the lems workspace
//!
//! Static and dynamic checks over the deterministic mail simulator:
//!
//! * [`lint`] — a dependency-free static lint pass over
//!   `crates/*/src`: a hand-rolled Rust lexer ([`lex`]) and item parser
//!   ([`items`]) feed token and scope rules that fence the workspace's
//!   determinism and robustness perimeters — no `unwrap`/`expect`/
//!   `panic!` in non-test library code (with a vetted, versioned
//!   allowlist); no wall clock, ambient randomness, hash-ordered
//!   collection or thread fan-out nameable inside sim-driven crates; no
//!   discarded value in the store perimeter; every RNG forked from the
//!   seeded tree; every protocol-enum variant named by its handler's
//!   `match`. What needs no lint is left to the compiler: `Mailbox`
//!   mutators are private to `lems-core`, and a dropped store `Result`
//!   is a build error there and in `lems-store`. Reports render as
//!   text, schema-versioned JSON ([`report`]), or GitHub error
//!   annotations.
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
//! cargo run -p lems-check -- lint
//! cargo run -p lems-check -- audit
//! cargo run --release -p lems-check -- explore
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod explore;
pub mod items;
pub mod lex;
pub mod lint;
pub mod report;
pub mod scenarios;
